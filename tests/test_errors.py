"""Every documented failure raises a BraketError subclass, never a bare
builtin exception; checked on the source with ast."""

import ast
import builtins
from pathlib import Path

import braket

# dsl.evaluate's guard against a non-AST argument: the parser never builds one,
# so no user input reaches it. The package's module __getattr__ (PEP 562) must
# raise AttributeError for a name it does not have.
EXEMPT = {("dsl.py", "evaluate", "TypeError"), ("__init__.py", "__getattr__", "AttributeError")}


class _Raises(ast.NodeVisitor):
    """Collects (enclosing function, exception name, line) for each raise of a
    builtin exception class."""

    def __init__(self):
        self.scope = ["<module>"]
        self.found = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Raise(self, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        cls = getattr(builtins, exc.id, None) if isinstance(exc, ast.Name) else None
        if isinstance(cls, type) and issubclass(cls, BaseException):
            self.found.append((self.scope[-1], exc.id, node.lineno))


def test_no_builtin_exception_raised():
    offenders = []
    for path in sorted(Path(braket.__file__).parent.glob("*.py")):
        visitor = _Raises()
        visitor.visit(ast.parse(path.read_text()))
        offenders += [
            f"{path.name}:{line} {func} raises {name}"
            for func, name, line in visitor.found
            if (path.name, func, name) not in EXEMPT
        ]
    assert offenders == []
