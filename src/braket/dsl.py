"""Expression language for bra-ket calculations over one environment.

Grammar (ASCII), with the AST node of each form:

    expr   := term { ("+" | "-") term }       Sum of (sign, node) pairs
    term   := juxt { "*" juxt }               Scale: * is scalar scaling
    juxt   := atom { atom }                   Juxt: composes/pairs
    atom   := PREFIX ":" NAME                 Vector, PREFIX a Variance value
            | NAME                            Name: a _CONSTS keyword (eta,
                                              etainv, idk, idku) or an operator
            | NUMBER | "(" a "+-" b "i" ")"   Literal
            | CALL "(" expr ")"               Call, CALL a key of _CALLS
            | "(" expr ")"

A Name is resolved when evaluated, keywords first, so "eta" is the metric
even where an operator is bound under that name. Parentheses and calls
nest at most _MAX_DEPTH deep; an opening past that is a DslSyntaxError at
its position. A product of any length evaluates, as its Scale chain is
walked in a loop.

A vector binding names a plain component tuple; the token prefix fixes
the space it is read in, exactly as index decorations do in component
notation. Crossing from kets to bras conjugates the components (bras are
stored conjugated); the up/down character is taken from the prefix as
written. Bindings whose declared variance is a bra are un-conjugated
first, so the same rule applies in reverse.

Juxtaposition contracts like tensor indices. Every value has two slots,
a codomain and a domain, each up, down or absent: a ket has only a
codomain, a bra only a domain (bra-down takes ket-up and bra-up takes
ket-down, as in dual_form), an operator both, read from its kind, and a
scalar neither. A scalar on either side scales; a ket followed by a bra
builds the rank-1 operator between them; otherwise the left domain must
equal the right codomain, and the result keeps the left codomain and the
right domain. The one exception is a bra meeting a ket of its own up/down
character, which silently inserts the metric (down) or its inverse (up):
"bd:x kd:y" is a scalar product, "bu:x kd:y" a plain dual form. Any other
adjacency raises VarianceError("cannot juxtapose A with B (at position
N)"). Sums need equal slots.

Values are computed on entries (see entries) in pure Python, with the
kernel the operator algebra uses: a slot that is absent counts 1 in the
value's shape, so a ket is a d x 1 matrix, a bra a 1 x d one, the rank-1
operator is their product and a scalar a 1 x 1 matrix. The evaluator
loads no numpy; a result's dense `components` or `mat` is made when it
is read. A scalar is made plus 0j, as an entry is, so no part is -0.0.

An Environment is read-only: its bindings are mapping views over copies
taken at construction, so its dimension checks hold for every lookup.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from types import MappingProxyType

from .entries import _adjoint, _only, _product, _ReadOnly, _scale, _sum, _Value
from .errors import DimensionMismatch, DslSyntaxError, UnboundName, UnknownToken, VarianceError
from .operators import (
    KindedOperator,
    OperatorKind,
    dirac_adjoint,
    hermitian_adjoint,
    identity_down,
    identity_up,
    metric_inv_op,
    metric_op,
)
from .operators import trace as op_trace
from .spaces import MetricOperator, Variance, VarVector, relate_bra, relate_ket

__all__ = ["Environment", "parse", "evaluate", "eval_source"]


class Environment(_ReadOnly):
    """Named vectors and operators over one metric of fixed dimension.

    Read-only: vectors and operators are mapping views over copies of the
    given bindings, so the dimension checks below hold for every lookup.
    It compares and hashes by identity, as the values it binds do.
    """

    def __init__(self, dimension: int, metric: MetricOperator,
                 vectors: Mapping[str, VarVector] = MappingProxyType({}),
                 operators: Mapping[str, KindedOperator] = MappingProxyType({})):
        vectors, operators = MappingProxyType(dict(vectors)), MappingProxyType(dict(operators))
        if metric.dim != dimension:
            raise DimensionMismatch(f"metric dim {metric.dim} != environment dim {dimension}")
        for name, v in vectors.items():
            if v.dim != dimension:
                raise DimensionMismatch(f"vector {name!r} has dim {v.dim}")
        for name, x in operators.items():
            if x.dim != dimension:
                raise DimensionMismatch(f"operator {name!r} has dim {x.dim}")
        self.__dict__.update(dimension=dimension, metric=metric, vectors=vectors,
                             operators=operators)


# ---------------------------------------------------------------------------
# AST: each node compares, hashes and prints by its fields, pos first


class Vector(_Value):
    _fields = ("pos", "name", "variance")

    def __init__(self, pos: int, name: str, variance: Variance):  # the Variance of the prefix
        self.__dict__.update(pos=pos, name=name, variance=variance)


class Name(_Value):
    _fields = ("pos", "name")

    def __init__(self, pos: int, name: str):  # name: a keyword of _CONSTS or a bound operator
        self.__dict__.update(pos=pos, name=name)


class Literal(_Value):
    _fields = ("pos", "value")

    def __init__(self, pos: int, value: complex):
        self.__dict__.update(pos=pos, value=value)


class Call(_Value):
    _fields = ("pos", "fn", "operand")

    def __init__(self, pos: int, fn: str, operand):  # fn: a key of _CALLS
        self.__dict__.update(pos=pos, fn=fn, operand=operand)


class Juxt(_Value):
    _fields = ("pos", "items")

    def __init__(self, pos: int, items: tuple):
        self.__dict__.update(pos=pos, items=items)


class Sum(_Value):
    _fields = ("pos", "terms")

    def __init__(self, pos: int, terms: tuple):  # terms: (sign, node) pairs, sign +1 or -1
        self.__dict__.update(pos=pos, terms=terms)


class Scale(_Value):
    _fields = ("pos", "factor", "operand")

    def __init__(self, pos: int, factor, operand):
        self.__dict__.update(pos=pos, factor=factor, operand=operand)


# ---------------------------------------------------------------------------
# Tokenizer

_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_PREFIX = "|".join(v.value for v in Variance)
_TOKEN_RE = re.compile(
    rf"""
      (?P<ws>\s+)
    | (?P<cplx>\(\s*(?P<re>[+-]?{_NUM})\s*(?P<imsign>[+-])\s*(?P<im>{_NUM})i\s*\))
    | (?P<prefixed>(?:{_PREFIX}):[A-Za-z_]\w*)
    | (?P<badprefix>(?:{_PREFIX}):)
    | (?P<name>[A-Za-z_]\w*)
    | (?P<number>{_NUM})
    | (?P<op>[+\-*()])
    """,
    re.VERBOSE,
)


class _Token(_Value):
    _fields = ("kind", "text", "pos", "value")

    def __init__(self, kind: str, text: str, pos: int, value: complex = 0j):
        self.__dict__.update(kind=kind, text=text, pos=pos, value=value)


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise UnknownToken(f"unexpected character {src[pos]!r}", pos)
        if m.lastgroup != "ws":
            kind = m.lastgroup
            if kind == "badprefix":
                raise DslSyntaxError(f"{m.group(0)!r} is missing a name", pos)
            if kind == "cplx":
                re_part = float(m.group("re"))
                im_part = float(m.group("im"))
                if m.group("imsign") == "-":
                    im_part = -im_part
                value = complex(re_part, im_part) + 0j  # no -0.0 part
                tokens.append(_Token("literal", m.group(0), pos, value))
            elif kind == "number":
                tokens.append(_Token("literal", m.group(0), pos, complex(float(m.group(0)))))
            else:
                tokens.append(_Token(kind, m.group(0), pos))
        pos = m.end()
    tokens.append(_Token("eof", "", len(src)))
    return tokens


# ---------------------------------------------------------------------------
# Parser

_ATOM_STARTERS = {"prefixed", "name", "literal"}

# How deep parentheses and calls may nest: the parser and the evaluator
# recurse a few frames per level, within Python's limit of 1000.
_MAX_DEPTH = 100


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    @property
    def tok(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        t = self.tok
        self.i += 1
        return t

    def expect(self, text: str):
        if self.tok.kind != "op" or self.tok.text != text:
            raise DslSyntaxError(f"expected {text!r}", self.tok.pos)
        return self.advance()

    def at_op(self, text: str) -> bool:
        return self.tok.kind == "op" and self.tok.text == text

    def parse(self):
        node = self.expr()
        if self.tok.kind != "eof":
            raise DslSyntaxError(f"unexpected {self.tok.text!r}", self.tok.pos)
        return node

    def expr(self):
        pos = self.tok.pos
        terms = [(1, self.term())]
        while self.at_op("+") or self.at_op("-"):
            sign = 1 if self.advance().text == "+" else -1
            terms.append((sign, self.term()))
        if len(terms) == 1:
            return terms[0][1]
        return Sum(pos, tuple(terms))

    def term(self):
        node = self.juxt()
        while self.at_op("*"):
            pos = self.advance().pos
            node = Scale(pos, node, self.juxt())
        return node

    def juxt(self):
        pos = self.tok.pos
        items = [self.atom()]
        while self.tok.kind in _ATOM_STARTERS or self.at_op("("):
            items.append(self.atom())
        if len(items) == 1:
            return items[0]
        return Juxt(pos, tuple(items))

    def atom(self):
        t = self.tok
        if t.kind == "literal":
            self.advance()
            return Literal(t.pos, t.value)
        if t.kind == "prefixed":
            self.advance()
            prefix, name = t.text.split(":", 1)
            return Vector(t.pos, name, Variance(prefix))
        if t.kind == "name":
            self.advance()
            if t.text not in _CALLS:
                return Name(t.pos, t.text)
            self.expect("(")
            return Call(t.pos, t.text, self.enclosed(t.pos))
        if self.at_op("("):
            self.advance()
            return self.enclosed(t.pos)
        raise DslSyntaxError(f"unexpected {t.text or 'end of input'!r}", t.pos)

    def enclosed(self, pos: int):
        """The expr up to its closing ")", one level deeper than the form
        opened at pos."""
        if self.depth == _MAX_DEPTH:
            raise DslSyntaxError(f"nested deeper than {_MAX_DEPTH} levels", pos)
        self.depth += 1
        inner = self.expr()
        self.expect(")")
        self.depth -= 1
        return inner


def parse(src: str):
    """Parse expression source into an AST; malformed input raises
    DslSyntaxError (or its UnknownToken refinement) with a position."""
    return _Parser(_tokenize(src)).parse()


# ---------------------------------------------------------------------------
# Evaluator

_SCALAR = (complex, float, int)

# (codomain, domain) slots of each vector variance: True is up, False is
# down, None is absent. A bra's domain is the character of the ket it
# takes, so bra-down has an up domain.
_VECTOR_SLOTS = {
    Variance.KET_DOWN: (False, None),
    Variance.KET_UP: (True, None),
    Variance.BRA_DOWN: (None, True),
    Variance.BRA_UP: (None, False),
}
_SLOT_VARIANCE = {slots: variance for variance, slots in _VECTOR_SLOTS.items()}


def _describe(value) -> str:
    if isinstance(value, _SCALAR):
        return "scalar"
    if isinstance(value, VarVector):
        return value.variance.name.lower().replace("_", "-")  # e.g. "ket-down"
    return f"operator[{value.kind.value}]"


def _slots(value) -> tuple:
    """(codomain, domain) of a value; a scalar has neither slot."""
    if isinstance(value, VarVector):
        return _VECTOR_SLOTS[value.variance]
    if isinstance(value, KindedOperator):
        return value.kind.codomain_up, value.kind.domain_up
    return None, None


def _cols(value, dim: int) -> int:
    """Columns of a vector or an operator as a matrix (see entries): a ket
    is a dim x 1 matrix, a bra a 1 x dim one and an operator dim x dim."""
    return dim if _slots(value)[1] is not None else 1


def _make(entries, codomain, domain, dim: int):
    """The value with these entries and (codomain, domain) slots."""
    if codomain is None and domain is None:
        return _only(entries)
    if codomain is None or domain is None:
        return VarVector._from_entries(dim, entries, _SLOT_VARIANCE[codomain, domain])
    return KindedOperator._from_entries(dim, entries, OperatorKind.from_variances(domain, codomain))


def _lookup_entries(env: Environment, name: str, as_bra: bool):
    stored = env.vectors.get(name)
    if stored is None:
        raise UnboundName(f"vector {name!r} is not bound")
    if stored.variance.is_bra != as_bra:
        return _adjoint(stored._entries, stored.dim, 1)  # a vector's indices stay put
    return stored._entries


def _combine(env: Environment, left, right, pos: int):
    """Juxtapose two values: contract the left domain with the right codomain."""
    if isinstance(left, _SCALAR) or isinstance(right, _SCALAR):
        scalar, other = (left, right) if isinstance(left, _SCALAR) else (right, left)
        if isinstance(other, _SCALAR):
            return complex(scalar) * complex(other) + 0j
        return _make(_scale(complex(scalar), other._entries), *_slots(other), env.dimension)
    (codomain, domain), (codomain_r, domain_r) = _slots(left), _slots(right)
    a, d = left._entries, env.dimension
    if codomain is None and domain_r is None and domain != codomain_r:
        # a bra meeting a ket of its own character: insert the metric
        a = _product(a, env.metric._inv_entries if codomain_r else env.metric._entries, d, d)
    elif domain != codomain_r:
        raise VarianceError(
            f"cannot juxtapose {_describe(left)} with {_describe(right)} "
            f"(at position {pos})"
        )
    # a ket then a bra (both slots absent) is a dim x 1 times a 1 x dim: the rank-1 operator
    product = _product(a, right._entries, _cols(left, d), _cols(right, d))
    return _make(product, codomain, domain_r, d)


def _sum_pair(env: Environment, a, b, pos: int):
    if _slots(a) != _slots(b):
        raise VarianceError(
            f"cannot add {_describe(a)} and {_describe(b)} (at position {pos})"
        )
    if isinstance(a, _SCALAR):
        return complex(a) + complex(b) + 0j
    return _make(_sum(a._entries, b._entries), *_slots(a), env.dimension)


def _adj(value, env: Environment, pos: int):
    """The hermitian adjoint; the related bra or ket of a vector."""
    if isinstance(value, _SCALAR):
        return complex(value).conjugate() + 0j
    if isinstance(value, VarVector):
        return relate_bra(value) if value.variance.is_ket else relate_ket(value)
    return hermitian_adjoint(value)


def _bar(value, env: Environment, pos: int):
    """The Dirac adjoint, dressed by the metric."""
    if isinstance(value, _SCALAR):
        return complex(value).conjugate() + 0j
    if isinstance(value, KindedOperator):
        return dirac_adjoint(value, env.metric)
    raise VarianceError(
        f"bar() applies to operators and scalars, not {_describe(value)} (at position {pos})"
    )


def _tr(value, env: Environment, pos: int):
    if isinstance(value, KindedOperator):
        return op_trace(value)
    raise VarianceError(f"tr() applies to operators, not {_describe(value)} (at position {pos})")


# The values of the keywords, and the functions the parser reads as calls.
_CONSTS = {
    "eta": lambda env: metric_op(env.metric),
    "etainv": lambda env: metric_inv_op(env.metric),
    "idk": lambda env: identity_down(env.dimension),
    "idku": lambda env: identity_up(env.dimension),
}
_CALLS = {"adj": _adj, "bar": _bar, "tr": _tr}


def evaluate(node, env: Environment):
    """Evaluate an AST to a complex scalar, a VarVector or a KindedOperator."""
    if isinstance(node, Literal):
        return node.value
    if isinstance(node, Vector):
        entries = _lookup_entries(env, node.name, as_bra=node.variance.is_bra)
        return VarVector._from_entries(env.dimension, entries, node.variance)
    if isinstance(node, Name):
        if node.name in _CONSTS:
            return _CONSTS[node.name](env)
        op = env.operators.get(node.name)
        if op is None:
            raise UnboundName(f"operator {node.name!r} is not bound")
        return op
    if isinstance(node, Call):
        return _CALLS[node.fn](evaluate(node.operand, env), env, node.pos)
    if isinstance(node, Juxt):
        values = [(item, evaluate(item, env)) for item in node.items]
        result = values[0][1]
        for item, value in values[1:]:
            result = _combine(env, result, value, item.pos)
        return result
    if isinstance(node, Sum):
        total = None
        for sign, term in node.terms:
            value = evaluate(term, env)
            if sign < 0:
                value = _combine(env, complex(sign), value, term.pos)
            total = value if total is None else _sum_pair(env, total, value, term.pos)
        return total
    if isinstance(node, Scale):
        # a product nests to the left: its first factor is innermost
        links = []
        while isinstance(node, Scale):
            links.append(node)
            node = node.factor
        result = evaluate(node, env)
        for link in reversed(links):
            operand = evaluate(link.operand, env)
            if not (isinstance(result, _SCALAR) or isinstance(operand, _SCALAR)):
                raise VarianceError(f"'*' requires a scalar operand (at position {link.pos})")
            result = _combine(env, result, operand, link.pos)
        return result
    raise TypeError(f"not an AST node: {node!r}")


def eval_source(src: str, env: Environment):
    """Parse and evaluate in one step."""
    return evaluate(parse(src), env)
