"""Expression language for bra-ket calculations over one environment.

Grammar (ASCII):

    expr   := term { ("+" | "-") term }
    term   := juxt { "*" juxt }            * is scalar scaling
    juxt   := atom { atom }                juxtaposition composes/pairs
    atom   := "kd:NAME" | "ku:NAME" | "bd:NAME" | "bu:NAME"
            | "eta" | "etainv" | "idk" | "idku"
            | NAME                         a bound operator
            | NUMBER | "(" a "+-" b "i" ")"  complex literal
            | "adj(" expr ")" | "bar(" expr ")" | "tr(" expr ")"
            | "(" expr ")"

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

An Environment is read-only: its bindings are mapping views over copies
taken at construction, so its dimension checks hold for every lookup.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

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


@dataclass(frozen=True)
class Environment:
    """Named vectors and operators over one metric of fixed dimension.

    Read-only: vectors and operators are mapping views over copies of the
    given bindings, so the dimension checks below hold for every lookup.
    """

    dimension: int
    metric: MetricOperator
    vectors: Mapping[str, VarVector] = field(default_factory=dict)
    operators: Mapping[str, KindedOperator] = field(default_factory=dict)

    def __post_init__(self):
        for attr in ("vectors", "operators"):
            object.__setattr__(self, attr, MappingProxyType(dict(getattr(self, attr))))
        if self.metric.dim != self.dimension:
            raise DimensionMismatch(
                f"metric dim {self.metric.dim} != environment dim {self.dimension}"
            )
        for name, v in self.vectors.items():
            if v.dim != self.dimension:
                raise DimensionMismatch(f"vector {name!r} has dim {v.dim}")
        for name, x in self.operators.items():
            if x.dim != self.dimension:
                raise DimensionMismatch(f"operator {name!r} has dim {x.dim}")


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Ket:
    pos: int
    name: str
    up: bool


@dataclass(frozen=True)
class Bra:
    pos: int
    name: str
    up: bool


@dataclass(frozen=True)
class OpRef:
    pos: int
    name: str


@dataclass(frozen=True)
class Const:
    """A metric or identity operator named by one of the _CONSTS keywords."""

    pos: int
    name: str


_CONSTS = {
    "eta": lambda env: metric_op(env.metric),
    "etainv": lambda env: metric_inv_op(env.metric),
    "idk": lambda env: identity_down(env.dimension),
    "idku": lambda env: identity_up(env.dimension),
}


@dataclass(frozen=True)
class Literal:
    pos: int
    value: complex


@dataclass(frozen=True)
class Juxt:
    pos: int
    items: tuple


@dataclass(frozen=True)
class Sum:
    pos: int
    terms: tuple  # (sign, node) pairs, sign is +1 or -1


@dataclass(frozen=True)
class Scale:
    pos: int
    factor: object
    operand: object


@dataclass(frozen=True)
class Adj:
    pos: int
    operand: object


@dataclass(frozen=True)
class Bar:
    pos: int
    operand: object


@dataclass(frozen=True)
class Trace:
    pos: int
    operand: object


# ---------------------------------------------------------------------------
# Tokenizer

_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_TOKEN_RE = re.compile(
    rf"""
      (?P<ws>\s+)
    | (?P<cplx>\(\s*(?P<re>[+-]?{_NUM})\s*(?P<imsign>[+-])\s*(?P<im>{_NUM})i\s*\))
    | (?P<prefixed>(?:kd|ku|bd|bu):[A-Za-z_]\w*)
    | (?P<badprefix>(?:kd|ku|bd|bu):)
    | (?P<name>[A-Za-z_]\w*)
    | (?P<number>{_NUM})
    | (?P<op>[+\-*()])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int
    value: complex = 0j


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
                tokens.append(_Token("literal", m.group(0), pos, complex(re_part, im_part)))
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


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

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
            if prefix in ("kd", "ku"):
                return Ket(t.pos, name, up=prefix == "ku")
            return Bra(t.pos, name, up=prefix == "bu")
        if t.kind == "name":
            self.advance()
            if t.text in _CONSTS:
                return Const(t.pos, t.text)
            if t.text in ("adj", "bar", "tr"):
                self.expect("(")
                inner = self.expr()
                self.expect(")")
                node_cls = {"adj": Adj, "bar": Bar, "tr": Trace}[t.text]
                return node_cls(t.pos, inner)
            return OpRef(t.pos, t.text)
        if self.at_op("("):
            self.advance()
            inner = self.expr()
            self.expect(")")
            return inner
        raise DslSyntaxError(f"unexpected {t.text or 'end of input'!r}", t.pos)


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


def _data(value):
    """The component array, matrix or complex number carried by a value."""
    if isinstance(value, VarVector):
        return value.components
    if isinstance(value, KindedOperator):
        return value.mat
    return complex(value)


def _make(data, codomain, domain):
    """Inverse of _slots and _data: the value with these data and slots."""
    if codomain is None and domain is None:
        return complex(data)
    if codomain is None or domain is None:
        return VarVector(data, _SLOT_VARIANCE[codomain, domain])
    return KindedOperator(data, OperatorKind.from_variances(domain, codomain))


def _lookup_components(env: Environment, name: str, as_bra: bool) -> np.ndarray:
    stored = env.vectors.get(name)
    if stored is None:
        raise UnboundName(f"vector {name!r} is not bound")
    comps = stored.components
    if stored.variance.is_bra != as_bra:
        comps = comps.conj()
    return comps


def _combine(env: Environment, left, right, pos: int):
    """Juxtapose two values: contract the left domain with the right codomain."""
    if isinstance(left, _SCALAR) or isinstance(right, _SCALAR):
        scalar, other = (left, right) if isinstance(left, _SCALAR) else (right, left)
        return _make(complex(scalar) * _data(other), *_slots(other))
    (codomain, domain), (codomain_r, domain_r) = _slots(left), _slots(right)
    a, b = _data(left), _data(right)
    if domain is None and codomain_r is None:  # ket then bra
        return _make(np.outer(a, b), codomain, domain_r)
    if codomain is None and domain_r is None and domain != codomain_r:
        # a bra meeting a ket of its own character: insert the metric
        a = a @ (env.metric.eta_inv if codomain_r else env.metric.eta)
    elif domain != codomain_r:
        raise VarianceError(
            f"cannot juxtapose {_describe(left)} with {_describe(right)} "
            f"(at position {pos})"
        )
    return _make(a @ b, codomain, domain_r)


def _sum_pair(a, b, pos: int):
    if _slots(a) != _slots(b):
        raise VarianceError(
            f"cannot add {_describe(a)} and {_describe(b)} (at position {pos})"
        )
    return _make(_data(a) + _data(b), *_slots(a))


def evaluate(node, env: Environment):
    """Evaluate an AST to a complex scalar, a VarVector or a KindedOperator."""
    if isinstance(node, Literal):
        return node.value
    if isinstance(node, Ket):
        comps = _lookup_components(env, node.name, as_bra=False)
        return VarVector(comps, Variance.KET_UP if node.up else Variance.KET_DOWN)
    if isinstance(node, Bra):
        comps = _lookup_components(env, node.name, as_bra=True)
        return VarVector(comps, Variance.BRA_UP if node.up else Variance.BRA_DOWN)
    if isinstance(node, OpRef):
        op = env.operators.get(node.name)
        if op is None:
            raise UnboundName(f"operator {node.name!r} is not bound")
        return op
    if isinstance(node, Const):
        return _CONSTS[node.name](env)
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
            total = value if total is None else _sum_pair(total, value, term.pos)
        return total
    if isinstance(node, Scale):
        factor = evaluate(node.factor, env)
        operand = evaluate(node.operand, env)
        if not (isinstance(factor, _SCALAR) or isinstance(operand, _SCALAR)):
            raise VarianceError(f"'*' requires a scalar operand (at position {node.pos})")
        return _combine(env, factor, operand, node.pos)
    if isinstance(node, Adj):
        value = evaluate(node.operand, env)
        if isinstance(value, _SCALAR):
            return complex(value).conjugate()
        if isinstance(value, VarVector):
            return relate_bra(value) if value.variance.is_ket else relate_ket(value)
        return hermitian_adjoint(value)
    if isinstance(node, Bar):
        value = evaluate(node.operand, env)
        if isinstance(value, _SCALAR):
            return complex(value).conjugate()
        if isinstance(value, KindedOperator):
            return dirac_adjoint(value, env.metric)
        raise VarianceError(
            f"bar() applies to operators and scalars, not {_describe(value)} "
            f"(at position {node.pos})"
        )
    if isinstance(node, Trace):
        value = evaluate(node.operand, env)
        if isinstance(value, KindedOperator):
            return op_trace(value)
        raise VarianceError(
            f"tr() applies to operators, not {_describe(value)} "
            f"(at position {node.pos})"
        )
    raise TypeError(f"not an AST node: {node!r}")


def eval_source(src: str, env: Environment):
    """Parse and evaluate in one step."""
    return evaluate(parse(src), env)
