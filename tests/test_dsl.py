import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braket import (
    BraketError,
    DslSyntaxError,
    KindedOperator,
    MetricOperator,
    OperatorKind,
    UnboundName,
    UnknownToken,
    Variance,
    VarianceError,
    VarVector,
    dirac_adjoint,
    dual_form,
    hermitian_adjoint,
    relate_bra,
    scalar_product,
    trace,
)
from braket.dsl import Call, Environment, Juxt, Name, Vector, eval_source, parse
from braket.dsl import _MAX_DEPTH
from braket.operators import identity_down, identity_up, metric_inv_op, metric_op
from braket.serialize import environment_from_json
from conftest import max_dev, random_complex, random_metric
from golden_recipes import GOLDEN_PATH

# scalar results on the golden "flat" environment that a product, a sum or
# a conjugate of complex numbers would make with a -0.0 part, and their values
SIGNED_ZERO_SCALARS = {
    "adj((1+0i))": 1 + 0j,
    "bar(bd:x kd:x)": 0j,
    "(0-0i)": 0j,
    "bd:e1 kd:e2 * (-1+0i)": 0j,
}


@pytest.fixture
def env():
    eta = MetricOperator(np.diag([1.0, -1.0]))
    a = KindedOperator(np.array([[0.5, 1.0], [0.25j, -1.0]]), OperatorKind.DOWN_DOWN)
    b = KindedOperator(np.array([[1.0, 2.0j], [0.0, 1.0]]), OperatorKind.UP_UP)
    return Environment(
        dimension=2,
        metric=eta,
        vectors={
            "x": VarVector(np.array([1.0, 1.0]), Variance.KET_DOWN),
            "y": VarVector(np.array([1.0, 1.0]), Variance.KET_DOWN),
            "z": VarVector(np.array([2.0, -1.0j]), Variance.KET_DOWN),
            "xhat": VarVector(np.diag([1.0, -1.0]) @ np.array([1.0, 1.0]), Variance.KET_UP),
            "e1": VarVector(np.array([1.0, 0.0]), Variance.KET_DOWN),
            "e2": VarVector(np.array([0.0, 1.0]), Variance.KET_DOWN),
            "w": VarVector(np.array([1.0, 2.0j]).conj(), Variance.BRA_DOWN),
        },
        operators={"A": a, "B": b},
    )


def random_env(rng, n=3) -> Environment:
    return Environment(
        dimension=n,
        metric=random_metric(rng, n),
        vectors={
            name: VarVector(random_complex(rng, n), Variance.KET_DOWN)
            for name in ("x", "y")
        },
        operators={
            "A": KindedOperator(random_complex(rng, n, n), OperatorKind.DOWN_DOWN)
        },
    )


class TestParse:
    def test_two_token_chain(self):
        ast = parse("bd:x kd:y")
        assert isinstance(ast, Juxt)
        assert ast.items == (Vector(0, "x", Variance.BRA_DOWN), Vector(5, "y", Variance.KET_DOWN))

    def test_trace_node(self):
        assert parse("tr(A)") == Call(0, "tr", Name(3, "A"))

    @pytest.mark.parametrize("variance", list(Variance))
    def test_prefix_is_the_variance(self, variance):
        assert parse(f"{variance.value}:x") == Vector(0, "x", variance)

    def test_prefixes_differ(self):
        assert parse("bd:x") != parse("bu:x")

    @pytest.mark.parametrize("word", ["eta", "etainv", "idk", "idku"])
    def test_keyword_is_a_name(self, word):
        assert parse(word) == Name(0, word)

    @pytest.mark.parametrize("fn", ["adj", "bar", "tr"])
    def test_call_needs_its_paren(self, fn):
        for src, position in [(fn, len(fn)), (f"{fn} A", len(fn) + 1)]:
            with pytest.raises(DslSyntaxError) as err:
                parse(src)
            assert err.value.position == position
            assert str(err.value) == f"expected '(' (at position {position})"

    def test_variance_errors_are_not_parse_errors(self):
        parse("kd:x kd:y")

    def test_missing_name(self):
        with pytest.raises(DslSyntaxError):
            parse("kd:")

    def test_unknown_token(self):
        with pytest.raises(UnknownToken) as err:
            parse("bd:x @ kd:y")
        assert err.value.position == 5

    def test_unbalanced_paren(self):
        with pytest.raises(DslSyntaxError):
            parse("tr(A")

    def test_empty_input(self):
        with pytest.raises(DslSyntaxError):
            parse("   ")

    @pytest.mark.parametrize(
        "opening, src",
        [(100, "(" * 300 + "1" + ")" * 300), (400, "adj(" * 400 + "1" + ")" * 400),
         (250, "(adj(" * 60 + "1" + "))" * 60)],
        ids=["parentheses", "calls", "mixed"],
    )
    def test_nesting_past_the_limit(self, opening, src):
        # refused at the opening of the first form past _MAX_DEPTH, before
        # the parser's recursion can run out
        with pytest.raises(DslSyntaxError) as err:
            parse(src)
        assert type(err.value) is DslSyntaxError and err.value.position == opening
        parse("(" * _MAX_DEPTH + "1" + ")" * _MAX_DEPTH)

    def test_complex_literal(self):
        ast = parse("(1.5-2i)")
        assert ast.value == 1.5 - 2j

    def test_sum_with_signs(self):
        ast = parse("tr(A) - tr(B) + (1+0i)")
        signs = [sign for sign, _ in ast.terms]
        assert signs == [1, -1, 1]


class TestEvalBrackets:
    def test_auto_metric_matches_scalar_product(self, env):
        # null vector for diag(1,-1): the empty-angle rule inserts eta
        assert eval_source("bd:x kd:y", env) == 0
        want = scalar_product(env.metric, env.vectors["x"], env.vectors["z"])
        assert abs(eval_source("bd:x kd:z", env) - want) < 1e-12

    def test_up_pair_inserts_inverse_metric(self, env):
        got = eval_source("bu:xhat ku:xhat", env)
        want = scalar_product(
            env.metric, env.vectors["xhat"], env.vectors["xhat"]
        )
        assert abs(got - want) < 1e-12

    def test_dual_form_pairs(self, env):
        got = eval_source("bu:xhat kd:y", env)
        want = dual_form(relate_bra(env.vectors["xhat"]), env.vectors["y"])
        assert abs(got - want) < 1e-12

    def test_coupled_bra_equals_metric_insertion(self, env):
        # <xhat|_u |y>_d with xhat = eta x reproduces <x|_d eta |y>_d
        assert abs(eval_source("bu:xhat kd:y", env) - eval_source("bd:x kd:y", env)) < 1e-12

    def test_explicit_metric_insertion(self, env):
        assert abs(eval_source("bd:x eta kd:y", env) - eval_source("bd:x kd:y", env)) < 1e-12

    def test_completeness_relation(self, env):
        total = eval_source("kd:e1 bu:e1 + kd:e2 bu:e2", env)
        assert total.kind == OperatorKind.DOWN_DOWN
        assert max_dev(total.mat, np.eye(2)) == 0

    def test_up_completeness_relation(self, env):
        total = eval_source("ku:e1 bd:e1 + ku:e2 bd:e2", env)
        assert total.kind == OperatorKind.UP_UP
        assert max_dev(total.mat, np.eye(2)) == 0

    def test_metric_application_couples(self, env):
        got = eval_source("eta kd:x", env)
        assert got.variance == Variance.KET_UP
        assert max_dev(got.components, env.metric.eta @ env.vectors["x"].components) == 0

    def test_stored_bra_binding(self, env):
        # w was bound post-conjugation; reading it as a ket conjugates back
        got = eval_source("bu:w kd:e1", env)
        assert got == env.vectors["w"].components[0]


class TestEvalOperators:
    def test_rank_one_kinds(self, env):
        op = eval_source("kd:e1 bu:e2", env)
        assert op.kind == OperatorKind.DOWN_DOWN
        want = np.zeros((2, 2))
        want[0, 1] = 1.0
        assert max_dev(op.mat, want) == 0
        assert eval_source("kd:e1 bd:e2", env).kind == OperatorKind.UP_DOWN
        assert eval_source("ku:e1 bu:e2", env).kind == OperatorKind.DOWN_UP
        assert eval_source("ku:e1 bd:e2", env).kind == OperatorKind.UP_UP

    def test_apply_operator(self, env):
        got = eval_source("A kd:z", env)
        assert got.variance == Variance.KET_DOWN
        a = env.operators["A"]
        assert max_dev(got.components, a.mat @ env.vectors["z"].components) == 0

    def test_matrix_element(self, env):
        got = eval_source("bu:e1 A kd:z", env)
        a = env.operators["A"]
        want = (a.mat @ env.vectors["z"].components)[0]
        assert abs(got - want) < 1e-12

    def test_operator_chain_with_metric(self, env):
        got = eval_source("eta A", env)
        assert got.kind == OperatorKind.DOWN_UP
        got = eval_source("B eta", env)
        assert got.kind == OperatorKind.DOWN_UP

    def test_identity_tokens(self, env):
        assert eval_source("tr(idk)", env) == 2
        assert eval_source("tr(idku)", env) == 2
        got = eval_source("etainv eta", env)
        assert got.kind == OperatorKind.DOWN_DOWN
        assert max_dev(got.mat, np.eye(2)) < 1e-12

    def test_adj_and_bar_agree_with_library(self, env):
        a = env.operators["A"]
        assert max_dev(eval_source("adj(A)", env).mat, hermitian_adjoint(a).mat) == 0
        assert max_dev(
            eval_source("bar(A)", env).mat, dirac_adjoint(a, env.metric).mat
        ) < 1e-12
        assert abs(eval_source("tr(A)", env) - trace(a)) < 1e-12

    def test_adj_of_ket_is_bra(self, env):
        got = eval_source("adj(kd:z)", env)
        assert got.variance == Variance.BRA_DOWN
        assert max_dev(got.components, env.vectors["z"].components.conj()) == 0

    def test_scalar_scaling(self, env):
        got = eval_source("(0+2i) * A kd:e1", env)
        a = env.operators["A"]
        assert max_dev(got.components, 2j * a.mat[:, 0]) < 1e-12

    def test_juxtaposed_literal_scales(self, env):
        got = eval_source("(2+0i) kd:e1", env)
        assert max_dev(got.components, [2.0, 0.0]) == 0

    def test_sum_of_operators(self, env):
        got = eval_source("A + A", env)
        assert max_dev(got.mat, 2 * env.operators["A"].mat) == 0

    def test_long_product(self, env):
        # a product nests to the left, one Scale per factor
        assert (eval_source("A" + " * 1" * 2000, env).mat == env.operators["A"].mat).all()
        src = "1 * " * 1000 + "A * A"
        with pytest.raises(VarianceError, match=f"at position {len(src) - 3}"):
            eval_source(src, env)

    def test_scalar_minus(self, env):
        assert eval_source("tr(A) - tr(A)", env) == 0


class TestEvalErrors:
    def test_unbound_names(self, env):
        with pytest.raises(UnboundName):
            eval_source("kd:nope", env)
        with pytest.raises(UnboundName):
            eval_source("Q kd:x", env)

    def test_ket_ket_adjacency(self, env):
        with pytest.raises(VarianceError):
            eval_source("kd:x kd:y", env)

    def test_operator_kind_clash(self, env):
        with pytest.raises(VarianceError):
            eval_source("eta eta", env)

    def test_wrong_application(self, env):
        with pytest.raises(VarianceError):
            eval_source("B kd:x", env)  # uu operator on a down ket
        with pytest.raises(VarianceError):
            eval_source("kd:x A", env)  # ket absorbing an operator

    def test_mixed_sum(self, env):
        with pytest.raises(VarianceError):
            eval_source("kd:x + bd:x", env)
        with pytest.raises(VarianceError):
            eval_source("tr(A) + kd:x", env)

    def test_star_needs_scalar(self, env):
        with pytest.raises(VarianceError):
            eval_source("A * A", env)

    def test_bar_of_ket_rejected(self, env):
        with pytest.raises(VarianceError):
            eval_source("bar(kd:x)", env)

    def test_trace_of_ket_rejected(self, env):
        with pytest.raises(VarianceError):
            eval_source("tr(kd:x)", env)


class TestKeywords:
    def test_keywords_win_over_bound_operators(self, env):
        # a bare name is a keyword first, whatever the environment binds
        shadow = KindedOperator(np.array([[2.0, 1.0], [0.5, 3.0]]), OperatorKind.DOWN_UP)
        words = {
            "eta": metric_op(env.metric),
            "etainv": metric_inv_op(env.metric),
            "idk": identity_down(2),
            "idku": identity_up(2),
        }
        shadowed = Environment(
            dimension=2, metric=env.metric, operators={word: shadow for word in words}
        )
        for word, want in words.items():
            got = eval_source(word, shadowed)
            assert got.kind == want.kind, word
            assert got.mat.tobytes() == want.mat.tobytes(), word


class TestScalarZeros:
    @pytest.fixture(scope="class")
    def flat(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        return environment_from_json(golden["environments"]["flat"])

    @pytest.mark.parametrize("src", SIGNED_ZERO_SCALARS)
    def test_no_negative_zero_part(self, flat, src):
        # a scalar is made plus 0j, as an entry is, so no part is -0.0
        got, want = eval_source(src, flat), SIGNED_ZERO_SCALARS[src]
        assert struct.pack("<2d", got.real, got.imag) == struct.pack("<2d", want.real, want.imag)


class TestEnvironment:
    def test_read_only(self, env):
        # a binding added after construction would skip the dimension checks
        with pytest.raises(TypeError):
            env.vectors["v"] = VarVector(np.ones(3), Variance.KET_DOWN)
        with pytest.raises(TypeError):
            env.operators["C"] = KindedOperator(np.eye(3), OperatorKind.DOWN_DOWN)
        for attr in ("vectors", "operators", "metric"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(env, attr, getattr(env, attr))

    def test_bindings_are_copied(self):
        vectors = {"x": VarVector(np.array([1.0, 0.0]), Variance.KET_DOWN)}
        env = Environment(dimension=2, metric=MetricOperator(np.eye(2)), vectors=vectors)
        vectors["v"] = VarVector(np.ones(3), Variance.KET_DOWN)
        with pytest.raises(UnboundName):
            eval_source("bd:v kd:x", env)

    def test_compares_and_hashes_by_identity(self):
        # like the metric, vectors and operators it binds; a generated
        # __hash__ would hash its mapping views and raise
        metric = MetricOperator(np.eye(2))
        a, b = Environment(2, metric), Environment(2, metric)
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert len({a, b}) == 2


class TestLibraryCoherence:
    def test_random_environments(self, rng):
        for _ in range(20):
            env = random_env(rng)
            x, y = env.vectors["x"], env.vectors["y"]
            a = env.operators["A"]
            up = lambda v: VarVector(v.components, Variance.KET_UP)
            checks = [
                ("bd:x kd:y", scalar_product(env.metric, x, y)),
                ("bu:x ku:y", scalar_product(env.metric, up(x), up(y))),
                ("tr(A)", trace(a)),
                ("tr(bar(A))", np.conj(trace(a))),
            ]
            for src, want in checks:
                assert abs(eval_source(src, env) - complex(want)) < 1e-10


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=1024))
def test_parser_totality(src):
    # fuzzing: parse either succeeds or raises the typed syntax errors
    try:
        parse(src)
    except DslSyntaxError:
        pass


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.sampled_from(
            ["kd:x", "ku:x", "bd:y", "bu:y", "A", "eta", "etainv", "idk",
             "idku", "(0.5+1i)", "+", "-", "*", "(", ")", "tr(A)", "bar(A)",
             "adj(kd:x)"]
        ),
        max_size=12,
    )
)
def test_eval_totality(tokens):
    # grammar-shaped fuzzing: anything that parses either evaluates or
    # raises a library error, never an unexpected exception
    src = " ".join(tokens)
    eta = MetricOperator(np.diag([1.0, -1.0]))
    env = Environment(
        dimension=2,
        metric=eta,
        vectors={
            "x": VarVector(np.array([1.0, 2.0]), Variance.KET_DOWN),
            "y": VarVector(np.array([0.5, -1.0]), Variance.KET_DOWN),
        },
        operators={"A": KindedOperator(np.eye(2), OperatorKind.DOWN_DOWN)},
    )
    try:
        parse(src)
    except DslSyntaxError:
        return
    try:
        eval_source(src, env)
    except BraketError:
        pass
