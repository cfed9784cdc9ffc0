import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braket import (
    Basis,
    DimensionMismatch,
    InvalidArgument,
    KindedOperator,
    MetricOperator,
    NotHermitian,
    OperatorKind,
    SchemaError,
    Singular,
    Variance,
    VarVector,
    Weight,
    build_rep,
    build_rep_diag,
    orthonormal_basis,
    rep_signature,
    rotation_basis,
)
from braket import serialize, sl2c
from braket.dsl import Environment
from braket.linalg import inverse
from braket.serialize import (
    _matrix_text,
    dump_json,
    dump_rep,
    environment_from_json,
    environment_to_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
    operator_from_json,
    operator_to_json,
    rep_from_json,
    rep_to_json,
    vector_from_json,
    vector_to_json,
)
from conftest import forbid_dense, max_dev, random_complex
from test_sl2c import dense_canonical, dense_closed_form, reps_in_every_basis


def signed_entries(m):
    """Entries of every position of m whose bits are not all clear, so a
    -0.0 is kept: the raw input for checking how _matrix_text spells a
    zero's sign, which linalg._entries, by the zero rule, never gives it."""
    flat = np.ascontiguousarray(m, dtype=complex).reshape(-1)
    index = np.flatnonzero(flat.view(np.int64).reshape(flat.size, 2).any(axis=1))
    return index.tolist(), flat[index].tolist()


def per_entry_pairs(m):
    """The per-entry encoding matrix_to_json must reproduce byte for byte."""
    m = np.asarray(m, dtype=complex)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "data": [[float(z.real), float(z.imag)] for z in m.reshape(-1)],
    }


class TestMatrixSchema:
    @pytest.mark.parametrize(
        "m",
        [
            np.array([[-0.0, 0.0], [complex(-0.0, -0.0), complex(0.0, -0.0)]]),
            np.array([[5e-324, -2.2250738585072014e-309j], [1e-310 + 1e-320j, 1.0]]),
            np.array([[1e308, -1e308], [1e308j, complex(-1.7976931348623157e308, 1e-308)]]),
            np.array([[1, -2, 0], [3, 2**52 + 1, -7]]),
            np.array([[0.1, -1.5], [2.0 / 3.0, -0.0]], dtype=np.float32),
            np.array([[0.1, -1.5, 1e-300]]),
            np.array([[1 + 2j]], dtype=np.complex64),
            np.array([[complex(np.nan, -0.0), complex(0.0, -np.nan)], [np.inf, -np.inf]]),
            np.array([[complex(np.inf, np.nan), complex(-np.inf, 1.0)], [0, 1j * np.inf]]),
        ],
        ids=["signed-zeros", "subnormals", "huge", "int", "float32", "float64", "complex64",
             "nan", "inf"],
    )
    def test_pairs_match_per_entry_encoding(self, m):
        payload = matrix_to_json(m)
        assert json.dumps(payload) == json.dumps(per_entry_pairs(m))
        # the text writer's output is that of the dict encoding, byte for byte
        assert _matrix_text(*m.shape, signed_entries(m)) == json.dumps(payload)
        # plain, mutable Python lists of Python floats
        assert type(payload["data"]) is list
        assert all(type(pair) is list and len(pair) == 2 for pair in payload["data"])
        assert all(type(x) is float for pair in payload["data"] for x in pair)

    @pytest.mark.parametrize(
        "v",
        [
            np.zeros(7, dtype=complex),
            np.array([0j]),
            np.array([2.5 - 1j]),
            np.array([1j, 0, 0, 0]),
            np.array([0, 0, 0, -3.0]),
            np.array([1, 2j, -3, 4 + 5j]),
            np.array([0, complex(-0.0, 0), complex(-0.0, -0.0), 0, 0, complex(0, -0.0), 0]),
        ],
        ids=["all-zeros", "size-1-zero", "size-1", "first-only", "last-only", "no-zeros",
             "negative-zeros"],
    )
    def test_zero_runs_match_dict_encoding(self, v):
        row = v.reshape(1, -1)
        assert _matrix_text(*row.shape, signed_entries(row)) == json.dumps(matrix_to_json(row))

    def test_identity_payload(self):
        assert matrix_to_json(np.eye(2)) == {
            "rows": 2,
            "cols": 2,
            "data": [[1, 0], [0, 0], [0, 0], [1, 0]],
        }

    def test_round_trip_bit_exact(self, rng):
        m = random_complex(rng, 3, 4)
        text = json.dumps(matrix_to_json(m))
        back = matrix_from_json(json.loads(text))
        assert (back == m).all()

    def test_truncated_json(self):
        with pytest.raises(SchemaError):
            load_json('{"rows": 2, "cols":')

    def test_deep_nesting(self):
        # json.loads raises RecursionError past the interpreter's depth
        with pytest.raises(SchemaError, match="nested too deeply"):
            load_json("[" * 200_000)

    def test_bytes_not_utf8(self):
        with pytest.raises(SchemaError, match="invalid JSON: 'utf-8' codec"):
            load_json(b'\xff\xfe{"rows": 1, "cols": 1, "data": [[1, 0]]}')

    def test_missing_key(self):
        with pytest.raises(SchemaError):
            matrix_from_json({"rows": 2, "data": []})

    def test_wrong_length(self):
        with pytest.raises(SchemaError):
            matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})

    def test_bad_entry(self):
        with pytest.raises(SchemaError):
            matrix_from_json({"rows": 1, "cols": 1, "data": [[1]]})
        with pytest.raises(SchemaError):
            matrix_from_json({"rows": 1, "cols": 1, "data": ["x"]})
        with pytest.raises(SchemaError, match="entry 1 is not"):
            matrix_from_json({"rows": 1, "cols": 2, "data": [[1, 0], [True, 0]]})
        # an integer past the float range, as json.loads gives for 400 digits
        with pytest.raises(SchemaError, match="entry 1 does not fit a float"):
            matrix_from_json(load_json('{"rows": 1, "cols": 2, "data": [[1, 0], [%s, 0]]}'
                                       % ("9" * 400)))

    def test_bad_dims(self):
        with pytest.raises(SchemaError):
            matrix_from_json({"rows": 0, "cols": 1, "data": []})
        for rows, cols in ((True, True), (True, 1), (1, False), (1.0, 1)):
            with pytest.raises(SchemaError, match="rows/cols"):
                matrix_from_json({"rows": rows, "cols": cols, "data": [[1, 0]]})

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.data(),
    )
    def test_text_round_trip_bit_exact(self, rows, cols, data):
        # signed zeros, subnormals and the ends of the float range among
        # arbitrary finite and infinite values
        special = st.sampled_from(
            [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
             1.7976931348623157e308, float("inf"), float("-inf")]
        )
        part = st.one_of(special, st.floats(allow_nan=False))
        values = data.draw(st.lists(st.tuples(part, part), min_size=rows * cols,
                                    max_size=rows * cols))
        m = np.empty(rows * cols, dtype=complex)
        m.real = [re for re, _ in values]
        m.imag = [im for _, im in values]
        m = m.reshape(rows, cols)
        text = _matrix_text(rows, cols, signed_entries(m))
        assert text == json.dumps(matrix_to_json(m))
        back = matrix_from_json(load_json(text))
        assert back.dtype == m.dtype and back.tobytes() == m.tobytes()


class TestVectorOperatorSchema:
    def test_vector_round_trip(self, rng):
        v = VarVector(random_complex(rng, 3), Variance.BRA_UP)
        back = vector_from_json(json.loads(json.dumps(vector_to_json(v))))
        assert back.variance == v.variance
        assert (back.components == v.components).all()

    def test_vector_bad_variance(self):
        with pytest.raises(SchemaError):
            vector_from_json({"variance": "xx", "components": [[1, 0]]})

    def test_operator_round_trip(self, rng):
        x = KindedOperator(random_complex(rng, 2, 2), OperatorKind.UP_DOWN)
        back = operator_from_json(json.loads(json.dumps(operator_to_json(x))))
        assert back.kind == x.kind
        assert (back.mat == x.mat).all()

    def test_operator_bad_kind(self):
        with pytest.raises(SchemaError):
            operator_from_json({"kind": "zz", "matrix": matrix_to_json(np.eye(2))})


def doubled(rep):
    """rep with M and N doubled. I = M + N and K = i(N - M) still hold, but
    [M1, M2] - iM3 no longer vanishes (residual 1.0 for the (1/2, 0) bundle)."""
    out = replace(rep)
    twice = tuple((index, [2 * v for v in values]) for index, values in rep._mn)
    object.__setattr__(out, "_mn", twice)
    return out


class TestRepSchema:
    def test_round_trip_fundamental(self):
        rep = build_rep(Weight(1), Weight(0))
        payload = json.loads(json.dumps(rep_to_json(rep)))
        back = rep_from_json(payload)
        assert back.j1 == rep.j1 and back.j2 == rep.j2
        assert back.dim == rep.dim
        assert back.epsilon == rep.epsilon
        assert back.basis == rep.basis
        assert back.labels == rep.labels
        for mine, theirs in zip(rep.M + rep.N + rep.I + rep.K,
                                back.M + back.N + back.I + back.K):
            assert (mine == theirs).all()
        assert (back.metric.eta == rep.metric.eta).all()

    def test_diagonal_rep_omits_second_weight(self):
        payload = rep_to_json(build_rep_diag(Weight(2)))
        assert "twice_j2" not in payload
        back = rep_from_json(payload)
        assert back.is_diagonal and back.j1 == Weight(2)

    def test_signature_field(self):
        payload = rep_to_json(build_rep(Weight(1), Weight(0)))
        assert payload["signature"] == [2, 2]

    def test_rotation_basis_round_trip(self):
        _, rot = rotation_basis(build_rep_diag(Weight(1)))
        back = rep_from_json(json.loads(json.dumps(rep_to_json(rot))))
        assert back.basis == "rotation"
        assert back.basis is Basis.ROTATION
        assert max_dev(back.metric.eta, rot.metric.eta) == 0

    @pytest.mark.parametrize("basis", ["sideways", "ROTATION", None, ["rotation"]])
    def test_unknown_basis(self, basis):
        payload = rep_to_json(build_rep(Weight(1), Weight(0)))
        payload["basis"] = basis
        with pytest.raises(SchemaError, match="basis"):
            rep_from_json(payload)

    def test_equal_weights_must_be_omitted(self):
        payload = rep_to_json(build_rep(Weight(1), Weight(0)))
        payload["twice_j2"] = payload["twice_j1"]
        with pytest.raises(SchemaError):
            rep_from_json(payload)

    def test_bad_generator_count(self):
        payload = rep_to_json(build_rep(Weight(1), Weight(0)))
        payload["generators"]["M"] = payload["generators"]["M"][:2]
        with pytest.raises(SchemaError):
            rep_from_json(payload)

    def test_bad_epsilon(self):
        for epsilon in (3, True, 1.0):
            payload = rep_to_json(build_rep(Weight(1), Weight(0)))
            payload["epsilon"] = epsilon
            with pytest.raises(SchemaError, match="epsilon"):
                rep_from_json(payload)

    @pytest.mark.parametrize(
        "field, value, rep",
        [
            ("twice_j1", True, build_rep(Weight(1), Weight(2))),
            ("twice_j2", False, build_rep(Weight(1), Weight(2))),
            # in the 1-dim bundle, True equals the dimension and the signature's n_plus
            ("dim", True, build_rep_diag(Weight(0))),
            ("signature", [True, 0], build_rep_diag(Weight(0))),
            ("twice_j1", -3, build_rep(Weight(1), Weight(2))),
        ],
        ids=["twice_j1", "twice_j2", "dim", "signature", "twice_j1-negative"],
    )
    def test_integer_fields_reject_bool(self, field, value, rep):
        payload = rep_to_json(rep)
        payload[field] = value
        with pytest.raises(SchemaError, match=field):
            rep_from_json(payload)

    def test_dump_rep_matches_dict_encoding(self):
        # every shape and basis, a dim-144 orthonormal bundle, and that
        # bundle negated, whose M and N carry -0.0 in every zero entry
        reps = reps_in_every_basis()
        orth = orthonormal_basis(rotation_basis(build_rep(Weight(8), Weight(7)))[1])
        negated = replace(orth)
        object.__setattr__(negated, "_mn", tuple(signed_entries(-x) for x in orth.M + orth.N))
        assert all(np.signbit(m.real).sum() > m.size // 2 for m in negated.M + negated.N)
        reps += [orth, negated]
        for rep in reps:
            assert dump_rep(rep) == dump_json(rep_to_json(rep))

    @pytest.mark.parametrize("weights", [{"twice_j2": 0}, {"twice_j1": 5, "twice_j2": 3}])
    def test_weights_contradicting_dim(self, weights, monkeypatch):
        # a (1/2, 1) payload of dim 12 that claims the weights (1/2, 0) or (5/2, 3/2);
        # it is rejected before any bundle is built; the loader imports the
        # bundle constructors from sl2c when it is called
        calls = []
        for name in ("build_rep", "build_rep_diag"):
            monkeypatch.setattr(sl2c, name, lambda *args, name=name: calls.append(name))
        payload = rep_to_json(build_rep(Weight(1), Weight(2)))
        payload.update(weights)
        with pytest.raises(SchemaError, match="dim"):
            rep_from_json(payload)
        assert calls == []

    def test_label_count_mismatch(self):
        payload = rep_to_json(build_rep(Weight(1), Weight(0)))
        payload["labels"] = payload["labels"][:-1]
        with pytest.raises(SchemaError):
            rep_from_json(payload)

    def test_tampered_signature(self):
        payload = rep_to_json(build_rep(Weight(1), Weight(0)))
        payload["signature"] = [3, 1]
        with pytest.raises(SchemaError, match="signature"):
            rep_from_json(payload)

    @pytest.mark.parametrize(
        "rep, edit, match",
        [
            (build_rep(Weight(1), Weight(0), basis="orthonormal"),
             lambda p: p.update(labels=[{"x": 1}] * 4), "labels"),
            (build_rep(Weight(1), Weight(0)), lambda p: p.update(basis="orthonormal"), "metric"),
            # rejected as a schema error before any bundle is built
            (build_rep_diag(Weight(1), basis="rotation"), lambda p: p.update(basis="orthonormal"),
             "orthonormal"),
            (build_rep(Weight(1), Weight(0)), lambda p: p.update(epsilon=-p["epsilon"]), "metric"),
            (doubled(build_rep(Weight(1), Weight(0))), lambda p: None, "M"),
            (build_rep(Weight(1), Weight(0)),
             lambda p: p["metric"].update(data=[[0.0, 0.0]] * 16), "metric"),
        ],
        ids=["foreign-labels", "canonical-as-orthonormal", "square-as-orthonormal",
             "flipped-epsilon", "doubled-M-N", "zero-metric"],
    )
    def test_payload_contradicting_its_bundle(self, rep, edit, match):
        # none of these payloads is the bundle of its weights, epsilon and basis
        payload = rep_to_json(rep)
        edit(payload)
        with pytest.raises(SchemaError, match=match):
            rep_from_json(payload)

    def test_round_trip_every_basis_bit_equal(self):
        reps = reps_in_every_basis()
        reps += [build_rep(Weight(4), Weight(3), -1, basis) for basis in Basis]
        for rep in reps:
            back = rep_from_json(load_json(dump_rep(rep)))
            assert (back.j1, back.j2, back.epsilon, back.basis) == (
                rep.j1, rep.j2, rep.epsilon, rep.basis)
            assert back.labels == rep.labels
            for mine, theirs in zip((rep.metric.eta,) + rep.M + rep.N + rep.I + rep.K,
                                    (back.metric.eta,) + back.M + back.N + back.I + back.K):
                assert mine.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize(
        "rep",
        [*(build_rep(Weight(4), Weight(3), basis=b) for b in Basis), build_rep_diag(Weight(2))],
        ids=[*(b.value for b in Basis), "square-of-1"],
    )
    def test_payload_is_the_dense_encoding(self, rep):
        # the reference encodes the bundle's dense metric and generators
        reference = {
            **rep_to_json(rep),
            "metric": matrix_to_json(rep.metric.eta),
            "generators": {name: [matrix_to_json(m) for m in getattr(rep, name)]
                           for name in "MNIK"},
        }
        assert dump_json(reference) == dump_json(rep_to_json(rep))
        assert dump_json(reference) == dump_rep(rep)

    def test_write_makes_no_dense_matrix(self, monkeypatch):
        rep = build_rep(Weight(4), Weight(3), basis="orthonormal")
        forbid_dense(monkeypatch, "dense matrix made while writing a bundle")
        payload = rep_to_json(rep)
        assert len(payload["generators"]["K"][2]["data"]) == rep.dim**2

    def test_perturbed_payload_loads(self):
        # payloads written before the closed-form build differ by up to 3.6e-15
        rep = build_rep(Weight(4), Weight(3), basis="orthonormal")
        payload = rep_to_json(rep)
        matrices = [payload["metric"]] + [m for family in payload["generators"].values()
                                          for m in family]
        for m in matrices:
            m["data"] = [[re + 1e-13, im - 1e-13] for re, im in m["data"]]
        back = rep_from_json(payload)
        assert all((a == b).all() for a, b in zip(back.M + back.N, rep.M + rep.N))

    def test_load_makes_no_dense_bundle(self, monkeypatch):
        # each payload matrix is compared with the rebuilt bundle's entries,
        # so loading a dim-40 payload makes no dense matrix of the bundle
        payloads = [rep_to_json(build_rep(Weight(4), Weight(3), basis=b)) for b in Basis]
        tampered = rep_to_json(build_rep(Weight(4), Weight(3), basis="orthonormal"))
        tampered["generators"]["K"][2]["data"][7][1] += 1e-6

        forbid_dense(monkeypatch, "dense matrix of the bundle made on load")
        for payload in payloads:
            rep = rep_from_json(payload)
            assert rep.dim == 40 and rep.basis == payload["basis"]
        with pytest.raises(SchemaError, match="K does not match"):
            rep_from_json(tampered)

    @pytest.mark.parametrize("basis", list(Basis))
    def test_signed_zero_payload_loads(self, basis):
        # a payload written while bundles held numpy's dense arithmetic bit
        # for bit spells -0.0 in K's real parts where M - N is negative and,
        # for epsilon = -1, in the canonical metric's upper block; it loads
        # as the built bundle, whose zeros are unsigned
        rep = build_rep(Weight(4), Weight(3), -1, basis)
        if basis == Basis.CANONICAL:
            dense = dense_canonical(4, 3, -1)
        else:
            dense = dense_closed_form(4, 3, -1)[basis == Basis.ORTHONORMAL]
        payload = rep_to_json(rep)
        payload["metric"] = matrix_to_json(dense[-1])
        for k, name in enumerate("MNIK"):
            payload["generators"][name] = [matrix_to_json(x) for x in dense[3 * k : 3 * k + 3]]
        negative_zero = lambda x: x == 0 and np.signbit(x)
        assert any(negative_zero(x.real) for k in dense[9:12] for x in k.reshape(-1))
        if basis == Basis.CANONICAL:
            eta, n = dense[-1], rep.dim // 2
            assert all(negative_zero(x.real) or x == -1 for x in eta[:n, n:].reshape(-1))
        back = rep_from_json(load_json(dump_json(payload)))
        assert dump_rep(back) == dump_rep(rep)

    @pytest.mark.parametrize("family", ["I", "K"])
    def test_tampered_derived_generator(self, family):
        # I and K are derived from M and N; a payload that disagrees is rejected
        payload = rep_to_json(build_rep(Weight(1), Weight(0)))
        payload["generators"][family][0]["data"][0][0] += 1e-3
        with pytest.raises(SchemaError, match=family):
            rep_from_json(payload)


class TestEnvironmentSchema:
    def test_round_trip(self, rng):
        env = Environment(
            dimension=2,
            metric=MetricOperator(np.diag([1.0, -1.0])),
            vectors={"x": VarVector(random_complex(rng, 2), Variance.KET_DOWN)},
            operators={"A": KindedOperator(random_complex(rng, 2, 2), OperatorKind.DOWN_DOWN)},
        )
        back = environment_from_json(json.loads(json.dumps(environment_to_json(env))))
        assert back.dimension == 2
        assert (back.metric.eta == env.metric.eta).all()
        assert (back.vectors["x"].components == env.vectors["x"].components).all()
        assert back.operators["A"].kind == OperatorKind.DOWN_DOWN

    def test_missing_metric(self):
        with pytest.raises(SchemaError):
            environment_from_json({"dimension": 2})

    @pytest.mark.parametrize("dimension", [True, 0])
    def test_bad_dimension(self, dimension):
        with pytest.raises(SchemaError, match="dimension"):
            environment_from_json({"dimension": dimension, "metric": matrix_to_json(np.eye(1))})

    @pytest.mark.parametrize(
        "payload, match",
        [
            ({"dimension": 2, "metric": matrix_to_json(np.eye(3))}, "metric dim 3"),
            ({"dimension": 2, "metric": matrix_to_json(np.eye(2)),
              "vectors": {"x": {"variance": "kd", "components": [[1, 0]] * 3}}},
             "vector 'x' has dim 3"),
            ({"dimension": 2, "metric": matrix_to_json(np.eye(2)),
              "operators": {"A": {"kind": "dd", "matrix": matrix_to_json(np.eye(3))}}},
             "operator 'A' has dim 3"),
            ({"dimension": 2, "metric": matrix_to_json(np.zeros((2, 2)))}, "singular value"),
            ({"dimension": 2, "metric": matrix_to_json([[1, 1], [0, 1]])}, "hermitian"),
            ({"dimension": 1, "metric": {"rows": 1, "cols": 1, "data": [[float("nan"), 0]]}},
             "NaN"),
        ],
        ids=["metric-size", "vector-size", "operator-size", "zero-metric", "non-hermitian",
             "nan-metric"],
    )
    def test_malformed_is_schema_error(self, payload, match):
        # MetricOperator and Environment find each fault; the loader
        # reports it as a SchemaError with their message
        with pytest.raises(SchemaError, match=match):
            environment_from_json(payload)

    @pytest.mark.parametrize(
        "metric",
        [
            [[0, 1], [2, 0]],
            [[float("nan"), 0], [0, 1]],
            [[5j, 0], [0, float("nan")]],
            [[0, float("inf")], [1, 0]],
            [[1e-12, 0], [0, -1]],
            np.eye(3),
        ],
        ids=["non-hermitian", "nan", "nan-after-non-hermitian", "inf", "singular", "wrong-size"],
    )
    def test_monomial_route_fails_as_the_dense_one(self, metric, monkeypatch):
        # a monomial metric payload is checked on its entries, with no dense
        # MetricOperator; each fault gives the text the dense check gives
        payload = {"dimension": 2, "metric": matrix_to_json(metric)}

        def dense_route(*args):
            raise AssertionError("monomial metric read densely")

        with monkeypatch.context() as patched:
            patched.setattr(MetricOperator, "__init__", dense_route)
            with pytest.raises(SchemaError) as monomial:
                environment_from_json(payload)
        with pytest.raises((DimensionMismatch, InvalidArgument, NotHermitian, Singular)) as dense:
            Environment(dimension=2, metric=MetricOperator(np.asarray(metric, dtype=complex)))
        assert str(monomial.value) == f"environment: {dense.value}"

    def test_environment_reads_no_dense_matrix(self, monkeypatch):
        forbid_dense(monkeypatch, "dense matrix made while loading an environment")
        payload = {
            "dimension": 2,
            "metric": matrix_to_json(np.diag([1.0, -1.0])),
            "vectors": {"x": {"variance": "kd", "components": [[1, 0], [-0.0, 2]]}},
            "operators": {"A": {"kind": "ud", "matrix": matrix_to_json([[0, 1], [0.5j, 0]])}},
        }
        env = environment_from_json(payload)
        assert environment_to_json(env) == {
            "dimension": 2,
            "metric": {"rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                                                      [-1.0, 0.0]]},
            "vectors": {"x": {"variance": "kd", "components": [[1.0, 0.0], [0.0, 2.0]]}},
            "operators": {"A": {"kind": "ud", "matrix": {
                "rows": 2, "cols": 2, "data": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.5], [0.0, 0.0]]}}},
        }

    def test_non_square_operator_is_dimension_mismatch(self):
        payload = {"dimension": 2, "metric": matrix_to_json(np.eye(2)),
                   "operators": {"A": {"kind": "dd", "matrix": matrix_to_json(np.ones((2, 3)))}}}
        with pytest.raises(DimensionMismatch, match=r"operator matrix must be square, got \(2, 3\)"):
            environment_from_json(payload)

    def test_vectors_must_be_object(self):
        with pytest.raises(SchemaError):
            environment_from_json(
                {"dimension": 1, "metric": matrix_to_json(np.eye(1)), "vectors": []}
            )


def _no_dense_lapack(*args, **kwargs):
    raise AssertionError("dense LAPACK call on the bundle path")


class TestNoDenseLapack:
    def test_rep_path(self, monkeypatch):
        # every bundle metric is monomial, so building, writing and loading
        # a bundle, inverting its metric and counting its signature need no
        # SVD, dense inverse or eigendecomposition
        for name in ("svd", "inv", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, _no_dense_lapack)
        with pytest.raises(AssertionError, match="dense LAPACK"):
            inverse([[1, 2], [3, 4]])
        for basis in Basis:
            dump_rep(build_rep(Weight(12), Weight(11), basis=basis))
        dump_rep(build_rep_diag(Weight(12), basis="rotation"))
        rep = build_rep(Weight(4), Weight(3), basis="orthonormal")
        assert rep.dim == 40
        back = rep_from_json(load_json(dump_rep(rep)))
        assert back.metric.eta.tobytes() == rep.metric.eta.tobytes()
        assert (rep.metric.eta_inv == rep.metric.eta).all()  # diag(+-1) is its own inverse
        assert rep_signature(rep) == (20, 20)
