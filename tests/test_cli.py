import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from braket import (Basis, OperatorKind, Weight, build_rep, build_rep_diag, orthonormal_basis,
                    rotation_basis, su2_generators)
from braket.cli import _build_parser, main
from braket.serialize import dump_json, matrix_to_json, rep_to_json
from conftest import forbid_dense
from golden_recipes import GOLDEN_PATH


# the dim-312 orthonormal rung of the benchmark and the size of its JSON text
TOP_RUNG = ("--twice-j1", "12", "--twice-j2", "11", "--basis", "orthonormal")
TOP_RUNG_TEXT_SIZE = 15_437_448


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_matrix(path, m):
    path.write_text(json.dumps(matrix_to_json(np.asarray(m, dtype=complex))))
    return str(path)


class TestSu2Command:
    def test_emits_three_matrices(self, capsys):
        code, out, _ = run_cli(capsys, "su2", "--twice-j", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["twice_j"] == 1
        assert len(payload["J"]) == 3
        assert payload["J"][2]["data"][0] == [0.5, 0]

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "su2")
        assert code == 2

    @pytest.mark.parametrize("twice_j", [0, 1, 4, 12])
    def test_text_is_the_dict_encoding(self, capsys, twice_j):
        # `su2` writes its generators from their entries, byte for byte as
        # json.dumps writes their dense matrix_to_json encoding
        code, out, _ = run_cli(capsys, "su2", "--twice-j", str(twice_j))
        assert code == 0
        irrep = su2_generators(Weight(twice_j))
        want = {"twice_j": twice_j, "J": [matrix_to_json(m) for m in irrep.J]}
        assert out == dump_json(want) + "\n"

    def test_negative_weight_writes_nothing(self, capsys):
        code, out, err = run_cli(capsys, "su2", "--twice-j", "-1")
        assert code == 1
        assert out == "" and err.startswith("error: ")


class TestCgCommand:
    def test_known_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "cg", "--j1", "0.5", "--l1", "0.5",
            "--j2", "0.5", "--l2", "-0.5", "--s", "1", "--sigma", "0",
        )
        assert code == 0
        assert json.loads(out) == {"sign": 1, "squared": "1/2"}

    def test_fraction_arguments(self, capsys):
        code, out, _ = run_cli(
            capsys, "cg", "--j1", "1/2", "--l1", "1/2",
            "--j2", "1/2", "--l2", "1/2", "--s", "1", "--sigma", "1",
        )
        assert code == 0
        assert json.loads(out) == {"sign": 1, "squared": "1"}
        # a negative fraction reads the same after "=" as on its own
        code, out, _ = run_cli(
            capsys, "cg", "--j1", "1/2", "--l1", "1/2",
            "--j2", "1/2", "--l2=-1/2", "--s", "1", "--sigma", "0",
        )
        assert code == 0
        assert json.loads(out) == {"sign": 1, "squared": "1/2"}

    @pytest.mark.parametrize(
        "labels",
        [("1/2", "1/2", "1/2", "-1/2", "1", "0"), ("3/2", "-3/2", "1", "1", "1/2", "-1/2")],
    )
    def test_negative_fraction_as_its_own_argument(self, capsys, labels):
        flags = ("--j1", "--l1", "--j2", "--l2", "--s", "--sigma")
        spaced = run_cli(capsys, "cg", *(x for pair in zip(flags, labels) for x in pair))
        joined = run_cli(capsys, "cg", *(f"{flag}={x}" for flag, x in zip(flags, labels)))
        assert spaced == joined and spaced[0] == 0
        assert json.loads(spaced[1])["squared"] == "1/2"

    def test_flag_like_value_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "cg", "--j1", "1/2", "--l1", "1/2",
            "--j2", "1/2", "--l2", "-x", "--s", "1", "--sigma", "0",
        )
        assert code == 2 and out == ""
        assert "argument --l2: expected one argument" in err

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "cg", "--j1", "0.3", "--l1", "0.3",
            "--j2", "0", "--l2", "0", "--s", "0.3", "--sigma", "0.3",
        )
        assert code == 1
        assert "error" in err


class TestRepCommand:
    def test_fundamental_signature(self, capsys):
        code, out, _ = run_cli(capsys, "rep", "--twice-j1", "1", "--twice-j2", "0")
        assert code == 0
        assert json.loads(out)["signature"] == [2, 2]

    def test_diagonal_when_second_weight_omitted(self, capsys):
        code, out, _ = run_cli(capsys, "rep", "--twice-j1", "1")
        payload = json.loads(out)
        assert code == 0
        assert "twice_j2" not in payload
        assert payload["signature"] == [1, 3]

    def test_rotation_basis(self, capsys):
        code, out, _ = run_cli(
            capsys, "rep", "--twice-j1", "1", "--twice-j2", "0", "--basis", "rotation"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["basis"] == "rotation"
        assert payload["labels"][0]["twice_s"] == 1

    def test_orthonormal_basis(self, capsys):
        code, out, _ = run_cli(
            capsys, "rep", "--twice-j1", "1", "--twice-j2", "0", "--basis", "orthonormal"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["basis"] == "orthonormal"
        assert payload["signature"] == [2, 2]

    def test_orthonormal_rejected_for_tensor_square(self, capsys):
        code, out, err = run_cli(
            capsys, "rep", "--twice-j1", "1", "--basis", "orthonormal"
        )
        assert code == 1
        assert "rotation" in err
        assert out == ""

    def test_epsilon_override(self, capsys):
        code, out, _ = run_cli(
            capsys, "rep", "--twice-j1", "1", "--epsilon", "1"
        )
        assert code == 0
        assert json.loads(out)["signature"] == [3, 1]

    @pytest.mark.parametrize(
        "argv, rep",
        [
            (("--twice-j1", "1", "--twice-j2", "0", "--basis", "orthonormal"),
             lambda: orthonormal_basis(rotation_basis(build_rep(Weight(1), Weight(0)))[1])),
            (("--twice-j1", "4", "--twice-j2", "3", "--basis", "orthonormal"),
             lambda: orthonormal_basis(rotation_basis(build_rep(Weight(4), Weight(3)))[1])),
            (("--twice-j1", "4", "--basis", "rotation"),
             lambda: rotation_basis(build_rep_diag(Weight(4)))[1]),
        ],
        ids=["1-0-orthonormal", "4-3-orthonormal", "4-rotation"],
    )
    def test_output_is_the_dict_encoding(self, capsys, argv, rep):
        code, out, _ = run_cli(capsys, "rep", *argv)
        assert code == 0
        assert out == dump_json(rep_to_json(rep())) + "\n"

    def test_top_rung_is_written_a_matrix_at_a_time(self, monkeypatch):
        # the dim-312 payload is 15.4 MB of text; no dense matrix and no
        # whole-payload string is made on the way to stdout
        class Discard(io.TextIOBase):
            written = 0

            def write(self, text):
                self.written += len(text)
                return len(text)

        sink = Discard()
        with contextlib.redirect_stdout(sink):  # imports what `rep` runs
            assert main(["rep", "--twice-j1", "1", "--twice-j2", "0", "--basis", "orthonormal"]) == 0
        sink.written = 0
        forbid_dense(monkeypatch, "dense matrix made on the rep path")
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = main(["rep", *TOP_RUNG])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.written == TOP_RUNG_TEXT_SIZE + 1
        assert peak < TOP_RUNG_TEXT_SIZE / 2

    def test_reader_closing_stdout_early(self):
        # one error line and exit status 1, not a traceback
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "braket.cli", "rep", *TOP_RUNG],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            assert proc.stdout.read(64).startswith(b'{"twice_j1": 12, "twice_j2": 11')
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=120) == 1
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err

    def test_bad_basis_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "rep", "--twice-j1", "1", "--basis", "sideways"
        )
        assert code == 2


class TestSignatureCommand:
    def test_minkowski_file(self, capsys, tmp_path):
        path = write_matrix(tmp_path / "minkowski.json", np.diag([1.0, -1.0, -1.0, -1.0]))
        code, out, _ = run_cli(capsys, "signature", "--matrix", path)
        assert code == 0
        assert json.loads(out) == [1, 3]

    def test_non_hermitian_domain_error(self, capsys, tmp_path):
        path = write_matrix(tmp_path / "bad.json", [[0, 1], [0, 0]])
        code, _, err = run_cli(capsys, "signature", "--matrix", path)
        assert code == 1
        assert "error" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "signature", "--matrix", str(tmp_path / "nope.json"))
        assert code == 1

    def test_bool_dims_domain_error(self, capsys, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text('{"rows": true, "cols": true, "data": [[1, 0]]}')
        code, out, err = run_cli(capsys, "signature", "--matrix", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"rows": 2')
        code, _, err = run_cli(capsys, "signature", "--matrix", str(path))
        assert code == 1

    @pytest.mark.parametrize(
        "data",
        [b"[" * 200_000, b'\xff\xfe{"rows": 1, "cols": 1, "data": [[1, 0]]}'],
        ids=["deep", "not-utf8"],
    )
    def test_unreadable_json_is_one_error_line(self, capsys, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        code, out, err = run_cli(capsys, "signature", "--matrix", str(path))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: invalid JSON"), err
        assert "Traceback" not in err


class TestCheckSymmetryCommand:
    def test_boost_is_symmetry(self, capsys, tmp_path):
        t = 0.6
        u = [[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]]
        upath = write_matrix(tmp_path / "u.json", u)
        mpath = write_matrix(tmp_path / "eta.json", np.diag([1.0, -1.0]))
        code, out, _ = run_cli(capsys, "check-symmetry", "--matrix", upath, "--metric", mpath)
        assert code == 0
        payload = json.loads(out)
        assert payload["symmetry"] is True
        assert payload["max_deviation"] < 1e-12

    def test_scaling_is_not(self, capsys, tmp_path):
        upath = write_matrix(tmp_path / "u.json", 2.0 * np.eye(2))
        mpath = write_matrix(tmp_path / "eta.json", np.diag([1.0, -1.0]))
        code, out, _ = run_cli(capsys, "check-symmetry", "--matrix", upath, "--metric", mpath)
        assert code == 0
        assert json.loads(out)["symmetry"] is False

    @pytest.mark.parametrize("metric", [np.diag([1.0, -1.0, -1.0]),
                                        [[0, 2j, 0], [-2j, 0, 0], [0, 0, 1]],
                                        [[2, 1, 0], [1, -1, 0], [0, 0, 1]]],
                             ids=["diagonal", "monomial", "dense"])
    def test_deviation_matches_numpy(self, capsys, tmp_path, rng, metric):
        eta = np.asarray(metric, dtype=complex)
        u = np.eye(3) + 0.1 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        upath = write_matrix(tmp_path / "u.json", u)
        mpath = write_matrix(tmp_path / "eta.json", eta)
        code, out, _ = run_cli(capsys, "check-symmetry", "--matrix", upath, "--metric", mpath)
        assert code == 0
        want = float(np.max(np.abs(u.conj().T @ eta @ u - eta)))
        assert json.loads(out) == {"symmetry": False, "max_deviation": pytest.approx(want, abs=1e-12)}

    # the messages of the command before it computed on entries, each for a
    # metric that is monomial (the entries route) and, where it applies, dense
    DIAG = np.diag([1.0, -1.0])
    DENSE = np.array([[2.0, 1.0], [1.0, -1.0]])

    @pytest.mark.parametrize("u, metric, message", [
        (np.eye(2, 3), DIAG, "expected 2x2, got (2, 3)"),
        (np.eye(2, 3), DENSE, "expected 2x2, got (2, 3)"),
        (np.eye(3), DIAG, "expected 2x2, got (3, 3)"),
        (np.eye(3), DENSE, "expected 2x2, got (3, 3)"),
        (np.eye(2), np.eye(2, 3), "metric must be square, got (2, 3)"),
        (np.eye(3, 2), np.eye(2, 3), "metric must be square, got (2, 3)"),
        (np.eye(2), [[0, 1], [2, 0]], "metric matrix must be hermitian"),
        (np.eye(2), [[1, 1], [0, 1]], "metric matrix must be hermitian"),
        (np.eye(2), np.diag([1, 1e-12]), "smallest singular value 1.000e-12 below 1.000e-09"),
        (np.eye(2), np.ones((2, 2)), "smallest singular value 0.000e+00 below 1.000e-09"),
        (np.eye(2), [[np.nan, 0], [0, 1]], "matrix has a NaN or infinite entry"),
        ([[np.nan, 0], [0, 1]], DIAG, "result has a NaN or infinite part"),
        ([[np.inf, 0], [0, 1]], DIAG, "result has a NaN or infinite part"),
        ([[1e308, 0], [0, 1]], DIAG, "result has a NaN or infinite part"),
    ], ids=["u-not-square", "u-not-square-dense", "dims-differ", "dims-differ-dense",
            "metric-not-square", "both-not-square", "not-hermitian", "not-hermitian-dense",
            "singular", "singular-dense", "metric-nan", "u-nan", "u-inf", "u-huge"])
    def test_error_messages(self, capsys, tmp_path, u, metric, message):
        upath = write_matrix(tmp_path / "u.json", u)
        mpath = write_matrix(tmp_path / "eta.json", metric)
        code, out, err = run_cli(capsys, "check-symmetry", "--matrix", upath, "--metric", mpath)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("u, metric, route", [
        (np.ones((64, 64)), np.eye(64), "entries"),  # 64^3 multiplications
        (np.ones((65, 65)), np.eye(65), "dense"),
        (np.eye(100) + np.eye(100, k=1), np.eye(100), "entries"),  # past d = 64, sparse
        (np.eye(2), [[2, 1], [1, -1]], "dense"),  # a metric that is not monomial
    ], ids=["dense-64", "dense-65", "sparse-100", "dense-metric"])
    def test_route(self, capsys, tmp_path, monkeypatch, u, metric, route):
        import braket.operators

        seen = []
        monkeypatch.setattr(braket.operators, "symmetry_deviation",
                            lambda u, m: seen.append(type(u).__name__) or 0.0)
        upath = write_matrix(tmp_path / "u.json", u)
        mpath = write_matrix(tmp_path / "eta.json", metric)
        code, _, _ = run_cli(capsys, "check-symmetry", "--matrix", upath, "--metric", mpath)
        assert code == 0
        assert seen == [{"entries": "KindedOperator", "dense": "ndarray"}[route]]

    def test_metric_past_the_float_range(self, capsys, tmp_path):
        # abs() of such an entry raises OverflowError; its magnitude counts as inf
        z = complex(1.5e308, 1.5e308)
        mpath = write_matrix(tmp_path / "eta.json", [[0, z], [z.conjugate(), 0]])
        upath = write_matrix(tmp_path / "u.json", np.eye(2))
        code, out, err = run_cli(capsys, "check-symmetry", "--matrix", upath, "--metric", mpath)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"symmetry": True, "max_deviation": 0.0}
        env = {"dimension": 2, "metric": json.loads(Path(mpath).read_text()),
               "vectors": {"x": {"variance": "kd", "components": [[1, 0], [0, 0]]}}}
        epath = tmp_path / "env.json"
        epath.write_text(json.dumps(env))
        code, out, err = run_cli(capsys, "eval", "--env", str(epath), "bu:x kd:x")
        assert (code, err) == (0, "")
        assert json.loads(out) == {"type": "scalar", "value": [1.0, 0.0]}


class TestEvalCommand:
    @pytest.fixture
    def env_file(self, tmp_path):
        env = {
            "dimension": 2,
            "metric": matrix_to_json(np.diag([1.0, -1.0])),
            "vectors": {
                "x": {"variance": "kd", "components": [[1, 0], [1, 0]]},
                "y": {"variance": "kd", "components": [[1, 0], [1, 0]]},
            },
            "operators": {
                "A": {"kind": "dd", "matrix": matrix_to_json(np.array([[0, 1], [0, 0]]))}
            },
        }
        path = tmp_path / "env.json"
        path.write_text(json.dumps(env))
        return str(path)

    def test_scalar_result(self, capsys, env_file):
        code, out, _ = run_cli(capsys, "eval", "--env", env_file, "bd:x kd:y")
        assert code == 0
        assert json.loads(out) == {"type": "scalar", "value": [0, 0]}

    def test_vector_result(self, capsys, env_file):
        code, out, _ = run_cli(capsys, "eval", "--env", env_file, "A kd:x")
        assert code == 0
        payload = json.loads(out)
        assert payload["type"] == "vector"
        assert payload["variance"] == "kd"
        assert payload["components"] == [[1, 0], [0, 0]]

    def test_operator_result(self, capsys, env_file):
        code, out, _ = run_cli(capsys, "eval", "--env", env_file, "kd:x bu:y")
        assert code == 0
        payload = json.loads(out)
        assert payload["type"] == "operator"
        assert payload["kind"] == "dd"

    def test_syntax_error(self, capsys, env_file):
        code, _, err = run_cli(capsys, "eval", "--env", env_file, "kd:")
        assert code == 1
        assert "error" in err

    def test_variance_error(self, capsys, env_file):
        code, _, err = run_cli(capsys, "eval", "--env", env_file, "kd:x kd:y")
        assert code == 1

    @pytest.mark.parametrize(
        "expr, value",
        [("adj((1+0i))", "[1.0, 0.0]"), ("bar(bd:x kd:x)", "[0.0, 0.0]"),
         ("(0-0i)", "[0.0, 0.0]"), ("bd:e1 kd:e2 * (-1+0i)", "[0.0, 0.0]")],
    )
    def test_scalar_has_no_negative_zero(self, capsys, tmp_path, expr, value):
        golden = json.loads(GOLDEN_PATH.read_text())
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(golden["environments"]["flat"]))
        code, out, _ = run_cli(capsys, "eval", "--env", str(path), expr)
        assert code == 0
        assert out == f'{{"type": "scalar", "value": {value}}}\n'

    @pytest.mark.parametrize(
        "expr", ["(" * 300 + "1" + ")" * 300, "adj(" * 400 + "1" + ")" * 400],
        ids=["parentheses", "calls"],
    )
    def test_deep_nesting_is_one_error_line(self, capsys, env_file, expr):
        code, out, err = run_cli(capsys, "eval", "--env", env_file, expr)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: nested deeper than"), err
        assert "Traceback" not in err

    def test_long_product(self, capsys, env_file):
        code, out, _ = run_cli(capsys, "eval", "--env", env_file, "1" + " * 1" * 2000)
        assert code == 0
        assert out == '{"type": "scalar", "value": [1.0, 0.0]}\n'

    @pytest.mark.parametrize("expr", ["1e400 * A", "1e300 * 1e300"])
    def test_non_finite_result_is_refused(self, capsys, env_file, expr):
        # JSON has no NaN or infinity; json.dumps would write NaN and Infinity
        code, out, err = run_cli(capsys, "eval", "--env", env_file, expr)
        assert code == 1
        assert out == ""
        assert err == "error: result has a NaN or infinite part\n"


class TestNonFinitePayload:
    # JSON has no NaN or infinity; json.dumps would write NaN and Infinity
    @pytest.mark.parametrize("entry", [np.nan, 1e308], ids=["nan", "huge"])
    @pytest.mark.parametrize("command", ["check-symmetry", "transform"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_refused(self, capsys, tmp_path, command, entry):
        upath = write_matrix(tmp_path / "u.json", [[entry, entry], [0, 1]])
        mpath = write_matrix(tmp_path / "eta.json", np.diag([1.0, -1.0]))
        argv = [command, "--matrix", upath, "--metric", mpath]
        if command == "transform":
            argv += ["--t", write_matrix(tmp_path / "t.json", np.diag([1.0, 3.0]))]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == "error: result has a NaN or infinite part\n"

    @pytest.mark.parametrize("command", ["check-symmetry", "transform"])
    def test_overflow_in_a_fresh_process_prints_one_line(self, tmp_path, command):
        # numpy's overflow warnings would come before the error line
        upath = write_matrix(tmp_path / "u.json", [[1e308, 1e308], [1e308, 1e308]])
        mpath = write_matrix(tmp_path / "eta.json", np.diag([1.0, -1.0]))
        argv = [command, "--matrix", upath, "--metric", mpath]
        if command == "transform":
            argv += ["--t", write_matrix(tmp_path / "t.json", np.diag([1.0, 3.0]))]
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run([sys.executable, "-m", "braket.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: result has a NaN or infinite part\n"


class TestTransformCommand:
    def test_dd_law_and_metric(self, capsys, tmp_path):
        apath = write_matrix(tmp_path / "a.json", [[1, 2], [3, 4]])
        mpath = write_matrix(tmp_path / "eta.json", np.diag([1.0, -1.0]))
        tpath = write_matrix(tmp_path / "t.json", np.diag([2.0, 3.0]))
        code, out, _ = run_cli(
            capsys, "transform", "--matrix", apath, "--metric", mpath, "--t", tpath
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "dd"
        moved = np.array([[re + 1j * im for re, im in payload["matrix"]["data"]]]).reshape(2, 2)
        t = np.diag([2.0, 3.0])
        want = np.linalg.inv(t) @ np.array([[1, 2], [3, 4]]) @ t
        assert np.max(np.abs(moved - want)) < 1e-12
        new_eta = np.array([[re + 1j * im for re, im in payload["metric"]["data"]]]).reshape(2, 2)
        assert np.max(np.abs(new_eta - np.diag([4.0, -9.0]))) < 1e-12

    def test_singular_t_domain_error(self, capsys, tmp_path):
        apath = write_matrix(tmp_path / "a.json", np.eye(2))
        mpath = write_matrix(tmp_path / "eta.json", np.diag([1.0, -1.0]))
        tpath = write_matrix(tmp_path / "t.json", np.diag([1.0, 0.0]))
        code, _, err = run_cli(
            capsys, "transform", "--matrix", apath, "--metric", mpath, "--t", tpath
        )
        assert code == 1


def test_usage_error_unknown_command(capsys):
    code, _, _ = run_cli(capsys, "bogus")
    assert code == 2


def test_parser_choices_are_the_enum_values():
    # the parser spells the choices out so that building it loads neither
    # sl2c nor spaces; they must stay the enums' values, in order
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))

    def option(command, dest):
        return next(a for a in sub.choices[command]._actions if a.dest == dest)

    basis, kind = option("rep", "basis"), option("transform", "kind")
    assert list(basis.choices) == [b.value for b in Basis]
    assert list(kind.choices) == [k.value for k in OperatorKind]
    assert basis.default == Basis.CANONICAL.value
    assert kind.default == OperatorKind.DOWN_DOWN.value
