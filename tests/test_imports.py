"""What fresh processes import: `import braket` loads no submodule and so
no numpy, `braket rep` loads only the modules it runs and no numpy,
`braket cg` loads neither numpy nor sl2c, spaces or serialize, `braket
su2`, and `braket eval` and `braket check-symmetry` on a monomial metric,
load no numpy, `from braket import *` binds every name the package
exports, no module imports scipy, and only linalg, projections and
transforms import numpy at load (both checked on the source with ast).

The library's values are read-only through one base class, not frozen
dataclasses, and `fractions` is imported where it is used: so `braket
rep`, `su2` and `eval` on a monomial metric load neither `dataclasses`
nor `fractions` (nor `numbers` and `decimal`, which it loads), `cg` and
`signature` load no `dataclasses`, and only `cg` imports `fractions` at
load (checked on the source with ast)."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import braket
from braket.serialize import matrix_to_json

# The 90 library names and 10 submodules that `from braket import *` binds.
EXPORTED = """
    Basis BasisChange BraketError CGValue CoupledRep DEFAULT_TOLS DegenerateMetric
    DimensionMismatch DslSyntaxError Environment EqualWeights GaugeParams
    IndexOutOfRange InvalidArgument InvalidWeights KindMismatch KindedOperator
    MetricOperator NotHermitian NotIdempotent NotOrthonormalMetric NotSemiHermitian
    OperatorKind Projector SchemaError Singular Su2Irrep UnboundName UnknownToken
    VarVector Variance VarianceError VarianceMismatch Weight WrongKind WrongRepShape
    WrongVariance add build_rep build_rep_diag cg chiral_projectors clebsch_gordan
    compose conj_transpose couple couple_operator coupled_subspace_metric
    default_epsilon dirac_adjoint dsl dual_form elementary_projectors errors eval_source
    evaluate expm generator_h generator_x generators_a_s group_element hermitian_adjoint
    identity_down identity_up inverse is_additive is_perp is_semi_hermitian is_symmetry
    kron linalg matmul metric_inv_op metric_op operators orthonormal_basis
    orthonormal_split orthonormalizing_change parse projections radical_sum
    raise_lower_index relate_bra relate_ket rep_signature rotation_basis scalar_product
    scale signature sl2c spaces su2 su2_generators subspace_projector symmetry_deviation
    trace transform_generator transform_metric transform_operator transforms
""".split()


GOLDEN = Path(__file__).resolve().parent / "data" / "eval_golden.json"


def run_fresh(code: str) -> str:
    """Run code in a fresh interpreter with the library importable; its stdout."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def run_golden_evals(tmp_path, env_name: str, unused: list[str], loaded: list[str]) -> None:
    """Run the golden eval cases of one environment through cli.main in one
    fresh process; check which modules it loaded and that each payload
    matches the golden value within 1e-12."""
    doc = json.loads(GOLDEN.read_text())
    path = tmp_path / f"{env_name}.json"
    path.write_text(json.dumps(doc["environments"][env_name]))
    cases = [case for case in doc["cases"] if case["env"] == env_name]
    out = run_fresh(
        "import contextlib, io, json, sys\n"
        "from braket import cli\n"
        "payloads = []\n"
        f"for expr in {[case['expr'] for case in cases]!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"        assert cli.main(['eval', '--env', {str(path)!r}, expr]) == 0\n"
        "    payloads.append(json.loads(out.getvalue()))\n"
        f"assert [m for m in {unused!r} if m in sys.modules] == []\n"
        f"assert all(m in sys.modules for m in {loaded!r})\n"
        "print(json.dumps(payloads))\n"
    )
    for case, got in zip(cases, json.loads(out), strict=True):
        assert _numbers(got) == pytest.approx(_numbers(case["expect"]), rel=0, abs=1e-12)
        assert {k: v for k, v in got.items() if k not in ("value", "components", "matrix")} == {
            k: v for k, v in case["expect"].items() if k not in ("value", "components", "matrix")
        }


def _numbers(payload: dict) -> list[float]:
    """Every real and imaginary part of an eval payload, in order."""
    pairs = payload.get("components") or payload.get("matrix", {}).get("data") or [payload["value"]]
    return [x for pair in pairs for x in pair]


def test_import_loads_no_submodule():
    run_fresh(
        "import sys\n"
        "import braket\n"
        "assert 'numpy' not in sys.modules, 'numpy imported with braket'\n"
        "loaded = [m for m in sys.modules if m.startswith('braket.')]\n"
        "assert loaded == [], loaded\n"
    )


@pytest.mark.parametrize("basis", ["orthonormal", "rotation", "canonical"])
def test_rep_loads_only_what_it_runs(basis):
    run_fresh(
        "import contextlib, io, sys\n"
        "from braket import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    assert cli.main(['rep', '--twice-j1', '4', '--twice-j2', '3', '--basis', '{basis}']) == 0\n"
        "assert out.getvalue().startswith('{')\n"
        "unused = ['braket.dsl', 'braket.cg', 'braket.transforms', 'braket.projections',\n"
        "          'braket.linalg', 'numpy']\n"
        "loaded = [m for m in unused if m in sys.modules]\n"
        "assert loaded == [], loaded\n"
    )


def test_rep_round_trip_leaves_numpy_unloaded():
    # a payload's matrices are read into entries and compared with the
    # rebuilt bundle's entries
    run_fresh(
        "import sys\n"
        "from braket import Weight, build_rep\n"
        "from braket.serialize import dump_json, dump_rep, load_json, rep_from_json, rep_to_json\n"
        "for basis in ('canonical', 'rotation', 'orthonormal'):\n"
        "    rep = build_rep(Weight(4), Weight(3), basis=basis)\n"
        "    back = rep_from_json(load_json(dump_json(rep_to_json(rep))))\n"
        "    assert dump_rep(back) == dump_rep(rep)\n"
        "loaded = [m for m in ['numpy', 'braket.linalg'] if m in sys.modules]\n"
        "assert loaded == [], loaded\n"
    )


def test_cg_leaves_numpy_unloaded():
    # Racah's sum is Fraction arithmetic, and the parser's choices and the
    # JSON writer need neither sl2c, spaces nor serialize; run as `python
    # -m braket.cli` would
    argv = ["cg", "--j1", "1", "--l1", "1", "--j2", "1/2", "--l2=-1/2", "--s", "3/2",
            "--sigma", "1/2"]
    run_fresh(
        "import runpy, sys\n"
        f"sys.argv = ['braket', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('braket.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "unused = ['braket.sl2c', 'braket.serialize', 'braket.spaces', 'numpy']\n"
        "loaded = [m for m in unused if m in sys.modules]\n"
        "assert loaded == [], loaded\n"
    )


def test_eval_on_a_monomial_metric_leaves_numpy_unloaded(tmp_path):
    # the golden `flat` environment has the metric diag(1, -1): it is read,
    # checked and evaluated on entries, and the payloads written from them
    run_golden_evals(tmp_path, "flat", ["numpy", "braket.linalg", "braket.sl2c", "braket.su2",
                                        "braket.cg"], [])


def test_eval_on_a_dense_metric_matches_golden(tmp_path):
    # `skew`'s metric is not monomial, so checking it needs an SVD
    run_golden_evals(tmp_path, "skew", ["braket.sl2c", "braket.cg"], ["numpy", "braket.linalg"])


@pytest.mark.parametrize("twice_j", [1, 4])
def test_su2_leaves_numpy_unloaded(twice_j):
    out = run_fresh(
        "import runpy, sys\n"
        f"sys.argv = ['braket', 'su2', '--twice-j', '{twice_j}']\n"
        "try:\n"
        "    runpy.run_module('braket.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "unused = ['numpy', 'braket.linalg', 'braket.sl2c', 'braket.dsl']\n"
        "loaded = [m for m in unused if m in sys.modules]\n"
        "assert loaded == [], loaded\n"
    )
    assert json.loads(out)["twice_j"] == twice_j


def test_star_import_binds_every_export():
    namespace = {}
    exec("from braket import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(EXPORTED)
    for name, value in namespace.items():
        assert getattr(braket, name) is value


# What a frozen dataclass or a Fraction costs a fresh process to import.
DATACLASSES = ["dataclasses"]
FRACTIONS = ["fractions", "numbers", "decimal"]


def run_command_fresh(argv: list[str], unused: list[str]) -> None:
    """Run one command through cli.main in a fresh process and check that
    it loaded none of the unused modules the interpreter had not loaded
    before it."""
    run_fresh(
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "from braket import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
        f"loaded = [m for m in {unused!r} if m in sys.modules and m not in before]\n"
        "assert loaded == [], loaded\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["rep", "--twice-j1", "4", "--twice-j2", "3", "--basis", "canonical"],
        ["rep", "--twice-j1", "4", "--twice-j2", "3", "--basis", "rotation"],
        ["rep", "--twice-j1", "4", "--twice-j2", "3", "--basis", "orthonormal"],
        ["rep", "--twice-j1", "4", "--basis", "rotation"],
        ["su2", "--twice-j", "1"],
    ],
    ids=["rep-canonical", "rep-rotation", "rep-orthonormal", "rep-square", "su2"],
)
def test_command_loads_neither_dataclasses_nor_fractions(argv):
    run_command_fresh(argv, DATACLASSES + FRACTIONS)


def test_cg_loads_no_dataclasses():
    run_command_fresh(["cg", "--j1", "1", "--l1", "1", "--j2", "1/2", "--l2=-1/2", "--s", "3/2",
                       "--sigma", "1/2"], DATACLASSES)


def test_signature_loads_no_dataclasses(tmp_path):
    path = tmp_path / "eta.json"
    path.write_text(json.dumps({"rows": 2, "cols": 2, "data": [[1, 0], [0, 0], [0, 0], [-1, 0]]}))
    run_command_fresh(["signature", "--matrix", str(path)], DATACLASSES)


def test_eval_on_a_monomial_metric_loads_neither_dataclasses_nor_fractions(tmp_path):
    run_golden_evals(tmp_path, "flat", DATACLASSES + FRACTIONS, [])


def load_time_imports(tree: ast.Module):
    """(line, module) of each absolute import that runs when the module is
    loaded: every one outside a function body (class bodies run at load)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def run_check_symmetry_fresh(tmp_path, metric, unused: list[str], loaded: list[str]) -> None:
    """Run `check-symmetry` through cli.main in a fresh process on a seeded
    u near the identity; check which modules it loaded and that the
    deviation matches numpy's within 1e-12."""
    rng = np.random.default_rng(20240811)
    eta = np.asarray(metric, dtype=complex)
    u = np.eye(len(eta)) + 0.1 * (rng.normal(size=eta.shape) + 1j * rng.normal(size=eta.shape))
    paths = []
    for name, m in (("u", u), ("eta", eta)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(matrix_to_json(m)))
    argv = ["check-symmetry", "--matrix", str(paths[0]), "--metric", str(paths[1])]
    out = run_fresh(
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "from braket import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    assert cli.main({argv!r}) == 0\n"
        f"unused = [m for m in {unused!r} if m in sys.modules and m not in before]\n"
        "assert unused == [], unused\n"
        f"assert all(m in sys.modules for m in {loaded!r})\n"
        "print(out.getvalue())\n"
    )
    want = float(np.max(np.abs(u.conj().T @ eta @ u - eta)))
    assert json.loads(out) == {"symmetry": False, "max_deviation": pytest.approx(want, abs=1e-12)}


@pytest.mark.parametrize("signs", [[1, -1], [1, 1, -1, -1, -1, 1]], ids=["dim2", "dim6"])
def test_check_symmetry_on_a_monomial_metric_leaves_numpy_unloaded(tmp_path, signs):
    # the metric and u are read, checked and multiplied on entries
    run_check_symmetry_fresh(tmp_path, np.diag(signs),
                             ["numpy", "braket.linalg", "braket.transforms"] + DATACLASSES, [])


def test_check_symmetry_on_a_dense_metric_matches_numpy(tmp_path):
    # a metric that is not monomial needs an SVD, and u is multiplied densely
    run_check_symmetry_fresh(tmp_path, [[2, 1, 0], [1, -1, 0], [0, 0, 1]],
                             ["braket.transforms"] + DATACLASSES, ["numpy", "braket.linalg"])


def test_only_linalg_projections_and_transforms_import_numpy_at_load():
    allowed = {"linalg.py", "projections.py", "transforms.py"}
    offenders = []
    for path in sorted(Path(braket.__file__).parent.glob("*.py")):
        for line, name in load_time_imports(ast.parse(path.read_text())):
            if name.split(".")[0] == "numpy" and path.name not in allowed:
                offenders.append(f"{path.name}:{line} imports {name} at load")
    assert offenders == []


def test_only_cg_imports_fractions_and_none_dataclasses_at_load():
    allowed = {"dataclasses": set(), "fractions": {"cg.py"}}
    offenders = []
    for path in sorted(Path(braket.__file__).parent.glob("*.py")):
        for line, name in load_time_imports(ast.parse(path.read_text())):
            top = name.split(".")[0]
            if top in allowed and path.name not in allowed[top]:
                offenders.append(f"{path.name}:{line} imports {name} at load")
    assert offenders == []


def test_library_never_imports_scipy():
    offenders = []
    for path in sorted(Path(braket.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} imports {name}"
                          for name in names if name.split(".")[0] == "scipy"]
    assert offenders == []
