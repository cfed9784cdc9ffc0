"""What fresh processes import: `import braket` loads no submodule and so
no numpy, `braket rep` loads only the modules it runs, and
`from braket import *` binds every name the package exports."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def run_fresh(code: str):
    """Run code in a fresh interpreter with the library importable."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


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
        "unused = ['braket.dsl', 'braket.cg', 'braket.transforms', 'braket.projections', 'numpy.ma']\n"
        "loaded = [m for m in unused if m in sys.modules]\n"
        "assert loaded == [], loaded\n"
    )


def test_star_import_binds_every_export():
    import braket

    namespace = {}
    exec("from braket import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(EXPORTED)
    for name, value in namespace.items():
        assert getattr(braket, name) is value
