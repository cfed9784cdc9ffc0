"""Bra-ket calculus for finite-dimensional complex spaces with indefinite metric.

Coupled vector spaces, kinded operator algebra with hermitian and Dirac
conjugation, metric-orthogonal projections, basis and symmetry
transformations, exact Clebsch-Gordan coefficients and semi-unitary
coupled sl(2,C) representation bundles, plus a JSON/CLI surface and a
small bra-ket expression language.

Names are loaded on first use (PEP 562): `import braket` imports none of
the submodules, and so not numpy either.
"""

import importlib

# Each submodule and the names the package takes from it.
_EXPORTS = {
    "cg": ("CGValue", "clebsch_gordan", "radical_sum"),
    "dsl": ("Environment", "eval_source", "evaluate", "parse"),
    "errors": (
        "BraketError", "DegenerateMetric", "DimensionMismatch", "DslSyntaxError", "EqualWeights",
        "IndexOutOfRange", "InvalidArgument", "InvalidWeights", "KindMismatch", "NotHermitian",
        "NotIdempotent", "NotOrthonormalMetric", "NotSemiHermitian", "SchemaError", "Singular",
        "UnboundName", "UnknownToken", "VarianceError", "VarianceMismatch", "WrongKind",
        "WrongRepShape", "WrongVariance",
    ),
    "linalg": ("DEFAULT_TOLS", "conj_transpose", "expm", "inverse", "kron", "matmul", "signature"),
    "operators": (
        "KindedOperator", "OperatorKind", "add", "compose", "couple_operator", "dirac_adjoint",
        "hermitian_adjoint", "identity_down", "identity_up", "is_semi_hermitian", "metric_inv_op",
        "metric_op", "scale", "trace",
    ),
    "projections": (
        "Projector", "coupled_subspace_metric", "elementary_projectors", "is_additive", "is_perp",
        "orthonormal_split", "subspace_projector",
    ),
    "sl2c": (
        "Basis", "CoupledRep", "build_rep", "build_rep_diag", "chiral_projectors",
        "default_epsilon", "orthonormal_basis", "rep_signature", "rotation_basis",
    ),
    "spaces": (
        "MetricOperator", "Variance", "VarVector", "couple", "dual_form", "raise_lower_index",
        "relate_bra", "relate_ket", "scalar_product",
    ),
    "su2": ("Su2Irrep", "Weight", "su2_generators"),
    "transforms": (
        "BasisChange", "GaugeParams", "generator_h", "generator_x", "generators_a_s",
        "group_element", "is_symmetry", "orthonormalizing_change", "symmetry_deviation",
        "transform_generator", "transform_metric", "transform_operator",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, *_EXPORTS]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
