"""Bra-ket calculus for finite-dimensional complex spaces with indefinite metric.

Coupled vector spaces, kinded operator algebra with hermitian and Dirac
conjugation, metric-orthogonal projections, basis and symmetry
transformations, exact Clebsch-Gordan coefficients and semi-unitary
coupled sl(2,C) representation bundles, plus a JSON/CLI surface and a
small bra-ket expression language.
"""

from .cg import CGValue, clebsch_gordan, radical_sum
from .dsl import Environment, eval_source, evaluate, parse
from .errors import (
    BraketError,
    DegenerateMetric,
    DimensionMismatch,
    DslSyntaxError,
    EqualWeights,
    IndexOutOfRange,
    InvalidArgument,
    InvalidWeights,
    KindMismatch,
    NotHermitian,
    NotIdempotent,
    NotOrthonormalMetric,
    NotSemiHermitian,
    SchemaError,
    Singular,
    UnboundName,
    UnknownToken,
    VarianceError,
    VarianceMismatch,
    WrongKind,
    WrongRepShape,
    WrongVariance,
)
from .linalg import (
    DEFAULT_TOLS,
    conj_transpose,
    expm,
    inverse,
    kron,
    matmul,
    signature,
)
from .operators import (
    KindedOperator,
    OperatorKind,
    add,
    compose,
    couple_operator,
    dirac_adjoint,
    hermitian_adjoint,
    identity_down,
    identity_up,
    is_semi_hermitian,
    metric_inv_op,
    metric_op,
    scale,
    trace,
)
from .projections import (
    Projector,
    coupled_subspace_metric,
    elementary_projectors,
    is_additive,
    is_perp,
    orthonormal_split,
    subspace_projector,
)
from .sl2c import (
    Basis,
    CoupledRep,
    build_rep,
    build_rep_diag,
    chiral_projectors,
    default_epsilon,
    orthonormal_basis,
    rep_signature,
    rotation_basis,
)
from .spaces import (
    MetricOperator,
    Variance,
    VarVector,
    couple,
    dual_form,
    raise_lower_index,
    relate_bra,
    relate_ket,
    scalar_product,
)
from .su2 import Su2Irrep, Weight, su2_generators
from .transforms import (
    BasisChange,
    GaugeParams,
    generator_h,
    generator_x,
    generators_a_s,
    group_element,
    is_symmetry,
    orthonormalizing_change,
    symmetry_deviation,
    transform_generator,
    transform_metric,
    transform_operator,
)

__version__ = "0.1.0"
