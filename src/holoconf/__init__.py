"""Machine verification of the planar conformal algebra and its companions:
coordinate charts, rescaled Laplace operators and their solution families,
bicomplex arithmetic, 2x2 spin representations, and the quadratic sphere map.
"""

from .bicomplex import (
    Bicomplex,
    HopfTriple,
    StructureError,
    ZeroDivisorError,
    involution_projections,
    null_plane_units,
)
from .charts import (
    ChartId,
    ChartPoint,
    ConformalVector,
    DomainError,
    PoleCrossingError,
    basis,
    compactify,
    embed,
    invert,
    jacobian_lower,
    jacobian_mixed,
    metric,
    special_conformal,
)
from .laplace import SolutionFamily, laplacian, residual, solve, ylm, ylm_ratio
from .algebra import (
    GeneratorId,
    SignLedger,
    UPSILON_LINE,
    VectorField,
    act,
    angular_tensor,
    bracket,
    cn,
    generator,
    minkowski_check,
    sn,
    structure_table,
    substituted_rows,
    tangent_curve,
)
from .projective import (
    ChartTransition,
    NullLinePoleError,
    PoleError,
    ProjectivePoint,
    Ring,
    S3Point,
    SpinMatrix,
    UnsupportedGeneratorError,
    chart_transition,
    exp_one_param,
    flow_consistency,
    hopf,
    hopf_raw,
    matrix_bracket_table,
    matrix_rep,
    mobius_apply,
)
from .report import SuiteConfig, VerificationReport
from .suites import run_suite
from .grids import emit_grid

__version__ = "0.1.0"
