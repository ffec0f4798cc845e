"""Numerical range of elementary operators on matrix algebras.

Computes the numerical range of x -> sum_i a_i x b_i on M_n two
independent ways — the ray limit of shifted operator norms of the operator
acting on the algebra, and the closed union of fields of values
W(sum_i u*a_i u b_i) over unitaries u, whose support in each direction is
maximized over U(n) — and verifies numerically that they agree.

Both computations run on one set of stacked kernels (``_batched``); the
names exported here are the ones the command line and library callers
use.  The single-matrix references that the tests compare those kernels
against are kept with the tests.
"""

from .elemop import KTupleOperator, random_instance, russo_dye_norm, shifted_norm
from .fov import field_of_values
from .linalg import haar_unitaries
from .orbit import (
    RangeEstimate,
    banach_region,
    default_s_schedule,
    orbit_region,
)
from .region import (
    RegionEmptyError,
    SupportRegion,
    hausdorff,
    hull_of_points,
    minkowski_sum,
    negate,
    region_from_supports,
)
from .unitary_opt import OptConfig, OptReport
from .verify import (
    CheckResult,
    VerificationReport,
    hermitian_check,
    random_batch,
    verify_derivation,
    verify_inclusion,
    verify_main,
    verify_mult_projection,
)

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "KTupleOperator",
    "OptConfig",
    "OptReport",
    "RangeEstimate",
    "RegionEmptyError",
    "SupportRegion",
    "VerificationReport",
    "banach_region",
    "default_s_schedule",
    "field_of_values",
    "haar_unitaries",
    "hausdorff",
    "hermitian_check",
    "hull_of_points",
    "minkowski_sum",
    "negate",
    "orbit_region",
    "random_batch",
    "random_instance",
    "region_from_supports",
    "russo_dye_norm",
    "shifted_norm",
    "verify_derivation",
    "verify_inclusion",
    "verify_main",
    "verify_mult_projection",
]
