"""gwlab: exact-arithmetic genus-zero Gromov-Witten laboratory.

Cohomology presentations of point, P1 and P2; a memoized reduction
engine for genus-zero descendant correlators; the symplectic loop-space
algebra; builders for the dilaton shift, descendant potential, cone
point and solution operator; the torus fixed-locus sum; and exact
verification suites over all of it.
"""

from .checks import (
    CheckReport,
    check_cone_in_tangent,
    check_darboux,
    check_inverse,
    check_lagrangian,
    check_polynomiality,
    check_universal_relations,
    universal_relation,
)
from .cone import (
    TPolynomial,
    cone_point,
    default_truncation,
    descendant_potential,
    dilaton_shift,
    dilaton_unshift,
    double_bracket,
    kernel_depth_bound,
    s_adjoint_corr_apply,
    s_apply,
    sufficient_window,
    tangent_vector,
)
from .correlators import (
    CapabilityError,
    CorrelatorEngine,
    Insertion,
    InvalidKeyError,
    StabilityError,
    correlator,
    get_engine,
    is_stable,
    vdim,
)
from .localisation import (
    SplittingRecord,
    check_main_identity,
    check_splitting_weights,
    contribution,
    enumerate_splittings,
    localisation_sum,
)
from .matrices import (
    EndoSeries,
    compose,
    flip_z,
    identity_endo,
    poincare_adjoint,
    s_adjoint_matrix,
    s_matrix,
)
from .series import (
    LoopSeries,
    MismatchError,
    ScalarSeries,
    SeriesAccumulator,
    Truncation,
    TruncationOverflowError,
)
from .targets import (
    ConfigurationError,
    TargetSpace,
    load_target,
    make_target,
)

__version__ = "0.1.0"
