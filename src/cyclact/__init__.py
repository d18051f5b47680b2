"""Exact arithmetic for hyperbolic forms over cyclic group rings.

The layers, bottom to top: integer lattices (`intlattice`), the group
ring Z[Z/m] with its involution and norm machinery (`groupring`),
based hyperbolic quadratic modules (`forms`), the Lagrangian-complement
solver (`complement`), mod-2 cohomology bookkeeping (`spectral`), and
the census of free cyclic symmetries (`census`).
"""

from types import ModuleType as _ModuleType

from .census import (
    ActionQuery,
    CensusReport,
    c_of_n,
    classification,
    existence_check,
)
from .complement import (
    Branch,
    EmbeddingSpec,
    SolverTrace,
    SweepReport,
    rank2_vector_isometry,
    run_sweep,
    sample_spec,
    solve,
    solve_even_m,
    solve_even_n,
    solve_odd_m,
)
from .errors import (
    AugmentationObstruction,
    BadIndex,
    CyclactError,
    Degenerate,
    DimensionMismatch,
    ModulusMismatch,
    NotComplement,
    NotDivisible,
    OddModulus,
    OutOfTable,
    PreconditionFailed,
    RankTooLarge,
    SearchExhausted,
    ZeroVector,
)
from .forms import (
    ComplementCertificate,
    QuadraticModule,
    RingMatrix,
    RingVector,
    is_primitive,
    isometry_check,
    lambda_eval,
    mu_eval,
    ring_det,
    transvection,
    verify_lagrangian_complement,
)
from .groupring import (
    DivisionResult,
    FormParameterKind,
    GroupRingElement,
    NormData,
    ParameterClass,
    UnitCheck,
    augmentation,
    exact_divide,
    ideal_contains_one,
    ideal_normalize,
    involution,
    is_unit,
    param_reduce,
    ring_mul,
)
from .intlattice import ZLattice, det_int, row_hnf_transform
from .selftest import RunSummary, run_selftest
from .spectral import (
    CohomologyClass,
    RingCase,
    SpectralPage,
    SpinLineReport,
    cohomology_basis,
    d2_rank,
    e2_page,
    spin_line_report,
    steenrod_square,
)

__version__ = "0.1.0"

# the public names are exactly those imported above, so the list is read off them
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
