"""Entanglement detection and pure-state factorization from the ranks of
reduced density matrices, with a partial-transpose baseline for comparison."""

from types import ModuleType as _ModuleType

from .catalog import (
    bell,
    ghz,
    haar_ensemble,
    haar_pure,
    mixed_of_rank,
    product_pure,
    separable_ensemble,
    separable_mixture,
    six_qubit_benchmark,
    w,
    werner,
)
from .criteria import (
    ENTANGLED,
    INCONCLUSIVE,
    SEPARABLE_PURE_PRODUCT,
    RankLattice,
    Verdict,
    Violation,
    check_rank_monotonicity,
    ensemble_lattices,
    rank_lattice,
    verdict,
)
from .errors import (
    EntrankError,
    EnumerationLimitError,
    InputError,
    InternalInconsistencyError,
    NormalizationError,
    PartitionError,
    ShapeError,
    SizeLimitError,
    StateFileError,
    SymmetryError,
)
from .factorize import FactorizationResult, StepRecord, factorize_pure
from .linalg import (
    DEFAULT_MAX_DIM,
    DEFAULT_TOLERANCE,
    RankTolerance,
    hermitian_eigenvalues,
    numerical_rank,
)
from .statefile import load_state, parse_state, write_state_file
from .states import (
    DensityMatrix,
    PureState,
    density_matrix,
    ensemble_ppt,
    ensemble_ranks,
    mix,
    partial_trace,
    ppt_minimum,
    pure_state,
    subset_rank,
    subset_ranks,
)

__version__ = "0.1.0"

# The exported names are the ones imported above.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
