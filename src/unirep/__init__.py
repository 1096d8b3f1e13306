"""Numerical workbench for unitary representations of countable discrete groups."""

from .amenability import (
    DefectReport,
    ReturnProbabilityTable,
    SpectralRadiusInterval,
    defect_table,
    min_defect,
    return_probabilities,
    spectral_radius_bound,
    walk_radius,
)
from .containment import (
    GramFunction,
    WitnessReport,
    ball_delta_basis,
    discrepancy,
    folner_witness,
    gram,
    search_witness,
    shift_defect_exact,
    transfer_witness,
    trivial_target,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    KindMismatchError,
    PreconditionError,
    ResourceLimitError,
    WorkbenchError,
)
from .groups import (
    Ball,
    FgAbelianOracle,
    FiniteTableOracle,
    FreeGroupOracle,
    GroupOracle,
    RewritingOracle,
    ball,
    symmetric_generators,
)
from .reps import (
    Amalgam,
    DirectSum,
    Embedding,
    MatrixRep,
    Multiple,
    Regular,
    Representation,
    Subspace,
    Trivial,
    amalgamate,
    embed,
)
from .stability import (
    ClosureSpec,
    IndependenceVerdict,
    SuperstableResult,
    canonical_base,
    closure,
    nondividing,
    project,
    superstable_approx,
)
from .vectors import SparseVector, delta, inner, orthonormalize, zero

__version__ = "0.1.0"
