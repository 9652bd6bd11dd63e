"""Cantor-cone sections and fat product horseshoes of spliced interval maps."""

from .bowen import BowenSystem, GapDiffeo, build_base_map, verify_surgery
from .cones import (
    ConeSystem,
    brute_force_slice,
    cone_map,
    preimage_level,
    slice_measure,
    verify_cone_bound,
)
from .config import ExperimentConfig, load_config
from .errors import (
    ConfigError,
    DomainError,
    FathorseError,
    FeasibilityError,
    InvalidParameterError,
    SingularityError,
    SizeGuardError,
)
from .fatcantor import CantorConstruction, GapLengthSequence, make_construction, zeta_value
from .horseshoe import (
    HorseshoeEstimate,
    PoincareSystem,
    make_poincare_system,
    suspension_volume,
)
from .lorenz import LorenzBranchMap

__version__ = "0.1.0"
