"""High-precision equilibrium solver for two-player zero-sum matrix games.

First-order regret matching drives the duality gap into the basin where
a regularized semi-smooth Newton method on the Douglas-Rachford
splitting residual takes over and converges superlinearly, certifying
gaps near machine precision.  The names exported here are the ones the
README documents; everything else lives in the submodules.
"""

from .baselines import FomConfig, extragradient_run, ogda_run
from .game import MatrixGame, StrategyProfile, duality_gap
from .hybrid import HybridConfig, run_hybrid
from .instances import InstanceSpec, generate, load_matrix, save_matrix
from .prm import run_prm
from .splitting import build_context, lift, restrict
from .ssn import SsnConfig, drive_newton, make_state
from .trace import TraceRow

__version__ = "0.1.0"

__all__ = [
    "FomConfig", "HybridConfig", "InstanceSpec", "MatrixGame", "SsnConfig",
    "StrategyProfile", "TraceRow", "build_context", "drive_newton",
    "duality_gap", "extragradient_run", "generate", "lift", "load_matrix",
    "make_state", "ogda_run", "restrict", "run_hybrid", "run_prm",
    "save_matrix", "__version__",
]
