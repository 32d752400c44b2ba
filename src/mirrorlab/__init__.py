"""mirrorlab: space-bounded strategies for the (a,b)-mirror game.

A referee with explicit memory accounting, a zoo of bounded-memory
strategies, streaming recovery of missing elements through power sums, an
extremal set-family toolkit, and a seeded Monte Carlo harness.  Hot loops
run on a compiled core when available (``mirrorlab._core.BACKEND``).
"""

from ._core import BACKEND, HAVE_FAST
from .engine import (BudgetExceeded, GameConfig, MalformedMove, Outcome,
                     Player, Strategy, Transcript, replay, run_game)
from .harness import (ExperimentSpec, enumerate_occurring, exhaust_games,
                      memory_profile, montecarlo)
from .setfam import (EVEN_EVEN, EVEN_ODD, ODD_EVEN, ODD_ODD, MVFamily,
                     ModtownSpec, SetFamily, TownKind, check_covering,
                     check_modtown, check_mv, check_town, covering_lower_bound,
                     eventown_pairing, frankl_wilson_bound, max_town_size,
                     modtown_to_mv)
from .strategies import MatchingOracle, make_strategy, sample_matching
from .streamrec import (InconsistentSketch, PowerSumSketch, PrimeField,
                        elementary_from_power, recover_missing, select_prime)

__version__ = "0.1.0"

__all__ = [
    "BACKEND", "HAVE_FAST", "__version__",
    "BudgetExceeded", "GameConfig", "MalformedMove", "Outcome", "Player",
    "Strategy", "Transcript", "replay", "run_game",
    "ExperimentSpec", "enumerate_occurring", "exhaust_games",
    "memory_profile", "montecarlo",
    "EVEN_EVEN", "EVEN_ODD", "ODD_EVEN", "ODD_ODD", "MVFamily", "ModtownSpec",
    "SetFamily", "TownKind", "check_covering", "check_modtown", "check_mv",
    "check_town", "covering_lower_bound", "eventown_pairing",
    "frankl_wilson_bound", "max_town_size", "modtown_to_mv",
    "MatchingOracle", "make_strategy", "sample_matching",
    "InconsistentSketch", "PowerSumSketch", "PrimeField",
    "elementary_from_power", "recover_missing", "select_prime",
]
