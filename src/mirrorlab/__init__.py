"""mirrorlab: space-bounded strategies for the (a,b)-mirror game.

A referee with explicit memory accounting, a zoo of bounded-memory
strategies, streaming recovery of missing elements through power sums, an
extremal set-family toolkit, and a seeded Monte Carlo harness.  Hot loops
run on a compiled core when available (``mirrorlab._core.BACKEND``).

The public names below are looked up on first use (PEP 562), so
``import mirrorlab`` loads no submodule, and a command loads only the
modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "_core": ("BACKEND", "HAVE_FAST"),
    "engine": ("BudgetExceeded", "GameConfig", "MalformedMove", "Outcome",
               "Player", "Strategy", "Transcript", "replay", "run_game"),
    "harness": ("ExperimentSpec", "enumerate_occurring", "exhaust_games",
                "memory_profile", "montecarlo"),
    "setfam": ("EVEN_EVEN", "EVEN_ODD", "ODD_EVEN", "ODD_ODD", "MVFamily",
               "ModtownSpec", "SetFamily", "TownKind", "check_covering",
               "check_modtown", "check_mv", "check_town",
               "covering_lower_bound", "eventown_pairing",
               "frankl_wilson_bound", "max_town_size", "modtown_to_mv"),
    "strategies": ("MatchingOracle", "make_strategy", "sample_matching"),
    "streamrec": ("InconsistentSketch", "PowerSumSketch", "PrimeField",
                  "elementary_from_power", "recover_missing", "select_prime"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
