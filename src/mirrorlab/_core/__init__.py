"""Hot-loop backend selection.

The batched game simulator and the prime-field kernels exist twice: a
native kernel in plain C (``kernel.c``, bound with ctypes in ``_kernel.py``)
and a pure-Python twin (``_pycore``).  Both implement the exact same
deterministic randomness protocol, so results are identical either way --
only speed differs (see ``benchmarks/bench_core.py``).

On first import ``kernel.c`` is compiled with the system ``cc`` into a
per-user cache (``$XDG_CACHE_HOME/mirrorlab``, default ``~/.cache/mirrorlab``)
keyed by a CRC-32 of the source and the interpreter's extension suffix, and
by the source's length; later imports load the cached library.  When that
fails, or ``MIRRORLAB_PURE_PYTHON=1`` is set, the pure-Python core is used
and ``FALLBACK_REASON`` says why (it is ``None`` on the compiled core).  A
failed build never makes the import fail.

This module is the only way into either core.  Every public function here
range-checks its inputs once, on both backends, before anything of size n
is allocated: sizes past the kernel's integer limits, moduli past 2^32 and
trial indices past 64 bits raise ``ValueError``.  Each core checks the
elements of a stream itself (the kernel in the pass that reduces or counts
them) and raises the same ``ValueError`` for one that is not an int in the
range asked for.  The binding passes values on unchecked, and ctypes wraps
an out-of-range int silently (``c_int(3_000_000_000)`` is negative).

``power_sums`` decides, for both cores, which stream is ingested by its
deviation from the memoized sums of 1..n: the kernel counts the stream and
multiplies out only the absent and repeated numbers, the Python core finds
them with a set.  The kernel's root scan steps a forward-difference table,
k adds per x; the Python core's is one chirp-z product for a prime q in
(n, 2n].

The packed power rows that ``PowerSumSketch.ingest`` adds (``power_row``)
are pure Python on both backends; their memo sits beside that of the
full-range power sums.
"""

from __future__ import annotations

import functools
import os
from importlib.machinery import EXTENSION_SUFFIXES

from . import _pycore
from ._pycore import INT64_MAX, INT64_MIN, is_prime

_SOURCE = os.path.join(os.path.dirname(__file__), "kernel.c")
_COMPILE_TIMEOUT = 300  # seconds; the -O3 build takes ~0.5 s on a 2-CPU x86-64

INT_MAX = 2**31 - 1
MAX_SIZE = INT_MAX - 2      # a size n leaves room for the kernel's n + 2
Q_LIMIT = 2**32             # below this every field product fits 64 bits


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "mirrorlab")


def _compile(target: str) -> str | None:
    """Build ``kernel.c`` into ``target``; return why it failed, or None.

    The compiler writes a temporary file in the cache directory that is then
    renamed over ``target``, so concurrent first imports cannot see a
    half-written library.  What only a build needs is imported here, so a
    process that loads a cached kernel never imports it.
    """
    import contextlib
    import shutil
    import signal
    import subprocess
    import tempfile

    cc = shutil.which("cc")
    if cc is None:
        return "no C compiler: cc not found on PATH"
    cache = os.path.dirname(target)
    try:
        os.makedirs(cache, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache, prefix=".build-")
        os.close(fd)
    except OSError as exc:
        return f"cache not writable: {exc}"
    cmd = [cc, "-O3", "-shared", "-fPIC", _SOURCE, "-o", tmp]
    try:
        # own process group, so a timeout kills the compiler's children too
        with subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, encoding="utf-8",
                              errors="replace",
                              start_new_session=True) as proc:
            try:
                _, err = proc.communicate(timeout=_COMPILE_TIMEOUT)
            except subprocess.TimeoutExpired:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                return f"compile failed: timed out after {_COMPILE_TIMEOUT} s"
        if proc.returncode != 0:
            first = next((line for line in err.splitlines() if line.strip()),
                         f"{cc} exited with status {proc.returncode}")
            return f"compile failed: {first}"
        os.replace(tmp, target)
    except OSError as exc:
        return f"compile failed: {exc}"
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
    return None


def _find_compiled():
    """(compiled kernel, None), or (None, why the fallback is used)."""
    if os.environ.get("MIRRORLAB_PURE_PYTHON"):
        return None, "forced by MIRRORLAB_PURE_PYTHON"
    import zlib

    try:
        with open(_SOURCE, "rb") as fh:
            source = fh.read()
    except OSError as exc:
        return None, f"no C source to compile: {exc}"
    # the interpreter's extension suffix names the platform and architecture
    # (sysconfig's EXT_SUFFIX, without importing sysconfig)
    suffix = EXTENSION_SUFFIXES[0]
    key = f"{zlib.crc32(source + suffix.encode()):08x}{len(source):x}"
    target = os.path.join(_cache_dir(), f"kernel-{key}{suffix}")
    if not os.path.exists(target):
        error = _compile(target)
        if error is not None:
            return None, error
    from ._kernel import Kernel  # loads ctypes, which the Python core never needs

    try:
        return Kernel(target), None
    except OSError as exc:
        return None, f"compiled kernel failed to load: {exc}"


_fast, FALLBACK_REASON = _find_compiled()
HAVE_FAST = _fast is not None
BACKEND = "compiled" if HAVE_FAST else "python"
# threads a compiled batch may use: one per CPU this process may run on
BATCH_THREADS = _fast.batch_threads if HAVE_FAST else 1


def check_size(name: str, value: int) -> None:
    if not -INT_MAX <= value <= MAX_SIZE:
        raise ValueError(f"{name}={value} is past the native kernel's limit "
                         f"of {MAX_SIZE}")


def check_modulus(q: int) -> None:
    if not 1 <= q < Q_LIMIT:
        raise ValueError(f"modulus q={q} is outside 1..{Q_LIMIT - 1}")


def check_trials(start: int, trials: int) -> None:
    if trials < 0:
        raise ValueError(f"trials={trials} is negative")
    last = start + max(trials, 1) - 1
    if not INT64_MIN <= start <= last <= INT64_MAX:
        raise ValueError(f"trial indices {start}..{start + trials - 1} do not "
                         "fit a signed 64-bit integer")


def check_config(config) -> None:
    """ValueError when n, a or b is past the kernel's integer limits."""
    for name in ("n", "a", "b"):
        check_size(name, getattr(config, name))


def power_sums(xs, k: int, q: int, lo: int = INT64_MIN,
               hi: int = INT64_MAX) -> list[int]:
    """First k power sums of the stream modulo q.  ``ValueError`` for an
    element outside lo..hi, by default the signed 64-bit integers.

    A stream over 1..hi at least half as long as its range (a recovery's
    stream) is ingested by deviation on either core: the memoized sums of
    1..hi (``full_power_sums``) plus the core's ``deviation_sums``, the
    powers of each absent number taken once and of each repeat as often as
    it repeats.  Any other stream is multiplied out term by term."""
    check_size("k", k)
    check_modulus(q)
    lo, hi = max(lo, INT64_MIN), min(hi, INT64_MAX)
    core = _fast if HAVE_FAST else _pycore
    if not isinstance(xs, (list, tuple)):
        xs = list(xs)
    if lo == 1 and 1 <= hi <= min(2 * len(xs), MAX_SIZE):
        dev = core.deviation_sums(xs, k, q, hi)
        return [(f + d) % q for f, d in zip(full_power_sums(hi, k, q), dev)]
    return core.power_sums(xs, k, q, lo, hi)


# (n, q) -> p1..pK of 1..n mod q for the largest K asked for so far; any
# shorter p1..pk is a prefix of it.  Oldest pairs go first past the bound.
_FULL_SUMS: dict[tuple[int, int], tuple[int, ...]] = {}
_FULL_SUMS_PAIRS = 64


def full_power_sums(n: int, k: int, q: int) -> list[int]:
    """Power sums p1..pk of 1..n modulo q, from the one memo that the
    recovery and the pure-Python ingest share."""
    check_size("n", n)
    check_size("k", k)
    check_modulus(q)
    key = (n, q)
    sums = _FULL_SUMS.get(key, ())
    if len(sums) < k:
        # at least double, so asking for k = 1, 2, 3, ... costs O(log k) passes
        core = _fast if HAVE_FAST else _pycore
        sums = tuple(core.full_power_sums(n, max(k, 2 * len(sums)), q))
        _FULL_SUMS.pop(key, None)
        if len(_FULL_SUMS) >= _FULL_SUMS_PAIRS:
            del _FULL_SUMS[next(iter(_FULL_SUMS))]
        _FULL_SUMS[key] = sums
    return list(sums[:max(k, 0)])


# (q, k) -> {x: power_row(x, k, q)}, each row stored on its first use.  The
# tables are charged their lanes' bytes plus _ROW_ENTRY_BYTES a row for its
# int, key and dict slot, and together hold at most _POWER_ROW_BYTES: a row
# that needs room drops the oldest other tables, and one that would take its
# own table past the bound is computed and not stored, so no size up to
# MAX_SIZE allocates n*k lanes.  The rand-sqrt table at n = 400 (q = 401,
# k = 173, 32-bit lanes) is ~0.3 MB.
_POWER_ROWS: dict[tuple[int, int], dict[int, int]] = {}
_POWER_ROW_BYTES = 2**21
_ROW_ENTRY_BYTES = 100
_power_row_bytes = 0  # charged to the rows in _POWER_ROWS


def _lane_bytes(q: int) -> int:
    """The width of a power row's lanes modulo q: 32 bits while q < 2^16,
    else 64 bits, which every q < Q_LIMIT fits."""
    return 4 if q < 2**16 else 8


_LANE_TYPECODES = {4: "I", 8: "Q"}  # lane bytes -> array typecode


def row_headroom(q: int) -> int:
    """How many power rows modulo q add up without a lane overflowing."""
    return (2**(8 * _lane_bytes(q)) - 1) // max(q - 1, 1)


def power_row(x: int, k: int, q: int) -> int:
    """x^1..x^k mod q packed into one int, the lowest power in the least
    significant lane, 32 or 64 bits wide as ``_lane_bytes`` says.  Rows
    of a sum add lane by lane while their count is within
    ``row_headroom(q)``; ``row_lanes`` unpacks them."""
    table = _POWER_ROWS.get((q, k))
    row = None if table is None else table.get(x)
    if row is None:
        row = _new_power_row(x, k, q)
    return row


def _new_power_row(x: int, k: int, q: int) -> int:
    global _power_row_bytes
    check_size("k", k)
    check_modulus(q)
    row = _pycore.power_row(x, k, q, _LANE_TYPECODES[_lane_bytes(q)])
    key, cost = (q, k), _row_bytes(q, k)
    table = _POWER_ROWS.get(key, {})
    if (len(table) + 1) * cost <= _POWER_ROW_BYTES:
        for old in list(_POWER_ROWS):
            if _power_row_bytes + cost <= _POWER_ROW_BYTES:
                break
            if old != key:
                rows = len(_POWER_ROWS.pop(old))
                _power_row_bytes -= rows * _row_bytes(*old)
        _POWER_ROWS.setdefault(key, table)[x] = row
        _power_row_bytes += cost
    return row


def _row_bytes(q: int, k: int) -> int:
    return k * _lane_bytes(q) + _ROW_ENTRY_BYTES


def row_lanes(row: int, k: int, q: int) -> list[int]:
    """The k lanes of a power row, or of a sum of rows, least significant
    first."""
    return _pycore.unpack(row, k, _LANE_TYPECODES[_lane_bytes(q)]).tolist()


def poly_root_scan(e, n: int, q: int) -> list[int]:
    """Roots in 1..n of x^k - e1*x^(k-1) + ... + (-1)^k ek over GF(q).  The
    pure-Python core scans a prime q in (n, 2n] by one chirp-z product and
    any other q row by row (see ``_pycore.poly_root_scan``)."""
    check_size("n", n)
    check_size("k", len(e))
    check_modulus(q)
    if HAVE_FAST:
        return _fast.poly_root_scan(e, n, q)
    return _pycore.poly_root_scan(e, n, q)


@functools.lru_cache(maxsize=256)
def route(config, alice_spec: str, bob_spec: str):
    """("compiled", kernel arguments) when the kernel plays this matchup,
    else ("python", None): the path ``play_game`` and ``play_batch`` take.

    The config is range-checked first, before any player is built.  With a
    compiled core the players are then built once (``validate_matchup``),
    so a bad matchup raises ``ValueError`` here, and the kernel codes are
    read off the two strategy classes.  Only answers are cached
    (``lru_cache`` stores no exception): a bad input raises on every call.
    """
    check_config(config)
    if not HAVE_FAST:
        return "python", None
    from ..strategies import RandSqrtAlice

    alice, bob = _pycore.validate_matchup(config, alice_spec, bob_spec)
    if not (alice.kernel_code and bob.kernel_code):
        return "python", None
    r = k = 0
    if isinstance(alice, RandSqrtAlice):
        r, k = alice.r, alice.k
    return "compiled", (alice.kernel_code, bob.kernel_code, r, k)


def _kernel_args(config, alice_spec: str, bob_spec: str, force_python: bool):
    """``route``'s kernel arguments, or None for the Python core; either way
    the config has been range-checked."""
    if force_python:
        check_config(config)
        return None
    return route(config, alice_spec, bob_spec)[1]


def play_game(config, alice_spec: str, bob_spec: str, game_seed: int,
              *, force_python: bool = False):
    """One recorded game as an ``engine.Transcript``, on the path ``route``
    names.  No memory budget is checked on either path."""
    args = _kernel_args(config, alice_spec, bob_spec, force_python)
    if args is None:
        return _pycore.play_game(config, alice_spec, bob_spec, game_seed)
    return _fast.play_game(config, *args, game_seed)


def play_batch(config, alice_spec: str, bob_spec: str, master_seed: int,
               start: int, trials: int, *, force_python: bool = False) -> dict:
    """Counts of the three outcomes (``engine.COUNT_KEYS``) over seeded
    trials start..start+trials-1.  On the compiled path a large batch runs
    on ``BATCH_THREADS`` threads; the counts do not depend on the split."""
    check_trials(start, trials)
    args = _kernel_args(config, alice_spec, bob_spec, force_python)
    if args is None:
        return _pycore.play_batch(config, alice_spec, bob_spec,
                                  master_seed, start, trials)
    return _fast.play_batch(config, *args, master_seed, start, trials)
