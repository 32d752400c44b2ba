"""Hot-loop backend selection.

The batched game simulator and the prime-field kernels exist twice: a
native kernel in plain C (``kernel.c``, bound with ctypes in ``_kernel.py``)
and a pure-Python twin (``_pycore``).  Both implement the exact same
deterministic randomness protocol, so results are identical either way --
only speed differs (see ``benchmarks/bench_core.py``).

On first import ``kernel.c`` is compiled with the system ``cc`` into a
per-user cache (``$XDG_CACHE_HOME/mirrorlab``, default ``~/.cache/mirrorlab``)
keyed by a hash of the source and the interpreter's extension suffix;
later imports load the cached library.  When that fails, or
``MIRRORLAB_PURE_PYTHON=1`` is set, the pure-Python core is used and
``FALLBACK_REASON`` says why (it is ``None`` on the compiled core).  A failed
build never makes the import fail.

This module is the only way into either core.  Every public function here
range-checks its inputs once, on both backends, before anything of size n
is allocated: sizes past the kernel's integer limits, moduli past 2^32 and
trial indices past 64 bits raise ``ValueError``.  Each core checks the
elements of a stream itself (the kernel in the pass that reduces them) and
raises the same ``ValueError`` for one that is not an int in the range asked
for.  The binding passes values on unchecked, and ctypes wraps an
out-of-range int silently (``c_int(3_000_000_000)`` is negative).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import shutil
import signal
import subprocess
import sysconfig
import tempfile
from pathlib import Path

from . import _pycore
from ._pycore import INT64_MAX, INT64_MIN

_SOURCE = Path(__file__).with_name("kernel.c")
_COMPILE_TIMEOUT = 300  # seconds; the -O3 build takes ~0.5 s on a 2-CPU x86-64

INT_MAX = 2**31 - 1
MAX_SIZE = INT_MAX - 2      # a size n leaves room for the kernel's n + 2
Q_LIMIT = 2**32             # below this every field product fits 64 bits


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return Path(base) / "mirrorlab"


def _compile(target: Path) -> str | None:
    """Build ``kernel.c`` into ``target``; return why it failed, or None.

    The compiler writes a temporary file in the cache directory that is then
    renamed over ``target``, so concurrent first imports cannot see a
    half-written library.
    """
    cc = shutil.which("cc")
    if cc is None:
        return "no C compiler: cc not found on PATH"
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".build-")
        os.close(fd)
    except OSError as exc:
        return f"cache not writable: {exc}"
    cmd = [cc, "-O3", "-shared", "-fPIC", str(_SOURCE), "-o", tmp]
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
    try:
        source = _SOURCE.read_bytes()
    except OSError as exc:
        return None, f"no C source to compile: {exc}"
    # the interpreter's extension suffix names the platform and architecture
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    key = hashlib.sha256(source + suffix.encode()).hexdigest()[:16]
    target = _cache_dir() / f"kernel-{key}{suffix}"
    if not target.exists():
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
    element outside lo..hi, by default the signed 64-bit integers."""
    check_size("k", k)
    check_modulus(q)
    lo, hi = max(lo, INT64_MIN), min(hi, INT64_MAX)
    if HAVE_FAST:
        return _fast.power_sums(xs, k, q, lo, hi)
    return _pycore.power_sums(xs, k, q, lo, hi)


def full_power_sums(n: int, k: int, q: int) -> list[int]:
    check_size("n", n)
    check_size("k", k)
    check_modulus(q)
    if HAVE_FAST:
        return _fast.full_power_sums(n, k, q)
    return _pycore.full_power_sums(n, k, q)


def poly_root_scan(e, n: int, q: int) -> list[int]:
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
    trials start..start+trials-1."""
    check_trials(start, trials)
    args = _kernel_args(config, alice_spec, bob_spec, force_python)
    if args is None:
        return _pycore.play_batch(config, alice_spec, bob_spec,
                                  master_seed, start, trials)
    return _fast.play_batch(config, *args, master_seed, start, trials)
