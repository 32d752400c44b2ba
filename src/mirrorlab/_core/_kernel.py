"""ctypes binding of the native kernel ``kernel.c``.

``Kernel(path)`` loads the compiled library and exposes the functions the
pure-Python core has, with the same results; the game functions take the
kernel's strategy codes in place of specs.  Each makes one foreign call per
batch, game or stream and passes ``array`` buffers (a packed ``bytes``
buffer for streams).  A recorded game comes back as the numbers said, in
order, which is what ``engine.Transcript`` holds.

Only ``mirrorlab._core`` calls it, and it range-checks every value first, so
nothing is checked here again.  ``_core.power_sums`` also decides which
stream is ingested by deviation (``deviation_sums``) and which is multiplied
out (``power_sums``).  The one error of the binding's own is a stream
element outside the range asked for: packing tells one that does not fit a
signed 64-bit integer, and the kernel the rest, in the pass that reduces or
counts them.  The root scan steps a difference table in the kernel (see
there); a failed allocation raises ``MemoryError``.

A game batch uses every CPU this process may run on.  Trial i's game
depends on the master seed and i alone, so a batch of at least
``SPLIT_MIN_WORK`` trials times n is cut into contiguous chunks, and one
thread per CPU (the caller one of them) takes the next chunk until none is
left.  ctypes releases the GIL for each foreign call.  The counts, and the
error raised for a failing trial, do not depend on the split; no thread
outlives the call.  A smaller batch is one call on the calling thread.
"""

from __future__ import annotations

import ctypes
import os
import struct
from array import array

from ._pycore import INT64_MAX, INT64_MIN, stream_range_error

_NOMEM = -1
_OUT_OF_RANGE = 4
_MASK64 = 2**64 - 1
# A thread's start and join cost ~0.1-0.3 ms on a 2-CPU x86-64, more than
# splitting a batch of fewer trials times n saves.
SPLIT_MIN_WORK = 2**15
# Chunks per thread: a thread that starts late, or whose CPU is taken away
# for a while, leaves its share to the others.
_CHUNKS_PER_THREAD = 4

# Threads a split batch runs on: one per CPU this process may run on.
try:
    _THREADS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity call on this platform
    _THREADS = os.cpu_count() or 1

_I, _I64, _U64, _P = (ctypes.c_int, ctypes.c_int64, ctypes.c_uint64,
                      ctypes.c_void_p)
_GAME = [_I] * 7  # n, a, b, acode, bcode, r, k
# every function kernel.c exports: name -> (restype, argtypes)
FUNCTIONS = {
    "ml_power_sums": (_I, [_P, _I64, _I, _U64, _I64, _I64, _P]),
    "ml_range_sums": (_I, [_P, _I64, _I, _U64, _I, _P]),
    "ml_root_scan": (_I, [_P, _I, _I, _U64, _P, _I]),
    "ml_play_game": (_I, _GAME + [_U64, _P, _I64, _P]),
    "ml_play_batch": (_I, _GAME + [_U64, _I64, _I64, _P]),
}


def _zeros(typecode: str, count: int) -> array:
    return array(typecode, bytes(array(typecode).itemsize * count))


def _addr(buf: array) -> int:
    return buf.buffer_info()[0]


# Bound from ``engine`` by the first game, so that a process that only
# recovers missing numbers never imports the referee: the kernel's outcome i
# is _OUTCOMES[i], counted under _COUNT_NAMES[i].
_Transcript = _OUTCOMES = _COUNT_NAMES = None


def _bind_engine() -> None:
    global _Transcript, _OUTCOMES, _COUNT_NAMES
    from ..engine import COUNT_KEYS, Transcript

    _Transcript = Transcript
    _OUTCOMES = tuple(COUNT_KEYS)
    _COUNT_NAMES = tuple(COUNT_KEYS.values())


def _raise(code: int, where: str):
    if code == _NOMEM:
        raise MemoryError
    raise RuntimeError(f"kernel error {code} {where}")


def _pack_stream(xs, lo: int, hi: int) -> bytes:
    """The stream as native int64s; an element that is not an int or does
    not fit raises the range error for lo..hi."""
    try:  # struct packs a list about twice as fast as array() does
        return struct.pack(f"{len(xs)}q", *xs)
    except struct.error:
        raise stream_range_error(lo, hi) from None


def _check_stream(code: int, lo: int, hi: int) -> None:
    """Raise for a stream kernel's nonzero return code."""
    if code == _OUT_OF_RANGE:
        raise stream_range_error(lo, hi)
    if code:
        _raise(code, "in a stream")


class Kernel:
    """The compiled kernel at ``path``; ``OSError`` if it cannot be loaded."""

    def __init__(self, path):
        self.path = str(path)
        lib = ctypes.CDLL(self.path)
        for name, (restype, argtypes) in FUNCTIONS.items():
            fn = getattr(lib, name)
            fn.restype = restype
            fn.argtypes = argtypes
            setattr(self, "_" + name[3:], fn)

    def power_sums(self, xs, k: int, q: int, lo: int = INT64_MIN,
                   hi: int = INT64_MAX) -> list[int]:
        """First k power sums of the integer stream, modulo q; every element
        must lie in lo..hi, a range within int64."""
        buf = _pack_stream(xs, lo, hi)
        sums = _zeros("Q", max(k, 0))
        _check_stream(self._power_sums(buf, len(buf) // 8, k, q, lo, hi,
                                       _addr(sums)), lo, hi)
        return sums.tolist()

    def deviation_sums(self, xs, k: int, q: int, n: int) -> list[int]:
        """First k power sums modulo q of the absent numbers of 1..n
        (weight -1) and of the repeats (weight count - 1): what the stream
        adds to the power sums of 1..n.  Every element must lie in 1..n."""
        buf = _pack_stream(xs, 1, n)
        sums = _zeros("Q", max(k, 0))
        _check_stream(self._range_sums(buf, len(buf) // 8, k, q, n,
                                       _addr(sums)), 1, n)
        return sums.tolist()

    def full_power_sums(self, n: int, k: int, q: int) -> list[int]:
        sums = _zeros("Q", max(k, 0))
        self._range_sums(None, 0, k, q, n, _addr(sums))  # no stream, no error
        return sums.tolist()

    def poly_root_scan(self, e, n: int, q: int) -> list[int]:
        """Roots in 1..n of x^k - e1*x^(k-1) + e2*x^(k-2) - ... over GF(q)."""
        coef = array("Q", [(q - v) % q if j % 2 == 0 else v % q
                           for j, v in enumerate(e)])
        cap = len(coef) + 1  # a degree-k polynomial has at most k roots mod a prime
        while True:
            out = _zeros("i", cap)
            cnt = self._root_scan(_addr(coef), len(coef), n, q, _addr(out), cap)
            if cnt < 0:
                _raise(cnt, "in the root scan")
            if cnt <= cap:
                return out[:cnt].tolist()
            cap = cnt

    def play_game(self, config, acode, bcode, r, k, game_seed):
        """One recorded game as an ``engine.Transcript`` of the numbers said.

        ``acode`` and ``bcode`` are the strategies' ``kernel_code``s; ``r``
        and ``k`` are rand-sqrt's backup count and endgame threshold (0
        otherwise).
        """
        n = config.n
        cap = n + 1  # n fresh numbers, then at most one repeat
        rec = _zeros("i", cap)
        info = _zeros("q", 3)
        code = self._play_game(n, config.a, config.b, acode, bcode, r, k,
                               game_seed & _MASK64, _addr(rec), cap,
                               _addr(info))
        if code:
            _raise(code, "in a recorded game")
        if _Transcript is None:
            _bind_engine()
        outcome, losing, used = info
        return _Transcript(config, rec[:used].tolist(), _OUTCOMES[outcome],
                           losing or None, game_seed)

    @property
    def batch_threads(self) -> int:
        """The threads a game batch may use."""
        return _THREADS

    def play_batch(self, config, acode, bcode, r, k, master_seed, start,
                   trials) -> dict:
        """Outcome counts of the seeded trials; arguments as ``play_game``.
        A batch of at least ``SPLIT_MIN_WORK`` trials times n is split
        across ``batch_threads`` threads."""
        game = (config.n, config.a, config.b, acode, bcode, r, k,
                master_seed & _MASK64)
        threads = _THREADS
        if threads > 1 and trials * config.n >= SPLIT_MIN_WORK:
            counts = _play_split(self._play_batch, game, start, trials,
                                 threads)
        else:
            counts = _zeros("q", 4)
            _check_batch(self._play_batch(*game, start, trials,
                                          _addr(counts)), counts)
        if _COUNT_NAMES is None:
            _bind_engine()
        return dict(zip(_COUNT_NAMES, counts[:3]))


def _check_batch(code: int, counts: array) -> None:
    """Raise for ``ml_play_batch``'s nonzero return code."""
    if code:
        _raise(code, f"at trial {counts[3]}")


def _play_split(play, game, start: int, trials: int, threads: int) -> list:
    """Counts of trials start..start+trials-1 played in chunks by up to
    ``threads`` threads, the calling one among them.  Every chunk runs;
    then the lowest failing chunk's error is raised, which holds the lowest
    failing trial, as a serial run would raise."""
    import threading

    size = -(-trials // (threads * _CHUNKS_PER_THREAD))
    firsts = range(start, start + trials, size)
    # everything a worker needs is made here: it only makes foreign calls
    counts = [_zeros("q", 4) for _ in firsts]
    calls = [(*game, first, min(size, start + trials - first), _addr(c))
             for first, c in zip(firsts, counts)]
    codes = [None] * len(calls)
    todo = iter(range(len(calls)))  # next() on it is atomic under the GIL

    def work():
        for i in todo:
            codes[i] = play(*calls[i])

    workers = []
    try:
        for _ in range(min(threads, len(calls)) - 1):
            worker = threading.Thread(target=work)
            worker.start()
            workers.append(worker)
        work()
    finally:
        for worker in workers:
            worker.join()
    for call, code, c in zip(calls, codes, counts):
        if code is None:  # its worker raised: run it here, as serially
            code = play(*call)
        _check_batch(code, c)
    return [sum(c[j] for c in counts) for j in range(3)]
