"""ctypes binding of the native kernel ``kernel.c``.

``Kernel(path)`` loads the compiled library and exposes the functions the
pure-Python core has, with the same results; the game functions take the
kernel's strategy codes in place of specs.  Each makes one foreign call per
batch, game or stream and passes ``array`` buffers (a packed ``bytes``
buffer for streams).  A recorded game comes back as the numbers said, in
order, which is what ``engine.Transcript`` holds.

Only ``mirrorlab._core`` calls it, and it range-checks every value first, so
nothing is checked here again.  The one error of its own is a stream element
outside the range asked for: packing tells one that does not fit a signed
64-bit integer, and the kernel the rest, in the pass that reduces them.
"""

from __future__ import annotations

import ctypes
import struct
from array import array

from ._pycore import INT64_MAX, INT64_MIN, stream_range_error

_NOMEM = -1
_MASK64 = 2**64 - 1

_I, _I64, _U64, _P = (ctypes.c_int, ctypes.c_int64, ctypes.c_uint64,
                      ctypes.c_void_p)
_GAME = [_I] * 7  # n, a, b, acode, bcode, r, k
# every function kernel.c exports: name -> (restype, argtypes)
FUNCTIONS = {
    "ml_power_sums": (_I, [_P, _I64, _I, _U64, _I64, _I64, _P]),
    "ml_full_power_sums": (None, [_I, _I, _U64, _P]),
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
        if not isinstance(xs, (list, tuple)):
            xs = list(xs)
        try:  # struct packs a list about twice as fast as array() does
            buf = struct.pack(f"{len(xs)}q", *xs)
        except struct.error:
            raise stream_range_error(lo, hi) from None
        sums = _zeros("Q", max(k, 0))
        if self._power_sums(buf, len(xs), k, q, lo, hi, _addr(sums)):
            raise stream_range_error(lo, hi)
        return sums.tolist()

    def full_power_sums(self, n: int, k: int, q: int) -> list[int]:
        sums = _zeros("Q", max(k, 0))
        self._full_power_sums(n, k, q, _addr(sums))
        return sums.tolist()

    def poly_root_scan(self, e, n: int, q: int) -> list[int]:
        """Roots in 1..n of x^k - e1*x^(k-1) + e2*x^(k-2) - ... over GF(q)."""
        coef = array("Q", [(q - v) % q if j % 2 == 0 else v % q
                           for j, v in enumerate(e)])
        cap = len(coef) + 1  # a degree-k polynomial has at most k roots mod a prime
        while True:
            out = _zeros("i", cap)
            cnt = self._root_scan(_addr(coef), len(coef), n, q, _addr(out), cap)
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

    def play_batch(self, config, acode, bcode, r, k, master_seed, start,
                   trials) -> dict:
        """Outcome counts of the seeded trials; arguments as ``play_game``."""
        counts = _zeros("q", 4)
        code = self._play_batch(config.n, config.a, config.b, acode, bcode,
                                r, k, master_seed & _MASK64, start, trials,
                                _addr(counts))
        if code:
            _raise(code, f"at trial {counts[3]}")
        if _COUNT_NAMES is None:
            _bind_engine()
        return dict(zip(_COUNT_NAMES, counts[:3]))
