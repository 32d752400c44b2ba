"""ctypes binding of the native kernel ``kernel.c``.

``Kernel(path)`` loads the compiled library and exposes the functions the
pure-Python core has, with the same results; the game functions take the
kernel's strategy codes in place of specs.  Each makes one foreign call per
batch, game or stream and passes ``array`` buffers (a packed ``bytes``
buffer for streams).

ctypes wraps an out-of-range int silently (``c_int(3_000_000_000)`` is
negative), so every value is range-checked here before it is passed; the
checks are shared with ``mirrorlab._core`` so that both backends reject the
same inputs with the same ``ValueError``.
"""

from __future__ import annotations

import struct
from array import array

from ..engine import MoveRecord, Outcome, Player, Transcript

INT_MAX = 2**31 - 1
MAX_SIZE = INT_MAX - 2      # a size n leaves room for the kernel's n + 2
INT64_MIN, INT64_MAX = -2**63, 2**63 - 1
Q_LIMIT = 2**32             # moduli below this keep q^2 below 2^64
_MASK64 = 2**64 - 1

_OUTCOMES = (Outcome.BOTH_WIN, Outcome.ALICE_LOSES, Outcome.BOB_LOSES)
_PLAYERS = (Player.ALICE, Player.BOB)
_NOMEM = -1


def check_size(name: str, value: int) -> None:
    if not -INT_MAX <= value <= MAX_SIZE:
        raise ValueError(f"{name}={value} is past the native kernel's limit "
                         f"of {MAX_SIZE}")


def check_modulus(q: int) -> None:
    if not 1 <= q < Q_LIMIT:
        raise ValueError(f"modulus q={q} is outside 1..{Q_LIMIT - 1}")


def check_matching_size(n: int) -> None:
    check_size("n", n)
    if n < 0 or n % 2:
        raise ValueError("a perfect matching needs even n")


def check_trials(start: int, trials: int) -> None:
    last = start + max(trials, 1) - 1
    if not INT64_MIN <= start <= last <= INT64_MAX:
        raise ValueError(f"trial indices {start}..{start + trials - 1} do not "
                         "fit a signed 64-bit integer")


def _zeros(typecode: str, count: int) -> array:
    return array(typecode, bytes(array(typecode).itemsize * count))


def _addr(buf: array) -> int:
    return buf.buffer_info()[0]


def _check_game(n, a, b, r, k, q) -> None:
    for name, value in (("n", n), ("a", a), ("b", b), ("r", r), ("k", k)):
        check_size(name, value)
    if q:
        check_modulus(q)


def _raise(code: int, where: str):
    if code == _NOMEM:
        raise MemoryError
    raise RuntimeError(f"kernel error {code} {where}")


class Kernel:
    """The compiled kernel at ``path``; ``OSError`` if it cannot be loaded."""

    def __init__(self, path):
        import ctypes  # only here, so the pure-Python core does not load it

        self.path = str(path)
        lib = ctypes.CDLL(self.path)
        i, i64, u64, p = (ctypes.c_int, ctypes.c_int64, ctypes.c_uint64,
                          ctypes.c_void_p)
        game = [i, i, i, i, i, i, i]  # n, a, b, acode, bcode, r, k
        for name, restype, argtypes in (
                ("ml_derive", u64, [u64, u64]),
                ("ml_matching", i, [i, u64, p]),
                ("ml_power_sums", None, [p, i64, i, u64, p]),
                ("ml_full_power_sums", None, [i, i, u64, p]),
                ("ml_root_scan", i, [p, i, i, u64, p, i]),
                ("ml_play_game", i, game + [u64, p, i64, p]),
                ("ml_play_batch", i, game + [u64, i64, i64, p])):
            fn = getattr(lib, name)
            fn.restype = restype
            fn.argtypes = argtypes
            setattr(self, "_" + name[3:], fn)

    def derive_seed(self, master: int, index: int) -> int:
        return self._derive(master & _MASK64, index & _MASK64)

    def matching_from_seed(self, n: int, seed: int) -> list[int]:
        """Partner table (index 0 unused) of the seeded uniform matching."""
        check_matching_size(n)
        match = _zeros("i", n + 1)
        if self._matching(n, seed & _MASK64, _addr(match)) != 0:
            raise MemoryError
        return match.tolist()

    def power_sums(self, xs, k: int, q: int) -> list[int]:
        """First k power sums of the integer stream, modulo q."""
        check_size("k", k)
        check_modulus(q)
        if not isinstance(xs, (list, tuple)):
            xs = list(xs)
        try:  # struct packs a list about twice as fast as array() does
            buf = struct.pack(f"{len(xs)}q", *xs)
        except struct.error:
            raise ValueError("stream elements must be integers that fit a "
                             "signed 64-bit integer") from None
        sums = _zeros("Q", max(k, 0))
        self._power_sums(buf, len(xs), k, q, _addr(sums))
        return sums.tolist()

    def full_power_sums(self, n: int, k: int, q: int) -> list[int]:
        check_size("n", n)
        check_size("k", k)
        check_modulus(q)
        sums = _zeros("Q", max(k, 0))
        self._full_power_sums(n, k, q, _addr(sums))
        return sums.tolist()

    def poly_root_scan(self, e, n: int, q: int) -> list[int]:
        """Roots in 1..n of x^k - e1*x^(k-1) + e2*x^(k-2) - ... over GF(q)."""
        check_size("n", n)
        check_modulus(q)
        coef = array("Q", [v % q for v in e])
        check_size("k", len(coef))
        cap = len(coef) + 1  # a degree-k polynomial has at most k roots mod a prime
        while True:
            out = _zeros("i", cap)
            cnt = self._root_scan(_addr(coef), len(coef), n, q, _addr(out), cap)
            if cnt == _NOMEM:
                raise MemoryError
            if cnt <= cap:
                return out[:cnt].tolist()
            cap = cnt

    def play_game(self, config, acode, bcode, r, k, q, game_seed):
        """One recorded game as an ``engine.Transcript``.

        ``r`` and ``k`` are rand-sqrt's backup count and endgame threshold.
        Its sketch modulus ``q`` is range-checked but not passed on: the
        kernel reads the endgame off the numbers said (see ``kernel.c``).
        """
        n = config.n
        _check_game(n, config.a, config.b, r, k, q)
        cap = 3 * (n + 1)  # at most n + 1 moves, each of at least one number
        rec = _zeros("i", cap)
        info = _zeros("q", 3)
        code = self._play_game(n, config.a, config.b, acode, bcode, r, k,
                               game_seed & _MASK64, _addr(rec), cap,
                               _addr(info))
        if code:
            _raise(code, "in a recorded game")
        outcome, losing, used = info
        # records are (player, count, numbers...); one pass turns them into moves
        flat = rec[:used].tolist()
        moves = []
        pos = 0
        while pos < used:
            end = pos + 2 + flat[pos + 1]
            moves.append(MoveRecord(_PLAYERS[flat[pos]],
                                    tuple(flat[pos + 2:end]), len(moves) + 1))
            pos = end
        return Transcript(config, moves, _OUTCOMES[outcome], losing or None,
                          game_seed)

    def play_batch(self, n, a, b, acode, bcode, r, k, q, master_seed, start,
                   trials) -> dict:
        """Outcome counts of the seeded trials; arguments as ``play_game``,
        with n, a and b in place of the config."""
        _check_game(n, a, b, r, k, q)
        check_trials(start, trials)
        counts = _zeros("q", 4)
        code = self._play_batch(n, a, b, acode, bcode, r, k,
                                master_seed & _MASK64, start, max(trials, 0),
                                _addr(counts))
        if code:
            _raise(code, f"at trial {counts[3]}")
        return {"both_win": counts[0], "alice_loses": counts[1],
                "bob_loses": counts[2], "alice_error": 0, "bob_error": 0}
