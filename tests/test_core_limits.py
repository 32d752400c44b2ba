"""Inputs past the native kernel's integer limits fail with ValueError, the
same way on both backends, instead of wrapping inside ctypes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mirrorlab import _core
from mirrorlab._core import _pycore
from mirrorlab.engine import GameConfig
from mirrorlab.streamrec import PowerSumSketch, PrimeField

TOO_BIG = 3_000_000_000  # wraps to a negative C int


@pytest.mark.parametrize("force_python", [False, True],
                         ids=["default-core", "pure-python"])
def test_game_sizes(force_python):
    cfg = GameConfig(TOO_BIG)
    with pytest.raises(ValueError, match="n=3000000000"):
        _core.play_batch(cfg, "random-unsaid", "mirror", 0, 0, 1,
                         force_python=force_python)
    with pytest.raises(ValueError, match="n=3000000000"):
        _core.play_game(cfg, "random-unsaid", "mirror", 0,
                        force_python=force_python)


@pytest.mark.parametrize("force_python", [False, True],
                         ids=["default-core", "pure-python"])
def test_trial_indices(force_python):
    cfg = GameConfig(10)
    last = 2**63 - 1
    with pytest.raises(ValueError, match="64-bit"):
        _core.play_batch(cfg, "naive", "mirror", 0, last, 2,
                         force_python=force_python)
    with pytest.raises(ValueError, match="64-bit"):
        _core.play_batch(cfg, "naive", "mirror", 0, -2**63 - 1, 1,
                         force_python=force_python)
    with pytest.raises(ValueError, match="negative"):
        _core.play_batch(cfg, "naive", "mirror", 0, 0, -1,
                         force_python=force_python)
    counts = _core.play_batch(cfg, "random-unsaid", "largest-unsaid", 5,
                              last - 1, 2, force_python=force_python)
    assert counts == _core.play_batch(cfg, "random-unsaid", "largest-unsaid",
                                      5, last - 1, 2, force_python=True)


def test_field_sizes():
    with pytest.raises(ValueError, match="modulus"):
        _core.power_sums([1, 2], 2, 2**32, 5)
    with pytest.raises(ValueError, match="modulus"):
        _core.power_sums([1, 2], 2, 0, 5)
    with pytest.raises(ValueError, match="n=3000000000"):
        _core.power_sums([1, 2], 2, 7, TOO_BIG)
    with pytest.raises(ValueError, match="n=3000000000"):
        _core.full_power_sums(TOO_BIG, 1, 7)
    with pytest.raises(ValueError, match="n=3000000000"):
        _core.poly_root_scan([1], TOO_BIG, 7)


@pytest.mark.skipif(not _core.HAVE_FAST,
                    reason=f"no compiled core: {_core.FALLBACK_REASON}")
def test_binding_checks_on_its_own():
    # _core range-checks everything else; only packing sees a stream element
    # that is not an int of 64 bits, on either path
    fast = _core._fast
    full = _core.full_power_sums(10, 1, 7)
    for xs in ([2**64], [1, 2, 3, 4, 5, -2**63 - 1], [2.0], [1, True, 1.5]):
        for sums in (full, None):
            with pytest.raises(ValueError,
                               match=r"^stream element outside 1\.\.10$"):
                fast.power_sums(xs, 1, 7, 10, sums)
    xs = [10, 3, 10, 1, 7]
    for sums in (full, None):
        assert (fast.power_sums(xs, 1, 7, 10, sums)
                == _pycore.power_sums(xs, 1, 7, 10, sums))


@pytest.mark.parametrize("force_python", [False, True],
                         ids=["default-core", "pure-python"])
def test_stream_elements_checked_the_same_on_both_cores(monkeypatch,
                                                        force_python):
    # each core checks the elements in its own pass over them, on a stream
    # short enough to be multiplied out and on one long enough for the
    # deviation
    if force_python:
        monkeypatch.setattr(_core, "HAVE_FAST", False)
    edges = [1, 10, 10, 5]
    for xs in (edges, edges * 2):
        assert _core.power_sums(xs, 3, 7, 10) == [
            sum(pow(x, i, 7) for x in xs) % 7 for i in (1, 2, 3)]
    for xs in ([0], [11], [2**64], [-2**63], [-2**63 - 1], [2**63],
               [1, 2, 3, 4, 5, 6, 7, 8, 11], [1.5, 2], [2, 3.0],
               [1, 2, 3, 4, 5, 6, 7, 8, 9.0]):
        with pytest.raises(ValueError,
                           match=r"^stream element outside 1\.\.10$"):
            _core.power_sums(xs, 2, 11, 10)
        sketch = PowerSumSketch(PrimeField(11, 10), 2)
        with pytest.raises(ValueError,
                           match=r"^stream element outside 1\.\.10$"):
            sketch.ingest_stream(iter(xs))
        assert (sketch.sums, sketch.count) == ([0, 0], 0)


def test_binding_maps_stream_return_codes():
    # the stream kernel fails for a bad element or for want of memory, and
    # only the first is the range error
    from mirrorlab._core import _kernel

    with pytest.raises(ValueError, match=r"^stream element outside 1\.\.5$"):
        _kernel._check_stream(_kernel._OUT_OF_RANGE, 5)
    with pytest.raises(MemoryError):
        _kernel._check_stream(_kernel._NOMEM, 5)
    with pytest.raises(RuntimeError, match="kernel error 2"):
        _kernel._check_stream(2, 5)
    _kernel._check_stream(0, 5)


# Sums a short stream at n = MAX_SIZE on each core with at most 1 GB of
# address space; counting it into n + 1 slots, or summing 1..n, would need
# 16 GB.  The limit is set after the import, which may build the kernel.
SHORT_STREAM_AT_MAX_SIZE = """\
import json, resource, sys
from unittest import mock
from mirrorlab import _core

resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
q = int(sys.argv[1])
got = {}
for have_fast in sorted({_core.HAVE_FAST, False}):
    with mock.patch.object(_core, "HAVE_FAST", have_fast):
        got[have_fast] = _core.power_sums([1, 2, _core.MAX_SIZE], 3, q,
                                          _core.MAX_SIZE)
print(json.dumps(sorted(got.items())))
"""


@pytest.mark.skipif(sys.platform == "win32", reason="needs resource.RLIMIT_AS")
@pytest.mark.parametrize("q", [10007, 4294967291])
def test_short_stream_at_huge_n_allocates_nothing_n_sized(q):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", SHORT_STREAM_AT_MAX_SIZE,
                          str(q)], env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    xs = [1, 2, _core.MAX_SIZE]
    want = [sum(pow(x, i, q) for x in xs) % q for i in (1, 2, 3)]
    got = json.loads(out.stdout)
    assert [have_fast for have_fast, _ in got] == sorted(
        {_core.HAVE_FAST, False})
    assert [sums for _, sums in got] == [want] * len(got)
