"""Each of the benchmark's output checks must reject a wrong output.

    python3 -m pytest perfbench/test_checks.py -q
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402


def mirror_game(n=4):
    """random-unsaid vs mirror as the referee records it: Alice 1, 2."""
    moves = []
    for x in range(1, n // 2 + 1):
        moves += [{"player": "A", "numbers": [x]},
                  {"player": "B", "numbers": [n + 1 - x]}]
    return {"config": {"n": n, "a": 1, "b": 1}, "moves": moves,
            "outcome": "BothWin", "seed": 7}


def profile(alice, alice_bits, bob, bob_bits, n):
    def block(name, bits):
        return {"strategy": name, "per_turn_max_bits": [bits, bits],
                "overall_max_bits": bits, "budget_bits": 10_000,
                "within_budget": True}
    return {"config": {"n": n, "a": 1, "b": 1}, "trials": 1,
            "alice": block(alice, alice_bits), "bob": block(bob, bob_bits)}


def test_recovered_list_with_one_element_changed_is_rejected():
    stream = [x for x in range(1, 21) if x not in (3, 17)]
    assert checks.check_recovered([3, 17], stream, 20) is None
    assert checks.check_recovered([3, 18], stream, 20) is not None
    assert checks.check_recovered([17, 3], stream, 20) is not None


def test_transcript_rules_accept_a_played_game():
    assert checks.check_transcript(mirror_game(), mirror_bob=True) is None
    lost = {"config": {"n": 6, "a": 1, "b": 2},
            "moves": [{"player": "A", "numbers": [1]},
                      {"player": "B", "numbers": [2, 3]},
                      {"player": "A", "numbers": [3]}],
            "outcome": "AliceLoses", "losing_number": 3}
    assert checks.check_transcript(lost) is None


def test_transcript_repeating_a_number_mid_move_is_rejected():
    doc = {"config": {"n": 8, "a": 1, "b": 3},
           "moves": [{"player": "A", "numbers": [1]},
                     {"player": "B", "numbers": [2, 1, 3]}],
           "outcome": "BobLoses", "losing_number": 1}
    assert "repeats 1" in checks.check_transcript(doc)


def test_mirror_reply_other_than_n_plus_1_minus_x_is_rejected():
    doc = mirror_game()
    doc["moves"][1]["numbers"] = [3]
    doc["moves"][3]["numbers"] = [4]
    assert checks.check_transcript(doc) is None  # legal, but not mirroring
    assert "mirror answered" in checks.check_transcript(doc, mirror_bob=True)


def test_wrong_outcome_and_short_game_are_rejected():
    doc = mirror_game()
    doc["outcome"] = "AliceLoses"
    assert checks.check_transcript(doc) is not None
    doc = mirror_game()
    del doc["moves"][-2:]
    assert checks.check_transcript(doc) is not None


def test_batch_counts_that_disagree_with_the_python_reference_are_rejected():
    reference = {"both_win": 7, "alice_loses": 43, "bob_loses": 0,
                 "alice_error": 0, "bob_error": 0}
    assert checks.check_same_counts(dict(reference), reference, "slice") is None
    kernel = dict(reference, both_win=8, alice_loses=42)
    assert checks.check_same_counts(kernel, reference, "slice") is not None
    assert checks.check_same_counts(dict(reference, bob_error=1), reference,
                                    "slice") is not None


def test_counts_must_sum_to_trials_and_mirrors_never_lose():
    ok = {"both_win": 1000, "alice_loses": 0, "bob_loses": 0}
    assert checks.check_counts(ok, 1000) is None
    assert checks.check_counts(ok, 1001) is not None
    assert checks.check_never_lose("random-unsaid", "mirror", ok) is None
    lost = {"both_win": 999, "alice_loses": 0, "bob_loses": 1}
    assert checks.check_never_lose("random-unsaid", "tuple-mirror", lost)
    assert checks.check_never_lose(
        "odd-mirror", "random-unsaid",
        {"both_win": 999, "alice_loses": 1, "bob_loses": 0})
    # the random side losing is not the mirror's loss
    assert checks.check_never_lose("odd-mirror", "random-unsaid", lost) is None


def test_win_rate_floors():
    assert checks.check_sqrt_rate(980, 1000) is None
    assert checks.check_sqrt_rate(979, 1000) is not None
    assert checks.check_log_rate(10, 1000, 100) is None
    assert checks.check_log_rate(0, 10_000, 100) is not None


def test_peak_bits_above_the_papers_bound_are_rejected():
    # 2*ceil(log2 1024) = 20 bits for mirror
    assert checks.check_memory_profile(profile("naive", 1035, "mirror", 20, 1024)) is None
    assert "paper's bound" in checks.check_memory_profile(
        profile("naive", 1035, "mirror", 21, 1024))
    # 2 * sqrt(400) * log2(400)^2 = 2988.6 bits for rand-sqrt
    assert checks.check_memory_profile(
        profile("rand-sqrt", 1778, "smallest-unsaid", 409, 400)) is None
    assert checks.check_memory_profile(
        profile("rand-sqrt", 2989, "smallest-unsaid", 409, 400)) is not None


def test_peak_bits_over_the_declared_budget_are_rejected():
    report = profile("naive", 1035, "mirror", 11, 1024)
    report["bob"]["budget_bits"] = 10
    assert checks.check_memory_profile(report) is not None


def test_benchmark_json_names_what_the_benchmark_reports():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == tracing.metric_names()
    import workloads
    metrics = ["sqrt_games_per_s", "log_games_per_s", "mirror_games_per_s",
               "transcripts_per_s", "checked_games_per_s", "recover", "cli"]
    rounds = [workloads.Round(calls=[((m, 1), m, 10, 1.0) for m in metrics])] * 2
    measured = {"setup_s", "peak_rss_mb", *workloads.end_to_end(rounds)}
    assert {m["name"] for m in bench["end_to_end"]} == measured
    assert {w["name"] for w in bench["workloads"]} == set(workloads.MIXES)
