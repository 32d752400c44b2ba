"""CLI surface: output shapes, exit codes, file formats."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from mirrorlab import _core
from mirrorlab.cli import cli_main
from mirrorlab.engine import Transcript, replay

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli_main(argv)
    return rc, buf.getvalue()


def run_cli_process(argv, stdin="", pure_python=False):
    """The CLI in a child process, on the default or the pure-Python core."""
    env = {k: v for k, v in os.environ.items()
           if k != "MIRRORLAB_PURE_PYTHON"}
    env["PYTHONPATH"] = str(SRC)
    if pure_python:
        env["MIRRORLAB_PURE_PYTHON"] = "1"
    return subprocess.run([sys.executable, "-m", "mirrorlab.cli", *argv],
                          input=stdin, capture_output=True, text=True,
                          env=env, timeout=120)


class TestPlay:
    def test_tuple_mirror_game(self):
        rc, out = run_cli(["play", "--n", "6", "--a", "1", "--b", "2",
                           "--alice", "naive", "--bob", "tuple-mirror",
                           "--seed", "7"])
        assert rc == 0
        d = json.loads(out)
        assert d["outcome"] == "BothWin"
        assert replay(Transcript.from_json_dict(d))

    def test_rand_strategies_get_an_oracle(self):
        rc, out = run_cli(["play", "--n", "20", "--alice", "rand-log",
                           "--bob", "smallest-unsaid", "--seed", "3"])
        assert rc == 0
        assert json.loads(out)["outcome"] in ("BothWin", "AliceLoses")


class TestMonteCarlo:
    def test_report_fields(self):
        rc, out = run_cli(["montecarlo", "--n", "100", "--alice", "rand-log",
                           "--bob", "smallest-unsaid", "--trials", "500",
                           "--seed", "1"])
        assert rc == 0
        d = json.loads(out)
        assert set(d) >= {"win_rate", "ci95", "trials", "outcomes"}
        assert d["trials"] == 500

    def test_spec_file(self, tmp_path):
        spec = {"config": {"n": 10, "a": 1, "b": 1}, "alice": "naive",
                "bob": "mirror", "trials": 5, "master_seed": 4}
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(spec))
        rc, out = run_cli(["montecarlo", "--spec", str(p)])
        assert rc == 0
        assert json.loads(out)["win_rate"] == 1.0

    @pytest.mark.parametrize("doc,complaint", [
        ({"config": {"n": 10, "c": 1}, "alice": "naive", "bob": "mirror",
          "trials": 5}, '"config" must be an object'),
        ({"config": {"n": 10}, "bob": "mirror", "trials": 5},
         '"alice" must be a JSON string'),
        ([1, 2], "expected a JSON object"),
        ({"config": {"n": "10"}, "alice": "naive", "bob": "mirror",
          "trials": 5}, '"n" must be a JSON integer'),
    ], ids=["unknown-config-key", "no-alice", "not-an-object", "string-n"])
    def test_malformed_spec_file(self, tmp_path, capsys, doc, complaint):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(doc))
        rc, out = run_cli(["montecarlo", "--spec", str(p)])
        assert (rc, out) == (2, "")
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: spec ")
        assert complaint in lines[0]

    def test_transcript_file(self, tmp_path):
        p = tmp_path / "games.jsonl"
        rc, _ = run_cli(["montecarlo", "--n", "8", "--alice", "naive",
                         "--bob", "mirror", "--trials", "4", "--seed", "0",
                         "--transcripts", str(p)])
        assert rc == 0
        lines = p.read_text().splitlines()
        assert len(lines) == 4
        assert all(replay(Transcript.from_json(s)) for s in lines)

    def test_backend_is_the_path_taken(self, tmp_path):
        def backend(alice, *extra):
            rc, out = run_cli(["montecarlo", "--n", "10", "--alice", alice,
                               "--bob", "mirror", "--trials", "3", *extra])
            assert rc == 0
            return json.loads(out)["backend"]

        assert backend("naive") == _core.BACKEND  # kernel-codable
        assert backend("prefer-T:2,4") == "python"  # not codable
        assert backend("naive", "--transcripts",
                       str(tmp_path / "t.jsonl")) == _core.BACKEND  # recorded

    @pytest.mark.parametrize("alice,bob,n", [
        ("rand-log", "smallest-unsaid", 100),  # kernel-codable
        ("prefer-T:2,4", "mirror", 10),        # not codable
    ])
    def test_transcripts_identical_on_both_cores(self, tmp_path, alice, bob,
                                                 n):
        files = []
        for pure_python in (False, True):
            path = tmp_path / f"games-{pure_python}.jsonl"
            proc = run_cli_process(
                ["montecarlo", "--n", str(n), "--alice", alice, "--bob", bob,
                 "--trials", "20", "--seed", "3", "--transcripts", str(path)],
                pure_python=pure_python)
            assert proc.returncode == 0, proc.stderr
            files.append(path.read_bytes())
        assert len(files[0].splitlines()) == 20
        assert files[0] == files[1]


class TestOccurring:
    def test_verdict(self):
        rc, out = run_cli(["occurring", "--n", "8", "--alice", "naive",
                           "--r", "2"])
        assert rc == 0
        d = json.loads(out)
        assert d["covering"] is True
        assert d["size"] >= d["lower_bound"]


class TestMemory:
    def test_profile(self):
        rc, out = run_cli(["memory", "--n", "64", "--alice", "naive",
                           "--bob", "mirror", "--games", "2", "--seed", "0"])
        assert rc == 0
        d = json.loads(out)
        assert d["alice"]["within_budget"] and d["bob"]["within_budget"]

    def test_budget_overrun_reported(self, monkeypatch):
        from mirrorlab.engine import BudgetExceeded
        from mirrorlab.strategies import MirrorBob

        monkeypatch.setattr(MirrorBob, "state_bits",
                            lambda self: self.budget_bits + 1)
        args = ["--n", "64", "--alice", "naive", "--bob", "mirror"]
        rc, out = run_cli(["memory", *args, "--games", "2", "--seed", "0"])
        assert rc == 1
        d = json.loads(out)
        assert d["alice"]["within_budget"]
        assert not d["bob"]["within_budget"]
        assert d["bob"]["overall_max_bits"] == d["bob"]["budget_bits"] + 1
        # play referees with every budget checked
        with pytest.raises(BudgetExceeded):
            run_cli(["play", *args])


class TestRecoverMissing:
    def test_from_file(self, tmp_path):
        stream = tmp_path / "stream.txt"
        stream.write_text("\n".join(str(v) for v in range(1, 101) if v not in (7, 93)))
        rc, out = run_cli(["recover-missing", "--n", "100", "--k", "2",
                           "--stream", str(stream)])
        assert rc == 0
        # the report is exactly the sorted missing set
        assert json.loads(out) == [7, 93]

    def test_from_stdin(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1\n2\n4\n"))
        rc, out = run_cli(["recover-missing", "--n", "5", "--k", "2",
                           "--stream", "-"])
        assert rc == 0
        assert json.loads(out) == [3, 5]

    def test_inconsistent_stream_fails(self, tmp_path):
        stream = tmp_path / "bad.txt"
        stream.write_text("1\n1\n2\n")
        rc, _ = run_cli(["recover-missing", "--n", "5", "--k", "2",
                         "--stream", str(stream)])
        assert rc == 1

    def test_duplicate_for_absent_number_fails(self, monkeypatch, capsys):
        # 4 is said twice, and both 2 and 6 are absent: one root (4) fits
        # the first power sum, and the spare sum rules it out
        monkeypatch.setattr("sys.stdin", io.StringIO("1\n3\n4\n4\n5\n7\n8\n9\n10\n"))
        rc, out = run_cli(["recover-missing", "--n", "10", "--k", "1",
                           "--stream", "-"])
        assert (rc, out) == (1, "")
        assert capsys.readouterr().err.startswith("error: ")


    @pytest.mark.parametrize("stream,count", [
        ("1\n3\n4\n5\n7\n8\n9\n10\n", 8),
        ("1\n2\n3\n4\n5\n5\n7\n8\n9\n10\n", 10)],
        ids=["one-short", "one-long"])
    def test_stream_count_other_than_n_minus_k_fails(self, monkeypatch,
                                                     capsys, stream, count):
        monkeypatch.setattr("sys.stdin", io.StringIO(stream))
        rc, out = run_cli(["recover-missing", "--n", "10", "--k", "1",
                           "--stream", "-"])
        assert (rc, out) == (1, "")
        assert capsys.readouterr().err == (
            f"error: sketch holds {count} numbers, not n - k = 9; "
            "sketch preconditions violated\n")


class TestSetfam:
    def _family_file(self, tmp_path, n, sets):
        p = tmp_path / "family.json"
        p.write_text(json.dumps({"n": n, "sets": sets}))
        return str(p)

    def test_check_valid(self, tmp_path):
        f = self._family_file(tmp_path, 3, [[1, 2], [1, 3], [2, 3]])
        rc, out = run_cli(["setfam", "check", "--kind", "even-odd", "--file", f])
        assert rc == 0 and json.loads(out)["valid"] is True

    def test_check_invalid_exit_code(self, tmp_path):
        f = self._family_file(tmp_path, 4, [[1, 2], [3, 4]])
        rc, out = run_cli(["setfam", "check", "--kind", "even-odd", "--file", f])
        assert rc == 1 and json.loads(out)["valid"] is False

    def test_check_modtown_kind(self, tmp_path):
        f = self._family_file(tmp_path, 3, [[1, 2], [1, 3], [2, 3]])
        rc, out = run_cli(["setfam", "check", "--kind", "modtown:2,1",
                           "--file", f])
        assert rc == 0 and json.loads(out)["valid"] is True

    def test_search_max(self):
        rc, out = run_cli(["setfam", "search-max", "--n", "4",
                           "--kind", "odd-even"])
        assert rc == 0
        d = json.loads(out)
        assert d["max_size"] == 4

    def test_mv_from_modtown(self, tmp_path):
        f = self._family_file(tmp_path, 3, [[1, 2], [1, 3], [2, 3]])
        rc, out = run_cli(["setfam", "mv-from-modtown", "--m", "2", "--file", f])
        assert rc == 0
        d = json.loads(out)
        assert d["valid"] is True and d["size"] == 3

    def test_mv_rejects_non_modtown(self, tmp_path):
        f = self._family_file(tmp_path, 4, [[1, 2], [3, 4]])
        rc, _ = run_cli(["setfam", "mv-from-modtown", "--m", "2", "--file", f])
        assert rc == 2

    @pytest.mark.parametrize("doc", [
        [[1, 2]], {"sets": [[1]]}, {"n": "3", "sets": [[1]]},
        {"n": 3, "sets": [[1, "2"]]}, {"n": 3, "sets": 5},
        {"n": 3, "sets": [[1, 1]]},
    ], ids=["top-level-list", "no-n", "string-n", "string-element",
            "sets-not-a-list", "repeated-element"])
    @pytest.mark.parametrize("cmd", [["check", "--kind", "odd-even"],
                                     ["mv-from-modtown", "--m", "2"]],
                             ids=["check", "mv-from-modtown"])
    def test_malformed_family_file(self, tmp_path, capsys, doc, cmd):
        p = tmp_path / "family.json"
        p.write_text(json.dumps(doc))
        rc, out = run_cli(["setfam", *cmd, "--file", str(p)])
        assert (rc, out) == (2, "")
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_search_max_negative_n(self, capsys):
        rc, out = run_cli(["setfam", "search-max", "--n", "-1",
                           "--kind", "odd-even"])
        assert (rc, out) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: n=-1") and "non-negative" in err


class TestMatchingTest:
    def test_small_run(self):
        rc, out = run_cli(["matching-test", "--n", "4", "--samples", "3000",
                           "--seed", "5"])
        assert rc == 0
        d = json.loads(out)
        assert d["involution_ok"] and d["uniform_ok"]
        assert d["possible_matchings"] == 3


@pytest.mark.parametrize("pure_python", [False, True],
                         ids=["default-core", "pure-python"])
class TestKernelLimits:
    """Sizes past the kernel's int fail as bad input on both backends."""

    def check_rejected(self, proc, error="error: n=3000000000"):
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(error)

    def test_montecarlo(self, pure_python):
        self.check_rejected(run_cli_process(
            ["montecarlo", "--n", "3000000000", "--alice", "random-unsaid",
             "--bob", "mirror", "--trials", "1"], pure_python=pure_python))

    def test_montecarlo_rand_log(self, pure_python):
        # rejected before the n-sized matching oracle is drawn
        self.check_rejected(run_cli_process(
            ["montecarlo", "--n", "3000000000", "--alice", "rand-log",
             "--bob", "smallest-unsaid", "--trials", "1"],
            pure_python=pure_python))

    def test_recover_missing(self, pure_python):
        self.check_rejected(run_cli_process(
            ["recover-missing", "--n", "3000000000", "--k", "1",
             "--stream", "-"], stdin="1\n2\n", pure_python=pure_python))

    def test_recover_missing_k(self, pure_python):
        # rejected before the sketch builds its list of k + 1 sums (one spare)
        self.check_rejected(run_cli_process(
            ["recover-missing", "--n", "10", "--k", "3000000000",
             "--stream", "-"], stdin="1\n2\n", pure_python=pure_python),
            error="error: k=3000000001")


class TestUsage:
    def test_no_subcommand(self):
        rc, _ = run_cli([])
        assert rc == 2

    def test_unknown_strategy(self):
        rc, _ = run_cli(["play", "--n", "6", "--alice", "wat", "--bob",
                         "mirror", "--seed", "0"])
        assert rc == 2

    def test_backend_flag(self):
        rc, out = run_cli(["--backend"])
        assert rc == 0
        report = json.loads(out)
        assert report["backend"] in ("compiled", "python")
        assert report["batch_threads"] == _core.BATCH_THREADS >= 1
