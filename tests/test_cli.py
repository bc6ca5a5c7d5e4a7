import contextlib
import json
import os
import runpy
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dot_nodes_and_edges, invoke_cli, listed_vectors, tokenize_dot

from excspec import burnside, classify, cli, combinat


def child_env(**extra) -> dict:
    """The environment of a child process that imports this checkout's src."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return {**os.environ, **extra, "PYTHONPATH": path}


class TestMu:
    def test_single_value(self, run_cli):
        code, out, _ = run_cli(["mu", "2", "2", "3"])
        assert code == 0
        assert out.strip() == "4"

    def test_trivial(self, run_cli):
        code, out, _ = run_cli(["mu", "1", "1", "1"])
        assert code == 0
        assert out.strip() == "1"

    def test_all_methods_agree(self, run_cli):
        code, out, _ = run_cli(["mu", "3", "3", "5", "--all"])
        assert code == 0
        assert "AGREE" in out
        values = {
            line.split(": ")[1]
            for line in out.splitlines()
            if ": " in line
        }
        assert len(values) == 1

    def test_budget_exit_code(self, run_cli):
        code, _, err = run_cli(["mu", "5", "5", "7", "--method", "brute"])
        assert code == 2
        assert "budget" in err

    def test_disagreement_exit_code(self, run_cli, monkeypatch):
        monkeypatch.setattr(combinat, "mu_brute", lambda i, j, k: -1)
        code, out, _ = run_cli(["mu", "2", "2", "2", "--all"])
        assert code == 1
        assert "DISAGREE" in out

    def test_all_past_brute_budget_compares_formulas(self, run_cli):
        code, out, err = run_cli(["mu", "5", "5", "7", "--all"])
        assert code == 0, err
        assert out == "brute: skipped (budget)\nincl-excl: 43000\nstirling: 43000\nAGREE\n"

    def test_all_past_brute_budget_disagreement(self, run_cli, monkeypatch):
        monkeypatch.setattr(combinat, "mu_stirling", lambda i, j, k: -1)
        code, out, _ = run_cli(["mu", "5", "5", "7", "--all"])
        assert code == 1
        assert out.startswith("brute: skipped (budget)\n")
        assert out.endswith("DISAGREE\n")

    def test_stirling_deep_row_matches_incl_excl(self, run_cli):
        code, out, err = run_cli(["mu", "30", "30", "600", "--method", "stirling"])
        assert code == 0, err
        assert out == run_cli(["mu", "30", "30", "600", "--method", "incl-excl"])[1]

    @pytest.mark.parametrize(
        "argv",
        [["600", "600", "5"], ["1000", "1000", "1", "--method", "stirling"], ["9", "9", "82", "--all"]],
    )
    def test_empty_support_prints_zero_at_once(self, run_cli, argv):
        start = time.perf_counter()
        code, out, err = run_cli(["mu", *argv])
        assert time.perf_counter() - start < 0.5
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] in ("0", "AGREE")

    @pytest.mark.parametrize(
        "argv",
        [
            ["1000", "1000", "1000"],
            ["2", "2", "20000", "--method", "stirling"],
            ["2", "2", "3000", "--method", "stirling"],
            ["100", "100", "5000", "--all"],
        ],
    )
    def test_refuses_past_the_formula_budgets(self, run_cli, argv):
        start = time.perf_counter()
        code, out, err = run_cli(["mu", *argv])
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "budget exceeded" in err


class TestRing:
    def test_table_contains_squaring_relation(self, run_cli):
        code, out, _ = run_cli(["ring", "3", "--table"])
        assert code == 0
        assert "x2*x2 = 2 x2 + 4 x3" in out
        assert "x3*x3 = 6 x3" in out

    def test_check_passes(self, run_cli):
        code, out, _ = run_cli(["ring", "1", "--check"])
        assert code == 0
        assert "FAIL" not in out
        code, out, _ = run_cli(["ring", "4", "--check"])
        assert code == 0
        assert "seed=0" in out

    def test_table_json_export(self, run_cli):
        code, out, _ = run_cli(["ring", "3", "--table", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["d"] == 3
        entries = {(e["i"], e["j"], e["l"]): e["mu"] for e in payload["products"]}
        assert entries[(2, 2, 2)] == 2
        assert entries[(2, 2, 3)] == 4
        assert entries[(2, 3, 3)] == 6

    def test_cokernel(self, run_cli):
        code, out, _ = run_cli(["ring", "5", "--cokernel"])
        assert code == 0
        assert "PASS" in out

    def test_budget_exit(self, run_cli):
        code, _, err = run_cli(["ring", "99", "--table"])
        assert code == 2

    def test_check_trials_budget_exit(self, run_cli):
        over = str(burnside.GHOST_TRIALS_BUDGET + 1)
        code, out, err = run_cli(["ring", "16", "--check", "--trials", over])
        assert (code, out) == (2, "")
        assert err.startswith("error: ghost trial budget exceeded")
        assert "Traceback" not in err


class TestSpec:
    def test_zariski_json_counts(self, run_cli):
        code, out, _ = run_cli(["spec", "zariski", "-d", "3", "-p", "2,3,5", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["points"]) == 9
        below = {b for _, b in payload["relation"]}
        above = {a for a, _ in payload["relation"]}
        assert len([i for i in range(9) if i not in below]) == 3  # minimal
        assert len([i for i in range(9) if i not in above]) == 6  # maximal

    def test_balmer_dot_shape(self, run_cli):
        code, out, _ = run_cli(
            ["spec", "balmer", "-d", "1", "-p", "2", "-H", "3", "--dot"]
        )
        assert code == 0
        nodes, edges = dot_nodes_and_edges(out)
        assert len(nodes) == 4
        assert len(edges) == 3  # a chain

    def test_balmer_point_count(self, run_cli):
        code, out, _ = run_cli(
            ["spec", "balmer", "-d", "3", "-p", "2,3,5", "-H", "2", "--json"]
        )
        payload = json.loads(out)
        assert len(payload["points"]) == 3 * (1 + 3 * 1 + 3)

    def test_hz_dot(self, run_cli):
        code, out, _ = run_cli(["spec", "hz", "-d", "3", "-p", "2,3", "--dot"])
        assert code == 0
        nodes, edges = dot_nodes_and_edges(out)
        assert len(nodes) == 9
        assert ("hz(3|2)", "hz(1|2)") in edges or ("hz(3|2)", "hz(2|2)") in edges

    def test_hz_slice_is_divisibility_poset(self, run_cli):
        code, out, _ = run_cli(
            ["spec", "hz", "-d", "4", "-p", "3", "--slice", "3", "--json"]
        )
        payload = json.loads(out)
        assert len(payload["points"]) == 4
        pairs = {(a, b) for a, b in payload["relation"]}
        layers = [pt["layer"] for pt in payload["points"]]
        for i, k in enumerate(layers):
            for j, l in enumerate(layers):
                expected = k > l and (k - l) % 2 == 0
                assert ((i, j) in pairs) == expected

    def test_text_format(self, run_cli):
        code, out, _ = run_cli(["spec", "zariski", "-d", "2", "-p", "2", "--text"])
        assert code == 0
        assert out.startswith("points: 3")


class TestQueries:
    def test_delta(self, run_cli):
        code, out, _ = run_cli(["delta", "2", "3", "1"])
        assert code == 0 and out.strip() == "2"
        code, out, _ = run_cli(["delta", "5", "7", "4"])
        assert code == 0 and out.strip() == "inf"

    def test_smith_holds(self, run_cli):
        code, out, _ = run_cli(["smith", "4", "2", "4", "2", "3", "2"])
        assert code == 0
        assert "HOLDS" in out

    def test_smith_fails(self, run_cli):
        code, out, _ = run_cli(["smith", "3", "2", "3", "1", "3", "2"])
        assert code == 0
        assert "FAILS" in out

    def test_smith_infinite_height(self, run_cli):
        code, out, _ = run_cli(["smith", "4", "2", "4", "2", "inf", "3"])
        assert code == 0
        assert "HOLDS" in out

    @pytest.mark.parametrize("height", ["x", "2.5", "", "INF"])
    def test_smith_names_a_bad_height(self, run_cli, height):
        for argv in (["smith", "3", "3", "1", "1", height, "0"],
                     ["smith", "3", "3", "1", "1", "0", height]):
            code, out, err = run_cli(argv)
            assert code == 2 and out == ""
            assert err == f"error: height must be an integer or 'inf', got {height!r}\n"

    def test_delta_with_a_large_prime_answers_at_once(self, run_cli):
        start = time.perf_counter()
        code, out, _ = run_cli(["delta", "1000000000000000003", "5", "1"])
        assert time.perf_counter() - start < 5
        assert code == 0 and out == "inf\n"

    def test_prime_past_the_exact_range_is_refused(self, run_cli):
        code, out, err = run_cli(["delta", str(2**89 - 1), "5", "1"])
        assert code == 2 and out == ""
        assert err == "error: is_prime budget exceeded: more than 3317044064679887385961980 as p\n"

    def test_ideals_count(self, run_cli):
        code, out, _ = run_cli(["ideals", "1", "2", "3", "--count"])
        assert code == 0
        assert out.strip() == "5"

    def test_ideals_csv(self, run_cli):
        code, out, _ = run_cli(["ideals", "2", "2", "1", "--count", "--csv"])
        assert code == 0
        assert out.splitlines() == ["d,p,hmax,count", "2,2,1,7"]

    def test_ideals_list_json(self, run_cli):
        code, out, _ = run_cli(["ideals", "1", "2", "1", "--list", "--json"])
        assert code == 0
        rows = json.loads(out)
        assert sorted(map(tuple, rows)) == [("0",), ("1",), ("inf",)]

    def test_ideals_budget(self, run_cli, monkeypatch):
        # the enumeration budget bounds --list only, and refuses before
        # the first byte
        monkeypatch.setattr(classify, "ENUM_BUDGET", 4)
        code, out, err = run_cli(["ideals", "2", "2", "1", "--list"])
        assert code == 2 and out == ""
        assert "budget" in err
        assert run_cli(["ideals", "2", "2", "1", "--count"]) == (0, "7\n", "")

    def test_ideals_count_past_the_enumeration_budget(self, run_cli):
        assert run_cli(["ideals", "12", "5", "3", "--count"]) == (0, "10185728\n", "")

    def test_ideals_count_dp_budget(self, run_cli, monkeypatch):
        code, out, err = run_cli(["ideals", "100000", "2", "1", "--count"])
        assert code == 2 and out == ""
        assert err.startswith("error: DP budget exceeded") and "Traceback" not in err
        monkeypatch.setattr(classify, "DP_BUDGET", 100)
        code, out, err = run_cli(["ideals", "12", "5", "3", "--count"])
        assert code == 2 and out == ""
        assert err.startswith("error: DP budget exceeded") and "Traceback" not in err


class TestIdealsStreaming:
    """`ideals --list` writes its rows as the walk yields them, with the
    bytes of the formatting that held the whole list."""

    @pytest.mark.parametrize("d", range(1, 9))
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_output_is_the_held_list_formatting(self, run_cli, d, p):
        for hmax in range(4):
            if (hmax + 2) ** d > 2 * 10**4:
                continue
            _, vectors = listed_vectors(d, p, hmax)
            rows = [[str(v) for v in f] for f in vectors]
            argv = ["ideals", str(d), str(p), str(hmax), "--list"]
            assert run_cli(argv + ["--json"]) == (
                0, json.dumps(rows, separators=(",", ":")) + "\n", ""
            )
            text = "".join("f = (" + ", ".join(row) + ")\n" for row in rows)
            assert run_cli(argv) == (0, text, "")

    def test_more_rows_than_one_chunk(self, run_cli):
        code, out, _ = run_cli(["ideals", "8", "3", "3", "--list"])
        assert code == 0 and out.count("\n") == 27378
        code, out, _ = run_cli(["ideals", "8", "3", "3", "--list", "--json"])
        assert code == 0 and len(json.loads(out)) == 27378

    def test_anchor_query_holds_no_list(self):
        # the list of tuples and string rows held 9.0 MB and 38.8 MB here
        class Sink:
            size = 0

            def write(self, text):
                self.size += len(text)

            def flush(self):
                pass

        sink = Sink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                assert cli.main(["ideals", "8", "3", "4", "--list", "--json"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.size > 2_500_000
        assert peak < 5_000_000

    def test_huge_d_is_refused_at_once(self):
        # the refusal must not compute the 30,000,000th power of 5
        env = child_env()
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "excspec.cli", "ideals", "30000000", "2", "3", "--list"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert time.perf_counter() - start < 5
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: enumeration budget exceeded: more than 10000000 candidate vectors\n"


def decimal(n: int) -> str:
    """str(n) in chunks of 1000 digits, each under the interpreter's
    4300-digit guard on int -> str."""
    chunks = []
    while n >= 10**1000:
        n, low = divmod(n, 10**1000)
        chunks.append(f"{low:01000d}")
    return str(n) + "".join(reversed(chunks))


class TestCountPastTheIntTextGuard:
    # for p > d every vector is admissible: (hmax + 2)**d of them
    def test_count(self, run_cli):
        guard = getattr(sys, "get_int_max_str_digits", lambda: None)()
        assert run_cli(["ideals", "7000", "7001", "3", "--count"]) == (
            0, decimal(5**7000) + "\n", ""
        )
        # the guard is back for the rest of the process
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == guard

    def test_csv(self, run_cli):
        assert run_cli(["ideals", "7000", "7001", "3", "--count", "--csv"]) == (
            0, f"d,p,hmax,count\n7000,7001,3,{decimal(5**7000)}\n", ""
        )

    def test_argv_parsing_stays_guarded(self, run_cli):
        run_cli(["ideals", "7000", "7001", "3", "--count"])
        code, out, _ = run_cli(["ideals", "1" * 5000, "2", "1", "--count"])
        assert (code, out) == (2, "")


class TestInputValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["spec", "balmer", "-d", "0", "-p", "2"],
            ["spec", "zariski", "-d", "0", "-p", "2"],
            ["spec", "hz", "-d", "0", "-p", "2"],
            ["spec", "hz", "-d", "3", "-p", "2", "--slice", "5"],
            ["spec", "hz", "-d", "3", "-p", "2", "--slice", "4"],
            ["spec", "balmer", "-d", "2", "-p", "2,4"],
            ["ideals", "3", "4", "2", "--count"],
            ["ideals", "0", "2", "2", "--count"],
            ["smith", "3", "1", "2", "1", "0", "0"],
            ["smith", "3", "4", "1", "1", "0", "0"],
            ["spec", "balmer", "-d", "2", "-p", "2,x"],
            ["spec", "zariski", "-d", "2", "-p", ","],
            ["ideals", "3", "2", "2", "--count", "--json"],
            ["ideals", "3", "2", "2", "--list", "--csv"],
            ["ring", "3", "--check", "--json"],
            ["ring", "3", "--cokernel", "--json"],
            ["ring", "3", "--table", "--seed", "1"],
            ["ring", "3", "--table", "--trials", "5"],
            ["ring", "3", "--cokernel", "--seed", "1"],
            ["ring", "3", "--cokernel", "--trials", "5"],
            ["ring", "3", "--check", "--trials", "-4"],
            ["ideals", str(2**63), "2", "3", "--count"],
        ],
    )
    def test_out_of_scope_window_is_usage_error(self, run_cli, argv):
        code, out, err = run_cli(argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["spec", "balmer", "-d", "3", "-p", "2", "--slice", "2"],
            ["spec", "zariski", "-d", "3", "-p", "2", "--slice", "2"],
            ["spec", "zariski", "-d", "3", "-p", "2", "-H", "3"],
            ["spec", "zariski", "-d", "3", "-p", "2", "--no-inf"],
            ["spec", "hz", "-d", "3", "-p", "2", "-H", "3"],
            ["spec", "hz", "-d", "3", "-p", "2", "--no-inf"],
        ],
    )
    def test_spec_flag_of_another_variant_is_usage_error(self, run_cli, argv):
        code, out, err = run_cli(argv)
        assert code == 2
        assert out == ""
        assert "error:" in err
        assert "Traceback" not in err

    def test_truncation_past_budget_is_refused_quickly(self, run_cli):
        for argv in (
            ["spec", "balmer", "-d", "40", "-p", "2,3,5,7,11,13", "-H", "10"],
            ["spec", "hz", "-d", "600", "-p", "2,3,5", "--text"],
            ["spec", "zariski", "-d", "100000", "-p", "2"],
            ["spec", "balmer", "-d", "1", "-p", "2", "-H", "1000000000"],
        ):
            start = time.perf_counter()
            code, out, err = run_cli(argv)
            assert time.perf_counter() - start < 5
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and "budget" in err

    def test_window_at_the_point_budget_draws_its_covers(self):
        """1200 points, the whole budget, in a cold process: the covers
        must come out in seconds, not hang."""
        argv = ["spec", "balmer", "-d", "600", "-p", "2", "-H", "2", "--no-inf", "--text"]
        env = child_env()
        done = subprocess.run(
            [sys.executable, "-m", "excspec.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("points: 1200\n")
        assert "\ncovers: 178236\n" in done.stdout

    def test_slice_zero_and_given_prime_accepted(self, run_cli):
        for residue in ("0", "2"):
            code, out, _ = run_cli(["spec", "hz", "-d", "3", "-p", "2,3", "--slice", residue])
            assert code == 0
            assert out.startswith("points: 3\n")


class TestSurveyScript:
    SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "blueshift_survey.py"

    def run(self, monkeypatch, capsys, *argv):
        monkeypatch.setattr(sys, "argv", [str(self.SCRIPT), *argv])
        with pytest.raises(SystemExit) as excinfo:
            runpy.run_path(str(self.SCRIPT), run_name="__main__")
        out, err = capsys.readouterr()
        return excinfo.value.code, out, err

    @pytest.mark.parametrize("primes", ["4", "x", "2,1", ",", str(2**89 - 1)])
    def test_bad_prime_list_is_usage_error(self, monkeypatch, capsys, primes):
        code, out, err = self.run(monkeypatch, capsys, "--primes", primes)
        assert code == 2
        assert out == ""
        assert "error: bad --primes" in err and "Traceback" not in err

    def test_keeps_the_prime_order_given(self, monkeypatch, capsys):
        code, out, _ = self.run(monkeypatch, capsys, "--primes", "3,2", "--kmax", "2", "--dmax", "1")
        assert code == 0
        assert out.splitlines() == [
            "p,k,l,delta",
            "3,1,1,0", "3,2,1,inf", "3,2,2,0",
            "2,1,1,0", "2,2,1,1", "2,2,2,0",
            "",
            "d,p,hmax,count",
            "1,3,3,5", "1,2,3,5",
        ]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--hmax", "-1"], "hmax must be an int >= 0, got -1"),
            (["--dmax", "1", "--hmax", str(10**6)], "budget exceeded"),
            (["--kmax", "0"], "kmax must be an int >= 1, got 0"),
            (["--dmax", "-2"], "dmax must be an int >= 1, got -2"),
            (["--kmax", "-3", "--dmax", "-2"], "kmax must be an int >= 1, got -3"),
        ],
        ids=["negative-hmax", "over-budget", "zero-kmax", "negative-dmax", "both-below-1"],
    )
    def test_bad_window_exits_2_without_traceback(self, argv, message):
        env = child_env()
        done = subprocess.run(
            [sys.executable, str(self.SCRIPT), *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 2
        assert done.stderr.startswith("error:") and message in done.stderr
        assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr

    def test_negative_hmax_prints_no_row(self, monkeypatch, capsys):
        code, out, err = self.run(monkeypatch, capsys, "--hmax", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: hmax must be an int >= 0, got -1\n"

    def test_drops_repeated_primes(self, monkeypatch, capsys):
        code, out, _ = self.run(monkeypatch, capsys, "--primes", "2,2", "--kmax", "1", "--dmax", "1")
        assert code == 0
        assert out.splitlines() == ["p,k,l,delta", "2,1,1,0", "", "d,p,hmax,count", "1,2,3,5"]


class TestGalleryScript:
    SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "spectrum_gallery.py"

    @pytest.mark.parametrize(
        "out", ["file/sub", "balmer"], ids=["directory-under-a-file", "dot-file-is-a-directory"]
    )
    def test_unwritable_output_exits_2_without_traceback(self, tmp_path, out):
        (tmp_path / "file").write_text("")
        (tmp_path / "balmer" / "balmer_d3.dot").mkdir(parents=True)
        env = child_env()
        done = subprocess.run(
            [sys.executable, str(self.SCRIPT), "--out", str(tmp_path / out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: cannot write")
        assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


@pytest.mark.parametrize("command, lines", [
    (["-m", "excspec.cli", "ideals", "8", "3", "4", "--list"], 1),
    (["scripts/blueshift_survey.py", "--kmax", "100"], 1),
    (["scripts/spectrum_gallery.py", "--out", "{tmp}"], 0),
], ids=["ideals-list", "survey", "gallery"])
def test_reader_closing_early_is_a_clean_exit(command, lines, tmp_path):
    """The reader takes a few lines and closes the pipe (the first two
    writers have far more than the 64 KiB pipe buffer to write), and the
    writer exits 0, silently."""
    root = Path(__file__).resolve().parents[1]
    env = child_env()
    proc = subprocess.Popen(
        [sys.executable, *(arg.format(tmp=tmp_path) for arg in command)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=root,
    )
    taken = [proc.stdout.readline() for _ in range(lines)]
    proc.stdout.close()
    err = proc.stderr.read()
    assert (b"" in taken, proc.wait(timeout=120), err) == (False, 0, b"")


def readme_cli_examples():
    """(argv, quoted output) for each `excspec ...` line of the README's
    CLI block; the quoted output is every double-quoted string in the
    line's comment."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = []
    for line in text.splitlines():
        if line.startswith("excspec "):
            command, _, comment = line.partition("#")
            examples.append((command.split()[1:], comment.split('"')[1::2]))
    return examples


@pytest.mark.parametrize("argv, quoted", readme_cli_examples(), ids=lambda x: " ".join(x))
def test_readme_cli_example(argv, quoted):
    code, out, err = invoke_cli(argv)
    assert code == 0, err
    for text in quoted:
        assert text in out


def test_readme_lists_the_cli_examples():
    examples = readme_cli_examples()
    assert len(examples) == 15
    assert ["x2*x2 = 2 x2 + 4 x3"] in [quoted for _, quoted in examples]
    assert ["brute: skipped (budget)"] in [quoted for _, quoted in examples]


class TestDeterminismAndValidity:
    @pytest.mark.parametrize(
        "argv",
        [
            ["spec", "balmer", "-d", "3", "-p", "2,3,5", "-H", "2", "--dot"],
            ["spec", "balmer", "-d", "4", "-p", "2", "-H", "4", "--dot"],
            ["spec", "zariski", "-d", "3", "-p", "2,3,5", "--dot"],
            ["spec", "hz", "-d", "3", "-p", "2,3", "--json"],
            ["ideals", "3", "2", "2", "--list"],
        ],
    )
    def test_byte_identical_across_runs(self, run_cli, argv):
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second
        assert first[0] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["spec", "balmer", "-d", "8", "-p", "2,3,5", "-H", "4", "--json"],
            ["ideals", "7", "3", "4", "--list", "--json"],
            ["smith", "6", "2", "4", "2", "inf", "1"],
        ],
    )
    def test_byte_identical_across_hash_seeds(self, argv):
        outputs = []
        for seed in ("0", "1"):
            env = child_env(PYTHONHASHSEED=seed)
            done = subprocess.run(
                [sys.executable, "-m", "excspec.cli", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["spec", "balmer", "-d", "4", "-p", "2,3", "-H", "3", "--json"],
            ["ideals", "3", "2", "2", "--list", "--json"],
        ],
    )
    def test_json_never_writes_infinity(self, run_cli, argv):
        # json.dumps(math.inf) writes the non-standard token Infinity;
        # heights and thresholds go out as the string "inf" instead
        code, out, _ = run_cli(argv)
        assert code == 0
        assert '"inf"' in out and "Infinity" not in out

    def test_dot_is_acyclic_digraph(self, run_cli):
        _, out, _ = run_cli(
            ["spec", "balmer", "-d", "3", "-p", "2,3", "-H", "3", "--dot"]
        )
        nodes, edges = dot_nodes_and_edges(out)
        for a, b in edges:
            assert a in nodes and b in nodes
        # no cycles: DFS over cover edges
        graph = {n: [] for n in nodes}
        for a, b in edges:
            graph[a].append(b)
        state = dict.fromkeys(nodes, 0)

        def visit(n):
            if state[n] == 1:
                pytest.fail("cycle in DOT output")
            if state[n] == 0:
                state[n] = 1
                for m in graph[n]:
                    visit(m)
                state[n] = 2

        for n in nodes:
            visit(n)

    def test_tokenizer_rejects_garbage(self):
        with pytest.raises(ValueError):
            tokenize_dot("graph { }")
        with pytest.raises(ValueError):
            tokenize_dot("digraph x {\n  missing-semicolon\n}")


# Small values, about half of them in range and the rest on the far side
# of a validity boundary: out-of-range windows, non-primes, negative
# layers and heights.
PRIMES = st.one_of(st.sampled_from(["2", "3", "5"]), st.sampled_from(["1", "0", "4", "-1"]))
SMALL = st.one_of(st.integers(1, 5), st.integers(-1, 5)).map(str)
LAYER_40 = st.one_of(st.integers(1, 40), st.integers(-1, 40)).map(str)
HEIGHT = st.one_of(st.integers(0, 3).map(str), st.sampled_from(["inf", "-1"]))


def _argv(*parts):
    """Concatenate strategies of token lists into one argv strategy."""
    return st.tuples(*parts).map(lambda lists: [tok for part in lists for tok in part])


def _one(tokens):
    return st.lists(tokens, min_size=1, max_size=1)


def _options(*choices):
    """Up to two option groups, each drawn from `choices`."""
    return st.lists(st.one_of(*choices), max_size=2).map(
        lambda groups: [tok for group in groups for tok in group]
    )


ARGV = st.one_of(
    _argv(
        st.just(["mu"]),
        st.lists(st.integers(-1, 6).map(str), min_size=2, max_size=2),
        _one(LAYER_40),
        _options(
            st.just(["--all"]),
            st.sampled_from(["brute", "stirling"]).map(lambda m: ["--method", m]),
        ),
    ),
    _argv(
        st.just(["ring"]),
        _one(st.integers(-1, 5).map(str)),
        st.sampled_from([["--table"], ["--check"], ["--cokernel"], []]),
        _options(st.just(["--json"]), st.just(["--trials", "3"]), st.just(["--seed", "1"])),
    ),
    _argv(
        st.sampled_from([["spec", v] for v in ("zariski", "balmer", "hz")]),
        _one(SMALL).map(lambda d: ["-d", *d]),
        st.lists(PRIMES, min_size=1, max_size=3).map(lambda ps: ["-p", ",".join(ps)]),
        _options(
            HEIGHT.map(lambda h: ["-H", h]),
            st.just(["--no-inf"]),
            PRIMES.map(lambda r: ["--slice", r]),
        ),
        _options(st.sampled_from([["--dot"], ["--json"], ["--text"]])),
    ),
    _argv(
        st.just(["delta"]),
        _one(PRIMES),
        st.lists(LAYER_40, min_size=2, max_size=2),
    ),
    _argv(
        st.just(["smith"]),
        _one(SMALL),
        _one(PRIMES),
        st.lists(SMALL, min_size=2, max_size=2),
        st.lists(HEIGHT, min_size=2, max_size=2),
    ),
    _argv(
        st.just(["ideals"]),
        _one(SMALL),
        _one(PRIMES),
        _one(st.integers(-1, 3).map(str)),
        st.sampled_from([["--count"], ["--list"]]),
        _options(st.sampled_from([["--json"], ["--csv"]])),
    ),
)


@settings(max_examples=150, deadline=None)
@given(ARGV)
@example(["smith", "3", "1", "2", "1", "0", "0"])
@example(["spec", "balmer", "-d", "40", "-p", "2,3,5,7,11,13", "-H", "10"])
@example(["spec", "hz", "-d", "600", "-p", "2,3,5", "--text"])
@example(["spec", "zariski", "-d", "100000", "-p", "2"])
@example(["spec", "balmer", "-d", "1", "-p", "2", "-H", "1000000000"])
@example(["ideals", str(2**63), "2", "3", "--count"])
@example(["ideals", "7000", "7001", "3", "--count"])
def test_exit_code_contract(argv):
    """Every argv exits 0, 1 or 2 without a traceback (any exception but
    SystemExit propagates out of invoke_cli), with repeatable stdout."""
    code, out, err = invoke_cli(argv)
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err
    assert invoke_cli(argv)[:2] == (code, out)
