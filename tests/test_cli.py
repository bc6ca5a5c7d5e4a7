import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dot_nodes_and_edges, invoke_cli, tokenize_dot

from excspec import combinat


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

    def test_ideals_budget_env(self, run_cli, monkeypatch):
        monkeypatch.setenv("EXCSPEC_ENUM_BUDGET", "4")
        code, _, err = run_cli(["ideals", "2", "2", "1", "--count"])
        assert code == 2
        assert "budget" in err


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

    def test_slice_zero_and_given_prime_accepted(self, run_cli):
        for residue in ("0", "2"):
            code, out, _ = run_cli(["spec", "hz", "-d", "3", "-p", "2,3", "--slice", residue])
            assert code == 0
            assert out.startswith("points: 3\n")


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
def test_exit_code_contract(argv):
    """Every argv exits 0, 1 or 2 without a traceback (any exception but
    SystemExit propagates out of invoke_cli), with repeatable stdout."""
    code, out, err = invoke_cli(argv)
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err
    assert invoke_cli(argv)[:2] == (code, out)
