"""Guard for the benchmark's traced run: `perfbench/traced_child.py`
rebinds the functions it lists by module and name and reads counters off
their results, so a rename or a changed result shape would make the
traced run fail ("expected counters read zero") without any test error."""

import importlib
import importlib.util
import inspect
import json
from collections import defaultdict
from pathlib import Path

import pytest

from conftest import invoke_cli

from excspec import balmer, burnside, classify, combinat, poset

TRACED_CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "traced_child.py"


@pytest.fixture(scope="module")
def traced_child():
    spec = importlib.util.spec_from_file_location("traced_child", TRACED_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_functions_resolve(traced_child):
    for module_name, fn_name, _ in traced_child.WRAPPED:
        module = importlib.import_module(f"excspec.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"{module_name}.{fn_name}"


def test_result_counters_read_real_results(traced_child):
    trunc = balmer.b_truncation(3, [2, 3], 3)
    assert hasattr(trunc, "points") and hasattr(trunc, "relation")
    counts = defaultdict(int)
    traced_child._count_truncation(counts, trunc, None)
    traced_child._count_covers(counts, poset.transitive_reduction(trunc.above), None)
    assert counts["balmer.points"] == len(trunc.points) > 0
    assert counts["balmer.relation_pairs"] == len(trunc.relation) > 0
    assert counts["poset.covers"] == len(trunc.covers) > 0


def test_rebound_module_functions_are_called(monkeypatch):
    calls = defaultdict(int)

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(balmer, "b_leq", spy("b_leq", balmer.b_leq))
    monkeypatch.setattr(
        poset, "transitive_reduction", spy("reduction", poset.transitive_reduction)
    )
    trunc = balmer.b_truncation(2, [2], 2)
    assert trunc.covers
    assert calls["b_leq"] > 0
    assert calls["reduction"] == 1


def test_rebound_b_leq_count_keeps_the_column_bisection(monkeypatch):
    # d=14 over the primes up to 13 at H=10: 854 points, 728,462 pairs of
    # distinct points; b_truncation's column bisection compares 11,390
    # of them
    calls = 0
    b_leq = balmer.b_leq

    def counted(a, b):
        nonlocal calls
        calls += 1
        return b_leq(a, b)

    monkeypatch.setattr(balmer, "b_leq", counted)
    trunc = balmer.b_truncation(14, (2, 3, 5, 7, 11, 13), 10)
    assert len(trunc.points) == 854
    assert 0 < calls <= 15_000


@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_ideals_list_reports_its_rows_through_the_module(traced_child, monkeypatch, fmt):
    # `ideals --list` must call enumerate_p_admissible through the module
    # attribute, and result[0] must count the rows printed: the traced
    # run reads classify.enumerate_p_admissible.calls and
    # classify.functions_out off that call
    results, counts = [], defaultdict(int)
    enumerate_p_admissible = classify.enumerate_p_admissible
    counter = traced_child.RESULT_COUNTERS["classify.enumerate_p_admissible"]

    def spy(*args, **kwargs):
        result = enumerate_p_admissible(*args, **kwargs)
        counter(counts, result, inspect.signature(enumerate_p_admissible).bind(*args, **kwargs))
        results.append(result)
        return result

    monkeypatch.setattr(classify, "enumerate_p_admissible", spy)
    code, out, _ = invoke_cli(["ideals", "6", "3", "3", "--list", *fmt])
    printed = len(json.loads(out)) if fmt else len(out.splitlines())
    assert code == 0 and len(results) == 1
    assert results[0][0] == counts["classify.functions_out"] == printed == 3248


@pytest.mark.parametrize(
    "argv, names",
    [
        (["ring", "4", "--check"], ("present", "ghost_is_hom_check", "quotient_presentation_check")),
        (["ring", "16", "--check"], ("present", "ghost_is_hom_check")),
        (["mu", "3", "4", "5"], ("mu_incl_excl",)),
        (["mu", "3", "4", "5", "--all"], ("mu_incl_excl",)),
    ],
)
def test_algebra_counters_are_reached_through_module_attributes(monkeypatch, argv, names):
    # the traced run's algebra gate reads burnside.present.calls,
    # burnside.ghost_is_hom_check.calls,
    # burnside.quotient_presentation_check.calls and
    # combinat.mu_incl_excl.calls; present reads combinat.mu_row, so the
    # mu queries alone move that last counter
    module = combinat if argv[0] == "mu" else burnside
    calls = defaultdict(int)

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    code, _, _ = invoke_cli(argv)
    assert code == 0
    assert all(calls[name] for name in names), dict(calls)
