"""Guard for the benchmark's traced run: `perfbench/traced_child.py`
rebinds the functions it lists by module and name and reads counters off
their results, so a rename or a changed result shape would make the
traced run fail ("expected counters read zero") without any test error."""

import importlib
import importlib.util
from collections import defaultdict
from pathlib import Path

import pytest

from excspec import balmer, poset

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
    traced_child._count_covers(
        counts, poset.transitive_reduction(len(trunc.points), trunc.relation), None
    )
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
