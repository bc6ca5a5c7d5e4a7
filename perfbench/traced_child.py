"""Run one benchmark query with the public functions of every `excspec`
module wrapped from outside, and write the spans and counts it recorded.

    python -X importtime perfbench/traced_child.py TRACE_OUT KIND [ARGS...]

KIND is a query kind from workloads.py.  The query's stdout, stderr and
exit status are those of the untraced program; TRACE_OUT receives, at
exit, a JSON object with the recorded spans, per-function call counts
and self times, result counts, and the inclusive time of the entry
point.  Nothing is written while the query runs.
"""

from __future__ import annotations

import inspect
import json
import runpy
import sys
from collections import defaultdict
from time import perf_counter

import excspec.cli

# (module, function, kind).  A "span" call is recorded one by one; a
# "hot" call (millions per query) only adds to its function's call count
# and self time.  Recursive functions (stirling1, stirling2) are left
# unwrapped: their recursion goes through the module global, so a
# wrapper would double the stack depth and change where RecursionError
# strikes.
WRAPPED = (
    ("cli", "main", "span"),
    ("cli", "poset_to_dot", "span"),
    ("cli", "poset_to_text", "span"),
    ("cli", "poset_to_json", "span"),
    ("balmer", "b_truncation", "span"),
    ("balmer", "b_leq", "hot"),
    ("poset", "build_poset", "span"),
    ("poset", "transitive_reduction", "span"),
    ("zariski", "z_poset", "span"),
    ("zariski", "z_leq", "hot"),
    ("hzspec", "hz_leq", "hot"),
    ("combinat", "delta_p", "hot"),
    ("combinat", "mu_incl_excl", "hot"),
    ("combinat", "mu_brute", "span"),
    ("combinat", "mu_stirling", "span"),
    ("burnside", "present", "span"),
    ("burnside", "smith_normal_form", "span"),
    ("burnside", "cokernel_invariants", "span"),
    ("burnside", "ghost_is_hom_check", "span"),
    ("burnside", "quotient_presentation_check", "span"),
    ("classify", "enumerate_p_admissible", "span"),
    ("classify", "thomason_from_function", "span"),
    ("classify", "function_from_thomason", "span"),
    ("classify", "validate_thomason", "span"),
)


def _count_truncation(counts, result, bound):
    counts["balmer.points"] += len(result.points)
    counts["balmer.relation_pairs"] += len(result.relation)


def _count_covers(counts, result, bound):
    counts["poset.covers"] += len(result)


def _count_enumeration(counts, result, bound):
    args = bound.arguments
    counts["classify.functions_out"] += result[0]
    counts["classify.visit_space"] += (args["hmax"] + 2) ** args["d"]


RESULT_COUNTERS = {
    "balmer.b_truncation": _count_truncation,
    "poset.transitive_reduction": _count_covers,
    "classify.enumerate_p_admissible": _count_enumeration,
}


class Tracer:
    """Spans and counts kept in memory.  Every wrapped call pushes a frame
    holding the time spent in wrapped calls below it, so each function's
    self time is its duration minus its children's."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent id, self]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.bindings: dict[str, int] = {}
        self.stack: list[list] = []  # [child seconds, span id or None]

    def wrap(self, name: str, fn, hot: bool):
        stack, calls, self_s, spans = self.stack, self.calls, self.self_s, self.spans
        counter = RESULT_COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        counts = self.counts

        def traced(*args, **kwargs):
            if hot:
                parent_id = frame_id = None
            else:
                parent_id = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                frame_id = len(spans)
                spans.append(None)
            frame = [0.0, frame_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                calls[name] += 1
                self_s[name] += own
                if frame_id is not None:
                    spans[frame_id] = [frame_id, name, start, end, parent_id, own]
            if counter:
                counter(counts, result, signature.bind(*args, **kwargs))
            return result

        return traced

    def install(self) -> None:
        """Wrap each listed function and rebind every module-level name
        that refers to it in any loaded `excspec` module (functions
        imported by name, such as delta_p in balmer and classify, are
        separate bindings)."""
        modules = [m for n, m in sys.modules.items() if n == "excspec" or n.startswith("excspec.")]
        for module_name, fn_name, kind in WRAPPED:
            name = f"{module_name}.{fn_name}"
            original = getattr(sys.modules[f"excspec.{module_name}"], fn_name)
            traced = self.wrap(name, original, kind == "hot")
            bound = 0
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
                        bound += 1
            self.bindings[name] = bound

    def dump(self, path: str, entry_s: float) -> None:
        payload = {
            "entry_s": entry_s,
            "spans": [s for s in self.spans if s is not None],
            "calls": self.calls,
            "self_s": self.self_s,
            "counts": self.counts,
            "bindings": self.bindings,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _run(kind: str, args: list[str]) -> int:
    if kind == "cli":
        sys.argv = ["excspec", *args]
        return excspec.cli.main(args)
    scripts = {
        "gallery": "scripts/spectrum_gallery.py",
        "survey": "scripts/blueshift_survey.py",
        "roundtrip": "perfbench/roundtrip.py",
    }
    sys.argv = [scripts[kind], *args]
    try:
        runpy.run_path(scripts[kind], run_name="__main__")
    except SystemExit as exc:
        return exc.code
    return 0


def main() -> None:
    trace_out, kind, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    start = perf_counter()
    try:
        code = _run(kind, args)
    finally:
        tracer.dump(trace_out, perf_counter() - start)
    sys.exit(code)


if __name__ == "__main__":
    main()
