#!/usr/bin/env python3
"""Cold-query benchmark for the `excspec` command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --list-queries ROUNDS
    python3 perfbench/run.py --baselines

Run from the root of a checkout.  Each query is a fresh child process
(`python -m excspec.cli ...`, a script, or the round-trip program), run in
a closed loop with one client and one query in flight: the parent starts
the next query only after reaping the previous one with os.wait4, and
stops starting queries once S seconds have passed.  Every query's exit
code and output are checked against refs.json.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 each query runs twice, untraced and then under traced_child.py,
and the last line carries the per-layer metrics (per-query means over the
traced runs) and the tracing overhead.  Details, machine notes and every
query's record go to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import oracles
import workloads

ROOT = Path.cwd()
WORK = Path(".perfbench")
GALLERY_DIR = WORK / "gallery"
REFS = Path(__file__).resolve().parent / "refs.json"
SETUP_REPS = 8
SETUP_EVERY = 6
SCRIPTS = {
    "gallery": "scripts/spectrum_gallery.py",
    "survey": "scripts/blueshift_survey.py",
    "roundtrip": "perfbench/roundtrip.py",
}

# Counters each workload must move; a zero means a wrapper lost its
# binding or the deck stopped reaching a layer, and the traced run fails.
EXPECTED_NONZERO = {
    "spec_covers": (
        "balmer.b_leq.calls", "combinat.delta_p.calls", "balmer.points",
        "balmer.relation_pairs", "poset.covers", "zariski.z_leq.calls",
        "hzspec.hz_leq.calls", "cli.poset_to_dot.calls", "cli.poset_to_text.calls",
    ),
    "spec_relation": (
        "balmer.b_leq.calls", "combinat.delta_p.calls", "balmer.points",
        "balmer.relation_pairs", "poset.covers", "zariski.z_leq.calls",
        "hzspec.hz_leq.calls", "cli.poset_to_json.calls",
    ),
    "algebra": (
        "burnside.present.calls", "combinat.mu_incl_excl.calls",
        "combinat.mu_brute.calls", "burnside.smith_normal_form.calls",
        "burnside.ghost_is_hom_check.calls", "burnside.quotient_presentation_check.calls",
        "classify.enumerate_p_admissible.calls", "classify.functions_out",
        "classify.thomason_from_function.calls", "classify.function_from_thomason.calls",
        "classify.validate_thomason.calls",
    ),
}

# Per-layer metrics: name -> (unit, how it is read from the traced runs).
# "self" is a function's self time, "calls" its call count and "count" a
# result counter, each as a mean per traced query.
PER_LAYER = {
    "cli.import_s": ("s", "import", "excspec.cli"),
    "combinat.numpy_import_s": ("s", "import", "numpy"),
    "cli.main.s": ("s", "self", "cli.main"),
    "cli.child_overhead_s": ("s", "overhead", None),
    "cli.poset_to_dot.s": ("s", "self", "cli.poset_to_dot"),
    "cli.poset_to_text.s": ("s", "self", "cli.poset_to_text"),
    "cli.poset_to_json.s": ("s", "self", "cli.poset_to_json"),
    "cli.output_bytes": ("bytes", "output", None),
    "balmer.b_truncation.s": ("s", "self", "balmer.b_truncation"),
    "balmer.points": ("count", "count", "balmer.points"),
    "balmer.b_leq.calls": ("count", "calls", "balmer.b_leq"),
    "balmer.b_leq.s": ("s", "self", "balmer.b_leq"),
    "balmer.relation_pairs": ("count", "count", "balmer.relation_pairs"),
    "balmer.relation_hit_ratio": ("ratio", "ratio", ("balmer.relation_pairs", "balmer.b_leq.calls")),
    "poset.transitive_reduction.s": ("s", "self", "poset.transitive_reduction"),
    "poset.covers": ("count", "count", "poset.covers"),
    "poset.build_poset.s": ("s", "self", "poset.build_poset"),
    "zariski.z_poset.s": ("s", "self", "zariski.z_poset"),
    "zariski.z_leq.calls": ("count", "calls", "zariski.z_leq"),
    "hzspec.hz_leq.calls": ("count", "calls", "hzspec.hz_leq"),
    "combinat.delta_p.calls": ("count", "calls", "combinat.delta_p"),
    "combinat.delta_p.s": ("s", "self", "combinat.delta_p"),
    "combinat.mu_incl_excl.calls": ("count", "calls", "combinat.mu_incl_excl"),
    "combinat.mu_incl_excl.s": ("s", "self", "combinat.mu_incl_excl"),
    "combinat.mu_brute.s": ("s", "self", "combinat.mu_brute"),
    "combinat.mu_stirling.s": ("s", "self", "combinat.mu_stirling"),
    "burnside.present.s": ("s", "self", "burnside.present"),
    "burnside.present.calls": ("count", "calls", "burnside.present"),
    "burnside.smith_normal_form.s": ("s", "self", "burnside.smith_normal_form"),
    "burnside.ghost_is_hom_check.s": ("s", "self", "burnside.ghost_is_hom_check"),
    "burnside.quotient_presentation_check.s": ("s", "self", "burnside.quotient_presentation_check"),
    "classify.enumerate_p_admissible.s": ("s", "self", "classify.enumerate_p_admissible"),
    "classify.functions_out": ("count", "count", "classify.functions_out"),
    "classify.visit_ratio": ("ratio", "ratio", ("classify.functions_out", "classify.visit_space")),
    "classify.thomason_from_function.s": ("s", "self", "classify.thomason_from_function"),
    "classify.function_from_thomason.s": ("s", "self", "classify.function_from_thomason"),
    "classify.validate_thomason.s": ("s", "self", "classify.validate_thomason"),
    "trace.overhead_frac": ("ratio", "tracing", None),
    "trace.queries": ("count", "queries", None),
}


class LayoutError(Exception):
    """The working directory is not an excspec checkout."""


def child_env(extra: dict | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for name in ("PYTHONDONTWRITEBYTECODE", "EXCSPEC_ENUM_BUDGET"):
        env.pop(name, None)
    env.update(extra or {})
    return env


def child_argv(query: tuple, trace_path: Path | None = None) -> list[str]:
    kind, args = query[0], list(query[1:])
    if kind == "gallery":
        args = ["--out", str(GALLERY_DIR)]
    if trace_path is not None:
        return [sys.executable, "-X", "importtime", "perfbench/traced_child.py", str(trace_path), kind, *args]
    if kind == "cli":
        return [sys.executable, "-m", "excspec.cli", *args]
    return [sys.executable, SCRIPTS[kind], *args]


def spawn(argv: list[str], env: dict) -> dict:
    """Run one child to completion; wall time is from spawn to reaping."""
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "exit": proc.returncode,
        "rss_kb": usage.ru_maxrss,
        "stdout": out_path.read_bytes(),
        "stderr": err_path.read_bytes(),
    }


def spawn_query(query: tuple, trace_path: Path | None = None, env_extra: dict | None = None) -> dict:
    """Run a query from a clean slate: no gallery files or trace left over
    from an earlier query."""
    if query[0] == "gallery":
        shutil.rmtree(GALLERY_DIR, ignore_errors=True)
    if trace_path is not None:
        trace_path.unlink(missing_ok=True)
    return spawn(child_argv(query, trace_path), child_env(env_extra))


def output_digest(query: tuple, stdout: bytes) -> str:
    """Digest of what a query produces: its stdout, plus the files the
    gallery script writes."""
    h = hashlib.sha256(stdout)
    if query[0] == "gallery":
        for path in sorted(GALLERY_DIR.glob("*.dot")):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:24]


def run_query(query: tuple, refs: dict, trace_path: Path | None = None) -> dict:
    """Run a query and check it against its reference."""
    result = spawn_query(query, trace_path)
    result["key"] = workloads.key(query)
    result["bytes"] = len(result["stdout"])
    result["digest"] = output_digest(query, result["stdout"])
    want_exit, want_digest, want_bytes, source = refs[result["key"]].split(":")
    result["source"] = source
    result["exit_ok"] = result["exit"] == int(want_exit)
    result["output_ok"] = result["digest"] == want_digest and result["bytes"] == int(want_bytes)
    result["traceback"] = b"Traceback (most recent call last)" in result["stderr"]
    result["ok"] = result["exit_ok"] and result["output_ok"] and not result["traceback"]
    # A wrong answer delivered as a success, as opposed to a crash or refusal.
    result["wrong_answer"] = result["exit"] == 0 and not result["output_ok"]
    return result


def check_layout() -> None:
    for rel in ("src/excspec/cli.py", *SCRIPTS.values(), "perfbench/traced_child.py"):
        if not (ROOT / rel).is_file():
            raise LayoutError(f"{rel} not found: run from the root of an excspec checkout")


def load_refs() -> dict:
    with open(REFS) as fh:
        return json.load(fh)["queries"]


def warm_up() -> None:
    """Import once so that bytecode caches exist before anything is timed:
    users pay compilation once, not on every call."""
    subprocess.run([sys.executable, "-c", "import excspec.cli"], env=child_env(), check=True)


def measure_setup(reps: int) -> list[float]:
    argv = [sys.executable, "-c", "import excspec.cli"]
    walls = []
    for _ in range(reps):
        result = spawn(argv, child_env())
        if result["exit"] != 0:
            raise LayoutError("`import excspec.cli` failed: " + result["stderr"].decode(errors="replace"))
        walls.append(result["wall_s"])
    return walls


def tail(samples: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples above it,
    by nearest rank, and its value."""
    ordered = sorted(samples)
    n = len(ordered)
    q = max(0, 100 * (n - 10) // n)
    return q, ordered[max(1, -(-q * n // 100)) - 1]


def import_seconds(stderr: bytes, module: str) -> float:
    """Cumulative import time of `module` from -X importtime output."""
    for line in stderr.decode(errors="replace").splitlines():
        if line.startswith("import time:"):
            fields = line.split("|")
            if fields[2].strip() == module:
                return int(fields[1]) / 1e6
    return 0.0


def run_rounds(deck, seconds: float, each, whole_rounds: bool = False, between=None) -> list[float]:
    """Closed loop over the deck until `seconds` of queries have run.
    Returns the query time up to the end of each round completed, the
    last partial round (if any) not counted.  With `whole_rounds` the loop
    stops only between rounds, so every slot runs at least once.
    `between`, if given, is called off the clock after every query with
    the number of queries run so far."""
    elapsed = 0.0
    done = 0
    round_ends = []
    while True:
        for i, query in enumerate(deck.next_round()):
            if elapsed >= seconds and (i == 0 or not whole_rounds):
                return round_ends
            start = time.perf_counter()
            each(query)
            elapsed += time.perf_counter() - start
            done += 1
            if between is not None:
                between(done)
        round_ends.append(elapsed)


def machine_notes() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
    }


def end_to_end(deck, seconds: float, refs: dict) -> tuple[dict, list, dict]:
    # Set-up samples before the queries, after every few queries and
    # after the last, so that the median spans the run rather than one
    # moment of it: the host's speed moves within seconds.
    setup = measure_setup(SETUP_REPS // 2)
    records = []

    def between(done: int) -> None:
        if done % SETUP_EVERY == 0:
            setup.extend(measure_setup(1))

    round_ends = run_rounds(deck, seconds, lambda q: records.append(run_query(q, refs)), between=between)
    setup += measure_setup(SETUP_REPS - SETUP_REPS // 2)
    walls = [r["wall_s"] for r in records]
    q, tail_value = tail(walls)
    ok = sum(r["ok"] for r in records)
    # Throughput over whole rounds only, so that every run weighs the
    # workload's slots alike.
    rounds = len(round_ends)
    in_rounds = records[: rounds * len(deck.slots)] if rounds else records
    wall = round_ends[-1] if rounds else sum(walls)
    metrics = {
        "query_p50_s": (statistics.median(walls), "s"),
        "query_tail_s": (tail_value, "s"),
        "queries_per_s": (sum(r["ok"] for r in in_rounds) / wall, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(r["rss_kb"] for r in records) / 1024, "MB"),
    }
    notes = {
        "samples": {
            "query_p50_s": len(walls), "query_tail_s": len(walls), "queries_per_s": len(in_rounds),
            "setup_s": len(setup), "peak_rss_mb": len(walls),
        },
        "setup_samples_s": setup,
        "tail_percentile": q,
        "whole_rounds": rounds,
        "whole_rounds_wall_s": wall,
        "failed_frac": (len(records) - ok) / len(records),
    }
    return metrics, records, notes


def per_layer(workload: str, deck, seconds: float, refs: dict) -> tuple[dict, list, dict]:
    trace_path = WORK / "trace.json"
    records, traces = [], []

    def each(query):
        plain = run_query(query, refs)
        traced = run_query(query, refs, trace_path)
        with open(trace_path) as fh:
            trace = json.load(fh)
        trace["query"] = len(records)
        trace["key"] = traced["key"]
        trace["wall_s"] = traced["wall_s"]
        trace["bytes"] = traced["bytes"]
        trace["imports"] = {m: import_seconds(traced["stderr"], m) for m in ("excspec.cli", "numpy")}
        traces.append(trace)
        traced["untraced_wall_s"] = plain["wall_s"]
        traced["digests_match"] = plain["digest"] == traced["digest"] and plain["exit"] == traced["exit"]
        traced["ok"] = traced["ok"] and plain["ok"] and traced["digests_match"]
        # Tracing must not change what the program prints.
        traced["wrong_answer"] = traced["wrong_answer"] or plain["wrong_answer"] or not traced["digests_match"]
        records.append(traced)

    run_rounds(deck, seconds, each, whole_rounds=True)
    n = len(traces)
    totals: dict[str, float] = {}
    for trace in traces:
        for name, value in trace["calls"].items():
            totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + value
        for name, value in trace["self_s"].items():
            totals[f"{name}.self"] = totals.get(f"{name}.self", 0) + value
        for name, value in trace["counts"].items():
            totals[name] = totals.get(name, 0) + value
    missing = [name for name in EXPECTED_NONZERO[workload] if not totals.get(name)]
    if missing:
        raise RuntimeError(f"{workload}: expected counters read zero: {', '.join(missing)}")
    metrics = {}
    for name, (unit, how, source) in PER_LAYER.items():
        if how == "import":
            value = statistics.median(t["imports"][source] for t in traces)
        elif how == "self":
            value = totals.get(f"{source}.self", 0) / n
        elif how == "calls":
            value = totals.get(f"{source}.calls", 0) / n
        elif how == "count":
            value = totals.get(source, 0) / n
        elif how == "ratio":
            top, base = (totals.get(s, 0) for s in source)
            value = top / base if base else 0.0
        elif how == "overhead":
            value = statistics.fmean(t["wall_s"] - t["entry_s"] for t in traces)
        elif how == "output":
            value = statistics.fmean(t["bytes"] for t in traces)
        elif how == "tracing":
            value = sum(r["wall_s"] for r in records) / sum(r["untraced_wall_s"] for r in records) - 1
        else:  # queries
            value = n
        metrics[name] = (value, unit)
    notes = {
        "samples": {name: n for name in PER_LAYER},
        "ratio_bases": {
            "balmer.relation_hit_ratio": totals.get("balmer.b_leq.calls", 0),
            "classify.visit_ratio": totals.get("classify.visit_space", 0),
        },
        "digest_mismatches": sum(not r["digests_match"] for r in records),
    }
    with open(WORK / "results" / f"trace-{workload}.json", "w") as fh:
        json.dump(traces, fh)
    return metrics, records, notes


def baselines(refs: dict) -> int:
    """The ROADMAP item-1 baseline cases, each run three times untraced
    and three times traced; the span times come from the traced runs.
    Each case is checked against refs.json or, for the budget cases,
    against its stated exit code and count."""
    refused = (2, b"")
    cases = [
        ("b_truncation(10, [2,3,5,7,11], 10) and its covers",
         workloads.balmer_window(10, (2, 3, 5, 7, 11), 10) + ("--dot",), None, None,
         ("balmer.b_truncation", "poset.transitive_reduction")),
        ("spec balmer -d 12 -p 2,3,5,7,11 -H 12 --dot",
         workloads.balmer_window(12, (2, 3, 5, 7, 11), 12) + ("--dot",), None, None,
         ("cli.main", "balmer.b_truncation", "poset.transitive_reduction")),
        ("present(16)", ("ring", "16", "--table"), None, None, ("burnside.present",)),
        ("cokernel_invariants(16)", ("ring", "16", "--cokernel"), None, None,
         ("burnside.cokernel_invariants",)),
        ("enumerate_p_admissible(8, 3, 6), default budget", ("ideals", "8", "3", "6", "--count"),
         None, refused, ("classify.enumerate_p_admissible",)),
        ("enumerate_p_admissible(8, 3, 6), budget 10**8", ("ideals", "8", "3", "6", "--count"),
         {"EXCSPEC_ENUM_BUDGET": str(10**8)}, (0, b"487746\n"), ("classify.enumerate_p_admissible",)),
        ("enumerate_p_admissible(12, 5, 3), default budget", ("ideals", "12", "5", "3", "--count"),
         None, refused, ("classify.enumerate_p_admissible",)),
        # Past the stirling recursion limit (see workloads.STIRLING_MAX_K):
        # fails its check for as long as the defect lasts.
        ("mu_stirling(30, 30, 600)", ("mu", "30", "30", "600", "--method", "stirling"),
         None, (0, f"{oracles.mu_values({(30, 30, 600)})[(30, 30, 600)]}\n".encode()),
         ("combinat.mu_stirling",)),
    ]
    trace_path = WORK / "trace.json"
    report = []
    for label, argv, env, want, spans in cases:
        query = ("cli",) + argv
        walls, inclusive, checked = {"untraced": [], "traced": []}, {s: [] for s in spans}, True
        for _ in range(3):
            for mode, path in (("untraced", None), ("traced", trace_path)):
                if want is None:
                    result = run_query(query, refs, path)
                    checked = checked and result["ok"]
                else:
                    result = spawn_query(query, path, env)
                    checked = checked and (result["exit"], result["stdout"]) == want
                walls[mode].append(result["wall_s"])
            with open(trace_path) as fh:
                trace = json.load(fh)
            for span in spans:
                inclusive[span].append(sum(s[3] - s[2] for s in trace["spans"] if s[1] == span))
        row = {
            "case": label,
            "argv": " ".join(argv),
            "env": env or {},
            "checked": checked,
            "wall_s": {mode: statistics.median(v) for mode, v in walls.items()},
            "inclusive_s": {s: statistics.median(v) for s, v in inclusive.items()},
        }
        report.append(row)
        print(json.dumps(row))
    with open(WORK / "results" / "baselines.json", "w") as fh:
        json.dump({"machine": machine_notes(), "cases": report}, fh, indent=1)
    return 0 if all(r["checked"] for r in report) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-queries", type=int, metavar="ROUNDS")
    parser.add_argument("--baselines", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.baselines:
        parser.error("--workload is required")
    if args.list_queries is not None:
        deck = workloads.Deck(args.workload, args.seed)
        for _ in range(args.list_queries):
            for query in deck.next_round():
                print(workloads.key(query))
        return 0
    # On SIGTERM, unwind through spawn(), which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        check_layout()
        refs = load_refs()
        (WORK / "results").mkdir(parents=True, exist_ok=True)
        warm_up()
        if args.baselines:
            return baselines(refs)
        deck = workloads.Deck(args.workload, args.seed)
        if args.trace:
            metrics, records, notes = per_layer(args.workload, deck, args.seconds, refs)
        else:
            metrics, records, notes = end_to_end(deck, args.seconds, refs)
    except (LayoutError, RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    replay = workloads.Deck(args.workload, args.seed)
    replayed = []
    while len(replayed) < len(records):
        replayed.extend(workloads.key(q) for q in replay.next_round())
    deterministic = replayed[: len(records)] == [r["key"] for r in records]
    failed = sum(not r["ok"] for r in records)
    correct = deterministic and not any(r["wrong_answer"] for r in records)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_notes(),
        "query_list_sha256": hashlib.sha256("\n".join(replayed[: len(records)]).encode()).hexdigest(),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        **notes,
        "queries": [
            {k: r[k] for k in ("key", "wall_s", "exit", "rss_kb", "bytes", "source", "ok")}
            for r in records
        ],
    }
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w") as fh:
        json.dump(summary, fh, indent=1)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    if not args.trace:
        print(f"query_tail_s is p{notes['tail_percentile']} of {len(records)} queries; "
              f"setup_s is the median of {notes['samples']['setup_s']} cold imports")
    print(f"failed_frac {failed}/{len(records)} = {failed / len(records):.4f}")
    for r in records:
        if not r["ok"]:
            print(f"  failed: {r['key'][:100]} (exit {r['exit']}, reference: {r['source']})")
    print("machine: " + json.dumps(machine_notes()))
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
