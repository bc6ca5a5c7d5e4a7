#!/usr/bin/env python3
"""Regenerate perfbench/refs.json, the reference for every query any seed
can draw.

    python3 perfbench/make_refs.py

Run from the root of the checkout whose output is the reference.  Each
entry is `exit:digest:bytes:source`, where source says where the
expected output comes from:

- golden: the byte-exact stdout of the checkout it was generated from
  (CLI output must stay byte-identical for fixed flags);
- oracle-mu, oracle-delta: recomputed in oracles.py along another route
  than the command's;
- known-count, known-cokernel, known-check: a value fixed by the theory
  (ideal counts, the factorial-product cokernel, ring checks that pass);
- identity: the round trip returns its input.

Every non-golden reference is also compared with the program's current
output, and each disagreement is listed; the reference is kept, so a
defect shows up as a failed query in the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

import oracles
import run
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

from excspec import cli  # noqa: E402

SOURCES = {
    "golden": "byte-exact stdout of the checkout the table was generated from",
    "oracle-mu": "mu by the Stirling-matrix route in perfbench/oracles.py",
    "oracle-delta": "delta_p by breadth-first search over p-power partitions in perfbench/oracles.py",
    "known-count": "ideal counts 2448 (d=6, p=2, H=4) and 41160 (d=10, p=2, H=3)",
    "known-cokernel": "invariant factors 1!, 2!, ..., d! of the factorial-product cokernel",
    "known-check": "every ring check passes",
    "identity": "the round trip returns the input function",
}
KNOWN_COUNTS = {("6", "2", "4"): 2448, ("10", "2", "3"): 41160}


def in_process(args: tuple) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
        except RecursionError:
            code = 1
    return code, out.getvalue().encode()


def expected(slot: str, query: tuple, mu: dict) -> tuple[str, int, str] | None:
    """(source, exit, stdout) for a query with a non-golden reference."""
    args = query[1:]
    if slot.startswith("mu_"):
        i, j, k = (int(a) for a in args[1:4])
        value = mu[(i, j, k)]
        if "--all" in args:
            return "oracle-mu", 0, "".join(f"{m}: {value}\n" for m in ("brute", "incl-excl", "stirling")) + "AGREE\n"
        return "oracle-mu", 0, f"{value}\n"
    if slot == "delta":
        p, k, l = (int(a) for a in args[1:])
        return "oracle-delta", 0, f"{oracles.delta(p, k, l)}\n"
    if slot == "ring_cokernel":
        d = int(args[1])
        factors = " ".join(str(n) for n in oracles.factorial_invariants(d))
        return "known-cokernel", 0, (
            f"invariant factors: {factors}\ncokernel matches product of Z/i! for i = 1..{d}: PASS\n"
        )
    if slot in ("ring_check", "ring_check_large", "ring_anchor"):
        d = int(args[1])
        seed = args[args.index("--seed") + 1] if "--seed" in args else "0"
        lines = [f"ghost multiplicativity (seed={seed}): PASS"]
        if d <= 6:
            lines.append("triple associativity: PASS")
        lines += ["commutativity: PASS", "unit: PASS"]
        return "known-check", 0, "\n".join(lines) + "\n"
    if slot == "ideals_count" and args[1:4] in KNOWN_COUNTS:
        count = KNOWN_COUNTS[args[1:4]]
        if "--csv" in args:
            return "known-count", 0, "d,p,hmax,count\n" + ",".join(args[1:4]) + f",{count}\n"
        return "known-count", 0, f"{count}\n"
    if slot == "roundtrip":
        return "identity", 0, "".join(f"{f}\n" for f in args[3:])
    return None


def main() -> int:
    run.check_layout()
    run.WORK.mkdir(exist_ok=True)
    slots = {}
    for workload in workloads.WORKLOADS:
        for slot, queries in workloads.pools(workload).items():
            for query in queries:
                slots[query] = slot
    mu = oracles.mu_values(
        {tuple(int(a) for a in q[2:5]) for q, slot in slots.items() if slot.startswith("mu_")}
    )
    entries, disagreements, slowest = {}, [], (0.0, "")
    for query, slot in slots.items():
        start = time.perf_counter()
        if query[0] == "cli":
            code, stdout = in_process(query[1:])
        else:
            result = run.spawn_query(query)
            code, stdout = result["exit"], result["stdout"]
        slowest = max(slowest, (time.perf_counter() - start, workloads.key(query)))
        digest = run.output_digest(query, stdout)
        reference = expected(slot, query, mu)
        if reference is None:
            source, want_exit, want_digest, want_bytes = "golden", code, digest, len(stdout)
        else:
            source, want_exit, text = reference
            want_digest = run.output_digest(query, text.encode())
            want_bytes = len(text.encode())
            if (code, digest) != (want_exit, want_digest):
                disagreements.append(f"{workloads.key(query)}: exit {code}, reference {source}")
        entries[workloads.key(query)] = f"{want_exit}:{want_digest}:{want_bytes}:{source}"
    with open(run.REFS, "w") as fh:
        json.dump({"sources": SOURCES, "queries": entries}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(entries)} references; slowest in-process query {slowest[0]:.2f} s: {slowest[1]}")
    print(f"{len(disagreements)} disagree with the current program:")
    for line in disagreements:
        print("  " + line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
