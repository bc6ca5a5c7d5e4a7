"""Replay a fixed subset of the benchmark's reference table in process.

`perfbench/refs.json` maps each benchmark query to
`exit:digest:bytes:source`, where digest is the first 24 hex digits of
the sha256 of its stdout.  The subset takes every `cli` query shape
(subcommand, spectrum variant and flags, values dropped) and, within a
shape ordered by output size, the entries at 0%, 50% and 90%: every
subcommand, every `spec` variant and every output format, at small and
mid-sized windows, and the benchmark's anchor queries.  The table is
only read here.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from pathlib import Path

import pytest

from conftest import invoke_cli

REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs.json"
QUANTILES = (0, 0.5, 0.9)
# The largest query of each kernel the benchmark's tail is read from.
ANCHORS = ("cli ideals 8 3 4 --list --json", "cli ring 16 --check")


def _is_value(token: str) -> bool:
    return token == "inf" or token.lstrip("-")[:1].isdigit()


def _subset() -> list:
    with open(REFS) as fh:
        queries = json.load(fh)["queries"]
    shapes = defaultdict(list)
    for key, ref in queries.items():
        kind, *argv = key.split()
        if kind == "cli":
            shape = tuple(tok for tok in argv if not _is_value(tok))
            shapes[shape].append((int(ref.split(":")[2]), key, ref))
    picked = set()
    for entries in shapes.values():
        entries.sort()
        picked.update(entries[int(q * (len(entries) - 1))][1:] for q in QUANTILES)
    picked.update((key, queries[key]) for key in ANCHORS)
    return [pytest.param(key, ref, id=key) for key, ref in sorted(picked)]


@pytest.mark.parametrize("key, ref", _subset())
def test_cli_output_matches_the_reference(key, ref):
    want_exit, want_digest, want_bytes, _source = ref.split(":")
    code, out, _ = invoke_cli(key.split()[1:])
    stdout = out.encode()
    assert code == int(want_exit)
    assert len(stdout) == int(want_bytes)
    assert hashlib.sha256(stdout).hexdigest()[:24] == want_digest
