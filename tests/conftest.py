from __future__ import annotations

import contextlib
import io

import pytest

from excspec import cli
from excspec.classify import enumerate_p_admissible


def invoke_cli(argv: list[str]) -> tuple[int, str, str]:
    """Invoke the CLI in-process, returning (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def listed_vectors(d: int, p: int, hmax: int) -> tuple[int, list[tuple]]:
    """(count, vectors) of enumerate_p_admissible: its lazy
    (stem, key, tails) rows flattened into one ascending list."""
    count, rows = enumerate_p_admissible(d, p, hmax)
    return count, [stem + tail for stem, _, tails in rows for tail in tails]


@pytest.fixture
def run_cli():
    return invoke_cli


def tokenize_dot(text: str) -> list[str]:
    """Minimal DOT tokenizer: statements of a digraph body, with quoted
    identifiers kept intact.  Raises ValueError on malformed input."""
    stripped = []
    for line in text.splitlines():
        line = line.split("//")[0].strip()
        if line:
            stripped.append(line)
    if not stripped or not stripped[0].startswith("digraph"):
        raise ValueError("not a digraph")
    if not stripped[0].endswith("{") or stripped[-1] != "}":
        raise ValueError("unbalanced braces")
    tokens = []
    for line in stripped[1:-1]:
        if not line.endswith(";"):
            raise ValueError(f"unterminated statement: {line!r}")
        tokens.append(line[:-1].strip())
    return tokens


def dot_nodes_and_edges(text: str) -> tuple[set[str], set[tuple[str, str]]]:
    nodes, edges = set(), set()
    for tok in tokenize_dot(text):
        if "->" in tok:
            left, right = (part.strip() for part in tok.split("->"))
            edges.add((left.strip('"'), right.strip('"')))
        elif tok.startswith('"'):
            nodes.add(tok.strip('"'))
    return nodes, edges
