"""Command-line frontend: exact counts, ring reports, spectrum posets in
DOT/JSON/text, blueshift distances, vanishing queries, and ideal counts.

All output is byte-deterministic for fixed flags: node orders are sorted,
no floats are printed, and JSON uses fixed separators.  Exit codes:
0 success, 1 verification failure, 2 budget or usage error.  A reader
that closes stdout early (`excspec ideals 8 3 4 --list | head -1`) ends
the query with exit 0 and nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice

from . import balmer, burnside, classify, combinat, hzspec, zariski
from .combinat import INF, BudgetError
from .poset import Poset

__all__ = ["main"]

# The optional flags each mode of `ring` and `ideals` reads; giving any
# other is a usage error.
MODE_FLAGS = {
    "table": ("--json",),
    "check": ("--trials", "--seed"),
    "cokernel": (),
    "count": ("--csv",),
    "list": ("--json",),
}


def balmer_label(pt: balmer.BalmerPrime) -> str:
    char = "*" if pt.height == 1 else str(pt.char)
    return f"P({pt.layer}|{char},{pt.height})"


def zariski_label(pt: zariski.ZariskiPrime) -> str:
    return f"z({pt.layer}|{pt.char})"


def hz_label(pt: hzspec.HZPrime) -> str:
    return f"hz({pt.layer}|{pt.residue})"


def poset_to_dot(poset: Poset, label, graph_name: str) -> str:
    labels = [label(node) for node in poset.points]
    lines = [f"digraph {graph_name} {{"]
    lines.append("  rankdir=TB;  // containment arrows point downward")
    lines.append("  node [shape=box];")
    lines.extend(f'  "{text}";' for text in labels)
    lines.extend(f'  "{labels[a]}" -> "{labels[b]}";' for a, b in poset.covers)
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_to_json(poset: Poset, point_dict) -> str:
    # json.dumps writes the index-pair tuples as arrays
    payload = {
        "points": [point_dict(node) for node in poset.points],
        "covers": poset.covers,
        "relation": poset.relation,
    }
    return json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"


def poset_to_text(poset: Poset, label) -> str:
    labels = [label(node) for node in poset.points]
    lines = [f"points: {len(labels)}"]
    lines.extend(f"  {text}" for text in labels)
    lines.append(f"covers: {len(poset.covers)}")
    lines.extend(f"  {labels[a]} <= {labels[b]}" for a, b in poset.covers)
    return "\n".join(lines) + "\n"


def _parse_primes(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise ValueError(f"bad prime list: {text!r}") from exc


def _parse_natinf(text: str):
    if text == "inf":
        return INF
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"height must be an integer or 'inf', got {text!r}") from None


def _check_mode_flags(args) -> None:
    given = [f"--{name}" for name in ("trials", "seed") if name in args]
    if args.format != "text":
        given.append(f"--{args.format}")
    for flag in given:
        if flag not in MODE_FLAGS[args.mode]:
            raise ValueError(f"{flag} does not apply to {args.command} --{args.mode}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_mu(args) -> int:
    methods = {
        "brute": combinat.mu_brute,
        "incl-excl": combinat.mu_incl_excl,
        "stirling": combinat.mu_stirling,
    }
    if args.all:
        values = {}
        for name, fn in methods.items():
            try:
                values[name] = fn(args.i, args.j, args.k)
            except BudgetError:
                if name != "brute":
                    raise
        for name in sorted(methods):
            print(f"{name}: {values.get(name, 'skipped (budget)')}")
        if len(set(values.values())) == 1:
            print("AGREE")
            return 0
        print("DISAGREE")
        return 1
    print(methods[args.method](args.i, args.j, args.k))
    return 0


def cmd_ring(args) -> int:
    _check_mode_flags(args)
    if args.mode == "table":
        pres = burnside.present(args.d)
        if args.format == "json":
            payload = {
                "d": pres.d,
                "products": [
                    {"i": i, "j": j, "l": l, "mu": value}
                    for (i, j, l), value in sorted(pres.mu.items())
                    if i <= j
                ],
            }
            print(json.dumps(payload, separators=(",", ":"), sort_keys=True))
        else:
            for line in pres.table_lines():
                print(line)
        return 0
    if args.mode == "cokernel":
        invariants = burnside.cokernel_invariants(args.d)
        ok = burnside.factorial_product_group_matches(invariants, args.d)
        print("invariant factors:", " ".join(str(n) for n in invariants))
        print(
            "cokernel matches product of Z/i! for i = 1..%d: %s"
            % (args.d, "PASS" if ok else "FAIL")
        )
        return 0 if ok else 1
    options = {name: getattr(args, name) for name in ("trials", "seed") if name in args}
    checks = burnside.ring_check(args.d, **options)
    for name, ok in checks.items():
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
    return 0 if all(checks.values()) else 1


def _spec_poset(args):
    primes = _parse_primes(args.primes)
    if args.variant == "zariski":
        poset = zariski.z_poset(args.d, primes)
        return poset, zariski_label, lambda q: {"layer": q.layer, "char": q.char}
    if args.variant == "hz":
        poset = hzspec.hz_poset(args.d, primes, args.slice)
        return poset, hz_label, lambda q: {"layer": q.layer, "char": q.residue}
    trunc = balmer.b_truncation(
        args.d, primes, args.hmax, include_infinity=not args.no_inf
    )
    return (
        trunc,
        balmer_label,
        lambda q: {"layer": q.layer, "char": q.char, "height": str(q.height)},
    )


def cmd_spec(args) -> int:
    poset, label, point_dict = _spec_poset(args)
    if args.format == "dot":
        sys.stdout.write(poset_to_dot(poset, label, args.variant))
    elif args.format == "json":
        sys.stdout.write(poset_to_json(poset, point_dict))
    else:
        sys.stdout.write(poset_to_text(poset, label))
    return 0


def cmd_delta(args) -> int:
    print(combinat.delta_p(args.p, args.k, args.l))
    return 0


def cmd_smith(args) -> int:
    a, b = balmer.smith_points(
        args.d, args.p, args.k, args.l, _parse_natinf(args.n), _parse_natinf(args.h)
    )
    holds = balmer.b_leq(a, b)
    print(f"{balmer_label(a)} <= {balmer_label(b)}: {holds}")
    print("HOLDS" if holds else "FAILS")
    return 0


def write_ideal_rows(rows, hmax: int, fmt: str) -> None:
    """Write the (prefix, admitted) rows of classify.enumerate_p_admissible
    as they come: for "json" the bytes of json.dumps of the string rows
    with separators (",", ":"), otherwise one "f = (...)" line per
    vector.  Each value's text is made once and each prefix is formatted
    once, and the text goes out in chunks of prefixes, so neither the
    vectors nor the rows are ever held."""
    if fmt == "json":
        start, sep, end, head, piece, tail = "[", ",", "]\n", "[", '"{}",', '"{}"]'
    else:
        start, sep, end, head, piece, tail = "", "\n", "\n", "f = (", "{}, ", "{})"
    domain = classify.threshold_values(hmax)
    pieces = {v: piece.format(v) for v in domain}
    tails = {v: tail.format(v) for v in domain}

    def blocks():
        for prefix, admitted in rows:
            lead = head + "".join([pieces[v] for v in prefix])
            yield sep.join([lead + tails[v] for v in admitted])

    write = sys.stdout.write
    write(start)
    chunks = blocks()
    for i, chunk in enumerate(iter(lambda: sep.join(islice(chunks, 1024)), "")):
        write(sep + chunk if i else chunk)
    write(end)


def cmd_ideals(args) -> int:
    _check_mode_flags(args)
    if args.mode == "list":
        _, rows = classify.enumerate_p_admissible(args.d, args.p, args.hmax)
        write_ideal_rows(rows, args.hmax, args.format)
        return 0
    count = classify.count_p_admissible(args.d, args.p, args.hmax)
    if args.format == "csv":
        print("d,p,hmax,count")
        print(f"{args.d},{args.p},{args.hmax},{count}")
    else:
        print(count)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="excspec",
        description=(
            "Exact invariants of the degree-d window: ring tables, prime "
            "spectra as posets, blueshift distances and ideal counts."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mu = sub.add_parser("mu", help="good-subset count mu(i, j, k)")
    p_mu.add_argument("i", type=int)
    p_mu.add_argument("j", type=int)
    p_mu.add_argument("k", type=int)
    p_mu.add_argument(
        "--method",
        choices=("brute", "incl-excl", "stirling"),
        default="incl-excl",
    )
    p_mu.add_argument(
        "--all", action="store_true", help="run all three methods and compare"
    )
    p_mu.set_defaults(fn=cmd_mu)

    p_ring = sub.add_parser("ring", help="rank-d ring reports")
    p_ring.add_argument("d", type=int)
    group = p_ring.add_mutually_exclusive_group(required=True)
    for mode in ("table", "check", "cokernel"):
        group.add_argument(f"--{mode}", dest="mode", action="store_const", const=mode)
    # absent unless given, so that burnside.ring_check owns the defaults
    p_ring.add_argument("--trials", type=int, default=argparse.SUPPRESS)
    p_ring.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p_ring.add_argument(
        "--json", dest="format", action="store_const", const="json"
    )
    p_ring.set_defaults(fn=cmd_ring, format="text")

    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("-d", type=int, required=True)
    window.add_argument("-p", "--primes", required=True, help="e.g. 2,3,5")
    fmt = window.add_mutually_exclusive_group()
    fmt.add_argument(
        "--dot", dest="format", action="store_const", const="dot"
    )
    fmt.add_argument(
        "--json", dest="format", action="store_const", const="json"
    )
    fmt.add_argument(
        "--text", dest="format", action="store_const", const="text"
    )
    window.set_defaults(fn=cmd_spec, format="text")

    p_spec = sub.add_parser("spec", help="spectrum posets")
    variants = p_spec.add_subparsers(dest="variant", required=True)
    variants.add_parser("zariski", parents=[window], help="prime-ideal spectrum")
    p_balmer = variants.add_parser(
        "balmer", parents=[window], help="truncated tensor-triangular spectrum"
    )
    p_balmer.add_argument("-H", "--hmax", type=int, default=2)
    p_balmer.add_argument(
        "--no-inf", action="store_true", help="omit height-infinity points"
    )
    p_hz = variants.add_parser(
        "hz", parents=[window], help="integral-coefficient spectrum"
    )
    p_hz.add_argument(
        "--slice",
        type=int,
        default=None,
        help="restrict to one residue characteristic",
    )

    p_delta = sub.add_parser("delta", help="blueshift distance delta_p(k, l)")
    p_delta.add_argument("p", type=int)
    p_delta.add_argument("k", type=int)
    p_delta.add_argument("l", type=int)
    p_delta.set_defaults(fn=cmd_delta)

    p_smith = sub.add_parser(
        "smith", help="conditional-vanishing query between derivatives"
    )
    p_smith.add_argument("d", type=int)
    p_smith.add_argument("p", type=int)
    p_smith.add_argument("k", type=int)
    p_smith.add_argument("l", type=int)
    p_smith.add_argument("n", help="height, integer or 'inf'")
    p_smith.add_argument("h", help="height, integer or 'inf'")
    p_smith.set_defaults(fn=cmd_smith)

    p_ideals = sub.add_parser(
        "ideals", help="p-admissible threshold functions on a height window"
    )
    p_ideals.add_argument("d", type=int)
    p_ideals.add_argument("p", type=int)
    p_ideals.add_argument("hmax", type=int)
    group = p_ideals.add_mutually_exclusive_group(required=True)
    for mode in ("count", "list"):
        group.add_argument(f"--{mode}", dest="mode", action="store_const", const=mode)
    fmt = p_ideals.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="format", action="store_const", const="json")
    fmt.add_argument("--csv", dest="format", action="store_const", const="csv")
    p_ideals.set_defaults(fn=cmd_ideals, format="text")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except (BudgetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader took what it wanted; the final flush goes nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
