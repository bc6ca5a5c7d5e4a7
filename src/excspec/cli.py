"""Command-line frontend: exact counts, ring reports, spectrum posets in
DOT/JSON/text, blueshift distances, vanishing queries, and ideal counts.

All output is byte-deterministic for fixed flags: node orders are sorted,
no floats are printed, and JSON uses fixed separators.  Exit codes:
0 success, 1 verification failure, 2 budget or usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import balmer, burnside, classify, combinat, hzspec, zariski
from .combinat import INF, BudgetError
from .poset import Poset, build_poset

__all__ = ["main"]


def _height_str(h) -> str:
    return "inf" if h is INF else str(h)


def balmer_label(pt: balmer.BalmerPrime) -> str:
    char = "*" if pt.height == 1 else str(pt.char)
    return f"P({pt.layer}|{char},{_height_str(pt.height)})"


def zariski_label(pt: zariski.ZariskiPrime) -> str:
    return f"z({pt.layer}|{pt.char})"


def hz_label(pt: hzspec.HZPrime) -> str:
    return f"hz({pt.layer}|{pt.residue})"


def poset_to_dot(poset: Poset, label, graph_name: str) -> str:
    lines = [f"digraph {graph_name} {{"]
    lines.append("  rankdir=TB;  // containment arrows point downward")
    lines.append("  node [shape=box];")
    for node in poset.points:
        lines.append(f'  "{label(node)}";')
    for a, b in sorted(poset.covers):
        lines.append(f'  "{label(poset.points[a])}" -> "{label(poset.points[b])}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_to_json(poset: Poset, point_dict) -> str:
    payload = {
        "points": [point_dict(node) for node in poset.points],
        "covers": [list(pair) for pair in sorted(poset.covers)],
        "relation": [list(pair) for pair in sorted(poset.relation)],
    }
    return json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"


def poset_to_text(poset: Poset, label) -> str:
    lines = [f"points: {len(poset.points)}"]
    lines.extend(f"  {label(node)}" for node in poset.points)
    lines.append(f"covers: {len(poset.covers)}")
    lines.extend(
        f"  {label(poset.points[a])} <= {label(poset.points[b])}"
        for a, b in sorted(poset.covers)
    )
    return "\n".join(lines) + "\n"


def _parse_primes(text: str) -> list[int]:
    try:
        primes = [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise BudgetError(f"bad prime list: {text!r}") from exc
    if not primes:
        raise BudgetError("prime list is empty")
    return primes


def _parse_natinf(text: str):
    if text == "inf":
        return INF
    return int(text)


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
    if args.table:
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
    if args.cokernel:
        invariants = burnside.cokernel_invariants(args.d)
        ok = burnside.factorial_product_group_matches(invariants, args.d)
        print("invariant factors:", " ".join(str(n) for n in invariants))
        print(
            "cokernel matches product of Z/i! for i = 1..%d: %s"
            % (args.d, "PASS" if ok else "FAIL")
        )
        return 0 if ok else 1
    # --check
    checks = {
        "ghost multiplicativity (seed=%d)" % args.seed: burnside.ghost_is_hom_check(
            args.d, trials=args.trials, seed=args.seed
        ),
    }
    if args.d <= 6:
        checks["triple associativity"] = burnside.quotient_presentation_check(args.d)
    pres = burnside.present(args.d)
    commutative = all(
        pres.multiply(pres.basis(i), pres.basis(j))
        == pres.multiply(pres.basis(j), pres.basis(i))
        for i in range(1, args.d + 1)
        for j in range(1, args.d + 1)
    )
    checks["commutativity"] = commutative
    unit = all(
        pres.multiply(pres.one(), pres.basis(i)) == pres.basis(i)
        for i in range(1, args.d + 1)
    )
    checks["unit"] = unit
    failed = False
    for name, ok in checks.items():
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
        failed = failed or not ok
    return 1 if failed else 0


def _spec_poset(args):
    primes = _parse_primes(args.primes)
    if args.variant == "zariski":
        poset = zariski.z_poset(args.d, primes)
        return poset, zariski_label, lambda q: {"layer": q.layer, "char": q.char}
    if args.variant == "hz":
        points = hzspec.hz_points(args.d, primes)
        if args.slice is not None:
            if args.slice != 0 and args.slice not in primes:
                raise ValueError(
                    f"--slice must be 0 or one of the primes, got {args.slice}"
                )
            points = [q for q in points if q.residue == args.slice]
        poset = build_poset(points, hzspec.hz_leq)
        return poset, hz_label, lambda q: {"layer": q.layer, "char": q.residue}
    trunc = balmer.b_truncation(
        args.d, primes, args.hmax, include_infinity=not args.no_inf
    )
    return (
        trunc,
        balmer_label,
        lambda q: {"layer": q.layer, "char": q.char, "height": _height_str(q.height)},
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
    print(_height_str(combinat.delta_p(args.p, args.k, args.l)))
    return 0


def cmd_smith(args) -> int:
    n, h = _parse_natinf(args.n), _parse_natinf(args.h)
    holds = balmer.smith_holds(args.d, args.p, args.k, args.l, n, h)
    a = balmer.balmer_prime(args.d, args.k, args.p, INF if n is INF else n + 1)
    b = balmer.balmer_prime(args.d, args.l, args.p, INF if h is INF else h + 1)
    print(f"{balmer_label(a)} <= {balmer_label(b)}: {holds}")
    print("HOLDS" if holds else "FAILS")
    return 0


def cmd_ideals(args) -> int:
    budget = int(os.environ.get("EXCSPEC_ENUM_BUDGET", classify.ENUM_BUDGET))
    count, functions = classify.enumerate_p_admissible(
        args.d, args.p, args.hmax, with_list=args.list, budget=budget
    )
    if args.list:
        rows = [[_height_str(v) for v in f] for f in sorted(
            functions, key=lambda f: tuple(balmer.height_sort_key(v) for v in f)
        )]
        if args.format == "json":
            print(json.dumps(rows, separators=(",", ":")))
        else:
            for row in rows:
                print("f = (" + ", ".join(row) + ")")
        return 0
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
    group.add_argument("--table", action="store_true")
    group.add_argument("--check", action="store_true")
    group.add_argument("--cokernel", action="store_true")
    p_ring.add_argument("--trials", type=int, default=50)
    p_ring.add_argument("--seed", type=int, default=0)
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
    group.add_argument("--count", action="store_true")
    group.add_argument("--list", action="store_true")
    fmt = p_ideals.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="format", action="store_const", const="json")
    fmt.add_argument("--csv", dest="format", action="store_const", const="csv")
    p_ideals.set_defaults(fn=cmd_ideals, format="text")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
