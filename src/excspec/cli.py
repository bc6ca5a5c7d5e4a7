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

from . import balmer, burnside, classify, combinat, hzspec, zariski
from .combinat import INF, BudgetError
from .poset import Poset

__all__ = ["guarded", "main"]

WRITE_CHUNK = 1 << 16  # characters of `ideals --list` text per write

# The optional flags each mode of `ring` and `ideals` reads; giving any
# other is a usage error.
MODE_FLAGS = {
    "table": ("--json",),
    "check": ("--trials", "--seed"),
    "cokernel": (),
    "count": ("--csv",),
    "list": ("--json",),
}


def poset_to_dot(poset: Poset, graph_name: str) -> str:
    labels = [node.label() for node in poset.points]
    lines = [f"digraph {graph_name} {{"]
    lines.append("  rankdir=TB;  // containment arrows point downward")
    lines.append("  node [shape=box];")
    lines.extend(f'  "{text}";' for text in labels)
    lines.extend(f'  "{labels[a]}" -> "{labels[b]}";' for a, b in poset.covers)
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_to_json(poset: Poset) -> str:
    # json.dumps writes the index-pair tuples as arrays
    payload = {
        "points": [node.json_fields() for node in poset.points],
        "covers": poset.covers,
        "relation": poset.relation,
    }
    return json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"


def poset_to_text(poset: Poset) -> str:
    labels = [node.label() for node in poset.points]
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
        table = burnside.present(args.d).table()
        if args.format == "json":
            payload = {"d": args.d, "products": [
                {"i": i, "j": j, "l": l, "mu": v} for i, j, terms in table for l, v in terms
            ]}
            print(json.dumps(payload, separators=(",", ":"), sort_keys=True))
        else:
            for i, j, terms in table:
                rhs = " + ".join(f"{value} x{l}" for l, value in terms)
                print(f"x{i}*x{j} = {rhs or 0}")
        return 0
    if args.mode == "cokernel":
        invariants = burnside.cokernel_invariants(args.d)
        print("invariant factors:", " ".join(str(n) for n in invariants))
        name = f"cokernel matches product of Z/i! for i = 1..{args.d}"
        verdicts = {name: burnside.factorial_product_group_matches(invariants, args.d)}
    else:
        options = {name: getattr(args, name) for name in ("trials", "seed") if name in args}
        verdicts = burnside.ring_check(args.d, **options)
    for name, ok in verdicts.items():
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
    return 0 if all(verdicts.values()) else 1


def _spec_poset(args) -> Poset:
    primes = _parse_primes(args.primes)
    if args.variant == "zariski":
        return zariski.z_poset(args.d, primes)
    if args.variant == "hz":
        return hzspec.hz_poset(args.d, primes, args.slice)
    return balmer.b_truncation(args.d, primes, args.hmax, include_infinity=not args.no_inf)


def cmd_spec(args) -> int:
    poset = _spec_poset(args)
    if args.format == "dot":
        sys.stdout.write(poset_to_dot(poset, args.variant))
    elif args.format == "json":
        sys.stdout.write(poset_to_json(poset))
    else:
        sys.stdout.write(poset_to_text(poset))
    return 0


def cmd_delta(args) -> int:
    print(combinat.delta_p(args.p, args.k, args.l))
    return 0


def cmd_smith(args) -> int:
    a, b = balmer.smith_points(
        args.d, args.p, args.k, args.l, _parse_natinf(args.n), _parse_natinf(args.h)
    )
    holds = balmer.b_leq(a, b)
    print(f"{a.label()} <= {b.label()}: {holds}")
    print("HOLDS" if holds else "FAILS")
    return 0


def write_ideal_rows(rows, hmax: int, fmt: str) -> None:
    """Write the (stem, key, tails) rows of
    classify.enumerate_p_admissible as they come: for "json" the bytes
    of json.dumps of the string rows with separators (",", ":"),
    otherwise one "f = (...)" line per vector.  Each value's text is
    made once for the first place of a vector and once for a later one.
    The tails of rows with one key are prefixes of one tuple, so their
    texts, the completions, are made once per key and sliced; a row is
    written as lead + (sep + lead).join(completions), where lead is the
    text of its stem.  The text goes out in chunks of about WRITE_CHUNK
    characters, so neither the vectors nor the rows are ever held."""
    if fmt == "json":
        start, sep, end, head, first, later, close = "[", ",", "]\n", "[", '"{}"', ',"{}"', "]"
    else:
        start, sep, end, head, first, later, close = "", "\n", "\n", "f = (", "{}", ", {}", ")"
    domain = classify.threshold_values(hmax)
    first_text, later_text = ({v: form.format(v) for v in domain} for form in (first, later))

    def values_text(values, place):
        # the text of `values`, the first of which is at `place` in its vector
        if place or not values:
            return "".join(map(later_text.__getitem__, values))
        return first_text[values[0]] + "".join(map(later_text.__getitem__, values[1:]))

    def chunks():
        completions, batch, size = {}, [], 0
        for stem, key, tails in rows:
            done = completions.setdefault(key, [])
            if len(done) < len(tails):
                done += [values_text(tail, len(stem)) + close for tail in tails[len(done) :]]
            lead = head + values_text(stem, 0)
            batch.append(lead + (sep + lead).join(done[: len(tails)]))
            size += len(batch[-1])
            if size >= WRITE_CHUNK:
                yield sep.join(batch)
                batch, size = [], 0
        if batch:
            yield sep.join(batch)

    write = sys.stdout.write
    write(start)
    for i, chunk in enumerate(chunks()):
        write(sep + chunk if i else chunk)
    write(end)


def _int_text(n: int) -> str:
    """Decimal text of n at any length.  The interpreter's guard on
    int -> str (4300 digits, where it exists) is lifted for this one
    conversion and restored before anything is printed, so argv parsing
    and an in-process caller keep it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(n)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def cmd_ideals(args) -> int:
    _check_mode_flags(args)
    if args.mode == "list":
        _, rows = classify.enumerate_p_admissible(args.d, args.p, args.hmax)
        write_ideal_rows(rows, args.hmax, args.format)
        return 0
    count = _int_text(classify.count_p_admissible(args.d, args.p, args.hmax))
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


def guarded(body) -> int:
    """The exit-code contract of every entry point: run body(), flush
    stdout and return the body's code; a BudgetError or ValueError is one
    `error:` line on stderr and exit 2, and a reader that closed stdout
    early is exit 0 with nothing on stderr."""
    try:
        code = body()
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except (BudgetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader took what it wanted; the final flush goes nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return guarded(lambda: args.fn(args))


if __name__ == "__main__":
    sys.exit(main())
