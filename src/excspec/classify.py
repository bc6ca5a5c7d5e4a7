"""Classification of thick tensor-ideals on a truncated height window.

A thick ideal corresponds to a height-threshold function: layer-k points
of char p enter the ideal's support exactly above the threshold f(k, p).
The thresholds cannot be arbitrary: stepping down p-1 | k-l layers costs
at most the blueshift distance delta_p(k, l) in height, which is the
admissibility inequality f(k,p) <= delta_p(k,l) + f(l,p).

The full classification is infinite; a truncation at Hmax is its
faithful finite shadow.  A threshold function is *visible* at Hmax when
every column it cuts within the window retains a finite-height witness,
i.e. whenever f(k, p) = Hmax there is some p-1 | k-l >= 0 with
f(l, p) < Hmax.  Visible functions biject with the valid Thomason
subsets of the truncation; functions with finite values above Hmax are
indistinguishable from f = Hmax in the window and need a larger window.
Reconstruction therefore reports Hmax for a column whose shadow consists
of the height-infinity point alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .balmer import BalmerPrime, SpectrumTruncation
from .combinat import INF, BudgetError, NatInfinity, check_window, delta_p

__all__ = [
    "PAdmissibleFunction",
    "AdmissibleFunction",
    "TruncationError",
    "is_p_admissible",
    "is_admissible",
    "thomason_from_function",
    "function_from_thomason",
    "count_p_admissible",
    "enumerate_p_admissible",
    "thomason_union_closure",
    "validate_thomason",
]

ENUM_BUDGET = 10**7
DP_BUDGET = 10**6


class TruncationError(Exception):
    """The height window is too small to represent the requested
    threshold function faithfully."""


@dataclass(frozen=True)
class AdmissibleFunction:
    """Threshold function over a finite characteristic scope: values
    maps (layer, p) to the cut height, a non-negative int (not a bool)
    or INF."""

    d: int
    primes: tuple[int, ...]
    values: tuple[tuple[NatInfinity, ...], ...]  # indexed [prime][layer]

    def __post_init__(self):
        if len(set(self.primes)) != len(self.primes):
            raise ValueError(f"repeated prime in {self.primes}")
        check_window(self.d, self.primes)
        if len(self.values) != len(self.primes):
            raise ValueError("need one row of values per prime")
        for row in self.values:
            if len(row) != self.d:
                raise ValueError("values length must equal d")
            for v in row:
                if v != INF and (type(v) is not int or v < 0):
                    raise ValueError(f"threshold must be an int >= 0 or INF, got {v!r}")

    def value(self, k: int, p: int) -> NatInfinity:
        return self.values[self.primes.index(p)][k - 1]


def PAdmissibleFunction(d: int, p: int, values) -> AdmissibleFunction:
    """The threshold function of the single characteristic p:
    values[k-1] is the cut height at layer k."""
    return AdmissibleFunction(d, (p,), (tuple(values),))


@lru_cache(maxsize=None)
def _coupling_table(p: int, d: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Entry k-1 lists the pairs (l, delta_p(k, l)) with l < k and delta
    finite: the earlier layers whose thresholds bound layer k's."""
    check_window(d, (p,))
    table = []
    for k in range(1, d + 1):
        deltas = ((l, delta_p(p, k, l)) for l in range(1, k))
        table.append(tuple((l, delta) for l, delta in deltas if delta != INF))
    return tuple(table)


def _ceiling(pairs, values) -> NatInfinity:
    """The largest threshold a layer admits, given the values of the
    earlier layers its coupling-table entry `pairs` names: the minimum
    of delta_p(k, l) + f(l), and INF when there are none.  This is the
    admissibility inequality f(k) <= delta_p(k, l) + f(l), stated once."""
    return min([delta + values[l - 1] for l, delta in pairs]) if pairs else INF


def is_p_admissible(values, p: int, d: int) -> bool:
    """Whether every value is at most its layer's ceiling, that is,
    f(k) <= delta_p(k, l) + f(l) for every pair with p-1 | k-l >= 0.
    The input is checked by AdmissibleFunction."""
    values = PAdmissibleFunction(d, p, values).values[0]
    return all(
        v <= _ceiling(pairs, values)
        for v, pairs in zip(values, _coupling_table(p, d))
    )


def is_admissible(f: AdmissibleFunction) -> bool:
    """Both classification conditions: the per-prime inequality, and
    coherence of zero values across primes (a zero cut at layer k for
    one prime forces it for all, since the height-1 point is shared)."""
    if not all(is_p_admissible(row, p, f.d) for p, row in zip(f.primes, f.values)):
        return False
    return all(
        all(v == 0 for v in column) or not any(v == 0 for v in column)
        for column in zip(*f.values)
    )


def validate_thomason(points: frozenset, trunc: SpectrumTruncation) -> None:
    """Raise with a witness point unless `points` is a valid Thomason
    subset of the truncation: specialization-closed, with every member
    lying under some finite-height member.  `down_closure` rejects a
    point outside the truncation."""
    missing = trunc.down_closure(points) - points
    if missing:
        a = next(q for q in trunc.points if q in missing)
        b = next(b for b in trunc.points if b in points and trunc.leq(a, b))
        raise ValueError(f"not specialization-closed: {a} lies under member {b}")
    uncovered = points - trunc.down_closure(q for q in points if q.height != INF)
    if uncovered:
        pt = next(q for q in trunc.points if q in uncovered)
        raise ValueError(f"member {pt} lies under no finite-height member")


def thomason_from_function(f, trunc: SpectrumTruncation) -> frozenset:
    """The point set cut out by a threshold function: points of height
    strictly above the threshold of their column.  Rejects non-admissible
    input; raises :class:`TruncationError` when the window is too small
    to carry a faithful shadow of f."""
    if not isinstance(f, AdmissibleFunction):
        raise TypeError(f"expected an admissible function, got {type(f)!r}")
    if f.d != trunc.d or set(f.primes) != set(trunc.primes):
        raise ValueError("function scope does not match truncation")
    if not is_admissible(f):
        raise ValueError("function is not admissible")
    members = set()
    for pt in trunc.points:
        if pt.height == 1:
            # the rational point is shared by all primes; admissibility
            # condition (b) makes the zero test prime-independent
            if any(f.value(pt.layer, p) == 0 for p in f.primes):
                members.add(pt)
        elif pt.height > f.value(pt.layer, pt.char):
            members.add(pt)
    members = frozenset(members)
    try:
        validate_thomason(members, trunc)
    except ValueError as exc:
        raise TruncationError(
            f"threshold function is not visible at hmax={trunc.hmax}: {exc}"
        ) from exc
    return members


def function_from_thomason(Y, trunc: SpectrumTruncation) -> AdmissibleFunction:
    """Recover the threshold function of a valid Thomason subset:
    one less than the minimal finite member height of each column, with
    Hmax for a column whose only member is the height-infinity point
    (the window boundary) and infinity for an empty column."""
    points = frozenset(Y)
    validate_thomason(points, trunc)
    rows = []
    for p in trunc.primes:
        row = []
        for k in range(1, trunc.d + 1):
            finite_heights = [
                pt.height
                for pt in points
                if pt.layer == k
                and pt.height != INF
                and (pt.height == 1 or pt.char == p)
            ]
            if finite_heights:
                row.append(min(finite_heights) - 1)
            elif trunc.include_infinity and BalmerPrime(k, p, INF) in points:
                row.append(trunc.hmax)
            else:
                row.append(INF)
        rows.append(tuple(row))
    return AdmissibleFunction(trunc.d, trunc.primes, tuple(rows))


def count_p_admissible(d: int, p: int, hmax: int, budget: NatInfinity | None = None) -> int:
    """Count the threshold vectors over the value set {0, ..., hmax, inf}
    satisfying the per-prime inequality, without listing them.

    The inequality couples only layers in one residue class mod p-1, so
    the count is a product over the classes.  Within a class a forward DP
    takes the layers in order.  Its state is the tuple of pending
    ceilings of the class's later layers, each capped at hmax (a finite
    ceiling above hmax admits the same values) or INF, and it maps to
    the number of prefixes that reach it.

    The budget, DP_BUDGET unless given, bounds the entries the DP
    computes: the coupling table's d(d-1)/2; for each value of each
    layer, a tuple of bounds on the later layers of its class, charged
    its length plus one; and for each state, its length times the values
    its first layer admits.  The first two are known in advance and
    refused before any work.
    """
    check_window(d, (p,))
    if hmax < 0:
        raise ValueError("need hmax >= 0")
    limit = DP_BUDGET if budget is None else budget
    work = 0

    def spend(entries: int) -> None:
        nonlocal work
        work += entries
        if work > limit:
            raise BudgetError(f"DP budget exceeded: more than {limit} entries")

    classes = [range(first, d + 1, p - 1) for first in range(1, min(p - 1, d) + 1)]
    spend(d * (d - 1) // 2 + (hmax + 2) * sum(len(c) * (len(c) + 1) // 2 for c in classes))
    domain: tuple[NatInfinity, ...] = tuple(range(hmax + 1)) + (INF,)
    table = _coupling_table(p, d)
    values: list[NatInfinity] = [INF] * d  # the one value each bound reads
    total = 1
    for layers in classes:
        deltas = [dict(table[m - 1]) for m in layers]
        frontier = {(INF,) * len(layers): 1}
        for i, k in enumerate(layers):
            # bounds[v]: the capped ceilings that f(k) = v puts on the
            # class's later layers; a state takes their pointwise minimum
            later = [((k, row[k]),) if k in row else () for row in deltas[i + 1 :]]
            bounds = []
            for v in domain:
                values[k - 1] = v
                ceilings = (_ceiling(pairs, values) for pairs in later)
                bounds.append(tuple(c if c == INF else min(c, hmax) for c in ceilings))
            step: dict[tuple[NatInfinity, ...], int] = {}
            for pending, ways in frontier.items():
                ceiling, rest = pending[0], pending[1:]
                admitted = bounds if ceiling == INF else bounds[: ceiling + 1]
                spend(len(admitted) * len(pending))
                for bound in admitted:
                    state = tuple(map(min, rest, bound))
                    step[state] = step.get(state, 0) + ways
            frontier = step
        total *= frontier[()]
    return total


def _rows(d: int, hmax: int, table):
    """The admissible vectors in ascending order, as (prefix, admitted):
    each admissible prefix of layers 1..d-1 with the values layer d
    admits under it.  The walk keeps one iterator per layer on an
    explicit stack."""
    domain: tuple[NatInfinity, ...] = tuple(range(hmax + 1)) + (INF,)

    def admitted(prefix):
        # domain[v] == v for finite v, so the values up to a finite
        # ceiling are the first min(ceiling, hmax) + 1 of the domain
        ceiling = _ceiling(table[len(prefix)], prefix)
        return domain if ceiling == INF else domain[: min(ceiling, hmax) + 1]

    if d == 1:
        yield (), domain
        return
    prefix: list[NatInfinity] = [INF]  # the last slot is the layer being chosen
    stack = [iter(domain)]
    while stack:
        for v in stack[-1]:
            prefix[-1] = v
            if len(prefix) < d - 1:
                stack.append(iter(admitted(prefix)))
                prefix.append(INF)
                break
            yield tuple(prefix), admitted(prefix)
        else:
            stack.pop()
            prefix.pop()


def enumerate_p_admissible(
    d: int,
    p: int,
    hmax: int,
    with_list: bool = False,
):
    """Count and optionally list the threshold vectors over the value set
    {0, ..., hmax, inf} satisfying the per-prime inequality.

    Returns (count, rows): the count comes from count_p_admissible, and
    rows is None, or with with_list a lazy walk of (prefix, admitted)
    pairs, each an admissible prefix of layers 1..d-1 with the values
    layer d admits under it.  Flattened, the rows list the vectors in
    ascending order (lexicographic, inf last).  Since the inequality
    always bounds the larger layer, the walk prunes exactly.  A window
    with more than ENUM_BUDGET candidate vectors is refused before any
    row.
    """
    check_window(d, (p,))
    if hmax < 0:
        raise ValueError("need hmax >= 0")
    if (hmax + 2) ** d > ENUM_BUDGET:
        raise BudgetError(
            f"enumeration budget exceeded: ({hmax + 2})**{d} > {ENUM_BUDGET}"
        )
    # the DP's work is within a small multiple of the walk's, so the
    # enumeration budget bounds both
    count = count_p_admissible(d, p, hmax, budget=INF)
    return count, _rows(d, hmax, _coupling_table(p, d)) if with_list else None


def thomason_union_closure(seeds, trunc: SpectrumTruncation) -> frozenset:
    """Union of the specialization-closures of finite-height seed points;
    always a valid Thomason subset.  A height-infinity seed is rejected:
    its closure alone has no finite-height witness."""
    seed_list = list(seeds)
    for s in seed_list:
        if s.height == INF:
            raise ValueError(f"infinite-height seed {s} is not allowed")
    members = trunc.down_closure(seed_list)
    validate_thomason(members, trunc)
    return members
