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

from bisect import bisect_left
from dataclasses import dataclass

from .balmer import BalmerPrime, SpectrumTruncation
from .combinat import (
    INF, BudgetError, NatInfinity, check_height, check_layer, check_window, delta_p,
    layer_class,
)

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
    "threshold_values",
    "thomason_union_closure",
    "validate_thomason",
]

ENUM_BUDGET = 10**7
DP_BUDGET = 10**6
TAIL_SPAN = 256  # most candidate tails of one stem the listing walk keeps


class TruncationError(Exception):
    """The height window is too small to represent the requested
    threshold function faithfully."""


@dataclass(frozen=True)
class AdmissibleFunction:
    """Threshold function over a finite characteristic scope: values
    maps (layer, p) to the cut height, a non-negative int (not a bool)
    or INF.  Canonical by construction: the primes are stored ascending,
    each carrying its row, and every row is a tuple, so two spellings
    of one function are equal and hash alike."""

    d: int
    primes: tuple[int, ...]
    values: tuple[tuple[NatInfinity, ...], ...]  # indexed [prime][layer]

    def __post_init__(self):
        if len(set(self.primes)) != len(self.primes):
            raise ValueError(f"repeated prime in {self.primes}")
        primes = check_window(self.d, self.primes)
        if len(self.values) != len(self.primes):
            raise ValueError("need one row of values per prime")
        rows = dict(zip(self.primes, map(tuple, self.values)))
        for row in rows.values():
            if len(row) != self.d:
                raise ValueError("values length must equal d")
            for v in row:
                check_height("threshold", v, 0, infinite=True)
        object.__setattr__(self, "primes", primes)
        object.__setattr__(self, "values", tuple(rows[p] for p in primes))

    def value(self, k: int, p: int) -> NatInfinity:
        check_layer(self.d, k)
        return self.values[self.primes.index(p)][k - 1]


def PAdmissibleFunction(d: int, p: int, values) -> AdmissibleFunction:
    """The threshold function of the single characteristic p:
    values[k-1] is the cut height at layer k."""
    return AdmissibleFunction(d, (p,), (values,))


def threshold_values(hmax: int) -> tuple[NatInfinity, ...]:
    """The value set {0, ..., hmax, inf} of a threshold on the window,
    ascending; entry v is v for every finite v."""
    return (*range(hmax + 1), INF)


def _widths(p: int, k: int, later, hmax: int) -> list[tuple[int, ...]]:
    """Entry i: the widths of the domain prefixes that layer k at
    domain[i] = v admits on each layer m of `later`.  The admissibility
    inequality f(m) <= delta_p(m, k) + f(k), capped at hmax: a finite
    v + delta_p(m, k) admits the first min(v + delta, hmax) + 1 values
    (domain[v] == v for finite v), and INF all of them."""
    domain = threshold_values(hmax)
    deltas = [delta_p(p, m, k) for m in later]
    return [
        tuple(
            len(domain) if v + delta == INF else min(v + delta, hmax) + 1
            for delta in deltas
        )
        for v in domain
    ]


def is_p_admissible(values, p: int, d: int) -> bool:
    """Whether f(k) <= delta_p(k, l) + f(l) for every pair with
    p-1 | k-l > 0, the admissibility inequality uncapped.  The input is
    checked by AdmissibleFunction."""
    values = PAdmissibleFunction(d, p, values).values[0]
    return all(
        v <= delta_p(p, k, l) + values[l - 1]
        for k, v in enumerate(values, 1)
        for l in layer_class(p, k)[:-1]
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
    """Count the threshold vectors over `threshold_values(hmax)`
    satisfying the per-prime inequality, without listing them.

    The inequality couples only layers in one residue class mod p-1, so
    the count is a product over the classes, the `layer_class` of each
    of the last p-1 layers.  A forward DP takes each class's layers in
    order.  Its state, the tuple of pending widths of the later layers,
    each the number of values in the domain prefix that layer admits
    (`_widths`), maps to the number of prefixes that reach it.

    The budget, DP_BUDGET unless given, bounds the entries the DP
    computes: for each value of each layer, a tuple of bounds on the
    later layers of its class, charged its length plus one; and for each
    state, its length times the values its first layer admits.  The
    first is known in advance and refused before any work.
    """
    check_window(d, (p,))
    check_height("hmax", hmax, 0)
    limit = DP_BUDGET if budget is None else budget
    work = 0

    def spend(entries: int) -> None:
        nonlocal work
        work += entries
        if work > limit:
            raise BudgetError(f"DP budget exceeded: more than {limit} entries")

    classes = [layer_class(p, k) for k in range(max(1, d - p + 2), d + 1)]
    spend((hmax + 2) * sum(len(c) * (len(c) + 1) // 2 for c in classes))
    domain = threshold_values(hmax)
    total = 1
    for layers in classes:
        frontier = {(len(domain),) * len(layers): 1}
        for i, k in enumerate(layers):
            # a state takes the pointwise minimum of its pending widths
            # and the widths its value of layer k puts on the later layers
            bounds = _widths(p, k, layers[i + 1 :], hmax)
            step: dict[tuple[int, ...], int] = {}
            for pending, ways in frontier.items():
                rest = pending[1:]
                admitted = bounds[: pending[0]]
                spend(len(admitted) * len(pending))
                for bound in admitted:
                    state = tuple(map(min, rest, bound))
                    step[state] = step.get(state, 0) + ways
            frontier = step
        total *= frontier[()]
    return total


def _rows(d: int, p: int, hmax: int):
    """The admissible vectors in ascending order, as (stem, key, tails)
    rows: each admissible prefix `stem` of the first d - t layers, and
    the admissible values of the last t layers under it, ascending.

    As the count DP does, the walk carries the pending widths of the
    later layers down to each node (`_widths`), so that a node's
    admitted values are one slice of the domain.  A stem's tails depend
    only on the widths it leaves on the last t layers, and its width on
    the first of them only cuts them short.  So the rows with one `key`,
    the widths on the other t - 1, hold prefixes of one tuple of tails,
    built once.  t is the most layers, at least 1 and at most d, whose
    (hmax + 2)**t candidates stay within TAIL_SPAN, so the tuples kept
    hold at most TAIL_SPAN**2 / (hmax + 2) tails in all, or hmax + 2
    when that alone is past TAIL_SPAN."""
    domain = threshold_values(hmax)
    depth = 1
    while depth < d and len(domain) ** (depth + 1) <= TAIL_SPAN:
        depth += 1

    # bounds[k][i]: the widths that layer k+1 = domain[i] puts on layers
    # k+2..d
    bounds = [_widths(p, k, range(k + 1, d + 1), hmax) for k in range(1, d + 1)]

    def extend(nodes, layer):
        # each (stem, widths) node's children on `layer`, in order
        return (
            (stem + (v,), tuple(map(min, widths[1:], bound)))
            for stem, widths in nodes
            for v, bound in zip(domain[: widths[0]], layer)
        )

    def walk(start, widths, stop):
        # each admissible run of values on layers start+1..stop, in
        # order, with the widths it leaves on the layers after them: one
        # lazy stage per layer
        nodes = iter([((), widths)])
        for k in range(start, stop):
            nodes = extend(nodes, bounds[k])
        return nodes

    cut, tails = d - depth, {}
    for stem, widths in walk(0, (len(domain),) * d, cut):
        key = widths[1:]
        if key not in tails:
            vectors = tuple(tail for tail, _ in walk(cut, (len(domain), *key), d))
            # min(v, hmax + 1) is the index of v in the domain
            tails[key] = vectors, [min(tail[0], hmax + 1) for tail in vectors]
        vectors, firsts = tails[key]
        yield stem, key, vectors[: bisect_left(firsts, widths[0])]


def enumerate_p_admissible(d: int, p: int, hmax: int):
    """Count and list the threshold vectors over `threshold_values(hmax)`
    satisfying the per-prime inequality.

    Returns (count, rows): the count comes from count_p_admissible, and
    rows is the lazy walk of `_rows`, (stem, key, tails) triples whose
    vectors are stem + tail for each tail in tails; it costs nothing
    until it is read.  The tails of rows with one key are prefixes of
    one tuple.
    Flattened, the rows list the vectors in ascending order
    (lexicographic, inf last).  Since the inequality always bounds the
    larger layer, the walk prunes exactly.
    A window with more than ENUM_BUDGET candidate vectors is refused
    before any row.
    """
    check_window(d, (p,))
    check_height("hmax", hmax, 0)
    if (hmax + 2) ** d > ENUM_BUDGET:
        raise BudgetError(
            f"enumeration budget exceeded: ({hmax + 2})**{d} > {ENUM_BUDGET}"
        )
    # the DP's work is within a small multiple of the walk's, so the
    # enumeration budget bounds both
    count = count_p_admissible(d, p, hmax, budget=INF)
    return count, _rows(d, p, hmax)


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
