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
    "ThomasonSubset",
    "TruncationError",
    "is_p_admissible",
    "is_admissible",
    "thomason_from_function",
    "function_from_thomason",
    "enumerate_p_admissible",
    "thomason_union_closure",
    "validate_thomason",
]

ENUM_BUDGET = 10**7


class TruncationError(Exception):
    """The height window is too small to represent the requested
    threshold function faithfully."""


@dataclass(frozen=True)
class PAdmissibleFunction:
    """Threshold vector for a single characteristic: values[k-1] is the
    cut height at layer k."""

    d: int
    p: int
    values: tuple[NatInfinity, ...]

    def __post_init__(self):
        if len(self.values) != self.d:
            raise ValueError("values length must equal d")


@dataclass(frozen=True)
class AdmissibleFunction:
    """Threshold function over a finite characteristic scope: values
    maps (layer, p) to the cut height."""

    d: int
    primes: tuple[int, ...]
    values: tuple[tuple[NatInfinity, ...], ...]  # indexed [prime][layer]

    def value(self, k: int, p: int) -> NatInfinity:
        return self.values[self.primes.index(p)][k - 1]

    def restrict(self, p: int) -> PAdmissibleFunction:
        return PAdmissibleFunction(self.d, p, self.values[self.primes.index(p)])


@dataclass(frozen=True)
class ThomasonSubset:
    """A validated specialization-closed point set inside a truncation."""

    truncation: SpectrumTruncation
    points: frozenset

    def __contains__(self, point: BalmerPrime) -> bool:
        return point in self.points

    def __len__(self) -> int:
        return len(self.points)


@lru_cache(maxsize=None)
def _coupling_table(p: int, d: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Entry k-1 lists the pairs (l, delta_p(k, l)) with l < k and delta
    finite: the earlier layers whose thresholds bound layer k's."""
    table = []
    for k in range(1, d + 1):
        deltas = ((l, delta_p(p, k, l)) for l in range(1, k))
        table.append(tuple((l, delta) for l, delta in deltas if delta is not INF))
    return tuple(table)


def is_p_admissible(values, p: int, d: int) -> bool:
    """Whether f(k) <= delta_p(k, l) + f(l) for every pair with
    p-1 | k-l >= 0.  This inequality *is* the classification condition;
    every other admissibility check routes through here or through the
    same coupling table."""
    values = tuple(values)
    if len(values) != d:
        raise ValueError("values length must equal d")
    for v, pairs in zip(values, _coupling_table(p, d)):
        for l, delta in pairs:
            if not v <= delta + values[l - 1]:
                return False
    return True


def is_admissible(f: AdmissibleFunction) -> bool:
    """Both classification conditions: the per-prime inequality, and
    coherence of zero values across primes (a zero cut at layer k for
    one prime forces it for all, since the height-1 point is shared)."""
    for p in f.primes:
        if not is_p_admissible(f.values[f.primes.index(p)], p, f.d):
            return False
    for k in range(1, f.d + 1):
        column = [f.value(k, p) for p in f.primes]
        if any(v == 0 for v in column) and not all(v == 0 for v in column):
            return False
    return True


def validate_thomason(points: frozenset, trunc: SpectrumTruncation) -> None:
    """Raise with a witness point unless `points` is a valid Thomason
    subset of the truncation: specialization-closed, with every member
    lying under some finite-height member."""
    for pt in points:
        if pt not in trunc:
            raise ValueError(f"point {pt} not in truncation")
    missing = trunc.down_closure(points) - points
    if missing:
        a = next(q for q in trunc.points if q in missing)
        b = next(b for b in points if trunc.leq(a, b))
        raise ValueError(f"not specialization-closed: {a} lies under member {b}")
    uncovered = points - trunc.down_closure(q for q in points if q.height is not INF)
    if uncovered:
        pt = next(q for q in trunc.points if q in uncovered)
        raise ValueError(f"member {pt} lies under no finite-height member")


def _as_admissible(f) -> AdmissibleFunction:
    if isinstance(f, AdmissibleFunction):
        return f
    if isinstance(f, PAdmissibleFunction):
        return AdmissibleFunction(f.d, (f.p,), (f.values,))
    raise TypeError(f"expected an admissible function, got {type(f)!r}")


def thomason_from_function(f, trunc: SpectrumTruncation) -> ThomasonSubset:
    """The point set cut out by a threshold function: points of height
    strictly above the threshold of their column.  Rejects non-admissible
    input; raises :class:`TruncationError` when the window is too small
    to carry a faithful shadow of f."""
    f = _as_admissible(f)
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
    return ThomasonSubset(trunc, members)


def function_from_thomason(Y, trunc: SpectrumTruncation) -> AdmissibleFunction:
    """Recover the threshold function of a valid Thomason subset:
    one less than the minimal finite member height of each column, with
    Hmax for a column whose only member is the height-infinity point
    (the window boundary) and infinity for an empty column."""
    points = Y.points if isinstance(Y, ThomasonSubset) else frozenset(Y)
    validate_thomason(points, trunc)
    rows = []
    for p in trunc.primes:
        row = []
        for k in range(1, trunc.d + 1):
            finite_heights = [
                pt.height
                for pt in points
                if pt.layer == k
                and pt.height is not INF
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


def enumerate_p_admissible(
    d: int,
    p: int,
    hmax: int,
    with_list: bool = False,
    budget: int = ENUM_BUDGET,
):
    """Count (and optionally list) the threshold vectors over the value
    set {0, ..., hmax, inf} satisfying the per-prime inequality.

    Enumerates recursively, checking each new layer against the earlier
    ones its coupling-table entry names; since the inequality always
    bounds the larger layer, pruning is exact.
    """
    check_window(d, (p,))
    if hmax < 0:
        raise ValueError("need hmax >= 0")
    if (hmax + 2) ** d > budget:
        raise BudgetError(
            f"enumeration budget exceeded: ({hmax + 2})**{d} > {budget}"
        )
    domain: tuple[NatInfinity, ...] = tuple(range(hmax + 1)) + (INF,)
    table = _coupling_table(p, d)
    found: list[tuple[NatInfinity, ...]] = []
    count = 0

    def extend(prefix: list[NatInfinity]) -> None:
        nonlocal count
        k = len(prefix)
        if k == d:
            count += 1
            if with_list:
                found.append(tuple(prefix))
            return
        pairs = table[k]
        for v in domain:
            for l, delta in pairs:
                if not v <= delta + prefix[l - 1]:
                    break
            else:
                prefix.append(v)
                extend(prefix)
                prefix.pop()

    extend([])
    return (count, found) if with_list else (count, None)


def thomason_union_closure(
    seeds, trunc: SpectrumTruncation
) -> ThomasonSubset:
    """Union of the specialization-closures of finite-height seed points;
    always a valid Thomason subset.  A height-infinity seed is rejected:
    its closure alone has no finite-height witness."""
    seed_list = list(seeds)
    for s in seed_list:
        if s.height is INF:
            raise ValueError(f"infinite-height seed {s} is not allowed")
        if s not in trunc:
            raise ValueError(f"seed {s} not in truncation")
    members = trunc.down_closure(seed_list)
    validate_thomason(members, trunc)
    return ThomasonSubset(trunc, members)
