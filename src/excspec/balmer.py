"""The spectrum of prime thick tensor-ideals over the degree-d window,
modelled as a finite poset of points (layer, char, height).

Height 1 is the rational point and is independent of the characteristic,
so every point stores char 0 there; at heights above 1 the char is a
genuine prime.  Containment between points is decided by three numeric
conditions: divisibility of the layer gap by p-1, a height gap of at
least the blueshift distance delta_p, and char agreement above height 1.
The first two are one test, since delta_p is infinite exactly when p-1
does not divide the gap.

Truncations materialize the finitely many points with height at most
Hmax (plus, optionally, the height-infinity points, which Thomason
bookkeeping must treat specially) together with the containment order,
stored as each point's up-set bitset.  The points of one layer and one
prime form a chain in height, (k,p,INF) <= ... <= (k,p,2) <= (k,0,1),
and the order sweep walks each such chain from the top.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat

from .combinat import INF, NatInfinity, check_window, delta_p, is_prime
from .poset import Poset, build_poset
from .zariski import ZariskiPrime

__all__ = [
    "BalmerPrime",
    "balmer_prime",
    "SpectrumTruncation",
    "b_leq",
    "b_truncation",
    "rho",
    "tate_blueshift",
    "geometric_blueshift",
    "generator_support",
    "open_embedding_check",
    "smith_points",
    "smith_holds",
]


@dataclass(frozen=True)
class BalmerPrime:
    """A prime thick tensor-ideal: layer k, characteristic p, chromatic
    height h >= 1 (possibly infinity).  Canonical by construction: a
    height-1 point takes char 0, the char is kept above."""

    layer: int
    char: int
    height: NatInfinity

    def __post_init__(self):
        if self.height == 1:
            object.__setattr__(self, "char", 0)


def balmer_prime(d: int, layer: int, char: int, height: NatInfinity) -> BalmerPrime:
    """Validated point for the degree-d window."""
    if not 1 <= layer <= d:
        raise ValueError(f"layer {layer} out of range 1..{d}")
    if height < 1:
        raise ValueError("height must be >= 1")
    if height != 1 and not is_prime(char):
        raise ValueError(f"char must be prime at height > 1, got {char}")
    return BalmerPrime(layer, char, height)


def b_leq(a: BalmerPrime, b: BalmerPrime) -> bool:
    """Ideal containment a <= b.

    Writing a = (k, p, h') and b = (l, q, h): true iff p-1 | k-l >= 0,
    h' >= h + delta_p(k, l), and p = q whenever h > 1.  A height-1
    source lies under no other point: 1 >= h + delta_p(k, l) forces
    h = 1 and k = l, which is equality.  Equal points above height 1
    pass the delta test with delta = 0.
    """
    if a.layer < b.layer:
        return False
    if a.height == 1:
        return a == b
    delta = delta_p(a.char, a.layer, b.layer)
    return (
        delta != INF
        and a.height >= b.height + delta
        and (b.height == 1 or a.char == b.char)
    )


@dataclass(frozen=True)
class SpectrumTruncation(Poset):
    """All canonical points of the degree-d spectrum with height in
    {1..hmax} (plus infinity when flagged) over a finite prime set,
    together with the containment order as up-set bitsets."""

    d: int
    primes: tuple[int, ...]
    hmax: int
    include_infinity: bool


def b_truncation(
    d: int,
    primes: list[int] | tuple[int, ...],
    hmax: int,
    include_infinity: bool = True,
) -> SpectrumTruncation:
    """Materialize the finite truncated spectrum and its full order."""
    if hmax < 1:
        raise ValueError("hmax must be >= 1")
    prime_tuple = check_window(d, primes)
    # one top-down chain per layer and prime, its heights 2..hmax (and
    # INF); the layer's rational point heads the first prime's chain.
    # Lazy, so build_poset's budget bounds the work at any hmax.
    heights = range(2, hmax + 1)
    tail = (INF,) if include_infinity else ()
    columns = (
        chain(
            (BalmerPrime(k, 0, 1),) if p == prime_tuple[0] else (),
            map(BalmerPrime, repeat(k), repeat(p), chain(heights, tail)),
        )
        for k in range(1, d + 1)
        for p in prime_tuple
    )
    poset = build_poset(columns, b_leq)
    return SpectrumTruncation(
        points=poset.points,
        above=poset.above,
        d=d,
        primes=prime_tuple,
        hmax=hmax,
        include_infinity=include_infinity,
    )


def rho(a: BalmerPrime) -> ZariskiPrime:
    """Comparison map to the prime-ideal spectrum of the Burnside ring:
    height 1 lands on the char-0 layer point, higher heights on the
    glued char-p point."""
    return ZariskiPrime(a.layer, a.char)


def tate_blueshift(p: int, k: int, l: int, h: int) -> NatInfinity:
    """Height drop of the layer-l derivative of the layer-k Tate
    construction applied at input height h: a shift of exactly 1 when a
    p-power partition of k of length l exists with k > l, and total
    collapse (value h) otherwise."""
    if k < l or l < 1:
        raise ValueError("tate_blueshift requires k >= l >= 1")
    if h == INF or h < 1:
        raise ValueError("tate_blueshift requires finite h >= 1")
    return 1 if delta_p(p, k, l) == 1 else h


def geometric_blueshift(p: int, k: int, l: int) -> NatInfinity:
    """Minimal height gap for containment between layer-k and layer-l
    points; independent of the ambient height.  Requires p-1 | k-l >= 0."""
    if k < l or l < 1:
        raise ValueError("geometric_blueshift requires k >= l >= 1")
    delta = delta_p(p, k, l)
    if delta == INF:
        raise ValueError(
            f"geometric_blueshift requires p-1 | k-l, got p={p}, k-l={k - l}"
        )
    return delta


def generator_support(trunc: SpectrumTruncation, k: int) -> frozenset:
    """Support of the k-th compact generator inside the truncation: all
    points of layer at least k.  The support is specialization-closed;
    its complement is the open image of the degree-(k-1) window."""
    if not 1 <= k <= trunc.d:
        raise ValueError(f"generator index {k} out of range 1..{trunc.d}")
    return frozenset(pt for pt in trunc.points if pt.layer >= k)


def open_embedding_check(
    m: int,
    d: int,
    primes: list[int] | tuple[int, ...],
    hmax: int,
    include_infinity: bool = True,
) -> bool:
    """Whether relabelling (k, p, h) identifies the degree-m truncation
    with an open, order-embedded piece of the degree-d truncation whose
    complement is the support of the generators above layer m."""
    if not 1 <= m <= d:
        raise ValueError("need 1 <= m <= d")
    small = b_truncation(m, primes, hmax, include_infinity)
    big = b_truncation(d, primes, hmax, include_infinity)
    image = set()
    for a in small.points:
        if a not in big:
            return False
        image.add(a)
    for a in small.points:
        for b in small.points:
            if small.leq(a, b) != big.leq(a, b):
                return False
    if m == d:
        expected = set(big.points)
    else:
        expected = set(big.points) - generator_support(big, m + 1)
    return image == expected


def smith_points(
    d: int, p: int, k: int, l: int, n: NatInfinity, h: NatInfinity
) -> tuple[BalmerPrime, BalmerPrime]:
    """The validated points (k, p, n+1) and (l, p, h+1) of the
    conditional-vanishing comparison between the layer-k derivative at
    height n and the layer-l derivative at height h."""
    check_window(d, (p,))
    return balmer_prime(d, k, p, n + 1), balmer_prime(d, l, p, h + 1)


def smith_holds(d: int, p: int, k: int, l: int, n: NatInfinity, h: NatInfinity) -> bool:
    """Conditional-vanishing comparison: holds iff the first of the
    `smith_points` is contained in the second.  The equivalent
    dimension-inequality statement has the same answer."""
    return b_leq(*smith_points(d, p, k, l, n, h))
