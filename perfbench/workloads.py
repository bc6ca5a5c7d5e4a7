"""Seeded query decks for the benchmark workloads.

A query is a tuple of strings whose first entry names the child program:

- ``cli``: ``python -m excspec.cli <args>``;
- ``gallery``: ``scripts/spectrum_gallery.py``, writing its DOT files
  under ``.perfbench/gallery``;
- ``survey``: ``scripts/blueshift_survey.py <args>``;
- ``roundtrip``: ``perfbench/roundtrip.py <d> <p> <hmax> <functions>``,
  the library round trip thomason_from_function -> function_from_thomason.

Every query any seed can draw comes from a finite pool (``pools()``), and
``refs.json`` holds a reference for each pool entry.  A workload is a
fixed list of slots; one round draws one query per slot, so every round
has the same mix of cheap and expensive queries whatever the seed.  The
slot lists are laid out so that each reported percentile falls inside a
group of like-sized queries: about 60% of a round is start-up-dominated
(the median is one of these), and only one (spec) or two (algebra) slots
per round are the largest queries, so the tail percentile, which has ten
samples above it, lands among the mid-sized ones at these run lengths.
"""

from __future__ import annotations

import random

from oracles import INF, is_p_admissible

WORKLOADS = ("spec_covers", "spec_relation", "algebra")

SMALL_SETS = ((2,), (3,), (5,), (2, 3), (2, 5), (3, 5), (2, 3, 5), (3, 7), (2, 7, 13), (5, 7, 11))
WIDE_SETS = ((2, 3, 5, 7), (2, 3, 5, 7, 11), (2, 3, 5, 7, 11, 13), (3, 5, 7, 11, 13), (2, 5, 11, 13))
FOUR_PRIMES = ((2, 3, 5, 7), (2, 3, 5, 11), (2, 3, 7, 11), (3, 5, 7, 11), (2, 5, 7, 11), (2, 3, 5, 13))
P11, P13 = (2, 3, 5, 7, 11), (2, 3, 5, 7, 11, 13)
# Mid-sized windows, 0.15-0.3 s of spectrum work each.  They are kept to
# one size class because the tail percentile is read among them.
MEDIUM_WINDOWS = tuple((d, ps, h) for d, h in ((11, 8), (12, 7)) for ps in FOUR_PRIMES)
# Large windows, 0.4-1.6 s each: the ROADMAP's cases (d=10, H=10 and
# d=12, H=12 over the primes up to 11) and windows up to the largest the
# benchmark draws, d=14 over the primes up to 13.
LARGE_WINDOWS = (
    (10, P11, 10), (12, P11, 12), (11, P13, 10), (12, P13, 10), (13, P13, 9), (14, P11, 10), (14, P13, 10)
)

SPEC_FORMATS = {"spec_covers": ("--dot", "--text"), "spec_relation": ("--json",)}


def _primes(ps) -> str:
    return ",".join(str(p) for p in ps)


def balmer_window(d, ps, h, no_inf=False) -> tuple:
    window = ("spec", "balmer", "-d", str(d), "-p", _primes(ps), "-H", str(h))
    return window + (("--no-inf",) if no_inf else ())


def _spec_windows() -> dict[str, list[tuple]]:
    """Spectrum windows without their output flag, by slot."""
    zariski = [
        ("spec", "zariski", "-d", str(d), "-p", _primes(ps))
        for d in (2, 3, 4, 6, 8, 12, 16)
        for ps in SMALL_SETS + WIDE_SETS
    ]
    hz = [
        ("spec", "hz", "-d", str(d), "-p", _primes(ps)) + extra
        for d in (2, 3, 4, 6, 8, 12, 16)
        for ps in SMALL_SETS
        for extra in ((), ("--slice", str(ps[0])))
    ]
    small = [
        balmer_window(d, ps, h, no_inf)
        for d in range(2, 7)
        for ps in SMALL_SETS[:7]
        for h in range(2, 6)
        for no_inf in (False, True)
    ]
    return {
        "zariski": zariski,
        "hz": hz,
        "balmer_small": small,
        "balmer_medium": [balmer_window(*w) for w in MEDIUM_WINDOWS],
        "balmer_large": [balmer_window(*w) for w in LARGE_WINDOWS],
    }


def _mu_triples() -> list[tuple[int, int, int]]:
    sides = (1, 2, 3, 5, 8, 12, 16, 20, 25, 30)
    triples = []
    for i in sides:
        for j in sides:
            cells = i * j
            ks = sorted({max(1, round(f * cells)) for f in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)})
            triples.extend((i, j, k) for k in ks)
    return triples


# `mu --method stirling` recurses once per row of the Stirling table and
# dies with RecursionError once k passes about 496 (the exact row depends
# on how deep the interpreter stack already is).  A workload must be one
# on which no query fails, so the pool stops well below that limit, where
# a few extra stack frames in the traced child cannot flip the outcome;
# `run.py --baselines` runs a query past it and reports the defect.
STIRLING_MAX_K = 469


def _algebra_pools() -> dict[str, list[tuple]]:
    mu = _mu_triples()
    brute = sorted({
        (i, j, k)
        for i in range(1, 21)
        for j in range(1, 21)
        if i * j <= 20
        for k in (1, 2, max(i, j), (i * j + 1) // 2, i * j - 1, i * j)
        if k >= 1
    })
    # Windows with up to 3 * 10**5 candidate functions (the default
    # budget allows 10**7, where one count takes up to 10 s), plus
    # (10, 2, 3), whose count 41160 is known.
    count_windows = [
        (d, p, h)
        for d in range(1, 13)
        for p in (2, 3, 5, 7)
        for h in range(0, 7)
        if (h + 2) ** d <= 3 * 10**5
    ] + [(10, 2, 3)]
    # Listing windows of one size class (0.35-0.45 s of enumeration each,
    # none with more functions than the anchor window (8, 3, 4)), because
    # the tail percentile is read among them.
    list_windows = [(8, 3, 3), (7, 3, 4), (6, 3, 6)]
    return {
        "delta": [
            ("delta", str(p), str(k), str(l))
            for p in (2, 3, 5)
            for k in range(1, 17)
            for l in range(1, k + 1)
        ],
        "smith": [
            ("smith", "6", str(p), str(k), str(l), n, h)
            for p in (2, 3)
            for k in range(1, 7)
            for l in range(1, 7)
            for n, h in (("0", "0"), ("1", "0"), ("2", "1"), ("inf", "1"))
        ],
        "mu_incl": [("mu", str(i), str(j), str(k)) for i, j, k in mu],
        "mu_stirling": [
            ("mu", str(i), str(j), str(k), "--method", "stirling")
            for i, j, k in mu
            if k <= STIRLING_MAX_K
        ],
        "mu_brute": [("mu", str(i), str(j), str(k), "--method", "brute") for i, j, k in brute],
        "mu_all": [("mu", str(i), str(j), str(k), "--all") for i, j, k in brute],
        "ring_table": [
            ("ring", str(d), "--table") + fmt for d in range(1, 17) for fmt in ((), ("--json",))
        ],
        "ring_cokernel": [("ring", str(d), "--cokernel") for d in range(1, 17)],
        "ring_check": [
            ("ring", str(d), "--check", "--seed", str(s)) for d in range(1, 7) for s in range(5)
        ],
        "ring_check_large": [
            ("ring", str(d), "--check", "--seed", str(s)) for d in range(12, 17) for s in range(5)
        ],
        "ring_anchor": [("ring", "16", "--check")],
        "ideals_count": [
            ("ideals", str(d), str(p), str(h), "--count") + fmt
            for d, p, h in count_windows
            for fmt in ((), ("--csv",))
        ],
        "ideals_list": [
            ("ideals", str(d), str(p), str(h), "--list") + fmt
            for d, p, h in list_windows
            for fmt in ((), ("--json",))
        ],
        "ideals_anchor": [("ideals", "8", "3", "4", "--list", "--json")],
        "survey": [
            ("--kmax", str(k), "--dmax", str(d), "--hmax", str(h))
            for k in (8, 12, 16)
            for d in (4, 5)
            for h in (2, 3)
        ],
        "roundtrip": _roundtrip_pool(),
    }


def _visible(values, hmax: int, p: int) -> bool:
    """A function cut at hmax in some column keeps a finite-height
    witness below it in the window: an earlier layer l with p-1 | k-l
    and f(l) < hmax."""
    for k, v in enumerate(values, start=1):
        if v == hmax and not any(
            (k - l) % (p - 1) == 0 and values[l - 1] != INF and values[l - 1] < hmax
            for l in range(1, k)
        ):
            return False
    return True


def _roundtrip_pool(size: int = 40, per_query: int = 8) -> list[tuple]:
    """Fixed round-trip queries: admissible, visible threshold functions
    drawn layer by layer (the inequality only bounds the later layer, so
    every prefix extends)."""
    rng = random.Random("excspec-roundtrip-pool")
    pool = []
    while len(pool) < size:
        d, p, hmax = rng.randint(3, 6), rng.choice((2, 3, 5)), rng.randint(2, 4)
        domain = list(range(hmax + 1)) + [INF]
        functions = []
        while len(functions) < per_query:
            values = []
            for _ in range(d):
                values.append(rng.choice([v for v in domain if is_p_admissible(values + [v], p)]))
            if _visible(values, hmax, p):
                functions.append(",".join(str(v) for v in values))
        pool.append((str(d), str(p), str(hmax), *functions))
    return pool


def pools(workload: str) -> dict[str, list[tuple]]:
    """Every query a slot of `workload` can draw, keyed by slot."""
    if workload in SPEC_FORMATS:
        out = {
            slot: [("cli",) + w + (fmt,) for w in windows for fmt in SPEC_FORMATS[workload]]
            for slot, windows in _spec_windows().items()
        }
        out["gallery"] = [("gallery",)]
        return out
    if workload == "algebra":
        kinds = {"survey": "survey", "roundtrip": "roundtrip"}
        return {
            slot: [(kinds.get(slot, "cli"),) + q for q in queries]
            for slot, queries in _algebra_pools().items()
        }
    raise ValueError(f"unknown workload {workload!r}")


SLOTS = {
    "spec_covers": (
        ["zariski"] * 3 + ["hz"] * 3 + ["balmer_small"] * 3 + ["gallery"]
        + ["balmer_medium"] * 5 + ["balmer_large"]
    ),
    "algebra": (
        ["delta"] * 2 + ["smith"] * 2 + ["mu_incl", "mu_stirling", "mu_brute", "mu_all"]
        + ["ring_table", "ring_cokernel", "ring_check", "roundtrip", "ideals_count", "survey"]
        + ["ring_check_large", "ring_anchor", "ideals_list", "ideals_list", "ideals_anchor"]
    ),
}
SLOTS["spec_relation"] = SLOTS["spec_covers"]


class Deck:
    """The seeded query stream of one workload: round after round, one
    draw per slot, in a seeded order.  Each pool is drawn without
    replacement (a shuffled bag, refilled when empty), so a run's few
    rounds spread over a pool's sizes instead of repeating one.  The
    same workload and seed always give the same stream."""

    def __init__(self, workload: str, seed: int):
        self.pools = pools(workload)
        self.slots = SLOTS[workload]
        self.rng = random.Random(f"{workload}:{seed}")
        self.bags: dict[str, list[tuple]] = {slot: [] for slot in self.pools}

    def draw(self, slot: str) -> tuple:
        bag = self.bags[slot]
        if not bag:
            bag.extend(self.pools[slot])
            self.rng.shuffle(bag)
        return bag.pop()

    def next_round(self) -> list[tuple]:
        queries = [self.draw(slot) for slot in self.slots]
        self.rng.shuffle(queries)
        return queries


def key(query: tuple) -> str:
    """The reference-table key of a query."""
    return " ".join(query)
