#!/usr/bin/env python3
"""Survey the blueshift distance and ideal counts over a parameter range.

Prints two CSV tables: delta_p(k, l) for all 1 <= l <= k <= kmax at each
prime, then the number of p-admissible threshold functions per
(d, p, hmax).  Useful for eyeballing how the digit-sum condition
partitions the (k, l) plane.
"""

import argparse

from excspec import cli
from excspec.classify import count_p_admissible
from excspec.combinat import BudgetError, check_height, check_window, delta_p


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--primes", default="2,3,5", help="comma-separated")
    parser.add_argument("--kmax", type=int, default=12)
    parser.add_argument("--dmax", type=int, default=5)
    parser.add_argument("--hmax", type=int, default=3)
    args = parser.parse_args()
    try:
        # repeats dropped, the order given kept; check_window checks the scope
        primes = list(dict.fromkeys(int(tok) for tok in args.primes.split(",") if tok))
        check_window(1, primes)
    except (BudgetError, ValueError) as exc:
        parser.error(f"bad --primes {args.primes!r}: {exc}")

    def tables() -> int:
        # refused before the first row
        check_height("kmax", args.kmax, 1)
        check_height("dmax", args.dmax, 1)
        check_height("hmax", args.hmax, 0)
        print("p,k,l,delta")
        for p in primes:
            for k in range(1, args.kmax + 1):
                for l in range(1, k + 1):
                    value = delta_p(p, k, l)
                    print(f"{p},{k},{l},{value}")

        print()
        print("d,p,hmax,count")
        for p in primes:
            for d in range(1, args.dmax + 1):
                print(f"{d},{p},{args.hmax},{count_p_admissible(d, p, args.hmax)}")
        return 0

    return cli.guarded(tables)


if __name__ == "__main__":
    raise SystemExit(main())
