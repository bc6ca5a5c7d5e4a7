"""Library round trip for the benchmark: for each threshold function given
on the command line, build its Thomason subset in the (d, p, hmax)
truncation and recover the function from that subset.

    python perfbench/roundtrip.py D P HMAX F1 [F2 ...]

Each F is comma-separated values for layers 1..D ('inf' allowed).  Prints
one line per function, the recovered values in the same form, so a
correct round trip echoes its input.
"""

import sys

from excspec.balmer import b_truncation
from excspec.classify import (
    PAdmissibleFunction,
    function_from_thomason,
    thomason_from_function,
)
from excspec.combinat import INF


def _value(token: str):
    return INF if token == "inf" else int(token)


def main(argv: list[str]) -> int:
    d, p, hmax = (int(a) for a in argv[:3])
    trunc = b_truncation(d, [p], hmax)
    for text in argv[3:]:
        f = PAdmissibleFunction(d, p, tuple(_value(t) for t in text.split(",")))
        recovered = function_from_thomason(thomason_from_function(f, trunc), trunc)
        print(",".join(str(v) for v in recovered.values[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
