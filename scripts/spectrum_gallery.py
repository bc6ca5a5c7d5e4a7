#!/usr/bin/env python3
"""Regenerate the standard gallery of spectrum diagrams as DOT files.

Writes one file per diagram into the output directory (default: out/):
the rank-3 prime-ideal spectrum, the full and p-local truncated spectra,
and the integral-coefficient spectrum.  Render with e.g.
`dot -Tpdf out/balmer_d3.dot -o balmer_d3.pdf`.
"""

import argparse
import contextlib
import io
import pathlib

from excspec import cli

GALLERY = {
    "zariski_d3": ["spec", "zariski", "-d", "3", "-p", "2,3,5", "--dot"],
    "balmer_d3": ["spec", "balmer", "-d", "3", "-p", "2,3,5", "-H", "3", "--dot"],
    "balmer_d4_p2": ["spec", "balmer", "-d", "4", "-p", "2", "-H", "4", "--dot"],
    "hz_d3": ["spec", "hz", "-d", "3", "-p", "2,3", "--dot"],
    "hfp_slice_d4_p2": ["spec", "hz", "-d", "4", "-p", "2", "--slice", "2", "--dot"],
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=pathlib.Path, default=pathlib.Path("out"))
    args = parser.parse_args()
    code, report = 0, []  # printed once every file is written
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        for name, argv in GALLERY.items():
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(argv)
            if code != 0:
                report.append(f"{name}: FAILED (exit {code})")
                break
            path = args.out / f"{name}.dot"
            path.write_text(buffer.getvalue())
            report.append(f"wrote {path}")
    except OSError as exc:
        parser.exit(2, f"error: cannot write {exc.filename}: {exc.strerror}\n")

    def print_report() -> int:
        print("\n".join(report))
        return code

    # a closed pipe is exit 0 to guarded; a failed diagram's code still stands
    return cli.guarded(print_report) or code


if __name__ == "__main__":
    raise SystemExit(main())
