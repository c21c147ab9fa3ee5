#!/usr/bin/env python3
"""Tail-exponent sweep over the elliptic and p-Laplace staircase families.

Fits the log-log slope of beta_n over levels 100..n-max for elliptic K in
{1.5, 3, 10} and p-Laplace p in {1.1, 1.5, 1.9} (b from `select_b`), and
writes summary.csv comparing each measured slope with its predicted exponent.
"""

import argparse
import pathlib

from lamstair.models import exponent, select_b
from lamstair.staircase import beta_slope, example_staircase


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="out/slopes", type=pathlib.Path)
    ap.add_argument("--n-max", type=int, default=10_000)
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    configs = []
    for K in (1.5, 3.0, 10.0):
        configs.append((f"elliptic_K{K}", "elliptic", {"K": K},
                        -2.0 * K / (K + 1.0)))
    for p in (1.1, 1.5, 1.9):
        b = select_b(p)
        configs.append((f"plaplace_p{p}", "plaplace", {"p": p, "b": b},
                        -exponent("plaplace", {"p": p, "b": b}).value))

    rows = ["name,predicted,measured,rel_err"]
    for name, kind, params, predicted in configs:
        spec = example_staircase(kind, params)
        measured = beta_slope(spec, 100, args.n_max)
        rel = abs(measured - predicted) / abs(predicted)
        rows.append(f"{name},{predicted!r},{measured!r},{rel!r}")
        print(f"{name}: predicted {predicted:+.4f}  measured {measured:+.4f}")
    (args.outdir / "summary.csv").write_text("\n".join(rows) + "\n")
    print(f"wrote {args.outdir / 'summary.csv'}")


if __name__ == "__main__":
    main()
