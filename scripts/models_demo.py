#!/usr/bin/env python3
"""Appendix applications: elliptic-inclusion two-sided tails (afs), p-harmonic
moment divergence (plap), and the p <-> p' duality swap, all through the CLI.
"""

import argparse
import pathlib

from lamstair import serialize
from lamstair.cli import main as cli_main
from lamstair.matrices import member
from lamstair.measures import DiscreteMeasure


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="out/models", type=pathlib.Path)
    ap.add_argument("--K", default="3")
    ap.add_argument("--p", default="1.5")
    ap.add_argument("--N", default="10000", help="plap truncation level")
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    seed = args.outdir / "seed.json"
    serialize.dump_json({"rows": 2, "cols": 2,
                         "entries": [[-1.0, 0.0], [0.0, 1.0]]}, seed)

    rc = cli_main(["models", "afs", "--K", args.K, "--A", str(seed),
                   "--N", "200", "--out", str(args.outdir / "afs.json"),
                   "--tails", str(args.outdir / "afs_tails.csv")])
    print(f"afs exit {rc}")

    rc = cli_main(["models", "plap", "--p", args.p, "--N", args.N,
                   "--moments", str(args.outdir / "plap_moments.csv"),
                   "--out", str(args.outdir / "plap.json"),
                   "--measure", str(args.outdir / "plap_measure.json")])
    print(f"plap exit {rc}")

    # the truncation remainder atom is the one point off the inclusion set;
    # the duality swap applies to the supported part (a sub-probability measure)
    p = float(args.p)
    nu = serialize.measure_from_obj(
        serialize.load_json(args.outdir / "plap_measure.json"))
    kept = DiscreteMeasure([a for a in nu.atoms
                            if member(a.point, f"Kp:{p!r}", 1e-7)])
    serialize.dump_json(serialize.measure_to_obj(kept),
                        args.outdir / "plap_support.json")
    rc = cli_main(["models", "duality",
                   "--in", str(args.outdir / "plap_support.json"),
                   "--p", args.p,
                   "--out", str(args.outdir / "plap_dual.json")])
    print(f"duality exit {rc} (swapped mass {float(kept.mass):.6f})")


if __name__ == "__main__":
    main()
