"""Command-line entry point wiring the library modules together.

Subcommands: ``staircase build|slopes``, ``laminate verify``, ``verify tails``,
``synth realize|verify``, ``pipeline product|approx``, ``models afs|plap|duality``,
``report dist``.  All outputs are deterministic; the exit status is 0 iff every
verdict in the produced reports passes, with nonzero codes distinguishing
parse errors (2), precondition violations (3), failed verdicts (4) and broken
internal contracts (5).

Each process runs one command, so the parser is built from ``errors`` and
``matrices`` alone and each handler imports the modules it runs: the
measure commands compile no ``synth``, ``stages`` or ``staircase``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .errors import (InternalError, LamstairError, ParseError,
                     PreconditionError, VerdictFailure)
from .matrices import _distance_rows, frob, member

EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, EXIT_VERDICT, EXIT_INTERNAL = 0, 2, 3, 4, 5

_KIND_ALIASES = {"rankdrop": "rank_drop"}
_T_GRID_MAX = 100_000   # grid points a --t-grid may ask for
_SAMPLES_MAX = 1_000_000   # sample budget a synth verify --samples may ask for


# --- flag value parsers ----------------------------------------------------------


def parse_t_grid(text: str) -> np.ndarray:
    """Grid spec log:lo:hi:count (geometric) or lin:lo:hi:count, with
    2 <= count <= 100,000."""
    parts = text.split(":")
    if len(parts) != 4 or parts[0] not in ("log", "lin"):
        raise ParseError(f"bad grid spec {text!r}; expected log:lo:hi:count")
    try:
        lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError as exc:
        raise ParseError(f"bad grid spec {text!r}") from exc
    if not (0.0 < lo < hi < math.inf and count >= 2):
        raise ParseError(f"bad grid bounds in {text!r}")
    if count > _T_GRID_MAX:
        raise ParseError(f"grid count in {text!r} exceeds {_T_GRID_MAX}")
    if parts[0] == "log":
        return np.geomspace(lo, hi, count)
    return np.linspace(lo, hi, count)


def parse_samples(text: str) -> int:
    """Sample budget of synth verify, 1 <= n <= 1,000,000."""
    try:
        n = int(text)
    except ValueError as exc:
        raise ParseError(f"bad sample count {text!r}") from exc
    if not 1 <= n <= _SAMPLES_MAX:
        raise ParseError(f"sample count {n} outside [1, {_SAMPLES_MAX}]")
    return n


def _parse_tol(text: str) -> float:
    """A synth verify tolerance, finite and >= 0 (inf switches its check off)."""
    tol = float(_scalar(text))
    if not 0.0 <= tol < math.inf:
        raise ParseError(f"tolerance {text!r} is not finite and >= 0")
    return tol


def parse_domain(text: str):
    """Domain spec box:x0,y0,x1,y1 (lower then upper corner), as an OBox."""
    from .boxes import box
    if not text.startswith("box:"):
        raise ParseError(f"bad domain spec {text!r}; expected box:x0,y0,x1,y1")
    try:
        vals = [float(v) for v in text[4:].split(",")]
    except ValueError as exc:
        raise ParseError(f"bad domain spec {text!r}") from exc
    if len(vals) != 4:
        raise ParseError(f"domain spec {text!r} needs four coordinates")
    return box(vals[:2], vals[2:])


def parse_params(text: str | None) -> dict:
    """Comma-separated k=v pairs; integer-looking values stay exact."""
    out: dict = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise ParseError(f"bad parameter {item!r}; expected k=v")
        key, val = item.split("=", 1)
        out[key.strip()] = _scalar(val.strip())
    return out


def _scalar(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError as exc:
        raise ParseError(f"non-numeric value {text!r}") from exc


def _diag_entries(A: np.ndarray) -> list:
    if A.shape[0] != A.shape[1] or not member(A, "D", 1e-12 * (1.0 + frob(A))):
        raise PreconditionError("this staircase family needs a diagonal seed")
    return [int(v) if float(v).is_integer() else float(v) for v in np.diag(A)]


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)


def _load_staircase(args):
    from .staircase import example_staircase
    kind = _KIND_ALIASES.get(args.kind, args.kind)
    params = parse_params(getattr(args, "params", None))
    if kind in ("det1", "rank_drop"):
        if "a" in params:
            raise ParseError(f"--params a= is not accepted for kind {args.kind}; "
                             "--A gives the diagonal")
        if getattr(args, "A", None) is None:
            raise PreconditionError(f"--A is required for kind {args.kind}")
        from . import serialize
        params["a"] = _diag_entries(serialize.parse_matrix_arg(args.A))
    spec = example_staircase(kind, params)
    m = getattr(args, "m", None)
    if m is not None and kind == "rank_drop":
        have = sum(1 for v in params["a"] if float(v) != 0.0)
        if m != have:
            raise PreconditionError(
                f"--m {m} disagrees with the seed's {have} nonzero entries")
    return spec


# --- subcommand handlers (each returns True iff all produced verdicts pass) ------


def _cmd_staircase_build(args) -> bool:
    from . import serialize
    from .measures import verify_laminate
    from .staircase import build_truncation
    spec = _load_staircase(args)
    nu = build_truncation(spec, args.N)
    rep = verify_laminate(nu)
    serialize.dump_json(serialize.measure_to_obj(nu), args.out)
    if not rep.ok:
        print("; ".join(rep.messages), file=sys.stderr)
    return rep.ok


def _cmd_staircase_slopes(args) -> bool:
    from .staircase import _fit_slope, log_betas
    spec = _load_staircase(args)
    n_min = max(args.n_min, 2)
    if args.n_max <= n_min:
        raise ParseError(f"--n-max {args.n_max} leaves no levels to fit a slope over; "
                         f"it must exceed max(--n-min, 2) = {n_min}")
    logs = log_betas(spec, args.n_max)
    lines = ["n,beta,log_beta"]
    for n, lb in enumerate(logs, start=1):
        beta = float(np.exp(lb)) if lb > -700.0 else 0.0
        lines.append(f"{n},{beta!r},{float(lb)!r}")
    _write_text(args.out, "\n".join(lines) + "\n")
    print(f"slope,{_fit_slope(logs, n_min)!r}")
    return True


def _cmd_laminate_verify(args) -> bool:
    from . import serialize
    from .measures import verify_laminate
    nu = serialize.measure_from_obj(serialize.load_json(args.measure),
                                    path=args.measure)
    rep = verify_laminate(nu, tol=args.tol)
    print(f"laminate {'pass' if rep.ok else 'fail'}"
          f" atoms={len(nu)} mass={float(nu.mass)!r}")
    for msg in rep.messages:
        print(msg, file=sys.stderr)
    return rep.ok


def _cmd_verify_tails(args) -> bool:
    from . import serialize
    from .measures import barycenter, verify_weak_tail
    nu = serialize.measure_from_obj(serialize.load_json(args.measure),
                                    path=args.measure)
    normA = args.normA if args.normA is not None else frob(barycenter(nu))
    rep = verify_weak_tail(nu, args.p, args.M, normA, t_grid=args.t_grid)
    _write_text(args.out, serialize.tail_report_csv(rep))
    return rep.passed


def _cmd_synth_realize(args) -> bool:
    from . import serialize, synth
    nu = serialize.measure_from_obj(serialize.load_json(args.measure),
                                    path=args.measure)
    pam = synth.realize_finite_laminate(nu, args.domain, eps=args.eps)
    serialize.dump_map(pam.cells(args.max_cells), args.out)
    return True


def _cmd_synth_verify(args) -> bool:
    from . import serialize, synth
    cm = serialize.map_from_obj(serialize.load_json(args.map), path=args.map)
    ver = synth.verify_map(cm, alpha=args.alpha, sample_budget=args.samples)
    A, b = cm.boundary_affine
    diam = 2.0 * float(np.linalg.norm(cm.domain.half))
    scale = 1.0 + float(np.linalg.norm(b)) + diam * frob(A)
    ok = (ver.boundary_max <= args.boundary_tol * scale
          and ver.continuity_max <= args.continuity_tol
          * (1.0 + diam * ver.grad_bound))
    obj = {"boundary_max": ver.boundary_max,
           "continuity_max": ver.continuity_max,
           "holder_estimate": ver.holder_estimate,
           "holder_alpha": ver.holder_alpha,
           "grad_samples_max": ver.grad_samples_max,
           "grad_bound": ver.grad_bound,
           "samples": ver.samples,
           "notes": ver.notes,
           "verdict": "pass" if ok else "fail"}
    serialize.dump_json(obj, args.out)
    return ok


def _cmd_pipeline_product(args) -> bool:
    from . import serialize, stages
    from .measures import verify_weak_tail, weak_tail_constant
    if not math.isfinite(args.M):
        raise PreconditionError(f"need a finite M, got {args.M!r}")
    A = serialize.parse_matrix_arg(args.A)
    if A.shape != (2 * args.n, 2 * args.n):
        raise PreconditionError(
            f"--n {args.n} needs a {2 * args.n}x{2 * args.n} seed")
    if args.tails is not None:   # before any artifact is written
        weak_tail_constant(2.0 * args.n, args.M, frob(A))
    res = stages.product_pipeline(A, mode=args.mode, beta_tol=args.beta_tol,
                                  depth=args.depth, M=args.M)
    ok = True
    if args.mode == "map":
        serialize.dump_map(res.realized_map.cells(args.max_cells), args.out)
    else:
        serialize.dump_json(serialize.measure_to_obj(res.measure), args.out)
    if args.tails is not None:
        rep = verify_weak_tail(res.measure, 2.0 * args.n, args.M, frob(A),
                               t_grid=args.t_grid, slack=res.residual_mass)
        _write_text(args.tails, serialize.tail_report_csv(rep))
        ok = ok and rep.passed
    if args.report is not None:
        serialize.dump_json({
            "mass_in_target": res.mass_in_target,
            "barycenter_error": res.barycenter_error,
            "tail_slope": res.tail_slope,
            "fitted_M": res.fitted_M,
            "residual_mass": res.residual_mass,
            "rounds": [{"round": r.round, "error_moment": r.error_moment,
                        "tail_constant": r.tail_constant,
                        "patched_slots": r.patched_slots}
                       for r in res.rounds],
        }, args.report)
    return ok


def _cmd_pipeline_approx(args) -> bool:
    from . import serialize, stages
    A = serialize.parse_matrix_arg(args.A)
    steps = stages.approximate_sequence(A, j_max=args.j)
    errs = [s.error_moment for s in steps]
    decreasing = all(b <= a / 4.0 for a, b in zip(errs, errs[2:]))
    floors = min(min(s.dist_L1 for s in steps), min(s.dist_L2 for s in steps))
    obj = {"steps": [{"j": s.j, "s": s.s, "error_moment": s.error_moment,
                      "inductive_volume": s.inductive_volume,
                      "dist_L1": s.dist_L1, "dist_L2": s.dist_L2,
                      "tail_slope": s.tail_slope, "fitted_M": s.fitted_M,
                      "sup_dev": s.sup_dev} for s in steps],
           "moments_decreasing": decreasing,
           "dist_floor": floors,
           "verdict": "pass" if (decreasing and floors > 0.0) else "fail"}
    serialize.dump_json(obj, args.out)
    return decreasing and floors > 0.0


def _cmd_models_afs(args) -> bool:
    from . import models, serialize
    A = serialize.parse_matrix_arg(args.A)
    res = models.afs_pipeline(A, args.K, N=args.N)
    obj = {"K": args.K, "N": args.N,
           "fitted_M": res.fitted_M,
           "exponent": res.exponent.value,
           "atoms": len(res.measure),
           "residual_mass": res.extended.residual_mass(args.N),
           "verdict": "pass" if res.tail_report.passed else "fail"}
    serialize.dump_json(obj, args.out)
    if args.tails is not None:
        _write_text(args.tails, serialize.tail_report_csv(res.tail_report))
    return res.tail_report.passed


def _cmd_models_plap(args) -> bool:
    from . import models, serialize
    if args.A is not None:
        A = serialize.parse_matrix_arg(args.A)
    else:
        A = np.diag([models.select_b(args.p), -1.0])
    res = models.plap_pipeline(A, args.p, N=args.N)
    if args.measure is not None:
        serialize.dump_json(serialize.measure_to_obj(res.measure), args.measure)
    lines = ["N,qbar_moment,sub_moment"]
    for n, dm, sm in zip(res.extra["moment_N"], res.extra["qbar_moments"],
                         res.extra["sub_moments"]):
        lines.append(f"{n},{float(dm)!r},{float(sm)!r}")
    _write_text(args.moments, "\n".join(lines) + "\n")
    if args.out is not None:
        serialize.dump_json({
            "p": args.p, "b": res.extra["b"], "N": args.N,
            "qbar": res.exponent.value, "fitted_M": res.fitted_M,
            "sub_increments": res.extra["sub_increments"],
            "verdict": "pass" if res.tail_report.passed else "fail",
        }, args.out)
    return res.tail_report.passed


def _cmd_models_duality(args) -> bool:
    from . import models, serialize
    obj = serialize.load_json(args.infile)
    if isinstance(obj, dict) and "cells" in obj:
        loaded = serialize.map_from_obj(obj, path=args.infile)
        swapped = models.duality_swap(loaded, args.p)
        serialize.dump_map(swapped, args.out)
    elif isinstance(obj, dict) and "atoms" in obj:
        nu = serialize.measure_from_obj(obj, path=args.infile)
        swapped = models.duality_swap(nu, args.p)
        serialize.dump_json(serialize.measure_to_obj(swapped), args.out)
    else:
        raise ParseError(f"{args.infile}: neither a measure nor a map")
    return True


def _cmd_report_dist(args) -> bool:
    from . import serialize
    from .measures import _seq_sum
    if (args.map is None) == (args.measure is None):
        raise PreconditionError("give exactly one of --map / --measure")
    if args.map is not None:
        cm = serialize.map_from_obj(serialize.load_json(args.map),
                                    path=args.map)
        nu, _ = cm.gradient_distribution()
        scale = cm.domain.volume
    else:
        nu = serialize.measure_from_obj(serialize.load_json(args.measure),
                                        path=args.measure)
        scale = 1.0
    lines = ["set,dist_integral"]
    for set_id in args.sets.split(","):
        set_id = set_id.strip()
        total = scale * _seq_sum((nu._w * _distance_rows(nu._stack, set_id)).tolist())
        lines.append(f"{set_id},{total!r}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return True


# --- argument parsing ------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--jobs", type=int, default=1,
                        help="reserved: validated (>= 1, LF_JOBS overrides), "
                             "but nothing runs in parallel yet")
    stair = argparse.ArgumentParser(add_help=False)   # the spec of staircase build|slopes
    stair.add_argument("--kind", required=True,
                       choices=["det1", "rankdrop", "rank_drop", "elliptic", "plaplace"])
    stair.add_argument("--A", help="diag(a,b,...) or matrix JSON path")
    stair.add_argument("--m", type=int)
    stair.add_argument("--params", help="k=v,k2=v2")

    top = argparse.ArgumentParser(prog="lamstair", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    st = sub.add_parser("staircase").add_subparsers(dest="action", required=True)
    p = st.add_parser("build", parents=[common, stair])
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_staircase_build)
    p = st.add_parser("slopes", parents=[common, stair])
    p.add_argument("--n-max", dest="n_max", type=int, default=10_000)
    p.add_argument("--n-min", dest="n_min", type=int, default=100)
    p.add_argument("--out", default="-")
    p.set_defaults(handler=_cmd_staircase_slopes)

    lam = sub.add_parser("laminate").add_subparsers(dest="action", required=True)
    p = lam.add_parser("verify", parents=[common])
    p.add_argument("--measure", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(handler=_cmd_laminate_verify)

    ver = sub.add_parser("verify").add_subparsers(dest="action", required=True)
    p = ver.add_parser("tails", parents=[common])
    p.add_argument("--measure", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--M", type=float, required=True)
    p.add_argument("--t-grid", dest="t_grid", type=parse_t_grid,
                   default="log:1:1e4:60")
    p.add_argument("--normA", type=float)
    p.add_argument("--out", default="-")
    p.set_defaults(handler=_cmd_verify_tails)

    sy = sub.add_parser("synth").add_subparsers(dest="action", required=True)
    p = sy.add_parser("realize", parents=[common])
    p.add_argument("--measure", required=True)
    p.add_argument("--domain", type=parse_domain, default="box:0,0,1,1")
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--max-cells", dest="max_cells", type=int, default=200_000)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_synth_realize)
    p = sy.add_parser("verify", parents=[common])
    p.add_argument("--map", required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--samples", type=parse_samples, default=2_000)
    p.add_argument("--boundary-tol", dest="boundary_tol", type=_parse_tol,
                   default=1e-6)
    p.add_argument("--continuity-tol", dest="continuity_tol", type=_parse_tol,
                   default=1e-5)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_synth_verify)

    pl = sub.add_parser("pipeline").add_subparsers(dest="action", required=True)
    p = pl.add_parser("product", parents=[common])
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--A", required=True)
    p.add_argument("--mode", choices=["measure", "map"], default="measure")
    p.add_argument("--beta-tol", dest="beta_tol", type=float, default=1e-4)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--M", type=float, default=8.0)
    p.add_argument("--t-grid", dest="t_grid", type=parse_t_grid,
                   default="log:1:1e4:60")
    p.add_argument("--max-cells", dest="max_cells", type=int, default=200_000)
    p.add_argument("--out", required=True)
    p.add_argument("--tails")
    p.add_argument("--report")
    p.set_defaults(handler=_cmd_pipeline_product)
    p = pl.add_parser("approx", parents=[common])
    p.add_argument("--j", type=int, default=6)
    p.add_argument("--A", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_pipeline_approx)

    mo = sub.add_parser("models").add_subparsers(dest="action", required=True)
    p = mo.add_parser("afs", parents=[common])
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--A", required=True)
    p.add_argument("--N", type=int, default=200)
    p.add_argument("--out", required=True)
    p.add_argument("--tails")
    p.set_defaults(handler=_cmd_models_afs)
    p = mo.add_parser("plap", parents=[common])
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--N", type=int, default=10_000)
    p.add_argument("--A")
    p.add_argument("--moments", required=True)
    p.add_argument("--out")
    p.add_argument("--measure", help="also write the truncated measure JSON")
    p.set_defaults(handler=_cmd_models_plap)
    p = mo.add_parser("duality", parents=[common])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_models_duality)

    rp = sub.add_parser("report").add_subparsers(dest="action", required=True)
    p = rp.add_parser("dist", parents=[common])
    p.add_argument("--map")
    p.add_argument("--measure")
    p.add_argument("--sets", default="L1,L2")
    p.add_argument("--out", default="-")
    p.set_defaults(handler=_cmd_report_dist)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        jobs = args.jobs
        env_jobs = os.environ.get("LF_JOBS")
        if env_jobs is not None:
            try:
                jobs = int(env_jobs)
            except ValueError:
                print(f"bad LF_JOBS value {env_jobs!r}", file=sys.stderr)
                return EXIT_PARSE
        if jobs < 1:
            raise PreconditionError("jobs must be >= 1")
        ok = args.handler(args)
    except (ParseError, OSError) as exc:  # OSError: an output path
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except VerdictFailure as exc:
        print(f"verdict failed: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except (InternalError, LamstairError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if not ok:
        print("one or more verdicts failed", file=sys.stderr)
        return EXIT_VERDICT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
