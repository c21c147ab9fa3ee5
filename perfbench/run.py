"""lamstair benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload's seeded op list, pass after pass, for about S seconds and
prints a report whose last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones (tracing off); with --trace 1 they are the per-layer
span totals of a traced run.  Exits 1 if any op failed its verdict and 2 if
the library sources are missing.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedProbe, cpu_seconds
from tracer import LAYERS, Tracer
from workloads import (CRITERIA, ROOT, SRC, WORKLOADS, Runner, child_env, make_ops,
                       warm_up)

SETUP_SAMPLES = 3       # fresh interpreters timed per run for setup_s
IMPORT_SAMPLES = 3      # `python -X importtime` probes per traced run
WORK_ROOT = ROOT / ".bench_work"

END_TO_END = {"run_s": "s", "op_ms_p50": "ms", "op_ms_tail": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, source); sources are read off the Tracer:
#   self L        self time of layer L          total N   outermost time in span N
#   calls N       calls of span / counted fn N  counter C named counter C
#   ratio A B     A / B (each a counter or a call count)
# every value is per traced pass
PER_LAYER = {
    "matrices.self_s": ("s", "self matrices"),
    "matrices.frob.calls": ("count", "calls matrices.frob"),
    "measures.tail_mass.calls": ("count", "calls measures.tail_mass"),
    "measures.tail_mass.s": ("s", "total measures.tail_mass"),
    "measures.fit_upper_constant.s": ("s", "total measures.fit_upper_constant"),
    "measures.diamond_compose.s": ("s", "total measures.diamond_compose"),
    "measures.construct.calls": ("count", "calls measures.construct"),
    "measures.construct.s": ("s", "total measures.construct"),
    "measures.atoms_in": ("count", "counter measures.atoms_in"),
    "measures.atoms_out": ("count", "counter measures.atoms_out"),
    "measures.merge_ratio": ("ratio", "ratio measures.atoms_out measures.atoms_in"),
    "measures.moment.calls": ("count", "calls measures.moment"),
    "measures.moment.s": ("s", "total measures.moment"),
    "measures.self_s": ("s", "self measures"),
    "staircase.truncate.calls": ("count", "calls staircase.truncate"),
    "staircase.truncate.atoms": ("count", "counter staircase.truncate.atoms"),
    "staircase.truncate.s": ("s", "total staircase.truncate"),
    "staircase.step.calls": ("count", "calls staircase.step"),
    "staircase.step.memo_hit_ratio": ("ratio",
                                      "ratio staircase.step.memo_hits staircase.step"),
    "staircase.self_s": ("s", "self staircase"),
    "synth.verify_map.s": ("s", "total synth.verify_map"),
    "synth.verify_map.samples": ("count", "counter synth.verify_map.samples"),
    "synth.evaluate.calls": ("count", "calls synth.evaluate"),
    "synth.node_evaluate.calls": ("count", "calls synth.node_evaluate"),
    "synth.reduce_exact.s": ("s", "total synth.reduce_exact"),
    "synth.reduce_exact.rounds": ("count", "counter synth.reduce_exact.rounds"),
    "synth.distribution.s": ("s", "total synth.distribution"),
    "synth.distribution.atoms": ("count", "counter synth.distribution.atoms"),
    "synth.self_s": ("s", "self synth"),
    "stages.composition_trial.s": ("s", "total stages.composition_trial"),
    "stages.builder.calls": ("count", "calls stages.builder"),
    "stages.self_s": ("s", "self stages"),
    "models.plap_pipeline.s": ("s", "total models.plap_pipeline"),
    "models.select_b.s": ("s", "total models.select_b"),
    "models.self_s": ("s", "self models"),
    "serialize.dump_json.s": ("s", "total serialize.dump_json"),
    "serialize.load_json.s": ("s", "total serialize.load_json"),
    "serialize.map_from_obj.s": ("s", "total serialize.map_from_obj"),
    "serialize.cellmap_evaluate.calls": ("count", "calls serialize.cellmap_evaluate"),
    "serialize.bytes_out": ("bytes", "counter serialize.bytes_out"),
    "serialize.self_s": ("s", "self serialize"),
    "cli.import_s": ("s", "importtime lamstair"),
    "cli.import.scipy_s": ("s", "importtime scipy"),
    "cli.self_s": ("s", "self cli"),
    "trace.run_s": ("s", "run traced"),
    "trace.overhead_s": ("s", "run overhead"),
    "bench.self_s": ("s", "run remainder"),
}

# layer whose self time should dominate each workload's traced run
TARGET_LAYERS = {"compose_tails": ("measures", "matrices"),
                 "plap_moments": ("measures", "staircase"),
                 "map_verify": ("synth",),
                 "cli_artifacts": ("import",)}


# --- statistics ----------------------------------------------------------------


def tail_percentile(values, beyond: int = 10):
    """Highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, samples_beyond).  With `beyond` samples or
    fewer no percentile qualifies, and the maximum is returned as p100 with
    0 beyond."""
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        return xs[-1], 100.0, 0
    k = n - beyond - 1
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


# --- running -------------------------------------------------------------------


class PassResult:
    def __init__(self):
        self.pass_s: list[float] = []
        self.pass_raw_s: list[float] = []
        self.pass_wall_s: list[float] = []
        self.op_s: list[tuple] = []     # (op, seconds)
        self.op_wall_s: list[float] = []
        self.attempted = 0
        self.failed = 0


def timed_passes(runner: Runner, ops, budget_s: float, clock=cpu_seconds,
                 probe: SpeedProbe | None = None) -> PassResult:
    """Run the op list pass after pass: at least one, and another only while
    it is expected to end within budget_s on `clock`.

    With a running `probe`, an op's time is its CPU time without the
    probe's own, scaled to the reference speed, and a pass time is the sum
    of its ops' times; `pass_raw_s` keeps the unscaled pass times."""
    res = PassResult()
    wall = time.perf_counter
    used = (lambda: probe.used_s) if probe else (lambda: 0.0)
    windows = []
    start = clock()
    while True:
        c_pass, w_pass = clock(), wall()
        for op in ops:
            u0, c0, w0 = used(), clock(), wall()
            try:
                ok = runner.run(op)
            except Exception as exc:   # a raising op is a failed op, not a crash
                runner.failures.append(f"{op.kind}{op.args}: {exc!r}")
                ok = False
            c1, w1 = clock(), wall()
            res.op_s.append((op, c1 - c0 - (used() - u0)))
            res.op_wall_s.append(w1 - w0)
            windows.append((w0, w1))
            res.attempted += 1
            res.failed += not ok
        res.pass_raw_s.append(clock() - c_pass)
        res.pass_wall_s.append(wall() - w_pass)
        if clock() - start + res.pass_raw_s[-1] > budget_s:
            break
    if probe:
        probe.settle()
        res.op_s = [(op, probe.scale(s, *w)) for (op, s), w in zip(res.op_s, windows)]
    n = len(ops)
    res.pass_s = [sum(s for _, s in res.op_s[i:i + n]) for i in range(0, len(res.op_s), n)]
    return res


def time_setup(workload: str, workdir: Path, probe: SpeedProbe) -> float:
    """CPU time, scaled to the reference speed, of a fresh interpreter that
    imports the workload's modules and finishes one warm-up op of each kind."""
    workdir.mkdir(parents=True)
    c0, w0 = cpu_seconds(), time.perf_counter()
    u0 = probe.used_s
    subprocess.run([sys.executable, str(Path(__file__).with_name("workloads.py")),
                    workload, str(workdir)], env=child_env(), check=True,
                   stdout=subprocess.DEVNULL)
    c1, w1 = cpu_seconds(), time.perf_counter()
    probe.settle()
    return probe.scale(c1 - c0 - (probe.used_s - u0), w0, w1)


def import_times() -> tuple[float, float]:
    """(lamstair.cli import, scipy share of it) in seconds, from -X importtime."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lamstair.cli"],
                         env=child_env(), check=True, capture_output=True, text=True)
    return parse_importtime(out.stderr)


def parse_importtime(text: str) -> tuple[float, float]:
    """Sum the cumulative times of top-level lamstair imports, and of scipy
    imports not nested in another scipy import."""
    rows = []
    for line in text.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cum_us = int(parts[1])
        except ValueError:      # the header row
            continue
        field = parts[2]
        depth = (len(field) - len(field.lstrip()) - 1) // 2
        rows.append((depth, field.strip(), cum_us))
    lam_us = sum(c for d, name, c in rows
                 if d == 0 and (name == "lamstair" or name.startswith("lamstair.")))
    # rows are in post-order (children first): walk backwards with a stack of
    # ancestors to find scipy imports that have no scipy ancestor
    scipy_us, stack = 0, []
    is_scipy = lambda name: name == "scipy" or name.startswith("scipy.")  # noqa: E731
    for depth, name, cum in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if is_scipy(name) and not any(is_scipy(a) for _, a in stack):
            scipy_us += cum
        stack.append((depth, name))
    return lam_us / 1e6, scipy_us / 1e6


def layer_value(source: str, tr: Tracer, passes: int, runs: dict) -> float:
    kind, *names = source.split()
    if kind == "self":
        return tr.layer_self_s.get(names[0], 0.0) / passes
    if kind == "total":
        return tr.total_s.get(names[0], 0.0) / passes
    if kind == "calls":
        return tr.calls.get(names[0], 0) / passes
    if kind == "counter":
        return tr.counters.get(names[0], 0.0) / passes
    if kind == "ratio":
        num, den = (tr.counters.get(n, tr.calls.get(n, 0)) for n in names)
        return num / den if den else 0.0
    if kind in ("importtime", "run"):
        return runs[names[0]]
    raise ValueError(source)


def run_untraced(args, ops, work: Path):
    with SpeedProbe() as probe:
        setup = [time_setup(args.workload, work / f"setup{i}", probe)
                 for i in range(SETUP_SAMPLES)]
        runner = Runner(args.workload, work / "ops")
        if args.workload != "cli_artifacts":   # cli ops run in fresh interpreters
            warm_up(args.workload, work / "warm")
        res = timed_passes(runner, ops, args.seconds, probe=probe)
    speeds = [c for _, c in probe.samples]
    lat = [s for _, s in res.op_s]
    tail, pct, beyond = tail_percentile(lat)
    if args.workload == "cli_artifacts":
        rss_kb = runner.child_max_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {"run_s": statistics.median(res.pass_s),
               "op_ms_p50": 1e3 * statistics.median(lat),
               "op_ms_tail": 1e3 * tail,
               "setup_s": statistics.median(setup),
               "peak_rss_mb": rss_kb / 1024.0}
    info = {"passes": len(res.pass_s), "ops": len(lat),
            "run_cpu_s": statistics.median(res.pass_raw_s),
            "run_wall_s": statistics.median(res.pass_wall_s),
            "probe_samples": len(speeds),
            "probe_ms_p50": 1e3 * statistics.median(speeds),
            "probe_ms_range": [1e3 * min(speeds), 1e3 * max(speeds)],
            "op_wall_ms_p50": 1e3 * statistics.median(res.op_wall_s),
            "op_ms_tail_percentile": pct, "op_ms_tail_beyond": beyond,
            "fail_ratio": res.failed / res.attempted,
            "setup_samples_s": setup,
            "criteria": criterion_headroom(args.workload, res.op_s)}
    return res, runner, metrics, info


def run_traced(args, ops, work: Path):
    # cli ops run in-process here (both halves), so the wrappers see the work
    runner = Runner(args.workload, work / "ops", in_process=True)
    warm_up(args.workload, work / "warm")
    # spans are wall-clock, so both halves are timed on the wall clock too
    plain = timed_passes(runner, ops, args.seconds / 2, clock=time.perf_counter)
    with Tracer() as tr:
        traced = timed_passes(runner, ops, args.seconds / 2, clock=time.perf_counter)
    res = PassResult()
    res.attempted = plain.attempted + traced.attempted
    res.failed = plain.failed + traced.failed
    imports = [import_times() for _ in range(IMPORT_SAMPLES)]
    passes = len(traced.pass_s)
    traced_s = statistics.mean(traced.pass_s)
    runs = {"lamstair": statistics.median(i[0] for i in imports),
            "scipy": statistics.median(i[1] for i in imports),
            "traced": traced_s,
            "overhead": traced_s - statistics.mean(plain.pass_s),
            "remainder": traced_s - sum(tr.layer_self_s.values()) / passes}
    metrics = {name: layer_value(src, tr, passes, runs)
               for name, (_, src) in PER_LAYER.items()}
    shares = {layer: tr.layer_self_s.get(layer, 0.0) / passes for layer in LAYERS}
    if args.workload == "cli_artifacts":
        # every CLI op users run pays one interpreter start-up and import
        shares["import"] = runs["lamstair"] * len(ops)
    top = max(shares, key=shares.get)
    info = {"traced_passes": passes, "untraced_passes": len(plain.pass_s),
            "untraced_run_s": statistics.mean(plain.pass_s),
            "layer_self_s": shares, "largest_layer": top,
            "target_layers": TARGET_LAYERS[args.workload],
            "target_is_largest": top in TARGET_LAYERS[args.workload],
            "top_spans": top_edges(tr, passes)}
    return res, runner, metrics, info


def top_edges(tr: Tracer, passes: int, n: int = 12) -> list:
    rows = sorted(tr.edges.items(), key=lambda kv: -kv[1][2])[:n]
    return [{"parent": p, "span": s, "calls": c / passes, "total_s": t / passes,
             "self_s": st / passes} for (p, s), (c, t, st) in rows]


def criterion_headroom(workload: str, op_s) -> list:
    """Each mirrored criterion's budget next to the time the ops imply for it."""
    by_kind: dict = {}
    for op, s in op_s:
        key = op.args[0] if op.kind == "cli" else op.kind
        if op.kind == "plap":
            key = f"plap{op.args[1]}"
        by_kind.setdefault(key, []).append(s)
    med = {k: statistics.median(v) for k, v in by_kind.items()}
    est = {11: lambda: 50 * med["trial"] + med["counterexample"],
           13: lambda: med["plap10000"],
           6: lambda: 3 * med["roof"],
           8: lambda: med["reduce"],
           14: lambda: 2 * sum(med[c] for c in ("staircase_build", "verify_tails",
                                                "pipeline_product", "synth_realize",
                                                "models_afs"))}
    return [dict(c, estimate_s=est[c["criterion"]]()) for c in CRITERIA[workload]]


def metadata(args) -> dict:
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "lamstair").glob("*.py")))
    versions = {"python": platform.python_version()}
    for mod in ("numpy", "scipy"):
        try:
            versions[mod] = __import__(mod).__version__
        except ImportError:
            versions[mod] = None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "versions": versions,
            "commit": commit(), "src_lines": src_lines,
            "criteria": CRITERIA[args.workload]}


def commit() -> str:
    # the benchmark may run from an exported tree, which is not a repository;
    # the ceiling keeps git from reporting an enclosing repository instead
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "lamstair" / "__init__.py").is_file():
        print(f"lamstair sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # a terminated run still removes its scratch files and stops its children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # one CPU for this process and the children it starts, so the speed
    # probe samples the CPU that a CLI or set-up child runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    ops = make_ops(args.workload, args.seed)
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = run_traced if args.trace else run_untraced
        res, runner, metrics, info = run(args, ops, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    units = {k: v[0] for k, v in PER_LAYER.items()} if args.trace else END_TO_END
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={res.attempted} failed={res.failed}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    if not args.trace:
        print(f"  {'fail_ratio':34s} {info['fail_ratio']:14.6g} ratio")
        print(f"  op_ms_tail is p{info['op_ms_tail_percentile']:.1f} of {info['ops']} ops "
              f"({info['op_ms_tail_beyond']} beyond)")
    for msg in runner.failures[:10]:
        print(f"  FAILED {msg}")
    print("meta " + json.dumps(dict(metadata(args), **info), sort_keys=True))
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if res.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
