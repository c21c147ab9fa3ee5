"""The four workloads: seeded op lists, the library calls behind each op, and
the verdict each op must pass.

Every op is a call a user makes, checked against the acceptance criterion it
mirrors (see CRITERIA).  lamstair is imported lazily inside the functions, so
a fresh interpreter that runs `warm_up` pays for exactly the imports its
workload uses.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"

WORKLOADS = ("compose_tails", "plap_moments", "map_verify", "cli_artifacts")

# acceptance criterion (tests/test_acceptance.py) each workload mirrors, with
# that criterion's wall-clock budget, so the report shows the headroom
CRITERIA = {
    "compose_tails": [{"criterion": 11, "budget_s": 10.0,
                       "what": "50 composition trials + pq_counterexample(1.7)"}],
    "plap_moments": [{"criterion": 13, "budget_s": 30.0,
                      "what": "plap_pipeline at p=1.5, N=10^4"}],
    "map_verify": [{"criterion": 6, "budget_s": 2.0,
                    "what": "three roofs + verify_map(20k samples)"},
                   {"criterion": 8, "budget_s": 60.0,
                    "what": "depth-8 reduce_exact with stage3_builder"}],
    "cli_artifacts": [{"criterion": 14, "budget_s": 120.0,
                       "what": "five CLI commands, run twice, byte-identical"}],
}

# Each op list takes about 16 s of CPU, so a 20 s run holds exactly one pass
# even when the machine runs 25 % faster or slower: a pass count that
# flipped between runs would change the ops the percentiles are taken over.
COMPOSE_TRIALS = 80     # composition_trial ops per pass (criterion 11 runs 50)
# every reduce op sits between two roofs (roof, reduce, roof, roof, reduce,
# ...): with strict alternation the median op falls on the boundary between
# the two kinds' latencies (about 1.0 s and 0.7 s), which noise flips
MAP_ROOFS = 12
PLAP_N = (1_000, 2_000, 5_000, 10_000)
# criterion 13's thresholds (moment growth >= 10%/decade, |increment| <= 1e-3)
# hold from p ~ 1.25 up; at p = 1.1 and 1.2 the critical moment grows by
# only 7% and 9.6% per decade, so p is drawn above that
PLAP_P = (1.3, 1.9)


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple = ()


# --- op lists ----------------------------------------------------------------


def make_ops(workload: str, seed: int) -> list[Op]:
    """The op list of one pass; the same seed always gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "compose_tails":
        # drawn the way stages.composition_suite draws its (p, q) pairs
        ops = []
        while len(ops) < COMPOSE_TRIALS:
            p, q = rng.uniform(1.2, 3.5), rng.uniform(1.2, 3.5)
            if abs(p - q) >= 0.25:
                ops.append(Op("trial", (p, q)))
        return ops + [Op("counterexample", (1.7,))]
    if workload == "plap_moments":
        return [Op("plap", (p, n)) for p, n in zip(_strata(rng, *PLAP_P, len(PLAP_N)),
                                                   rng.sample(PLAP_N, len(PLAP_N)))]
    if workload == "map_verify":
        ops = []
        for i, lam in enumerate(_strata(rng, 0.2, 0.8, MAP_ROOFS)):
            ops.append(Op("roof", (lam,)))
            if i % 2 == 0:
                ops.append(Op("reduce", (8,)))
        return ops
    if workload == "cli_artifacts":
        return [Op("cli", (name,)) for name in _cli_order(rng)]
    raise ValueError(f"unknown workload {workload!r}")


def _strata(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """k uniform draws from [lo, hi], one from each of k equal strata, in
    random order: every pass covers the whole range, so a pass costs about
    the same whatever the seed."""
    width = (hi - lo) / k
    vals = [lo + width * (i + rng.random()) for i in range(k)]
    rng.shuffle(vals)
    return vals


# each CLI op: argv (artifact names relative to the work directory), the
# artifacts it reads, and the artifacts it writes.  The first five are
# criterion 14's commands.
CLI_COMMANDS = {
    "staircase_build": (["staircase", "build", "--kind", "det1", "--A", "diag(2,2)",
                         "--N", "20", "--out", "@measure.json"],
                        (), ("measure.json",)),
    "verify_tails": (["verify", "tails", "--measure", "@measure.json", "--p", "2",
                      "--M", "8", "--t-grid", "log:1:1e4:60", "--out", "@tails.csv"],
                     ("measure.json",), ("tails.csv",)),
    "pipeline_product": (["pipeline", "product", "--n", "1", "--A", "@seed.json",
                          "--out", "@product.json", "--tails", "@product_tails.csv",
                          "--report", "@product_report.json"],
                         ("seed.json",),
                         ("product.json", "product_tails.csv", "product_report.json")),
    "synth_realize": (["synth", "realize", "--measure", "@onestep.json", "--eps", "0.2",
                       "--out", "@map.json"],
                      ("onestep.json",), ("map.json",)),
    "models_afs": (["models", "afs", "--K", "3", "--A", "@seed.json", "--N", "100",
                    "--out", "@afs.json"],
                   ("seed.json",), ("afs.json",)),
    "laminate_verify": (["laminate", "verify", "--measure", "@measure.json"],
                        ("measure.json",), ()),
    "synth_verify": (["synth", "verify", "--map", "@map.json", "--out", "@report.json"],
                     ("map.json",), ("report.json",)),
    "report_dist": (["report", "dist", "--map", "@map.json", "--sets", "L1,L2",
                     "--out", "@dist.csv"],
                    ("map.json",), ("dist.csv",)),
    "models_duality": (["models", "duality", "--in", "@map.json", "--p", "1.5",
                        "--out", "@map2.json"],
                       ("map.json",), ("map2.json",)),
}
CLI_INPUTS = ("seed.json", "onestep.json")


def _cli_order(rng: random.Random) -> list[str]:
    """A random order of the commands in which every input exists before use."""
    have = set(CLI_INPUTS)
    todo = sorted(CLI_COMMANDS)
    order = []
    while todo:
        ready = [c for c in todo if set(CLI_COMMANDS[c][1]) <= have]
        pick = ready[rng.randrange(len(ready))]
        order.append(pick)
        todo.remove(pick)
        have.update(CLI_COMMANDS[pick][2])
    return order


def cli_argv(name: str, workdir: Path) -> list[str]:
    return [str(workdir / a[1:]) if a.startswith("@") else a
            for a in CLI_COMMANDS[name][0]]


# --- running ops ---------------------------------------------------------------


class Runner:
    """Runs one workload's ops and checks each op's verdict.

    `in_process` only matters for cli_artifacts: False spawns one
    `python -m lamstair.cli` per op (what users run), True calls
    `lamstair.cli.main` so that trace wrappers see the work.
    """

    def __init__(self, workload: str, workdir: Path, in_process: bool = False):
        self.workdir = Path(workdir)
        self.in_process = in_process
        self.child_max_rss_kb = 0
        self.failures: list[str] = []
        if workload == "cli_artifacts":
            self.golden = json.loads(GOLDEN.read_text())
            self.workdir.mkdir(parents=True, exist_ok=True)
            write_cli_inputs(self.workdir)

    def run(self, op: Op) -> bool:
        ok = getattr(self, f"_op_{op.kind}")(*op.args)
        if not ok:
            self.failures.append(f"{op.kind}{op.args}")
        return ok

    # compose_tails: criterion 11
    def _op_trial(self, p, q):
        import numpy as np
        from lamstair import stages
        _, rep = stages.composition_trial(p, q, t_grid=np.geomspace(1.5, 1e4, 25),
                                          levels=40)
        return rep is not None and rep.passed

    def _op_counterexample(self, p):
        from lamstair import stages
        _, series = stages.pq_counterexample(p, levels=40)
        vals = [v for _, v in series]
        return len(vals) == 40 and all(a < b for a, b in zip(vals, vals[1:]))

    # plap_moments: criterion 13
    def _op_plap(self, p, n):
        import numpy as np
        from lamstair import models
        b = models.select_b(p)
        res = models.plap_pipeline(np.diag([b, -1.0]), p, N=n, b=b)
        qm = res.extra["qbar_moments"]
        return (all(nxt >= 1.1 * prev for prev, nxt in zip(qm, qm[1:]))
                and all(abs(d) <= 1e-3 for d in res.extra["sub_increments"])
                and res.tail_report.passed)

    # map_verify: criteria 06 and 08
    def _op_roof(self, lam, sample_budget=20_000):
        import numpy as np
        from lamstair import synth
        from lamstair.matrices import frob
        unit = synth.box((0.0, 0.0), (1.0, 1.0))
        A1, A2 = np.diag([1.0, 1.0]), np.diag([-1.0, 1.0])
        A = lam * A1 + (1.0 - lam) * A2
        m = synth.roof(A, 0.0, A1, A2, lam, unit, eps=0.05)
        rep = synth.verify_map(m, sample_budget=sample_budget)
        ok = rep.boundary_max <= 1e-9
        for Ai, li in ((A1, lam), (A2, 1.0 - lam)):
            f = m.volume_of(Ai) / unit.volume
            ok = ok and (1 - 0.05) * li <= f <= (1 + 0.05) * li
        return ok and m.grad_bound() <= max(frob(A1), frob(A2)) + 1e-12

    def _op_reduce(self, depth):
        import numpy as np
        from lamstair import stages, synth
        unit = synth.box((0.0, 0.0), (1.0, 1.0))
        p, M, r = 2.0, 8.0, 1.5
        pam, rounds = synth.reduce_exact(stages.stage3_builder(r), unit,
                                         np.diag([3.0, 1.0]), 0.0, delta=0.5,
                                         alpha=0.5, depth=depth, p=p, M=M, r=r)
        ok = len(rounds) == depth
        for rep in rounds:
            ok = ok and rep.error_moment <= 2.0 ** -rep.round * (1 + 1e-9)
            ok = ok and rep.tail_constant <= 2.0 * M ** p * (1 + 1e-9)
        return ok and pam.error_moment(r) <= 2.0 ** -depth * unit.volume * (1 + 1e-9)

    # cli_artifacts: criterion 14 (exit code 0 and byte-identical artifacts)
    def _op_cli(self, name):
        argv = cli_argv(name, self.workdir)
        for f in CLI_COMMANDS[name][2]:   # a stale artifact must not pass
            (self.workdir / f).unlink(missing_ok=True)
        if self.in_process:
            from lamstair.cli import main
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = main(argv)
        else:
            rc, rss_kb = run_cli_subprocess(argv, self.workdir)
            self.child_max_rss_kb = max(self.child_max_rss_kb, rss_kb)
            if rc != 0:
                err = (self.workdir / "cli.stderr").read_text(errors="replace")
                self.failures.append(f"{name} exited {rc}: {err.strip()[-300:]}")
        return rc == 0 and all(sha256(self.workdir / f) == self.golden.get(f)
                               for f in CLI_COMMANDS[name][2])


def run_cli_subprocess(argv: list[str], workdir: Path) -> tuple[int, int]:
    """One `python -m lamstair.cli` child; returns (exit code, peak RSS in KiB)."""
    with open(workdir / "cli.stderr", "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "lamstair.cli", *argv],
                                cwd=workdir, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def write_cli_inputs(workdir: Path) -> None:
    """criterion 14's inputs: the seed matrix and a single-split laminate
    (cell enumeration is exponential in lamination depth)."""
    from fractions import Fraction

    import numpy as np
    from lamstair import measures as ms
    from lamstair import serialize
    serialize.dump_json(serialize.matrix_to_obj(np.array([[1.0, 1.0], [0.0, 1.0]])),
                        workdir / "seed.json")
    one_step = ms.elementary_split(
        ms.dirac(np.diag([2.0, 2.0]), certificate=[]),
        ms.SplittingStep(np.diag([2.0, 2.0]), np.diag([0.5, 2.0]),
                         np.diag([4.0, 2.0]), Fraction(4, 7)))
    serialize.dump_json(serialize.measure_to_obj(one_step), workdir / "onestep.json")


# --- warm-up -------------------------------------------------------------------

# smallest real op of each kind, so lazy imports and first-call set-up are
# paid before timing; cli warm-ups run in-process on small inputs
CLI_WARM_UP = (
    ["staircase", "build", "--kind", "det1", "--A", "diag(2,2)", "--N", "2",
     "--out", "@w_measure.json"],
    ["verify", "tails", "--measure", "@w_measure.json", "--p", "2", "--M", "8",
     "--t-grid", "log:1:1e4:4", "--out", "@w_tails.csv"],
    ["laminate", "verify", "--measure", "@w_measure.json"],
    ["pipeline", "product", "--n", "1", "--A", "@seed.json", "--beta-tol", "1e-2",
     "--depth", "1", "--out", "@w_product.json"],
    ["synth", "realize", "--measure", "@onestep.json", "--eps", "0.9",
     "--out", "@w_map.json"],
    ["synth", "verify", "--map", "@w_map.json", "--samples", "64",
     "--out", "@w_report.json"],
    ["report", "dist", "--map", "@w_map.json", "--out", "@w_dist.csv"],
    ["models", "duality", "--in", "@w_map.json", "--p", "1.5", "--out", "@w_map2.json"],
    ["models", "afs", "--K", "3", "--A", "@seed.json", "--N", "10",
     "--out", "@w_afs.json"],
)


def warm_up(workload: str, workdir: Path) -> None:
    """One small op of each kind the workload runs.  Verdicts are left to
    the timed ops, which count a failure instead of stopping the run."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "cli_artifacts":
        from lamstair.cli import main
        write_cli_inputs(workdir)
        for argv in CLI_WARM_UP:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                main([str(workdir / a[1:]) if a.startswith("@") else a for a in argv])
        return
    runner = Runner(workload, workdir)
    if workload == "compose_tails":
        runner._op_trial(2.0, 3.0)
        runner._op_counterexample(1.7)
    elif workload == "plap_moments":
        runner._op_plap(1.5, 100)
    elif workload == "map_verify":
        runner._op_roof(0.5, sample_budget=2_000)
        runner._op_reduce(2)
    else:
        raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    # fresh-interpreter set-up probe: python3 workloads.py <workload> <workdir>
    sys.path.insert(0, str(SRC))
    warm_up(sys.argv[1], Path(sys.argv[2]))
