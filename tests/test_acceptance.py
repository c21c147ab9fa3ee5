"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with -s (or read captured output) to see the per-criterion verdict lines;
every line carries the measured wall time against the allowed budget.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from lamstair import models, serialize, stages, synth
from lamstair import measures as ms
from lamstair import staircase as sc
from lamstair.cli import main as cli_main
from lamstair.errors import InvalidSplitError
from lamstair.matrices import frob, member, rank

UNIT = synth.box((0.0, 0.0), (1.0, 1.0))


class _Clock:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def _verdict(num: int, desc: str, ok: bool, elapsed: float, budget: float):
    state = "pass" if (ok and elapsed <= budget) else "fail"
    print(f"criterion {num:02d} {state} ({elapsed:.2f}s/{budget:.0f}s) - {desc}")
    assert ok, f"criterion {num} conditions failed"
    assert elapsed <= budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_01_det1_staircase():
    with _Clock() as ck:
        spec = sc.example_staircase("det1", {"a": [2, 2]})
        ok = True
        for n, beta in enumerate(sc.betas(spec, 20), start=1):
            ok = ok and Fraction(1, 2 ** (2 * n + 1)) <= beta
            ok = ok and beta <= Fraction(1, 2 ** (2 * n - 1))
        nu = sc.build_truncation(spec, 30)
        normA = frob(spec.A0)
        resid = float(sc.betas(spec, 30)[-1])
        t_hi = 2.0 * frob(spec.step(25).A_next)
        for t in np.geomspace(normA, t_hi, 60):
            tail = ms.tail_mass(nu, t)
            ok = ok and tail <= 2.0 ** 3 * normA ** 2 * t ** -2 + resid
            ok = ok and tail + resid >= 2.0 ** -4 * normA ** 2 * t ** -2 - resid
    _verdict(1, "det-1 staircase exact betas + two-sided tail", ok, ck.elapsed, 1.0)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_criterion_02_rank_drop_staircase(m):
    with _Clock() as ck:
        spec = sc.example_staircase("rank_drop", {"a": [2] * m})
        ok = all(spec.step(n).gamma == Fraction(1, 2 ** m) for n in range(1, 7))
        for n in (1, 2, 5):
            for a in spec.step(n).mu.atoms:
                ok = ok and rank(a.point, 1e-9) <= m - 1
        normA = frob(spec.A0)
        rep = sc.check_hypotheses(spec, p=m, N=10, c=2.0, c0=2.0,
                                  M0=normA ** m, c1=2.0 ** -m,
                                  M1=2.0 ** -m * normA ** m)
        ok = ok and rep.passed
    _verdict(2, f"rank-drop staircase m={m}: exact gamma + envelopes",
             ok, ck.elapsed, 1.0)


def test_criterion_03_elliptic_slopes():
    with _Clock() as ck:
        ok = True
        for K in (1.5, 3.0, 10.0):
            spec = sc.example_staircase("elliptic", {"K": K})
            slope = sc.beta_slope(spec, 100, 10_000)
            want = -2.0 * K / (K + 1.0)
            ok = ok and abs(slope - want) <= 0.01 * abs(want)
    _verdict(3, "elliptic staircase slope -2K/(K+1) within 1%", ok, ck.elapsed, 5.0)


def test_criterion_04_plaplace_slopes():
    with _Clock() as ck:
        ok = models.exponent("plaplace", {"p": 1.5, "b": 9.0}).value == 1.025
        for p in (1.1, 1.5, 1.9):
            b = models.select_b(p)
            qbar = models.exponent("plaplace", {"p": p, "b": b}).value
            ok = ok and 1.0 < qbar < p
            spec = sc.example_staircase("plaplace", {"p": p, "b": b})
            slope = sc.beta_slope(spec, 100, 10_000)
            ok = ok and abs(slope + qbar) <= 0.01 * qbar
    _verdict(4, "p-Laplace staircase slope -qbar within 1%", ok, ck.elapsed, 5.0)


def test_criterion_05_laminate_algebra():
    with _Clock() as ck:
        rng = np.random.default_rng(0)
        ok = True
        for _ in range(1000):
            A = rng.standard_normal((2, 2))
            u = rng.standard_normal(2)
            v = rng.standard_normal(2)
            lam = Fraction(int(rng.integers(1, 16)), 16)
            D = np.outer(u, v)
            left = A - (1.0 - float(lam)) * D
            right = A + float(lam) * D
            target = float(lam) * left + (1.0 - float(lam)) * right
            step = ms.SplittingStep(target, left, right, lam)
            nu = ms.elementary_split(ms.dirac(target, certificate=[]), step)
            ok = ok and nu.mass == 1  # exact rational conservation
            bary = ms.barycenter(nu)
            ok = ok and frob(bary - target) <= 1e-10 * (1.0 + frob(target))
            ok = ok and ms.verify_laminate(nu).ok
        bad_rank = ms.SplittingStep(np.zeros((2, 2)), np.eye(2), -np.eye(2), 0.5)
        try:
            ms.elementary_split(ms.dirac(np.zeros((2, 2))), bad_rank)
            ok = False
        except InvalidSplitError:
            pass
        skew = ms.SplittingStep(np.diag([2.0, 2.0]), np.diag([0.5, 2.0]),
                                np.diag([4.0, 2.0]), 4.0 / 7.0 + 1e-3)
        try:
            ms.elementary_split(ms.dirac(np.diag([2.0, 2.0])), skew)
            ok = False
        except InvalidSplitError:
            pass
    _verdict(5, "1000 random splits conserve mass/barycenter; invalid rejected",
             ok, ck.elapsed, 5.0)


def test_criterion_06_roof_realization():
    with _Clock() as ck:
        A1, A2 = np.diag([1.0, 1.0]), np.diag([-1.0, 1.0])
        ok = True
        for lam in (0.3, 0.5, 0.7):
            A = lam * A1 + (1.0 - lam) * A2
            m = synth.roof(A, 0.0, A1, A2, lam, UNIT, eps=0.05)
            rep = synth.verify_map(m, sample_budget=20_000)
            ok = ok and rep.boundary_max <= 1e-9
            for Ai, li in ((A1, lam), (A2, 1.0 - lam)):
                f = m.volume_of(Ai) / UNIT.volume
                ok = ok and (1 - 0.05) * li <= f <= (1 + 0.05) * li
            ok = ok and m.grad_bound() <= max(frob(A1), frob(A2)) + 1e-12
    _verdict(6, "roof realization: exact boundary + volume fractions",
             ok, ck.elapsed, 2.0)


def test_criterion_07_staircase_realization():
    with _Clock() as ck:
        spec = sc.example_staircase("det1", {"a": [2, 2]})
        m = synth.realize_staircase(spec, 6, UNIT, eta=0.1, s_moment=4.0)
        nu6 = sc.build_truncation(spec, 6)
        ok = True
        for a in nu6.atoms:
            got = m.volume_of(a.point, flags=("good", "inductive")) / UNIT.volume
            ok = ok and abs(math.log(got / float(a.weight))) <= 0.1
        ok = ok and m.error_moment(4.0) <= 0.1 * UNIT.volume
    _verdict(7, "level-6 staircase realization within budget factors",
             ok, ck.elapsed, 30.0)


def test_criterion_08_exact_recursion():
    with _Clock() as ck:
        A = np.diag([3.0, 1.0])
        p, M, r = 2.0, 8.0, 1.5
        pam, rounds = synth.reduce_exact(stages.stage3_builder(r), UNIT, A, 0.0,
                                         delta=0.5, alpha=0.5, depth=8,
                                         p=p, M=M, r=r)
        ok = len(rounds) == 8
        for rep in rounds:
            ok = ok and rep.error_moment <= 2.0 ** -rep.round * (1 + 1e-9)
            ok = ok and rep.tail_constant <= 2.0 * M ** p * (1 + 1e-9)
        ok = ok and pam.error_moment(r) <= 2.0 ** -8 * UNIT.volume * (1 + 1e-9)
    _verdict(8, "depth-8 exact recursion: per-round budgets + tail constant",
             ok, ck.elapsed, 60.0)


def test_criterion_09_product_pipeline():
    with _Clock() as ck:
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        res = stages.product_pipeline(A, mode="measure")
        ok = res.mass_in_target >= 0.999
        ok = ok and res.barycenter_error <= 1e-9
        ok = ok and -2.1 <= res.tail_slope <= -1.9
    _verdict(9, "product pipeline n=1: mass/barycenter/tail slope",
             ok, ck.elapsed, 60.0)


def test_criterion_09b_product_smoke_4x4():
    with _Clock() as ck:
        A4 = np.diag([3.0, 1.0, 2.0, 0.5])
        res = stages.product_pipeline(A4, mode="measure", beta_tol=1e-2)
        ok = res.mass_in_target >= 0.9
        ok = ok and res.barycenter_error <= 1e-9
    _verdict(9, "product pipeline n=2 smoke at beta_tol 1e-2",
             ok, ck.elapsed, 300.0)


def test_criterion_10_approximate_sequence():
    with _Clock() as ck:
        A = np.outer([1.0, 1.0], [1.0, 0.0])
        steps = stages.approximate_sequence(A, j_max=6)
        errs = [s.error_moment for s in steps]
        ok = all(b <= a / 4.0 for a, b in zip(errs, errs[2:]))
        floor = min(min(s.dist_L1 for s in steps),
                    min(s.dist_L2 for s in steps))
        ok = ok and floor >= 0.1
        for s in steps:
            ok = ok and abs(s.tail_slope + 2.0) <= 0.05 * 2.0
    _verdict(10, "approximate sequence: moment decay + distance floors",
             ok, ck.elapsed, 120.0)


def test_criterion_11_composition_suite():
    with _Clock() as ck:
        reports = stages.composition_suite(50)
        ok = len(reports) == 50 and all(r.passed for _, _, r in reports)
        _, series = stages.pq_counterexample(1.7, levels=40)
        vals = [v for _, v in series]
        ok = ok and len(vals) == 40
        ok = ok and all(a < b for a, b in zip(vals, vals[1:]))
    _verdict(11, "50 composed tails under C_pq envelope; p=q diverges",
             ok, ck.elapsed, 10.0)


def test_criterion_12_afs_two_sided():
    with _Clock() as ck:
        res = models.afs_pipeline(np.diag([-1.0, 1.0]), 3.0, N=200,
                                  t_grid=np.geomspace(2.0, 50.0, 40))
        ok = res.tail_report.passed and res.fitted_M <= 1e3
    _verdict(12, "elliptic two-sided tails with one fitted M <= 1e3",
             ok, ck.elapsed, 10.0)


def test_criterion_13_plaplace_divergence():
    with _Clock() as ck:
        p = 1.5
        b = models.select_b(p)
        res = models.plap_pipeline(np.diag([b, -1.0]), p, N=10_000)
        qm = res.extra["qbar_moments"]
        ok = all(nxt >= 1.1 * prev for prev, nxt in zip(qm, qm[1:]))
        ok = ok and all(abs(d) <= 1e-3 for d in res.extra["sub_increments"])
        ok = ok and res.tail_report.passed
    _verdict(13, "critical moment grows >= 10%/decade; subcritical Cauchy",
             ok, ck.elapsed, 30.0)


def test_criterion_14_determinism(tmp_path):
    with _Clock() as ck:
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        seed = tmp_path / "seed.json"
        serialize.dump_json(serialize.matrix_to_obj(A), seed)
        # cell enumeration is exponential in lamination depth, so the map
        # artifact uses a single-split laminate
        one_step = ms.elementary_split(
            ms.dirac(np.diag([2.0, 2.0]), certificate=[]),
            ms.SplittingStep(np.diag([2.0, 2.0]), np.diag([0.5, 2.0]),
                             np.diag([4.0, 2.0]), Fraction(4, 7)))
        lam = tmp_path / "onestep.json"
        serialize.dump_json(serialize.measure_to_obj(one_step), lam)
        runs = []
        for tag in ("r1", "r2"):
            d = tmp_path / tag
            d.mkdir()
            assert cli_main(["staircase", "build", "--kind", "det1",
                             "--A", "diag(2,2)", "--N", "20",
                             "--out", str(d / "measure.json")]) == 0
            assert cli_main(["verify", "tails", "--measure",
                             str(d / "measure.json"), "--p", "2", "--M", "8",
                             "--t-grid", "log:1:1e4:60",
                             "--out", str(d / "tails.csv")]) == 0
            assert cli_main(["pipeline", "product", "--n", "1", "--A", str(seed),
                             "--out", str(d / "product.json"),
                             "--tails", str(d / "product_tails.csv"),
                             "--report", str(d / "product_report.json")]) == 0
            assert cli_main(["synth", "realize", "--measure", str(lam),
                             "--eps", "0.2",
                             "--out", str(d / "map.json")]) == 0
            assert cli_main(["models", "afs", "--K", "3", "--A", str(seed),
                             "--N", "100", "--out", str(d / "afs.json")]) == 0
            runs.append({f.name: f.read_bytes() for f in sorted(d.iterdir())})
        ok = runs[0] == runs[1] and len(runs[0]) == 7
    _verdict(14, "byte-identical artifacts across reruns", ok, ck.elapsed, 120.0)
