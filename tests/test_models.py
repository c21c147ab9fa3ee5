import dataclasses
import hashlib
import json
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from lamstair import measures as ms
from lamstair import models as md
from lamstair import serialize
from lamstair import staircase as sc
from lamstair.errors import PreconditionError
from lamstair.matrices import member


class TestExponent:
    def test_elliptic_reference(self):
        assert md.exponent("elliptic", {"K": 3.0}).value == pytest.approx(1.5)

    def test_plaplace_reference(self):
        prof = md.exponent("plaplace", {"p": 1.5, "b": 9.0})
        assert prof.value == pytest.approx(1.025, abs=1e-12)
        assert prof.valid

    def test_plaplace_b_one_invalid(self):
        prof = md.exponent("plaplace", {"p": 1.5, "b": 1.0})
        assert prof.value == pytest.approx(0.75)
        assert not prof.valid

    def test_elliptic_monotone_to_two(self):
        vals = [md.exponent("elliptic", {"K": K}).value
                for K in np.linspace(1.01, 500.0, 120)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 2.0
        assert md.exponent("elliptic", {"K": 1e9}).value == pytest.approx(2.0, abs=1e-8)

    def test_bad_params(self):
        with pytest.raises(PreconditionError):
            md.exponent("elliptic", {"K": 1.0})
        with pytest.raises(PreconditionError):
            md.exponent("plaplace", {"p": 2.5, "b": 3.0})

    @pytest.mark.parametrize("build", [
        lambda: md.exponent("elliptic", {"K": np.inf}),
        lambda: sc.example_staircase("elliptic", {"K": np.inf}),
        lambda: sc.extended_measure("elliptic", np.diag([-1.0, 1.0]), {"K": np.inf}),
        lambda: md.afs_pipeline(np.diag([-1.0, 1.0]), np.inf, N=2)],
        ids=["exponent", "staircase", "extended", "afs"])
    def test_elliptic_K_must_be_finite(self, build):
        # the exponent was nan with valid=True, and the family's target set
        # E:0.0 is no set at all
        with pytest.raises(PreconditionError, match="need a finite K > 1"):
            build()


class TestSelectB:
    @pytest.mark.parametrize("p", [1.1, 1.5, 1.9])
    def test_valid_exponent(self, p):
        b = md.select_b(p)
        prof = md.exponent("plaplace", {"p": p, "b": b})
        assert 1.0 < prof.value < p

    def test_dominates_reference_point(self):
        b = md.select_b(1.5)
        assert md.exponent("plaplace", {"p": 1.5, "b": b}).value >= 1.025 - 1e-10

    def test_interior_stationarity(self):
        b = md.select_b(1.5)
        h = 1e-4
        qp = md.exponent("plaplace", {"p": 1.5, "b": b + h}).value
        qm = md.exponent("plaplace", {"p": 1.5, "b": b - h}).value
        assert abs(qp - qm) / (2 * h) < 1e-6

    def test_strictly_below_p_many(self):
        for p in np.linspace(1.02, 1.98, 20):
            b = md.select_b(float(p))
            assert md.exponent("plaplace", {"p": float(p), "b": b}).value < p

    def test_no_valid_exponent_is_precondition(self):
        # for p this close to 1 no b <= B_MAX gives an exponent above 1
        with pytest.raises(PreconditionError, match="no b <= 1e\\+06 gives an exponent"):
            md.select_b(1.000001)


def select_b_scipy(p, b_max=md.B_MAX, tol=1e-8):
    """select_b as it was written on scipy's bounded minimizer; reference only."""
    optimize = pytest.importorskip("scipy.optimize")

    def neg_q(b):
        return -md.exponent("plaplace", {"p": p, "b": b}).value

    grid = np.geomspace(1.0 + 1e-6, b_max, 200)
    vals = np.array([neg_q(b) for b in grid])
    i = int(np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    res = optimize.minimize_scalar(neg_q, bounds=(lo, hi), method="bounded",
                                   options={"xatol": tol})
    return float(res.x)


def test_select_b_matches_scipy_bounded_brent():
    for p in np.linspace(1.01, 1.99, 99):
        assert md.select_b(float(p)) == select_b_scipy(float(p))


class TestAfsPipeline:
    def test_reference_two_sided(self):
        res = md.afs_pipeline(np.diag([-1.0, 1.0]), K=3.0, N=200,
                              t_grid=np.geomspace(2.0, 50.0, 40))
        assert res.tail_report.passed
        assert res.fitted_M <= 1e3
        for row in res.tail_report.rows:
            assert row.lower_env <= row.upper_env + 1e-15

    def test_tail_slope(self):
        res = md.afs_pipeline(np.diag([-1.0, 1.0]), K=3.0, N=2000,
                              t_grid=np.geomspace(10.0, 1e3, 50))
        ts = np.array([r.t for r in res.tail_report.rows])
        tails = np.array([r.tail for r in res.tail_report.rows])
        keep = tails > 0
        slope = np.polyfit(np.log(ts[keep]), np.log(tails[keep]), 1)[0]
        assert slope == pytest.approx(-1.5, abs=0.02)

    def test_member_seed_trivial(self):
        res = md.afs_pipeline(np.diag([1.0, 3.0]), K=3.0, N=5)
        assert len(res.measure) == 1


class TestPlapPipeline:
    def test_moment_divergence_proxy(self):
        b = md.select_b(1.5)
        res = md.plap_pipeline(np.diag([b, -1.0]), p=1.5, N=10_000, b=b)
        assert res.tail_report.passed
        qm = res.extra["qbar_moments"]
        assert len(qm) == 3
        assert qm[1] >= 1.1 * qm[0]
        assert qm[2] >= 1.1 * qm[1]
        assert all(0 <= inc < 1e-3 for inc in res.extra["sub_increments"])

    def test_atom_parametrization(self):
        res = md.plap_pipeline(np.diag([1.0, -1.0]), p=1.5, N=200)
        # singular values satisfy s2 = s1^(p-1) on every atom except the
        # truncation remainders, whose mass is the booked residual
        bad = 0.0
        for a in res.measure.atoms:
            s = np.linalg.svd(a.point, compute_uv=False)
            if s[0] > 1e-9 and abs(s[1] - s[0] ** 0.5) > 1e-6 * (1 + s[1]):
                bad += float(a.weight)
        assert bad <= res.extended.residual_mass(200) + 1e-9


PLAP_CASES = [(1.3, 2_000), (1.9, 2_000), (1.5, 10_000)]


def run_plap(p, N):
    b = md.select_b(p)
    return md.plap_pipeline(np.diag([b, -1.0]), p, N=N, b=b)


TRUNCATION_CASES = {
    # the report and result at 400, the moment checkpoints and increments
    "plap_10000": (lambda: run_plap(1.5, 10_000),
                   [400, 100, 1_000, 10_000, 2_000, 1_999, 5_000, 4_999, 9_999]),
    # the report's truncation is also the moment checkpoint's
    "plap_100": (lambda: run_plap(1.5, 100), [100]),
    "afs_100": (lambda: md.afs_pipeline(np.diag([-1.0, 1.0]), K=3.0, N=100), [100]),
}


@pytest.mark.parametrize("case", sorted(TRUNCATION_CASES))
def test_each_truncation_is_built_once(case, monkeypatch):
    run, levels = TRUNCATION_CASES[case]
    calls = []
    truncate = sc.ExtendedMeasure.truncate

    def spy(ext, N):
        calls.append(N)
        return truncate(ext, N)

    monkeypatch.setattr(sc.ExtendedMeasure, "truncate", spy)
    run()
    assert sorted(calls) == sorted(levels)


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _floats(vals):
    return [float(v) if isinstance(v, float) else v for v in vals]


def plap_digests(res) -> dict:
    """sha256 of plap_pipeline's moments, increments, fitted M, tail rows
    and measure; floats as Python floats, the measure as sorted-key JSON."""
    measure = json.dumps(serialize.measure_to_obj(res.measure), sort_keys=True)
    return {
        "qbar_moments": _sha(_floats(res.extra["qbar_moments"])),
        "sub_moments": _sha(_floats(res.extra["sub_moments"])),
        "sub_increments": _sha(_floats(res.extra["sub_increments"])),
        "fitted_M": _sha(float(res.fitted_M)),
        "tail_rows": _sha([_floats(dataclasses.astuple(r))
                           for r in res.tail_report.rows]),
        "measure": hashlib.sha256(measure.encode()).hexdigest(),
    }


PLAP_REFERENCE = json.loads(
    (pathlib.Path(__file__).parent / "plap_digests.json").read_text())


class TestPlapOutputs:
    @pytest.mark.parametrize("p,N", PLAP_CASES)
    def test_recorded_digests(self, p, N):
        assert plap_digests(run_plap(p, N)) == PLAP_REFERENCE["cases"][f"p={p!r},N={N}"]

    def test_each_level_built_once(self, monkeypatch):
        # criterion 13 truncates each staircase 14 times; every level is
        # still built once per spec (a row of a block: the source's rows by
        # the family's block builder, the transformed spec's by mapping
        # them) and validated twice (in the stacked check of each block),
        # and only the transformed spec keeps its levels
        N = 10_000
        built = {}
        validated = [0]
        init, check = sc.StaircaseSpec.__init__, sc._block_failure

        def counting_init(spec, *args, block_fn=None, **kwargs):
            built[spec] = 0

            def counted(lo, hi):
                blk, err = block_fn(lo, hi)
                built[spec] += 0 if blk is None else len(blk)
                return blk, err

            init(spec, *args, block_fn=counted, **kwargs)

        def counting_check(blk, *args, **kwargs):
            validated[0] += len(blk)
            return check(blk, *args, **kwargs)

        monkeypatch.setattr(sc.StaircaseSpec, "__init__", counting_init)
        monkeypatch.setattr(sc, "_block_failure", counting_check)
        res = run_plap(1.5, N)
        outer = [sp for _, sp in res.extended.tails]
        inner = [sp for sp in built if sp not in outer]
        assert len(outer) == len(inner) == 1
        assert list(built.values()) == [N, N]
        assert validated[0] == 2 * N
        assert not inner[0]._memo and len(outer[0]._memo) == N


class TestDuality:
    def test_atom_example(self):
        p = 1.5
        lam = 2.0
        nu = ms.dirac(np.diag([lam, lam ** (p - 1)]))
        out = md.duality_swap(nu, p)
        pt = out.atoms[0].point
        assert member(pt, f"Kp:{p / (p - 1)!r}", 1e-9)
        # norm relation |row1'|^{p'} = |row1|^p
        pprime = p / (p - 1)
        assert np.linalg.norm(pt[0]) ** pprime == pytest.approx(lam ** p)

    def test_involution_and_mass(self):
        from lamstair import staircase as sc
        spec = sc.example_staircase("plaplace", {"p": 1.5, "b": 9.0})
        nu = spec.step(1).mu  # probability measure supported in the inclusion set
        out = md.duality_swap(md.duality_swap(nu, 1.5), 3.0)
        assert out.mass == pytest.approx(nu.mass)
        for a, b in zip(nu.atoms, out.atoms):
            assert np.allclose(a.point, b.point)

    def test_non_member_rejected(self):
        with pytest.raises(PreconditionError):
            md.duality_swap(ms.dirac(np.diag([1.0, 5.0])), 1.5)

    @pytest.mark.parametrize("p", [np.float64(1.5), Fraction(3, 2)])
    def test_p_of_another_number_type(self, p):
        # the set id is built from float(p): "Kp:np.float64(1.5)" did not parse
        nu = ms.dirac(np.diag([2.0, 2.0 ** 0.5]))
        out = md.duality_swap(nu, p)
        assert out.atoms[0].point.tobytes() == md.duality_swap(nu, 1.5).atoms[0].point.tobytes()

    @pytest.mark.parametrize("p", [math.inf, math.nan, 1.0, 0.5])
    def test_p_must_be_finite_and_above_one(self, p):
        with pytest.raises(PreconditionError, match="need a finite p > 1"):
            md.duality_swap(ms.dirac(np.diag([2.0, 2.0 ** 0.5])), p)
