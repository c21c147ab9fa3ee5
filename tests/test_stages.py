import numpy as np
import pytest

from lamstair import stages as sg
from lamstair import synth
from lamstair.errors import InternalError, PreconditionError, UnsupportedError
from lamstair.matrices import frob, member, rank
from lamstair.measures import tail_mass, verify_laminate
from lamstair.staircase import betas, build_truncation


class TestStage1:
    def test_diagonal_fast_path(self):
        spec = sg.stage1_spec(np.diag([3.0, 1.0]), 2)
        # det-preserving rank drop keeps the 2^-m mass ratio exactly
        bs = betas(spec, 6)
        for n in range(1, 7):
            assert float(bs[n - 1]) == pytest.approx(0.25 ** n, rel=0, abs=0)
        nu = build_truncation(spec, 5)
        assert verify_laminate(nu).ok
        good = [a for a in nu.atoms if rank(a.point) <= 1]
        assert sum(float(a.weight) for a in good) == pytest.approx(1 - 0.25 ** 5)

    def test_generic_seed_conjugated(self):
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        nu = build_truncation(sg.stage1_spec(A, 2), 5)
        bary = sum(float(a.weight) * np.asarray(a.point) for a in nu.atoms)
        assert np.allclose(bary, A, atol=1e-12)
        low = [a for a in nu.atoms if rank(a.point) <= 1]
        assert sum(float(a.weight) for a in low) == pytest.approx(1 - 0.25 ** 5)

    def test_rank_deficient_rejected(self):
        with pytest.raises(PreconditionError):
            sg.stage1_spec(np.outer([1.0, 0.0], [1.0, 0.0]), 2)
        with pytest.raises(PreconditionError):
            sg.stage1_spec(np.diag([3.0, 1.0]), 1)

    def test_plan(self):
        rep = sg.check_plan(sg.stage1_plan(2), np.array([[2.0, 1.0], [0.0, 1.0]]))
        assert rep["barycenter_error"] < 1e-10
        assert rep["off_target_mass"] < 1e-3
        assert rep["tail_ok"]


class TestStage2:
    def test_degenerate_block_example(self):
        # a = (1,1), b = (1,0): the b-side split is trivial, the corners are
        # 2e_i (x) 2e_1 scaled onto the diagonal/antidiagonal components
        A = np.outer([1.0, 1.0], [1.0, 0.0])
        nu = sg.stage2_laminate(A)
        assert verify_laminate(nu).ok
        want = [
            (np.array([[4.0, 0.0], [0.0, 0.0]]), 0.25),
            (np.array([[0.0, 0.0], [4.0, 0.0]]), 0.25),
            (np.zeros((2, 2)), 0.5),
        ]
        assert len(nu) == len(want)
        for point, weight in want:
            hits = [float(a.weight) for a in nu.atoms
                    if np.allclose(a.point, point, atol=1e-9)]
            assert hits == [pytest.approx(weight)]

    def test_generic_rank_one(self):
        A = np.outer([1.0, 2.0], [0.5, 1.0])
        nu = sg.stage2_laminate(A)
        assert verify_laminate(nu).ok
        bary = sum(float(a.weight) * np.asarray(a.point) for a in nu.atoms)
        assert np.allclose(bary, A, atol=1e-12)
        for a in nu.atoms:
            assert member(a.point, "L", 1e-9)
            assert frob(a.point) <= 4.0 * frob(A) + 1e-9

    def test_zero_matrix(self):
        nu = sg.stage2_laminate(np.zeros((2, 2)))
        assert len(nu) == 1
        assert float(nu.atoms[0].weight) == 1.0

    def test_full_rank_rejected(self):
        with pytest.raises(PreconditionError):
            sg.stage2_laminate(np.diag([1.0, 2.0]))

    def test_plan(self):
        rep = sg.check_plan(sg.stage2_plan(), np.outer([1.0, 2.0], [0.5, 1.0]))
        assert rep["barycenter_error"] < 1e-10
        assert rep["off_target_mass"] == 0
        assert rep["tail_ok"]


class TestStage3:
    def test_presplit_weights(self):
        # entry 1/3 below the staircase floor splits to +-2 with weights
        # (2 + 1/3)/4 and (2 - 1/3)/4
        comp = sg.stage3_spec(np.diag([3.0, 1.0 / 3.0]))
        pts = {}
        for a in comp.presplit_input_frame().atoms:
            pts[round(float(np.asarray(a.point)[1, 1]))] = float(a.weight)
        assert pts[2] == pytest.approx(7.0 / 12.0)
        assert pts[-2] == pytest.approx(5.0 / 12.0)

    @pytest.mark.parametrize("A,side", [
        (np.diag([3.0, 1.0 / 3.0]), "L1"),
        (np.array([[0.0, 2.0], [3.0, 0.0]]), "L2"),
    ])
    def test_truncation_reaches_target(self, A, side):
        nu = sg.stage3_spec(A).truncation(8)
        bary = sum(float(a.weight) * np.asarray(a.point) for a in nu.atoms)
        assert np.allclose(bary, A, atol=1e-12)
        good = sum(float(a.weight) for a in nu.atoms
                   if member(a.point, f"{side}&Sigma", 1e-8))
        assert good >= 1.0 - 4.0 * 0.25 ** 8

    def test_sigma_member_is_trivial(self):
        comp = sg.stage3_spec(np.diag([2.0, 0.5]))
        nu = comp.truncation(3)
        good = sum(float(a.weight) for a in nu.atoms
                   if member(a.point, "L1&Sigma", 1e-8))
        assert good >= 1.0 - 4.0 * 0.25 ** 3

    def test_non_split_rejected(self):
        with pytest.raises(PreconditionError):
            sg.stage3_spec(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_plan(self):
        rep = sg.check_plan(sg.stage3_plan(1), np.diag([3.0, 1.0]))
        assert rep["barycenter_error"] < 1e-10
        assert rep["off_target_mass"] < 1e-3
        assert rep["tail_ok"]


class TestProductMeasure:
    def test_reference_seed(self):
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        res = sg.product_pipeline(A, mode="measure")
        assert res.mass_in_target >= 0.999
        assert res.barycenter_error <= 1e-9
        assert -2.1 <= res.tail_slope <= -1.9

    def test_deterministic(self):
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        r1 = sg.product_pipeline(A, mode="measure")
        r2 = sg.product_pipeline(A, mode="measure")
        assert r1.tail_slope == r2.tail_slope
        assert r1.mass_in_target == r2.mass_in_target

    def test_member_seed(self):
        res = sg.product_pipeline(np.diag([2.0, 0.5]), mode="measure")
        assert res.mass_in_target == pytest.approx(1.0)
        assert len(res.measure) == 1

    def test_odd_dimension_rejected(self):
        with pytest.raises(PreconditionError):
            sg.product_pipeline(np.eye(3), mode="measure")
        with pytest.raises(PreconditionError):
            sg.product_pipeline(np.eye(2), mode="frobnicate")


class TestProductMap:
    def test_round_invariants_split_seed(self):
        res = sg.product_pipeline(np.diag([3.0, 1.0]), mode="map", depth=4)
        assert len(res.rounds) == 4
        for rep in res.rounds:
            assert rep.error_moment <= 2.0 ** -rep.round * (1 + 1e-9)
            assert rep.tail_constant <= 2.0 * 8.0 ** 2 * (1 + 1e-9)
        # final gradient atoms outside the target have the residual s-moment
        # under the last round's budget
        off = sum(float(a.weight) for a in res.measure.atoms
                  if not member(a.point, "L&Sigma", 1e-8))
        assert off + res.residual_mass <= 2.0 ** -3 * (1 + 1e-9)

    def test_rank_one_seed(self):
        res = sg.product_pipeline(np.outer([1.0, 1.0], [1.0, 0.0]),
                                  mode="map", depth=2)
        for rep in res.rounds:
            assert rep.error_moment <= 2.0 ** -rep.round * (1 + 1e-9)
        assert synth.verify_map(res.realized_map,
                                sample_budget=500).boundary_max <= 1e-9

    def test_map_mode_needs_2x2(self):
        with pytest.raises(UnsupportedError):
            sg.product_pipeline(np.eye(4), mode="map", depth=1)


class TestApproximateSequence:
    def test_moment_decrease_and_floors(self):
        A = np.outer([1.0, 1.0], [1.0, 0.0])
        steps = sg.approximate_sequence(A, j_max=4)
        errs = [s.error_moment for s in steps]
        for a, b in zip(errs, errs[2:]):
            assert b <= a / 4.0
        floor = min(min(s.dist_L1 for s in steps),
                    min(s.dist_L2 for s in steps))
        assert floor > 0.1
        for s in steps:
            assert -2.1 <= s.tail_slope <= -1.9

    def test_split_seed_rejected(self):
        with pytest.raises(PreconditionError):
            sg.approximate_sequence(np.diag([1.0, 0.0]))
        with pytest.raises(PreconditionError):
            sg.approximate_sequence(np.diag([1.0, 2.0]))


class TestComposition:
    def test_fixed_pair(self):
        nu, rep = sg.composition_trial(2.0, 3.0)
        assert rep.passed
        assert nu.mass == pytest.approx(1.0)

    def test_suite_subset(self):
        reports = sg.composition_suite(10)
        assert len(reports) == 10
        assert all(r.passed for _, _, r in reports)
        assert all(abs(p - q) >= 0.25 for p, q, _ in reports)

    def test_equal_exponents_unsupported(self):
        with pytest.raises(UnsupportedError):
            sg.composition_trial(2.0, 2.0)

    def test_counterexample_diverges(self):
        nu, series = sg.pq_counterexample(1.7, levels=40)
        vals = [v for _, v in series]
        assert len(vals) == 40
        assert all(a < b for a, b in zip(vals, vals[1:]))
        # both factors of the construction are probability measures
        assert nu.mass == pytest.approx(1.0, abs=1e-9)

    def test_counterexample_precondition(self):
        with pytest.raises(PreconditionError):
            sg.pq_counterexample(1.0)


class TestBuilders:
    def test_member_seed_short_circuits(self):
        dom = synth.box((0.0, 0.0), (1.0, 1.0))
        slot = sg.stage3_builder()(np.diag([2.0, 0.5]), dom, np.zeros(2),
                                   0.1, 0.1, 0.5, 0.5)
        assert slot.flag == synth.GOOD
        slot = sg.product_builder()(np.diag([2.0, 0.5]), dom, np.zeros(2),
                                    0.1, 0.1, 0.5, 0.5)
        assert slot.flag == synth.GOOD

    def test_retry_shrinks_budgets_then_names_the_builder(self):
        dom = synth.box((0.0, 0.0), (1.0, 1.0))
        calls = []

        def attempt(eta, theta):
            # an error cell whose r-moment stays at 1 whatever the budgets
            calls.append((eta, theta))
            return synth.SlotMap(dom, np.zeros((2, 2)), 0.0, flag=synth.ERROR)

        with pytest.raises(InternalError) as exc:
            sg._within_slack("stage3_builder", attempt, 0.5, 1e-3, 0.5, 1.5)
        assert str(exc.value).startswith("stage3_builder attempt 8: err/cap = 2;")
        # each retry shrinks eta and theta by max(0.1, cap / (2 err)) = 1/4
        assert calls == [(0.5 * 0.25 ** k, 1e-3 * 0.25 ** k) for k in range(8)]

    def test_stage3_recursion(self):
        dom = synth.box((0.0, 0.0), (1.0, 1.0))
        pam, rounds = synth.reduce_exact(sg.stage3_builder(1.5), dom,
                                         np.diag([3.0, 1.0]), 0.0,
                                         delta=0.5, alpha=0.5, depth=4,
                                         p=2.0, M=8.0, r=1.5)
        assert len(rounds) == 4
        for rep in rounds:
            assert rep.error_moment <= 2.0 ** -rep.round * (1 + 1e-9)
            assert rep.tail_constant <= 2.0 * 64.0 * (1 + 1e-9)
        nu, resid = synth.gradient_distribution(pam)
        good = sum(float(a.weight) for a in nu.atoms
                   if member(a.point, "L&Sigma", 1e-8))
        assert good >= 1.0 - 2.0 ** -3
