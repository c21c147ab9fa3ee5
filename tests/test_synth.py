import dataclasses
import hashlib
import inspect
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from collections import namedtuple
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lamstair import measures as ms
from lamstair import serialize
from lamstair import staircase as sc
from lamstair import synth as sy
from lamstair.errors import (InternalError, PreconditionError, UnsupportedError,
                             VerdictFailure)
from lamstair.matrices import asmatrix, frob

UNIT = sy.box((0.0, 0.0), (1.0, 1.0))

# one row of a distribution walk, as the reference walks build them
Row = namedtuple("Row", "vol G flag slot")


def walk_rows(walk):
    """The rows of a distribution walk, read off its columns."""
    return [Row(*r) for r in zip(walk.vol.tolist(), walk.G, walk.flag, walk.slot)]


def walk_of(rows):
    """A finished walk holding the given (vol, G, flag, slot) rows."""
    walk = sy._Walk()
    for v, G, f, slot in rows:
        walk.vol.append(v)
        walk.G.append(G)
        walk.flag.append(f)
        walk.slot.append(slot)
    return walk.finish()


def poly_area(verts):
    v = np.asarray(verts)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


class TestBoxes:
    def test_round_trip(self):
        b = sy.box((0, -1), (2, 3))
        assert b.volume == pytest.approx(8.0)
        X = np.array([[1.3, 0.7], [5.0, 0.0]])
        assert np.allclose(b.to_world(b.to_local_many(X)[0]), X[0])
        assert np.allclose(b.to_world_many(b.to_local_many(X)), X)
        assert b.contains_many(X).tolist() == [True, False]

    def test_boundary_param_stays_on_edges(self):
        b = sy.box((0, 0), (1, 2))
        for t in np.linspace(0.0, 0.999, 57):
            z = b.to_local_many(b.boundary_points([t]))[0]
            # a perimeter point pins at least one local coordinate at its half
            assert min(abs(abs(z[0]) - b.half[0]), abs(abs(z[1]) - b.half[1])) < 1e-12
            assert abs(z[0]) <= b.half[0] + 1e-12 and abs(z[1]) <= b.half[1] + 1e-12

    def test_bad_inputs(self):
        with pytest.raises(PreconditionError):
            sy.box((0, 0), (0, 1))
        with pytest.raises(PreconditionError):
            sy.OBox((0, 0), (1, 1), [[1, 1], [0, 1]])

    @pytest.mark.parametrize("center, half, frame, message", [
        ((0, 0), (1, 1), [[1, 0], [0, math.nan]], "frame must be finite and orthogonal"),
        ((0, 0), (1, 1), [[1e200, 0], [0, 1]], "frame must be finite and orthogonal"),
        ((0, 0), (1, 1), [[math.inf, 0], [0, 1]], "frame must be finite and orthogonal"),
        ((math.nan, 0), (1, 1), None, "center and volume must be finite"),
        ((0, -math.inf), (1, 1), None, "center and volume must be finite"),
        ((0, 0), (1, math.inf), None, "center and volume must be finite"),
        ((0, 0), (1e300, 1e300), None, "center and volume must be finite"),
        ((0, 0), (1, math.nan), None, "half-widths must be positive")],
        ids=["nan_frame", "huge_frame", "inf_frame", "nan_center", "inf_center",
             "inf_half", "volume_overflow", "nan_half"])
    def test_non_finite_geometry(self, center, half, frame, message):
        # a NaN frame or center, an infinite half-width and an overflowing
        # volume were accepted; the checks warn nothing
        with pytest.raises(PreconditionError, match=message):
            sy.OBox(center, half, frame)

    def test_box_overflowing_width(self):
        with pytest.raises(PreconditionError, match=r"half-widths \[inf, 0.5\]"):
            sy.box((-1.7e308, 0.0), (1.7e308, 1.0))


class TestRoof:
    def test_symmetric_halves(self):
        # equal fractions by symmetry of the two gradients
        A1 = np.array([[1.0, 0.0], [2.0, 0.0]])
        m = sy.roof(np.zeros((2, 2)), 0.0, A1, -A1, 0.5, UNIT, eps=0.05)
        f1 = m.volume_of(A1)
        f2 = m.volume_of(-A1)
        assert f1 == pytest.approx(f2)
        assert 0.5 * 0.95 <= f1 <= 0.5 * 1.05

    @pytest.mark.parametrize("lam", [0.3, 0.5, 0.7])
    def test_fraction_bounds(self, lam):
        A1 = np.diag([1.0, 1.0])
        A2 = np.diag([-1.0, 1.0])
        A = lam * A1 + (1 - lam) * A2
        m = sy.roof(A, 0.0, A1, A2, lam, UNIT, eps=0.05)
        for Ai, li in ((A1, lam), (A2, 1 - lam)):
            f = m.volume_of(Ai) / UNIT.volume
            assert (1 - 0.05) * li <= f <= (1 + 0.05) * li
        assert m.grad_bound() <= max(frob(A1), frob(A2)) + 1e-12

    def test_boundary_and_continuity(self):
        A1 = np.diag([1.0, 1.0])
        A2 = np.diag([-1.0, 1.0])
        A = 0.3 * A1 + 0.7 * A2
        m = sy.roof(A, (0.5, -0.2), A1, A2, 0.3, UNIT, eps=0.05)
        rep = sy.verify_map(m, sample_budget=4000)
        assert rep.boundary_max <= 1e-9
        assert rep.continuity_max <= rep.grad_bound * (1 + 1e-9)
        assert rep.grad_samples_max <= rep.grad_bound + 1e-12

    def test_gradient_distribution_shape(self):
        A1 = np.diag([1.0, 1.0])
        A2 = np.diag([-1.0, 1.0])
        A = 0.4 * A1 + 0.6 * A2
        m = sy.roof(A, 0.0, A1, A2, 0.4, UNIT, eps=0.1)
        nu, res = m.gradient_distribution()
        assert res == 0.0
        main = (float(nu.atoms[nu.find(A1)].weight)
                + float(nu.atoms[nu.find(A2)].weight))
        assert 1.0 - main <= 0.1

    def test_rotated_direction(self):
        th = 0.6
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        A1 = np.diag([1.0, 1.0]) @ R
        A2 = np.diag([-1.0, 1.0]) @ R
        lam = 0.35
        A = lam * A1 + (1 - lam) * A2
        m = sy.roof(A, 0.0, A1, A2, lam, UNIT, eps=0.1)
        assert m.residual_volume <= 0.05 * UNIT.volume
        for Ai, li in ((A1, lam), (A2, 1 - lam)):
            f = m.volume_of(Ai) / UNIT.volume
            assert (1 - 0.1) * li <= f <= (1 + 0.1) * li
        rep = sy.verify_map(m, sample_budget=1000)
        assert rep.boundary_max <= 1e-9

    def test_invalid_inputs(self):
        A1 = np.diag([1.0, 1.0])
        A2 = np.diag([-1.0, -1.0])  # rank-two difference
        with pytest.raises(PreconditionError):
            sy.roof(0.5 * (A1 + A2), 0.0, A1, A2, 0.5, UNIT, eps=0.1)
        A2 = np.diag([-1.0, 1.0])
        with pytest.raises(PreconditionError):
            sy.roof(0.5 * (A1 + A2), 0.0, A1, A2, 0.5, UNIT, eps=0.0)
        with pytest.raises(PreconditionError):
            sy.roof(A1, 0.0, A1, A2, 0.5, UNIT, eps=0.1)  # wrong combination

    def test_cell_volumes_sum(self):
        A1 = np.diag([1.0, 1.0])
        A2 = np.diag([-1.0, 1.0])
        A = 0.5 * (A1 + A2)
        m = sy.roof(A, 0.0, A1, A2, 0.5, UNIT, eps=0.2)
        cm = m.cells()
        assert sum(poly_area(v[:n]) for v, n in zip(cm.vertices, cm.counts)) \
            == pytest.approx(1.0)
        # cell offsets reproduce the map on their region
        x = np.mean(cm.vertices[0, :cm.counts[0]], axis=0)
        assert np.allclose(m.evaluate(x), cm.A[0] @ x + cm.b[0])

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.1, 0.9), st.floats(-2.0, 2.0), st.floats(0.2, 2.0),
           st.integers(0, 3))
    def test_conservation_property(self, lam, a, s, quarter):
        # axis-aligned lamination direction, arbitrary rank-one amplitude
        th = quarter * math.pi / 2
        R = np.array([[math.cos(th), -math.sin(th)],
                      [math.sin(th), math.cos(th)]])
        eta = R @ np.array([s, a / 2.0])
        A1 = np.outer(eta, [1.0, 0.0])
        A2 = -A1
        A = lam * A1 + (1 - lam) * A2
        m = sy.roof(A, 0.0, A1, A2, lam, UNIT, eps=0.1)
        vols = sum(m.distribution().vol.tolist())
        assert vols == pytest.approx(UNIT.volume)
        x = UNIT.boundary_points([0.37])[0]
        assert np.allclose(m.evaluate(x), A @ x, atol=1e-12)


class TestFiniteLaminate:
    @pytest.mark.parametrize("realize", [
        lambda: sy.realize_finite_laminate(ms.dirac(np.eye(4)), UNIT, eps=0.1),
        lambda: sy.realize_finite_laminate(ms.dirac(np.eye(2, 3)), UNIT, eps=0.1),
        lambda: sy.realize_finite_laminate(sc.build_truncation(sc.example_staircase(
            "det1", {"a": [2, 2, 2, 2]}), 2), UNIT, eps=0.1),
        lambda: sy.realize_staircase(sc.example_staircase("det1", {"a": [2, 2, 2, 2]}),
                                     2, UNIT),
        lambda: sy.roof(np.zeros((3, 3)), 0.0, np.eye(3), -np.eye(3), 0.5, UNIT, 0.1)],
        ids=["dirac44", "dirac23", "det1_44", "staircase44", "roof33"])
    def test_non_2x2_is_precondition(self, realize):
        # each ended in a numpy ValueError
        with pytest.raises(PreconditionError, match=r"2x2 gradients, got shape \([234], [234]\)"):
            realize()

    @pytest.mark.parametrize("a, A", [([2, 2, 2, 2], np.eye(2)), ([2, 2], np.eye(3))],
                             ids=["4x4 root, 2x2 A", "2x2 root, 3x3 A"])
    @pytest.mark.parametrize("how", ["laminate", "staircase"])
    def test_barycenter_of_another_shape_is_precondition(self, how, a, A):
        # each ended in a numpy ValueError from the barycenter comparison
        spec = sc.example_staircase("det1", {"a": a})
        with pytest.raises(PreconditionError, match=r"2x2 gradients, got shape \([34], [34]\)"):
            if how == "laminate":
                sy.realize_finite_laminate(sc.build_truncation(spec, 2), UNIT, A=A)
            else:
                sy.realize_staircase(spec, 2, UNIT, A=A)

    def test_dirac_is_affine(self):
        A = np.array([[1.0, 2.0], [0.0, 1.0]])
        m = sy.realize_finite_laminate(ms.dirac(A), UNIT, eps=0.1)
        nu, res = m.gradient_distribution()
        assert len(nu) == 1 and res == 0.0
        x = np.array([0.2, 0.9])
        assert np.allclose(m.evaluate(x), A @ x)

    def test_uncertified_rejected(self):
        nu = ms.DiscreteMeasure([ms.Atom(0.5, np.eye(2)), ms.Atom(0.5, -np.eye(2))])
        with pytest.raises(PreconditionError):
            sy.realize_finite_laminate(nu, UNIT, eps=0.1)

    def test_first_level_fractions(self):
        spec = sc.example_staircase("det1", {"a": [2, 2]})
        nu = sc.build_truncation(spec, 1)
        m = sy.realize_finite_laminate(nu, UNIT, eps=0.1)
        gd, res = m.gradient_distribution()
        off = res
        for a in gd.atoms:
            i = nu.find(a.point)
            if i is None:
                off += float(a.weight)
            else:
                w = float(nu.atoms[i].weight)
                assert (1 - 0.1) * w <= float(a.weight) <= (1 + 0.1) * w
        assert off <= 0.1

    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
    def test_tv_convergence(self, eps):
        spec = sc.example_staircase("det1", {"a": [2, 3]})
        nu = sc.build_truncation(spec, 2)
        m = sy.realize_finite_laminate(nu, UNIT, eps=eps)
        gd, res = m.gradient_distribution()
        tv = res
        seen = 0.0
        for a in nu.atoms:
            i = gd.find(a.point)
            got = float(gd.atoms[i].weight) if i is not None else 0.0
            tv += abs(got - float(a.weight))
            seen += got
        tv += max(gd.mass - seen, 0.0)
        assert tv <= eps

    def test_boundary_exact(self):
        spec = sc.example_staircase("det1", {"a": [2, 2]})
        nu = sc.build_truncation(spec, 1)
        m = sy.realize_finite_laminate(nu, UNIT, b=(1.0, -1.0), eps=0.1)
        rep = sy.verify_map(m, sample_budget=2000)
        assert rep.boundary_max <= 1e-9


class TestStaircaseRealization:
    def test_reference_budget(self):
        spec = sc.example_staircase("det1", {"a": [2, 2]})
        m = sy.realize_staircase(spec, 6, UNIT, eta=0.1, s_moment=4.0)
        nu6 = sc.build_truncation(spec, 6)
        for a in nu6.atoms:
            got = m.volume_of(a.point, flags=("good", "inductive")) / UNIT.volume
            assert abs(math.log(got / float(a.weight))) <= 0.1
        assert m.error_moment(4.0) <= 0.1 * UNIT.volume * (1 - 2.0 ** -6)
        ind = sum(va.vol for va in walk_rows(m.distribution()) if va.flag == "inductive")
        beta6 = float(sc.betas(spec, 6)[-1])
        assert math.exp(-0.1) * beta6 <= ind / UNIT.volume <= math.exp(0.1) * beta6

    def test_single_level_matches_laminate(self):
        spec = sc.example_staircase("det1", {"a": [2, 2]})
        m = sy.realize_staircase(spec, 1, UNIT, eta=0.2)
        nu = sc.build_truncation(spec, 1)
        for a in nu.atoms:
            got = m.volume_of(a.point, flags=("good", "inductive")) / UNIT.volume
            assert abs(math.log(got / float(a.weight))) <= 0.2

    def test_tail_within_factor(self):
        spec = sc.example_staircase("det1", {"a": [2, 2]})
        m = sy.realize_staircase(spec, 6, UNIT, eta=0.1)
        gd, _ = m.gradient_distribution()
        nu6 = sc.build_truncation(spec, 6)
        for t in (1.0, 3.0, 10.0, 40.0):
            expect = ms.tail_mass(nu6, t)
            got = sum(float(a.weight) for a in gd.atoms
                      if frob(a.point) > t and nu6.find(a.point) is not None)
            if expect > 0:
                assert got >= math.exp(-0.1) * expect
                assert got <= math.exp(0.1) * expect

    def test_cell_budget_guard(self):
        spec = sc.example_staircase("det1", {"a": [2, 2]})
        m = sy.realize_staircase(spec, 6, UNIT, eta=0.1)
        with pytest.raises(UnsupportedError):
            m.cells(max_cells=100)


def det1_builder(A_seed, dom, b, slack_frac, inductive_frac, sup_budget, alpha,
                 r=1.5):
    a = np.diag(np.asarray(A_seed, dtype=float))
    spec = sc.example_staircase("det1", {"a": a.tolist(), "unchecked": True})
    growth = 1.0 + np.linalg.norm(A_seed) ** r
    N = 1
    while True:
        bN = float(sc.betas(spec, N)[-1])
        AN = spec.step(N).A_next
        if bN * (1.0 + np.linalg.norm(AN) ** r) <= inductive_frac * growth:
            break
        N += 1
        if N > 200:
            raise RuntimeError("no admissible truncation depth")
    eta = min(0.9, 2.0 * slack_frac * growth)
    m = sy.realize_staircase(spec, N, dom, b=b, eta=eta,
                             delta=sup_budget if sup_budget > 0 else math.inf,
                             s_moment=r)
    return m.root


class TestReduceExact:
    def test_round_budgets(self):
        A0 = np.diag([3.0, 3.0])
        pam, reports = sy.reduce_exact(det1_builder, UNIT, A0, 0.0, delta=0.5,
                                       alpha=0.5, depth=6, p=2.0, M=8.0, r=1.5)
        assert len(reports) == 6
        for rr in reports:
            assert rr.error_moment <= 2.0 ** -rr.round * UNIT.volume
            assert rr.tail_constant <= 2.0 * 8.0 ** 2
        assert reports[-1].error_moment <= 2.0 ** -6 * UNIT.volume
        assert pam.sup_dev() <= 0.5

    def test_single_round_is_builder_output(self):
        A0 = np.diag([2.0, 2.0])
        pam, reports = sy.reduce_exact(det1_builder, UNIT, A0, 0.0, delta=1.0,
                                       alpha=0.5, depth=1, p=2.0, M=8.0, r=1.5)
        assert len(reports) == 1
        assert reports[0].patched_slots == 1

    def test_contract_violation_detected(self):
        def lying_builder(A_seed, dom, b, slack_frac, inductive_frac,
                          sup_budget, alpha):
            # ignores its budgets: returns a single inductive cell at a
            # gradient too large for the promised moment bound
            big = 10.0 * np.asarray(A_seed, dtype=float)
            return sy.SlotMap(dom, big, b, flag="inductive")

        with pytest.raises(VerdictFailure) as exc:
            sy.reduce_exact(lying_builder, UNIT, np.diag([3.0, 3.0]), 0.0,
                            delta=1.0, alpha=0.5, depth=2, p=2.0, M=8.0, r=1.5)
        assert "round" in str(exc.value)

    def test_one_root_walk_per_round(self):
        calls = []

        def counting_builder(*args):
            node = det1_builder(*args)
            if not calls:
                # the first output is the root; record what each distribution
                # call of the whole tree returns
                walk = node.distribution
                calls.append(None)

                def counted():
                    calls.append(walk())
                    return calls[-1]

                node.distribution = counted
            return node

        depth = 3
        pam, reports = sy.reduce_exact(counting_builder, UNIT, np.diag([3.0, 3.0]),
                                       0.0, delta=0.5, alpha=0.5, depth=depth,
                                       p=2.0, M=8.0, r=1.5)
        assert len(reports) == depth and reports[-1].patched_slots > 0
        # round 0 reuses the walk of the builder's check, later rounds walk
        # once each, and the seal takes the last round's walk: the kept walk
        # itself, not a walk again
        walks = calls[1:]
        assert len(walks) == depth + 1
        assert len({id(w) for w in walks}) == depth and walks[-1] is walks[-2]
        assert pam.distribution() is walks[-1]


class TestExtendedRealization:
    def test_pure_seed(self):
        ext = sc.extended_measure("elliptic", np.diag([-1.0, 1.0]), {"K": 3.0})
        m = sy.realize_extended(ext, UNIT, delta=0.1, depth=3)
        ind = sum(va.vol for va in walk_rows(m.distribution()) if va.flag == "inductive")
        assert ind / UNIT.volume == pytest.approx(ext.residual_mass(3), rel=0.2)
        assert m.residual_volume == 0.0

    def test_member_seed_affine(self):
        ext = sc.extended_measure("elliptic", np.diag([2.0, 6.0]), {"K": 3.0})
        m = sy.realize_extended(ext, UNIT, delta=0.1, depth=3)
        nu, res = m.gradient_distribution()
        assert len(nu) == 1 and res == 0.0

    def test_generic_seed_with_rotated_cover(self):
        rng = np.random.default_rng(0)
        A = rng.uniform(-2.0, 2.0, size=(2, 2))
        ext = sc.extended_measure("elliptic", A, {"K": 3.0})
        m = sy.realize_extended(ext, UNIT, delta=0.2, depth=2)
        nu, res = m.gradient_distribution()
        assert nu.mass + res == pytest.approx(1.0)
        assert res <= 0.05
        rep = sy.verify_map(m, sample_budget=500)
        assert rep.boundary_max <= 1e-9
        assert rep.continuity_max <= rep.grad_bound * (1 + 1e-9)


class TestSwap:
    def test_swap_consistency(self):
        ext = sc.extended_measure("elliptic", np.diag([-1.0, 1.0]), {"K": 3.0})
        m = sy.realize_extended(ext, UNIT, delta=0.1, depth=2)
        sw = m.swap_components()
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = np.array([0.31, 0.64])
        assert np.allclose(sw.evaluate(x), P @ m.evaluate(P @ x))
        assert np.allclose(sw.gradient_at(x), P @ m.gradient_at(P @ x) @ P)
        nu0, _ = m.gradient_distribution()
        nu1, _ = sw.gradient_distribution()
        assert nu1.mass == pytest.approx(nu0.mass)


class TestVerifyAffine:
    def test_affine_all_zero(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        m = sy.realize_finite_laminate(ms.dirac(A), UNIT, eps=0.1)
        rep = sy.verify_map(m, sample_budget=500)
        assert rep.boundary_max == 0.0
        # second differences of an affine map vanish up to float cancellation
        assert rep.continuity_max <= 1e-5 * (1 + rep.grad_bound)
        assert rep.holder_estimate <= 1e-12


# ---------------------------------------------------------------------------
# batched evaluation: rows independent of their batch, recorded reference
# digests, and the cells as an independent oracle


def assert_rows_bitwise(batched, rows, shape):
    ref = np.array(rows, dtype=float).reshape(shape)
    assert batched.shape == shape
    assert batched.tobytes() == ref.tobytes()


def assert_batched_matches_pointwise(m, X):
    """Each row of a batch equals, bit for bit, the point evaluated alone
    (a one-row batch for sealed maps), so no row depends on the others."""
    k = len(X)
    assert_rows_bitwise(m.evaluate_many(X), [m.evaluate(x) for x in X], (k, 2))
    assert_rows_bitwise(m.gradient_many(X), [m.gradient_at(x) for x in X],
                        (k, 2, 2))


def probe_points(dom, seed, k=300):
    """Random interior points, perimeter points and the domain corners."""
    rng = np.random.default_rng(seed)
    return np.concatenate([dom.interior_points(rng.random((k, 2)), margin=0.0),
                           dom.boundary_points(rng.random(k // 4)),
                           np.array(dom.corners())])


def laminate(A, splits):
    """Certified laminate: each split (angle, eta, lam) divides the left atom
    of the previous split along the unit direction at that angle."""
    nu = ms.dirac(A, certificate=[])
    target = A
    for th, eta, lam in splits:
        D = np.outer(eta, [math.cos(th), math.sin(th)])
        left, right = target + (1.0 - lam) * D, target - lam * D
        nu = ms.elementary_split(nu, ms.SplittingStep(target, left, right, lam))
        target = left
    return nu


def one_step_laminate():
    # diag(2,2) = (4/7) diag(1/2,2) + (3/7) diag(4,2), the map of criterion 14
    return laminate(np.diag([2.0, 2.0]), [(0.0, (-3.5, 0.0), 4.0 / 7.0)])


def rotated_roof(eps):
    th = 0.6
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    A1, A2 = np.diag([1.0, 1.0]) @ R, np.diag([-1.0, 1.0]) @ R
    return sy.roof(0.35 * A1 + 0.65 * A2, (0.2, -0.1), A1, A2, 0.35, UNIT, eps=eps)


@lru_cache(maxsize=None)
def fixed_map(name):
    spec = sc.example_staircase("det1", {"a": [2, 2]})
    if name == "rotated_roof":
        return rotated_roof(0.1)
    if name == "grid_staircase":
        return sy.realize_staircase(spec, 4, sy.box((0.0, 0.0), (3.0, 0.5)),
                                    eta=0.2)
    if name == "swapped":
        ext = sc.extended_measure("elliptic", np.diag([-1.0, 1.0]), {"K": 3.0})
        return sy.realize_extended(ext, UNIT, delta=0.1, depth=2).swap_components()
    if name == "cell_map":
        m = sy.realize_finite_laminate(one_step_laminate(), UNIT, b=(1.0, -1.0),
                                       eps=0.2)
        return serialize.map_from_obj(json.loads("".join(serialize._map_chunks(m.cells()))))
    raise KeyError(name)


REFERENCE = json.loads(
    (pathlib.Path(__file__).parent / "evaluation_digests.json").read_text())


def rows_sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()


def report_sha256(rep):
    vals = [float(v) if isinstance(v, float) else v for v in dataclasses.astuple(rep)]
    return hashlib.sha256(repr(vals).encode()).hexdigest()


@pytest.mark.parametrize("hi", [(1e-300, 1.0), (1.0, 1e-160)])
def test_grid_cover_of_a_too_small_box_is_precondition(hi):
    # the volume factor k0 k1 sigma^2 underflows, so the cells' volumes
    # could not sum to the box's
    dom = sy.box((0.0, 0.0), hi)
    nu = ms.elementary_split(ms.dirac(np.diag([2.0, 2.0]), certificate=[]),
                             ms.SplittingStep(np.diag([2.0, 2.0]), np.diag([0.5, 2.0]),
                                              np.diag([4.0, 2.0]), 4.0 / 7.0))
    with pytest.raises(PreconditionError, match="the grid cover's volume factor .* underflows"):
        sy.realize_finite_laminate(nu, dom, eps=0.2)


class TestBatchedEvaluation:
    def test_fixed_maps_have_the_intended_nodes(self):
        assert isinstance(fixed_map("rotated_roof").root, sy.CoverMap)
        assert isinstance(fixed_map("grid_staircase").root, sy.GridCover)
        assert isinstance(fixed_map("swapped").root, sy._SwappedNode)
        assert isinstance(fixed_map("cell_map"), serialize.CellMap)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(["rotated_roof", "grid_staircase", "swapped",
                            "cell_map"]),
           st.integers(0, 2 ** 32 - 1))
    def test_fixed_maps_bitwise(self, name, seed):
        m = fixed_map(name)
        assert_batched_matches_pointwise(m, probe_points(m.domain, seed))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
           st.lists(st.tuples(st.one_of(st.sampled_from([0.0, math.pi / 2]),
                                        st.floats(0.2, 1.3)),
                              st.tuples(st.floats(0.5, 2.0), st.floats(-2.0, 2.0)),
                              st.floats(0.2, 0.8)),
                    min_size=1, max_size=2),
           st.floats(0.1, 0.5), st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_random_laminates_bitwise(self, entries, splits, eps, thin, seed):
        nu = laminate(np.reshape(entries, (2, 2)), splits)
        assert ms.verify_laminate(nu).ok
        dom = sy.box((0.0, 0.0), (3.0, 0.5)) if thin else UNIT
        m = sy.realize_finite_laminate(nu, dom, eps=eps)
        assert_batched_matches_pointwise(m, probe_points(dom, seed))

    @pytest.mark.parametrize("key", sorted(REFERENCE["rows"]))
    def test_recorded_rows(self, key):
        name, seed = key.split("/")
        m = fixed_map(name)
        X = probe_points(m.domain, int(seed))
        assert rows_sha256(m.evaluate_many(X)) == REFERENCE["rows"][key]["evaluate"]
        assert rows_sha256(m.gradient_many(X)) == REFERENCE["rows"][key]["gradient_at"]

    @pytest.mark.parametrize("name", ["one_step", "rotated_roof"])
    def test_cells_are_an_oracle(self, name):
        # criterion 14's map (3,896 cells) and a rotated cover (21,904 cells)
        if name == "one_step":
            m = sy.realize_finite_laminate(one_step_laminate(), UNIT, eps=0.2)
        else:
            m = rotated_roof(0.3)
        cm = m.cells(max_cells=25_000)
        assert len(cm.counts) == {"one_step": 3896, "rotated_roof": 21904}[name]
        # a point strictly inside each convex cell, away from the centroid
        # that fixed the cell offset
        X = (3.0 * cm.centroids + cm.vertices[:, 0]) / 4.0
        assert m.gradient_many(X).tobytes() == cm.A.tobytes()
        expect = np.matmul(cm.A, X[:, :, None])[:, :, 0] + cm.b
        got = m.evaluate_many(X)
        assert np.all(np.abs(got - expect) <= 1e-12 * np.abs(expect).max())

    def test_empty_batch_and_bad_shape(self):
        m = fixed_map("rotated_roof")
        assert m.evaluate_many(np.zeros((0, 2))).shape == (0, 2)
        assert m.gradient_many(np.zeros((0, 2))).shape == (0, 2, 2)
        with pytest.raises(PreconditionError):
            m.evaluate_many(np.zeros(2))


def find_tiles_lexsort(cover, X):
    """CoverMap._find_tiles before its interval keys were presorted: per
    level one lexsort of every tile interval against the query points.
    Reference only."""
    q = sy._apply(cover.Ft.T, X - cover.domain.center)
    todo = np.arange(len(X))
    hits, scales, centers = [], [], []
    for level, _, _, J, I0, I1 in cover.levels:
        if not len(todo):
            break
        s = cover.sigma0 * 2.0 ** -level
        i = np.floor(q[todo, 0] / (2.0 * s))
        j = np.floor(q[todo, 1] / (2.0 * s))
        n = len(J)
        order = np.lexsort((np.concatenate([np.zeros(n), np.ones(len(i))]),
                            np.concatenate([I0, i]), np.concatenate([J, j])))
        start = order < n
        last = np.maximum.accumulate(np.where(start, order, -1))
        c = np.empty(len(i), dtype=np.int64)
        c[order[~start] - n] = last[~start]
        c0 = np.maximum(c, 0)
        hit = (c >= 0) & (J[c0] == j) & (i <= I1[c0])
        hits.append(todo[hit])
        scales.append(np.full(np.count_nonzero(hit), s))
        centers.append(cover.domain.center + sy._apply(cover.Ft, np.column_stack(
            [2.0 * s * (i[hit] + 0.5), 2.0 * s * (j[hit] + 0.5)])))
        todo = todo[~hit]
    return np.concatenate(hits), np.concatenate(scales), np.concatenate(centers)


def tile_boundary_points(cover, per_level=200, seed=0):
    """Corners and edge midpoints of tile intervals, in world coordinates:
    points on or within rounding of the tile edges."""
    rng = np.random.default_rng(seed)
    local = []
    for level, _, _, J, I0, I1 in cover.levels:
        s2 = 2.0 * cover.sigma0 * 2.0 ** -level
        rows = list(zip(J.tolist(), I0.tolist(), I1.tolist()))
        for k in rng.choice(len(rows), size=min(per_level, len(rows)), replace=False):
            j, a, b = rows[k]
            for u in (a, b + 1, a + 0.5, b + 0.5):
                for v in (j, j + 1, j + 0.5):
                    local.append((s2 * u, s2 * v))
    return cover.domain.center + sy._apply(cover.Ft, np.array(local))


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.3])
def test_find_tiles_matches_lexsort(eps):
    cover = rotated_roof(eps).root
    assert isinstance(cover, sy.CoverMap) and len(cover.levels) > 1
    dom = cover.domain
    rng = np.random.default_rng(int(eps * 100))
    for X in (dom.interior_points(sy._halton(5000, 2), margin=0.0),
              np.concatenate([dom.interior_points(rng.random((5000, 2)), margin=0.0),
                              dom.boundary_points(rng.random(500))]),
              tile_boundary_points(cover, seed=int(eps * 100))):
        got, ref = cover._find_tiles(X), find_tiles_lexsort(cover, X)
        assert 0 < len(ref[0]) < len(X)
        for g, r in zip(got, ref):
            assert g.dtype == r.dtype and g.tobytes() == r.tobytes()


def subtract_intervals(lo, hi, excl):
    """[lo, hi] minus a list of closed integer intervals.  Reference only."""
    frags = []
    cur = lo
    for a, b in sorted(excl):
        if b < cur:
            continue
        if a > hi:
            break
        if a > cur:
            frags.append((cur, a - 1))
        cur = max(cur, b + 1)
        if cur > hi:
            break
    if cur <= hi:
        frags.append((cur, hi))
    return frags


def cover_rows_loop(domain, Ft, theta):
    """CoverMap's construction before its levels were built as arrays: a
    loop over levels and rows, each row's candidates minus the intervals of
    every earlier level.  Returns {level: {row: [(i0, i1), ...]}}, covered
    and residual.  Reference only."""
    sigma0 = float(np.min(domain.half)) / 2.0
    M = domain.frame.T @ Ft
    vol = domain.volume
    covered = 0.0
    rows = {}
    hyp = float(np.linalg.norm(domain.half))
    n_tiles = 0
    for level in range(sy.CoverMap.MAX_LEVELS):
        s = sigma0 * 2.0 ** -level
        hk = [domain.half[k] - s * (abs(M[k, 0]) + abs(M[k, 1])) for k in (0, 1)]
        if min(hk) <= 0.0:
            continue
        lvl = {}
        jmax = int(hyp / s / 2.0) + 1
        for j in range(-jmax - 1, jmax + 1):
            v = 2 * j + 1
            lo, hi = -math.inf, math.inf
            ok = True
            for k in (0, 1):
                a, c, d = M[k, 0], M[k, 1] * v, hk[k] / s
                if abs(a) < 1e-14:
                    if abs(c) > d:
                        ok = False
                        break
                    continue
                l1, l2 = (-d - c) / a, (d - c) / a
                lo = max(lo, min(l1, l2))
                hi = min(hi, max(l1, l2))
            if not ok or lo > hi:
                continue
            i_lo = math.ceil((lo - 1.0) / 2.0 - 1e-12)
            i_hi = math.floor((hi - 1.0) / 2.0 + 1e-12)
            if i_lo > i_hi:
                continue
            excl = []
            for lp, prows in rows.items():
                dl = level - lp
                for a0, b0 in prows.get(j >> dl, ()):
                    excl.append((a0 << dl, ((b0 + 1) << dl) - 1))
            frags = subtract_intervals(i_lo, i_hi, excl)
            if frags:
                lvl[j] = frags
                cnt = sum(b0 - a0 + 1 for a0, b0 in frags)
                covered += cnt * (2.0 * s) ** 2
                n_tiles += cnt
                if n_tiles > sy.CoverMap.MAX_TILES:
                    raise InternalError("rotated cover tile budget exceeded")
        if lvl:
            rows[level] = lvl
        if vol - covered <= theta * vol:
            break
    return rows, covered, max(vol - covered, 0.0)


def rotation(t):
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


def cover_case(center, half, frame_angle, angle, theta):
    """A CoverMap on an OBox, its template's frame turned by `angle` from
    the box's frame, with the template frame."""
    dom = sy.OBox(center, half, rotation(frame_angle))
    Ft = dom.frame @ rotation(angle)
    template = sy.SlotMap(sy.OBox((0.0, 0.0), (1.0, 1.0), Ft), np.eye(2))
    return dom, Ft, lambda: sy.CoverMap(dom, np.eye(2), 0.0, theta, template)


# (center, half-widths, frame angle, template angle, theta): rotated,
# near-axis (within 1e-9 to 1e-15 of an axis) and thin boxes, off center and
# in rotated frames
COVER_CASES = [
    ((0.0, 0.0), (1.0, 1.0), 0.0, 0.3, 1e-3),
    ((0.0, 0.0), (1.0, 1.0), 0.0, -2.0, 0.05),
    ((0.0, 0.0), (1.0, 1.0), 0.0, math.pi / 4, 0.01),
    ((0.7, -1.3), (1.0, 1.0), 0.0, 2.8, 0.3),
    ((0.0, 0.0), (1.0, 1.0), 0.0, 1e-9, 0.01),
    ((0.0, 0.0), (1.0, 1.0), 0.0, 1e-13, 0.01),
    ((0.0, 0.0), (1.0, 1.0), 0.0, -1e-15, 0.01),
    ((0.2, 0.1), (1.0, 1.0), 0.0, math.pi / 2 + 1e-13, 0.1),
    ((0.0, 0.0), (1.0, 1.0), 0.0, math.pi - 1e-9, 0.1),
    ((0.0, 0.0), (1.0, 0.25), 0.0, 0.6, 0.01),
    ((0.0, 0.0), (4.0, 1.0), 0.0, -0.9, 0.02),
    ((-1.5, 2.5), (0.3, 1.2), 0.0, 1.2, 0.1),
    ((0.0, 0.0), (1.0, 0.25), 0.0, 1e-13, 0.05),
    ((0.5, 0.5), (1.0, 1.0), 0.5, 0.3, 0.01),
    ((-0.4, 1.1), (2.0, 0.7), -1.1, 2.2, 0.03),
    ((0.0, 0.0), (1.0, 1.0), 0.7, 1e-9, 0.1),
    ((3.0, -2.0), (0.5, 2.0), 2.0, -0.4, 0.3),
    ((0.0, 0.0), (1.0, 1.0), 0.0, math.pi / 2 + 1e-15, 1e-3),
    ((0.0, 0.0), (1.0, 1.0), 0.0, 1e-13, 1e-3),
    ((0.0, 0.0), (1.0, 0.25), 0.0, -2.6, 1e-3),
    ((1.0, -0.5), (3.0, 1.0), 0.3, 0.8, 1e-3),
    ((-0.4, 1.1), (2.0, 0.7), -1.1, 1e-9, 3e-3),
]


@pytest.mark.parametrize("case", COVER_CASES)
def test_cover_levels_match_loop(case):
    dom, Ft, make = cover_case(*case)
    cover = make()
    rows, covered, residual = cover_rows_loop(dom, Ft, case[-1])
    assert [t[0] for t in cover.levels] == list(rows)
    for level, count, keys, J, I0, I1 in cover.levels:
        lvl = rows[level]
        ref = [(j, a, b) for j in sorted(lvl) for a, b in lvl[j]]
        for got, want in zip((J, I0, I1), zip(*ref)):
            assert got.dtype == float and got.tolist() == list(want)
        assert keys.tobytes() == sy._lex_keys(J, I0).tobytes()
        assert type(count) is int and count == sum(b - a + 1 for _, a, b in ref)
    assert cover.covered.hex() == covered.hex()
    assert cover.residual.hex() == residual.hex()


def test_cover_tile_budget(monkeypatch):
    dom, Ft, make = cover_case((0.0, 0.0), (1.0, 1.0), 0.0, 0.3, 1e-3)
    monkeypatch.setattr(sy.CoverMap, "MAX_TILES", 200)
    with pytest.raises(InternalError, match="budget exceeded"):
        cover_rows_loop(dom, Ft, 1e-3)
    with pytest.raises(InternalError, match=r"level \d+: \d+ tiles > 200 \(theta 0.001\)"):
        make()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [16, 2500, 5000, 100_000])
def test_halton_matches_scipy(d, n):
    qmc = pytest.importorskip("scipy.stats.qmc")
    ref = qmc.Halton(d=d, scramble=False).random(n)
    got = sy._halton(n, d)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("m", [100_000, 5000])
@pytest.mark.parametrize("n", [1, 16, 17, 2500, 4999])
def test_halton_prefix_of_a_longer_design(m, n):
    # verify_map slices its three designs from one: point i does not depend on n
    for d in (1, 2, 3):
        assert sy._halton(m, 3)[:n, :d].tobytes() == sy._halton(n, d).tobytes()


def loop_max_pointwise(rows, div=1.0):
    """The per-row loop that _loop_max replaces; reference only."""
    best = 0.0
    for r, q in zip(rows, np.broadcast_to(div, (len(rows),))):
        best = max(best, float(np.linalg.norm(r)) / float(q))
    return best


class TestLoopMax:
    @pytest.mark.parametrize("rows", [
        np.array([[np.nan, 1.0], [3.0, 4.0], [0.5, np.nan]]),
        np.array([[np.nan, np.nan], [np.nan, 0.0]]),
        np.array([[np.inf, 1.0], [3.0, 4.0], [-np.inf, np.nan]]),
        np.array([[np.inf, -np.inf], [np.nan, 1.0]]),
        np.zeros((5, 2)),
        np.array([[0.0, -0.0], [-0.0, -0.0]]),
        np.zeros((0, 2)),
        np.zeros((0, 2, 2)),
        np.array([[1e-170, 1e-170], [3e-160, -4e-160]]),   # squares underflow
        np.array([[1e200, 1e200], [1.0, 1.0]]),            # squares overflow
    ], ids=["nan", "all_nan", "inf", "inf_nan", "zero", "signed_zero", "empty",
            "empty_stack", "underflow", "overflow"])
    def test_edge_rows(self, rows):
        with np.errstate(over="ignore"):   # np.dot warns on the same squares
            got, ref = sy._loop_max(rows), loop_max_pointwise(rows)
        assert type(got) is float and got.hex() == ref.hex()

    def test_per_row_divisors(self):
        rows = np.array([[1.0, 2.0], [np.nan, 0.0], [3.0, 1.0], [0.0, 0.0]])
        div = np.array([0.5, 0.25, 1e-300, 3.0])
        assert sy._loop_max(rows, div).hex() == loop_max_pointwise(rows, div).hex()

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 40), st.integers(-300, 150), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_random_rows_bitwise(self, k, e, stack, seed):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((k, 2, 2) if stack else (k, 2)) * 10.0 ** e
        div = rng.uniform(0.1, 10.0, k)
        assert sy._loop_max(rows).hex() == loop_max_pointwise(rows).hex()
        assert sy._loop_max(rows, div).hex() == loop_max_pointwise(rows, div).hex()
        assert sy._loop_max(rows, 2e-9).hex() == loop_max_pointwise(rows, 2e-9).hex()

    def test_gradient_stacks_match_frob(self):
        g = fixed_map("swapped").gradient_many(UNIT.interior_points(sy._halton(512, 2)))
        assert sy._loop_max(g) == max(0.0, *(frob(r) for r in g))


def verify_map_pointwise(m, A=None, b=None, alpha=0.5, sample_budget=10_000):
    """The one-point-at-a-time loop that verify_map batches; reference only.
    Every point goes alone through the batched OBox and map calls, so equal
    reports show that no sample depends on the others in its batch."""
    if A is None or b is None:
        A, b = m.boundary_affine
    A = asmatrix(A)
    bvec = sy._vec(b)
    dom = m.domain
    diam = 2.0 * float(np.linalg.norm(dom.half))
    gbound = m.grad_bound()

    nb = max(sample_budget // 2, 16)
    ts = sy._halton(nb, 1).ravel()
    bmax = 0.0
    for t in ts:
        x = dom.boundary_points([t])[0]
        bmax = max(bmax, float(np.linalg.norm(m.evaluate(x) - (A @ x + bvec))))

    ni = max(sample_budget // 4, 16)
    uv = sy._halton(ni, 2)
    h = 1e-9 * diam / (1.0 + gbound)
    cmax = 0.0
    golden = 2.399963229728653
    for idx, (u, v) in enumerate(uv):
        x = dom.interior_points([[u, v]], margin=1e-3)[0]
        d = np.array([math.cos(golden * idx), math.sin(golden * idx)])
        xp, xm = x + h * d, x - h * d
        if not (dom.contains_many(xp[None])[0] and dom.contains_many(xm[None])[0]):
            continue
        second = np.linalg.norm(m.evaluate(xp) + m.evaluate(xm) - 2.0 * m.evaluate(x))
        cmax = max(cmax, float(second) / (2.0 * h))

    nh = max(sample_budget // 4, 16)
    uv2 = sy._halton(nh, 3)
    hq = 0.0
    scales = 12
    for idx, (u, v, wq) in enumerate(uv2):
        j = idx % scales
        rad = diam * 2.0 ** -(j + 2)
        x = dom.interior_points([[u, v]], margin=1e-3)[0]
        d = np.array([math.cos(2.0 * math.pi * wq), math.sin(2.0 * math.pi * wq)])
        y = x + rad * d
        if not dom.contains_many(y[None])[0]:
            continue
        dev = np.linalg.norm(m.evaluate(y) - m.evaluate(x) - A @ (y - x))
        hq = max(hq, float(dev) / rad ** alpha)

    gs = 0.0
    for (u, v) in uv[: min(ni, 512)]:
        x = dom.interior_points([[u, v]], margin=1e-3)[0]
        gs = max(gs, frob(m.gradient_at(x)))

    return sy.MapVerification(bmax, cmax, hq, alpha, gs, gbound,
                              nb + ni + nh,
                              notes=["holder_estimate is a sampled lower estimate"])


class TestBatchedVerification:
    @pytest.mark.parametrize("lam", [0.3, 0.5, 0.7])
    def test_criterion_06_roofs(self, lam):
        A1, A2 = np.diag([1.0, 1.0]), np.diag([-1.0, 1.0])
        A = lam * A1 + (1.0 - lam) * A2
        m = sy.roof(A, 0.0, A1, A2, lam, UNIT, eps=0.05)
        rep = sy.verify_map(m, sample_budget=20_000)
        assert rep == verify_map_pointwise(m, sample_budget=20_000)
        assert report_sha256(rep) == REFERENCE["verify_map"][str(lam)]

    def test_deserialized_cell_map(self):
        cm = fixed_map("cell_map")
        assert (sy.verify_map(cm, sample_budget=2_000)
                == verify_map_pointwise(cm, sample_budget=2_000))

    def test_rotated_domain(self):
        dom = sy.OBox((0.3, -0.2), (1.0, 0.5), rotation(0.5))
        A1, A2 = np.diag([1.0, 1.0]), np.diag([-1.0, 1.0])
        m = sy.roof(0.4 * A1 + 0.6 * A2, (0.1, 0.2), A1, A2, 0.4, dom, eps=0.1)
        assert (sy.verify_map(m, alpha=0.8, sample_budget=1_000)
                == verify_map_pointwise(m, alpha=0.8, sample_budget=1_000))

    def test_swapped_map(self):
        m = fixed_map("swapped")
        assert (sy.verify_map(m, sample_budget=1_000)
                == verify_map_pointwise(m, sample_budget=1_000))

    @pytest.mark.parametrize("budget", [1, 7, 32, 33, 64, 65])
    @pytest.mark.parametrize("name", ["rotated_roof", "swapped", "cell_map"])
    def test_sample_floor(self, name, budget):
        # each check takes at least 16 samples, however small the budget
        m = fixed_map(name)
        rep = sy.verify_map(m, sample_budget=budget)
        assert rep == verify_map_pointwise(m, sample_budget=budget)
        assert rep.samples == max(budget // 2, 16) + 2 * max(budget // 4, 16)

    @pytest.mark.parametrize("kw, message", [
        ({"sample_budget": 0}, "sample_budget must be >= 1"),
        ({"sample_budget": -5}, "sample_budget must be >= 1"),
        ({"alpha": float("nan")}, "alpha must lie in"),
        ({"alpha": 0.0}, "alpha must lie in"),
        ({"alpha": -0.5}, "alpha must lie in"),
        ({"alpha": 1.5}, "alpha must lie in"),
        ({"alpha": float("inf")}, "alpha must lie in")])
    def test_bad_budget_or_alpha_is_precondition(self, kw, message):
        with pytest.raises(PreconditionError, match=message):
            sy.verify_map(fixed_map("cell_map"), **kw)

    @pytest.mark.parametrize("budget", [2000.0, True, False, "2000", None, 2.5],
                             ids=["float", "true", "false", "str", "none", "fraction"])
    def test_non_integer_budget_is_precondition(self, budget):
        # 2000.0 raised a bare TypeError inside _halton; True ran as a budget of 1
        message = "sample_budget must be an integer, got " + re.escape(repr(budget))
        with pytest.raises(PreconditionError, match=message):
            sy.verify_map(fixed_map("cell_map"), sample_budget=budget)

    def test_numpy_integer_budget(self):
        m = fixed_map("rotated_roof")
        rep = sy.verify_map(m, sample_budget=np.int64(2000))
        assert rep == sy.verify_map(m, sample_budget=2000)
        assert type(rep.samples) is int and rep.samples == 2000

    def test_alpha_one_is_lipschitz_quotient(self):
        m = fixed_map("rotated_roof")
        assert (sy.verify_map(m, alpha=1.0, sample_budget=200)
                == verify_map_pointwise(m, alpha=1.0, sample_budget=200))


@lru_cache(maxsize=None)
def criterion_06_roof(lam):
    A1, A2 = np.diag([1.0, 1.0]), np.diag([-1.0, 1.0])
    return sy.roof(lam * A1 + (1.0 - lam) * A2, 0.0, A1, A2, lam, UNIT, eps=0.05)


@lru_cache(maxsize=None)
def criterion_06_pointwise(lam):
    return verify_map_pointwise(criterion_06_roof(lam), sample_budget=20_000)


@pytest.mark.blas_kernels
class TestVerifyDesign:
    """verify_map slices one design that lives as long as the process: no
    earlier call, shorter or longer, may change a report."""

    @pytest.mark.parametrize("before, rows_before", [(None, 0), (50_000, 25_000),
                                                     (1_000, 500)],
                             ids=["cold", "slice_of_longer", "rebuild_to_longer"])
    @pytest.mark.parametrize("lam", [0.3, 0.5, 0.7])
    def test_call_history_cannot_change_a_report(self, lam, before, rows_before,
                                                 monkeypatch):
        monkeypatch.setattr(sy, "_DESIGN", [])
        m = criterion_06_roof(lam)
        if before is not None:
            sy.verify_map(m, sample_budget=before)
        assert (len(sy._DESIGN[0]) if sy._DESIGN else 0) == rows_before
        rep = sy.verify_map(m, sample_budget=20_000)
        assert len(sy._DESIGN[0]) == max(rows_before, 10_000)
        assert rep == criterion_06_pointwise(lam)
        assert report_sha256(rep) == REFERENCE["verify_map"][str(lam)]

    @pytest.mark.parametrize("nb, ni", [(16, 16), (17, 16), (500, 250), (10_000, 5000)])
    def test_slices_equal_fresh_builds(self, nb, ni, monkeypatch):
        monkeypatch.setattr(sy, "_DESIGN", [])
        sy._design(25_000, 12_500)
        H, d, u = sy._design(nb, ni)
        assert len(sy._DESIGN[0]) == 25_000
        assert H.tobytes() == sy._halton(nb, 3).tobytes()
        assert d.tobytes() == sy._directions(2.399963229728653 * np.arange(ni)).tobytes()
        assert u.tobytes() == sy._directions(2.0 * math.pi * sy._halton(ni, 3)[:, 2]).tobytes()

    def test_design_is_read_only(self):
        sy.verify_map(fixed_map("rotated_roof"), sample_budget=64)
        for a in (*sy._DESIGN, *sy._design(32, 16)):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.5

    @pytest.mark.parametrize("m", [100_000, 5000])
    @pytest.mark.parametrize("n", [1, 16, 17, 2500, 4999])
    def test_directions_prefix_of_a_longer_design(self, m, n):
        # mirrors test_halton_prefix_of_a_longer_design for the golden-angle steps
        g = 2.399963229728653
        assert (sy._directions(g * np.arange(m))[:n].tobytes()
                == sy._directions(g * np.arange(n)).tobytes())


# ---------------------------------------------------------------------------
# distribution walks: recorded digests, the recursion the walker replaced,
# depth and allocation counts


def distribution_recursive(node):
    """The recursive walk that the iterative walker replaced; reference only.
    Every node wraps each atom below it in a new Row, so volume factors
    apply level by level from the leaf upward."""
    if isinstance(node, sy.SlotMap):
        if node.inner is not None:
            return distribution_recursive(node.inner)
        return [Row(node.domain.volume, node.A, node.flag, node)]
    if isinstance(node, sy.RoofMap):
        out = []
        h0, h1, w = node.h0, node.h1, node.w
        for side, lam in ((1, node.lam1), (2, node.lam2)):
            Ai = node.A1 if side == 1 else node.A2
            slot = node.slots[side]
            slab = 2.0 * h0 * lam * (2.0 * h1 - w)
            core = 4.0 * h0 * lam * (h1 - w)
            margin = 2.0 * h0 * lam * w
            if slot.inner is None and slot.flag == sy.GOOD:
                out.append(Row(slab, Ai, sy.GOOD, slot))
            elif slot.inner is None:
                out.append(Row(core, Ai, slot.flag, slot))
                out.append(Row(margin, Ai, node.aux_flag, None))
            else:
                for va in distribution_recursive(slot):
                    out.append(Row(float(node.n) * va.vol, va.G, va.flag, va.slot))
                out.append(Row(margin, Ai, node.aux_flag, None))
        out.append(Row(h0 * w, node.cap_grad[+1], node.aux_flag, None))
        out.append(Row(h0 * w, node.cap_grad[-1], node.aux_flag, None))
        return out
    if isinstance(node, sy.GridCover):
        factor = float(node.k0) * float(node.k1) * node.sigma ** 2
        return [Row(factor * va.vol, va.G, va.flag, va.slot)
                for va in distribution_recursive(node.template)]
    if isinstance(node, sy.CoverMap):
        factor = sum(cnt * (node.sigma0 * 2.0 ** -level) ** 2
                     for level, cnt, *_ in node.levels)
        out = [Row(factor * va.vol, va.G, va.flag, va.slot)
               for va in distribution_recursive(node.template)]
        if node.residual > 0.0:
            out.append(Row(node.residual, node.A, sy.RESIDUAL, None))
        return out
    if isinstance(node, sy._SwappedNode):
        return [Row(va.vol, sy._P_SWAP @ va.G @ sy._P_SWAP, va.flag, None)
                for va in distribution_recursive(node.base)]
    raise TypeError(f"no reference walk for {type(node).__name__}")


def sup_dev_recursive(node):
    """sup_dev by the recursion that the driven walk replaced; reference only."""
    if isinstance(node, sy.SlotMap):
        return 0.0 if node.inner is None else sup_dev_recursive(node.inner)
    if isinstance(node, sy.RoofMap):
        child = max(sup_dev_recursive(s) for s in node.slots.values())
        return node.H * node.norm_eta + child
    if isinstance(node, sy.GridCover):
        return node.sigma * sup_dev_recursive(node.template)
    if isinstance(node, sy.CoverMap):
        return node.sigma0 * sup_dev_recursive(node.template)
    if isinstance(node, sy._SwappedNode):
        return sup_dev_recursive(node.base)
    raise TypeError(f"no reference sup_dev for {type(node).__name__}")


def grad_bound_recursive(node):
    """grad_bound by the recursion that the driven walk replaced; reference only."""
    if isinstance(node, sy.SlotMap):
        return frob(node.A) if node.inner is None else grad_bound_recursive(node.inner)
    if isinstance(node, sy.RoofMap):
        return max(node.gmax, *(grad_bound_recursive(s) for s in node.slots.values()))
    if isinstance(node, sy.GridCover):
        return grad_bound_recursive(node.template)
    if isinstance(node, sy.CoverMap):
        return max(grad_bound_recursive(node.template), frob(node.A))
    if isinstance(node, sy._SwappedNode):
        return grad_bound_recursive(node.base)
    raise TypeError(f"no reference grad_bound for {type(node).__name__}")


def cells_recursive(node, out, shift, scale, limit):
    """The recursive iter_cells that the driven cell walk replaced; reference
    only.  Box corners, tile centers and the swap are its own scalar
    formulas, one point at a time, against the batched ones of the walk."""
    def emit(verts, A, flag):
        if len(out) >= limit:
            raise UnsupportedError(f"cell enumeration exceeds budget {limit}")
        out.append((verts, A, flag))

    def to_world(dom, z):
        return dom.center + dom.frame @ np.array(z, dtype=float)

    def corners(dom):
        h0, h1 = dom.half
        return [to_world(dom, (s0 * h0, s1 * h1))
                for s0, s1 in ((-1, -1), (1, -1), (1, 1), (-1, 1))]

    swap = np.array([[0.0, 1.0], [1.0, 0.0]])

    if isinstance(node, sy.SlotMap):
        if node.inner is not None:
            cells_recursive(node.inner, out, shift, scale, limit)
            return
        emit([shift + scale * c for c in corners(node.domain)], node.A, node.flag)
    elif isinstance(node, sy.RoofMap):
        if node.n > limit:
            raise UnsupportedError(f"{node.n} teeth exceed the cell budget")
        h1, w = node.h1, node.w

        def pt(t, y):
            F = node.domain.frame
            p = node.domain.center + F[:, node.ax] * (node.s_t * t) + F[:, node.ay] * y
            return shift + scale * p

        for i in range(node.n):
            T0 = -node.h0 + i * node.P
            Tm = T0 + node.lam1 * node.P
            T1 = T0 + node.P
            for side, (ta, tb) in ((1, (T0, Tm)), (2, (Tm, T1))):
                Ai = node.A1 if side == 1 else node.A2
                slot = node.slots[side]
                te = ta if side == 1 else tb
                if slot.inner is None and slot.flag == sy.GOOD:
                    emit([pt(te, -h1), pt(Tm, -(h1 - w)), pt(Tm, h1 - w), pt(te, h1)],
                         Ai, sy.GOOD)
                    continue
                ct = node._core_center(i, side)
                if slot.inner is None:
                    emit([shift + scale * (ct + c) for c in corners(slot.domain)],
                         Ai, slot.flag)
                else:
                    cells_recursive(slot, out, shift + scale * ct, scale, limit)
                for sy_ in (1.0, -1.0):
                    emit([pt(ta, sy_ * (h1 - w)), pt(tb, sy_ * (h1 - w)), pt(te, sy_ * h1)],
                         Ai, node.aux_flag)
            for sy_ in (1.0, -1.0):
                emit([pt(T0, sy_ * h1), pt(Tm, sy_ * (h1 - w)), pt(T1, sy_ * h1)],
                     node.cap_grad[+1 if sy_ > 0 else -1], node.aux_flag)
    elif isinstance(node, sy.GridCover):
        if node.k0 * node.k1 > limit:
            raise UnsupportedError("grid cover exceeds the cell budget")
        for i in range(node.k0):
            for j in range(node.k1):
                ct = to_world(node.domain,
                              (-node.domain.half[0] + (2 * i + 1) * node.tile[0],
                               -node.domain.half[1] + (2 * j + 1) * node.tile[1]))
                cells_recursive(node.template, out, shift + scale * ct,
                                scale * node.sigma, limit)
    elif isinstance(node, sy.CoverMap):
        for level, _, _, J, I0, I1 in node.levels:
            s = node.sigma0 * 2.0 ** -level
            for j, a, bnd in zip(J.tolist(), I0.tolist(), I1.tolist()):
                for i in range(int(a), int(bnd) + 1):
                    ct = node.domain.center + node.Ft @ np.array(
                        [2.0 * s * (i + 0.5), 2.0 * s * (j + 0.5)])
                    cells_recursive(node.template, out, shift + scale * ct,
                                    scale * s, limit)
    elif isinstance(node, sy._SwappedNode):
        inner = []
        cells_recursive(node.base, inner, np.zeros(2), 1.0, limit)
        for verts, A, flag in inner:
            emit([shift + scale * (swap @ v) for v in verts], swap @ A @ swap, flag)
    else:
        raise TypeError(f"no reference cells for {type(node).__name__}")


def realize_recursive(tree, dom, A, b, budget, leaf_fn, aux_flag):
    """The recursive construction (_realize_node calling _make_roof) that
    the driven construction replaced; reference only."""
    A = asmatrix(A)
    if tree.is_leaf:
        return sy.SlotMap(dom, A, b, flag=leaf_fn(A))
    if sy._needs_norm(dom):
        counts, sigma, tdom = sy.GridCover.plan(dom)
        child = realize_recursive(tree, tdom, A, 0.0, budget, leaf_fn, aux_flag)
        return sy.GridCover(dom, A, b, counts, sigma, child)
    A1, A2 = asmatrix(tree.left.A), asmatrix(tree.right.A)
    lam = float(tree.lam)
    eta, xi = sy._rank_one_factor(A1 - A2)
    loss, hsup = budget.next_node(max(frob(A1), frob(A2)))
    ax, s_t = sy._axis_alignment(xi, dom.frame)
    if ax is not None:
        return make_roof_recursive(tree, dom, A, b, A1, A2, lam, eta, ax, s_t,
                                   loss, hsup, budget, leaf_fn, aux_flag)
    tdom = sy.OBox((0.0, 0.0), (1.0, 1.0), np.column_stack([xi, sy._perp(xi)]))
    troof = make_roof_recursive(tree, tdom, A, 0.0, A1, A2, lam, eta, 0, 1.0,
                                loss / 2.0, hsup, budget, leaf_fn, aux_flag)
    return sy.CoverMap(dom, A, b, max(loss / 2.0, budget.theta_min), troof)


def make_roof_recursive(tree, dom, A, b, A1, A2, lam, eta, ax, s_t, loss,
                        hsup, budget, leaf_fn, aux_flag):
    h1 = float(dom.half[1 - ax])
    w_max = h1 * loss / 2.0
    ne = float(np.linalg.norm(eta))
    h_max = hsup / ne if math.isfinite(hsup) else math.inf
    rm = sy.RoofMap(dom, A, b, A1, A2, lam, eta, ax, s_t,
                    w_max=w_max, h_max=h_max, aux_flag=aux_flag)
    for side, sub in ((1, tree.left), (2, tree.right)):
        slot = rm.slots[side]
        if sub.is_leaf:
            slot.flag = leaf_fn(slot.A)
        else:
            slot.patch(realize_recursive(sub, slot.domain, slot.A, 0.0,
                                         budget, leaf_fn, aux_flag))
    return rm


def walk_digest(walk):
    """sha256 of the rows (vol.hex(), G bytes, flag, slot index by first
    appearance or None) of a walk, with the atom count."""
    index = {}
    rows = [(va.vol.hex(), va.G.tobytes(), va.flag,
             None if va.slot is None else index.setdefault(id(va.slot), len(index)))
            for va in walk_rows(walk)]
    return {"atoms": len(rows),
            "sha256": hashlib.sha256(repr(rows).encode()).hexdigest()}


def reports_digest(reports):
    return [[rr.round, rr.error_moment.hex(), rr.tail_constant.hex(),
             rr.patched_slots] for rr in reports]


def reduce_walks(builder, A, depth, check=None):
    """Run reduce_exact and return its reports with the root walk of every
    round.  check(root, dist), if given, sees each root walk as it happens,
    while the tree is in that round's state.  The seal reads the last
    round's walk again, the same object, without walking."""
    walks = []

    def recording_builder(*args):
        node = builder(*args)
        if not walks:
            # the first output is the root: record every walk of the tree
            walk = node.distribution
            walks.append(None)

            def recorded():
                dist = walk()
                if dist is walks[-1]:
                    return dist
                if check is not None:
                    check(node, dist)
                walks.append(dist)
                return dist

            node.distribution = recorded
        return node

    pam, reports = sy.reduce_exact(recording_builder, UNIT, A, 0.0, delta=0.5,
                                   alpha=0.5, depth=depth, p=2.0, M=8.0, r=1.5)
    assert len(walks) == depth + 1
    assert pam.distribution() is walks[-1]
    return reports, walks[1:]


def criterion_08_digests():
    from lamstair import stages
    reports, walks = reduce_walks(stages.stage3_builder(1.5), np.diag([3.0, 1.0]), 8)
    out = {f"round_{k}": walk_digest(d) for k, d in enumerate(walks)}
    out["reports"] = reports_digest(reports)
    return out


def product_map_digests():
    from lamstair import stages
    res = stages.product_pipeline(np.outer([1.0, 1.0], [1.0, 0.0]), mode="map",
                                  depth=2)
    return {"walk": walk_digest(res.realized_map.root.distribution()),
            "reports": reports_digest(res.rounds)}


def rotated_laminate():
    nu = laminate(np.diag([1.0, 2.0]), [(0.6, (1.0, 0.5), 0.4),
                                        (1.1, (0.7, -1.2), 0.6)])
    return sy.realize_finite_laminate(nu, UNIT, eps=0.2)


DIGEST_CASES = {
    "criterion_08": criterion_08_digests,
    "product_map": product_map_digests,
    "rotated_laminate": lambda: {"walk": walk_digest(rotated_laminate().root.distribution())},
    "grid_staircase": lambda: {"walk": walk_digest(
        fixed_map("grid_staircase").root.distribution())},
    "swapped": lambda: {"walk": walk_digest(fixed_map("swapped").root.distribution())},
}


@pytest.mark.parametrize("case", sorted(DIGEST_CASES))
def test_distribution_digests(case):
    recorded = json.loads(
        (pathlib.Path(__file__).parent / "distribution_digests.json").read_text())
    assert DIGEST_CASES[case]() == recorded[case]


def ref_gradient_distribution(m):
    """The map's gradient distribution built one validated Atom per
    distribution row, as before it was built from stacked arrays; reference
    only."""
    vol = m.domain.volume
    return ms.DiscreteMeasure([ms.Atom(va.vol / vol, va.G)
                               for va in walk_rows(m.distribution())
                               if va.flag != sy.RESIDUAL and va.vol > 0.0])


def product_map_diag31():
    from lamstair import stages
    return stages.product_pipeline(np.diag([3.0, 1.0]), mode="map", depth=2).realized_map


GRADIENT_DISTRIBUTION_MAPS = {
    "one_step": lambda: sy.realize_finite_laminate(one_step_laminate(), UNIT, eps=0.2),
    "rotated_roof": lambda: rotated_roof(0.3),
    "swapped": lambda: fixed_map("swapped"),
    "grid_staircase": lambda: fixed_map("grid_staircase"),
    "product_map": product_map_diag31,
}


@pytest.mark.parametrize("name", sorted(GRADIENT_DISTRIBUTION_MAPS))
def test_gradient_distribution_matches_atom_built(name):
    m = GRADIENT_DISTRIBUTION_MAPS[name]()
    got, resid = m.gradient_distribution()
    want = ref_gradient_distribution(m)
    assert resid == m.residual_volume
    assert len(got) == len(want) and got.certificate is None
    for a, b in zip(got.atoms, want.atoms):
        assert float(a.weight).hex() == float(b.weight).hex()
        assert a.point.tobytes() == b.point.tobytes()
        assert a.key == b.key and a.norm.hex() == b.norm.hex()
    assert float(got.mass).hex() == float(want.mass).hex()


def test_full_rank_shear_product_map():
    """Map mode on a full-rank, non-diagonal seed, whose lamination
    directions need rotated covers (about 10 s).  The values were recorded
    before the covers were built from per-level arrays."""
    from lamstair import stages
    res = stages.product_pipeline([[1.0, 1.0], [0.0, 1.0]], mode="map", depth=1)
    assert reports_digest(res.rounds) == [
        [0, "0x1.653e51756e61fp-4", "0x1.dbcae335375a1p+3", 1]]
    assert res.realized_map.residual_volume.hex() == "0x1.22eccec2bd29cp-9"
    assert walk_digest(res.realized_map.root.distribution()) == {
        "atoms": 56920,
        "sha256": "e7bebc3548f9fb6eec4eefa03e2e7450637fa0a5c02c9cba603b6d3f193d2cd1"}


def assert_same_walk(got, ref, same_G=True):
    """Row by row, got a finished walk and ref a list of rows: the same
    volume bits, flag and slot, and the same G object (or, for swapped maps,
    whose G is made per walk, the same bytes)."""
    assert type(got) is sy._Walk and got.vol.dtype == np.float64
    assert len(got) == len(ref)
    for a, b in zip(walk_rows(got), ref):
        assert a.vol.hex() == b.vol.hex() and a.flag == b.flag and a.slot is b.slot
        assert a.G is b.G if same_G else a.G.tobytes() == b.G.tobytes()


def roof_chain(depth):
    """RoofMaps nested depth deep, built top-down in a loop: each level
    patches the side-1 slot of the level above with a roof on that slot's
    domain.  lam1 = 0.99 and one tooth per level keep the boxes from
    underflowing, and the gradients alternate between 0 and D/100."""
    D = np.outer([1.0, 0.0], [1.0, 0.0])
    dom, A = sy.OBox((0.0, 0.0), (1.0, 4.0)), np.zeros((2, 2))
    root = slot = None
    for k in range(depth):
        Dk = D if k % 2 == 0 else -D
        node = sy.RoofMap(dom, A, 0.0, A + 0.01 * Dk, A - 0.99 * Dk, 0.99, Dk[:, 0],
                          0, 1.0, w_max=math.inf, h_max=math.inf)
        assert node.n == 1
        if slot is None:
            root = node
        else:
            slot.patch(node)
        slot = node.slots[1]
        dom, A = slot.domain, slot.A
    return root


class TestDistributionWalk:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
           st.lists(st.tuples(st.one_of(st.sampled_from([0.0, math.pi / 2]),
                                        st.floats(0.2, 1.3)),
                              st.tuples(st.floats(0.5, 2.0), st.floats(-2.0, 2.0)),
                              st.floats(0.2, 0.8)),
                    min_size=1, max_size=3),
           st.floats(0.1, 0.5), st.booleans())
    def test_laminates_match_recursion(self, entries, splits, eps, thin):
        nu = laminate(np.reshape(entries, (2, 2)), splits)
        dom = sy.box((0.0, 0.0), (3.0, 0.5)) if thin else UNIT
        root = sy.realize_finite_laminate(nu, dom, eps=eps).root
        assert_same_walk(root.distribution(), distribution_recursive(root))

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from([[2, 2], [3, 2], [2, 5]]), st.integers(1, 5),
           st.floats(0.1, 0.5), st.booleans())
    def test_staircases_match_recursion(self, a, N, eta, thin):
        spec = sc.example_staircase("det1", {"a": a})
        dom = sy.box((0.0, 0.0), (3.0, 0.5)) if thin else UNIT
        root = sy.realize_staircase(spec, N, dom, eta=eta).root
        assert_same_walk(root.distribution(), distribution_recursive(root))

    @pytest.mark.parametrize("builder, a", [("stage3", 3.0), ("stage3", 2.6),
                                            ("product", 3.0), ("product", 3.9)])
    def test_reduce_rounds_match_recursion(self, builder, a):
        self._check_reduce_rounds(builder, a)

    @settings(max_examples=4, deadline=None)
    @given(st.sampled_from(["stage3", "product"]), st.floats(2.2, 4.2))
    def test_reduce_rounds_match_recursion_drawn(self, builder, a):
        self._check_reduce_rounds(builder, a)

    @staticmethod
    def _check_reduce_rounds(builder, a):
        # a split seed for stage 3; a rank-one seed sends product_builder
        # through stages 2 and 3
        from lamstair import stages
        if builder == "stage3":
            build, A = stages.stage3_builder(1.5), np.diag([a, 1.0])
        else:
            build, A = stages.product_builder(1.5), np.outer([1.0, 1.0], [a / 3.0, 0.0])
        seen = []

        def check(root, dist):
            assert_same_walk(dist, distribution_recursive(root))
            seen.append(len(dist))

        reduce_walks(build, A, 3, check=check)
        assert len(seen) == 3

    def test_swapped_matches_recursion(self):
        root = fixed_map("swapped").root
        assert_same_walk(root.distribution(), distribution_recursive(root),
                         same_G=False)

    def test_deeper_than_the_recursion_limit(self):
        # in a fresh interpreter, at the default limit: every walk of a chain
        # deeper than the limit, a certificate deeper than the frames the
        # recursive construction took, then reduce_exact
        script = (
            "import json, sys\n"
            f"sys.path.insert(0, {str(pathlib.Path(__file__).parent)!r})\n"
            "import numpy as np\n"
            "import test_synth as t\n"
            "from lamstair import stages, staircase as sc, synth as sy\n"
            "from lamstair.errors import UnsupportedError\n"
            "from lamstair.matrices import frob\n"
            "limit = sys.getrecursionlimit()\n"
            "deep = t.roof_chain(limit + 100)\n"
            "dist = deep.distribution()\n"
            "X = deep.domain.interior_points(sy._halton(256, 2))\n"
            "G = deep.gradient_many(X)\n"
            "chain = [deep]\n"
            "while chain[-1].slots[1].inner is not None:\n"
            "    chain.append(chain[-1].slots[1].inner)\n"
            "dev, bound = 0.0, frob(chain[-1].slots[1].A)\n"
            "for node in reversed(chain):\n"
            "    dev = node.H * node.norm_eta + max(dev, 0.0)\n"
            "    bound = max(node.gmax, bound, frob(node.slots[2].A))\n"
            "out = {'limit': limit, 'atoms': len(dist),\n"
            "       'finite': bool(np.isfinite(deep.evaluate_many(X)).all()),\n"
            "       'atom_gradients': {g.tobytes() for g in G}\n"
            "                         <= {g.tobytes() for g in dist.G},\n"
            "       'sup_dev': deep.sup_dev() == dev,\n"
            "       'grad_bound': deep.grad_bound() == bound,\n"
            "       'cells': len(sy.PiecewiseAffineMap(deep, deep.A, deep.b).cells().counts)}\n"
            "try:\n"
            "    t.distribution_recursive(deep)\n"
            "    out['recursion'] = 'finished'\n"
            "except RecursionError:\n"
            "    out['recursion'] = 'RecursionError'\n"
            "nu = sc.build_truncation(sc.example_staircase('det1', {'a': [2, 2]}), 200)\n"
            "m = sy.realize_finite_laminate(nu, t.UNIT, eps=0.9)\n"
            "out['certificate_atoms'] = len(m.distribution())\n"
            "try:\n"
            "    m.cells()\n"
            "except UnsupportedError as exc:\n"
            "    out['certificate_cells'] = str(exc)\n"
            "sy.reduce_exact(stages.stage3_builder(1.5), t.UNIT, np.diag([3.0, 1.0]),\n"
            "                0.0, delta=0.5, alpha=0.5, depth=2, p=2.0, M=8.0, r=1.5)\n"
            "out['after_reduce'] = sys.getrecursionlimit()\n"
            "print(json.dumps(out))\n")
        src = str(pathlib.Path(sy.__file__).parents[1])
        out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, check=True, timeout=300,
                             env=dict(os.environ, PYTHONPATH=src))
        got = json.loads(out.stdout)
        depth = got["limit"] + 100
        assert got == {"limit": got["limit"], "atoms": 4 * depth, "finite": True,
                       "atom_gradients": True, "sup_dev": True, "grad_bound": True,
                       "cells": 5 * depth - 1, "recursion": "RecursionError",
                       "certificate_atoms": got["certificate_atoms"],
                       "certificate_cells": got["certificate_cells"],
                       "after_reduce": got["limit"]}
        assert got["certificate_atoms"] > 800
        assert got["certificate_cells"].endswith("the cell budget")
        # at a depth the recursion still reaches, the walks agree
        shallow = roof_chain(100)
        assert_same_walk(shallow.distribution(), distribution_recursive(shallow))
        assert len(shallow.distribution()) == 4 * 100

    def test_distribution_is_the_kept_walk(self, monkeypatch):
        from lamstair import stages
        pam, _ = sy.reduce_exact(stages.stage3_builder(1.5), UNIT, np.diag([3.0, 1.0]),
                                 0.0, delta=0.5, alpha=0.5, depth=8, p=2.0, M=8.0,
                                 r=1.5)
        made = []

        class CountedRow(Row):
            def __new__(cls, *args):
                made.append(None)
                return super().__new__(cls, *args)

        monkeypatch.setattr(sys.modules[__name__], "Row", CountedRow)
        # the root's kept walk, returned as it is: no object per row
        dist = pam.root.distribution()
        assert dist is pam.root._kept and dist is pam.distribution()
        assert dist is pam.root.distribution() and len(dist) > 900
        # the recursion wrapped every atom once per ancestor that scales it
        distribution_recursive(pam.root)
        assert len(made) > 2 * len(dist)



# ---------------------------------------------------------------------------
# kept walks: patches between two walks of one node are spliced in


def slotted_roof(flags=(sy.GOOD, sy.INDUCTIVE), lam=0.3, dom=UNIT):
    """A roof of diag(2 lam - 1, 1) into diag(+-1, 1) on dom whose slots
    carry the given flags."""
    A1, A2 = np.diag([1.0, 1.0]), np.diag([-1.0, 1.0])
    rm, node = sy._roof_node(dom, lam * A1 + (1.0 - lam) * A2, 0.0, A1, A2, lam,
                             0.5, math.inf, sy.ERROR, 0.0)
    assert node is rm
    for side, flag in zip((1, 2), flags):
        rm.slots[side].flag = flag
    return rm


def patch_node(slot, walked):
    """A roof on the slot's domain (under a rotated cover where the domain
    is rotated) into two gradients that differ from slot.A in the first
    column, walked first or not."""
    A, D = slot.A, np.outer([0.5, 0.25], [1.0, 0.0])
    rm, node = sy._roof_node(slot.domain, A, 0.0, A + 0.6 * D, A - 0.4 * D, 0.4,
                             0.5, math.inf, sy.ERROR, 0.0)
    rm.slots[2].flag = sy.INDUCTIVE
    if walked:
        node.distribution()
    return node


def assert_walks_like_the_recursion(root, same_G=True):
    assert_same_walk(root.distribution(), distribution_recursive(root), same_G)


class TestSplicedWalk:
    @pytest.mark.parametrize("walked", [True, False])
    @pytest.mark.parametrize("cover", ["grid", "rotated"])
    def test_shared_template_slot_under_covers(self, cover, walked):
        # one template slot under two covers with different factors: its
        # rows appear twice, and one patch changes both
        rm = slotted_roof((sy.INDUCTIVE, sy.INDUCTIVE))
        if cover == "grid":
            tdom = sy.GridCover.plan(rm.slots[1].domain)[2]
        else:
            tdom = sy.OBox((0.0, 0.0), (1.0, 1.0), [[math.cos(0.5), -math.sin(0.5)],
                                                    [math.sin(0.5), math.cos(0.5)]])
        template = sy.SlotMap(tdom, rm.slots[1].A, flag=sy.INDUCTIVE)
        for side in (1, 2):
            slot = rm.slots[side]
            if cover == "grid":
                counts, sigma, _ = sy.GridCover.plan(slot.domain)
                node = sy.GridCover(slot.domain, slot.A, 0.0, counts, sigma, template)
            else:
                node = sy.CoverMap(slot.domain, slot.A, 0.0, 0.2, template)
            slot.patch(node)
        dist = rm.distribution()
        assert_same_walk(dist, distribution_recursive(rm))
        rows = [va for va in walk_rows(dist) if va.slot is template]
        assert len(rows) == 2 and rows[0].vol != rows[1].vol
        template.patch(patch_node(template, walked))
        assert_walks_like_the_recursion(rm)

    @pytest.mark.parametrize("walked", [True, False])
    def test_slot_under_a_swapped_node(self, walked):
        rm = slotted_roof()
        swapped = sy._SwappedNode(rm)
        assert_walks_like_the_recursion(swapped, same_G=False)
        rm.slots[2].patch(patch_node(rm.slots[2], walked))
        assert_walks_like_the_recursion(swapped, same_G=False)
        rm.slots[1].patch(patch_node(rm.slots[1], walked))
        assert_walks_like_the_recursion(swapped, same_G=False)

    @pytest.mark.parametrize("flags", [(sy.GOOD, sy.GOOD), (sy.INDUCTIVE, sy.INDUCTIVE),
                                       (sy.GOOD, sy.INDUCTIVE)])
    @pytest.mark.parametrize("walked", [True, False])
    def test_both_slots_of_one_roof(self, flags, walked):
        # a GOOD slot's slab row becomes child rows and a margin row, an
        # inductive slot's core row becomes child rows; under a grid cover,
        # the roof's rows carry one more factor
        outer = slotted_roof((sy.INDUCTIVE, sy.GOOD), lam=0.5)
        slot = outer.slots[1]
        counts, sigma, tdom = sy.GridCover.plan(slot.domain)
        rm = slotted_roof(flags, dom=tdom)
        slot.patch(sy.GridCover(slot.domain, slot.A, 0.0, counts, sigma, rm))
        assert_walks_like_the_recursion(outer)
        for side in (1, 2):
            rm.slots[side].patch(patch_node(rm.slots[side], walked))
        assert_walks_like_the_recursion(outer)

    @pytest.mark.parametrize("walked", [True, False])
    def test_good_then_inductive_slot(self, walked):
        # a GOOD slot's slab row becomes child rows and a margin row, an
        # inductive slot's core row becomes child rows
        rm = slotted_roof()
        assert_walks_like_the_recursion(rm)
        for side in (1, 2):
            rm.slots[side].patch(patch_node(rm.slots[side], walked))
            assert_walks_like_the_recursion(rm)

    @pytest.mark.parametrize("walked", [True, False])
    def test_patch_below_a_walked_subtree(self, walked):
        # a walked subtree's walk moves into the outer walk when patched in;
        # a later patch inside it is spliced into the outer walk, and the
        # subtree walks afresh
        outer = slotted_roof((sy.INDUCTIVE, sy.INDUCTIVE))
        assert_walks_like_the_recursion(outer)
        outer.slots[2].patch(patch_node(outer.slots[2], True))
        assert_walks_like_the_recursion(outer)
        inner = outer.slots[2].inner
        inner.slots[2].patch(patch_node(inner.slots[2], walked))
        assert_walks_like_the_recursion(outer)
        assert_walks_like_the_recursion(inner)

    @pytest.mark.parametrize("walked", [True, False])
    def test_later_sites_move_with_a_splice(self, walked):
        # the first subtree's GOOD slot gains rows; the second subtree's site
        # comes after them and is patched next
        outer = slotted_roof((sy.INDUCTIVE, sy.INDUCTIVE))
        for side in (1, 2):
            outer.slots[side].patch(patch_node(outer.slots[side], walked))
        assert_walks_like_the_recursion(outer)
        first, second = (outer.slots[side].inner for side in (1, 2))
        first.slots[1].patch(patch_node(first.slots[1], walked))
        assert_walks_like_the_recursion(outer)
        second.slots[2].patch(patch_node(second.slots[2], walked))
        assert_walks_like_the_recursion(outer)

    def test_walk_root_patched(self):
        rm = slotted_roof()
        slot = sy.SlotMap(UNIT, rm.A, flag=sy.INDUCTIVE)
        assert_walks_like_the_recursion(slot)
        slot.patch(rm)
        assert_walks_like_the_recursion(slot)

    def test_within_slack_retry_builds_a_fresh_node(self):
        # the first attempt overshoots its cap, so a second, fresh node is
        # built with smaller budgets; each walk equals the recursion's, and
        # so does the last node's after its inductive slots are patched
        from lamstair import stages
        A, r, nodes = np.diag([3.0, 1.0]), 1.5, []

        def attempt(eta, theta):
            slot = sy.SlotMap(UNIT, A, 0.0)
            stages._reduce_slot(slot, eta, 0.5, r, 0.1, theta)
            nodes.append(slot)
            return slot

        err0 = sy._moment_of(attempt(0.4, sy.THETA_MIN).distribution(),
                             (sy.ERROR, sy.RESIDUAL), r)
        node = stages._within_slack("test", attempt, 0.4, sy.THETA_MIN, 0.9 * err0, r)
        assert len(nodes) == 3 and node is nodes[2]
        for n in nodes:
            assert_walks_like_the_recursion(n)
        slots = sy._open_slots(node.distribution(), sy.INDUCTIVE)
        assert slots
        build = stages.stage3_builder(r)
        for s in slots:
            s.patch(build(s.A, s.domain, s.b, 2.0 ** -4, 0.5, 0.1, 0.5))
        assert_walks_like_the_recursion(node)

    def test_parts_outside_the_patched_run_must_not_change(self):
        # side 2's run starts after side 1's child part; a changed tooth
        # count changes that part, which no splice may leave stale
        rm = slotted_roof((sy.INDUCTIVE, sy.INDUCTIVE))
        rm.slots[1].patch(patch_node(rm.slots[1], True))
        rm.distribution()
        rm.n += 1
        rm.slots[2].patch(patch_node(rm.slots[2], True))
        with pytest.raises(InternalError, match="RoofMap parts changed outside"):
            rm.distribution()


def test_sealed_map_reads_the_patched_tree():
    # a sealed map whose GOOD slots are patched afterwards, as _reduce_slot
    # patches every map it realizes: each query reads the tree as it is now
    from lamstair import stages
    comp = stages.stage3_spec(np.diag([3.0, 1.0]))
    pam = sy.realize_finite_laminate(comp.presplit_input_frame(), UNIT, eps=0.2)
    before = pam.distribution()
    assert len(before) == 4 and pam.distribution() is before
    slots = sy._open_slots(before, sy.GOOD)
    assert len(slots) == 2
    for s in slots:
        s.patch(sy.realize_staircase(comp.spec_for_matrix(s.A), 3, s.domain, A=s.A,
                                     b=s.b, eta=0.2).root)
    rows = distribution_recursive(pam.root)
    ref = walk_of(rows)
    walk = pam.distribution()
    assert len(walk) == 54 and walk is pam.root.distribution()
    assert_same_walk(walk, rows)
    for flags in ((sy.ERROR, sy.RESIDUAL), (sy.INDUCTIVE,), (sy.GOOD,)):
        assert (float(pam.error_moment(1.5, flags)).hex()
                == float(ref_moment_of(ref, flags, 1.5)).hex())
    assert pam.error_moment(1.5) > 2.0 * ref_moment_of(before, (sy.ERROR, sy.RESIDUAL), 1.5)
    assert pam.residual_volume == ms._seq_sum(va.vol for va in rows
                                              if va.flag == sy.RESIDUAL)
    for G in {va.G.tobytes(): va.G for va in rows}.values():
        for flags in ((sy.GOOD,), (sy.GOOD, sy.INDUCTIVE)):
            want = ms._seq_sum(va.vol for va in rows
                               if va.flag in flags and frob(va.G - G) <= 1e-9 * (1.0 + frob(G)))
            assert float(pam.volume_of(G, flags)).hex() == float(want).hex()
    got, resid = pam.gradient_distribution()
    want = ms.DiscreteMeasure([ms.Atom(va.vol / UNIT.volume, va.G) for va in rows
                               if va.flag != sy.RESIDUAL and va.vol > 0.0])
    assert resid == pam.residual_volume and len(got) == len(want)
    for a, b in zip(got.atoms, want.atoms):
        assert float(a.weight).hex() == float(b.weight).hex()
        assert a.point.tobytes() == b.point.tobytes()


# ---------------------------------------------------------------------------
# the stacked moment queries against the per-atom ones they replaced


def ref_moment_of(dist, flags, r):
    """The per-atom moment that the stacked norms replaced."""
    return ms._seq_sum(va.vol * (1.0 + frob(va.G) ** r)
                       for va in walk_rows(dist) if va.flag in flags)


def ref_tail_constant(dist, p, normA, r, vol, t_grid):
    """The per-atom tail constant that the stacked norms replaced."""
    norms = np.array([frob(va.G) for va in walk_rows(dist)])
    vols = np.array([va.vol for va in walk_rows(dist)])
    best = 0.0
    for t in t_grid:
        tail = float(vols[norms > t].sum())
        best = max(best, tail * t ** p)
    return best / (vol * (1.0 + normA ** r))


# norms at which np.power(x, 1.5) and x ** 1.5 differ in the last bit on an
# AVX-512 build of numpy; the moment must take Python's power
POWER_BASES = [float.fromhex(h) for h in (
    "0x1.e7345d966c12bp+4", "0x1.ce145aebd6525p+4", "0x1.15557b161540bp+4",
    "0x1.883c7f8e50122p+5", "0x1.4331064bb772cp+5", "0x1.3347e2c68f091p+3")]


# a matrix whose frob differs in the last bit when read column by column
# (as an F-ordered copy is); the stacked norms must read memory order as frob
ORDER_G = np.array([[float.fromhex(a), float.fromhex(b)] for a, b in (
    ("-0x1.1438f67111aa0p+1", "0x1.7c47e5cb332b8p+0"),
    ("0x1.f6501d9680ed8p+0", "-0x1.095143d4a75a0p+1"))])


def power_atoms():
    """A walk with rows of every flag whose norms are POWER_BASES, with C-,
    F- and non-contiguous gradients (frob reads each in memory order)."""
    out = [(0.3, np.asfortranarray(ORDER_G), flag, None)
           for flag in (sy.ERROR, sy.GOOD, sy.INDUCTIVE, sy.RESIDUAL)]
    for k, x in enumerate(POWER_BASES):
        G = np.array([[x, 0.0], [0.0, 0.0]])
        assert frob(G) == x
        H = np.array([[x / 3.0, x / 7.0], [-x / 5.0, x / 11.0]])
        for M in (G, np.asfortranarray(H), np.kron(H, np.ones((1, 2)))[:, ::2]):
            out.append((0.37 + 0.01 * k, M, (sy.ERROR, sy.GOOD, sy.INDUCTIVE,
                                              sy.RESIDUAL)[k % 4], None))
    return walk_of(out)


def moment_cases():
    from lamstair import stages
    _, walks = reduce_walks(stages.stage3_builder(1.5), np.diag([3.0, 1.0]), 3)
    return walks + [power_atoms(), walk_of([]), fixed_map("swapped").distribution()]


def test_moments_match_the_per_atom_reference():
    flag_sets = [(sy.ERROR, sy.RESIDUAL), (sy.INDUCTIVE,), (sy.ERROR, sy.RESIDUAL,
                                                            sy.INDUCTIVE), (sy.GOOD,)]
    for dist in moment_cases():
        # one norm column per walk, read-only
        assert dist.norms is dist.norms and not dist.norms.flags.writeable
        assert ([x.hex() for x in dist.norms.tolist()]
                == [frob(G).hex() for G in dist.G])
        for flags in flag_sets:
            for r in (1.5, 2.0, 0.7):
                got, want = sy._moment_of(dist, flags, r), ref_moment_of(dist, flags, r)
                assert type(got) is type(want) and float(got).hex() == float(want).hex()
        t_grid = np.geomspace(1.5, 400.0, 40)
        for p, r in ((2.0, 1.5), (1.5, 2.0)):
            got = sy._tail_constant(dist, p, 3.2, r, 1.0, t_grid)
            assert got.hex() == ref_tail_constant(dist, p, 3.2, r, 1.0, t_grid).hex()


def test_criterion_08_parts_calls(monkeypatch):
    # a count of node _parts() calls guards against re-walks without timing:
    # the walk that re-walked the whole tree every round made 5,267 (1,746
    # RoofMap, 1,736 GridCover, 1,785 SlotMap)
    from lamstair import stages
    counts = {}
    for cls in (sy.RoofMap, sy.GridCover, sy.CoverMap, sy.SlotMap, sy._SwappedNode):
        def counted(self, parts=cls._parts, name=cls.__name__):
            counts[name] = counts.get(name, 0) + 1
            return parts(self)
        monkeypatch.setattr(cls, "_parts", counted)
    pam, _ = sy.reduce_exact(stages.stage3_builder(1.5), UNIT, np.diag([3.0, 1.0]),
                             0.0, delta=0.5, alpha=0.5, depth=8, p=2.0, M=8.0, r=1.5)
    assert sum(counts.values()) <= 703, counts
    # each walk copied into another moved there: only the root keeps one
    nodes, stack = [], [pam.root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(c for c in (getattr(node, a, None) for a in ("inner", "template"))
                     if c is not None)
        stack.extend(getattr(node, "slots", {}).values())
    assert len(nodes) > 900
    assert [n for n in nodes if n._kept is not None] == [pam.root]


# ---------------------------------------------------------------------------
# _drive, and the driven walks against the recursions they replaced


def test_drive_sends_values_and_throws_errors_into_the_parent():
    def leaf(x):
        if x < 0:
            raise ValueError(f"negative {x}")
        return x
        yield

    def node():
        try:
            yield leaf(-1)
        except ValueError as exc:
            caught = str(exc)
        return caught, (yield leaf(2)) + (yield leaf(3))

    def failing():
        return (yield node()), (yield leaf(-4))

    assert sy._drive(node()) == ("negative -1", 5)
    with pytest.raises(ValueError, match="^negative -4$"):
        sy._drive(failing())


def criterion_06_roof(lam):
    A1, A2 = np.diag([1.0, 1.0]), np.diag([-1.0, 1.0])
    return sy.roof(lam * A1 + (1.0 - lam) * A2, 0.0, A1, A2, lam, UNIT, eps=0.05)


WALK_CASES = {
    "roof_chain": lambda: roof_chain(100),
    "roof_0.3": lambda: criterion_06_roof(0.3).root,
    "roof_0.5": lambda: criterion_06_roof(0.5).root,
    "roof_0.7": lambda: criterion_06_roof(0.7).root,
    "rotated_laminate": lambda: rotated_laminate().root,
    "grid_staircase": lambda: fixed_map("grid_staircase").root,
    "swapped": lambda: fixed_map("swapped").root,
    # a grid cover and a swap whose cells all fit the budget below
    "thin_laminate": lambda: sy.realize_finite_laminate(
        one_step_laminate(), sy.box((0.0, 0.0), (3.0, 0.5)), eps=0.2).root,
    "swapped_roof": lambda: criterion_06_roof(0.3).swap_components().root,
}


def cell_rows(cells):
    """Cells in order as (vertex bytes, A bytes, flag)."""
    return [(np.array(verts).tobytes(), A.tobytes(), flag) for verts, A, flag in cells]


def outcome(fn):
    """fn()'s value, or the type and message of the error it raised."""
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


def walk_cells(walk, root, limit):
    """The cells a walk emits within the budget, in order, and the error it
    raised, if any."""
    out = []
    error = outcome(lambda: walk(root, out, np.zeros(2), 1.0, limit))
    return cell_rows(out), error


def driven_cells(root, *args):
    sy._drive(root._cells(*args))


class RecordingBudget(sy._Budget):
    """A _Budget that records (k, loss, sup budget) for each node it budgets."""

    def __init__(self, *args):
        super().__init__(*args)
        self.records = []

    def next_node(self, gmax):
        k = self.k
        loss, hsup = super().next_node(gmax)
        self.records.append((k, loss.hex(), float(hsup).hex()))
        return loss, hsup


def det1_deep():
    nu = sc.build_truncation(sc.example_staircase("det1", {"a": [2, 2]}), 60)
    return sy.realize_finite_laminate(nu, UNIT, eps=0.9)


CONSTRUCTION_CASES = {
    "rotated_laminate": rotated_laminate,
    "grid_staircase": lambda: sy.realize_staircase(
        sc.example_staircase("det1", {"a": [2, 2]}), 4, sy.box((0.0, 0.0), (3.0, 0.5)),
        eta=0.2),
    "swapped_base": lambda: sy.realize_extended(
        sc.extended_measure("elliptic", np.diag([-1.0, 1.0]), {"K": 3.0}), UNIT,
        delta=0.1, depth=2),
    "det1_deep": det1_deep,
}


@pytest.mark.blas_kernels
class TestDrivenWalks:
    @pytest.mark.parametrize("case", sorted(WALK_CASES))
    def test_bounds_and_cells_match_recursion(self, case):
        root = WALK_CASES[case]()
        assert root.sup_dev().hex() == sup_dev_recursive(root).hex()
        assert root.grad_bound().hex() == grad_bound_recursive(root).hex()
        # every cell within the budget, then the budget's error for a map
        # with more cells; the small budget breaks inside the walk
        for limit in (40_000, 300):
            got = walk_cells(driven_cells, root, limit)
            assert got == walk_cells(cells_recursive, root, limit)
            assert got[1] is None or got[1][0] is UnsupportedError

    @pytest.mark.parametrize("case", sorted(CONSTRUCTION_CASES))
    def test_construction_matches_recursion(self, case, monkeypatch):
        # the arguments of the outermost construction call of the case
        calls = []
        realize = sy._realize_node

        def spy(*args, **kwargs):
            if not calls:
                calls.append(inspect.signature(realize).bind(*args, **kwargs).arguments)
            return realize(*args, **kwargs)

        monkeypatch.setattr(sy, "_realize_node", spy)
        CONSTRUCTION_CASES[case]()
        monkeypatch.undo()
        a = calls[0]
        trees = []
        for build in (lambda *args: sy._drive(realize(*args)), realize_recursive):
            b = a["budget"]
            budget = RecordingBudget(b.base, b.sup, b.s, b.theta_min)
            root = build(a["tree"], a["dom"], a["A"], a["b"], budget, a["leaf_fn"],
                         a["aux_flag"])
            trees.append((root, budget.records))
        (got, got_k), (ref, ref_k) = trees
        assert len(got_k) > 1 and got_k == ref_k
        assert [k for k, _, _ in got_k] == list(range(len(got_k)))
        assert walk_digest(got.distribution()) == walk_digest(ref.distribution())
        X = probe_points(got.domain, 0)
        assert got.evaluate_many(X).tobytes() == ref.evaluate_many(X).tobytes()
        assert got.gradient_many(X).tobytes() == ref.gradient_many(X).tobytes()
