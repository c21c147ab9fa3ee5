import dataclasses
import hashlib
import json
import math
import pathlib
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lamstair import measures as ms
from lamstair import serialize
from lamstair import staircase as sc
from lamstair import synth as sy
from lamstair.errors import PreconditionError, UnsupportedError, VerdictFailure
from lamstair.matrices import asmatrix, frob

UNIT = sy.box((0.0, 0.0), (1.0, 1.0))


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
        nu, res = sy.gradient_distribution(m)
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
        cells = m.cells()
        assert sum(poly_area(c.vertices) for c in cells) == pytest.approx(1.0)
        # cell offsets reproduce the map on their region
        c = cells[0]
        x = np.mean(np.asarray(c.vertices), axis=0)
        assert np.allclose(m.evaluate(x), c.A @ x + c.b)

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
        vols = sum(va.vol for va in m.distribution())
        assert vols == pytest.approx(UNIT.volume)
        x = UNIT.boundary_points([0.37])[0]
        assert np.allclose(m.evaluate(x), A @ x, atol=1e-12)


class TestFiniteLaminate:
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
        ind = sum(va.vol for va in m.distribution() if va.flag == "inductive")
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
        walks = []

        def counting_builder(*args):
            node = det1_builder(*args)
            if not walks:
                # the first output is the root; count walks of the whole tree
                walk = node.distribution
                walks.append(0)

                def counted():
                    walks[0] += 1
                    return walk()

                node.distribution = counted
            return node

        depth = 3
        pam, reports = sy.reduce_exact(counting_builder, UNIT, np.diag([3.0, 3.0]),
                                       0.0, delta=0.5, alpha=0.5, depth=depth,
                                       p=2.0, M=8.0, r=1.5)
        assert len(reports) == depth and reports[-1].patched_slots > 0
        # round 0 reuses the walk of the builder's check, later rounds walk
        # once each, and the seal takes the last round's walk
        assert walks == [depth]


class TestExtendedRealization:
    def test_pure_seed(self):
        ext = sc.extended_measure("elliptic", np.diag([-1.0, 1.0]), {"K": 3.0})
        m = sy.realize_extended(ext, UNIT, delta=0.1, depth=3)
        ind = sum(va.vol for va in m.distribution() if va.flag == "inductive")
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
        obj = json.loads(json.dumps(serialize.map_to_obj(m)))
        return serialize.map_from_obj(obj)
    raise KeyError(name)


REFERENCE = json.loads(
    (pathlib.Path(__file__).parent / "evaluation_digests.json").read_text())


def rows_sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()


def report_sha256(rep):
    vals = [float(v) if isinstance(v, float) else v for v in dataclasses.astuple(rep)]
    return hashlib.sha256(repr(vals).encode()).hexdigest()


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
        cells = m.cells(max_cells=25_000)
        assert len(cells) == {"one_step": 3896, "rotated_roof": 21904}[name]
        # a point strictly inside each convex cell, away from the centroid
        # that fixed the cell offset
        X = np.array([(3.0 * np.mean(c.vertices, axis=0) + c.vertices[0]) / 4.0
                      for c in cells])
        A = np.array([c.A for c in cells])
        assert m.gradient_many(X).tobytes() == A.tobytes()
        expect = np.array([c.A @ x + c.b for c, x in zip(cells, X)])
        got = m.evaluate_many(X)
        assert np.all(np.abs(got - expect) <= 1e-12 * np.abs(expect).max())

    def test_empty_batch_and_bad_shape(self):
        m = fixed_map("rotated_roof")
        assert m.evaluate_many(np.zeros((0, 2))).shape == (0, 2)
        assert m.gradient_many(np.zeros((0, 2))).shape == (0, 2, 2)
        with pytest.raises(PreconditionError):
            m.evaluate_many(np.zeros(2))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [16, 2500, 5000, 100_000])
def test_halton_matches_scipy(d, n):
    qmc = pytest.importorskip("scipy.stats.qmc")
    ref = qmc.Halton(d=d, scramble=False).random(n)
    got = sy._halton(n, d)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


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
