import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lamstair import serialize, synth
from lamstair.errors import ParseError, PreconditionError, UnsupportedError
from lamstair.matrices import frob
from lamstair.measures import (Atom, DiscreteMeasure, SplittingStep, dirac,
                               elementary_split, verify_laminate,
                               verify_weak_tail)


def one_step_laminate():
    # diag(2,2) split along e1 (x) e1 with the exact det-1 first-step weight
    return elementary_split(
        dirac(np.diag([2.0, 2.0]), certificate=[]),
        SplittingStep(np.diag([2.0, 2.0]), np.diag([0.5, 2.0]),
                      np.diag([4.0, 2.0]), Fraction(4, 7)))


class TestMatrices:
    def test_round_trip(self):
        M = np.array([[1.5, -2.0], [0.0, 3.25]])
        obj = serialize.matrix_to_obj(M)
        assert obj["rows"] == 2 and obj["cols"] == 2
        assert np.array_equal(serialize.matrix_from_obj(obj), M)

    @pytest.mark.parametrize("obj", [
        {"rows": 2, "cols": 2},
        {"rows": 2, "cols": 2, "entries": [[1, 2], [3]]},
        {"rows": 0, "cols": 2, "entries": []},
        {"rows": 1, "cols": 1, "entries": [["x"]]},
        {"rows": 1, "cols": 1, "entries": [[10 ** 400]]},
    ])
    def test_malformed_rejected(self, obj):
        with pytest.raises(ParseError):
            serialize.matrix_from_obj(obj)

    def test_diag_argument(self):
        assert np.array_equal(serialize.parse_matrix_arg("diag(3,5,0,0)"),
                              np.diag([3.0, 5.0, 0.0, 0.0]))
        with pytest.raises(ParseError):
            serialize.parse_matrix_arg("diag(3,x)")

    @pytest.mark.parametrize("text", ["diag(nan,2)", "diag(2,inf)", "diag(-inf,1)",
                                      "diag(NaN, 3)"])
    def test_non_finite_diagonal_rejected(self, text):
        with pytest.raises(ParseError, match="non-finite"):
            serialize.parse_matrix_arg(text)

    @pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_entry_rejected(self, entry, tmp_path):
        # JSON NaN/Infinity literals load as floats; they are parse errors
        text = '{"rows": 2, "cols": 2, "entries": [[1.0, %s], [0.0, 1.0]]}' % entry
        with pytest.raises(ParseError, match="finite"):
            serialize.matrix_from_obj(json.loads(text))
        path = tmp_path / "A.json"
        path.write_text(text)
        with pytest.raises(ParseError, match="finite"):
            serialize.parse_matrix_arg(str(path))

    @pytest.mark.parametrize("entries", [[[1e308, 0.0], [0.0, 1.0]],
                                         [[2e154, 0.0], [0.0, 2e154]]])
    def test_overflowing_norm_is_precondition(self, entries, tmp_path):
        # finite entries whose Frobenius norm overflows: every tolerance
        # tol * (1 + |M|) would be infinite
        obj = {"rows": 2, "cols": 2, "entries": entries}
        with pytest.raises(PreconditionError, match="Frobenius"):
            serialize.matrix_from_obj(obj)
        path = tmp_path / "A.json"
        serialize.dump_json(obj, path)
        with pytest.raises(PreconditionError, match="Frobenius"):
            serialize.parse_matrix_arg(str(path))
        with pytest.raises(PreconditionError, match="Frobenius"):
            serialize.parse_matrix_arg(f"diag({entries[0][0]!r},1)")

    def test_large_finite_norm_accepted(self):
        M = serialize.matrix_from_obj({"rows": 2, "cols": 2,
                                       "entries": [[1e150, 0.0], [0.0, 1e150]]})
        assert math.isfinite(frob(M))


class TestMeasures:
    def test_round_trip_with_certificate(self):
        nu = one_step_laminate()
        obj = serialize.measure_to_obj(nu)
        back = serialize.measure_from_obj(obj)
        assert len(back) == len(nu)
        # exact rational weights survive the text form
        assert back.atoms[0].weight == Fraction(4, 7)
        assert verify_laminate(back).ok
        assert serialize.measure_to_obj(back) == obj

    def test_float_weights_round_trip(self):
        nu = DiscreteMeasure([Atom(0.25, np.eye(2)), Atom(0.75, np.zeros((2, 2)))])
        back = serialize.measure_from_obj(serialize.measure_to_obj(nu))
        assert sorted(float(a.weight) for a in back.atoms) == [0.25, 0.75]

    def test_bad_weight_rejected(self):
        obj = {"atoms": [{"w": "1/0", "M": serialize.matrix_to_obj(np.eye(2))}]}
        with pytest.raises(ParseError):
            serialize.measure_from_obj(obj)
        obj = {"atoms": [{"w": True, "M": serialize.matrix_to_obj(np.eye(2))}]}
        with pytest.raises(ParseError):
            serialize.measure_from_obj(obj)

    @pytest.mark.parametrize("w", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight_rejected(self, w):
        obj = json.loads(json.dumps(
            {"atoms": [{"w": w, "M": serialize.matrix_to_obj(np.eye(2))}]}))
        with pytest.raises(ParseError, match="finite"):
            serialize.measure_from_obj(obj)
        step = {k: serialize.matrix_to_obj(np.eye(2))
                for k in ("target", "left", "right")}
        obj = {"atoms": [{"w": 1, "M": serialize.matrix_to_obj(np.eye(2))}],
               "certificate": [dict(step, lam=w)]}
        with pytest.raises(ParseError, match="finite"):
            serialize.measure_from_obj(obj)


class TestTailCsv:
    def test_header_and_verdicts(self):
        nu = one_step_laminate()
        rep = verify_weak_tail(nu, 2.0, 8.0, 2.0, t_grid=[1.0, 10.0])
        text = serialize.tail_report_csv(rep)
        lines = text.strip().split("\n")
        assert lines[0] == "t,tail,upper_env,lower_env,verdict"
        assert all(ln.endswith(("pass", "fail")) for ln in lines[1:])
        assert "," in lines[1] and ";" not in text


def map_obj(m):
    """The realized map m's object, read back from the text dump_map writes."""
    return json.loads("".join(serialize._map_chunks(m.cells(200_000))))


@pytest.fixture(scope="module")
def realized():
    dom = synth.box((0.0, 0.0), (1.0, 1.0))
    return synth.realize_finite_laminate(one_step_laminate(), dom, eps=0.1)


class TestMaps:
    def test_round_trip_evaluates_identically(self, realized):
        obj = map_obj(realized)
        cm = serialize.map_from_obj(obj)
        rng = np.random.default_rng(7)
        for x in rng.random((100, 2)):
            assert np.allclose(cm.evaluate(x), realized.evaluate(x), atol=1e-12)
        for t in np.linspace(0.0, 1.0, 17):
            x = realized.domain.boundary_points([t])[0]
            assert np.allclose(cm.evaluate(x), realized.evaluate(x), atol=1e-12)

    def test_volume_and_flag_bookkeeping(self, realized):
        obj = map_obj(realized)
        cm = serialize.map_from_obj(obj)
        vols = cm.volumes_by_flag()
        covered = sum(vols.values())
        assert covered + cm.residual_volume == pytest.approx(
            realized.domain.volume, rel=1e-9)
        assert set(vols) <= {"good", "error"}
        nu, resid = cm.gradient_distribution()
        nu0, resid0 = realized.gradient_distribution()
        for a in nu0.atoms:
            i = nu.find(a.point)
            assert i is not None
            assert float(nu.atoms[i].weight) == pytest.approx(float(a.weight),
                                                              abs=1e-9)

    def test_swap_is_involutive(self, realized):
        cm = serialize.map_from_obj(map_obj(realized))
        twice = cm.swap_components().swap_components()
        rng = np.random.default_rng(3)
        for x in rng.random((25, 2)):
            assert np.allclose(twice.evaluate(x), cm.evaluate(x), atol=1e-12)

    def test_malformed_map_rejected(self, realized):
        obj = map_obj(realized)
        bad = json.loads(json.dumps(obj))
        bad["cells"][0]["flag"] = "inductive"
        with pytest.raises(ParseError):
            serialize.map_from_obj(bad)
        bad = json.loads(json.dumps(obj))
        del bad["boundary"]
        with pytest.raises(ParseError):
            serialize.map_from_obj(bad)

    def test_dump_is_deterministic(self, realized, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        serialize.dump_map(realized.cells(), p1)
        serialize.dump_map(realized.cells(), p2)
        assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# CellMap: the per-cell representation the array-backed one replaced,
# kept as the reference for its geometry and its cell lookup

P_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def ref_polygon_area(verts) -> float:
    v = np.asarray(verts, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def ref_polygon_contains(verts, x, tol: float = 1e-9) -> bool:
    v = np.asarray(verts, dtype=float)
    n = len(v)
    sign = 0.0
    for i in range(n):
        e = v[(i + 1) % n] - v[i]
        cross = e[0] * (x[1] - v[i][1]) - e[1] * (x[0] - v[i][0])
        if abs(cross) <= tol:
            continue
        if sign == 0.0:
            sign = cross
        elif cross * sign < 0.0:
            return False
    return True


class RefCells:
    """Cells as lists of vertex arrays with the per-cell formulas and the
    point-by-point lookup of the old CellMap."""

    def __init__(self, verts, mats, offsets):
        self.verts, self.mats, self.offsets = verts, mats, offsets
        self.centroids = np.array([np.mean(v, axis=0) for v in verts])
        self.areas = np.array([ref_polygon_area(v) for v in verts])
        self.radii = np.array(
            [max(np.linalg.norm(np.asarray(p, dtype=float) - ctr) for p in v)
             for v, ctr in zip(verts, self.centroids)])

    @classmethod
    def from_obj(cls, obj):
        cells = obj["cells"]
        return cls([[np.asarray(p, dtype=float) for p in c["region"]["vertices"]]
                    for c in cells],
                   [serialize.matrix_from_obj(c["A"]) for c in cells],
                   [np.asarray(c["b"], dtype=float) for c in cells])

    def swapped(self):
        P = P_SWAP
        return RefCells([[P @ p for p in v] for v in self.verts],
                        [P @ A @ P for A in self.mats],
                        [P @ b for b in self.offsets])

    def grad_bound(self):
        return max((frob(A) for A in self.mats), default=0.0)

    def locate(self, x) -> int:
        x = np.asarray(x, dtype=float)
        dist = np.linalg.norm(self.centroids - x, axis=1)
        cand = np.nonzero(dist <= self.radii + 1e-9)[0]
        cand = cand[np.argsort(dist[cand], kind="stable")]
        for i in cand:
            if ref_polygon_contains(self.verts[i], x):
                return int(i)
        if len(cand):
            return int(cand[0])
        return int(np.argmin(dist))


class OldLookup:
    """CellMap's lookup before its cell index, kept as the reference: each
    point's distance to all centroids, 16 points at a time, with the same
    float operations as the lookup rule."""

    def __init__(self, cm):
        self.V = cm.vertices
        self.E = np.roll(cm.vertices, -1, axis=1) - cm.vertices
        self.cx, self.cy = np.ascontiguousarray(cm.centroids.T)
        self.reach = cm.radii + 1e-9

    def inside(self, idx, P):
        """Whether cell idx[r] contains P[r], for each row r."""
        V, E = self.V[idx], self.E[idx]
        cross = (E[..., 0] * (P[:, 1:] - V[..., 1])
                 - E[..., 1] * (P[:, :1] - V[..., 0]))
        return ~((cross > 1e-9).any(axis=1) & (cross < -1e-9).any(axis=1))

    def dist(self, P):
        dist = self.cx - P[:, :1]
        dist *= dist
        dy = self.cy - P[:, 1:]
        dy *= dy
        dist += dy
        return np.sqrt(dist, out=dist)

    def accepting(self, x):
        """Every candidate cell that contains the point x."""
        cand = np.flatnonzero(self.dist(x[None])[0] <= self.reach)
        return cand[self.inside(cand, np.broadcast_to(x, (len(cand), 2)))]

    def locate_many(self, X):
        out = np.empty(len(X), dtype=np.intp)
        for s in range(0, len(X), 16):
            P = X[s:s + 16]
            dist = self.dist(P)
            near = dist <= self.reach
            first = np.where(near, dist, np.inf).argmin(axis=1)
            some = near[np.arange(len(P)), first]
            first[~some] = dist[~some].argmin(axis=1)
            out[s:s + len(P)] = first
            for r in np.nonzero(some & ~self.inside(first, P))[0]:
                cand = np.nonzero(near[r])[0]
                hit = cand[self.inside(cand, np.broadcast_to(P[r], (len(cand), 2)))]
                if len(hit):
                    out[s + r] = hit[np.argmin(dist[r, hit])]
        return out


def one_step_obj(eps=0.2):
    """Criterion 14's map: the one-step laminate realized with eps 0.2."""
    m = synth.realize_finite_laminate(one_step_laminate(),
                                      synth.box((0.0, 0.0), (1.0, 1.0)), eps=eps)
    return map_obj(m)


def rotated_obj(obj, th=0.5, shift=(2.0, -1.0)):
    """The same cells moved by a rotation and a shift, domain frame included."""
    R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    out = json.loads(json.dumps(obj))
    dom = out["domain"]
    c0 = np.array(dom["center"])

    def move(p):
        return (R @ (np.asarray(p) - c0) + c0 + shift).tolist()

    dom["center"] = move(c0)
    dom["frame"] = (R @ np.array(dom["frame"])).tolist()
    for c in out["cells"]:
        c["region"]["vertices"] = [move(p) for p in c["region"]["vertices"]]
    return out


def rotated_roof_obj():
    """A roof with rotated gradients: CoverMap tiles and residual slivers."""
    th = 0.6
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    A1, A2 = np.diag([1.0, 1.0]) @ R, np.diag([-1.0, 1.0]) @ R
    m = synth.roof(0.35 * A1 + 0.65 * A2, (0.2, -0.1), A1, A2, 0.35,
                   synth.box((0.0, 0.0), (1.0, 1.0)), eps=0.5)
    return map_obj(m)


@lru_cache(maxsize=None)
def lookup_case(name):
    """(CellMap, RefCells) for one of LOOKUP_MAPS."""
    if name == "rotated_roof":
        obj = rotated_roof_obj()
    else:
        obj = one_step_obj()
    if name == "rotated_domain":
        obj = rotated_obj(obj)
    cm, ref = serialize.map_from_obj(obj), RefCells.from_obj(obj)
    if name == "swapped":
        cm, ref = cm.swap_components(), ref.swapped()
    return cm, ref


LOOKUP_MAPS = ["one_step", "swapped", "rotated_domain", "rotated_roof"]


POINT_KINDS = ["uniform", "outside", "vertex", "midpoint", "band", "near_vertex"]


def lookup_points(cm, kind, seed, k=30):
    rng = np.random.default_rng(seed)
    dom = cm.domain
    if kind == "uniform":
        return dom.interior_points(rng.random((k, 2)), margin=0.0)
    if kind == "outside":
        # up to 30 % of a half-width beyond one side: candidates, none containing
        z = rng.uniform(-1.3, 1.3, (k, 2))
        z[np.arange(k), rng.integers(2, size=k)] = (rng.choice([-1.0, 1.0], k)
                                                    * rng.uniform(1.0, 1.3, k))
        return dom.to_world_many(z * dom.half)
    i = rng.integers(len(cm.counts), size=k)
    j = rng.integers(cm.counts[i])
    v = cm.vertices[i, j]
    if kind == "vertex":
        return v
    if kind == "near_vertex":
        # 1e-12 to 1e-6 from a vertex, in any direction
        r = 10.0 ** rng.uniform(-12.0, -6.0, k)
        return v + r[:, None] * synth._directions(rng.uniform(0.0, 2.0 * math.pi, k))
    w = cm.vertices[i, (j + 1) % cm.counts[i]]
    if kind == "band":
        # on either side of an edge's line, cross products within 3e-9
        e = w - v
        off = rng.uniform(-3.0, 3.0, k) * 1e-9 / np.maximum((e * e).sum(axis=1), 1e-300)
        return (v + rng.uniform(-0.1, 1.1, k)[:, None] * e
                + off[:, None] * np.stack([-e[:, 1], e[:, 0]], axis=1))
    return (v + w) / 2.0


class TestCellMapArrays:
    @pytest.mark.parametrize("name", LOOKUP_MAPS)
    def test_geometry_bitwise(self, name):
        cm, ref = lookup_case(name)
        assert cm.centroids.tobytes() == ref.centroids.tobytes()
        assert cm.areas.tobytes() == ref.areas.tobytes()
        assert cm.radii.tobytes() == ref.radii.tobytes()
        assert cm.grad_bound().hex() == ref.grad_bound().hex()
        for i, n in enumerate(cm.counts):
            assert cm.vertices[i, :n].tobytes() == np.array(ref.verts[i]).tobytes()
            assert (cm.vertices[i, n:] == cm.vertices[i, n - 1]).all()
        assert cm.A.tobytes() == np.array(ref.mats).tobytes()
        assert cm.b.tobytes() == np.array(ref.offsets).tobytes()

    @pytest.mark.blas_kernels
    @pytest.mark.parametrize("name", LOOKUP_MAPS)
    def test_grad_bound_is_the_largest_frob(self, name):
        # one stacked pass over A against one frob call per cell; "one_step"
        # is criterion 14's map read back
        cm, _ = lookup_case(name)
        assert cm.grad_bound().hex() == max(map(frob, cm.A)).hex()

    @settings(max_examples=45, deadline=None)
    @given(st.sampled_from(LOOKUP_MAPS),
           st.sampled_from(POINT_KINDS),
           st.integers(0, 2 ** 32 - 1))
    def test_lookup_matches_pointwise(self, name, kind, seed):
        cm, ref = lookup_case(name)
        X = lookup_points(cm, kind, seed)
        assert cm._locate_many(X).tolist() == [ref.locate(x) for x in X]

    def test_nearest_containing_cell_wins(self):
        # x = (0.5, 0.7) lies on the edge of cells 0 and 1 of this tiling of
        # the unit square; cell 2's centroid is nearer, but 2 misses x, so
        # the lookup walks its candidates and must take cell 1, the nearer
        # of the two that contain x, not cell 0, the lower index
        cells = [[(0, 0), (0.5, 0), (0.5, 1), (0, 1)],
                 [(0.5, 0.68), (1, 0.6), (1, 1), (0.5, 1)],
                 [(0.5, 0.6), (1, 0.6), (0.5, 0.68)],
                 [(0.5, 0), (1, 0), (1, 0.6), (0.5, 0.6)]]
        obj = {"domain": {"center": [0.5, 0.5], "half": [0.5, 0.5],
                          "frame": [[1.0, 0.0], [0.0, 1.0]]},
               "boundary": {"A": serialize.matrix_to_obj(np.eye(2)),
                            "b": [0.0, 0.0]},
               "cells": [{"region": {"vertices": [list(map(float, p)) for p in c]},
                          "A": serialize.matrix_to_obj(np.eye(2) * (i + 1)),
                          "b": [0.0, 0.0], "flag": "good"}
                         for i, c in enumerate(cells)],
               "residual_volume": 0.0}
        cm, ref = serialize.map_from_obj(obj), RefCells.from_obj(obj)
        X = np.array([(0.5, 0.7), (0.75, 0.62), (0.25, 0.5), (1.1, 0.3)])
        assert [ref.locate(x) for x in X] == [1, 2, 0, 3]
        assert cm._locate_many(X).tolist() == [1, 2, 0, 3]

    def test_evaluation_reads_the_located_cell(self):
        cm, ref = lookup_case("rotated_domain")
        X = lookup_points(cm, "uniform", 5, k=200)
        idx = [ref.locate(x) for x in X]
        want = [ref.mats[i] @ x + ref.offsets[i] for i, x in zip(idx, X)]
        assert cm.evaluate_many(X).tobytes() == np.array(want).tobytes()
        assert cm.gradient_many(X).tobytes() == np.array(
            [ref.mats[i] for i in idx]).tobytes()


def unit_square_obj(cells):
    """A map on the unit square from vertex lists, cell i with gradient (i + 1) I."""
    return {"domain": {"center": [0.5, 0.5], "half": [0.5, 0.5],
                       "frame": [[1.0, 0.0], [0.0, 1.0]]},
            "boundary": {"A": serialize.matrix_to_obj(np.eye(2)), "b": [0.0, 0.0]},
            "cells": [{"region": {"vertices": [list(map(float, p)) for p in c]},
                       "A": serialize.matrix_to_obj(np.eye(2) * (i + 1)),
                       "b": [0.0, 0.0], "flag": "good"}
                      for i, c in enumerate(cells)],
            "residual_volume": 0.0}


def degenerate_obj():
    """The unit square cut into the cells criterion 14's map lacks: a cap of
    angle 1e-4 (0), a cap of angle 1e-12 (1), a pentagon with an edge of
    length 1e-8 (2) and a zero-area cell of three collinear points (3)."""
    t1 = math.tan(1e-4)
    t2 = t1 + 1e-12
    return unit_square_obj([[(0, 0), (1, 0), (1, t1)],
                            [(0, 0), (1, t1), (1, t2)],
                            [(0, 0), (1, t2), (1, 1), (0, 1), (0, 1 - 1e-8)],
                            [(0.2, 0), (0.5, 0), (0.8, 0)]])


def degenerate_points(cm, seed):
    """Every point kind, and points beyond the grid and not finite."""
    rng = np.random.default_rng(seed)
    far = np.array([[5.0, 0.5], [-1e6, 0.25], [0.5, 3e8], [-2.0, -2.0]])
    bad = np.array([[np.inf, 0.5], [0.5, -np.inf], [np.nan, 0.5], [np.nan, np.nan]])
    return np.concatenate([lookup_points(cm, kind, rng.integers(2 ** 32), k=200)
                           for kind in POINT_KINDS] + [far, bad])


class Recorder:
    """A CellMap for verify_map that keeps the points it is asked about."""

    def __init__(self, cm):
        self.cm, self.domain, self.boundary_affine = cm, cm.domain, cm.boundary_affine
        self.points = []

    def grad_bound(self):
        return self.cm.grad_bound()

    def evaluate_many(self, X):
        self.points.append(np.array(X))
        return self.cm.evaluate_many(X)

    def gradient_many(self, X):
        self.points.append(np.array(X))
        return self.cm.gradient_many(X)


@pytest.mark.blas_kernels
class TestCellIndex:
    @pytest.mark.parametrize("name", LOOKUP_MAPS)
    def test_matches_old_lookup(self, name):
        cm, _ = lookup_case(name)
        X = np.concatenate([lookup_points(cm, kind, 11, k=400) for kind in POINT_KINDS])
        assert cm._locate_many(X).tolist() == OldLookup(cm).locate_many(X).tolist()

    @pytest.mark.parametrize("samples", [2000, 100_000])
    def test_matches_old_lookup_on_verify_samples(self, samples):
        cm, _ = lookup_case("one_step")
        rec = Recorder(cm)
        synth.verify_map(rec, sample_budget=samples)
        old = OldLookup(cm)
        assert sum(map(len, rec.points)) >= samples
        for X in rec.points:
            assert np.array_equal(cm._locate_many(X), old.locate_many(X))

    @pytest.mark.parametrize("name", LOOKUP_MAPS + ["degenerate"])
    def test_every_accepting_cell_is_binned(self, name):
        # the index's invariant: a candidate that contains a point lies in
        # the point's bin, and its box holds the point's domain coordinates
        if name == "degenerate":
            cm = serialize.map_from_obj(degenerate_obj())
        else:
            cm, _ = lookup_case(name)
        X = np.concatenate([lookup_points(cm, kind, 3, k=150)
                            for kind in ("uniform", "vertex", "band", "near_vertex")])
        cm._locate_many(X[:1])
        indptr, cells = cm._index
        lo, hi = cm._cell_boxes(slice(None))
        Z = cm.domain.to_local_many(X)
        B = cm._bins(Z).astype(int)
        old = OldLookup(cm)
        pairs = 0
        for x, z, (c, r) in zip(X, Z, B):
            acc = old.accepting(x)
            pairs += len(acc)
            binned = cells[indptr[r * serialize._GRID + c]:indptr[r * serialize._GRID + c + 1]]
            assert np.isin(acc, binned).all()
            assert ((lo[acc] <= z) & (z <= hi[acc])).all()
        assert pairs >= len(X)

    def test_degenerate_cells(self):
        cm = serialize.map_from_obj(degenerate_obj())
        ref = RefCells.from_obj(degenerate_obj())
        lo, hi = cm._cell_boxes(slice(None))
        o = cm.domain.to_local_many(cm.centroids)
        # every box holds its cell and lies in its reach disk's box
        for i, n in enumerate(cm.counts):
            z = cm.domain.to_local_many(cm.vertices[i, :n])
            assert ((lo[i] <= z) & (z <= hi[i])).all()
            assert ((o[i] - cm._reach[i] * 1.001 <= lo[i])
                    & (hi[i] <= o[i] + cm._reach[i] * 1.001)).all()
        # the 1e-4 cap is bounded through its two long edges; the 1e-12
        # cap's long edges are too near parallel to bound it that tightly;
        # the zero-area cell's edges are parallel and bound nothing, so its
        # box is the disk's
        assert (hi - lo)[0, 1] < 1e-3 < (hi - lo)[1, 1]
        assert np.allclose(hi[3] - lo[3], 2.0 * cm._reach[3], rtol=1e-9, atol=0.0)
        X = degenerate_points(cm, 8)
        got = cm._locate_many(X)
        with np.errstate(invalid="ignore"):   # the old lookup's 0 * inf
            assert got.tolist() == OldLookup(cm).locate_many(X).tolist()
        fin = np.isfinite(X).all(axis=1)
        assert got[fin].tolist() == [ref.locate(x) for x in X[fin]]

    def test_residual_slivers_take_the_full_scan(self, monkeypatch):
        cm, ref = lookup_case("rotated_roof")
        X = lookup_points(cm, "uniform", 21, k=600)
        old = OldLookup(cm)
        sliver = np.array([len(old.accepting(x)) == 0 for x in X])
        assert sliver.sum() >= 20     # residual_volume is 0.17 of the domain
        scanned = []
        full_scan = serialize.CellMap._full_scan

        def spy(self, P):
            scanned.extend(map(tuple, P.tolist()))
            return full_scan(self, P)
        monkeypatch.setattr(serialize.CellMap, "_full_scan", spy)
        assert cm._locate_many(X).tolist() == [ref.locate(x) for x in X]
        assert sorted(scanned) == sorted(map(tuple, X[sliver].tolist()))

    def test_index_is_lazy(self):
        cm = serialize.map_from_obj(one_step_obj())
        sw = cm.swap_components()
        cm.gradient_distribution()
        cm.volumes_by_flag()
        assert cm._index is None and sw._index is None
        cm.evaluate_many(lookup_points(cm, "uniform", 1))
        assert cm._index is not None and sw._index is None

    def test_commands_without_lookups_build_no_index(self, tmp_path, monkeypatch):
        from lamstair.cli import main
        serialize.dump_json(one_step_obj(), tmp_path / "map.json")

        def refuse(self):
            raise AssertionError("index built")
        monkeypatch.setattr(serialize.CellMap, "_build_index", refuse)
        assert main(["report", "dist", "--map", str(tmp_path / "map.json"),
                     "--sets", "L1,L2", "--out", str(tmp_path / "dist.csv")]) == 0
        assert main(["models", "duality", "--in", str(tmp_path / "map.json"),
                     "--p", "1.5", "--out", str(tmp_path / "map2.json")]) == 0

    def test_index_is_selective(self):
        # criterion 14's map: 3,896 cells, about 32 a bin
        cm, _ = lookup_case("one_step")
        cm._locate_many(cm.centroids[:1])
        per_bin = np.diff(cm._index[0])
        assert per_bin.mean() < 36 and per_bin.max() < 56

    @pytest.mark.xfail(strict=True, reason="the lookup's 1e-9 band takes a point "
                       "across the interface of cells 3048 and 3049")
    def test_read_back_map_is_continuous_at_sample_130796(self):
        # verify_map's continuity points x + h d, x - h d and x at interior
        # sample 130,796 of --samples 1000000 on criterion 14's map.  All
        # three lie in cell 3048 (gradient diag(0.5, 2)).  On the edge that
        # 3048 shares with 3049 (diag(4, 2)) x + h d has cross product
        # -9.1e-10, inside the 1e-9 band, so 3049 accepts it too and wins on
        # centroid distance; x - h d and x read -1.27e-9 and -1.09e-9, which
        # 3049 rejects.  h = 2.58e-10 is below the band's width, so the
        # second difference is |dA| * 1e-9 / (2 h) = 6.18 instead of ~0.
        cm, _ = lookup_case("one_step")
        X = np.array([[0.2170724561787425, 0.9158171770752112],
                      [0.21707245654098406, 0.9158171774439169],
                      [0.21707245635986328, 0.915817177259564]])
        h = 2.5843903989282443e-10
        e = cm.evaluate_many(X)
        assert np.abs(e[0] + e[1] - 2.0 * e[2]).max() / (2.0 * h) < 1e-3


class TestMalformedMaps:
    @pytest.fixture(scope="class")
    def obj(self):
        return one_step_obj()

    def edited(self, obj, edit):
        bad = json.loads(json.dumps(obj))
        edit(bad)
        return bad

    @pytest.mark.parametrize("field, value", [
        ("vertex", [float("nan"), 0.5]), ("vertex", [0.5, float("inf")]),
        ("vertex", [0.5, 0.5, 0.5]), ("vertex", "0.5"), ("vertex", None),
        ("b", [float("nan"), 0.0]), ("b", [1.0]), ("b", [1.0, "x"]),
    ])
    def test_bad_vector_names_the_cell(self, obj, field, value):
        def edit(bad):
            c = bad["cells"][17]
            if field == "vertex":
                c["region"]["vertices"][1] = value
            else:
                c["b"] = value
        with pytest.raises(ParseError, match=r"map\.cells\[17\]"):
            serialize.map_from_obj(self.edited(obj, edit))

    def test_bad_boundary_offset(self, obj):
        def edit(bad):
            bad["boundary"]["b"] = [0.0, float("nan")]
        with pytest.raises(ParseError, match="boundary.b"):
            serialize.map_from_obj(self.edited(obj, edit))

    def test_non_square_gradient(self, obj):
        def edit(bad):
            bad["cells"][3]["A"] = serialize.matrix_to_obj(np.ones((2, 3)))
        with pytest.raises(ParseError, match=r"cells\[3\]\.A"):
            serialize.map_from_obj(self.edited(obj, edit))

    def test_overflowing_gradient_is_precondition(self, obj):
        def edit(bad):
            bad["cells"][9]["A"]["entries"][0][0] = 1e308
        with pytest.raises(PreconditionError, match=r"cells\[9\]\.A"):
            serialize.map_from_obj(self.edited(obj, edit))

    def test_vertex_outside_domain(self, obj):
        def edit(bad):
            for p in bad["cells"][5]["region"]["vertices"]:
                p[0] += 3.0
        with pytest.raises(ParseError, match=r"cells\[5\]: vertex outside"):
            serialize.map_from_obj(self.edited(obj, edit))

    def test_half_the_cells_deleted(self, obj):
        def edit(bad):
            del bad["cells"][::2]
        with pytest.raises(ParseError, match="residual_volume"):
            serialize.map_from_obj(self.edited(obj, edit))

    @pytest.mark.parametrize("resid", [0.01, float("nan"), -0.01])
    def test_residual_volume_must_balance(self, obj, resid):
        def edit(bad):
            bad["residual_volume"] = resid
        with pytest.raises(ParseError, match="residual_volume"):
            serialize.map_from_obj(self.edited(obj, edit))

    @pytest.mark.parametrize("cells", [[], {}, 3])
    def test_cells_must_be_a_non_empty_list(self, obj, cells):
        def edit(bad):
            bad["cells"] = cells
        with pytest.raises(ParseError, match="non-empty list"):
            serialize.map_from_obj(self.edited(obj, edit))

    def test_intact_map_loads(self, obj):
        cm = serialize.map_from_obj(obj)
        assert len(cm.counts) == 3896
        assert abs(cm.areas.sum() - cm.domain.volume) <= 1e-13


# ---------------------------------------------------------------------------
# dump_map: the map object it replaced, kept as the reference for its bytes


def ref_cells(m, max_cells: int):
    """The realized map m's cells as the list of (vertices, A, b, flag) that
    PiecewiseAffineMap.cells() built before it returned a CellMap; reference
    only.  Each b is taken cell by cell at its centroid, the vertex mean of
    one vertex-count group at a time."""
    rows = []
    synth._drive(m.root._cells(rows, np.zeros(2), 1.0, max_cells))
    counts = np.array([len(v) for v, _, _ in rows])
    centroids = np.empty((len(rows), 2))
    for n in set(counts.tolist()):
        g = np.nonzero(counts == n)[0]
        centroids[g] = np.array([rows[i][0] for i in g.tolist()]).mean(axis=1)
    return [(v, A, y - A @ x, f)
            for (v, A, f), x, y in zip(rows, centroids, m.evaluate_many(centroids))]


def ref_cell_arrays(m, max_cells: int):
    """(vertices, counts, A, b, flags) stacked from ref_cells as the writer
    stacked them before it took a CellMap; reference only."""
    cells = ref_cells(m, max_cells)
    V, counts = serialize._padded([v for v, _, _, _ in cells])
    return (V, counts, np.array([A for _, A, _, _ in cells], dtype=float),
            np.array([b for _, _, b, _ in cells], dtype=float),
            ["good" if f == synth.GOOD else "error" for _, _, _, f in cells])


def ref_map_to_obj(m, max_cells: int = 200_000) -> dict:
    A, b = m.boundary_affine
    if isinstance(m, serialize.CellMap):
        cells = [{"region": {"vertices": v[:n]},
                  "A": {"rows": 2, "cols": 2, "entries": a},
                  "b": c, "flag": f}
                 for v, n, a, c, f in zip(m.vertices.tolist(), m.counts.tolist(),
                                          m.A.tolist(), m.b.tolist(), m.flags)]
    else:
        # non-realized roles (inductive slots, cover residuals) are all error
        # cells from the consumer's point of view
        cells = [{"region": {"vertices": [[float(v) for v in p] for p in verts]},
                  "A": serialize.matrix_to_obj(G),
                  "b": [float(v) for v in off],
                  "flag": "good" if flag == synth.GOOD else "error"}
                 for verts, G, off, flag in ref_cells(m, max_cells)]
    return {"domain": serialize._domain_to_obj(m.domain),
            "boundary": {"A": serialize.matrix_to_obj(A),
                         "b": [float(v) for v in b]},
            "cells": cells,
            "residual_volume": float(m.residual_volume)}


def ref_dump(m, max_cells: int = 200_000) -> bytes:
    text = json.dumps(ref_map_to_obj(m, max_cells), sort_keys=True, indent=2)
    return (text + "\n").encode("ascii")


def ref_gradient_distribution(cm):
    vol = cm.domain.volume
    return DiscreteMeasure([Atom(a / vol, G) for G, a in zip(cm.A, cm.areas)
                            if a > 0.0])


def small_maps(name):
    """Maps of the kinds of test_synth's fixed maps, small enough for the
    reference: a rotated roof (CoverMap), a thin box (GridCover) and a
    swapped roof."""
    import test_synth
    if name == "rotated_roof":
        return test_synth.rotated_roof(0.5)
    if name == "grid_cover":
        return synth.realize_finite_laminate(
            one_step_laminate(), synth.box((0.0, 0.0), (3.0, 0.5)), eps=0.5)
    return test_synth.rotated_roof(0.5).swap_components()


def direct_cell_map(counts, values, flags, pad):
    """A CellMap built from arrays, not read from JSON: cell i has counts[i]
    vertices, its padding is pad, and every vertex, gradient and offset
    entry is drawn from values in turn."""
    k, n_max = len(counts), max(counts)
    vals = np.resize(np.array(values, dtype=float), k * (2 * n_max + 6))
    V = vals[:2 * k * n_max].reshape(k, n_max, 2).copy()
    for i, n in enumerate(counts):
        V[i, n:] = pad
    A = vals[2 * k * n_max:2 * k * n_max + 4 * k].reshape(k, 2, 2)
    b = vals[2 * k * n_max + 4 * k:].reshape(k, 2)
    with np.errstate(all="ignore"):
        return serialize.CellMap(synth.box((0.0, 0.0), (1.0, 1.0)),
                                 (np.diag([2.0, -0.5]), np.array([0.1, -3.0])),
                                 V, np.array(counts), A, b, flags, 0.25)


def cells_case(name):
    """Criterion 14's map, a rotated roof (CoverMap), a swapped roof and the
    one-step laminate on a 3 x 0.5 box (GridCover)."""
    import test_synth
    if name == "one_step":
        return synth.realize_finite_laminate(test_synth.one_step_laminate(),
                                             test_synth.UNIT, eps=0.2)
    if name == "rotated_roof":
        return test_synth.rotated_roof(0.3)
    if name == "swapped_roof":
        return test_synth.criterion_06_roof(0.3).swap_components()
    return synth.realize_finite_laminate(test_synth.one_step_laminate(),
                                         synth.box((0.0, 0.0), (3.0, 0.5)), eps=0.2)


CELL_COUNTS = {"one_step": 3896, "rotated_roof": 21904, "swapped_roof": 444,
               "thin_laminate": 23376}


class TestCells:
    @pytest.mark.parametrize("name", sorted(CELL_COUNTS))
    def test_cells_are_the_map_read_back(self, name):
        m = cells_case(name)
        cm = m.cells(25_000)
        assert isinstance(cm, serialize.CellMap)
        assert len(cm.counts) == CELL_COUNTS[name]
        back = serialize.map_from_obj(json.loads("".join(serialize._map_chunks(cm))))
        for key in ("vertices", "counts", "A", "b", "centroids", "areas", "radii"):
            assert getattr(cm, key).dtype == getattr(back, key).dtype, key
            assert getattr(cm, key).tobytes() == getattr(back, key).tobytes(), key
        assert cm.flags == back.flags
        assert cm.residual_volume.hex() == back.residual_volume.hex()
        assert cm.residual_volume.hex() == float(m.residual_volume).hex()
        # the cell list and stacking that cells() replaced give the same arrays
        V, counts, A, b, flags = ref_cell_arrays(m, 25_000)
        assert cm.vertices.tobytes() == V.tobytes()
        assert cm.counts.tobytes() == counts.tobytes()
        assert cm.A.tobytes() == A.tobytes()
        assert cm.b.tobytes() == b.tobytes()
        assert list(cm.flags) == flags


WEIRD = [0.0, -0.0, 1.0, -1.5, 0.1, 1e16, -1e-300, 5e-324, 1.7976931348623157e308,
         float("nan"), float("inf"), float("-inf"), 123456.789, 2.0 ** 60]


class TestDumpMap:
    @pytest.mark.parametrize("name", ["rotated_roof", "grid_cover", "swapped"])
    def test_tree_maps_match_reference(self, name, tmp_path):
        m = small_maps(name)
        p = tmp_path / "map.json"
        serialize.dump_map(m.cells(200_000), p)
        assert p.read_bytes() == ref_dump(m)

    def test_cell_map_matches_reference(self, tmp_path):
        # criterion 14's map read back: 3,896 cells of 3 and 4 vertices,
        # so several blocks of the writer
        from test_synth import fixed_map
        cm = fixed_map("cell_map")
        assert len(cm.counts) > 2 * serialize._BLOCK
        assert set(cm.counts.tolist()) == {3, 4}
        for m in (cm, cm.swap_components()):
            p = tmp_path / "map.json"
            serialize.dump_map(m, p)
            assert p.read_bytes() == ref_dump(m)

    @pytest.mark.parametrize("name", ["rotated_roof", "grid_staircase", "swapped"])
    def test_budget_overflow_matches_reference(self, name, tmp_path):
        from test_synth import fixed_map
        m = fixed_map(name)
        with pytest.raises(UnsupportedError) as want:
            ref_map_to_obj(m, max_cells=1000)
        p = tmp_path / "map.json"
        with pytest.raises(UnsupportedError) as got:
            serialize.dump_map(m.cells(1000), p)
        assert str(got.value) == str(want.value)
        assert not p.exists()

    def test_non_finite_gradient_leaves_no_file(self, realized, tmp_path,
                                                monkeypatch):
        # the cell walk gives the eighth cell a NaN gradient
        emit = synth._emit_cell

        def nan_eighth(out, limit, verts, A, flag):
            emit(out, limit, verts, np.full((2, 2), np.nan) if len(out) == 7 else A,
                 flag)

        monkeypatch.setattr(synth, "_emit_cell", nan_eighth)
        with pytest.raises(PreconditionError, match="non-finite") as want:
            ref_map_to_obj(realized)
        p = tmp_path / "map.json"
        with pytest.raises(PreconditionError) as got:
            serialize.dump_map(realized.cells(), p)
        assert str(got.value) == str(want.value)
        assert not p.exists()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(3, 7), min_size=1, max_size=12),
           st.lists(st.one_of(st.sampled_from(WEIRD), st.floats()), min_size=1,
                    max_size=40),
           st.lists(st.sampled_from(["good", "error", "résidu", 'q"uote%s']),
                    min_size=12, max_size=12),
           st.sampled_from([float("nan"), 1e300, -0.0]))
    def test_direct_cell_maps_match_reference(self, counts, values, flags, pad):
        # mixed vertex counts, garbage padding, NaN and +-inf entries (a
        # CellMap checks none of these; the reference writes them as json does)
        cm = direct_cell_map(counts, values, flags[:len(counts)], pad)
        assert "".join(serialize._map_chunks(cm)).encode("ascii") == ref_dump(cm)

    def test_more_cells_than_a_block(self):
        counts = [3 + (i * 7) % 5 for i in range(2 * serialize._BLOCK + 3)]
        flags = ["good", "error", "error"] * len(counts)
        cm = direct_cell_map(counts, WEIRD, flags[:len(counts)], 0.5)
        assert "".join(serialize._map_chunks(cm)).encode("ascii") == ref_dump(cm)

    @pytest.mark.parametrize("case", ["one_step", "swapped", "rotated_roof",
                                      "direct"])
    def test_gradient_distribution_matches_list_built(self, case):
        if case == "direct":
            # small triangles in a box of volume 2.1, every 17th of area zero, and
            # gradients from a small set for merges next to distinct ones
            rng = np.random.default_rng(5)
            k = 200
            V = rng.random((k, 1, 2)) * [3.0, 0.7] + 0.05 * rng.random((k, 3, 2))
            V[::17] = V[::17, :1]
            A = rng.integers(-1, 2, (k, 2, 2)) / 3.0
            A[::2] = rng.normal(size=(k // 2, 2, 2))
            cm = serialize.CellMap(synth.box((0.0, 0.0), (3.0, 0.7)),
                                   (np.eye(2), np.zeros(2)), V, np.full(k, 3), A,
                                   np.zeros((k, 2)), ["good"] * k, 0.0)
        else:
            cm, _ = lookup_case(case)
        got, resid = cm.gradient_distribution()
        want = ref_gradient_distribution(cm)
        assert resid == cm.residual_volume
        assert len(got) == len(want) and got.certificate is None
        for a, b in zip(got.atoms, want.atoms):
            assert float(a.weight).hex() == float(b.weight).hex()
            assert a.point.tobytes() == b.point.tobytes()
        assert float(got.mass).hex() == float(want.mass).hex()
