"""JSON and CSV serialization for matrices, measures, tail reports and maps.

All writers are deterministic: keys are sorted, floats go through ``repr``
(shortest round-trip form), and CSV uses '.' decimals regardless of locale,
so repeated runs with identical inputs produce byte-identical artifacts.

Small objects (matrices, measures, reports) go through ``json.dump`` with
``indent=2``.  Maps, whose cell lists run to megabytes, are held as a
``CellMap`` both ways: ``PiecewiseAffineMap.cells()`` builds one from a
realized map, ``map_from_obj`` reads one back, and ``dump_map`` writes one
from its arrays, streaming the cells in blocks through one %-template per
vertex count, byte-equal to what ``json.dump`` would write for the map's
object.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from .boxes import OBox
from .errors import ParseError, PreconditionError
from .matrices import _dots, asmatrix, frob
from .measures import (Atom, DiscreteMeasure, SplittingStep, TailReport,
                       Weight)

__all__ = [
    "matrix_to_obj", "matrix_from_obj", "measure_to_obj", "measure_from_obj",
    "map_from_obj", "CellMap", "tail_report_csv",
    "dump_json", "dump_map", "load_json", "parse_matrix_arg",
]


# --- plain JSON plumbing ---------------------------------------------------------


def dump_json(obj, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror}") from exc


def _require(obj, key, path="object"):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"{path}: missing key {key!r}")
    return obj[key]


# --- matrices --------------------------------------------------------------------


def matrix_to_obj(M) -> dict:
    M = asmatrix(M)
    return {"rows": M.shape[0], "cols": M.shape[1],
            "entries": [[float(v) for v in row] for row in M]}


def matrix_from_obj(obj, path="matrix") -> np.ndarray:
    rows = _require(obj, "rows", path)
    cols = _require(obj, "cols", path)
    entries = _require(obj, "entries", path)
    if not (isinstance(rows, int) and isinstance(cols, int)
            and rows > 0 and cols > 0):
        raise ParseError(f"{path}: rows/cols must be positive integers")
    if (not isinstance(entries, list) or len(entries) != rows
            or any(not isinstance(r, list) or len(r) != cols for r in entries)):
        raise ParseError(f"{path}: entries must be a {rows}x{cols} nested list")
    try:
        M = np.array(entries, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: non-numeric entry ({exc})") from exc
    if not np.isfinite(M).all():
        raise ParseError(f"{path}: entries must be finite")
    return _check_norm(M, path)


def _check_norm(M: np.ndarray, path) -> np.ndarray:
    """M, once its Frobenius norm is known to be finite.  Entries past about
    1.3e154 overflow |M|, and every tolerance tol * (1 + |M|) then accepts
    anything, so such a matrix is a precondition violation."""
    with np.errstate(over="ignore"):
        if not math.isfinite(frob(M)):
            raise PreconditionError(f"{path}: Frobenius norm overflows")
    return M


def parse_matrix_arg(text: str) -> np.ndarray:
    """Matrix flag value: either diag(a,b,...) inline or a matrix JSON path."""
    text = text.strip()
    if text.startswith("diag(") and text.endswith(")"):
        try:
            vals = [float(v) for v in text[5:-1].split(",")]
        except ValueError as exc:
            raise ParseError(f"bad diagonal entries in {text!r}") from exc
        if not np.isfinite(vals).all():
            raise ParseError(f"non-finite diagonal entry in {text!r}")
        return _check_norm(np.diag(vals), text)
    return matrix_from_obj(load_json(text), path=text)


# --- weights (floats or exact rationals) -----------------------------------------


def _weight_to_obj(w: Weight):
    if isinstance(w, Fraction):
        if w.denominator == 1:
            return int(w)
        return f"{w.numerator}/{w.denominator}"
    return float(w)


def _weight_from_obj(v, path="weight") -> Weight:
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{path}: bad rational {v!r}") from exc
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ParseError(f"{path}: weight must be a number or 'p/q'")
    if isinstance(v, int):
        return Fraction(v)
    if not np.isfinite(v):
        raise ParseError(f"{path}: weight must be finite")
    return float(v)


# --- measures --------------------------------------------------------------------


def measure_to_obj(nu: DiscreteMeasure) -> dict:
    obj = {"atoms": [{"w": _weight_to_obj(a.weight),
                      "M": matrix_to_obj(a.point)} for a in nu.atoms]}
    if nu.certificate:
        obj["certificate"] = [
            {"target": matrix_to_obj(s.target), "left": matrix_to_obj(s.left),
             "right": matrix_to_obj(s.right), "lam": _weight_to_obj(s.lam)}
            for s in nu.certificate]
    return obj


def _require_list(obj, key, path):
    v = _require(obj, key, path)
    if not isinstance(v, list):
        raise ParseError(f"{path}.{key}: expected a list, got {type(v).__name__}")
    return v


def measure_from_obj(obj, path="measure") -> DiscreteMeasure:
    atoms = []
    for i, a in enumerate(_require_list(obj, "atoms", path)):
        w = _weight_from_obj(_require(a, "w", f"{path}.atoms[{i}]"),
                             f"{path}.atoms[{i}].w")
        M = matrix_from_obj(_require(a, "M", f"{path}.atoms[{i}]"),
                            f"{path}.atoms[{i}].M")
        if atoms and M.shape != atoms[0].point.shape:
            raise ParseError(f"{path}.atoms[{i}].M: shape {M.shape} differs from "
                             f"{path}.atoms[0].M's {atoms[0].point.shape}")
        try:
            atoms.append(Atom(w, M))
        except OverflowError as exc:  # an exact weight beyond the float range
            raise ParseError(f"{path}.atoms[{i}].w: weight too large for a float") from exc
    cert = None
    if "certificate" in obj:
        cert = []
        for i, s in enumerate(_require_list(obj, "certificate", path)):
            where = f"{path}.certificate[{i}]"
            lam = _weight_from_obj(_require(s, "lam", where), f"{where}.lam")
            try:
                float(lam)
            except OverflowError as exc:  # an exact fraction beyond the float range
                raise ParseError(f"{where}.lam: split fraction too large for a float") from exc
            cert.append(SplittingStep(
                matrix_from_obj(_require(s, "target", where), where),
                matrix_from_obj(_require(s, "left", where), where),
                matrix_from_obj(_require(s, "right", where), where),
                lam))
    try:
        return DiscreteMeasure(atoms, cert)
    except PreconditionError:
        raise
    except Exception as exc:  # malformed weights slipping past schema checks
        raise ParseError(f"{path}: {exc}") from exc


# --- tail reports ----------------------------------------------------------------


def tail_report_csv(rep: TailReport) -> str:
    return "\n".join(rep.csv_lines()) + "\n"


# --- maps ------------------------------------------------------------------------


def _domain_to_obj(dom: OBox) -> dict:
    return {"center": [float(v) for v in dom.center],
            "half": [float(v) for v in dom.half],
            "frame": [[float(v) for v in row] for row in dom.frame]}


def _domain_from_obj(obj, path="domain") -> OBox:
    try:
        return OBox(_require(obj, "center", path), _require(obj, "half", path),
                    _require(obj, "frame", path))
    except PreconditionError:
        raise
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _matrix2(obj, path) -> np.ndarray:
    M = matrix_from_obj(obj, path)
    if M.shape != (2, 2):
        raise ParseError(f"{path}: must be a 2x2 matrix")
    return M


def _vector2(v, path) -> np.ndarray:
    try:
        x = np.asarray(v, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if x.shape != (2,) or not np.isfinite(x).all():
        raise ParseError(f"{path}: must be a finite 2-vector")
    return x


_P_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
_EDGE_TOL = 1e-9      # cross products this small put a point on an edge's line
_LOOKUP_BLOCK = 16    # query points per block of the full scan: (16, k) distances
_INDEX_BLOCK = 512    # query points per block of the indexed lookup
_GRID = 64            # bins per side of the cell index
_PAD = 2.0 ** -40     # relative pad of the cell boxes, 8192 unit roundoffs


def _pair_bins(b0: np.ndarray, b1: np.ndarray):
    """(c, bins): for boxes spanning the bins b0 to b1 (rows of column, row),
    each (box, bin) pair's box number and bin, boxes in order."""
    nx = b1[:, 0] - b0[:, 0] + 1
    cnt = nx * (b1[:, 1] - b0[:, 1] + 1)
    c = np.repeat(np.arange(len(cnt)), cnt)
    r = np.arange(len(c)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    return c, (r // nx[c] + b0[c, 1]) * _GRID + r % nx[c] + b0[c, 0]


def _starts(p: np.ndarray) -> np.ndarray:
    """Whether each entry of the sorted array p differs from the one before."""
    new = np.empty(len(p), dtype=bool)
    new[:1] = True
    np.not_equal(p[1:], p[:-1], out=new[1:])
    return new


def _nearest(pt: np.ndarray, dist: np.ndarray, sel: np.ndarray):
    """(points, pairs): for each point with a selected pair, the selected
    pair of least dist, the first on ties.  A point's pairs are consecutive,
    in ascending cell order."""
    h = np.flatnonzero(sel)
    hd = dist[h]
    new = _starts(pt[h])
    least = np.minimum.reduceat(hd, np.flatnonzero(new))
    h = h[hd == least[np.cumsum(new) - 1]]
    hp = pt[h]
    new = _starts(hp)
    return hp[new], h[new]


class CellMap:
    """A map as its cell list, held as arrays: what
    ``PiecewiseAffineMap.cells()`` returns, ``dump_map`` writes and
    ``map_from_obj`` reads back.

    For k cells with at most n_max vertices:

      vertices  (k, n_max, 2)  each cell's counts[i] vertices in order, padded
                               by repeating the last one; the padded edges
                               have length zero, so the containment test
                               skips them as it skips any edge it lies on
      counts    (k,)           vertex count per cell
      A, b      (k, 2, 2), (k, 2)  the affine piece x -> A[i] x + b[i]
      flags     k strings, "good" or "error"
      centroids, areas, radii  vertex mean, shoelace area and largest vertex
                               distance from the centroid, computed once per
                               vertex-count group with the per-cell float
                               operations of np.mean, np.dot and
                               np.linalg.norm

    Lookup.  Cell i is a candidate for a point x when |x - centroids[i]| <=
    radii[i] + 1e-9.  x belongs to the first candidate, in order of centroid
    distance with ties to the lower index, that contains it: every edge cross
    product larger than 1e-9 in modulus has one sign.  A point that no
    candidate contains (a booked residual sliver, or roundoff at an edge)
    belongs to the nearest candidate, and a point with no candidate (off the
    domain) to the nearest centroid.  Cell sizes vary over many scales, so
    a fixed number of nearest centroids would not do.  The affine piece is
    exact away from the residual slivers: enough for sampled verification
    and for the gradient-distribution and duality consumers.

    The cell index.  The first lookup bins the cells on a 64 x 64 grid over
    the domain, in its frame, and keeps the bins as CSR arrays (``_index``);
    loading or swapping a map builds none.  Each cell goes into every bin
    its box meets: a box in the domain frame that holds every point of the
    cell's reach disk that the containment test accepts (``_cell_boxes``).
    So every candidate that contains a point is in the point's bin, and the
    rule's answer is the nearest of the bin's candidates that contain it,
    lower index on ties.  The lookup takes the same float distances and
    cross products as the rule, on the bin's cells only: the point's nearest
    candidate there is tested first (it contains about 19 points in 20 on
    criterion 14's map), and only a point it misses tests all of them.  A
    point that none of them contains, or that is not finite, takes the full
    scan: its distance to every centroid, 16 points at a time, and the
    nearest candidate, else the nearest centroid.  Points outside the grid
    are binned in its edge bins, which hold every cell whose box reaches
    past the edge.  Queries go in blocks of 512 points, so the lookup's
    temporaries stay below 2 MB whatever the number of points.
    """

    def __init__(self, domain: OBox, boundary, vertices: np.ndarray,
                 counts: np.ndarray, A: np.ndarray, b: np.ndarray, flags,
                 residual_volume: float):
        self.domain = domain
        self.boundary_affine = boundary
        self.vertices, self.counts, self.A, self.b = vertices, counts, A, b
        self.flags = tuple(flags)
        self.residual_volume = float(residual_volume)
        k = len(counts)
        self.centroids = np.empty((k, 2))
        self.areas, self.radii = np.empty(k), np.empty(k)
        for n in np.flatnonzero(np.bincount(counts)).tolist():   # np.unique imports numpy.ma
            g = np.nonzero(counts == n)[0]
            V = vertices[g, :n]
            ctr = V.mean(axis=1)
            # strided views like a cell's v[:, 0]: the dot kernel's
            # summation order depends on the stride
            x, y = V[..., 0], V[..., 1]
            self.areas[g] = 0.5 * np.abs(_dots(x, np.roll(y, -1, axis=1))
                                         - _dots(y, np.roll(x, -1, axis=1)))
            d = V - ctr[:, None, :]
            self.radii[g] = np.sqrt(_dots(d, d)).max(axis=1)
            self.centroids[g] = ctr
        self._cx, self._cy = np.ascontiguousarray(self.centroids.T)
        self._reach = self.radii + 1e-9
        self._edges = np.roll(vertices, -1, axis=1) - vertices
        self._index = None

    def _local(self, X: np.ndarray) -> np.ndarray:
        """Coordinates of the rows of X in the domain frame."""
        return (X - self.domain.center) @ self.domain.frame

    def _bins(self, Z: np.ndarray) -> np.ndarray:
        """Grid column and row of the domain-frame rows Z, clamped to the
        grid; NaN where Z is not finite.  Monotone in each coordinate, so a
        point in a box is in a bin between those of the box's corners."""
        h = self.domain.half
        return np.clip(np.floor((Z + h) / (2.0 * h / _GRID)), 0, _GRID - 1)

    def _cell_boxes(self, g: slice):
        """(lo, hi), each (len, 2): for each cell of the slice g a box in the
        domain frame that holds every point x within the cell's reach that
        the containment test accepts, or lo > hi where it accepts none.

        The test accepts x when s * cross_j(x) >= -1e-9 for every edge j, for
        s = 1 or for s = -1.  For each s this is a polygon: each edge's line
        shifted out by 1e-9 / |e_j|; zero-length edges drop out.  Its extent
        in a unit direction d is bounded through any two edges j, m and
        multipliers lam_j, lam_m >= 0 that solve lam_j a_j + lam_m a_m = -d
        for the constraint normals a: adding the two constraints bounds d.x
        (weak duality).  The least bound over the pairs is the extent of the
        polygon where it is bounded, reached at a feasible pairwise
        intersection of the shifted lines.  Each bound also carries the
        residual of the computed multipliers times the reach, and a pad of
        2^-40 times (lam * (|e| * reach + tolerance) + reach): more than the
        rounding of the bound itself, as 2^-40 * |e| * reach added to each
        line's tolerance is more than the rounding of its cross products.  So a near-parallel pair gives a large bound, and
        a pair that solves nothing (parallel edges, a zero-area cell) none.
        Each extent is capped by the reach disk's (radius times 1 + 2^-40,
        which covers the rounding of the distance), and the box is padded by
        2^-40 times the centroid's domain-frame coordinates plus the reach,
        which covers the rounding of the frame change of cell and point."""
        E, F = self._edges[g], self.domain.frame
        k, n = E.shape[:2]
        reach = self._reach[g] * (1.0 + _PAD)
        ex, ey = E[..., 0], E[..., 1]
        L = np.hypot(ex, ey)
        W = self.vertices[g] - self.centroids[g, None, :]
        ew = ex * W[..., 1] - ey * W[..., 0]                 # e_j x (v_j - o)
        t = _EDGE_TOL + _PAD * L * reach[:, None]
        j, m = np.triu_indices(n, 1)
        det = ex[:, j] * ey[:, m] - ey[:, j] * ex[:, m]      # e_j x e_m
        scale = L * reach[:, None] + t
        # ext[s][q][:, i]: the extent for orientation s = 1, -1 in the
        # direction q = +, - of frame axis i
        ext = np.empty((2, 2, k, 2))
        with np.errstate(all="ignore"):
            for i in (0, 1):
                d0, d1 = F[0, i], F[1, i]
                de = ex * d0 + ey * d1                       # e . d
                # the multipliers for s = 1 and +d; the other three cases
                # take them times s * (the sign of d), and need that >= 0
                lj, lm = -de[:, m] / det, de[:, j] / det
                r = (np.abs(d0 - lj * ey[:, j] - lm * ey[:, m])
                     + np.abs(d1 + lj * ex[:, j] + lm * ex[:, m]))
                a = lj * ew[:, j] + lm * ew[:, m]
                c = (np.abs(lj) * (t[:, j] + _PAD * scale[:, j])
                     + np.abs(lm) * (t[:, m] + _PAD * scale[:, m])
                     + (r + _PAD) * reach[:, None])
                pos, neg = (lj >= 0.0) & (lm >= 0.0), (lj <= 0.0) & (lm <= 0.0)
                disk = reach * math.hypot(d0, d1) * (1.0 + _PAD)
                for si, s in enumerate((1.0, -1.0)):
                    for q, sd in enumerate((1.0, -1.0)):
                        U = np.where(pos if s * sd > 0.0 else neg, c - sd * a, np.inf)
                        U[~np.isfinite(U)] = np.inf
                        ext[si, q, :, i] = np.minimum(U.min(axis=1), disk)
        o = self._local(self.centroids[g])
        pad = (_PAD * (np.abs(o).sum(axis=1) + reach))[:, None]
        lo, hi = np.full((k, 2), np.inf), np.full((k, 2), -np.inf)
        for si in (0, 1):
            slo, shi = o - ext[si, 1] - pad, o + ext[si, 0] + pad
            empty = (slo > shi).any(axis=1)
            slo[empty], shi[empty] = np.inf, -np.inf
            np.minimum(lo, slo, out=lo)
            np.maximum(hi, shi, out=hi)
        return lo, hi

    def _build_index(self):
        """The cell index: (indptr, cells), the cells of bin row * 64 + column
        in cells[indptr[bin]:indptr[bin + 1]], ascending.  Built _BLOCK cells
        at a time, counted in a first pass and placed in a second."""
        k = len(self.counts)
        spans = []             # per block: the cells it bins, their first and last bins
        for s in range(0, k, _BLOCK):
            lo, hi = self._cell_boxes(slice(s, s + _BLOCK))
            keep = np.flatnonzero((lo <= hi).all(axis=1))
            spans.append((s + keep, self._bins(lo[keep]).astype(np.int32),
                          self._bins(hi[keep]).astype(np.int32)))
        indptr = np.zeros(_GRID * _GRID + 1, dtype=np.intp)
        for _, b0, b1 in spans:
            indptr[1:] += np.bincount(_pair_bins(b0, b1)[1], minlength=_GRID * _GRID)
        np.cumsum(indptr, out=indptr)
        cells = np.empty(indptr[-1], dtype=np.int32)
        fill = indptr[:-1].copy()
        for ids, b0, b1 in spans:
            c, bins = _pair_bins(b0, b1)
            order = np.argsort(bins, kind="stable")
            bins = bins[order]
            rank = np.arange(len(bins)) - np.searchsorted(bins, bins)
            cells[fill[bins] + rank] = ids[c[order]]
            fill += np.bincount(bins, minlength=_GRID * _GRID)
        return indptr, cells

    def _full_scan(self, X: np.ndarray) -> np.ndarray:
        """The nearest candidate of each row of X, else its nearest centroid:
        the lookup rule's answer for points that no candidate contains."""
        out = np.empty(len(X), dtype=np.intp)
        for s in range(0, len(X), _LOOKUP_BLOCK):
            P = X[s:s + _LOOKUP_BLOCK]
            # |centroid - x| as np.linalg.norm(axis=1) takes it
            dist = self._cx - P[:, :1]
            dist *= dist
            dy = self._cy - P[:, 1:]
            dy *= dy
            dist += dy
            np.sqrt(dist, out=dist)
            near = dist <= self._reach
            first = np.where(near, dist, np.inf).argmin(axis=1)
            some = near[np.arange(len(P)), first]
            first[~some] = dist[~some].argmin(axis=1)
            out[s:s + len(P)] = first
        return out

    def _contains(self, idx: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Whether cell idx[r] contains the point (x[r], y[r]), for each r: no
        two of its edge cross products beyond 1e-9 have opposite signs."""
        pos = np.zeros(len(idx), dtype=bool)
        neg = np.zeros(len(idx), dtype=bool)
        for V, E in zip(self.vertices.transpose(1, 0, 2), self._edges.transpose(1, 0, 2)):
            cross = E[idx, 0] * (y - V[idx, 1]) - E[idx, 1] * (x - V[idx, 0])
            pos |= cross > _EDGE_TOL
            neg |= cross < -_EDGE_TOL
        return ~(pos & neg)

    def _locate_many(self, X: np.ndarray) -> np.ndarray:
        """The cell of each row of X (shape (m, 2)) under the lookup rule."""
        if self._index is None:
            self._index = self._build_index()
        indptr, cells = self._index
        out = np.empty(len(X), dtype=np.intp)
        for s in range(0, len(X), _INDEX_BLOCK):
            P = X[s:s + _INDEX_BLOCK]
            with np.errstate(all="ignore"):   # inf - inf for a non-finite point
                B = self._bins(self._local(P))
            fin = np.isfinite(B).all(axis=1)
            B[~fin] = 0.0
            bins = (B[:, 1] * _GRID + B[:, 0]).astype(np.intp)
            start, num = indptr[bins], indptr[bins + 1] - indptr[bins]
            num[~fin] = 0
            # one (point, cell) pair per cell of each point's bin
            pt = np.repeat(np.arange(len(P)), num)
            idx = cells[np.arange(len(pt)) + np.repeat(start - (np.cumsum(num) - num), num)]
            px, py = np.repeat(P[:, 0], num), np.repeat(P[:, 1], num)
            dist = self._cx[idx] - px
            dist *= dist
            dy = self._cy[idx] - py
            dy *= dy
            dist += dy
            np.sqrt(dist, out=dist)
            near = dist <= self._reach[idx]
            # the bin's nearest candidate, then for a point it misses all of
            # the bin's candidates that contain it
            p, f = _nearest(pt, dist, near)
            ok = self._contains(idx[f], px[f], py[f])
            out[s + p[ok]] = idx[f[ok]]
            redo = np.zeros(len(P), dtype=bool)
            redo[p[~ok]] = True
            sub = np.flatnonzero(near & redo[pt])
            hit = np.zeros(len(pt), dtype=bool)
            hit[sub[self._contains(idx[sub], px[sub], py[sub])]] = True
            p2, f2 = _nearest(pt, dist, hit)
            out[s + p2] = idx[f2]
            miss = np.ones(len(P), dtype=bool)
            miss[p[ok]] = miss[p2] = False
            if miss.any():
                out[s + np.flatnonzero(miss)] = self._full_scan(P[miss])
        return out

    def evaluate(self, x) -> np.ndarray:
        """The value at one point x of shape (2,): evaluate_many on x[None]."""
        return self.evaluate_many(np.asarray(x, dtype=float)[None])[0]

    def gradient_at(self, x) -> np.ndarray:
        """The gradient at one point x of shape (2,): gradient_many on x[None]."""
        return self.gradient_many(np.asarray(x, dtype=float)[None])[0]

    def evaluate_many(self, X) -> np.ndarray:
        """Values at the points X of shape (k, 2), one row per point."""
        X = np.asarray(X, dtype=float)
        idx = self._locate_many(X)
        return np.matmul(self.A[idx], X[:, :, None])[:, :, 0] + self.b[idx]

    def gradient_many(self, X) -> np.ndarray:
        """Gradients at the points X of shape (k, 2), one (2, 2) row per point."""
        return self.A[self._locate_many(np.asarray(X, dtype=float))]

    def grad_bound(self) -> float:
        return max(map(frob, self.A), default=0.0)

    def gradient_distribution(self) -> tuple[DiscreteMeasure, float]:
        keep = self.areas > 0.0
        return (DiscreteMeasure.from_stack(self.areas[keep] / self.domain.volume,
                                           self.A[keep]),
                self.residual_volume)

    def volumes_by_flag(self) -> dict:
        out: dict[str, float] = {}
        for f, a in zip(self.flags, self.areas.tolist()):
            out[f] = out.get(f, 0.0) + a
        return out

    def swap_components(self) -> "CellMap":
        P = _P_SWAP
        dom = OBox(P @ self.domain.center, self.domain.half, P @ self.domain.frame)
        A, b = self.boundary_affine
        return CellMap(dom, (P @ A @ P, P @ b),
                       np.matmul(P, self.vertices[..., None])[..., 0], self.counts,
                       np.matmul(np.matmul(P, self.A), P),
                       np.matmul(P, self.b[..., None])[..., 0], self.flags,
                       self.residual_volume)


_DOMAIN_TOL = 1e-9    # vertex excursion allowed, times 1 + the largest half-width
_VOLUME_RTOL = 1e-9   # cell areas + residual_volume against the domain volume


def _padded(regions: list):
    """(vertices, counts) of a list of vertex lists: the (k, n_max, 2) float
    stack, each cell padded by repeating its last vertex, and the counts."""
    counts = np.array([len(r) for r in regions])
    n_max = int(counts.max())
    return (np.array([r + r[-1:] * (n_max - len(r)) for r in regions], dtype=float),
            counts)


def _cell_arrays(cells: list):
    """(vertices, counts, A, b, flags) converted one field at a time over all
    cells, or None when any cell is malformed."""
    try:
        V, counts = _padded([c["region"]["vertices"] for c in cells])
        n_max = int(counts.max())
        mats = [c["A"] for c in cells]
        A = np.array([a["entries"] for a in mats], dtype=float)
        b = np.array([c["b"] for c in cells], dtype=float)
        flags = [c["flag"] for c in cells]
        ok = ({(type(a["rows"]), a["rows"], type(a["cols"]), a["cols"])
               for a in mats} == {(int, 2, int, 2)}
              and set(flags) <= {"good", "error"})
    except (KeyError, TypeError, ValueError, IndexError, OverflowError):
        return None
    k = len(cells)
    if not (ok and counts.min() >= 3 and V.shape == (k, n_max, 2)
            and A.shape == (k, 2, 2) and b.shape == (k, 2)
            and np.isfinite(V).all() and np.isfinite(A).all()
            and np.isfinite(b).all()):
        return None
    return V, counts, A, b, flags


def _check_cell(c, where) -> None:
    """_cell_arrays' checks for one cell: raise for its first malformed field."""
    verts = _require(_require(c, "region", where), "vertices", f"{where}.region")
    if not isinstance(verts, list) or len(verts) < 3:
        raise ParseError(f"{where}: region needs at least 3 vertices")
    for j, v in enumerate(verts):
        _vector2(v, f"{where}.region.vertices[{j}]")
    if _require(c, "flag", where) not in ("good", "error"):
        raise ParseError(f"{where}: flag must be 'good' or 'error'")
    _matrix2(_require(c, "A", where), f"{where}.A")
    _vector2(_require(c, "b", where), f"{where}.b")


def map_from_obj(obj, path="map") -> CellMap:
    """A CellMap from its JSON object.  Besides the schema, the cells must
    tile the domain: every vertex lies in the domain up to 1e-9 (1 + the
    largest half-width) in the box frame, and the cell areas plus
    residual_volume equal the domain volume up to a relative 1e-9.  A
    violation is a ParseError naming the first bad cell where there is one;
    a matrix whose Frobenius norm overflows is a PreconditionError."""
    dom = _domain_from_obj(_require(obj, "domain", path), f"{path}.domain")
    bnd = _require(obj, "boundary", path)
    A = _matrix2(_require(bnd, "A", f"{path}.boundary"), f"{path}.boundary.A")
    b = _vector2(_require(bnd, "b", f"{path}.boundary"), f"{path}.boundary.b")
    cells = _require(obj, "cells", path)
    if not isinstance(cells, list) or not cells:
        raise ParseError(f"{path}: cells must be a non-empty list")
    resid = _require(obj, "residual_volume", path)
    if isinstance(resid, bool) or not isinstance(resid, (int, float)):
        raise ParseError(f"{path}: residual_volume must be a number")
    arrays = _cell_arrays(cells)
    if arrays is None:
        for i, c in enumerate(cells):
            _check_cell(c, f"{path}.cells[{i}]")
        raise ParseError(f"{path}: malformed cells")
    V, counts, As, bs, flags = arrays
    # four squares below 1e300 each cannot overflow; only larger entries need
    # the exact norm
    for i in np.nonzero(np.abs(As).max(axis=(1, 2)) >= 1e150)[0]:
        _check_norm(As[i], f"{path}.cells[{i}].A")
    inside = dom.contains_many(V.reshape(-1, 2), tol=_DOMAIN_TOL)
    outside = np.nonzero(~inside.reshape(len(cells), -1).all(axis=1))[0]
    if len(outside):
        raise ParseError(f"{path}.cells[{outside[0]}]: vertex outside the domain")
    cm = CellMap(dom, (A, b), V, counts, As, bs, flags, resid)
    total, vol = float(cm.areas.sum()) + cm.residual_volume, dom.volume
    if not abs(total - vol) <= _VOLUME_RTOL * vol:
        raise ParseError(f"{path}: cell areas plus residual_volume come to "
                         f"{total!r}, the domain volume is {vol!r}")
    return cm


# --- writing maps ----------------------------------------------------------------

_BLOCK = 512          # cells per block of float texts, and of the cell index's build
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_texts(X: np.ndarray) -> list[str]:
    """The text json.dump gives each entry of X, in C order."""
    texts = list(map(float.__repr__, X.ravel().tolist()))
    if not np.isfinite(X).all():
        texts = [_NON_FINITE.get(t, t) for t in texts]
    return texts


def _cell_template(n: int) -> str:
    """A cell of n vertices as json.dump(indent=2) writes it in the map's
    cell list, with a %s for each value: the four entries of A, the two of
    b, the flag, then the 2n vertex coordinates."""
    h = "\0"
    cell = {"region": {"vertices": [[h, h]] * n},
            "A": {"rows": 2, "cols": 2, "entries": [[h, h], [h, h]]},
            "b": [h, h], "flag": h}
    text = json.dumps(cell, sort_keys=True, indent=2)
    return text.replace("\n", "\n    ").replace(json.dumps(h), "%s")


def _map_chunks(cm: CellMap):
    """The text of json.dump(obj, sort_keys=True, indent=2) + "\\n" for the
    map object of cm (with at least one cell), as an iterator of chunks.
    Every check is done before this returns; iterating only formats.  The
    small keys go through json.dumps; the cells are written from the
    arrays, a block of cells at a time, each by a %-template made once per
    vertex count."""
    A0, b0 = cm.boundary_affine
    V, counts, A, b = cm.vertices, cm.counts, cm.A, cm.b
    texts = {f: json.dumps(f) for f in set(cm.flags)}
    flags = [texts[f] for f in cm.flags]
    head, tail = json.dumps(
        {"domain": _domain_to_obj(cm.domain),
         "boundary": {"A": matrix_to_obj(A0), "b": [float(v) for v in b0]},
         "cells": [], "residual_volume": cm.residual_volume},
        sort_keys=True, indent=2).split('"cells": []')
    templates = {n: _cell_template(n) for n in np.flatnonzero(np.bincount(counts)).tolist()}
    width = 2 * V.shape[1]

    def chunks():
        yield head + '"cells": [\n    '
        for s in range(0, len(counts), _BLOCK):
            at, bt, vt = (_float_texts(X[s:s + _BLOCK]) for X in (A, b, V))
            texts = [templates[n] % (*at[4 * j:4 * j + 4], *bt[2 * j:2 * j + 2],
                                     flags[s + j], *vt[width * j:width * j + 2 * n])
                     for j, n in enumerate(counts[s:s + _BLOCK].tolist())]
            yield (",\n    " if s else "") + ",\n    ".join(texts)
        yield "\n  ]" + tail + "\n"
    return chunks()


def dump_map(cm: CellMap, path) -> None:
    """Write the CellMap cm to path as JSON, byte-equal to dump_json of its
    map object.  A realized map is written as its ``cells()``, which
    enumerates and checks them before the file is opened, so a cell budget
    overflow or a non-finite gradient leaves no file."""
    chunks = _map_chunks(cm)
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(chunks)
