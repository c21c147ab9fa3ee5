"""Piecewise-affine realization of laminates on box domains.

A realized map is a tree of construction nodes.  Every non-affine node
records only its deviation from its own affine part, so shared templates are
instanced by translation and scaling alone -- never rotation.  Cell volumes
and error moments are exact closed-form bookkeeping: nodes declare local
parts (leaf atoms, children with a volume factor), and the distribution walk
emits one VolAtom per leaf atom, applying factors innermost first.  Maps
evaluate through one batched path (``evaluate_many``, ``gradient_many``;
sampled verification and ``cells()`` use it); single-point
``evaluate``/``gradient_at`` on a sealed map are its k = 1 case.  Evaluation
is reliable on shallow structures (deeply nested oscillations lose
coordinate precision, but their contribution to any measured quantity is
bounded by the booked deviation budgets).

Every walk of the tree (construction, evaluation, distribution, bounds,
cells) is a generator that ``_drive`` runs on an explicit stack, so depth is
not limited by the recursion limit.  A node yields a child's generator and
receives the child's return value as the value of that yield; a child's
exception is raised at that yield.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    InternalError,
    InvalidSplitError,
    PreconditionError,
    UnsupportedError,
    VerdictFailure,
)
from .matrices import asmatrix, frob
from .measures import Atom, DiscreteMeasure, _seq_sum, verify_laminate

__all__ = [
    "OBox", "box", "Cell", "PiecewiseAffineMap", "MapVerification",
    "roof", "realize_finite_laminate", "realize_staircase", "realize_extended",
    "reduce_exact", "gradient_distribution", "verify_map",
    "cert_tree", "CertNode",
]

GOOD, ERROR, INDUCTIVE, RESIDUAL = "good", "error", "inductive", "residual"

_MAX_CELLS_DEFAULT = 20_000

# default truncation of the rotated dyadic covers (uncovered fraction)
THETA_MIN = 1e-3


def _vec(b) -> np.ndarray:
    out = np.zeros(2) + np.asarray(b, dtype=float)
    if out.shape != (2,):
        raise PreconditionError("offset must broadcast to a 2-vector")
    return out


def _perp(v: np.ndarray) -> np.ndarray:
    return np.array([-v[1], v[0]])


def _apply(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Rows M @ x for the rows x of X.  A stacked matmul runs the kernel of
    the 1-D product once per row, so the rows equal M @ x bit for bit;
    X @ M.T rounds differently."""
    return np.matmul(M, X[:, :, None])[:, :, 0]


def _points(X) -> np.ndarray:
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != 2:
        raise PreconditionError(f"expected points of shape (k, 2), got {X.shape}")
    return X


class OBox:
    """Oriented box: center + frame @ z with |z_i| <= half_i, frame orthogonal."""

    def __init__(self, center, half, frame=None):
        self.center = np.array(center, dtype=float).reshape(2)
        self.half = np.array(half, dtype=float).reshape(2)
        self.frame = np.eye(2) if frame is None else np.array(frame, dtype=float)
        if not np.all(self.half > 0.0):
            raise PreconditionError("box half-widths must be positive")
        if frob(self.frame.T @ self.frame - np.eye(2)) > 1e-9:
            raise PreconditionError("box frame must be orthogonal")
        for a in (self.center, self.half, self.frame):
            a.flags.writeable = False

    @property
    def volume(self) -> float:
        return 4.0 * self.half[0] * self.half[1]

    def to_world(self, z) -> np.ndarray:
        return self.center + self.frame @ np.asarray(z, dtype=float)

    def corners(self) -> list[np.ndarray]:
        h0, h1 = self.half
        return [self.to_world((s0 * h0, s1 * h1))
                for s0, s1 in ((-1, -1), (1, -1), (1, 1), (-1, 1))]

    # point queries, one row per point of X (shape (k, 2))
    def to_local_many(self, X) -> np.ndarray:
        return _apply(self.frame.T, X - self.center)

    def to_world_many(self, Z) -> np.ndarray:
        return self.center + _apply(self.frame, Z)

    def contains_many(self, X, tol: float = 1e-12) -> np.ndarray:
        s = tol * (1.0 + float(np.max(self.half)))
        return np.all(np.abs(self.to_local_many(X)) <= self.half + s, axis=1)

    def boundary_points(self, ts) -> np.ndarray:
        cs = self.corners()
        lens = [2.0 * self.half[0], 2.0 * self.half[1]] * 2
        s = (np.asarray(ts, dtype=float) % 1.0) * sum(lens)
        out = np.empty((len(s), 2))
        todo = np.ones(len(s), dtype=bool)
        for k in range(4):
            take = todo & (s <= lens[k]) if k < 3 else todo
            a, bpt = cs[k], cs[(k + 1) % 4]
            out[take] = a + np.multiply.outer(np.minimum(s[take] / lens[k], 1.0),
                                              bpt - a)
            todo &= ~take
            s = s - lens[k]
        return out

    def interior_points(self, uv, margin: float = 1e-6) -> np.ndarray:
        z = (2.0 * np.asarray(uv, dtype=float) - 1.0) * self.half * (1.0 - margin)
        return self.to_world_many(z)

    def __repr__(self):
        return f"OBox(center={self.center.tolist()}, half={self.half.tolist()})"


def box(lo, hi) -> OBox:
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if not np.all(hi > lo):
        raise PreconditionError("box needs hi > lo componentwise")
    return OBox((lo + hi) / 2.0, (hi - lo) / 2.0)


@dataclass
class VolAtom:
    """One gradient value with its exact total cell volume and role flag."""
    vol: float
    G: np.ndarray
    flag: str
    slot: "SlotMap | None" = None


@dataclass
class Cell:
    vertices: list
    A: np.ndarray
    b: np.ndarray
    flag: str


def _emit_cell(out: list, limit: int, verts: list, A: np.ndarray, flag: str) -> None:
    if len(out) >= limit:
        raise UnsupportedError(f"cell enumeration exceeds budget {limit}")
    out.append(Cell(verts, A, None, flag))


def _drive(op):
    """Run op, a tree-operation generator, on an explicit stack and return
    its value.  Each generator it yields runs next, and its return value is
    sent back to the yielder; its exception is thrown in at the yield."""
    stack, value, error = [op], None, None
    while stack:
        try:
            stack.append(stack[-1].send(value) if error is None
                         else stack[-1].throw(error))
            value = error = None
        except StopIteration as done:
            stack.pop()
            value, error = done.value, None
        except Exception as exc:
            stack.pop()
            if not stack:
                raise
            value, error = None, exc
    return value


class MapNode:
    """Construction-tree node.  Each walk is a generator of the node class,
    ``_evaluate(X)``, ``_gradient(X)``, ``_bounds()`` (sup deviation,
    gradient-norm bound) or ``_cells(out, shift, scale, limit)`` (appending
    to out): it yields its children's generators of the same walk, gets each
    child's return value back from the yield, and returns its own.
    ``_parts()`` lists local distribution parts: leaf atoms (vol, G, flag,
    slot) and child entries (child, volume factor or None).  Nodes evaluate
    only in batches: X is a C-contiguous float array of shape (k, 2), and
    row r depends on X[r] alone, bit for bit, so a single point is the batch
    X[None] (k = 1)."""

    domain: OBox
    A: np.ndarray
    b: np.ndarray

    def _affine_many(self, X) -> np.ndarray:
        return _apply(self.A, X) + self.b

    def evaluate_many(self, X) -> np.ndarray:
        return _drive(self._evaluate(X))

    def gradient_many(self, X) -> np.ndarray:
        return _drive(self._gradient(X))

    def sup_dev(self) -> float:
        return _drive(self._bounds())[0]

    def grad_bound(self) -> float:
        return _drive(self._bounds())[1]

    def distribution(self) -> list[VolAtom]:
        """One VolAtom per leaf atom; volumes take path factors innermost first."""
        return _drive(self._distribution([], ()))

    def _distribution(self, out: list, factors: tuple):
        for part in self._parts():
            if len(part) == 2:
                child, f = part
                yield child._distribution(out, factors if f is None else factors + (f,))
                continue
            vol, G, flag, slot = part
            for f in reversed(factors):
                vol = f * vol
            out.append(VolAtom(vol, G, flag, slot))
        return out


class SlotMap(MapNode):
    """Affine leaf and patch point.  Shared across template instances, so a
    single patch() call updates every instance at once."""

    def __init__(self, domain: OBox, A, b=0.0, flag: str = GOOD):
        self.domain = domain
        self.A = asmatrix(A)
        self.b = _vec(b)
        self.flag = flag
        self.inner: MapNode | None = None

    def _evaluate(self, X):
        if self.inner is not None:
            return (yield self.inner._evaluate(X))
        return self._affine_many(X)

    def _gradient(self, X):
        if self.inner is not None:
            return (yield self.inner._gradient(X))
        return np.repeat(self.A[None], len(X), axis=0)

    def _parts(self):
        if self.inner is not None:
            return [(self.inner, None)]
        return [(self.domain.volume, self.A, self.flag, self)]

    def _bounds(self):
        if self.inner is not None:
            return (yield self.inner._bounds())
        return 0.0, frob(self.A)

    def patch(self, node: MapNode) -> None:
        if self.inner is not None:
            raise PreconditionError("slot already patched")
        d = node.domain
        tol = 1e-9 * (1.0 + float(np.max(self.domain.half)))
        if (np.max(np.abs(d.center - self.domain.center)) > tol
                or np.max(np.abs(d.half - self.domain.half)) > tol
                or frob(d.frame - self.domain.frame) > 1e-9):
            raise PreconditionError("patch domain does not match the slot")
        if frob(node.A - self.A) > 1e-9 * (1.0 + frob(self.A)):
            raise PreconditionError("patch affine part does not match the slot")
        self.inner = node

    def _cells(self, out, shift, scale, limit):
        if self.inner is not None:
            yield self.inner._cells(out, shift, scale, limit)
            return
        _emit_cell(out, limit, [shift + scale * c for c in self.domain.corners()],
                   self.A, self.flag)


def _rank_one_factor(D: np.ndarray, tol: float = 1e-9):
    """D = eta (x) xi with xi unit, or raise if D is not rank one."""
    U, S, Vt = np.linalg.svd(D)
    if S[0] <= tol or S[1] > tol * S[0]:
        raise PreconditionError("gradient difference is not rank one")
    return S[0] * U[:, 0], Vt[0]


def _axis_alignment(xi: np.ndarray, frame: np.ndarray, tol: float = 1e-9):
    for ax in (0, 1):
        d = float(xi @ frame[:, ax])
        if abs(abs(d) - 1.0) <= tol:
            return ax, (1.0 if d > 0 else -1.0)
    return None, 0.0


class RoofMap(MapNode):
    """Sawtooth lamination of A into A1, A2 along a frame-aligned direction.

    Exact volume bookkeeping per tooth of period P:
      slabs   lam_i P (2 h1 - w)   gradient A_i
      cores   2 lam_i P (h1 - w)   centered sub-boxes hosting the side slots
      margins lam_i P w            buffer between cores and boundary caps
      caps    w P / 2 per side     auxiliary gradients A -+ rho eta (x) e_y
    The tooth count is chosen so that w <= w_max (volume slack) and the
    profile height stays within the deviation budget.
    """

    def __init__(self, domain: OBox, A, b, A1, A2, lam1: float,
                 eta, xi, ax: int, s_t: float,
                 w_max: float, h_max: float, aux_flag: str = ERROR):
        self.domain = domain
        self.A = asmatrix(A)
        self.b = _vec(b)
        self.A1 = asmatrix(A1)
        self.A2 = asmatrix(A2)
        self.lam1 = float(lam1)
        self.lam2 = 1.0 - self.lam1
        if not 0.0 < self.lam1 < 1.0:
            raise PreconditionError("lamination fraction outside (0,1)")
        self.eta = np.asarray(eta, dtype=float)
        self.ax = ax
        self.ay = 1 - ax
        self.s_t = float(s_t)
        self.aux_flag = aux_flag
        F = domain.frame
        self.xi = self.s_t * F[:, ax]
        h0 = float(domain.half[ax])
        h1 = float(domain.half[self.ay])
        self.h0, self.h1 = h0, h1
        ne = float(np.linalg.norm(self.eta))
        if ne <= 0.0:
            raise PreconditionError("zero lamination amplitude")
        gmax = max(frob(self.A1), frob(self.A2))
        # |Ai|^2 - |A|^2 summed entrywise as (Ai-A).(Ai+A) stays accurate when
        # the norm gain is far below the norm scale
        gain2 = max(float(np.sum((self.A1 - self.A) * (self.A1 + self.A))),
                    float(np.sum((self.A2 - self.A) * (self.A2 + self.A))))
        rho = 0.9 * gain2 / ((gmax + frob(self.A)) * ne)
        if not rho > 0.0:
            raise InternalError("degenerate lamination: no strict norm gain")
        self.rho = rho
        self.gmax = gmax
        self.norm_eta = ne
        w_max = min(w_max, h1 / 2.0)
        if not w_max > 0.0:
            raise PreconditionError("no room for the boundary caps")
        need = 2.0 * h0 * self.lam1 * self.lam2 / (w_max * rho)
        if math.isfinite(h_max) and h_max > 0.0:
            need = max(need, 2.0 * h0 * self.lam1 * self.lam2 / h_max)
        if need > 1e300:
            raise UnsupportedError(f"tooth count {need:.3g} out of range")
        self.n = max(1, math.ceil(need))
        self.P = 2.0 * h0 / self.n
        self.H = self.lam1 * self.lam2 * self.P
        self.w = self.H / rho
        ey = F[:, self.ay]
        self.cap_grad = {+1: self.A - rho * np.outer(self.eta, ey),
                         -1: self.A + rho * np.outer(self.eta, ey)}
        core_frame = np.column_stack([self.s_t * F[:, ax], ey])
        self.slots = {}
        for side, lam in ((1, self.lam1), (2, self.lam2)):
            half = (lam * self.P / 2.0, h1 - self.w)
            Ai = self.A1 if side == 1 else self.A2
            self.slots[side] = SlotMap(OBox((0.0, 0.0), half, core_frame), Ai, 0.0)

    # -- geometry helpers ---------------------------------------------------
    def _core_center(self, i, side: int) -> np.ndarray:
        """Center of tooth i's core on the given side; for an array of tooth
        indices, one row per index."""
        if side == 1:
            ct_t = -self.h0 + i * self.P + self.lam1 * self.P / 2.0
        else:
            ct_t = -self.h0 + i * self.P + self.lam1 * self.P + self.lam2 * self.P / 2.0
        F = self.domain.frame
        return self.domain.center + np.multiply.outer(self.s_t * ct_t, F[:, self.ax])

    def _pieces(self, X):
        """Tooth and piece of each point: returns y, rising, the cap mask,
        the value capv or saw of the cap or slab profile, and per patched
        side the indices of the points in its cores with their core
        centers."""
        z = self.domain.to_local_many(X)
        y = z[:, self.ay]
        pos = np.minimum(np.maximum(self.s_t * z[:, self.ax] + self.h0, 0.0),
                         2.0 * self.h0)
        # float tooth indices: int() truncation of a nonnegative quotient
        i = np.minimum(float(self.n - 1), np.floor(pos * self.n / (2.0 * self.h0)))
        tau = pos - i * self.P
        rising = tau <= self.lam1 * self.P
        saw = np.where(rising, self.lam2 * tau, self.lam1 * (self.P - tau))
        capv = self.rho * (self.h1 - np.abs(y))
        cap = capv < saw
        core = ~cap & (np.abs(y) <= self.h1 - self.w)
        cores = []
        for side, on_side in ((1, rising), (2, ~rising)):
            if self.slots[side].inner is not None:
                idx = np.nonzero(core & on_side)[0]
                cores.append((side, idx, self._core_center(i[idx], side)))
        return y, rising, cap, np.where(cap, capv, saw), cores

    # -- MapNode interface --------------------------------------------------
    def _evaluate(self, X):
        _, _, _, prof, cores = self._pieces(X)
        out = self._affine_many(X) + np.multiply.outer(prof, self.eta)
        for side, idx, ct in cores:
            base = _apply(self.A, ct) + self.b + self.eta * (self.H / 2.0)
            out[idx] = base + (yield self.slots[side]._evaluate(X[idx] - ct))
        return out

    def _gradient(self, X):
        y, rising, cap, _, cores = self._pieces(X)
        out = np.where(rising[:, None, None], self.A1, self.A2)
        out[cap] = np.where((y[cap] > 0)[:, None, None],
                            self.cap_grad[+1], self.cap_grad[-1])
        for side, idx, ct in cores:
            out[idx] = yield self.slots[side]._gradient(X[idx] - ct)
        return out

    def _parts(self):
        out = []
        h0, h1, w = self.h0, self.h1, self.w
        for side, lam in ((1, self.lam1), (2, self.lam2)):
            Ai = self.A1 if side == 1 else self.A2
            slot = self.slots[side]
            if slot.inner is None and slot.flag == GOOD:
                out.append((2.0 * h0 * lam * (2.0 * h1 - w), Ai, GOOD, slot))
                continue
            if slot.inner is None:
                out.append((4.0 * h0 * lam * (h1 - w), Ai, slot.flag, slot))
            else:
                out.append((slot, float(self.n)))
            out.append((2.0 * h0 * lam * w, Ai, self.aux_flag, None))
        out.extend((h0 * w, self.cap_grad[s], self.aux_flag, None) for s in (1, -1))
        return out

    def _bounds(self):
        d1, g1 = yield self.slots[1]._bounds()
        d2, g2 = yield self.slots[2]._bounds()
        return self.H * self.norm_eta + max(d1, d2), max(self.gmax, g1, g2)

    def _cells(self, out, shift, scale, limit):
        if self.n > limit:
            raise UnsupportedError(f"{self.n} teeth exceed the cell budget")
        h1, w, F = self.h1, self.w, self.domain.frame

        def pts(*ty):  # the points at frame coordinates (t, y), shifted and scaled
            return [shift + scale * (self.domain.center + F[:, self.ax] * (self.s_t * t)
                                     + F[:, self.ay] * y) for t, y in ty]

        for i in range(self.n):
            T0 = -self.h0 + i * self.P
            Tm = T0 + self.lam1 * self.P
            T1 = T0 + self.P
            for side, (ta, tb) in ((1, (T0, Tm)), (2, (Tm, T1))):
                Ai = self.A1 if side == 1 else self.A2
                slot = self.slots[side]
                te = ta if side == 1 else tb
                if slot.inner is None and slot.flag == GOOD:
                    # slab trapezoid: full height at the tooth edge, h1 - w at peak
                    verts = pts((te, -h1), (Tm, -(h1 - w)), (Tm, h1 - w), (te, h1))
                    _emit_cell(out, limit, verts, Ai, GOOD)
                    continue
                ct = self._core_center(i, side)
                if slot.inner is None:
                    verts = [shift + scale * (ct + c) for c in slot.domain.corners()]
                    _emit_cell(out, limit, verts, Ai, slot.flag)
                else:
                    yield slot._cells(out, shift + scale * ct, scale, limit)
                for sy in (1.0, -1.0):
                    verts = pts((ta, sy * (h1 - w)), (tb, sy * (h1 - w)), (te, sy * h1))
                    _emit_cell(out, limit, verts, Ai, self.aux_flag)
            for sy in (1.0, -1.0):
                verts = pts((T0, sy * h1), (Tm, sy * (h1 - w)), (T1, sy * h1))
                _emit_cell(out, limit, verts, self.cap_grad[+1 if sy > 0 else -1],
                           self.aux_flag)


class GridCover(MapNode):
    """Exact cover of an oriented box by a grid of congruent scaled copies of
    a unit-scale template; used to renormalize thin or off-scale domains."""

    def __init__(self, domain: OBox, A, b, counts, sigma: float, template: MapNode):
        self.domain = domain
        self.A = asmatrix(A)
        self.b = _vec(b)
        self.k0, self.k1 = counts
        self.sigma = float(sigma)
        self.template = template
        self.tile = (domain.half[0] / self.k0, domain.half[1] / self.k1)

    @staticmethod
    def plan(domain: OBox):
        """Tile counts, scale and unit-scale template domain for a box."""
        h = domain.half
        long_ax = 0 if h[0] >= h[1] else 1
        r = float(h[long_ax] / h[1 - long_ax])
        k = [1, 1]
        k[long_ax] = max(1, math.ceil(r - 1e-12))
        tile = np.array([h[0] / k[0], h[1] / k[1]])
        sigma = float(np.min(tile))
        tdom = OBox((0.0, 0.0), tile / sigma, domain.frame)
        return (k[0], k[1]), sigma, tdom

    def _tile_center(self, i: int, j: int) -> np.ndarray:
        z = (-self.domain.half[0] + (2 * i + 1) * self.tile[0],
             -self.domain.half[1] + (2 * j + 1) * self.tile[1])
        return self.domain.to_world(z)

    def _tile_centers(self, X) -> np.ndarray:
        """Center of the tile holding each point (float tile indices)."""
        z = self.domain.to_local_many(X)
        h, tile = self.domain.half, self.tile
        i = np.clip(np.trunc((z[:, 0] + h[0]) / (2.0 * tile[0])), 0, self.k0 - 1)
        j = np.clip(np.trunc((z[:, 1] + h[1]) / (2.0 * tile[1])), 0, self.k1 - 1)
        return self.domain.to_world_many(np.column_stack(
            [-h[0] + (2.0 * i + 1.0) * tile[0], -h[1] + (2.0 * j + 1.0) * tile[1]]))

    def _evaluate(self, X):
        z = (X - self._tile_centers(X)) / self.sigma
        dev = (yield self.template._evaluate(z)) - _apply(self.A, z)
        return self._affine_many(X) + self.sigma * dev

    def _gradient(self, X):
        return (yield self.template._gradient((X - self._tile_centers(X)) / self.sigma))

    def _parts(self):
        return [(self.template, float(self.k0) * float(self.k1) * self.sigma ** 2)]

    def _bounds(self):
        dev, grad = yield self.template._bounds()
        return self.sigma * dev, grad

    def _cells(self, out, shift, scale, limit):
        if self.k0 * self.k1 > limit:
            raise UnsupportedError("grid cover exceeds the cell budget")
        for i in range(self.k0):
            for j in range(self.k1):
                ct = self._tile_center(i, j)
                yield self.template._cells(out, shift + scale * ct,
                                           scale * self.sigma, limit)


def _subtract_intervals(lo: int, hi: int, excl) -> list[tuple[int, int]]:
    """[lo, hi] minus a list of closed integer intervals."""
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


def _lex_keys(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex numbers a + b*1j, set part by part (no arithmetic, so
    infinities stay exact).  numpy orders complex numbers lexicographically,
    so these sort and searchsorted by (a, b)."""
    out = a.astype(complex)
    out.imag = b
    return out


class CoverMap(MapNode):
    """Dyadic cover of a box by rotated squares carrying a template; the
    uncovered remainder is booked as residual volume and left affine.  Used
    only when the lamination direction is not aligned with the domain frame.
    Tiles are stored as per-row index intervals so construction cost scales
    with the number of boundary tiles, not the covered interior."""

    MAX_LEVELS = 30
    MAX_TILES = 1_000_000

    def __init__(self, domain: OBox, A, b, theta: float, template: MapNode):
        self.domain = domain
        self.A = asmatrix(A)
        self.b = _vec(b)
        self.theta = float(theta)
        self.template = template
        Ft = template.domain.frame
        if np.max(np.abs(template.domain.half - 1.0)) > 1e-12:
            raise InternalError("cover template must have unit half-widths")
        self.Ft = Ft
        self.sigma0 = float(np.min(domain.half)) / 2.0
        M = domain.frame.T @ Ft
        vol = domain.volume
        covered = 0.0
        rows: dict[int, dict[int, list[tuple[int, int]]]] = {}
        hyp = float(np.linalg.norm(domain.half))
        n_tiles = 0
        for level in range(self.MAX_LEVELS):
            s = self.sigma0 * 2.0 ** -level
            hk = [domain.half[k] - s * (abs(M[k, 0]) + abs(M[k, 1])) for k in (0, 1)]
            if min(hk) <= 0.0:
                continue
            lvl: dict[int, list[tuple[int, int]]] = {}
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
                frags = _subtract_intervals(i_lo, i_hi, excl)
                if frags:
                    lvl[j] = frags
                    cnt = sum(b0 - a0 + 1 for a0, b0 in frags)
                    covered += cnt * (2.0 * s) ** 2
                    n_tiles += cnt
                    if n_tiles > self.MAX_TILES:
                        raise InternalError("rotated cover tile budget exceeded")
            if lvl:
                rows[level] = lvl
            if vol - covered <= self.theta * vol:
                break
        self.rows = rows
        self.covered = covered
        self.residual = max(vol - covered, 0.0)

    def _tile_counts(self):
        for level, lvl in self.rows.items():
            yield level, sum(b - a + 1 for frags in lvl.values() for a, b in frags)

    @cached_property
    def _flat_rows(self) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per level the tile intervals in (row j, first i) order: their
        `_lex_keys(j, i)`, rows j and last indices i."""
        out = {}
        for level, lvl in self.rows.items():
            J, I0, I1 = (np.array(c, dtype=float) for c in
                         zip(*[(j, a, b) for j in sorted(lvl) for a, b in lvl[j]]))
            out[level] = (_lex_keys(J, I0), J, I1)
        return out

    def _find_tiles(self, X):
        """The indices of the points that some tile holds, with the tile
        scales and tile centers."""
        q = _apply(self.Ft.T, X - self.domain.center)
        todo = np.arange(len(X))
        hits, scales, centers = [], [], []
        for level, (keys, J, I1) in self._flat_rows.items():
            if not len(todo):
                break
            s = self.sigma0 * 2.0 ** -level
            i = np.floor(q[todo, 0] / (2.0 * s))
            j = np.floor(q[todo, 1] / (2.0 * s))
            # the only interval that can hold (j, i) is the last one at or
            # before it in (row, first index) order
            c = np.searchsorted(keys, _lex_keys(j, i), side="right") - 1
            c0 = np.maximum(c, 0)
            hit = (c >= 0) & (J[c0] == j) & (i <= I1[c0])
            hits.append(todo[hit])
            scales.append(np.full(np.count_nonzero(hit), s))
            centers.append(self.domain.center + _apply(self.Ft, np.column_stack(
                [2.0 * s * (i[hit] + 0.5), 2.0 * s * (j[hit] + 0.5)])))
            todo = todo[~hit]
        if not hits:
            return np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros((0, 2))
        return np.concatenate(hits), np.concatenate(scales), np.concatenate(centers)

    def _evaluate(self, X):
        out = self._affine_many(X)
        idx, s, ct = self._find_tiles(X)
        z = (X[idx] - ct) / s[:, None]
        dev = (yield self.template._evaluate(z)) - _apply(self.A, z)
        out[idx] = out[idx] + s[:, None] * dev
        return out

    def _gradient(self, X):
        out = np.repeat(self.A[None], len(X), axis=0)
        idx, s, ct = self._find_tiles(X)
        out[idx] = yield self.template._gradient((X[idx] - ct) / s[:, None])
        return out

    def _parts(self):
        factor = sum(cnt * (self.sigma0 * 2.0 ** -level) ** 2
                     for level, cnt in self._tile_counts())
        residual = [(self.residual, self.A, RESIDUAL, None)] if self.residual > 0.0 else []
        return [(self.template, factor)] + residual

    def _bounds(self):
        dev, grad = yield self.template._bounds()
        return self.sigma0 * dev, max(grad, frob(self.A))

    def _cells(self, out, shift, scale, limit):
        for level, lvl in self.rows.items():
            s = self.sigma0 * 2.0 ** -level
            for j in sorted(lvl):
                for a, bnd in lvl[j]:
                    for i in range(a, bnd + 1):
                        ct = self.domain.center + self.Ft @ np.array(
                            [2.0 * s * (i + 0.5), 2.0 * s * (j + 0.5)])
                        yield self.template._cells(out, shift + scale * ct,
                                                   scale * s, limit)


# ---------------------------------------------------------------------------
# certificate trees and the realization recursion


@dataclass(eq=False)
class CertNode:
    A: np.ndarray
    lam: object = None
    left: "CertNode | None" = None
    right: "CertNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def cert_tree(steps, root=None, tol: float = 1e-9) -> CertNode:
    """Binary splitting tree replaying a sequential certificate.  A step
    expands every open leaf carrying its target matrix, matching the merge
    semantics of atomic measures."""
    if not steps:
        if root is None:
            raise PreconditionError("empty certificate needs an explicit root")
        return CertNode(asmatrix(root))
    root_A = asmatrix(steps[0].target if root is None else root)
    rootn = CertNode(root_A)
    leaves = [rootn]
    for s in steps:
        tgt = np.asarray(s.target, dtype=float)
        matched = [nd for nd in leaves
                   if frob(nd.A - tgt) <= tol * (1.0 + frob(tgt))]
        if not matched:
            raise InvalidSplitError("certificate step targets no open leaf")
        for nd in matched:
            nd.lam = s.lam
            nd.left = CertNode(np.asarray(s.left, dtype=float))
            nd.right = CertNode(np.asarray(s.right, dtype=float))
            leaves.remove(nd)
            leaves.extend((nd.left, nd.right))
    return rootn


class _Budget:
    """Preorder per-node budgets: volume slack base*2^-k damped by the local
    gradient scale (so error s-moments stay within 2*base*vol), and deviation
    sup budgets sup*2^-(k+2)."""

    def __init__(self, base: float, sup: float, s_moment: float,
                 theta_min: float = THETA_MIN):
        self.base = float(base)
        self.sup = float(sup)
        self.s = float(s_moment)
        self.theta_min = float(theta_min)
        self.k = 0

    def next_node(self, gmax: float):
        k = self.k
        self.k += 1
        loss = self.base * 2.0 ** -k / (1.0 + gmax ** self.s)
        hsup = self.sup * 2.0 ** -(k + 2) if math.isfinite(self.sup) else math.inf
        return loss, hsup


def _needs_norm(dom: OBox) -> bool:
    m = float(np.min(dom.half))
    M = float(np.max(dom.half))
    return not (0.25 <= m <= 4.0 and M / m <= 4.0)


def _roof_node(dom: OBox, A, b, A1, A2, lam, loss: float, hsup: float,
               aux_flag: str, theta_min: float):
    """A roof of (A, b) into A1, A2 within volume slack loss and deviation
    budget hsup, and the node realizing it on dom: the roof, or a rotated
    cover of dom by the roof on the unit square when xi is off dom's axes."""
    eta, xi = _rank_one_factor(A1 - A2)
    ax, s_t = _axis_alignment(xi, dom.frame)
    if ax is None:
        rdom = OBox((0.0, 0.0), (1.0, 1.0), np.column_stack([xi, _perp(xi)]))
        rb, ax, s_t, rloss = 0.0, 0, 1.0, loss / 2.0
    else:
        rdom, rb, rloss = dom, b, loss
    ne = float(np.linalg.norm(eta))
    rm = RoofMap(rdom, A, rb, A1, A2, lam, eta, xi, ax, s_t,
                 w_max=float(rdom.half[1 - ax]) * rloss / 2.0,
                 h_max=hsup / ne if math.isfinite(hsup) else math.inf,
                 aux_flag=aux_flag)
    if rdom is dom:
        return rm, rm
    # the rotated cover cannot be exact; its remainder is booked as residual
    # volume, floored at theta_min so the tile count stays sane
    return rm, CoverMap(dom, A, b, max(loss / 2.0, theta_min), rm)


def _realize_node(tree: CertNode, dom: OBox, A, b, budget: _Budget,
                  leaf_fn, aux_flag: str):
    """The node realizing tree on dom, as a ``_drive`` operation.  Children
    are built in preorder, so budget.k numbers the split nodes in preorder."""
    A = asmatrix(A)
    if tree.is_leaf:
        return SlotMap(dom, A, b, flag=leaf_fn(A))
    if _needs_norm(dom):
        counts, sigma, tdom = GridCover.plan(dom)
        child = yield _realize_node(tree, tdom, A, 0.0, budget, leaf_fn, aux_flag)
        return GridCover(dom, A, b, counts, sigma, child)
    A1, A2 = asmatrix(tree.left.A), asmatrix(tree.right.A)
    k = budget.k
    loss, hsup = budget.next_node(max(frob(A1), frob(A2)))
    try:
        rm, node = _roof_node(dom, A, b, A1, A2, float(tree.lam), loss, hsup,
                              aux_flag, budget.theta_min)
    except UnsupportedError as exc:  # the per-node budgets underflow with depth
        raise UnsupportedError(f"certificate too deep: split node {k} (preorder) has "
                               f"volume budget {loss:.3g}; {exc}") from exc
    for side, sub in ((1, tree.left), (2, tree.right)):
        slot = rm.slots[side]
        if sub.is_leaf:
            slot.flag = leaf_fn(slot.A)
        else:
            slot.patch((yield _realize_node(sub, slot.domain, slot.A, 0.0,
                                            budget, leaf_fn, aux_flag)))
    return node


# ---------------------------------------------------------------------------
# sealed map wrapper


_P_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


class PiecewiseAffineMap:
    """Sealed realization: a construction tree plus its boundary affine map."""

    def __init__(self, root: MapNode, boundary_A, boundary_b):
        self.root = root
        self.domain = root.domain
        self.boundary_affine = (asmatrix(boundary_A), _vec(boundary_b))
        self._dist: list[VolAtom] | None = None

    def seal(self) -> "PiecewiseAffineMap":
        return self._seal(self.root.distribution())

    def _seal(self, dist: list[VolAtom]) -> "PiecewiseAffineMap":
        """Seal with dist, a walk of the current tree, after checking that
        its volumes sum to the domain volume."""
        total = _seq_sum(va.vol for va in dist)
        vol = self.domain.volume
        if abs(total - vol) > 1e-9 * vol:
            raise InternalError(f"cell volumes sum to {total}, domain has {vol}")
        self._dist = dist
        return self

    def distribution(self) -> list[VolAtom]:
        if self._dist is None:
            self.seal()
        return self._dist

    def evaluate(self, x) -> np.ndarray:
        """The value at one point x of shape (2,): evaluate_many on x[None]."""
        return self.evaluate_many(np.asarray(x, dtype=float)[None])[0]

    def gradient_at(self, x) -> np.ndarray:
        """The gradient at one point x of shape (2,): gradient_many on x[None]."""
        return self.gradient_many(np.asarray(x, dtype=float)[None])[0]

    def evaluate_many(self, X) -> np.ndarray:
        """Values at the points X of shape (k, 2), one row per point."""
        return self.root.evaluate_many(_points(X))

    def gradient_many(self, X) -> np.ndarray:
        """Gradients at the points X of shape (k, 2), one (2, 2) row per point."""
        return self.root.gradient_many(_points(X))

    @property
    def residual_volume(self) -> float:
        return _seq_sum(va.vol for va in self.distribution() if va.flag == RESIDUAL)

    def gradient_distribution(self) -> tuple[DiscreteMeasure, float]:
        vol = self.domain.volume
        atoms = [Atom(va.vol / vol, va.G) for va in self.distribution()
                 if va.flag != RESIDUAL and va.vol > 0.0]
        return DiscreteMeasure(atoms), self.residual_volume

    def volume_of(self, G, flags=(GOOD,), tol: float = 1e-9) -> float:
        G = asmatrix(G)
        return _seq_sum(va.vol for va in self.distribution()
                        if va.flag in flags and frob(va.G - G) <= tol * (1.0 + frob(G)))

    def error_moment(self, s: float, flags=(ERROR, RESIDUAL)) -> float:
        return _moment_of(self.distribution(), flags, s)

    def sup_dev(self) -> float:
        return self.root.sup_dev()

    def grad_bound(self) -> float:
        return self.root.grad_bound()

    def cells(self, max_cells: int = _MAX_CELLS_DEFAULT) -> list[Cell]:
        out: list[Cell] = []
        _drive(self.root._cells(out, np.zeros(2), 1.0, max_cells))
        # vertex means one vertex-count group at a time: over a group's
        # (g, n, 2) stack, the per-cell sums of np.mean in the same order
        counts = np.array([len(c.vertices) for c in out])
        centroids = np.empty((len(out), 2))
        for n in np.unique(counts).tolist():
            g = np.nonzero(counts == n)[0]
            centroids[g] = np.array([out[i].vertices for i in g.tolist()]).mean(axis=1)
        for c, x, y in zip(out, centroids, self.evaluate_many(centroids)):
            c.b = y - c.A @ x
        return out

    def swap_components(self) -> "PiecewiseAffineMap":
        A, b = self.boundary_affine
        node = _SwappedNode(self.root)
        return PiecewiseAffineMap(node, _P_SWAP @ A @ _P_SWAP, _P_SWAP @ b).seal()


class _SwappedNode(MapNode):
    """Component/variable swap x -> P u(P x); gradients conjugate by P."""

    def __init__(self, base: MapNode):
        self.base = base
        d = base.domain
        self.domain = OBox(_P_SWAP @ d.center, d.half, _P_SWAP @ d.frame)
        self.A = _P_SWAP @ base.A @ _P_SWAP
        self.b = _P_SWAP @ base.b

    def _evaluate(self, X):
        return _apply(_P_SWAP, (yield self.base._evaluate(_apply(_P_SWAP, X))))

    def _gradient(self, X):
        return _P_SWAP @ (yield self.base._gradient(_apply(_P_SWAP, X))) @ _P_SWAP

    def _parts(self):
        # per atom over the base walk: P @ G @ P does not keep the sign of -0.0
        return [(va.vol, _P_SWAP @ va.G @ _P_SWAP, va.flag, None)
                for va in self.base.distribution()]

    def _bounds(self):
        return (yield self.base._bounds())

    def _cells(self, out, shift, scale, limit):
        inner: list[Cell] = []
        yield self.base._cells(inner, np.zeros(2), 1.0, limit)
        for c in inner:
            verts = [shift + scale * (_P_SWAP @ v) for v in c.vertices]
            _emit_cell(out, limit, verts, _P_SWAP @ c.A @ _P_SWAP, c.flag)


# ---------------------------------------------------------------------------
# public constructors


def roof(A, b, A1, A2, lam1: float, domain: OBox, eps: float) -> PiecewiseAffineMap:
    """Single lamination of the affine map (A, b) into gradients A1, A2 with
    volume fractions within (1 +- eps) of (lam1, 1-lam1), exact affine
    boundary values, and gradient norms bounded by max(|A1|, |A2|)."""
    A, A1, A2 = asmatrix(A), asmatrix(A1), asmatrix(A2)
    if not eps > 0.0:
        raise PreconditionError("need eps > 0")
    if not 0.0 < lam1 < 1.0:
        raise PreconditionError("need lam1 in (0,1)")
    comb = lam1 * A1 + (1.0 - lam1) * A2
    if frob(A - comb) > 1e-10 * (1.0 + frob(A)):
        raise PreconditionError("A is not the lam1-combination of A1 and A2")
    _, node = _roof_node(domain, A, b, A1, A2, lam1, eps, math.inf, GOOD, 0.0)
    return PiecewiseAffineMap(node, A, b).seal()


def realize_finite_laminate(nu: DiscreteMeasure, domain: OBox, A=None, b=0.0,
                            eps: float = 0.1, delta: float = math.inf,
                            s_moment: float = 2.0,
                            theta_min: float = THETA_MIN) -> PiecewiseAffineMap:
    """Piecewise-affine map whose gradient distribution matches the certified
    finite laminate nu up to eps: per-atom volume fractions within (1 +- eps)
    of the weights and off-support volume at most eps * vol."""
    if not 0.0 < eps < 1.0:
        raise PreconditionError("need eps in (0,1)")
    rep = verify_laminate(nu)
    if len(nu) > 1 and not rep.ok:
        raise InvalidSplitError("; ".join(rep.messages))
    if len(nu) == 1 and not nu.certificate:
        root_A = nu.atoms[0].point if A is None else asmatrix(A)
        node = SlotMap(domain, root_A, b, flag=GOOD)
        return PiecewiseAffineMap(node, root_A, b).seal()
    tree = cert_tree(nu.certificate)
    if A is None:
        A = tree.A
    elif frob(asmatrix(A) - tree.A) > 1e-8 * (1.0 + frob(tree.A)):
        raise PreconditionError("laminate root differs from the requested barycenter")
    budget = _Budget(eps / 4.0, delta, s_moment, theta_min)
    node = _drive(_realize_node(tree, domain, A, b, budget,
                                leaf_fn=lambda G: GOOD, aux_flag=ERROR))
    return PiecewiseAffineMap(node, A, b).seal()


def realize_staircase(spec, N: int, domain: OBox, A=None, b=0.0,
                      eta: float = 0.1, delta: float = math.inf,
                      s_moment: float = 4.0,
                      theta_min: float = THETA_MIN) -> PiecewiseAffineMap:
    """Realize the level-N truncation of a staircase laminate.  Good-cell
    fractions stay within factor e^eta of the truncation weights, the error
    cells keep their s-moment below eta * vol, and the remainder gradient is
    carried by inductive cells of total volume about beta_N * vol."""
    from .staircase import build_truncation, remainder
    if not 0.0 < eta < 1.0:
        raise PreconditionError("need eta in (0,1)")
    if A is not None and frob(asmatrix(A) - spec.A0) > 1e-9 * (1.0 + frob(spec.A0)):
        raise PreconditionError("seed differs from the staircase root")
    nu = build_truncation(spec, N)
    AN = remainder(spec, N)[1]

    def leaf_fn(G):
        if frob(G - AN) <= 1e-9 * (1.0 + frob(AN)):
            return INDUCTIVE
        return GOOD

    budget = _Budget(eta / 4.0, delta, s_moment, theta_min)
    tree = cert_tree(nu.certificate)
    node = _drive(_realize_node(tree, domain, spec.A0, b, budget, leaf_fn, ERROR))
    return PiecewiseAffineMap(node, spec.A0, b).seal()


def realize_extended(ext, domain: OBox | None = None, delta: float = 0.05,
                     depth: int = 4, s_moment: float = 2.0) -> PiecewiseAffineMap:
    """Realize the depth-truncation of an extended measure; tail remainders
    become inductive cells."""
    if domain is None:
        domain = box((0.0, 0.0), (1.0, 1.0))
    from .staircase import remainder
    eps = min(float(delta), 0.5)
    nu = ext.truncate(depth)
    remainders = [remainder(sp, depth)[1] for _, sp in ext.tails]

    def leaf_fn(G):
        for R in remainders:
            if frob(G - R) <= 1e-9 * (1.0 + frob(R)):
                return INDUCTIVE
        return GOOD

    if len(nu) == 1 and not nu.certificate:
        node: MapNode = SlotMap(domain, ext.A, 0.0, flag=GOOD)
        return PiecewiseAffineMap(node, ext.A, 0.0).seal()
    budget = _Budget(eps / 4.0, math.inf, s_moment)
    tree = cert_tree(nu.certificate)
    node = _drive(_realize_node(tree, domain, ext.A, 0.0, budget, leaf_fn, ERROR))
    return PiecewiseAffineMap(node, ext.A, 0.0).seal()


# ---------------------------------------------------------------------------
# the exact-solution recursion


@dataclass
class RoundReport:
    round: int
    error_moment: float
    tail_constant: float
    patched_slots: int
    notes: list = field(default_factory=list)


def _moment_of(dist, flags, r: float) -> float:
    return _seq_sum(va.vol * (1.0 + frob(va.G) ** r)
                    for va in dist if va.flag in flags)


def _open_slots(dist, flag: str) -> list[SlotMap]:
    """The unpatched slots of the given flag in a distribution walk, in walk
    order; template slots are shared across instances, so each slot is
    listed once."""
    return list({id(va.slot): va.slot for va in dist
                 if va.flag == flag and va.slot is not None
                 and va.slot.inner is None}.values())


def _tail_constant(dist, p: float, normA: float, r: float, vol: float,
                   t_grid) -> float:
    norms = np.array([frob(va.G) for va in dist])
    vols = np.array([va.vol for va in dist])
    best = 0.0
    for t in t_grid:
        tail = float(vols[norms > t].sum())
        best = max(best, tail * t ** p)
    return best / (vol * (1.0 + normA ** r))


def reduce_exact(step_builder, domain: OBox, A, b, delta: float, alpha: float,
                 depth: int, p: float, M: float, r: float,
                 t_grid=None) -> tuple[PiecewiseAffineMap, list[RoundReport]]:
    """Iterate a reduction step: each round replaces the inductive cells of
    the previous round by fresh step_builder output under geometrically
    shrinking slack and inductive budgets, so after `depth` rounds the error
    r-moment is below 2^-depth * vol while the gradient tail constant stays
    below 2 M^p (1 + |A|^r).

    step_builder(A_seed, dom, b, slack_frac, inductive_frac, sup_budget,
    alpha) must return a map (node or sealed) on dom, affine on its boundary,
    whose error-flag r-moment is at most slack_frac * (1+|A_seed|^r) *
    vol(dom) and whose inductive-flag r-moment is at most inductive_frac *
    (1+|A_seed|^r) * vol(dom).  Round 0 budgets absorb the root growth
    factor; later rounds use constant relative budgets (inductive 1/2, slack
    2^-(depth+1)) because the decay is already carried by the shrinking
    weighted volume of the previous round's inductive cells.  This keeps the
    builder's truncation depth bounded for arbitrarily large seeds.
    """
    if depth < 1:
        raise PreconditionError("need depth >= 1")
    A = asmatrix(A)
    bvec = _vec(b)
    vol = domain.volume
    normA = frob(A)
    if t_grid is None:
        t0 = 1.0 + normA
        t_grid = np.geomspace(t0 * 1.5, t0 * 200.0, 40)

    def build(seed, dom, off, k):
        growth = 1.0 + frob(seed) ** r
        if k == 0:
            g0 = 1.0 + normA ** r
            sf = 2.0 ** -(depth + 2) / g0
            inf_frac = 2.0 ** -2 / g0
        else:
            sf = 2.0 ** -(depth + 1)
            inf_frac = 0.5
        out = step_builder(seed, dom, off, sf, inf_frac,
                           delta * 2.0 ** -(k + 2), alpha)
        node = out.root if isinstance(out, PiecewiseAffineMap) else out
        dist = node.distribution()
        dvol = dom.volume
        if _moment_of(dist, (ERROR, RESIDUAL), r) > sf * growth * dvol * (1.0 + 1e-9):
            raise VerdictFailure(f"round {k}: step output breaks its slack bound")
        if _moment_of(dist, (INDUCTIVE,), r) > inf_frac * growth * dvol * (1.0 + 1e-9):
            raise VerdictFailure(f"round {k}: step output breaks its inductive bound")
        return node, dist

    # dist is always the latest walk of the whole tree: build's walk of the
    # root serves round 0, and each later round walks once after patching
    root, dist = build(A, domain, bvec, 0)
    reports = []
    for k in range(depth):
        if k > 0:
            slots = _open_slots(dist, INDUCTIVE)
            for s in slots:
                s.patch(build(s.A, s.domain, s.b, k)[0])
            n_patched = len(slots)
            dist = root.distribution()
        else:
            n_patched = 1
        err = _moment_of(dist, (ERROR, RESIDUAL, INDUCTIVE), r)
        if err > 2.0 ** -k * vol * (1.0 + 1e-9):
            raise VerdictFailure(f"round {k}: error moment {err} above budget")
        const = _tail_constant(dist, p, normA, r, vol, t_grid)
        if const > 2.0 * M ** p * (1.0 + 1e-9):
            raise VerdictFailure(f"round {k}: tail constant {const} above 2 M^p")
        reports.append(RoundReport(k, err, const, n_patched))
    return PiecewiseAffineMap(root, A, bvec)._seal(dist), reports


def gradient_distribution(m: PiecewiseAffineMap) -> tuple[DiscreteMeasure, float]:
    """Normalized gradient push-forward of a sealed map; the uncovered volume
    is reported separately."""
    return m.gradient_distribution()


# ---------------------------------------------------------------------------
# verification by sampling


@dataclass
class MapVerification:
    boundary_max: float
    continuity_max: float
    holder_estimate: float
    holder_alpha: float
    grad_samples_max: float
    grad_bound: float
    samples: int
    notes: list = field(default_factory=list)


def _loop_max(screen: np.ndarray, exact) -> float:
    """max(0.0, exact(k) over the rows k), the value a pointwise loop keeps.

    exact(k) takes a 1-D np.linalg.norm, whose BLAS sum of squares can differ
    in the last bit from the array norms in ``screen``.  So only the rows
    whose screened value lies within a relative 1e-12 of the screened maximum
    are recomputed exactly; the absolute 1e-150 keeps rows whose squares
    underflow.  NaN rows are skipped, as max() skips them.
    """
    top = np.max(screen, initial=0.0, where=~np.isnan(screen))
    if not top > 0.0:
        return 0.0
    cand = np.nonzero(screen >= top * (1.0 - 1e-12) - 1e-150)[0]
    return max(0.0, *(exact(k) for k in cand))


def _halton(n: int, d: int) -> np.ndarray:
    """The first n points of the unscrambled Halton sequence in [0, 1)^d,
    d <= 3 (bases 2, 3, 5), as an (n, d) array.  Each radical inverse adds
    digit * f least significant digit first, with f /= base per digit; the
    sampled checks of verify_map depend on these exact floats."""
    out = np.zeros((n, d))
    for j, base in enumerate((2, 3, 5)[:d]):
        q = np.arange(n)
        f = 1.0 / base
        while q.any():
            out[:, j] += (q % base) * f
            f /= base
            q //= base
    return out


def verify_map(m, A=None, b=None, alpha: float = 0.5,
               sample_budget: int = 10_000) -> MapVerification:
    """Deterministic sampled checks: boundary residual against the affine
    datum, Lipschitz-scaled continuity second differences, and a stratified
    Hölder quotient (a sampled lower estimate, never an exact norm).

    m is a sealed PiecewiseAffineMap or a deserialized CellMap.  Both meet
    one map protocol by duck typing:

      domain                   the OBox the map is defined on
      boundary_affine          (A, b), the affine datum on the boundary
      evaluate_many(X)         values at points X of shape (k, 2), shape (k, 2)
      gradient_many(X)         gradients at X, shape (k, 2, 2)
      grad_bound()             a bound on every gradient norm
      gradient_distribution()  (normalized gradient measure, residual volume)
      swap_components()        the map x -> P u(P x) with P the coordinate swap

    verify_map reads domain, grad_bound, evaluate_many, gradient_many and,
    unless A and b are given, boundary_affine.  All samples of a check go
    through one batched call; single-point evaluation is the k = 1 case of
    the same path, and every field of the report equals, bit for bit, what
    evaluating the same Halton samples one at a time gives."""
    if A is None or b is None:
        A, b = m.boundary_affine
    A = asmatrix(A)
    bvec = _vec(b)
    dom = m.domain
    diam = 2.0 * float(np.linalg.norm(dom.half))
    gbound = m.grad_bound()

    def norm(r) -> float:
        return float(np.linalg.norm(r))

    nb = max(sample_budget // 2, 16)
    ts = _halton(nb, 1).ravel()
    x = dom.boundary_points(ts)
    res = m.evaluate_many(x) - (_apply(A, x) + bvec)
    bmax = _loop_max(np.linalg.norm(res, axis=1), lambda k: norm(res[k]))

    ni = max(sample_budget // 4, 16)
    uv = _halton(ni, 2)
    h = 1e-9 * diam / (1.0 + gbound)
    golden = 2.399963229728653
    x = dom.interior_points(uv, margin=1e-3)
    d = np.array([(math.cos(golden * idx), math.sin(golden * idx))
                  for idx in range(ni)])
    xp, xm = x + h * d, x - h * d
    keep = dom.contains_many(xp) & dom.contains_many(xm)
    k = int(np.count_nonzero(keep))
    e = m.evaluate_many(np.concatenate([xp[keep], xm[keep], x[keep]]))
    second = e[:k] + e[k:2 * k] - 2.0 * e[2 * k:]
    cmax = _loop_max(np.linalg.norm(second, axis=1),
                     lambda r: norm(second[r]) / (2.0 * h))

    nh = max(sample_budget // 4, 16)
    uv2 = _halton(nh, 3)
    scales = 12
    rads = [diam * 2.0 ** -(j + 2) for j in range(scales)]
    scale = np.arange(nh) % scales
    x = dom.interior_points(uv2[:, :2], margin=1e-3)
    d = np.array([(math.cos(2.0 * math.pi * wq), math.sin(2.0 * math.pi * wq))
                  for wq in uv2[:, 2]])
    y = x + np.array(rads)[scale, None] * d
    keep = dom.contains_many(y)
    k = int(np.count_nonzero(keep))
    e = m.evaluate_many(np.concatenate([y[keep], x[keep]]))
    dev = e[:k] - e[k:] - _apply(A, y[keep] - x[keep])
    qpow = np.array([r ** alpha for r in rads])[scale[keep]]
    hq = _loop_max(np.linalg.norm(dev, axis=1) / qpow,
                   lambda r: norm(dev[r]) / float(qpow[r]))

    g = m.gradient_many(dom.interior_points(uv[: min(ni, 512)], margin=1e-3))
    gs = _loop_max(np.linalg.norm(g, axis=(1, 2)), lambda r: frob(g[r]))

    return MapVerification(bmax, cmax, hq, alpha, gs, gbound,
                           nb + ni + nh,
                           notes=["holder_estimate is a sampled lower estimate"])
