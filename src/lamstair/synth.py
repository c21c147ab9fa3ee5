"""Piecewise-affine realization of laminates on box domains.

A realized map is a tree of construction nodes.  Every non-affine node
records only its deviation from its own affine part, so shared templates are
instanced by translation and scaling alone -- never rotation.  Cell volumes
and error moments are exact closed-form bookkeeping: nodes declare local
parts (leaf atoms, children with a volume factor), and the distribution walk
emits one row per leaf atom, applying factors innermost first.  A node keeps
the walk that ``distribution()`` made of it, as columns; every query reads
that walk, and a sealed map asks its root.  The next call splices in the
slots patched since: each run of leaf parts that held such a slot is
emitted again from its node's ``_parts()``, with the walk of the patched
subtree (moved in if that subtree keeps one), scaled by the path factors
innermost first, one array multiply per factor; every other row is copied.
So the rounds of ``reduce_exact`` do not walk the whole tree again.  Maps
evaluate through one batched path (``evaluate_many``,
``gradient_many``; sampled verification and ``cells()`` use it);
single-point ``evaluate``/``gradient_at`` on a sealed map are its k = 1
case.  Evaluation is reliable on shallow structures (deeply nested oscillations lose
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
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .boxes import _P_SWAP, OBox, _apply, _per_row, box
from .errors import (
    InternalError,
    InvalidSplitError,
    PreconditionError,
    UnsupportedError,
    VerdictFailure,
)
from .matrices import _dots, asmatrix, frob
from .measures import Certificate, DiscreteMeasure, _seq_sum, verify_laminate

__all__ = [
    "OBox", "box", "PiecewiseAffineMap", "MapVerification",
    "roof", "realize_finite_laminate", "realize_staircase", "realize_extended",
    "reduce_exact", "verify_map",
    "cert_tree", "CertNode",
]

GOOD, ERROR, INDUCTIVE, RESIDUAL = "good", "error", "inductive", "residual"

_MAX_CELLS_DEFAULT = 20_000
_DESIGN: list = []   # verify_map's samples (H, d, u), built by _design on first use

# default truncation of the rotated dyadic covers (uncovered fraction)
THETA_MIN = 1e-3


def _vec(b) -> np.ndarray:
    out = np.zeros(2) + np.asarray(b, dtype=float)
    if out.shape != (2,):
        raise PreconditionError("offset must broadcast to a 2-vector")
    return out


def _perp(v: np.ndarray) -> np.ndarray:
    return np.array([-v[1], v[0]])


def _require_2x2(*mats) -> None:
    for M in mats:
        if np.shape(M) != (2, 2):
            raise PreconditionError(f"maps are realized for 2x2 gradients, got shape "
                                    f"{np.shape(M)}")


def _points(X) -> np.ndarray:
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != 2:
        raise PreconditionError(f"expected points of shape (k, 2), got {X.shape}")
    return X


def _emit_cell(out: list, limit: int, verts: list, A: np.ndarray, flag: str) -> None:
    if len(out) >= limit:
        raise UnsupportedError(f"cell enumeration exceeds budget {limit}")
    out.append((verts, A, flag))


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
    a (vertices, A, flag) row per cell to out): it yields its children's
    generators of the same walk, gets each child's return value back from
    the yield, and returns its own.
    ``_parts()`` lists local distribution parts: leaf atoms (vol, G, flag,
    slot) and child entries (child, volume factor or None); it is the only
    definition of a node's distribution.  A patch may change only the run
    of leaf parts that holds the patched slot's part (``_splice`` checks
    the parts around it).  Nodes evaluate
    only in batches: X is a C-contiguous float array of shape (k, 2), and
    row r depends on X[r] alone, bit for bit, so a single point is the batch
    X[None] (k = 1)."""

    domain: OBox
    A: np.ndarray
    b: np.ndarray
    _kept: "_Walk | None" = None   # the last distribution walk, see _update

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

    def distribution(self) -> "_Walk":
        """The walk of this node, one row per leaf atom, kept on the node: a
        later call splices in the slots patched since, or returns it as is."""
        return _drive(self._update())

    def _watch(self, leaves) -> list:
        """The open slots whose patch changes these leaf parts of ours."""
        return [p[3] for p in leaves if p[3] is not None]

    def _update(self):
        """Bring the kept walk up to date and return it, as a ``_drive``
        operation.  A first call walks the tree below; a later one splices
        in the slots patched since."""
        walk = self._kept
        if walk is None:
            walk = _Walk()
            parts = self._parts()
            yield _emit(self, parts, 0, len(parts), None, walk)
            walk.finish()
        else:
            walk = yield _splice(walk)
        self._kept = walk
        return walk


class _Walk:
    """A distribution walk, the one form of a map's distribution: one row per
    atom as columns (vol a read-only float array once finished, a list while
    it is built; G, flag and slot lists; norms on first use) and the sites,
    in row order.  A finished walk is not changed."""

    def __init__(self):
        self.vol, self.G, self.flag, self.slot, self.sites = [], [], [], [], []

    def __len__(self) -> int:
        return len(self.G)

    def finish(self) -> "_Walk":
        self.vol = np.array(self.vol, dtype=float)
        self.vol.flags.writeable = False
        return self

    @cached_property
    def norms(self) -> np.ndarray:
        """frob(G) of each row, read-only, bit for bit: each G is flattened
        in the order frob reads it, and sqrt(_dots) is frob."""
        x = np.array([G.ravel("K") for G in self.G]) if self.G else np.zeros((0, 4))
        out = np.sqrt(_dots(x, x))
        out.flags.writeable = False
        return out

    def copy(self, walk: "_Walk", lo: int, hi: int) -> None:
        """Append rows lo to hi of the finished walk, without their sites."""
        self.vol.extend(walk.vol[lo:hi].tolist())
        self.G.extend(walk.G[lo:hi])
        self.flag.extend(walk.flag[lo:hi])
        self.slot.extend(walk.slot[lo:hi])

    def extend(self, walk: "_Walk", vol: np.ndarray, path: tuple) -> None:
        """Append walk's rows with volumes vol, and its sites moved here with
        their paths continued by path."""
        at = len(self.vol)
        self.vol.extend(vol.tolist())
        self.G.extend(walk.G)
        self.flag.extend(walk.flag)
        self.slot.extend(walk.slot)
        self.sites.extend(s.moved(at, path) for s in walk.sites)


@dataclass(eq=False, slots=True)
class _Site:
    """Where a patch can change a walk: the run of leaf parts parts[lo:hi]
    of node E (the list E._parts() gave), whose rows start at row `at`.
    path scales E's volumes into the walk's frame: cons lists (f, rest) or
    None, each innermost first, applied in order, so that walks copied into
    another share their factors.  watch holds the open slots whose patch
    changes the run."""
    E: MapNode
    parts: list
    lo: int
    hi: int
    path: tuple
    at: int
    watch: list

    def moved(self, at: int, path: tuple = ()) -> "_Site":
        if not (at or path):
            return self
        return _Site(self.E, self.parts, self.lo, self.hi, self.path + path,
                     self.at + at, self.watch)


def _factors(cons) -> list:
    """The factors of a cons list (f, rest), innermost first."""
    out = []
    while cons is not None:
        f, cons = cons
        out.append(f)
    return out


def _scale(vol: np.ndarray, path: tuple) -> np.ndarray:
    """vol times each factor of path, innermost first."""
    for cons in path:
        for f in _factors(cons):
            vol = f * vol
    return vol


def _emit(E: MapNode, parts: list, lo: int, hi: int, cons, out: _Walk):
    """Append the rows of E's parts[lo:hi] to out, as a ``_drive``
    operation; cons holds the factors from out's frame down to E.  A child
    that keeps a walk is brought up to date and its walk moved into out,
    scaled by one array multiply per factor; any other child is walked in
    turn.  Each run of leaf parts that watches an open slot becomes a
    site."""
    fs = None   # the factors of cons, unrolled at the first leaf
    run, at = lo, len(out.vol)
    for i in range(lo, hi + 1):   # i == hi closes the last run
        part = parts[i] if i < hi else ()
        if len(part) == 4:
            vol, G, flag, slot = part
            if fs is None:
                fs = _factors(cons)
            for f in fs:
                vol = f * vol
            out.vol.append(vol)
            out.G.append(G)
            out.flag.append(flag)
            out.slot.append(slot)
            continue
        if run < i:
            watch = E._watch(parts[run:i])
            if watch:
                out.sites.append(_Site(E, parts, run, i, (cons,), at, watch))
        if not part:
            return out
        child, f = part
        ccons = cons if f is None else (f, cons)
        if child._kept is not None:   # the walk moves into out, so walks stay linear in rows
            walk = yield child._update()
            child._kept = None
            out.extend(walk, _scale(walk.vol, (ccons,)), (ccons,))
        else:
            cparts = child._parts()
            yield _emit(child, cparts, 0, len(cparts), ccons, out)
        run, at = i + 1, len(out.vol)


def _same_part(p: tuple, q: tuple) -> bool:
    if len(p) != len(q):
        return False
    if len(p) == 2:
        return p[0] is q[0] and p[1] == q[1]
    return p[0] == q[0] and p[1] is q[1] and p[2] == q[2] and p[3] is q[3]


def _splice(walk: _Walk):
    """walk brought up to date, as a ``_drive`` operation: each site with a
    patched watched slot is re-emitted from its node's ``_parts()`` and
    scaled by the site's path; every other row is copied."""
    redo = [not all(sl.inner is None for sl in s.watch) for s in walk.sites]
    if not any(redo):
        return walk
    new, row = _Walk(), 0
    for s, stale in zip(walk.sites, redo):
        if not stale:
            new.sites.append(s.moved(len(new.vol) - row))
            continue
        parts = s.E._parts()
        hi = s.hi + len(parts) - len(s.parts)
        if hi < s.lo or not all(map(_same_part, parts[:s.lo] + parts[hi:],
                                    s.parts[:s.lo] + s.parts[s.hi:])):
            raise InternalError(f"{type(s.E).__name__} parts changed outside "
                                "the run of a patched slot")
        block = yield _emit(s.E, parts, s.lo, hi, None, _Walk())
        new.copy(walk, row, s.at)
        new.extend(block, _scale(np.array(block.vol, dtype=float), s.path), s.path)
        row = s.at + s.hi - s.lo
    new.copy(walk, row, len(walk))
    return new.finish()


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
        _emit_cell(out, limit, list(shift + scale * self.domain.corners()),
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
                 eta, ax: int, s_t: float,
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
        # every tooth's edges and vertices in one array pass, each element by
        # the float expression of one tooth at a time, so the bits are the same
        k = np.arange(self.n)
        T0 = -self.h0 + k * self.P
        Tm = T0 + self.lam1 * self.P
        T1 = T0 + self.P

        def pts(*ty):  # per tooth, the points at frame coordinates (t, y), shifted and scaled
            return np.stack([shift + scale * (self.domain.center
                                              + np.multiply.outer(self.s_t * t, F[:, self.ax])
                                              + F[:, self.ay] * y) for t, y in ty], axis=1)

        # one tooth's cells in order: (vertices, A, flag, None) per cell,
        # (shifts, None, None, slot) per inner slot; row i of each is tooth i's
        items = []
        for side, ta, tb in ((1, T0, Tm), (2, Tm, T1)):
            Ai = self.A1 if side == 1 else self.A2
            slot = self.slots[side]
            te = ta if side == 1 else tb
            if slot.inner is None and slot.flag == GOOD:
                # slab trapezoid: full height at the tooth edge, h1 - w at peak
                items.append((pts((te, -h1), (Tm, -(h1 - w)), (Tm, h1 - w), (te, h1)),
                              Ai, GOOD, None))
                continue
            ct = self._core_center(k, side)
            if slot.inner is None:
                items.append((shift + scale * (ct[:, None] + slot.domain.corners()),
                              Ai, slot.flag, None))
            else:
                items.append((shift + scale * ct, None, None, slot))
            items.extend((pts((ta, sy * (h1 - w)), (tb, sy * (h1 - w)), (te, sy * h1)),
                          Ai, self.aux_flag, None) for sy in (1.0, -1.0))
        items.extend((pts((T0, sy * h1), (Tm, sy * (h1 - w)), (T1, sy * h1)),
                      self.cap_grad[+1 if sy > 0 else -1], self.aux_flag, None)
                     for sy in (1.0, -1.0))
        for i in range(self.n):
            for V, A, flag, slot in items:
                if slot is None:
                    _emit_cell(out, limit, list(V[i]), A, flag)
                else:
                    yield slot._cells(out, V[i], scale, limit)


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

    def _centers(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Centers of the tiles (i, j), one row per float index pair."""
        h, tile = self.domain.half, self.tile
        return self.domain.to_world_many(np.column_stack(
            [-h[0] + (2.0 * i + 1.0) * tile[0], -h[1] + (2.0 * j + 1.0) * tile[1]]))

    def _tile_centers(self, X) -> np.ndarray:
        """Center of the tile holding each point."""
        z = self.domain.to_local_many(X)
        h, tile = self.domain.half, self.tile
        i = np.clip(np.trunc((z[:, 0] + h[0]) / (2.0 * tile[0])), 0, self.k0 - 1)
        j = np.clip(np.trunc((z[:, 1] + h[1]) / (2.0 * tile[1])), 0, self.k1 - 1)
        return self._centers(i, j)

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
        i, j = np.indices((self.k0, self.k1), dtype=float).reshape(2, -1)
        for ct in shift + scale * self._centers(i, j):
            yield self.template._cells(out, ct, scale * self.sigma, limit)


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
    Level l's tiles have half-width sigma0 * 2**-l.  In each row j, the tiles
    that fit in the box form one interval, and those of earlier levels form
    one more: the last level's union in row j >> 1, at twice the resolution
    (an `InternalError` where not).  `levels` holds per level (level, tile
    count, `_lex_keys(J, I0)`, J, I0, I1): the first interval minus the
    second, at most two intervals per row, as rows J and indices I0..I1
    (floats) in (row, first index) order."""

    MAX_LEVELS = 30
    MAX_TILES = 1_000_000

    def __init__(self, domain: OBox, A, b, theta: float, template: MapNode):
        self.domain = domain
        self.A = asmatrix(A)
        self.b = _vec(b)
        self.theta = float(theta)
        self.template = template
        if np.max(np.abs(template.domain.half - 1.0)) > 1e-12:
            raise InternalError("cover template must have unit half-widths")
        self.Ft = template.domain.frame
        self.sigma0 = float(np.min(domain.half)) / 2.0
        M = domain.frame.T @ self.Ft
        vol = domain.volume
        covered, n_tiles = 0.0, 0
        self.levels = []
        hyp = float(np.linalg.norm(domain.half))
        prev = None  # the last level's first row and per row its union lo..hi
        for level in range(self.MAX_LEVELS):
            s = self.sigma0 * 2.0 ** -level
            hk = [domain.half[k] - s * (abs(M[k, 0]) + abs(M[k, 1])) for k in (0, 1)]
            if min(hk) <= 0.0:
                continue
            jmax = int(hyp / s / 2.0) + 1
            j = np.arange(-jmax - 1, jmax + 1)
            lo, hi, ok = -math.inf, math.inf, np.ones(len(j), dtype=bool)
            for k in (0, 1):
                a, c, d = M[k, 0], M[k, 1] * (2 * j + 1), hk[k] / s
                if abs(a) < 1e-14:
                    ok &= np.abs(c) <= d
                    continue
                l1, l2 = (-d - c) / a, (d - c) / a
                lo = np.maximum(lo, np.minimum(l1, l2))
                hi = np.minimum(hi, np.maximum(l1, l2))
            i_lo = np.ceil((lo - 1.0) / 2.0 - 1e-12)
            i_hi = np.floor((hi - 1.0) / 2.0 + 1e-12)
            ok &= (lo <= hi) & (i_lo <= i_hi)
            e_lo, e_hi = np.zeros(len(j), np.int64), np.full(len(j), -1)
            if prev is not None:
                # prev is level - 1 (hk grows with the level), and its rows
                # hold every j >> 1 (this jmax is at most twice its jmax)
                r = (j >> 1) - prev[0]
                e_lo, e_hi = prev[1][r] << 1, ((prev[2][r] + 1) << 1) - 1
            # an empty interval is put where it touches the other: no candidates
            # just past the earlier tiles, no earlier tiles just before them
            i_lo = np.where(ok, i_lo, e_hi + 1).astype(np.int64)
            i_hi = np.where(ok, i_hi, e_hi).astype(np.int64)
            none = e_lo > e_hi
            e_lo, e_hi = np.where(none, i_lo, e_lo), np.where(none, i_lo - 1, e_hi)
            if (gap := np.maximum(i_lo, e_lo) > np.minimum(i_hi, e_hi) + 1).any():
                raise InternalError(f"rotated cover level {level}, row {j[gap][0]}: "
                                    "earlier tiles and candidates are not one interval")
            prev = (j[0], np.minimum(i_lo, e_lo), np.maximum(i_hi, e_hi))
            # the candidates left and right of the earlier tiles
            F0 = np.column_stack([i_lo, np.maximum(i_lo, e_hi + 1)])
            F1 = np.column_stack([np.minimum(i_hi, e_lo - 1), i_hi])
            row_cnt = np.maximum(F1 - F0 + 1, 0).sum(axis=1)
            for area in (row_cnt[row_cnt > 0] * (2.0 * s) ** 2).tolist():
                covered += area   # row by row: the order of the float sum
            count = int(row_cnt.sum())
            n_tiles += count
            if n_tiles > self.MAX_TILES:
                raise InternalError(f"rotated cover tile budget exceeded at level {level}: "
                                    f"{n_tiles} tiles > {self.MAX_TILES} (theta {self.theta:g})")
            if count:
                keep = (F0 <= F1).ravel()
                J, I0, I1 = (x.ravel()[keep].astype(float) for x in (np.repeat(j, 2), F0, F1))
                self.levels.append((level, count, _lex_keys(J, I0), J, I0, I1))
            if vol - covered <= self.theta * vol:
                break
        self.covered = covered
        self.residual = max(vol - covered, 0.0)

    def _centers(self, s: float, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Centers of the half-width s tiles (i, j), one row per index pair."""
        return self.domain.center + _apply(self.Ft, np.column_stack(
            [2.0 * s * (i + 0.5), 2.0 * s * (j + 0.5)]))

    def _find_tiles(self, X):
        """The indices of the points that some tile holds, with the tile
        scales and tile centers."""
        q = _apply(self.Ft.T, X - self.domain.center)
        todo = np.arange(len(X))
        hits, scales, centers = [], [], []
        for level, _, keys, J, _, I1 in self.levels:
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
            centers.append(self._centers(s, i[hit], j[hit]))
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
                     for level, cnt, *_ in self.levels)
        residual = [(self.residual, self.A, RESIDUAL, None)] if self.residual > 0.0 else []
        return [(self.template, factor)] + residual

    def _bounds(self):
        dev, grad = yield self.template._bounds()
        return self.sigma0 * dev, max(grad, frob(self.A))

    def _cells(self, out, shift, scale, limit):
        for level, _, _, J, I0, I1 in self.levels:
            s = self.sigma0 * 2.0 ** -level
            # the level's tiles in interval order, each interval's i ascending
            cnt = (I1 - I0 + 1.0).astype(np.intp)
            i = np.repeat(I0, cnt) + (np.arange(cnt.sum()) - np.repeat(np.cumsum(cnt) - cnt, cnt))
            for ct in shift + scale * self._centers(s, i, np.repeat(J, cnt)):
                yield self.template._cells(out, ct, scale * s, limit)


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
    """Binary splitting tree replaying a sequential certificate, read off
    the rows of `Certificate.of(steps)`.  A step expands every open leaf
    carrying its target matrix, matching the merge semantics of atomic
    measures.  The nodes' matrices are the rows of one flat stack with an
    open mask: a step matches every open leaf by one stacked distance
    (bit-equal to `frob`) and clears the matched bits."""
    cert = Certificate.of(steps)
    if not cert:
        if root is None:
            raise PreconditionError("empty certificate needs an explicit root")
        return CertNode(asmatrix(root))
    root_A = asmatrix(cert.mats[0, 0] if root is None else root)
    nodes, flat, is_open = [CertNode(root_A)], root_A.reshape(1, -1), np.ones(1, dtype=bool)
    for lam, (tgt, left, right) in zip(cert.lams, cert.mats):
        d = flat - tgt.reshape(-1)
        hit = np.flatnonzero(is_open & (np.sqrt(_dots(d, d)) <= tol * (1.0 + frob(tgt))))
        if not hit.size:
            raise InvalidSplitError("certificate step targets no open leaf")
        for i in hit.tolist():
            nd = nodes[i]
            nd.lam, nd.left, nd.right = lam, CertNode(left), CertNode(right)
            nodes.extend((nd.left, nd.right))
        is_open[hit] = False
        flat = np.concatenate([flat, np.tile([left.ravel(), right.ravel()], (len(hit), 1))])
        is_open = np.concatenate([is_open, np.ones(2 * len(hit), dtype=bool)])
    return nodes[0]


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
    rm = RoofMap(rdom, A, rb, A1, A2, lam, eta, ax, s_t,
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


class PiecewiseAffineMap:
    """Sealed realization: a construction tree plus its boundary affine map.
    Its queries read the root's walk, so they see slots patched later."""

    def __init__(self, root: MapNode, boundary_A, boundary_b):
        self.root = root
        self.domain = root.domain
        self.boundary_affine = (asmatrix(boundary_A), _vec(boundary_b))

    def seal(self) -> "PiecewiseAffineMap":
        """Check that the cell volumes sum to the domain volume."""
        total = _seq_sum(self.distribution().vol.tolist())
        vol = self.domain.volume
        if abs(total - vol) > 1e-9 * vol:
            raise InternalError(f"cell volumes sum to {total}, domain has {vol}")
        return self

    def distribution(self) -> _Walk:
        """The root's walk (see ``MapNode.distribution``)."""
        return self.root.distribution()

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
        walk = self.distribution()
        return _seq_sum(v for v, f in zip(walk.vol.tolist(), walk.flag) if f == RESIDUAL)

    def gradient_distribution(self) -> tuple[DiscreteMeasure, float]:
        walk = self.distribution()
        keep = (np.array(walk.flag) != RESIDUAL) & (walk.vol > 0.0)
        return (DiscreteMeasure.from_stack(walk.vol[keep] / self.domain.volume,
                                           np.array(walk.G)[keep]),
                self.residual_volume)

    def volume_of(self, G, flags=(GOOD,), tol: float = 1e-9) -> float:
        G = asmatrix(G)
        walk = self.distribution()
        return _seq_sum(v for v, Gi, f in zip(walk.vol.tolist(), walk.G, walk.flag)
                        if f in flags and frob(Gi - G) <= tol * (1.0 + frob(G)))

    def error_moment(self, s: float, flags=(ERROR, RESIDUAL)) -> float:
        return _moment_of(self.distribution(), flags, s)

    def sup_dev(self) -> float:
        return self.root.sup_dev()

    def grad_bound(self) -> float:
        return self.root.grad_bound()

    def cells(self, max_cells: int = _MAX_CELLS_DEFAULT):
        """The map's cells, at most max_cells of them, as the
        ``serialize.CellMap`` that ``dump_map`` writes.  Every role other
        than GOOD (errors, inductive slots, cover residuals) is an error
        cell from the consumer's point of view.  Each cell's offset b makes its
        affine piece take the map's value at the cell centroid.  A
        non-finite cell gradient is a PreconditionError."""
        from .serialize import CellMap, _padded   # only map writers need serialize
        rows: list = []
        _drive(self.root._cells(rows, np.zeros(2), 1.0, max_cells))
        verts, mats, flags = zip(*rows)
        V, counts = _padded(verts)
        # asmatrix's check of each cell gradient, over the whole stack
        A = asmatrix(np.array(mats, dtype=float).reshape(-1, 2)).reshape(-1, 2, 2)
        cm = CellMap(self.domain, self.boundary_affine, V, counts, A, None,
                     ["good" if f == GOOD else "error" for f in flags],
                     self.residual_volume)
        X = cm.centroids
        cm.b = self.evaluate_many(X) - _per_row(A, X)
        return cm

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
        # the base walk's G as one stack: P @ G @ P does not keep the sign of -0.0
        walk = self.base.distribution()
        G = np.matmul(np.matmul(_P_SWAP, np.array(walk.G).reshape(-1, 2, 2)), _P_SWAP)
        return list(zip(walk.vol.tolist(), G, walk.flag, [None] * len(walk)))

    def _watch(self, leaves):
        # the parts are the base walk's rows: a patch in the base changes them
        return [sl for site in self.base._kept.sites for sl in site.watch]

    def _bounds(self):
        return (yield self.base._bounds())

    def _cells(self, out, shift, scale, limit):
        inner: list = []
        yield self.base._cells(inner, np.zeros(2), 1.0, limit)
        # _per_row, not _apply: the probe checks no signed zeros from P's zeros
        for verts, A, flag in inner:
            _emit_cell(out, limit, list(shift + scale * _per_row(_P_SWAP, np.array(verts))),
                       _P_SWAP @ A @ _P_SWAP, flag)


# ---------------------------------------------------------------------------
# public constructors


def roof(A, b, A1, A2, lam1: float, domain: OBox, eps: float) -> PiecewiseAffineMap:
    """Single lamination of the affine map (A, b) into gradients A1, A2 with
    volume fractions within (1 +- eps) of (lam1, 1-lam1), exact affine
    boundary values, and gradient norms bounded by max(|A1|, |A2|)."""
    A, A1, A2 = asmatrix(A), asmatrix(A1), asmatrix(A2)
    _require_2x2(A, A1, A2)
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
    if not nu.certificate:
        root = nu.atoms[0].point
    else:
        root = nu.certificate.mats[0, 0]
        if A is not None:
            _require_2x2(asmatrix(A), root)
            if frob(asmatrix(A) - root) > 1e-8 * (1.0 + frob(root)):
                raise PreconditionError("laminate root differs from the requested barycenter")
    return _realize(nu, domain, root if A is None else asmatrix(A), b, eps, delta,
                    s_moment, theta_min)


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
    if A is not None:
        _require_2x2(asmatrix(A), spec.A0)
        if frob(asmatrix(A) - spec.A0) > 1e-9 * (1.0 + frob(spec.A0)):
            raise PreconditionError("seed differs from the staircase root")
    nu = build_truncation(spec, N)
    return _realize(nu, domain, spec.A0, b, eta, delta, s_moment, theta_min,
                    inductive=(remainder(spec, N)[1],))


def realize_extended(ext, domain: OBox | None = None, delta: float = 0.05,
                     depth: int = 4) -> PiecewiseAffineMap:
    """Realize the depth-truncation of an extended measure, error cells
    budgeted in their 2-moment; tail remainders become inductive cells."""
    from .staircase import remainder
    if domain is None:
        domain = box((0.0, 0.0), (1.0, 1.0))
    nu = ext.truncate(depth)
    return _realize(nu, domain, ext.A, 0.0, min(float(delta), 0.5), math.inf, 2.0,
                    THETA_MIN, inductive=[remainder(sp, depth)[1] for _, sp in ext.tails])


def _realize(nu: DiscreteMeasure, domain: OBox, A, b, eps: float, delta: float,
             s_moment: float, theta_min: float, inductive=()) -> PiecewiseAffineMap:
    """The sealed map with boundary datum (A, b) realizing nu's certificate
    on domain, under per-node budgets (`_Budget`) of volume slack eps / 4 in
    the s-moment and deviation delta.  A leaf within 1e-9 (1 + |R|) of a
    remainder R in `inductive` is an inductive cell, every other leaf a good
    one; an uncertified single atom is the affine map itself."""
    _require_2x2(A)
    if _needs_norm(domain):
        # the root's grid cover volume factor, as `GridCover._parts` takes it,
        # must keep the volume that `seal` checks
        (k0, k1), sigma, tdom = GridCover.plan(domain)
        factor = float(k0) * float(k1) * sigma ** 2
        if not abs(factor * tdom.volume - domain.volume) <= 1e-9 * domain.volume:
            raise PreconditionError(f"{domain} is too small to cover: the grid cover's "
                                    f"volume factor {factor!r} underflows")
    if len(nu) == 1 and not nu.certificate:
        node: MapNode = SlotMap(domain, A, b, flag=GOOD)
    else:
        def leaf_fn(G):
            if any(frob(G - R) <= 1e-9 * (1.0 + frob(R)) for R in inductive):
                return INDUCTIVE
            return GOOD

        budget = _Budget(eps / 4.0, delta, s_moment, theta_min)
        node = _drive(_realize_node(cert_tree(nu.certificate), domain, A, b, budget,
                                    leaf_fn, ERROR))
    return PiecewiseAffineMap(node, A, b).seal()


# ---------------------------------------------------------------------------
# the exact-solution recursion


@dataclass
class RoundReport:
    round: int
    error_moment: float
    tail_constant: float
    patched_slots: int
    notes: list = field(default_factory=list)


def _moment_of(walk: _Walk, flags, r: float) -> float:
    """The sum of vol * (1 + |G|^r) over the rows of the given flags, left
    to right from the int 0; the power is Python's, one row at a time."""
    return _seq_sum(v * (1.0 + n ** r)
                    for v, n, f in zip(walk.vol.tolist(), walk.norms.tolist(), walk.flag)
                    if f in flags)


def _open_slots(walk: _Walk, flag: str) -> list[SlotMap]:
    """The unpatched slots of the given flag in a distribution walk, in walk
    order; template slots are shared across instances, so each slot is
    listed once."""
    return list({id(s): s for s, f in zip(walk.slot, walk.flag)
                 if f == flag and s is not None and s.inner is None}.values())


def _tail_constant(walk: _Walk, p: float, normA: float, r: float, vol: float,
                   t_grid) -> float:
    norms, vols = walk.norms, walk.vol
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

    alpha is only forwarded to step_builder; neither `stages.stage3_builder`
    nor `stages.product_builder` reads it.
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
        walk = node.distribution()
        dvol = dom.volume
        if _moment_of(walk, (ERROR, RESIDUAL), r) > sf * growth * dvol * (1.0 + 1e-9):
            raise VerdictFailure(f"round {k}: step output breaks its slack bound")
        if _moment_of(walk, (INDUCTIVE,), r) > inf_frac * growth * dvol * (1.0 + 1e-9):
            raise VerdictFailure(f"round {k}: step output breaks its inductive bound")
        return node, walk

    # walk is always the latest walk of the whole tree: build's walk of the
    # root serves round 0, and each later round walks once after patching
    root, walk = build(A, domain, bvec, 0)
    reports = []
    for k in range(depth):
        if k > 0:
            slots = _open_slots(walk, INDUCTIVE)
            for s in slots:
                s.patch(build(s.A, s.domain, s.b, k)[0])
            n_patched = len(slots)
            walk = root.distribution()
        else:
            n_patched = 1
        err = _moment_of(walk, (ERROR, RESIDUAL, INDUCTIVE), r)
        if err > 2.0 ** -k * vol * (1.0 + 1e-9):
            raise VerdictFailure(f"round {k}: error moment {err} above budget")
        const = _tail_constant(walk, p, normA, r, vol, t_grid)
        if const > 2.0 * M ** p * (1.0 + 1e-9):
            raise VerdictFailure(f"round {k}: tail constant {const} above 2 M^p")
        reports.append(RoundReport(k, err, const, n_patched))
    return PiecewiseAffineMap(root, A, bvec).seal(), reports


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


def _loop_max(rows: np.ndarray, div=1.0) -> float:
    """max(0.0, |row k| / div[k] over the rows k), the value a pointwise loop
    keeps, with |row| the Euclidean (Frobenius) norm of the raveled row.

    sqrt(_dots) of the flattened rows equals np.linalg.norm and frob of each
    row bit for bit, so one stacked pass gives the loop's exact maximum.  div
    is a scalar or one divisor per row.  NaN quotients are skipped, as max()
    skips them, and an empty stack gives 0.0.
    """
    flat = rows.reshape(len(rows), math.prod(rows.shape[1:]))
    q = np.sqrt(_dots(flat, flat)) / div
    return float(np.max(q, initial=0.0, where=~np.isnan(q)))


def _halton(n: int, d: int) -> np.ndarray:
    """The first n points of the unscrambled Halton sequence in [0, 1)^d,
    d <= 3 (bases 2, 3, 5), as an (n, d) array.  Each radical inverse adds
    digit * f least significant digit first, with f /= base per digit; the
    sampled checks of verify_map depend on these exact floats.  There are as
    many digits as n - 1 has (none for n <= 1), and the indices are held in
    the smallest unsigned type that fits, where division is cheapest."""
    out = np.zeros((n, d))
    for j, base in enumerate((2, 3, 5)[:d]):
        q = np.arange(n, dtype=np.min_scalar_type(max(n - 1, 0)))
        r = np.empty_like(q)
        f = 1.0 / base
        top = n - 1
        while top > 0:
            np.divmod(q, base, out=(q, r))
            out[:, j] += r * f
            f /= base
            top //= base
    return out


def _directions(ang: np.ndarray) -> np.ndarray:
    """Unit vectors (cos, sin) of the angles, by math.cos and math.sin: the
    sampled checks depend on these exact floats, and np.cos may differ in
    the last bit."""
    ang = ang.tolist()
    return np.stack([np.fromiter(map(math.cos, ang), float, len(ang)),
                     np.fromiter(map(math.sin, ang), float, len(ang))], axis=1)


def _design(nb: int, ni: int):
    """verify_map's Halton design H[:nb], golden-angle steps d[:ni] and Hölder
    directions u[:ni]: slices of one read-only design (row i depends on i
    alone), rebuilt at exactly nb rows only when it holds fewer."""
    if not _DESIGN or len(_DESIGN[0]) < nb:
        H = _halton(nb, 3)
        _DESIGN[:] = (H, _directions(2.399963229728653 * np.arange(nb)),
                      _directions(2.0 * math.pi * H[:, 2]))
        for a in _DESIGN:
            a.flags.writeable = False
    H, d, u = _DESIGN
    return H[:nb], d[:ni], u[:ni]


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
    unless A and b are given, boundary_affine.  The checks slice one Halton
    design (point i does not depend on the design's length), all samples of
    a check go through one batched call, and each maximum is one stacked
    norm pass (_loop_max).  Single-point evaluation is the k = 1 case
    of the same path, and every field of the report equals, bit for bit, what
    evaluating the same Halton samples one at a time gives.

    The design is built once per process, sliced on each call and read-only,
    so no call changes a later report; it holds 28 bytes per unit of the
    largest sample_budget so far (0.6 MB at 20,000, 28 MB at 1,000,000).

    alpha must be finite in (0, 1] and sample_budget an integer (not a bool)
    of at least 1; each check takes at least 16 samples."""
    if not 0.0 < alpha <= 1.0:
        raise PreconditionError(f"Holder exponent alpha must lie in (0, 1], got {alpha}")
    if isinstance(sample_budget, bool) or not hasattr(sample_budget, "__index__"):
        raise PreconditionError(f"sample_budget must be an integer, got {sample_budget!r}")
    sample_budget = operator.index(sample_budget)
    if sample_budget < 1:
        raise PreconditionError(f"sample_budget must be >= 1, got {sample_budget}")
    if A is None or b is None:
        A, b = m.boundary_affine
    A = asmatrix(A)
    bvec = _vec(b)
    dom = m.domain
    diam = 2.0 * float(np.linalg.norm(dom.half))
    gbound = m.grad_bound()

    nb = max(sample_budget // 2, 16)
    ni = max(sample_budget // 4, 16)   # interior samples per check
    H, d, u = _design(nb, ni)   # nb >= ni

    x = dom.boundary_points(H[:, 0])
    bmax = _loop_max(m.evaluate_many(x) - (_apply(A, x) + bvec))

    # the continuity, Hölder and gradient checks share their base points
    x = dom.interior_points(H[:ni, :2], margin=1e-3)
    h = 1e-9 * diam / (1.0 + gbound)
    xp, xm = x + h * d, x - h * d
    keep = dom.contains_many(xp) & dom.contains_many(xm)
    k = int(np.count_nonzero(keep))
    e = m.evaluate_many(np.concatenate([xp[keep], xm[keep], x[keep]]))
    cmax = _loop_max(e[:k] + e[k:2 * k] - 2.0 * e[2 * k:], 2.0 * h)

    scales = 12
    rads = [diam * 2.0 ** -(j + 2) for j in range(scales)]
    scale = np.arange(ni) % scales
    y = x + np.array(rads)[scale, None] * u
    keep = dom.contains_many(y)
    k = int(np.count_nonzero(keep))
    e = m.evaluate_many(np.concatenate([y[keep], x[keep]]))
    dev = e[:k] - e[k:] - _apply(A, y[keep] - x[keep])
    hq = _loop_max(dev, np.array([r ** alpha for r in rads])[scale[keep]])

    gs = _loop_max(m.gradient_many(x[:512]))

    return MapVerification(bmax, cmax, hq, alpha, gs, gbound, nb + 2 * ni,
                           notes=["holder_estimate is a sampled lower estimate"])
