"""Staircase laminates: block-built levels, truncations, weak-L^p hypothesis
checks, the four worked families and the extended measures with staircase tails.

A staircase spec produces, for each level n >= 1, a one-step laminate
omega_n = (1 - gamma_n) mu_n + gamma_n delta_{A_n} with barycenter A_{n-1},
certified by explicit splitting steps.  Truncating at N gives

    nu^N = sum_{n<=N} beta_{n-1} (1 - gamma_n) mu_n + beta_N delta_{A_N},

with beta_n = prod_{k<=n} gamma_k kept as an exact rational whenever the
construction data is rational.

Levels are array blocks (`_Block`): per level A_{n-1}, A_n, gamma_n, mu_n's
weights and points (merged and in key order, as `DiscreteMeasure` holds
them) and the splits with their fractions.  The float families (`elliptic`,
`plaplace`) build a block of levels at once, `transform_spec` maps a whole
block, and `_block_failure` validates one.  Specs built from a per-level
`step_fn` (the rational `det1` and `rank_drop`, custom specs) take the same
path: their steps are stacked into a block (`_Block.stack`).  `StairStep`,
mu's `DiscreteMeasure` and `SplittingStep` objects are made only on demand:
by `StaircaseSpec.step(n)`, and by a truncation's certificate, once per
level on first use.

`build_truncation` keeps a growing prefix on the spec (the validated
blocks, the scaled good atoms, beta_n and the last |A_n|), extends it in
blocks of `_BLOCK` levels, each level appended after its |A_n| monotonicity
check, and slices it, appending the remainder atom beta_N delta_{A_N}.  Each
level is built once per spec: a spec made by `transform_spec` keeps the only
prefix, and builds and validates its source's blocks without storing them.
A failure raises the error that a level-by-level build raises first and
leaves the prefix at the last good level.  A float spec's prefix atoms are
arrays and its truncation an `_ArrayMeasure`; a rational spec keeps `Atom`s
with exact `Fraction` weights.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import PreconditionError, InternalError
from .matrices import _dots, asmatrix, frob, member
from .measures import (
    MASS_SLACK,
    Atom,
    Certificate,
    DiscreteMeasure,
    SplittingStep,
    TailReport,
    TailRow,
    Weight,
    _ArrayMeasure,
    _group_sums,
    _key_groups,
    _seq_sum,
    _split_failure,
    _split_rows,
    _weight_error,
    _wadd,
    _wmul,
    mixture,
    tail_masses,
)

_BLOCK = 512   # levels built and validated together by build_truncation


def _as_fraction_list(values) -> list[Fraction] | None:
    out = []
    for v in values:
        if isinstance(v, Fraction):
            out.append(v)
        elif isinstance(v, int):
            out.append(Fraction(v))
        elif isinstance(v, float) and v == int(v):
            out.append(Fraction(int(v)))
        else:
            return None
    return out


@dataclass
class StairStep:
    n: int
    A_prev: np.ndarray
    A_next: np.ndarray
    mu: DiscreteMeasure           # probability measure, the "good" part
    gamma: Weight                 # remainder fraction in (0,1)
    splits: list[SplittingStep]   # from delta_{A_prev} to omega_n


def _offsets(counts) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))


def _first(mask: np.ndarray) -> int:
    """The index of the first true entry, len(mask) if none."""
    hit = np.flatnonzero(mask)
    return int(hit[0]) if hit.size else len(mask)


@dataclass
class _Block:
    """Consecutive levels n[0], n[1], ... of a staircase as arrays.  Level i
    has A_prev[i], A_next[i], gamma[i] and mu's mass[i]; mu's atoms are rows
    mu_off[i]:mu_off[i + 1] of mu_w, mu_pts and mu_keys (merged and sorted
    by key, as `DiscreteMeasure` holds them), its splits rows
    sp_off[i]:sp_off[i + 1] of sp_lam and sp_mats (target, left, right).
    `exact` holds the gammas, mu weights and split fractions as given
    (`Fraction`s in rational mode); `steps` the `StairStep`s the block was
    stacked from, whose splits stand in for sp_mats (None until mapped)."""

    n: np.ndarray
    A_prev: np.ndarray
    A_next: np.ndarray
    gamma: np.ndarray
    mass: np.ndarray
    mu_off: np.ndarray
    mu_w: np.ndarray
    mu_pts: np.ndarray
    mu_keys: np.ndarray
    sp_off: np.ndarray
    sp_lam: np.ndarray
    sp_mats: np.ndarray | None
    exact: tuple[list, list, list] | None = None
    steps: list[StairStep] | None = None

    @staticmethod
    def stack(steps: Sequence[StairStep]) -> _Block:
        """The block of validated or unvalidated steps of one matrix shape."""
        atoms = [a for st in steps for a in st.mu.atoms]
        splits = [s for st in steps for s in st.splits]
        A_next = np.array([st.A_next for st in steps], dtype=float)
        pts = np.array([a.point for a in atoms], dtype=float).reshape(
            len(atoms), *A_next.shape[1:])
        return _Block(np.array([st.n for st in steps]),
                      np.array([st.A_prev for st in steps], dtype=float), A_next,
                      np.array([float(st.gamma) for st in steps]),
                      np.array([st.mu.mass for st in steps]),
                      _offsets([len(st.mu.atoms) for st in steps]),
                      np.array([float(a.weight) for a in atoms]), pts,
                      np.round(pts.reshape(len(pts), -1), 12),
                      _offsets([len(st.splits) for st in steps]),
                      np.array([float(s.lam) for s in splits]), None,
                      ([st.gamma for st in steps], [a.weight for a in atoms],
                       [s.lam for s in splits]), list(steps))

    def __len__(self):
        return len(self.n)

    def head(self, j: int) -> _Block | None:
        """The first j levels (None for none)."""
        if j >= len(self):
            return self
        if j == 0:
            return None
        a, s = self.mu_off[j], self.sp_off[j]
        return _Block(self.n[:j], self.A_prev[:j], self.A_next[:j], self.gamma[:j],
                      self.mass[:j], self.mu_off[:j + 1], self.mu_w[:a], self.mu_pts[:a],
                      self.mu_keys[:a], self.sp_off[:j + 1], self.sp_lam[:s],
                      None if self.sp_mats is None else self.sp_mats[:s],
                      None if self.exact is None else
                      (self.exact[0][:j], self.exact[1][:a], self.exact[2][:s]),
                      None if self.steps is None else self.steps[:j])

    def split_mats(self) -> np.ndarray:
        if self.sp_mats is None:
            self.sp_mats = np.array([(s.target, s.left, s.right) for st in self.steps
                                     for s in st.splits], dtype=float).reshape(
                int(self.sp_off[-1]), 3, *self.A_next.shape[1:])
        return self.sp_mats

    def split_steps(self, s: int = 0, e: int | None = None) -> list[SplittingStep]:
        """Splits s..e - 1 (all by default) as `SplittingStep`s."""
        if self.steps is not None:
            return [x for st in self.steps for x in st.splits][s:e]
        lams = self.sp_lam.tolist() if self.exact is None else self.exact[2]
        return [SplittingStep(*M, lam) for M, lam in zip(self.sp_mats[s:e], lams[s:e])]

    def step(self, i: int) -> StairStep:
        """Level i as a `StairStep`."""
        if self.steps is not None:
            return self.steps[i]
        a, b = self.mu_off[i], self.mu_off[i + 1]
        g = float(self.gamma[i]) if self.exact is None else self.exact[0][i]
        ws = self.mu_w[a:b].tolist() if self.exact is None else self.exact[1][a:b]
        mu = DiscreteMeasure([Atom(w, P) for w, P in zip(ws, self.mu_pts[a:b])])
        return StairStep(int(self.n[i]), self.A_prev[i].copy(), self.A_next[i].copy(), mu, g,
                         self.split_steps(self.sp_off[i], self.sp_off[i + 1]))


def _mu_rows(w: np.ndarray, pts: np.ndarray, rows: np.ndarray, k: int,
             exact: list | None = None):
    """Each level's mu as `DiscreteMeasure` builds it from atoms in input
    order (float weights, points, the level of each, and the weights as
    given when `exact`): equal keys in a level merge into the first point,
    their weights summed left to right (`_wadd` on exact weights), and the
    atoms are sorted by key.  Returns the offsets, float weights, points,
    keys, exact weights and each level's mass, summed left to right."""
    keys = np.round(pts.reshape(len(pts), -1), 12)
    order, starts = _key_groups(keys, rows)
    first = order[starts]
    if exact is None or len(starts) == len(order):
        ws = _group_sums(w[order], starts)
        exact = None if exact is None else [exact[i] for i in order.tolist()]
    else:
        merged = []
        for lo, hi in zip(starts.tolist(), np.append(starts[1:], len(order)).tolist()):
            acc = exact[order[lo]]
            for i in order[lo + 1:hi].tolist():
                acc = _wadd(acc, exact[i])
            merged.append(acc)
        exact, ws = merged, np.array([float(v) for v in merged])
    counts = np.bincount(rows[first], minlength=k)
    off = _offsets(counts)
    mass = np.zeros(k)
    for r in range(counts.max(initial=0)):
        has = counts > r
        mass[has] += ws[off[:-1][has] + r]
    return off, ws, pts[first], keys[first], exact, mass


def _block_failure(blk: _Block, tol: float = 1e-9) -> tuple[int, PreconditionError] | None:
    """The first level of a block that fails its checks, as (row, error), or
    None.

    Per level the checks run in this order: gamma lies in (0,1); mu is a
    probability measure; each split in turn (`_split_rows` on the block's
    split stack, or `_split_failure` on the splits of the steps it was
    stacked from; the error is named after the level and split); the
    barycenter gamma A_n + (1 - gamma) sum_j w_j B_j of omega_n is within
    tol * (1 + |A_{n-1}|) of A_{n-1}.  Each check runs on the levels before
    the first failure so far.  The barycenters are stacks, one per atom
    count, summed atom by atom in mu's order, with norms from `_dots`
    (bit-equal to `frob`)."""
    g, n = blk.gamma, blk.n
    with np.errstate(all="ignore"):
        bad_g = ~((0.0 < g) & (g < 1.0))
        bad = np.flatnonzero(bad_g | (np.abs(blk.mass - 1.0) > 1e-9))
    stop, err = len(blk), None
    if bad.size:
        stop = int(bad[0])
        err = PreconditionError(f"step {n[stop]}: gamma {float(g[stop])} outside (0,1)"
                                if bad_g[stop] else
                                f"step {n[stop]}: mu is not a probability measure")
    if blk.steps is not None:
        split = _split_failure([s for st in blk.steps[:stop] for s in st.splits], tol)
    else:
        ns = blk.sp_off[stop]
        split = _split_rows(blk.sp_lam[:ns], blk.sp_mats[:ns], tol,
                            shown=None if blk.exact is None else blk.exact[2])
    if split is not None:
        i = int(np.searchsorted(blk.sp_off, split[0], side="right")) - 1
        stop = i
        err = PreconditionError(f"step {n[i]}, split {split[0] - blk.sp_off[i]}: {split[1]}")
        err.__cause__ = split[1]
    counts = np.diff(blk.mu_off[:stop + 1])
    for c in np.flatnonzero(np.bincount(counts)).tolist():   # np.unique imports numpy.ma
        rows = np.flatnonzero(counts == c)
        r = len(rows)
        gs = g[rows][:, None]
        at = blk.mu_off[rows][:, None] + np.arange(c)
        pts = blk.mu_pts[at].reshape(r, c, -1)
        A_prev = blk.A_prev[rows].reshape(r, -1)
        with np.errstate(all="ignore"):
            coef = (1.0 - gs) * blk.mu_w[at]
            bc = gs * blk.A_next[rows].reshape(r, -1)
            for j in range(c):
                bc = bc + coef[:, j, None] * pts[:, j]
            off = bc - A_prev
            far = (np.sqrt(_dots(off, off))
                   > tol * (1.0 + np.sqrt(_dots(A_prev, A_prev))))
        hit = np.flatnonzero(far)
        if hit.size and rows[hit[0]] < stop:
            stop = int(rows[hit[0]])
            err = PreconditionError(f"step {n[stop]}: omega_n barycenter mismatch")
    return None if err is None else (stop, err)


def _step_failure(steps: Sequence[StairStep],
                  tol: float = 1e-9) -> tuple[int, PreconditionError] | None:
    """The first step that fails `_block_failure`'s checks, as (index,
    error), or None: the steps stacked into one block per matrix shape."""
    groups: dict = {}
    for i, st in enumerate(steps):
        groups.setdefault(np.shape(st.A_next), []).append(i)
    out = None
    for rows in groups.values():
        bad = _block_failure(_Block.stack([steps[i] for i in rows]), tol)
        if bad is not None and (out is None or rows[bad[0]] < out[0]):
            out = rows[bad[0]], bad[1]
    return out


def _validate_step(st: StairStep, tol: float = 1e-9) -> None:
    """The one-step case of `_step_failure`."""
    bad = _step_failure([st], tol)
    if bad is not None:
        raise bad[1]


BlockFn = Callable[[int, int], "tuple[_Block | None, Exception | None]"]


def _stepwise(step_fn: Callable[[int], StairStep]) -> BlockFn:
    """A block builder from a per-level one: one `step_fn` call per level up
    to the first that raises, stacked; that exception is the error."""
    def block_fn(lo: int, hi: int):
        steps, err = [], None
        for n in range(lo, hi + 1):
            try:
                steps.append(step_fn(n))
            except Exception as exc:
                err = exc
                break
        return (_Block.stack(steps) if steps else None), err
    return block_fn


class StaircaseSpec:
    """Lazily evaluated staircase laminate; step(n) is memoized and validated.

    `block_fn(lo, hi)` builds levels lo..hi as a `_Block`, up to the first
    level whose build fails, and returns it with that failure (None if
    none).  A spec given a per-level `step_fn(n)` instead builds its blocks
    by `_stepwise`; a spec given `block_fn` has `step_fn(n)`, the unvalidated
    level n as a `StairStep`."""

    def __init__(self, A0, kind: str, params: dict,
                 step_fn: Callable[[int], StairStep] | None = None,
                 target_sets: tuple[str, ...] = (),
                 gamma_fn: Callable[[int], float] | None = None,
                 rational: bool = False,
                 block_fn: BlockFn | None = None):
        self.A0 = asmatrix(A0)
        self.kind = kind
        self.params = dict(params)
        self.target_sets = tuple(target_sets)
        if block_fn is None:
            block_fn = _stepwise(step_fn)
        else:
            def step_fn(n: int) -> StairStep:
                blk, err = block_fn(n, n)
                if err is not None:
                    raise err
                return blk.step(0)
        self._step_fn = step_fn
        self._block_fn = block_fn
        self._gamma_fn = gamma_fn
        self.rational = rational
        # steps made by `step`; build_truncation's prefix over levels
        # 1..len(self._levels): per level the end offsets into the good
        # atoms and the splits, and beta_n; the validated blocks and their
        # first levels; |A_n| of the last level; the good atoms in level
        # order, as `Atom`s in `_atoms` for a rational spec, else in `_rows`
        # as `_ArrayMeasure`'s input arrays (float weights, the (k, m, n)
        # point stack, its rounded keys and norms), one tuple per block; the
        # splitting steps made so far for certificates, and their blocks
        self._loose: dict[int, StairStep] = {}
        self._levels: list[tuple[int, int, Weight]] = []
        self._blocks: list[_Block] = []
        self._starts: list[int] = []
        self._top_norm = -1.0
        self._atoms: list[Atom] = []
        self._rows: list[tuple[np.ndarray, ...]] = []
        self._cert: list[SplittingStep] = []
        self._cert_blocks = 0

    @property
    def _memo(self) -> set[int]:
        """The levels whose validated steps the spec holds: its prefix, and
        the levels `step` built past it."""
        return set(range(1, len(self._levels) + 1)).union(self._loose)

    def step(self, n: int) -> StairStep:
        if n < 1:
            raise PreconditionError("staircase levels are 1-indexed")
        st = self._loose.get(n)
        if st is None:
            if n <= len(self._levels):
                blk, row = self._level(n)
            else:
                blk, err = self._build(n, n)
                if err is not None:
                    raise err
                row = 0
            st = self._loose[n] = blk.step(row)
        return st

    def _level(self, n: int) -> tuple[_Block, int]:
        """The prefix block holding level n, and its row there."""
        i = bisect_right(self._starts, n) - 1
        return self._blocks[i], n - self._starts[i]

    def _build(self, lo: int, hi: int) -> tuple[_Block | None, Exception | None]:
        """Levels lo..hi built and validated, up to the first level that
        fails, and that level's error (None if none does); nothing stored.
        Within a level the build's checks come first, then `_block_failure`."""
        blk, err = self._block_fn(lo, hi)
        if blk is not None:
            bad = _block_failure(blk)
            if bad is not None:
                blk, err = blk.head(bad[0]), bad[1]
        return blk, err

    def _certificate(self, n_splits: int) -> list[SplittingStep]:
        """The prefix's first n_splits splitting steps, each made once."""
        while len(self._cert) < n_splits:
            self._cert.extend(self._blocks[self._cert_blocks].split_steps())
            self._cert_blocks += 1
        return self._cert[:n_splits]

    def gamma(self, n: int) -> float:
        if self._gamma_fn is not None:
            return float(self._gamma_fn(n))
        return float(self.step(n).gamma)

    def in_target(self, X, tol: float = 1e-9) -> bool:
        return any(member(X, s, tol) for s in self.target_sets)


def betas(spec: StaircaseSpec, N: int) -> list[Weight]:
    """[beta_1, ..., beta_N], exact in rational mode: read off the prefix as
    far as it reaches, then from the levels past it (the same product)."""
    out: list[Weight] = [lv[2] for lv in spec._levels[:N]]
    acc: Weight = out[-1] if out else (Fraction(1) if spec.rational else 1.0)
    for st in _walk(spec, len(out) + 1, N):
        g = st.gamma
        if isinstance(acc, Fraction) and isinstance(g, Fraction):
            acc = acc * g
        else:
            acc = float(acc) * float(g)
        out.append(acc)
    return out


def _walk(spec: StaircaseSpec, lo: int, hi: int):
    """The validated steps of levels lo..hi in order, built a block at a time
    and not kept; a failing level raises its error where a level-by-level
    `step(n)` would."""
    for start in range(lo, hi + 1, _BLOCK):
        blk, err = spec._build(start, min(hi, start + _BLOCK - 1))
        for i in range(0 if blk is None else len(blk)):
            yield blk.step(i)
        if err is not None:
            raise err


def log_betas(spec: StaircaseSpec, N: int) -> np.ndarray:
    """log beta_n for n = 1..N via the cheap gamma path (no atom construction)."""
    gs = np.array([spec.gamma(n) for n in range(1, N + 1)])
    return np.cumsum(np.log(gs))


def beta_slope(spec: StaircaseSpec, n_min: int, n_max: int) -> float:
    """Log-log regression slope of beta_n over n in [n_min, n_max]."""
    lb = log_betas(spec, n_max)
    ns = np.arange(1, n_max + 1)
    sel = ns >= n_min
    return float(np.polyfit(np.log(ns[sel]), lb[sel], 1)[0])


def _grow(spec: StaircaseSpec, N: int) -> Exception | None:
    """Extend the prefix to N levels in blocks of `_BLOCK`, each built and
    validated (`StaircaseSpec._build`) and appended (`_append_levels`) up to
    the first failing level.  Returns that level's error, or None."""
    while len(spec._levels) < N:
        lo = len(spec._levels) + 1
        blk, err = spec._build(lo, min(N, lo + _BLOCK - 1))
        if blk is not None:
            err = _append_levels(spec, blk) or err
        if err is not None:
            return err
    return None


def remainder(spec: StaircaseSpec, N: int, ahead: int = 0) -> tuple[Weight, np.ndarray]:
    """(beta_N, A_N), read off the prefix.  A prefix shorter than N grows
    first, to N + `ahead` levels; a failing level past N stops it there, and
    its error is raised once a call asks for that level."""
    if len(spec._levels) < N:
        err = _grow(spec, N + ahead)
        if len(spec._levels) < N:
            raise err
    blk, row = spec._level(N)
    return spec._levels[N - 1][2], blk.A_next[row]


def build_truncation(spec: StaircaseSpec, N: int) -> DiscreteMeasure:
    """nu^N, sliced from the spec's prefix (grown to N levels first), with a
    certificate made on first use."""
    if N < 1:
        raise PreconditionError("need N >= 1")
    beta, A_N = remainder(spec, N)
    n_atoms, n_splits, _ = spec._levels[N - 1]
    rest = Atom(beta, A_N)
    cert = Certificate(n_splits, lambda: spec._certificate(n_splits))
    if spec.rational:
        return DiscreteMeasure(spec._atoms[:n_atoms] + [rest], cert)
    cols = []
    for rows in spec._rows:
        if n_atoms <= 0:
            break
        cols.append([a[:n_atoms] for a in rows])
        n_atoms -= len(rows[0])
    cols.append([np.array([beta]), rest.point[None],
                 np.round(rest.point.reshape(1, -1), 12), np.array([rest.norm])])
    return _ArrayMeasure(*(np.concatenate(col) for col in zip(*cols)), cert)


def _append_levels(spec: StaircaseSpec, blk: _Block) -> PreconditionError | None:
    """Append a validated block to the prefix, level by level: the |A_n|
    monotonicity check, then the good atoms' weights beta_{n-1} (1 - gamma_n) w
    (`Atom.scaled`'s product, exact when both factors are `Fraction`s), each
    checked positive.  Returns the first failure's error, else None; the
    levels before it are appended either way."""
    k, levels = len(blk), spec._levels
    beta0 = levels[-1][2] if levels else (Fraction(1) if spec.rational else 1.0)
    n_atoms, n_splits = levels[-1][:2] if levels else (0, 0)
    flat = blk.A_next.reshape(k, -1)
    norms = np.sqrt(_dots(flat, flat))
    with np.errstate(all="ignore"):
        stop = _first(norms < np.append(spec._top_norm, norms[:-1]) - 1e-9)
    err = (PreconditionError(f"|A_n| not non-decreasing at level {blk.n[stop]}")
           if stop < k else None)
    if spec.rational:
        gs, ws, weights, bs, beta = blk.exact[0], blk.exact[1], [], [], beta0
        for i in range(stop):
            g = gs[i]
            if isinstance(beta, Fraction) and isinstance(g, Fraction):
                good_w: Weight = beta * (1 - g)
                beta_n: Weight = beta * g
            else:
                good_w = float(beta) * (1.0 - float(g))
                beta_n = float(beta) * float(g)
            new = [_wmul(w, good_w) for w in ws[blk.mu_off[i]:blk.mu_off[i + 1]]]
            low = next((w for w in new if not float(w) > 0.0), None)
            if low is not None:
                stop, err = i, _weight_error(low)
                break
            weights.extend(new)
            beta = beta_n
            bs.append(beta)
        spec._atoms.extend(Atom(w, P) for w, P in zip(weights, blk.mu_pts))
    else:
        with np.errstate(all="ignore"):
            bs = np.multiply.accumulate(np.append(float(beta0), blk.gamma))
            weights = blk.mu_w * np.repeat(bs[:-1] * (1.0 - blk.gamma), np.diff(blk.mu_off))
        low = np.flatnonzero(~(weights > 0.0))
        if low.size:
            i = int(np.searchsorted(blk.mu_off, low[0], side="right")) - 1
            if i < stop:
                stop, err = i, _weight_error(float(weights[low[0]]))
        bs = bs[1:stop + 1].tolist()
        a = blk.mu_off[stop]
        if a:
            pts = blk.mu_pts[:a].reshape(a, -1)
            spec._rows.append((weights[:a], blk.mu_pts[:a], blk.mu_keys[:a],
                               np.sqrt(_dots(pts, pts))))
    if stop:
        spec._starts.append(len(levels) + 1)
        spec._blocks.append(blk.head(stop))
        levels.extend(zip((n_atoms + blk.mu_off[1:stop + 1]).tolist(),
                          (n_splits + blk.sp_off[1:stop + 1]).tolist(), bs))
        spec._top_norm = float(norms[stop - 1])
    return err


@dataclass
class HypothesisRow:
    n: int
    norm_ratio_ok: bool
    support_ok: bool
    upper_mass_ok: bool
    lower_support_ok: bool
    lower_mass_ok: bool


@dataclass
class HypothesesReport:
    rows: list[HypothesisRow]
    upper_envelope_constant: float
    lower_envelope_constant: float
    meta: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.norm_ratio_ok and r.support_ok and r.upper_mass_ok
                   and r.lower_support_ok and r.lower_mass_ok for r in self.rows)


def check_hypotheses(spec: StaircaseSpec, p: float, N: int, c: float, c0: float,
                     M0: float, c1: float, M1: float) -> HypothesesReport:
    """Verify the weak-L^p staircase hypotheses on levels n <= N:
    norm growth |A_n| <= |A_{n+1}| <= c |A_n|, support of mu_n inside
    {|X| <= c0 |A_n|}, beta_n |A_n|^p <= M0, mu_n({|X| >= c1 |A_n|}) >= c1
    and beta_n |A_n|^p >= M1; reports the implied tail envelope constants."""
    if min(p, c0, M0, c1, M1) <= 0 or c <= 1:
        raise PreconditionError("constants must be positive with c > 1")
    rows = []
    beta = 1.0
    for n, st in enumerate(_walk(spec, 1, N), start=1):
        beta *= float(st.gamma)
        a_prev = frob(st.A_prev)
        a_n = frob(st.A_next)
        ratio_ok = (a_prev <= a_n + 1e-12) and (a_n <= c * a_prev + 1e-12)
        supp_ok = all(frob(a.point) <= c0 * a_n + 1e-9 for a in st.mu.atoms)
        upper_ok = beta * a_n ** p <= M0 + 1e-9
        lower_supp = _seq_sum(float(a.weight) for a in st.mu.atoms
                              if frob(a.point) >= c1 * a_n - 1e-9) >= c1 - 1e-9
        lower_ok = beta * a_n ** p >= M1 - 1e-9
        rows.append(HypothesisRow(n, ratio_ok, supp_ok, upper_ok, lower_supp, lower_ok))
    return HypothesesReport(rows,
                            upper_envelope_constant=M0 * c ** p * c0 ** p,
                            lower_envelope_constant=M1 * c ** -p * c1 ** (1 + p),
                            meta={"p": p, "c": c, "c0": c0, "M0": M0, "c1": c1, "M1": M1})


# --- the four worked families ---------------------------------------------------


def _diag(vals) -> np.ndarray:
    return np.diag(np.asarray([float(v) for v in vals]))


def _check_level_norm(kind: str, n: int, entries) -> None:
    """Reject level n once |A_n| = |diag(entries)| overflows the float range.
    The squares are summed in plain Python floats, which overflow to inf
    without a numpy call or a warning."""
    sq = 0.0
    for v in entries:
        x = float(v)
        sq += x * x
    if sq == math.inf:
        raise PreconditionError(
            f"{kind} staircase level {n}: |A_n| overflows the float range")


def _det1_spec(params: dict) -> StaircaseSpec:
    entries = list(params["a"])
    unchecked = bool(params.get("unchecked", False))
    d = len(entries)
    if d < 2:
        raise PreconditionError("need at least a 2x2 diagonal matrix")
    floor = 1.0 if unchecked else 2.0
    for v in entries:
        if not abs(float(v)) >= floor - 1e-12:
            raise PreconditionError(
                f"diagonal entry {v} below the admissible modulus {floor}")
    fr = _as_fraction_list(entries)
    rational = fr is not None
    base = fr if rational else [float(v) for v in entries]
    two: Weight = Fraction(2) if rational else 2.0

    def step_fn(n: int) -> StairStep:
        scale = two ** (n - 1)
        cur = [scale * v for v in base]
        _check_level_norm("det1", n, [2 * v for v in cur])
        D = math.prod(cur) if not rational else math.prod(cur, start=Fraction(1))
        running = list(cur)
        splits: list[SplittingStep] = []
        mu_atoms: list[Atom] = []
        keep: Weight = Fraction(1) if rational else 1.0
        gamma: Weight = Fraction(1) if rational else 1.0
        for j in range(d):
            pw = two ** j
            alpha = (pw * D) / (2 * pw * D - 1)
            bcol = list(running)
            bcol[j] = cur[j] / (pw * D)
            ccol = list(running)
            ccol[j] = 2 * cur[j]
            splits.append(SplittingStep(_diag(running), _diag(bcol), _diag(ccol), alpha))
            mu_atoms.append(Atom(keep * alpha, _diag(bcol)))
            keep = keep * (1 - alpha)
            running = ccol
        gamma = keep
        expected = (D - 1) / (2 ** d * D - 1)
        if rational and gamma != expected:
            raise InternalError("det-1 remainder fraction disagrees with closed form")
        mu = DiscreteMeasure([Atom(a.weight / (1 - gamma), a.point) for a in mu_atoms])
        return StairStep(n, _diag(cur), _diag(running), mu, gamma, splits)

    def gamma_fn(n: int) -> float:
        D = math.prod(float(v) for v in base) * 2.0 ** ((n - 1) * d)
        return (D - 1.0) / (2.0 ** d * D - 1.0)

    return StaircaseSpec(_diag(base), "det1", params, step_fn,
                         target_sets=("D&Sigma",), gamma_fn=gamma_fn,
                         rational=rational)


def _rank_drop_spec(params: dict) -> StaircaseSpec:
    entries = list(params["a"])
    d = len(entries)
    nz = [i for i, v in enumerate(entries) if float(v) != 0.0]
    m = len(nz)
    if m < 2:
        raise PreconditionError("rank-drop staircase needs rank >= 2")
    fr = _as_fraction_list(entries)
    rational = fr is not None
    base = fr if rational else [float(v) for v in entries]
    half: Weight = Fraction(1, 2) if rational else 0.5
    gamma: Weight = half ** m

    def step_fn(n: int) -> StairStep:
        scale = (Fraction(2) if rational else 2.0) ** (n - 1)
        cur = [scale * v for v in base]
        _check_level_norm("rank_drop", n, [2 * v for v in cur])
        running = list(cur)
        splits = []
        mu_atoms = []
        w: Weight = Fraction(1) if rational else 1.0
        for idx in nz:
            bcol = list(running)
            bcol[idx] = 0 * bcol[idx]
            ccol = list(running)
            ccol[idx] = 2 * cur[idx]
            splits.append(SplittingStep(_diag(running), _diag(bcol), _diag(ccol), half))
            w = w * half
            mu_atoms.append(Atom(w, _diag(bcol)))
            running = ccol
        mu = DiscreteMeasure([Atom(a.weight / (1 - gamma), a.point) for a in mu_atoms])
        return StairStep(n, _diag(cur), _diag(running), mu, gamma, splits)

    return StaircaseSpec(_diag(base), "rank_drop", params, step_fn,
                         target_sets=(f"rank<={m - 1}",),
                         gamma_fn=lambda n: float(gamma), rational=rational)


def _two_split_block(n0: int, A_prev, B1, C, B2, A_next, a1: np.ndarray,
                     l2: np.ndarray) -> tuple[_Block | None, Exception | None]:
    """Levels n0, n0 + 1, ... that split delta_{A_{n-1}} into a1 B1 + (1 - a1) C
    and C into l2 B2 + (1 - l2) A_n, so gamma = (1 - a1)(1 - l2) and
    mu = (a1 delta_B1 + (1 - a1) l2 delta_B2) / (1 - gamma).  Each matrix is
    diagonal, given as its two diagonals (arrays over the levels).  The block
    ends before the lowest level whose per-level construction fails, with its
    error: a non-finite split matrix, then 1 - gamma == 0 (the
    `ZeroDivisionError` of Python's division), then an atom weight not > 0,
    then mu's mass above 1."""
    k = len(a1)
    mats = np.zeros((k, 5, 2, 2))
    for j, (d0, d1) in enumerate((A_prev, B1, C, B2, A_next)):
        mats[:, j, 0, 0], mats[:, j, 1, 1] = d0, d1
    with np.errstate(all="ignore"):
        gamma = (1.0 - a1) * (1.0 - l2)
        w = np.stack([a1 / (1.0 - gamma), (1.0 - a1) * l2 / (1.0 - gamma)], axis=1)
    non_finite = ~np.isfinite(mats).all(axis=(1, 2, 3))
    w_bad = ~(w > 0.0)
    # mu is made (its keys rounded, which may warn) only up to the first
    # level that fails before it, as level by level
    m = _first(non_finite | (gamma == 1.0) | w_bad.any(axis=1))
    err: Exception | None = None
    if m < k and non_finite[m]:
        err = PreconditionError("matrix has non-finite entries")
    elif m < k and gamma[m] == 1.0:
        err = ZeroDivisionError("float division by zero")
    elif m < k:
        err = _weight_error(float(w[m, np.argmax(w_bad[m])]))
    if m == 0:
        return None, err
    off, mu_w, pts, keys, _, mass = _mu_rows(w[:m].ravel(), mats[:m, [1, 3]].reshape(2 * m, 2, 2),
                                             np.arange(m).repeat(2), m)
    blk = _Block(np.arange(n0, n0 + m), mats[:m, 0], mats[:m, 4], gamma[:m], mass, off,
                 mu_w, pts, keys, np.arange(0, 2 * m + 1, 2),
                 np.stack([a1[:m], l2[:m]], axis=1).ravel(),
                 mats[:m, [0, 1, 2, 2, 3, 4]].reshape(2 * m, 3, 2, 2))
    heavy = _first(mass > 1.0 + MASS_SLACK * np.maximum(1, np.diff(off)))
    if heavy < m:
        return blk.head(heavy), PreconditionError(f"total mass {float(mass[heavy])} exceeds 1")
    return blk, err


def _xs(x0: float, lo: int, hi: int) -> np.ndarray:
    """x = x0 + (n - 1) for n = lo..hi."""
    return x0 + np.arange(lo - 1, hi, dtype=float)


def _powers(xs: np.ndarray, q: float) -> np.ndarray:
    """xs ** q, by Python's float power (np.power differs in the last bit)."""
    return np.array([x ** q for x in xs.tolist()])


def _elliptic_spec(params: dict) -> StaircaseSpec:
    K = float(params["K"])
    x0 = float(params.get("x0", 1.0))
    if not K > 1:
        raise PreconditionError("need K > 1")
    if not x0 >= 1:
        raise PreconditionError("need start x >= 1")
    kinv = 1.0 / K

    def weights(x):
        a1 = 1.0 / (1.0 + x * (1.0 + kinv))
        l2 = 1.0 / ((x + 1.0) * (1.0 + kinv))
        return a1, l2

    def block_fn(lo: int, hi: int):
        with np.errstate(all="ignore"):   # Python's float arithmetic does not warn
            x = _xs(x0, lo, hi)
            x1 = x + 1.0
            a1, l2 = weights(x)
            diags = (-x, x), (-x, -x * kinv), (-x, x1), (x1 * kinv, x1), (-x1, x1)
        return _two_split_block(lo, *diags, a1, l2)

    def gamma_fn(n: int) -> float:
        x = x0 + (n - 1)
        a1, l2 = weights(x)
        return (1.0 - a1) * (1.0 - l2)

    return StaircaseSpec(_diag([-x0, x0]), "elliptic", params,
                         target_sets=(f"E:{K!r}", f"E:{kinv!r}"),
                         gamma_fn=gamma_fn, block_fn=block_fn)


def _plaplace_spec(params: dict) -> StaircaseSpec:
    p = float(params["p"])
    b = float(params["b"])
    x0 = float(params.get("x0", 1.0))
    if not (1.0 < p < 2.0):
        raise PreconditionError("need p in (1,2)")
    if not b > 1.0:
        raise PreconditionError("need b > 1")
    if not x0 >= 1.0:
        raise PreconditionError("need start x >= 1")
    q = p - 1.0

    def block_fn(lo: int, hi: int):
        with np.errstate(all="ignore"):   # Python's float arithmetic does not warn
            x = _xs(x0, lo, hi)
            x1, bx = x + 1.0, b * x
            xq, x1q, bxq = _powers(x, q), _powers(x1, q), _powers(bx, q)
            a1 = (x1q - xq) / (bxq + x1q)
            l2 = b / ((b + 1.0) * x1)
            diags = (bx, -xq), (bx, bxq), (bx, -x1q), (-x1, -x1q), (b * x1, -x1q)
        return _two_split_block(lo, *diags, a1, l2)

    def gamma_fn(n: int) -> float:
        x = x0 + (n - 1)
        a1 = ((x + 1.0) ** q - x ** q) / ((b * x) ** q + (x + 1.0) ** q)
        l2 = b / ((b + 1.0) * (x + 1.0))
        return (1.0 - a1) * (1.0 - l2)

    return StaircaseSpec(_diag([b * x0, -(x0 ** q)]), "plaplace", params,
                         target_sets=(f"Kp:{p!r}",), gamma_fn=gamma_fn,
                         block_fn=block_fn)


_FAMILIES = {
    "det1": _det1_spec,
    "rank_drop": _rank_drop_spec,
    "elliptic": _elliptic_spec,
    "plaplace": _plaplace_spec,
}


def example_staircase(kind: str, params: dict) -> StaircaseSpec:
    if kind not in _FAMILIES:
        raise PreconditionError(f"unknown staircase family {kind!r}")
    return _FAMILIES[kind](params)


# --- linear transforms of specs --------------------------------------------------


@dataclass(frozen=True)
class LinMap:
    """X -> s * U X V; closed under composition, preserves rank-one lines."""

    U: np.ndarray
    V: np.ndarray
    s: float = 1.0

    @staticmethod
    def identity(d: int = 2) -> "LinMap":
        return LinMap(np.eye(d), np.eye(d), 1.0)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return self.s * (self.U @ X @ self.V)

    def after(self, inner: "LinMap") -> "LinMap":
        """self o inner."""
        return LinMap(self.U @ inner.U, inner.V @ self.V, self.s * inner.s)


def _map_block(blk: _Block, T: LinMap) -> tuple[_Block | None, Exception | None]:
    """The block's levels pushed forward by T, matrices as one stack (a
    stacked s * (U @ X @ V) is bit-equal to `LinMap.__call__` per matrix),
    mu's atoms merged and re-sorted by their new keys as `pushforward` does.
    The block ends before the lowest level whose per-level pushforward
    fails: a non-finite atom, then mu's mass above 1, then a non-finite
    split matrix."""
    k, a = len(blk), len(blk.mu_w)
    sp = blk.split_mats()
    with np.errstate(all="ignore"):
        out = T(np.concatenate([blk.A_prev, blk.A_next, blk.mu_pts,
                                sp.reshape(-1, *sp.shape[2:])]))
    pts, sp_mats = out[2 * k:2 * k + a], out[2 * k + a:].reshape(len(sp), 3, *out.shape[1:])
    mu_rows, sp_rows = (np.arange(k).repeat(np.diff(off)) for off in (blk.mu_off, blk.sp_off))
    atom_bad = np.bincount(mu_rows, ~np.isfinite(pts).reshape(a, -1).all(axis=1),
                           minlength=k) > 0
    split_bad = np.bincount(sp_rows, ~np.isfinite(sp_mats).reshape(len(sp), -1).all(axis=1),
                            minlength=k) > 0
    f = _first(atom_bad | split_bad)
    err = None if f == k else PreconditionError("matrix has non-finite entries")
    # mu is merged (its keys rounded, which may warn) up to level f, and at
    # f too when its atoms are finite, as `pushforward` does level by level
    m = f if f < k and atom_bad[f] else min(f + 1, k)
    if m == 0:
        return None, err
    na, ns = blk.mu_off[m], blk.sp_off[m]
    off, mu_w, pts, keys, exact_w, mass = _mu_rows(
        blk.mu_w[:na], pts[:na], mu_rows[:na], m, None if blk.exact is None else blk.exact[1][:na])
    res = _Block(blk.n[:m], out[:m], out[k:k + m], blk.gamma[:m], mass, off, mu_w, pts, keys,
                 blk.sp_off[:m + 1], blk.sp_lam[:ns], sp_mats[:ns],
                 None if blk.exact is None else (blk.exact[0][:m], exact_w, blk.exact[2][:ns]))
    heavy = _first(mass > 1.0 + MASS_SLACK * np.maximum(1, np.diff(off)))
    if heavy < m:
        return res.head(heavy), PreconditionError(f"total mass {float(mass[heavy])} exceeds 1")
    return res.head(f), err


def transform_spec(spec: StaircaseSpec, T: LinMap,
                   target_sets: tuple[str, ...] | None = None) -> StaircaseSpec:
    """Pushforward of a staircase spec under a rank-one preserving linear map.
    Only the returned spec keeps a prefix: its source's blocks are built and
    validated, mapped by `_map_block`, then dropped."""

    def block_fn(lo: int, hi: int):
        src, err = spec._build(lo, hi)
        if src is None:
            return None, err
        out, bad = _map_block(src, T)
        return out, bad or err

    return StaircaseSpec(T(spec.A0), spec.kind, spec.params,
                         target_sets=target_sets if target_sets is not None
                         else spec.target_sets,
                         gamma_fn=spec._gamma_fn, rational=spec.rational,
                         block_fn=block_fn)


# --- extended measures ------------------------------------------------------------


@dataclass
class ExtendedMeasure:
    A: np.ndarray
    kind: str
    params: dict
    finite_atoms: list[tuple[Weight, np.ndarray]]
    tails: list[tuple[Weight, StaircaseSpec]]
    root_certificate: list[SplittingStep]

    def truncate(self, N: int) -> DiscreteMeasure:
        """The finite atoms plus each tail's truncation nu^N scaled by its
        weight, merged by `mixture`: as arrays when every tail is a float
        staircase."""
        atoms = [Atom(w, B) for w, B in self.finite_atoms]
        parts: list[tuple[Weight, DiscreteMeasure]] = []
        if atoms:
            parts.append((1.0, DiscreteMeasure.from_stack(
                [a.weight for a in atoms], [a.point for a in atoms])))
        certs = [self.root_certificate]
        for w, sp in self.tails:
            nu = build_truncation(sp, N)
            parts.append((w, nu))
            certs.append(nu.certificate)
        return mixture(parts, Certificate(sum(map(len, certs)),
                                          lambda: [s for c in certs for s in c]))

    def residual_mass(self, N: int) -> float:
        total = 0.0
        for w, sp in self.tails:
            total += float(w) * float(betas(sp, N)[-1])
        return total


class _ExtBuilder:
    def __init__(self, kind: str, params: dict, tol: float = 1e-9):
        self.kind = kind
        self.params = params
        self.tol = tol
        self.finite: list[tuple[float, np.ndarray]] = []
        self.tails: list[tuple[float, StaircaseSpec]] = []
        self.cert: list[SplittingStep] = []

    def split(self, T: LinMap, target, left, right, lam: float):
        self.cert.append(SplittingStep(T(asmatrix(target)), T(asmatrix(left)),
                                       T(asmatrix(right)), lam))

    def atom(self, w: float, T: LinMap, B):
        self.finite.append((w, T(asmatrix(B))))

    def tail(self, w: float, spec: StaircaseSpec, T: LinMap):
        self.tails.append((w, transform_spec(spec, T)))


def _in_union(X, sets: tuple[str, ...], tol: float) -> bool:
    return any(member(X, s, tol) for s in sets)


def _ell_diag(bld: _ExtBuilder, w: float, x: float, y: float, T: LinMap):
    K = float(bld.params["K"])
    tol = bld.tol
    sets = (f"E:{K!r}", f"E:{1.0 / K!r}")
    D = _diag([x, y])
    if _in_union(D, sets, tol):
        bld.atom(w, T, D)
        return
    # pure staircase barycenters diag(-x0, x0) (up to sign), x0 >= 1
    if abs(x + y) <= tol and abs(x) >= 1.0 - tol:
        if x < 0:
            bld.tail(w, example_staircase("elliptic", {"K": K, "x0": -x}), T)
        else:
            neg = T.after(LinMap(np.eye(2), np.eye(2), -1.0))
            bld.tail(w, example_staircase("elliptic", {"K": K, "x0": x}), neg)
        return
    if max(abs(x), abs(y)) >= 2.0 - tol:
        # normalize to y >= 2, y >= |x| via swap-conjugation and negation
        if abs(x) > abs(y):
            P = np.array([[0.0, 1.0], [1.0, 0.0]])
            _ell_diag(bld, w, y, x, T.after(LinMap(P, P, 1.0)))
            return
        if y < 0:
            _ell_diag(bld, w, -x, -y, T.after(LinMap(np.eye(2), np.eye(2), -1.0)))
            return
        alpha = (K - x / y) / (K + 1.0)
        left = _diag([-y, y])
        right = _diag([K * y, y])
        bld.split(T, D, left, right, alpha)
        _ell_diag(bld, w * alpha, -y, y, T)
        bld.atom(w * (1.0 - alpha), T, right)
        return
    # bounded case: pre-split both entries onto the +-2 corners
    a1 = (2.0 - x) / 4.0
    bld.split(T, D, _diag([-2.0, y]), _diag([2.0, y]), a1)
    for wx, xx in ((w * a1, -2.0), (w * (1.0 - a1), 2.0)):
        a2 = (2.0 - y) / 4.0
        bld.split(T, _diag([xx, y]), _diag([xx, -2.0]), _diag([xx, 2.0]), a2)
        _ell_diag(bld, wx * a2, xx, -2.0, T)
        _ell_diag(bld, wx * (1.0 - a2), xx, 2.0, T)


def _pl_diag(bld: _ExtBuilder, w: float, x: float, y: float, T: LinMap):
    p = float(bld.params["p"])
    b = float(bld.params["b"])
    q = p - 1.0
    tol = bld.tol
    D = _diag([x, y])
    if member(D, f"Kp:{p!r}", tol):
        bld.atom(w, T, D)
        return
    # staircase barycenters diag(b x0, -x0^(p-1)) up to global sign, x0 >= 1
    if x > 0 and y < 0:
        x0 = x / b
        if x0 >= 1.0 - tol and abs(y + x0 ** q) <= tol * (1.0 + abs(y)):
            bld.tail(w, example_staircase("plaplace", {"p": p, "b": b, "x0": x0}), T)
            return
    if x < 0 and y > 0:
        x0 = -x / b
        if x0 >= 1.0 - tol and abs(y - x0 ** q) <= tol * (1.0 + abs(y)):
            neg = T.after(LinMap(np.eye(2), np.eye(2), -1.0))
            bld.tail(w, example_staircase("plaplace", {"p": p, "b": b, "x0": x0}), neg)
            return
    if max(abs(x), abs(y)) > 0.5 + tol:
        lam = max(2.0 * abs(x), (2.0 * abs(y)) ** (1.0 / q)) if y != 0 \
            else 2.0 * abs(x)
        lam = max(lam, 1e-12)
        U = _diag([lam, lam ** q])
        _pl_diag(bld, w, x / lam, y / lam ** q, T.after(LinMap(U, np.eye(2), 1.0)))
        return
    # bounded case max(|x|,|y|) <= 1/2: split onto the two staircase seeds
    a1 = (1.0 - y) / 2.0
    bld.split(T, D, _diag([x, -1.0]), _diag([x, 1.0]), a1)
    a2 = (b - x) / (b + 1.0)
    bld.split(T, _diag([x, -1.0]), _diag([-1.0, -1.0]), _diag([b, -1.0]), a2)
    bld.atom(w * a1 * a2, T, _diag([-1.0, -1.0]))
    _pl_diag(bld, w * a1 * (1.0 - a2), b, -1.0, T)
    a3 = (1.0 - x) / (b + 1.0)
    bld.split(T, _diag([x, 1.0]), _diag([-b, 1.0]), _diag([1.0, 1.0]), a3)
    _pl_diag(bld, w * (1.0 - a1) * a3, -b, 1.0, T)
    bld.atom(w * (1.0 - a1) * (1.0 - a3), T, _diag([1.0, 1.0]))


def _process_general(bld: _ExtBuilder, diag_handler, w: float, A: np.ndarray,
                     T: LinMap):
    from .matrices import conformal_split

    tol = bld.tol
    offdiag = abs(A[0, 1]) + abs(A[1, 0])
    if offdiag <= tol * (1.0 + frob(A)):
        diag_handler(bld, w, A[0, 0], A[1, 1], T)
        return
    plus, minus = conformal_split(A)
    a, bm = frob(plus), frob(minus)

    def handle_conformal(wc: float, P: np.ndarray):
        r = math.hypot(P[0, 0], P[0, 1])
        R = P / r
        diag_handler(bld, wc, r, r, T.after(LinMap(np.eye(2), R, 1.0)))

    def handle_anticonformal(wc: float, Mn: np.ndarray):
        Pc = np.diag([1.0, -1.0]) @ Mn
        r = math.hypot(Pc[0, 0], Pc[0, 1])
        R = Pc / r
        diag_handler(bld, wc, r, -r, T.after(LinMap(np.eye(2), R, 1.0)))

    if bm <= tol * (1.0 + frob(A)):
        handle_conformal(w, plus)
        return
    if a <= tol * (1.0 + frob(A)):
        handle_anticonformal(w, minus)
        return
    lam = a / (a + bm)
    B = plus / lam
    C = minus / (1.0 - lam)
    bld.split(T, A, B, C, lam)
    handle_conformal(w * lam, B)
    handle_anticonformal(w * (1.0 - lam), C)


def extended_measure(kind: str, A, params: dict, N: int = 0) -> ExtendedMeasure:
    """Finite laminate + staircase tails with barycenter A, supported in the
    elliptic set pair (kind='elliptic', params K) or the p-Laplace set
    (kind='plaplace', params p and b)."""
    A = asmatrix(A)
    if A.shape != (2, 2):
        raise PreconditionError("extended measures live on 2x2 matrices")
    if kind == "elliptic":
        if not float(params["K"]) > 1:
            raise PreconditionError("need K > 1")
        handler = _ell_diag
    elif kind == "plaplace":
        p = float(params["p"])
        if not (1.0 < p < 2.0):
            raise PreconditionError("need p in (1,2)")
        if not float(params["b"]) > 1.0:
            raise PreconditionError("need b > 1")
        handler = _pl_diag
    else:
        raise PreconditionError(f"unknown extended-measure kind {kind!r}")
    bld = _ExtBuilder(kind, params)
    _process_general(bld, handler, 1.0, A, LinMap.identity())
    ext = ExtendedMeasure(A, kind, dict(params), bld.finite, bld.tails, bld.cert)
    total = _seq_sum(float(w) for w, _ in ext.finite_atoms) + \
        _seq_sum(float(w) for w, _ in ext.tails)
    if abs(total - 1.0) > 1e-9:
        raise InternalError(f"extended-measure weights sum to {total}")
    return ext


def extended_tail_report(ext: ExtendedMeasure, N: int,
                         t_grid: Sequence[float]) -> TailReport:
    """Two-sided tail check for a truncated extended measure.

    The envelope constant is existential, so the report fits the tightest
    single M on the grid and evaluates both envelopes with it; the lower side
    gets the truncation residual as additive slack.
    """
    nu = ext.truncate(N)
    normA = frob(ext.A)
    resid = ext.residual_mass(N)
    if ext.kind == "elliptic":
        K = float(ext.params["K"])
        qexp = 2.0 * K / (K + 1.0)
        e_lo, e_up = qexp, qexp
    else:
        p = float(ext.params["p"])
        from .models import exponent
        qexp = exponent("plaplace", {"p": p, "b": float(ext.params["b"])}).value
        e_lo, e_up = (p - 1.0) * qexp, qexp / (p - 1.0)
    ts = [t for t in t_grid if t > 1.0 + normA]
    tails = tail_masses(nu, ts).tolist()
    M = 1.0
    for t, tail in zip(ts, tails):
        M = max(M, tail * t ** qexp / (1.0 + normA ** e_up))
        lower_need = (tail + resid) * t ** qexp / (1.0 + normA ** e_lo)
        if lower_need > 0:
            M = max(M, 1.0 / lower_need) if lower_need < 1 else M
    rows = []
    for t, tail in zip(ts, tails):
        up = M * (1.0 + normA ** e_up) * t ** -qexp
        lo = (1.0 + normA ** e_lo) / M * t ** -qexp
        ok = (tail <= up + 1e-12) and (tail >= lo - resid - 1e-12)
        rows.append(TailRow(float(t), tail, up, lo, ok))
    return TailReport(rows, {"kind": ext.kind, "fitted_M": M, "exponent": qexp,
                             "residual": resid, "N": N})
