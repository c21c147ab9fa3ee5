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
them) and the splits with their fractions.  A spec is given a block
builder, `block_fn(lo, hi)`, and that is the only way it makes levels:
beta_n and the beta slopes are read off validated blocks as truncations
are, so a slope ends at the level where a build ends.  The four families
share one split-column builder, `_diag_split_block`: a level splits
delta_{A_{n-1}}, A_{n-1} diagonal, by a run of one-step splits that each
change one diagonal entry.  `det1` and `rank_drop` split every column in
turn, in rational mode from exact integers with `Fraction`s made for the
exact column only; `elliptic` and `plaplace` split column 1, then column 0,
of a 2x2 matrix (`_two_split_block` adds their per-level checks).
`transform_spec` maps a whole block, and `_block_failure` validates one.
`StairStep`, mu's `DiscreteMeasure` and `SplittingStep` objects are made
only by `StaircaseSpec.step(n)`.  A truncation's certificate is the prefix
blocks' split columns, sliced, and is joined only when it is read.

`build_truncation` keeps a growing prefix on the spec (the validated
blocks, the scaled good atoms, beta_n and the last |A_n|), extends it in
blocks of `_BLOCK` levels, each level appended after its |A_n| monotonicity
check, and slices it, appending the remainder atom beta_N delta_{A_N}.  The
prefix is the only store of levels: `transform_spec` builds and validates
its source's blocks without storing them, and the levels `step(n)` and
`betas` read past the prefix, and all that `log_betas` and
`check_hypotheses` read, are built anew per call (`log_betas(spec, N)`
builds again the levels `build_truncation(spec, N)` stored).  A failure
raises the error that a level-by-level build raises first and leaves the
prefix at the last good level.  The prefix atoms are arrays, with an exact
column of `Fraction` weights in rational mode, and a truncation is one
`DiscreteMeasure` built from them, its keys, norms, level masses and beta_n
by the measure layer's rules (`_keyed`, `_group_sums`, `_wmul`).
"""

from __future__ import annotations

import math
import numbers
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
    _finite_constant,
    _group_sums,
    _key_groups,
    _keyed,
    _merge_weights,
    _objects,
    _seq_sum,
    _split_rows,
    _weight_error,
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
    mu_off[i]:mu_off[i + 1] of mu_w, mu_pts, mu_keys and mu_norms (merged
    and sorted by key, as `DiscreteMeasure` holds them), its splits rows
    sp_off[i]:sp_off[i + 1] of sp_lam and sp_mats (target, left, right).
    `exact` holds the gammas, and mu's weights and the split fractions as
    given (object columns; `Fraction`s in rational mode)."""

    n: np.ndarray
    A_prev: np.ndarray
    A_next: np.ndarray
    gamma: np.ndarray
    mass: np.ndarray
    mu_off: np.ndarray
    mu_w: np.ndarray
    mu_pts: np.ndarray
    mu_keys: np.ndarray
    mu_norms: np.ndarray
    sp_off: np.ndarray
    sp_lam: np.ndarray
    sp_mats: np.ndarray
    exact: tuple[list, np.ndarray, np.ndarray] | None = None

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
                      self.mu_keys[:a], self.mu_norms[:a], self.sp_off[:j + 1], self.sp_lam[:s],
                      self.sp_mats[:s],
                      None if self.exact is None else
                      (self.exact[0][:j], self.exact[1][:a], self.exact[2][:s]))

    def certificate(self, s: int = 0, e: int | None = None) -> Certificate:
        """Splits s..e - 1 (all by default), their columns sliced."""
        return Certificate([(self.sp_lam[s:e], None if self.exact is None else self.exact[2][s:e],
                             self.sp_mats[s:e])])

    def step(self, i: int) -> StairStep:
        """Level i as a `StairStep`."""
        a, b = self.mu_off[i], self.mu_off[i + 1]
        g, ws = ((float(self.gamma[i]), None) if self.exact is None
                 else (self.exact[0][i], self.exact[1][a:b]))
        mu = DiscreteMeasure._of(self.mu_w[a:b], ws, self.mu_pts[a:b], self.mu_keys[a:b],
                                 self.mu_norms[a:b], merged=True)
        return StairStep(int(self.n[i]), self.A_prev[i].copy(), self.A_next[i].copy(), mu, g,
                         list(self.certificate(self.sp_off[i], self.sp_off[i + 1])))


def _mu_rows(w: np.ndarray, pts: np.ndarray, rows: np.ndarray, k: int,
             exact: np.ndarray | None = None):
    """Each level's mu as `DiscreteMeasure` builds it from atoms in input
    order (float weights, points, the level of each, and the exact column
    or None): keys and norms from `_keyed`, equal keys in a level merged
    into the first point, their weights summed left to right
    (`_merge_weights`), and the atoms sorted by key.  Returns the offsets,
    float weights, points, keys, norms, exact weights and each level's
    mass (`_group_sums`)."""
    _, keys, norms = _keyed(pts)
    order, starts = _key_groups(keys, rows)
    first = order[starts]
    ws, exact = _merge_weights(w, exact, order, starts)
    off = _offsets(np.bincount(rows[first], minlength=k))
    return off, ws, pts[first], keys[first], norms[first], exact, _group_sums(ws, off[:-1])


def _block_failure(blk: _Block, tol: float = 1e-9) -> tuple[int, PreconditionError] | None:
    """The first level of a block that fails its checks, as (row, error), or
    None.

    Per level the checks run in this order: gamma lies in (0,1); mu is a
    probability measure; each split in turn (`_split_rows` on the block's
    split stack; the error is named after the level and split); the
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


BlockFn = Callable[[int, int], "tuple[_Block | None, Exception | None]"]


class StaircaseSpec:
    """Lazily evaluated staircase laminate; step(n) is validated.

    `block_fn(lo, hi)` builds levels lo..hi as a `_Block`, up to the first
    level whose build fails, and returns it with that failure (None if
    none).  It is the spec's only source of levels: `step(n)` and `gamma(n)`
    read level n off a block (the prefix's, or one built for the call and
    not kept), and `betas`, `log_betas` and `check_hypotheses` walk
    validated blocks."""

    def __init__(self, A0, kind: str, params: dict, block_fn: BlockFn,
                 target_sets: tuple[str, ...] = (), rational: bool = False):
        self.A0 = asmatrix(A0)
        self.kind = kind
        self.params = dict(params)
        self.target_sets = tuple(target_sets)
        self._block_fn = block_fn
        self.rational = rational
        # build_truncation's prefix over levels 1..len(self._levels): per
        # level the end offsets into the good atoms and the splits, and
        # beta_n; the validated blocks and their
        # first levels; |A_n| of the last level; the good atoms in level
        # order in `_rows` as `DiscreteMeasure._of`'s input arrays (float
        # weights, the exact column or None, the (k, m, n) point stack, its
        # rounded keys and norms), one tuple per block
        self._levels: list[tuple[int, int, Weight]] = []
        self._blocks: list[_Block] = []
        self._starts: list[int] = []
        self._top_norm = -1.0
        self._rows: list[tuple[np.ndarray, ...]] = []

    @property
    def _memo(self) -> range:
        """The levels whose validated blocks the spec holds: its prefix."""
        return range(1, len(self._levels) + 1)

    def step(self, n: int) -> StairStep:
        """Level n, read off the prefix, or built and validated on its own
        past it (and not kept)."""
        if n < 1:
            raise PreconditionError("staircase levels are 1-indexed")
        if n <= len(self._levels):
            blk, row = self._level(n)
        else:
            blk, err = self._build(n, n)
            if err is not None:
                raise err
            row = 0
        return blk.step(row)

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

    def gamma(self, n: int) -> float:
        return float(self.step(n).gamma)

    def in_target(self, X, tol: float = 1e-9) -> bool:
        return any(member(X, s, tol) for s in self.target_sets)


def _walk(spec: StaircaseSpec, lo: int, hi: int):
    """The validated blocks of levels lo..hi in order, `_BLOCK` levels at a
    time and not kept; a failing level raises its error after the levels
    before it, where a level-by-level `step(n)` would."""
    for start in range(lo, hi + 1, _BLOCK):
        blk, err = spec._build(start, min(hi, start + _BLOCK - 1))
        if blk is not None:
            yield blk
        if err is not None:
            raise err


def betas(spec: StaircaseSpec, N: int) -> list[Weight]:
    """[beta_1, ..., beta_N], exact in rational mode: read off the prefix as
    far as it reaches, then from the blocks past it (the same product)."""
    out: list[Weight] = [lv[2] for lv in spec._levels[:N]]
    acc: Weight = out[-1] if out else (Fraction(1) if spec.rational else 1.0)
    for blk in _walk(spec, len(out) + 1, N):
        for g in blk.gamma.tolist() if blk.exact is None else blk.exact[0]:
            acc = _wmul(acc, g)
            out.append(acc)
    return out


def log_betas(spec: StaircaseSpec, N: int) -> np.ndarray:
    """log beta_n for n = 1..N, the cumulative log of the blocks' float
    gammas.  It reads the levels a build makes, so a staircase whose level n
    fails to build (an |A_n| past the float range, say) raises that level's
    error here too: slopes end where builds end."""
    gs = [blk.gamma for blk in _walk(spec, 1, N)]
    return np.cumsum(np.log(np.concatenate([np.zeros(0), *gs])))


def _fit_slope(lb: np.ndarray, n_min: int) -> float:
    """Log-log regression slope of lb[n - 1] = log beta_n over n >= n_min."""
    ns = np.arange(1, len(lb) + 1)
    return float(np.polyfit(np.log(ns[ns >= n_min]), lb[ns >= n_min], 1)[0])


def beta_slope(spec: StaircaseSpec, n_min: int, n_max: int) -> float:
    """Log-log regression slope of beta_n over n in [n_min, n_max]."""
    return _fit_slope(log_betas(spec, n_max), n_min)


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
    """nu^N, sliced from the spec's prefix (grown to N levels first); its
    certificate is the first n_splits rows of the prefix blocks' split
    columns."""
    if N < 1:
        raise PreconditionError("need N >= 1")
    beta, A_N = remainder(spec, N)
    n_atoms, n_splits, _ = spec._levels[N - 1]
    chunks = []
    for blk in spec._blocks:
        if n_splits <= 0:
            break
        chunks.append(blk.certificate(0, n_splits))
        n_splits -= len(blk.sp_lam)
    cols = []
    for rows in spec._rows:
        if n_atoms <= 0:
            break
        cols.append([None if a is None else a[:n_atoms] for a in rows])
        n_atoms -= len(rows[0])
    cols.append([np.array([float(beta)]), _objects([beta]) if spec.rational else None,
                 *_keyed(A_N[None])])
    return DiscreteMeasure._of(*(None if col[0] is None else np.concatenate(col)
                                 for col in zip(*cols)), Certificate.join(chunks))


def _times(w: Weight, good) -> tuple[Weight, float]:
    """w * good as `_wmul` takes it, and its float, for good a `Fraction`
    given as an unreduced (numerator, denominator) pair, or a float."""
    if isinstance(good, tuple):
        if isinstance(w, Fraction):
            a, b = w.numerator * good[0], w.denominator * good[1]
            return Fraction(a, b), a / b
        good = good[0] / good[1]
    x = float(w) * good
    return x, x


def _append_levels(spec: StaircaseSpec, blk: _Block) -> PreconditionError | None:
    """Append a validated block to the prefix, level by level: the |A_n|
    monotonicity check, then the good atoms' weights beta_{n-1} (1 - gamma_n) w
    (`_wmul`'s product, on the exact column in rational mode), each checked
    positive.  Returns the first failure's error, else None; the
    levels before it are appended either way."""
    k, levels = len(blk), spec._levels
    beta0 = levels[-1][2] if levels else (Fraction(1) if spec.rational else 1.0)
    n_atoms, n_splits = levels[-1][:2] if levels else (0, 0)
    flat = blk.A_next.reshape(k, -1)
    with np.errstate(all="ignore"):   # an overflowing |A_n| fails below, as the level's error
        norms = np.sqrt(_dots(flat, flat))
        stop = _first(norms < np.append(spec._top_norm, norms[:-1]) - 1e-9)
    err = (PreconditionError(f"|A_n| not non-decreasing at level {blk.n[stop]}")
           if stop < k else None)
    counts, exact = np.diff(blk.mu_off), None
    if spec.rational:   # beta_n and the good weights stay `Fraction`s while both factors are
        goods, bs, beta = [], [], beta0
        for g in blk.exact[0]:
            if isinstance(beta, Fraction) and isinstance(g, Fraction):
                # beta (1 - g) as an unreduced (numerator, denominator) pair
                goods.append((beta.numerator * (g.denominator - g.numerator),
                              beta.denominator * g.denominator))
            else:
                goods.append(float(beta) * (1.0 - float(g)))
            beta = _wmul(beta, g)
            bs.append(beta)
        exact, weights = zip(*map(_times, blk.exact[1], [
            good for good, c in zip(goods, counts.tolist()) for _ in range(c)]))
        exact, weights = _objects(exact), np.array(weights)
    else:
        with np.errstate(all="ignore"):
            bs = np.multiply.accumulate(np.append(float(beta0), blk.gamma))
            weights = blk.mu_w * np.repeat(bs[:-1] * (1.0 - blk.gamma), counts)
        bs = bs[1:].tolist()
    low = np.flatnonzero(~(weights > 0.0))
    if low.size:
        i = int(np.searchsorted(blk.mu_off, low[0], side="right")) - 1
        if i < stop:
            stop, err = i, _weight_error(float(weights[low[0]]) if exact is None
                                         else exact[low[0]])
    bs = bs[:stop]
    a = blk.mu_off[stop]
    if a:
        spec._rows.append((weights[:a], None if exact is None else exact[:a], blk.mu_pts[:a],
                           blk.mu_keys[:a], blk.mu_norms[:a]))
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
    steps = (blk.step(i) for blk in _walk(spec, 1, N) for i in range(len(blk)))
    for n, st in enumerate(steps, start=1):
        beta *= float(st.gamma)
        a_prev = frob(st.A_prev)
        a_n = frob(st.A_next)
        ratio_ok = (a_prev <= a_n + 1e-12) and (a_n <= c * a_prev + 1e-12)
        supp_ok = bool((st.mu._norms <= c0 * a_n + 1e-9).all())
        upper_ok = beta * a_n ** p <= M0 + 1e-9
        lower_supp = _seq_sum(st.mu._w[st.mu._norms >= c1 * a_n - 1e-9].tolist()) >= c1 - 1e-9
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


def _finite_entries(kind: str, params: dict) -> list:
    """params["a"] as a list, which must be a sequence of finite real numbers."""
    a = params.get("a")
    try:
        entries = None if isinstance(a, (str, bytes)) else list(a)
        ok = entries is not None and all(isinstance(v, numbers.Real) and math.isfinite(v)
                                         for v in entries)
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise PreconditionError(f"{kind} staircase needs a as a sequence of finite numbers, "
                                f"got {a!r}")
    return entries


def _param(kind: str, params: dict, key: str) -> float:
    """params[key] as a float; a missing key is a precondition failure."""
    if key not in params:
        raise PreconditionError(f"{kind} staircase needs parameter {key}")
    return float(params[key])


def _head_error(kind: str, n: int, base: list, unit: Weight) -> Exception:
    """The first error of level n's own build: its scale unit^(n-1), then
    `_check_level_norm` on |A_n|."""
    try:
        scale = unit ** (n - 1)
        _check_level_norm(kind, n, [2 * (scale * v) for v in base])
    except (OverflowError, PreconditionError) as exc:
        return exc
    return InternalError(f"{kind} staircase level {n}: its |A_n| check passes on its own")


def _diag_levels(kind: str, base: list, unit: Weight, lo: int,
                 hi: int) -> tuple[np.ndarray, np.ndarray, Exception | None]:
    """(cur, two, err) for levels lo..hi of a diagonal staircase whose level
    n starts at A_{n-1} = unit^(n-1) diag(base), unit = 2 (a `Fraction` in
    rational mode): the floats of unit^(n-1) v and unit^n v per level and
    entry v, up to the first level whose |A_n| check fails, and that level's
    error (`_head_error`; None if none fails).  In float mode they are the
    per-level products, taken over all levels at once; in rational mode each
    is an int true division of the exact value, correctly rounded as
    `float(Fraction)` is."""
    if isinstance(unit, Fraction):
        pq = [(v.numerator, v.denominator) for v in base]
        cur, two = [], []
        for n in range(lo, hi + 1):
            try:
                xs = [(p << n) / q for p, q in pq]
                _check_level_norm(kind, n, xs)
            except (OverflowError, PreconditionError):
                break
            two.append(xs)
            cur.append([(p << (n - 1)) / q for p, q in pq])
        cur, two = (np.array(c, dtype=float).reshape(len(c), len(base)) for c in (cur, two))
    else:
        with np.errstate(all="ignore"):   # Python's float arithmetic does not warn
            cur = np.ldexp(1.0, np.arange(lo - 1, hi))[:, None] * np.array(base)
            two = 2.0 * cur
            sq = np.zeros(len(cur))
            for x in two.T:
                sq = sq + x * x
        # inf, or nan where a zero entry meets a scale past 2.0 ** 1023
        k = _first(~(sq < math.inf))
        cur, two = cur[:k], two[:k]
    n = lo + len(cur)
    return cur, two, None if n > hi else _head_error(kind, n, base, unit)


def _level_block(n0: int, A_prev: np.ndarray, A_next: np.ndarray, gamma: np.ndarray,
                 w: np.ndarray, pts: np.ndarray, rows: np.ndarray, sp_off: np.ndarray,
                 sp_lam: np.ndarray, sp_mats: np.ndarray, exact: tuple | None = None,
                 err: Exception | None = None) -> tuple[_Block | None, Exception | None]:
    """The block of levels n0, n0 + 1, ...: per level A_{n-1}, A_n and
    gamma; mu's weights and points in input order, rows[i] the level of
    atom i, merged and sorted by `_mu_rows`; the splits, rows
    sp_off[i]:sp_off[i + 1] of their fractions and (target, left, right)
    stack; in rational mode `exact`, the gammas, mu's weights (an object
    column in input order) and the fractions as given.  The block ends
    before the first level whose mu has mass above 1, with that error, and
    else carries err; with no levels it is None."""
    k = len(gamma)
    if k == 0:
        return None, err
    off, mu_w, pts, keys, norms, mu_exact, mass = _mu_rows(w, pts, rows, k,
                                                           None if exact is None else exact[1])
    blk = _Block(np.arange(n0, n0 + k), A_prev, A_next, gamma, mass, off, mu_w, pts, keys,
                 norms, sp_off, sp_lam, sp_mats,
                 None if exact is None else (exact[0], mu_exact, exact[2]))
    heavy = _first(mass > 1.0 + MASS_SLACK * np.maximum(1, np.diff(off)))
    if heavy < k:
        return blk.head(heavy), PreconditionError(f"total mass {float(mass[heavy])} exceeds 1")
    return blk, err


def _diag_split_block(n0: int, cur: np.ndarray, two: np.ndarray, cols: Sequence[int],
                      small: np.ndarray, lam: np.ndarray, w: np.ndarray, gamma: np.ndarray,
                      exact: tuple | None,
                      err: Exception | None) -> tuple[_Block | None, Exception | None]:
    """Levels n0, n0 + 1, ... that split delta_{diag(cur)} column by column
    (`_level_block`; None for no levels): split j takes the running
    diagonal, `two` on the columns split so far and `cur` on the rest, to
    its left, column cols[j] set to small[:, j], and its right, that column
    set to two[:, cols[j]], by fraction lam[:, j].  mu's atoms are the
    lefts, weighted w[:, j], and A_n is the last right."""
    (k, c), d = small.shape, cur.shape[1]
    diag = np.empty((k, 2 * c + 1, d))   # the running diagonals 0..c, then the lefts
    diag[:, 0] = cur
    for j, col in enumerate(cols):
        diag[:, j + 1] = diag[:, j]
        diag[:, j + 1, col] = two[:, col]
    diag[:, c + 1:] = diag[:, :c]
    diag[:, c + 1 + np.arange(c), list(cols)] = small
    mats = np.zeros(diag.shape + (d,))   # as `_diag` makes each
    mats[..., np.arange(d), np.arange(d)] = diag
    j = np.arange(c)
    return _level_block(n0, mats[:, 0], mats[:, c], gamma, w.ravel(),
                        mats[:, c + 1:].reshape(k * c, d, d), np.arange(k).repeat(c),
                        np.arange(0, c * k + 1, c), lam.ravel(),
                        mats[:, np.stack([j, c + 1 + j, j + 1], axis=1)].reshape(k * c, 3, d, d),
                        exact, err)


def _det1_spec(params: dict) -> StaircaseSpec:
    entries = _finite_entries("det1", params)
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
    unit: Weight = Fraction(2) if rational else 2.0

    def float_levels(cur: np.ndarray):
        """Level n's split j has alpha_j = 2^j D / (2^(j+1) D - 1) for
        D = prod(cur), left entry cur_j / (2^j D) and atom weight keep_j
        alpha_j, keep_{j+1} = keep_j (1 - alpha_j); gamma = keep_d.  The
        per-level float operations in their order, over all levels at once."""
        with np.errstate(all="ignore"):   # Python's float arithmetic does not warn
            D = np.ones(len(cur))
            for x in cur.T:
                D = D * x
            keep, cols = np.ones(len(cur)), []
            for j, x in enumerate(cur.T):
                pw = 2.0 ** j
                alpha = (pw * D) / (2 * pw * D - 1)
                cols.append((x / (pw * D), alpha, keep * alpha))
                keep = keep * (1 - alpha)
            small, lam, w = (np.stack(col, axis=1) for col in zip(*cols))
            mu = w / (1 - keep)[:, None]
        bad = np.concatenate([~(w > 0.0), ~(mu > 0.0)], axis=1)
        k = _first(bad.any(axis=1))
        err = None if k == len(cur) else _weight_error(
            float(np.concatenate([w[k], mu[k]])[np.argmax(bad[k])]))
        return small[:k], lam[:k], mu[:k], keep[:k], None, err

    if rational:
        P, Q = math.prod(v.numerator for v in fr), math.prod(v.denominator for v in fr)
        left = [(v.numerator * Q, v.denominator * P) for v in fr]

    def rational_levels(lo: int, k: int):
        """float_levels on exact integers: with D = N / Q and t_j = 2^j N - Q,
        alpha_j = 2^j N / t_{j+1} and 1 - alpha_j = t_j / t_{j+1}; keep_j,
        gamma and mu's weights are unreduced products of these, and the left
        entry is cur_j / (2^j D) = (p_j Q / (q_j P)) 2^-((n-1)(d-1)+j) for
        base_j = p_j / q_j and P / Q = prod(base).  `Fraction`s are made for
        the exact column only.  Stops at the first level whose gamma
        disagrees with the closed form t_0 / t_d or one of whose atom weights
        is not > 0, with its error."""
        rows, gammas, mus, lams, err = [], [], [], [], None
        for n in range(lo, lo + k):
            N = P << ((n - 1) * d)
            t = [(N << j) - Q for j in range(d + 1)]
            kn = kd = 1
            lam, ws = [], []
            for j in range(d):
                lam.append((N << j, t[j + 1]))
                ws.append((kn * (N << j), kd * t[j + 1]))
                kn, kd = kn * t[j], kd * t[j + 1]
            if kn * t[d] != t[0] * kd:
                err = InternalError("det-1 remainder fraction disagrees with closed form")
                break
            ws += [(a * kd, b * (kd - kn)) for a, b in ws]   # then mu's weights
            fl = [a / b for a, b in ws]
            if not min(fl) > 0.0:
                err = _weight_error(Fraction(*ws[[x > 0.0 for x in fl].index(False)]))
                break
            s = (n - 1) * (d - 1)
            rows.append([a / (b << (s + j)) for j, (a, b) in enumerate(left)]
                        + [a / b for a, b in lam] + fl[d:] + [kn / kd])
            gammas.append(Fraction(kn, kd))
            mus += [Fraction(a, b) for a, b in ws[d:]]
            lams += [Fraction(a, b) for a, b in lam]
        vals = np.array(rows, dtype=float).reshape(len(rows), 3 * d + 1)
        return (vals[:, :d], vals[:, d:2 * d], vals[:, 2 * d:3 * d], vals[:, 3 * d],
                (gammas, _objects(mus), _objects(lams)), err)

    def block_fn(lo: int, hi: int):
        cur, two, err = _diag_levels("det1", base, unit, lo, hi)
        small, lam, mu, gamma, exact, bad = (rational_levels(lo, len(cur)) if rational
                                             else float_levels(cur))
        k = len(gamma)
        return _diag_split_block(lo, cur[:k], two[:k], range(d), small, lam, mu, gamma,
                                 exact, bad or err)

    return StaircaseSpec(_diag(base), "det1", params, target_sets=("D&Sigma",),
                         rational=rational, block_fn=block_fn)


def _rank_drop_spec(params: dict) -> StaircaseSpec:
    entries = _finite_entries("rank_drop", params)
    nz = [i for i, v in enumerate(entries) if float(v) != 0.0]
    m = len(nz)
    if m < 2:
        raise PreconditionError("rank-drop staircase needs rank >= 2")
    fr = _as_fraction_list(entries)
    rational = fr is not None
    base = fr if rational else [float(v) for v in entries]
    unit: Weight = Fraction(2) if rational else 2.0
    half: Weight = Fraction(1, 2) if rational else 0.5
    gamma: Weight = half ** m
    # every level splits column nz[j] to 0 and 2 cur, with fraction 1/2 and
    # atom weight 2^-(j+1), and gamma = 2^-m
    w: Weight = Fraction(1) if rational else 1.0
    mus = []
    for _ in nz:
        w = w * half
        mus.append(w / (1 - gamma))
    mu_w = np.array(mus, dtype=float)

    def block_fn(lo: int, hi: int):
        cur, two, err = _diag_levels("rank_drop", base, unit, lo, hi)
        k = len(cur)
        small = np.zeros((k, m)) if rational else 0.0 * cur[:, nz]
        exact = ([gamma] * k, _objects(mus * k), _objects([half] * (k * m))) if rational else None
        return _diag_split_block(lo, cur, two, nz, small, np.full((k, m), float(half)),
                                 np.tile(mu_w, (k, 1)), np.full(k, float(gamma)), exact, err)

    return StaircaseSpec(_diag(base), "rank_drop", params,
                         target_sets=(f"rank<={m - 1}",), rational=rational,
                         block_fn=block_fn)


def _two_split_block(n0: int, cur, two, small, a1: np.ndarray, l2: np.ndarray,
                     kind: str) -> tuple[_Block | None, Exception | None]:
    """Levels n0, n0 + 1, ... of the `kind` staircase that split
    delta_{A_{n-1}} into a1 B1 + (1 - a1) C and C into l2 B2 + (1 - l2) A_n,
    so gamma = (1 - a1)(1 - l2) and
    mu = (a1 delta_B1 + (1 - a1) l2 delta_B2) / (1 - gamma), as the splits of
    `_diag_split_block` from diag(cur) to diag(two), column 1 then column 0,
    B1 and B2 taking small[0] and small[1] there (pairs of diagonal columns
    over the levels).  The block ends before the lowest level whose
    per-level construction fails, with its error: a non-finite split matrix,
    then gamma == 1.0 (mu's weights would divide by 0), then an atom weight
    not > 0, then a split matrix whose squared norm overflows the float range
    (as `_check_level_norm` checks |A_n|), then mu's mass above 1."""
    (c0, c1), (t0, t1), (s0, s1) = cur, two, small
    k, huge = len(a1), np.zeros(len(a1), dtype=bool)
    with np.errstate(all="ignore"):
        # the diagonals of A_{n-1}, B1, C, B2 and A_n
        for d0, d1 in (c0, c1), (c0, s0), (c0, t1), (s1, t1), (t0, t1):
            huge |= d0 * d0 + d1 * d1 == math.inf
        gamma = (1.0 - a1) * (1.0 - l2)
        w = np.stack([a1 / (1.0 - gamma), (1.0 - a1) * l2 / (1.0 - gamma)], axis=1)
    non_finite = ~np.isfinite([c0, c1, t0, t1, s0, s1]).all(axis=0)
    w_bad = ~(w > 0.0)
    # mu is made (its keys rounded and norms taken, which may warn) only up
    # to the first level that fails before it, as level by level
    m = _first(non_finite | (gamma == 1.0) | w_bad.any(axis=1) | huge)
    err: Exception | None = None
    at = f"{kind} staircase level {n0 + m}: "
    if m < k and non_finite[m]:
        err = PreconditionError("matrix has non-finite entries")
    elif m < k and gamma[m] == 1.0:
        err = PreconditionError(at + "gamma = (1 - a1)(1 - l2) rounds to 1")
    elif m < k and w_bad[m].any():
        err = _weight_error(float(w[m, np.argmax(w_bad[m])]))
    elif m < k:
        err = PreconditionError(at + "a split matrix's norm overflows the float range")
    cur, two, small, lam = (np.stack(x, axis=1)[:m] for x in (cur, two, small, (a1, l2)))
    return _diag_split_block(n0, cur, two, (1, 0), small, lam, w[:m], gamma[:m], None, err)


def _xs(x0: float, lo: int, hi: int) -> np.ndarray:
    """x = x0 + (n - 1) for n = lo..hi."""
    return x0 + np.arange(lo - 1, hi, dtype=float)


def _powers(xs: np.ndarray, q: float) -> np.ndarray:
    """xs ** q, by Python's float power (np.power differs in the last bit)."""
    return np.array([x ** q for x in xs.tolist()])


def _elliptic_spec(params: dict) -> StaircaseSpec:
    K = _param("elliptic", params, "K")
    x0 = float(params.get("x0", 1.0))
    if not 1 < K < math.inf:
        raise PreconditionError("need a finite K > 1")
    if not x0 >= 1:
        raise PreconditionError("need start x >= 1")
    kinv = 1.0 / K

    def block_fn(lo: int, hi: int):
        with np.errstate(all="ignore"):   # Python's float arithmetic does not warn
            x = _xs(x0, lo, hi)
            x1 = x + 1.0
            a1 = 1.0 / (1.0 + x * (1.0 + kinv))
            l2 = 1.0 / (x1 * (1.0 + kinv))
            diags = (-x, x), (-x1, x1), (-x * kinv, x1 * kinv)   # cur, two, small
        return _two_split_block(lo, *diags, a1, l2, "elliptic")

    return StaircaseSpec(_diag([-x0, x0]), "elliptic", params,
                         target_sets=(f"E:{K!r}", f"E:{kinv!r}"), block_fn=block_fn)


def _plaplace_spec(params: dict) -> StaircaseSpec:
    p = _param("plaplace", params, "p")
    b = _param("plaplace", params, "b")
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
            diags = (bx, -xq), (b * x1, -x1q), (bxq, -x1)   # cur, two, small
        return _two_split_block(lo, *diags, a1, l2, "plaplace")

    return StaircaseSpec(_diag([b * x0, -(x0 ** q)]), "plaplace", params,
                         target_sets=(f"Kp:{p!r}",), block_fn=block_fn)


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
    fails: a non-finite atom, then an atom whose norm overflows the float
    range, then mu's mass above 1, then a non-finite split matrix."""
    k, a = len(blk), len(blk.mu_w)
    sp = blk.sp_mats
    with np.errstate(all="ignore"):
        out = T(np.concatenate([blk.A_prev, blk.A_next, blk.mu_pts,
                                sp.reshape(-1, *sp.shape[2:])]))
        flat = out[2 * k:2 * k + a].reshape(a, -1)
        big = ~(_dots(flat, flat) < math.inf)   # a non-finite atom too
    pts, sp_mats = out[2 * k:2 * k + a], out[2 * k + a:].reshape(len(sp), 3, *out.shape[1:])
    mu_rows, sp_rows = (np.arange(k).repeat(np.diff(off)) for off in (blk.mu_off, blk.sp_off))
    atom_bad, atom_big = (np.bincount(mu_rows, x, minlength=k) > 0
                          for x in (~np.isfinite(flat).all(axis=1), big))
    split_bad = np.bincount(sp_rows, ~np.isfinite(sp_mats).reshape(len(sp), -1).all(axis=1),
                            minlength=k) > 0
    f = _first(atom_big | split_bad)
    err = None if f == k else PreconditionError(
        f"staircase level {blk.n[f]}: a mapped atom's norm overflows the float range"
        if atom_big[f] and not atom_bad[f] else "matrix has non-finite entries")
    # mu is merged (its keys rounded and norms taken, which may warn) up to
    # level f, and at f too when its atoms' norms are finite, as `pushforward`
    # does level by level
    m = f if f < k and atom_big[f] else min(f + 1, k)
    na, ns = blk.mu_off[m], blk.sp_off[m]
    res, bad = _level_block(int(blk.n[0]), out[:m], out[k:k + m], blk.gamma[:m],
                            blk.mu_w[:na], pts[:na], mu_rows[:na], blk.sp_off[:m + 1],
                            blk.sp_lam[:ns], sp_mats[:ns],
                            None if blk.exact is None else
                            (blk.exact[0][:m], blk.exact[1][:na], blk.exact[2][:ns]), err)
    # a mass failure ends the block at or before level f
    return (None if res is None else res.head(f)), bad


def transform_spec(spec: StaircaseSpec, T: LinMap,
                   target_sets: tuple[str, ...] | None = None) -> StaircaseSpec:
    """Pushforward of a staircase spec under a rank-one preserving linear map.
    Only the returned spec keeps a prefix: its source's blocks are built and
    validated, mapped by `_map_block`, then dropped."""

    def block_fn(lo: int, hi: int):
        # the source's blocks and the mapped ones are both validated: the
        # source check names a faulty source's level as its own build does
        # (test_invalid_inner_step_raises_through_transform), and the mapped
        # check guards maps that are not orthogonal, such as `_pl_diag`'s
        # diag(lam, lam^(p-1)), under which a tolerance may fail
        src, err = spec._build(lo, hi)
        if src is None:
            return None, err
        out, bad = _map_block(src, T)
        return out, bad or err

    return StaircaseSpec(T(spec.A0), spec.kind, spec.params,
                         target_sets=target_sets if target_sets is not None
                         else spec.target_sets,
                         rational=spec.rational, block_fn=block_fn)


# --- extended measures ------------------------------------------------------------


@dataclass
class ExtendedMeasure:
    A: np.ndarray
    kind: str
    params: dict
    finite_atoms: list[tuple[Weight, np.ndarray]]
    tails: list[tuple[Weight, StaircaseSpec]]
    root_certificate: Certificate

    def truncate(self, N: int) -> DiscreteMeasure:
        """The finite atoms plus each tail's truncation nu^N scaled by its
        weight, merged in one `mixture`; the certificate joins the root's
        and the truncations' chunks."""
        parts: list[tuple[Weight, DiscreteMeasure]] = []
        if self.finite_atoms:
            parts.append((1.0, DiscreteMeasure([Atom(w, B) for w, B in self.finite_atoms])))
        certs = [self.root_certificate]
        for w, sp in self.tails:
            nu = build_truncation(sp, N)
            parts.append((w, nu))
            certs.append(nu.certificate)
        return mixture(parts, Certificate.join(certs))

    def residual_mass(self, N: int) -> float:
        total = 0.0
        for w, sp in self.tails:
            total += float(w) * float(betas(sp, N)[-1])
        return total


class _ExtBuilder:
    def __init__(self, params: dict, tol: float = 1e-9):
        self.params = params
        self.tol = tol
        self.finite: list[tuple[float, np.ndarray]] = []
        self.tails: list[tuple[float, StaircaseSpec]] = []
        self.cert: list[tuple] = []   # (target, left, right, lam) per split

    def split(self, T: LinMap, target, left, right, lam: float):
        self.cert.append((T(asmatrix(target)), T(asmatrix(left)), T(asmatrix(right)), lam))

    def atom(self, w: float, T: LinMap, B):
        self.finite.append((w, T(asmatrix(B))))

    def tail(self, w: float, spec: StaircaseSpec, T: LinMap):
        self.tails.append((w, transform_spec(spec, T)))


def _ell_diag(bld: _ExtBuilder, w: float, x: float, y: float, T: LinMap):
    x, y = float(x), float(y)   # K * y overflows to inf without a warning
    K = float(bld.params["K"])
    tol = bld.tol
    sets = (f"E:{K!r}", f"E:{1.0 / K!r}")
    D = _diag([x, y])
    if any(member(D, s, tol) for s in sets):
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


def extended_measure(kind: str, A, params: dict) -> ExtendedMeasure:
    """Finite laminate + staircase tails with barycenter A, supported in the
    elliptic set pair (kind='elliptic', params K) or the p-Laplace set
    (kind='plaplace', params p and b)."""
    A = asmatrix(A)
    if A.shape != (2, 2):
        raise PreconditionError("extended measures live on 2x2 matrices")
    if kind == "elliptic":
        if not 1 < float(params["K"]) < math.inf:
            raise PreconditionError("need a finite K > 1")
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
    bld = _ExtBuilder(params)
    _process_general(bld, handler, 1.0, A, LinMap.identity())
    ext = ExtendedMeasure(A, kind, dict(params), bld.finite, bld.tails,
                          Certificate.of(bld.cert))
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
    return _tail_report(ext, ext.truncate(N), N, t_grid)


def _tail_report(ext: ExtendedMeasure, nu: DiscreteMeasure, N: int,
                 t_grid: Sequence[float]) -> TailReport:
    """extended_tail_report for nu, the truncation ext.truncate(N) already
    built."""
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
    env_up, env_lo = (_finite_constant(lambda: 1.0 + normA ** e,
                                       f"tail envelope term 1 + |A|^{e!r}")
                      for e in (e_up, e_lo))
    ts = [t for t in t_grid if t > 1.0 + normA]
    tails = tail_masses(nu, ts).tolist()
    M = 1.0
    for t, tail in zip(ts, tails):
        M = max(M, tail * t ** qexp / env_up)
        lower_need = (tail + resid) * t ** qexp / env_lo
        if lower_need > 0:
            M = max(M, 1.0 / lower_need) if lower_need < 1 else M
    rows = []
    for t, tail in zip(ts, tails):
        up = M * env_up * t ** -qexp
        lo = env_lo / M * t ** -qexp
        ok = (tail <= up + 1e-12) and (tail >= lo - resid - 1e-12)
        rows.append(TailRow(float(t), tail, up, lo, ok))
    return TailReport(rows, {"kind": ext.kind, "fitted_M": M, "exponent": qexp,
                             "residual": resid, "N": N})
