"""Staircase laminates: lazy step generators, truncations, weak-L^p hypothesis
checks, the four worked families and the extended measures with staircase tails.

A staircase spec produces, for each level n >= 1, a one-step laminate
omega_n = (1 - gamma_n) mu_n + gamma_n delta_{A_n} with barycenter A_{n-1},
certified by explicit splitting steps.  Truncating at N gives

    nu^N = sum_{n<=N} beta_{n-1} (1 - gamma_n) mu_n + beta_N delta_{A_N},

with beta_n = prod_{k<=n} gamma_k kept as an exact rational whenever the
construction data is rational.

Each level is built once per spec.  `StaircaseSpec.step` memoizes validated
steps; a spec made by `transform_spec` owns the only memo of its levels, and
builds and validates its source's steps without storing them there.

`build_truncation` keeps a growing prefix on the spec (scaled good atoms,
splits, beta_n and the last |A_n|).  A truncation extends it past its current
length in blocks of `_BLOCK` levels: each block's steps are built one level
at a time, validated by one stacked check (`_step_failure`), memoized, and
appended level by level, each after its |A_n| monotonicity check.  A failure
raises the error that a level-by-level build raises first, and leaves the
prefix at the last good level.  The truncation then slices the prefix and
appends the remainder atom beta_N delta_{A_N}.  For a float spec the prefix's
good atoms are arrays (weights, the point stack, its keys and norms) and the
truncation is an `_ArrayMeasure`; a rational spec keeps them as `Atom`s with
exact `Fraction` weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import PreconditionError, InternalError
from .matrices import _dots, asmatrix, frob, member
from .measures import (
    Atom,
    DiscreteMeasure,
    SplittingStep,
    TailReport,
    TailRow,
    Weight,
    _ArrayMeasure,
    _seq_sum,
    _split_failure,
    _weight_error,
    _wmul,
    mixture,
    pushforward,
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


class StaircaseSpec:
    """Lazily evaluated staircase laminate; step(n) is memoized and validated.

    `step_fn(n)` builds level n.  A spec with a `source` (see
    `transform_spec`) builds no level itself: `step_fn(st)` maps the
    source's validated step st to this spec's step at the same level."""

    def __init__(self, A0, kind: str, params: dict,
                 step_fn: Callable[..., StairStep],
                 target_sets: tuple[str, ...],
                 gamma_fn: Callable[[int], float] | None = None,
                 rational: bool = False,
                 source: StaircaseSpec | None = None):
        self.A0 = asmatrix(A0)
        self.kind = kind
        self.params = dict(params)
        self.target_sets = tuple(target_sets)
        self._step_fn = step_fn
        self._gamma_fn = gamma_fn
        self.rational = rational
        self._source = source
        self._memo: dict[int, StairStep] = {}
        # build_truncation's prefix over levels 1..len(self._levels): per
        # level the end offsets into the good atoms and the splits, and
        # beta_n; the splits in level order; |A_n| of the last level; the
        # good atoms in level order, as `Atom`s in `_atoms` for a rational
        # spec, else in `_rows` as `_ArrayMeasure`'s input arrays (float
        # weights, the (k, m, n) point stack, its rounded keys and norms),
        # one tuple of them per appended block
        self._levels: list[tuple[int, int, Weight]] = []
        self._splits: list[SplittingStep] = []
        self._top_norm = -1.0
        self._atoms: list[Atom] = []
        self._rows: list[tuple[np.ndarray, ...]] = []

    def step(self, n: int) -> StairStep:
        if n < 1:
            raise PreconditionError("staircase levels are 1-indexed")
        if n not in self._memo:
            steps, err = self._steps([n])
            if err is not None:
                raise err
            self._memo[n] = steps[0]
        return self._memo[n]

    def _steps(self, levels: Sequence[int]) -> tuple[list[StairStep], Exception | None]:
        """Validated steps at `levels` (ascending), in level order up to the
        first level that fails, and that level's error (None if none does).
        Memo hits are taken as they are.  The other levels are built with
        one `step_fn` call each (on the source's steps for a transformed
        spec, built and validated there but not stored), validated by one
        `_step_failure` call, and not stored.  Within a level the source's
        build and checks come first, then `step_fn`, then the checks."""
        todo = [n for n in levels if n not in self._memo]
        if self._source is None:
            args, err = todo, None
        else:
            args, err = self._source._steps(todo)
        built = []
        for i, a in enumerate(args):
            args[i] = None   # a source step is dropped once mapped
            try:
                built.append(self._step_fn(a))
            except Exception as exc:
                # raised after the checks below, unless one of them fails
                # at a lower level of the block first
                err = exc
                break
        bad = _step_failure(built)
        if bad is not None:
            del built[bad[0]:]
            err = bad[1]
        fresh = iter(built)
        out = []
        for n in levels:
            st = self._memo[n] if n in self._memo else next(fresh, None)
            if st is None:
                break
            out.append(st)
        return out, err

    def gamma(self, n: int) -> float:
        if self._gamma_fn is not None:
            return float(self._gamma_fn(n))
        return float(self.step(n).gamma)

    def in_target(self, X, tol: float = 1e-9) -> bool:
        return any(member(X, s, tol) for s in self.target_sets)


def _step_failure(steps: Sequence[StairStep],
                  tol: float = 1e-9) -> tuple[int, PreconditionError] | None:
    """The first step that fails its checks, as (index, error), or None.

    Per step the checks run in this order: gamma lies in (0,1); mu is a
    probability measure; each split in turn (`_split_failure`, one call over
    all the steps' splits; its error is named after the step and split);
    the barycenter gamma A_n + (1 - gamma) sum_j w_j B_j of omega_n is
    within tol * (1 + |A_{n-1}|) of A_{n-1}.  Each check runs on the steps
    before the first failure so far.  The barycenters are stacks, one per
    matrix shape and atom count, summed atom by atom in the order of
    mu.atoms, with norms from `_dots` (bit-equal to `frob`)."""
    stop, err = len(steps), None
    for i, st in enumerate(steps):
        g = float(st.gamma)
        if not (0.0 < g < 1.0):
            stop, err = i, PreconditionError(f"step {st.n}: gamma {g} outside (0,1)")
            break
        if abs(st.mu.mass - 1.0) > 1e-9:
            stop, err = i, PreconditionError(f"step {st.n}: mu is not a probability measure")
            break
    owners = [(i, j) for i in range(stop) for j in range(len(steps[i].splits))]
    bad = _split_failure([s for st in steps[:stop] for s in st.splits], tol)
    if bad is not None:
        i, j = owners[bad[0]]
        stop, err = i, PreconditionError(f"step {steps[i].n}, split {j}: {bad[1]}")
        err.__cause__ = bad[1]
    groups: dict = {}
    for i in range(stop):
        groups.setdefault((np.shape(steps[i].A_next), len(steps[i].mu.atoms)),
                          []).append(i)
    for (shape, n_atoms), rows in groups.items():
        k, size = len(rows), math.prod(shape)
        gs = [float(steps[i].gamma) for i in rows]
        # per step: gamma, (1 - gamma) w_j per atom; A_{n-1}, A_n, the points
        coef = np.array([[g] + [(1.0 - g) * float(a.weight) for a in steps[i].mu.atoms]
                         for g, i in zip(gs, rows)])
        mats = np.array([[steps[i].A_prev, steps[i].A_next]
                         + [a.point for a in steps[i].mu.atoms] for i in rows],
                        dtype=float).reshape(k, n_atoms + 2, size)
        with np.errstate(all="ignore"):
            bc = coef[:, :1] * mats[:, 1]
            for j in range(1, n_atoms + 1):
                bc = bc + coef[:, j, None] * mats[:, j + 1]
            off = bc - mats[:, 0]
            far = (np.sqrt(_dots(off, off))
                   > tol * (1.0 + np.sqrt(_dots(mats[:, 0], mats[:, 0]))))
        hit = np.flatnonzero(far)
        if hit.size and rows[hit[0]] < stop:
            stop = rows[hit[0]]
            err = PreconditionError(f"step {steps[stop].n}: omega_n barycenter mismatch")
    return None if err is None else (stop, err)


def _validate_step(st: StairStep, tol: float = 1e-9) -> None:
    """The one-step case of `_step_failure`."""
    bad = _step_failure([st], tol)
    if bad is not None:
        raise bad[1]


def betas(spec: StaircaseSpec, N: int) -> list[Weight]:
    """[beta_1, ..., beta_N], exact in rational mode."""
    out: list[Weight] = []
    acc: Weight = Fraction(1) if spec.rational else 1.0
    for n in range(1, N + 1):
        g = spec.step(n).gamma
        if isinstance(acc, Fraction) and isinstance(g, Fraction):
            acc = acc * g
        else:
            acc = float(acc) * float(g)
        out.append(acc)
    return out


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


def build_truncation(spec: StaircaseSpec, N: int) -> DiscreteMeasure:
    """nu^N, sliced from the spec's prefix.  Levels past the prefix are
    built and validated in blocks of `_BLOCK` (`StaircaseSpec._steps`),
    then memoized and appended by `_append_levels` up to the first failing
    level, whose error is raised."""
    if N < 1:
        raise PreconditionError("need N >= 1")
    while len(spec._levels) < N:
        lo = len(spec._levels) + 1
        steps, err = spec._steps(range(lo, min(N, lo + _BLOCK - 1) + 1))
        bad = _append_levels(spec, steps)
        for st in steps if bad is None else steps[:bad[0]]:
            spec._memo[st.n] = st
        if bad is not None:
            raise bad[1]
        if err is not None:
            raise err
    n_atoms, n_splits, beta = spec._levels[N - 1]
    rest = Atom(beta, spec.step(N).A_next)
    cert = spec._splits[:n_splits]
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


def _append_levels(spec: StaircaseSpec,
                   steps: list[StairStep]) -> tuple[int, PreconditionError] | None:
    """Append validated steps to the prefix, level by level: the |A_n|
    monotonicity check, then the good atoms' weights beta_{n-1} (1 - gamma_n) w
    (`Atom.scaled`'s product, exact when both factors are `Fraction`s), each
    checked positive.  Returns the first failure as (index, error), else
    None; the levels before it are appended either way."""
    levels = spec._levels
    beta = levels[-1][2] if levels else (Fraction(1) if spec.rational else 1.0)
    n_atoms, n_splits = levels[-1][:2] if levels else (0, 0)
    top, new, good, weights, splits, bad = spec._top_norm, [], [], [], [], None
    for i, st in enumerate(steps):
        nrm = frob(st.A_next)
        if nrm < top - 1e-9:
            bad = i, PreconditionError(f"|A_n| not non-decreasing at level {st.n}")
            break
        g = st.gamma
        if isinstance(beta, Fraction) and isinstance(g, Fraction):
            good_w: Weight = beta * (1 - g)
            beta_n: Weight = beta * g
        else:
            good_w = float(beta) * (1.0 - float(g))
            beta_n = float(beta) * float(g)
        ws = [_wmul(a.weight, good_w) for a in st.mu.atoms]
        low = next((w for w in ws if not float(w) > 0.0), None)
        if low is not None:
            bad = i, _weight_error(low)
            break
        good.extend(st.mu.atoms)
        weights.extend(ws)
        splits.extend(st.splits)
        beta, top = beta_n, nrm
        new.append((n_atoms + len(weights), n_splits + len(splits), beta))
    if spec.rational:
        spec._atoms.extend(a._reweighted(w) for a, w in zip(good, weights))
    elif good:
        stack = np.stack([a.point for a in good])
        flat = stack.reshape(len(stack), -1)
        spec._rows.append((np.array(weights), stack, np.round(flat, 12),
                           np.sqrt(_dots(flat, flat))))
    spec._splits.extend(splits)
    levels.extend(new)
    spec._top_norm = top
    return bad


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
    for n in range(1, N + 1):
        st = spec.step(n)
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


def _elliptic_spec(params: dict) -> StaircaseSpec:
    K = float(params["K"])
    x0 = float(params.get("x0", 1.0))
    if not K > 1:
        raise PreconditionError("need K > 1")
    if not x0 >= 1:
        raise PreconditionError("need start x >= 1")
    kinv = 1.0 / K

    def weights(x: float):
        a1 = 1.0 / (1.0 + x * (1.0 + kinv))
        l2 = 1.0 / ((x + 1.0) * (1.0 + kinv))
        return a1, l2

    def step_fn(n: int) -> StairStep:
        x = x0 + (n - 1)
        a1, l2 = weights(x)
        A_prev = _diag([-x, x])
        B1 = _diag([-x, -x * kinv])
        C = _diag([-x, x + 1.0])
        B2 = _diag([(x + 1.0) * kinv, x + 1.0])
        A_next = _diag([-(x + 1.0), x + 1.0])
        splits = [SplittingStep(A_prev, B1, C, a1),
                  SplittingStep(C, B2, A_next, l2)]
        gamma = (1.0 - a1) * (1.0 - l2)
        mu = DiscreteMeasure([Atom(a1 / (1.0 - gamma), B1),
                              Atom((1.0 - a1) * l2 / (1.0 - gamma), B2)])
        return StairStep(n, A_prev, A_next, mu, gamma, splits)

    def gamma_fn(n: int) -> float:
        x = x0 + (n - 1)
        a1, l2 = weights(x)
        return (1.0 - a1) * (1.0 - l2)

    return StaircaseSpec(_diag([-x0, x0]), "elliptic", params, step_fn,
                         target_sets=(f"E:{K!r}", f"E:{kinv!r}"),
                         gamma_fn=gamma_fn)


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

    def weights(x: float):
        a1 = ((x + 1.0) ** q - x ** q) / ((b * x) ** q + (x + 1.0) ** q)
        l2 = b / ((b + 1.0) * (x + 1.0))
        return a1, l2

    def step_fn(n: int) -> StairStep:
        x = x0 + (n - 1)
        a1, l2 = weights(x)
        A_prev = _diag([b * x, -(x ** q)])
        B1 = _diag([b * x, (b * x) ** q])
        C = _diag([b * x, -((x + 1.0) ** q)])
        B2 = _diag([-(x + 1.0), -((x + 1.0) ** q)])
        A_next = _diag([b * (x + 1.0), -((x + 1.0) ** q)])
        splits = [SplittingStep(A_prev, B1, C, a1),
                  SplittingStep(C, B2, A_next, l2)]
        gamma = (1.0 - a1) * (1.0 - l2)
        mu = DiscreteMeasure([Atom(a1 / (1.0 - gamma), B1),
                              Atom((1.0 - a1) * l2 / (1.0 - gamma), B2)])
        return StairStep(n, A_prev, A_next, mu, gamma, splits)

    def gamma_fn(n: int) -> float:
        x = x0 + (n - 1)
        a1, l2 = weights(x)
        return (1.0 - a1) * (1.0 - l2)

    return StaircaseSpec(_diag([b * x0, -(x0 ** q)]), "plaplace", params, step_fn,
                         target_sets=(f"Kp:{p!r}",), gamma_fn=gamma_fn)


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


def transform_spec(spec: StaircaseSpec, T: LinMap,
                   target_sets: tuple[str, ...] | None = None) -> StaircaseSpec:
    """Pushforward of a staircase spec under a rank-one preserving linear map."""

    def step_fn(st: StairStep) -> StairStep:
        # only the returned spec keeps a memo: its source's steps are built
        # and validated, mapped here, then dropped
        mu = pushforward(st.mu, T)
        splits = [SplittingStep(T(s.target), T(s.left), T(s.right), s.lam)
                  for s in st.splits]
        return StairStep(st.n, T(st.A_prev), T(st.A_next), mu, st.gamma, splits)

    return StaircaseSpec(T(spec.A0), spec.kind, spec.params, step_fn,
                         target_sets=target_sets if target_sets is not None
                         else spec.target_sets,
                         gamma_fn=spec._gamma_fn, rational=spec.rational,
                         source=spec)


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
        cert = list(self.root_certificate)
        for w, sp in self.tails:
            nu = build_truncation(sp, N)
            parts.append((w, nu))
            cert.extend(nu.certificate or ())
        return mixture(parts, cert)

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
