"""Three-stage reduction from arbitrary gradients to split determinant-one
gradients, and the two headline pipelines built on it: the exact product
construction and the approximate sequence at a rank-one seed outside the
split set.

The stages are: (1) rank reduction via conjugated rank-drop staircases,
(2) a finite laminate splitting any rank-one matrix into block-localized
products inside the split set, and (3) a pre-splitting into large diagonal
entries followed by determinant-one staircases.  Measure mode composes the
stages by replacing atoms with probability measures; map mode nests
piecewise-affine realizations inside the cells of the previous stage, and
one dispatcher, `_reduce_slot`, picks the stage for a cell from its
gradient class, for both step builders and the approximate sequence."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import InternalError, PreconditionError, UnsupportedError
from .matrices import (_distance_rows, _member_rows, _rank_rows, asmatrix, frob, member,
                       rank, signed_block_svd)
from .measures import (
    Atom,
    Certificate,
    DiscreteMeasure,
    _seq_sum,
    _upper_rows,
    barycenter,
    diamond_compose,
    dirac,
    fit_upper_constant,
    pushforward,
    tail_masses,
)
from .staircase import (
    LinMap,
    StaircaseSpec,
    build_truncation,
    example_staircase,
    remainder,
    transform_spec,
)
from . import synth

__all__ = [
    "ReductionPlan",
    "stage1_spec",
    "stage2_laminate",
    "Stage3Composite",
    "stage3_spec",
    "stage3_builder",
    "product_builder",
    "ProductResult",
    "product_pipeline",
    "ApproxStep",
    "approximate_sequence",
    "composition_suite",
    "pq_counterexample",
    "stage1_plan",
    "stage2_plan",
    "stage3_plan",
    "check_plan",
]

RANK_TOL = 1e-9
MEMBER_TOL = 1e-9
_FIRST_DEPTH = 8   # levels of a depth search's first prefix build


# ---------------------------------------------------------------------------
# reduction plans


@dataclass
class ReductionPlan:
    """A declared reduction: every matrix of `source` maps to a measure-like
    object supported in `target` (up to certified remainders) obeying a weak
    L^p tail with constant M."""

    source: str
    target: str
    p: float
    M: float
    builder: Callable[[np.ndarray], object]


def _plan_truncation(out, N: int) -> DiscreteMeasure:
    if isinstance(out, DiscreteMeasure):
        return out
    if isinstance(out, StaircaseSpec):
        return build_truncation(out, N)
    if hasattr(out, "truncation"):
        return out.truncation(N)
    raise PreconditionError(f"plan builder returned unsupported type {type(out)!r}")


def check_plan(plan: ReductionPlan, A, N: int = 8, t_grid=None,
               tol: float = 1e-8) -> dict:
    """Verify the plan's invariants at a single seed: barycenter, support in
    the target set up to the remainder mass, and the weak tail envelope."""
    A = asmatrix(A)
    nu = _plan_truncation(plan.builder(A), N)
    bary_err = frob(barycenter(nu) - A) / (1.0 + frob(A))
    off = _seq_sum(nu._w[~_member_rows(nu._stack, plan.target, tol)].tolist())
    if t_grid is None:
        t0 = 1.0 + frob(A)
        t_grid = np.geomspace(t0 * 1.5, t0 * 100.0, 30)
    cap = plan.M ** plan.p * (1.0 + frob(A) ** plan.p)
    tail_ok = all(row.ok for row in _upper_rows(nu, cap, plan.p, t_grid, 1e-12))
    return {"barycenter_error": bary_err, "off_target_mass": off,
            "tail_ok": tail_ok, "measure": nu}


# ---------------------------------------------------------------------------
# stage 1: rank reduction


def stage1_spec(A, m: int) -> StaircaseSpec:
    """Rank-drop staircase for a matrix of rank at most m (m >= 2): conjugate
    the diagonal rank-drop staircase by the singular-value factorization, so
    every good atom has rank at most m - 1.

    The Frobenius norm is orthogonally invariant, so the conjugated tail
    envelope keeps the diagonal constant: tail <= 2^(1+m) |A|^m t^-m."""
    A = asmatrix(A)
    if m < 2:
        raise PreconditionError("need m >= 2")
    r = rank(A, RANK_TOL)
    if r > m:
        raise PreconditionError(f"matrix has rank {r} > {m}")
    if r < 2:
        raise PreconditionError("rank <= 1 needs no rank reduction")
    off = float(np.max(np.abs(A - np.diag(np.diag(A))))) if A.shape[0] == A.shape[1] else 1.0
    if off <= RANK_TOL * (1.0 + frob(A)):
        entries = [float(v) for v in np.diag(A)]
        spec = example_staircase("rank_drop", {"a": entries})
        return spec
    U, s, Vt = np.linalg.svd(A)
    s = [float(v) if v > RANK_TOL * (1.0 + frob(A)) else 0.0 for v in s]
    base = example_staircase("rank_drop", {"a": s})
    T = LinMap(U, Vt)
    return transform_spec(base, T, target_sets=(f"rank<={m - 1}",))


# ---------------------------------------------------------------------------
# stage 2: rank-one into the split set


def _stack(top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    return np.concatenate([top, bottom])


def stage2_laminate(A, tol: float = RANK_TOL) -> DiscreteMeasure:
    """Finite laminate splitting a rank-one matrix a (x) b into the four
    block-localized products 2a_i (x) 2b_j, each block-diagonal or
    block-anti-diagonal, with weights 1/4 and intermediate rank-one steps."""
    A = asmatrix(A)
    d = A.shape[0]
    if A.shape[0] != A.shape[1] or d % 2:
        raise PreconditionError("need a square matrix of even dimension")
    if rank(A, tol) > 1:
        raise PreconditionError("stage-2 laminate needs rank <= 1")
    if frob(A) <= tol:
        return dirac(np.zeros_like(A))
    n = d // 2
    U, s, Vt = np.linalg.svd(A)
    a = s[0] * U[:, 0]
    b = Vt[0]
    zeros = np.zeros(n)
    a_top = _stack(2.0 * a[:n], zeros)
    a_bot = _stack(zeros, 2.0 * a[n:])
    B1 = np.outer(a_top, b)
    B2 = np.outer(a_bot, b)
    corners = {
        1: np.outer(a_top, _stack(2.0 * b[:n], zeros)),
        2: np.outer(a_top, _stack(zeros, 2.0 * b[n:])),
        3: np.outer(a_bot, _stack(2.0 * b[:n], zeros)),
        4: np.outer(a_bot, _stack(zeros, 2.0 * b[n:])),
    }
    half = Fraction(1, 2)
    cert = [(A, B1, B2, half)]
    atoms: list[Atom] = []
    for mid, (i, j) in ((B1, (1, 2)), (B2, (3, 4))):
        if frob(corners[i] - corners[j]) > tol * (1.0 + frob(A)):
            cert.append((mid, corners[i], corners[j], half))
            atoms.append(Atom(Fraction(1, 4), corners[i]))
            atoms.append(Atom(Fraction(1, 4), corners[j]))
        else:
            # degenerate branch: both corners coincide (a zero block)
            atoms.append(Atom(half, corners[i]))
    return DiscreteMeasure(atoms, Certificate.of(cert))


# ---------------------------------------------------------------------------
# stage 3: split matrices into split determinant-one matrices


def _block_swap(d: int) -> np.ndarray:
    """Special orthogonal S with S * (block anti-diagonal) block-diagonal."""
    n = d // 2
    S = np.zeros((d, d))
    S[:n, n:] = np.eye(n)
    S[n:, :n] = np.eye(n)
    if np.linalg.det(S) < 0:
        J = np.eye(d)
        J[0, 0] = -1.0
        S = J @ S
    return S


@dataclass
class Stage3Composite:
    """Pre-splitting into large diagonal entries plus one determinant-one
    staircase per pre-split atom, all conjugated back to the input frame."""

    side: str
    T: LinMap
    presplit: DiscreteMeasure          # diagonal atoms, working frame

    def spec_for(self, idx: int) -> StaircaseSpec:
        entries = [v for v in np.diag(np.asarray(self.presplit.atoms[idx].point))]
        entries = [int(v) if float(v) == int(v) else float(v) for v in entries]
        return example_staircase("det1", {"a": entries})

    def spec_for_matrix(self, G, tol: float = 1e-9) -> StaircaseSpec:
        """Spec for the pre-split atom matching G in the *input* frame."""
        for i, a in enumerate(self.presplit.atoms):
            if frob(self.T(np.asarray(a.point)) - G) <= tol * (1.0 + frob(G)):
                return transform_spec(self.spec_for(i), self.T,
                                      target_sets=(f"{self.side}&Sigma",))
        raise InternalError("gradient does not match any pre-split atom")

    def presplit_input_frame(self) -> DiscreteMeasure:
        return pushforward(self.presplit, self.T, check_rank_one=True)

    def truncation(self, N: int) -> DiscreteMeasure:
        """Composite measure at staircase depth N, input frame."""
        nu, _ = diamond_compose(self.presplit,
                                lambda i, a: build_truncation(self.spec_for(i), N))
        return pushforward(nu, self.T)


def stage3_spec(A, tol: float = MEMBER_TOL) -> Stage3Composite:
    """Reduction of a split matrix toward split determinant-one gradients.

    Block-anti-diagonal input is first rotated into the block-diagonal space
    by a fixed special orthogonal block swap, which preserves determinant-one
    and rank-one lines, so the block-diagonal machinery applies verbatim."""
    A = asmatrix(A)
    d = A.shape[0]
    if A.shape[0] != A.shape[1] or d % 2:
        raise PreconditionError("need a square matrix of even dimension")
    n = d // 2
    if member(A, "L1", tol):
        side, S = "L1", np.eye(d)
    elif member(A, "L2", tol):
        side, S = "L2", _block_swap(d)
    else:
        raise PreconditionError("matrix is not split")
    W = S @ A
    R, D, Q = signed_block_svd(W)
    T = LinMap(S.T @ R, Q.T)
    entries = [float(v) for v in np.diag(D)]

    # pre-split every entry of modulus below 2 into the +-2 convex combination
    branches: list[tuple[Fraction | float, list]] = [(Fraction(1), list(entries))]
    cert: list[tuple] = []   # (target, left, right, lam) per split
    for i, v in enumerate(entries):
        if abs(v) >= 2.0 - tol:
            continue
        lam = (2.0 + v) / 4.0
        nxt: list[tuple[Fraction | float, list]] = []
        for w, vals in branches:
            left = list(vals)
            left[i] = 2.0
            right = list(vals)
            right[i] = -2.0
            cert.append((np.diag(np.asarray(vals, dtype=float)),
                         np.diag(np.asarray(left, dtype=float)),
                         np.diag(np.asarray(right, dtype=float)), lam))
            nxt.append((w * lam, left))
            nxt.append((w * (1.0 - lam), right))
        branches = nxt
    atoms = [Atom(w, np.diag(np.asarray(vals, dtype=float)))
             for w, vals in branches if float(w) > 0.0]
    presplit = DiscreteMeasure(atoms, Certificate.of(cert) if cert else None)
    return Stage3Composite(side, T, presplit)


# ---------------------------------------------------------------------------
# map-level composition helpers


def _within_slack(builder: str, attempt, eta: float, theta: float,
                  cap: float, r: float):
    """Call attempt(eta, theta) until the error and residual r-moment of its
    node is within cap; each retry shrinks eta and theta by the measured
    overshoot.  The cascaded patches amplify the transition-layer budget by
    the r-moment of the intermediate staircases, and the rotated covers
    leave an uncovered fraction floored at theta."""
    for k in range(1, 9):
        node = attempt(eta, theta)
        err = synth._moment_of(node.distribution(), (synth.ERROR, synth.RESIDUAL), r)
        if err <= cap * 0.999:
            return node
        shrink = max(0.1, 0.5 * cap / err)
        eta = min(0.9, eta * shrink)
        theta *= shrink
    raise InternalError(f"{builder} attempt {k}: err/cap = {err / cap:.3g}; "
                        "transition budget did not converge")


def _staircase_depth(spec: StaircaseSpec, r: float, phi: float,
                     n_max: int = 400) -> int:
    """Smallest truncation depth whose remainder r-moment per unit volume is
    at most phi.  beta_N and A_N are read off the spec's prefix.  When the
    scan passes the prefix's end, the prefix grows to at least twice its
    length (to `_FIRST_DEPTH` levels at first, n_max at most), so a depth N
    takes O(log N) prefix builds, and the truncation at the depth found
    builds no level."""
    for N in range(1, n_max + 1):
        ahead = max(N - 1, _FIRST_DEPTH - N)
        beta, AN = remainder(spec, N, ahead=min(ahead, n_max - N))
        try:
            moment = float(beta) * (1.0 + frob(AN) ** r)
        except OverflowError:
            raise InternalError(f"no truncation depth meets the remainder budget: at level "
                                f"{N}, |A_N|^r overflows (|A_N| = {frob(AN):.6g}, r = {r:g}); "
                                "the moment exponent must stay below the tail exponent"
                                ) from None
        if moment <= phi:
            return N
    raise InternalError("no truncation depth meets the remainder budget; "
                        "the moment exponent must stay below the tail exponent")


def _reduce_slot(slot, eta: float, sup: float, r: float, phi: float,
                 theta: float, min_depth: int = 1) -> None:
    """Patch an affine slot with the stage its gradient class needs, then
    reduce every good cell that stage leaves in turn.  This is the one place
    that maps a gradient class to a stage:

    - in L&Sigma, the slot stays as it is;
    - in L, stage 3: pre-split roof cells, each patched with the
      determinant-one staircase of its atom, whose good cells are in L&Sigma;
    - at rank <= 1, the stage-2 laminate, whose good cells are in L;
    - otherwise the stage-1 rank drop, whose good cells have rank <= 1.

    A staircase is truncated at the smallest depth of at least min_depth
    whose remainder r-moment per unit volume is at most phi (at min_depth if
    phi is infinite); its remainder cells are inductive.  eta, sup and theta
    are every realization's volume slack, deviation budget and cover floor."""
    A = slot.A
    if member(A, "L&Sigma", MEMBER_TOL):
        return
    budgets = {"delta": sup, "s_moment": r, "theta_min": theta}

    def staircase(spec, s):
        N = max(_staircase_depth(spec, r, phi), min_depth) if math.isfinite(phi) else min_depth
        return synth.realize_staircase(spec, N, s.domain, A=s.A, b=s.b, eta=eta,
                                       **budgets)

    if member(A, "L", MEMBER_TOL):
        comp = stage3_spec(A)
        pre = comp.presplit_input_frame()
        if len(pre) == 1 and not pre.certificate:
            slot.patch(staircase(comp.spec_for_matrix(A), slot).root)
            return
        pam = synth.realize_finite_laminate(pre, slot.domain, A=A, b=slot.b, eps=eta,
                                            **budgets)
        for s in synth._open_slots(pam.distribution(), synth.GOOD):
            s.patch(staircase(comp.spec_for_matrix(s.A), s).root)
    else:
        if rank(A, RANK_TOL) <= 1:
            pam = synth.realize_finite_laminate(stage2_laminate(A), slot.domain, A=A,
                                                b=slot.b, eps=eta, **budgets)
        else:
            pam = staircase(stage1_spec(A, 2), slot)
        for s in synth._open_slots(pam.distribution(), synth.GOOD):
            _reduce_slot(s, eta, sup, r, phi, theta, min_depth)
    slot.patch(pam.root)


def _step_builder(name: str, r: float, eta_div: float, phi_div: float):
    """Step builder for the exact-solution recursion on 2x2 seeds.  A seed
    in L&Sigma is a good slot; any other is a slot reduced by `_reduce_slot`
    under `_within_slack`, first with volume slack (error budget) / eta_div,
    and with staircases whose remainder r-moment is at most (inductive
    budget) / phi_div."""

    def builder(A_seed, dom, b, slack_frac, inductive_frac, sup_budget, alpha):
        A = asmatrix(A_seed)
        if A.shape != (2, 2):
            raise UnsupportedError("map-mode recursion is limited to 2x2 seeds")
        if member(A, "L&Sigma", MEMBER_TOL):
            return synth.SlotMap(dom, A, b, flag=synth.GOOD)
        growth = 1.0 + frob(A) ** r
        budget = slack_frac * growth
        phi = inductive_frac * growth / phi_div

        def attempt(eta, theta):
            slot = synth.SlotMap(dom, A, b)
            _reduce_slot(slot, eta, sup_budget, r, phi, theta)
            return slot

        return _within_slack(name, attempt, min(0.9, budget / eta_div),
                             synth.THETA_MIN, budget * dom.volume, r)

    return builder


def stage3_builder(r: float = 1.5):
    """Step builder for the exact-solution recursion on split seeds: each
    invocation produces a pre-split plus determinant-one staircase whose
    error and inductive moments respect the declared relative budgets."""
    return _step_builder("stage3_builder", r, 1.0, 4.0)


def product_builder(r: float = 1.5):
    """Step builder for the full product recursion on arbitrary 2x2 seeds:
    rank reduction, then the split laminate, then stage 3, nested inside the
    cells of the previous stage."""
    return _step_builder("product_builder", r, 3.0, 8.0)


# ---------------------------------------------------------------------------
# product pipeline


@dataclass
class ProductResult:
    measure: DiscreteMeasure | None
    mass_in_target: float
    barycenter_error: float
    tail_slope: float | None
    fitted_M: float
    residual_mass: float
    realized_map: object = None
    rounds: list = field(default_factory=list)


def _tail_fit(nu: DiscreteMeasure, A: np.ndarray, p: float, t_lo: float,
              t_hi: float) -> tuple[float | None, float]:
    """The least-squares slope of log tail(t) against log t at 40 geometric
    points of [t_lo, t_hi] (None if fewer than 3 tails are positive), and
    the smallest M >= 1 with tail(t) <= M^p (1 + |A|^p) t^-p at 40 geometric
    points of [1 + |A|, t_hi]."""
    ts = np.geomspace(t_lo, t_hi, 40)
    tails = tail_masses(nu, ts)
    keep = tails > 0
    slope = None
    if keep.sum() >= 3:
        slope = float(np.polyfit(np.log(ts[keep]), np.log(tails[keep]), 1)[0])
    grid = np.geomspace(1.0 + frob(A), t_hi, 40)
    fitted = (fit_upper_constant(nu, float(p), grid)
              / (1.0 + frob(A) ** p)) ** (1.0 / p)
    return slope, max(1.0, fitted)


# Map mode runs the exact-solution recursion on the unit square with
# deviation budget _MAP_DELTA, Hoelder exponent _MAP_ALPHA (read by no step
# builder) and error moment _MAP_R.  Both modes count the mass in L&Sigma at
# tolerance _TARGET_TOL and fit the tail slope over _SLOPE_WINDOW.
_MAP_DELTA, _MAP_ALPHA, _MAP_R = 0.5, 0.5, 1.5
_TARGET_TOL = 1e-8
_SLOPE_WINDOW = (10.0, 1e3)


def product_pipeline(A, mode: str = "measure", beta_tol: float = 1e-4,
                     depth: int = 6, M: float = 8.0) -> ProductResult:
    """Compose the three stages into a gradient distribution supported in the
    split determinant-one set (measure mode) or a nested piecewise-affine
    realization driven by the exact-solution recursion (map mode)."""
    A = asmatrix(A)
    d = A.shape[0]
    if A.shape[0] != A.shape[1] or d % 2:
        raise PreconditionError("need a square matrix of even dimension")
    if not 0.0 < beta_tol < math.inf:
        raise PreconditionError(f"beta_tol must be finite and positive, got {beta_tol}")
    n = d // 2

    if mode == "map":
        if d != 2:
            raise UnsupportedError("map mode is limited to 2x2 seeds")
        pam, rounds = synth.reduce_exact(product_builder(_MAP_R),
                                         synth.box((0.0, 0.0), (1.0, 1.0)), A, 0.0,
                                         delta=_MAP_DELTA, alpha=_MAP_ALPHA, depth=depth,
                                         p=float(2 * n), M=M, r=_MAP_R)
        nu, residual = pam.gradient_distribution()
        res = _measure_stats(nu, A, 2 * n)
        res.residual_mass += residual
        res.realized_map = pam
        res.rounds = rounds
        return res
    if mode != "measure":
        raise PreconditionError(f"unknown mode {mode!r}")

    nu = dirac(A)
    # stage 1: one rank-reduction pass per admissible rank, largest first;
    # each stage reads the rank and set columns of its input's stack once
    for m in range(d, 1, -1):
        ranks = _rank_rows(nu._stack, RANK_TOL)
        drop = (ranks > 1) & (ranks <= m)
        if drop.any():
            drop[drop] = ~_member_rows(nu._stack[drop], "L", MEMBER_TOL)
            N1 = max(1, math.ceil(math.log2(1.0 / beta_tol) / m))
            nu = _compose_rows(nu, drop, lambda P: build_truncation(stage1_spec(P, m), N1))

    # stage 2: exact laminate on every rank-one atom
    split = _rank_rows(nu._stack, RANK_TOL) <= 1
    split[split] = ~_member_rows(nu._stack[split], "L", MEMBER_TOL)
    nu = _compose_rows(nu, split, stage2_laminate)

    # stage 3: determinant-one staircases inside the split set.  All branches
    # are truncated at the uniform radius where the target weak-L^{2n} envelope
    # 2(1+|A|^{2n}) t^{-2n} falls below the depth budget: past that radius the
    # truncation remainder dominates the tail and deeper atoms add no
    # resolution, while a uniform cutoff keeps the level count contributing to
    # the composed tail constant across the reporting window.
    radius = (3.0 * (1.0 + frob(A) ** (2 * n)) / beta_tol) ** (1.0 / (2 * n))

    det1 = ~_member_rows(nu._stack, "L&Sigma", _TARGET_TOL)
    det1[det1] = _member_rows(nu._stack[det1], "L", MEMBER_TOL)
    nu = _compose_rows(nu, det1, lambda P: stage3_spec(P).truncation(
        max(1, math.ceil(math.log2(max(2.0, radius / max(frob(P), 1e-12)))))))
    return _measure_stats(nu, A, 2 * n)


def _compose_rows(nu: DiscreteMeasure, rows: np.ndarray, build) -> DiscreteMeasure:
    """`diamond_compose` of nu: build(point) at the rows marked, Dirac elsewhere."""
    return diamond_compose(nu, lambda i, a: build(a.point) if rows[i] else dirac(a.point))[0]


def _measure_stats(nu: DiscreteMeasure, A: np.ndarray, p: int) -> ProductResult:
    good = _seq_sum(nu._w[_member_rows(nu._stack, "L&Sigma", _TARGET_TOL)].tolist())
    bary_err = frob(barycenter(nu) - A) / (1.0 + frob(A))
    slope, fitted = _tail_fit(nu, A, p, *_SLOPE_WINDOW)
    return ProductResult(nu, good, bary_err, slope, fitted, residual_mass=nu.mass - good)


# ---------------------------------------------------------------------------
# approximate sequence


@dataclass
class ApproxStep:
    j: int
    s: float
    error_moment: float
    inductive_volume: float
    dist_L1: float
    dist_L2: float
    tail_slope: float | None
    fitted_M: float
    sup_dev: float
    realized_map: object


def approximate_sequence(A, j_max: int = 6) -> list[ApproxStep]:
    """Sequence of piecewise-affine maps on the unit square with gradients
    approaching the split determinant-one set at a rank-one seed outside the
    split set.

    Step j reduces the seed's slot (`_reduce_slot`): the stage-2 laminate with
    error budget shrinking geometrically (strictly faster than 2^-j so the
    measured moments drop by more than a factor 4 per two steps), then stage
    3 inside every cell, with staircases 11 + j levels deep; the remainder
    cells are inductive and tracked by volume only."""
    if j_max < 1:
        raise PreconditionError("need j_max >= 1")
    A = asmatrix(A)
    if A.shape != (2, 2):
        raise UnsupportedError("approximate sequence is realized for 2x2 seeds")
    if rank(A, RANK_TOL) != 1:
        raise PreconditionError("need a rank-one seed")
    if member(A, "L", MEMBER_TOL):
        raise PreconditionError("seed already split; nothing to approximate")
    dom = synth.box((0.0, 0.0), (1.0, 1.0))
    vol = dom.volume
    steps: list[ApproxStep] = []
    for j in range(1, j_max + 1):
        s_j = 2.0 + j
        root = synth.SlotMap(dom, A)
        _reduce_slot(root, min(0.9, 2.2 ** -j), 2.0 ** -j, s_j, math.inf,
                     synth.THETA_MIN, min_depth=11 + j)
        pam = synth.PiecewiseAffineMap(root, A, 0.0).seal()
        walk = pam.distribution()
        vols = walk.vol.tolist()
        err = pam.error_moment(s_j) / vol
        ind = _seq_sum(v for v, f in zip(vols, walk.flag) if f == synth.INDUCTIVE) / vol
        G = np.array(walk.G).reshape(-1, 2, 2)
        d1 = _seq_sum((walk.vol * _distance_rows(G, "L1")).tolist()) / vol
        d2 = _seq_sum((walk.vol * _distance_rows(G, "L2")).tolist()) / vol
        nug, _ = pam.gradient_distribution()
        gmax = float(nug._norms.max())
        slope, fitted = _tail_fit(nug, A, 2.0, 8.0, max(16.0, gmax / 2.0))
        steps.append(ApproxStep(j, s_j, err, ind, d1, d2, slope, fitted,
                                pam.sup_dev(), pam))
    return steps


# ---------------------------------------------------------------------------
# composition calculus: randomized envelope suite and the p = q failure


def _geometric_measure(p: float, scale, levels: int = 60) -> DiscreteMeasure:
    """Probability measure with atoms scale * 2^i / abar and exact weak-L^p
    decay; its barycenter is exactly `scale`."""
    c = 1.0 - 2.0 ** -p
    weights = np.array([c * 2.0 ** (-i * p) for i in range(levels)])
    weights /= weights.sum()
    abar = float(np.sum(weights * 2.0 ** np.arange(levels)))
    S = np.asarray(scale, dtype=float)
    radii = 2.0 ** np.arange(levels) / abar
    return DiscreteMeasure.from_stack(weights, radii[:, None, None] * S)


def composition_trial(p: float, q: float, t_grid=None, levels: int = 60):
    """One composition of geometric weak-L^p and weak-L^q measures, checked
    against the 4(1+q/|p-q|) (M'M'')^r (1+|A|^r) t^-r envelope, r=min(p,q)."""
    base = np.eye(1)
    nu1 = _geometric_measure(p, base, levels)
    normA = frob(barycenter(nu1))
    if t_grid is None:
        t_grid = np.geomspace(1.5, 1e4, 40)
    M1 = max(1.0, fit_upper_constant(nu1, p, t_grid) / (1.0 + normA ** p))
    members = [_geometric_measure(q, a.point, levels) for a in nu1.atoms]
    M2 = max(1.0, max(fit_upper_constant(m, q, t_grid)
                      / (1.0 + frob(np.asarray(a.point)) ** q)
                      for m, a in zip(members, nu1.atoms)))
    return diamond_compose(nu1, lambda i, a: members[i], p=p, q=q,
                           M1=M1, M2=M2, normA=normA, t_grid=t_grid)


def composition_suite(count: int = 50, seed: int = 0):
    """Randomized (p, q) composition envelope checks; all reports must pass."""
    rng = np.random.default_rng(seed)
    reports = []
    while len(reports) < count:
        p = float(rng.uniform(1.2, 3.5))
        q = float(rng.uniform(1.2, 3.5))
        if abs(p - q) < 0.25:
            continue
        _, rep = composition_trial(p, q, t_grid=np.geomspace(1.5, 1e4, 25),
                                   levels=40)
        reports.append((p, q, rep))
    return reports


def pq_counterexample(p: float, levels: int = 40):
    """Equal-exponent composition failure: both factors have finite weak-L^p
    envelopes but the composed tail satisfies t^p tail(t) -> infinity.

    Returns the composed measure and the (t, t^p * tail(t)) sequence, which
    is strictly increasing over the requested levels."""
    if not p > 1:
        raise PreconditionError("need p > 1")
    c = 1.0 - 2.0 ** -p
    abar = c / (1.0 - 2.0 ** -(p - 1.0))
    L = levels + 30   # atoms past the last level the series reads
    nu = DiscreteMeasure.from_stack(
        [c * c * (l + 1) * 2.0 ** (-l * p) for l in range(L)],
        (2.0 ** np.arange(L) / abar)[:, None, None])
    ts = [2.0 ** l / abar * (1.0 - 1e-9) for l in range(levels)]
    return nu, [(t, t ** p * tail)
                for t, tail in zip(ts, tail_masses(nu, ts).tolist())]


# ---------------------------------------------------------------------------
# ready-made plans


def stage1_plan(m: int) -> ReductionPlan:
    return ReductionPlan(f"rank<={m}", f"rank<={m - 1}", float(m),
                         2.0 ** ((1.0 + m) / m),
                         lambda A: stage1_spec(A, m))


def stage2_plan() -> ReductionPlan:
    # any finite exponent works; the laminate is bounded by 4|A|
    return ReductionPlan("rank<=1", "L", 4.0, 4.0, stage2_laminate)


def stage3_plan(n: int = 1) -> ReductionPlan:
    return ReductionPlan("L1", "L1&Sigma", float(2 * n), 8.0, stage3_spec)
