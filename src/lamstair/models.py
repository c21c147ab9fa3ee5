"""Applications of the staircase machinery: optimal-integrability gradients for
isotropic elliptic inclusions, irregular p-harmonic constructions, and the
p <-> p' duality swap."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import InternalError, PreconditionError
from .matrices import _member_rows, asmatrix, frob
from .measures import DiscreteMeasure, TailReport, moment, pushforward

if TYPE_CHECKING:   # the pipelines import staircase when they run
    from .staircase import ExtendedMeasure

B_MAX = 1e6


@dataclass
class ExponentProfile:
    kind: str
    params: dict
    value: float
    valid: bool
    validity_range: str = ""


def exponent(kind: str, params: dict) -> ExponentProfile:
    """Critical integrability exponent: 2K/(K+1) for the elliptic pair,
    (p-1)/(b^(p-1)+1) + b/(b+1) for the p-Laplace staircase."""
    if kind == "elliptic":
        K = float(params["K"])
        if not 1 < K < math.inf:
            raise PreconditionError("need a finite K > 1")
        return ExponentProfile(kind, {"K": K}, 2.0 * K / (K + 1.0), True, "(1,2)")
    if kind == "plaplace":
        p = float(params["p"])
        b = float(params["b"])
        if not (1.0 < p < 2.0):
            raise PreconditionError("need p in (1,2)")
        if not b >= 1.0:
            raise PreconditionError("need b >= 1")
        q = (p - 1.0) / (b ** (p - 1.0) + 1.0) + b / (b + 1.0)
        return ExponentProfile(kind, {"p": p, "b": b}, q, 1.0 < q < p, "(1,p)")
    raise PreconditionError(f"unknown exponent kind {kind!r}")


_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)


def _minimize_bounded(f, a: float, b: float, xatol: float) -> float:
    """Brent's bounded minimizer (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 5): golden-section steps accelerated by parabolic
    interpolation on [a, b], stopping when the bracket around the best point
    is within xatol (plus a relative sqrt-eps term) or after 500 calls.
    The step sequence follows the classic fminbound, so select_b returns the
    same b to the last bit."""
    fulc = nfc = xf = a + _GOLDEN_MEAN * (b - a)
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN_MEAN * e
        step = max(abs(rat), tol1)
        x = xf + step if rat >= 0.0 else xf - step
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf


def select_b(p: float, b_max: float = B_MAX, tol: float = 1e-8) -> float:
    """Maximizer of the p-Laplace exponent over b in (1, b_max]."""
    if not (1.0 < p < 2.0):
        raise PreconditionError("need p in (1,2)")

    def neg_q(b: float) -> float:
        return -exponent("plaplace", {"p": p, "b": b}).value

    # coarse geometric scan to bracket the interior maximum
    grid = np.geomspace(1.0 + 1e-6, b_max, 200)
    vals = np.array([neg_q(b) for b in grid])
    i = int(np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    b = _minimize_bounded(neg_q, float(lo), float(hi), tol)
    prof = exponent("plaplace", {"p": p, "b": b})
    if not prof.valid:
        raise PreconditionError(f"no b <= {b_max:g} gives an exponent in (1, p) for p={p}")
    return b


@dataclass
class PipelineResult:
    measure: DiscreteMeasure | None
    extended: ExtendedMeasure
    tail_report: TailReport
    fitted_M: float
    exponent: ExponentProfile
    extra: dict = field(default_factory=dict)


def afs_pipeline(A, K: float, N: int = 200, t_grid=None) -> PipelineResult:
    """Elliptic-inclusion pipeline: extended measure with barycenter A supported
    in E_K union E_{1/K}, two-sided tail verdict, fitted envelope constant.
    `synth.realize_extended(result.extended, ...)` realizes the measure as a
    piecewise-affine gradient."""
    from .staircase import _tail_report, extended_measure
    if N < 1:
        raise PreconditionError("need N >= 1")
    A = asmatrix(A)
    prof = exponent("elliptic", {"K": K})
    ext = extended_measure("elliptic", A, {"K": K})
    if t_grid is None:
        t0 = 1.0 + frob(A)
        t_grid = np.geomspace(t0 * 1.01, t0 * 50.0, 60)
    nu = ext.truncate(N)
    rep = _tail_report(ext, nu, N, t_grid)
    return PipelineResult(nu, ext, rep, float(rep.meta["fitted_M"]), prof)


def plap_pipeline(A, p: float, N: int = 10_000, t_grid=None,
                  b: float | None = None) -> PipelineResult:
    """p-Laplace pipeline: extended measure in K_p with the selected staircase
    parameter b, two-sided tails, and the moment-divergence proxy."""
    from .staircase import _tail_report, extended_measure
    A = asmatrix(A)
    if b is None:
        b = select_b(p)
    prof = exponent("plaplace", {"p": p, "b": b})
    if not prof.valid:
        raise PreconditionError("selected exponent is outside (1,p)")
    ext = extended_measure("plaplace", A, {"p": p, "b": b})
    if t_grid is None:
        t0 = 1.0 + frob(A)
        t_grid = np.geomspace(t0 * 1.01, t0 * 50.0, 60)
    n_rep = min(N, 400)
    nu_rep = ext.truncate(n_rep)
    rep = _tail_report(ext, nu_rep, n_rep, t_grid)
    qbar = prof.value
    checkpoints = [n for n in (100, 1_000, 10_000, 100_000) if n <= N]
    # Cauchy increments of the convergent sub-critical moment past N = 10^3
    increments = [n for n in (2_000, 5_000, 10_000) if n <= N]
    div, sub = {}, {}
    # each truncation is built once, and dropped before the next one; the
    # report's is the result's measure
    for n in dict.fromkeys(checkpoints + [m for n in increments for m in (n, n - 1)]):
        nu = nu_rep if n == n_rep else ext.truncate(n)
        sub[n] = moment(nu, 0.95 * qbar)
        if n in checkpoints:
            div[n] = moment(nu, qbar)
        del nu
    return PipelineResult(nu_rep, ext, rep,
                          float(rep.meta["fitted_M"]), prof,
                          extra={"b": b,
                                 "moment_N": checkpoints,
                                 "qbar_moments": [div[n] for n in checkpoints],
                                 "sub_moments": [sub[n] for n in checkpoints],
                                 "sub_increments": [sub[n] - sub[n - 1]
                                                    for n in increments]})


def duality_swap(obj, p: float, tol: float = 1e-7):
    """Component swap taking gradients in K_p to gradients in K_{p'},
    p' = p/(p-1); an involution with |row1'|^{p'} = |row1|^p atomwise.

    Gradients transform as X -> P X P with P the coordinate swap: the swapped
    components are precomposed with the swapped variables so the rotation
    factor stays orientation-preserving.
    """
    if not 1 < p < math.inf:
        raise PreconditionError("need a finite p > 1")
    pprime = p / (p - 1.0)
    if hasattr(obj, "swap_components"):
        return obj.swap_components()
    if not isinstance(obj, DiscreteMeasure):
        raise PreconditionError("expected a measure or a realized map")
    if obj._stack.shape[1:] != (2, 2):
        raise PreconditionError("duality swap needs 2x2 gradients")
    if not _member_rows(obj._stack, f"Kp:{float(p)!r}", tol).all():
        raise PreconditionError("atom outside the p-Laplace set")
    from .boxes import _P_SWAP   # loaded for the measure swap only
    out = pushforward(obj, lambda X: _P_SWAP @ X @ _P_SWAP)
    if not _member_rows(out._stack, f"Kp:{float(pprime)!r}", tol).all():
        raise InternalError("swapped atom left the dual set")
    return out
