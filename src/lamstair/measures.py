"""Atomic measures on matrix space, splitting certificates and tail calculus.

Weights are kept as exact `Fraction`s whenever every input to a construction is
rational (the telescoping residual identities are then checked exactly) and as
floats otherwise.  Atom points are float64 matrices, of one shape per measure;
duplicates are merged on a 1e-12 quantization grid, which the constructions
only hit with exact duplicates.

One class, `DiscreteMeasure`, holds every measure as arrays in key order:
a read-only (k, m, n) point stack of one matrix shape, the rounded keys, the
norms (bit-equal to `frob`) and a float weight column.  When any weight it
is built from is a `Fraction` it also holds an `exact` object column of the
weights (`Fraction`s, the rest floats).  `atoms` is a view made on first
use: one `Atom` per row, its point a row view of the stack.

- One merge rule, in one builder (`DiscreteMeasure._fill`): rows with equal
  keys (numpy compares -0.0 equal to 0.0, as tuples do) become one row at
  the first one's point, their weights summed left to right in order of
  appearance; the rows are sorted by key.  On the object column a
  `Fraction` and a float add and multiply (`_wmul`) to a float.
- Every build goes through it: `DiscreteMeasure(atoms)` stacks the atoms,
  `from_stack` takes float arrays, and `mixture`, `elementary_split`,
  `pushforward` and the staircase truncations (`staircase.build_truncation`,
  sliced from a prefix of arrays with the exact column) hand it arrays.
- A measure's certificate may be a `Certificate`: a sequence whose steps
  are made on first use (a truncation's, or a mixture of them).
- `find` is one stacked distance over the stack.  `verify_laminate`
  validates a whole certificate at once, then replays it on the arrays.
- `_split_rows` checks a stack of splitting steps of one shape, its rank
  test one `matrices._rank_one_rows` call; `_split_failure` runs it on
  `SplittingStep`s, per shape, and `SplittingStep.validate` is its
  one-split case.
- `tail_masses(nu, ts)` returns every tail on a t-grid at once: per t the
  weights of the atoms with |X| > t, summed left to right by one `cumsum`
  over the measure's norm and weight columns.  `tail_mass` is its one-point case.
- `_seq_sum` adds floats left to right, the order of the builtin `sum` up to
  Python 3.11 (3.12 compensates float sums), so totals do not depend on the
  interpreter.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from decimal import Decimal
from functools import cached_property
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from .errors import (
    InvalidSplitError,
    NotFoundError,
    InvalidTransformError,
    PreconditionError,
    UnsupportedError,
)
from .matrices import _dots, _is_rank_one, _rank_one_rows, asmatrix, frob

MERGE_TOL = 1e-12
MASS_SLACK = 1e-12
_TAIL_BLOCK = 1 << 20   # grid points x atoms per tail_masses block

Weight = Fraction | float


def _freeze(P: np.ndarray) -> np.ndarray:
    P = np.array(P, dtype=float)
    P.flags.writeable = False
    return P


def _wmul(a: Weight, b: Weight) -> Weight:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a * b
    return float(a) * float(b)


def _seq_sum(values):
    """Left-to-right sum from the int 0: the builtin `sum` of Python <= 3.11,
    bit for bit and type for type (an empty total is the int 0)."""
    total = 0
    for v in values:
        total = total + v
    return total


def _weight_error(w: Weight) -> PreconditionError:
    if w > 0:  # a positive rational whose float underflows
        d = Decimal(w.numerator) / Decimal(w.denominator)
        return PreconditionError(f"atom weight {d:.3e} is positive, but underflows as a float")
    return PreconditionError(f"atom weight must be positive, got {w}")


@dataclass(frozen=True, slots=True)
class Atom:
    """A weighted point mass.  Slotted, so the many atoms of a long truncation
    carry no instance dict.  The merge key and the norm |point| are computed
    from the point, by the rules a measure's key and norm columns follow.
    `scaled` returns an atom that shares this one's frozen point."""

    weight: Weight
    point: np.ndarray

    def __post_init__(self):
        if not float(self.weight) > 0.0:
            raise _weight_error(self.weight)
        object.__setattr__(self, "point", _freeze(asmatrix(self.point)))

    @property
    def key(self) -> tuple:
        """The merge key: shape and entries rounded to 12 decimals (`_keyed`)."""
        return self.point.shape, tuple(_keyed(self.point[None])[1][0].tolist())

    @property
    def norm(self) -> float:
        """|point|, the Frobenius norm."""
        return frob(self.point)

    def scaled(self, c: Weight) -> "Atom":
        w = _wmul(self.weight, c)
        if not float(w) > 0.0:
            raise _weight_error(w)
        return Atom._of(w, self.point)

    @staticmethod
    def _of(w: Weight, point: np.ndarray) -> "Atom":
        """An atom from a checked weight and a frozen float point, taken as
        they are."""
        out = object.__new__(Atom)
        object.__setattr__(out, "weight", w)
        object.__setattr__(out, "point", point)
        return out


@dataclass(frozen=True)
class SplittingStep:
    """target = lam * left + (1 - lam) * right with rank(left - right) = 1."""

    target: np.ndarray
    left: np.ndarray
    right: np.ndarray
    lam: Weight

    def __post_init__(self):
        object.__setattr__(self, "target", _freeze(asmatrix(self.target)))
        object.__setattr__(self, "left", _freeze(asmatrix(self.left)))
        object.__setattr__(self, "right", _freeze(asmatrix(self.right)))

    def validate(self, tol: float = 1e-9, rank_tol: float = 1e-9) -> None:
        """The one-split case of `_split_failure`."""
        bad = _split_failure([self], tol, rank_tol)
        if bad is not None:
            raise bad[1]


def _split_failure(splits: Sequence[SplittingStep], tol: float = 1e-9,
                   rank_tol: float = 1e-9) -> tuple[int, Exception] | None:
    """The first split that fails its checks, as (index, error), or None.

    Per split the checks run in this order: the fraction lies in (0,1); the
    three matrices have one shape; then `_split_rows`' checks.  The shapes
    are compared split by split up to the first mismatch; the splits before
    it are checked as stacks, one per matrix shape."""
    stop, err = len(splits), None
    for i, s in enumerate(splits):
        if s.left.shape != s.right.shape or s.left.shape != s.target.shape:
            lam = float(s.lam)
            stop, err = i, InvalidSplitError(
                f"split fraction {s.lam} outside (0,1)" if not 0.0 < lam < 1.0
                else "split matrices have mismatched shapes")
            break
    groups: dict = {}
    for i in range(stop):
        groups.setdefault(splits[i].target.shape, []).append(i)
    for rows in groups.values():
        bad = _split_rows(np.array([float(splits[i].lam) for i in rows]),
                          np.array([(splits[i].target, splits[i].left, splits[i].right)
                                    for i in rows]),
                          tol, rank_tol, [splits[i].lam for i in rows])
        if bad is not None and rows[bad[0]] < stop:
            stop, err = rows[bad[0]], bad[1]
    return None if err is None else (stop, err)


def _split_rows(lam: np.ndarray, mats: np.ndarray, tol: float = 1e-9,
                rank_tol: float = 1e-9, shown: Sequence | None = None
                ) -> tuple[int, Exception] | None:
    """The first of a stack of splits of one shape that fails its checks, as
    (row, error), or None.  `lam` holds the fractions as floats (`shown` as
    the error names them, `lam` by default), `mats` the (k, 3, m, n) stack of
    targets, lefts and rights.

    Per split the checks run in this order: the fraction lies in (0,1);
    left - right is finite (the `PreconditionError` of `rank`), the rank
    tolerance lies in (0,1) and the numerical rank of left - right is 1;
    lam * left + (1 - lam) * right is within tol * (1 + |target|) of the
    target.  All run on the whole stack: the rank test is one
    `_rank_one_rows` call, which decides most rows from their minors and
    gives the SVD's verdict on every row, and norms come from `_dots`
    (bit-equal to `frob`).  Overflow gives inf or nan without a warning, so
    a split past a failure cannot raise one."""
    k = len(lam)
    if not k:
        return None
    shape = mats.shape[2:]
    target, left, right = mats.reshape(k, 3, math.prod(shape)).transpose(1, 0, 2)
    col = lam[:, None]
    tol_ok = 0.0 < rank_tol < 1.0
    with np.errstate(all="ignore"):
        outside = ~((0.0 < lam) & (lam < 1.0))
        diff = left - right
        resid = target - (col * left + (1.0 - col) * right)
        far = (np.sqrt(_dots(resid, resid))
               > float(tol) * (1.0 + np.sqrt(_dots(target, target))))
        finite = np.isfinite(diff).all(axis=1)
        if tol_ok:   # the non-finite rows, failed already, as zeros
            not_one = ~_rank_one_rows(np.where(finite[:, None], diff, 0.0), shape, rank_tol)
        else:
            not_one = np.ones(k, dtype=bool)
    hit = np.flatnonzero(outside | ~finite | not_one | far)
    if not hit.size:
        return None
    j = int(hit[0])
    if outside[j]:
        lam_j = float(lam[j]) if shown is None else shown[j]
        return j, InvalidSplitError(f"split fraction {lam_j} outside (0,1)")
    if not finite[j]:
        return j, PreconditionError("matrix has non-finite entries")
    if not tol_ok:
        return j, PreconditionError(f"rank tolerance must lie in (0,1), got {rank_tol}")
    if not_one[j]:
        return j, InvalidSplitError("left - right is not rank one")
    return j, InvalidSplitError("convex combination does not reproduce target")


class Certificate(Sequence):
    """A read-only sequence of `size` splitting steps that `make()` returns,
    made on first use (len and truth need only the size)."""

    def __init__(self, size: int, make: Callable[[], Iterable[SplittingStep]]):
        self._size, self._make = size, make

    @cached_property
    def _steps(self) -> tuple[SplittingStep, ...]:
        return tuple(self._make())

    def __len__(self):
        return self._size

    def __getitem__(self, i):
        return self._steps[i]

    def __iter__(self):
        return iter(self._steps)


def _as_certificate(certificate) -> Sequence[SplittingStep] | None:
    if certificate is None or isinstance(certificate, Certificate):
        return certificate
    return tuple(certificate)


def _objects(values) -> np.ndarray:
    """A 1-d object array of the values, taken as they are."""
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


def _check_weights(w: np.ndarray, exact: np.ndarray | None) -> None:
    """`_weight_error` for the first weight not > 0, the exact one if any."""
    ok = w > 0.0
    if not ok.all():
        i = int(np.argmin(ok))
        raise _weight_error(float(w[i]) if exact is None else exact[i])


def _keyed(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(stack, rounded keys, norms) of a (k, m, n) stack: keys from one
    `np.round`, norms from one stacked row dot (bit-equal to `frob`)."""
    flat = stack.reshape(len(stack), math.prod(stack.shape[1:]))
    return stack, flat.round(12), np.sqrt(_dots(flat, flat))


def _stacked(mats: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_keyed` of a list of float matrices of one shape, stacked in one copy."""
    if not len(mats):
        raise PreconditionError("measure must have at least one atom")
    shapes = {P.shape for P in mats}
    if len(shapes) > 1:
        raise PreconditionError(f"the atoms of a measure need one shape, got {sorted(shapes)}")
    return _keyed(np.array(mats, dtype=float))


class DiscreteMeasure:
    """Finite atomic (sub-)probability measure with an optional splitting
    certificate, held as arrays (see the module docstring)."""

    def __init__(self, atoms: Iterable[Atom], certificate: Sequence[SplittingStep] | None = None):
        """The measure of the atoms: their points stacked, then merged by `_fill`."""
        atoms = tuple(atoms)
        ws = [a.weight if isinstance(a.weight, Fraction) else float(a.weight) for a in atoms]
        self._fill(np.array(ws, dtype=float), _objects(ws), *_stacked([a.point for a in atoms]),
                   certificate)

    def _fill(self, w: np.ndarray, exact: np.ndarray | None, stack: np.ndarray,
              keys: np.ndarray, norms: np.ndarray, certificate=None,
              merged: bool = False) -> None:
        """The merge, sort and mass check of rows in input order: float
        weights, the exact column (or None; w holds its floats), a (k, m, n)
        stack, rounded keys and norms.  Rows with equal keys (`_key_groups`)
        keep the first one's point and sum their weights (`_merge_weights`).
        With `merged` the rows are distinct and in key order already, and
        kept as given, uncopied.  An exact column without a `Fraction` is
        dropped."""
        if exact is not None and not any(isinstance(x, Fraction) for x in exact):
            exact = None
        _check_weights(w, exact)
        if not len(w):
            raise PreconditionError("measure must have at least one atom")
        first = slice(None)
        if not merged and len(w) > 1:
            order, starts = _key_groups(keys)
            first = order[starts]
            w, exact = _merge_weights(w, exact, order, starts)
        mass = float(w.cumsum()[-1])
        if mass > 1.0 + MASS_SLACK * max(1, len(w)):
            raise PreconditionError(f"total mass {mass} exceeds 1")
        self._stack = stack[first]
        self._stack.flags.writeable = False
        self._keys, self._norms, self._w, self._exact = keys[first], norms[first], w, exact
        self.mass = mass
        self.certificate: Sequence[SplittingStep] | None = _as_certificate(certificate)

    @staticmethod
    def _of(w, exact, stack, keys, norms, certificate=None, merged=False) -> DiscreteMeasure:
        nu = DiscreteMeasure.__new__(DiscreteMeasure)
        nu._fill(w, exact, stack, keys, norms, certificate, merged)
        return nu

    @staticmethod
    def from_stack(weights, points, certificate=None) -> "DiscreteMeasure":
        """DiscreteMeasure([Atom(w, P), ...]) for float weights and a (k, m, n)
        stack of matrices, checked finite and copied once."""
        weights = np.array(weights, dtype=float)
        stack = np.array(points, dtype=float)
        if stack.ndim != 3 or len(stack) != len(weights):
            raise PreconditionError(f"expected {len(weights)} matrices in a 3-d stack, "
                                    f"got shape {stack.shape}")
        if not np.isfinite(stack).all():
            raise PreconditionError("matrix has non-finite entries")
        return DiscreteMeasure._of(weights, None, *_keyed(stack), certificate)

    @cached_property
    def atoms(self) -> tuple[Atom, ...]:
        """One atom per row: its weight from the weight column (the exact one
        if any), its point a row view of the frozen stack."""
        ws = self._w if self._exact is None else self._exact
        return tuple(map(Atom._of, ws.tolist(), self._stack))

    def __len__(self):
        return len(self._w)

    def __iter__(self):
        return iter(self.atoms)

    def find(self, point, tol: float = MERGE_TOL) -> int | None:
        """The first row within tol * (1 + |point|) of point, or None: one
        stacked distance, each bit-equal to `frob` of the difference."""
        P = asmatrix(point)
        if P.shape != self._stack.shape[1:]:
            return None
        d = self._stack.reshape(self._keys.shape) - P.reshape(-1)
        hit = np.flatnonzero(np.sqrt(_dots(d, d)) <= tol * (1.0 + frob(P)))
        return int(hit[0]) if hit.size else None


def _key_groups(keys: np.ndarray, rows: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """(order, starts): a stable sort of the keys (column 0 first; by `rows`
    first when given), and where each run of equal keys (in one row) starts
    in it.  numpy compares -0.0 equal to 0.0, as tuples do."""
    cols = keys.T[::-1]
    order = np.lexsort(cols if rows is None else np.vstack([cols, rows]))
    sorted_keys = keys[order]
    new = np.empty(len(order), dtype=bool)
    new[0] = True
    (sorted_keys[1:] != sorted_keys[:-1]).any(axis=1, out=new[1:])
    if rows is not None:
        sorted_rows = rows[order]
        new[1:] |= sorted_rows[1:] != sorted_rows[:-1]
    return order, new.nonzero()[0]


def _group_sums(w: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The sum of each run w[starts[i]:starts[i + 1]], left to right, one
    rank at a time across all runs (float or object arrays)."""
    sizes = np.empty_like(starts)
    sizes[:-1] = starts[1:] - starts[:-1]
    sizes[-1] = len(w) - starts[-1]
    sums = w[starts]
    for r in range(1, sizes.max()):
        grown = sizes > r
        sums[grown] += w[starts[grown] + r]
    return sums


def _merge_weights(w: np.ndarray, exact: np.ndarray | None, order: np.ndarray,
                   starts: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The (float, exact) weight sums of the runs `_key_groups` found; with
    an exact column a run of two or more takes the float of its exact sum."""
    if len(starts) == len(order):   # every run a lone row
        return w[order], None if exact is None else exact[order]
    if exact is None:
        return _group_sums(w[order], starts), None
    exact = _group_sums(exact[order], starts)
    w = w[order[starts]]
    multi = np.flatnonzero(np.diff(starts, append=len(order)) > 1)
    w[multi] = [float(x) for x in exact[multi]]
    return w, exact


def dirac(point, certificate=None) -> DiscreteMeasure:
    return DiscreteMeasure([Atom(Fraction(1), point)], certificate)


def barycenter(nu: DiscreteMeasure) -> np.ndarray:
    out = np.zeros_like(nu._stack[0])
    for w, P in zip(nu._w.tolist(), nu._stack):
        out = out + w * P
    return out


def elementary_split(nu: DiscreteMeasure, step: SplittingStep, tol: float = 1e-9) -> DiscreteMeasure:
    step.validate(tol)
    cert = (list(nu.certificate) + [step]) if nu.certificate is not None else None
    return _split_at(nu, step, cert)


def _split_at(nu: DiscreteMeasure, step: SplittingStep,
              certificate=None) -> DiscreteMeasure:
    """nu with its row at the step's target (`find`) replaced by step.left
    and step.right, weighted w lam and w (1 - lam) (`_wmul`), then merged."""
    i = nu.find(step.target)
    if i is None:
        raise NotFoundError("no atom at the split target")
    lam = step.lam
    one_minus = (1 - lam) if isinstance(lam, Fraction) else (1.0 - float(lam))
    w = float(nu._w[i]) if nu._exact is None else nu._exact[i]
    pair = [_wmul(w, lam), _wmul(w, one_minus)]
    new = (np.array([float(v) for v in pair]), None if nu._exact is None else _objects(pair),
           *_keyed(np.stack([step.left, step.right])))
    old = (nu._w, nu._exact, nu._stack, nu._keys, nu._norms)
    return DiscreteMeasure._of(
        *(None if col is None else np.concatenate([col[:i], add, col[i + 1:]])
          for col, add in zip(old, new)), certificate)


@dataclass
class LaminateReport:
    ok: bool
    messages: list[str] = field(default_factory=list)
    failed_step: int | None = None


def verify_laminate(nu: DiscreteMeasure, cert: Sequence[SplittingStep] | None = None,
                    tol: float = 1e-9) -> LaminateReport:
    """Replay the certificate from the Dirac mass at its first target and
    compare the result with nu.  The certificate is validated at once
    (`_split_failure`); the replay reports the first step whose split is
    invalid (a `PreconditionError` raises there) or whose target it cannot
    find, the invalid split first at one step."""
    if not 0.0 < tol < math.inf:
        raise PreconditionError(f"tolerance must be finite and positive, got {tol}")
    steps = list(cert if cert is not None else (nu.certificate or ()))
    if not steps:
        if len(nu) == 1:
            return LaminateReport(True, ["Dirac with empty certificate"])
        return LaminateReport(False, ["no certificate for a non-Dirac measure"])
    bad = _split_failure(steps, tol)
    stop = len(steps) if bad is None else bad[0]
    current = dirac(steps[0].target)
    for i in range(stop):
        try:
            current = _split_at(current, steps[i])
        except NotFoundError as exc:
            return LaminateReport(False, [f"step {i}: {exc}"], failed_step=i)
    if bad is not None:
        if not isinstance(bad[1], InvalidSplitError):
            raise bad[1]
        return LaminateReport(False, [f"step {stop}: {bad[1]}"], failed_step=stop)
    have, want = current._w.tolist(), nu._w.tolist()
    for P, w, r in zip(nu._stack, want, nu._norms.tolist()):
        j = current.find(P)
        if j is None:
            return LaminateReport(False, [f"replayed measure misses atom at |X|={r:.6g}"])
        if abs(have[j] - w) > tol:
            return LaminateReport(
                False, [f"weight mismatch at |X|={r:.6g}: {have[j]} vs {w}"])
    if len(current) != len(nu):
        return LaminateReport(False, ["replayed measure has extra atoms"])
    if abs(current.mass - nu.mass) > tol:
        return LaminateReport(False, ["mass mismatch after replay"])
    return LaminateReport(True, [f"replayed {len(steps)} steps"])


def pushforward(nu: DiscreteMeasure, T: Callable[[np.ndarray], np.ndarray],
                check_rank_one: bool = False, rank_tol: float = 1e-9) -> DiscreteMeasure:
    mats = [asmatrix(T(np.asarray(P))) for P in nu._stack]
    cert = None
    if nu.certificate is not None:
        cert = []
        for s in nu.certificate:
            tl, tr = T(np.asarray(s.left)), T(np.asarray(s.right))
            if check_rank_one:
                with np.errstate(all="ignore"):   # an overflow fails as non-finite
                    D = tl - tr
                if not _is_rank_one(D, rank_tol):
                    raise InvalidTransformError("transform breaks a rank-one connection")
            cert.append(SplittingStep(T(np.asarray(s.target)), tl, tr, s.lam))
    return DiscreteMeasure._of(nu._w, nu._exact, *_stacked(mats), cert)


def mixture(parts: Sequence[tuple[Weight, DiscreteMeasure]],
            certificate=None) -> DiscreteMeasure:
    """sum_i w_i nu_i in one merge: each part's weights scaled by its weight
    as `_wmul` does (on the exact column for a `Fraction` weight, else on
    the floats), then the parts' rows concatenated in order and merged.  A
    lone part is merged already: its arrays are shared and only its weights
    scaled.  The scaled weights are checked before the parts' shapes."""
    if not parts:
        raise PreconditionError("measure must have at least one atom")
    exact = None
    if any(isinstance(c, Fraction) and nu._exact is not None for c, nu in parts):
        exact = np.concatenate([nu._exact * c if isinstance(c, Fraction) and nu._exact is not None
                                else (nu._w * float(c)).astype(object) for c, nu in parts])
        w = np.array(exact, dtype=float)
    else:
        w = np.concatenate([nu._w * float(c) for c, nu in parts])
    shapes = {nu._stack.shape[1:] for _, nu in parts}
    if len(shapes) > 1:
        _check_weights(w, exact)
        raise PreconditionError(f"the atoms of a measure need one shape, got {sorted(shapes)}")
    if len(parts) == 1:
        (_, nu), = parts
        return DiscreteMeasure._of(w, exact, nu._stack, nu._keys, nu._norms,
                                   certificate, merged=True)
    return DiscreteMeasure._of(w, exact, *(np.concatenate([getattr(nu, name) for _, nu in parts])
                                           for name in ("_stack", "_keys", "_norms")),
                               certificate)


def tail_masses(nu: DiscreteMeasure, ts) -> np.ndarray:
    """mu({|X| > t}) for every t of a grid.  Per t the weights of the atoms
    beyond t are added left to right, atoms in measure order: the sum the
    builtin `sum` of Python <= 3.11 gives, as floats."""
    norms, w = nu._norms, nu._w
    ts = np.asarray(ts, dtype=float).reshape(-1)
    step = max(1, _TAIL_BLOCK // len(w))
    blocks = [np.cumsum(np.where(norms > ts[i:i + step, None], w, 0.0), axis=1)[:, -1]
              for i in range(0, len(ts), step)]
    return np.concatenate(blocks) if blocks else np.zeros(0)


def tail_mass(nu: DiscreteMeasure, t: float) -> float:
    return float(tail_masses(nu, (t,))[0])


def moment(nu: DiscreteMeasure, q: float, cap: float | None = None) -> float:
    """sum w |X|^q over the atoms with |X| <= cap (all atoms without a cap),
    read off the norm and weight columns and added left to right in Python
    floats: `**` is Python's, which np.power does not match in the last bit."""
    total = 0.0
    for r, w in zip(nu._norms.tolist(), nu._w.tolist()):
        if cap is None or r <= cap:
            total += w * r ** q
    return total


@dataclass
class TailRow:
    t: float
    tail: float
    upper_env: float | None
    lower_env: float | None
    ok: bool


@dataclass
class TailReport:
    rows: list[TailRow]
    meta: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)

    def csv_lines(self) -> list[str]:
        def fmt(v):
            return "" if v is None else repr(float(v))
        out = ["t,tail,upper_env,lower_env,verdict"]
        for r in self.rows:
            out.append(f"{fmt(r.t)},{fmt(r.tail)},{fmt(r.upper_env)},{fmt(r.lower_env)},"
                       f"{'pass' if r.ok else 'fail'}")
        return out


def weak_tail_constant(p: float, M: float, normA: float) -> float:
    """The envelope constant M^p (1+|A|^p) of `verify_weak_tail`, after its
    preconditions in its order: p >= 1 and M >= 1; p, M and |A| finite;
    |A| >= 0; the constant finite."""
    if not (p >= 1 and M >= 1):
        raise PreconditionError("need p >= 1 and M >= 1")
    for name, v in (("p", p), ("M", M), ("|A|", normA)):
        if not math.isfinite(v):
            raise PreconditionError(f"need a finite {name}, got {float(v)!r}")
    if not normA >= 0:
        raise PreconditionError(f"need |A| >= 0, got {float(normA)!r}")
    return _finite_constant(lambda: M ** p * (1.0 + normA ** p),
                            "tail envelope M^p (1+|A|^p)")


def verify_weak_tail(nu: DiscreteMeasure, p: float, M: float, normA: float,
                     t_grid: Sequence[float] = (), slack: float = 0.0) -> TailReport:
    """Compare tails against the envelope M^p (1+|A|^p) t^-p from above."""
    rows = _upper_rows(nu, weak_tail_constant(p, M, normA), p, t_grid, slack)
    return TailReport(rows, {"p": p, "M": M, "normA": normA, "slack": slack})


def _finite_constant(constant: Callable[[], float], what: str) -> float:
    """constant(); an infinite one is a precondition failure naming `what`
    (a float power overflows with an error, a numpy scalar's to inf)."""
    try:
        with np.errstate(over="ignore"):
            C = constant()
    except OverflowError:
        C = math.inf
    if C == math.inf:
        raise PreconditionError(f"{what} overflows the float range")
    return C


def _upper_rows(nu: DiscreteMeasure, C: float, r: float, t_grid: Sequence[float],
                slack: float) -> list[TailRow]:
    """Rows checking tail(t) <= C t^-r + slack on the grid; an envelope
    C t^-r beyond the floats is inf."""
    tails = tail_masses(nu, t_grid).tolist()
    with np.errstate(over="ignore"):
        ups = [C * np.float64(t) ** -r for t in t_grid]
    return [TailRow(float(t), tail, up, None, tail <= up + slack)
            for t, tail, up in zip(t_grid, tails, ups)]


def fit_upper_constant(nu: DiscreteMeasure, p: float, t_grid: Sequence[float]) -> float:
    """Smallest C with tail(t) <= C t^-p on the grid."""
    best = 0.0
    for t, tail in zip(t_grid, tail_masses(nu, t_grid).tolist()):
        best = max(best, tail * t ** p)
    return best


def diamond_compose(nu1: DiscreteMeasure,
                    family: Callable[[int, Atom], DiscreteMeasure],
                    p: float | None = None, q: float | None = None,
                    M1: float | None = None, M2: float | None = None,
                    normA: float | None = None,
                    t_grid: Sequence[float] = ()):
    """Mixture sum_i lambda_i nu''_i over the atoms of nu1.

    With exponents supplied, the composed tail is checked against
    4 (1 + q/|p-q|) (M' M'')^r (1+|A|^r) t^-r, r = min(p, q).  The p = q case
    is rejected: no such envelope exists.
    """
    parts = []
    certs_ok = nu1.certificate is not None
    chained = list(nu1.certificate or ())
    for i, a in enumerate(nu1.atoms):
        nui = family(i, a)
        if abs(nui.mass - 1.0) > 1e-9:
            raise PreconditionError(f"family member {i} is not a probability measure")
        parts.append((a.weight, nui))
        if nui.certificate is None:
            certs_ok = False
        elif certs_ok:
            chained.extend(nui.certificate)
    composed = mixture(parts, certificate=chained if certs_ok else None)
    report = None
    if p is not None or q is not None:
        if p is None or q is None or M1 is None or M2 is None or normA is None:
            raise PreconditionError("envelope check needs p, q, M1, M2 and normA")
        if p == q:
            raise UnsupportedError("no composition envelope exists for p == q")
        r = min(p, q)
        C = 4.0 * (1.0 + q / abs(p - q))
        env = _finite_constant(lambda: C * (M1 * M2) ** r * (1.0 + normA ** r),
                               "composed tail envelope C (M1 M2)^r (1+|A|^r)")
        rows = _upper_rows(composed, env, r, t_grid, 0.0)
        report = TailReport(rows, {"p": p, "q": q, "r": r, "C": C, "M1": M1, "M2": M2,
                                   "normA": normA})
    return composed, report


def weight_norm(normA: float, p: float) -> float:
    """(1 + |A|^p)^(1/p); monotone decreasing in p for fixed A."""
    if p == float("inf"):
        return max(1.0, normA)
    return (1.0 + normA ** p) ** (1.0 / p)


def strong_from_weak(p: float, q: float, M: float, normA: float) -> float:
    """L^q-moment bound per unit volume implied by a weak-L^p tail, q < p."""
    if not (1 <= q < p):
        raise PreconditionError(f"need 1 <= q < p, got q={q}, p={p}")
    return 2.0 * (q / (p - q)) ** (q / p) * M ** q * (1.0 + normA ** q)
