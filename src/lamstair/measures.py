"""Atomic measures on matrix space, splitting certificates and tail calculus.

Weights are kept as exact `Fraction`s whenever every input to a construction is
rational (the telescoping residual identities are then checked exactly) and as
floats otherwise.  Atom points are float64 matrices; duplicates are merged on a
1e-12 quantization grid, which the constructions only hit with exact duplicates.

Measures are built and queried in bulk, with the results of the per-atom code:

- One merge rule: atoms with equal keys (Python tuple equality, so
  -0.0 == 0.0) become one atom at the first one's point, their weights summed
  left to right in order of appearance; the measure lists them sorted by key.
- Array state.  `DiscreteMeasure.from_stack(weights, points)`, and `mixture`
  over such measures, hold a float measure as arrays: a read-only
  (k, m, n) stack in key order, float weights, norms (bit-equal to `frob`)
  and the rounded keys, in the subclass `_ArrayMeasure`.  It applies the
  merge rule to them with a stable lexsort, and fills `_tail_arrays` as it
  builds.  `atoms` is then a view made on first use: one `Atom` per row, its
  point a row view of the stack, with key and norm filled in.
- Float staircase truncations are `_ArrayMeasure`s too, sliced from a
  prefix of arrays that `staircase.build_truncation` grows; staircase levels
  merge and sort their atoms as arrays too (`_key_groups` by level).  The
  list constructor `DiscreteMeasure(atoms)` stays for the per-atom builders
  (rational truncations, a level's mu made on demand, splits, pushforwards,
  parsed measures), which carry exact `Fraction` weights in rational mode
  and build many small measures, where per-call array overhead costs more
  than it saves.  `mixture` over any part built that way merges atom by
  atom as well, so rational mode stays exact.
- A measure's certificate may be a `Certificate`: a sequence whose steps
  are made on first use (a truncation's, or a mixture of them).
- `_split_rows` checks a stack of splitting steps of one shape with one
  stacked SVD; `_split_failure` runs it on `SplittingStep`s, per shape, and
  `SplittingStep.validate` is its one-split case.
- `tail_masses(nu, ts)` returns every tail on a t-grid at once: per t the
  weights of the atoms with |X| > t, summed left to right by one `cumsum`
  over arrays cached on the measure.  `tail_mass` is its one-point case.
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
from .matrices import _dots, asmatrix, frob, rank

MERGE_TOL = 1e-12
MASS_SLACK = 1e-12
_TAIL_BLOCK = 1 << 20   # grid points x atoms per tail_masses block

Weight = Fraction | float


def _point_key(P: np.ndarray):
    return (P.shape, tuple(np.round(P, 12).ravel().tolist()))


def _freeze(P: np.ndarray) -> np.ndarray:
    P = np.array(P, dtype=float)
    P.flags.writeable = False
    return P


def _wadd(a: Weight, b: Weight) -> Weight:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    return float(a) + float(b)


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
    carry no instance dict; the merge key and the norm |point| are filled into
    their slots on first use.  `scaled` returns an atom that shares this one's
    frozen point and whatever key and norm it has cached."""

    weight: Weight
    point: np.ndarray
    _key: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _norm: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not float(self.weight) > 0.0:
            raise _weight_error(self.weight)
        object.__setattr__(self, "point", _freeze(asmatrix(self.point)))

    @property
    def key(self) -> tuple:
        """The merge key: shape and entries rounded to 12 decimals."""
        if self._key is None:
            object.__setattr__(self, "_key", _point_key(self.point))
        return self._key

    @property
    def norm(self) -> float:
        """|point|, the Frobenius norm."""
        if self._norm is None:
            object.__setattr__(self, "_norm", frob(self.point))
        return self._norm

    def scaled(self, c: Weight) -> "Atom":
        return self._reweighted(_wmul(self.weight, c))

    def _reweighted(self, w: Weight) -> "Atom":
        if not float(w) > 0.0:
            raise _weight_error(w)
        return Atom._filled(w, self.point, self._key, self._norm)

    @staticmethod
    def _filled(w: Weight, point: np.ndarray, key, norm) -> "Atom":
        """An atom from a checked weight and a frozen float point, taken as
        they are, with the key and norm slots filled in."""
        out = object.__new__(Atom)
        for name, val in (("weight", w), ("point", point), ("_key", key),
                          ("_norm", norm)):
            object.__setattr__(out, name, val)
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
    target.  All run on the whole stack: one `np.linalg.svd` call (bit-equal
    to one call per matrix) and norms from `_dots` (bit-equal to `frob`).
    Overflow gives inf or nan without a warning, so a split past a failure
    cannot raise one."""
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
            sv = np.linalg.svd(np.where(finite[:, None], diff, 0.0).reshape(k, *shape),
                               compute_uv=False)
            not_one = (sv > rank_tol * sv[:, :1]).sum(axis=1) != 1
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


class DiscreteMeasure:
    """Finite atomic (sub-)probability measure with an optional splitting certificate."""

    def __init__(self, atoms: Iterable[Atom], certificate: Sequence[SplittingStep] | None = None):
        merged: dict = {}
        order: list = []
        for a in atoms:
            k = a.key
            if k in merged:
                merged[k] = merged[k]._reweighted(_wadd(merged[k].weight, a.weight))
            else:
                merged[k] = a
                order.append(k)
        # canonical order: sorted by point key, for byte-stable outputs
        self.atoms: tuple[Atom, ...] = tuple(merged[k] for k in sorted(order))
        if not self.atoms:
            raise PreconditionError("measure must have at least one atom")
        mass = 0.0
        for a in self.atoms:
            mass += float(a.weight)
        if mass > 1.0 + MASS_SLACK * max(1, len(self.atoms)):
            raise PreconditionError(f"total mass {mass} exceeds 1")
        self.mass = mass
        self.certificate: Sequence[SplittingStep] | None = _as_certificate(certificate)

    @staticmethod
    def from_stack(weights, points, certificate=None) -> "DiscreteMeasure":
        """DiscreteMeasure([Atom(w, P), ...]) for float weights and a (k, m, n)
        stack of matrices, built as arrays: one float copy of the stack, one
        finiteness check, keys from one `np.round`, norms from one stacked row
        dot (bit-equal to `frob`), then `_ArrayMeasure`'s merge."""
        weights = np.array(weights, dtype=float)
        stack = np.array(points, dtype=float)
        if stack.ndim != 3 or len(stack) != len(weights):
            raise PreconditionError(f"expected {len(weights)} matrices in a 3-d stack, "
                                    f"got shape {stack.shape}")
        if not np.isfinite(stack).all():
            raise PreconditionError("matrix has non-finite entries")
        k, m, n = stack.shape
        flat = stack.reshape(k, m * n)
        return _ArrayMeasure(weights, stack, np.round(flat, 12),
                             np.sqrt(_dots(flat, flat)), certificate)

    @cached_property
    def _tail_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(|point|, float weight) per atom, for repeated tail queries."""
        return (np.array([a.norm for a in self.atoms]),
                np.array([float(a.weight) for a in self.atoms]))

    def __len__(self):
        return len(self.atoms)

    def __iter__(self):
        return iter(self.atoms)

    def find(self, point, tol: float = MERGE_TOL) -> int | None:
        P = asmatrix(point)
        for i, a in enumerate(self.atoms):
            if a.point.shape == P.shape and frob(a.point - P) <= tol * (1.0 + frob(P)):
                return i
        return None


def _key_groups(keys: np.ndarray, rows: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """(order, starts): a stable sort of the keys (column 0 first; by `rows`
    first when given), and where each run of equal keys (in one row) starts
    in it.  numpy compares -0.0 equal to 0.0, as tuples do."""
    cols = keys.T[::-1]
    order = np.lexsort(cols if rows is None else np.vstack([cols, rows]))
    sorted_keys = keys[order]
    new = np.ones(len(order), dtype=bool)
    np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1, out=new[1:])
    if rows is not None:
        sorted_rows = rows[order]
        new[1:] |= sorted_rows[1:] != sorted_rows[:-1]
    return order, np.flatnonzero(new)


def _group_sums(w: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The sum of each run w[starts[i]:starts[i + 1]], left to right, one
    rank at a time across all runs."""
    sizes = np.empty_like(starts)
    sizes[:-1] = starts[1:] - starts[:-1]
    sizes[-1] = len(w) - starts[-1]
    sums = w[starts]
    for r in range(1, sizes.max()):
        grown = sizes > r
        sums[grown] += w[starts[grown] + r]
    return sums


def _merge_rows(weights: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the summed weight, the first row) of each group of equal keys, in
    key order: see `_ArrayMeasure`."""
    order, starts = _key_groups(keys)
    return _group_sums(weights[order], starts), order[starts]


class _ArrayMeasure(DiscreteMeasure):
    """A float-weighted measure held as arrays in key order: a read-only
    (k, m, n) stack, the rounded keys, and norms and weights as
    `_tail_arrays`.  `atoms` is made on first use.  A subclass, so that the
    many list-built measures keep `atoms` a plain instance attribute."""

    def __init__(self, weights, stack, keys, norms, certificate=None,
                 merged=False):
        """`DiscreteMeasure.__init__`'s merge, sort and mass check on atoms
        given as arrays in input order (float weights, a (k, m, n) stack,
        rounded keys, norms).  A stable lexsort on the keys, column 0 first,
        puts equal keys next to each other in order of appearance (numpy
        compares -0.0 equal to 0.0, as tuples do); each group keeps its first
        row and sums its weights left to right, one rank at a time across all
        groups.  With `merged` the rows are already distinct and in key
        order, as that merge leaves them: they are kept as given, uncopied."""
        bad = np.flatnonzero(~(weights > 0.0))
        if bad.size:
            raise _weight_error(float(weights[bad[0]]))
        if not len(weights):
            raise PreconditionError("measure must have at least one atom")
        if merged:
            sums, first = weights, slice(None)
        else:
            sums, first = _merge_rows(weights, keys)
        mass = float(np.cumsum(sums)[-1])
        if mass > 1.0 + MASS_SLACK * max(1, len(sums)):
            raise PreconditionError(f"total mass {mass} exceeds 1")
        self._stack = stack[first]
        self._stack.flags.writeable = False
        self._keys = keys[first]
        self._tail_arrays = (norms[first], sums)
        self.mass = mass
        self.certificate = _as_certificate(certificate)

    def __len__(self):
        return len(self._stack)

    @cached_property
    def atoms(self) -> tuple[Atom, ...]:
        """One atom per row, its point a row view of the frozen stack, with
        the key and norm slots filled in."""
        norms, weights = self._tail_arrays
        shape = self._stack.shape[1:]
        return tuple(Atom._filled(w, P, (shape, tuple(k)), r)
                     for w, P, k, r in zip(weights.tolist(), self._stack,
                                           self._keys.tolist(), norms.tolist()))


def dirac(point, certificate=None) -> DiscreteMeasure:
    return DiscreteMeasure([Atom(Fraction(1), point)], certificate)


def barycenter(nu: DiscreteMeasure) -> np.ndarray:
    out = np.zeros_like(nu.atoms[0].point)
    for a in nu.atoms:
        out = out + float(a.weight) * a.point
    return out


def elementary_split(nu: DiscreteMeasure, step: SplittingStep, tol: float = 1e-9) -> DiscreteMeasure:
    step.validate(tol)
    idx = nu.find(step.target)
    if idx is None:
        raise NotFoundError("no atom at the split target")
    new_atoms = []
    for i, a in enumerate(nu.atoms):
        if i == idx:
            lam = step.lam
            one_minus = (1 - lam) if isinstance(lam, Fraction) else (1.0 - float(lam))
            new_atoms.append(Atom(_wmul(a.weight, lam), step.left))
            new_atoms.append(Atom(_wmul(a.weight, one_minus), step.right))
        else:
            new_atoms.append(a)
    cert = (list(nu.certificate) + [step]) if nu.certificate is not None else None
    return DiscreteMeasure(new_atoms, cert)


@dataclass
class LaminateReport:
    ok: bool
    messages: list[str] = field(default_factory=list)
    failed_step: int | None = None


def verify_laminate(nu: DiscreteMeasure, cert: Sequence[SplittingStep] | None = None,
                    tol: float = 1e-9) -> LaminateReport:
    if not 0.0 < tol < math.inf:
        raise PreconditionError(f"tolerance must be finite and positive, got {tol}")
    steps = list(cert if cert is not None else (nu.certificate or ()))
    if not steps:
        if len(nu.atoms) == 1:
            return LaminateReport(True, ["Dirac with empty certificate"])
        return LaminateReport(False, ["no certificate for a non-Dirac measure"])
    root = steps[0].target
    current = dirac(root, certificate=[])
    for i, step in enumerate(steps):
        try:
            current = elementary_split(current, step, tol)
        except (InvalidSplitError, NotFoundError) as exc:
            return LaminateReport(False, [f"step {i}: {exc}"], failed_step=i)
    for a in nu.atoms:
        j = current.find(a.point)
        if j is None:
            return LaminateReport(False, [f"replayed measure misses atom at |X|={frob(a.point):.6g}"])
        if abs(float(current.atoms[j].weight) - float(a.weight)) > tol:
            return LaminateReport(
                False,
                [f"weight mismatch at |X|={frob(a.point):.6g}: "
                 f"{float(current.atoms[j].weight)} vs {float(a.weight)}"])
    if len(current.atoms) != len(nu.atoms):
        return LaminateReport(False, ["replayed measure has extra atoms"])
    if abs(current.mass - nu.mass) > tol:
        return LaminateReport(False, ["mass mismatch after replay"])
    return LaminateReport(True, [f"replayed {len(steps)} steps"])


def pushforward(nu: DiscreteMeasure, T: Callable[[np.ndarray], np.ndarray],
                check_rank_one: bool = False, rank_tol: float = 1e-9) -> DiscreteMeasure:
    atoms = [Atom(a.weight, T(np.asarray(a.point))) for a in nu.atoms]
    cert = None
    if nu.certificate is not None:
        cert = []
        for s in nu.certificate:
            tl, tr = T(np.asarray(s.left)), T(np.asarray(s.right))
            if check_rank_one and rank(tl - tr, rank_tol) != 1:
                raise InvalidTransformError("transform breaks a rank-one connection")
            cert.append(SplittingStep(T(np.asarray(s.target)), tl, tr, s.lam))
    return DiscreteMeasure(atoms, cert)


def mixture(parts: Sequence[tuple[Weight, DiscreteMeasure]],
            certificate=None) -> DiscreteMeasure:
    """sum_i w_i nu_i in one merge: each atom's weight is scaled by its
    part's weight and checked positive, as `Atom.scaled` does, then added
    into its key's group under `DiscreteMeasure`'s merge rule (first point,
    `_wadd` in order of appearance).  When every part is held as arrays
    (float weights, so every scaled weight is a float) of one matrix shape,
    the parts' arrays are concatenated and merged by `_ArrayMeasure` (one
    such part is merged already: its arrays are shared and only its weights
    scaled); otherwise, rational mode among them, the atoms are merged one
    by one and the measure built from the groups only sorts them."""
    if (parts and all(isinstance(nu, _ArrayMeasure) for _, nu in parts)
            and len({nu._stack.shape[1:] for _, nu in parts}) == 1):
        if len(parts) == 1:
            (w, nu), = parts
            return _ArrayMeasure(nu._tail_arrays[1] * float(w), nu._stack, nu._keys,
                                 nu._tail_arrays[0], certificate, merged=True)
        return _ArrayMeasure(
            np.concatenate([nu._tail_arrays[1] * float(w) for w, nu in parts]),
            np.concatenate([nu._stack for _, nu in parts]),
            np.concatenate([nu._keys for _, nu in parts]),
            np.concatenate([nu._tail_arrays[0] for _, nu in parts]), certificate)
    groups: dict = {}
    for w, nu in parts:
        for a in nu.atoms:
            sw = _wmul(a.weight, w)
            if not float(sw) > 0.0:
                raise _weight_error(sw)
            k = a.key
            g = groups.get(k)
            groups[k] = (a, sw) if g is None else (g[0], _wadd(g[1], sw))
    return DiscreteMeasure([a._reweighted(sw) for a, sw in groups.values()],
                           certificate)


def tail_masses(nu: DiscreteMeasure, ts) -> np.ndarray:
    """mu({|X| > t}) for every t of a grid.  Per t the weights of the atoms
    beyond t are added left to right, atoms in measure order: the sum the
    builtin `sum` of Python <= 3.11 gives, as floats."""
    norms, w = nu._tail_arrays
    ts = np.asarray(ts, dtype=float).reshape(-1)
    step = max(1, _TAIL_BLOCK // len(w))
    blocks = [np.cumsum(np.where(norms > ts[i:i + step, None], w, 0.0), axis=1)[:, -1]
              for i in range(0, len(ts), step)]
    return np.concatenate(blocks) if blocks else np.zeros(0)


def tail_mass(nu: DiscreteMeasure, t: float) -> float:
    return float(tail_masses(nu, (t,))[0])


def moment(nu: DiscreteMeasure, q: float, cap: float | None = None) -> float:
    """sum w |X|^q over the atoms with |X| <= cap (all atoms without a cap),
    read off `_tail_arrays` and added left to right in Python floats: `**`
    is Python's, which np.power does not match in the last bit."""
    norms, weights = nu._tail_arrays
    total = 0.0
    for r, w in zip(norms.tolist(), weights.tolist()):
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


def verify_weak_tail(nu: DiscreteMeasure, p: float, M: float, normA: float,
                     side: str = "upper", t_grid: Sequence[float] = (),
                     lower_env: Callable[[float], float] | None = None,
                     slack: float = 0.0) -> TailReport:
    """Compare tails against M^p (1+|A|^p) t^-p above and an optional lower envelope."""
    if not (p >= 1 and M >= 1):
        raise PreconditionError("need p >= 1 and M >= 1")
    if side not in ("upper", "lower", "both"):
        raise PreconditionError(f"unknown side {side!r}")
    rows = []
    cu = M ** p * (1.0 + normA ** p)
    for t, tail in zip(t_grid, tail_masses(nu, t_grid).tolist()):
        up = cu * t ** -p if side in ("upper", "both") else None
        lo = lower_env(t) if (lower_env is not None and side in ("lower", "both")) else None
        ok = True
        if up is not None:
            ok = ok and tail <= up + slack
        if lo is not None:
            ok = ok and tail >= lo - slack
        rows.append(TailRow(float(t), tail, up, lo, ok))
    return TailReport(rows, {"p": p, "M": M, "normA": normA, "side": side, "slack": slack})


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
                    t_grid: Sequence[float] = (),
                    slack: float = 0.0):
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
        cu = C * (M1 * M2) ** r * (1.0 + normA ** r)
        rows = []
        for t, tail in zip(t_grid, tail_masses(composed, t_grid).tolist()):
            up = cu * t ** -r
            rows.append(TailRow(float(t), tail, up, None, tail <= up + slack))
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
