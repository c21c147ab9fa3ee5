"""JSON and CSV serialization for matrices, measures, tail reports and maps.

All writers are deterministic: keys are sorted, floats go through ``repr``
(shortest round-trip form), and CSV uses '.' decimals regardless of locale,
so repeated runs with identical inputs produce byte-identical artifacts.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .errors import ParseError, PreconditionError
from .matrices import asmatrix, frob
from .measures import (Atom, DiscreteMeasure, SplittingStep, TailReport,
                       Weight)
from .synth import GOOD, OBox, PiecewiseAffineMap

__all__ = [
    "matrix_to_obj", "matrix_from_obj", "measure_to_obj", "measure_from_obj",
    "map_to_obj", "map_from_obj", "CellMap", "tail_report_csv",
    "dump_json", "load_json", "parse_matrix_arg",
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
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: non-numeric entry ({exc})") from exc
    if not np.isfinite(M).all():
        raise ParseError(f"{path}: entries must be finite")
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
        return np.diag(vals)
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


def measure_from_obj(obj, path="measure") -> DiscreteMeasure:
    atoms = []
    for i, a in enumerate(_require(obj, "atoms", path)):
        w = _weight_from_obj(_require(a, "w", f"{path}.atoms[{i}]"),
                             f"{path}.atoms[{i}].w")
        M = matrix_from_obj(_require(a, "M", f"{path}.atoms[{i}]"),
                            f"{path}.atoms[{i}].M")
        atoms.append(Atom(w, M))
    cert = None
    if "certificate" in obj:
        cert = []
        for i, s in enumerate(obj["certificate"]):
            where = f"{path}.certificate[{i}]"
            cert.append(SplittingStep(
                matrix_from_obj(_require(s, "target", where), where),
                matrix_from_obj(_require(s, "left", where), where),
                matrix_from_obj(_require(s, "right", where), where),
                _weight_from_obj(_require(s, "lam", where), where)))
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


def map_to_obj(m, max_cells: int = 200_000) -> dict:
    A, b = m.boundary_affine
    if isinstance(m, CellMap):
        return {"domain": _domain_to_obj(m.domain),
                "boundary": {"A": matrix_to_obj(A),
                             "b": [float(v) for v in b]},
                "cells": [{"region": {"vertices": [[float(v) for v in p]
                                                   for p in c["vertices"]]},
                           "A": matrix_to_obj(c["A"]),
                           "b": [float(v) for v in c["b"]],
                           "flag": c["flag"]} for c in m.cells_data],
                "residual_volume": float(m.residual_volume)}
    cells = []
    for c in m.cells(max_cells):
        cells.append({
            "region": {"vertices": [[float(v) for v in p] for p in c.vertices]},
            "A": matrix_to_obj(c.A),
            "b": [float(v) for v in c.b],
            # non-realized roles (inductive slots, cover residuals) are all
            # error cells from the consumer's point of view
            "flag": "good" if c.flag == GOOD else "error",
        })
    return {"domain": _domain_to_obj(m.domain),
            "boundary": {"A": matrix_to_obj(A), "b": [float(v) for v in b]},
            "cells": cells,
            "residual_volume": float(m.residual_volume)}


class CellMap:
    """A map loaded back from its serialized cell list.

    Evaluation locates the cell nearest to the query point (containment up to
    roundoff for interior points) and applies its affine piece, which is exact
    away from the booked residual slivers; enough for sampled verification
    and for the gradient-distribution and duality consumers.
    """

    def __init__(self, domain: OBox, boundary, cells: list[dict],
                 residual_volume: float):
        self.domain = domain
        self.boundary_affine = boundary
        self.cells_data = cells
        self.residual_volume = float(residual_volume)
        self._centroids = np.array([np.mean(c["vertices"], axis=0)
                                    for c in cells])
        self._areas = np.array([_polygon_area(c["vertices"]) for c in cells])
        self._radii = np.array(
            [max(np.linalg.norm(np.asarray(v, dtype=float) - ctr)
                 for v in c["vertices"])
             for c, ctr in zip(cells, self._centroids)])

    def _locate(self, x) -> int:
        x = np.asarray(x, dtype=float)
        dist = np.linalg.norm(self._centroids - x, axis=1)
        # only cells whose circumradius reaches x can contain it; cell sizes
        # vary over many scales, so a plain k-nearest candidate set fails
        cand = np.nonzero(dist <= self._radii + 1e-9)[0]
        cand = cand[np.argsort(dist[cand], kind="stable")]
        for i in cand:
            if _polygon_contains(self.cells_data[i]["vertices"], x):
                return int(i)
        if len(cand):
            return int(cand[0])
        return int(np.argmin(dist))

    def evaluate(self, x) -> np.ndarray:
        c = self.cells_data[self._locate(x)]
        return c["A"] @ np.asarray(x, dtype=float) + c["b"]

    def gradient_at(self, x) -> np.ndarray:
        return self.cells_data[self._locate(x)]["A"]

    def evaluate_many(self, X) -> np.ndarray:
        """Rows evaluate(X[r]) for points X of shape (k, 2)."""
        return np.array([self.evaluate(x) for x in X]).reshape(len(X), 2)

    def gradient_many(self, X) -> np.ndarray:
        """Rows gradient_at(X[r]) for points X of shape (k, 2)."""
        return np.array([self.gradient_at(x) for x in X]).reshape(len(X), 2, 2)

    def grad_bound(self) -> float:
        return max((frob(c["A"]) for c in self.cells_data), default=0.0)

    def gradient_distribution(self) -> tuple[DiscreteMeasure, float]:
        vol = self.domain.volume
        atoms = [Atom(a / vol, c["A"])
                 for c, a in zip(self.cells_data, self._areas) if a > 0.0]
        return DiscreteMeasure(atoms), self.residual_volume

    def volumes_by_flag(self) -> dict:
        out: dict[str, float] = {}
        for c, a in zip(self.cells_data, self._areas):
            out[c["flag"]] = out.get(c["flag"], 0.0) + float(a)
        return out

    def swap_components(self) -> "CellMap":
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        dom = OBox(P @ self.domain.center, self.domain.half,
                   P @ self.domain.frame)
        A, b = self.boundary_affine
        cells = [{"vertices": [P @ v for v in c["vertices"]],
                  "A": P @ c["A"] @ P, "b": P @ c["b"], "flag": c["flag"]}
                 for c in self.cells_data]
        return CellMap(dom, (P @ A @ P, P @ b), cells, self.residual_volume)


def _polygon_area(verts) -> float:
    v = np.asarray(verts, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _polygon_contains(verts, x, tol: float = 1e-9) -> bool:
    v = np.asarray(verts, dtype=float)
    n = len(v)
    sign = 0.0
    for i in range(n):
        e = v[(i + 1) % n] - v[i]
        cross = e[0] * (x[1] - v[i][1]) - e[1] * (x[0] - v[i][0])
        if abs(cross) <= tol:
            continue
        if sign == 0.0:
            sign = cross
        elif cross * sign < 0.0:
            return False
    return True


def map_from_obj(obj, path="map") -> CellMap:
    dom = _domain_from_obj(_require(obj, "domain", path), f"{path}.domain")
    bnd = _require(obj, "boundary", path)
    A = matrix_from_obj(_require(bnd, "A", f"{path}.boundary"),
                        f"{path}.boundary.A")
    b = np.asarray(_require(bnd, "b", f"{path}.boundary"), dtype=float)
    cells = []
    for i, c in enumerate(_require(obj, "cells", path)):
        where = f"{path}.cells[{i}]"
        region = _require(c, "region", where)
        verts = [np.asarray(p, dtype=float)
                 for p in _require(region, "vertices", f"{where}.region")]
        if len(verts) < 3:
            raise ParseError(f"{where}: region needs at least 3 vertices")
        flag = _require(c, "flag", where)
        if flag not in ("good", "error"):
            raise ParseError(f"{where}: flag must be 'good' or 'error'")
        cells.append({
            "vertices": verts,
            "A": matrix_from_obj(_require(c, "A", where), f"{where}.A"),
            "b": np.asarray(_require(c, "b", where), dtype=float),
            "flag": flag,
        })
    resid = _require(obj, "residual_volume", path)
    if isinstance(resid, bool) or not isinstance(resid, (int, float)):
        raise ParseError(f"{path}: residual_volume must be a number")
    return CellMap(dom, (A, b), cells, float(resid))
