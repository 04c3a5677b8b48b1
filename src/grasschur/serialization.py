"""Canonical JSON formats shared by all modules and the CLI.

A supernumber is a list of term objects ``{"idx": [a1,...,at], "re": x, "im": y}``
with idx strictly increasing and 1-based (empty for the body term); writers
emit terms sorted by (grade, lexicographic idx) and readers reject unsorted or
duplicate indices.  Matrices, series, Laurent series, realizations, Toeplitz
specs and interpolation data wrap that term format.
"""
from __future__ import annotations

import json
import sys
from typing import Any

from .algebra import AlgebraContext, Supernumber, grade, index_from_generators, index_to_generators
from .errors import SerializationError
from .matrix import SuperMatrix
from .realization import Realization
from .series import LaurentSeries, SeriesMatrix
from .toeplitz import ToeplitzSpec


def dumps(obj: Any) -> str:
    """Deterministic canonical rendering (sorted keys, two-space indent)."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def supernumber_to_obj(z: Supernumber) -> list[dict]:
    terms = []
    for key in sorted(z.terms, key=lambda k: (grade(k), index_to_generators(k))):
        value = z.terms[key]
        terms.append({"idx": list(index_to_generators(key)), "re": value.real, "im": value.imag})
    return terms


def supernumber_from_obj(obj: Any, context: AlgebraContext) -> Supernumber:
    if not isinstance(obj, list):
        raise SerializationError("a supernumber must be a list of terms")
    raw: dict[int, complex] = {}
    for term in obj:
        if not isinstance(term, dict) or not {"idx", "re", "im"} <= set(term):
            raise SerializationError("each term needs idx, re and im")
        idx = term["idx"]
        if not isinstance(idx, list) or any(not isinstance(g, int) for g in idx):
            raise SerializationError("idx must be a list of integers")
        if any(b >= a for a, b in zip(idx[1:], idx)):
            raise SerializationError(f"idx {idx} is not strictly increasing")
        if idx and (idx[0] < 1 or idx[-1] > context.generators):
            raise SerializationError(f"idx {idx} outside 1..{context.generators}")
        key = index_from_generators(idx)
        if key in raw:
            raise SerializationError(f"duplicate term at idx {idx}")
        parts = (term["re"], term["im"])
        # bool is not a JSON number; NaN fails the comparison; huge ints overflow float
        if any(type(x) not in (int, float) or not abs(x) <= sys.float_info.max for x in parts):
            raise SerializationError(f"re and im at idx {idx} must be finite numbers")
        raw[key] = complex(float(parts[0]), float(parts[1]))
    return Supernumber(context, raw)


def matrix_to_obj(m: SuperMatrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[supernumber_to_obj(e) for e in row] for row in m.entries()],
    }


def matrix_from_obj(obj: Any, context: AlgebraContext) -> SuperMatrix:
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        entries = obj["entries"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SerializationError("a matrix needs rows, cols and entries") from exc
    if (not isinstance(entries, list) or len(entries) != rows
            or any(not isinstance(r, list) or len(r) != cols for r in entries)):
        raise SerializationError("entry grid does not match the declared shape")
    return SuperMatrix.from_rows(
        [[supernumber_from_obj(e, context) for e in row] for row in entries]
    )


def series_to_obj(f: SeriesMatrix) -> dict:
    return {
        "degree": f.degree,
        "exact": f.exact,
        "coeffs": [matrix_to_obj(c) for c in f.coeffs],
    }


def series_from_obj(obj: Any, context: AlgebraContext) -> SeriesMatrix:
    try:
        degree = int(obj["degree"])
        coeffs = obj["coeffs"]
    except (KeyError, TypeError) as exc:
        raise SerializationError("a series needs degree and coeffs") from exc
    if len(coeffs) != degree + 1:
        raise SerializationError("coefficient count does not match the degree")
    exact = bool(obj.get("exact", False))
    try:
        return SeriesMatrix(tuple(matrix_from_obj(c, context) for c in coeffs), exact=exact)
    except ValueError as exc:
        raise SerializationError(str(exc)) from exc


def laurent_to_obj(f: LaurentSeries) -> dict:
    return {
        "window": f.window,
        "coeffs": {str(n): matrix_to_obj(c) for n, c in f.coeffs.items()},
    }


def laurent_from_obj(obj: Any, context: AlgebraContext) -> LaurentSeries:
    try:
        window = int(obj["window"])
        coeffs = obj["coeffs"]
    except (KeyError, TypeError) as exc:
        raise SerializationError("a Laurent series needs window and coeffs") from exc
    parsed = {}
    for key, value in coeffs.items():
        try:
            n = int(key)
        except ValueError as exc:
            raise SerializationError(f"bad power {key!r}") from exc
        parsed[n] = matrix_from_obj(value, context)
    try:
        return LaurentSeries(window, parsed)
    except ValueError as exc:
        raise SerializationError(str(exc)) from exc


def realization_to_obj(r: Realization) -> dict:
    return {"A": matrix_to_obj(r.a), "B": matrix_to_obj(r.b),
            "C": matrix_to_obj(r.c), "D": matrix_to_obj(r.d)}


def realization_from_obj(obj: Any, context: AlgebraContext) -> Realization:
    try:
        return Realization(
            a=matrix_from_obj(obj["A"], context),
            b=matrix_from_obj(obj["B"], context),
            c=matrix_from_obj(obj["C"], context),
            d=matrix_from_obj(obj["D"], context),
        )
    except KeyError as exc:
        raise SerializationError("a realization needs blocks A, B, C and D") from exc


def toeplitz_spec_to_obj(spec: ToeplitzSpec) -> dict:
    return {"symbols": [supernumber_to_obj(z) for z in spec.r]}


def toeplitz_spec_from_obj(obj: Any, context: AlgebraContext) -> ToeplitzSpec:
    try:
        symbols = obj["symbols"]
    except (KeyError, TypeError) as exc:
        raise SerializationError("a Toeplitz spec needs a symbols list") from exc
    try:
        return ToeplitzSpec(tuple(supernumber_from_obj(z, context) for z in symbols))
    except ValueError as exc:
        raise SerializationError(str(exc)) from exc


def interpolation_data_to_obj(data) -> dict:
    return {
        "nodes": [supernumber_to_obj(z) for z in data.nodes],
        "values": [supernumber_to_obj(s) for s in data.values],
    }


def interpolation_data_from_obj(obj: Any, context: AlgebraContext):
    from .schur import InterpolationData

    try:
        nodes = obj["nodes"]
        values = obj["values"]
    except (KeyError, TypeError) as exc:
        raise SerializationError("interpolation data needs nodes and values") from exc
    if not isinstance(nodes, list) or not isinstance(values, list):
        raise SerializationError("interpolation nodes and values must be lists")
    nodes = tuple(supernumber_from_obj(z, context) for z in nodes)
    values = tuple(supernumber_from_obj(s, context) for s in values)
    try:
        return InterpolationData(nodes, values)
    except ValueError as exc:
        raise SerializationError(str(exc)) from exc


def config_to_obj(context: AlgebraContext) -> dict:
    return {
        "generators": context.generators,
        "degree": context.max_series_degree,
        "tol_body": context.tol_body,
        "tol_eq": context.tol_eq,
    }


def config_from_obj(obj: Any) -> AlgebraContext:
    if not isinstance(obj, dict):
        raise SerializationError("config must be an object")
    try:
        return AlgebraContext(
            generators=int(obj.get("generators", 8)),
            tol_body=float(obj.get("tol_body", 1e-10)),
            tol_eq=float(obj.get("tol_eq", 1e-9)),
            max_series_degree=int(obj.get("degree", 32)),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise SerializationError(str(exc)) from exc
