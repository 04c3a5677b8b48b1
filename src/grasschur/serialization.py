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
from contextlib import contextmanager
from typing import Any

from .algebra import AlgebraContext, Supernumber, grade, index_from_generators, index_to_generators
from .errors import SerializationError
from .matrix import SuperMatrix
from .realization import Realization
from .series import LaurentSeries, SeriesMatrix
from .toeplitz import ToeplitzSpec


@contextmanager
def _malformed(message: str | None = None):
    """Report a missing key, or a field value of the wrong type, size or range, as
    SerializationError with ``message`` (by default the error's own text)."""
    try:
        yield
    except (KeyError, AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise SerializationError(message or str(exc)) from exc


def _number(x: Any, name: str, integer: bool = False):
    """A finite JSON number, or an integer: never a bool, NaN, a huge int or a truncated float."""
    if type(x) not in ((int,) if integer else (int, float)) or not abs(x) <= sys.float_info.max:
        raise SerializationError(f"{name} must be a finite {'integer' if integer else 'number'}, got {x!r}")
    return x if integer else float(x)


def dumps(obj: Any) -> str:
    """Deterministic canonical rendering (sorted keys, two-space indent)."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def supernumber_to_obj(z: Supernumber) -> list[dict]:
    terms = sorted(z.terms.items(), key=lambda term: (grade(term[0]), index_to_generators(term[0])))
    return [{"idx": list(index_to_generators(key)), "re": value.real, "im": value.imag} for key, value in terms]


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
        raw[key] = complex(_number(term["re"], "re"), _number(term["im"], "im"))
    return Supernumber(context, raw)


def matrix_to_obj(m: SuperMatrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[supernumber_to_obj(e) for e in row] for row in m.entries()],
    }


def matrix_from_obj(obj: Any, context: AlgebraContext) -> SuperMatrix:
    with _malformed("a matrix needs rows, cols and entries"):
        rows, cols = _number(obj["rows"], "rows", integer=True), _number(obj["cols"], "cols", integer=True)
        entries = obj["entries"]
    if (rows < 1 or cols < 1 or not isinstance(entries, list) or len(entries) != rows
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
    with _malformed("a series needs degree and coeffs"):
        degree = _number(obj["degree"], "degree", integer=True)
        coeffs = obj["coeffs"]
    if not isinstance(coeffs, list) or len(coeffs) != degree + 1:
        raise SerializationError("coefficient count does not match the degree")
    exact = obj.get("exact", False)
    if not isinstance(exact, bool):
        raise SerializationError("exact must be true or false")
    with _malformed():
        return SeriesMatrix(tuple(matrix_from_obj(c, context) for c in coeffs), exact=exact)


def laurent_to_obj(f: LaurentSeries) -> dict:
    return {
        "window": f.window,
        "coeffs": {str(n): matrix_to_obj(c) for n, c in f.coeffs.items()},
    }


def laurent_from_obj(obj: Any, context: AlgebraContext) -> LaurentSeries:
    with _malformed("a Laurent series needs window and coeffs keyed by power"):
        window, coeffs = _number(obj["window"], "window", integer=True), obj["coeffs"]
        powers = {int(key): value for key, value in coeffs.items()}
    if [str(n) for n in powers] != list(coeffs):  # "01", "+1", "-0" or " 1", or two keys for one power
        raise SerializationError("Laurent power keys must be canonical decimal integers")
    with _malformed():
        return LaurentSeries(window, {n: matrix_from_obj(value, context) for n, value in powers.items()})


def realization_to_obj(r: Realization) -> dict:
    return {"A": matrix_to_obj(r.a), "B": matrix_to_obj(r.b),
            "C": matrix_to_obj(r.c), "D": matrix_to_obj(r.d)}


def realization_from_obj(obj: Any, context: AlgebraContext) -> Realization:
    with _malformed("a realization needs blocks A, B, C and D"):
        return Realization(
            a=matrix_from_obj(obj["A"], context),
            b=matrix_from_obj(obj["B"], context),
            c=matrix_from_obj(obj["C"], context),
            d=matrix_from_obj(obj["D"], context),
        )


def toeplitz_spec_to_obj(spec: ToeplitzSpec) -> dict:
    return {"symbols": [supernumber_to_obj(z) for z in spec.r]}


def toeplitz_spec_from_obj(obj: Any, context: AlgebraContext) -> ToeplitzSpec:
    symbols = obj.get("symbols") if isinstance(obj, dict) else None
    if not isinstance(symbols, list):
        raise SerializationError("a Toeplitz spec needs a symbols list")
    with _malformed():
        return ToeplitzSpec(tuple(supernumber_from_obj(z, context) for z in symbols))


def interpolation_data_to_obj(data) -> dict:
    return {
        "nodes": [supernumber_to_obj(z) for z in data.nodes],
        "values": [supernumber_to_obj(s) for s in data.values],
    }


def interpolation_data_from_obj(obj: Any, context: AlgebraContext):
    from .schur import InterpolationData

    with _malformed("interpolation data needs nodes and values"):
        nodes = obj["nodes"]
        values = obj["values"]
    if not isinstance(nodes, list) or not isinstance(values, list):
        raise SerializationError("interpolation nodes and values must be lists")
    nodes = tuple(supernumber_from_obj(z, context) for z in nodes)
    values = tuple(supernumber_from_obj(s, context) for s in values)
    with _malformed():
        return InterpolationData(nodes, values)


def config_to_obj(context: AlgebraContext) -> dict:
    return {
        "generators": context.generators,
        "degree": context.max_series_degree,
        "tol_body": context.tol_body,
        "tol_eq": context.tol_eq,
    }


def config_from_obj(obj: Any) -> AlgebraContext:
    """The context a config object names; a missing generator count is 8 and
    every other missing field takes its AlgebraContext default."""
    if not isinstance(obj, dict):
        raise SerializationError("config must be an object")
    fields = {"tol_body": "tol_body", "tol_eq": "tol_eq", "degree": "max_series_degree"}
    with _malformed():
        return AlgebraContext(
            generators=_number(obj.get("generators", 8), "generators", integer=True),
            **{field: _number(obj[key], key, integer=key == "degree")
               for key, field in fields.items() if key in obj},
        )
