"""Canonical JSON formats shared by all modules and the CLI.

A supernumber is a list of term objects ``{"idx": [a1,...,at], "re": x, "im": y}``
with idx strictly increasing and 1-based (empty for the body term); writers
emit terms sorted by (grade, lexicographic idx) and readers reject unsorted or
duplicate indices.  Matrices, series, Laurent series, realizations, Toeplitz
specs and interpolation data wrap that term format.

The canonical text is ``json.dumps(obj, indent=2, sort_keys=True)`` of the object
form.  ``dump(obj, fp)`` writes it to a file as ``json.dump`` does and ``dumps(obj)``
returns it; both come from one writer, which never builds that form for a
``Supernumber``, ``SuperMatrix`` or ``SeriesMatrix``: matrices and series are rendered
from their ``keys``/``stack`` in the canonical term order, worked out once per key
array.  ``dump`` passes the text to ``fp.write`` one container item and one series
coefficient at a time, so it holds one coefficient's text, not the document.  NaN,
infinity and values of no JSON type have no canonical form: the whole value is checked
once before the first byte is written, and ``SerializationError`` leaves nothing written.
"""
from __future__ import annotations

import cmath
import functools
import math
import sys
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from .algebra import AlgebraContext, Supernumber, index_from_generators, index_to_generators, term_order
from .errors import DomainViolation, SerializationError
from .matrix import SuperMatrix
from .realization import Realization
from .series import LaurentSeries, SeriesMatrix
from .toeplitz import ToeplitzSpec


@contextmanager
def _malformed(message: str | None = None):
    """Report a missing key, or a field value of the wrong type, size or range (a
    series degree above the context's included), as SerializationError with
    ``message`` (by default the error's own text)."""
    try:
        yield
    except (KeyError, AttributeError, TypeError, ValueError, OverflowError, DomainViolation) as exc:
        raise SerializationError(message or str(exc)) from exc


def _number(x: Any, name: str, integer: bool = False):
    """A finite JSON number, or an integer: never a bool, NaN, a huge int or a truncated float."""
    if type(x) not in ((int,) if integer else (int, float)) or not abs(x) <= sys.float_info.max:
        raise SerializationError(f"{name} must be a finite {'integer' if integer else 'number'}, got {x!r}")
    return x if integer else float(x)


def dump(obj: Any, fp) -> None:
    """Write the canonical text of ``obj`` to ``fp``, as ``json.dump`` writes to a file:
    ``dumps(obj)`` in one ``fp.write`` call per container item or series coefficient."""
    _write(obj, fp.write)


def dumps(obj: Any) -> str:
    """Canonical text of ``obj``: ``json.dumps(o, indent=2, sort_keys=True) + "\\n"`` where
    ``o`` is ``obj`` with each package value replaced by its ``*_to_obj`` form."""
    pieces: list[str] = []
    _write(obj, pieces.append)
    return "".join(pieces)


def _write(obj: Any, write) -> None:
    """Pass the canonical text of ``obj`` to ``write`` in pieces: one per item of a dict, list
    or tuple, a ``Supernumber`` or ``SuperMatrix`` whole, a ``SeriesMatrix`` one coefficient at
    a time.  ``obj`` is checked whole before the first piece."""

    def check(v: Any) -> None:
        if isinstance(v, dict):
            ok = all(isinstance(k, str) for k in v)
            for x in v.values():
                check(x)
        elif isinstance(v, (list, tuple)):
            ok = True
            for x in v:
                check(x)
        elif isinstance(v, float):
            ok = math.isfinite(v)
        elif isinstance(v, Supernumber):
            ok = all(map(cmath.isfinite, v._terms.values()))
        elif isinstance(v, (SuperMatrix, SeriesMatrix)):
            ok = bool(np.isfinite(v.stack).all())
        else:
            ok = v is None or isinstance(v, (str, int))
        if not ok:
            raise SerializationError(
                f"{type(v).__name__} value has no canonical JSON form (NaN, infinity or no JSON type)")

    def seq(items: list[str], ind: str, brackets: str) -> str:
        inner = ind + "  "
        return f"{brackets[0]}{inner}{(',' + inner).join(items)}{ind}{brackets[1]}" if items else brackets

    def terms(keys: list[int], values: list[list], ind: str) -> list[str]:
        """The term lists of entries sharing one key order, each at indent ``ind``."""
        templates = [_term_template(key, ind + "  ") for key in keys]
        return [seq([f"{head}{v.imag!r}{mid}{v.real!r}{tail}" for (head, mid, tail), v in zip(templates, e) if v],
                    ind, "[]") for e in values]

    def matrix(shape: tuple[int, int], keys: list[int], values: list, ind: str) -> str:
        i1, i2, i3 = ind + "  ", ind + "    ", ind + "      "
        grid = seq([seq(terms(keys, row, i3), i2, "[]") for row in values], i1, "[]")
        return f'{{{i1}"cols": {shape[1]},{i1}"entries": {grid},{i1}"rows": {shape[0]}{ind}}}'

    def leaf(v: Any, ind: str) -> str:
        """The text of a value that is not written in pieces."""
        if isinstance(v, str):
            return encode_basestring_ascii(v)
        if v is None or isinstance(v, bool):
            return {None: "null", True: "true", False: "false"}[v]
        if isinstance(v, int):
            return int.__repr__(v)
        if isinstance(v, float):
            return float.__repr__(v)
        if isinstance(v, Supernumber):
            keys = sorted(v._terms, key=term_order)
            return terms(keys, [[v._terms[k] for k in keys]], ind)[0]
        keys, values = _ordered(v.keys, v.stack)
        return matrix(v.shape, keys, values.tolist(), ind)

    def node(v: Any, ind: str) -> None:
        inner = ind + "  "
        if isinstance(v, (dict, list, tuple)):
            brackets = "{}" if isinstance(v, dict) else "[]"
            if not v:
                write(brackets)
                return
            items = (((f"{encode_basestring_ascii(k)}: ", v[k]) for k in sorted(v)) if isinstance(v, dict)
                     else (("", x) for x in v))
            sep = brackets[0] + inner
            for prefix, x in items:
                if isinstance(x, (dict, list, tuple, SeriesMatrix)):
                    write(sep + prefix)
                    node(x, inner)
                else:
                    write(sep + prefix + leaf(x, inner))
                sep = "," + inner
            write(ind + brackets[1])
        elif isinstance(v, SeriesMatrix):
            keys, values = _ordered(v.keys, v.stack)
            sep = f'{{{inner}"coeffs": [{inner}  '
            for c in values:
                write(sep + matrix(v.shape, keys, c.tolist(), inner + "  "))
                sep = f",{inner}  "
            write(f'{inner}],{inner}"degree": {v.degree},{inner}"exact": {leaf(v.exact, inner)}{ind}}}')
        else:
            write(leaf(v, ind))

    check(obj)
    node(obj, "\n")
    write("\n")


@functools.lru_cache(maxsize=1 << 16)
def _term_template(key: int, ind: str) -> tuple[str, str, str]:
    """The fixed text of a term object at indent ``ind``: before its im value, between im
    and re, and after re."""
    fields, idx = ind + "  ", ind + "    "
    generators = f"[{idx}{(',' + idx).join(map(str, index_to_generators(key)))}{fields}]" if key else "[]"
    return f'{{{fields}"idx": {generators},{fields}"im": ', f',{fields}"re": ', f"{ind}}}"


def _ordered(keys: np.ndarray, stack: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The keys of a (keys, ..., rows, cols) stack in canonical term order, and its values as a
    (..., rows, cols, keys) array in that order: one sort per key array.  ``tolist`` of the
    array, or of one coefficient of a series, gives the entries' values."""
    keys = keys.tolist()
    perm = sorted(range(len(keys)), key=lambda s: term_order(keys[s]))
    return [keys[s] for s in perm], np.moveaxis(stack[perm], 0, -1)


def _terms_obj(keys: list[int], values: list[complex]) -> list[dict]:
    return [{"idx": list(index_to_generators(k)), "re": v.real, "im": v.imag} for k, v in zip(keys, values) if v]


def supernumber_to_obj(z: Supernumber) -> list[dict]:
    keys = sorted(z._terms, key=term_order)
    return _terms_obj(keys, [z._terms[k] for k in keys])


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
    keys, values = _ordered(m.keys, m.stack)
    return {"rows": m.rows, "cols": m.cols, "entries": [[_terms_obj(keys, e) for e in row] for row in values.tolist()]}


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
    """Nonzero coefficients by power; the zero series writes its zero one at power 0, with its shape."""
    return {
        "window": f.window,
        "coeffs": {str(n): matrix_to_obj(c) for n, c in (f.coeffs or {0: f.coefficient(0)}).items()},
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
