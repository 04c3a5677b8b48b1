"""Seeded random generators for supernumbers and supermatrices.

Used by the tests only: no runtime module imports it, and the library samples
nothing.  Everything takes an explicit numpy Generator so runs are reproducible.
"""
from __future__ import annotations

import numpy as np

from .algebra import AlgebraContext, Supernumber, index_from_generators

_PARITIES = (None, "even", "odd")


def random_supernumber(
    context: AlgebraContext,
    rng: np.random.Generator,
    *,
    terms: int = 6,
    scale: float = 1.0,
    body: complex | None = None,
    max_grade: int | None = None,
    parity: str | None = None,
    soul_scale: float | None = None,
) -> Supernumber:
    """Random sparse supernumber.

    ``body`` pins the unit coefficient (None draws it at random; parity "odd"
    forces it to zero).  ``parity`` restricts soul term grades; ``soul_scale``
    rescales soul coefficients relative to ``scale``.
    """
    if parity not in _PARITIES:
        raise ValueError(f"parity must be one of {_PARITIES}")
    n = context.generators
    top = min(max_grade if max_grade is not None else min(n, 4), n)
    s = scale if soul_scale is None else soul_scale
    raw: dict[int, complex] = {}
    for _ in range(terms):
        if parity == "even":
            choices = [g for g in range(2, top + 1, 2)]
        elif parity == "odd":
            choices = [g for g in range(1, top + 1, 2)]
        else:
            choices = list(range(1, top + 1))
        if not choices:
            break
        g = int(rng.choice(choices))
        gens = tuple(sorted(rng.choice(np.arange(1, n + 1), size=g, replace=False).tolist()))
        coeff = complex(rng.normal(scale=s), rng.normal(scale=s))
        idx = index_from_generators(gens)
        raw[idx] = raw.get(idx, 0j) + coeff
    if parity != "odd":
        if body is None:
            raw[0] = complex(rng.normal(scale=scale), rng.normal(scale=scale))
        else:
            raw[0] = complex(body)
    elif body not in (None, 0):
        raise ValueError("odd supernumbers have zero body")
    return Supernumber(context, raw)


def random_soul(
    context: AlgebraContext,
    rng: np.random.Generator,
    *,
    terms: int = 4,
    scale: float = 1.0,
    max_grade: int | None = None,
    parity: str | None = None,
) -> Supernumber:
    """Random supernumber with zero body."""
    z = random_supernumber(
        context, rng, terms=terms, scale=scale, body=0.0,
        max_grade=max_grade, parity=parity,
    )
    return z.soul if parity != "odd" else z


def random_even_unit(
    context: AlgebraContext,
    rng: np.random.Generator,
    *,
    body_modulus: float = 1.0,
    soul_scale: float = 0.1,
    terms: int = 3,
) -> Supernumber:
    """Even supernumber with body on the circle of the given modulus.

    Even elements are central: the identities stated at central points, such
    as J-unitarity and the kernel identities, hold at them.
    """
    theta = rng.uniform(0.0, 2.0 * np.pi)
    body = body_modulus * complex(np.cos(theta), np.sin(theta))
    soul = random_soul(context, rng, terms=terms, scale=soul_scale, parity="even")
    return context.scalar(body) + soul


def random_supermatrix(
    context: AlgebraContext,
    rng: np.random.Generator,
    rows: int,
    cols: int,
    **kwargs,
):
    """Matrix of independent random supernumbers (see random_supernumber)."""
    from .matrix import SuperMatrix

    entries = [
        [random_supernumber(context, rng, **kwargs) for _ in range(cols)]
        for _ in range(rows)
    ]
    return SuperMatrix.from_rows(entries)


def random_superpositive_matrix(
    context: AlgebraContext,
    rng: np.random.Generator,
    size: int,
    *,
    margin: float = 0.5,
    **kwargs,
):
    """A A* + margin*size*I — superpositive with a controlled body margin."""
    from .matrix import SuperMatrix, adjoint, mat_mul

    a = random_supermatrix(context, rng, size, size, **kwargs)
    return mat_mul(a, adjoint(a)) + SuperMatrix.identity(context, size) * (margin * size)
