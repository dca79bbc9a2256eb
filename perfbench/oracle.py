"""Reference answers computed without omegadec's own arithmetic.

Exact workloads are checked by evaluating the library's contraction at
rational points and comparing with a Fraction sum of products taken straight
from the generated coefficient dicts. Numeric workloads are checked against
plain numpy/einsum recomputations of the same quantities.
"""

from __future__ import annotations

import json
import string
from fractions import Fraction
from itertools import product

import numpy as np


# exact -----------------------------------------------------------------------

def univar_value(coeffs: dict[int, Fraction], x: Fraction) -> Fraction:
    return sum((c * x**d for d, c in coeffs.items()), Fraction(0))


def sum_of_products(terms, point) -> Fraction:
    """Value at `point` of sum_t prod_i terms[t][i](point[i]), univariate factors."""
    total = Fraction(0)
    for term in terms:
        val = Fraction(1)
        for coeffs, x in zip(term, point):
            val *= univar_value(coeffs, x)
        total += val
    return total


def poly_value(poly, point) -> Fraction:
    """Value of an exact BlockPolynomial read from its term dict, one variable per site."""
    if poly.mode != "rational":
        raise ValueError(f"expected an exact polynomial, got mode {poly.mode!r}")
    total = Fraction(0)
    for key, coeff in poly.terms.items():
        val = Fraction(coeff)
        for (e,), x in zip(key, point):
            val *= x**e
        total += val
    return total


def expand(terms) -> dict[tuple[int, ...], Fraction]:
    """Coefficient dict {per-site degrees: coefficient} of a sum of products."""
    out: dict[tuple[int, ...], Fraction] = {}
    for term in terms:
        for combo in product(*(sorted(f.items()) for f in term)):
            key = tuple(d for d, _ in combo)
            c = Fraction(1)
            for _, ci in combo:
                c *= ci
            out[key] = out.get(key, Fraction(0)) + c
    return {k: c for k, c in out.items() if c}


# numeric ---------------------------------------------------------------------

def monomial_basis(m: int, d: int) -> list[tuple[int, ...]]:
    """Exponent vectors of total degree <= d in m variables, graded lexicographic."""
    monos = [e for e in product(range(d + 1), repeat=m) if sum(e) <= d]
    return sorted(monos, key=lambda e: (sum(e), e))


def gram_polynomial(M: np.ndarray, V: int, m: int, d: int) -> dict:
    """Coefficients of mono^T M mono over V sites (site 0 outermost), as a dict."""
    basis = monomial_basis(m, d)
    rows = list(product(basis, repeat=V))
    out: dict = {}
    for r, Kr in enumerate(rows):
        for s, Ks in enumerate(rows):
            key = tuple(tuple(a + b for a, b in zip(mr, ms)) for mr, ms in zip(Kr, Ks))
            out[key] = out.get(key, 0.0) + float(M[r, s])
    return out


def coeffs_close(got: dict, want: dict, tol: float) -> bool:
    """Coefficient-wise agreement within tol * (1 + largest coefficient); NaN fails."""
    ref = max((abs(v) for v in want.values()), default=0.0)
    bound = tol * (1.0 + ref)
    for key in set(got) | set(want):
        if not abs(float(got.get(key, 0.0)) - float(want.get(key, 0.0))) <= bound:
            return False
    return True


def trace_tensor(coeffs: np.ndarray, n: int) -> np.ndarray:
    """T[j0..jn] = trace(A_j0 ... A_jn) by einsum over the bond indices."""
    bonds = string.ascii_lowercase[:n + 1]
    outs = string.ascii_uppercase[:n + 1]
    specs = [f"{bonds[i]}{bonds[(i + 1) % (n + 1)]}{outs[i]}" for i in range(n + 1)]
    return np.einsum(",".join(specs) + "->" + outs, *([coeffs] * (n + 1)))


def distance_entries(m: int) -> np.ndarray:
    idx = np.arange(m)
    return (idx[:, None] - idx[None, :]) ** 2


# CLI output ------------------------------------------------------------------

def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(data: bytes):
    """Parse one JSON document, rejecting NaN and Infinity."""
    return json.loads(data.decode("utf-8"), parse_constant=_reject_constant)
