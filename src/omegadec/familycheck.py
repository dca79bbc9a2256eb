"""Translation-invariant circle families and their bounded positivity check.

The family is given by a square array of local polynomials in canonical
squared-variable form, encoded as an integer coefficient array indexed by
(bond in, bond out, variable). Closing the bonds in a circle of length n+1
makes the coefficient tensor a trace of transfer-matrix products, so the
global polynomial is nonnegative (equivalently a sum of squares) exactly when
all those traces are nonnegative. The check is performed for each size up to a
bound; the question for all sizes at once is out of reach of any algorithm and
the report says so explicitly.
"""

from __future__ import annotations

from itertools import repeat
from operator import mul
from typing import TYPE_CHECKING, Iterator

from .errors import DEFAULT_MAX_WORK, SizeTooLarge, _integer, _object, product_within

if TYPE_CHECKING:
    from .blockpoly import BlockPolynomial
    from .tensorbridge import DenseTensor

UNDECIDED_DISCLAIMER = (
    "Bounded check only: no algorithm can decide nonnegativity or the "
    "sum-of-squares property of this family for all sizes; results beyond "
    "the checked range are not implied."
)


class LocalFamily:
    """Integer coefficient array p[a][b][j] of the local polynomials. It is
    immutable, and equal to and hashed like a family of the same D, m and
    coefficients."""

    __slots__ = ("D", "m", "coeffs")

    def __init__(self, D: int, m: int, coeffs):
        D, m = _integer(D, "D"), _integer(m, "m")
        rows = tuple(tuple(tuple(_integer(x, "family coefficient") for x in cell) for cell in row)
                     for row in coeffs)
        if len(rows) != D or any(len(row) != D for row in rows):
            raise ValueError(f"coefficients must form a {D}x{D} grid")
        if m < 1:
            raise ValueError("m must be >= 1")
        if any(len(cell) != m for row in rows for cell in row):
            raise ValueError(f"every cell needs {m} coefficients")
        for name, value in (("D", D), ("m", m), ("coeffs", rows)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.D, self.m, self.coeffs) == (other.D, other.m, other.coeffs)

    def __hash__(self):
        return hash((self.D, self.m, self.coeffs))

    def __repr__(self):
        return f"LocalFamily(D={self.D!r}, m={self.m!r})"

    def transfer_matrix(self, j: int) -> tuple[tuple[int, ...], ...]:
        """D x D integer matrix of the coefficients of the j-th squared variable."""
        return tuple(tuple(self.coeffs[a][b][j] for b in range(self.D))
                     for a in range(self.D))

    def scaled(self, factor: int) -> "LocalFamily":
        if factor < 1:
            raise ValueError("scaling factor must be positive")
        return LocalFamily(self.D, self.m, tuple(
            tuple(tuple(factor * x for x in cell) for cell in row)
            for row in self.coeffs))

    def to_obj(self) -> dict:
        return {"D": self.D, "m": self.m,
                "coeffs": [[list(cell) for cell in row] for row in self.coeffs]}

    @classmethod
    def from_obj(cls, obj: dict) -> "LocalFamily":
        obj = _object(obj, "family")
        return cls(obj["D"], obj["m"], obj["coeffs"])


def _necklaces(f: LocalFamily, n_min: int, n_max: int) -> Iterator[tuple[list[int], int, int]]:
    """Yield (index, n, trace of the product of the matrices index[:n + 1]) for
    every necklace of every size n in [n_min, n_max], each size's in
    lexicographic order.

    Rotating an index rotates the product inside the trace, so only the indices
    that are their own smallest rotation count. One iterative FKM walk (Ruskey,
    Savage and Wang, "Generating necklaces", J. Algorithms 1992) visits the
    prenecklaces of length n_max + 1 in lexicographic order, and every prefix of
    a prenecklace is one. A step that raises index[p - 1] leaves the shorter
    prefixes as they were and makes each prefix of length k >= p new, with
    longest Lyndon prefix p, so a necklace exactly when p divides k: each
    necklace of each length is reached once. Prefix products are shared, and
    built only when a necklace needs them. ``index`` is one list updated in place.
    """
    D, m, N = f.D, f.m, n_max + 1
    # trace(P M) over flat row-major P pairs P[a][b] with M[b][a]: M's columns in turn
    cols = [tuple(zip(*f.transfer_matrix(j))) for j in range(m)]
    flat_cols = [tuple(x for col in c for x in col) for c in cols]
    rows = range(0, D * D, D)
    index = [0] * N
    # heads[d] is the flat product of the matrices index[:d]; heads[:fresh + 1] are current
    heads = [tuple(int(r == c) for r in range(D) for c in range(D))] * N
    fresh = 0
    p = 1                   # length of the longest Lyndon prefix of index
    while True:
        first = -(-(n_min + 1) // p) * p      # the shortest new necklace of a size wanted
        if first <= N:
            last = N - N % p
            for d in range(fresh, last - 1):
                head, col = heads[d], cols[index[d]]
                heads[d + 1] = tuple([sum(map(mul, head[r:r + D], c)) for r in rows for c in col])
            fresh = last - 1
            for k in range(first, last + 1, p):
                yield index, k - 1, sum(map(mul, heads[k - 1], flat_cols[index[k - 1]]))
        p = N
        while p and index[p - 1] == m - 1:
            p -= 1
        if not p:
            return
        index[p - 1] += 1
        for j in range(p, N):
            index[j] = index[j - p]
        fresh = min(fresh, p - 1)


def _check_size(f: LocalFamily, n: int, max_tuples: int) -> None:
    """The guard counts every index of size n, evaluated or not: m**(n+1), multiplied
    up only until it passes max_tuples."""
    if n < 0:
        raise ValueError("n must be >= 0")
    # m = 1 gives one tuple at every n
    if product_within(repeat(f.m, n + 1 if f.m > 1 else 1), max_tuples) is None:
        raise SizeTooLarge(f"{f.m}**{n + 1} tuples exceed {max_tuples}")


def transfer_tensor(f: LocalFamily, n: int) -> DenseTensor:
    """Coefficient tensor on n+1 sites: traces of transfer-matrix products,
    each necklace's trace written at all its rotations."""
    from .tensorbridge import DenseTensor     # the bounded check itself needs no numpy
    _check_size(f, n, DEFAULT_MAX_WORK)       # before the entries are allocated
    m, N = f.m, n + 1
    entries = [0] * m ** N
    for index, _, trace in _necklaces(f, n, n):
        for k in range(N):
            pos = 0
            for i in index[k:] + index[:k]:
                pos = pos * m + i
            entries[pos] = trace
    return DenseTensor((m,) * N, entries)


def family_polynomial(f: LocalFamily, n: int) -> BlockPolynomial:
    """The circle polynomial on n+1 sites; invariant under the cyclic shift."""
    from .tensorbridge import poly_from_tensor
    return poly_from_tensor(transfer_tensor(f, n))


class SizeReport:
    __slots__ = ("n", "min_entry", "witness", "violated")

    def __init__(self, n: int, min_entry: int, witness: tuple[int, ...], violated: bool):
        self.n, self.min_entry, self.witness, self.violated = n, min_entry, witness, violated

    def to_obj(self) -> dict:
        return {"n": self.n, "min_entry": str(self.min_entry),
                "witness": list(self.witness), "violated": self.violated}


class FamilyReport:
    __slots__ = ("n_min", "n_max", "sizes", "first_violation")
    disclaimer = UNDECIDED_DISCLAIMER

    def __init__(self, n_min: int, n_max: int, sizes: list[SizeReport],
                 first_violation: int | None):
        self.n_min, self.n_max, self.sizes = n_min, n_max, sizes
        self.first_violation = first_violation

    @property
    def violation_found(self) -> bool:
        return self.first_violation is not None

    def to_obj(self) -> dict:
        return {
            "n_min": self.n_min,
            "n_max": self.n_max,
            "sizes": [s.to_obj() for s in self.sizes],
            "first_violation": self.first_violation,
            "violation_found": self.violation_found,
            "disclaimer": self.disclaimer,
        }


def bounded_positivity_check(f: LocalFamily, n_max: int, n_min: int = 1,
                             max_tuples: int = DEFAULT_MAX_WORK) -> FamilyReport:
    """Check every size in [n_min, n_max] for a negative coefficient entry.

    A negative entry at size n certifies that the circle polynomial on n+1
    sites is neither nonnegative nor a sum of squares; absence of violations
    says nothing beyond the checked range (see the report disclaimer).
    """
    if n_min < 0 or n_max < n_min:
        raise ValueError("need 0 <= n_min <= n_max")
    for n in range(n_min, n_max + 1):
        _check_size(f, n, max_tuples)
    # the first necklace in lexicographic order that attains a size's minimum is
    # the first of all its indices that does, since its smallest rotation does too
    low, witness = [None] * (n_max + 1), [None] * (n_max + 1)
    for index, n, trace in _necklaces(f, n_min, n_max):
        if low[n] is None or trace < low[n]:
            low[n], witness[n] = trace, tuple(index[:n + 1])
    sizes = [SizeReport(n, low[n], witness[n], low[n] < 0) for n in range(n_min, n_max + 1)]
    first = next((s.n for s in sizes if s.violated), None)
    return FamilyReport(n_min, n_max, sizes, first)
