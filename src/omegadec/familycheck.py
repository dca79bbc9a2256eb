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

from dataclasses import dataclass, field
from operator import mul
from typing import TYPE_CHECKING, Iterator

from .blockpoly import BlockPolynomial
from .complexes import _integer
from .decomposition import DEFAULT_MAX_WORK
from .errors import SizeTooLarge

if TYPE_CHECKING:
    from .tensorbridge import DenseTensor

UNDECIDED_DISCLAIMER = (
    "Bounded check only: no algorithm can decide nonnegativity or the "
    "sum-of-squares property of this family for all sizes; results beyond "
    "the checked range are not implied."
)


@dataclass(frozen=True)
class LocalFamily:
    """Integer coefficient array p[a][b][j] of the local polynomials."""

    D: int
    m: int
    coeffs: tuple = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "D", _integer(self.D, "D"))
        object.__setattr__(self, "m", _integer(self.m, "m"))
        rows = tuple(tuple(tuple(_integer(x, "family coefficient") for x in cell) for cell in row)
                     for row in self.coeffs)
        if len(rows) != self.D or any(len(row) != self.D for row in rows):
            raise ValueError(f"coefficients must form a {self.D}x{self.D} grid")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if any(len(cell) != self.m for row in rows for cell in row):
            raise ValueError(f"every cell needs {self.m} coefficients")
        object.__setattr__(self, "coeffs", rows)

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
        return cls(obj["D"], obj["m"], obj["coeffs"])


def _trace_walk(f: LocalFamily, n: int, max_tuples: int
                ) -> Iterator[tuple[list[int], int]]:
    """Yield (index, trace of the matrix product it names) in lexicographic order.

    Each prefix product is computed once and shared by the indices extending it.
    ``index`` is one list updated in place: copy it to keep it.
    """
    _check_size(f, n, max_tuples)
    D, m = f.D, f.m
    # columns of each matrix: trace(P M) pairs row a of P with column a of M
    cols = [tuple(zip(*f.transfer_matrix(j))) for j in range(m)]
    index = [0] * (n + 1)
    # prefixes still to extend: (length, last index value, product of the matrices)
    stack = [(0, 0, tuple(tuple(int(a == b) for b in range(D)) for a in range(D)))]
    while stack:
        depth, j, head = stack.pop()
        if depth:
            index[depth - 1] = j
        if depth < n:
            stack += [(depth + 1, k, _mat_mul(head, cols[k])) for k in reversed(range(m))]
            continue
        for k in range(m):
            index[n] = k
            yield index, sum(sum(map(mul, row, col)) for row, col in zip(head, cols[k]))


def _check_size(f: LocalFamily, n: int, max_tuples: int) -> None:
    """The guard counts every index of size n, evaluated or not."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if f.m ** (n + 1) > max_tuples:
        raise SizeTooLarge(f"{f.m}**{n + 1} tuples exceed {max_tuples}")


def _mat_mul(A, B_cols):
    return tuple(tuple(sum(map(mul, row, col)) for col in B_cols) for row in A)


def transfer_tensor(f: LocalFamily, n: int) -> DenseTensor:
    """Coefficient tensor on n+1 sites: traces of transfer-matrix products."""
    from .tensorbridge import DenseTensor     # the bounded check itself needs no numpy
    return DenseTensor((f.m,) * (n + 1),
                       [trace for _, trace in _trace_walk(f, n, DEFAULT_MAX_WORK)])


def family_polynomial(f: LocalFamily, n: int) -> BlockPolynomial:
    """The circle polynomial on n+1 sites; invariant under the cyclic shift."""
    from .tensorbridge import poly_from_tensor
    return poly_from_tensor(transfer_tensor(f, n))


@dataclass
class SizeReport:
    n: int
    min_entry: int
    witness: tuple[int, ...]
    violated: bool

    def to_obj(self) -> dict:
        return {"n": self.n, "min_entry": str(self.min_entry),
                "witness": list(self.witness), "violated": self.violated}


@dataclass
class FamilyReport:
    n_min: int
    n_max: int
    sizes: list[SizeReport]
    first_violation: int | None
    disclaimer: str = UNDECIDED_DISCLAIMER

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


def _min_trace(f: LocalFamily, n: int, max_tuples: int) -> tuple[int, tuple[int, ...]]:
    """Exact minimum entry and the first index that attains it.

    Rotating an index rotates the product inside the trace, so only necklaces
    are evaluated: the indices that are their own smallest rotation, in
    lexicographic order by iterative FKM (Ruskey, Savage and Wang, "Generating
    necklaces", J. Algorithms 1992). The first index attaining the minimum is
    one of them, since its smallest rotation attains it too. Prefix products
    are shared as in ``_trace_walk``, and built only when a necklace needs them.
    """
    _check_size(f, n, max_tuples)
    D, m, N = f.D, f.m, n + 1
    cols = [tuple(zip(*f.transfer_matrix(j))) for j in range(m)]
    a = [-1] + [0] * N      # the index is a[1:]; a[0] stops the scan for a digit to raise
    # heads[d] is the product of the matrices a[1..d]; heads[:fresh + 1] are current
    heads = [tuple(tuple(int(r == c) for c in range(D)) for r in range(D))] * N
    fresh = 0
    best = witness = None
    p = 1                   # length of the longest Lyndon prefix of a[1:]
    while True:
        if N % p == 0:
            for d in range(fresh, N - 1):
                heads[d + 1] = _mat_mul(heads[d], cols[a[d + 1]])
            fresh = N - 1
            trace = sum(sum(map(mul, row, col)) for row, col in zip(heads[N - 1], cols[a[N]]))
            if best is None or trace < best:
                best, witness = trace, tuple(a[1:])
        p = N
        while a[p] == m - 1:
            p -= 1
        if p == 0:
            return best, witness
        a[p] += 1
        for j in range(p + 1, N + 1):
            a[j] = a[j - p]
        fresh = min(fresh, p - 1)


def bounded_positivity_check(f: LocalFamily, n_max: int, n_min: int = 1,
                             max_tuples: int = DEFAULT_MAX_WORK) -> FamilyReport:
    """Check every size in [n_min, n_max] for a negative coefficient entry.

    A negative entry at size n certifies that the circle polynomial on n+1
    sites is neither nonnegative nor a sum of squares; absence of violations
    says nothing beyond the checked range (see the report disclaimer).
    """
    if n_min < 0 or n_max < n_min:
        raise ValueError("need 0 <= n_min <= n_max")
    sizes = []
    first = None
    for n in range(n_min, n_max + 1):
        lo, witness = _min_trace(f, n, max_tuples)
        violated = lo < 0
        sizes.append(SizeReport(n, lo, witness, violated))
        if violated and first is None:
            first = n
    return FamilyReport(n_min, n_max, sizes, first)
