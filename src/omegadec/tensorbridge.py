"""Correspondence between tensors and squared-variable polynomials.

A tensor with equal axis dimensions embeds as the polynomial whose monomials
are products of squared single variables, one per site, with the tensor
entries as coefficients. Entrywise nonnegativity of the tensor then coincides
with both nonnegativity and the sum-of-squares property of the polynomial,
and tensor decompositions (plain, entrywise nonnegative, positive
semidefinite) match polynomial decompositions (plain, separable, sos) rank
for rank. Two stock families realize the known rank separations: squared
distance matrices and polygon slack matrices.

The functions that use numpy or the positivity layer import it themselves.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING, Iterable, Sequence

from .blockpoly import FLOAT, RATIONAL, BlockPolynomial, _coerce_coeff
from .complexes import WeightedComplex, standard_complex
from .decomposition import (
    DEFAULT_MAX_WORK,
    OmegaGDecomposition,
    bipartite_rank,
    checked_action,
    checked_assignment,
    checked_sizes,
    pair_assignment,
)
from .errors import (
    DimensionMismatch,
    NotCanonicalForm,
    NotInvariant,
    NotPSD,
    SizeTooLarge,
    VertexActionNotFree,
    _integer,
    _object,
    _tolerance,
    product_within,
)
from .radpoly import RadPoly
from .symmetry import SymmetryAction

if TYPE_CHECKING:
    import numpy as np

PLAIN = "plain"
NONNEGATIVE = "nonnegative"
PSD = "psd"


def _dense_size(dims: Sequence[int]) -> int:
    """The entry count of a dense tensor of these dims, multiplied up only until
    it passes DEFAULT_MAX_WORK: more entries than that is a SizeTooLarge. A zero
    dim holds no entry, and a negative one is left to the tensor to reject."""
    if not all(d > 0 for d in dims):
        return 0
    size = product_within(dims, DEFAULT_MAX_WORK)
    if size is None:
        raise SizeTooLarge(f"dims {list(dims)} hold more than {DEFAULT_MAX_WORK} entries")
    return size


class DenseTensor:
    """Dense tensor with exact or float entries, flat in row-major order. The
    constructor and ``__setitem__`` read every entry, so consumers trust them."""

    def __init__(self, dims: Sequence[int], entries: Sequence, mode: str = RATIONAL):
        if mode not in (RATIONAL, FLOAT):
            raise ValueError(f"unknown mode {mode!r}")
        self.dims = tuple(_integer(d, "tensor dimension") for d in dims)
        if any(d < 0 for d in self.dims):
            raise ValueError(f"negative tensor dimension in {self.dims}")
        flat = list(entries)
        # the product of the dims, multiplied up only until it passes len(flat)
        size = 0 if 0 in self.dims else product_within(self.dims, len(flat))
        if size != len(flat):
            raise DimensionMismatch(f"dims {list(self.dims)} do not hold {len(flat)} entries")
        self.mode = mode
        self.entries = [_coerce_coeff(x, mode, "float tensor entries") for x in flat]

    @classmethod
    def zeros(cls, dims: Sequence[int], mode: str = RATIONAL) -> "DenseTensor":
        return cls(dims, [0] * _dense_size(dims), mode)

    @property
    def order(self) -> int:
        return len(self.dims)

    def _flat(self, idx: Sequence[int] | int) -> int:
        if isinstance(idx, int):
            idx = (idx,)
        pos = 0
        for i, d in zip(idx, self.dims):
            if not 0 <= i < d:
                raise IndexError(f"index {tuple(idx)} out of range for {self.dims}")
            pos = pos * d + i
        return pos

    def __getitem__(self, idx) -> object:
        return self.entries[self._flat(idx)]

    def __setitem__(self, idx, value) -> None:
        self.entries[self._flat(idx)] = _coerce_coeff(value, self.mode, "float tensor entries")

    def indices(self) -> Iterable[tuple[int, ...]]:
        return product(*(range(d) for d in self.dims))

    def min_entry(self) -> tuple[object, tuple[int, ...]]:
        """The smallest entry and the first index in row-major order that holds it.

        A tensor with a zero dimension has no entry, which is a ValueError.
        """
        if not self.entries:
            raise ValueError("tensor has no entries")
        best = arg = None
        for idx, v in zip(self.indices(), self.entries):
            if best is None or v < best:
                best, arg = v, idx
        return best, arg

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseTensor):
            return NotImplemented
        return self.dims == other.dims and all(
            a == b for a, b in zip(self.entries, other.entries))

    def allclose(self, other: "DenseTensor", tol: float = 1e-9) -> bool:
        _tolerance(tol)
        if self.dims != other.dims:
            return False
        ref = max((abs(float(x)) for x in self.entries), default=0.0)
        return all(abs(float(a) - float(b)) <= tol * (1.0 + ref)
                   for a, b in zip(self.entries, other.entries))

    def to_numpy(self) -> np.ndarray:
        import numpy as np
        return np.array([float(x) for x in self.entries]).reshape(self.dims)

    def to_obj(self) -> dict:
        entries = [float(x) if self.mode == FLOAT else str(Fraction(x))
                   for x in self.entries]
        return {"dims": list(self.dims), "mode": self.mode, "entries": entries}

    @classmethod
    def from_obj(cls, obj: dict) -> "DenseTensor":
        obj = _object(obj, "tensor")
        t = cls(obj["dims"], obj["entries"], obj.get("mode", RATIONAL))
        if 0 in t.dims:     # the constructor allows it, but a file has no entry to report
            raise ValueError(f"tensor dimensions must be >= 1, got {list(t.dims)}")
        return t


def poly_from_tensor(t: DenseTensor) -> BlockPolynomial:
    """Embed a tensor as a polynomial in squared single variables: its nonzero
    entries, already read by the tensor, become the terms in row-major order."""
    dims = set(t.dims)
    if len(dims) != 1:
        raise DimensionMismatch("axis dimensions must agree")
    return _squares_poly(dims.pop(), t.order, t.entries, t.mode)


def _squares_poly(m: int, order: int, entries: Sequence, mode: str) -> BlockPolynomial:
    """The embedding of `order` axes of dimension m holding these read entries."""
    squares = [tuple(2 if j == i else 0 for j in range(m)) for i in range(m)]
    terms = {tuple(squares[i] for i in idx): v
             for idx, v in zip(product(range(m), repeat=order), entries) if v}
    return BlockPolynomial._trusted((m,) * order, terms, mode)


def tensor_from_poly(p: BlockPolynomial) -> DenseTensor:
    """Inverse embedding; requires every term to be a product of squared variables."""
    dims = set(p.sites)
    if len(dims) != 1:
        raise DimensionMismatch("all sites must have the same width")
    m = dims.pop()
    entries = [0] * _dense_size(p.sites)
    for key, coeff in p.terms.items():
        pos = 0         # row-major
        for block in key:
            nz = [(j, e) for j, e in enumerate(block) if e]
            if len(nz) != 1 or nz[0][1] != 2:
                raise NotCanonicalForm(f"term block {block} is not a squared variable")
            pos = pos * m + nz[0][0]
        entries[pos] = coeff
    return DenseTensor(p.sites, entries, p.mode)


def tensor_positivity(t: DenseTensor) -> dict:
    """Entrywise nonnegativity, which settles both positivity notions of the
    embedded polynomial, with a witness entry when it fails."""
    lo, arg = t.min_entry()
    ok = lo >= 0
    return {"nonneg_entrywise": bool(ok), "min_entry": lo,
            "witness": None if ok else arg}


class TensorDecomposition:
    """Invariant decompositions of tensors: plain, nonnegative, or psd.

    Each runs through its squared-variable polynomial counterpart ``poly``,
    built once here: plain and nonnegative vectors become its locals, and a
    psd decomposition of index r is the plain one of index r**2 whose local at
    the index pairs ``pair_assignment(b1, b2, r)`` of site i has entry j equal
    to matrix (i, j) at (b1, b2). A psd decomposition reads only ``psd_mats``
    and the others only ``vectors``; the unread one must be empty.
    """

    def __init__(self, variant: str, complex_: WeightedComplex,
                 action: SymmetryAction | None, index_size: int, axis_dim: int,
                 vectors: dict | None = None, psd_mats: dict | None = None):
        if variant not in (PLAIN, NONNEGATIVE, PSD):
            raise ValueError(f"unknown variant {variant!r}")
        unread, data = ("vectors", vectors) if variant == PSD else ("psd_mats", psd_mats)
        if data:
            raise ValueError(f"a {variant} decomposition does not read {unread}")
        self.variant = variant
        self.complex = complex_
        self.axis_dim = m = _integer(axis_dim, "axis_dim")
        self.index_size, _ = checked_sizes(complex_, index_size, (m,) * complex_.vertex_count)
        mats = {}
        for (site, j), mat in (psd_mats or {}).items():
            site, j = _integer(site, "site"), _integer(j, "psd matrix key")
            if not 0 <= j < m:
                raise DimensionMismatch(f"psd matrix key {j} outside 0..{m - 1}")
            # a pair number in range does not put both halves in range
            mats[(site, j)] = {(checked_assignment(complex_, site, b1, self.index_size),
                                checked_assignment(complex_, site, b2, self.index_size)): v
                               for (b1, b2), v in mat.items() if v != 0}
        raw = {}
        for (site, beta), vec in (vectors or {}).items():
            site = _integer(site, "site")
            raw[(site, checked_assignment(complex_, site, beta, self.index_size))] = tuple(vec)
        # a zero vector stores no local, so its float zeros neither set the mode
        # nor are read as exact rationals; its key is still checked
        groups = [*raw.values(), *map(dict.values, mats.values())]
        mode = FLOAT if any(isinstance(x, float) for g in groups if any(g) for x in g) else RATIONAL

        def read(x):
            return _coerce_coeff(x, FLOAT if isinstance(x, float) else mode, "float tensor entries")
        self.vectors = {key: tuple(map(read, vec)) for key, vec in raw.items()}
        self.psd_mats = {key: {pair: read(v) for pair, v in mat.items()}
                         for key, mat in mats.items()}
        if variant == NONNEGATIVE and any(x < 0 for vec in self.vectors.values() for x in vec):
            raise NotCanonicalForm("nonnegative variant needs entrywise >= 0 vectors")
        keyed = dict(self.vectors)      # (site, assignment) -> vector of the counterpart's local
        for (site, j), mat in self.psd_mats.items():
            for (b1, b2), v in mat.items():
                keyed.setdefault((site, pair_assignment(b1, b2, self.index_size)), [0] * m)[j] = v
        locals_: dict[int, dict] = {}
        for (site, beta), vec in keyed.items():
            if len(vec) != m:
                raise DimensionMismatch(f"expected {m} entries, got {len(vec)}")
            locals_.setdefault(site, {})[beta] = RadPoly.from_poly(_squares_poly(m, 1, vec, mode))
        index = self.index_size ** 2 if variant == PSD else self.index_size
        self.poly = OmegaGDecomposition(complex_, checked_action(complex_, action), index,
                                        (m,) * complex_.vertex_count, locals_, _trusted=True)
        self.action = self.poly.action

    def contract(self, max_work: int = DEFAULT_MAX_WORK) -> DenseTensor:
        """The tensor of the polynomial contraction; for psd, ``max_work`` counts
        steps over index pairs."""
        return tensor_from_poly(self.poly.contract(max_work).collapse())

    def check_symmetry(self, tol: float = 1e-9) -> bool:
        return self.poly.check_symmetry(tol)

    def psd_matrix(self, site: int, j: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
        """The sorted assignments matrix (site, j) touches, and the matrix on them."""
        import numpy as np
        mat = self.psd_mats.get((site, j), {})
        support = sorted({b for pair in mat for b in pair})
        pos = {b: i for i, b in enumerate(support)}
        out = np.zeros((len(support), len(support)))
        for (b1, b2), v in mat.items():
            out[pos[b1], pos[b2]] = float(v)
        return support, out

    def check_psd(self, tol: float = 1e-9) -> bool:
        """Every matrix is PSD on its support; zero rows and columns add only
        zero eigenvalues, and an empty matrix is PSD. The matrices of one
        support size are checked as one stack, and the first matrix in
        `psd_mats` order that fails decides: a trace or eigenvalue past the
        float range raises, and an asymmetric or non-PSD matrix gives False."""
        _tolerance(tol)
        import numpy as np
        from .positivity import PSD_OUT_OF_RANGE, psd_floors, symmetric_within
        by_size: dict[int, list] = {}
        for pos, key in enumerate(self.psd_mats):
            support, mat = self.psd_matrix(*key)
            if support:
                by_size.setdefault(len(support), []).append((pos, mat))
        fails = []      # (position, out of range) of each group's first failing matrix
        for group in by_size.values():
            mats = np.array([mat for _, mat in group])
            lo, bound, in_range = psd_floors(0.5 * mats + 0.5 * mats.swapaxes(1, 2), tol)
            failed = np.flatnonzero(~in_range | ~symmetric_within(mats, tol) | (lo < bound))
            if len(failed):
                fails.append((group[failed[0]][0], not in_range[failed[0]]))
        if fails and min(fails)[1]:
            raise ValueError(PSD_OUT_OF_RANGE)
        return not fails


def tensor_dec_to_poly_dec(td: TensorDecomposition):
    """Polynomial-side counterpart with the same index set.

    Plain and nonnegative variants return their squared-variable counterpart.
    The psd variant produces an sos family decomposition by splitting each
    matrix symmetrically on its support, which forces equal factors along
    vertex orbits and therefore needs an invariant decomposition under a free
    vertex action.
    """
    if td.variant in (PLAIN, NONNEGATIVE):
        return td.poly
    from .positivity import SosOmegaGDecomposition, psd_sqrt
    m = td.axis_dim
    V = td.complex.vertex_count
    a = td.action
    for g in range(1, len(a)):
        if any(a.vertex_image(g, i) == i for i in range(V)):
            raise VertexActionNotFree("symmetric factor split needs a free vertex action")
    if not td.check_psd():
        raise NotPSD("psd decomposition has a non-psd matrix")
    if not td.check_symmetry():
        raise NotInvariant("psd decomposition is not invariant under its action")
    # factor orbit representatives; the free vertex action moves each factor
    # column b of the representative to column g*b of exactly one site g*rep
    locals_: dict[tuple, BlockPolynomial] = {}
    kmax = 0
    for orbit in a.vertex_orbits():
        rep = orbit[0]
        for j in range(m):
            support, mat = td.psd_matrix(rep, j)
            if not support:
                continue
            B = psd_sqrt(mat)
            kmax = max(kmax, B.shape[0])
            linear = (tuple(1 if t == j else 0 for t in range(m)),)
            for g in range(len(a)):
                for col, beta in enumerate(support):
                    gi, gbeta = a.beta_image(g, rep, beta)
                    for k in range(B.shape[0]):
                        if abs(B[k, col]) >= 1e-14:
                            locals_[(gi, (j, k), gbeta)] = BlockPolynomial(
                                (m,), {linear: B[k, col]}, FLOAT)
    members = [(j, k) for j in range(m) for k in range(kmax)]
    return SosOmegaGDecomposition(td.complex, a, td.index_size, (m,) * V, members, locals_)


def poly_dec_to_tensor_dec(dec, variant: str) -> TensorDecomposition:
    """Tensor-side counterpart; locals must be in the matching canonical form."""
    if variant in (PLAIN, NONNEGATIVE):
        if not isinstance(dec, OmegaGDecomposition):
            raise TypeError("plain/nonnegative conversion expects a polynomial decomposition")
        m = dec.site_vars[0]
        if any(v != m for v in dec.site_vars):
            raise DimensionMismatch("all sites must share one width")
        vectors = {}
        for site, mapping in dec.locals.items():
            for beta, poly in mapping.items():
                vec = tensor_from_poly(poly.scale_mul(dec.scale).as_polynomial()
                                       if poly.mode == RATIONAL and dec.scale.is_rational
                                       else poly.scale_mul(dec.scale).to_float())
                vectors[(site, beta)] = tuple(vec.entries)
        return TensorDecomposition(variant, dec.complex, dec.action,
                                   dec.index_size, m, vectors=vectors)
    if variant != PSD:
        raise ValueError(f"unknown variant {variant!r}")
    import numpy as np
    from .positivity import SosOmegaGDecomposition
    if not isinstance(dec, SosOmegaGDecomposition):
        raise TypeError("psd conversion expects an sos family decomposition")
    m = dec.site_vars[0]
    V = dec.complex.vertex_count
    psd_mats: dict[tuple, dict] = {}
    for i in range(V):
        # the matrices of site i live on the assignments of its stored locals
        by_k = dec.locals.get(i, {})
        rows = sorted(by_k, key=repr)
        support = sorted({beta for mapping in by_k.values() for beta in mapping})
        B = {j: np.zeros((len(rows), len(support))) for j in range(m)}
        bpos = {b: idx for idx, b in enumerate(support)}
        for row, k in enumerate(rows):
            for beta, poly in by_k[k].items():
                p = poly.scale_mul(dec.scale).to_float()
                for (block,), coeff in p.terms.items():
                    nz = [(j, e) for j, e in enumerate(block) if e]
                    if len(nz) != 1 or nz[0][1] != 1:
                        raise NotCanonicalForm("psd conversion needs linear locals")
                    B[nz[0][0]][row, bpos[beta]] += coeff
        for j in range(m):
            E = B[j].T @ B[j]
            psd_mats[(i, j)] = {(b1, b2): float(E[r, s])
                                for r, b1 in enumerate(support)
                                for s, b2 in enumerate(support) if E[r, s] != 0.0}
    return TensorDecomposition(PSD, dec.complex, dec.action, dec.index_size, m,
                               psd_mats=psd_mats)


def distance_matrix(m: int) -> DenseTensor:
    """Order-2 tensor of squared index differences, sized m x m."""
    if m < 2:
        raise ValueError("need m >= 2")
    return DenseTensor((m, m), [(i - j) ** 2 for i in range(m) for j in range(m)])


def psd_distance_factorization(m: int) -> TensorDecomposition:
    """Index-2 psd decomposition of the distance matrix on the single edge.

    Site-0 matrices are the rank-one squares of (1, i), site-1 matrices of
    (j, -1); their pairings contract to (i - j)^2 exactly.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    c = standard_complex("single_edge")
    betas = [(1,), (2,)]
    psd_mats: dict[tuple, dict] = {}
    for j in range(m):
        v0 = (1, j + 1)
        v1 = (j + 1, -1)
        psd_mats[(0, j)] = {(betas[r], betas[s]): v0[r] * v0[s]
                            for r in range(2) for s in range(2)}
        psd_mats[(1, j)] = {(betas[r], betas[s]): v1[r] * v1[s]
                            for r in range(2) for s in range(2)}
    return TensorDecomposition(PSD, c, None, 2, m, psd_mats=psd_mats)


def polygon_slack(m: int) -> DenseTensor:
    """Slack matrix of the regular m-gon: edge offsets minus edge-vertex products."""
    if m < 3:
        raise ValueError("need m >= 3")
    verts = [(math.cos(2 * math.pi * j / m), math.sin(2 * math.pi * j / m))
             for j in range(m)]
    entries = []
    for i in range(m):
        vx, vy = verts[i]
        wx, wy = verts[(i + 1) % m]
        ax, ay = (vx + wx) / 2.0, (vy + wy) / 2.0
        b = ax * vx + ay * vy
        entries += [b - (ax * x + ay * y) for x, y in verts]
    return DenseTensor((m, m), entries, FLOAT)


def distance_nn_lower_bound(m: int) -> int:
    """Rectangle-covering bound for the distance matrix: ceil(log2 m)."""
    if m < 1:
        raise ValueError("need m >= 1")
    return (m - 1).bit_length()


def nn_starts(rng, restarts: int, rows: int, cols: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Initial stacks W (restarts, rows, r) and H (restarts, r, cols): the
    draws of restarts that each draw W and then H from ``rng``."""
    draws = rng.random((restarts, rows * r + r * cols)) + 0.1
    return (draws[:, :rows * r].reshape(restarts, rows, r),
            draws[:, rows * r:].reshape(restarts, r, cols))


def nn_rank_upper_bound(mat: np.ndarray, restarts: int = 50, iters: int = 400,
                        rel_tol: float = 1e-6, seed: int = 0,
                        max_work: int = DEFAULT_MAX_WORK) -> int:
    """Smallest inner dimension at which multiplicative updates reached the
    matrix within tolerance; an upper bound only, never the exact rank. The
    restarts of one inner dimension run as one stack.

    An inner dimension r whose Eckart-Young distance, the norm of the singular
    values past the r-th, exceeds the tolerance by more than rounding can close
    is skipped: no rank-r product comes that close. It still draws its starts,
    so the later dimensions see the same generator stream.

    A library tool: ``separations_report`` does not call it, since on every
    distance matrix tried (m from 3 to 40) it returns the trivial bound m."""
    import numpy as np
    mat = np.asarray(mat, dtype=float)
    if not np.isfinite(mat).all():
        raise ValueError("matrix entries must be finite")
    if (mat < 0).any():
        raise ValueError("matrix must be entrywise nonnegative")
    rows, cols = mat.shape
    work = (min(rows, cols) - 1) * restarts * iters
    if work > max_work:
        raise SizeTooLarge(f"{work} updates exceed {max_work}")
    norm = np.linalg.norm(mat)
    if norm == 0.0:
        return 0
    # distance[r]: Frobenius distance from mat to the nearest matrix of rank r
    distance = np.hypot.accumulate(np.linalg.svd(mat, compute_uv=False)[::-1])[::-1]
    rng = np.random.default_rng(seed)
    eps = 1e-12
    for r in range(1, min(rows, cols)):
        W, H = nn_starts(rng, restarts, rows, cols, r)
        if distance[r] > 2 * rel_tol * norm + 1e-8 * norm:
            continue
        for _ in range(iters):
            H *= (W.mT @ mat) / (W.mT @ W @ H + eps)
            W *= (mat @ H.mT) / (W @ H @ H.mT + eps)
        if (np.linalg.norm(mat - W @ H, axis=(1, 2)) <= rel_tol * norm).any():
            return r
    return min(rows, cols)


def separations_report(m: int, seed: int = 0, max_work: int = DEFAULT_MAX_WORK) -> dict:
    """Rank profile of the distance-matrix instance of size m, all of it exact.

    ``nn_upper_bound`` is the trivial bound m = min(rows, cols) of the identity
    factorization, which is also what ``nn_rank_upper_bound`` returns on every
    distance matrix tried; the report does not run that search. The work guard
    counts the search's ``(m - 1) * 50 * 400`` updates after the psd
    contraction, which keeps the command's exit codes and messages fixed.
    ``seed`` is accepted for callers that pass it; nothing here draws from it."""
    t = distance_matrix(m)
    p = poly_from_tensor(t)
    rank = bipartite_rank(p)
    fact = psd_distance_factorization(m)
    psd_ok = fact.contract(max_work) == t
    work = (m - 1) * 50 * 400
    if work > max_work:
        raise SizeTooLarge(f"{work} updates exceed {max_work}")
    return {
        "m": m,
        "bipartite_rank": rank,
        "psd_index": fact.index_size,
        "psd_verified": bool(psd_ok),
        "nn_lower_bound": distance_nn_lower_bound(m),
        "nn_upper_bound": min(t.dims),
    }
