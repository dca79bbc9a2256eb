"""Correspondence between tensors and squared-variable polynomials.

A tensor with equal axis dimensions embeds as the polynomial whose monomials
are products of squared single variables, one per site, with the tensor
entries as coefficients. Entrywise nonnegativity of the tensor then coincides
with both nonnegativity and the sum-of-squares property of the polynomial,
and tensor decompositions (plain, entrywise nonnegative, positive
semidefinite) match polynomial decompositions (plain, separable, sos) rank
for rank. Two stock families realize the known rank separations: squared
distance matrices and polygon slack matrices.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .blockpoly import FLOAT, RATIONAL, BlockPolynomial
from .complexes import WeightedComplex, standard_complex
from .decomposition import (
    DEFAULT_MAX_WORK,
    OmegaGDecomposition,
    bipartite_rank,
    checked_action,
    checked_assignment,
    label_assignments,
)
from .errors import (
    DimensionMismatch,
    NotCanonicalForm,
    NotInvariant,
    NotPSD,
    VertexActionNotFree,
)
from .positivity import SosOmegaGDecomposition, psd_floor, psd_sqrt
from .symmetry import SymmetryAction

PLAIN = "plain"
NONNEGATIVE = "nonnegative"
PSD = "psd"


class DenseTensor:
    """Dense tensor with equal axis dimensions and exact or float entries."""

    def __init__(self, dims: Sequence[int], entries: Sequence, mode: str = RATIONAL):
        self.dims = tuple(int(d) for d in dims)
        size = math.prod(self.dims)
        flat = list(entries)
        if len(flat) != size:
            raise DimensionMismatch(f"expected {size} entries, got {len(flat)}")
        if mode == FLOAT:
            flat = [float(x) for x in flat]
            if not all(map(math.isfinite, flat)):
                raise ValueError("float tensor entries must be finite")
        else:
            flat = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in flat]
        self.mode = mode
        self.entries = flat

    @classmethod
    def zeros(cls, dims: Sequence[int], mode: str = RATIONAL) -> "DenseTensor":
        return cls(dims, [0] * math.prod(tuple(dims)), mode)

    @property
    def order(self) -> int:
        return len(self.dims)

    def _flat(self, idx: Sequence[int]) -> int:
        pos = 0
        for i, d in zip(idx, self.dims):
            if not 0 <= i < d:
                raise IndexError(f"index {tuple(idx)} out of range for {self.dims}")
            pos = pos * d + i
        return pos

    def __getitem__(self, idx) -> object:
        if isinstance(idx, int):
            idx = (idx,)
        return self.entries[self._flat(idx)]

    def __setitem__(self, idx, value) -> None:
        if isinstance(idx, int):
            idx = (idx,)
        self.entries[self._flat(idx)] = value

    def indices(self) -> Iterable[tuple[int, ...]]:
        return product(*(range(d) for d in self.dims))

    def min_entry(self) -> tuple[object, tuple[int, ...]]:
        best = None
        arg = None
        for idx in self.indices():
            v = self[idx]
            if best is None or v < best:
                best, arg = v, idx
        return best, arg

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseTensor):
            return NotImplemented
        return self.dims == other.dims and all(
            a == b for a, b in zip(self.entries, other.entries))

    def allclose(self, other: "DenseTensor", tol: float = 1e-9) -> bool:
        if self.dims != other.dims:
            return False
        ref = max((abs(float(x)) for x in self.entries), default=0.0)
        return all(abs(float(a) - float(b)) <= tol * (1.0 + ref)
                   for a, b in zip(self.entries, other.entries))

    def to_numpy(self) -> np.ndarray:
        return np.array([float(x) for x in self.entries]).reshape(self.dims)

    def to_obj(self) -> dict:
        entries = [float(x) if self.mode == FLOAT else str(Fraction(x))
                   for x in self.entries]
        return {"dims": list(self.dims), "mode": self.mode, "entries": entries}

    @classmethod
    def from_obj(cls, obj: dict) -> "DenseTensor":
        mode = obj.get("mode", RATIONAL)
        entries = obj["entries"]
        if mode != FLOAT:
            entries = [Fraction(x) for x in entries]
        return cls(obj["dims"], entries, mode)


def poly_from_tensor(t: DenseTensor) -> BlockPolynomial:
    """Embed a tensor as a polynomial in squared single variables."""
    dims = set(t.dims)
    if len(dims) != 1:
        raise DimensionMismatch("axis dimensions must agree")
    m = dims.pop()
    sites = (m,) * t.order
    terms = {}
    for idx in t.indices():
        v = t[idx]
        if v == 0:
            continue
        key = tuple(tuple(2 if j == i else 0 for j in range(m)) for i in idx)
        terms[key] = v
    return BlockPolynomial(sites, terms, t.mode)


def tensor_from_poly(p: BlockPolynomial) -> DenseTensor:
    """Inverse embedding; requires every term to be a product of squared variables."""
    dims = set(p.sites)
    if len(dims) != 1:
        raise DimensionMismatch("all sites must have the same width")
    m = dims.pop()
    t = DenseTensor.zeros((m,) * len(p.sites), p.mode)
    for key, coeff in p.terms.items():
        idx = []
        for block in key:
            nz = [(j, e) for j, e in enumerate(block) if e]
            if len(nz) != 1 or nz[0][1] != 2:
                raise NotCanonicalForm(f"term block {block} is not a squared variable")
            idx.append(nz[0][0])
        t[tuple(idx)] = coeff
    return t


def tensor_positivity(t: DenseTensor) -> dict:
    """Entrywise nonnegativity, which settles both positivity notions of the
    embedded polynomial, with a witness entry when it fails."""
    lo, arg = t.min_entry()
    ok = lo >= 0
    return {"nonneg_entrywise": bool(ok), "min_entry": lo,
            "witness": None if ok else arg}


def _check_finite(values: Iterable) -> None:
    if any(isinstance(x, float) and not math.isfinite(x) for x in values):
        raise ValueError("tensor decomposition entries must be finite")


class TensorDecomposition:
    """Invariant decompositions of tensors: plain, nonnegative, or psd."""

    def __init__(self, variant: str, complex_: WeightedComplex,
                 action: SymmetryAction | None, index_size: int, axis_dim: int,
                 vectors: dict | None = None, psd_mats: dict | None = None):
        if variant not in (PLAIN, NONNEGATIVE, PSD):
            raise ValueError(f"unknown variant {variant!r}")
        self.variant = variant
        self.complex = complex_
        self.action = checked_action(complex_, action)
        self.index_size = int(index_size)
        self.axis_dim = int(axis_dim)
        self.vectors = {}
        self.psd_mats = {}
        if variant in (PLAIN, NONNEGATIVE):
            for (site, beta), vec in (vectors or {}).items():
                vec = tuple(vec)
                if len(vec) != self.axis_dim:
                    raise DimensionMismatch("vector length differs from axis dimension")
                _check_finite(vec)
                if variant == NONNEGATIVE and any(x < 0 for x in vec):
                    raise NotCanonicalForm("nonnegative variant needs entrywise >= 0 vectors")
                beta = checked_assignment(complex_, site, beta, self.index_size)
                if any(x != 0 for x in vec):
                    self.vectors[(site, beta)] = vec
        else:
            for (site, j), mat in (psd_mats or {}).items():
                if not 0 <= int(j) < self.axis_dim:
                    raise DimensionMismatch(f"psd matrix key {j} outside 0..{self.axis_dim - 1}")
                _check_finite(mat.values())
                self.psd_mats[(site, int(j))] = {
                    (checked_assignment(complex_, site, b1, self.index_size),
                     checked_assignment(complex_, site, b2, self.index_size)): v
                    for (b1, b2), v in mat.items() if v != 0}

    def beta_grid(self, site: int) -> list[tuple[int, ...]]:
        width = len(self.complex.label_positions_at(site))
        return list(product(range(1, self.index_size + 1), repeat=width))

    def contract(self, max_work: int = DEFAULT_MAX_WORK) -> DenseTensor:
        """Sum over label assignments of the outer product of the site vectors.

        psd is a plain contraction over the label set taken twice: the vector
        of site i at key b1 + b2 has entry j = matrix (i, j) at (b1, b2).
        """
        c = self.complex
        V = c.vertex_count
        L = c.label_count
        m = self.axis_dim
        positions = [c.label_positions_at(i) for i in range(V)]
        site_vecs: list[dict[tuple, tuple]] = [{} for _ in range(V)]
        if self.variant in (PLAIN, NONNEGATIVE):
            exact = all(not isinstance(x, float) for vec in self.vectors.values() for x in vec)
            for (site, beta), vec in self.vectors.items():
                site_vecs[site][beta] = vec
        else:
            exact = all(not isinstance(v, float)
                        for mat in self.psd_mats.values() for v in mat.values())
            positions = [pos + tuple(p + L for p in pos) for pos in positions]
            L *= 2
            for i in range(V):
                mats = [self.psd_mats.get((i, j), {}) for j in range(m)]
                for b1, b2 in {pair for mat in mats for pair in mat}:
                    site_vecs[i][b1 + b2] = tuple(mat.get((b1, b2), 0) for mat in mats)
        t = DenseTensor.zeros((m,) * V, RATIONAL if exact else FLOAT)
        entries = t.entries
        for keys in label_assignments(positions, L, self.index_size,
                                      [vecs.keys() for vecs in site_vecs], max_work):
            # flat entry index and left-to-right product, zero products dropped
            prods = [(0, 1)]
            for vecs, key in zip(site_vecs, keys):
                nxt = []
                for flat, prod_ in prods:
                    for j, x in enumerate(vecs[key]):
                        q = prod_ * x
                        if q != 0:
                            nxt.append((flat * m + j, q))
                prods = nxt
            for flat, q in prods:
                entries[flat] = entries[flat] + q
        return t

    def check_symmetry(self, tol: float = 1e-9) -> bool:
        a = self.action
        if a is None or len(a) == 1:
            return True
        if self.variant in (PLAIN, NONNEGATIVE):
            for (site, beta), vec in self.vectors.items():
                for g in range(len(a)):
                    gi, gbeta = a.beta_image(g, site, beta)
                    other = self.vectors.get((gi, gbeta), (0,) * self.axis_dim)
                    if any(abs(float(x) - float(y)) > tol for x, y in zip(vec, other)):
                        return False
            return True
        for (site, j), mat in self.psd_mats.items():
            for g in range(len(a)):
                gi = a.vertex_image(g, site)
                target = self.psd_mats.get((gi, j), {})
                for (b1, b2), v in mat.items():
                    _, gb1 = a.beta_image(g, site, b1)
                    _, gb2 = a.beta_image(g, site, b2)
                    if abs(float(target.get((gb1, gb2), 0)) - float(v)) > tol:
                        return False
        return True

    def psd_matrix(self, site: int, j: int) -> np.ndarray:
        grid = self.beta_grid(site)
        pos = {b: i for i, b in enumerate(grid)}
        mat = np.zeros((len(grid), len(grid)))
        for (b1, b2), v in self.psd_mats.get((site, j), {}).items():
            mat[pos[b1], pos[b2]] = float(v)
        return mat

    def check_psd(self, tol: float = 1e-9) -> bool:
        if self.variant != PSD:
            return True
        for site, j in self.psd_mats:
            mat = self.psd_matrix(site, j)
            lo, bound = psd_floor(0.5 * (mat + mat.T), tol)
            if not np.allclose(mat, mat.T, atol=tol) or lo < bound:
                return False
        return True


def tensor_dec_to_poly_dec(td: TensorDecomposition):
    """Polynomial-side counterpart with the same index set.

    Plain and nonnegative variants map vectors to squared-variable locals.
    The psd variant produces an sos family decomposition by splitting each
    matrix symmetrically, which forces equal factors along vertex orbits and
    therefore needs an invariant decomposition under a free vertex action.
    """
    m = td.axis_dim
    V = td.complex.vertex_count
    if td.variant in (PLAIN, NONNEGATIVE):
        mode = RATIONAL if all(not isinstance(x, float)
                               for vec in td.vectors.values() for x in vec) else FLOAT
        locals_: dict[int, dict] = {}
        for (site, beta), vec in td.vectors.items():
            locals_.setdefault(site, {})[beta] = poly_from_tensor(DenseTensor((m,), vec, mode))
        return OmegaGDecomposition(td.complex, td.action, td.index_size,
                                   (m,) * V, locals_)
    a = td.action
    if a is not None:
        for g in range(1, len(a)):
            if any(a.vertex_image(g, i) == i for i in range(V)):
                raise VertexActionNotFree(
                    "symmetric factor split needs a free vertex action")
    if not td.check_psd():
        raise NotPSD("psd decomposition has a non-psd matrix")
    if not td.check_symmetry():
        raise NotInvariant("psd decomposition is not invariant under its action")
    # factor orbit representatives; the free vertex action moves each factor
    # column b of the representative to column g*b of exactly one site g*rep
    locals_: dict[tuple, BlockPolynomial] = {}
    kmax = 0
    for orbit in [[i] for i in range(V)] if a is None else a.vertex_orbits():
        rep = orbit[0]
        grid = td.beta_grid(rep)
        for j in range(m):
            B = psd_sqrt(td.psd_matrix(rep, j))
            kmax = max(kmax, B.shape[0])
            linear = (tuple(1 if t == j else 0 for t in range(m)),)
            for g in range(1 if a is None else len(a)):
                for col, beta in enumerate(grid):
                    gi, gbeta = (rep, beta) if a is None else a.beta_image(g, rep, beta)
                    for k in range(B.shape[0]):
                        if abs(B[k, col]) >= 1e-14:
                            locals_[(gi, (j, k), gbeta)] = BlockPolynomial(
                                (m,), {linear: B[k, col]}, FLOAT)
    member_values = [(j, k) for j in range(m) for k in range(kmax)]
    return SosOmegaGDecomposition(td.complex, a, td.index_size, (m,) * V,
                                  tuple(tuple(member_values) for _ in range(V)), locals_)


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
    if not isinstance(dec, SosOmegaGDecomposition):
        raise TypeError("psd conversion expects an sos family decomposition")
    m = dec.site_vars[0]
    V = dec.complex.vertex_count
    rows: dict[int, list] = {i: sorted({k for (site, k, _) in dec.locals if site == i},
                                       key=repr) for i in range(V)}
    psd_mats: dict[tuple, dict] = {}
    for i in range(V):
        grid = list(product(range(1, dec.index_size + 1),
                            repeat=len(dec.complex.label_positions_at(i))))
        B = {j: np.zeros((len(rows[i]), len(grid))) for j in range(m)}
        gpos = {b: idx for idx, b in enumerate(grid)}
        kpos = {k: idx for idx, k in enumerate(rows[i])}
        for (site, k, beta), poly in dec.locals.items():
            if site != i:
                continue
            p = poly.scale_mul(dec.scale).to_float()
            for (block,), coeff in p.terms.items():
                nz = [(j, e) for j, e in enumerate(block) if e]
                if len(nz) != 1 or nz[0][1] != 1:
                    raise NotCanonicalForm("psd conversion needs linear locals")
                B[nz[0][0]][kpos[k], gpos[beta]] += coeff
        for j in range(m):
            E = B[j].T @ B[j]
            mat = {}
            for r, b1 in enumerate(grid):
                for s, b2 in enumerate(grid):
                    if E[r, s] != 0.0:
                        mat[(b1, b2)] = float(E[r, s])
            psd_mats[(i, j)] = mat
    return TensorDecomposition(PSD, dec.complex, dec.action, dec.index_size, m,
                               psd_mats=psd_mats)


def distance_matrix(m: int) -> DenseTensor:
    """Order-2 tensor of squared index differences, sized m x m."""
    if m < 2:
        raise ValueError("need m >= 2")
    t = DenseTensor.zeros((m, m))
    for i in range(m):
        for j in range(m):
            t[(i, j)] = (i - j) ** 2
    return t


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
    t = DenseTensor.zeros((m, m), FLOAT)
    for i in range(m):
        vx, vy = verts[i]
        wx, wy = verts[(i + 1) % m]
        ax, ay = (vx + wx) / 2.0, (vy + wy) / 2.0
        b = ax * vx + ay * vy
        for j in range(m):
            t[(i, j)] = b - (ax * verts[j][0] + ay * verts[j][1])
    return t


def numeric_rank(mat: np.ndarray, rel_tol: float = 1e-8) -> int:
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int((s > rel_tol * s[0]).sum())


def distance_nn_lower_bound(m: int) -> int:
    """Rectangle-covering bound for the distance matrix: ceil(log2 m)."""
    if m < 1:
        raise ValueError("need m >= 1")
    return (m - 1).bit_length()


def nn_rank_upper_bound(mat: np.ndarray, restarts: int = 50, iters: int = 400,
                        rel_tol: float = 1e-6, seed: int = 0) -> int:
    """Smallest inner dimension at which multiplicative updates reached the
    matrix within tolerance; an upper bound only, never the exact rank."""
    mat = np.asarray(mat, dtype=float)
    if (mat < 0).any():
        raise ValueError("matrix must be entrywise nonnegative")
    rows, cols = mat.shape
    norm = np.linalg.norm(mat)
    if norm == 0.0:
        return 0
    rng = np.random.default_rng(seed)
    eps = 1e-12
    for r in range(1, min(rows, cols)):
        for _ in range(restarts):
            W = rng.random((rows, r)) + 0.1
            H = rng.random((r, cols)) + 0.1
            for _ in range(iters):
                H *= (W.T @ mat) / (W.T @ W @ H + eps)
                W *= (mat @ H.T) / (W @ H @ H.T + eps)
            if np.linalg.norm(mat - W @ H) <= rel_tol * norm:
                return r
    return min(rows, cols)


def separations_report(m: int, seed: int = 0, with_nn_upper: bool = True) -> dict:
    """Rank profile of the distance-matrix instance of size m."""
    t = distance_matrix(m)
    p = poly_from_tensor(t)
    rank = bipartite_rank(p)
    fact = psd_distance_factorization(m)
    psd_ok = fact.contract() == t
    report = {
        "m": m,
        "bipartite_rank": rank,
        "psd_index": fact.index_size,
        "psd_verified": bool(psd_ok),
        "nn_lower_bound": distance_nn_lower_bound(m),
    }
    if with_nn_upper:
        report["nn_upper_bound"] = nn_rank_upper_bound(t.to_numpy(), seed=seed)
    return report
