"""Positivity-certified decompositions: Gram matrices, sos families, cones.

The Gram map sends a symmetric matrix indexed by tensor products of local
monomial bases to a polynomial; positive semidefinite Gram matrices certify
sums of squares. Invariant PSD matrices yield invariant sos families through
the PSD square root, and free actions turn those families into invariant
decompositions. Separable witnesses (all locals in prescribed local cones)
convert to sos witnesses when the overcount constants of the pair
(complex, action) admit a positive invariant splitting.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement, product
from typing import Iterable, Mapping, Sequence

import numpy as np

from .blockpoly import FLOAT, RATIONAL, BlockPolynomial
from .complexes import WeightedComplex, require_connected
from .decomposition import (  # caratheodory_bound is re-exported from its numpy-free home
    DEFAULT_MAX_WORK,
    OmegaGDecomposition,
    _comb_power,
    _free_build,
    caratheodory_bound,
    checked_action,
    checked_local,
    checked_scale,
    checked_sizes,
    elementary_sum,
    locals_agree,
    pair_assignment,
    symmetrize_free,
)
from .errors import (
    ActionNotFree,
    DimensionMismatch,
    FactorNotInCone,
    IncompatibleBlockSizes,
    LocalsNotAligned,
    MissingCertificate,
    MissingSquareSplits,
    NotFactorizable,
    NotInvariantPolynomial,
    NotPSD,
    SearchSpaceTooLarge,
    _integer,
    _object,
    _real,
    _tolerance,
    power_within,
)
from .invariance import is_invariant
from .radpoly import RadPoly, RadSum
from .scalars import ONE, ScaledScalar
from .symmetry import SymmetryAction, is_free, same_action

DEFAULT_PSD_TOL = 1e-9
DEFAULT_EQ_TOL = 1e-9


def real_array(values, what: str) -> np.ndarray:
    """values as a float array, each entry read by `_real`: numpy alone reads
    JSON true as 1.0. A float array is only checked for finite entries."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind == "f"):
        values = np.frompyfunc(lambda x: _real(x, what), 1, 1)(np.asarray(values, dtype=object))
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError(f"{what} must be finite")
    return values


def monomials_upto(m: int, d: int) -> list[tuple[int, ...]]:
    """Exponent vectors in m variables of total degree at most d, graded lex.

    The degree-k vectors are the variable multisets of size k. Listing the
    multisets as ascending index tuples in lexicographic order lists their
    exponent vectors in descending lexicographic order, so each degree is one
    reversed pass, linear in the size of the output.
    """
    out: list[tuple[int, ...]] = []
    for k in range(d + 1):
        block = []
        for chosen in combinations_with_replacement(range(m), k):
            exps = [0] * m
            for i in chosen:
                exps[i] += 1
            block.append(tuple(exps))
        out += reversed(block)
    return out


class GramRepresentation:
    """Symmetric matrix over the tensor product of per-site monomial bases."""

    def __init__(self, n: int, m: int, d: int, entries):
        self.n = _integer(n, "n")
        self.m = _integer(m, "m")
        self.d = _integer(d, "d")
        if min(self.n, self.m, self.d) < 0:
            raise ValueError("n, m and d must be nonnegative")
        mat = real_array(entries, "Gram entries")
        dim = _comb_power(self.m, self.d, self.n, 2**31)      # dim**2 entries, at most 2**62
        if dim is None:
            raise DimensionMismatch(f"expected over 2**62 entries, got {mat.shape}")
        if mat.shape == (dim * dim,):
            mat = mat.reshape(dim, dim)
        if mat.shape != (dim, dim):
            raise DimensionMismatch(f"expected {dim}x{dim} entries, got {mat.shape}")
        if not np.allclose(mat, mat.T, atol=1e-12 * (1.0 + float(np.abs(mat).max(initial=0.0)))):
            raise DimensionMismatch("Gram entries must be symmetric")
        self.entries = 0.5 * mat + 0.5 * mat.T
        self.local_basis = monomials_upto(self.m, self.d)
        self.D = len(self.local_basis)

    @property
    def sites(self) -> tuple[int, ...]:
        return (self.m,) * (self.n + 1)

    def index_tuples(self) -> list[tuple[tuple[int, ...], ...]]:
        """Row/column labels: one local monomial per site, site 0 outermost."""
        return [tuple(K) for K in product(self.local_basis, repeat=self.n + 1)]

    def permuted(self, vperm: Sequence[int]) -> "GramRepresentation":
        return GramRepresentation(self.n, self.m, self.d,
                                  site_permuted(self.entries, self.D, vperm))

    def to_obj(self) -> dict:
        return {"n": self.n, "m": self.m, "d": self.d,
                "entries": [float(x) for x in self.entries.reshape(-1)]}

    @classmethod
    def from_obj(cls, obj: dict) -> "GramRepresentation":
        obj = _object(obj, "gram")
        return cls(obj["n"], obj["m"], obj["d"], obj["entries"])


def site_permuted(entries: np.ndarray, D: int, vperm: Sequence[int]) -> np.ndarray:
    """The matrix indexed by V sites of D labels each, site i's label moved to site vperm[i].

    Row and column tuples K become gK with gK[vperm[i]] = K[i]: as a tensor of
    2V axes of length D, both halves take their axes in the order argsort(vperm).
    """
    axes = np.argsort(vperm)
    return entries.reshape((D,) * (2 * len(axes))).transpose(
        np.concatenate([axes, axes + len(axes)])).reshape(entries.shape)


@lru_cache(maxsize=16)
def _pair_keys(basis: tuple[tuple[int, ...], ...], V: int) -> tuple[tuple, np.ndarray]:
    """The exponent keys of the products m_r m_s over V-fold basis products, and the
    key index of every (r, s) pair in row-major order: V base-L digits, site 0 first,
    each the index of that site's pair product among the L distinct local ones."""
    local: dict = {}
    T = np.array([[local.setdefault(tuple(x + y for x, y in zip(a, b)), len(local))
                   for b in basis] for a in basis])
    digits = np.indices((len(basis),) * V).reshape(V, -1)
    index = sum(T[np.ix_(i, i)] * len(local) ** (V - 1 - k) for k, i in enumerate(digits))
    index.flags.writeable = False       # every caller shares the cached table
    return tuple(product(local, repeat=V)), index.ravel()


# A stacked temporary holds at most this many floats (one item's worth if a
# single one is larger), so it does not grow with the stack.
STACK_BLOCK = 1 << 20


def _offset_bincount(index: np.ndarray, weights: np.ndarray, L: int) -> np.ndarray:
    """The (k, L) sums by key of each row of a (k, len(index)) weight stack: one
    bincount over the keys offset by row (row * L + index), so each row adds its
    weights in order, as a bincount of that row alone would."""
    k = len(weights)
    keys = (np.arange(k)[:, None] * L + index).ravel()
    return np.bincount(keys, weights=weights.ravel(), minlength=k * L).reshape(k, L)


def quadratic_forms(mats: np.ndarray, basis: Sequence[tuple[int, ...]],
                    V: int) -> list[BlockPolynomial]:
    """The polynomial m^t M m of each M of a (k, N, N) stack, m running over V-fold
    basis products, site 0 outermost: each coefficient adds its entries in
    row-major order, terms by first nonzero entry. The first non-finite
    coefficient, in stack order, is a ValueError."""
    keys, index = _pair_keys(tuple(basis), V)
    L = len(keys)
    flat = mats.reshape(len(mats), len(index))
    totals = _offset_bincount(index, flat, L).ravel()
    rows, cols = np.nonzero(flat)
    hit = rows * L + index[cols]
    _, first = np.unique(hit, return_index=True)
    order = hit[np.sort(first)]         # each matrix's keys by first nonzero entry
    values = totals[order]
    if not np.isfinite(values).all():
        raise ValueError(f"non-finite coefficient {values[~np.isfinite(values)][0]}")
    terms: list[dict] = [{} for _ in range(len(mats))]
    for row, key, c in zip((order // L).tolist(), (order % L).tolist(), values.tolist()):
        if c:
            terms[row][keys[key]] = c
    sites = (len(basis[0]),) * V
    return [BlockPolynomial._trusted(sites, t, FLOAT) for t in terms]


def gram_map(g: GramRepresentation) -> BlockPolynomial:
    """The polynomial m^t M m over the inhomogeneous monomial bases."""
    return quadratic_forms(g.entries[None], g.local_basis, g.n + 1)[0]


def homogeneous_basis(m: int, d: int) -> list[tuple[int, ...]]:
    """Degree-d monomials in m+1 variables, ordered like their dehomogenizations."""
    return [(d - sum(mono),) + mono for mono in monomials_upto(m, d)]


def is_gram_invariant(g: GramRepresentation, a: SymmetryAction, tol: float = 1e-9) -> bool:
    """Every group element moves the matrix within tol, relative to its largest entry."""
    base = g.entries
    atol = _tolerance(tol) * (1.0 + float(np.abs(base).max(initial=0.0)))
    return all(np.allclose(site_permuted(base, g.D, a.vperm(h)), base, atol=atol)
               for h in range(len(a)))


def group_average(entries: np.ndarray, g: GramRepresentation,
                  a: SymmetryAction) -> np.ndarray:
    """Average of a matrix indexed like g over the group acting on the sites."""
    acc = np.zeros_like(entries)
    for h in range(len(a)):
        acc += site_permuted(entries, g.D, a.vperm(h))
    return acc / len(a)


def gram_symmetrize(g: GramRepresentation, a: SymmetryAction) -> GramRepresentation:
    """Average the Gram matrix over the group; the represented polynomial is kept.

    Valid only when that polynomial is invariant, otherwise the average would
    represent a different polynomial.
    """
    if a.complex.vertex_count != g.n + 1:
        raise DimensionMismatch("action vertex count differs from Gram site count")
    p = gram_map(g)
    if not is_invariant(p, a, DEFAULT_EQ_TOL):
        raise NotInvariantPolynomial("Gram matrix represents a non-invariant polynomial")
    return GramRepresentation(g.n, g.m, g.d, group_average(g.entries, g, a))


PSD_OUT_OF_RANGE = "PSD check needs a finite trace and finite eigenvalues"


def psd_floors(mats: np.ndarray, tol: float):
    """Per symmetric matrix of a stack: its smallest eigenvalue, its PSD floor
    -tol * (1 + |trace|), and whether its trace and eigenvalues are finite."""
    _tolerance(tol)
    with np.errstate(over="ignore", invalid="ignore"):     # an out-of-range floor is not read
        traces = np.trace(mats, axis1=-2, axis2=-1)
        floors = -tol * (1.0 + np.abs(traces))
    values = np.linalg.eigvalsh(mats)
    in_range = np.isfinite(traces) & np.isfinite(values).all(axis=-1)
    return values.min(axis=-1), floors, in_range


def symmetric_within(mats: np.ndarray, atol: float) -> np.ndarray:
    """Per matrix of a stack of finite ones: np.allclose(M, M.T, atol=atol)."""
    T = mats.swapaxes(-1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        return (np.abs(mats - T) <= atol + 1e-5 * np.abs(T)).all(axis=(-2, -1))


def psd_floor(mat: np.ndarray, tol: float) -> tuple[float, float]:
    """The smallest eigenvalue of a symmetric matrix, and its PSD floor -tol * (1 + |trace|).

    A trace or eigenvalue past the float range is a ``ValueError``: its floor
    would be -inf and pass any matrix."""
    lo, bound, in_range = psd_floors(mat, tol)
    if not in_range:
        raise ValueError(PSD_OUT_OF_RANGE)
    return float(lo), float(bound)


def assert_psd(g: GramRepresentation, tol: float = DEFAULT_PSD_TOL) -> None:
    lo, bound = psd_floor(g.entries, tol)
    if lo < bound:
        raise NotPSD(f"minimum eigenvalue {lo} below {bound}")


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


@dataclass
class ConeVerdict:
    cone: str
    ok: bool | None
    verdict: str
    witness: object = None


def evidently_sos(p: BlockPolynomial) -> bool:
    """Sufficient syntactic sos test: nonnegative coefficients, even exponents."""
    for key, coeff in p.terms.items():
        if coeff < 0:
            return False
        for block in key:
            if any(e % 2 for e in block):
                return False
    return True


def cone_check(p: BlockPolynomial, cone: str, certificate: GramRepresentation | None = None,
               seed: int = 0) -> ConeVerdict:
    """Membership check for one of the supported positivity cones.

    nn_coeff is decided exactly; sos_with_certificate validates a supplied
    Gram certificate; nonnegative_sampled tries 256 random points and only
    ever reports a found counterexample or the absence of one, never a proof.
    """
    if cone == "nn_coeff":
        bad = [(key, c) for key, c in p.terms.items() if c < 0]
        ok = not bad
        return ConeVerdict(cone, ok, "all-coefficients-nonnegative" if ok
                           else "negative-coefficient", bad[0][0] if bad else None)
    if cone == "sos_with_certificate":
        if certificate is None:
            raise MissingCertificate("sos check needs a Gram certificate")
        lo, bound = psd_floor(certificate.entries, DEFAULT_PSD_TOL)
        if lo < bound:
            return ConeVerdict(cone, False, "certificate-not-psd", lo)
        represented = gram_map(certificate)
        if not represented.allclose(p.astype_float(), DEFAULT_EQ_TOL):
            return ConeVerdict(cone, False, "certificate-mismatch")
        return ConeVerdict(cone, True, "sos-certified")
    if cone == "nonnegative_sampled":
        rng = np.random.default_rng(seed)
        pf = p.astype_float()
        for _ in range(256):
            point = tuple(tuple(rng.normal(scale=s) for _ in range(mv))
                          for mv, s in zip(p.sites, rng.choice([0.3, 1.0, 3.0], size=len(p.sites))))
            if pf.evaluate(point) < -1e-12:
                return ConeVerdict(cone, False, "counterexample-found", point)
        return ConeVerdict(cone, None, "no-counterexample-found")
    raise ValueError(f"unknown cone {cone!r}")


@dataclass(eq=False)
class SosFamily:
    """The rows of a PSD square root `root` of a Gram matrix against its monomial
    vector: an indexed family of polynomials whose squares sum to the target."""

    gram: GramRepresentation
    root: np.ndarray

    @property
    def sites(self) -> tuple[int, ...]:
        return self.gram.sites

    @property
    def members(self) -> tuple:
        """The member range every site shares: the local monomial basis."""
        return tuple(self.gram.local_basis)

    @cached_property
    def polys(self) -> dict:
        """The nonzero members, keyed by the index tuple of their row."""
        tuples = self.gram.index_tuples()
        rows = ({Ks: c for Ks, c in zip(tuples, row) if c} for row in self.root.tolist())
        return {K: BlockPolynomial._trusted(self.sites, terms, FLOAT)
                for K, terms in zip(tuples, rows) if terms}

    def grid(self) -> Iterable[tuple]:
        return product(self.members, repeat=self.gram.n + 1)

    def member(self, K: tuple) -> BlockPolynomial:
        p = self.polys.get(tuple(K))
        if p is None:
            return BlockPolynomial.zero(self.sites, FLOAT)
        return p

    def sum_squares(self) -> BlockPolynomial:
        """Each nonzero row's square adds its products in row-major order, and the
        squares add in member order, a block of rows at a time."""
        keys, index = _pair_keys(tuple(self.gram.local_basis), self.gram.n + 1)
        rows = self.root[self.root.any(axis=1)]
        acc = np.zeros((1, len(keys)))
        step = max(1, STACK_BLOCK // len(index))
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(rows), step):
                block = rows[start:start + step]
                squares = _offset_bincount(index, block[:, :, None] * block[:, None, :], len(keys))
                # accumulate adds row after row; np.sum would add pairwise
                acc = np.add.accumulate(np.concatenate([acc, squares]))[-1:]
        return BlockPolynomial._trusted(
            self.sites, {k: c for k, c in zip(keys, acc[0].tolist()) if c}, FLOAT)

    def family_invariant(self, a: SymmetryAction, tol: float = 1e-9) -> bool:
        """The member at gK matches the member at K with its blocks moved by g.

        Row gK of the site-permuted root is that moved member; the two rows agree
        on their nonzero coefficients within tol * (1 + their largest magnitude).
        """
        if a.complex.vertex_count != len(self.sites):
            raise IncompatibleBlockSizes("permutation length mismatch")
        _tolerance(tol)
        B = self.root
        for g in range(len(a)):
            P = site_permuted(B, self.gram.D, a.vperm(g))
            bound = tol * (1.0 + np.maximum(np.abs(B).max(axis=1), np.abs(P).max(axis=1)))
            if ((np.abs(B - P) > bound[:, None]) & ((B != 0) | (P != 0))).any():
                return False
        return True


def invariant_sos_family(g: GramRepresentation, a: SymmetryAction,
                         tol: float = DEFAULT_PSD_TOL) -> SosFamily:
    """Invariant family of polynomials squaring to the Gram polynomial.

    Rows of the PSD square root of the (invariant, PSD) Gram matrix against
    the monomial vector give the members; invariance of the square root is
    inherited from the matrix.
    """
    if a.complex.vertex_count != g.n + 1:
        raise DimensionMismatch("action vertex count differs from Gram site count")
    assert_psd(g, tol)
    if not is_gram_invariant(g, a, max(tol, 1e-9)):
        raise NotInvariantPolynomial("Gram matrix is not invariant under the action")
    B = psd_sqrt(g.entries)
    if not np.isfinite(B).all():
        raise ValueError(f"non-finite coefficient {B[~np.isfinite(B)][0]}")
    return SosFamily(g, B)


class SosOmegaGDecomposition:
    """Invariant decomposition of a whole family, sharing one index set.

    Every site shares one member range. The input keys each local by (site,
    member value, assignment); ``locals`` stores them as {site: {member value:
    {assignment: local}}}, each site's member values in range order. The
    member for a grid point K contracts the site-i locals of member value
    K[i]. Joint symmetry moves the assignment but keeps the member value.
    """

    def __init__(self, complex_: WeightedComplex, action: SymmetryAction | None,
                 index_size: int, site_vars: Sequence[int], members: Sequence,
                 locals_: Mapping, scale: ScaledScalar = ONE):
        self.complex = complex_
        self.scale = checked_scale(scale)
        self.action = checked_action(complex_, action)
        self.index_size, self.site_vars = checked_sizes(complex_, index_size, site_vars)
        self.members = tuple(members)
        store: dict[int, dict] = {}
        for (site, k, beta), poly in locals_.items():
            site, beta, rp = checked_local(complex_, self.index_size, self.site_vars,
                                           site, beta, poly)
            if rp is not None:
                store.setdefault(site, {}).setdefault(k, {})[beta] = rp
        # sum_squares reads each grid point and sos_to_plain each local: a repeated
        # member value or one outside the range would make the two disagree
        in_range = set(self.members)
        if len(in_range) != len(self.members):
            raise ValueError("a member range repeats a value")
        for site, k, _ in locals_:
            if k not in in_range:
                raise ValueError(f"member value {k!r} outside the range of site {site}")
        self.locals: dict[int, dict] = {site: {k: by_k[k] for k in self.members if k in by_k}
                                        for site, by_k in store.items()}

    def member(self, K: Sequence) -> RadPoly:
        """The contraction of the plain decomposition of the site-i locals of
        member value K[i]."""
        locals_ = {site: by_k[K[site]] for site, by_k in self.locals.items() if K[site] in by_k}
        return OmegaGDecomposition(self.complex, self.action, self.index_size, self.site_vars,
                                   locals_, self.scale, _trusted=True).contract()

    def grid(self) -> Iterable[tuple]:
        return product(self.members, repeat=self.complex.vertex_count)

    def sum_squares(self) -> RadPoly:
        acc = RadSum(self.site_vars)
        for K in self.grid():
            q = self.member(K)
            if not q.is_zero():
                acc.add(q * q)
        return acc.result()

    def check_joint_symmetry(self, tol: float = 1e-9) -> bool:
        stored = {(site, k, beta): p for site, by_k in self.locals.items()
                  for k, mapping in by_k.items() for beta, p in mapping.items()}
        return locals_agree(self.action, self.site_vars, stored, tol)


def family_symmetrize(family: SosFamily, a: SymmetryAction,
                      local_factors: Mapping) -> SosOmegaGDecomposition:
    """Invariant decomposition of an invariant family from aligned elementary data.

    local_factors maps (site, member index, term index) to a single-site
    polynomial such that each family member is the sum over the term index of
    the per-site products; the site-i factor may depend on the member only
    through its i-th component. Free actions then admit the index extension by
    group elements, exactly as for single polynomials: the free build of the
    terms at member value k gives the locals (site, k, assignment), k running
    over the member range of the family.
    """
    c = a.complex
    require_connected(c, "family symmetrization")
    if not is_free(a):
        raise ActionNotFree("family symmetrization requires a free action")
    V = c.vertex_count
    if V != len(family.sites):
        raise DimensionMismatch("family site count differs from complex")
    term_ids = sorted({j for (_, _, j) in local_factors})
    if not term_ids:
        raise LocalsNotAligned("no factors supplied")

    def factor(i: int, k, j) -> BlockPolynomial:
        p = local_factors.get((i, k, j))
        if p is None:
            return BlockPolynomial.zero((family.sites[i],), FLOAT)
        return p

    for K in family.grid():
        member = elementary_sum([[factor(i, K[i], j) for i in range(V)] for j in term_ids])
        if not member.allclose(RadPoly.from_poly(family.member(K)), DEFAULT_EQ_TOL):
            raise LocalsNotAligned(f"factors fail to reconstruct member {K}")

    locals_: dict[tuple, RadPoly] = {}
    for k in family.members:
        dec = _free_build(a, family.sites, [[RadPoly.coerce(factor(i, k, j)) for i in range(V)]
                                            for j in term_ids])
        for i, mapping in dec.locals.items():
            for beta, p in mapping.items():
                locals_[(i, k, beta)] = p
    return SosOmegaGDecomposition(c, a, dec.index_size, family.sites, family.members,
                                  locals_, dec.scale)


def separable_symmetrize(terms: Sequence[Sequence[object]],
                         a: SymmetryAction) -> OmegaGDecomposition:
    """Free-action symmetrization with every factor checked to be evidently sos.

    The construction only rescales and rearranges factors by positive amounts,
    so cone membership of the inputs carries to every non-zero local of the
    output.
    """
    for j, term in enumerate(terms):
        for i, f in enumerate(term):
            rp = RadPoly.coerce(f)
            for _, p in rp.parts:
                if not evidently_sos(p):
                    raise FactorNotInCone(f"term {j}, site {i} fails the cone check")
    return symmetrize_free(terms, a)


@dataclass
class FactorizabilitySolution:
    """Positive invariant splitting of an action's overcount constants at one index size."""

    action: SymmetryAction
    index_size: int
    values: dict
    residual: float
    counts: dict

    def C(self, site: int, beta: tuple) -> float:
        return self.values[(site, tuple(beta))]


def factorizability_solve(a: SymmetryAction, index_size: int,
                          max_assignments: int = DEFAULT_MAX_WORK
                          ) -> FactorizabilitySolution | None:
    """Solve the log-linear overcount system of the action's complex at an index
    size >= 1, or report infeasibility (a least-squares residual above 1e-9) as None.

    The overcount of an assignment counts the assignments reaching it through
    vertex-stabilizing elements sitewise. Unknowns are tied along group orbits
    of (site, assignment) pairs, so any returned solution is invariant.
    """
    if index_size < 1:
        raise ValueError(f"index size must be >= 1, got {index_size}")
    c = a.complex
    L = c.label_count
    V = c.vertex_count
    if power_within(index_size, L, max_assignments) is None:
        raise SearchSpaceTooLarge(f"{index_size}**{L} assignments exceed {max_assignments}")
    values = range(1, index_size + 1)
    positions = [c.label_positions_at(i) for i in range(V)]
    stabs = [[g for g in range(len(a)) if a.vertex_image(g, i) == i] for i in range(V)]

    def canon(i: int, beta: tuple) -> tuple:
        return min(a.beta_image(g, i, beta)[1] for g in stabs[i])

    assignments = list(product(values, repeat=L))
    site_betas = [[tuple(alpha[p] for p in positions[i]) for i in range(V)]
                  for alpha in assignments]
    sigs = [tuple(canon(i, beta) for i, beta in enumerate(betas)) for betas in site_betas]
    counts = Counter(sigs)

    # orbit variables over all (site, assignment) pairs
    orbits = list(a.orbits((i, beta) for i in range(V)
                           for beta in product(values, repeat=len(positions[i]))))
    var_of = {key: n for n, orbit in enumerate(orbits) for key in orbit}

    rows = []
    rhs = []
    overcounts: dict[tuple, int] = {}
    for alpha, betas, sig in zip(assignments, site_betas, sigs):
        row = np.zeros(len(orbits))
        for i, beta in enumerate(betas):
            row[var_of[(i, beta)]] += 1.0
        K = counts[sig]
        overcounts[alpha] = K
        rows.append(row)
        rhs.append(-math.log(K))
    A = np.vstack(rows)
    b = np.asarray(rhs)
    x, *_ = np.linalg.lstsq(A, b, rcond=None)
    residual = float(np.abs(A @ x - b).max(initial=0.0))
    if residual > 1e-9:
        return None
    vals = {key: float(math.exp(x[idx])) for key, idx in var_of.items()}
    return FactorizabilitySolution(a, index_size, vals, residual, overcounts)


def sos_to_plain(sos: SosOmegaGDecomposition) -> OmegaGDecomposition:
    """Collapse an sos family decomposition into a plain one of squared index.

    Pairs of assignments become the new assignments; the local at a pair is
    the sum over member values, in range order, of products of the
    corresponding family locals.
    """
    I = sos.index_size
    locals_: dict[int, dict[tuple, RadPoly]] = {}
    for site, by_k in sos.locals.items():
        sums: dict[tuple, RadSum] = {}
        for mapping in by_k.values():
            for b1, p1 in mapping.items():
                for b2, p2 in mapping.items():
                    sums.setdefault(pair_assignment(b1, b2, I), RadSum(p1.sites)).add(p1 * p2)
        locals_[site] = {key: acc.result() for key, acc in sums.items()}
    return OmegaGDecomposition(sos.complex, sos.action, I * I, sos.site_vars,
                               locals_, sos.scale**2, _trusted=True)


def monomial_square_split(p: BlockPolynomial) -> list[RadPoly]:
    """Split a nonnegative-coefficient even-exponent polynomial into squares.

    Each term c * x^(2g) becomes the square of sqrt(c) * x^g, kept exact when
    c is rational; a float c down to -1e-12 counts as zero.
    """
    out: list[RadPoly] = []
    for key, coeff in p.sorted_terms():
        if any(e % 2 for block in key for e in block):
            raise MissingSquareSplits(f"odd exponent in {key}")
        half = tuple(tuple(e // 2 for e in block) for block in key)
        if p.mode == RATIONAL:
            if coeff < 0:
                raise MissingSquareSplits(f"negative coefficient {coeff}")
            mono = BlockPolynomial.monomial(p.sites, half, 1)
            out.append(RadPoly.scaled_poly(ScaledScalar(coeff, 2), mono))
        else:
            cval = float(coeff)
            if cval < -1e-12:
                raise MissingSquareSplits(f"negative coefficient {cval}")
            if cval <= 0:
                continue
            mono = BlockPolynomial.monomial(p.sites, half, math.sqrt(cval), FLOAT)
            out.append(RadPoly.from_poly(mono))
    return out


def sep_to_sos(sep: OmegaGDecomposition, solution: FactorizabilitySolution | None,
               splits: Mapping | None = None) -> SosOmegaGDecomposition:
    """Turn a separable witness into an sos witness of the same index size.

    Every local gets a sum-of-squares split (automatic for even-exponent
    nonnegative locals, or supplied), shared along its orbit, and the square
    roots of the overcount splitting reweight the members. The result is
    numeric since the splitting constants generally are.
    """
    if solution is None:
        raise NotFactorizable("no overcount splitting available")
    if not same_action(solution.action, sep.action):
        raise ValueError("splitting solved for a different action")
    if solution.index_size != sep.index_size:
        raise DimensionMismatch("splitting solved for a different index size")
    stored = sorted((site, beta) for site, mapping in sep.locals.items() for beta in mapping)
    orbits = list(sep.action.orbits(stored))

    rep_splits: list[list[RadPoly]] = []
    for orbit in orbits:
        site, beta = orbit[0]
        local = sep.locals[site][beta].scale_mul(sep.scale)
        if splits and (site, beta) in splits:
            split = [RadPoly.coerce(t) for t in splits[(site, beta)]]
            total = RadSum(local.sites)
            for t in split:
                total.add(t * t)
            if not total.result().matches(local):
                raise MissingSquareSplits(f"supplied split of {(site, beta)} does not "
                                          "square to its local")
        else:
            split = monomial_square_split(local.collapse())
        rep_splits.append(split)
    N = max((len(s) for s in rep_splits), default=0)

    locals_: dict[tuple, RadPoly] = {}
    for rep_id, orbit in enumerate(orbits):
        for site, beta in orbit:
            if sep.locals.get(site, {}).get(beta) is None:
                continue
            c_val = math.sqrt(solution.C(site, beta))
            for k, tau in enumerate(rep_splits[rep_id]):
                locals_[(site, (rep_id, k), beta)] = tau.to_float().scaled(c_val)
    members = [(ell, k) for ell in range(len(orbits)) for k in range(N)]
    return SosOmegaGDecomposition(sep.complex, sep.action, sep.index_size, sep.site_vars,
                                  members, locals_)
