"""The benchmark's workloads: seeded inputs, one callable per operation.

Every workload is a list of rounds. A round is a fixed mix of operations, so
that the share of each kind of operation is the same in every run whatever
the seed; only the generated coefficients, matrices and families change with
the seed. An operation returns None when its verdict matches the reference and
a short reason otherwise; an exception also counts as a failure.

The library is imported inside `setup`, so that the set-up time the benchmark
reports includes importing it.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

import oracle

WORKLOADS = ("exact_free", "exact_blending", "cli_fixtures", "numeric_certify")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


@dataclass
class Op:
    name: str
    run: Callable[[], str | None]
    known_defect: bool = False


@dataclass
class Workload:
    rounds: list[list[Op]]
    counters: Counter = field(default_factory=Counter)
    close: Callable[[], None] = lambda: None
    in_process: bool = True     # False when operations run in child interpreters


def setup(name: str, seed: int, *, tiny: bool = False, plant: bool = False,
          inprocess: bool = False) -> Workload:
    """Import the library and generate the inputs of one workload.

    `tiny` keeps only the cheapest operations of each kind and `plant` corrupts
    every reference answer; both exist for the benchmark's own test. For
    `cli_fixtures`, `inprocess` calls `omegadec.cli.main` instead of starting
    an interpreter per command.
    """
    if name == "exact_free":
        return _exact_free(seed, tiny, plant)
    if name == "exact_blending":
        return _exact_blending(seed, tiny, plant)
    if name == "numeric_certify":
        return _numeric(seed, tiny, plant)
    if name == "cli_fixtures":
        import clicases
        return clicases.setup(seed, tiny=tiny, plant=plant, inprocess=inprocess)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def child_env() -> dict:
    """Environment for a child interpreter that imports omegadec from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


# shared generation -----------------------------------------------------------

POOL_ROUNDS = 3  # distinct instance sets per run, cycled round by round


def random_factor(rng: random.Random, deg: int) -> dict[int, Fraction]:
    """Univariate coefficients, all nonzero small integers.

    Nonzero so that term counts do not vary by seed; integers because the cost
    of Fraction arithmetic grows with denominators, which would make the cost
    of an operation depend on the seed.
    """
    return {d: Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for d in range(deg + 1)}


def close_terms(raw, action) -> list[tuple[dict, ...]]:
    """The distinct images of each raw term under the action's vertex permutations."""
    V = action.complex.vertex_count
    seen = set()
    closed = []
    for term in raw:
        for g in range(len(action)):
            moved = [None] * V
            for i in range(V):
                moved[action.vertex_image(g, i)] = term[i]
            key = tuple(tuple(sorted(f.items())) for f in moved)
            if key not in seen:
                seen.add(key)
                closed.append(tuple(moved))
    return closed


def random_points(rng: random.Random, V: int, count: int = 3):
    return [tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(V))
            for _ in range(count)]


def perturbed(terms):
    """Copy of `terms` with one coefficient off by one: a planted wrong reference."""
    first = dict(terms[0][0])
    first[0] += 1
    return [(first,) + tuple(terms[0][1:])] + list(terms[1:])


def poly_terms(terms):
    from omegadec import BlockPolynomial
    return [tuple(BlockPolynomial.univar(f) for f in term) for term in terms]


def _check_values(got_at, ref_terms, points) -> str | None:
    for pt in points:
        got, want = got_at(pt), oracle.sum_of_products(ref_terms, pt)
        if got != want:
            return f"value at {pt} is {got}, reference {want}"
    return None


# exact_free ------------------------------------------------------------------

# (config, operations per round, factor degree, raw terms). Circle rotations
# n = 3..6 and free refinements of simplex actions, all with |G| <= 6. The mix
# puts the median among the s3/circle4 operations and the 75th percentile
# among the circle5/circle6 ones, so neither sits on the edge between two
# kinds of operation.
FREE_ROUND = [("s2", 1, 2, 2), ("c3", 1, 2, 2), ("circle3", 2, 2, 2), ("s3", 1, 2, 2),
              ("circle4", 3, 2, 2), ("circle5", 3, 2, 1), ("circle6", 1, 1, 2)]
FREE_TINY = [("s2", 1, 2, 2), ("c3", 1, 2, 2), ("circle3", 1, 2, 2)]


def free_actions():
    from omegadec import build_action, free_refinement, standard_complex
    actions = {}
    for n in (3, 4, 5, 6):
        shift = tuple((i + 1) % n for i in range(n))
        actions[f"circle{n}"] = build_action(standard_complex("circle", n), [(shift, shift)])
    actions["s2"] = free_refinement(build_action(standard_complex("simplex", 1),
                                                 [((1, 0), (0,))]))
    simplex2 = standard_complex("simplex", 2)
    actions["c3"] = free_refinement(build_action(simplex2, [((1, 2, 0), (0,))]))
    actions["s3"] = free_refinement(build_action(simplex2, [((1, 0, 2), (0,)),
                                                            ((1, 2, 0), (0,))]))
    return actions


def _exact_free(seed: int, tiny: bool, plant: bool) -> Workload:
    from omegadec import symmetrize_free
    rng = random.Random(f"exact_free:{seed}")
    actions = free_actions()
    plan = FREE_TINY if tiny else FREE_ROUND

    def make(cfg: str, idx: int, deg: int, r: int) -> Op:
        a = actions[cfg]
        V = a.complex.vertex_count
        raw = [tuple(random_factor(rng, deg) for _ in range(V)) for _ in range(r)]
        terms = close_terms(raw, a)
        ref = perturbed(terms) if plant else terms
        polys = poly_terms(terms)
        points = random_points(rng, V)

        def run() -> str | None:
            dec = symmetrize_free(polys, a)
            got = dec.contract().as_polynomial()
            bad = _check_values(lambda pt: oracle.poly_value(got, pt), ref, points)
            if bad:
                return bad
            if dec.index_size != len(a) * len(terms):
                return f"index size {dec.index_size}"
            if not dec.check_symmetry():
                return "check_symmetry is false"
            return None

        return Op(f"{cfg}#{idx}", run)

    rounds = [[make(cfg, i, deg, r) for cfg, count, deg, r in plan for i in range(count)]
              for _ in range(POOL_ROUNDS)]
    return Workload(rounds)


# exact_blending --------------------------------------------------------------

# (simplex dimension n, operations per round, raw terms, factor pattern). The
# full symmetric group on n+1 vertices has order 2, 6, 24. For n = 3 the raw
# term repeats one factor on three sites, so its orbit has 4 distinct terms
# instead of 24; the build still sums over all 24 group elements. Median and
# 75th percentile both fall among the n = 2 operations.
BLEND_ROUND = [(1, 6, 2, None), (2, 8, 1, None), (3, 2, 1, (0, 0, 0, 1))]
BLEND_TINY = [(1, 1, 2, None), (2, 1, 1, None)]


def blending_actions():
    from omegadec import build_action, standard_complex
    actions = {}
    for n in (1, 2, 3):
        swap = tuple([1, 0] + list(range(2, n + 1)))
        cycle = tuple(list(range(1, n + 1)) + [0])
        actions[n] = build_action(standard_complex("simplex", n), [(swap, (0,)), (cycle, (0,))])
    return actions


def _exact_blending(seed: int, tiny: bool, plant: bool) -> Workload:
    from omegadec import blending_difference
    rng = random.Random(f"exact_blending:{seed}")
    actions = blending_actions()
    plan = BLEND_TINY if tiny else BLEND_ROUND

    def make(n: int, idx: int, r: int, pattern) -> Op:
        a = actions[n]
        V = n + 1
        raw = []
        for _ in range(r):
            factors = [random_factor(rng, 2) for _ in range(V)]
            raw.append(tuple(factors[k] for k in pattern) if pattern else tuple(factors))
        terms = close_terms(raw, a)
        ref = perturbed(terms) if plant else terms
        polys = poly_terms(terms)
        points = random_points(rng, V)

        def run() -> str | None:
            q1, q2 = blending_difference(polys, a)
            p1, p2 = q1.contract().as_polynomial(), q2.contract().as_polynomial()
            bad = _check_values(lambda pt: oracle.poly_value(p1, pt) - oracle.poly_value(p2, pt),
                                ref, points)
            if bad:
                return bad
            if not (q1.check_symmetry() and q2.check_symmetry()):
                return "check_symmetry is false"
            if n % 2 == 0 and q2.local_count():
                return "subtracted part is not empty for even n"
            return None

        return Op(f"simplex{n}#{idx}", run)

    rounds = [[make(n, i, r, pattern) for n, count, r, pattern in plan for i in range(count)]
              for _ in range(POOL_ROUNDS)]
    return Workload(rounds)


# numeric_certify -------------------------------------------------------------

# Six operations at d = 3 put the round's median well inside one interpreter-
# bound kind. Below them are six faster operations, among them the numpy-bound
# verbatim approximation; a median among those mixed the kinds, and the kinds
# change speed differently when the machine does.
SOS_DEGREES = (1, 2, 3, 3, 3, 3, 3, 3)
FAMILIES = ((2, 2, 8), (3, 3, 5), (2, 3, 6))    # (D, m, n_max)
DISTANCE_SIZES = (4, 8, 12)
SEPARATIONS_SIZE = 4
APPROX_EPSILON = 1.5                             # budget ceil(8e^4/eps^2) = 195 draws
SAMPLING_TERMS = 300                             # more than the budget: sampling path


def _random_witness(nrng: np.random.Generator, terms: int):
    """Swap-invariant separable Gram witness on two sites, m = 2, d = 1 (D = 3)."""
    from omegadec.approx import SeparableGram
    from omegadec.positivity import GramRepresentation
    D = 3
    raw = []
    for _ in range(terms // 2):
        fs = []
        for _ in range(2):
            A = nrng.normal(size=(D, D))
            F = A @ A.T
            fs.append(F / np.trace(F))
        raw.append((float(nrng.random()) + 0.1, fs))
    total = sum(w for w, _ in raw)
    entries = np.zeros((D * D, D * D))
    out = []
    for w, (f0, f1) in raw:
        w = w / total / 2.0
        out += [(w, [f0, f1]), (w, [f1, f0])]
        entries += w * (np.kron(f0, f1) + np.kron(f1, f0))
    return SeparableGram(GramRepresentation(1, 2, 1, entries), out)


def _numeric(seed: int, tiny: bool, plant: bool) -> Workload:
    from omegadec import bipartite_rank, build_action, standard_complex
    from omegadec.approx import approx_separable, sample_budget
    from omegadec.familycheck import LocalFamily, bounded_positivity_check
    from omegadec.positivity import GramRepresentation, gram_map, invariant_sos_family
    from omegadec.tensorbridge import (poly_from_tensor, psd_distance_factorization,
                                       separations_report)

    nrng = np.random.default_rng([seed, 4])
    swap = build_action(standard_complex("double_edge"), [((1, 0), (1, 0))])
    off = 1 if plant else 0

    def sos_op(d: int, idx: int) -> Op:
        dim = (d + 1) ** 2
        A = nrng.normal(size=(dim, dim))
        M0 = A @ A.T
        perm = [b * (d + 1) + a for a in range(d + 1) for b in range(d + 1)]
        M = 0.5 * (M0 + M0[np.ix_(perm, perm)])
        gram = GramRepresentation(1, 1, d, M)
        ref = oracle.gram_polynomial(M, 2, 1, d)
        if plant:
            key = next(iter(ref))
            ref[key] += 1e-3

        def run() -> str | None:
            family = invariant_sos_family(gram, swap)
            if not oracle.coeffs_close(family.sum_squares().terms, ref, 1e-9):
                return "sum of squares differs from the Gram polynomial"
            if not oracle.coeffs_close(gram_map(gram).terms, ref, 1e-9):
                return "gram_map differs from the Gram polynomial"
            if not family.family_invariant(swap, 1e-9):
                return "family is not invariant"
            return None

        return Op(f"sos_d{d}#{idx}", run)

    def approx_op(terms: int, epsilon: float, idx: int) -> Op:
        sg = _random_witness(nrng, terms)
        draw_seed = int(nrng.integers(1 << 30))
        budget = sample_budget(epsilon)
        sampling = terms > budget

        def run() -> str | None:
            res = approx_separable(sg, swap, epsilon, seed=draw_seed)
            err = float(np.linalg.norm(sg.gram.entries - res.approximant)) + off
            if not abs(err - res.error_schatten2) <= 1e-12 * (1.0 + err):
                return f"reported error {res.error_schatten2} != recomputed {err}"
            limit = epsilon if sampling else 1e-9
            if not err < limit:
                return f"error {err} not below {limit}"
            if res.decomposition.index_size > budget * len(swap):
                return f"index size {res.decomposition.index_size} over budget"
            used_ok = res.terms_used < terms if sampling else res.terms_used == terms
            if not used_ok:
                return f"{res.terms_used} terms used of {terms}"
            return None

        return Op(f"approx_{'sampling' if sampling else 'verbatim'}#{idx}", run)

    def family_op(D: int, m: int, n_max: int, idx: int) -> Op:
        # entries in {-1, 0, 1} keep every trace a small int, so the cost of the
        # check does not depend on how fast a seed's products grow
        coeffs = nrng.integers(-1, 2, size=(D, D, m))
        fam = LocalFamily(D, m, coeffs.tolist())

        def run() -> str | None:
            report = bounded_positivity_check(fam, n_max)
            first = None
            for size in report.sizes:
                T = oracle.trace_tensor(coeffs.astype(np.int64), size.n)
                low = int(T.min()) + off
                if size.min_entry != low or int(T[tuple(size.witness)]) != size.min_entry:
                    return f"n={size.n}: min {size.min_entry} at {size.witness}, reference {low}"
                if first is None and low < 0:
                    first = size.n
            if [s.n for s in report.sizes] != list(range(1, n_max + 1)):
                return "sizes checked differ from 1..n_max"
            if report.first_violation != first:
                return f"first violation {report.first_violation}, reference {first}"
            return None

        return Op(f"family_D{D}m{m}#{idx}", run)

    def psd_op(m: int, idx: int) -> Op:
        want = oracle.distance_entries(m)
        rank = int(np.linalg.matrix_rank(want.astype(float))) + off

        def run() -> str | None:
            fact = psd_distance_factorization(m)
            t = fact.contract()
            got = np.array([int(x) for x in t.entries]).reshape(t.dims)
            if not np.array_equal(got, want):
                return "contraction differs from (i-j)^2"
            if fact.index_size != 2 or not fact.check_psd():
                return "psd index is not 2"
            got_rank = bipartite_rank(poly_from_tensor(t))
            if got_rank != rank or rank != 3:
                return f"bipartite rank {got_rank}, reference {rank}"
            return None

        return Op(f"psd_m{m}#{idx}", run)

    def separations_op(m: int, idx: int) -> Op:
        # the CLI's default seed: how many restarts the nonnegative-rank search
        # needs depends on it, and with it the cost of this operation
        report_seed = 0
        rank = int(np.linalg.matrix_rank(oracle.distance_entries(m).astype(float))) + off
        lower = (m - 1).bit_length()

        def run() -> str | None:
            rep = separations_report(m, seed=report_seed)
            if (rep["bipartite_rank"], rep["psd_index"], rep["psd_verified"]) != (rank, 2, True):
                return f"rank {rep['bipartite_rank']} psd {rep['psd_index']}, reference {rank} 2"
            if rep["nn_lower_bound"] != lower or not lower <= rep["nn_upper_bound"] <= m:
                return f"nn bounds {rep['nn_lower_bound']}..{rep['nn_upper_bound']}"
            return None

        return Op(f"separations_m{m}#{idx}", run)

    def one_round(idx: int) -> list[Op]:
        if tiny:
            return [sos_op(1, idx), approx_op(20, 0.5, idx), family_op(2, 2, 4, idx),
                    psd_op(4, idx)]
        ops = [sos_op(d, idx) for d in SOS_DEGREES]
        ops += [approx_op(20, 0.5, idx), approx_op(SAMPLING_TERMS, APPROX_EPSILON, idx)]
        ops += [family_op(D, m, n_max, idx) for D, m, n_max in FAMILIES]
        ops += [psd_op(m, idx) for m in DISTANCE_SIZES]
        ops.append(separations_op(SEPARATIONS_SIZE, idx))
        return ops

    return Workload([one_round(i) for i in range(POOL_ROUNDS)])
