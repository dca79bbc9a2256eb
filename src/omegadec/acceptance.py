"""Acceptance suite: one callable per criterion, shared by pytest and the CLI."""

from __future__ import annotations

import math
import string
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import fixtures
from .blockpoly import BlockPolynomial
from .complexes import standard_complex
from .decomposition import (
    OmegaGDecomposition,
    bipartite_rank,
    blending_difference,
    elementary_sum,
    symmetrize_free,
)
from .familycheck import LocalFamily
from .familycheck import (
    UNDECIDED_DISCLAIMER,
    bounded_positivity_check,
    transfer_tensor,
)
from .positivity import (
    GramRepresentation,
    factorizability_solve,
    gram_map,
    invariant_sos_family,
    psd_floor,
    sep_to_sos,
    sos_to_plain,
)
from .approx import SeparableGram, approx_separable, empirical_matrix_error, sample_budget
from .radpoly import RadPoly
from .symmetry import build_action, free_refinement
from .tensorbridge import (
    distance_matrix,
    distance_nn_lower_bound,
    poly_from_tensor,
    psd_distance_factorization,
)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number}: {self.name} -- {self.details}"


# random invariant instances ------------------------------------------------

def _random_terms(rng: np.random.Generator, sites: int, count: int, deg: int = 2):
    terms = []
    for _ in range(count):
        term = []
        for _ in range(sites):
            coeffs = {d: Fraction(int(rng.integers(-2, 3))) for d in range(deg + 1)}
            poly = BlockPolynomial.univar(coeffs)
            if poly.is_zero():
                poly = BlockPolynomial.univar({0: Fraction(1)})
            term.append(poly)
        terms.append(tuple(term))
    return terms


def _close_under_action(terms, action):
    sites = action.complex.vertex_count
    closed = []
    for term in terms:
        for g in range(len(action)):
            moved = [None] * sites
            for i in range(sites):
                moved[action.vertex_image(g, i)] = term[i]
            closed.append(tuple(moved))
    return closed


# criteria ------------------------------------------------------------------

def criterion_1() -> CriterionResult:
    dec = fixtures.quartic_double_edge_decomposition()
    target = RadPoly.from_poly(fixtures.quartic_target_polynomial())
    got = dec.contract()
    ok = got == target and dec.check_symmetry()
    return CriterionResult(1, "double-edge worked example contracts exactly",
                           ok, "exact match" if ok else f"got {got!r}")


def criterion_2() -> CriterionResult:
    target = RadPoly.from_poly(fixtures.squares_target_polynomial())
    q1, q2 = fixtures.squares_difference_pair()
    diff_ok = (q1.contract() - q2.contract()) == target
    sym_ok = q1.check_symmetry() and q2.check_symmetry()
    dd = fixtures.squares_double_edge_decomposition()
    dd_ok = dd.contract() == target and dd.check_symmetry()
    ok = diff_ok and sym_ok and dd_ok
    return CriterionResult(2, "x^2+y^2 difference and double-edge fixtures",
                           ok, f"difference={diff_ok} double_edge={dd_ok}")


def criterion_3() -> CriterionResult:
    rng = np.random.default_rng(2024_03)
    checked = 0
    failures = []
    configs = []
    for n in (3, 4, 5):
        configs += [("circle", n)] * 12
    configs += [("simplex_s2", 1)] * 7 + [("simplex_c3", 2)] * 7
    for cfg_id, (kind, n) in enumerate(configs):
        if kind == "circle":
            action = fixtures.circle_rotation_action(n)
        elif kind == "simplex_s2":
            base = build_action(standard_complex("simplex", 1), [((1, 0), (0,))])
            action = free_refinement(base)
        else:
            base = build_action(standard_complex("simplex", 2), [((1, 2, 0), (0,))])
            action = free_refinement(base)
        sites = action.complex.vertex_count
        raw = _random_terms(rng, sites, 2)
        terms = _close_under_action(raw, action)
        dec = symmetrize_free(terms, action)
        target = elementary_sum(terms)
        got = dec.contract()
        if not (got == target and dec.index_size <= len(action) * len(terms)
                and dec.check_symmetry()):
            failures.append(cfg_id)
        checked += 1
    ok = checked == 50 and not failures
    return CriterionResult(3, "free symmetrization exact on 50 instances", ok,
                           f"{checked - len(failures)}/50 exact" if ok else f"failed ids {failures}")


def criterion_4() -> CriterionResult:
    rng = np.random.default_rng(2024_04)
    failures = []
    plan = [(1, 8, 2), (2, 7, 2), (3, 5, 1)]
    total = 0
    for n, instances, r in plan:
        action = fixtures.simplex_full_symmetry_action(n)
        for _ in range(instances):
            raw = _random_terms(rng, n + 1, r)
            terms = _close_under_action(raw, action)
            target = elementary_sum(terms)
            q1, q2 = blending_difference(terms, action)
            good = (q1.contract() - q2.contract()) == target
            good = good and q1.check_symmetry() and q2.check_symmetry()
            if n % 2 == 0:
                good = good and q2.local_count() == 0
            if not good:
                failures.append((n, total))
            total += 1
    ok = total == 20 and not failures
    return CriterionResult(4, "blending difference exact on 20 simplex instances",
                           ok, f"{total - len(failures)}/20 exact" if ok else f"failed {failures}")


def criterion_5() -> CriterionResult:
    started = time.monotonic()
    rng = np.random.default_rng(2024_05)
    action = fixtures.double_edge_swap_action()
    failures = 0
    for trial in range(20):
        d = 1 + trial % 2
        dim = (d + 1) ** 2
        A = rng.normal(size=(dim, dim))
        M0 = A @ A.T
        g1 = GramRepresentation(1, 1, d, M0)
        sym = 0.5 * (g1.entries + g1.permuted((1, 0)).entries)
        gram = GramRepresentation(1, 1, d, sym)
        family = invariant_sos_family(gram, action)
        if not family.sum_squares().allclose(gram_map(gram), 1e-9):
            failures += 1
            continue
        if not family.family_invariant(action, 1e-9):
            failures += 1
    elapsed = time.monotonic() - started
    ok = failures == 0 and elapsed < 10.0
    details = f"failures={failures}"
    if elapsed >= 10.0:     # named only on a failure, so a passing report is reproducible
        details += f" elapsed={elapsed:.2f}s"
    return CriterionResult(5, "invariant sos pipeline on 20 random Gram matrices", ok, details)


def criterion_6() -> CriterionResult:
    problems = []
    for m in (4, 8, 12):
        t = distance_matrix(m)
        rank = bipartite_rank(poly_from_tensor(t))
        if rank != 3:
            problems.append(f"m={m} rank={rank}")
        fact = psd_distance_factorization(m)
        if not (fact.contract() == t and fact.check_psd() and fact.index_size == 2):
            problems.append(f"m={m} psd factorization")
        lower = distance_nn_lower_bound(m)
        if lower != math.ceil(math.log2(m)):
            problems.append(f"m={m} nn lower {lower}")
    ok = not problems
    return CriterionResult(6, "distance-matrix rank separations", ok,
                           "rank=3, psd index 2, nn lower bounds match" if ok else "; ".join(problems))


def criterion_7() -> CriterionResult:
    problems = []
    fixed = fixtures.double_edge_fixed_vertex_action()
    sol = factorizability_solve(fixed.complex, fixed, 2)
    if sol is None or sol.residual > 1e-10:
        problems.append("fixed-vertex solve failed")
    else:
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        for site in (0, 1):
            if abs(sol.C(site, (1, 1)) - 1.0) > 1e-9 or abs(sol.C(site, (2, 2)) - 1.0) > 1e-9:
                problems.append(f"site {site} diagonal constants")
            if abs(sol.C(site, (1, 2)) - inv_sqrt2) > 1e-9 or abs(sol.C(site, (2, 1)) - inv_sqrt2) > 1e-9:
                problems.append(f"site {site} off-diagonal constants")
    free_instances = [fixtures.double_edge_swap_action(),
                      fixtures.circle_rotation_action(3),
                      fixtures.circle_rotation_action(4)]
    for idx, action in enumerate(free_instances):
        sol = factorizability_solve(action.complex, action, 2)
        if sol is None or sol.residual > 1e-10:
            problems.append(f"free instance {idx} infeasible")
        elif any(abs(v - 1.0) > 1e-9 for v in sol.values.values()):
            problems.append(f"free instance {idx} constants differ from 1")
    ok = not problems
    return CriterionResult(7, "overcount splitting constants", ok,
                           "C=(1, 1/sqrt2) and free instances give 1" if ok else "; ".join(problems))


def criterion_8() -> CriterionResult:
    problems = []
    witness = fixtures.sos_family_witness_double_edge()
    plain = sos_to_plain(witness)
    if plain.index_size > witness.index_size**2:
        problems.append("plain index exceeds square")
    if not plain.contract() == witness.sum_squares():
        problems.append("plain contraction mismatch")

    sep = fixtures.squares_double_edge_decomposition()
    sol = factorizability_solve(sep.complex, sep.action, sep.index_size)
    if sol is None:
        problems.append("free double edge not factorizable")
    else:
        sos = sep_to_sos(sep, sol)
        if sos.index_size > sep.index_size:
            problems.append("sos index exceeds sep index")
        target = sep.contract().to_float()
        if not sos.sum_squares().to_float().allclose(target, 1e-9):
            problems.append("sep->sos reconstruction error")

    fixed = fixtures.double_edge_fixed_vertex_action()
    t2 = BlockPolynomial.univar({2: Fraction(1)})
    one = BlockPolynomial.univar({0: Fraction(1)})
    locs = {(1, 1): t2, (1, 2): one, (2, 1): one}
    sep2 = OmegaGDecomposition(fixed.complex, fixed, 2, (1, 1),
                               {0: dict(locs), 1: dict(locs)})
    sol2 = factorizability_solve(fixed.complex, fixed, 2)
    if sol2 is None:
        problems.append("fixed-vertex not factorizable")
    else:
        sos2 = sep_to_sos(sep2, sol2)
        if not sos2.sum_squares().to_float().allclose(sep2.contract().to_float(), 1e-9):
            problems.append("weighted sep->sos reconstruction error")
        if sos2.index_size > sep2.index_size:
            problems.append("weighted sos index exceeds sep index")
    ok = not problems
    return CriterionResult(8, "rank inequality chain on generated witnesses", ok,
                           "plain<=sos^2 and sos<=sep hold with exact/1e-9 contraction"
                           if ok else "; ".join(problems))


def _random_separable_witness(rng: np.random.Generator, terms: int = 20) -> SeparableGram:
    m, d = 2, 1
    D = 3
    raw = []
    for _ in range(terms // 2):
        fs = []
        for _ in range(2):
            A = rng.normal(size=(D, D))
            F = A @ A.T
            fs.append(F / np.trace(F))
        raw.append((float(rng.random()) + 0.1, fs))
    total = sum(w for w, _ in raw)
    entries = np.zeros((D * D, D * D))
    terms_out = []
    for w, (f0, f1) in [(w / total, fs) for w, fs in raw]:
        terms_out.append((w / 2.0, [f0, f1]))
        terms_out.append((w / 2.0, [f1, f0]))
        entries += w / 2.0 * (np.kron(f0, f1) + np.kron(f1, f0))
    gram = GramRepresentation(1, m, d, entries)
    return SeparableGram(gram, terms_out)


def _quadratic_form_matrix(p: BlockPolynomial) -> np.ndarray:
    """Coefficient matrix of a single-site homogeneous quadratic form."""
    m = p.sites[0]
    mat = np.zeros((m, m))
    for (block,), coeff in p.astype_float().terms.items():
        nz = [(j, e) for j, e in enumerate(block) if e]
        if len(nz) == 1 and nz[0][1] == 2:
            mat[nz[0][0], nz[0][0]] += coeff
        elif len(nz) == 2 and nz[0][1] == nz[1][1] == 1:
            mat[nz[0][0], nz[1][0]] += coeff / 2.0
            mat[nz[1][0], nz[0][0]] += coeff / 2.0
        else:
            raise ValueError(f"not a quadratic form term: {block}")
    return mat


def criterion_9() -> CriterionResult:
    action = fixtures.double_edge_swap_action()
    epsilon = 0.5
    hits = 0
    cone_ok = True
    sym_ok = True
    budget = sample_budget(epsilon) * 2
    for seed in range(20):
        rng = np.random.default_rng(900 + seed)
        sg = _random_separable_witness(rng)
        result = approx_separable(sg, action, epsilon, seed=seed)
        if result.error_schatten2 < epsilon and result.decomposition.index_size <= budget:
            hits += 1
        sym_ok = sym_ok and result.decomposition.check_symmetry()
        for mapping in result.decomposition.locals.values():
            for poly in mapping.values():
                mat = _quadratic_form_matrix(poly.to_float())
                lo, bound = psd_floor(mat, 1e-8)
                if lo < bound:
                    cone_ok = False
    # a witness larger than the draw budget forces the sampling path
    big = _random_separable_witness(np.random.default_rng(777), terms=4000)
    sampled = approx_separable(big, action, epsilon, seed=99)
    sampled_ok = (sampled.terms_used < len(big.weights)
                  and sampled.error_schatten2 < epsilon
                  and sampled.decomposition.index_size <= budget)
    slope_rng = np.random.default_rng(424242)
    ks = (100, 1000, 10000)
    sg = _random_separable_witness(np.random.default_rng(31337))
    means = []
    for k in ks:
        errs = [empirical_matrix_error(sg, k, slope_rng, action) for _ in range(10)]
        means.append(float(np.mean(errs)))
    slope = float(np.polyfit(np.log10(ks), np.log10(means), 1)[0])
    slope_ok = -0.6 <= slope <= -0.4
    ok = hits >= 19 and slope_ok and cone_ok and sym_ok and sampled_ok
    return CriterionResult(9, "sampling approximation error and decay rate", ok,
                           f"hits={hits}/20 slope={slope:.3f} sampled_path={sampled_ok} "
                           f"cone={cone_ok} symmetry={sym_ok}")


def _brute_force_transfer(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Independent contraction oracle via einsum over the bond indices."""
    D, _, m = coeffs.shape
    letters = string.ascii_lowercase
    bonds = letters[:n + 2]
    outs = string.ascii_uppercase[:n + 1]
    specs = []
    for i in range(n + 1):
        right = bonds[0] if i == n else bonds[i + 1]
        specs.append(f"{bonds[i]}{right}{outs[i]}")
    eq = ",".join(specs) + "->" + outs
    return np.einsum(eq, *([coeffs] * (n + 1)))


def criterion_10() -> CriterionResult:
    problems = []
    rng = np.random.default_rng(2024_10)
    for D in (1, 2, 3):
        for m in (1, 2, 3):
            for n in range(0, 6):
                coeffs = rng.integers(-3, 4, size=(D, D, m))
                fam = LocalFamily(D, m, coeffs.tolist())
                mine = transfer_tensor(fam, n)
                oracle = _brute_force_transfer(coeffs.astype(np.int64), n)
                got = np.array([int(x) for x in mine.entries]).reshape(mine.dims)
                if not np.array_equal(got, oracle):
                    problems.append(f"D={D} m={m} n={n}")
    planted = fixtures.planted_negative_family()
    report = bounded_positivity_check(planted, 4)
    if report.first_violation != 1:
        problems.append(f"planted violation at {report.first_violation}")
    elif report.sizes[0].witness != (0, 1):
        problems.append(f"planted witness {report.sizes[0].witness}")
    if UNDECIDED_DISCLAIMER not in report.disclaimer:
        problems.append("missing disclaimer")
    clean = bounded_positivity_check(fixtures.nonnegative_family(), 4)
    if clean.violation_found:
        problems.append("clean family flagged")

    from .cli import main as cli_main
    import contextlib
    import io
    import json
    import tempfile
    import os
    with tempfile.TemporaryDirectory() as tmp:
        planted_path = os.path.join(tmp, "planted.json")
        clean_path = os.path.join(tmp, "clean.json")
        with open(planted_path, "w") as fh:
            json.dump(planted.to_obj(), fh)
        with open(clean_path, "w") as fh:
            json.dump(fixtures.nonnegative_family().to_obj(), fh)
        with contextlib.redirect_stdout(io.StringIO()):
            code_bad = cli_main(["family", "check", planted_path, "--n-max", "4"])
            code_good = cli_main(["family", "check", clean_path, "--n-max", "4"])
    if code_bad != 1:
        problems.append(f"planted exit code {code_bad}")
    if code_good != 0:
        problems.append(f"clean exit code {code_good}")
    ok = not problems
    return CriterionResult(10, "transfer tensors, planted violation, exit codes",
                           ok, "oracle match and contract honored" if ok else "; ".join(problems))


ALL_CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
                criterion_6, criterion_7, criterion_8, criterion_9, criterion_10]


def run_all(printer=print) -> list[CriterionResult]:
    results = []
    for fn in ALL_CRITERIA:
        res = fn()
        results.append(res)
        if printer is not None:
            printer(res.line())
    return results
