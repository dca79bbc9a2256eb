"""Sos family decompositions keep one member range and store their locals by
site, then member.

`SosOmegaGDecomposition` takes one member range that every site shares and
stores its locals as {site: {member value: {assignment: local}}}, each site's
member values in range order. Its input still keys each local (site, member
value, assignment). A seeded differential keeps the loops that read the flat
layout as oracles: `ref_member`, `ref_sum_squares`, `ref_sos_to_plain` and
`ref_psd_mats` run on the nonzero input locals in input order, and
`locals_agree` on the same flat dict gives the joint-symmetry verdict. The
cases are the seeded `random_sos` inputs, under the trivial group and the
swap, both sos fixtures (one also with a local moved off its orbit), and the
sos families that `tensor_dec_to_poly_dec` builds, whose stored locals are
read back flat. Each runs in its input order and in a seeded shuffle of it.
Every member, `sum_squares`, the plain decomposition of `sos_to_plain` (its
`to_obj`, its local order and float bits), the joint-symmetry verdict and the
psd matrices of `poly_dec_to_tensor_dec`, or its error, are identical.
"""

import random
from itertools import product

import numpy as np
import pytest

from omegadec.decomposition import OmegaGDecomposition, locals_agree, pair_assignment
from omegadec.errors import NotCanonicalForm
from omegadec.fixtures import single_edge_swap_action, sos_family_witness_double_edge
from omegadec.positivity import SosOmegaGDecomposition, sos_to_plain
from omegadec.radpoly import RadPoly, RadSum
from omegadec.symmetry import trivial_action
from omegadec.tensorbridge import (
    PSD,
    TensorDecomposition,
    poly_dec_to_tensor_dec,
    psd_distance_factorization,
    tensor_dec_to_poly_dec,
)
from radref import structure
from test_entry_checks import SINGLE_EDGE, locals_structure, random_sos_input
from test_positivity import psd_sos_out_of_member_order, sos_family_witness_single_edge
from test_tensorbridge import swap_psd


def ref_member(sos, stored, K):
    """The contraction of the site-i locals of member value K[i], met by a scan
    of every local."""
    locals_ = {}
    for (site, k, beta), poly in stored.items():
        if k == K[site]:
            locals_.setdefault(site, {})[beta] = poly
    return OmegaGDecomposition(sos.complex, sos.action, sos.index_size, sos.site_vars,
                               locals_, sos.scale, _trusted=True).contract()


def ref_sum_squares(sos, stored):
    acc = RadSum(sos.site_vars)
    for K in product(sos.members, repeat=len(sos.site_vars)):
        q = ref_member(sos, stored, K)
        if not q.is_zero():
            acc.add(q * q)
    return acc.result()


def ref_sos_to_plain(sos, stored):
    """The locals regrouped by site and member value, each site's member values
    summed in range order."""
    I = sos.index_size
    per_site = {}
    for (site, k, beta), poly in stored.items():
        per_site.setdefault(site, {}).setdefault(k, {})[beta] = poly
    locals_ = {}
    for site, by_k in per_site.items():
        sums = {}
        for mapping in (by_k[k] for k in sos.members if k in by_k):
            for b1, p1 in mapping.items():
                for b2, p2 in mapping.items():
                    sums.setdefault(pair_assignment(b1, b2, I), RadSum(p1.sites)).add(p1 * p2)
        locals_[site] = {key: acc.result() for key, acc in sums.items()}
    return OmegaGDecomposition(sos.complex, sos.action, I * I, sos.site_vars,
                               locals_, sos.scale**2, _trusted=True)


def ref_psd_mats(sos, stored):
    """The psd matrices of the linear locals, each site's rows and support
    found by a scan of every local."""
    m = sos.site_vars[0]
    psd_mats = {}
    for i in range(sos.complex.vertex_count):
        rows = sorted({k for (site, k, _) in stored if site == i}, key=repr)
        support = sorted({beta for (site, _, beta) in stored if site == i})
        B = {j: np.zeros((len(rows), len(support))) for j in range(m)}
        bpos = {b: idx for idx, b in enumerate(support)}
        kpos = {k: idx for idx, k in enumerate(rows)}
        for (site, k, beta), poly in stored.items():
            if site != i:
                continue
            p = poly.scale_mul(sos.scale).to_float()
            for (block,), coeff in p.terms.items():
                nz = [(j, e) for j, e in enumerate(block) if e]
                if len(nz) != 1 or nz[0][1] != 1:
                    raise NotCanonicalForm("psd conversion needs linear locals")
                B[nz[0][0]][kpos[k], bpos[beta]] += coeff
        for j in range(m):
            E = B[j].T @ B[j]
            psd_mats[(i, j)] = {(b1, b2): float(E[r, s])
                                for r, b1 in enumerate(support)
                                for s, b2 in enumerate(support) if E[r, s] != 0.0}
    return TensorDecomposition(PSD, sos.complex, sos.action, sos.index_size, m,
                               psd_mats=psd_mats).psd_mats


def flat(sos):
    """The stored locals read back flat, keyed (site, member value, assignment)."""
    return {(site, k, beta): p for site, by_k in sos.locals.items()
            for k, mapping in by_k.items() for beta, p in mapping.items()}


def outcome(f, *args):
    """The psd matrices, key order and float bits included, or the error."""
    try:
        mats = f(*args)
    except NotCanonicalForm as exc:
        return type(exc).__name__, str(exc)
    return [(key, [(pair, v.hex()) for pair, v in mat.items()]) for key, mat in mats.items()]


def random_case(seed, action):
    locals_, scale = random_sos_input(random.Random(f"sos-layout-{seed}"))
    return (SINGLE_EDGE, action, 2, (1, 1), (0, 1), locals_, scale)


def moved_off_its_orbit():
    """The double-edge fixture with one local doubled, so joint symmetry fails."""
    sos = sos_family_witness_double_edge()
    locals_ = flat(sos)
    key = next(iter(locals_))
    locals_[key] = locals_[key].scaled(2)
    return (sos.complex, sos.action, sos.index_size, sos.site_vars, sos.members, locals_,
            sos.scale)


def stored_case(sos):
    return (sos.complex, sos.action, sos.index_size, sos.site_vars, sos.members, flat(sos),
            sos.scale)


CASES = (
    [(f"random-{seed}-trivial", lambda s=seed: random_case(s, trivial_action(SINGLE_EDGE)))
     for seed in range(20)]
    + [(f"random-{seed}-swap", lambda s=seed: random_case(s, single_edge_swap_action()))
       for seed in range(20)]
    + [("fixture-double-edge", lambda: stored_case(sos_family_witness_double_edge())),
       ("fixture-single-edge", lambda: stored_case(sos_family_witness_single_edge())),
       ("fixture-moved-off-orbit", moved_off_its_orbit)]
    + [(f"psd-distance-{m}",
        lambda m=m: stored_case(tensor_dec_to_poly_dec(psd_distance_factorization(m))))
       for m in range(2, 6)]
    + [(f"psd-out-of-member-order-{seed}",
        lambda s=seed: stored_case(psd_sos_out_of_member_order(s))) for seed in range(1, 6)]
    + [("psd-swap", lambda: stored_case(tensor_dec_to_poly_dec(swap_psd({0: 1}))))]
)


@pytest.mark.parametrize("order", ["input", "shuffled"])
@pytest.mark.parametrize("build", [c[1] for c in CASES], ids=[c[0] for c in CASES])
def test_sos_results_match_the_flat_layout(build, order):
    complex_, action, index_size, site_vars, members, locals_, scale = build()
    if order == "shuffled":
        items = list(locals_.items())
        random.Random(repr(sorted(locals_))).shuffle(items)
        locals_ = dict(items)
    sos = SosOmegaGDecomposition(complex_, action, index_size, site_vars, members, locals_,
                                 scale)
    stored = {key: rp for key, rp in ((key, RadPoly.coerce(p)) for key, p in locals_.items())
              if not rp.is_zero()}

    for K in sos.grid():
        assert structure(sos.member(K)) == structure(ref_member(sos, stored, K))
    assert structure(sos.sum_squares()) == structure(ref_sum_squares(sos, stored))
    plain, ref = sos_to_plain(sos), ref_sos_to_plain(sos, stored)
    assert plain.to_obj() == ref.to_obj()
    assert locals_structure(plain.locals) == locals_structure(ref.locals)
    assert sos.check_joint_symmetry() == locals_agree(sos.action, sos.site_vars, stored, 1e-9)
    assert outcome(lambda: poly_dec_to_tensor_dec(sos, PSD).psd_mats) == \
        outcome(ref_psd_mats, sos, stored)


def test_the_cases_reach_both_verdicts_and_both_psd_outcomes():
    """Some case is jointly symmetric and some is not; some has linear locals
    and some does not, so both comparisons above see both outcomes."""
    verdicts, linear = set(), set()
    for _, build in CASES:
        sos = SosOmegaGDecomposition(*build())
        verdicts.add(sos.check_joint_symmetry())
        linear.add(isinstance(outcome(lambda: poly_dec_to_tensor_dec(sos, PSD).psd_mats),
                              list))
    assert verdicts == {True, False} and linear == {True, False}
