"""Family symmetrization runs the free build once per member value.

`family_symmetrize` places the locals of member value k by the free build of
the terms at k, the one build behind `symmetrize_free`. A seeded differential
compares it with the loop it used to run, kept here as `ref_family_symmetrize`,
on invariant Gram matrices of the free double-edge swap with the Kronecker
pairs of their square roots as factors: split by SVD, or planted with zero
factors. The two agree bit for bit in the locals, the index size, the scale,
every member and `sum_squares`. The locals now come in member order, and the
old loop met them by assignment first; where a zero factor made it meet the
member values of a site out of member order, the constructor still stores,
and `sos_to_plain` sums, each site's member values in the order of the member
range, so the stored locals, the plain decompositions and their contractions
agree bit for bit too. A pinned table keeps the errors of malformed input,
with their types and messages.
"""

from fractions import Fraction

import numpy as np
import pytest

from omegadec.blockpoly import FLOAT, BlockPolynomial
from omegadec.complexes import build_complex
from omegadec.decomposition import free_extension
from omegadec.errors import ActionNotFree, DimensionMismatch, LocalsNotAligned, NotConnected
from omegadec.fixtures import (
    circle_rotation_action,
    double_edge_swap_action,
    single_edge_swap_action,
)
from omegadec.positivity import (
    GramRepresentation,
    SosOmegaGDecomposition,
    family_symmetrize,
    group_average,
    invariant_sos_family,
    sos_to_plain,
)
from omegadec.scalars import ScaledScalar
from omegadec.symmetry import trivial_action
from test_positivity import matrix_pair_split, quartic_gram


def ref_family_locals(family, a, local_factors):
    """The free-extension loop of `family_symmetrize`, for aligned input: its
    locals, keyed (site, member value, assignment), in the order it placed them."""
    term_ids = sorted({j for (_, _, j) in local_factors})
    zero = BlockPolynomial.zero((family.sites[0],), FLOAT)
    locals_ = {}
    for i, gi, betas in free_extension(a, len(term_ids)):
        for j, beta in zip(term_ids, betas):
            for k in family.members:
                p = local_factors.get((gi, k, j), zero)
                if not p.is_zero():
                    locals_[(i, k, beta)] = p
    return locals_


def ref_family_symmetrize(family, a, local_factors, order=None):
    """The decomposition of the old loop's locals, sorted by `order` if given."""
    locals_ = ref_family_locals(family, a, local_factors)
    if order is not None:
        locals_ = dict(sorted(locals_.items(), key=order))
    term_count = len({j for (_, _, j) in local_factors})
    scale = ScaledScalar(Fraction(1, len(a)), a.complex.vertex_count)
    return SosOmegaGDecomposition(a.complex, a, term_count * len(a), family.sites,
                                  family.members, locals_, scale)


def family_factors(basis, pieces):
    """Single-site factors of Kronecker pairs: the site-i factor of member value
    k and pair j holds row k of the pair's site-i matrix against the basis."""
    factors = {}
    for j, mats in enumerate(pieces):
        for site, mat in enumerate(mats):
            for row, k in zip(mat.tolist(), basis):
                terms = {(kp,): c for kp, c in zip(basis, row) if c != 0.0}
                factors[(site, k, j)] = BlockPolynomial((1,), terms, FLOAT)
    return factors


def split_case(gram):
    """The Gram matrix with the Kronecker pairs of its PSD square root."""
    root = invariant_sos_family(gram, double_edge_swap_action()).root
    return gram, family_factors(gram.local_basis, matrix_pair_split(root, len(gram.local_basis)))


def random_gram(seed, d, rank):
    """An invariant PSD Gram matrix of the double-edge swap: a random
    rank-limited PSD matrix averaged over the group."""
    rng = np.random.default_rng(seed)
    D = d + 1
    x = rng.normal(size=(D * D, rank))
    g = GramRepresentation(1, 1, d, x @ x.T)
    return GramRepresentation(1, 1, d, group_average(g.entries, g, double_edge_swap_action()))


def planted_case(seed, d, pairs):
    """A square root B = sum of P (x) Q + Q (x) P over rank-one P = x x^t and
    Q = y y^t with zero entries, plus I (x) I last so that B is well conditioned:
    B is symmetric, PSD and invariant, the Gram matrix is B^2, and the pairs
    give factors that are zero at some member values. The first pair may then
    miss a member value that a later one has, so the old loop met the member
    values of a site out of member order."""
    rng = np.random.default_rng(seed)
    D = d + 1
    pieces = []
    for _ in range(pairs):
        x, y = (rng.normal(size=D) * (rng.random(D) < 0.6) for _ in range(2))
        P, Q = np.outer(x, x), np.outer(y, y)
        pieces += [(P, Q), (Q, P)]
    pieces.append((np.eye(D), np.eye(D)))
    B = sum(np.einsum("ac,bd->abcd", P, Q).reshape(D * D, D * D) for P, Q in pieces)
    gram = GramRepresentation(1, 1, d, B @ B)
    return gram, family_factors(gram.local_basis, pieces)


def stored_keys(dec):
    """The keys (site, member value, assignment) of the stored locals, in order."""
    return [(site, k, beta) for site, by_k in dec.locals.items()
            for k, mapping in by_k.items() for beta in mapping]


def snapshot(dec):
    """The locals, index size, scale, members and sum of squares, and the
    plain decomposition with its contraction."""
    plain = sos_to_plain(dec)
    locals_ = {site: {k: {beta: p.to_obj() for beta, p in mapping.items()}
                      for k, mapping in by_k.items()} for site, by_k in dec.locals.items()}
    return ((locals_, dec.index_size, dec.scale,
             [dec.member(K).to_obj() for K in dec.grid()], dec.sum_squares().to_obj()),
            (plain.to_obj(), plain.contract().to_obj()))


def in_member_order(family):
    """The sort key of locals by member value, in member order: a stable sort,
    so each member value keeps the order of its own locals."""
    return lambda kv: family.members.index(kv[0][1])


def out_of_member_order(locals_, members):
    """Whether some site meets its member values, in the order of the locals,
    out of member order."""
    seen = {}
    for site, k, _ in locals_:
        seen.setdefault(site, {})[k] = None
    return any(list(ks) != sorted(ks, key=members.index) for ks in seen.values())


SPLIT = ([("quartic", *split_case(quartic_gram()))]
         + [(f"d{d}-seed{seed}-rank{rank}", *split_case(random_gram(seed, d, rank)))
            for d in (1, 2) for seed in range(3) for rank in (2, d + 2)])
PLANTED = [(f"planted-d{d}-seed{seed}-pairs{pairs}", *planted_case(seed, d, pairs))
           for d in (1, 2) for seed in range(4) for pairs in (1, 2)]


@pytest.mark.parametrize("gram,factors", [c[1:] for c in SPLIT + PLANTED],
                         ids=[c[0] for c in SPLIT + PLANTED])
def test_matches_the_replaced_loop_in_member_order(gram, factors):
    """Bit for bit, once the old loop's locals are put in member order."""
    a = double_edge_swap_action()
    fam = invariant_sos_family(gram, a)
    dec = family_symmetrize(fam, a, factors)
    ref = ref_family_symmetrize(fam, a, factors, in_member_order(fam))
    assert stored_keys(dec) == stored_keys(ref)
    assert snapshot(dec) == snapshot(ref)


@pytest.mark.parametrize("gram,factors", [c[1:] for c in SPLIT + PLANTED],
                         ids=[c[0] for c in SPLIT + PLANTED])
def test_matches_the_replaced_loop(gram, factors):
    """Bit for bit, the stored order and the sums of `sos_to_plain` included
    where the old loop met member values out of member order: both are stored,
    and summed, in member order."""
    a = double_edge_swap_action()
    fam = invariant_sos_family(gram, a)
    dec, ref = family_symmetrize(fam, a, factors), ref_family_symmetrize(fam, a, factors)
    assert stored_keys(dec) == stored_keys(ref)
    assert snapshot(dec) == snapshot(ref)


def test_the_planted_cases_meet_member_values_out_of_order():
    """Some planted case meets member values out of member order, so the test
    above covers that order, and no split case does."""
    a = double_edge_swap_action()

    def reordered(gram, factors):
        fam = invariant_sos_family(gram, a)
        return out_of_member_order(ref_family_locals(fam, a, factors), fam.members)

    assert not any(reordered(gram, factors) for _, gram, factors in SPLIT)
    assert any(reordered(gram, factors) for _, gram, factors in PLANTED)


def _not_connected():
    c = build_complex([([0], 1), ([1], 1)])
    return trivial_action(c)


def _misaligned(factors):
    bad = dict(factors)
    key = next(iter(bad))
    bad[key] = bad[key].scaled(3.0)
    return bad


ERRORS = [
    ("misaligned", double_edge_swap_action, _misaligned, LocalsNotAligned,
     "factors fail to reconstruct member ((0,), (0,))"),
    ("no factors", double_edge_swap_action, lambda f: {}, LocalsNotAligned,
     "no factors supplied"),
    ("not connected", _not_connected, lambda f: f, NotConnected,
     "family symmetrization requires a connected complex"),
    ("not free", single_edge_swap_action, lambda f: f, ActionNotFree,
     "family symmetrization requires a free action"),
    ("site count", lambda: circle_rotation_action(3), lambda f: f, DimensionMismatch,
     "family site count differs from complex"),
]


@pytest.mark.parametrize("action,edit,error,message", [e[1:] for e in ERRORS],
                         ids=[e[0] for e in ERRORS])
def test_malformed_inputs_keep_their_errors(action, edit, error, message):
    gram, factors = split_case(quartic_gram())
    fam = invariant_sos_family(gram, double_edge_swap_action())
    with pytest.raises(error) as info:
        family_symmetrize(fam, action(), edit(factors))
    assert str(info.value) == message
