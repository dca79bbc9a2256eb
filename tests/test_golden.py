"""Byte-identity of `omega` reports against stored golden output.

Each `*.stdout` file under `tests/golden/` is the report the command below
printed before the exact core stopped re-validating its own results (the
`dec` cases), before the contractions and the family check moved onto
their iterative enumerations (the `family` and `bridge` cases), or before
the constructions shared one free extension, one orbit check and one Gram
form (the `pos`, `approx` and `action check` cases), or before complexes and
actions were validated once at their input boundary (the `complex` and
`action refine` cases); the report must stay the same byte for byte,
together with the exit code. The inputs cover radical scales
that merge or stay separate, float coefficients whose sums round, both
symmetrization constructions, a family with and without a negative trace,
the psd distance factorization, the Gram map and its sos family, the
overcount splitting, the seeded sampling approximation, the blending
verdict, complex summaries and the free refinement. Report input paths are
relative to the repository root, so the commands run from there.
"""

import os

import pytest

from omegadec.cli import main

ROOT = os.path.join(os.path.dirname(__file__), "..")
GOLDEN = os.path.join(ROOT, "tests", "golden")

CASES = [
    ("dec_verify_double_edge", "dec verify fixtures/double_edge_invariant.json", 0),
    ("dec_contract_squares", "dec contract fixtures/squares_double_edge.json", 0),
    ("dec_verify_circle4", "dec verify tests/golden/verify_circle4.json", 0),
    ("dec_verify_blending_simplex2", "dec verify tests/golden/verify_blending_simplex2.json", 0),
    ("dec_verify_radicals", "dec verify tests/golden/verify_radicals.json", 0),
    ("dec_verify_float", "--eq-tol 1e-9 dec verify tests/golden/verify_float.json", 1),
    ("symmetrize_free_circle4",
     "dec symmetrize tests/golden/symmetrize_circle4.json --mode free", 0),
    ("symmetrize_blending_simplex2",
     "dec symmetrize tests/golden/symmetrize_simplex2.json --mode blending", 0),
    ("symmetrize_blending_simplex3",
     "dec symmetrize tests/golden/symmetrize_simplex3.json --mode blending", 0),
    ("family_check_planted_negative",
     "family check fixtures/planted_negative_family.json --n-max 6", 1),
    ("family_check_nonnegative", "family check fixtures/nonnegative_family.json --n-max 4", 0),
    ("bridge_separations_m4", "bridge separations --m 4", 0),
    ("pos_gram_map_bell", "pos gram-map fixtures/bell_gram.json", 0),
    ("pos_sos_family_double_edge",
     "pos sos-family --gram fixtures/bell_gram.json --complex fixtures/double_edge_complex.json"
     " --action fixtures/double_edge_swap_action.json", 0),
    ("pos_factorizable_double_edge",
     "pos factorizable --complex fixtures/double_edge_complex.json"
     " --action fixtures/double_edge_swap_action.json --index-size 2", 0),
    ("approx_run_witness", "--seed 7 approx run fixtures/approx_witness.json --epsilon 0.5", 0),
    ("action_check_circle5",
     "action check fixtures/circle5_complex.json fixtures/circle5_rotation_action.json", 0),
    ("complex_build_double_edge", "complex build fixtures/double_edge_complex.json", 0),
    ("complex_info_circle5", "complex info fixtures/circle5_complex.json", 0),
    ("action_refine_double_edge",
     "action refine fixtures/double_edge_complex.json fixtures/double_edge_swap_action.json", 0),
]


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(name, argv, code, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(argv.split()) == code
    with open(os.path.join(GOLDEN, f"{name}.stdout"), encoding="utf-8") as fh:
        expected = fh.read()
    assert capsys.readouterr().out == expected
