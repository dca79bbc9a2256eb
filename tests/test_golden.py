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
verdict, complex summaries and the free refinement. The `bridge to-poly` and
`pos bound` cases were stored before the tensor decompositions moved onto
their squared-variable polynomial counterparts. Report input paths are
relative to the repository root, so the commands run from there. The cases
of the exact commands also run together in one fresh interpreter, which must
keep their exit codes without ever loading numpy. Every fixture file these
cases read, with any one of its values swapped for a value of another JSON
type, must still end in one strict-JSON report or error envelope; a JSON
integer under a key the README types as `int`, swapped for `1.5` or `true`,
must end in the exit-2 envelope, and so must any value under a key it types as
a rational or a float, swapped for `true`, and any JSON float swapped for the
string of its value, such as `"1.0"`: a float input must be a JSON number.
"""

import json
import os
import subprocess
import sys

import pytest

from omegadec.cli import build_parser, main

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
    ("bridge_to_poly_distance_m4", "bridge to-poly fixtures/distance_m4_tensor.json", 0),
    ("pos_bound_m1_d2_n1_g2", "pos bound --m 1 --d 2 --n 1 --g 2", 0),
]


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(name, argv, code, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(argv.split()) == code
    with open(os.path.join(GOLDEN, f"{name}.stdout"), encoding="utf-8") as fh:
        expected = fh.read()
    assert capsys.readouterr().out == expected


def test_one_parser_serves_consecutive_commands(capsys, monkeypatch):
    """Reports of different commands run back to back in one process stay golden."""
    monkeypatch.chdir(ROOT)
    assert build_parser() is build_parser()
    cases = {name: (argv, code) for name, argv, code in CASES}
    for name in ("dec_verify_double_edge", "action_check_circle5", "family_check_nonnegative",
                 "dec_verify_double_edge"):
        argv, code = cases[name]
        assert main(argv.split()) == code
        with open(os.path.join(GOLDEN, f"{name}.stdout"), encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read()


EXACT_COMMANDS = ("complex", "action", "dec", "family")

# Runs each command line of argv[1] through `main` in one fresh interpreter and
# prints the exit codes and whether numpy got loaded, after the reports.
NUMPY_PROBE = """
import json, sys
from omegadec.cli import main
codes = [main(argv.split()) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


def test_exact_commands_never_load_numpy():
    parser = build_parser()
    commands = [parser.parse_args(argv.split()).command for _, argv, _ in CASES]
    assert set(EXACT_COMMANDS) <= set(commands)
    cases = [(argv, code) for (_, argv, code), command in zip(CASES, commands)
             if command in EXACT_COMMANDS]
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", NUMPY_PROBE,
                           json.dumps([argv for argv, _ in cases])],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    probe = json.loads(done.stdout.splitlines()[-1])
    assert probe == {"codes": [code for _, code in cases], "numpy": False}


SWAPS = ([], {}, "x", 1.5, True, None, -1)
# the keys whose values README "File formats" types as `int`
INT_KEYS = {"n", "vertices", "weight", "vertex_perm", "multifacet_perm", "exps", "sites",
            "index_size", "site_vars", "site", "beta", "k", "D", "m", "d", "dims", "coeffs"}
FILE_CASES = [(name, argv) for name, argv, _ in CASES if " fixtures/" in f" {argv}"]


def node_paths(node, path=()):
    """The path of every node, reading the first three items of each list."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node[:3]) if isinstance(node, list) else ()
    for key, child in children:
        yield from node_paths(child, path + (key,))


# the keys whose values README "File formats" types as an exact rational or a
# number (polynomial coefficients, scale radicands, tensor and Gram entries,
# witness weights and factor entries); "weight" also names a complex's facet weights
NUMBER_KEYS = {"coeff", "r", "entries", "weight", "factors"}


def last_key(path):
    """The innermost object key on the path, or None."""
    keys = [key for key in path if isinstance(key, str)]
    return keys[-1] if keys else None


def node_at(doc, path):
    node = doc
    for key in path:
        node = node[key]
    return node


def int_typed(doc, path) -> bool:
    """Whether the node at path is a JSON integer under a key typed `int`."""
    return type(node_at(doc, path)) is int and last_key(path) in INT_KEYS


def swapped(node, path, value):
    """A copy of node with the node at path replaced by value."""
    if not path:
        return value
    copy = list(node) if isinstance(node, list) else dict(node)
    copy[path[0]] = swapped(node[path[0]], path[1:], value)
    return copy


@pytest.mark.parametrize("name,argv", FILE_CASES, ids=[c[0] for c in FILE_CASES])
def test_wrong_json_types_end_in_a_strict_json_report(name, argv, tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.chdir(ROOT)
    words = argv.split()
    mutated = str(tmp_path / "mutated.json")
    for pos, word in enumerate(words):
        if not word.startswith("fixtures/"):
            continue
        with open(word, encoding="utf-8") as fh:
            doc = json.load(fh)
        for path in node_paths(doc):
            integer = int_typed(doc, path)
            node = node_at(doc, path)
            numeric = (str(node),) if type(node) is float else ()
            for value in SWAPS + numeric:
                with open(mutated, "w", encoding="utf-8") as fh:
                    json.dump(swapped(doc, path, value), fh)
                where = f"{word} at {list(path)} -> {value!r}"
                try:
                    code = main(words[:pos] + [mutated] + words[pos + 1:])
                except Exception as exc:    # any exception escaping main is the failure
                    pytest.fail(f"{where}: {type(exc).__name__}: {exc}")
                out = capsys.readouterr().out
                assert code in (0, 1, 2, 3), where
                json.loads(out, parse_constant=lambda c: pytest.fail(f"{where}: {c}"))
                if integer and value in (1.5, True):
                    assert code == 2, where
                if value is True and last_key(path) in NUMBER_KEYS:
                    assert code == 2, where
                if value in numeric:
                    assert code == 2, where
