"""CLI surface: exit codes, schemas, determinism."""

import json
import os
import subprocess
import sys
import time
import warnings

import pytest

from omegadec import cli, fixtures
from omegadec.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def fixture(name):
    return os.path.join(FIXTURES, name)


def strict_json(out):
    return json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in report"))


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _bundle(dec, target):
    return {"complex": dec.complex.to_obj(), "action": dec.action.to_obj(),
            "decomposition": dec.to_obj(), "expected": target.to_obj()}


FIXTURE_BUILDERS = {
    "double_edge_invariant.json": lambda: _bundle(fixtures.quartic_double_edge_decomposition(),
                                                  fixtures.quartic_target_polynomial()),
    "squares_double_edge.json": lambda: _bundle(fixtures.squares_double_edge_decomposition(),
                                                fixtures.squares_target_polynomial()),
    "planted_negative_family.json": lambda: fixtures.planted_negative_family().to_obj(),
    "nonnegative_family.json": lambda: fixtures.nonnegative_family().to_obj(),
    "double_edge_complex.json": lambda: fixtures.double_edge_swap_action().complex.to_obj(),
    "double_edge_swap_action.json": lambda: fixtures.double_edge_swap_action().to_obj(),
    "circle5_complex.json": lambda: fixtures.circle_rotation_action(5).complex.to_obj(),
    "circle5_rotation_action.json": lambda: fixtures.circle_rotation_action(5).to_obj(),
}


@pytest.mark.parametrize("name", FIXTURE_BUILDERS)
def test_fixture_file_is_its_builder_written_out(name):
    """The CLI goldens read these files and `omega accept` the builders: each
    file is its builder's `to_obj`, written with sorted keys and indent 1."""
    with open(fixture(name), encoding="utf-8") as fh:
        text = fh.read()
    assert text == json.dumps(FIXTURE_BUILDERS[name](), indent=1, sort_keys=True) + "\n"


def test_dec_verify_fixture(capsys):
    code, out = run(capsys, "dec", "verify", fixture("double_edge_invariant.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["symmetry_ok"] is True
    assert payload["result"]["matches_expected"] is True
    assert payload["version"]
    assert list(payload["inputs"].values())[0]


def test_dec_contract_fixture(capsys):
    code, out = run(capsys, "dec", "contract", fixture("squares_double_edge.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["matches_expected"] is True


def test_reports_are_deterministic(capsys):
    _, first = run(capsys, "dec", "verify", fixture("double_edge_invariant.json"))
    _, second = run(capsys, "dec", "verify", fixture("double_edge_invariant.json"))
    assert first == second
    _, a = run(capsys, "bridge", "separations", "--m", "4")
    _, b = run(capsys, "bridge", "separations", "--m", "4")
    assert a == b


def test_family_check_exit_codes(capsys):
    code, out = run(capsys, "family", "check",
                    fixture("planted_negative_family.json"), "--n-max", "4")
    assert code == 1
    payload = json.loads(out)
    assert payload["result"]["first_violation"] == 1
    assert "no algorithm" in payload["result"]["disclaimer"]
    code, _ = run(capsys, "family", "check",
                  fixture("nonnegative_family.json"), "--n-max", "4")
    assert code == 0


def test_family_guard_exit_code(capsys):
    code, out = run(capsys, "--max-assignments", "2", "family", "check",
                    fixture("planted_negative_family.json"), "--n-max", "4")
    assert code == 3
    assert json.loads(out)["error"] == "SizeTooLarge"


def test_bridge_separations_guard_exit_code(capsys):
    code, out = run(capsys, "--max-assignments", "1000", "bridge", "separations", "--m", "4")
    assert code == 3
    assert strict_json(out)["error"] == "SizeTooLarge"


def test_bridge_separations_guard_boundary(capsys):
    # the search count, (m - 1) * 50 * 400 updates, is 60 000 at m = 4; it is
    # checked before any exact step, so it fires before the contraction's own guard
    argv = ("bridge", "separations", "--m", "4")
    code, out = run(capsys, "--max-assignments", "1", *argv)
    assert code == 3
    assert strict_json(out) == {"error": "SizeTooLarge", "message": "60000 updates exceed 1"}
    code, out = run(capsys, "--max-assignments", "59999", *argv)
    assert code == 3
    assert strict_json(out) == {"error": "SizeTooLarge",
                                "message": "60000 updates exceed 59999"}
    code, out = run(capsys, "--max-assignments", "60000", *argv)
    assert code == 0
    with open(os.path.join(GOLDEN, "bridge_separations_m4.stdout"), encoding="utf-8") as fh:
        assert out == fh.read()


@pytest.mark.parametrize("argv,steps,golden", [
    ("dec contract fixtures/squares_double_edge.json", 4, "dec_contract_squares"),
    ("dec verify tests/golden/verify_circle4.json", 128, "dec_verify_circle4"),
])
def test_contraction_guard_boundary(capsys, monkeypatch, argv, steps, golden):
    # the label walk counts one step per tried label value: the fewest steps
    # these contractions need, measured before the walk moved onto key tries;
    # reports name their inputs relative to the repository root
    monkeypatch.chdir(os.path.join(FIXTURES, ".."))
    argv = argv.split()
    code, out = run(capsys, "--max-assignments", str(steps), *argv)
    assert code == 0
    with open(os.path.join(GOLDEN, f"{golden}.stdout"), encoding="utf-8") as fh:
        assert out == fh.read()
    code, out = run(capsys, "--max-assignments", str(steps - 1), *argv)
    assert code == 3
    assert strict_json(out) == {"error": "SearchSpaceTooLarge",
                                "message": f"contraction exceeded {steps - 1} steps"}


@pytest.mark.parametrize("option,limit,argv,code,golden,error,message", [
    ("--max-assignments", 128, "family check fixtures/planted_negative_family.json --n-max 6",
     1, "family_check_planted_negative", "SizeTooLarge", "2**7 tuples exceed 127"),
    ("--max-assignments", 4, "pos factorizable --complex fixtures/double_edge_complex.json"
     " --action fixtures/double_edge_swap_action.json --index-size 2",
     0, "pos_factorizable_double_edge", "SearchSpaceTooLarge", "2**2 assignments exceed 3"),
    ("--max-group", 5,
     "action check fixtures/circle5_complex.json fixtures/circle5_rotation_action.json",
     0, "action_check_circle5", "GroupTooLarge", "group exceeds cap 4"),
])
def test_guard_boundaries(capsys, monkeypatch, option, limit, argv, code, golden, error,
                          message):
    # the smallest limit each golden command runs under, and one below it exits 3
    monkeypatch.chdir(os.path.join(FIXTURES, ".."))
    got, out = run(capsys, option, str(limit), *argv.split())
    assert got == code
    with open(os.path.join(GOLDEN, f"{golden}.stdout"), encoding="utf-8") as fh:
        assert out == fh.read()
    got, out = run(capsys, option, str(limit - 1), *argv.split())
    assert got == 3
    assert strict_json(out) == {"error": error, "message": message}


@pytest.mark.parametrize("obj", [
    {"D": 1, "m": 1, "coeffs": [[[-0.5]]]},
    {"D": 1, "m": 1, "coeffs": [[[True]]]},
    {"D": 1, "m": 1, "coeffs": [[["1"]]]},
    {"D": 1.0, "m": 1, "coeffs": [[[1]]]},
    {"D": 1, "m": 1.5, "coeffs": [[[1]]]},
])
def test_family_check_rejects_non_integers(capsys, tmp_path, obj):
    # -0.5 once truncated to 0 and the check passed, though (-1/2)**3 < 0 at n = 2
    code, out = run(capsys, "family", "check", write_json(tmp_path, "fam.json", obj),
                    "--n-max", "2")
    assert code == 2
    assert strict_json(out)["error"] == "ValueError"


def test_family_check_deep_circle(capsys, tmp_path):
    path = tmp_path / "unit_family.json"
    path.write_text(json.dumps({"D": 1, "m": 1, "coeffs": [[[1]]]}))
    code, out = run(capsys, "family", "check", str(path), "--n-min", "1100", "--n-max", "1100")
    assert code == 0
    payload = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in report"))
    assert payload["result"]["sizes"] == [
        {"min_entry": "1", "n": 1100, "violated": False, "witness": [0] * 1101}]


def test_pos_bound(capsys):
    code, out = run(capsys, "pos", "bound", "--m", "1", "--d", "2", "--n", "1", "--g", "2")
    assert code == 0
    assert json.loads(out)["result"]["bound"] == 18


@pytest.mark.parametrize("argv", [["--m", "-1", "--d", "1", "--n", "1", "--g", "1"],
                                  ["--m", "1", "--d", "1", "--n", "1", "--g", "0"]],
                         ids=["negative-m", "group-order-zero"])
def test_pos_bound_rejects_a_negative_size_or_an_empty_group(capsys, argv):
    # without the check these printed the bounds 1 and 0 with exit 0
    code, out = run(capsys, "pos", "bound", *argv)
    assert code == 2
    assert strict_json(out) == {"error": "ValueError",
                                "message": "inputs must be nonnegative with group order >= 1"}


def test_pos_bound_digit_limit(capsys):
    # 2**(n+1) has at most 4300 digits up to n = 14283; no bound is built past that
    n = 14283
    assert 2 ** (n + 1) < 10**4300 <= 2 ** (n + 2)
    code, out = run(capsys, "pos", "bound", "--m", "1", "--d", "1", "--n", str(n), "--g", "1")
    assert code == 0
    assert strict_json(out)["result"]["bound"] == 2 ** (n + 1)
    too_long = {"error": "ValueError",
                "message": "bound has more than 4300 digits, the most a report prints"}
    for argv in ([1, 1, n + 1, 1], [2000, 2000, 10, 1], [20000, 20000, 3000, 1]):
        start = time.perf_counter()
        code, out = run(capsys, "pos", "bound", *(f"--{k}={v}" for k, v in zip("mdng", argv)))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert strict_json(out) == too_long


@pytest.mark.parametrize("n", [3000, 14283])
def test_pos_bound_ignores_the_int_digit_limit(n):
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    argv = [sys.executable, "-m", "omegadec.cli", "pos", "bound", "--m", "1", "--d", "1",
            "--n", str(n), "--g", "1"]
    plain = subprocess.run(argv, capture_output=True, env=env, timeout=120)
    low = subprocess.run(argv, capture_output=True, env=dict(env, PYTHONINTMAXSTRDIGITS="640"),
                         timeout=120)
    assert plain.returncode == low.returncode == 0
    assert strict_json(plain.stdout)["result"]["bound"] == 2 ** (n + 1)
    assert low.stdout == plain.stdout


def _long_coefficient_bundle(tmp_path, digits, form):
    """squares_double_edge.json without `expected`, its first coefficient a
    number of the given digit count, as a JSON string or integer literal."""
    with open(fixture("squares_double_edge.json")) as fh:
        obj = json.load(fh)
    del obj["expected"]
    obj["decomposition"]["locals"][0]["poly"]["terms"][0]["coeff"] = "LONG"
    number = "7" * digits
    text = json.dumps(obj).replace('"LONG"', json.dumps(number) if form == "str" else number)
    path = tmp_path / f"long_{digits}_{form}.json"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("form", ["str", "int"])
@pytest.mark.parametrize("digits,code", [(1000, 0), (4300, 0), (4301, 2), (5000, 2)])
def test_input_numbers_ignore_the_int_digit_limit(tmp_path, digits, code, form):
    path = _long_coefficient_bundle(tmp_path, digits, form)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    argv = [sys.executable, "-m", "omegadec.cli", "dec", "contract", path]
    plain = subprocess.run(argv, capture_output=True, env=env, timeout=120)
    low = subprocess.run(argv, capture_output=True, env=dict(env, PYTHONINTMAXSTRDIGITS="640"),
                         timeout=120)
    assert plain.returncode == low.returncode == code
    assert low.stdout == plain.stdout
    if code:
        assert strict_json(plain.stdout) == {
            "error": "ValueError", "message": f"number has {digits} digits, more than 4300"}
    else:
        terms = strict_json(plain.stdout)["result"]["contraction"][0]["poly"]["terms"]
        assert {"coeff": "7" * digits, "exps": [[2], [0]]} in terms


def test_main_restores_the_callers_int_digit_limit(capsys, tmp_path):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out = run(capsys, "dec", "contract", _long_coefficient_bundle(tmp_path, 1000, "int"))
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    assert "7" * 1000 in out


@pytest.mark.parametrize("weight", [10**9, 10**30])
def test_complex_with_huge_weights_exits_3(capsys, tmp_path, weight):
    path = write_json(tmp_path, "heavy.json", {"n": 1, "facets": [
        {"vertices": [0, 1], "weight": weight}]})
    start = time.perf_counter()
    code, out = run(capsys, "complex", "info", path)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert strict_json(out) == {"error": "SizeTooLarge", "message": (
        f"complex would store {3 * weight} label entries, more than 10000000")}


@pytest.mark.parametrize("command", ["verify", "contract"])
@pytest.mark.parametrize("r", ["1/1", "2/1", "2/3"])
def test_huge_root_index_scale_ends_quickly(capsys, tmp_path, command, r):
    with open(fixture("squares_double_edge.json"), encoding="utf-8") as fh:
        bundle = json.load(fh)
    bundle["decomposition"]["scale"] = {"r": r, "k": 10**30}
    start = time.perf_counter()
    code, out = run(capsys, "dec", command, write_json(tmp_path, "bundle.json", bundle))
    assert time.perf_counter() - start < 1.0
    assert code == (0 if r == "1/1" else 1)
    strict_json(out)


@pytest.mark.parametrize("command", ["verify", "contract"])
@pytest.mark.parametrize("bits", [4095, 4096])
def test_scale_power_radicand_limit(capsys, tmp_path, command, bits):
    """Contraction raises the scale to the vertex count, here 2: a radicand of
    2**4096 squared reaches 2**8192 and stops before the power is built."""
    with open(fixture("squares_double_edge.json"), encoding="utf-8") as fh:
        bundle = json.load(fh)
    del bundle["expected"]
    bundle["decomposition"]["scale"] = {"r": str(2**bits), "k": 1}
    code, out = run(capsys, "dec", command, write_json(tmp_path, "bundle.json", bundle))
    if bits == 4095:
        assert code == 0
        assert strict_json(out)["result"]
    else:
        assert code == 3
        assert strict_json(out) == {"error": "SizeTooLarge",
                                    "message": "a radicand of a power would pass 8192 bits"}


def test_usage_errors(capsys):
    assert main(["nonsense"]) == 2
    assert strict_json(capsys.readouterr().out)["error"] == "UsageError"
    code, out = run(capsys, "dec", "verify", "does-not-exist.json")
    assert code == 2
    assert "error" in json.loads(out)


def test_complex_and_action_commands(capsys):
    code, out = run(capsys, "complex", "info", fixture("circle5_complex.json"))
    assert code == 0
    result = json.loads(out)["result"]
    assert result["connected"] and result["multifacet_count"] == 5
    code, out = run(capsys, "action", "check", fixture("circle5_complex.json"),
                    fixture("circle5_rotation_action.json"))
    assert code == 0
    result = json.loads(out)["result"]
    assert result["free"] is True and result["blending"] is False
    assert result["order"] == 5


def test_action_refine_emits_free_pair(capsys, tmp_path):
    complex_obj = {"n": 1, "facets": [{"vertices": [0, 1], "weight": 1}]}
    action_obj = {"generators": [{"vertex_perm": [1, 0], "multifacet_perm": [0]}]}
    cpath = tmp_path / "c.json"
    apath = tmp_path / "a.json"
    cpath.write_text(json.dumps(complex_obj))
    apath.write_text(json.dumps(action_obj))
    code, out = run(capsys, "action", "refine", str(cpath), str(apath))
    assert code == 0
    result = json.loads(out)["result"]
    assert result["free"] is True
    assert result["complex"]["facets"][0]["weight"] == 2


def test_dec_symmetrize_modes(capsys, tmp_path):
    complex_obj = {"n": 1, "facets": [{"vertices": [0, 1], "weight": 2}]}
    action_obj = {"generators": [{"vertex_perm": [1, 0], "multifacet_perm": [1, 0]}]}
    x2 = {"sites": [1], "mode": "rational", "terms": [{"exps": [[2]], "coeff": "1"}]}
    one = {"sites": [1], "mode": "rational", "terms": [{"exps": [[0]], "coeff": "1"}]}
    bundle = {"complex": complex_obj, "action": action_obj,
              "terms": [[x2, one], [one, x2]]}
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle))
    code, out = run(capsys, "dec", "symmetrize", str(path), "--mode", "free")
    assert code == 0
    assert json.loads(out)["result"]["index_size"] == 4

    single = {"n": 1, "facets": [{"vertices": [0, 1], "weight": 1}]}
    single_action = {"generators": [{"vertex_perm": [1, 0], "multifacet_perm": [0]}]}
    bundle2 = {"complex": single, "action": single_action,
               "terms": [[x2, one], [one, x2]]}
    path2 = tmp_path / "bundle2.json"
    path2.write_text(json.dumps(bundle2))
    code, out = run(capsys, "dec", "symmetrize", str(path2), "--mode", "blending")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["minus_empty"] is False


# the swap of an edge of weight 2 and of its labels is free; of weight 1, blending
@pytest.mark.parametrize("mode,weight,mperm", [("free", 2, [1, 0]), ("blending", 1, [0])])
def test_dec_symmetrize_rejects_a_factor_on_no_sites(capsys, tmp_path, mode, weight, mperm):
    edge = {"n": 1, "facets": [{"vertices": [0, 1], "weight": weight}]}
    swap = {"generators": [{"vertex_perm": [1, 0], "multifacet_perm": mperm}]}
    x = {"sites": [1], "terms": [{"exps": [[1]], "coeff": "1"}]}
    path = write_json(tmp_path, "bundle.json", {"complex": edge, "action": swap,
                                                "terms": [[{"sites": [], "terms": []}, x]]})
    code, out = run(capsys, "dec", "symmetrize", path, "--mode", mode)
    assert code == 2
    assert strict_json(out) == {"error": "ValueError", "message": "site mismatch"}


def test_bridge_and_gram_commands(capsys):
    code, out = run(capsys, "bridge", "to-poly", fixture("distance_m4_tensor.json"))
    assert code == 0
    result = json.loads(out)["result"]
    assert result["positivity"]["nonneg_entrywise"] is True
    code, out = run(capsys, "pos", "gram-map", fixture("bell_gram.json"))
    assert code == 0
    terms = json.loads(out)["result"]["polynomial"]["terms"]
    assert len(terms) == 3
    code, out = run(capsys, "pos", "factorizable", "--complex",
                    fixture("double_edge_complex.json"), "--action",
                    fixture("double_edge_swap_action.json"), "--index-size", "2")
    assert code == 0
    assert json.loads(out)["result"]["feasible"] is True


def test_approx_run(capsys):
    code, out = run(capsys, "--seed", "5", "approx", "run",
                    fixture("approx_witness.json"), "--epsilon", "0.5")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["error_schatten2"] < 0.5
    assert result["index_size"] <= result["budget"]


def test_sos_family_command(capsys, tmp_path):
    gram = {"n": 1, "m": 1, "d": 1,
            "entries": [4.0, 0, 0, 4, 0, 1, 0, 0, 0, 0, 1, 0, 4, 0, 0, 4]}
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(gram))
    code, out = run(capsys, "pos", "sos-family", "--gram", str(gpath),
                    "--complex", fixture("double_edge_complex.json"),
                    "--action", fixture("double_edge_swap_action.json"))
    assert code == 0
    result = json.loads(out)["result"]
    assert result["sum_squares_error"] < 1e-9
    assert result["family_invariant"] is True


def test_accept_command_exit_mapping(capsys, monkeypatch):
    import omegadec.acceptance as acc
    from omegadec.acceptance import CriterionResult

    good = [CriterionResult(1, "stub", True, "ok")]
    monkeypatch.setattr(acc, "run_all", lambda printer=None: good)
    code, out = run(capsys, "accept")
    assert code == 0
    assert json.loads(out)["result"]["all_passed"] is True

    bad = [CriterionResult(1, "stub", False, "boom")]
    monkeypatch.setattr(acc, "run_all", lambda printer=None: bad)
    code, out = run(capsys, "accept")
    assert code == 1
    assert json.loads(out)["result"]["all_passed"] is False


def test_complex_build_rejects_bad_input(capsys, tmp_path):
    bad = {"n": 2, "facets": [{"vertices": [0, 1, 2], "weight": 1},
                              {"vertices": [0, 1], "weight": 1}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out = run(capsys, "complex", "build", str(path))
    assert code == 2
    assert json.loads(out)["error"] == "NonMaximalFacet"


@pytest.mark.parametrize("field, value", [("weight", 1.5), ("weight", True), ("weight", 2.0),
                                          ("vertices", [0, 1.5]), ("vertices", [0, True]),
                                          ("vertices", [0, "1"])])
def test_complex_build_rejects_non_integer_fields(capsys, tmp_path, field, value):
    facet = {"vertices": [0, 1], "weight": 1}
    facet[field] = value
    path = write_json(tmp_path, "bad.json", {"n": 1, "facets": [facet]})
    code, out = run(capsys, "complex", "build", path)
    assert code == 2
    assert strict_json(out)["error"] == "ValueError"


def _non_invariant_bundle(action):
    """The double-edge fixture with one site-0 coefficient changed to 7 and no expected value."""
    with open(fixture("double_edge_invariant.json")) as fh:
        bundle = json.load(fh)
    del bundle["expected"]
    site0 = next(loc for loc in bundle["decomposition"]["locals"] if loc["site"] == 0)
    site0["poly"]["terms"][0]["coeff"] = "7"
    if action == "absent":
        del bundle["action"]
    elif action != "fixture":
        bundle["action"] = action
    return bundle


@pytest.mark.parametrize("action, code", [("fixture", 1), ("absent", 0), (None, 0),
                                          ([], 2), ({}, 2), (0, 2), ("", 2)])
def test_only_absent_or_null_action_means_trivial_group(capsys, tmp_path, action, code):
    path = write_json(tmp_path, "bundle.json", _non_invariant_bundle(action))
    got, out = run(capsys, "dec", "verify", path)
    assert got == code
    payload = strict_json(out)
    if code == 2:
        assert set(payload) == {"error", "message"}
    else:
        assert payload["result"]["symmetry_ok"] is (code == 0)


def _double_edge_bundle(coeff):
    """Double-edge decomposition of x^2 + y^2 with one coefficient replaced."""
    def local(site, beta, d, c):
        return {"site": site, "beta": beta, "poly": {"sites": [1], "mode": "float",
                                                     "terms": [{"exps": [[d]], "coeff": c}]}}
    return {"complex": {"n": 1, "facets": [{"vertices": [0, 1], "weight": 2}]},
            "action": {"generators": [{"vertex_perm": [1, 0], "multifacet_perm": [1, 0]}]},
            "decomposition": {"index_size": 2, "scale": {"r": "1/1", "k": 1},
                              "site_vars": [1, 1],
                              "locals": [local(0, [1, 2], 2, 1.0), local(0, [2, 1], 0, coeff),
                                         local(1, [2, 1], 2, 1.0), local(1, [1, 2], 0, 1.0)]},
            "expected": {"sites": [1, 1], "mode": "float", "terms": [
                {"exps": [[2], [0]], "coeff": 1.0}, {"exps": [[0], [2]], "coeff": 1.0}]}}


def test_non_finite_verify_bundle_fails_closed(capsys, tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(_double_edge_bundle(1.0)))
    code, out = run(capsys, "dec", "verify", str(path))
    assert code == 0 and json.loads(out)["result"]["matches_expected"] is True
    for bad in (float("nan"), float("inf")):
        path.write_text(json.dumps(_double_edge_bundle(bad)))   # writes NaN / Infinity
        code, out = run(capsys, "dec", "verify", str(path))
        assert code in (1, 2)
        payload = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in report"))
        assert payload.get("result", {}).get("matches_expected") is not True


def test_zero_denominator_is_an_input_error(capsys, tmp_path):
    with open(fixture("double_edge_invariant.json")) as fh:
        bundle = json.load(fh)
    bundle["decomposition"]["locals"][0]["poly"]["terms"][0]["coeff"] = "1/0"
    path = tmp_path / "zero_den.json"
    path.write_text(json.dumps(bundle))
    code, out = run(capsys, "dec", "verify", str(path))
    assert code == 2
    assert json.loads(out)["error"] == "ZeroDivisionError"


def test_non_finite_report_becomes_input_error(capsys, monkeypatch):
    monkeypatch.setattr("omegadec.decomposition.caratheodory_bound", lambda *args: float("nan"))
    code, out = run(capsys, "pos", "bound", "--m", "1", "--d", "2", "--n", "1", "--g", "2")
    assert code == 2
    assert json.loads(out)["error"] == "ValueError"


GRAM_MAP = ("bell_gram.json", "pos gram-map {}")
APPROX_RUN = ("approx_witness.json", "approx run {} --epsilon 0.5")


@pytest.mark.parametrize("command,where,value,message", [
    (GRAM_MAP, ("entries", 0), float("nan"), "Gram entries must be finite"),
    (GRAM_MAP, ("entries", 5), float("inf"), "Gram entries must be finite"),
    (APPROX_RUN, ("witness", 0, "weight"), float("nan"), "witness weights must be finite"),
    (APPROX_RUN, ("witness", 0, "weight"), float("inf"), "witness weights must be finite"),
    (APPROX_RUN, ("witness", 0, "factors", 1, 0), float("nan"),
     "witness factors must be finite"),
], ids=["gram-nan", "gram-inf", "weight-nan", "weight-inf", "factor-nan"])
def test_non_finite_float_input_is_rejected(capsys, tmp_path, command, where, value, message):
    name, argv = command
    with open(fixture(name)) as fh:
        obj = json.load(fh)
    target = obj
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv.format(write_json(tmp_path, name, obj)).split())
    captured = capsys.readouterr()
    assert code == 2
    assert strict_json(captured.out) == {"error": "ValueError", "message": message}
    assert captured.err == "" and not caught


@pytest.mark.parametrize("cplx", [
    {"facets": [{"vertices": [0, 10**9], "weight": 1}]},
    {"n": 10**18, "facets": [{"vertices": [0, 1], "weight": 1}]},
], ids=["huge-vertex", "huge-n"])
def test_uncovered_vertex_error_stays_small(capsys, tmp_path, cplx):
    code, out = run(capsys, "complex", "build", write_json(tmp_path, "complex.json", cplx))
    assert code == 2
    payload = strict_json(out)
    assert payload["error"] == "UncoveredVertex"
    assert len(out) < 200 and payload["message"].endswith(" more lie in no facet")


def _without_terms(obj):
    obj["terms"] = []


def _short_second_term(obj):
    obj["terms"][1].pop()


def _short_first_term(obj):
    obj["terms"][0].pop()


@pytest.mark.parametrize("bundle,mode,edit", [
    ("symmetrize_circle4.json", "free", _without_terms),
    ("symmetrize_circle4.json", "free", _short_second_term),
    ("symmetrize_simplex2.json", "blending", _short_first_term),
], ids=["free-empty", "free-short-term", "blending-wrong-arity"])
def test_malformed_term_list_is_an_input_error(capsys, tmp_path, bundle, mode, edit):
    with open(os.path.join(GOLDEN, bundle)) as fh:
        obj = json.load(fh)
    edit(obj)
    code, out = run(capsys, "dec", "symmetrize", write_json(tmp_path, bundle, obj),
                    "--mode", mode)
    assert code == 2
    assert strict_json(out)["error"] == "ValueError"


def test_action_check_deep_circle(capsys, tmp_path):
    n = 1100
    shift = [(i + 1) % n for i in range(n)]
    cpath = write_json(tmp_path, "circle.json", {"n": n - 1, "facets": [
        {"vertices": sorted({i, (i + 1) % n}), "weight": 1} for i in range(n)]})
    apath = write_json(tmp_path, "rotation.json", {"generators": [
        {"vertex_perm": shift, "multifacet_perm": shift}]})
    code, out = run(capsys, "action", "check", cpath, apath)
    assert code == 0
    result = strict_json(out)["result"]
    assert result["order"] == n and result["free"] is True and result["blending"] is False


@pytest.mark.parametrize("gram", [
    {"n": 0, "m": 1200, "d": 1, "entries": [1.0]},
    {"n": 0, "m": 3, "d": 1000000, "entries": [1.0]},
], ids=["wide", "high-degree"])
def test_gram_map_size_mismatch_before_enumeration(capsys, tmp_path, gram):
    code, out = run(capsys, "pos", "gram-map", write_json(tmp_path, "gram.json", gram))
    assert code == 2
    assert strict_json(out)["error"] == "DimensionMismatch"


def _gram_with(cells):
    entries = [0.0] * 16
    for (r, s), value in cells.items():
        entries[4 * r + s] = entries[4 * s + r] = value
    return {"n": 1, "m": 1, "d": 1, "entries": entries}


def test_gram_map_coefficient_overflow_fails_closed(capsys, tmp_path):
    # finite entries whose four contributions to the xy coefficient overflow
    path = write_json(tmp_path, "gram.json", _gram_with({(0, 3): 1e308, (1, 2): 1e308}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["pos", "gram-map", path])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == "" and not caught
    assert strict_json(captured.out) == {"error": "ValueError",
                                         "message": "non-finite coefficient inf"}


def test_gram_map_keeps_a_finite_entry_near_the_float_limit(capsys, tmp_path):
    path = write_json(tmp_path, "gram.json", _gram_with({(0, 0): 1e308}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["pos", "gram-map", path])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == "" and not caught
    assert '"coeff": 1e+308' in captured.out
    assert strict_json(captured.out)["result"]["polynomial"]["terms"] == [
        {"coeff": 1e308, "exps": [[0], [0]]}]


def test_sos_family_fails_closed_when_the_psd_trace_overflows(capsys, tmp_path):
    # diag(1e308, -1e300, -1e300, 1e308) is swap-invariant but not PSD; its
    # trace overflows, and a floor of -inf once let it through with exit 0
    gram = _gram_with({(0, 0): 1e308, (1, 1): -1e300, (2, 2): -1e300, (3, 3): 1e308})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["pos", "sos-family", "--gram", write_json(tmp_path, "gram.json", gram),
                     "--complex", fixture("double_edge_complex.json"),
                     "--action", fixture("double_edge_swap_action.json")])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == "" and not caught
    assert strict_json(captured.out) == {
        "error": "ValueError",
        "message": "PSD check needs a finite trace and finite eigenvalues"}


def test_action_check_ignores_assignment_guard(capsys):
    code, out = run(capsys, "--max-assignments", "3", "action", "check",
                    fixture("circle5_complex.json"), fixture("circle5_rotation_action.json"))
    assert code == 0
    assert strict_json(out)["result"]["blending"] is False


@pytest.mark.parametrize("perm", [[1.5, 0], [True, 0], [1, "0"]])
@pytest.mark.parametrize("field", ["vertex_perm", "multifacet_perm"])
def test_action_check_rejects_non_integer_permutation_entries(capsys, tmp_path, field, perm):
    generator = {"vertex_perm": [1, 0], "multifacet_perm": [1, 0]}
    generator[field] = perm
    apath = write_json(tmp_path, "action.json", {"generators": [generator]})
    code, out = run(capsys, "action", "check", fixture("double_edge_complex.json"), apath)
    assert code == 2
    assert strict_json(out)["error"] == "ValueError"


@pytest.mark.parametrize("where, value, error", [
    ("exps", [[1.5]], "ValueError"), ("exps", [[True]], "ValueError"),
    ("coeff", 0.1, "TypeError"), ("coeff", 2.0, "TypeError")])
def test_dec_verify_rejects_inexact_rational_input(capsys, tmp_path, where, value, error):
    """Exponents are integers, and a rational-mode coefficient is an int or a string."""
    with open(fixture("double_edge_invariant.json")) as fh:
        bundle = json.load(fh)
    bundle["decomposition"]["locals"][0]["poly"]["terms"][0][where] = value
    code, out = run(capsys, "dec", "verify", write_json(tmp_path, "bundle.json", bundle))
    assert code == 2
    assert strict_json(out)["error"] == error


def _tensor_entry(doc):
    doc["entries"][1] = 0.1


def _tensor_bools(doc):
    doc["entries"][:2] = [True, False]


def _decomposition_scale(doc):
    del doc["expected"]
    doc["decomposition"]["scale"] = {"r": 0.1, "k": 1}


def _site_as_float(doc):
    # the two terms of one site-1 local, split over entries that would sum
    local = doc["decomposition"]["locals"][4]
    assert local["site"] == 1 and len(local["poly"]["terms"]) == 2
    second = json.loads(json.dumps(local))
    second["site"] = 1.0
    second["poly"]["terms"] = [local["poly"]["terms"].pop()]
    doc["decomposition"]["locals"].append(second)


def _exponent_as_float(doc):
    doc["decomposition"]["locals"][0]["poly"]["terms"] = [
        {"exps": [[1]], "coeff": "1"}, {"exps": [[1.0]], "coeff": "1"}]


@pytest.mark.parametrize("name, command, edit, error", [
    ("distance_m4_tensor.json", "bridge to-poly", _tensor_entry, "TypeError"),
    ("distance_m4_tensor.json", "bridge to-poly", _tensor_bools, "TypeError"),
    ("double_edge_invariant.json", "dec verify", _decomposition_scale, "TypeError"),
    ("double_edge_invariant.json", "dec verify", _site_as_float, "ValueError"),
    ("double_edge_invariant.json", "dec verify", _exponent_as_float, "ValueError"),
], ids=["tensor_entry_0.1", "tensor_entries_true_false", "scale_r_0.1", "site_1_then_1.0",
        "exps_1_then_1.0"])
def test_inexact_integers_and_rationals_are_input_errors(capsys, tmp_path, name, command,
                                                         edit, error):
    """A float or a bool is never read as an exact rational, and 1.0 never groups with 1.

    Earlier versions read the first four inputs with exit 0: the entry and the
    radicand 0.1 as its binary fraction, the entries true and false as 1 and 0,
    and the split local as one site-1 local.
    """
    with open(fixture(name)) as fh:
        doc = json.load(fh)
    edit(doc)
    code, out = run(capsys, *command.split(), write_json(tmp_path, name, doc))
    assert code == 2
    assert strict_json(out)["error"] == error


BOUND = ["pos", "bound", "--m", "1", "--d", "2", "--n", "1", "--g", "2"]


@pytest.mark.parametrize("option,value", [
    (option, value) for option, low in (("--eq-tol", "-1e-9"), ("--psd-tol", "-1"),
                                        ("--max-assignments", "0"), ("--max-group", "-5"))
    for value in ("nan", "inf", "-inf", low)
] + [("--max-assignments", "1.5"), ("--max-group", "true")])
def test_out_of_range_numeric_option_is_an_input_error(capsys, option, value):
    # "=" keeps argparse from reading "-inf" as an option name
    code = main([f"{option}={value}"] + BOUND)
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    payload = strict_json(captured.out)
    assert payload["error"] == "ValueError" and payload["message"].startswith(f"{option} must be")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-0.5"])
def test_out_of_range_epsilon_is_an_input_error(capsys, value):
    code = main(["approx", "run", fixture("approx_witness.json"), f"--epsilon={value}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    assert strict_json(captured.out)["message"].startswith("--epsilon must be finite and > 0")


def test_non_finite_tolerance_no_longer_passes_a_failed_verdict(capsys, tmp_path):
    path = os.path.join(GOLDEN, "verify_float.json")
    assert run(capsys, "--eq-tol", "1e-9", "dec", "verify", path)[0] == 1
    for value in ("nan", "inf"):
        code, out = run(capsys, "--eq-tol", value, "dec", "verify", path)
        assert code == 2 and "symmetry_ok" not in out
    with open(fixture("bell_gram.json")) as fh:
        gram = json.load(fh)
    gram["entries"] = [-x for x in gram["entries"]]
    sos = ["pos", "sos-family", "--gram", write_json(tmp_path, "gram.json", gram),
           "--complex", fixture("double_edge_complex.json"),
           "--action", fixture("double_edge_swap_action.json")]
    assert strict_json(run(capsys, *sos)[1])["error"] == "NotPSD"
    for value in ("nan", "inf"):
        code, out = run(capsys, "--psd-tol", value, *sos)
        assert code == 2 and "members" not in out
    # the smallest guards that are accepted still trip as guards
    assert run(capsys, "--max-assignments", "1", "family", "check",
               fixture("planted_negative_family.json"), "--n-max", "2")[0] == 3


def test_deeply_nested_input_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000)
    code = main(["complex", "build", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    assert strict_json(captured.out) == {"error": "ValueError",
                                         "message": f"{path}: JSON nested too deeply"}


@pytest.mark.parametrize("tensor,error,message", [
    ({"dims": [0, 0], "entries": []}, "ValueError", "tensor dimensions must be >= 1, got [0, 0]"),
    ({"dims": [1, 1], "mode": "bogus", "entries": [1]}, "ValueError", "unknown mode 'bogus'"),
    ({"dims": [-1, -1], "entries": [1]}, "ValueError", "negative tensor dimension in (-1, -1)"),
    ({"dims": [2, 2], "mode": "float", "entries": [True, 0, 0, 1]}, "TypeError",
     "bool True in float tensor entries is not a number"),
], ids=["zero-dims", "bogus-mode", "negative-dims", "float-true"])
def test_malformed_tensor_file_is_an_input_error(capsys, tmp_path, tensor, error, message):
    code = main(["bridge", "to-poly", write_json(tmp_path, "tensor.json", tensor)])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    assert strict_json(captured.out) == {"error": error, "message": message}


def test_bool_gram_entry_is_an_input_error(capsys, tmp_path):
    with open(fixture("bell_gram.json")) as fh:
        gram = json.load(fh)
    gram["entries"][0] = True
    code, out = run(capsys, "pos", "gram-map", write_json(tmp_path, "gram.json", gram))
    assert code == 2
    assert strict_json(out) == {"error": "TypeError",
                                "message": "bool True in Gram entries is not a number"}


def _with_strings(name, *path):
    """The fixture `name` with the number, or each number of the list, at path
    written as a string."""
    def make():
        with open(fixture(name)) as fh:
            doc = json.load(fh)
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        value = node[last]
        node[last] = [str(x) for x in value] if isinstance(value, list) else str(value)
        return doc
    return make


@pytest.mark.parametrize("command,make", [
    (GRAM_MAP[1], _with_strings(GRAM_MAP[0], "entries")),
    (APPROX_RUN[1], _with_strings(APPROX_RUN[0], "gram", "entries")),
    (APPROX_RUN[1], _with_strings(APPROX_RUN[0], "witness", 0, "weight")),
    (APPROX_RUN[1], _with_strings(APPROX_RUN[0], "witness", 0, "factors", 1)),
    ("bridge to-poly {}", lambda: {"dims": [2, 2], "mode": "float",
                                   "entries": ["1.5", " 2 ", 0, 1]}),
    ("dec verify {}", lambda: _double_edge_bundle("1.0")),
], ids=["gram-entries", "approx-gram-entries", "witness-weight", "witness-factor",
        "float-tensor-entry", "float-coefficient"])
def test_string_float_is_an_input_error(capsys, tmp_path, command, make):
    code = main(command.format(write_json(tmp_path, "input.json", make())).split())
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    payload = strict_json(captured.out)
    assert payload["error"] == "TypeError"
    assert payload["message"].startswith("str '")
    assert payload["message"].endswith(" is not a number")


@pytest.mark.parametrize("argv,message", [
    (["--eq-tol", "-inf"] + BOUND, "argument --eq-tol: expected one argument"),
    (["--bogus"] + BOUND, "unrecognized arguments: --bogus"),
    (["pos", "bound", "--m"], "argument --m: expected one argument"),
], ids=["bare-negative-value", "unknown-option", "missing-value"])
def test_usage_error_ends_in_the_envelope(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    assert strict_json(captured.out) == {"error": "UsageError", "message": message}


def _raise_fault(run):
    raise RuntimeError("handler fault")


@pytest.mark.parametrize("fault,error,message", [
    (lambda mp: mp.setitem(cli.COMMANDS["pos"], "bound",
                           (_raise_fault, cli.COMMANDS["pos"]["bound"][1])),
     "RuntimeError", "handler fault"),
    # a handler imports its layers when it runs, so a failed import ends there too
    (lambda mp: mp.setitem(sys.modules, "omegadec.decomposition", None), "ModuleNotFoundError",
     "import of omegadec.decomposition halted; None in sys.modules"),
], ids=["handler-raises", "import-fails"])
def test_any_other_exception_is_an_internal_error(capsys, monkeypatch, fault, error, message):
    fault(monkeypatch)
    code = main(BOUND)
    captured = capsys.readouterr()
    assert code == 4 and captured.err == ""
    assert strict_json(captured.out) == {"error": error, "message": message}


def test_help_still_exits_zero(capsys):
    assert main(["-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: omega")


@pytest.mark.parametrize("argv,code", [
    (["pos", "gram-map", fixture("bell_gram.json")], 0),
    (["family", "check", fixture("planted_negative_family.json"), "--n-max", "6"], 1),
    (["dec", "verify", "does-not-exist.json"], 2),
], ids=["report", "verdict-fail", "error-envelope"])
def test_closed_stdout_ends_quietly_with_the_exit_code(argv, code):
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    # the reader is gone before the command writes, as after `| head -c 10`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "omegadec.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == code
    assert done.stderr == b""


def _sizes_bundle(field, value):
    """The squares bundle without locals or an expected contraction, with one size set."""
    with open(fixture("squares_double_edge.json")) as fh:
        doc = json.load(fh)
    del doc["expected"]
    doc["decomposition"]["locals"] = []
    doc["decomposition"][field] = value
    return doc


@pytest.mark.parametrize("command,field,value,message", [
    ("verify", "index_size", -3, "index_size -3 and site_vars [1, 1] must be >= 0"),
    ("contract", "site_vars", [-1, -1], "index_size 2 and site_vars [-1, -1] must be >= 0"),
], ids=["verify-negative-index", "contract-negative-site-vars"])
def test_negative_sizes_are_input_errors(capsys, tmp_path, command, field, value, message):
    """Earlier versions exited 0 and reported the negative size back."""
    path = write_json(tmp_path, "bundle.json", _sizes_bundle(field, value))
    code, out = run(capsys, "dec", command, path)
    assert code == 2
    assert strict_json(out) == {"error": "ValueError", "message": message}
    # the same bundle with its size back at a valid value exits 0
    valid = write_json(tmp_path, "valid.json", _sizes_bundle(field, 0 if field == "index_size"
                                                              else [1, 1]))
    assert run(capsys, "dec", command, valid)[0] == 0


@pytest.mark.parametrize("index_size", [1, 2, 3])
def test_factorizable_reports_an_infeasible_system(capsys, tmp_path, index_size):
    """The swapped triangle of double edges has no invariant splitting at index
    sizes 2 and 3: a verdict, exit 1, with no constants."""
    from test_positivity import TRIANGLE_ACTION, TRIANGLE_COMPLEX
    code, out = run(capsys, "pos", "factorizable",
                    "--complex", write_json(tmp_path, "complex.json", TRIANGLE_COMPLEX),
                    "--action", write_json(tmp_path, "action.json", TRIANGLE_ACTION),
                    "--index-size", str(index_size))
    result = strict_json(out)["result"]
    if index_size == 1:
        assert code == 0
        assert result == {"feasible": True, "residual": 0.0, "constants": {
            f"site{i}:1,1,1,1": 1.0 for i in range(3)}}
    else:
        assert code == 1
        assert result == {"feasible": False}


def test_factorizable_index_size_zero_is_an_input_error(capsys):
    """Earlier versions exited 2 with numpy's "need at least one array to concatenate"."""
    code, out = run(capsys, "pos", "factorizable", "--complex", fixture("double_edge_complex.json"),
                    "--action", fixture("double_edge_swap_action.json"), "--index-size", "0")
    assert code == 2
    assert strict_json(out) == {"error": "ValueError",
                                "message": "index size must be >= 1, got 0"}


@pytest.mark.parametrize("dims,count", [
    ([10**4000, 10**4000], 1), ([10**4000, 1], 1), ([1, 10**4000], 1), ([2, 3], 7),
], ids=["both-huge", "first-huge", "last-huge", "small"])
def test_tensor_dims_past_the_entry_count_name_the_dims(capsys, tmp_path, dims, count):
    """Earlier versions printed the interpreter's integer string conversion limit
    for the product of huge dims."""
    tensor = {"dims": dims, "entries": [1] * count}
    code, out = run(capsys, "bridge", "to-poly", write_json(tmp_path, "tensor.json", tensor))
    assert code == 2
    assert strict_json(out) == {"error": "DimensionMismatch",
                                "message": f"dims {dims} do not hold {count} entries"}


def _witness_with(edit):
    with open(fixture("approx_witness.json")) as fh:
        doc = json.load(fh)
    edit(doc["witness"])
    return doc


def _short_factor(witness):
    witness[0]["factors"][0] = witness[0]["factors"][0][:8]


def _non_psd_then_nan(witness):
    witness[0]["factors"][0] = [1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 1.0]
    witness[3]["factors"][1][2] = float("nan")


@pytest.mark.parametrize("edit,error,message", [
    (_short_factor, "DimensionMismatch", "factor shape (8,) != (3, 3)"),
    (_non_psd_then_nan, "ValueError", "witness factors must be PSD"),
], ids=["short-factor", "non-psd-then-nan"])
def test_approx_witness_fails_where_the_library_does(capsys, tmp_path, edit, error, message):
    """The command hands the witness to `SeparableGram` unread, so a bad witness
    fails at the library's first bad item; earlier versions read every factor
    first, and failed with "must be finite" and numpy's reshape error."""
    from omegadec.approx import SeparableGram
    from omegadec.positivity import GramRepresentation
    doc = _witness_with(edit)
    code, out = run(capsys, "approx", "run", write_json(tmp_path, "witness.json", doc),
                    "--epsilon", "0.5")
    assert code == 2
    assert strict_json(out) == {"error": error, "message": message}
    terms = [(t["weight"], t["factors"]) for t in doc["witness"]]
    with pytest.raises(Exception) as info:
        SeparableGram(GramRepresentation.from_obj(doc["gram"]), terms)
    assert (type(info.value).__name__, str(info.value)) == (error, message)


def test_polynomial_mode_is_read_before_its_coefficients(capsys, tmp_path):
    """Earlier versions read the coefficient 0.5 under the unknown mode "Float"
    as an exact rational and reported a float in rational mode."""
    doc = _double_edge_bundle(0.5)
    doc["decomposition"]["locals"][0]["poly"]["mode"] = "Float"
    code, out = run(capsys, "dec", "verify", write_json(tmp_path, "bundle.json", doc))
    assert code == 2
    assert strict_json(out) == {"error": "ValueError", "message": "unknown mode 'Float'"}


def _set(*path):
    """An edit that puts a value at path, a key or list index at each level."""
    def edit(doc, value):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


def _whole(doc, value):
    return value


DEC = ("double_edge_invariant.json", "dec verify {}")
APPROX = ("approx_witness.json", "approx run {} --epsilon 0.5")
# (file, command line, the edit, what the message names); the edit puts the value
# where an object belongs, or returns it as the whole file
OBJECT_POSITIONS = {
    "bundle": (*DEC, _whole, "bundle"),
    "complex": (*DEC, _set("complex"), "complex"),
    "facet": (*DEC, _set("complex", "facets", 0), "facet"),
    "action": (*DEC, _set("action"), "action"),
    "generator": (*DEC, _set("action", "generators", 0), "generator"),
    "decomposition": (*DEC, _set("decomposition"), "decomposition"),
    "decomposition scale": (*DEC, _set("decomposition", "scale"), "scale"),
    "local": (*DEC, _set("decomposition", "locals", 0), "local"),
    "local scale": (*DEC, _set("decomposition", "locals", 0, "scale"), "scale"),
    "local poly": (*DEC, _set("decomposition", "locals", 0, "poly"), "polynomial"),
    "poly term": (*DEC, _set("decomposition", "locals", 0, "poly", "terms", 0),
                  "polynomial term"),
    "expected": (*DEC, _set("expected"), "polynomial"),
    "gram": ("bell_gram.json", "pos gram-map {}", _whole, "gram"),
    "tensor": ("distance_m4_tensor.json", "bridge to-poly {}", _whole, "tensor"),
    "family": ("nonnegative_family.json", "family check {} --n-max 2", _whole, "family"),
    "approx gram": (*APPROX, _set("gram"), "gram"),
    "witness term": (*APPROX, _set("witness", 0), "witness term"),
}


@pytest.mark.parametrize("value,type_name", [("x", "str"), ([1, 2], "list")],
                         ids=["string", "list"])
@pytest.mark.parametrize("position", OBJECT_POSITIONS)
def test_a_non_object_where_an_object_is_read_names_it(capsys, tmp_path, position, value,
                                                        type_name):
    """Earlier versions ended in exit 2 with Python's own "string indices must
    be integers, not 'str'" or "list indices must be integers or slices, not
    str", whose wording changes between Python versions."""
    name, command, edit, what = OBJECT_POSITIONS[position]
    with open(fixture(name)) as fh:
        doc = json.load(fh)
    doc = edit(doc, value) or doc
    code, out = run(capsys, *command.format(write_json(tmp_path, name, doc)).split())
    assert code == 2
    assert strict_json(out) == {"error": "TypeError",
                                "message": f"{what} must be an object, got {type_name}"}


def test_readme_cli_block_names_every_command_of_the_table():
    """Each `omega` line of README "CLI" parses and names a table entry, and
    every entry of the table appears there."""
    with open(README, encoding="utf-8") as fh:
        block = fh.read().split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#")[0].split() for line in block.splitlines() if line.startswith("omega ")]
    named = set()
    for words in lines:
        args = cli.build_parser().parse_args(words[1:])
        named.add((args.command, getattr(args, "subcmd", None)))
    assert named == {(command, subcmd) for command, subcommands in cli.COMMANDS.items()
                     for subcmd in subcommands}
