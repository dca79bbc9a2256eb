"""CLI surface: exit codes, schemas, determinism."""

import json
import os
import subprocess
import sys
import warnings

import pytest

from omegadec.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
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
    monkeypatch.setattr("omegadec.positivity.caratheodory_bound", lambda *args: float("nan"))
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
