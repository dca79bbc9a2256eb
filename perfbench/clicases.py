"""The cli_fixtures workload: `omega` commands checked against the CLI contract.

A round runs every case once: the README commands on `fixtures/` (global
options before the subcommand), seeded generated bundles for `dec verify` and
`dec symmetrize`, and a fixed share of malformed inputs whose documented
outcome is exit 2 with a JSON error envelope. Two of the malformed inputs are
known defects of the CLI (a "1/0" coefficient, a NaN-poisoned `dec verify`);
they are expected to fail until the CLI is fixed and count as failures.

Each case must exit with its documented code, print strict JSON (no NaN or
Infinity), hold its known verdict, and print the same bytes every time it
runs within one benchmark run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import oracle
from workloads import Op, Workload, child_env, close_terms, poly_terms, random_factor

FIX = "fixtures"
REPORT_KEYS = {"version", "command", "seed", "inputs", "result"}


@dataclass
class Case:
    name: str
    argv: list[str]
    codes: tuple[int, ...]
    check: Callable[[int, dict], str | None] = lambda code, payload: None
    envelope: str = "report"          # "report", "error", or "any"
    known_defect: bool = False


def _result(payload: dict) -> dict:
    return payload["result"]


def _expect(**fields) -> Callable[[int, dict], str | None]:
    def check(code: int, payload: dict) -> str | None:
        res = _result(payload)
        for key, want in fields.items():
            if res.get(key) != want:
                return f"{key} = {res.get(key)!r}, expected {want!r}"
        return None
    return check


def _rational_parts(parts: list[dict]) -> dict[tuple, Fraction]:
    """Sum a serialized RadPoly whose parts all carry rational scales."""
    out: dict[tuple, Fraction] = {}
    for part in parts:
        scale = part.get("scale", {"r": "1", "k": 1})
        if scale["k"] != 1:
            raise ValueError(f"irrational scale {scale}")
        r = Fraction(scale["r"])
        for term in part["poly"]["terms"]:
            key = tuple(tuple(b) for b in term["exps"])
            out[key] = out.get(key, Fraction(0)) + r * Fraction(term["coeff"])
    return {k: c for k, c in out.items() if c}


def _poly_obj(coeffs: dict[int, Fraction]) -> dict:
    return {"sites": [1], "mode": "rational",
            "terms": [{"exps": [[d]], "coeff": str(c)} for d, c in sorted(coeffs.items())]}


def _expected_obj(expanded: dict[tuple[int, ...], Fraction], V: int) -> dict:
    return {"sites": [1] * V, "mode": "rational",
            "terms": [{"exps": [[e] for e in key], "coeff": str(c)}
                      for key, c in sorted(expanded.items())]}


# the README commands ---------------------------------------------------------

def _check_to_poly(code: int, payload: dict) -> str | None:
    res = _result(payload)
    want = oracle.distance_entries(4)
    terms = res["polynomial"]["terms"]
    for t in terms:
        i, j = t["exps"][0].index(2), t["exps"][1].index(2)
        if Fraction(t["coeff"]) != want[i, j]:
            return f"entry ({i},{j}) = {t['coeff']}"
    if len(terms) != int((want != 0).sum()) or res["positivity"]["min_entry"] != "0":
        return "wrong term count or minimum entry"
    return None


def _check_gram_map(code: int, payload: dict) -> str | None:
    with open(os.path.join(FIX, "bell_gram.json")) as fh:
        g = json.load(fh)
    dim = int(len(g["entries"]) ** 0.5)
    M = np.array(g["entries"], dtype=float).reshape(dim, dim)
    want = oracle.gram_polynomial(M, g["n"] + 1, g["m"], g["d"])
    got = {tuple(tuple(b) for b in t["exps"]): t["coeff"]
           for t in _result(payload)["polynomial"]["terms"]}
    return None if oracle.coeffs_close(got, want, 1e-12) else "gram map differs"


def _check_sos_family(code: int, payload: dict) -> str | None:
    res = _result(payload)
    if not res["sum_squares_error"] <= 1e-9 or res["family_invariant"] is not True:
        return f"sos error {res['sum_squares_error']}, invariant {res['family_invariant']}"
    return None


def _check_factorizable(code: int, payload: dict) -> str | None:
    res = _result(payload)
    if res["feasible"] is not True or any(abs(v - 1.0) > 1e-9 for v in res["constants"].values()):
        return "free double edge should give all constants 1"
    return None


def _check_squares(code: int, payload: dict) -> str | None:
    res = _result(payload)
    got = _rational_parts(res["contraction"])
    if res.get("matches_expected") is not True or got != {((2,), (0,)): 1, ((0,), (2,)): 1}:
        return f"contraction {got}"
    return None


def _check_approx(code: int, payload: dict) -> str | None:
    res = _result(payload)
    if not res["error_schatten2"] < 0.5 or res["index_size"] > res["budget"]:
        return f"error {res['error_schatten2']} index {res['index_size']}"
    return None


def _check_planted(code: int, payload: dict) -> str | None:
    res = _result(payload)
    if res["first_violation"] != 1 or "no algorithm" not in res["disclaimer"]:
        return f"first violation {res['first_violation']}"
    return None


def readme_cases() -> list[Case]:
    de_c, de_a = f"{FIX}/double_edge_complex.json", f"{FIX}/double_edge_swap_action.json"
    c5_c, c5_a = f"{FIX}/circle5_complex.json", f"{FIX}/circle5_rotation_action.json"
    return [
        Case("complex_build", ["complex", "build", de_c], (0,),
             _expect(vertex_count=2, multifacet_count=2, connected=True)),
        Case("complex_info", ["complex", "info", c5_c], (0,),
             _expect(vertex_count=5, facet_count=5, multifacet_count=5, connected=True)),
        Case("action_check", ["action", "check", c5_c, c5_a], (0,),
             _expect(order=5, free=True, blending=False)),
        Case("action_refine", ["action", "refine", de_c, de_a], (0,), _expect(free=True)),
        Case("dec_contract", ["dec", "contract", f"{FIX}/squares_double_edge.json"], (0,),
             _check_squares),
        Case("dec_verify", ["--eq-tol", "1e-9", "dec", "verify",
                            f"{FIX}/double_edge_invariant.json"], (0,),
             _expect(symmetry_ok=True, matches_expected=True)),
        Case("pos_gram_map", ["pos", "gram-map", f"{FIX}/bell_gram.json"], (0,), _check_gram_map),
        Case("pos_sos_family", ["pos", "sos-family", "--gram", f"{FIX}/bell_gram.json",
                                "--complex", de_c, "--action", de_a], (0,), _check_sos_family),
        Case("pos_factorizable", ["pos", "factorizable", "--complex", de_c, "--action", de_a,
                                  "--index-size", "2"], (0,), _check_factorizable),
        Case("pos_bound", ["pos", "bound", "--m", "1", "--d", "2", "--n", "1", "--g", "2"], (0,),
             _expect(bound=18)),
        Case("bridge_to_poly", ["bridge", "to-poly", f"{FIX}/distance_m4_tensor.json"], (0,),
             _check_to_poly),
        # README uses --m 8; at m = 4 the nonnegative-rank search takes 1 s, not 3 s,
        # so startup and JSON I/O stay the bulk of this workload.
        Case("bridge_separations", ["bridge", "separations", "--m", "4"], (0,),
             _expect(bipartite_rank=3, psd_index=2, psd_verified=True, nn_lower_bound=2)),
        Case("family_planted", ["--max-assignments", "1000000", "family", "check",
                                f"{FIX}/planted_negative_family.json", "--n-max", "6"], (1,),
             _check_planted),
        Case("family_nonnegative", ["family", "check", f"{FIX}/nonnegative_family.json",
                                    "--n-max", "6"], (0,), _expect(violation_found=False)),
        # README writes `--seed 7` after the subcommand, which exits 2: it is global.
        Case("approx_run", ["--seed", "7", "approx", "run", f"{FIX}/approx_witness.json",
                            "--epsilon", "0.5"], (0,), _check_approx),
    ]


# generated bundles and malformed inputs --------------------------------------

def _write(workdir: str, name: str, obj, raw: str | None = None) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(raw if raw is not None else json.dumps(obj, sort_keys=True))
    return path


def _check_nan_verdict(code: int, payload: dict) -> str | None:
    """A NaN input must end in an error envelope (2) or a failing verdict (1)."""
    if code == 2:
        return None
    res = _result(payload)
    if res.get("matches_expected") is True and res.get("symmetry_ok") is True:
        return "NaN input reported a passing verdict"
    return None


def generated_cases(seed: int, workdir: str) -> list[Case]:
    from omegadec import build_action, standard_complex, symmetrize_free

    rng = random.Random(f"cli_fixtures:{seed}")
    cases = []

    def circle(n: int):
        shift = tuple((i + 1) % n for i in range(n))
        return build_action(standard_complex("circle", n), [(shift, shift)])

    def raw_terms(V: int, r: int):
        return [tuple(random_factor(rng, 2) for _ in range(V)) for _ in range(r)]

    verify_bundles = {}
    for n in (3, 4):
        a = circle(n)
        terms = close_terms(raw_terms(n, 2), a)
        dec = symmetrize_free(poly_terms(terms), a)
        expanded = oracle.expand(terms)
        bundle = {"complex": a.complex.to_obj(), "action": a.to_obj(),
                  "decomposition": dec.to_obj(), "expected": _expected_obj(expanded, n)}
        verify_bundles[n] = bundle
        path = _write(workdir, f"verify_circle{n}.json", bundle)

        def check(code, payload, want=expanded):
            res = _result(payload)
            if res.get("matches_expected") is not True or res.get("symmetry_ok") is not True:
                return "verdict is not a pass"
            got = _rational_parts(res["contraction"])
            if got != {tuple((e,) for e in k): c for k, c in want.items()}:
                return "contraction differs from the expanded sum of products"
            return None

        cases.append(Case(f"gen_verify_circle{n}", ["dec", "verify", path], (0,), check))

    a = circle(4)
    terms = close_terms(raw_terms(4, 1), a)
    path = _write(workdir, "symmetrize_free.json", {
        "complex": a.complex.to_obj(), "action": a.to_obj(),
        "terms": [[_poly_obj(f) for f in t] for t in terms]})
    count = len(a) * len(terms)

    def check_free(code, payload, count=count, V=4):
        res = _result(payload)
        if res["index_size"] != count or len(res["decomposition"]["locals"]) != V * count:
            return f"index size {res['index_size']}, expected {count}"
        return None

    cases.append(Case("gen_symmetrize_free", ["dec", "symmetrize", path, "--mode", "free"], (0,),
                      check_free))

    swap3 = build_action(standard_complex("simplex", 2), [((1, 0, 2), (0,)), ((1, 2, 0), (0,))])
    terms = close_terms(raw_terms(3, 1), swap3)
    path = _write(workdir, "symmetrize_blending.json", {
        "complex": swap3.complex.to_obj(), "action": swap3.to_obj(),
        "terms": [[_poly_obj(f) for f in t] for t in terms]})
    count = 4 * len(terms)          # 2**n split vectors, all kept for even n = 2

    def check_blending(code, payload, count=count):
        res = _result(payload)
        if res["minus_empty"] is not True or res["plus"]["index_size"] != count:
            return f"plus index {res['plus']['index_size']}, expected {count}"
        return None

    cases.append(Case("gen_symmetrize_blending",
                      ["dec", "symmetrize", path, "--mode", "blending"], (0,), check_blending))

    # malformed inputs: documented outcome is exit 2 with an error envelope
    def error(name, argv, kind):
        def check(code, payload, kind=kind):
            return None if payload["error"] == kind else f"error {payload['error']}"
        cases.append(Case(name, argv, (2,), check, envelope="error"))

    error("bad_missing_file", ["dec", "verify", os.path.join(workdir, "missing.json")],
          "FileNotFoundError")
    error("bad_truncated_json",
          ["dec", "verify", _write(workdir, "truncated.json", None, '{"complex": {"n": 1,')],
          "JSONDecodeError")
    error("bad_negative_weight",
          ["complex", "build", _write(workdir, "negative_weight.json",
                                      {"n": 1, "facets": [{"vertices": [0, 1], "weight": -1}]})],
          "ValueError")
    error("bad_action_perm",
          ["action", "check", f"{FIX}/circle5_complex.json",
           _write(workdir, "not_a_perm.json", {"generators": [
               {"vertex_perm": [0, 0, 1, 2, 3], "multifacet_perm": [0, 1, 2, 3, 4]}]})],
          "ValueError")
    no_dec = {k: v for k, v in verify_bundles[3].items() if k != "decomposition"}
    error("bad_missing_decomposition",
          ["dec", "verify", _write(workdir, "no_decomposition.json", no_dec)], "KeyError")
    error("bad_family_grid",
          ["family", "check", _write(workdir, "bad_grid.json",
                                     {"D": 2, "m": 1, "coeffs": [[[1], [2]]]}), "--n-max", "3"],
          "ValueError")

    # known defects: both should be rejected, and at this revision are not
    zero_den = json.loads(json.dumps(verify_bundles[3]))
    zero_den["decomposition"]["locals"][0]["poly"]["terms"][0]["coeff"] = "1/0"
    cases.append(Case("defect_zero_denominator",
                      ["dec", "verify", _write(workdir, "zero_denominator.json", zero_den)],
                      (2,), envelope="error", known_defect=True))
    nan = _nan_bundle()
    cases.append(Case("defect_nan_verify",
                      ["dec", "verify", _write(workdir, "nan_verify.json", None,
                                               json.dumps(nan, sort_keys=True))],
                      (1, 2), _check_nan_verdict, envelope="any", known_defect=True))
    return cases


def _nan_bundle() -> dict:
    """Float-mode double-edge decomposition of x^2 + y^2 with one NaN coefficient."""
    def local(site, beta, terms):
        return {"site": site, "beta": beta, "poly": {"sites": [1], "mode": "float", "terms": [
            {"exps": [[d]], "coeff": c} for d, c in terms]}}
    locals_ = [local(0, [1, 2], [(2, 1.0)]), local(0, [2, 1], [(0, float("nan"))]),
               local(1, [2, 1], [(2, 1.0)]), local(1, [1, 2], [(0, 1.0)])]
    return {"complex": {"n": 1, "facets": [{"vertices": [0, 1], "weight": 2}]},
            "action": {"generators": [{"vertex_perm": [1, 0], "multifacet_perm": [1, 0]}]},
            "decomposition": {"index_size": 2, "scale": {"r": "1/1", "k": 1},
                              "site_vars": [1, 1], "locals": locals_},
            "expected": {"sites": [1, 1], "mode": "float", "terms": [
                {"exps": [[2], [0]], "coeff": 1.0}, {"exps": [[0], [2]], "coeff": 1.0}]}}


# running a case ---------------------------------------------------------------

def judge(case: Case, code: int, out: bytes, seen: dict[str, bytes]) -> str | None:
    """Check exit code, strict JSON, envelope shape, verdict and repeatability."""
    first = seen.setdefault(case.name, out)
    if first != out:
        return "stdout differs from the first run of the same command"
    if code not in case.codes:
        return f"exit {code}, expected {case.codes}"
    try:
        payload = oracle.strict_json(out)
    except ValueError as exc:
        return f"stdout is not strict JSON: {exc}"
    if not isinstance(payload, dict):
        return "stdout is not a JSON object"
    shape = "error" if set(payload) == {"error", "message"} else (
        "report" if set(payload) == REPORT_KEYS else None)
    if shape is None or case.envelope not in ("any", shape):
        return f"unexpected envelope keys {sorted(payload)}"
    if shape == "error" and code != 2:
        return "error envelope with a non-input exit code"
    return case.check(code, payload)


def _subprocess_runner(env: dict, counters):
    def run(argv: list[str]) -> tuple[int, bytes]:
        proc = subprocess.Popen([sys.executable, "-m", "omegadec.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        counters["child_maxrss_kb"] = max(counters["child_maxrss_kb"], usage.ru_maxrss)
        return proc.returncode, out
    return run


def _inprocess_runner():
    from omegadec import cli

    def run(argv: list[str]) -> tuple[int, bytes]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except Exception:           # an escaped exception exits 1 with a traceback
                code = 1
        return code, buf.getvalue().encode("utf-8")
    return run


def setup(seed: int, *, tiny: bool = False, plant: bool = False,
          inprocess: bool = False) -> Workload:
    import omegadec.cli  # noqa: F401  -- part of set-up: the import every command pays

    workdir = os.path.join("perfbench", "_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    cases = readme_cases() + generated_cases(seed, workdir)
    if tiny:
        keep = {"pos_bound", "family_planted", "gen_verify_circle3", "bad_missing_file",
                "defect_zero_denominator", "defect_nan_verify"}
        cases = [c for c in cases if c.name in keep]
    if plant:
        for c in cases:
            c.codes = tuple((code + 1) % 4 for code in c.codes)
    wl = Workload([], in_process=inprocess)
    runner = _inprocess_runner() if inprocess else _subprocess_runner(child_env(), wl.counters)
    seen: dict[str, bytes] = {}

    def make(case: Case) -> Op:
        def run() -> str | None:
            code, out = runner(case.argv)
            wl.counters["stdout_bytes"] += len(out)
            if not out.startswith(b'{"command"'):
                wl.counters["error_ops"] += 1
            return judge(case, code, out, seen)
        return Op(case.name, run, case.known_defect)

    def close() -> None:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):        # the parent, once no run uses it
            os.rmdir(os.path.dirname(workdir))

    wl.rounds = [[make(c) for c in cases]]
    wl.close = close
    return wl
