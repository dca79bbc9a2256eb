"""Command-line front end: JSON in, JSON report out, deterministic by seed.

Exit codes: 0 success or verdict pass, 1 verdict fail, 2 usage or input
error, 3 resource guard exceeded, 4 internal error (any other exception).

Each handler imports the layers its command runs, so `complex`, `action` and
`family` never load `decomposition`. numpy is loaded only by `pos` (not
`pos bound`), `approx` and `accept`; `complex`, `action`, `family`, `dec`,
`pos bound`, `bridge to-poly` and `bridge separations` run without it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import __version__
from .errors import (DEFAULT_MAX_GROUP, DEFAULT_MAX_WORK, MAX_DIGITS, GuardExceeded, OmegaError,
                     UsageError, _object, digits_checked)

EXIT_OK = 0
EXIT_VERDICT_FAIL = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 4


class _Run:
    def __init__(self, args):
        self.args = args
        self.inputs: dict[str, str] = {}

    def read(self, path: str) -> dict:
        """Parse the UTF-8 input file and record the digest of the same bytes."""
        import hashlib      # only commands that read a file load OpenSSL
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            obj = json.loads(data.decode("utf-8"), parse_int=lambda s: int(digits_checked(s)))
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
        self.inputs[path] = hashlib.sha256(data).hexdigest()
        return obj

    def report(self, command: str, result: dict, code: int = EXIT_OK) -> int:
        envelope = {
            "version": __version__,
            "command": command,
            "seed": getattr(self.args, "seed", 0),
            "inputs": self.inputs,
            "result": result,
        }
        _emit(json.dumps(envelope, sort_keys=True, allow_nan=False))
        return code

    def pretty(self, *lines: str) -> None:
        if getattr(self.args, "pretty", False):
            for line in lines:
                print(line, file=sys.stderr)


def _load_bundle(run: _Run, path: str):
    from .complexes import WeightedComplex
    from .symmetry import SymmetryAction
    obj = _object(run.read(path), "bundle")
    cplx = WeightedComplex.from_obj(obj["complex"])
    action = None
    # only an absent key or null means the trivial group; [] or {} is an input error
    if obj.get("action") is not None:
        action = SymmetryAction.from_obj(cplx, obj["action"],
                                         max_group=run.args.max_group)
    return obj, cplx, action


def _load_action(run: _Run):
    """The action and its complex, read from the command's complex and action files."""
    from .complexes import WeightedComplex
    from .symmetry import SymmetryAction
    cplx = WeightedComplex.from_obj(run.read(run.args.complex))
    return SymmetryAction.from_obj(cplx, run.read(run.args.action), max_group=run.args.max_group)


def _cmd_complex(run: _Run) -> int:
    from .complexes import WeightedComplex, is_connected
    obj = run.read(run.args.file)
    cplx = WeightedComplex.from_obj(obj)
    result = {
        "complex": cplx.to_obj(),
        "vertex_count": cplx.vertex_count,
        "facet_count": len(cplx.facets),
        "multifacet_count": cplx.label_count,
        "connected": is_connected(cplx),
    }
    run.pretty(f"complex on {cplx.vertex_count} vertices, "
               f"{cplx.label_count} multifacet labels")
    return run.report(f"complex {run.args.subcmd}", result)


def _cmd_action(run: _Run) -> int:
    from .symmetry import free_refinement, is_blending, is_free
    action = _load_action(run)
    if run.args.subcmd == "check":
        result = {
            "order": len(action),
            "free": is_free(action),
            "blending": is_blending(action),
            "label_orbits": action.label_orbits(),
            "vertex_orbits": action.vertex_orbits(),
        }
        run.pretty(f"group of order {len(action)}, free={result['free']}, "
                   f"blending={result['blending']}")
        return run.report("action check", result)
    refined = free_refinement(action)
    result = {"complex": refined.complex.to_obj(), "action": refined.to_obj(),
              "free": is_free(refined)}
    return run.report("action refine", result)


def _cmd_dec(run: _Run) -> int:
    from .blockpoly import BlockPolynomial
    from .decomposition import OmegaGDecomposition, blending_difference, symmetrize_free
    from .radpoly import RadPoly
    if run.args.subcmd == "symmetrize":
        obj, cplx, action = _load_bundle(run, run.args.file)
        if action is None:
            raise OmegaError("symmetrize needs an action in the bundle")
        terms = [tuple(BlockPolynomial.from_obj(p) for p in term)
                 for term in obj["terms"]]
        if run.args.mode == "free":
            dec = symmetrize_free(terms, action)
            result = {"decomposition": dec.to_obj(), "index_size": dec.index_size}
        else:
            q1, q2 = blending_difference(terms, action)
            result = {"plus": q1.to_obj(), "minus": q2.to_obj(),
                      "minus_empty": q2.local_count() == 0}
        return run.report(f"dec symmetrize --mode {run.args.mode}", result)

    obj, cplx, action = _load_bundle(run, run.args.file)
    dec = OmegaGDecomposition.from_obj(cplx, action, obj["decomposition"])
    contraction = dec.contract(run.args.max_assignments)
    result: dict = {"contraction": contraction.to_obj(),
                    "index_size": dec.index_size}
    code = EXIT_OK
    if run.args.subcmd == "verify":
        result["symmetry_ok"] = dec.check_symmetry(run.args.eq_tol)
        if not result["symmetry_ok"]:
            code = EXIT_VERDICT_FAIL
    if obj.get("expected") is not None:
        expected = RadPoly.from_poly(BlockPolynomial.from_obj(obj["expected"]))
        matches = contraction.matches(expected, run.args.eq_tol)
        result["matches_expected"] = matches
        if not matches:
            code = EXIT_VERDICT_FAIL
    run.pretty(f"index {dec.index_size}, {dec.local_count()} stored locals")
    return run.report(f"dec {run.args.subcmd}", result, code)


def _cmd_pos(run: _Run) -> int:
    if run.args.subcmd == "bound":
        from .decomposition import caratheodory_bound
        bound = caratheodory_bound(run.args.m, run.args.d, run.args.n, run.args.g)
        run.pretty(f"separable index bound: {bound}")
        return run.report("pos bound", {"bound": bound})
    from .positivity import (GramRepresentation, factorizability_solve, gram_map,
                             invariant_sos_family)
    if run.args.subcmd == "gram-map":
        gram = GramRepresentation.from_obj(run.read(run.args.file))
        return run.report("pos gram-map", {"polynomial": gram_map(gram).to_obj()})
    if run.args.subcmd == "factorizable":
        action = _load_action(run)
        sol = factorizability_solve(action.complex, action, run.args.index_size,
                                    run.args.max_assignments)
        if sol is None:
            return run.report("pos factorizable", {"feasible": False},
                              EXIT_VERDICT_FAIL)
        values = {f"site{site}:{','.join(map(str, beta))}": v
                  for (site, beta), v in sorted(sol.values.items())}
        return run.report("pos factorizable",
                          {"feasible": True, "residual": sol.residual,
                           "constants": values})
    # sos-family
    gram = GramRepresentation.from_obj(run.read(run.args.gram))
    action = _load_action(run)
    family = invariant_sos_family(gram, action, run.args.psd_tol)
    target = gram_map(gram)
    recon = family.sum_squares()
    err = max((abs(recon.terms.get(k, 0.0) - target.terms.get(k, 0.0))
               for k in set(recon.terms) | set(target.terms)), default=0.0)
    result = {
        "members": {":".join(map(str, k)): q.to_obj() for k, q in
                    sorted(family.polys.items(), key=lambda kv: repr(kv[0]))},
        "sum_squares_error": err,
        "family_invariant": family.family_invariant(action, run.args.eq_tol),
    }
    return run.report("pos sos-family", result)


def _cmd_bridge(run: _Run) -> int:
    from .tensorbridge import DenseTensor, poly_from_tensor, separations_report, tensor_positivity
    if run.args.subcmd == "to-poly":
        tensor = DenseTensor.from_obj(run.read(run.args.file))
        poly = poly_from_tensor(tensor)
        result = {"polynomial": poly.to_obj(),
                  "positivity": {k: (str(v) if k == "min_entry" else
                                     (list(v) if isinstance(v, tuple) else v))
                                 for k, v in tensor_positivity(tensor).items()}}
        return run.report("bridge to-poly", result)
    report = separations_report(run.args.m, seed=run.args.seed,
                                max_work=run.args.max_assignments)
    run.pretty(f"m={run.args.m}: rank {report['bipartite_rank']}, "
               f"psd index {report['psd_index']}, "
               f"nn bounds [{report['nn_lower_bound']}, {report['nn_upper_bound']}]")
    return run.report("bridge separations", report)


def _cmd_family(run: _Run) -> int:
    from .familycheck import LocalFamily, bounded_positivity_check
    fam = LocalFamily.from_obj(run.read(run.args.file))
    report = bounded_positivity_check(fam, run.args.n_max, run.args.n_min,
                                      run.args.max_assignments)
    run.pretty(*(f"n={s.n}: min entry {s.min_entry} at {s.witness}"
                 for s in report.sizes))
    code = EXIT_VERDICT_FAIL if report.violation_found else EXIT_OK
    return run.report("family check", report.to_obj(), code)


def _cmd_approx(run: _Run) -> int:
    from .approx import SeparableGram, approx_separable
    from .positivity import GramRepresentation
    obj, cplx, action = _load_bundle(run, run.args.file)
    if action is None:
        raise OmegaError("approx needs an action in the bundle")
    gram = GramRepresentation.from_obj(obj["gram"])
    terms = (_object(t, "witness term") for t in obj["witness"])
    sg = SeparableGram(gram, [(t["weight"], t["factors"]) for t in terms])
    result = approx_separable(sg, action, run.args.epsilon, seed=run.args.seed)
    run.pretty(f"error {result.error_schatten2:.4g} with "
               f"{result.terms_used} sampled terms")
    return run.report("approx run", result.to_obj())


def _cmd_accept(run: _Run) -> int:
    from .acceptance import run_all
    results = run_all(printer=lambda line: print(line, file=sys.stderr))
    result = {"criteria": [{"number": r.number, "name": r.name,
                            "passed": r.passed, "details": r.details}
                           for r in results],
              "all_passed": all(r.passed for r in results)}
    return run.report("accept", result,
                      EXIT_OK if result["all_passed"] else EXIT_VERDICT_FAIL)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise, so they end in the envelope
    like every other input error; the subcommand parsers are of this class too."""

    def error(self, message):
        raise UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: parsing keeps no state in it."""
    parser = _Parser(prog="omega", allow_abbrev=False,
                     description="invariant polynomial decompositions")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pretty", action="store_true",
                        help="human-readable summary on stderr")
    # the tolerances and guards are read by _check_options, not by argparse
    parser.add_argument("--psd-tol", dest="psd_tol", default=1e-9)
    parser.add_argument("--eq-tol", dest="eq_tol", default=1e-9)
    parser.add_argument("--max-assignments", dest="max_assignments", default=DEFAULT_MAX_WORK)
    parser.add_argument("--max-group", dest="max_group", default=DEFAULT_MAX_GROUP)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complex")
    ps = p.add_subparsers(dest="subcmd", required=True)
    for name in ("build", "info"):
        q = ps.add_parser(name)
        q.add_argument("file")

    p = sub.add_parser("action")
    ps = p.add_subparsers(dest="subcmd", required=True)
    for name in ("check", "refine"):
        q = ps.add_parser(name)
        q.add_argument("complex")
        q.add_argument("action")

    p = sub.add_parser("dec")
    ps = p.add_subparsers(dest="subcmd", required=True)
    for name in ("contract", "verify"):
        q = ps.add_parser(name)
        q.add_argument("file")
    q = ps.add_parser("symmetrize")
    q.add_argument("file")
    q.add_argument("--mode", choices=("free", "blending"), required=True)

    p = sub.add_parser("pos")
    ps = p.add_subparsers(dest="subcmd", required=True)
    q = ps.add_parser("gram-map")
    q.add_argument("file")
    q = ps.add_parser("sos-family")
    q.add_argument("--gram", required=True)
    q.add_argument("--complex", required=True)
    q.add_argument("--action", required=True)
    q = ps.add_parser("factorizable")
    q.add_argument("--complex", required=True)
    q.add_argument("--action", required=True)
    q.add_argument("--index-size", dest="index_size", type=int, required=True)
    q = ps.add_parser("bound")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--g", type=int, required=True)

    p = sub.add_parser("bridge")
    ps = p.add_subparsers(dest="subcmd", required=True)
    q = ps.add_parser("to-poly")
    q.add_argument("file")
    q = ps.add_parser("separations")
    q.add_argument("--m", type=int, required=True)

    p = sub.add_parser("family")
    ps = p.add_subparsers(dest="subcmd", required=True)
    q = ps.add_parser("check")
    q.add_argument("file")
    q.add_argument("--n-max", dest="n_max", type=int, required=True)
    q.add_argument("--n-min", dest="n_min", type=int, default=1)

    p = sub.add_parser("approx")
    ps = p.add_subparsers(dest="subcmd", required=True)
    q = ps.add_parser("run")
    q.add_argument("file")
    q.add_argument("--epsilon", required=True)

    sub.add_parser("accept")
    return parser


_HANDLERS = {
    "complex": _cmd_complex,
    "action": _cmd_action,
    "dec": _cmd_dec,
    "pos": _cmd_pos,
    "bridge": _cmd_bridge,
    "family": _cmd_family,
    "approx": _cmd_approx,
    "accept": _cmd_accept,
}


def main(argv=None) -> int:
    """Run one command and return its exit code. Ints are read and printed
    under a limit of MAX_DIGITS digits, whatever PYTHONINTMAXSTRDIGITS says;
    the interpreter's limit is restored afterwards."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(MAX_DIGITS)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:      # -h or --help printed the help
        return EXIT_OK
    except UsageError as exc:
        return _error(exc, EXIT_USAGE)
    run = _Run(args)
    try:
        _check_options(args)
        return _HANDLERS[args.command](run)
    except GuardExceeded as exc:
        return _error(exc, EXIT_GUARD)
    except OmegaError as exc:
        return _error(exc, EXIT_USAGE)
    except (OSError, KeyError, ValueError, TypeError, AttributeError,
            ArithmeticError) as exc:
        # ValueError covers malformed JSON and a report holding NaN or
        # infinity, which strict JSON cannot encode; AttributeError a JSON
        # value of the wrong type, such as a list where an object belongs;
        # ArithmeticError a "1/0" coefficient
        return _error(exc, EXIT_USAGE)
    except Exception as exc:     # a fault of the program, a failed import among them
        return _error(exc, EXIT_INTERNAL)


def _check_options(args) -> None:
    """Read every tolerance, guard and epsilon option into args, or raise ValueError.

    A NaN or infinite tolerance would pass every comparison, and a guard
    below 1 would trip on any input. They are read after parsing, not by
    argparse (whose errors reach the envelope as UsageError), so that each
    failure stays a ValueError that names the option's rule.
    """
    tolerance = (float, lambda v: math.isfinite(v) and v >= 0, "finite and >= 0")
    guard = (int, lambda v: v >= 1, "an integer >= 1")
    rules = {"psd_tol": tolerance, "eq_tol": tolerance, "max_assignments": guard,
             "max_group": guard}
    if args.command == "approx":
        rules["epsilon"] = (float, lambda v: math.isfinite(v) and v > 0, "finite and > 0")
    for name, (read, ok, rule) in rules.items():
        raw = getattr(args, name)
        try:
            value = read(raw)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise ValueError(f"--{name.replace('_', '-')} must be {rule}, got {raw!r}")
        setattr(args, name, value)


def _error(exc: Exception, code: int) -> int:
    _emit(json.dumps({"error": type(exc).__name__, "message": str(exc)},
                     sort_keys=True, allow_nan=False))
    return code


def _emit(line: str) -> None:
    """Print one line on stdout. If the reader closed the pipe, stdout is
    pointed at os.devnull, so the run ends quietly with its own exit code and
    the flush at exit finds nowhere to fail (the SIGPIPE note of Python's
    `signal` documentation)."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


if __name__ == "__main__":
    sys.exit(main())
