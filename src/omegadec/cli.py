"""Command-line front end: JSON in, JSON report out, deterministic by seed.

Exit codes: 0 success or verdict pass, 1 verdict fail, 2 usage or input
error, 3 resource guard exceeded, 4 internal error (any other exception).

Every command comes from one table, `COMMANDS`, which maps each command to
its subcommands and each subcommand to its handler and arguments: the parser
is built from it, `main` dispatches through it, and the report is named after
the parsed command line. A handler serves one subcommand and returns its
result, paired with an exit code when it can fail a verdict.

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

    def report(self, answer: dict | tuple[dict, int]) -> int:
        """Print the report of a handler's answer, its result or its result and
        exit code, named after the parsed command, subcommand and --mode."""
        result, code = answer if isinstance(answer, tuple) else (answer, EXIT_OK)
        args = self.args
        command = " ".join(filter(None, (args.command, getattr(args, "subcmd", None))))
        if getattr(args, "mode", None):
            command += f" --mode {args.mode}"
        envelope = {
            "version": __version__,
            "command": command,
            "seed": args.seed,
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


def _complex(run: _Run) -> dict:
    from .complexes import WeightedComplex, is_connected
    cplx = WeightedComplex.from_obj(run.read(run.args.file))
    result = {
        "complex": cplx.to_obj(),
        "vertex_count": cplx.vertex_count,
        "facet_count": len(cplx.facets),
        "multifacet_count": cplx.label_count,
        "connected": is_connected(cplx),
    }
    run.pretty(f"complex on {cplx.vertex_count} vertices, "
               f"{cplx.label_count} multifacet labels")
    return result


def _action_check(run: _Run) -> dict:
    from .symmetry import is_blending, is_free
    action = _load_action(run)
    result = {
        "order": len(action),
        "free": is_free(action),
        "blending": is_blending(action),
        "label_orbits": action.label_orbits(),
        "vertex_orbits": action.vertex_orbits(),
    }
    run.pretty(f"group of order {len(action)}, free={result['free']}, "
               f"blending={result['blending']}")
    return result


def _action_refine(run: _Run) -> dict:
    from .symmetry import free_refinement, is_free
    refined = free_refinement(_load_action(run))
    return {"complex": refined.complex.to_obj(), "action": refined.to_obj(),
            "free": is_free(refined)}


def _dec_contract(run: _Run) -> tuple[dict, int]:
    """`dec contract`, and `dec verify`, which adds the symmetry verdict."""
    from .blockpoly import BlockPolynomial
    from .decomposition import OmegaGDecomposition
    from .radpoly import RadPoly
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
    return result, code


def _dec_symmetrize(run: _Run) -> dict:
    from .blockpoly import BlockPolynomial
    from .decomposition import blending_difference, symmetrize_free
    obj, cplx, action = _load_bundle(run, run.args.file)
    if action is None:
        raise OmegaError("symmetrize needs an action in the bundle")
    terms = [tuple(BlockPolynomial.from_obj(p) for p in term)
             for term in obj["terms"]]
    if run.args.mode == "free":
        dec = symmetrize_free(terms, action)
        return {"decomposition": dec.to_obj(), "index_size": dec.index_size}
    q1, q2 = blending_difference(terms, action)
    return {"plus": q1.to_obj(), "minus": q2.to_obj(), "minus_empty": q2.local_count() == 0}


def _pos_gram_map(run: _Run) -> dict:
    from .positivity import GramRepresentation, gram_map
    gram = GramRepresentation.from_obj(run.read(run.args.file))
    return {"polynomial": gram_map(gram).to_obj()}


def _pos_sos_family(run: _Run) -> dict:
    from .positivity import GramRepresentation, gram_map, invariant_sos_family
    gram = GramRepresentation.from_obj(run.read(run.args.gram))
    action = _load_action(run)
    family = invariant_sos_family(gram, action, run.args.psd_tol)
    target = gram_map(gram)
    recon = family.sum_squares()
    err = max((abs(recon.terms.get(k, 0.0) - target.terms.get(k, 0.0))
               for k in set(recon.terms) | set(target.terms)), default=0.0)
    return {
        "members": {":".join(map(str, k)): q.to_obj() for k, q in
                    sorted(family.polys.items(), key=lambda kv: repr(kv[0]))},
        "sum_squares_error": err,
        "family_invariant": family.family_invariant(action, run.args.eq_tol),
    }


def _pos_factorizable(run: _Run) -> tuple[dict, int]:
    from .positivity import factorizability_solve
    action = _load_action(run)
    sol = factorizability_solve(action, run.args.index_size, run.args.max_assignments)
    if sol is None:
        return {"feasible": False}, EXIT_VERDICT_FAIL
    values = {f"site{site}:{','.join(map(str, beta))}": v
              for (site, beta), v in sorted(sol.values.items())}
    return {"feasible": True, "residual": sol.residual, "constants": values}, EXIT_OK


def _pos_bound(run: _Run) -> dict:
    from .decomposition import caratheodory_bound
    bound = caratheodory_bound(run.args.m, run.args.d, run.args.n, run.args.g)
    run.pretty(f"separable index bound: {bound}")
    return {"bound": bound}


def _bridge_to_poly(run: _Run) -> dict:
    from .tensorbridge import DenseTensor, poly_from_tensor, tensor_positivity
    tensor = DenseTensor.from_obj(run.read(run.args.file))
    return {"polynomial": poly_from_tensor(tensor).to_obj(),
            "positivity": {k: (str(v) if k == "min_entry" else
                               (list(v) if isinstance(v, tuple) else v))
                           for k, v in tensor_positivity(tensor).items()}}


def _bridge_separations(run: _Run) -> dict:
    from .tensorbridge import separations_report
    report = separations_report(run.args.m, seed=run.args.seed,
                                max_work=run.args.max_assignments)
    run.pretty(f"m={run.args.m}: rank {report['bipartite_rank']}, "
               f"psd index {report['psd_index']}, "
               f"nn bounds [{report['nn_lower_bound']}, {report['nn_upper_bound']}]")
    return report


def _family_check(run: _Run) -> tuple[dict, int]:
    from .familycheck import LocalFamily, bounded_positivity_check
    fam = LocalFamily.from_obj(run.read(run.args.file))
    report = bounded_positivity_check(fam, run.args.n_max, run.args.n_min,
                                      run.args.max_assignments)
    run.pretty(*(f"n={s.n}: min entry {s.min_entry} at {s.witness}"
                 for s in report.sizes))
    return report.to_obj(), EXIT_VERDICT_FAIL if report.violation_found else EXIT_OK


def _approx_run(run: _Run) -> dict:
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
    return result.to_obj()


def _accept(run: _Run) -> tuple[dict, int]:
    from .acceptance import run_all
    results = run_all(printer=lambda line: print(line, file=sys.stderr))
    result = {"criteria": [{"number": r.number, "name": r.name,
                            "passed": r.passed, "details": r.details}
                           for r in results],
              "all_passed": all(r.passed for r in results)}
    return result, EXIT_OK if result["all_passed"] else EXIT_VERDICT_FAIL


# An argument is an add_argument name and its keywords.
_FILE = ("file", {})
_REQUIRED = {"required": True}
_INT = {"type": int, "required": True}
_ON_ACTION = (("--complex", _REQUIRED), ("--action", _REQUIRED))
_ACTION_FILES = (("complex", {}), ("action", {}))

# command -> subcommand -> (handler, arguments), in the parser's order; the
# subcommand of a command that has none is None
COMMANDS = {
    "complex": {"build": (_complex, (_FILE,)), "info": (_complex, (_FILE,))},
    "action": {"check": (_action_check, _ACTION_FILES),
               "refine": (_action_refine, _ACTION_FILES)},
    "dec": {"contract": (_dec_contract, (_FILE,)), "verify": (_dec_contract, (_FILE,)),
            "symmetrize": (_dec_symmetrize, (
                _FILE, ("--mode", {"choices": ("free", "blending"), "required": True})))},
    "pos": {"gram-map": (_pos_gram_map, (_FILE,)),
            "sos-family": (_pos_sos_family, (("--gram", _REQUIRED), *_ON_ACTION)),
            "factorizable": (_pos_factorizable, (*_ON_ACTION, ("--index-size", _INT))),
            "bound": (_pos_bound, tuple((f"--{x}", _INT) for x in "mdng"))},
    "bridge": {"to-poly": (_bridge_to_poly, (_FILE,)),
               "separations": (_bridge_separations, (("--m", _INT),))},
    "family": {"check": (_family_check, (
        _FILE, ("--n-max", _INT), ("--n-min", {"type": int, "default": 1})))},
    "approx": {"run": (_approx_run, (_FILE, ("--epsilon", _REQUIRED)))},
    "accept": {None: (_accept, ())},
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise, so they end in the envelope
    like every other input error; the subcommand parsers are of this class too."""

    def error(self, message):
        raise UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command in COMMANDS, built once per process: parsing
    keeps no state in it."""
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
    commands = parser.add_subparsers(dest="command", required=True)
    for command, subcommands in COMMANDS.items():
        p = commands.add_parser(command)
        if None not in subcommands:
            ps = p.add_subparsers(dest="subcmd", required=True)
        for subcmd, (_, arguments) in subcommands.items():
            q = p if subcmd is None else ps.add_parser(subcmd)
            for name, keywords in arguments:
                q.add_argument(name, **keywords)
    return parser


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
        handler, _ = COMMANDS[args.command][getattr(args, "subcmd", None)]
        return run.report(handler(run))
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
    if hasattr(args, "epsilon"):
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
