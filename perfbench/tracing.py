"""Opt-in call wrappers that attribute time and work to omegadec's modules.

`install` replaces public functions and methods of the library with wrappers
that time each call as a span. A span's self time is its duration minus the
durations of the wrapped calls made inside it, so the self times of all
layers add up to the traced time without double counting. Counts and sizes
are recorded at the same boundaries. Nothing in the library changes; the
wrappers live only in the traced run and `uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


class Recorder:
    """Sums of self time and counts, and maxima of sizes, keyed by metric name."""

    def __init__(self):
        self.stack: list[list[float]] = []
        self.sums: defaultdict[str, float] = defaultdict(float)
        self.maxima: defaultdict[str, int] = defaultdict(int)

    def wrap(self, fn, time_key: str, count_key: str | None, after):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            rec.stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                rec.stack.pop()
                rec.sums[time_key] += duration - children[0]
                if rec.stack:
                    rec.stack[-1][0] += duration
            if count_key:
                rec.sums[count_key] += 1
            if after is not None:
                after(rec, args, result)
            return result

        return wrapper


def _terms(rec, args, result):
    rec.sums["blockpoly.result_terms"] += len(result.terms)


def _parts(rec, args, result):
    rec.maxima["radpoly.result_parts_max"] = max(rec.maxima["radpoly.result_parts_max"],
                                                 len(result.parts))


def _decomposition(rec, args, result):
    dec = args[0]
    rec.sums["decomposition.stored_locals"] += dec.local_count()
    rec.maxima["decomposition.index_size_max"] = max(rec.maxima["decomposition.index_size_max"],
                                                     dec.index_size)


def _group(rec, args, result):
    rec.maxima["symmetry.group_order_max"] = max(rec.maxima["symmetry.group_order_max"],
                                                 len(result))


def _terms_used(rec, args, result):
    rec.sums["approx.terms_used"] += result.terms_used


def _tuples(rec, args, result):
    family = args[0]
    rec.sums["familycheck.tuples"] += sum(family.m ** (s.n + 1) for s in result.sizes)


# (module, attribute, self-time key, call-count key, hook on the result)
PLAN = [
    ("scalars", "ScaledScalar.__init__", "scalars.self_s", None, None),
    ("scalars", "ScaledScalar.__mul__", "scalars.self_s", "scalars.mul_calls", None),
    ("scalars", "ScaledScalar.__truediv__", "scalars.self_s", None, None),
    ("scalars", "ScaledScalar.__pow__", "scalars.self_s", None, None),
    ("scalars", "ScaledScalar.ratio_to", "scalars.self_s", "scalars.ratio_to_calls", None),
    ("blockpoly", "BlockPolynomial.__init__", "blockpoly.self_s", "blockpoly.init_calls", None),
    ("blockpoly", "BlockPolynomial.__add__", "blockpoly.self_s", "blockpoly.add_calls", _terms),
    ("blockpoly", "BlockPolynomial.__neg__", "blockpoly.self_s", None, None),
    ("blockpoly", "BlockPolynomial.__mul__", "blockpoly.self_s", "blockpoly.mul_calls", _terms),
    ("blockpoly", "BlockPolynomial.scaled", "blockpoly.self_s", "blockpoly.scaled_calls", _terms),
    ("blockpoly", "BlockPolynomial.act", "blockpoly.self_s", None, None),
    ("blockpoly", "BlockPolynomial.allclose", "blockpoly.self_s", None, None),
    ("blockpoly", "BlockPolynomial.astype_float", "blockpoly.self_s", None, None),
    ("blockpoly", "BlockPolynomial.to_obj", "blockpoly.self_s", None, None),
    ("blockpoly", "BlockPolynomial.from_obj", "blockpoly.self_s", None, None),
    ("blockpoly", "outer", "blockpoly.self_s", "blockpoly.outer_calls", _terms),
    ("radpoly", "RadPoly.__init__", "radpoly.self_s", "radpoly.init_calls", None),
    ("radpoly", "RadPoly.__add__", "radpoly.self_s", "radpoly.add_calls", _parts),
    ("radpoly", "RadPoly.__neg__", "radpoly.self_s", None, None),
    ("radpoly", "RadPoly.__mul__", "radpoly.self_s", None, _parts),
    ("radpoly", "RadPoly.scaled", "radpoly.self_s", None, None),
    ("radpoly", "RadPoly.scale_mul", "radpoly.self_s", None, _parts),
    ("radpoly", "RadPoly.act", "radpoly.self_s", None, None),
    ("radpoly", "RadPoly.__eq__", "radpoly.self_s", "radpoly.eq_calls", None),
    ("radpoly", "RadPoly.as_polynomial", "radpoly.self_s", None, None),
    ("radpoly", "RadPoly.to_float", "radpoly.self_s", None, None),
    ("radpoly", "RadPoly.allclose", "radpoly.self_s", None, None),
    ("radpoly", "rad_outer", "radpoly.self_s", "radpoly.rad_outer_calls", _parts),
    ("decomposition", "OmegaGDecomposition.__init__", "decomposition.build_s", None,
     _decomposition),
    ("decomposition", "symmetrize_free", "decomposition.build_s", None, None),
    ("decomposition", "symmetrize_average", "decomposition.build_s", None, None),
    ("decomposition", "blending_difference", "decomposition.build_s", None, None),
    ("decomposition", "contract_assignments", "decomposition.contract_s", None, None),
    ("decomposition", "OmegaGDecomposition.contract", "decomposition.contract_s", None, None),
    ("decomposition", "OmegaGDecomposition.check_symmetry", "decomposition.check_symmetry_s",
     None, None),
    ("decomposition", "elementary_sum", "decomposition.elementary_sum_s", None, None),
    ("invariance", "is_invariant", "invariance.is_invariant_s", "invariance.is_invariant_calls",
     None),
    ("symmetry", "build_action", "symmetry.action_s", None, _group),
    ("symmetry", "free_refinement", "symmetry.action_s", None, _group),
    ("positivity", "invariant_sos_family", "positivity.sos_family_s", None, None),
    ("positivity", "gram_map", "positivity.gram_map_s", None, None),
    ("approx", "approx_separable", "approx.separable_s", None, _terms_used),
    ("familycheck", "bounded_positivity_check", "familycheck.check_s", None, _tuples),
    ("tensorbridge", "TensorDecomposition.contract", "tensorbridge.contract_s", None, None),
    ("tensorbridge", "nn_rank_upper_bound", "tensorbridge.nn_upper_s", None, None),
    ("cli", "main", "cli.handler_s", None, None),
]

# Every per-layer metric, with its unit, in the order they are reported.
METRICS = {
    "scalars.mul_calls": "count", "scalars.ratio_to_calls": "count", "scalars.self_s": "s",
    "blockpoly.init_calls": "count", "blockpoly.add_calls": "count",
    "blockpoly.mul_calls": "count", "blockpoly.scaled_calls": "count",
    "blockpoly.outer_calls": "count", "blockpoly.self_s": "s", "blockpoly.result_terms": "count",
    "radpoly.init_calls": "count", "radpoly.add_calls": "count", "radpoly.eq_calls": "count",
    "radpoly.rad_outer_calls": "count", "radpoly.self_s": "s",
    "radpoly.result_parts_max": "count",
    "decomposition.build_s": "s", "decomposition.contract_s": "s",
    "decomposition.check_symmetry_s": "s", "decomposition.elementary_sum_s": "s",
    "decomposition.stored_locals": "count", "decomposition.index_size_max": "count",
    "invariance.is_invariant_s": "s", "invariance.is_invariant_calls": "count",
    "symmetry.action_s": "s", "symmetry.group_order_max": "count",
    "positivity.sos_family_s": "s", "positivity.gram_map_s": "s",
    "approx.separable_s": "s", "approx.terms_used": "count",
    "familycheck.check_s": "s", "familycheck.tuples": "count",
    "tensorbridge.contract_s": "s", "tensorbridge.nn_upper_s": "s",
    "cli.interp_s": "s", "cli.import_s": "s", "cli.handler_s": "s",
    "cli.stdout_bytes": "B", "cli.error_ops": "count",
    "trace.overhead_ratio": "ratio",
}


def install(rec: Recorder) -> list[tuple[object, str, object]]:
    """Wrap every PLAN entry; returns the undo list for `uninstall`."""
    importlib.import_module("omegadec.cli")      # load every module before patching names
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "omegadec" or name.startswith("omegadec."))]
    undo = []
    for modname, attr, time_key, count_key, after in PLAN:
        mod = importlib.import_module(f"omegadec.{modname}")
        if "." in attr:
            cls_name, name = attr.split(".")
            owner = getattr(mod, cls_name)
            original = owner.__dict__[name]
            undo.append((owner, name, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(rec.wrap(original.__func__, time_key, count_key, after))
            else:
                wrapped = rec.wrap(original, time_key, count_key, after)
            setattr(owner, name, wrapped)
            continue
        original = getattr(mod, attr)
        wrapper = rec.wrap(original, time_key, count_key, after)
        for m in modules:                        # every module that imported the name
            for key, value in list(vars(m).items()):
                if value is original:
                    undo.append((m, key, original))
                    setattr(m, key, wrapper)
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)
