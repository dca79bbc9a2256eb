"""Mutated input files of every golden `omega` case end in one strict-JSON line.

Each file a `tests/test_golden.py` case reads, from `fixtures/` or
`tests/golden/`, is mutated once per example at one node: replaced by a NaN,
an infinity, a huge int or the same node nested deeply, deleted from its
object, or duplicated or removed from its list. Whatever the mutation, the
run exits 0, 1, 2 or 3 (never the exit-4 internal-error envelope) and prints
one line of strict JSON; a NaN or an infinity in place of any node is never
read as a number, so it never yields exit 0 or 1. The examples are
derandomized, so every run tries the same inputs.
"""

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from omegadec.cli import main
from test_golden import CASES, ROOT, node_at, node_paths

# a string no input holds, replaced by raw JSON text after the dump
HOLE = "\x00hole\x00"
NON_FINITE = ["NaN", "Infinity", "-Infinity"]
HUGE = [str(10**30), str(-10**30), str(2**64), "9" * 4300, "9" * 4301]
DEPTHS = [2, 64, 100_000]

FILE_CASES = [(name, argv, word) for name, argv, _ in CASES for word in argv.split()
              if word.endswith(".json")]


def mutations(doc):
    """(path, kind, raw text) of one mutation of doc: raw text replaces the node at
    path for a replacement, and is None for a deletion or a duplication."""
    paths = list(node_paths(doc))
    items = [p for p in paths if p and isinstance(node_at(doc, p[:-1]), list)]
    keys = [p for p in paths if p and isinstance(node_at(doc, p[:-1]), dict)]
    replaced = st.tuples(st.sampled_from(paths), st.just("replace"),
                         st.sampled_from(NON_FINITE + HUGE))
    nested = st.tuples(st.sampled_from(paths), st.just("nest"), st.sampled_from(DEPTHS))
    dropped = st.tuples(st.sampled_from(keys), st.just("delete"), st.none())
    listed = st.tuples(st.sampled_from(items), st.sampled_from(["duplicate", "delete"]),
                       st.none())
    return st.one_of(replaced, nested, dropped, listed)


def mutated_text(doc, path, kind, raw):
    """The JSON text of doc with the mutation applied at path."""
    if kind == "nest":
        inner = json.dumps(node_at(doc, path))
        raw = "[" * raw + inner + "]" * raw
    doc = json.loads(json.dumps(doc))       # a deep copy
    parent = node_at(doc, path[:-1]) if path else None
    if kind in ("replace", "nest"):
        if not path:
            return raw
        parent[path[-1]] = HOLE
        return json.dumps(doc).replace(json.dumps(HOLE), raw)
    if kind == "delete":
        del parent[path[-1]]
    else:
        parent.insert(path[-1], parent[path[-1]])
    return json.dumps(doc)


@pytest.mark.parametrize("name,argv,word", FILE_CASES, ids=[f"{c[0]}:{c[2]}" for c in FILE_CASES])
def test_mutated_inputs_end_in_one_strict_json_line(name, argv, word, tmp_path, capsys):
    with open(os.path.join(ROOT, word), encoding="utf-8") as fh:
        doc = json.load(fh)
    words = [os.path.join(ROOT, w) if w.endswith(".json") else w for w in argv.split()]
    mutated = tmp_path / "mutated.json"
    at = argv.split().index(word)

    @settings(derandomize=True, max_examples=25, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutations(doc))
    def check(mutation):
        path, kind, raw = mutation
        mutated.write_text(mutated_text(doc, path, kind, raw), encoding="utf-8")
        code = main(words[:at] + [str(mutated)] + words[at + 1:])
        out = capsys.readouterr().out
        where = f"{word} at {list(path)}: {kind} {str(raw)[:20]}"
        assert code in (0, 1, 2, 3), f"{where}: {out}"
        assert out.endswith("\n") and out.count("\n") == 1, where
        json.loads(out, parse_constant=lambda c: pytest.fail(f"{where}: {c}"))
        if raw in NON_FINITE:
            assert code not in (0, 1), f"{where}: {out}"

    check()
