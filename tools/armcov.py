"""Branch-arm coverage of the omegadec package, as a pytest plugin.

Load it with ``-p`` and the tools directory on the path:

    PYTHONPATH=src:tools python -m pytest -q -p armcov

On import it hooks the loading of every ``omegadec`` module: the module's
source is parsed and rewritten so that each arm records itself when it runs.
An arm is the body and the else branch of an ``if`` (an ``if`` without
``else`` has an implicit one), each branch of a conditional expression, each
operand of ``and`` / ``or`` past the first (it runs only where the operands
before it did not decide), the body and the ``else`` of a loop, and each
``except`` handler. The rewritten code is compiled from source on every
import and no bytecode is written, so a plain run afterwards is unaffected.
At the end of the session the arms that no test took are printed, one
``path:line kind`` per line. Standard library only.
"""

from __future__ import annotations

import ast
import importlib.abc
import importlib.machinery
import os
import sys

PACKAGE = "omegadec"
HIT_NAME = "__armcov_hit__"

ARMS: list[tuple[str, int, str]] = []    # (path, line, kind), indexed by arm id
HITS: set[int] = set()


def _arm(path: str, node: ast.AST, kind: str) -> int:
    ARMS.append((path, node.lineno, kind))
    return len(ARMS) - 1


def _hit(arm: int) -> ast.Call:
    return ast.Call(ast.Name(HIT_NAME, ast.Load()), [ast.Constant(arm)], [])


def _record(arm: int, at: ast.AST) -> ast.stmt:
    return ast.copy_location(ast.Expr(_hit(arm)), at)


def _recorded(arm: int, expr: ast.expr) -> ast.expr:
    """``hit(arm) or expr``: set.add returns None, so the value is expr's."""
    return ast.copy_location(ast.BoolOp(ast.Or(), [_hit(arm), expr]), expr)


class _Instrument(ast.NodeTransformer):
    def __init__(self, path: str):
        self.path = path

    def _body(self, body: list[ast.stmt], node: ast.AST, kind: str) -> list[ast.stmt]:
        return [_record(_arm(self.path, node, kind), body[0] if body else node), *body]

    def visit_If(self, node: ast.If) -> ast.If:
        self.generic_visit(node)
        node.body = self._body(node.body, node, "if-body")
        node.orelse = self._body(node.orelse, node, "if-else")
        return node

    def _loop(self, node):
        self.generic_visit(node)
        node.body = self._body(node.body, node, "loop-body")
        if node.orelse:
            node.orelse = self._body(node.orelse, node, "loop-else")
        return node

    visit_For = visit_While = _loop

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> ast.ExceptHandler:
        self.generic_visit(node)
        node.body = self._body(node.body, node, "except")
        return node

    def visit_IfExp(self, node: ast.IfExp) -> ast.IfExp:
        self.generic_visit(node)
        node.body = _recorded(_arm(self.path, node, "ifexp-body"), node.body)
        node.orelse = _recorded(_arm(self.path, node, "ifexp-else"), node.orelse)
        return node

    def visit_BoolOp(self, node: ast.BoolOp) -> ast.BoolOp:
        self.generic_visit(node)
        kind = "and-operand" if isinstance(node.op, ast.And) else "or-operand"
        node.values[1:] = [_recorded(_arm(self.path, v, kind), v) for v in node.values[1:]]
        return node


class _Loader(importlib.machinery.SourceFileLoader):
    def get_code(self, fullname):
        path = self.get_filename(fullname)
        tree = ast.parse(self.get_data(path), path)
        tree = ast.fix_missing_locations(_Instrument(os.path.relpath(path)).visit(tree))
        return compile(tree, path, "exec", dont_inherit=True)

    def exec_module(self, module):
        module.__dict__[HIT_NAME] = HITS.add
        super().exec_module(module)


class _Finder(importlib.abc.MetaPathFinder):
    def find_spec(self, fullname, path=None, target=None):
        if fullname != PACKAGE and not fullname.startswith(PACKAGE + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or not isinstance(spec.loader, importlib.machinery.SourceFileLoader):
            return spec
        spec.loader = _Loader(spec.loader.name, spec.loader.path)
        return spec


if any(name == PACKAGE or name.startswith(PACKAGE + ".") for name in sys.modules):
    raise ImportError(f"armcov must load before {PACKAGE}: pass it with -p")
sys.meta_path.insert(0, _Finder())


def pytest_terminal_summary(terminalreporter):
    missed = sorted(arm for n, arm in enumerate(ARMS) if n not in HITS)
    terminalreporter.section(f"armcov: {len(missed)} of {len(ARMS)} arms untaken")
    for path, line, kind in missed:
        terminalreporter.write_line(f"{path}:{line} {kind}")
