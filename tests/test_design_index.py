"""Everything DESIGN.md's per-experiment index cites exists.

The "Metrics / modules" column names functions and modules by their
dotted path under ``repro`` (``core.spatial.mostly_traffic``).  A bare
name (``peak_intensity``) or a ``Class.attribute`` path continues the
module named before it in the same cell.  The "Shape test" column names
test files by their path from the repository root, each with an optional
``::test_name`` (``Class::method`` for a method).
"""

import ast
import importlib
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DESIGN = os.path.join(ROOT, "DESIGN.md")


def _index_rows():
    """``(experiment id, metrics cell, shape-test cell)`` of each row of
    the index table."""
    with open(DESIGN, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Per-experiment index", 1)[1].split("\n## ", 1)[0]
    table = section.split("| Id | Paper content | Metrics / modules | Shape test |", 1)[1]
    rows = []
    for line in table.split("\n\n", 1)[0].strip().splitlines()[1:]:
        cells = [c.strip() for c in line.strip("|").split(" | ")]
        rows.append((cells[0], cells[2], cells[3]))
    return rows


def _defines(path, name):
    """Whether the file ``path`` defines ``name`` (``Class::method`` for a method)."""
    with open(path, encoding="utf-8") as fh:
        body = ast.parse(fh.read(), path).body
    for part in name.split("::"):
        defs = [n for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
        body = next((n.body for n in defs if n.name == part), None)
        if body is None:
            return False
    return True


def _module(path):
    """The longest importable ``repro`` module prefix of ``path``, and the
    attribute names after it."""
    parts = path.split(".")
    for k in range(len(parts), 0, -1):
        try:
            return importlib.import_module("repro." + ".".join(parts[:k])), parts[k:]
        except ModuleNotFoundError:
            continue
    return None, parts


ROWS = [(exp_id, metrics) for exp_id, metrics, _ in _index_rows()]
SHAPE_ROWS = [(exp_id, shape) for exp_id, _, shape in _index_rows()]


def test_index_has_every_experiment():
    assert len(ROWS) >= 18


@pytest.mark.parametrize("exp_id,cell", ROWS, ids=[r[0] for r in ROWS])
def test_cited_names_exist(exp_id, cell):
    names = re.findall(r"`([A-Za-z_][\w.]*)`", cell)
    assert names, cell
    context = None
    for name in names:
        module, attrs = _module(name)
        if module is None:
            assert context is not None, f"{name!r} names no repro module"
            module = context
        else:
            context = module
        obj = module
        for attr in attrs:
            assert hasattr(obj, attr), f"{exp_id}: repro {name!r} does not exist"
            obj = getattr(obj, attr)


@pytest.mark.parametrize("exp_id,cell", SHAPE_ROWS, ids=[r[0] for r in SHAPE_ROWS])
def test_cited_shape_tests_exist(exp_id, cell):
    cited = re.findall(r"`([^`]+)`", cell)
    assert cited, cell
    for ref in cited:
        path, _, name = ref.partition("::")
        full = os.path.join(ROOT, path)
        assert os.path.isfile(full), f"{exp_id}: {path} does not exist"
        if name:
            assert _defines(full, name), f"{exp_id}: {ref} does not exist"
