"""Docs drift: every test README's "Serving feature status" table cites
must exist under ``tests/serving/``.

A cell cites ``file.py::test_name`` or ``file.py::Class::test_name``; a
bare ``::test_name`` continues the file cited last. A renamed or deleted
test fails here instead of leaving the table vouching for nothing.
"""

import ast
import re
from pathlib import Path

import pytest

SERVING_TESTS = Path(__file__).resolve().parent
README = SERVING_TESTS.parent.parent / "README.md"

_CITATION = re.compile(r"`((?:[\w.]+\.py)?::[\w:]+)`")


def table_rows():
    """``(feature, pinned-by cell)`` for each row of the table."""
    lines = README.read_text().splitlines()
    start = next(
        i
        for i, line in enumerate(lines)
        if line.startswith("**Serving feature status.**")
    )
    rows = []
    for line in lines[start:]:
        if line.startswith("|"):
            feature, _, pinned_by = (c.strip() for c in line.strip("|").split("|"))
            rows.append((feature, pinned_by))
        elif rows:
            break
    return rows[2:]  # drop the header and the |---| rule


def citations():
    """``(feature, file, class or None, test)`` for every cited test."""
    out = []
    for feature, cell in table_rows():
        path = None
        for citation in _CITATION.findall(cell):
            head, *rest = citation.split("::")
            path = head or path
            owner = rest[0] if len(rest) == 2 else None
            out.append((feature, path, owner, rest[-1]))
    return out


def defined_tests(path):
    """``{(class or None, name)}`` of the test functions in ``path``."""
    tree = ast.parse((SERVING_TESTS / path).read_text())
    found = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found.add((None, node.name))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    found.add((node.name, item.name))
    return found


def test_every_row_cites_a_test():
    rows = table_rows()
    assert len(rows) >= 5
    for feature, cell in rows:
        assert _CITATION.search(cell), f"{feature!r} cites no test"


CITATIONS = citations()


@pytest.mark.parametrize(
    "feature, path, owner, name",
    CITATIONS,
    ids=["::".join(filter(None, cited[1:])) for cited in CITATIONS],
)
def test_cited_test_exists(feature, path, owner, name):
    assert path is not None, f"{feature!r}: ::{name} continues no file"
    assert (SERVING_TESTS / path).is_file(), f"{feature!r}: no {path}"
    tests = defined_tests(path)
    if owner is None:
        assert name in {test for _, test in tests}, f"{path} has no {name}"
    else:
        assert (owner, name) in tests, f"{path} has no {owner}::{name}"
