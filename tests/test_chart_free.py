"""The finite-difference path differentiates in ambient coordinates: no
stereographic chart is named in ``metrics`` or ``verify``, and the FD
batteries reach the same verdicts with every ``sphere.Chart`` method broken.

The first test reads the two modules' syntax trees, so a chart that comes
back through an import, an attribute or an argument name fails it.
"""

from __future__ import annotations

import ast
from dataclasses import replace
from pathlib import Path

import pytest

from killinglab import cli, sphere

SRC = Path(__file__).parent.parent / "src" / "killinglab"
CHART_NAMES = {"Chart", "chart_for_point", "chart_index", "default_atlas", "atlas"}


def _names(tree: ast.AST) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
        elif isinstance(node, ast.arg):
            out.add(node.arg)
        elif isinstance(node, ast.keyword) and node.arg:
            out.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
    return out


@pytest.mark.parametrize("module", ["metrics.py", "verify.py"])
def test_fd_modules_name_no_chart(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    assert not _names(tree) & CHART_NAMES


class _ChartUsed(Exception):
    pass


def _broken(*args, **kwargs):
    raise _ChartUsed


@pytest.mark.parametrize("example, n", [("gF", 3), ("irregular", 2)])
def test_fd_batteries_never_touch_a_chart(example, n, monkeypatch):
    expected = cli._BATTERIES[example](replace(cli.RunConfig(), example=example, n=n,
                                               samples=10))
    for name, attr in vars(sphere.Chart).items():
        if isinstance(attr, staticmethod):
            monkeypatch.setattr(sphere.Chart, name, staticmethod(_broken))
        elif isinstance(attr, property):
            monkeypatch.setattr(sphere.Chart, name, property(_broken))
        elif callable(attr) and (name == "__init__" or not name.startswith("__")):
            monkeypatch.setattr(sphere.Chart, name, _broken)
    with pytest.raises(_ChartUsed):
        sphere.default_atlas(4)
    rep = cli._BATTERIES[example](replace(cli.RunConfig(), example=example, n=n, samples=10))
    assert rep.all_as_expected
    assert rep.to_dict(include_timestamp=False) == expected.to_dict(include_timestamp=False)
