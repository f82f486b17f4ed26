"""The names perfbench/tracing.py wraps must exist in killinglab.

perfbench's own tests sit outside the tier-1 suite, so a rename there would
only surface when a traced run fails.  ``TRACED`` is read from the file's
syntax tree, without importing perfbench.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def _traced() -> tuple:
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and targets == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {TRACING}")


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    missing = []
    for module, cls, attr in traced:
        owner = importlib.import_module(f"killinglab.{module}")
        if cls is not None:
            owner = getattr(owner, cls, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(".".join(filter(None, (module, cls, attr))))
    assert not missing, f"perfbench traces names killinglab no longer has: {missing}"
