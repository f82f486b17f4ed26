"""scripts/decomposition_table.py runs and matches the closed-form counts."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "decomposition_table.py"


def test_table_rows_match_the_closed_form_counts(capsys):
    spec = importlib.util.spec_from_file_location("decomposition_table", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--max-n", "3"]) == 0
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines() if line.startswith("S^")]
    assert [row[0] for row in rows] == ["S^3", "S^5", "S^7"]
    for n, row in enumerate(rows, start=1):
        dim_so, zero, closed_zero, two, closed_two = map(int, row[1:6])
        assert dim_so == (n + 1) * (2 * n + 1)
        assert zero == closed_zero == (n + 1) ** 2
        assert two == closed_two == n * (n + 1)
        assert float(row[6]) < 1e-6 and len(row) == 7  # no MISMATCH flag
    assert "all rows match the closed-form dimension counts" in out
