"""scripts/check_times.py --against: two checkouts' batteries paired in one process."""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "check_times.py"
LABELS = ["gF --n 3 --c 0.3", "irregular --n 2", "round --n 2", "quaternionic --m 1",
          "quaternionic --m 2", "hopf-lift"]
ROW = re.compile(r"^  (\S.*?)\s+change first ([\d.]+)  parent first ([\d.]+)  "
                 r"geometric mean ([\d.]+)  pairs won: change (\d+), parent (\d+)$")


def _script(*args: str) -> str:
    proc = subprocess.run([sys.executable, str(SCRIPT), "--against", str(ROOT), "--samples", "7",
                           *args], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_against_its_own_checkout_prints_each_battery_in_both_import_orders():
    """Every battery gets its ratio in each import order, their geometric
    mean and each side's wins over the pairs of both orders."""
    head, *lines = _script("--repeats", "1").splitlines()
    assert head.startswith(f"change {ROOT} / parent {ROOT}: ") and "over 1 pairs" in head
    rows = [ROW.match(line) for line in lines]
    assert all(rows), lines
    assert [row[1] for row in rows] == LABELS
    for row in rows:
        change_first, parent_first, mean = (float(row[i]) for i in (2, 3, 4))
        assert 0.25 < change_first < 4 and 0.25 < parent_first < 4, row[0]
        assert abs(mean - math.sqrt(change_first * parent_first)) <= 1e-4, row[0]
        assert int(row[5]) + int(row[6]) <= 2, row[0]


def test_one_import_order_prints_the_ratio_of_every_pair():
    """A child run, ``--first``, prints each battery's change/parent ratios,
    one a repeat."""
    ratios = json.loads(_script("--repeats", "2", "--first", "parent"))
    assert list(ratios) == LABELS
    assert all(len(r) == 2 and all(0.25 < x < 4 for x in r) for r in ratios.values()), ratios
