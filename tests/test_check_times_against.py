"""scripts/check_times.py --against: two checkouts' batteries paired in one process."""

from __future__ import annotations

import json
import math
import re
import shutil
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


def test_against_a_parent_with_a_step_canary_and_an_fd_step(tmp_path):
    """A parent whose RunConfig still has ``fd_step`` and whose batteries
    time a ``covariant_canary`` row is paired battery by battery: the pairs
    read whole batteries at the settings both share."""
    parent = tmp_path / "parent"
    shutil.copytree(ROOT / "src", parent / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = parent / "src" / "killinglab" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    for old, new in (
            ("    no_timestamp: bool = field(",
             '    fd_step: float = field(default=1e-4, metadata={"help": "step", **_FLOAT})\n'
             "    no_timestamp: bool = field("),
            ("        for stage in self.fixed:\n",
             '        with c.rep.stage("covariant_canary"):\n            pass\n'
             "        for stage in self.fixed:\n")):
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    cli.write_text(text, encoding="utf-8")
    proc = subprocess.run([sys.executable, str(SCRIPT), "--against", str(parent), "--samples",
                           "7", "--repeats", "1", "--first", "parent"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    ratios = json.loads(proc.stdout)
    assert list(ratios) == LABELS and all(len(r) == 1 for r in ratios.values())
