#!/usr/bin/env python3
"""Compare two directories of battery reports written by run_all_examples.py.

For every report and every check it prints the verdict on each side
(``pass`` / ``as_expected``), how far the max and mean residuals moved,
absolute and relative to the first directory, and the larger of the two
absolute movements as a fraction of the check's tolerance (``move/tol``): the
scale that decides a verdict, where the relative column blows a rounding move
on a residual near zero up to order one.  It then walks both reports'
``extras`` (the orbit probe's return times and minimum distance, the
decomposition tables, ...) side by side and prints the absolute and relative
move of every numeric leaf.  Exits 1 if any verdict changed, a report or
check is present on one side only, the checks both reports hold come in
another order, or the extras changed in anything but the value of a float:
a string, flag or integer count, a key held on one side only, or the length
of a list; else 0.

Usage:
    python3 scripts/run_all_examples.py --samples 200 --out A_DIR   # before
    python3 scripts/run_all_examples.py --samples 200 --out B_DIR   # after
    python3 scripts/compare_reports.py A_DIR B_DIR
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys


def movement(a: float, b: float) -> tuple[float, float]:
    """Absolute and relative (to a) distance between two residuals."""
    if a == b:
        return 0.0, 0.0
    diff = abs(b - a)
    return diff, diff / abs(a) if a != 0.0 else math.inf


def per_tolerance(moved: float, tol: float) -> float:
    """An absolute movement as a fraction of the check's tolerance."""
    if moved == 0.0:
        return 0.0
    return moved / tol if tol > 0.0 else math.inf


def verdict(check: dict | None) -> str:
    if check is None:
        return "missing"
    return (f"{'pass' if check['pass'] else 'FAIL'}/"
            f"{'ok' if check['as_expected'] else 'UNEXPECTED'}")


def compare_report(a: dict, b: dict) -> tuple[list[dict], bool]:
    """One row per check name (order of ``a``, then checks only in ``b``),
    and whether any verdict differs."""
    checks_a = {c["name"]: c for c in a["checks"]}
    checks_b = {c["name"]: c for c in b["checks"]}
    names = list(checks_a) + [n for n in checks_b if n not in checks_a]
    rows, changed = [], False
    for name in names:
        ca, cb = checks_a.get(name), checks_b.get(name)
        row = {"name": name, "verdict_a": verdict(ca), "verdict_b": verdict(cb)}
        row["changed"] = row["verdict_a"] != row["verdict_b"]
        if ca is not None and cb is not None:
            row["max"] = movement(ca["max_residual"], cb["max_residual"])
            row["mean"] = movement(ca["mean_residual"], cb["mean_residual"])
            row["per_tol"] = per_tolerance(max(row["max"][0], row["mean"][0]),
                                           ca["tolerance"])
        changed = changed or row["changed"]
        rows.append(row)
    return rows, changed


def compare_extras(a, b, path: str) -> tuple[list[tuple[str, float, float]], list[str]]:
    """Two ``extras`` trees side by side: (path, absolute, relative move) for
    every numeric leaf both hold, and one line for every other change."""
    moves, changes = [], []
    if isinstance(a, dict) and isinstance(b, dict):
        for key in list(a) + [k for k in b if k not in a]:
            if key in a and key in b:
                m, c = compare_extras(a[key], b[key], f"{path}.{key}")
                moves, changes = moves + m, changes + c
            else:
                changes.append(f"{path}.{key} only in {'A' if key in a else 'B'}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            changes.append(f"{path} length {len(a)} -> {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            m, c = compare_extras(x, y, f"{path}[{i}]")
            moves, changes = moves + m, changes + c
    elif all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b)):
        moves.append((path, *movement(a, b)))
        if isinstance(a, int) and isinstance(b, int) and a != b:
            changes.append(f"{path} count {a} -> {b}")
    elif a != b:
        changes.append(f"{path} {a!r} -> {b!r}")
    return moves, changes


def check_order(a: dict, b: dict) -> tuple[list[str], list[str]]:
    """The names of the checks both reports hold, in each report's order."""
    names_a = [c["name"] for c in a["checks"]]
    names_b = [c["name"] for c in b["checks"]]
    return ([n for n in names_a if n in names_b], [n for n in names_b if n in names_a])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a_dir", type=pathlib.Path)
    ap.add_argument("b_dir", type=pathlib.Path)
    opts = ap.parse_args(argv)

    files = sorted({p.name for d in (opts.a_dir, opts.b_dir) for p in d.glob("*.json")})
    any_changed = False
    for fname in files:
        pa, pb = opts.a_dir / fname, opts.b_dir / fname
        if not (pa.exists() and pb.exists()):
            print(f"{fname}: only in {pa.parent if pa.exists() else pb.parent}")
            any_changed = True
            continue
        a, b = json.loads(pa.read_text()), json.loads(pb.read_text())
        rows, changed = compare_report(a, b)
        order_a, order_b = check_order(a, b)
        moves, extras_changes = compare_extras(a.get("extras", {}), b.get("extras", {}),
                                               "extras")
        any_changed = any_changed or changed or order_a != order_b or bool(extras_changes)
        print(f"{fname}")
        if order_a != order_b:
            print(f"  CHECK ORDER CHANGED: {order_a} -> {order_b}")
        print(f"  {'check':<34} {'verdict A -> B':<32} {'move/tol':>9} {'max abs':>9} "
              f"{'max rel':>9} {'mean abs':>9} {'mean rel':>9}")
        for r in rows:
            moved = (f"{r['per_tol']:9.2e} {r['max'][0]:9.2e} {r['max'][1]:9.2e} "
                     f"{r['mean'][0]:9.2e} {r['mean'][1]:9.2e}" if "max" in r else "")
            flag = "  VERDICT CHANGED" if r["changed"] else ""
            print(f"  {r['name']:<34} {r['verdict_a'] + ' -> ' + r['verdict_b']:<32} "
                  f"{moved}{flag}")
        if moves:
            print(f"  {'extras leaf':<67} {'abs':>9} {'rel':>9}")
        for leaf, moved_abs, moved_rel in moves:
            print(f"  {leaf:<67} {moved_abs:9.2e} {moved_rel:9.2e}")
        for line in extras_changes:
            print(f"  EXTRAS CHANGED: {line}")
    print("\nverdicts, check order or extras changed" if any_changed
          else "\nverdicts identical")
    return 1 if any_changed else 0


if __name__ == "__main__":
    sys.exit(main())
