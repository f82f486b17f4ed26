#!/usr/bin/env python3
"""Run every built-in verification battery and print a one-line verdict each.

Each battery is executed through the CLI in a fresh interpreter (the same
path a user would take) on the ``src`` directory of this checkout, the JSON
report is parsed, and a compact summary table is printed; a child whose
output is not a report stops the run with its stderr.  Exits nonzero if any
battery reports a check that did not behave as expected.  The two
``classify-flow --probe`` rows run the numeric orbit probe, so
``compare_reports.py`` sees its checks too.

Usage:
    python3 scripts/run_all_examples.py [--samples N] [--seed S] [--out DIR]

With --out, the raw JSON report of each battery is written to
DIR/<example>.json (timestamps suppressed, so reruns are byte-identical).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

BATTERIES: list[tuple[str, list[str]]] = [
    ("round-s5", ["verify", "--example", "round", "--n", "2"]),
    ("quaternionic-s7", ["verify", "--example", "quaternionic", "--m", "1"]),
    ("quaternionic-s11", ["verify", "--example", "quaternionic", "--m", "2"]),
    ("hopf-lift", ["verify", "--example", "hopf-lift"]),
    ("gF-s7", ["verify", "--example", "gF", "--n", "3", "--c", "0.3"]),
    ("irregular-s5", ["verify", "--example", "irregular"]),
    ("decompose-s5", ["decompose", "--example", "round", "--n", "2"]),
    ("decompose-gF-s7", ["decompose", "--example", "gF", "--n", "3"]),
    ("decompose-irr-s5", ["decompose", "--example", "irregular"]),
    ("classify-1-2", ["classify-flow", "1", "2", "--probe"]),
    ("classify-1-golden", ["classify-flow", "1", "irr:golden", "--probe"]),
]


def run_battery(args: list[str], samples: int, seed: int) -> dict:
    cmd = [sys.executable, "-m", "killinglab", *args,
           "--samples", str(samples), "--seed", str(seed),
           "--format", "json", "--no-timestamp"]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                          env={**os.environ, "PYTHONPATH": path})
    try:
        if proc.returncode in (0, 1):
            return json.loads(proc.stdout)
    except json.JSONDecodeError:
        pass
    raise RuntimeError(f"{' '.join(args)} exited {proc.returncode} without a report: "
                       f"{proc.stderr.strip() or 'nothing on stderr'}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=120)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out", type=pathlib.Path, default=None,
                    help="directory for the raw JSON reports")
    opts = ap.parse_args(argv)

    if opts.out is not None:
        opts.out.mkdir(parents=True, exist_ok=True)

    all_ok = True
    for label, args in BATTERIES:
        report = run_battery(args, opts.samples, opts.seed)
        checks = report["checks"]
        n_exp = sum(c["as_expected"] for c in checks)
        ok = report["verdicts"]["all_as_expected"]
        all_ok = all_ok and ok
        worst = max((c["max_residual"] for c in checks
                     if c["expected"] == "pass"), default=0.0)
        print(f"{label:<18} {'ok' if ok else 'UNEXPECTED':<10} "
              f"{n_exp}/{len(checks)} checks as expected   "
              f"worst residual {worst:.3e}")
        if opts.out is not None:
            path = opts.out / f"{label}.json"
            path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print("\nall batteries behaved as expected" if all_ok
          else "\nsome battery did NOT behave as expected")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
