#!/usr/bin/env python3
"""Per-check wall time of the verification batteries, in milliseconds.

Runs ``verify --example gF --n 3 --c 0.3``, ``--example irregular --n 2``,
``--example round --n 2``, ``--example quaternionic`` at ``--m 1`` and
``--m 2`` and ``--example hopf-lift`` in-process on one BLAS thread, at the
default 200 samples and seed 42 unless told otherwise, and prints for each row
the median over ``--repeats`` runs after one warm-up run.

The rows come from the report's own clock (``VerificationReport.clock``): a
check's time is the wall time from the previous result (or from the report's
opening) to its own result, and each shared build the battery times as a
stage (``structure_at``, ``second_nabla_frame``, ``triple_psi``, and
``check_flip_quaternionic``, the one call that returns the seven flip checks)
is a row of its own, out of the check that follows it.  A frame or structure
built inside a stage or a check counts in that row.  The
``setup`` row runs from the battery's start to the report's opening (metric,
sample, step canary); ``extras`` from the last result to the end
(decomposition, flow class, orbit probe).

Usage:
    python3 scripts/check_times.py [--samples N] [--seed S] [--repeats R]

It imports killinglab from the ``src`` directory of its own checkout, so the
copy of the script in another checkout measures that checkout.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from killinglab import cli  # noqa: E402

BATTERIES = (("gF", {"n": 3, "c": 0.3}), ("irregular", {"n": 2}), ("round", {"n": 2}),
             ("quaternionic", {"m": 1}), ("quaternionic", {"m": 2}), ("hopf-lift", {}))


def run_once(example: str, cfg: cli.RunConfig) -> tuple[dict, float]:
    """The rows of one battery run, in seconds, and its total."""
    t0 = time.perf_counter()
    rep = cli._BATTERIES[example](cfg)
    rep.lap("extras")
    return {"setup": rep.opened - t0, **rep.clock}, time.perf_counter() - t0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--samples", type=int, default=cli.RunConfig.samples)
    p.add_argument("--seed", type=int, default=cli.RunConfig.seed)
    p.add_argument("--repeats", type=int, default=3)
    args = p.parse_args(argv)
    for example, params in BATTERIES:
        cfg = replace(cli.RunConfig(), example=example, samples=args.samples,
                      seed=args.seed, **params)
        run_once(example, cfg)  # warm-up
        runs = [run_once(example, cfg) for _ in range(args.repeats)]
        total = statistics.median(r[1] for r in runs)
        size = "".join(f" --{k} {v}" for k, v in params.items())
        print(f"{example}{size}: {1e3 * total:.2f} ms in all, median of {args.repeats}")
        for name in runs[0][0]:
            print(f"  {name:<34} {1e3 * statistics.median(r[0][name] for r in runs):8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
