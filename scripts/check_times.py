#!/usr/bin/env python3
"""Per-check wall time of the finite-difference batteries, in milliseconds.

Runs ``verify --example gF --n 3 --c 0.3`` and ``verify --example irregular
--n 2`` in-process on one BLAS thread, at the default 200 samples and seed
42 unless told otherwise, and prints for each row the median over
``--repeats`` runs after one warm-up run.

A battery is a sequence of ``rep.add(check(...))`` calls, so a check's time
is the wall time from the previous result (or from the report's creation) to
its own result.  Two shared builds are split out of the check whose interval
holds them, as rows of their own with their call counts:
``LeviCivita.structure_at`` and ``LeviCivita.second_nabla_frame``.  The
``setup`` row runs from the battery's start to the report's creation
(metric, sample, step canary); ``extras`` from the last result to the end
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
from collections import defaultdict  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from killinglab import cli  # noqa: E402
from killinglab.metrics import LeviCivita  # noqa: E402
from killinglab.report import VerificationReport  # noqa: E402

BATTERIES = (("gF", {"n": 3, "c": 0.3}), ("irregular", {"n": 2}))
SHARED = ("structure_at", "second_nabla_frame")


@contextmanager
def clocked(times: dict, calls: dict):
    """Attribute wall time to check names while a battery runs."""
    state = {"last": time.perf_counter(), "shared": 0.0}
    originals = {"init": VerificationReport.__init__, "add": VerificationReport.add,
                 **{name: getattr(LeviCivita, name) for name in SHARED}}

    def init(self, *args, **kwargs):
        originals["init"](self, *args, **kwargs)
        now = time.perf_counter()
        times["setup"] += now - state["last"]
        state.update(last=now, shared=0.0)

    def add(self, check):
        now = time.perf_counter()
        times[check.name] += now - state["last"] - state["shared"]
        calls[check.name] += 1
        state.update(last=now, shared=0.0)
        return originals["add"](self, check)

    def shared(name):
        def wrapper(self, *args, **kwargs):
            t0 = time.perf_counter()
            out = originals[name](self, *args, **kwargs)
            dt = time.perf_counter() - t0
            times[name] += dt
            calls[name] += 1
            state["shared"] += dt
            return out
        return wrapper

    VerificationReport.__init__, VerificationReport.add = init, add
    for name in SHARED:
        setattr(LeviCivita, name, shared(name))
    try:
        yield state
    finally:
        VerificationReport.__init__, VerificationReport.add = originals["init"], originals["add"]
        for name in SHARED:
            setattr(LeviCivita, name, originals[name])


def run_once(example: str, cfg: cli.RunConfig) -> tuple[dict, dict, float]:
    times, calls = defaultdict(float), defaultdict(int)
    t0 = time.perf_counter()
    with clocked(times, calls) as state:
        cli._BATTERIES[example](cfg)
        times["extras"] += time.perf_counter() - state["last"]
    return times, calls, time.perf_counter() - t0


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
        total = statistics.median(r[2] for r in runs)
        calls = runs[0][1]
        print(f"{example}: {1e3 * total:.1f} ms in all, median of {args.repeats}")
        for name in runs[0][0]:
            ms = 1e3 * statistics.median(r[0][name] for r in runs)
            note = f" ({calls[name]} calls)" if name in SHARED or calls[name] > 1 else ""
            print(f"  {name:<34} {ms:8.1f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
