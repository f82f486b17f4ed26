#!/usr/bin/env python3
"""Per-check wall time of the verification batteries, in milliseconds.

Runs ``verify --example gF --n 3 --c 0.3``, ``--example irregular --n 2``,
``--example round --n 2`` and ``--example quaternionic`` at ``--m 1`` and
``--m 2`` in-process on one BLAS thread, at the default 200 samples and seed
42 unless told otherwise, and prints for each row the median over
``--repeats`` runs after one warm-up run.

A battery is a sequence of ``rep.add(check(...))`` calls, so a check's time
is the wall time from the previous result (or from the report's creation) to
its own result.  Three shared builds are split out of the interval that holds
them, as rows of their own with their call counts:
``LeviCivita.structure_at``, ``LeviCivita.second_nabla_frame`` and
``metrics.g_orthonormal_frame``; a build inside another one counts in its
own row only.  The ``setup`` row runs from the battery's start to the
report's creation (metric, sample, step canary); ``extras`` from the last
result to the end (decomposition, flow class, orbit probe).

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

from killinglab import cli, metrics, verify  # noqa: E402
from killinglab.metrics import LeviCivita  # noqa: E402
from killinglab.report import VerificationReport  # noqa: E402

BATTERIES = (("gF", {"n": 3, "c": 0.3}), ("irregular", {"n": 2}), ("round", {"n": 2}),
             ("quaternionic", {"m": 1}), ("quaternionic", {"m": 2}))
# each shared build: the name of its row and the (owner, attribute) pairs that bind it
SHARED = {"structure_at": [(LeviCivita, "structure_at")],
          "second_nabla_frame": [(LeviCivita, "second_nabla_frame")],
          # every module that binds it by name; a checkout whose cli does not is timed too
          "g_orthonormal_frame": [(mod, "g_orthonormal_frame") for mod in (metrics, verify, cli)
                                  if hasattr(mod, "g_orthonormal_frame")]}


@contextmanager
def clocked(times: dict, calls: dict):
    """Attribute wall time to check names while a battery runs."""
    # open: the time of the shared builds nested in each shared build still running
    state = {"last": time.perf_counter(), "shared": 0.0, "open": []}
    init0, add0 = VerificationReport.__init__, VerificationReport.add
    bound = [(owner, attr, getattr(owner, attr)) for pairs in SHARED.values()
             for owner, attr in pairs]

    def close(row: str, now: float) -> None:
        times[row] += now - state["last"] - state["shared"]
        state.update(last=now, shared=0.0)

    def init(self, *args, **kwargs):
        init0(self, *args, **kwargs)
        close("setup", time.perf_counter())

    def add(self, check):
        close(check.name, time.perf_counter())
        calls[check.name] += 1
        return add0(self, check)

    def shared(name, fn):
        def wrapper(*args, **kwargs):
            state["open"].append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                times[name] += dt - state["open"].pop()
                calls[name] += 1
                if state["open"]:
                    state["open"][-1] += dt
                else:
                    state["shared"] += dt
        return wrapper

    VerificationReport.__init__, VerificationReport.add = init, add
    for name, pairs in SHARED.items():
        wrapper = shared(name, getattr(*pairs[0]))
        for owner, attr in pairs:
            setattr(owner, attr, wrapper)
    try:
        yield close
    finally:
        VerificationReport.__init__, VerificationReport.add = init0, add0
        for owner, attr, original in bound:
            setattr(owner, attr, original)


def run_once(example: str, cfg: cli.RunConfig) -> tuple[dict, dict, float]:
    times, calls = defaultdict(float), defaultdict(int)
    t0 = time.perf_counter()
    with clocked(times, calls) as close:
        cli._BATTERIES[example](cfg)
        close("extras", time.perf_counter())
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
        size = " ".join(f"--{k} {v}" for k, v in params.items())
        print(f"{example} {size}: {1e3 * total:.1f} ms in all, median of {args.repeats}")
        for name in runs[0][0]:
            ms = 1e3 * statistics.median(r[0][name] for r in runs)
            note = f" ({calls[name]} calls)" if name in SHARED or calls[name] > 1 else ""
            print(f"  {name:<34} {ms:8.1f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
