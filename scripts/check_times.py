#!/usr/bin/env python3
"""Per-check wall time of the verification batteries, in milliseconds.

Runs ``verify --example gF --n 3 --c 0.3``, ``--example irregular --n 2``,
``--example round --n 2``, ``--example quaternionic`` at ``--m 1`` and
``--m 2`` and ``--example hopf-lift`` in-process on one BLAS thread, at the
default 200 samples and seed 42 unless told otherwise, and prints for each row
the median over ``--repeats`` runs after one warm-up run of every battery.
The repeats are interleaved: repeat r of every battery runs before repeat
r + 1 of any, so a slow spell of the host spreads over all batteries.

The rows come from the report's own clock (``VerificationReport.clock``): a
check's time is the wall time of its row's evaluations, each from the
previous row's (or from the report's opening), summed over the chunks, and
each build the battery times as a stage is a row of its own, out of the
check that follows it: the per-chunk stages (``structure_at``,
``second_nabla_frame``, and ``triple_psi``, the quaternionic battery's one
``structure_at`` call on its generator stack, with ``triple``, the first
three fields of it) and the fixed part the battery builds once when it opens
(the round ``decomposition``, an ``isometry_algebra``, the quaternionic
``bracket_sign``, ``complete_pair`` and ``check_flip_quaternionic``, the one
call that returns the seven flip checks, the Hopf ``path_targets`` and
``lift``, ...).  A frame or structure built inside a stage or a check counts
in that row.  The
``setup`` row runs from the battery's start to the report's opening (metric,
sample); ``extras`` runs from the last result to the end (decomposition, flow
class, orbit probe).  A parent whose batteries still time a
``covariant_canary`` row is compared by ``--against`` all the same: the pairs
read whole batteries.

Usage:
    python3 scripts/check_times.py [--samples N] [--seed S] [--repeats R] [--json PATH]
                                   [--decompose-n N [N ...]] [--verify ARGS ...]
    python3 scripts/check_times.py --against PARENT [--samples N] [--seed S] [--repeats R]

It imports killinglab from the ``src`` directory of its own checkout, so the
copy of the script in another checkout measures that checkout.

Each repeat also times one ``killinglab.cli.main`` call on the battery's argv
(``verify --example ... --no-timestamp``) with its stdout captured: argument
parsing, the battery and the report, as an in-process caller pays them.

With ``--json PATH`` it also writes every battery's rows and that call as
``main_ms``, each as the median and quartiles over the repeats in
milliseconds, with the settings and the environment (Python, numpy, BLAS
threads, ``nproc``, the checkout's git HEAD and whether its tree is dirty,
and a SHA-256 of its ``src/killinglab`` sources, which names the measured
code exactly); ``schema`` versions the layout (2 adds ``main_ms``, 3 the
``decompose`` rows, 4 the ``verify`` rows).  The committed
``BENCH_<label>.json`` files at the repository root are such records.

With ``--decompose-n 10 20 40`` it also runs ``killinglab decompose --example
round --n N`` for each N as a whole process, ``--repeats`` times after the
batteries and interleaved as they are (repeat r of every N before repeat
r + 1), and reports its wall time (interpreter start-up and imports
included) and its peak RSS, both as median and quartiles.  The peak RSS is
the child's own ``ru_maxrss`` from ``os.wait4``: the ``RUSAGE_CHILDREN``
figure of that one child, not the running maximum over earlier children.
Linux carries the high-water RSS of the process that forks a child through
its exec, so the child is forked by a bare interpreter (``LAUNCH``), far
smaller than any killinglab run, not by this one, which holds numpy and the
batteries.
``--verify "--example round --n 16 --samples 50"`` (repeatable) adds the same
two readings of a whole ``killinglab verify`` process on those arguments,
after the decompose rows and interleaved alike.

``--against PARENT`` compares this checkout's code with the checkout at
PARENT instead, where the rows above cannot: one process of the same code
reads a battery 10-20 % apart from the next, while two packages run in one
process agree within a few percent.  A child process copies both
``src/killinglab`` trees into a temporary directory as two packages
(``killinglab_change``, ``killinglab_parent``), imports them, and runs each
battery of both, after one warm-up run each, in pairs battery by battery,
``--repeats`` pairs a battery, the side that runs first alternating from
pair to pair.  The package imported second can read about 1 % slower, so
two children run, one per import order, and the script prints for each
battery the median change/parent ratio of the battery's wall time in each
order, their geometric mean, and the pairs each side won.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from killinglab import cli  # noqa: E402

SCHEMA = 4

BATTERIES = (("gF", {"n": 3, "c": 0.3}), ("irregular", {"n": 2}), ("round", {"n": 2}),
             ("quaternionic", {"m": 1}), ("quaternionic", {"m": 2}), ("hopf-lift", {}))


def run_once(example: str, cfg: cli.RunConfig, argv: list[str]) -> tuple[dict, float, float]:
    """The rows of one battery run, in seconds, its total, and the seconds of
    one ``cli.main`` call on argv with its report captured."""
    t0 = time.perf_counter()
    rep = cli._BATTERIES[example](cfg)
    rep.lap("extras")
    t1 = time.perf_counter()
    with redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    t2 = time.perf_counter()
    if code != cli.EXIT_OK:
        raise SystemExit(f"check_times: killinglab {' '.join(argv)} exited {code}")
    return {"setup": rep.opened - t0, **rep.clock}, t1 - t0, t2 - t1


# Runs argv, prints its wall seconds, ru_maxrss (kilobytes on Linux) and exit code.
LAUNCH = """import os, subprocess, sys, time
t0 = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(time.perf_counter() - t0, usage.ru_maxrss, os.waitstatus_to_exitcode(status))"""


def run_process(args: list[str]) -> tuple[float, float]:
    """Wall seconds and peak RSS in MB of one ``killinglab`` process on args
    and this checkout's src, forked by ``LAUNCH``."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, "-m", "killinglab", *args, "--no-timestamp"]
    out = subprocess.run([sys.executable, "-c", LAUNCH, *argv], env=env, check=True,
                         capture_output=True, text=True).stdout
    wall, maxrss, code = out.split()
    if int(code) != cli.EXIT_OK:
        raise SystemExit(f"check_times: killinglab {' '.join(args)} exited {code}")
    return float(wall), int(maxrss) / 1024.0


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    """Where a record was taken, and of which code."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "killinglab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    status = _git("status", "--porcelain")
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "git_head": _git("rev-parse", "HEAD"),
            "git_dirty": None if status is None else bool(status),
            "src_sha256": digest.hexdigest()}


def quartiles(values: list[float], scale: float = 1e3) -> dict:
    """Median and quartiles of values times scale: of times in seconds, in
    milliseconds by default."""
    q1, med, q3 = np.percentile(scale * np.asarray(values), [25, 50, 75])
    return {"median": round(float(med), 4), "q1": round(float(q1), 4),
            "q3": round(float(q3), 4)}


SIDES = ("change", "parent")


def pair_ratios(parent: Path, first: str, jobs: list[tuple[str, dict]], repeats: int) -> dict:
    """The change/parent wall-time ratio of each of ``repeats`` pairs of runs
    of each battery, by battery label: this checkout's and PARENT's package
    imported in this process, the ``first`` side first."""
    trees = {"change": ROOT, "parent": parent}
    order = sorted(SIDES, key=lambda side: side != first)
    with tempfile.TemporaryDirectory() as tmp:
        for side in SIDES:
            shutil.copytree(trees[side] / "src" / "killinglab", Path(tmp) / f"killinglab_{side}",
                            ignore=shutil.ignore_patterns("__pycache__"))
        sys.path.insert(0, tmp)
        clis = {side: importlib.import_module(f"killinglab_{side}.cli") for side in order}

    def timed(side: str, params: dict) -> float:
        battery = clis[side]._BATTERIES[params["example"]]
        cfg = replace(clis[side].RunConfig(), **params)
        t0 = time.perf_counter()
        battery(cfg)
        return time.perf_counter() - t0

    for _, params in jobs:  # warm-up
        for side in order:
            timed(side, params)
    ratios = {label: [] for label, _ in jobs}
    for r in range(repeats):  # pair r of every battery before pair r + 1
        for label, params in jobs:
            times = {side: timed(side, params) for side in (order if r % 2 == 0 else order[::-1])}
            ratios[label].append(times["change"] / times["parent"])
    return ratios


def against(parent: Path, args: argparse.Namespace, jobs: list[tuple[str, dict]]) -> int:
    """Run ``pair_ratios`` in one child process per import order and print
    each battery's ratios, their geometric mean and each side's wins."""
    if not (parent / "src" / "killinglab" / "cli.py").is_file():
        raise SystemExit(f"check_times: no src/killinglab/cli.py under {parent}")
    if args.first is not None:
        print(json.dumps(pair_ratios(parent, args.first, jobs, args.repeats)))
        return 0
    settings = ["--against", str(parent), "--samples", str(args.samples), "--seed",
                str(args.seed), "--repeats", str(args.repeats)]
    runs = {}
    for first in SIDES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *settings,
                               "--first", first], capture_output=True, text=True)
        if proc.returncode:
            raise SystemExit(f"check_times: the {first}-first run exited {proc.returncode}:\n"
                             f"{proc.stderr}")
        runs[first] = json.loads(proc.stdout)
    print(f"change {ROOT} / parent {parent}: battery wall time, median over {args.repeats} "
          f"pairs in each import order")
    for label, _ in jobs:
        medians = {first: statistics.median(runs[first][label]) for first in SIDES}
        every = runs["change"][label] + runs["parent"][label]
        print(f"  {label:<30} change first {medians['change']:.4f}  parent first "
              f"{medians['parent']:.4f}  geometric mean "
              f"{(medians['change'] * medians['parent']) ** 0.5:.4f}  pairs won: change "
              f"{sum(r < 1 for r in every)}, parent {sum(r > 1 for r in every)}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--samples", type=int, default=cli.RunConfig.samples)
    p.add_argument("--seed", type=int, default=cli.RunConfig.seed)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--json", type=Path, default=None,
                   help="also write the rows with quartiles to this file")
    p.add_argument("--decompose-n", type=int, nargs="+", default=[], metavar="N",
                   help="also time whole decompose --example round --n N processes")
    p.add_argument("--verify", action="append", default=[], metavar="ARGS",
                   help="also time a whole 'killinglab verify ARGS' process (repeatable)")
    p.add_argument("--against", type=Path, default=None, metavar="PARENT",
                   help="compare each battery's wall time with the checkout at PARENT instead")
    p.add_argument("--first", choices=SIDES, default=None,
                   help="with --against: run one import order in this process, print JSON")
    args = p.parse_args(argv)
    sizes = ["".join(f" --{k} {v}" for k, v in params.items()) for _, params in BATTERIES]
    if args.against is not None:
        if args.json or args.decompose_n or args.verify:
            p.error("--against takes no --json, --decompose-n or --verify")
        return against(args.against.resolve(), args, [
            (f"{example}{size}", {"example": example, "samples": args.samples,
                                  "seed": args.seed, **params})
            for (example, params), size in zip(BATTERIES, sizes)])
    jobs = [(example, replace(cli.RunConfig(), example=example, samples=args.samples,
                              seed=args.seed, **params),
             ["verify", "--example", example, "--samples", str(args.samples),
              "--seed", str(args.seed), *size.split(), "--no-timestamp"])
            for (example, params), size in zip(BATTERIES, sizes)]
    for job in jobs:  # warm-up
        run_once(*job)
    runs = [[] for _ in jobs]
    for _ in range(args.repeats):  # repeat r of every battery before repeat r + 1
        for job, out in zip(jobs, runs):
            out.append(run_once(*job))
    record = []
    for (example, params), size, reps in zip(BATTERIES, sizes, runs):
        total = statistics.median(r[1] for r in reps)
        print(f"{example}{size}: {1e3 * total:.2f} ms in all, median of {args.repeats}")
        for name in reps[0][0]:
            print(f"  {name:<34} {1e3 * statistics.median(r[0][name] for r in reps):8.2f}")
        record.append({"battery": f"{example}{size}", "example": example, "params": params,
                       "total_ms": quartiles([r[1] for r in reps]),
                       "main_ms": quartiles([r[2] for r in reps]),
                       "rows_ms": {name: quartiles([r[0][name] for r in reps])
                                   for name in reps[0][0]}})
    rows = {"decompose": [], "verify": []}
    procs = ([("decompose", {"n": n}, f"--example round --n {n}", ["decompose", "--example",
                                                                   "round", "--n", str(n)])
              for n in args.decompose_n]
             + [("verify", {"args": line}, line, ["verify", *line.split()]) for line in args.verify])
    # whole processes, repeat r of every one before repeat r + 1
    proc_runs = zip(*[[run_process(argv) for *_, argv in procs] for _ in range(args.repeats)])
    for (command, key, line, _), reps in zip(procs, proc_runs):
        wall_ms, rss = quartiles([r[0] for r in reps]), quartiles([r[1] for r in reps], 1.0)
        print(f"{command} {line}: {wall_ms['median']:.1f} ms, "
              f"peak RSS {rss['median']:.1f} MB, median of {args.repeats}")
        rows[command].append({**key, "wall_ms": wall_ms, "peak_rss_mb": rss})
    if args.json is not None:
        doc = {"schema": SCHEMA, "environment": environment(),
               "settings": {"samples": args.samples, "seed": args.seed,
                            "repeats": args.repeats},
               "batteries": record, **rows}
        args.json.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
