"""How each battery call's time follows the host reference loop.

    python3 perfbench/host_slope.py [perfbench/results/result-*-trace0.json ...]

``wall_s`` rescales each call by the reference loop around it, which is
right only if the call slows down with the host in the same proportion as
the loop: time ~ loop time ** beta with beta = 1.  This prints beta for each
call, pooled over the given result files, after removing each run's mean
(the seed changes the work).  The loops before and after a call measure the
host's speed with noise, and a long call sees the host between them, so
beta is given two ways.  ``ols``, regressing on the mean of the two loops,
is pulled towards 0 by that noise.  ``iv`` divides the call's covariance
with one loop by the two loops' covariance, which removes the noise but
reads high when the speed drifts during a long call.  A beta far from 1 by
both means the correction does not fit that call.  ``iv_tiny`` and
``iv_bulk`` give the ``iv`` beta against each of the reference's two loops
alone: a call made of tiny numpy calls follows the tiny loop, one made of
bulk array work the bulk loop.
"""

from __future__ import annotations

import glob
import json
import math
import statistics
import sys
from pathlib import Path


def pairs(path: str) -> tuple[str, dict[str, list[tuple[float, ...]]]]:
    """(workload, label -> [(log call time, log reference before, after,
    log tiny loop before, after, log bulk loop before, after)])."""
    r = json.loads(Path(path).read_text())
    labels = list(r["op_s"])
    width = len(labels) + 1                  # references per pass
    refs = [(ref, *loops) for ref, loops in
            zip(r["host_ref_loop_s"], r["host_tiny_bulk_loops_s"])][width:]
    out: dict[str, list] = {}
    for j in range(len(r["pass_s"])):        # from the first timed pass on
        around = refs[j * width:(j + 1) * width]
        for i, label in enumerate(labels):
            out.setdefault(label, []).append(tuple(math.log(v) for v in (
                r["op_s"][label][j], *(x for pair in zip(around[i], around[i + 1])
                                       for x in pair))))
    return r["workload"], out


def dot(u, v) -> float:
    return sum(p * q for p, q in zip(u, v))


def iv(y, a, b) -> float:
    return (dot(y, a) + dot(y, b)) / (2 * dot(a, b))


def main(paths: list[str]) -> int:
    pooled: dict[tuple[str, str], list[tuple[float, float, float]]] = {}
    for path in paths:
        workload, runs = pairs(path)
        for label, rows in runs.items():
            means = [statistics.fmean(col) for col in zip(*rows)]
            pooled.setdefault((workload, label), []).extend(
                tuple(v - m for v, m in zip(row, means)) for row in rows)
    if not pooled:
        sys.exit("host_slope: no result files")
    print(f"{'workload':16s} {'call':22s} {'n':>4s} {'ols':>6s} {'iv':>6s} "
          f"{'iv_tiny':>7s} {'iv_bulk':>7s}")
    for (workload, label), rows in sorted(pooled.items()):
        y, a, b, ta, tb, ba, bb = zip(*rows)
        x = [(u + v) / 2 for u, v in zip(a, b)]
        print(f"{workload:16s} {label:22s} {len(rows):4d} {dot(x, y) / dot(x, x):6.2f} "
              f"{iv(y, a, b):6.2f} {iv(y, ta, tb):7.2f} {iv(y, ba, bb):7.2f}")
    return 0


if __name__ == "__main__":
    here = Path(__file__).resolve().parent
    sys.exit(main(sys.argv[1:] or sorted(glob.glob(str(here / "results" /
                                                       "result-*-trace0.json")))))
