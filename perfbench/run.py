"""Benchmark of killinglab's verify batteries, Hopf lift and decomposition.

    python3 perfbench/run.py --workload fd-batteries --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout, in one process and one thread, and
calls ``killinglab.cli.main`` in-process.  One pass runs every battery of the
workload once; an untimed warm-up pass comes first, then passes repeat until
``--seconds`` have elapsed, and ``wall_s`` is the median pass.  A fixed
host reference runs around every battery call, and each call's time is
rescaled to the reference's nominal time, so the host's changing speed
cancels (see README.md).  With ``--trace 1`` half of the time runs untraced passes
and half runs passes with spans around each call into the package's layers;
the last stdout line then carries the per-layer metrics instead of the
end-to-end ones.  Outputs are checked against closed forms after the timed
passes.  Details go to ``perfbench/results/``.
"""

from __future__ import annotations

import time

# The benchmark's own modules load no numpy and no killinglab; importing them
# before the clock starts keeps them out of setup_s.
import oracles
from tracing import TRACED, Tracer, instrument
from workloads import HOPF_SAMPLES, WORKLOADS

T_START = time.perf_counter()

import os  # noqa: E402

# One BLAS/OpenMP thread, fixed before numpy loads: the batteries make many
# tiny matrix calls, for which extra threads only add contention and spread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
TINY_ITERS = 10_000
BULK_ITERS = 40
BULK_POINTS = 10_001
# Typical time of the host reference on the 2-core VM the bounds were set
# on; it only fixes the scale of the host-corrected times.
REF_NOMINAL_S = 0.020
HOPF_ORACLE_POINTS = 3


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_program():
    """Import killinglab from this checkout's sources, or exit non-zero."""
    if not (SRC / "killinglab" / "cli.py").is_file():
        sys.exit(f"perfbench: no killinglab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import killinglab.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "killinglab":
        sys.exit(f"perfbench: imported killinglab from {cli.__file__}, not {SRC}")
    return cli


def host_ref_loops() -> tuple[float, float]:
    """Times of two fixed loops that show how fast the host ran at a moment;
    no program change can move them.  The tiny loop makes 8x8 matmuls, like
    the geometry pipeline's calls; the bulk loop makes array operations over
    10 001 points, like the Hopf quadrature.  When the host is busy, tiny
    calls slow down more than bulk work (see README.md)."""
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    a, b = rng.standard_normal((2, BULK_POINTS, 4))
    ts = np.linspace(0.0, 1.0, BULK_POINTS)
    m = np.eye(8)
    t0 = time.perf_counter()
    for _ in range(TINY_ITERS):
        m = q @ m
    t1 = time.perf_counter()
    for _ in range(BULK_ITERS):
        g = np.outer(np.sin(0.7 * ts), a[0]) + a
        np.einsum("ni,ni->n", g @ q[:4, :4], b)
    return t1 - t0, time.perf_counter() - t1


def host_ref() -> tuple[float, tuple[float, float]]:
    """The host reference, the geometric mean of the two loops, and both."""
    loops = host_ref_loops()
    return math.sqrt(loops[0] * loops[1]), loops


def run_op(main, op) -> dict:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main([*op.argv, "--format", "json", "--no-timestamp"])
    except Exception:  # a traceback is a failed operation, not a crash of the run
        rc = None
        err.write(traceback.format_exc())
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue(),
            "s": time.perf_counter() - t0}


def run_pass(main, ops, tracer=None) -> dict:
    """One pass over the ops with the host reference run (untimed) before
    each op and after the last.  ``s`` is the measured pass time; ``host_s``
    rescales each op by the mean of the two references around it to the
    nominal host speed."""
    gc.collect()
    ref, pair = host_ref()
    refs, loops = [ref], [pair]
    results = []
    for op in ops:
        if tracer is None:
            results.append(run_op(main, op))
        else:
            results.append(tracer.call(f"cli.battery.{op.battery}", run_op, (main, op)))
        ref, pair = host_ref()
        refs.append(ref)
        loops.append(pair)
    host_s = sum(r["s"] * 2 * REF_NOMINAL_S / (a + b)
                 for r, a, b in zip(results, refs, refs[1:]))
    return {"s": sum(r["s"] for r in results), "host_s": host_s, "refs": refs,
            "loops": loops, "ops": results}


def run_passes(main, ops, seconds: float, min_passes: int, tracer=None) -> list[dict]:
    passes = []
    t0 = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - t0 < seconds:
        if tracer is not None:
            tracer.reset()
        passes.append(run_pass(main, ops, tracer))
        if tracer is not None:
            passes[-1]["layers"] = layer_metrics(tracer)
            passes[-1]["stats"] = {k: list(v) for k, v in tracer.stats.items()}
    return passes


def layer_metrics(tr) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced pass: name -> (value, unit)."""
    chart_maps = ("coords", "point_coords", "to_chart_vector", "push")
    out = {
        "sphere.jacobian_calls": (tr.calls("sphere.Chart.jacobian"), "count"),
        "sphere.chart_map_calls": (sum(tr.calls(f"sphere.Chart.{a}")
                                       for a in chart_maps), "count"),
        "sphere.chart_for_point_calls": (tr.calls("sphere.chart_for_point"), "count"),
        "sphere.sample_s": (tr.inclusive("sphere.sample_sphere"), "s"),
        "metrics.matrix_at_calls": (tr.calls("metrics.MetricField.matrix_at"), "count"),
        "metrics.field_value_calls": (tr.calls("metrics.VectorField.value"), "count"),
    }
    for short, attr in (("christoffel", "christoffel"), ("nabla", "nabla"),
                        ("nabla_endo", "nabla_endo"),
                        ("second_nabla", "second_nabla_frame")):
        name = f"metrics.LeviCivita.{attr}"
        out[f"metrics.{short}_calls"] = (tr.calls(name), "count")
        out[f"metrics.{short}_self_s"] = (tr.self_time(name), "s")
    out["metrics.structure_at_calls"] = (tr.calls("metrics.LeviCivita.structure_at"),
                                         "count")
    out["metrics.structure_at_s"] = (tr.inclusive("metrics.LeviCivita.structure_at"), "s")
    out["verify.nijenhuis_calls"] = (tr.calls("verify.nijenhuis_residual"), "count")
    out["verify.nijenhuis_self_s"] = (tr.self_time("verify.nijenhuis_residual"), "s")
    for mod, _, attr in TRACED:
        if mod == "verify" and attr != "nijenhuis_residual":
            out[f"verify.{attr}_s"] = (tr.inclusive(f"verify.{attr}"), "s")
    out.update({
        "constructions.lift_potential_calls": (tr.calls("constructions.lift_potential"),
                                               "count"),
        "constructions.lift_potential_s": (tr.inclusive("constructions.lift_potential"),
                                           "s"),
        "constructions.solve_lift_s": (tr.inclusive("constructions.solve_lift"), "s"),
        "algebra.algebra_init_s": (tr.inclusive("algebra.IsometryAlgebra.__init__"), "s"),
        "algebra.killing_gram_s": (tr.inclusive("algebra.IsometryAlgebra.killing_gram"),
                                   "s"),
        "algebra.ad_matrix_s": (tr.inclusive("algebra.IsometryAlgebra.ad_matrix"), "s"),
        "algebra.decomposition_s": (tr.inclusive("algebra.standard_decomposition"), "s"),
        "algebra.eigenfield_s": (tr.inclusive("algebra.eigenfield_residuals"), "s"),
        "algebra.bracket_calls": (tr.calls("algebra.field_bracket"), "count"),
        "flows.classify_s": (tr.inclusive("flows.classify"), "s"),
        "flows.orbit_probe_s": (tr.inclusive("flows.numeric_orbit_probe"), "s"),
        "report.emit_s": (tr.inclusive("cli._emit"), "s"),
    })
    for battery in ("round", "quaternionic", "hopf-lift", "gF", "irregular",
                    "decompose", "classify-flow"):
        out[f"cli.battery.{battery}_s"] = (tr.inclusive(f"cli.battery.{battery}"), "s")
    for layer, self_s in tr.layer_self().items():
        out[f"layer.{layer}_self_s"] = (self_s, "s")
    return out


def check_outputs(ops, passes, schema) -> tuple[int, list[str], list[str]]:
    """Failed timed operations with their messages, and problems in the
    outputs of the operations that did not fail."""
    failed, failures, problems = 0, [], []
    first = passes[0]["ops"]
    for i, op in enumerate(ops):
        runs = [p["ops"][i] for p in passes]
        bad = [r for r in runs if r["rc"] != 0]
        failed += len(bad) - (first[i]["rc"] != 0)  # the warm-up pass is untimed
        if bad:
            failures.append(f"{op.label}: exit {bad[0]['rc']}: "
                            f"{bad[0]['err'].strip()[-300:]}")
        good = [r["out"] for r in runs if r["rc"] == 0]
        if not good:
            continue
        problems += [f"{op.label}: {m}" for m in oracles.check_identical(good[0], good[1:])]
        report_problems = oracles.check_report(good[0], schema)
        if not report_problems:
            report_problems = op.check(json.loads(good[0]))
        problems += [f"{op.label}: {m}" for m in report_problems]
    return failed, failures, problems


def hopf_oracle(seed: int) -> list[str]:
    from killinglab.constructions import build_hopf, lift_potential, so3_basis
    from killinglab.sphere import sample_sphere

    bundle, gens = build_hopf(), so3_basis()
    ys = [oracles.hopf_projection(p.coords)
          for p in sample_sphere(1, HOPF_SAMPLES, seed).points]
    # the battery's own rule: keep base points away from the anchor's antipode
    ys = [y for y in ys if 0.5 - y[2] > 0.05][:HOPF_ORACLE_POINTS]
    return oracles.check_hopf_moment_map(
        lambda k, y: lift_potential(bundle, gens[k], np.array(y)), ys,
        tuple(float(v) for v in bundle.anchor))


def median_layers(passes: list[dict]) -> tuple[dict, bool]:
    """Median of each time over traced passes; counts must repeat exactly."""
    first = passes[0]["layers"]
    repeat = all(p["layers"][k] == first[k] for p in passes
                 for k, (_, unit) in first.items() if unit != "s")
    out = {}
    for k, (value, unit) in first.items():
        if unit == "s":
            value = statistics.median(p["layers"][k][0] for p in passes)
        out[k] = (value, unit)
    return out, repeat


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = load_program()
    ops = WORKLOADS[args.workload](args.seed)
    import_s = time.perf_counter() - T_START
    warmup = run_pass(cli.main, ops)
    raw_setup_s = import_s + warmup["s"]
    setup_s = import_s * REF_NOMINAL_S / warmup["refs"][0] + warmup["host_s"]
    budget = args.seconds / 2 if args.trace else args.seconds
    timed = run_passes(cli.main, ops, budget, MIN_PASSES)
    traced = []
    if args.trace:
        tracer = Tracer()
        with instrument(tracer):
            traced = run_passes(cli.main, ops, budget, MIN_TRACED_PASSES, tracer)
    schema = json.loads((SRC / "killinglab" / "schema" / "report-v1.json")
                        .read_text(encoding="utf-8"))
    failed, failures, problems = check_outputs(ops, [warmup] + timed + traced, schema)
    if any(op.battery == "hopf-lift" for op in ops):
        problems += hopf_oracle(args.seed)
    if args.trace:
        layers, repeat = median_layers(traced)
        if not repeat:
            problems.append("per-layer counts differ across traced passes")
    attempted = len(ops) * (len(timed) + len(traced))
    wall_s = statistics.median(p["host_s"] for p in timed)
    raw_wall_s = statistics.median(p["s"] for p in timed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    refs = [r for p in [warmup] + timed + traced for r in p["refs"]]
    ref_start, ref_end = refs[0], refs[-1]

    op_median = {op.label: statistics.median(p["ops"][i]["s"] for p in timed)
                 for i, op in enumerate(ops)}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "argv": {op.label: list(op.argv) for op in ops},
        "setup_s": setup_s, "raw_setup_s": raw_setup_s, "wall_s": wall_s,
        "raw_wall_s": raw_wall_s,
        "peak_rss_mb": peak_rss_mb,
        "pass_s": [p["s"] for p in timed], "pass_host_s": [p["host_s"] for p in timed],
        "op_median_s": op_median,
        "op_s": {op.label: [p["ops"][i]["s"] for p in timed] for i, op in enumerate(ops)},
        "host_ref_loop_s": refs,
        "host_tiny_bulk_loops_s": [x for p in [warmup] + timed + traced for x in p["loops"]],
        "attempted": attempted, "failed": failed, "failures": failures,
        "problems": problems,
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(timed)} timed passes, setup {raw_setup_s:.3f} s measured, "
          f"{setup_s:.3f} s at nominal host speed")
    for label, s in op_median.items():
        print(f"  {label:<22s} median {s:8.4f} s  {100 * s / raw_wall_s:5.1f}% of a pass")
    print(f"  host reference: start {ref_start * 1e3:.2f} ms, end {ref_end * 1e3:.2f} ms, "
          f"median {statistics.median(refs) * 1e3:.2f} ms, nominal "
          f"{REF_NOMINAL_S * 1e3:.2f} ms; pass median {raw_wall_s:.4f} s measured, "
          f"{wall_s:.4f} s at nominal host speed")
    for msg in failures:
        print(f"  FAILED {msg}")
    for msg in problems:
        print(f"  PROBLEM {msg}")

    if args.trace:
        from killinglab.constructions import build_hopf

        # computed: each lift_potential call evaluates its integrand at every
        # node of the Simpson rule, whose step count is rounded up to even
        steps = build_hopf().quadrature_steps
        steps += steps % 2
        layers["constructions.integrand_evals"] = (
            layers["constructions.lift_potential_calls"][0] * (steps + 1),
            "count-computed")
        traced_wall = statistics.median(p["host_s"] for p in traced)
        layers["host.ref_loop_s"] = (statistics.median(refs), "s")
        layers["host.raw_wall_s"] = (raw_wall_s, "s")
        layers["host.raw_setup_s"] = (raw_setup_s, "s")
        layers["trace.wall_untraced_s"] = (wall_s, "s")
        layers["trace.wall_traced_s"] = (traced_wall, "s")
        layers["trace.overhead_s"] = (traced_wall - wall_s, "s")
        print(f"  tracing: {len(traced)} traced passes, overhead "
              f"{traced_wall - wall_s:.3f} s per pass "
              f"({100 * (traced_wall / wall_s - 1):+.1f}%), counts repeat "
              f"across traced passes: {'yes' if repeat else 'NO'}")
        metrics = layers
        record["layers"] = {k: v for k, (v, _) in layers.items()}
        record["counts_repeat"] = repeat
        trace_doc = {"workload": args.workload, "seed": args.seed,
                     "stats_last_pass": traced[-1]["stats"]}
    else:
        metrics = {"wall_s": (wall_s, "s"), "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (RESULTS / f"trace-{stem}.json").write_text(json.dumps(trace_doc) + "\n")

    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
