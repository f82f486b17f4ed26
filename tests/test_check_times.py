"""scripts/check_times.py reads its rows from the report clock."""

from __future__ import annotations

import importlib.util
import json
import re
import sys
from dataclasses import asdict
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_times.py"
HEADER = re.compile(r"^(\S.*): ([\d.]+) ms in all")
SAMPLES = 7  # the fewest the gF battery takes (cli.GF_MIN_SAMPLES)


def _load_script(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # the script sets it; restore after
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("check_times", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rows_cover_every_battery_and_sum_to_its_total(monkeypatch, capsys):
    module = _load_script(monkeypatch)
    assert module.main(["--samples", str(SAMPLES), "--repeats", "1"]) == 0

    batteries = {}
    for line in capsys.readouterr().out.splitlines():
        head = HEADER.match(line)
        if head:
            rows = batteries[head[1]] = {"total": float(head[2])}
        else:
            name, ms = line.split()
            rows[name] = float(ms)
    assert len(batteries) == len(module.BATTERIES)
    for label, rows in batteries.items():
        assert {"setup", "extras"} <= set(rows), label
        if label.split()[0] in ("gF", "irregular", "round"):
            assert {"structure_at", "second_nabla_frame"} <= set(rows), label
        if label.split()[0] == "quaternionic":
            assert {"triple_psi", "second_nabla_frame",
                    "check_flip_quaternionic"} <= set(rows), label
        total = rows.pop("total")
        assert abs(sum(rows.values()) - total) <= 0.05 * total, (label, rows, total)


def test_json_record_holds_quartiles_settings_and_environment(monkeypatch, capsys, tmp_path):
    module = _load_script(monkeypatch)
    path = tmp_path / "BENCH_tiny.json"
    assert module.main(["--samples", str(SAMPLES), "--repeats", "1", "--json", str(path)]) == 0
    printed = capsys.readouterr().out
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert set(doc) == {"schema", "environment", "settings", "batteries", "decompose", "verify"}
    assert doc["schema"] == module.SCHEMA == 4
    assert doc["decompose"] == doc["verify"] == []  # no --decompose-n, no --verify
    assert set(doc["environment"]) == {"python", "numpy", "blas_threads", "nproc", "machine",
                                       "git_head", "git_dirty", "src_sha256"}
    assert doc["environment"]["blas_threads"] == "1"
    assert len(doc["environment"]["src_sha256"]) == 64
    assert doc["settings"] == {"samples": SAMPLES, "seed": 42, "repeats": 1}
    assert [b["example"] for b in doc["batteries"]] == [e for e, _ in module.BATTERIES]
    for battery in doc["batteries"]:
        assert set(battery) == {"battery", "example", "params", "total_ms", "main_ms",
                               "rows_ms"}
        assert f"{battery['battery']}: " in printed
        assert {"setup", "extras"} <= set(battery["rows_ms"])
        for q in [battery["total_ms"], battery["main_ms"], *battery["rows_ms"].values()]:
            assert set(q) == {"median", "q1", "q3"}
            assert 0.0 <= q["q1"] <= q["median"] <= q["q3"]


def test_repeats_run_across_batteries_after_one_warm_up_each(monkeypatch, capsys):
    """Repeat r of every battery runs before repeat r + 1 of any, and the
    timed ``cli.main`` call runs the battery's own configuration."""
    module = _load_script(monkeypatch)
    order = []
    run_once = module.run_once

    def recording(example, cfg, argv):
        cli = module.cli
        parsed = cli.build_config(cli.make_parser().parse_args(argv))
        for key, value in asdict(cfg).items():  # n stays None where no battery reads it
            assert value is None or key == "no_timestamp" or getattr(parsed, key) == value
        order.append((example, cfg.m))
        return run_once(example, cfg, argv)

    monkeypatch.setattr(module, "run_once", recording)
    assert module.main(["--samples", str(SAMPLES), "--repeats", "2"]) == 0
    one_round = [(e, p.get("m", 1)) for e, p in module.BATTERIES]
    assert order == one_round * 3  # the warm-up round, then two repeats


def test_decompose_rows_time_whole_processes(monkeypatch, capsys, tmp_path):
    """--decompose-n 10 adds one row, and --verify one: the wall time and
    the child's own peak RSS of a ``decompose --example round --n 10`` and
    of a ``verify --example round --n 1 --samples 7`` process."""
    module = _load_script(monkeypatch)
    monkeypatch.setattr(module, "BATTERIES", module.BATTERIES[2:3])  # round --n 2 only
    path = tmp_path / "BENCH_tiny.json"
    assert module.main(["--samples", "5", "--repeats", "1", "--json", str(path),
                        "--decompose-n", "10", "--verify", "--example round --n 1 --samples 7"]) == 0
    out = capsys.readouterr().out
    assert "decompose --example round --n 10: " in out
    assert "verify --example round --n 1 --samples 7: " in out
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert [row["n"] for row in doc["decompose"]] == [10]
    assert [row["args"] for row in doc["verify"]] == ["--example round --n 1 --samples 7"]
    for row, key in ((doc["decompose"][0], "n"), (doc["verify"][0], "args")):
        assert set(row) == {key, "wall_ms", "peak_rss_mb"}
        for q in (row["wall_ms"], row["peak_rss_mb"]):
            assert set(q) == {"median", "q1", "q3"}
            assert 0.0 < q["q1"] <= q["median"] <= q["q3"]
        assert 10.0 < row["peak_rss_mb"]["median"] < 1000.0


def test_decompose_repeats_interleave_across_n(monkeypatch, capsys):
    """Repeat r of every --decompose-n and --verify process runs before
    repeat r + 1 of any."""
    module = _load_script(monkeypatch)
    monkeypatch.setattr(module, "BATTERIES", ())
    order = []

    def fake(args):
        order.append(int(args[-1]))
        return 0.001 * order[-1], float(order[-1])

    monkeypatch.setattr(module, "run_process", fake)
    assert module.main(["--repeats", "2", "--decompose-n", "10", "20",
                        "--verify", "--example round --samples 30"]) == 0
    assert order == [10, 20, 30, 10, 20, 30]
    out = capsys.readouterr().out
    assert "--n 10: 10.0 ms, peak RSS 10.0 MB" in out and "--n 20: 20.0 ms" in out
    assert "verify --example round --samples 30: 30.0 ms" in out
