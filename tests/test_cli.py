"""Command-line surface: exit codes, JSON reports, config files, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from killinglab import cli
from killinglab.cli import main, make_parser
from killinglab.constructions import build_deformed
from killinglab.sphere import sample_sphere

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src" / "killinglab" / "schema"
     / "report-v1.json").read_text())

FAST = ["--samples", "25", "--no-timestamp"]


def run_cli(*args: str) -> tuple[int, str, str]:
    """Run in-process (fast); capsys-free by using subprocess semantics."""
    proc = subprocess.run([sys.executable, "-m", "killinglab", *args],
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def test_verify_round_ok_and_schema():
    code, out, err = run_cli("verify", "--example", "round", "--n", "1",
                             "--format", "json", *FAST)
    assert code == 0, err
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["verdicts"]["all_as_expected"]
    assert "generated_at" not in doc
    names = [c["name"] for c in doc["checks"]]
    assert "wedge_second_derivative" in names
    assert "contact_endomorphism" in names
    assert "cr_torsion" in names
    assert "two_form_square_spectrum" in names


def test_verify_text_format_verdict_line():
    code, out, _ = run_cli("verify", "--example", "round", "--n", "1", *FAST)
    assert code == 0
    assert "verdict:" in out
    assert "UNEXPECTED" not in out


@pytest.mark.parametrize("example", ["quaternionic", "irregular"])
def test_verify_other_examples_pass(example):
    code, out, err = run_cli("verify", "--example", example, "--format", "json",
                             *FAST)
    assert code == 0, err
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["verdicts"]["all_as_expected"]


def test_verify_gf_expected_failures_marked():
    code, out, err = run_cli("verify", "--example", "gF", "--n", "3",
                             "--samples", "60", "--no-timestamp",
                             "--format", "json")
    assert code == 0, err
    doc = json.loads(out)
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["wedge_second_derivative"]["expected"] == "fail"
    assert not by_name["wedge_second_derivative"]["pass"]
    assert by_name["wedge_second_derivative"]["as_expected"]
    assert by_name["cr_torsion"]["expected"] == "fail"
    assert by_name["two_form_square_spectrum"]["expected"] == "pass"
    assert by_name["two_form_square_spectrum"]["pass"]


def test_exit_codes_usage_errors():
    assert run_cli("verify", "--example", "bogus", *FAST)[0] == 2
    assert run_cli("verify", "--example", "gF", "--n", "2", *FAST)[0] == 2
    assert run_cli("classify-flow", "not-a-rate")[0] == 2
    assert run_cli("decompose", "--example", "quaternionic", *FAST)[0] == 2


def _as_limited(limit_bytes: int):
    """A preexec_fn capping the child's address space, so a run that tries
    to allocate beyond it fails at once instead of growing."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))
    return cap


@pytest.mark.parametrize("command", ["decompose", "verify"])
def test_out_of_reach_n_is_refused_before_allocating(command):
    """so(200002) would not fit in memory: --n is refused by name with the
    bound and the budget, under a 2 GiB address-space cap, with no
    traceback (numpy's ArrayMemoryError before)."""
    proc = subprocess.run([sys.executable, "-m", "killinglab", command, "--example", "round",
                           "--n", "100000", "--no-timestamp"],
                          capture_output=True, text=True, timeout=120,
                          preexec_fn=_as_limited(2 << 30))
    assert proc.returncode == 2, proc.stderr
    assert "--n 100000" in proc.stderr and f"at most {cli.MAX_N}" in proc.stderr
    assert "2 GiB" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, flags", [
    (["decompose", "--example", "round", "--n", "40"],
     "decompose --example round --n 40 --samples 200"),
    (["verify", "--example", "round", "--n", "40", "--samples", "2"],
     "verify --example round --n 40 --samples 2"),
], ids=["decompose", "verify"])
def test_an_allocation_failure_is_reported_by_its_size_flags(argv, flags):
    """Within the --n bound but past a 400 MB address-space cap (the
    interpreter and OpenBLAS need about 230 MB to load), so(82)'s 170 MiB
    generator stack fails to allocate: the run exits 2 naming its size
    flags and numpy's message, with no traceback (exit 1 with one before)."""
    proc = subprocess.run([sys.executable, "-m", "killinglab", *argv, "--no-timestamp"],
                          capture_output=True, text=True, timeout=120,
                          preexec_fn=_as_limited(400 * 10**6))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"usage error: {flags} is out of reach: it ran out of the "
                                  f"memory this process may allocate (Unable to allocate")
    assert "Traceback" not in proc.stderr


def test_n_bound_applies_where_an_example_reads_n(tmp_path):
    parser = make_parser()

    def config(*argv):
        return cli.build_config(parser.parse_args(list(argv)))

    assert config("decompose", "--example", "round", "--n", "40").n == 40
    # verify's work bound is the tighter one: irregular at 200 samples reaches n = 14
    assert config("verify", "--example", "irregular", "--n", "14").n == 14
    with pytest.raises(ValueError, match="--n 15 --samples 200 is out of reach"):
        config("verify", "--example", "irregular", "--n", "15")
    for argv in (["decompose", "--example", "gF"], ["verify", "--example", "round"]):
        with pytest.raises(ValueError, match=f"--n {cli.MAX_N + 1} is out of reach"):
            config(*argv, "--n", str(cli.MAX_N + 1))
    cfg_file = tmp_path / "big.cfg"
    cfg_file.write_text("n = 100000\n")
    with pytest.raises(ValueError, match="--n 100000"):
        config("decompose", "--config", str(cfg_file))
    # quaternionic, hopf-lift and classify-flow read no n
    assert config("verify", "--example", "quaternionic", "--n", "100000").n == 100000
    assert config("classify-flow", "1", "2", "--n", "100000").n == 100000


@pytest.mark.parametrize("argv, flags, bound", [
    (["--example", "round", "--n", "47"], "--n 47 --samples 200", "--samples may be at most"),
    (["--example", "quaternionic", "--m", "100000"], "--m 100000", "one sample point"),
    (["--example", "round", "--samples", str(10**15)], f"--n 2 --samples {10**15}",
     "--samples may be at most"),
    (["--example", "hopf-lift", "--samples", str(10**15)], f"--samples {10**15}",
     "--samples may be at most"),
], ids=["round-n47", "quaternionic-m100000", "round-samples", "hopf-samples"])
def test_verify_out_of_memory_is_refused_before_allocating(argv, flags, bound):
    """verify streams its sample in chunks: a run one of whose points would
    outgrow the 2 GiB memory budget, or whose samples times point bytes
    would outgrow the work budget, is refused by its flags with the bound
    and the budget, under a 2 GiB address-space cap, with no traceback
    (numpy's ArrayMemoryError before)."""
    proc = subprocess.run([sys.executable, "-m", "killinglab", "verify", *argv,
                           "--no-timestamp"],
                          capture_output=True, text=True, timeout=120,
                          preexec_fn=_as_limited(2 << 30))
    assert proc.returncode == 2, proc.stderr
    assert f"usage error: {flags} is out of reach" in proc.stderr
    assert bound in proc.stderr and "Traceback" not in proc.stderr
    assert (f"against a {cli.MEMORY_BUDGET_GIB} GiB budget" in proc.stderr
            or f"against a {cli.WORK_BUDGET_GIB} GiB work budget" in proc.stderr)


# Forks argv and prints its ru_maxrss (kilobytes on Linux) and exit code from os.wait4.
# Linux carries the forking process's high-water RSS through exec, so the fork is made
# by this bare interpreter, not by the test process.
_LAUNCH = """import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(usage.ru_maxrss, os.waitstatus_to_exitcode(status))"""


def _peak_rss_mb(argv: list[str]) -> list[float]:
    """Peak RSS in MB of one ``killinglab verify`` process per argv, run side
    by side."""
    procs = [subprocess.Popen([sys.executable, "-c", _LAUNCH, sys.executable, "-m", "killinglab",
                               "verify", *args, "--no-timestamp"],
                              stdout=subprocess.PIPE, text=True) for args in argv]
    peaks = []
    for proc in procs:
        maxrss, code = proc.communicate(timeout=60)[0].split()
        assert code == "0"
        peaks.append(int(maxrss) / 1024.0)
    return peaks


def test_verify_peak_memory_stops_growing_past_one_chunk():
    """Ten chunks' worth of samples peak within 10 % of two chunks' worth:
    round --n 16 (two points a chunk) and hopf-lift (a chunk of its lift
    quadrature)."""
    from killinglab.constructions import HOPF_QUADRATURE_STEPS, lift_point_bytes
    from killinglab.metrics import sample_bytes, sample_chunks

    runs = {("round", "--n", "16"): sample_bytes(34, stencil=False),
            ("hopf-lift",): lift_point_bytes(HOPF_QUADRATURE_STEPS, 3)}
    args = [["--example", *run, "--samples", str(k * sample_chunks(10**6, point)[0].stop)]
            for run, point in runs.items() for k in (2, 10)]
    round2, round10, hopf2, hopf10 = _peak_rss_mb(args)
    assert round10 <= 1.1 * round2 and hopf10 <= 1.1 * hopf2, (round2, round10, hopf2, hopf10)


def test_verify_memory_bound_keeps_every_shipped_setting():
    """The defaults, the benchmark's and check_times.py's settings and the
    largest measured runs that fit (round n = 20, irregular n = 12 at 200
    samples) stay within the bound."""
    parser = make_parser()
    for argv in (["--example", "round"], ["--example", "quaternionic", "--m", "2"],
                 ["--example", "hopf-lift"], ["--example", "gF", "--n", "3"],
                 ["--example", "irregular"], ["--example", "round", "--n", "20"],
                 ["--example", "irregular", "--n", "12"],
                 ["--example", "gF", "--n", "10"], ["--example", "quaternionic", "--m", "6"]):
        cli.build_config(parser.parse_args(["verify", *argv]))


def test_gf_refuses_a_sample_that_misses_the_support(monkeypatch, capsys):
    """At n = 25 none of 7 samples at seed 16 lands where the deformation
    acts (support_fraction 0), so the expected-fail checks read rounding and
    the battery exited 1 after 9 s, blaming the geometry.  The drawn sample
    is refused (exit 3) by its support, naming the remedy, before any chunk's
    structure is built; at seed 0 a sample lands in the support."""
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(1)
        return structure_at(self, *args, **kwargs)

    structure_at = cli.LeviCivita.structure_at
    monkeypatch.setattr(cli.LeviCivita, "structure_at", counted)
    argv = ["verify", "--example", "gF", "--n", "25", "--samples", "7", "--no-timestamp"]
    assert main([*argv, "--seed", "16"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical quality failure: none of gF's 7 samples (seed 16) lands "
                          "in the deformation's support")
    assert "raise --samples or pick another --seed" in err and calls == []
    assert np.count_nonzero(build_deformed(n=25).f_of(sample_sphere(25, 7, 0).coords)) > 0


def test_gf_refuses_fewer_samples_than_its_floor(capsys):
    """Below GF_MIN_SAMPLES some seeds leave gF's expected-fail checks under
    their floors (exit 1 for a sound battery); the count is refused by name."""
    few = str(cli.GF_MIN_SAMPLES - 1)
    assert main(["verify", "--example", "gF", "--samples", few, "--no-timestamp"]) == 2
    err = capsys.readouterr().err
    assert f"gF needs --samples >= {cli.GF_MIN_SAMPLES}, got {few}" in err
    # seed 36 missed a floor at 6 samples
    assert main(["verify", "--example", "gF", "--samples", str(cli.GF_MIN_SAMPLES),
                 "--seed", "36", "--no-timestamp"]) == 0


def test_reports_echo_every_config_field(capsys):
    """The config echo is the dataclass's fields by name, as asdict gave it."""
    from dataclasses import asdict

    argv = ["decompose", "--example", "round", "--n", "2", "--format", "json",
            "--no-timestamp"]
    assert main(argv) == 0
    cfg = cli.build_config(make_parser().parse_args(argv))
    assert json.loads(capsys.readouterr().out)["config"] == asdict(cfg)


def test_verify_gf_default_n():
    """gF needs n >= 3; with n unset the run uses 3 instead of failing."""
    code, out, err = run_cli("verify", "--example", "gF", "--samples", "20",
                             "--format", "json", "--no-timestamp")
    assert code == 0, err
    assert json.loads(out)["config"]["n"] == 3


def test_hopf_lift_too_few_kept_samples():
    """Too few samples for the lift fit is refused with its real cause."""
    code, _, err = run_cli("verify", "--example", "hopf-lift",
                           "--samples", "2", "--no-timestamp")
    assert code == 2
    assert "of 2 samples" in err
    assert "antipode" in err
    assert "at least 4" in err
    assert "skew" not in err


def test_exit_codes_numerical_failures():
    code, _, err = run_cli("verify", "--example", "round", "--n", "1",
                           "--fd-step", "1e30", *FAST)
    assert code == 3
    assert "numerical quality failure" in err
    code, _, err = run_cli("verify", "--example", "irregular", "--n", "1",
                           "--fd-step", "1e-13", *FAST)
    assert code == 3
    assert "at fd_step=1.000e-13" in err
    # the round battery takes no finite difference, so no step can spoil it
    code, _, err = run_cli("verify", "--example", "round", "--n", "1",
                           "--fd-step", "1e-13", *FAST)
    assert code == 0, err
    code, _, err = run_cli("verify", "--example", "gF", "--n", "3",
                           "--c", "25", *FAST)
    assert code == 3


FD_STEPS = ("1e-13", "5e-7", "1e-6", "2e-4", "5e-3")


@pytest.mark.parametrize("argv, codes, drifts", [
    (["verify", "--example", "gF"], (3, 3, 0, 0, 1), ("1.033e+00", "3.572e-03")),
    (["verify", "--example", "irregular"], (3, 3, 3, 0, 1),
     ("1.775e-03", "3.319e-03", "1.480e-03")),
    (["decompose", "--example", "gF"], (3, 3, 0, 0, 0), ("1.033e+00", "3.572e-03")),
], ids=["verify-gF", "verify-irregular", "decompose-gF"])
def test_fd_step_exit_codes_and_canary_drifts_at_200_samples(capsys, argv, codes, drifts):
    """The exit code at each step and the drift the step canary names where it
    exits 3, at the default 200 samples and seed 42.  Exit 1 at 5e-3 is the
    known defect of a coarse step blamed on the geometry."""
    for step, code in zip(FD_STEPS, codes):
        assert main([*argv, "--fd-step", step, "--samples", "200", "--seed", "42",
                     "--no-timestamp"]) == code, step
    err = capsys.readouterr().err
    assert err.count("numerical quality failure") == len(drifts)
    for step, drift in zip(FD_STEPS, drifts):
        assert f"rel drift {drift} at fd_step={float(step):.3e}" in err


@pytest.mark.parametrize("flags", [["--example", "round", "--n", "2"],
                                   ["--example", "quaternionic", "--m", "1"],
                                   ["--example", "hopf-lift"]], ids=lambda f: f[1])
def test_exact_batteries_read_no_fd_step(capsys, flags):
    """Every residual of an exact battery is a closed form, so neither a step
    lost to cancellation (1e-13) nor the largest one accepted (0.02) moves a
    check or an extra."""
    docs = []
    for step in ("1e-4", "1e-13", "0.02"):
        assert main(["verify", *flags, "--fd-step", step, "--samples", "25",
                     "--format", "json", "--no-timestamp"]) == 0, step
        doc = json.loads(capsys.readouterr().out)
        docs.append((doc["checks"], doc["extras"]))
    assert docs[1] == docs[0] and docs[2] == docs[0]


def test_decompose_on_an_fd_metric_guards_its_step(capsys):
    """gF's eigenfield identities read a finite-difference structure: a step
    lost to cancellation is a numerical failure naming the step."""
    assert main(["decompose", "--example", "gF", "--fd-step", "1e-13", "--samples", "25"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical quality failure: ")
    assert "at fd_step=1.000e-13" in err


@pytest.mark.parametrize("example, canary, structures", [
    ("round", 0, 1), ("gF", 1, 1), ("irregular", 0, 0)])
def test_decompose_builds_the_structure_only_for_a_nonzero_rate(monkeypatch, capsys,
                                                                 example, canary, structures):
    """The structure feeds the eigenfield checks alone, and the canary guards
    it only where it takes finite differences."""
    calls = {"canary": 0, "structure_at": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli.verify, "covariant_canary",
                        counted("canary", cli.verify.covariant_canary))
    monkeypatch.setattr(cli.LeviCivita, "structure_at",
                        counted("structure_at", cli.LeviCivita.structure_at))
    assert main(["decompose", "--example", example, "--samples", "10"]) == 0
    assert calls == {"canary": canary, "structure_at": structures}


@pytest.mark.parametrize("example, canary", [
    ("round", False), ("quaternionic", False), ("hopf-lift", False),
    ("gF", True), ("irregular", True)])
def test_the_step_canary_is_a_clock_row_of_the_fd_batteries(example, canary):
    rep = cli._BATTERIES[example](cli.RunConfig(example=example, n=3, samples=10))
    assert ("covariant_canary" in rep.clock) is canary
    assert rep.all_as_expected


def test_json_reports_are_byte_identical():
    args = ("verify", "--example", "round", "--n", "2", "--format", "json",
            "--samples", "30", "--no-timestamp")
    _, out1, _ = run_cli(*args)
    _, out2, _ = run_cli(*args)
    assert out1 == out2


def test_timestamp_present_by_default():
    code, out, _ = run_cli("verify", "--example", "round", "--n", "1",
                           "--format", "json", "--samples", "20")
    assert code == 0
    assert "generated_at" in json.loads(out)


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nexample = round\nn = 2\nsamples = 25\n"
                   "fd-step = 2e-4\n")
    code, out, err = run_cli("verify", "--config", str(cfg), "--samples", "35",
                             "--format", "json", "--no-timestamp")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["config"]["example"] == "round"
    assert doc["config"]["n"] == 2
    assert doc["config"]["samples"] == 35       # flag beats file
    assert doc["config"]["fd_step"] == 2e-4     # file beats default


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wibble = 3\n")
    code, _, err = run_cli("verify", "--config", str(cfg))
    assert code == 2
    assert "unknown config keys" in err


@pytest.mark.parametrize("command, line", [
    ("verify", "example = nope"),
    ("decompose", "example = quaternionic"),  # a verify example, not a decompose one
    ("verify", "format = yaml"),
])
def test_config_file_value_outside_the_flag_choices(tmp_path, capsys, command, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert main([command, "--config", str(cfg), "--samples", "15"]) == 2
    key = line.split(" =")[0]
    assert f"usage error: config key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("word, stamped", [("YES", False), ("on", False), ("0", True),
                                           ("Off", True)])
def test_config_file_boolean_words(tmp_path, capsys, word, stamped):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"no_timestamp = {word}\n")
    assert main(["verify", "--config", str(cfg), "--samples", "5", "--format", "json"]) == 0
    assert ("generated_at" in json.loads(capsys.readouterr().out)) == stamped


@pytest.mark.parametrize("line, message", [
    ("no_timestamp = maybe", "config key 'no_timestamp' = 'maybe' is not a boolean"),
    ("samples = abc", "config key 'samples' = 'abc' is not an integer"),
    ("seed = 1.5", "config key 'seed' = '1.5' is not an integer"),
    ("fd_step = x", "config key 'fd_step' = 'x' is not a number"),
], ids=["bool", "int", "int-given-float", "float"])
def test_config_file_value_of_the_wrong_type(tmp_path, capsys, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    assert f"usage error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("example", ["round", "gF", "irregular"])
def test_fd_step_nan_flag_is_refused_by_name(capsys, example):
    assert main(["verify", "--example", example, "--fd-step", "nan", "--samples", "5"]) == 2
    err = capsys.readouterr().err
    assert "usage error: fd_step must be a positive number, got nan" in err
    assert "infs or NaNs" not in err


def test_fd_step_nan_config_value_is_refused_by_name(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("example = gF\nfd_step = nan\n")
    assert main(["verify", "--config", str(cfg), "--samples", "5"]) == 2
    assert "usage error: fd_step must be a positive number, got nan" in capsys.readouterr().err


BAD_VALUES = [
    (["--samples", "0"], "samples = 0", "samples must be >= 1, got 0", "count must be"),
    (["--seed", "-1"], "seed = -1", "seed must be >= 0, got -1", "non-negative integer"),
    (["--example", "gF", "--c", "nan"], "example = gF\nc = nan",
     "c must be a finite number, got nan", "infs or NaNs"),
    (["--example", "gF", "--c=-inf"], "example = gF\nc = -inf",
     "c must be a finite number, got -inf", "degenerate"),
]
BAD_IDS = ["samples-0", "seed-negative", "c-nan", "c-inf"]


@pytest.mark.parametrize("flags, _line, message, old", BAD_VALUES, ids=BAD_IDS)
def test_bad_flag_value_is_refused_by_name(capsys, flags, _line, message, old):
    argv = ["verify", "--samples", "5", *flags]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"usage error: {message}" in err
    assert old not in err


@pytest.mark.parametrize("_flags, line, message, old", BAD_VALUES, ids=BAD_IDS)
def test_bad_config_value_is_refused_by_name(tmp_path, capsys, _flags, line, message, old):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(("" if line.startswith("samples") else "samples = 5\n") + line + "\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"usage error: {message}" in err
    assert old not in err


def test_negative_value_in_exponent_form_is_read_as_a_value(capsys):
    """argparse alone took "-1e-3" for a flag and refused --c for its missing value."""
    code = main(["decompose", "--example", "gF", "--c", "-1e-3", "--samples", "5",
                 "--format", "json", "--no-timestamp"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["config"]["c"] == -1e-3


@pytest.mark.parametrize("c", ["1e-3", "-1e-3", "0"])
def test_gf_amplitude_too_small_for_the_fail_floors_is_refused_by_name(capsys, c):
    """gF's Sasakian defects scale with |c|: below the bound the expected
    failures fall under their floors and read as broken checks (exit 1)."""
    assert main(["verify", "--example", "gF", "--c", c, "--samples", "20"]) == 2
    err = capsys.readouterr().err
    assert f"usage error: gF needs |c| >= 0.005, got c={float(c):g}" in err
    assert "floors 0.01 and 0.001" in err


def test_gf_amplitude_at_the_bound_meets_the_fail_floors(capsys):
    for c in ("5e-3", "-5e-3"):
        assert main(["verify", "--example", "gF", "--c", c, "--samples", "20"]) == 0, c
    assert "UNEXPECTED" not in capsys.readouterr().out


CHECK_ORDER = {
    "round": ["tangency", "unit_length", "killing", "wedge_second_derivative",
              "contact_endomorphism", "two_form_square_spectrum", "cr_torsion",
              "eigenfield_identities"],
    "quaternionic": ["triple_orthonormality", "triple_brackets", "triple_killing",
                     "triple_wedge_second_derivative", "triple_products_aligned",
                     "triple_products_transposed", "triple_anticommutators",
                     "structure_squares", "pair_completion", "horizontal_split_plus_trivial",
                     "unflipped_uniform_cyclic", "flipped_uniform_cyclic", "flipped_squares",
                     "flipped_anticommutators", "flipped_pairing_symmetric",
                     "flipped_pairing_skewness", "triple_product_commutes"],
    "hopf-lift": ["lift_fit_defect", "lift_skewness", "lift_killing",
                  "potential_path_independence", "pushdown_matches_base",
                  "pushdown_kernel_is_vertical", "brackets_close_mod_vertical"],
    "gF": ["tangency", "unit_length", "killing", "contact_endomorphism",
           "contact_form_preserved", "two_form_square_spectrum",
           "deformed_transverse_scaling", "wedge_second_derivative", "cr_torsion",
           "invariance_algebra_killing"],
    "irregular": ["tangency", "unit_length", "killing", "contact_endomorphism",
                  "wedge_second_derivative", "cr_torsion", "two_form_square_spectrum",
                  "transverse_derivative", "central_pair", "invariance_algebra_killing"],
}


def test_every_battery_keeps_its_check_order(capsys):
    """compare_reports.py matches checks by name, so it alone misses a reorder."""
    for example, names in CHECK_ORDER.items():
        main(["verify", "--example", example, "--samples", str(cli.GF_MIN_SAMPLES),
              "--format", "json", "--no-timestamp"])
        doc = json.loads(capsys.readouterr().out)
        assert [c["name"] for c in doc["checks"]] == names, example


@pytest.mark.parametrize("flags, message", [
    (["--example", "gF", "--c", "-inf"], "c must be a finite number, got -inf"),
    (["--example", "gF", "--c", "-nan"], "c must be a finite number, got nan"),
    (["--example", "gF", "--fd-step", "-1e-4"], "fd_step must be a positive number, got -0.0001"),
], ids=["c-minus-inf", "c-minus-nan", "fd-step-negative"])
def test_negative_flag_value_reaches_the_refusal_by_name(capsys, flags, message):
    assert main(["verify", "--samples", "5", *flags]) == 2
    err = capsys.readouterr().err
    assert f"usage error: {message}" in err
    assert "expected one argument" not in err


def test_cli_process_never_loads_scipy():
    """numpy is the only runtime dependency: no command imports scipy."""
    script = (
        "import sys\n"
        "from killinglab.cli import main\n"
        "for argv in (['verify', '--example', 'round', '--samples', '5'],\n"
        "             ['decompose', '--example', 'round', '--n', '2'],\n"
        "             ['classify-flow', '1', '2', '--probe']):\n"
        "    assert main(argv + ['--no-timestamp']) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_no_verify_battery_loads_numpy_ma():
    """numpy.ma costs 12-19 ms and about 1 MB on first import; no battery,
    each at its fewest samples (hopf-lift at the fewest that keep
    HOPF_MIN_KEPT at the default seed), brings it in."""
    script = (
        "import sys\n"
        "from killinglab.cli import main\n"
        "for argv in (['--example', 'round', '--samples', '1'],\n"
        "             ['--example', 'quaternionic', '--samples', '1'],\n"
        "             ['--example', 'hopf-lift', '--samples', '5'],\n"
        "             ['--example', 'gF', '--samples', '7'],\n"
        "             ['--example', 'irregular', '--samples', '1']):\n"
        "    assert main(['verify', *argv, '--no-timestamp']) == 0, argv\n"
        "    assert 'numpy.ma' not in sys.modules, argv\n"
        "print('ok')\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"


def test_decompose_round():
    code, out, err = run_cli("decompose", "--example", "round", "--n", "2",
                             "--format", "json", *FAST)
    assert code == 0, err
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["extras"]["blocks"] == [[0.0, 9], [2.0, 6]]


def test_decompose_irregular_single_block():
    code, out, err = run_cli("decompose", "--example", "irregular",
                             "--format", "json", *FAST)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["extras"]["blocks"] == [[0.0, 5]]
    # no nonzero rate, so no eigenfield identity: the rate-0 block is still checked
    assert [(c["name"], c["as_expected"]) for c in doc["checks"]] == [
        ("zero_block_commutes", True)]


def test_classify_flow_rational():
    code, out, err = run_cli("classify-flow", "2", "3", "--format", "json",
                             "--no-timestamp")
    assert code == 0, err
    doc = json.loads(out)
    cls = doc["extras"]["classification"]
    assert cls["kind"] == "quasi-regular"
    assert cls["integer_profile"] == [2, 3]


@pytest.mark.parametrize("argv", [["1", "--horizon", "3"], ["1/1000000", "--horizon", "20"]],
                         ids=["T-past-the-horizon", "slow-flow"])
def test_a_horizon_holding_no_period_passes_with_no_return(argv):
    """The grid holds no multiple of the period and the probe finds no
    return: nothing to match, so the period check reads 0."""
    code, out, err = run_cli("classify-flow", *argv, "--probe", "--format", "json",
                             "--no-timestamp")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["extras"]["orbit_probe"]["return_times"] == []
    assert [(c["name"], c["max_residual"]) for c in doc["checks"]] == [
        ("orbit_return_matches_period", 0.0)]


def test_classify_flow_probe_agreement():
    code, out, err = run_cli("classify-flow", "1", "2", "--probe",
                             "--format", "json", "--no-timestamp")
    assert code == 0, err
    doc = json.loads(out)
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["orbit_return_matches_period"]["pass"]


def test_classify_flow_irrational_probe():
    code, out, err = run_cli("classify-flow", "1", "irr:golden", "--probe",
                             "--format", "json", "--no-timestamp")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["extras"]["classification"]["kind"] == "irregular"
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["orbit_never_returns"]["pass"]


def test_main_callable_in_process(capsys):
    """The console entry point is importable and runs without a subprocess."""
    code = main(["verify", "--example", "round", "--n", "1",
                 "--samples", "15", "--no-timestamp"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict:" in out


def test_support_fraction_does_not_depend_on_the_sign_of_c(capsys):
    """F = c chi is negative for c < 0; the support is where F != 0."""
    fractions = []
    for c in ("0.3", "-0.3"):
        main(["verify", "--example", "gF", "--n", "3", "--c", c, "--samples", "40",
              "--format", "json", "--no-timestamp"])
        fractions.append(json.loads(capsys.readouterr().out)["extras"]["support_fraction"])
    assert fractions[0] == fractions[1] == 0.925


class _ClosedStdout:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_closed_stdout_is_not_a_usage_error_in_process(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    code = main(["verify", "--example", "round", "--n", "1", "--samples", "5",
                 "--no-timestamp"])
    err = capsys.readouterr().err
    assert code == 0, err
    assert err == ""


def test_closed_stdout_pipe_exits_with_the_verdict():
    """The child writes its report into a pipe whose read end is already
    closed, as under `| head`: no message, and the verdict's exit code."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "killinglab", "verify", "--example",
                               "hopf-lift", "--samples", "8", "--no-timestamp"],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              timeout=300)
    finally:
        os.close(write_end)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_unreadable_config_file_is_a_usage_error_naming_it(tmp_path, capsys):
    missing = tmp_path / "absent.cfg"
    assert main(["verify", "--config", str(missing)]) == 2
    err = capsys.readouterr().err
    assert f"usage error: cannot read config file {str(missing)!r}" in err
    assert main(["verify", "--config", str(tmp_path)]) == 2
    assert "cannot read config file" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "-1", "0", "1e-9", "1e12"])
def test_bad_horizon_is_refused_by_name(capsys, value):
    """Refused before the probe builds its grid: 1e12 would ask for 593 TiB."""
    assert main(["classify-flow", "1", "2", "--probe", "--horizon", value]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: --horizon must be a time over ")
    assert captured.out == ""


def test_explicit_horizon_reaches_the_probe(capsys):
    assert main(["classify-flow", "1", "2", "--probe", "--horizon", "7",
                 "--format", "json", "--no-timestamp"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["horizon"] == 7.0
    assert doc["extras"]["orbit_probe"]["return_times"] == pytest.approx([2 * np.pi])


@pytest.mark.parametrize("line", ["horizon = 3", "rates = 1 2"])
def test_classify_flow_keys_in_a_config_file_are_refused_by_name(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert main(["classify-flow", "1", "2", "--probe", "--config", str(cfg)]) == 2
    key = line.split(" =")[0]
    assert f"usage error: unknown config keys: ['{key}']" in capsys.readouterr().err


def test_parser_is_built_once_per_process():
    assert make_parser() is make_parser()


def test_reused_parser_carries_no_value_into_the_next_call(capsys):
    configs = []
    for extra in (["--c", "0.1"], []):
        assert main(["verify", "--example", "gF", *extra, "--samples",
                     str(cli.GF_MIN_SAMPLES), "--format", "json", "--no-timestamp"]) == 0
        configs.append(json.loads(capsys.readouterr().out)["config"])
    assert (configs[0]["c"], configs[1]["c"]) == (0.1, 0.3)
    assert {k: v for k, v in configs[0].items() if k != "c"} \
        == {k: v for k, v in configs[1].items() if k != "c"}


def test_usage_errors_leave_the_parser_as_a_fresh_process_has_it(capsys):
    argv = ["decompose", "--example", "round", "--n", "2", "--samples", "15",
            "--format", "json", "--no-timestamp"]
    with pytest.raises(SystemExit) as exc:  # refused by argparse itself
        main(["decompose", "--example", "quaternionic", "--n", "3"])
    assert exc.value.code == 2
    assert main(["decompose", "--example", "round", "--samples", "0"]) == 2
    capsys.readouterr()
    assert main(argv) == 0
    in_process = capsys.readouterr().out
    code, fresh, err = run_cli(*argv)
    assert code == 0, err
    assert in_process == fresh


def test_help_is_the_same_each_time_and_follows_the_terminal_width(monkeypatch, capsys):
    pages = []
    for columns in ("100", "100", "60"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        pages.append(capsys.readouterr().out)
    assert pages[0] == pages[1]
    assert "--no-timestamp" in pages[0]
    assert len(pages[2].splitlines()) > len(pages[0].splitlines())  # wrapped narrower
