"""The CLI's parameter domains: one table of bounds, checked before any
structure exists, and the exit contract of ``cli.main`` over drawn argv and
config files (MacIver et al., "Hypothesis", JOSS 4(43), 2019)."""

from __future__ import annotations

import ast
import io
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from killinglab import cli

ROOT = Path(__file__).resolve().parents[1]


def run(argv: list[str]) -> tuple[int, str, str]:
    """cli.main in-process: (exit code, stdout, stderr); argparse's own
    refusal, a SystemExit, counts as its code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# -- the exit contract ---------------------------------------------------------

# Values each parameter is drawn from, as text: boundary, negative, non-finite, huge
# and wrong-type.  Accepted values stay small (samples <= 8, n <= 3, m <= 1); a huge
# value is drawn only where a DOMAINS row refuses it before any array exists or where
# no command reads it (samples on decompose, which caps them at 40, is never huge).
SMALL_SAMPLES = ["1", "2", "5", "6", "7", "8", "0", "-1", "x", "2.5"]
VALUES = {
    "n": ["1", "2", "3", "0", "-1", "48", "1000000", "-1000000", "x", "2.5"],
    "m": ["0", "1", "-1", "1000000", "x"],
    "c": ["0.3", "-0.3", "5e-3", "-5e-3", "0", "1e-3", "nan", "inf", "-inf", "x"],
    "a": ["1/2", "-1/3", "irr:golden", "irr:sqrt2m1", "-1", "1/0", "1e400", "abc", "irr:nope"],
    "seed": ["0", "7", "42", "-1", "1" + "0" * 30, "x", "1.5"],
    "format": ["text", "json", "yaml"],
    "no_timestamp": ["yes", "0", "maybe"],
}
SAMPLES = {"verify": SMALL_SAMPLES + ["1000000000000000"], "decompose": SMALL_SAMPLES,
           "classify-flow": SMALL_SAMPLES + ["1000000000000000"]}
EXAMPLES = {"verify": list(cli.EXAMPLES["verify"]) + ["bogus"],
            "decompose": list(cli.EXAMPLES["decompose"]) + ["quaternionic"]}
RATES = ["1", "2", "-3", "1/2", "2/3", "irr:golden", "irr:sqrt2m1", "0", "1/0", "1e400",
         "1e-400", "1e300", "nan", "abc", "irr:nope"]
HORIZONS = ["7", "0.03", "0", "-1", "1e-9", "nan", "inf", "1e12", "20000"]
UNKNOWN_KEYS = ["wibble", "horizon", "rates"]

# how a refusal names each parameter
NAMES = {"example": "example", "n": r"\bn\b", "m": r"\bm\b", "c": r"\bc\b",
         "a": r"--a\b|'a'|rate offset", "seed": "seed", "samples": "samples",
         "format": "format",
         "no_timestamp": "no_timestamp|no-timestamp", "horizon": "horizon", "rates": r"\brate"}


@st.composite
def invocations(draw) -> tuple[list[str], list[tuple[str, str]]]:
    """argv and config-file lines of one call: each parameter unset, a flag or
    a config key; unknown keys among the config lines."""
    command = draw(st.sampled_from(cli.COMMANDS))
    argv, lines = [command], []
    if command == "classify-flow":
        argv += draw(st.lists(st.sampled_from(RATES), min_size=1, max_size=3))
        if draw(st.booleans()):
            argv.append("--probe")
        if draw(st.booleans()):
            argv += ["--horizon", draw(st.sampled_from(HORIZONS))]
    else:
        argv += ["--example", draw(st.sampled_from(EXAMPLES[command]))]
    values = {**VALUES, "samples": SAMPLES[command]}
    for key, pool in values.items():
        where = draw(st.sampled_from(["flag", "config"] if key == "samples"
                                     else ["unset", "flag", "config"]))
        value = draw(st.sampled_from(pool))
        if where == "config":
            lines.append((key, value))
        elif where == "flag" and key == "no_timestamp":
            argv.append("--no-timestamp")
        elif where == "flag":
            argv += [f"--{key.replace('_', '-')}", value]
    lines += [(key, "3") for key in draw(st.lists(st.sampled_from(UNKNOWN_KEYS), max_size=1))]
    return argv, lines


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(call=invocations())
@example(call=(["verify", "--example", "irregular", "--a", "1/0", "--samples", "5"], []))
@example(call=(["verify", "--example", "irregular", "--a", "1e400", "--samples", "5"], []))
@example(call=(["classify-flow", "1/0"], []))
@example(call=(["classify-flow", "1e400"], []))
@example(call=(["classify-flow", "1", "1e-400"], []))
@example(call=(["classify-flow", "1e300", "--probe"], []))
def test_every_call_exits_by_the_contract(tmp_path_factory, call):
    """No exception escapes cli.main, the exit code is 0, 1, 2 or 3, and a
    usage error names a parameter the call set.  The pinned examples end in a
    ZeroDivisionError or OverflowError traceback, or a usage error naming no
    parameter ("Maximum allowed size exceeded"), without the rate checks."""
    argv, lines = call
    if lines:
        path = tmp_path_factory.mktemp("cfg") / "run.cfg"
        path.write_text("".join(f"{key} = {value}\n" for key, value in lines))
        argv = argv + ["--config", str(path)]
    code, _, err = run(argv)
    assert code in (0, 1, 2, 3), err
    if code == 2:
        given_ = {key for key, _ in lines} | {arg[2:].replace("-", "_") for arg in argv
                                              if arg.startswith("--")}
        if argv[0] == "classify-flow":
            given_.add("rates")
        assert any(re.search(NAMES.get(key, key), err) for key in given_), (argv, lines, err)


# -- the table -------------------------------------------------------------------

def test_readme_table_states_every_domain():
    """Every DOMAINS row's parameter and bound sit in one row of README's table."""
    rows = [line for line in (ROOT / "README.md").read_text().splitlines()
            if line.startswith("| `")]
    for dom in cli.DOMAINS:
        assert any(f"`{dom.param}`" in line and f"`{dom.bound}`" in line for line in rows), dom


def test_refusals_raise_only_while_building_the_config():
    """No ValueError is raised in cli outside the config's reading and its
    DOMAINS walk, but for the hopf-lift floor and its path check's targets,
    which read the drawn sample."""
    tree = ast.parse((ROOT / "src" / "killinglab" / "cli.py").read_text())
    owners = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            owners |= {fn.name for node in ast.walk(fn)
                       if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                       and getattr(node.exc.func, "id", None) == "ValueError"}
    assert owners == {"load_config_file", "build_config", "_hopf_kept", "_path_targets"}, owners


@pytest.mark.parametrize("argv, first", [
    (["verify", "--example", "gF", "--n", "48", "--samples", "0", "--c", "0"], "--n 48"),
    (["verify", "--example", "gF", "--samples", "0", "--seed", "-1"], "samples must be"),
    (["verify", "--example", "gF", "--seed", "-1", "--c", "0"], "seed must be"),
    (["verify", "--example", "gF", "--m", "1", "--samples", str(10**15), "--c", "0"],
     "out of reach"),
    (["verify", "--example", "gF", "--c", "0", "--samples", "3"], "|c| >= 0.005"),
    (["verify", "--example", "gF", "--n", "2", "--samples", "3"], "--samples >= 7"),
    (["classify-flow", "1", "--samples", "0", "--horizon", "0"], "samples must be"),
    (["classify-flow", "1", "--seed", "-1", "--horizon", "0"], "seed must be"),
    (["verify", "--example", "round", "--n", "-1000000", "--samples", "8"], "n must be >= 1"),
], ids=["n", "samples", "seed", "memory", "c", "gF-samples", "cf-samples", "cf-seed",
        "negative-n"])
def test_the_first_broken_row_in_table_order_is_refused(argv, first):
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and first in err


@pytest.mark.parametrize("argv", [["--c", "1e-3"], ["--samples", "6"]], ids=["c", "samples"])
def test_gf_refusals_build_no_structure(monkeypatch, argv):
    """gF's |c| and sample-floor rows refuse before any structure exists."""
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(1)
        return structure_at(self, *args, **kwargs)

    structure_at = cli.LeviCivita.structure_at
    monkeypatch.setattr(cli.LeviCivita, "structure_at", counted)
    assert run(["verify", "--example", "gF", *argv])[0] == 2
    assert calls == []
    assert run(["verify", "--example", "gF", "--samples", "7"])[0] == 0
    assert calls == [1]


# -- rates, steps and horizons ---------------------------------------------------

@pytest.mark.parametrize("argv, message", [
    (["verify", "--example", "irregular", "--a", "1/0"],
     "--a '1/0' is not a rate: rate '1/0' has a zero denominator"),
    (["verify", "--example", "irregular", "--a", "1e400"],
     "--a '1e400' is not a rate: rate '1e400' is outside the float range"),
    (["classify-flow", "1/0"], "rate '1/0' has a zero denominator"),
    (["classify-flow", "1e400"], "rate '1e400' is outside the float range"),
    (["verify", "--example", "irregular", "--a", "abc"], "--a 'abc' is not a rate: "),
], ids=["a-zero-denominator", "a-overflow", "rate-zero-denominator", "rate-overflow", "a-abc"])
def test_a_rate_that_does_not_parse_is_refused_by_name(argv, message):
    code, out, err = run([*argv, "--samples", "5"])
    assert code == 2 and out == ""
    assert err.startswith(f"usage error: {message}")


def test_the_default_horizon_refusal_names_it():
    """A slow flow's default horizon, 1.5 generic periods, is past the probe's
    grid; the refusal names the default and asks for --horizon, not t_max."""
    code, out, err = run(["classify-flow", "1/1000000", "--probe"])
    assert code == 2 and out == ""
    assert err.startswith("usage error: the default --horizon (1.5 generic periods, or 50 on a "
                          "flow that never closes) must be a time over 0.0245437 and at most "
                          "25735.9 (a probe grid of 3 to 2097152 points of step 2pi/512), "
                          "got 9.42478e+06; pass a shorter --horizon")
    assert "t_max" not in err
    # an explicit horizon is taken; the probe then runs (no return falls within it)
    assert run(["classify-flow", "1/1000000", "--probe", "--horizon", "20"])[0] != 2


def test_the_horizon_bound_scales_with_the_fastest_rate():
    code, _, err = run(["classify-flow", "1", "2", "--probe", "--horizon", "20000"])
    assert code == 2
    assert "at most 12868 (a probe grid of 3 to 2097152 points of step 2pi/512 / 2, " in err
    assert run(["classify-flow", "1", "2", "--probe", "--horizon", "12000"])[0] == 0
