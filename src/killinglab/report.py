"""Structured check results with JSON serialization and text rendering.

A check is a named residual with a pass tolerance and an *expectation*:
checks on structures that should hold expect "pass"; checks probing a
deliberately broken structure expect "fail" and carry a fail floor — the
residual must not only exceed the tolerance but clear the floor, so a
wrong-for-the-wrong-reason near-zero residual is still flagged.

Every check is built by ``CheckResult.from_residuals`` from its residual
array over the whole sample, by one rule: the max is taken over every
entry, the mean over the last (sample) axis and then over any leading
(field) axis, and a scalar is its own max and mean.

Reports serialize with sorted keys and no incidental state, so a rerun with
the same configuration is byte-identical (timestamps are optional).  A
report's clock (the wall time of each check and shared build) stays out of
its payload and its equality for the same reason.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from time import perf_counter

import numpy as np

SCHEMA_VERSION = 1


def _jsonify(value):
    """Recursively coerce numpy scalars/arrays and tuples to JSON-safe values."""
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


@dataclass(frozen=True)
class CheckResult:
    """One named residual, its tolerance, and what was expected of it."""

    name: str
    max_residual: float
    mean_residual: float
    tolerance: float
    expected: str = "pass"          # "pass" | "fail"
    fail_floor: float | None = None  # expected-fail only: residual must exceed this
    detail: str = ""

    @staticmethod
    def from_residuals(name: str, residuals, tol: float, expected: str = "pass",
                       fail_floor: float | None = None, detail: str = "") -> CheckResult:
        """The check of a residual: a scalar, per-point residuals (N,), or
        (G, N) for G fields, whose mean is the mean of the field means."""
        arr = np.asarray(residuals, dtype=float)
        if arr.size == 0:
            raise ValueError(f"check '{name}' got no samples to evaluate")
        if arr.ndim == 0:  # a scalar is its own max and mean
            mx = mean = float(arr)
        else:
            mx = float(arr.max())
            mean = float(arr.mean(axis=-1).mean() if arr.ndim > 1 else arr.mean())
        return CheckResult(name=name, max_residual=mx, mean_residual=mean, tolerance=tol,
                           expected=expected, fail_floor=fail_floor, detail=detail)

    def __post_init__(self):
        if self.expected not in ("pass", "fail"):
            raise ValueError(f"expected must be 'pass' or 'fail', got {self.expected!r}")
        if self.expected == "fail" and self.fail_floor is None:
            raise ValueError("expected-fail checks need a fail_floor")

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    @property
    def as_expected(self) -> bool:
        if self.expected == "pass":
            return self.passed
        return (not self.passed) and self.max_residual >= self.fail_floor

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "max_residual": float(self.max_residual),
            "mean_residual": float(self.mean_residual),
            "tolerance": float(self.tolerance),
            "pass": self.passed,
            "expected": self.expected,
            "as_expected": self.as_expected,
        }
        if self.fail_floor is not None:
            out["fail_floor"] = float(self.fail_floor)
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class VerificationReport:
    """Named bundle of check results plus configuration and free-form extras.

    ``clock`` maps each check's name to its wall time in seconds: the time
    since the previous ``add`` or ``lap`` (or since the report opened, at the
    ``perf_counter`` reading ``opened``), less the time of any ``stage`` in
    between, which gets a row of its own, summed over the laps of that name.
    """

    title: str
    config: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    checks: list[CheckResult] = field(default_factory=list, init=False, repr=False)
    clock: dict[str, float] = field(default_factory=dict, init=False, repr=False,
                                    compare=False)
    opened: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.opened = self._mark = perf_counter()

    def lap(self, name: str) -> None:
        """Charge the time since the last add, stage or lap to ``clock[name]``."""
        now = perf_counter()
        self.clock[name] = self.clock.get(name, 0.0) + now - self._mark
        self._mark = now

    @contextmanager
    def stage(self, name: str):
        """Time a shared build as a row of its own.  The interval of the next
        check runs on around it, and a stage nested in another counts in its
        own row only."""
        now = perf_counter()
        owed, self._mark = now - self._mark, now
        yield
        self.lap(name)
        self._mark -= owed

    def add(self, check: CheckResult) -> None:
        """Add a check, lapping the clock under its name."""
        self.lap(check.name)
        self.checks.append(check)

    @property
    def all_as_expected(self) -> bool:
        return all(c.as_expected for c in self.checks)

    def to_dict(self, include_timestamp: bool = True) -> dict:
        checks = self.checks
        out = {
            "schema_version": SCHEMA_VERSION,
            "title": self.title,
            "config": _jsonify(self.config),
            "checks": [c.to_dict() for c in checks],
            "extras": _jsonify(self.extras),
            "verdicts": {
                "all_as_expected": all(c.as_expected for c in checks),
                "n_checks": len(checks),
                "n_as_expected": sum(1 for c in checks if c.as_expected),
            },
        }
        if include_timestamp:
            out["generated_at"] = datetime.now(timezone.utc).isoformat()
        return out

    def to_json(self, include_timestamp: bool = True) -> str:
        return json.dumps(self.to_dict(include_timestamp=include_timestamp),
                          sort_keys=True, indent=2)

    def render_text(self) -> str:
        lines = [self.title]
        checks = self.checks
        width = max((len(c.name) for c in checks), default=0)
        for c in checks:
            if c.as_expected:
                marker = "ok" if c.expected == "pass" else "xf"
            else:
                marker = "UNEXPECTED"
            line = (f"  [{marker:>10s}] {c.name:<{width}s}  "
                    f"max {c.max_residual:9.3e}  mean {c.mean_residual:9.3e}  "
                    f"tol {c.tolerance:7.1e}  expect {c.expected}")
            if c.expected == "fail" and c.fail_floor is not None:
                line += f"  floor {c.fail_floor:7.1e}"
            lines.append(line)
        for key, val in sorted(self.extras.items()):
            lines.append(f"  {key}: {val}")
        n_ok = sum(1 for c in checks if c.as_expected)
        lines.append(f"verdict: {n_ok}/{len(checks)} checks as expected")
        return "\n".join(lines)
