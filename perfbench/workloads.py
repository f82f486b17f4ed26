"""The benchmark's workloads: which CLI calls make up one pass, and the
closed-form check each call's report must pass.

Sample counts are below the CLI default of 200 so that one pass takes about
two seconds and a run holds several passes; every per-sample cost is linear
in the count, so the mix of work inside a battery is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import oracles

FD_SAMPLES = 10
EXACT_SAMPLES = 40
HOPF_SAMPLES = 8
DECOMPOSE_NS = (2, 3, 4, 5)


@dataclass(frozen=True)
class Op:
    """One battery call: its label, the battery span it belongs to, the
    argv passed to ``killinglab.cli.main`` and the report check."""

    label: str
    battery: str
    argv: tuple[str, ...]
    check: Callable[[dict], list[str]]


def _verify(example: str, seed: int, samples: int, *params: str) -> tuple[str, ...]:
    return ("verify", "--example", example, *params, "--samples", str(samples),
            "--seed", str(seed))


def _no_check(doc: dict) -> list[str]:
    return []


def fd_batteries(seed: int) -> list[Op]:
    return [
        Op("irregular-n2", "irregular",
           _verify("irregular", seed, FD_SAMPLES, "--n", "2"),
           partial(oracles.check_irregular, n=2)),
        Op("gF-n3", "gF", _verify("gF", seed, FD_SAMPLES, "--n", "3", "--c", "0.3"),
           _no_check),
    ]


def exact_batteries(seed: int) -> list[Op]:
    return [
        Op("round-n2", "round", _verify("round", seed, EXACT_SAMPLES, "--n", "2"),
           partial(oracles.check_round_verify, n=2)),
        Op("round-n3", "round", _verify("round", seed, EXACT_SAMPLES, "--n", "3"),
           partial(oracles.check_round_verify, n=3)),
        Op("quaternionic-m1", "quaternionic",
           _verify("quaternionic", seed, EXACT_SAMPLES, "--m", "1"),
           partial(oracles.check_quaternionic, m=1)),
        Op("quaternionic-m2", "quaternionic",
           _verify("quaternionic", seed, EXACT_SAMPLES, "--m", "2"),
           partial(oracles.check_quaternionic, m=2)),
    ]


def lift_algebra(seed: int) -> list[Op]:
    ops = [Op("hopf-lift", "hopf-lift", _verify("hopf-lift", seed, HOPF_SAMPLES),
              _no_check)]
    ops += [Op(f"decompose-round-n{n}", "decompose",
               ("decompose", "--example", "round", "--n", str(n), "--seed", str(seed)),
               partial(oracles.check_round_decompose, n=n))
            for n in DECOMPOSE_NS]
    ops += [Op("classify-1-golden", "classify-flow",
               ("classify-flow", "1", "irr:golden", "--probe"),
               oracles.check_flow_irrational),
            Op("classify-1-2", "classify-flow", ("classify-flow", "1", "2", "--probe"),
               oracles.check_flow_periodic_1_2)]
    return ops


WORKLOADS = {
    "fd-batteries": fd_batteries,
    "exact-batteries": exact_batteries,
    "lift-algebra": lift_algebra,
}
