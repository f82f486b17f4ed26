#!/usr/bin/env python3
"""Compare the arithmetic orbit classifier against a numerical orbit probe.

For a family of two-block rotation profiles (1, a) the script prints the
classifier verdict (regular / quasi-regular / irregular, predicted periods)
next to what the numeric orbit probe (the closed-form distance of the
actual orbit from its start) sees:
the first return time on a generic point, the first return time on the
exceptional coordinate plane, and — for irrational a — how close the orbit
ever comes back within the horizon.

Usage:
    python3 scripts/orbit_probe_demo.py [--horizon T]
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from killinglab import RotationProfile, classify, numeric_orbit_probe, parse_rate

CASES = ["1", "2", "3", "5/2", "irr:golden", "irr:sqrt2m1"]


def two_block_generator(a: float) -> np.ndarray:
    j2 = np.array([[0.0, -1.0], [1.0, 0.0]])
    gen = np.zeros((4, 4))
    gen[:2, :2] = j2
    gen[2:, 2:] = a * j2
    return gen


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--horizon", type=float, default=40.0,
                    help="integration horizon for the numeric probe")
    opts = ap.parse_args(argv)

    generic = np.array([0.6, 0.0, 0.8, 0.0])
    planar = np.array([0.0, 0.0, 1.0, 0.0])

    header = (f"{'rates':<18}{'classifier':<15}{'periods':<26}"
              f"{'probe: generic':<17}{'probe: plane':<15}{'min dist'}")
    print(header)
    print("-" * len(header))

    for tag in CASES:
        a = parse_rate(tag)
        flow = classify(RotationProfile((parse_rate("1"), a)))
        periods = ", ".join(
            f"{p:.4f}" for p in (flow.generic_period, *flow.exceptional_periods)
            if p is not None)
        gen = two_block_generator(a.value())
        pg = numeric_orbit_probe(gen, generic, t_max=opts.horizon)
        pp = numeric_orbit_probe(gen, planar, t_max=opts.horizon)
        first = (f"{pg.return_times[0]:.6f}" if pg.return_times else "none")
        plane = (f"{pp.return_times[0]:.6f}" if pp.return_times else "none")
        print(f"(1, {tag}){'':<{max(0, 12 - len(tag))}}"
              f"{flow.kind:<15}{periods or '-':<26}"
              f"{first:<17}{plane:<15}{pg.min_distance:.4f}")

    print(f"\n(2*pi = {2 * math.pi:.6f}; a generic return at 2*pi means the "
          f"whole orbit closed, a plane return at 2*pi/a is the short "
          f"exceptional circle; 'none' + positive min dist is the irrational "
          f"signature)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
