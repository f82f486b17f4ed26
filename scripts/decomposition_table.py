#!/usr/bin/env python3
"""Tabulate the adjoint-square decomposition of so(2n+2) for a range of n.

For each odd sphere S^(2n+1) with its standard unit rotation field, the
full isometry algebra so(2n+2) splits under the squared adjoint action of
the field's generator into a commutant block (rate 0) and a single
rate-2 block.  The script prints the measured block dimensions next to the
closed-form counts dim u(n+1) = (n+1)^2 and n(n+1), and checks that each
rate-2 basis element is pointwise orthogonal to the rotation field and
satisfies the squared-two-form eigenvalue identity.

Usage:
    python3 scripts/decomposition_table.py [--max-n N] [--samples K]
"""

from __future__ import annotations

import argparse
import sys

from killinglab import (
    LeviCivita,
    build_round,
    sample_sphere,
    standard_decomposition,
)
from killinglab.algebra import eigenfield_residuals


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=4)
    ap.add_argument("--samples", type=int, default=40)
    ap.add_argument("--seed", type=int, default=42)
    opts = ap.parse_args(argv)

    header = (f"{'sphere':<8}{'dim so':<8}{'dim rate-0':<12}{'(n+1)^2':<9}"
              f"{'dim rate-2':<12}{'n(n+1)':<8}{'worst identity residual'}")
    print(header)
    print("-" * len(header))

    ok = True
    for n in range(1, opts.max_n + 1):
        st = build_round(n)
        alg = st.isometry_algebra()
        dec = standard_decomposition(alg, st.j0)
        rate2 = {round(r, 9): blk for r, blk in zip(dec.rates, dec.blocks)}
        blk = rate2.get(2.0)
        dim2 = 0 if blk is None else len(blk)

        lc = LeviCivita(st.metric)
        X = sample_sphere(n, opts.samples, seed=opts.seed).coords
        worst = 0.0
        if blk is not None:
            res = eigenfield_residuals(st.field, blk, lc.structure_at(st.field, X), rate=2.0)
            worst = max(res.values())

        closed_zero = (n + 1) ** 2
        closed_two = n * (n + 1)
        row_ok = (dec.zero_block_dim == closed_zero and dim2 == closed_two
                  and worst < 1e-6)
        ok = ok and row_ok
        print(f"S^{2 * n + 1:<6}{alg.dim:<8}{dec.zero_block_dim:<12}"
              f"{closed_zero:<9}{dim2:<12}{closed_two:<8}{worst:.3e}"
              f"{'' if row_ok else '   MISMATCH'}")

    print("\nall rows match the closed-form dimension counts" if ok
          else "\nsome row disagrees with the closed-form counts")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
