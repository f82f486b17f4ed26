"""Spans around calls into killinglab's layers, recorded from outside.

The layers are the package's modules.  ``instrument`` replaces each public
function or method named in ``TRACED`` by a wrapper that opens a span, and
rebinds every module-level name that refers to the same function object, so
``from .algebra import standard_decomposition`` in ``cli`` is traced too.
Leaving the ``with`` block restores every original binding.

Spans are aggregated online per name: calls, inclusive time and self time,
where self time is the span's duration minus the time of its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

PACKAGE = "killinglab"

# (module, class or None, attribute).  Span name: "<module>.<Class.>attr".
TRACED = (
    ("sphere", None, "sample_sphere"),
    ("sphere", None, "chart_for_point"),
    ("sphere", "Chart", "jacobian"),
    ("sphere", "Chart", "coords"),
    ("sphere", "Chart", "point_coords"),
    ("sphere", "Chart", "to_chart_vector"),
    ("sphere", "Chart", "push"),
    ("metrics", "MetricField", "matrix_at"),
    ("metrics", "VectorField", "value"),
    ("metrics", "LeviCivita", "christoffel"),
    ("metrics", "LeviCivita", "nabla"),
    ("metrics", "LeviCivita", "nabla_endo"),
    ("metrics", "LeviCivita", "second_nabla_frame"),
    ("metrics", "LeviCivita", "structure_at"),
    ("verify", None, "nijenhuis_residual"),
    ("verify", None, "covariant_canary"),
    ("verify", None, "horizontal_split"),
    ("verify", None, "check_tangency"),
    ("verify", None, "check_unit_length"),
    ("verify", None, "check_killing"),
    ("verify", None, "check_sasakian"),
    ("verify", None, "check_kcontact"),
    ("verify", None, "check_dxi_spectrum"),
    ("verify", None, "check_nijenhuis"),
    ("verify", None, "check_triple_orthonormality"),
    ("verify", None, "check_triple_brackets"),
    ("verify", None, "check_triple_products"),
    ("verify", None, "check_anticommutators"),
    ("verify", None, "check_squares"),
    ("verify", None, "check_pair_completion"),
    ("verify", None, "check_flip_quaternionic"),
    ("verify", None, "check_contact_form_preserved"),
    ("verify", None, "check_transverse_derivative"),
    ("constructions", None, "lift_potential"),
    ("constructions", None, "solve_lift"),
    ("algebra", "IsometryAlgebra", "__init__"),
    ("algebra", "IsometryAlgebra", "killing_gram"),
    ("algebra", "IsometryAlgebra", "ad_matrix"),
    ("algebra", None, "standard_decomposition"),
    ("algebra", None, "eigenfield_residuals"),
    ("algebra", None, "field_bracket"),
    ("flows", None, "classify"),
    ("flows", None, "numeric_orbit_probe"),
    ("cli", None, "_emit"),
)

LAYERS = ("cli", "sphere", "metrics", "verify", "constructions", "algebra",
          "flows", "report")


def span_layer(name: str) -> str:
    """Layer (module) of a span name; the report emitter counts as report."""
    return "report" if name == "cli._emit" else name.split(".", 1)[0]


class Tracer:
    """Span stack with per-name totals."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        self.stats: dict[str, list] = {}   # name -> [calls, inclusive_s, self_s]
        self._child_s: list[float] = []    # per open span: time of its children

    def call(self, name: str, fn, args=(), kwargs=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        self._child_s.append(0.0)
        t0 = self.clock()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            dt = self.clock() - t0
            child_s = self._child_s.pop()
            if self._child_s:
                self._child_s[-1] += dt
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = [0, 0.0, 0.0]
            st[0] += 1
            st[1] += dt
            st[2] += dt - child_s

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def inclusive(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in self.stats.items():
            out[span_layer(name)] += self_s
        return out


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every ``TRACED`` entry of the package for the duration of the block."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
    undo: list[tuple[object, str, object]] = []
    try:
        for mod_name, cls_name, attr in TRACED:
            mod = sys.modules[f"{PACKAGE}.{mod_name}"]
            if cls_name is not None:
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[attr]
                undo.append((owner, attr, orig))
                setattr(owner, attr, tracer.wrap(f"{mod_name}.{cls_name}.{attr}", orig))
                continue
            orig = getattr(mod, attr)
            traced = tracer.wrap(f"{mod_name}.{attr}", orig)
            for m in modules:  # the defining module and every by-name import
                for key, val in list(vars(m).items()):
                    if val is orig:
                        undo.append((m, key, orig))
                        setattr(m, key, traced)
        yield tracer
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
