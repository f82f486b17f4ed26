"""Output checks computed apart from the program.

Every function returns a list of problems; an empty list means the output
agrees with the closed form.  The expected values come from the mathematics
of each construction, never from running killinglab:

* round S^(2n+1): the rotation algebra so(2n+2) has dimension (n+1)(2n+1);
  the squared adjoint of the standard complex structure J0 splits it into
  the commutant u(n+1) (rate 0, dimension (n+1)^2) and a rate-2 block of
  dimension n(n+1);
* irregular, a = sqrt(2) - 1: the rates are (1 + a, 1, ..., 1) =
  (sqrt 2, 1, ..., 1), whose span over Q has rank 2, so generic orbits are
  dense in 2-tori; the invariance algebra u(1) + u(n) has dimension 1 + n^2
  and commutes with the field, so it is one rate-0 block;
* quaternionic S^(4m+3): the flip involution has no +1 eigenspace on the
  4m-dimensional horizontal space, so the split is (0, 4m);
* Hopf bundle S^3 -> S^2(1/2): the lift potential of the k-th rotation
  generator is the moment map y[k] - anchor[k];
* rates (1, 2): the generic period is 2 pi and the rate-2 plane closes at pi;
  rates (1, golden ratio) have Q-rank 2, so no orbit closes.
"""

from __future__ import annotations

import json
import math

HOPF_TOL = 1e-9


def _load(text: str) -> tuple[dict | None, list[str]]:
    try:
        return json.loads(text), []
    except ValueError as exc:
        return None, [f"output is not JSON: {exc}"]


def check_report(text: str, schema: dict) -> list[str]:
    """Parsable, valid against report-v1, and every check as expected."""
    import jsonschema  # not a dependency of killinglab: kept out of set-up time

    doc, problems = _load(text)
    if doc is None:
        return problems
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        return [f"schema: {exc.message}"]
    verdicts = doc.get("verdicts", {})
    if verdicts.get("all_as_expected") is not True:
        problems.append("verdicts.all_as_expected is not true")
    if verdicts.get("n_as_expected") != verdicts.get("n_checks"):
        problems.append("n_as_expected differs from n_checks")
    return problems


def check_identical(first: str, later: list[str]) -> list[str]:
    """Each later pass printed exactly the bytes of the first pass."""
    return [f"pass {i + 1} output differs from the first pass"
            for i, text in enumerate(later) if text != first]


def round_blocks(n: int) -> list[list[float]]:
    return [[0.0, (n + 1) ** 2], [2.0, n * (n + 1)]]


def check_round_verify(doc: dict, n: int) -> list[str]:
    got = doc.get("extras", {}).get("decomposition")
    want = round_blocks(n)
    return [] if got == want else [f"round n={n}: decomposition {got}, expected {want}"]


def check_round_decompose(doc: dict, n: int) -> list[str]:
    extras = doc.get("extras", {})
    problems = []
    if extras.get("blocks") != round_blocks(n):
        problems.append(f"decompose n={n}: blocks {extras.get('blocks')}, "
                        f"expected {round_blocks(n)}")
    if extras.get("algebra_dim") != (n + 1) * (2 * n + 1):
        problems.append(f"decompose n={n}: algebra_dim {extras.get('algebra_dim')}, "
                        f"expected {(n + 1) * (2 * n + 1)}")
    return problems


def check_irregular(doc: dict, n: int) -> list[str]:
    extras = doc.get("extras", {})
    problems = []
    if extras.get("flow") != {"kind": "irregular", "closure_torus_dim": 2}:
        problems.append(f"irregular n={n}: flow {extras.get('flow')}")
    if extras.get("decomposition") != [[0.0, 1 + n * n]]:
        problems.append(f"irregular n={n}: decomposition {extras.get('decomposition')}, "
                        f"expected [[0.0, {1 + n * n}]]")
    return problems


def check_quaternionic(doc: dict, m: int) -> list[str]:
    want = f"(dim+, dim-) over samples: [(0, {4 * m})]"
    for chk in doc.get("checks", []):
        if chk.get("name") == "horizontal_split_plus_trivial":
            return [] if chk.get("detail") == want else [
                f"quaternionic m={m}: split {chk.get('detail')!r}, expected {want!r}"]
    return [f"quaternionic m={m}: no horizontal_split_plus_trivial check"]


def check_flow_periodic_1_2(doc: dict) -> list[str]:
    cls = doc.get("extras", {}).get("classification", {})
    problems = []
    if cls.get("kind") != "quasi-regular" or cls.get("integer_profile") != [1, 2]:
        problems.append(f"rates (1, 2): kind {cls.get('kind')}, "
                        f"profile {cls.get('integer_profile')}")
    period = cls.get("generic_period")
    if not isinstance(period, float) or abs(period - 2 * math.pi) > 1e-12:
        problems.append(f"rates (1, 2): generic period {period}, expected 2 pi")
    excl = cls.get("exceptional_periods")
    if not (isinstance(excl, list) and len(excl) == 1
            and abs(excl[0] - math.pi) <= 1e-12):
        problems.append(f"rates (1, 2): exceptional periods {excl}, expected [pi]")
    returns = doc.get("extras", {}).get("orbit_probe", {}).get("return_times") or [None]
    if returns[0] is None or abs(returns[0] - 2 * math.pi) > 1e-5:
        problems.append(f"rates (1, 2): first probe return {returns[0]}, expected 2 pi")
    return problems


def check_flow_irrational(doc: dict) -> list[str]:
    extras = doc.get("extras", {})
    cls = extras.get("classification", {})
    problems = []
    if (cls.get("kind"), cls.get("closure_torus_dim"), cls.get("generic_period")) \
            != ("irregular", 2, None):
        problems.append(f"rates (1, golden): classification {cls}")
    if extras.get("orbit_probe", {}).get("return_times") != []:
        problems.append("rates (1, golden): the orbit probe found a return")
    return problems


def hopf_projection(x) -> tuple[float, float, float]:
    """Quotient S^3 -> S^2(1/2), written out here so the oracle owns it."""
    x0, x1, x2, x3 = (float(v) for v in x)
    return (x0 * x2 + x1 * x3, x1 * x2 - x0 * x3,
            0.5 * (x0 * x0 + x1 * x1 - x2 * x2 - x3 * x3))


def check_hopf_moment_map(potential, ys, anchor) -> list[str]:
    """``potential(k, y)`` must equal the moment map y[k] - anchor[k]."""
    problems = []
    for y in ys:
        for k in range(3):
            got = potential(k, y)
            want = y[k] - anchor[k]
            if not abs(got - want) <= HOPF_TOL:
                problems.append(f"hopf: potential of generator {k} at {y} is "
                                f"{got!r}, moment map {want!r}")
    return problems
