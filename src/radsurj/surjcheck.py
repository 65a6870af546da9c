"""Surjectivity certification for radical parametrizations.

The certificate is two-valued on purpose: the underlying conditions are
sufficient, never necessary, so the only verdicts are
CERTIFIED_SURJECTIVE and INCONCLUSIVE.  The checker evaluates

  hypothesis 1: some component has weighted numerator degree strictly
  above its denominator's, with a numerator that is not guilty (or, in
  the stricter-but-cheaper mode, not suspicious), and

  hypothesis 2: for every component, the tower equations together with
  numerator and denominator generate the whole ring, so no parameter
  value drives a component into 0/0.

Hypothesis 2 has three routes: a constant denominator is immediate, the
exact route decides by Groebner triviality, and the gcd route checks
the sufficient condition gcd(R(p), R(q)) = 1.  The default strategy
runs the exact route under a step budget and degrades to the gcd route
when the budget runs out.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .arith import MultiPoly, poly_gcd, weighted_degree
from .errors import InputError, ResourceError
from .ideal import DEFAULT_STEP_BUDGET, common_zeros
from .tower import (
    GuiltReport,
    RadicalTower,
    SuspicionReport,
    is_guilty,
    is_suspicious,
    normal_form,
    normalized_remainder,
)


@dataclass(frozen=True)
class ParamComponent:
    """One coordinate function, numerator over denominator, both reduced."""

    numerator: MultiPoly
    denominator: MultiPoly


@dataclass(frozen=True)
class RadicalParametrization:
    tower: RadicalTower
    components: tuple[ParamComponent, ...]
    coordinates: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.components)

    def common_zero_ideal(self, i: int) -> list[MultiPoly]:
        """Tower polynomials, numerator and denominator of component i
        (1-based): their common zeros are where it takes the form 0/0."""
        comp = self.components[i - 1]
        levels = [self.tower.level_poly(j) for j in range(self.tower.m)]
        return levels + [comp.numerator, comp.denominator]


def default_coordinates(n: int) -> tuple[str, ...]:
    if n <= 3:
        return ("x", "y", "z")[:n]
    return tuple(f"x{i + 1}" for i in range(n))


def normalize_param(
    tower: RadicalTower,
    pairs: Sequence[tuple[MultiPoly, MultiPoly]],
    coordinates: Sequence[str] | None = None,
) -> tuple[RadicalParametrization, list[str]]:
    """Reduce all numerators and denominators to tower normal form.

    Returns the parametrization and a list of human-readable notes for
    every input that was not already reduced.
    """
    if not pairs:
        raise InputError("parametrization needs at least one component")
    names = tuple(coordinates) if coordinates is not None else default_coordinates(len(pairs))
    if len(names) != len(pairs):
        raise InputError("one coordinate name per component required")
    if len(set(names)) != len(names):
        raise InputError("coordinate names must be distinct")
    for name in names:
        if name in tower.table.names:
            raise InputError(f"coordinate name {name!r} collides with a tower variable")
    notes: list[str] = []
    comps: list[ParamComponent] = []
    for k, (p, q) in enumerate(pairs, start=1):
        if q.is_zero():
            raise InputError(f"component {k}: zero denominator")
        np_, nq = normal_form(p, tower), normal_form(q, tower)
        if np_ != p:
            notes.append(f"component {k}: numerator was not in normal form, reduced")
        if nq != q:
            notes.append(f"component {k}: denominator was not in normal form, reduced")
        if nq.is_zero():
            raise InputError(f"component {k}: denominator vanishes modulo the tower")
        comps.append(ParamComponent(np_, nq))
    return RadicalParametrization(tower, tuple(comps), names), notes


# ----------------------------------------------------------------------
# evidence records


@dataclass(frozen=True)
class ComponentEvidence:
    """Everything the checker learned about one component."""

    index: int  # 1-based, matching coordinate order
    num_degree: Fraction | float
    den_degree: Fraction | float
    degree_condition: bool
    guilt: GuiltReport | None
    suspicion: SuspicionReport | None
    hyp2_established: bool = False
    hyp2_route: str | None = None
    hyp2_exact: bool | None = None
    hyp2_gcd: bool | None = None


@dataclass(frozen=True)
class SurjectivityReport:
    verdict: str  # CERTIFIED_SURJECTIVE | INCONCLUSIVE
    witness_index: int | None
    certificate_path: str | None  # degree-and-ideal | polynomial-components | rational-witness | suspicion-screen
    components: tuple[ComponentEvidence, ...]
    mode: str
    strategy: str
    notes: tuple[str, ...]

    @property
    def certified(self) -> bool:
        return self.verdict == "CERTIFIED_SURJECTIVE"


# ----------------------------------------------------------------------
# hypotheses


def hypothesis1(
    param: RadicalParametrization, mode: str = "guilty"
) -> tuple[int | None, list[ComponentEvidence]]:
    """Smallest component with the degree condition and a clean numerator.

    mode "guilty" uses the exact degree-drop test; mode "suspicious"
    uses the syntactic over-approximation (stricter, can only lose
    witnesses, never invent them).
    """
    if mode not in ("guilty", "suspicious"):
        raise InputError(f"unknown hypothesis-1 mode {mode!r}")
    tower = param.tower
    wv = tower.weights
    witness: int | None = None
    records: list[ComponentEvidence] = []
    for k, comp in enumerate(param.components, start=1):
        dn = weighted_degree(comp.numerator, wv)
        dd = weighted_degree(comp.denominator, wv)
        condition = dn > dd
        guilt = None
        suspicion = None
        if not comp.numerator.is_zero():
            guilt = is_guilty(comp.numerator, tower)
            suspicion = is_suspicious(comp.numerator, tower)
        clean = (
            suspicion is not None and not suspicion.suspicious
            if mode == "suspicious"
            else guilt is not None and not guilt.guilty
        )
        if witness is None and condition and clean:
            witness = k
        records.append(ComponentEvidence(k, dn, dd, condition, guilt, suspicion))
    return witness, records


def hypothesis2(
    param: RadicalParametrization,
    i: int,
    strategy: str = "auto",
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> tuple[bool, str | None, bool | None, bool | None]:
    """No-common-zero condition for component i (1-based).

    Returns (established, route, exact_result, gcd_result).  The exact
    route is decisive both ways; the gcd route only ever establishes.
    """
    if strategy not in ("exact", "gcd", "auto"):
        raise InputError(f"unknown hypothesis-2 strategy {strategy!r}")
    comp = param.components[i - 1]
    tower = param.tower
    if comp.denominator.is_const():
        return True, "constant-denominator", None, None
    exact_result: bool | None = None
    gcd_result: bool | None = None
    if strategy in ("exact", "auto"):
        try:
            exact_result = common_zeros(param.common_zero_ideal(i), step_budget)[0] == "empty"
            route = "exact" if exact_result else None
            return bool(exact_result), route, exact_result, None
        except ResourceError:
            if strategy == "exact":
                raise
    # gcd route: sufficient only; R(p) and R(q) are polynomials in t
    rp = normalized_remainder(comp.numerator, tower)
    rq = normalized_remainder(comp.denominator, tower)
    g = poly_gcd(rp, rq)
    gcd_result = g.is_const() and not g.is_zero()
    route = "gcd" if gcd_result else None
    return gcd_result, route, exact_result, gcd_result


# ----------------------------------------------------------------------
# the checker


def check_surjective(
    param: RadicalParametrization,
    mode: str = "guilty",
    strategy: str = "auto",
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> SurjectivityReport:
    """Full certification pipeline; never claims non-surjectivity."""
    notes: list[str] = []
    witness, records = hypothesis1(param, mode)
    enriched: list[ComponentEvidence] = []
    all_hyp2 = True
    for rec in records:
        try:
            established, route, exact_res, gcd_res = hypothesis2(
                param, rec.index, strategy, step_budget
            )
        except ResourceError:
            established, route, exact_res, gcd_res = False, None, None, None
            notes.append(f"component {rec.index}: hypothesis-2 step budget exhausted")
        if exact_res is None and gcd_res is not None and not gcd_res:
            notes.append(
                f"component {rec.index}: gcd route inconclusive, hypothesis 2 undecided"
            )
        all_hyp2 = all_hyp2 and established
        enriched.append(
            replace(
                rec,
                hyp2_established=established,
                hyp2_route=route,
                hyp2_exact=exact_res,
                hyp2_gcd=gcd_res,
            )
        )
    if witness is None:
        if not any(r.degree_condition for r in records):
            notes.append("no component satisfies the degree condition")
        else:
            label = "suspicious" if mode == "suspicious" else "guilty"
            notes.append(f"every degree-condition component is {label}")
        return SurjectivityReport(
            "INCONCLUSIVE", None, None, tuple(enriched), mode, strategy, tuple(notes)
        )
    if not all_hyp2:
        failing = [str(r.index) for r in enriched if not r.hyp2_established]
        notes.append("hypothesis 2 not established for component(s) " + ", ".join(failing))
        return SurjectivityReport(
            "INCONCLUSIVE", witness, None, tuple(enriched), mode, strategy, tuple(notes)
        )
    path = _certificate_path(param, witness, mode)
    return SurjectivityReport(
        "CERTIFIED_SURJECTIVE", witness, path, tuple(enriched), mode, strategy, tuple(notes)
    )


def _certificate_path(param: RadicalParametrization, witness: int, mode: str) -> str:
    t_index = 0  # the parameter variable leads every validated table
    if all(c.denominator.is_const() for c in param.components):
        return "polynomial-components"
    wit = param.components[witness - 1]
    witness_rational = (wit.numerator.variables() | wit.denominator.variables()) <= {t_index}
    others_polynomial = all(
        c.denominator.is_const()
        or (c.numerator.variables() | c.denominator.variables()) <= {t_index}
        for c in param.components
    )
    if witness_rational and others_polynomial:
        return "rational-witness"
    if mode == "suspicious":
        return "suspicion-screen"
    return "degree-and-ideal"
