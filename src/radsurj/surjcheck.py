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

check_surjective decides both in one pass, building each component's
evidence once: its degrees, its numerator's guilt and suspicion, and
its condition-2 locus, which reuses R(p) from the guilt report.  One
routine, condition2_locus, answers hypothesis 2 here and gives missing
its condition-2 loci: the common zeros of the tower polynomials, p, q
and h.  For a constant q, h = 1; otherwise h = gcd(r, R(p) mod r) in
Q[t], where R eliminates the radicals and r is q when q involves t
alone and R(q) otherwise.  Resultants lie in the ideal of their
arguments, so h lies in the ideal of tower, p and q.  A constant q or
a unit h gives an "empty" locus before any Groebner basis; otherwise
the basis runs with h among the generators.  Hypothesis 2 holds for a
component exactly when its locus is "empty".  One step budget covers
h's division and then the basis; when it runs out, the locus is
"unknown", the component stays undecided and the report says so.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .arith import CAP, Budget, MultiPoly, poly_divmod, poly_gcd, weighted_degree
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


def _locus_h(tower: RadicalTower, p: MultiPoly, q: MultiPoly, rp: MultiPoly | None, budget: Budget) -> MultiPoly:
    """h for a nonconstant q (module docstring), with R(p) mod 0 = R(p)
    for a q that is a zero divisor, and h = 0 (no generator) when R(p)
    or r has a t-degree past CAP, which no basis could hold.  The
    division of R(p) by r spends budget."""
    r = q if q.variables() <= {0} else normalized_remainder(q, tower)
    rp = normalized_remainder(p, tower) if rp is None else rp
    if max(r.degree(0), rp.degree(0)) > CAP:
        return MultiPoly.zero(q.table)
    if r:
        rp = poly_divmod(rp, r, budget)[1]
    # gcd(r, s) = gcd(s, r mod s); the PRS of the right side
    # starts below deg s, however high r's degree
    return poly_gcd(rp, _rem_by_powers(r, rp)) if r and rp else poly_gcd(r, rp)


def _rem_by_powers(r: MultiPoly, s: MultiPoly) -> MultiPoly:
    """r mod s in Q[t] as the sum of c_k (t^k mod s) over r's terms.

    Each t^k mod s is a product of the squares t^(2^i) mod s, so a
    sparse r of degree n costs O(log n) divisions per term, where
    dividing r by s directly would take n steps.
    """
    one = poly_divmod(MultiPoly.one(r.table), s)[1]  # 0 for a constant s
    squares = [poly_divmod(MultiPoly.var(r.table, r.table.names[0]), s)[1]]
    while 1 << len(squares) <= r.degree(0):
        squares.append(poly_divmod(squares[-1] * squares[-1], s)[1])
    out = MultiPoly.zero(r.table)
    for expo, c in r.coeffs.items():
        power = one
        for i, square in enumerate(squares):
            if expo[0] >> i & 1:
                power = poly_divmod(power * square, s)[1]
        out = out + power * c
    return out


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
class Condition2Locus:
    """Common zeros of numerator and denominator on the castle."""

    classification: str  # empty | finite | positive-dimensional | unknown
    basis: tuple[MultiPoly, ...] | None


@dataclass(frozen=True)
class ComponentEvidence:
    """Everything the checker learned about one component."""

    index: int  # 1-based, matching coordinate order
    num_degree: Fraction | float
    den_degree: Fraction | float
    degree_condition: bool
    guilt: GuiltReport | None
    suspicion: SuspicionReport | None
    locus: Condition2Locus


@dataclass(frozen=True)
class SurjectivityReport:
    verdict: str  # CERTIFIED_SURJECTIVE | INCONCLUSIVE
    witness_index: int | None
    certificate_path: str | None  # degree-and-ideal | polynomial-components | rational-witness | suspicion-screen
    components: tuple[ComponentEvidence, ...]
    mode: str
    notes: tuple[str, ...]

    @property
    def certified(self) -> bool:
        return self.verdict == "CERTIFIED_SURJECTIVE"


# ----------------------------------------------------------------------
# the checker


def condition2_locus(
    param: RadicalParametrization,
    i: int,
    step_budget: int = DEFAULT_STEP_BUDGET,
    rp: MultiPoly | None = None,
) -> Condition2Locus:
    """Where component i (1-based) takes the form 0/0, classified: the
    common zeros of the tower polynomials, numerator p, denominator q
    and h = 1 for a constant q, h = gcd(r, R(p) mod r) in Q[t]
    otherwise.  h lies in the ideal of the others, so it moves neither
    the common zeros nor the reduced basis.  rp is R(p) when the caller
    has it.  One Budget of step_budget covers h's division and then
    the basis; past it, or past the packed exponent bound, the locus
    is "unknown".
    """
    comp = param.components[i - 1]
    p, q = comp.numerator, comp.denominator
    levels = [param.tower.level_poly(j) for j in range(param.tower.m)]
    budget = Budget(step_budget)
    try:
        h = MultiPoly.one(q.table) if q.is_const() else _locus_h(param.tower, p, q, rp, budget)
        return Condition2Locus(*common_zeros(levels + [p, q, h], budget.remaining))
    except ResourceError:
        return Condition2Locus("unknown", None)


def check_surjective(
    param: RadicalParametrization,
    mode: str = "guilty",
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> SurjectivityReport:
    """Full certification pipeline; never claims non-surjectivity.

    One pass builds each component's evidence: the weighted degrees of
    p and q, the guilt and suspicion of p (both in either mode), and
    the condition-2 locus, which reuses R(p) from the guilt report.
    The witness is the smallest component with the degree condition
    and a clean numerator: not guilty in mode "guilty", not suspicious
    in mode "suspicious" (stricter, can only lose witnesses, never
    invent them).
    """
    if mode not in ("guilty", "suspicious"):
        raise InputError(f"unknown hypothesis-1 mode {mode!r}")
    tower = param.tower
    witness: int | None = None
    records: list[ComponentEvidence] = []
    notes: list[str] = []
    for k, comp in enumerate(param.components, start=1):
        dn = weighted_degree(comp.numerator, tower.weights)
        dd = weighted_degree(comp.denominator, tower.weights)
        guilt = suspicion = None
        if not comp.numerator.is_zero():
            guilt = is_guilty(comp.numerator, tower)
            suspicion = is_suspicious(comp.numerator, tower)
        clean = (
            suspicion is not None and not suspicion.suspicious
            if mode == "suspicious"
            else guilt is not None and not guilt.guilty
        )
        if witness is None and dn > dd and clean:
            witness = k
        locus = condition2_locus(param, k, step_budget, guilt.remainder if guilt else None)
        if locus.classification == "unknown":
            notes.append(f"component {k}: hypothesis-2 step budget exhausted")
        records.append(ComponentEvidence(k, dn, dd, dn > dd, guilt, suspicion, locus))
    verdict, path = "INCONCLUSIVE", None
    failing = [str(r.index) for r in records if r.locus.classification != "empty"]
    if witness is None:
        if not any(r.degree_condition for r in records):
            notes.append("no component satisfies the degree condition")
        else:
            label = "suspicious" if mode == "suspicious" else "guilty"
            notes.append(f"every degree-condition component is {label}")
    elif failing:
        notes.append("hypothesis 2 not established for component(s) " + ", ".join(failing))
    else:
        verdict, path = "CERTIFIED_SURJECTIVE", _certificate_path(param, witness, mode)
    return SurjectivityReport(verdict, witness, path, tuple(records), mode, tuple(notes))


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
