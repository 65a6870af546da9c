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

One routine, condition2_locus, answers hypothesis 2 here and gives
missing its condition-2 loci: the common zeros of the tower
polynomials, p, q and h = gcd(r, R(p) mod r) in Q[t], where r is the
denominator q itself when q lies in Q[t] and its normalized remainder
R(q) otherwise.  Resultants lie in the ideal of their arguments, so h
lies in the ideal of tower, p and q.  A constant q or a unit h gives
an "empty" locus before any Groebner basis; otherwise the basis runs
with h among the generators.  Hypothesis 2 holds for a component
exactly when its locus is "empty".  One step budget covers h's
division and the basis; when it runs out, the locus is "unknown", the
component stays undecided and the report says so.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .arith import CAP, MultiPoly, poly_divmod, poly_gcd, weighted_degree
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

    def common_zero_ideal(
        self, i: int, rp: MultiPoly | None = None, step_budget: int | None = None
    ) -> tuple[list[MultiPoly], int]:
        """Generators whose common zeros are where component i (1-based)
        takes the form 0/0, and the division steps they cost.

        The tower polynomials, numerator p and denominator q come
        first.  Last is h = gcd(r, R(p) mod r) in Q[t], with r = q when
        q lies in Q[t] and r = R(q) otherwise (R(p) mod 0 = R(p), for a
        q that is a zero divisor); h = 1 when q is constant, and h = 0
        (no generator) when R(p) or r has a t-degree past CAP, which no
        basis could hold.  h lies in the ideal, so it moves
        neither the common zeros nor the reduced basis.  rp is R(p) when
        the caller has it; the division of R(p) by r spends step_budget
        (None: no limit) and raises ResourceError past it.
        """
        comp = self.components[i - 1]
        p, q = comp.numerator, comp.denominator
        levels = [self.tower.level_poly(j) for j in range(self.tower.m)]
        if q.is_const():
            return levels + [p, q, MultiPoly.one(q.table)], 0
        r = q if q.variables() <= {0} else normalized_remainder(q, self.tower)
        rp = normalized_remainder(p, self.tower) if rp is None else rp
        h, steps = MultiPoly.zero(q.table), 0
        if max(r.degree(0), rp.degree(0)) <= CAP:
            if r:
                quot, rp = poly_divmod(rp, r, step_budget)
                steps = len(quot.coeffs)
            # gcd(r, s) = gcd(s, r mod s); the PRS of the right side
            # starts below deg s, however high r's degree
            h = poly_gcd(rp, _rem_by_powers(r, rp)) if r and rp else poly_gcd(r, rp)
        return levels + [p, q, h], steps


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
    locus: Condition2Locus | None = None  # set by check_surjective


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


def condition2_locus(
    param: RadicalParametrization,
    i: int,
    step_budget: int = DEFAULT_STEP_BUDGET,
    rp: MultiPoly | None = None,
) -> Condition2Locus:
    """Where component i (1-based) takes the form 0/0: the common zeros
    of RadicalParametrization.common_zero_ideal, classified.

    rp is R(p) when the caller has it.  h's division steps and the
    basis share step_budget; past it, or past the packed exponent
    bound, the locus is "unknown".
    """
    try:
        gens, steps = param.common_zero_ideal(i, rp, step_budget)
        return Condition2Locus(*common_zeros(gens, step_budget - steps))
    except ResourceError:
        return Condition2Locus("unknown", None)


# ----------------------------------------------------------------------
# the checker


def check_surjective(
    param: RadicalParametrization,
    mode: str = "guilty",
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> SurjectivityReport:
    """Full certification pipeline; never claims non-surjectivity."""
    notes: list[str] = []
    witness, records = hypothesis1(param, mode)
    enriched: list[ComponentEvidence] = []
    for rec in records:
        rp = rec.guilt.remainder if rec.guilt else None
        locus = condition2_locus(param, rec.index, step_budget, rp)
        if locus.classification == "unknown":
            notes.append(f"component {rec.index}: hypothesis-2 step budget exhausted")
        enriched.append(replace(rec, locus=locus))
    if witness is None:
        if not any(r.degree_condition for r in records):
            notes.append("no component satisfies the degree condition")
        else:
            label = "suspicious" if mode == "suspicious" else "guilty"
            notes.append(f"every degree-condition component is {label}")
        return SurjectivityReport("INCONCLUSIVE", None, None, tuple(enriched), mode, tuple(notes))
    failing = [str(r.index) for r in enriched if r.locus.classification != "empty"]
    if failing:
        notes.append("hypothesis 2 not established for component(s) " + ", ".join(failing))
        return SurjectivityReport(
            "INCONCLUSIVE", witness, None, tuple(enriched), mode, tuple(notes)
        )
    path = _certificate_path(param, witness, mode)
    return SurjectivityReport(
        "CERTIFIED_SURJECTIVE", witness, path, tuple(enriched), mode, tuple(notes)
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
