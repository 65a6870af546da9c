"""JSON serialization of analysis results.

Every document shares one envelope: schema version, the command that
produced it, a canonical echo of the parsed input, the command payload
and a timing block.  Rational numbers are rendered as strings so they
survive exactly; sampler output stays IEEE double.  Dict insertion
order is the field order, which keeps rendered files byte-stable.

The schema shipped as schema/report.schema.json validates every
document this module produces.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Sequence

from .arith import MultiPoly
from .missing import MissingPointReport
from .sampler import CandidateVerdict, SampleReport
from .surjcheck import RadicalParametrization, SurjectivityReport

SCHEMA_VERSION = "1"


def _rat(value) -> str:
    return str(Fraction(value))


def _degree(value) -> str | None:
    """Weighted degrees are rationals; the zero polynomial has none."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return _rat(value)


def _cplx(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _point(pt: Sequence[complex]) -> list[dict]:
    return [_cplx(z) for z in pt]


def _poly(f: MultiPoly | None) -> str | None:
    return None if f is None else str(f)


def input_echo(param: RadicalParametrization) -> dict:
    tower = param.tower
    return {
        "tower": [
            {
                "radical": level.name,
                "exponent": level.exponent,
                "radicand": str(level.radicand),
            }
            for level in tower.levels
        ],
        "components": [
            {
                "coordinate": name,
                "numerator": str(comp.numerator),
                "denominator": str(comp.denominator),
            }
            for name, comp in zip(param.coordinates, param.components)
        ],
        "weights": {
            name: _rat(w)
            for name, w in zip(tower.table.names, tower.weights.weights)
        },
        "nested": tower.nested,
    }


def surjectivity_json(report: SurjectivityReport, param: RadicalParametrization) -> dict:
    components = []
    for ev in report.components:
        constant = param.components[ev.index - 1].denominator.is_const()
        kind = ev.locus.classification
        entry = {
            "index": ev.index,
            "coordinate": param.coordinates[ev.index - 1],
            "num_degree": _degree(ev.num_degree),
            "den_degree": _degree(ev.den_degree),
            "degree_condition": ev.degree_condition,
            "guilty": None if ev.guilt is None else ev.guilt.guilty,
            "guilt_expected": None if ev.guilt is None else _degree(ev.guilt.expected_degree),
            "guilt_actual": None if ev.guilt is None else _degree(ev.guilt.actual_degree),
            "remainder": None if ev.guilt is None else _poly(ev.guilt.remainder),
            "suspicious": None if ev.suspicion is None else ev.suspicion.suspicious,
            "suspicion_reason": None if ev.suspicion is None else ev.suspicion.reason,
            # schema v1 derives the next three fields from the locus, and
            # keeps "hyp2_gcd" and "strategy" below from the retired gcd
            # route as the constants None and "auto"
            "hyp2_established": kind == "empty",
            "hyp2_route": "constant-denominator" if constant else "exact" if kind == "empty" else None,
            "hyp2_exact": None if constant or kind == "unknown" else kind == "empty",
            "hyp2_gcd": None,
        }
        components.append(entry)
    return {
        "verdict": report.verdict,
        "witness_index": report.witness_index,
        "certificate_path": report.certificate_path,
        "mode": report.mode,
        "strategy": "auto",
        "components": components,
        "notes": list(report.notes),
    }


def missing_json(report: MissingPointReport, param: RadicalParametrization) -> dict:
    return {
        "candidates": [_point(pt) for pt in report.candidates],
        "hyp1_bound": report.polys.hyp1_bound,
        "infinity_bound": report.infinity_bound,
        "coordinate_polys": [
            {
                "coordinate": coord.name,
                "curve_poly": _poly(coord.curve_poly),
                "lead_coeff": _poly(coord.lead_coeff),
                "degree": coord.degree,
                "rational_roots": [_rat(r) for r in coord.rational_roots],
                "numeric_roots": [_cplx(z) for z in coord.numeric_roots],
                "note": coord.note,
            }
            for coord in report.polys.coordinates
        ],
        "condition2": [
            {
                "component": i + 1,
                "classification": locus.classification,
                "basis": None if locus.basis is None else [str(g) for g in locus.basis],
            }
            for i, locus in enumerate(report.condition2)
        ],
        "implicit": None if report.implicit is None else [str(g) for g in report.implicit],
        "notes": list(report.notes),
    }


def sample_json(report: SampleReport, verdicts: Sequence[CandidateVerdict]) -> dict:
    return {
        "sample_count": report.sample_count,
        "accepted": len(report.columns[0]),
        "rejected": report.rejected,
        "max_implicit_residual": report.max_implicit_residual,
        "denominator_tol": report.denominator_tol,
        "candidates": [
            {
                "candidate": _point(v.candidate),
                "verdict": v.verdict,
                "parameter": None if v.parameter is None else _cplx(v.parameter),
                # inf when no cloud point was accepted, which JSON cannot hold
                "distance": None if math.isinf(v.distance) else v.distance,
            }
            for v in verdicts
        ],
    }


def implicit_json(generators: Sequence[MultiPoly]) -> dict:
    return {"generators": [str(g) for g in generators]}


def value_json(kind: str, value) -> dict:
    """Payload for the single-value commands nf, rrem and degree."""
    if isinstance(value, MultiPoly):
        return {"kind": kind, "value": str(value)}
    return {"kind": kind, "value": _degree(value)}


def envelope(command: str, param: RadicalParametrization) -> dict:
    """Document header; the caller appends its payload, then timing last."""
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input": input_echo(param),
    }


def render(doc: dict) -> str:
    """Serialize with a trailing newline; insertion order is kept."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"
