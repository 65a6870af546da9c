"""Seeded input generators, one per workload.

Each generator returns a list of (name, text) pairs; the text is a
complete ``.rs`` input file, so any instance replays with
``radsurj <command> FILE``.  The same seed always gives the same files.

Two random streams build an instance.  The shape stream fixes, per
workload, the tower heights and exponents, the monomial support of
every polynomial and the magnitude of every coefficient; it is seeded
by the workload name, so each seed gets the same mix of work.  The
sign stream draws the sign of every coefficient from the seed, so each
seed gets different polynomials.  Splitting them keeps the per-seed
cost mix steady: the exact work an input needs follows its degrees,
supports and coefficient sizes, while the signs decide verdicts,
guilt, cancellations and some of the blowups.
"""

from __future__ import annotations

from pathlib import Path
from random import Random

FROZEN = Path(__file__).resolve().parent / "frozen"

# Distribution parameters per workload, recorded in baseline.json.
PARAMS = {
    "check_towers": {
        "instances": 48,
        "height": [1, 3],
        "exponent": [2, 3],
        "radicand_t_degree_max": 4,
        "radicand_terms_max": 4,
        "nested": True,
        "components": 2,
        "numerator_t_degree_max": 4,
        "numerator_terms_max": 4,
        "denominator": "t-only, t-degree <= 4, <= 3 terms, on every other component; none on the rest",
        "suspicious_mode_share": 0.25,
        "coeff_bound": 4,
        "why": "the guilt-corpus tower family of tests/test_acceptance.py; "
        "one t-only denominator per instance puts hypothesis 2 in play; "
        "48 instances put the tail (10 beyond it) inside the group of costly "
        "towers, where 36 left it on the one instance between the cheap and "
        "the costly group, whose cost swings with the seed",
    },
    "missing_elim": {
        "instances": 40,
        "height": "0, 1, 0, 1, 2 in turn",
        "exponent": [2, 2],
        "radicand_t_degree_max": 2,
        "radicand_terms_max": 3,
        "nested": False,
        "numerator_total_degree_max": 2,
        "numerator_terms_max": 3,
        "denominator": "one t-only denominator shared by both components, t-degree <= 2",
        "coeff_bound": 3,
        "frozen": ["axis.rs", "circle.rs", "cotas.rs", "nested.rs", "rational_circle.rs", "tall.rs"],
        "why": "small towers keep Groebner elimination and gcd work finite "
        "for most inputs, with a few known stalls; the frozen files pin the "
        "worked examples and the gcd blowup tall.rs",
    },
    "sample_dense": {
        "instances": 24,
        "points": 1000,
        "height": "0 on every third instance, 1 on the rest",
        "radicand_t_degree": 2,
        "denominator": "one t-only denominator shared by both components, t-degree 2 without a radical, 1 with one",
        "numerator_weighted_degree": "at most that of the denominator",
        "coeff_bound": 3,
        "why": "shapes of cotas.rs and rational_circle.rs: few exact steps, "
        "many floating-point branch evaluations and candidate refinements; "
        "two thirds carry a radical, so the median sits inside that group",
    },
}


class Draw:
    """The shape stream and the sign stream of one workload and seed."""

    def __init__(self, workload: str, seed: int):
        self.shape = Random(f"{workload}/shape")
        self.sign = Random(seed)

    def coeff(self, bound: int) -> int:
        return self.shape.randint(1, bound) * self.sign.choice((-1, 1))

    def support(
        self, bounds: list[int], max_terms: int, max_total: int | None = None
    ) -> list[tuple[int, ...]]:
        """Distinct exponents with per-variable and total degree caps."""
        out: set[tuple[int, ...]] = set()
        for _ in range(self.shape.randint(1, max_terms)):
            while True:
                expo = tuple(self.shape.randint(0, b) for b in bounds)
                if max_total is None or sum(expo) <= max_total:
                    break
            out.add(expo)
        return sorted(out)

    def poly(
        self,
        bounds: list[int],
        max_terms: int,
        coeff_bound: int,
        max_total: int | None = None,
        constant_ok: bool = True,
    ) -> dict[tuple[int, ...], int]:
        while True:
            sup = self.support(bounds, max_terms, max_total)
            if constant_ok or any(any(e) for e in sup):
                return {e: self.coeff(coeff_bound) for e in sup}

    def tower(
        self, height: int, exponents: list[int], tdeg: int, terms: int, coeff_bound: int, nested: bool
    ) -> tuple[tuple[str, ...], list[int], list[dict]]:
        """Radical names, exponents and reduced radicands."""
        names = ("t",) + tuple(f"d{i + 1}" for i in range(height))
        exps: list[int] = []
        radicands: list[dict] = []
        for i in range(height):
            e = self.shape.randint(*exponents)
            bounds = [tdeg] + [exps[j] - 1 if nested else 0 for j in range(i)] + [0] * (height - i)
            radicands.append(self.poly(bounds, terms, coeff_bound, constant_ok=False))
            exps.append(e)
        return names, exps, radicands


def _term(expo: tuple[int, ...], names: tuple[str, ...]) -> str:
    return "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, expo) if k)


def poly_text(poly: dict[tuple[int, ...], int], names: tuple[str, ...]) -> str:
    """Text for an integer polynomial; terms ordered by degree, then exponent."""
    terms = sorted(poly.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
    out = ""
    for expo, c in terms:
        mono = _term(expo, names)
        mag = abs(c)
        body = mono if mag == 1 and mono else (f"{mag}*{mono}" if mono else str(mag))
        if not out:
            out = body if c > 0 else f"-{body}"
        else:
            out += f" + {body}" if c > 0 else f" - {body}"
    return out or "0"


def source_text(
    names: tuple[str, ...],
    exps: list[int],
    radicands: list[dict],
    comps: list[tuple[dict, dict | None]],
    settings: dict[str, str] | None = None,
) -> str:
    lines = ["tower {"]
    for name, e, g in zip(names[1:], exps, radicands):
        lines.append(f"  {name}^{e} = {poly_text(g, names)};")
    lines += ["}", "param {"]
    for coord, (num, den) in zip(("x", "y"), comps):
        rhs = poly_text(num, names)
        if den is not None:
            rhs = f"({rhs}) / ({poly_text(den, names)})"
        lines.append(f"  {coord} = {rhs};")
    lines.append("}")
    if settings:
        lines.append("settings {")
        lines += [f"  {k} = {v};" for k, v in settings.items()]
        lines.append("}")
    return "\n".join(lines) + "\n"


def check_towers(seed: int) -> list[tuple[str, str]]:
    p = PARAMS["check_towers"]
    cb = p["coeff_bound"]
    draw = Draw("check_towers", seed)
    out = []
    for i in range(p["instances"]):
        height = 1 + i % 3
        names, exps, rads = draw.tower(
            height, p["exponent"], p["radicand_t_degree_max"], p["radicand_terms_max"], cb, p["nested"]
        )
        reduced = [p["numerator_t_degree_max"]] + [e - 1 for e in exps]
        t_only = [p["radicand_t_degree_max"]] + [0] * height
        comps = []
        for k in range(p["components"]):
            num = draw.poly(reduced, p["numerator_terms_max"], cb)
            # the denominator sits on x and y in turn, switching after
            # every block of three heights
            den = draw.poly(t_only, 3, cb, constant_ok=False) if (i // 3 + k) % 2 == 0 else None
            comps.append((num, den))
        settings = {"mode": "suspicious"} if i % 4 == 3 else None
        out.append((f"check_{i:03d}.rs", source_text(names, exps, rads, comps, settings)))
    return out


def missing_elim(seed: int) -> list[tuple[str, str]]:
    p = PARAMS["missing_elim"]
    cb = p["coeff_bound"]
    draw = Draw("missing_elim", seed)
    out = []
    for i in range(p["instances"]):
        # two in five inputs are rational, so the median sits inside
        # that group instead of on the gap between cheap and costly
        # inputs, and the tail inside the many towers of height 1
        height = (0, 1, 0, 1, 2)[i % 5]
        names, exps, rads = draw.tower(
            height, p["exponent"], p["radicand_t_degree_max"], p["radicand_terms_max"], cb, p["nested"]
        )
        reduced = [p["numerator_total_degree_max"]] + [e - 1 for e in exps]
        den = draw.poly([2] + [0] * height, 3, cb, constant_ok=False)
        comps = [
            (
                draw.poly(
                    reduced, p["numerator_terms_max"], cb, p["numerator_total_degree_max"],
                    constant_ok=False,
                ),
                den,
            )
            for _ in range(2)
        ]
        out.append((f"missing_{i:03d}.rs", source_text(names, exps, rads, comps)))
    for name in p["frozen"]:
        out.append((name, (FROZEN / name).read_text(encoding="utf-8")))
    return out


def sample_dense(seed: int) -> list[tuple[str, str]]:
    """Shared t-denominator q, numerators of weighted degree at most deg q.

    Every coordinate then tends to a finite limit as t grows, a point
    the parametrization never reaches: the candidate missing points
    the sampler must probe.
    """
    p = PARAMS["sample_dense"]
    cb = p["coeff_bound"]
    draw = Draw("sample_dense", seed)
    out = []
    for i in range(p["instances"]):
        height = 0 if i % 3 == 0 else 1
        pad = (0,) * height
        qdeg = 2 - height  # rational_circle.rs has deg q = 2, cotas.rs deg q = 1
        names = ("t", "d")[: 1 + height]
        q = {(qdeg,) + pad: draw.shape.randint(1, 2)}
        for k in range(qdeg):
            if draw.shape.random() < 0.7:
                q[(k,) + pad] = draw.coeff(cb)
        exps, rads = [], []
        if height:
            exps = [2]
            g = draw.poly([1, 0], 2, cb)
            g[(2, 0)] = draw.coeff(cb)
            rads = [g]
        comps = []
        for _ in range(2):
            num = draw.poly([qdeg] + [0] * height, 3, cb)
            if height:
                # a radical term of weighted degree deg q
                num[(qdeg - 1, 1)] = draw.coeff(cb)
            if num == q:
                num = {e: 2 * c for e, c in num.items()}
            comps.append((num, q))
        out.append((f"sample_{i:03d}.rs", source_text(names, exps, rads, comps)))
    return out


GENERATORS = {
    "check_towers": check_towers,
    "missing_elim": missing_elim,
    "sample_dense": sample_dense,
}
