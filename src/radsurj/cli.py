"""Command-line surface.

One JSON document per invocation on standard output, diagnostics on
standard error.  Exit codes: 0 for success or a certified verdict, 3
for an inconclusive check, 2 for bad input, 4 for an exhausted work
budget, a numeric failure (float overflow included), exhausted memory
or any other package error.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import math
import sys
import time
from itertools import chain
from pathlib import Path

from .arith import weighted_degree
from .errors import InputError, RadsurjError
from .ideal import DEFAULT_STEP_BUDGET
from .missing import filtered_candidates, implicitize, missing_candidates
from .parser import parse_poly, parse_source
from .report import (
    envelope,
    implicit_json,
    missing_json,
    render,
    sample_json,
    surjectivity_json,
    value_json,
)
from .sampler import (
    DEFAULT_BRANCH_TOL,
    confirm_candidates,
    default_samples,
    sample_images,
    write_csv,
)
from .surjcheck import check_surjective
from .tower import normal_form, normalized_remainder

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3
EXIT_RESOURCE = 4


def build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="radsurj",
        description="Certify surjectivity of radical curve parametrizations "
        "and locate candidate missing points.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="input file (tower and param blocks)")
        p.add_argument(
            "--stable",
            action="store_true",
            help="report timing as 0.0 so output is reproducible",
        )
        p.add_argument(
            "--budget",
            type=int,
            default=DEFAULT_STEP_BUDGET,
            help="work budget for exact ideal computations",
        )

    check = sub.add_parser("check", help="certify surjectivity or report inconclusive")
    add_common(check)
    check.add_argument(
        "--mode",
        choices=["guilty", "suspicious"],
        default=None,
        help="numerator screening: exact degree drop, or its syntactic over-approximation",
    )

    missing = sub.add_parser("missing", help="candidate missing points and bounds")
    add_common(missing)

    sample = sub.add_parser("sample", help="numeric image cloud and candidate probing")
    add_common(sample)
    sample.add_argument(
        "--points", type=int, default=None, help="samples per schedule part (default 200)"
    )
    sample.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_BRANCH_TOL,
        help="reject samples whose denominator magnitude falls below this",
    )
    sample.add_argument("--csv", default=None, help="also dump the image cloud as CSV")

    imp = sub.add_parser("implicitize", help="defining equations of the image closure")
    add_common(imp)

    for name, doc in (
        ("nf", "tower normal form of an expression"),
        ("rrem", "normalized remainder, radicals eliminated"),
        ("degree", "weighted degree of the normal form"),
    ):
        p = sub.add_parser(name, help=doc)
        add_common(p)
        p.add_argument("--expr", required=True, help="polynomial in t and the radicals")

    return ap


def _settings(args: argparse.Namespace, settings: dict[str, str]) -> tuple[str, int | None]:
    """Mode and points for any command.

    Flags win over the file's settings block, which wins over defaults.
    The whole block is checked, whichever command reads it, and so are
    the numeric flags.
    """
    if args.budget < 0:
        raise InputError(f"budget must be >= 0, got {args.budget}")
    tol = getattr(args, "tol", 0.0)
    if not (math.isfinite(tol) and tol >= 0):
        raise InputError(f"tol must be finite and >= 0, got {tol}")
    for key in settings:
        if key not in ("mode", "points"):
            raise InputError(f"settings: unknown key {key!r}")
    mode = getattr(args, "mode", None) or settings.get("mode", "guilty")
    points = getattr(args, "points", None)
    if points is None:
        points = settings.get("points")
    if mode not in ("guilty", "suspicious"):
        raise InputError(f"settings: unknown mode {mode!r}")
    if points is not None and not (str(points).isdigit() and int(points) > 0):
        raise InputError(f"points must be a positive integer, got {points!r}")
    return mode, None if points is None else int(points)


def _run(args: argparse.Namespace) -> int:
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{args.file}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    src = parse_source(text)
    param = src.param
    for note in src.notes:
        print(f"note: {note}", file=sys.stderr)
    mode, points = _settings(args, src.settings)

    started = time.perf_counter()
    doc = envelope(args.command, param)
    code = EXIT_OK

    if args.command == "check":
        report = check_surjective(param, mode=mode, step_budget=args.budget)
        doc["surjectivity"] = surjectivity_json(report, param)
        code = EXIT_OK if report.certified else EXIT_INCONCLUSIVE
    elif args.command == "missing":
        report = missing_candidates(param, step_budget=args.budget)
        doc["missing"] = missing_json(report)
    elif args.command == "sample":
        samples = None if points is None else default_samples(points)
        cand = filtered_candidates(param, step_budget=args.budget)
        for note in cand.notes:
            print(f"note: {note}", file=sys.stderr)
        cloud = sample_images(param, samples, tol=args.tol, implicit=cand.implicit)
        # a complex product past the float range is inf or nan, not an error
        if not all(map(cmath.isfinite, chain.from_iterable(cloud.columns[1 + param.tower.m :]))):
            raise OverflowError("image coordinate too large for a float")
        verdicts = confirm_candidates(cloud, cand.candidates, param)
        if args.csv:
            write_csv(cloud, param, args.csv)
        doc["sample"] = sample_json(cloud, verdicts)
    elif args.command == "implicitize":
        doc["implicit"] = implicit_json(implicitize(param, step_budget=args.budget))
    else:  # nf, rrem, degree
        f = parse_poly(args.expr, param.tower.table)
        if args.command == "nf":
            value = normal_form(f, param.tower)
        elif args.command == "rrem":
            value = normalized_remainder(f, param.tower)
        else:
            nf = normal_form(f, param.tower)
            value = weighted_degree(nf, param.tower.weights)
        doc["value"] = value_json(args.command, value)

    elapsed = 0.0 if args.stable else round(time.perf_counter() - started, 6)
    doc["timing"] = {"seconds": elapsed}
    sys.stdout.write(render(doc))
    return code


# main parses with one parser per process: building one takes about
# 0.5 ms, a tenth of a small check
_argparser = functools.cache(build_argparser)


def main(argv: list[str] | None = None) -> int:
    args = _argparser().parse_args(argv)
    # exact answers may have more digits than Python converts by default
    # (4,300 since 3.10.7); the limit is lifted for this call only
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    limit = sys.get_int_max_str_digits() if set_digits else None
    if set_digits:
        set_digits(0)
    try:
        return _run(args)
    except (OSError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RadsurjError as exc:  # budget, numeric, domain or structural
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OverflowError as exc:  # a float past its range, e.g. a huge power
        print(f"error: numeric overflow ({exc})", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:  # e.g. a dense coefficient list for a huge exponent
        print("error: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    finally:
        if set_digits:
            set_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
