"""Benchmark of the radsurj command line over three seeded workloads.

    python3 bench/run.py --workload check_towers --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src``.  One single-threaded process drives ``radsurj.cli.main`` in
process, as a closed loop with one client: each instance is one
``radsurj <command> FILE --stable`` call, including parsing and JSON
rendering, and the next starts when it returns.  Inputs are ``.rs``
files generated from the seed (see gen.py) and written under
``.bench_work/``, so any instance replays with the real CLI.

Every instance runs under a per-instance deadline enforced from outside
by a timer signal; an instance that hits it counts as failed, as does
one that raises, exits with an unexpected code or fails the output
check.  The output check validates every report against the packaged
JSON schema and, for the default seed, compares it with the reference
in ``reference/``.

With ``--trace 0`` the run measures the end-to-end metrics: a first
pass runs every instance once, later passes repeat the instances that
finished until ``--seconds`` have passed, and each instance's latency
is the median of its repeats.  An instance that failed is not repeated.
A shared host changes speed by up to a factor of two, switching within
a second or holding for a minute, so the wall time of one call depends
on when it runs.  Every time the end-to-end metrics report, deadline
waits aside, is therefore scaled to a reference host speed by a fixed
calibration kernel timed before every call (see hostspeed.py); the info
lines give the unscaled wall times too.  After the timed loop a fresh
process runs each finished instance once for the peak memory (see
rss.py).  With ``--trace 1`` each instance runs traced, wrapping the
package's public functions from outside (see tracer.py), and then
untraced for the tracing overhead; the run prints the per-layer
metrics.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import io
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference"
DEFAULT_SEED = 0

sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracer import Deadline, Tracer  # noqa: E402

# Deadlines sit in the measured gap between the slowest finishing
# instance and the fastest stall of each workload (see baseline.json).
WORKLOADS = {
    "check_towers": {"argv": ["check"], "exits": (0, 3), "deadline_s": 2.5},
    "missing_elim": {"argv": ["missing"], "exits": (0,), "deadline_s": 1.4},
    "sample_dense": {
        "argv": ["sample", "--points", str(gen.PARAMS["sample_dense"]["points"])],
        "exits": (0,),
        "deadline_s": 20.0,
    },
}
TRACE_DEADLINE_FACTOR = 2.0
# throughput_ips is taken over ROUNDS rounds of the corpus: every
# finished instance runs in each round at its median latency, and an
# instance that hit the deadline fails once, so its wait counts once.
ROUNDS = 5
# set-up is sampled every SETUP_EVERY_S seconds of the run
SETUP_EVERY_S = 2.0
TAIL_BEYOND = 10
# the memory pass runs each finished instance once, well under a pass
# of the timed loop; the limit only guards against a hang
RSS_TIMEOUT_S = 120
FLOAT_RTOL = 1e-6
FLOAT_ATOL = 1e-9

END_TO_END = {
    "throughput_ips": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: <module>.<function>.<quantity>.  Times sum over the
# instances that finished; counts are exact.
PER_LAYER = {
    "arith.prem.self_s": "s",
    "arith.exact_div.self_s": "s",
    "arith.resultant.calls": "count",
    "arith.resultant.incl_s": "s",
    "arith.resultant.max_coeff_bits": "bits",
    "arith.mul.calls": "count",
    "arith.mul.term_products": "count",
    "tower.remainder_trace.calls": "count",
    "tower.remainder_trace.incl_s": "s",
    "tower.normal_form.self_s": "s",
    "tower.is_guilty.calls": "count",
    "tower.is_guilty.incl_s": "s",
    "tower.is_guilty.unused": "count",
    "tower.is_guilty.unused_per_call": "ratio",
    "tower.is_suspicious.incl_s": "s",
    "surjcheck.hypothesis1.incl_s": "s",
    "surjcheck.hypothesis2.incl_s": "s",
    "surjcheck.hypothesis2.route_exact": "count",
    "surjcheck.hypothesis2.route_gcd": "count",
    "surjcheck.hypothesis2.undecided": "count",
    "arith.poly_gcd.calls": "count",
    "arith.poly_gcd.incl_s": "s",
    "arith.squarefree_part.incl_s": "s",
    "ideal.buchberger.calls": "count",
    "ideal.buchberger.incl_s": "s",
    "ideal.buchberger.exhausted": "count",
    "ideal.buchberger.exhausted_per_call": "ratio",
    "ideal.ideal_is_trivial.incl_s": "s",
    "ideal.elimination_ideal.incl_s": "s",
    "missing.candidate_polys.incl_s": "s",
    "missing.implicitize.incl_s": "s",
    "missing.condition2_locus.incl_s": "s",
    "missing.condition2_locus.unknown": "count",
    "sampler.sample_images.self_s": "s",
    "sampler.enumerate_branches.calls": "count",
    "sampler.enumerate_branches.self_s": "s",
    "sampler.confirm_candidates.incl_s": "s",
    "sampler.complex_roots.self_s": "s",
    "arith.eval_complex.calls": "count",
    "parser.parse_source.self_s": "s",
    "report.render.self_s": "s",
    "cli.main.self_s": "s",
    "trace_overhead_share": "ratio",
}
# Functions that can be the innermost open span when a deadline fires;
# a deadline anywhere else counts under deadline_in.other.
DEADLINE_SPANS = (
    "arith.prem", "arith.exact_div", "arith.resultant", "arith.poly_gcd",
    "arith.content_wrt", "arith.primitive_wrt", "arith.univ_gcd", "arith.squarefree_part",
    "tower.normal_form", "tower.remainder_trace", "tower.is_guilty", "tower.is_suspicious",
    "surjcheck.hypothesis2", "ideal.buchberger", "ideal.ideal_is_trivial",
    "ideal.elimination_ideal", "missing.component_curve_poly", "missing.candidate_polys",
    "missing.implicitize", "missing.condition2_locus", "sampler.complex_roots",
    "sampler.enumerate_branches", "sampler.sample_images", "sampler.confirm_candidates",
)
for _name in DEADLINE_SPANS + ("other",):
    PER_LAYER[f"deadline_in.{_name}"] = "count"


@dataclass
class Instance:
    index: int
    name: str
    path: Path
    suspicious_mode: bool
    times: list[float] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)  # perf_counter at each run
    output: str | None = None
    failure: str | None = None
    wait_s: float = 0.0  # wall time of the run that hit the deadline

    @property
    def finished(self) -> bool:
        return self.failure is None


class Checker:
    """Exit codes, schema validation and, for the default seed, the reference."""

    def __init__(self, workload: str, seed: int):
        from jsonschema import Draft7Validator

        schema = json.loads((SRC / "radsurj" / "schema" / "report.schema.json").read_text())
        self.validator = Draft7Validator(schema)
        self.exits = WORKLOADS[workload]["exits"]
        self.reference = None
        if seed == DEFAULT_SEED:
            with gzip.open(REFERENCE / f"{workload}.json.gz", "rt", encoding="utf-8") as fh:
                self.reference = json.load(fh)

    def problem(self, inst: Instance, code: int, output: str) -> str | None:
        """Why an output is wrong, or None when it is right."""
        if code not in self.exits:
            return f"exit code {code}"
        try:
            doc = json.loads(output)
        except json.JSONDecodeError:
            return "output is not JSON"
        errors = sorted(e.message for e in self.validator.iter_errors(doc))
        if errors:
            return "schema: " + errors[0]
        if self.reference is not None:
            ref = self.reference.get(inst.name)
            if ref is not None:
                if ref["exit"] != code:
                    return f"exit code {code}, reference {ref['exit']}"
                where = _mismatch(ref["output"], doc, "$")
                if where:
                    return "differs from reference at " + where
        return None


def _mismatch(ref, got, path: str) -> str | None:
    """First path where got differs from ref; floats within tolerance."""
    if isinstance(ref, float) or isinstance(got, float):
        if isinstance(ref, (int, float)) and isinstance(got, (int, float)):
            if math.isclose(ref, got, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL):
                return None
        return path
    if type(ref) is not type(got):
        return path
    if isinstance(ref, dict):
        if list(ref) != list(got):
            return path
        for key in ref:
            where = _mismatch(ref[key], got[key], f"{path}.{key}")
            if where:
                return where
        return None
    if isinstance(ref, list):
        if len(ref) != len(got):
            return path
        for k, (a, b) in enumerate(zip(ref, got)):
            where = _mismatch(a, b, f"{path}[{k}]")
            if where:
                return where
        return None
    return None if ref == got else path


class Driver:
    """Runs instances through cli.main under the deadline timer."""

    def __init__(self, workload: str, tracer: Tracer | None = None):
        from radsurj import cli

        self.cli = cli
        self.argv = WORKLOADS[workload]["argv"]
        self.deadline_s = WORKLOADS[workload]["deadline_s"]
        if tracer is not None:
            # tracing slows finishing instances; keep them inside the deadline
            self.deadline_s *= TRACE_DEADLINE_FACTOR
        self.tracer = tracer
        self.deadline_in: dict[str, int] = {}

    def _expire(self, signum, frame) -> None:
        if self.tracer is not None:
            where = self.tracer.innermost()
            key = where if where in DEADLINE_SPANS else "other"
            self.deadline_in[key] = self.deadline_in.get(key, 0) + 1
        raise Deadline

    def run(self, inst: Instance) -> tuple[float, int | None, str, str | None]:
        """(seconds, exit code, stdout, failure) of one CLI call."""
        out, err = io.StringIO(), io.StringIO()
        argv = self.argv[:1] + [str(inst.path), "--stable"] + self.argv[1:]
        signal.signal(signal.SIGALRM, self._expire)
        gc.collect()
        code, failure = None, None
        streams = sys.stdout, sys.stderr
        start = time.perf_counter()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, self.deadline_s)
                with redirect_stdout(out), redirect_stderr(err):
                    code = self.cli.main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Deadline:
            failure = "deadline"
            if self.tracer is not None:
                self.tracer.repair(time.perf_counter())
        except Exception as exc:  # a crash is a result to report, not to stop on
            failure = f"raised {type(exc).__name__}: {exc}"
        finally:
            # the timer may fire inside the with statement's exit
            sys.stdout, sys.stderr = streams
        return time.perf_counter() - start, code, out.getvalue(), failure


def write_inputs(workload: str, seed: int) -> list[Instance]:
    folder = WORK / f"{workload}-{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    out = []
    for k, (name, text) in enumerate(gen.GENERATORS[workload](seed)):
        path = folder / name
        path.write_text(text, encoding="utf-8")
        out.append(Instance(k, name, path, "mode = suspicious" in text))
    return out


def import_time() -> float:
    """Seconds for a fresh interpreter to import radsurj.cli."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import radsurj.cli"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        check=True,
    )
    return time.perf_counter() - start


def peak_rss_mb(workload: str, done: list[Instance]) -> float:
    """Peak resident memory of a fresh interpreter that runs each
    finished instance once (see rss.py).  Instances that hit the
    deadline are left out: the memory they reach before it fires
    follows the host's speed, and a faster stall would read as worse."""
    result = subprocess.run(
        [sys.executable, str(BENCH / "rss.py"), json.dumps(WORKLOADS[workload]["argv"])]
        + [str(i.path) for i in done],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=RSS_TIMEOUT_S,
    )
    return int(result.stdout.split()[-1]) / 1024


class SetupSampler:
    """Set-up time samples, taken at most every SETUP_EVERY_S seconds,
    as (start, seconds)."""

    def __init__(self, speed: HostSpeed) -> None:
        self.speed = speed
        self.samples: list[tuple[float, float]] = []

    def tick(self) -> None:
        """Take a sample if one is due; speed ticks before it, and the
        caller ticks speed again before its next timed call."""
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= SETUP_EVERY_S:
            self.speed.tick()
            self.samples.append((time.perf_counter(), import_time()))


def run_pass(
    driver: Driver,
    instances: list[Instance],
    checker: Checker,
    until: float = math.inf,
    setup: SetupSampler | None = None,
    speed: HostSpeed | None = None,
) -> bool:
    """Run every instance that has not failed; False if the clock passed until.

    The first run of an instance goes through the checker; a later run
    must print the same output.  An instance that fails is not run
    again: its outcome is known, and reruns would fill the run with
    deadline waits.
    """
    for inst in instances:
        if not inst.finished:
            continue
        if setup is not None:
            setup.tick()
        if speed is not None:
            speed.tick()
        started = time.perf_counter()
        if started >= until:
            return False
        seconds, code, output, failure = driver.run(inst)
        if failure is None:
            if inst.output is None:
                failure = checker.problem(inst, code, output)
                inst.output = output
            elif output != inst.output:
                failure = "output changed between runs"
        if failure is None:
            inst.times.append(seconds)
            inst.starts.append(started)
        else:
            inst.failure, inst.wait_s = failure, seconds
    return True


def trace_id(pass_no: int, index: int) -> int:
    return pass_no * 100_000 + index


def tail(latencies: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with TAIL_BEYOND
    instances beyond it; failed instances count as infinitely slow."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[list[Instance], dict]:
    instances = write_inputs(workload, seed)
    checker = Checker(workload, seed)
    import_time()  # writes the bytecode cache
    speed = HostSpeed()
    setup = SetupSampler(speed)
    driver = Driver(workload)
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    run_pass(driver, instances, checker, setup=setup, speed=speed)
    passes = 1
    while run_pass(driver, instances, checker, start + seconds, setup, speed):
        passes += 1
    speed.tick()
    wall = time.perf_counter() - start
    done = [i for i in instances if i.finished]
    if not done:
        raise SystemExit("error: no instance finished")
    # deadline waits are wall time by definition and stay unscaled
    typical = [
        statistics.median(speed.scaled(t, s) for t, s in zip(i.starts, i.times)) for i in done
    ]
    wall_typical = [statistics.median(i.times) for i in done]
    waits = sum(i.wait_s for i in instances if not i.finished)
    workload_s = ROUNDS * sum(typical) + waits
    tail_s, tail_pct = tail(typical + [math.inf] * (len(instances) - len(done)))
    if math.isinf(tail_s):
        tail_s = max(i.wait_s for i in instances)
    info = {
        "passes": passes,
        "wall_s": wall,
        "deadline_wait_share": waits / workload_s,
        "tail_percentile": tail_pct,
        "tail_samples": len(instances),
        "setup_samples": len(setup.samples),
        "kernel_samples": len(speed.at),
        "kernel_median_s": statistics.median(speed.kernel_s),
        "wall_latency_p50_s": statistics.median(wall_typical),
        "wall_setup_s": statistics.median(s for _, s in setup.samples),
    }
    metrics = {
        "throughput_ips": ROUNDS * len(done) / workload_s,
        "latency_p50_s": statistics.median(typical),
        "latency_tail_s": tail_s,
        "setup_s": statistics.median(speed.scaled(t, s) for t, s in setup.samples),
        "peak_rss_mb": peak_rss_mb(workload, done),
    }
    return instances, {"info": info, "metrics": metrics}


def per_layer(workload: str, seed: int, seconds: float) -> tuple[list[Instance], dict]:
    """Each instance runs traced, then untraced, in passes until seconds
    have passed; the untraced run right after the traced one pairs the
    two in time for the overhead.

    Counts and span times come from the first pass, over the instances
    that finished in every run, so the counts repeat exactly from run
    to run.  The overhead compares each instance's median traced and
    median untraced time.
    """
    instances = write_inputs(workload, seed)
    checker = Checker(workload, seed)
    tracer = Tracer()
    traced, plain = Driver(workload, tracer), Driver(workload)
    untraced: dict[int, list[float]] = {i.index: [] for i in instances}
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        for inst in instances:
            if not inst.finished:
                continue
            if passes and time.perf_counter() - start >= seconds:
                break
            tracer.begin(trace_id(passes, inst.index), inst.suspicious_mode)
            tracer.install()
            try:
                run_pass(traced, [inst], checker)
            finally:
                tracer.uninstall()
            if inst.finished:
                sec, code, output, failure = plain.run(inst)
                if failure is None and output != inst.output:
                    failure = "traced and untraced outputs differ"
                if failure is None:
                    untraced[inst.index].append(sec)
                else:
                    inst.failure, inst.wait_s = failure, sec
        passes += 1
    done = [i.index for i in instances if i.finished]
    incl, self_s, counts = tracer.totals([trace_id(0, k) for k in done])
    values: dict[str, float] = {}
    for name in PER_LAYER:
        span, _, quantity = name.rpartition(".")
        if quantity == "incl_s":
            values[name] = incl.get(span, 0.0)
        elif quantity == "self_s":
            values[name] = self_s.get(span, 0.0)
        else:
            values[name] = counts.get(name, 0)
    for key in DEADLINE_SPANS + ("other",):
        values[f"deadline_in.{key}"] = traced.deadline_in.get(key, 0)
    values["tower.is_guilty.unused_per_call"] = _ratio(
        counts.get("tower.is_guilty.unused", 0), counts.get("tower.is_guilty.calls", 0)
    )
    values["ideal.buchberger.exhausted_per_call"] = _ratio(
        counts.get("ideal.buchberger.exhausted", 0), counts.get("ideal.buchberger.calls", 0)
    )
    by_index = {i.index: i for i in instances}
    base = sum(statistics.median(untraced[k]) for k in done)
    slow = sum(statistics.median(by_index[k].times) for k in done)
    values["trace_overhead_share"] = _ratio(slow - base, base)
    WORK.mkdir(exist_ok=True)
    tracer.dump(WORK / f"spans-{workload}-{seed}.tsv.gz")
    info = {
        "passes": passes,
        "wall_s": time.perf_counter() - start,
        "spans": len(tracer.span_start),
        "instances_compared": len(done),
    }
    return instances, {"info": info, "metrics": values}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def write_reference(workload: str) -> None:
    """Record the default seed's outputs; instances that hit the
    deadline are left out and only schema-checked later."""
    instances = write_inputs(workload, DEFAULT_SEED)
    driver = Driver(workload)
    ref = {}
    for inst in instances:
        seconds, code, output, failure = driver.run(inst)
        if failure is None:
            ref[inst.name] = {"exit": code, "output": json.loads(output)}
        print(f"{inst.name}: {failure or code} in {seconds:.3f} s", file=sys.stderr)
    REFERENCE.mkdir(exist_ok=True)
    with gzip.open(REFERENCE / f"{workload}.json.gz", "wt", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=False)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--write-reference",
        action="store_true",
        help=f"record the outputs of seed {DEFAULT_SEED} as the reference",
    )
    args = ap.parse_args(argv)
    if not (SRC / "radsurj" / "cli.py").is_file():
        print(f"error: no radsurj package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_reference:
        write_reference(args.workload)
        return 0
    if args.trace:
        instances, result = per_layer(args.workload, args.seed, args.seconds)
        units = PER_LAYER
    else:
        instances, result = end_to_end(args.workload, args.seed, args.seconds)
        units = END_TO_END
    failed = [i for i in instances if not i.finished]
    for inst in failed:
        print(f"failed: {inst.name}: {inst.failure} ({inst.path.relative_to(ROOT)})")
    for key, value in result["info"].items():
        print(f"{key}: {value}")
    correct = all(i.failure in (None, "deadline") for i in instances)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(instances),
                "failed": len(failed),
                "metrics": {
                    name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
