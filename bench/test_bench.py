"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

import radsurj.arith  # noqa: E402
import radsurj.tower  # noqa: E402
from hostspeed import REFERENCE_KERNEL_S, HostSpeed  # noqa: E402
from tracer import Tracer  # noqa: E402

# A few instances per workload, a check_towers stall included, so the
# deadline path runs too.
SUBSETS = {
    "check_towers": ["check_000.rs", "check_002.rs", "check_003.rs", "check_017.rs"],
    "missing_elim": ["missing_001.rs", "missing_003.rs", "missing_005.rs", "cotas.rs"],
    "sample_dense": ["sample_000.rs", "sample_001.rs"],
}


def traced_counts(workload: str, seed: int) -> tuple[dict[str, dict], list[str]]:
    instances = [i for i in run.write_inputs(workload, seed) if i.name in SUBSETS[workload]]
    tracer = Tracer()
    driver = run.Driver(workload, tracer)
    checker = run.Checker(workload, seed)
    tracer.install()
    try:
        for inst in instances:
            tracer.begin(inst.index, inst.suspicious_mode)
            run.run_pass(driver, [inst], checker)
    finally:
        tracer.uninstall()
    finished = {i.name: dict(tracer.counts[i.index]) for i in instances if i.finished}
    return finished, [f"{i.name}: {i.failure}" for i in instances if i.failure not in (None, "deadline")]


def test_two_traced_runs_give_identical_counts():
    for workload in SUBSETS:
        first, wrong = traced_counts(workload, seed=1)
        second, _ = traced_counts(workload, seed=1)
        assert wrong == []
        both = first.keys() & second.keys()
        assert both, workload
        for name in both:
            assert first[name] == second[name], (workload, name)


def test_uninstall_restores_every_binding():
    before = (radsurj.tower.resultant, radsurj.arith.resultant, radsurj.arith.MultiPoly.__mul__)
    tracer = Tracer()
    tracer.install()
    assert radsurj.tower.resultant is not before[0]
    assert radsurj.tower.resultant is radsurj.arith.resultant
    tracer.uninstall()
    assert (radsurj.tower.resultant, radsurj.arith.resultant, radsurj.arith.MultiPoly.__mul__) == before


def test_self_time_excludes_children():
    tracer = Tracer()
    outer = tracer._wrap("m.outer", lambda f: f() + 1)
    inner = tracer._wrap("m.inner", lambda: sum(range(100_000)))
    tracer.begin(0, False)
    outer(inner)
    incl, self_s, counts = tracer.totals([0])
    assert counts["m.outer.calls"] == counts["m.inner.calls"] == 1
    assert self_s["m.inner"] == incl["m.inner"]
    assert abs(self_s["m.outer"] - (incl["m.outer"] - incl["m.inner"])) < 1e-12


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_host_speed_scales_by_the_kernel_times_around_a_call():
    speed = HostSpeed()
    speed.at = [0.0, 0.5, 1.0, 5.0]
    speed.kernel_s = [REFERENCE_KERNEL_S * f for f in (1.0, 2.0, 4.0, 8.0)]
    # a call from 0.6 to 0.9 s lies between the samples at 0.5 and 1.0
    assert math.isclose(speed.scale(0.6, 0.3), 1 / 3)
    assert math.isclose(speed.scaled(0.6, 0.3), 0.3 / 3)
    # after the last sample only the one before it counts
    assert math.isclose(speed.scale(6.0, 1.0), 1 / 8)
