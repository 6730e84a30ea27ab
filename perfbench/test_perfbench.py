"""Tests of the benchmark itself (not collected by the repository's suite).

    PYTHONPATH=src python3 -m pytest -q perfbench

They run the fixed request set of every workload, so they take a few
minutes. Counts, bit sizes and both digests must repeat exactly for one seed
and differ for another; the traced run must return the untraced outputs.
"""

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

EXACT = lambda metrics: {  # noqa: E731
    k: v["value"] for k, v in metrics.items() if k.endswith(".calls") or "_bits" in k
}


@pytest.fixture(scope="module")
def traced():
    """Traced runs per workload: seed 1, seed 1 again, seed 2."""
    return {name: [run.run_workload(name, seed, 0, True) for seed in (1, 1, 2)] for name in run.WORKLOADS}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_counts_and_digests_repeat_for_a_seed_and_move_with_it(traced, name):
    first, again, other = traced[name]
    assert first["failed"] == again["failed"] == other["failed"] == 0
    assert first["extra"]["digests_agree"]
    assert EXACT(first["metrics"]) == EXACT(again["metrics"])
    assert first["extra"]["digests"] == again["extra"]["digests"]
    assert EXACT(first["metrics"]) != EXACT(other["metrics"])
    d1, d2 = first["extra"]["digests"], other["extra"]["digests"]
    assert d1["inputs"] != d2["inputs"] and d1["outputs"] != d2["outputs"]
    assert d1["output_bits"] != d2["output_bits"]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_untraced_run_matches_the_traced_fixed_set(traced, name):
    res = run.run_workload(name, 1, 0, False)
    assert res["failed"] == 0
    assert res["extra"]["digests"] == traced[name][0]["extra"]["digests"]
    assert res["metrics"]["output_bits"]["value"] == res["extra"]["digests"]["output_bits"]


def test_sdet_sweep_never_reaches_the_ore_field(traced):
    m = traced["sdet_sweep"][0]["metrics"]
    for key in ("polyone.lcm.calls", "orefield.add.calls", "orefield.mul.calls", "orefield.eq.calls"):
        assert m[key]["value"] == 0, key
    assert m["dieudonne.det_poly.calls"]["value"] > 0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(100)))[0] == 90
    pct, value = run.tail_percentile(list(range(40)))
    assert pct < 90 and sum(1 for x in range(40) if x > value) >= 10


def test_complex_image_det_of_a_quaternion_is_its_norm():
    rng = random.Random(3)
    for _ in range(20):
        q = tuple(oracle.Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4))
        assert oracle.complex_image_det([[q]]) == oracle.qnorm(q)


def test_checks_reject_a_corrupted_result():
    wl = workloads.make_workloads(os.path.dirname(HERE))["sdet_sweep"]
    rng = random.Random(5)
    req = wl.make_cycle(rng)[0]
    is_zero, num, den = wl.run(req)
    assert wl.check(req, (is_zero, num, den), random.Random(1))
    bad = workloads.RealPoly(list(num.coeffs[:-1]) + [num.coeffs[-1] + 1])
    assert not wl.check(req, (is_zero, bad, den), random.Random(1))
