"""skewres benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all --seed N --seconds S

One client, one thread, closed loop: the next request is issued only after
the previous one returns. Inputs are generated from the seed outside the
timed region, and every result is checked independently (perfbench/oracle.py)
after its cycle, also outside the timed region.

--trace 0 measures the end-to-end metrics. Every request is timed between
two runs of a fixed calibration computation, and its time is reported at a
reference host speed (see CAL_REF_S); the plain wall-time figures are printed
beside them.

--trace 1 runs each request of the seed's fixed set untraced and then traced
(spans around every public function of each skewres module,
perfbench/spans.py), then the whole set once more counting quaternion
operations only. It reports the per-layer metrics and writes the spans to
perfbench/out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The run exits 1 when any request fails its
check, and 2 when skewres cannot be imported from src/ of this checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from time import perf_counter

import oracle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

WORKLOADS = ("sdet_sweep", "certificates", "ore_linear_algebra", "cli")

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("output_bits", "bits"),
)

_TIMED_LAYERS = (
    "polyone.mul", "polyone.divmod", "polyone.gcd", "polyone.lcm", "polyone.real",
    "polytwo.mul",
    "orefield.canon", "orefield.add", "orefield.mul", "orefield.inv", "orefield.eq",
    "dieudonne.det_poly", "dieudonne.det_frac", "dieudonne.representative",
    "dieudonne.cramer", "dieudonne.kernel",
    "resultant.kernel_cofactors", "resultant.bezout",
)

# (name, unit, better)
PER_LAYER = (
    (("quaternion.mul.calls", "count", "lower"), ("quaternion.inverse.calls", "count", "lower"))
    + tuple(
        item
        for layer in _TIMED_LAYERS
        for item in ((f"{layer}.calls", "count", "lower"), (f"{layer}.self_s", "s", "lower"))
    )
    + (
        ("polyone.lcm.out_bits_max", "bits", "lower"),
        ("orefield.eq.fast_ratio", "ratio", "higher"),
        ("dieudonne.sdet_bits_max", "bits", "lower"),
        ("dieudonne.order_max", "count", "lower"),
        ("resultant.sylvester.self_s", "s", "lower"),
        ("check.cramer_matvec_s", "s", "lower"),
        ("check.kernel_matvec_s", "s", "lower"),
        ("check.cert_identity_s", "s", "lower"),
        ("exprio.parse.self_s", "s", "lower"),
        ("exprio.lower.self_s", "s", "lower"),
        ("exprio.print.self_s", "s", "lower"),
        ("exprio.json.self_s", "s", "lower"),
        ("cli.interp_s", "s", "lower"),
        ("cli.import_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    )
)

# Host speed calibration. The speed of a shared host drifts, by up to a
# factor of two within seconds, and every request slows with it. Each request
# is therefore bracketed by a fixed pure-Python Fraction computation, and its
# time is reported at the speed where that computation takes CAL_REF_S (a
# typical time on a 2-CPU host under CPython 3.11.7). The matrix is fixed, so
# the calibration is the same on every commit; it does not call skewres.
CAL_REF_S = 0.003


def _calibration_matrix() -> list:
    rng = random.Random("calibration")
    return [
        [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)) for _ in range(4)]
        for _ in range(4)
    ]


CAL_MATRIX = _calibration_matrix()

SETUP_SAMPLES = 21
SPAWN_SAMPLES = 5


def pin_to_one_cpu() -> None:
    """Run this process, and the interpreters it starts, on one CPU, so that
    the calibration runs on the CPU that does the work it brackets, also when
    that work is a CLI subprocess."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


def _spawn(code: str) -> tuple[float, str]:
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=60
    )
    wall = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"child interpreter failed: {proc.stderr.strip()}")
    return wall, proc.stdout


def measure_setup() -> float:
    """Median time to import skewres in a fresh interpreter, at the
    reference host speed.

    The first import of a checkout also writes the bytecode cache; it is run
    once before the samples so that every sample sees the same state.
    """
    code = "import time; t = time.perf_counter(); import skewres; print(time.perf_counter() - t)"
    _spawn(code)
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = calibrate()
        import_s = float(_spawn(code)[1])
        samples.append(import_s * reference_scale(before, calibrate()))
    return statistics.median(samples)


def measure_spawns() -> tuple[float, float]:
    """Median wall time of a bare interpreter and of `import skewres.cli`."""
    _spawn("import skewres.cli")
    interp = statistics.median(_spawn("pass")[0] for _ in range(SPAWN_SAMPLES))
    imp = statistics.median(_spawn("import skewres.cli")[0] for _ in range(SPAWN_SAMPLES))
    return interp, imp


def percentile(values: list, q: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(values: list) -> tuple[int, float]:
    """p90 when at least 10 samples lie beyond it, else the highest
    percentile that has 10 beyond it."""
    for pct in range(90, 0, -1):
        v = percentile(values, pct / 100)
        if sum(1 for x in values if x > v) >= 10:
            return pct, v
    return 0, min(values)


def environment() -> dict:
    from skewres.quaternion import Rational

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "rational_backend": f"{Rational.__module__}.{Rational.__name__}",
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "gc_enabled": gc.isenabled(),
        "gc_threshold": list(gc.get_threshold()),
        "commit": commit(),
    }


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


class Digest:
    """Inputs digest, outputs digest and output_bits over the fixed set."""

    def __init__(self):
        self.inputs = hashlib.sha256()
        self.outputs = hashlib.sha256()
        self.bits = 0

    def add(self, wl, req, out) -> None:
        self.inputs.update(req.text().encode())
        self.outputs.update(wl.result_text(out).encode())
        self.bits += wl.output_bits(out)

    def result(self) -> dict:
        return {
            "inputs": self.inputs.hexdigest(),
            "outputs": self.outputs.hexdigest(),
            "output_bits": self.bits,
        }


def rngs(name: str, seed: int) -> tuple[random.Random, random.Random]:
    return random.Random(f"{name}/inputs/{seed}"), random.Random(f"{name}/checks/{seed}")


def calibrate() -> float:
    """Wall time of one fixed computation that does not use skewres."""
    t0 = perf_counter()
    oracle.complex_image_det(CAL_MATRIX)
    return perf_counter() - t0


def reference_scale(before: float, after: float) -> float:
    """Factor from wall time to reference speed, from the calibrations just
    before and just after the timed work."""
    return 2 * CAL_REF_S / (before + after)


def timed_requests(wl, reqs) -> tuple[list, list, list]:
    """The results, the wall time of each request, and that time at the
    reference host speed."""
    results, lat, scaled = [], [], []
    before = calibrate()
    for req in reqs:
        t0 = perf_counter()
        try:
            out, err = wl.run(req), None
        except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
            out, err = None, exc
        lat.append(perf_counter() - t0)
        results.append((out, err))
        after = calibrate()
        scaled.append(lat[-1] * reference_scale(before, after))
        before = after
    return results, lat, scaled


def verify(wl, reqs, results, rng, digest: "Digest | None") -> int:
    failed = 0
    for req, (out, err) in zip(reqs, results):
        ok = err is None
        if ok:
            try:
                ok = wl.check(req, out, rng)
            except Exception as exc:  # noqa: BLE001 - a malformed result fails its check
                err = exc
                ok = False
        if not ok:
            failed += 1
            print(f"FAILED {wl.name} {req.text()[:300]}", file=sys.stderr)
            if err is not None:
                traceback.print_exception(err, file=sys.stderr)
        if digest is not None:
            digest.add(wl, req, out)
    return failed


def run_untraced(wl, seed: int, seconds: float) -> dict:
    """Whole cycles until `seconds` of timed requests, at least the fixed set."""
    rng_in, rng_chk = rngs(wl.name, seed)
    lat, scaled, wall, failed, cycles = [], [], 0.0, 0, 0
    digest = Digest()
    setup_s = measure_setup()
    while cycles < wl.fixed_cycles or wall < seconds:
        reqs = wl.make_cycle(rng_in)
        results, cycle_lat, cycle_scaled = timed_requests(wl, reqs)
        lat += cycle_lat
        scaled += cycle_scaled
        wall += sum(cycle_lat)
        failed += verify(wl, reqs, results, rng_chk, digest if cycles < wl.fixed_cycles else None)
        cycles += 1
    attempted = len(lat)
    pct, tail = tail_percentile(scaled)
    metrics = {
        "ops_per_s": (attempted - failed) / sum(scaled),
        "latency_p50_ms": percentile(scaled, 0.5) * 1000,
        "latency_p90_ms": tail * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "output_bits": digest.bits,
    }
    extra = {
        "failed_frac": failed / attempted,
        "samples": attempted,
        "cycles": cycles,
        "wall_s": wall,
        "host_slowdown": wall / sum(scaled),
        "wall_ops_per_s": (attempted - failed) / wall,
        "wall_latency_p50_ms": percentile(lat, 0.5) * 1000,
        "wall_latency_p90_ms": percentile(lat, pct / 100) * 1000,
        "tail_percentile": pct,
        "slot_median_ms": [
            round(statistics.median(scaled[i :: len(wl.slots)]) * 1000, 1) for i in range(len(wl.slots))
        ],
        "digests": digest.result(),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "extra": extra}


def run_traced(wl, seed: int, seed_tag: str) -> dict:
    """The fixed set with each request run untraced and then traced, then
    once more counting quaternion operations only."""
    from spans import Counter, Tracer

    rng_in, _ = rngs(wl.name, seed)
    reqs = [req for _ in range(wl.fixed_cycles) for req in wl.make_cycle(rng_in)]
    wl.run(reqs[0])  # lazy imports and first-call costs stay out of both passes
    # Untraced and traced runs of a request are back to back, so a change of
    # machine speed during the run (seconds long on a shared host) falls on
    # both sides of trace.overhead_frac alike.
    tracer = Tracer()
    untraced, traced = ([], [], []), ([], [], [])
    for req in reqs:
        plain = timed_requests(wl, [req])
        with tracer:
            spanned = timed_requests(wl, [req])
        untraced = tuple(a + b for a, b in zip(untraced, plain))
        traced = tuple(a + b for a, b in zip(traced, spanned))
    with Counter() as counter:
        counted = timed_requests(wl, reqs)
    failed, digests = 0, []
    for results, _, _ in (untraced, traced, counted):
        digest = Digest()
        failed += verify(wl, reqs, results, rngs(wl.name, seed)[1], digest)
        digests.append(digest.result())
    same = all(d == digests[0] for d in digests[1:])
    if not same:
        print(f"FAILED {wl.name}: traced and untraced outputs differ", file=sys.stderr)
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{wl.name}-{seed_tag}.csv"))
    agg = tracer.aggregate()
    interp_s, import_s = measure_spawns()
    metrics = {
        "quaternion.mul.calls": counter.counts["quaternion.mul"],
        "quaternion.inverse.calls": counter.counts["quaternion.inverse"],
    }
    for layer in _TIMED_LAYERS:
        metrics[f"{layer}.calls"] = agg["calls"].get(layer, 0)
        metrics[f"{layer}.self_s"] = agg["self_s"].get(layer, 0.0)
    metrics.update(agg["derived"])
    metrics["resultant.sylvester.self_s"] = agg["self_s"].get("resultant.sylvester", 0.0)
    for stage in ("parse", "lower", "print", "json"):
        metrics[f"exprio.{stage}.self_s"] = agg["self_s"].get(f"exprio.{stage}", 0.0)
    metrics["cli.interp_s"] = interp_s
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_frac"] = sum(traced[1]) / sum(untraced[1]) - 1
    extra = {
        "digests": digests[0],
        "digests_agree": same,
        "spans": len(tracer.parent),
        "untraced_wall_s": sum(untraced[1]),
        "traced_wall_s": sum(traced[1]),
    }
    attempted = 3 * len(reqs)
    return {"attempted": attempted, "failed": failed + (0 if same else 1), "metrics": metrics, "extra": extra}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import make_workloads

    wl = make_workloads(ROOT)[name]
    if trace:
        if name == "cli":
            wl.in_process = True  # spans need the CLI in this process
        res = run_traced(wl, seed, f"seed{seed}")
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        res = run_untraced(wl, seed, seconds)
        units = dict(END_TO_END)
    res["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()}
    res["env"] = environment()
    res.update(workload=name, seed=seed, seconds=seconds, trace=int(trace))
    return res


def report(res: dict) -> None:
    print(f"# {res['workload']} seed={res['seed']} trace={res['trace']} env={json.dumps(res['env'])}")
    for key, value in sorted(res["extra"].items()):
        print(f"#   {key}: {value}")
    for key, m in res["metrics"].items():
        print(f"{res['workload']:20s} {key:34s} {m['value']:>16.6g} {m['unit']}")


def import_skewres() -> bool:
    if not os.path.isfile(os.path.join(SRC, "skewres", "__init__.py")):
        print(f"error: no skewres package under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, SRC)
    import skewres

    where = os.path.dirname(os.path.abspath(skewres.__file__))
    if where != os.path.join(SRC, "skewres"):
        print(f"error: skewres imported from {where}, not from {SRC}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload, trace 0, one process each")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        ap.error("--workload or --all is required")
    if not import_skewres():
        return 2
    pin_to_one_cpu()
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report(res)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)
    line = {k: res[k] for k in ("attempted", "failed", "metrics")}
    print(json.dumps({"correct": res["failed"] == 0, **line}))
    return 0 if res["failed"] == 0 else 1


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT,
        )
        worst = max(worst, proc.returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
