#!/usr/bin/env python3
"""Benchmark of the ncofdm_alloc package: two workloads, one command.

    python3 perfbench/run.py --workload sweep-abc --seed 1 --seconds 50 --trace 0

Run from the root of a checkout. One process, one closed-loop client: each
op starts when the previous one has finished and been checked. The
package is imported from the checkout's `src/`; without it the benchmark
exits with code 2 and prints no result.

`--trace 0` measures the end-to-end metrics with tracing off. Op times
are gated as multiples of a fixed reference probe (`probe.py`) timed
between the ops, which takes the host's own speed drift out of them; the
raw op times in ms are printed in the report. `--trace 1`
runs each op of a fixed, seed-determined list twice, untraced and traced,
and reports the per-layer metrics and the tracing overhead; the solve
set-up probes and the CLI replays happen in that run only.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines above it are a
readable report that also carries what the JSON leaves out (the machine
stamp, `error_rate`, the raw op times: `ops_per_s`, `op_p50_ms` and
`op_p90_ms` where it has enough samples). Spans and
the full result are written under `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np  # imported before any set-up, so setup_s excludes it

from probe import probe_ns
from tracing import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
PINS = HERE / "pins.json"
SPEC = ROOT / "BENCHMARK.json"

# Set-up is repeated at least SETUP_REPEATS times and for at least
# SETUP_SECONDS (at most SETUP_MAX times); setup_s is the median.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
SETUP_MAX = 15
# The reference probe (probe.py) runs at least this often between ops,
# and for about this share of the op time since it last ran.
PROBE_INTERVAL_S = 1.0
PROBE_SHARE = 0.05
# Ops in a traced run, fixed so that node counts repeat exactly for a seed.
TRACE_OPS = {"sweep-abc": 5, "realloc-cli": 200}
# The highest percentile reported needs this many samples beyond it.
TAIL_SAMPLES = 10


class BenchError(Exception):
    """The benchmark cannot run here (no package source, no pins)."""


def import_package():
    """A fresh import of ncofdm_alloc (and its CLI) from `src/`."""
    init = SRC / "ncofdm_alloc" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"package source not found: {init}")
    for name in [n for n in sys.modules
                 if n == "ncofdm_alloc" or n.startswith("ncofdm_alloc.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    na = importlib.import_module("ncofdm_alloc")
    importlib.import_module("ncofdm_alloc.cli")
    if Path(na.__file__).resolve() != init.resolve():
        raise BenchError(f"ncofdm_alloc imported from {na.__file__}, "
                         f"not from {SRC}")
    return na


def load_pins() -> dict:
    if not PINS.is_file():
        raise BenchError(f"pins not found: {PINS}")
    return json.loads(PINS.read_text())


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_stamp() -> dict:
    """What a wall time is only comparable under. Node counts are not."""
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": commit, "source_sha256": source_digest()}


class Run:
    """Counts every checked op of a benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def checked(self, wl, index, entry, out) -> None:
        self.attempted += 1
        try:
            bad = wl.check(index, entry, out)
        except Exception as exc:  # a check that cannot even run is a failure
            bad = [f"check raised {exc!r}"]
        if bad:
            self.failures.append(f"op {index} entry {entry}: {'; '.join(bad)}")

    def op(self, wl, index, entry, clock=time.perf_counter_ns):
        """One op, timed, then checked. Returns its time in ns, or None
        when the op raised."""
        t0 = clock()
        try:
            out = wl.op(index, entry)
        except Exception as exc:  # counted, and the run goes on
            self.attempted += 1
            self.failures.append(f"op {index} entry {entry}: raised {exc!r}")
            return None
        elapsed = clock() - t0
        self.checked(wl, index, entry, out)
        return elapsed


def set_up(name: str, pins: dict, run: Run):
    """Package import, the workload's configs and one untimed warm-up op.
    Returns the workload and the seconds all of that took."""
    t0 = time.perf_counter()
    na = import_package()
    wl = WORKLOADS[name](na, OUT / "work" / name, pins)
    entry = wl.warmup_entry()
    out = wl.op(-1, entry)
    seconds = time.perf_counter() - t0
    run.checked(wl, -1, entry, out)
    return wl, seconds


def percentile_or_none(samples_ms, q):
    """The q-th percentile, or None when fewer than TAIL_SAMPLES samples
    lie beyond it."""
    if len(samples_ms) * (100 - q) / 100 < TAIL_SAMPLES:
        return None
    return statistics.quantiles(samples_ms, n=100)[q - 1]


def close_batch(batch, probes, lat_ns, rel, ops) -> None:
    """Run a group of probes and file the ops run since the previous
    group. A group takes about PROBE_SHARE of the batch's op time, and at
    least one probe."""
    batch_ns = sum(took for _, _, took in batch)
    group = [probe_ns()]
    while len(group) < PROBE_SHARE * batch_ns / statistics.fmean(group):
        group.append(probe_ns())
    ref = statistics.fmean(probes[-1] + group)
    probes.append(group)
    for index, entry, took in batch:
        lat_ns.append(took)
        rel.append(took / ref)
        ops.append((index, entry, took * 1e-6, took / ref))
    batch.clear()


def end_to_end(name, seed, seconds, pins, max_ops=None, setups=None):
    """Set-ups, then the timed ops, tracing off. `setups` fixes the number
    of set-ups (the self-test uses 1); by default it follows SETUP_*."""
    run = Run()
    setup_times = []
    while True:
        wl, took = set_up(name, pins, run)
        setup_times.append(took)
        n = len(setup_times)
        if setups is not None:
            if n >= setups:
                break
        elif n >= SETUP_MAX or (n >= SETUP_REPEATS
                                and sum(setup_times) >= SETUP_SECONDS):
            break
    # The reference probe runs before the first op and then after any op
    # that ends PROBE_INTERVAL_S or more after the last probe; each op's
    # time is divided by the mean of the probe groups around it.
    lat_ns, rel, ops = [], [], []
    probes = [[probe_ns()]]
    batch = []
    last_probe = start = time.perf_counter()
    for index, entry in wl.plan(seed):
        if max_ops is not None:
            if index >= max_ops:
                break
        elif index and (time.perf_counter() - start) * (index + 1) / index > seconds:
            break  # another op would likely end after `seconds`
        took = run.op(wl, index, entry)
        if took is not None:
            batch.append((index, entry, took))
        if batch and time.perf_counter() - last_probe >= PROBE_INTERVAL_S:
            close_batch(batch, probes, lat_ns, rel, ops)
            last_probe = time.perf_counter()
    if batch:
        close_batch(batch, probes, lat_ns, rel, ops)
    lat_ms = [t * 1e-6 for t in lat_ns]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_rel": (statistics.median(rel) if rel else 0.0, "probe"),
        "op_mean_rel": (statistics.fmean(rel) if rel else 0.0, "probe"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    extra = {
        "error_rate": len(run.failures) / run.attempted,
        "ops_per_s": len(lat_ns) / (sum(lat_ns) * 1e-9) if lat_ns else None,
        "op_p50_ms": statistics.median(lat_ms) if lat_ms else None,
        "op_p90_ms": percentile_or_none(lat_ms, 90) if lat_ms else None,
        "op_samples": len(lat_ms),
        "probe_p50_ms": statistics.median(p for g in probes for p in g) * 1e-6,
        "probe_samples": sum(len(g) for g in probes),
        "setup_samples_s": setup_times,
        "op_time_s": sum(lat_ns) * 1e-9,
        # (op index, pool entry, latency in ms, latency in probes) per op
        "ops": ops,
    }
    return run, metrics, extra


def traced(name, seed, pins, max_ops=None):
    run = Run()
    wl, _ = set_up(name, pins, run)
    count = TRACE_OPS[name] if max_ops is None else min(max_ops, TRACE_OPS[name])
    plan = []
    for index, entry in wl.plan(seed):
        if index >= count:
            break
        plan.append((index, entry))
    # Each op runs once untraced and once traced, alternating which goes
    # first, so that drift and warm caches do not count as overhead.
    tracer = Tracer(wl.na)
    untraced_ns, traced_ns = [], []
    for index, entry in plan:
        for with_tracing in ((False, True) if index % 2 == 0 else (True, False)):
            if with_tracing:
                tracer.op = index
                tracer.install()
                try:
                    traced_ns.append(run.op(wl, index, entry, clock=tracer.now))
                finally:
                    tracer.uninstall()
            else:
                untraced_ns.append(run.op(wl, index, entry))

    pairs = [(u, t) for u, t in zip(untraced_ns, traced_ns)
             if u is not None and t is not None]
    base = sum(u for u, _ in pairs)
    with_tracing = sum(t for _, t in pairs)
    values = tracer.per_layer(len(plan))
    values["trace.ops"] = len(plan)
    values["trace.spans"] = len(tracer.spans) / len(plan)
    values["trace.untraced_op_ms"] = base * 1e-6 / max(len(pairs), 1)
    values["trace.op_ms"] = with_tracing * 1e-6 / max(len(pairs), 1)
    values["trace.overhead_pct"] = (100.0 * (with_tracing - base) / base
                                    if base else 0.0)
    extra = {"error_rate": len(run.failures) / run.attempted,
             "plan": plan, "traced": tracer.dump()}
    return run, values, extra


def declared(spec_key: str) -> list[dict]:
    return json.loads(SPEC.read_text())[spec_key]


def measure(name, seed, seconds, trace, pins=None, max_ops=None,
            setups=None):
    """Run one benchmark and return (result JSON object, report dict)."""
    pins = load_pins() if pins is None else pins
    if trace:
        run, values, extra = traced(name, seed, pins, max_ops=max_ops)
        units = {m["name"]: m["unit"] for m in declared("per_layer")}
        metrics = {k: {"value": float(values[k]), "unit": u}
                   for k, u in units.items()}
        all_values = values
    else:
        run, values, extra = end_to_end(name, seed, seconds, pins,
                                        max_ops=max_ops, setups=setups)
        metrics = {k: {"value": float(v), "unit": u}
                   for k, (v, u) in values.items()}
        all_values = {k: v for k, (v, _) in values.items()}
    result = {"correct": not run.failures, "attempted": run.attempted,
              "failed": len(run.failures), "metrics": metrics}
    report = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "machine": machine_stamp(),
              "values": all_values, "failures": run.failures, **extra}
    return result, report


def print_report(result, report) -> None:
    print(f"# perfbench workload={report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']} trace={report['trace']}")
    print("# machine " + json.dumps(report["machine"], sort_keys=True))
    for key, m in result["metrics"].items():
        print(f"# {key:34s} {m['value']:.6g} {m['unit']}")
    print(f"# {'error_rate':34s} {report['error_rate']:.6g} "
          f"({result['failed']} failed / {result['attempted']} attempted)")
    if not report["trace"]:
        n = report["op_samples"]
        for key, unit in (("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
                          ("op_p90_ms", "ms")):
            value = report[key]
            print(f"# {key:34s} " + (f"{value:.6g} {unit} (n={n}, not gated)"
                  if value is not None else f"not reported: n={n}"
                  + (f" leaves fewer than {TAIL_SAMPLES} samples beyond p90"
                     if key == "op_p90_ms" else "")))
        print(f"# {'probe_p50_ms':34s} {report['probe_p50_ms']:.6g} ms "
              f"(n={report['probe_samples']})")
    for line in report["failures"][:20]:
        print(f"# FAILED {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, report = measure(args.workload, args.seed, args.seconds,
                                 args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({"result": result, **report}, indent=1, default=str) + "\n")
    print_report(result, report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
