#!/usr/bin/env python3
"""Quick self-test of the benchmark (under a minute on two cores).

    python3 perfbench/selftest.py

For each workload it runs a handful of ops, untraced and traced, and checks
that every metric BENCHMARK.json names is reported with its unit, that the
traced run reports no metric BENCHMARK.json leaves out, and that no op
fails on the pinned code. It then corrupts the pins and checks that every
op is reported as failed. Exits 0 when all checks hold.
"""

from __future__ import annotations

import copy
import json
import sys

import run
from workloads import WORKLOADS

QUICK_OPS = 2


def corrupt(pins: dict, name: str) -> dict:
    """The same pins with every entry of one workload made wrong."""
    bad = copy.deepcopy(pins)
    for pin in bad[name].values():
        if "curve" in pin:
            pin["curve"][-1] = (float.fromhex(pin["curve"][-1]) * 2).hex()
        else:
            pin["common"]["solve/allocation.csv"] = "0" * 64
    return bad


def main() -> int:
    spec = json.loads(run.SPEC.read_text())
    pins = run.load_pins()
    problems = []

    def expect(cond, msg):
        print(("ok   " if cond else "FAIL ") + msg, flush=True)
        if not cond:
            problems.append(msg)

    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, report = run.measure(name, seed=1, seconds=0, trace=trace,
                                         pins=pins, max_ops=QUICK_OPS, setups=1)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            expect(got == want, f"{name} trace={trace}: metrics and units "
                   f"match BENCHMARK.json {key}")
            if trace:
                extra = set(report["values"]) - set(want)
                expect(not extra, f"{name}: no undeclared per-layer metric "
                       f"{sorted(extra)}")
            expect(result["attempted"] >= QUICK_OPS and result["failed"] == 0
                   and result["correct"] and report["error_rate"] == 0,
                   f"{name} trace={trace}: error_rate 0 "
                   f"({result['failed']}/{result['attempted']}) "
                   f"{report['failures'][:3]}")
            if not trace:
                expect(all(m["value"] > 0 for m in result["metrics"].values()),
                       f"{name}: every end-to-end metric is above 0")

        result, _ = run.measure(name, seed=1, seconds=0, trace=0,
                                pins=corrupt(pins, name), max_ops=1, setups=1)
        expect(not result["correct"]
               and result["failed"] == result["attempted"] >= 2,
               f"{name}: a wrong pin fails every op "
               f"({result['failed']}/{result['attempted']})")

    print("selftest " + ("passed" if not problems else
                         f"FAILED: {len(problems)} check(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
