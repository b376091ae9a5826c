#!/usr/bin/env python3
"""Pin the outputs of every pool entry of every workload.

    python3 perfbench/pin.py --out perfbench/pins.json

The pins are the benchmark's reference outputs: `maxmin` values as
`float.hex` and result-CSV digests. They are written once, at the commit
whose outputs are the reference, and the benchmark compares every op with
them. This script refuses to overwrite an existing file unless given
`--force`, so that a pin is never replaced by accident.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import run
from workloads import ReallocCLI, SweepABC, pool


def pin_sweep(na, log):
    wl = SweepABC(na, run.OUT / "pin", {})
    nodes = []
    original = na.scenario.solve

    def counting(*args, **kwargs):
        res = original(*args, **kwargs)
        nodes[-1] += res.nodes_explored
        return res

    out = {}
    na.scenario.solve = counting
    try:
        for entry in pool(wl.name):
            nodes.append(0)
            t0 = time.perf_counter()
            curve = wl.op(0, entry)
            if not curve.all_proven:
                raise SystemExit(f"sweep-abc entry {entry}: not proven")
            out[str(entry)] = {"curve": [float(v).hex() for v in curve.values[0]],
                               "nodes": nodes[-1]}
            log(f"sweep-abc {entry}: nodes={nodes[-1]} "
                f"{time.perf_counter() - t0:.2f} s")
    finally:
        na.scenario.solve = original
    return out


def pin_realloc(na, log):
    wl = ReallocCLI(na, run.OUT / "pin" / "realloc-cli", {})
    out = {}
    for entry in pool(wl.name):
        pin = {}
        for index in (0, 1):
            codes = wl.op(index, entry)
            if codes != [0, 0, 0]:
                raise SystemExit(f"realloc-cli entry {entry}: exit {codes}")
            digests = wl.digests()
            if None in digests.values():
                raise SystemExit(f"realloc-cli entry {entry}: missing output")
            realloc = {k: v for k, v in digests.items() if k.startswith("realloc/")}
            common = {k: v for k, v in digests.items() if k not in realloc}
            if pin.setdefault("common", common) != common:
                raise SystemExit(f"realloc-cli entry {entry}: solve output "
                                 "differs between two runs")
            pin["realloc-" + wl.new_interferer(index)] = realloc
        out[str(entry)] = pin
    log(f"realloc-cli: {len(out)} entries")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--force", action="store_true",
                        help="overwrite an existing pin file")
    args = parser.parse_args(argv)
    path = Path(args.out)
    if path.exists() and not args.force:
        print(f"{path} exists; pins are not replaced without --force",
              file=sys.stderr)
        return 2

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    na = run.import_package()
    pins = {"pinned_at": run.machine_stamp(),
            "realloc-cli": pin_realloc(na, log),
            "sweep-abc": pin_sweep(na, log)}
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
