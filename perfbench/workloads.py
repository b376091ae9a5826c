"""The benchmark's two workloads: pinned input pools, one op, its check.

Every input comes from a fixed pool whose outputs were pinned at the seed
commit (`pins.json`, written by `pin.py`). `--seed` picks the order and
the subset of the pool a run uses, so the same seed always gives the same
inputs, and every output can be compared bit for bit with its pin.

An op's time covers only the calls into the package; the checks that
read outputs back and compare them with the pins run after the clock is
stopped.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
from pathlib import Path

import numpy as np

SWEEP_B = tuple(range(3, 13))
SWEEP_ACTIVE = ("A", "B", "C")

SOLVE_CSVS = ("allocation.csv", "rates.csv", "channel_rates.csv")
GUARD_CSVS = ("guarded_allocation.csv", "guardband_report.csv",
              "guardband_deltas.csv")
REALLOC_CSVS = ("realloc.csv",)


def pool(name: str) -> list:
    """Pool entries of a workload, in pin order. An entry is the integer
    that seeds its fading draw."""
    return {"sweep-abc": list(range(40)),
            "realloc-cli": list(range(1, 129))}[name]


def sweep_rng(entry: int) -> np.random.Generator:
    """A fresh generator for one pool entry of `sweep-abc`."""
    return np.random.default_rng((1000, entry))


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    """One named workload. `op` runs a single timed unit of work on a pool
    entry and returns what `check` needs; `check` returns a list of
    failure reasons, empty when the op's outputs match their pins."""

    name = ""

    def __init__(self, na, work_dir: Path, pins: dict):
        self.na = na
        self.pins = pins.get(self.name, {})

    def timed_entries(self) -> list:
        """The pool entries a run's timed ops draw from."""
        return pool(self.name)

    def plan(self, seed: int):
        """Endless (op index, pool entry) pairs for a run with this seed:
        the timed entries in a seeded order, cycled."""
        entries = self.timed_entries()
        order = np.random.default_rng((seed, len(self.name))).permutation(
            len(entries))
        for i in itertools.count():
            yield i, entries[order[i % len(entries)]]

    def warmup_entry(self) -> int:
        return pool(self.name)[0]

    def op(self, index: int, entry: int):
        raise NotImplementedError

    def check(self, index: int, entry: int, out) -> list[str]:
        raise NotImplementedError


class SweepABC(Workload):
    """One op: the full b = 3..12 trade-off curve for one fading draw with
    interferers A, B and C active, serially (`workers=1`).

    Op cost depends mostly on how many span bounds below 12 need their own
    solve, so the pinned node counts of the pool fall into a few tight
    classes, 0.6 to 1.6 million nodes (2.4 to 8 s an op). A run holds only
    about a dozen ops, and its median would jump between classes, so the
    timed ops come from one class: the entries pinned at 700 to 750
    thousand nodes, which differ by under 3 %. The warm-up op is the
    cheapest entry of the pool, outside that class."""

    name = "sweep-abc"
    timed_nodes = (700_000, 750_000)

    def __init__(self, na, work_dir, pins):
        super().__init__(na, work_dir, pins)
        self.cfg = na.builtin_scenario("grid4x12")

    def timed_entries(self):
        low, high = self.timed_nodes
        return [e for e in pool(self.name)
                if low <= self.pins[str(e)]["nodes"] < high]

    def warmup_entry(self):
        return min(pool(self.name), key=lambda e: self.pins[str(e)]["nodes"])

    def op(self, index, entry):
        return self.na.sweep(self.cfg, SWEEP_B, realizations=1,
                             rng=sweep_rng(entry),
                             active_interferers=set(SWEEP_ACTIVE), workers=1)

    def check(self, index, entry, curve):
        bad = []
        row = [float(v) for v in curve.values[0]]
        if not curve.all_proven:
            bad.append("not proven optimal")
        if any(b < a for a, b in zip(row, row[1:])):
            bad.append("curve decreases in b")
        if [v.hex() for v in row] != self.pins[str(entry)]["curve"]:
            bad.append("maxmin differs from pin")
        return bad


class ReallocCLI(Workload):
    """One op: the operator's reaction path through in-process `cli.main`
    on one fading seed -- solve, guardband on solve's two CSVs, then
    realloc with interferer A on even op indices and C on odd ones."""

    name = "realloc-cli"

    def __init__(self, na, work_dir, pins):
        super().__init__(na, work_dir, pins)
        self.dirs = {k: work_dir / k for k in ("solve", "guard", "realloc")}

    @staticmethod
    def new_interferer(index: int) -> str:
        return "AC"[index % 2]

    def argvs(self, index, entry):
        common = ["--scenario", "grid4x12", "--seed", str(entry), "--b", "4"]
        solve_dir, guard_dir = self.dirs["solve"], self.dirs["guard"]
        return [
            ["solve", *common, "--interferers", "none",
             "--out-dir", str(solve_dir)],
            ["guardband", "--allocation", str(solve_dir / "allocation.csv"),
             "--rates", str(solve_dir / "channel_rates.csv"),
             "--out-dir", str(guard_dir)],
            ["realloc", *common, "--baseline-interferers", "none",
             "--new-interferers", self.new_interferer(index),
             "--out-dir", str(self.dirs["realloc"])],
        ]

    def op(self, index, entry):
        codes = []
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in self.argvs(index, entry):
                codes.append(self.na.cli.main(argv))
        return codes

    def digests(self):
        """Digest of every result CSV the op wrote, None where it is
        missing. The output directories are emptied afterwards, so the
        next op cannot pass on a file this one left behind."""
        out = {}
        for key, names in (("solve", SOLVE_CSVS), ("guard", GUARD_CSVS),
                           ("realloc", REALLOC_CSVS)):
            for fname in names:
                path = self.dirs[key] / fname
                out[f"{key}/{fname}"] = sha256_file(path) if path.is_file() else None
            for path in self.dirs[key].glob("*"):
                path.unlink()
        return out

    def check(self, index, entry, codes):
        bad = [f"exit code {c}" for c in codes if c != 0]
        pin = self.pins[str(entry)]
        got = self.digests()
        want = dict(pin["common"])
        want.update(pin["realloc-" + self.new_interferer(index)])
        for key in sorted(want):
            if got.get(key) != want[key]:
                bad.append(f"{key} differs from its pin")
        return bad


WORKLOADS = {cls.name: cls for cls in (SweepABC, ReallocCLI)}
