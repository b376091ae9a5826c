"""Spans around the calls into each layer of ncofdm_alloc, kept in memory.

The tracer wraps the package's functions where the calling module looks
them up (the package's own modules import names with `from .x import y`,
so each importing module holds its own reference). Nothing in `src/` is
edited; `uninstall` puts every original back.

A span is `[name, start_ns, end_ns, parent, op]`. Its layer is the part
of the name before the first dot. Two kinds of extra work run after a
span closes, with the tracer's clock paused so that no span or op time
includes them:

* after each solve, a probe `solve(inst, node_budget=0)` on the same
  instance and warm start: table build, warm-start heuristics and
  `evaluate_rates`, stopping at node 1. Its time is the solve's set-up
  time; the rest of the solve is search.
* after each CLI command, a replay of the library calls it made, with the
  same arguments and tracing off. The command's span minus the replay is
  the CLI's own time: parsing, hashing, CSV and manifest I/O.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("scenario", "solver", "model", "guardband", "cli")
CLI_COMMANDS = ("solve", "guardband", "realloc")
SPAN_B = tuple(range(3, 13))

# The spans whose calls and busy time are reported, in report order.
REPORTED_SPANS = (
    "scenario.sweep", "scenario.realize_gains",
    "scenario.instance_from_gains", "scenario.reallocation_experiment",
    "solver.solve", "model.evaluate_rates",
    "guardband.insert_guardbands", "guardband.validate_guardbands",
    "cli.solve", "cli.guardband", "cli.realloc",
)


def _cli_span_name(args):
    """`cli.main(argv)` spans are named after the command, `argv[0]`."""
    return "cli." + str(args[0][0])


def _targets(na):
    """(namespace, attribute, span name) for every call site the tracer
    wraps: the package API the benchmark calls, and the references the
    package's modules hold to each other's functions."""
    scenario, solver, cli = na.scenario, na.solver, na.cli
    return [
        (na, "sweep", "scenario.sweep"),
        (scenario, "realize_gains", "scenario.realize_gains"),
        (scenario, "instance_from_gains", "scenario.instance_from_gains"),
        (scenario, "solve", "solver.solve"),
        (scenario, "evaluate_rates", "model.evaluate_rates"),
        (solver, "evaluate_rates", "model.evaluate_rates"),
        (cli, "main", _cli_span_name),
        (cli, "realize_instance", "scenario.realize_instance"),
        (cli, "reallocation_experiment", "scenario.reallocation_experiment"),
        (cli, "solve", "solver.solve"),
        (cli, "insert_guardbands", "guardband.insert_guardbands"),
        (cli, "validate_guardbands", "guardband.validate_guardbands"),
    ]


def _out_dir(argv) -> Path | None:
    if "--out-dir" in argv:
        return Path(argv[argv.index("--out-dir") + 1])
    return None


class Tracer:
    def __init__(self, na):
        self.na = na
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.active = False
        self.paused_ns = 0
        self._saved = []
        self.solves: list[dict] = []        # one record per traced solve
        self.replays: dict[int, list] = defaultdict(list)
        self.cli_runs: list[dict] = []      # one record per CLI command
        self.nulled = 0

    # -- clock -----------------------------------------------------------

    def now(self) -> int:
        """Nanoseconds on a clock that stands still while paused."""
        return time.perf_counter_ns() - self.paused_ns

    @contextlib.contextmanager
    def paused(self):
        """Stop the clock and record nothing (wrappers pass straight
        through, so no probe or replay can nest a second pause)."""
        self.active = False
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self.paused_ns += time.perf_counter_ns() - t0
            self.active = True

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, self.now(), None, parent, self.op])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = self.now()
        self.stack.pop()

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            label = name(args) if callable(name) else name
            parent = self.stack[-1] if self.stack else None
            if parent is not None and self.spans[parent][0].startswith("cli."):
                self.replays[parent].append((fn, args, kwargs))
            sid = self.open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            with self.paused():
                self._after(sid, label, fn, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        for ns, attr, name in _targets(self.na):
            fn = getattr(ns, attr)
            self._saved.append((ns, attr, fn))
            setattr(ns, attr, self._wrap(fn, name))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for ns, attr, fn in reversed(self._saved):
            setattr(ns, attr, fn)
        self._saved.clear()

    # -- work done after a span, clock paused ------------------------------

    def _after(self, sid, label, fn, args, kwargs, result):
        if label == "solver.solve":
            self._probe_solve(fn, args, kwargs, result)
        elif label == "guardband.insert_guardbands":
            self.nulled += len(result.nulled)
        elif label.startswith("cli."):
            self._replay_cli(sid, label, args[0], result)

    def _probe_solve(self, solve, args, kwargs, result):
        inst = args[0]
        t0 = time.perf_counter_ns()
        probe = solve(inst, node_budget=0,
                      warm_start=kwargs.get("warm_start"))
        setup_ns = time.perf_counter_ns() - t0
        self.solves.append({
            "op": self.op, "b": inst.span_bound,
            "nodes": result.nodes_explored,
            "proven": bool(result.proven_optimal),
            "warm_hit": probe.maxmin == result.maxmin,
            "setup_ns": setup_ns,
        })

    def _replay_cli(self, sid, label, argv, code):
        replay_ns = 0
        for fn, a, kw in self.replays.pop(sid, []):
            t0 = time.perf_counter_ns()
            fn(*a, **kw)
            replay_ns += time.perf_counter_ns() - t0
        out = _out_dir(argv)
        files = [p for p in out.iterdir() if p.is_file()] if out else []
        self.cli_runs.append({
            "op": self.op, "command": label, "span": sid,
            "replay_ns": replay_ns, "exit_code": code,
            "files": len(files),
            "bytes": sum(p.stat().st_size for p in files),
        })

    # -- per-layer figures -----------------------------------------------

    def per_layer(self, ops: int) -> dict[str, float]:
        """Per-layer metrics, per traced op unless the name says otherwise.

        busy time of a layer sums its outermost spans (a layer span nested
        in a span of the same layer is not counted twice); self time sums,
        over the layer's spans, duration minus the direct children's."""
        per_op = 1.0 / ops
        dur = [s[2] - s[1] for s in self.spans]
        child_ns = [0] * len(self.spans)
        for sid, s in enumerate(self.spans):
            if s[3] is not None:
                child_ns[s[3]] += dur[sid]

        def layer(name):
            return name.split(".", 1)[0]

        def has_layer_ancestor(sid):
            lay, parent = layer(self.spans[sid][0]), self.spans[sid][3]
            while parent is not None:
                if layer(self.spans[parent][0]) == lay:
                    return True
                parent = self.spans[parent][3]
            return False

        calls, busy = defaultdict(int), defaultdict(int)
        lay_calls, lay_busy, lay_self = (defaultdict(int) for _ in range(3))
        for sid, s in enumerate(self.spans):
            name = s[0]
            calls[name] += 1
            busy[name] += dur[sid]
            lay = layer(name)
            lay_calls[lay] += 1
            lay_self[lay] += dur[sid] - child_ns[sid]
            if not has_layer_ancestor(sid):
                lay_busy[lay] += dur[sid]

        ms = 1e-6 * per_op
        m: dict[str, float] = {}
        for name in REPORTED_SPANS:
            m[f"{name}.calls"] = calls[name] * per_op
            m[f"{name}.busy_ms"] = busy[name] * ms
        for lay in LAYERS:
            m[f"{lay}.calls"] = lay_calls[lay] * per_op
            m[f"{lay}.busy_ms"] = lay_busy[lay] * ms
            m[f"{lay}.self_ms"] = lay_self[lay] * ms

        solves = self.solves
        setup_ns = sum(r["setup_ns"] for r in solves)
        search_ns = busy["solver.solve"] - setup_ns
        nodes = sum(r["nodes"] for r in solves)
        m["solver.setup.busy_ms"] = setup_ns * ms
        m["solver.search.busy_ms"] = search_ns * ms
        m["solver.nodes"] = nodes
        for b in SPAN_B:
            m[f"solver.nodes.b{b}"] = sum(
                r["nodes"] for r in solves if r["b"] == b) * per_op
        m["solver.nodes_per_s"] = nodes / (search_ns * 1e-9) if search_ns > 0 else 0.0
        m["solver.warmstart_base"] = len(solves)
        m["solver.warmstart_hit_ratio"] = (
            sum(r["warm_hit"] for r in solves) / len(solves) if solves else 0.0)
        m["solver.proven_ratio"] = (
            sum(r["proven"] for r in solves) / len(solves) if solves else 0.0)

        m["guardband.nulled"] = self.nulled * per_op
        for cmd in CLI_COMMANDS:
            runs = [r for r in self.cli_runs if r["command"] == f"cli.{cmd}"]
            own = sum(dur[r["span"]] - r["replay_ns"] for r in runs)
            m[f"cli.{cmd}.self_ms"] = own * ms
        m["cli.bytes_written"] = sum(r["bytes"] for r in self.cli_runs) * per_op
        m["cli.files_written"] = sum(r["files"] for r in self.cli_runs) * per_op
        return m

    def dump(self) -> dict:
        return {"spans": [{"name": s[0], "start_ns": s[1], "end_ns": s[2],
                           "parent": s[3], "op": s[4]} for s in self.spans],
                "solves": self.solves, "cli_runs": self.cli_runs}
