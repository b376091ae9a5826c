"""Command-line front end: solve, sweep, realloc, guardband.

Every command writes CSV result files plus a run_manifest.json sidecar.
Result CSVs are byte-identical across reruns with the same config, seed
and command; the manifest carries timestamps and is exempt. Rates are
written in Mbps with 6 significant digits.

Exit codes: 0 success (proven optimal), 3 node budget exhausted (results
still written), 2 input error (nothing written).
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .guardband import GUARDBAND_MODES, insert_guardbands, validate_guardbands
from .model import AllocationMatrix, RateResult, ValidationError
from .scenario import (
    BUILTIN_SCENARIOS,
    builtin_scenario,
    read_scenario,
    realize_instance,
    reallocation_experiment,
    resolve_interferers,
    scenario_to_dict,
    sweep,
)
from .solver import DEFAULT_NODE_BUDGET, solve

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_BUDGET_EXHAUSTED = 3


def _format_mbps(bits_per_s) -> str:
    return f"{float(bits_per_s) / 1e6:.6g}"


def _parse_interferers(raw: str | None):
    """None keeps the config's full set; 'none' or '' selects no interferers;
    otherwise a comma-separated list of names."""
    if raw is None:
        return None
    raw = raw.strip()
    if raw.lower() in ("", "none"):
        return frozenset()
    return frozenset(part.strip() for part in raw.split(",") if part.strip())


def _parse_b_list(raw: str):
    try:
        return [int(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad span bound list {raw!r}") from exc


def _load_config(args):
    """Resolve --config / --scenario plus the common overrides."""
    if getattr(args, "config", None) and getattr(args, "scenario", None):
        raise ValidationError("give either --config or --scenario, not both")
    if getattr(args, "config", None):
        cfg, config_bytes = read_scenario(args.config)
    elif getattr(args, "scenario", None):
        cfg = builtin_scenario(args.scenario)
        config_bytes = json.dumps(scenario_to_dict(cfg),
                                  sort_keys=True).encode()
    else:
        raise ValidationError("a --config file or a --scenario name is required")
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, rng_seed=args.seed)
    if getattr(args, "b", None) is not None:
        cfg = replace(cfg, span_bound=args.b)
    cfg.validate(strict_bounds=bool(getattr(args, "strict_bounds", False)))
    return cfg, hashlib.sha256(config_bytes).hexdigest()


def _write_manifest(out_dir: Path, args, hashes: dict, seed, outputs,
                    **facts):
    """run_manifest.json; `hashes` names the digests of the inputs read,
    `facts` any run outcome kept out of the result CSVs."""
    manifest = {
        "tool": "ncofdm-alloc",
        "version": __version__,
        "command": list(args.argv),
        **hashes,
        "seed": seed,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": sorted(outputs),
        **facts,
    }
    path = out_dir / "run_manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")


def _write_csv(path: Path, header, rows):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_link_matrix_csv(path: Path, link_ids, values, cell):
    """One row per link, one column per channel, each entry as `cell`."""
    _write_csv(path, ["link"] + [f"ch{m + 1}" for m in range(values.shape[1])],
               ([link_id] + [cell(x) for x in row]
                for link_id, row in zip(link_ids, values)))


def _write_link_column_csv(path: Path, link_ids, column: str, values):
    """One row per link: its id and one value in Mbps."""
    _write_csv(path, ["link", column],
               ([link_id, _format_mbps(v)]
                for link_id, v in zip(link_ids, values)))


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    cfg, config_sha = _load_config(args)
    active = resolve_interferers(cfg, _parse_interferers(args.interferers))
    inst = realize_instance(cfg, active)
    result = solve(inst, node_budget=args.node_budget)

    out = _out_dir(args)
    link_ids = [link.id for link in cfg.links]
    _write_link_matrix_csv(out / "allocation.csv", link_ids,
                           result.allocation.entries, int)
    _write_link_column_csv(out / "rates.csv", link_ids, "rate_mbps",
                           result.rates.per_link)
    _write_link_matrix_csv(out / "channel_rates.csv", link_ids,
                           result.rates.per_channel, _format_mbps)
    _write_manifest(out, args, {"config_sha256": config_sha}, cfg.rng_seed,
                    ["allocation.csv", "rates.csv", "channel_rates.csv"])
    print(f"maxmin_mbps={_format_mbps(result.maxmin)} "
          f"proven_optimal={result.proven_optimal} "
          f"nodes={result.nodes_explored} "
          f"wall_time_s={result.wall_time:.3f} "
          f"b={cfg.span_bound} interferers={','.join(sorted(active)) or 'none'}")
    return EXIT_OK if result.proven_optimal else EXIT_BUDGET_EXHAUSTED


def cmd_sweep(args) -> int:
    cfg, config_sha = _load_config(args)
    active = resolve_interferers(cfg, _parse_interferers(args.interferers))
    if args.b_list is not None:
        b_values = _parse_b_list(args.b_list)
    else:
        lower = cfg.min_span_bound if args.strict_bounds else 1
        b_values = list(range(lower, cfg.num_channels + 1))
    curve = sweep(cfg, b_values, args.realizations,
                  active_interferers=active,
                  strict_bounds=args.strict_bounds,
                  node_budget=args.node_budget,
                  workers=args.workers)

    out = _out_dir(args)
    _write_csv(out / "tradeoff.csv",
               ["b", "mean_maxmin_mbps", "std_maxmin_mbps"],
               ([b, _format_mbps(mean), _format_mbps(std)]
                for b, mean, std in zip(curve.b_values, curve.mean_maxmin,
                                        curve.std_maxmin)))
    _write_manifest(out, args, {"config_sha256": config_sha}, cfg.rng_seed,
                    ["tradeoff.csv"])
    print(f"sweep b={list(curve.b_values)} realizations={curve.realizations} "
          f"all_proven={curve.all_proven}")
    return EXIT_OK if curve.all_proven else EXIT_BUDGET_EXHAUSTED


def cmd_realloc(args) -> int:
    cfg, config_sha = _load_config(args)
    baseline = resolve_interferers(cfg,
                                   _parse_interferers(args.baseline_interferers))
    new = resolve_interferers(cfg, _parse_interferers(args.new_interferers))
    result = reallocation_experiment(cfg, baseline, new,
                                     node_budget=args.node_budget)

    out = _out_dir(args)
    link_ids = [link.id for link in cfg.links]
    conditions = [
        ("baseline", result.baseline.rates.per_link),
        ("frozen", result.frozen_rates.per_link),
        ("reallocated", result.reallocated.rates.per_link),
    ]
    _write_csv(out / "realloc.csv", ["condition", "link", "rate_mbps"],
               ([condition, link_id, _format_mbps(rate)]
                for condition, per_link in conditions
                for link_id, rate in zip(link_ids, per_link)))
    _write_manifest(out, args, {"config_sha256": config_sha}, cfg.rng_seed,
                    ["realloc.csv"],
                    frozen_still_optimal=result.frozen_still_optimal)
    print(f"baseline_min_mbps={_format_mbps(result.baseline_min)} "
          f"frozen_min_mbps={_format_mbps(result.frozen_min)} "
          f"reallocated_min_mbps={_format_mbps(result.reallocated_min)}")
    proven = (result.baseline.proven_optimal
              and result.reallocated.proven_optimal)
    return EXIT_OK if proven else EXIT_BUDGET_EXHAUSTED


def _read_matrix_csv(path: Path, kind):
    """(link ids, `kind` built from the value rows, SHA-256 of the bytes
    parsed) from a link-by-channel CSV. The file is read once, and every
    error, `kind`'s own included, names it."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    try:
        rows = list(csv.reader(io.StringIO(data.decode(), newline="")))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not valid UTF-8") from exc
    if not rows or len(rows) < 2:
        raise ValidationError(f"{path}: no data rows")
    header = rows[0]
    if not header or header[0] != "link":
        raise ValidationError(f"{path}: first column must be 'link'")
    width = len(header) - 1
    if not width:
        raise ValidationError(f"{path}: no channel columns")
    ids, values = [], []
    for row in rows[1:]:
        if len(row) != width + 1:
            raise ValidationError(f"{path}: ragged row {row!r}")
        ids.append(row[0])
        try:
            values.append([float(x) for x in row[1:]])
        except ValueError as exc:
            raise ValidationError(f"{path}: non-numeric cell") from exc
    try:
        matrix = kind(values)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    return ids, matrix, hashlib.sha256(data).hexdigest()


def cmd_guardband(args) -> int:
    ids_a, allocation, alloc_sha = _read_matrix_csv(Path(args.allocation),
                                                    AllocationMatrix)
    ids_r, rates, rates_sha = _read_matrix_csv(Path(args.rates), RateResult)
    if ids_a != ids_r:
        raise ValidationError("allocation and rates files do not line up")
    report = insert_guardbands(allocation, rates, mode=args.guardband_mode)
    if not validate_guardbands(report.output_allocation):
        raise RuntimeError("guarded allocation still has adjacent links; "
                           "guardband bug")

    out = _out_dir(args)
    _write_link_matrix_csv(out / "guarded_allocation.csv", ids_a,
                           report.output_allocation.entries, int)
    _write_csv(out / "guardband_report.csv",
               ["boundary_left", "boundary_right",
                "nulled_link", "nulled_channel"],
               ([event.boundary[0], event.boundary[1],
                 ids_a[event.link], event.channel]
                for event in report.nulled))
    _write_link_column_csv(out / "guardband_deltas.csv", ids_a,
                           "rate_delta_mbps", report.rate_deltas)
    _write_manifest(out, args,
                    {"input_sha256": {"allocation": alloc_sha,
                                      "rates": rates_sha}}, None,
                    ["guarded_allocation.csv", "guardband_report.csv",
                     "guardband_deltas.csv"])
    print(f"nulled={len(report.nulled)} mode={args.guardband_mode}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_config_options(sub):
    sub.add_argument("--config", help="scenario config file (JSON)")
    sub.add_argument("--scenario", help="built-in scenario name "
                     f"({', '.join(sorted(BUILTIN_SCENARIOS))})")
    sub.add_argument("--seed", type=int, default=None,
                     help="override the config rng_seed")
    sub.add_argument("--out-dir", default=".", help="output directory")
    sub.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    sub.add_argument("--strict-bounds", action="store_true",
                     help="require ceil(M/N) <= b <= M")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncofdm-alloc",
        description="Exact max-min spectrum allocation for NC-OFDM links")
    parser.add_argument("--version", action="version",
                        version=f"ncofdm-alloc {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_solve = subs.add_parser("solve", help="solve one allocation problem")
    _add_config_options(p_solve)
    p_solve.add_argument("--b", type=int, default=None,
                         help="override the span bound")
    p_solve.add_argument("--interferers", default=None,
                         help="active interferer names, comma separated; "
                              "'none' disables all (default: all configured)")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = subs.add_parser("sweep", help="span-bound trade-off curve")
    _add_config_options(p_sweep)
    p_sweep.add_argument("--b-list", default=None,
                         help="span bounds to sweep, comma separated "
                              "(default: full valid range)")
    p_sweep.add_argument("--interferers", default=None)
    p_sweep.add_argument("--realizations", type=int, default=100)
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    p_re = subs.add_parser("realloc",
                           help="freeze/re-solve interference comparison")
    _add_config_options(p_re)
    p_re.add_argument("--b", type=int, default=None)
    p_re.add_argument("--baseline-interferers", default="none",
                      help="interferers active when the baseline is solved")
    p_re.add_argument("--new-interferers", default=None,
                      help="interferers active afterwards (default: all)")
    p_re.set_defaults(func=cmd_realloc)

    p_gb = subs.add_parser("guardband",
                           help="insert guardbands into an allocation CSV")
    p_gb.add_argument("--allocation", required=True,
                      help="allocation.csv as written by solve")
    p_gb.add_argument("--rates", required=True,
                      help="channel_rates.csv as written by solve")
    p_gb.add_argument("--guardband-mode", choices=GUARDBAND_MODES,
                      default="cut-poorer")
    p_gb.add_argument("--out-dir", default=".")
    p_gb.set_defaults(func=cmd_guardband)
    return parser


def main(argv=None) -> int:
    """Run one command; returns its exit code.

    The parser is built once per process, on the first call, and reused by
    every later in-process call: parsing does not change it, and the
    commands it dispatches to are module functions."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.argv = ["ncofdm-alloc"] + argv
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
