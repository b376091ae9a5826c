import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from ncofdm_alloc.cli import main
from ncofdm_alloc.scenario import GRID4X12, scenario_to_dict


def _read_csv(path):
    with Path(path).open(newline="") as fh:
        return list(csv.reader(fh))


def _run(*argv):
    return main(list(argv))


def _solve_dir(tmp_path, name, *extra):
    out = tmp_path / name
    code = _run("solve", "--scenario", "grid4x12", "--seed", "7",
                "--out-dir", str(out), *extra)
    return code, out


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_outputs(tmp_path):
    code, out = _solve_dir(tmp_path, "run", "--b", "4",
                           "--interferers", "none")
    assert code == 0
    rows = _read_csv(out / "allocation.csv")
    assert rows[0] == ["link"] + [f"ch{i}" for i in range(1, 13)]
    assert len(rows) == 5
    for row in rows[1:]:
        assert set(row[1:]) <= {"0", "1"}
    rates = _read_csv(out / "rates.csv")
    assert rates[0] == ["link", "rate_mbps"]
    assert [r[0] for r in rates[1:]] == ["L1", "L2", "L3", "L4"]
    chan = _read_csv(out / "channel_rates.csv")
    assert len(chan) == 5 and len(chan[1]) == 13
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["seed"] == 7
    assert sorted(manifest["outputs"]) == [
        "allocation.csv", "channel_rates.csv", "rates.csv"]


def test_solve_maxmin_monotone_in_b(tmp_path):
    _, out4 = _solve_dir(tmp_path, "b4", "--b", "4", "--interferers", "none")
    _, out12 = _solve_dir(tmp_path, "b12", "--b", "12", "--interferers", "none")

    def min_rate(out):
        return min(float(r[1]) for r in _read_csv(out / "rates.csv")[1:])

    assert min_rate(out12) >= min_rate(out4)


def test_solve_rerun_byte_identical(tmp_path):
    _, out1 = _solve_dir(tmp_path, "r1", "--b", "4")
    _, out2 = _solve_dir(tmp_path, "r2", "--b", "4")
    for name in ("allocation.csv", "rates.csv", "channel_rates.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_solve_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nonsense": True}))
    out = tmp_path / "badout"
    code = _run("solve", "--config", str(bad), "--out-dir", str(out))
    assert code == 2
    assert not out.exists()
    bad.write_bytes(b"\xff{}")                 # not UTF-8
    assert _run("solve", "--config", str(bad), "--out-dir", str(out)) == 2
    assert not out.exists()
    # a number beyond the float range, and an integer literal longer than
    # the interpreter converts (4300 digits)
    cfg = scenario_to_dict(GRID4X12)
    long_seed = json.dumps(dict(cfg, rng_seed=7)).replace(
        '"rng_seed": 7', '"rng_seed": 1' + "0" * 5000)
    for key, text in [("temperature",
                       json.dumps(dict(cfg, temperature=10 ** 400))),
                      ("JSON", long_seed)]:
        bad.write_text(text)
        assert _run("solve", "--config", str(bad),
                    "--out-dir", str(out)) == 2, key
        assert key in capsys.readouterr().err, key
        assert not out.exists()
    # values of the wrong type, and booleans or fractions where a number
    # belongs, which must not be truncated; the error names the key
    for key, value in [("links", 5), ("distance", "far"), ("tx", 5),
                       ("tx", [0]), ("tx", [0, 0, 5]),
                       ("num_channels", "x"), ("db_above_noise", "abc"),
                       ("subcarriers_per_channel", "4"),
                       ("num_channels", 12.7), ("span_bound", 4.9),
                       ("channels", [1.9, 2, 3]), ("rng_seed", True),
                       ("temperature", True), ("db_above_noise", False)]:
        cfg = scenario_to_dict(GRID4X12)
        if key == "distance":
            cfg["links"][0]["distance"] = value
        elif key == "tx":
            cfg["links"][0] = {"id": "L1", "tx": value, "rx": [0, 1]}
        elif key in ("db_above_noise", "channels"):
            cfg["interferers"][0][key] = value
        else:
            cfg[key] = value
        bad.write_text(json.dumps(cfg))
        for cmd in (["solve"], ["sweep", "--b-list", "4"],
                    ["realloc", "--new-interferers", "A"]):
            assert _run(*cmd, "--config", str(bad),
                        "--out-dir", str(out)) == 2, (key, cmd[0])
            assert key in capsys.readouterr().err, (key, cmd[0])
            assert not out.exists()


def test_solve_missing_config(tmp_path):
    code = _run("solve", "--config", str(tmp_path / "nope.json"),
                "--out-dir", str(tmp_path / "o"))
    assert code == 2


def test_solve_unknown_interferer(tmp_path):
    code = _run("solve", "--scenario", "grid4x12", "--interferers", "Q",
                "--out-dir", str(tmp_path / "o"))
    assert code == 2


def test_solve_budget_exhaustion_exit_code(tmp_path):
    out = tmp_path / "budget"
    code = _run("solve", "--scenario", "grid4x12", "--seed", "7",
                "--node-budget", "10", "--out-dir", str(out))
    assert code == 3
    assert (out / "allocation.csv").exists()    # results still written


def test_solve_config_file_equals_builtin(tmp_path):
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps(scenario_to_dict(GRID4X12)))
    _, out_builtin = _solve_dir(tmp_path, "builtin", "--b", "4")
    out_file = tmp_path / "fromfile"
    code = _run("solve", "--config", str(cfg_path), "--seed", "7",
                "--b", "4", "--out-dir", str(out_file))
    assert code == 0
    assert ((out_builtin / "allocation.csv").read_bytes()
            == (out_file / "allocation.csv").read_bytes())


def test_manifest_hashes_the_config_file(tmp_path):
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps(scenario_to_dict(GRID4X12), indent=1))
    out = tmp_path / "o"
    assert _run("solve", "--config", str(cfg_path), "--b", "4",
                "--interferers", "none", "--out-dir", str(out)) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert (manifest["config_sha256"]
            == hashlib.sha256(cfg_path.read_bytes()).hexdigest())


def test_solve_rejects_channels_beyond_search_depth(tmp_path, capsys):
    data = scenario_to_dict(GRID4X12)
    data["links"] = data["links"][:1]
    # the search recurses once a channel: more channels than the recursion
    # limit can never be searched
    data["num_channels"] = sys.getrecursionlimit()
    cfg_path = tmp_path / "wide.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "o"
    with pytest.warns(UserWarning):             # b < ceil(M/N)
        code = _run("solve", "--config", str(cfg_path), "--b", "1",
                    "--interferers", "none", "--out-dir", str(out))
    assert code == 2
    assert "search depth" in capsys.readouterr().err
    assert not out.exists()


def test_strict_bounds_rejects_small_b(tmp_path):
    with pytest.warns(UserWarning):
        code = _run("solve", "--scenario", "grid4x12", "--b", "2",
                    "--strict-bounds", "--out-dir", str(tmp_path / "o"))
    assert code == 2


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_csv_contract(tmp_path):
    out = tmp_path / "sweep"
    code = _run("sweep", "--scenario", "grid4x12", "--b-list", "3,4,5",
                "--realizations", "2", "--seed", "3", "--out-dir", str(out))
    assert code == 0
    rows = _read_csv(out / "tradeoff.csv")
    assert rows[0] == ["b", "mean_maxmin_mbps", "std_maxmin_mbps"]
    assert [r[0] for r in rows[1:]] == ["3", "4", "5"]
    means = [float(r[1]) for r in rows[1:]]
    assert all(a <= b for a, b in zip(means, means[1:]))


def test_sweep_rerun_byte_identical(tmp_path):
    args = ("sweep", "--scenario", "grid4x12", "--b-list", "3,4",
            "--realizations", "1", "--seed", "5")
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert _run(*args, "--out-dir", str(out1)) == 0
    assert _run(*args, "--out-dir", str(out2)) == 0
    assert ((out1 / "tradeoff.csv").read_bytes()
            == (out2 / "tradeoff.csv").read_bytes())


def test_sweep_bad_b_list(tmp_path):
    code = _run("sweep", "--scenario", "grid4x12", "--b-list", "5,3",
                "--out-dir", str(tmp_path / "o"))
    assert code == 2


@pytest.mark.parametrize("extra, lowest", [((), 1),
                                           (("--strict-bounds",), 3)])
def test_sweep_default_span_bounds(tmp_path, extra, lowest):
    # without --b-list every bound up to M = 12 is swept, from 1, or from
    # ceil(M/N) = 3 under --strict-bounds
    out = tmp_path / "sweep"
    code = _run("sweep", "--scenario", "grid4x12", "--realizations", "1",
                "--interferers", "none", *extra, "--out-dir", str(out))
    assert code == 0
    rows = _read_csv(out / "tradeoff.csv")
    assert [int(r[0]) for r in rows[1:]] == list(range(lowest, 13))


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_sweep_rejects_nonpositive_workers(tmp_path, capsys, workers):
    out = tmp_path / "o"
    code = _run("sweep", "--scenario", "grid4x12", "--b-list", "3,4",
                "--realizations", "1", "--workers", workers,
                "--out-dir", str(out))
    assert code == 2
    assert "workers must be >= 1" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# realloc
# ---------------------------------------------------------------------------

def test_realloc_csv_contract(tmp_path):
    out = tmp_path / "re"
    code = _run("realloc", "--scenario", "grid4x12", "--b", "4", "--seed", "9",
                "--baseline-interferers", "none", "--new-interferers", "A",
                "--out-dir", str(out))
    assert code == 0
    rows = _read_csv(out / "realloc.csv")
    assert rows[0] == ["condition", "link", "rate_mbps"]
    by_condition = {}
    for condition, link, rate in rows[1:]:
        by_condition.setdefault(condition, {})[link] = float(rate)
    assert set(by_condition) == {"baseline", "frozen", "reallocated"}
    frozen_min = min(by_condition["frozen"].values())
    realloc_min = min(by_condition["reallocated"].values())
    baseline_min = min(by_condition["baseline"].values())
    assert realloc_min >= frozen_min
    assert frozen_min < baseline_min          # A hits channels in use


@pytest.mark.parametrize("seed, new, still_optimal",
                         [("3", "A", True), ("9", "A", False),
                          ("5", "C", True)])
def test_realloc_manifest_records_frozen_still_optimal(tmp_path, seed, new,
                                                       still_optimal):
    # seeds 3 (A) and 5 (C): the interference misses what re-solving could
    # win back, so the frozen allocation stays optimal
    out = tmp_path / "re"
    code = _run("realloc", "--scenario", "grid4x12", "--b", "4",
                "--seed", seed, "--baseline-interferers", "none",
                "--new-interferers", new, "--out-dir", str(out))
    assert code == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["frozen_still_optimal"] is still_optimal
    rows = _read_csv(out / "realloc.csv")
    frozen = [r[2] for r in rows[1:] if r[0] == "frozen"]
    reallocated = [r[2] for r in rows[1:] if r[0] == "reallocated"]
    if still_optimal:
        assert min(map(float, frozen)) == min(map(float, reallocated))


def test_realloc_rerun_byte_identical(tmp_path):
    args = ("realloc", "--scenario", "grid4x12", "--b", "4", "--seed", "9",
            "--baseline-interferers", "none", "--new-interferers", "C")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert _run(*args, "--out-dir", str(out1)) == 0
    assert _run(*args, "--out-dir", str(out2)) == 0
    assert ((out1 / "realloc.csv").read_bytes()
            == (out2 / "realloc.csv").read_bytes())


# ---------------------------------------------------------------------------
# guardband
# ---------------------------------------------------------------------------

def _write_matrix(path, header_count, rows):
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["link"] + [f"ch{i + 1}" for i in range(header_count)])
        for row in rows:
            writer.writerow(row)


def test_guardband_round_trip_from_solve(tmp_path):
    _, solved = _solve_dir(tmp_path, "solved", "--b", "4")
    out = tmp_path / "gb"
    code = _run("guardband", "--allocation", str(solved / "allocation.csv"),
                "--rates", str(solved / "channel_rates.csv"),
                "--out-dir", str(out))
    assert code == 0
    guarded = _read_csv(out / "guarded_allocation.csv")
    owners = {}
    for row in guarded[1:]:
        for m, cell in enumerate(row[1:]):
            if cell == "1":
                assert m not in owners
                owners[m] = row[0]
    for m in range(11):
        if m in owners and m + 1 in owners:
            assert owners[m] == owners[m + 1]
    report = _read_csv(out / "guardband_report.csv")
    assert report[0] == ["boundary_left", "boundary_right",
                         "nulled_link", "nulled_channel"]
    deltas = _read_csv(out / "guardband_deltas.csv")
    assert all(float(row[1]) <= 0 for row in deltas[1:])


def test_guardband_manifest_hashes_each_input(tmp_path):
    _, solved = _solve_dir(tmp_path, "solved", "--b", "4")
    alloc, rates = solved / "allocation.csv", solved / "channel_rates.csv"
    out = tmp_path / "gb"
    assert _run("guardband", "--allocation", str(alloc),
                "--rates", str(rates), "--out-dir", str(out)) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["input_sha256"] == {
        "allocation": hashlib.sha256(alloc.read_bytes()).hexdigest(),
        "rates": hashlib.sha256(rates.read_bytes()).hexdigest(),
    }


def test_guardband_single_link_unchanged(tmp_path):
    alloc = tmp_path / "a.csv"
    rates = tmp_path / "r.csv"
    _write_matrix(alloc, 4, [["L1", 1, 1, 0, 0]])
    _write_matrix(rates, 4, [["L1", 1.5, 2.5, 0, 0]])
    out = tmp_path / "gb"
    assert _run("guardband", "--allocation", str(alloc), "--rates", str(rates),
                "--out-dir", str(out)) == 0
    guarded = _read_csv(out / "guarded_allocation.csv")
    assert guarded[1] == ["L1", "1", "1", "0", "0"]
    assert len(_read_csv(out / "guardband_report.csv")) == 1


def test_guardband_two_link_adjacent_one_null(tmp_path):
    alloc = tmp_path / "a.csv"
    rates = tmp_path / "r.csv"
    _write_matrix(alloc, 4, [["L1", 1, 1, 0, 0], ["L2", 0, 0, 1, 1]])
    _write_matrix(rates, 4, [["L1", 1, 1, 0, 0], ["L2", 0, 0, 1, 1]])
    out = tmp_path / "gb"
    assert _run("guardband", "--allocation", str(alloc), "--rates", str(rates),
                "--out-dir", str(out)) == 0
    report = _read_csv(out / "guardband_report.csv")
    assert len(report) == 2
    assert report[1] == ["2", "3", "L2", "3"]


def test_guardband_rejects_mismatched_inputs(tmp_path):
    alloc = tmp_path / "a.csv"
    rates = tmp_path / "r.csv"
    _write_matrix(alloc, 3, [["L1", 1, 0, 0]])
    _write_matrix(rates, 4, [["L1", 1, 0, 0, 0]])
    assert _run("guardband", "--allocation", str(alloc), "--rates", str(rates),
                "--out-dir", str(tmp_path / "o")) == 2


def test_guardband_rejects_nonbinary_allocation(tmp_path):
    alloc = tmp_path / "a.csv"
    rates = tmp_path / "r.csv"
    _write_matrix(alloc, 2, [["L1", 1, 2]])
    _write_matrix(rates, 2, [["L1", 1, 2]])
    assert _run("guardband", "--allocation", str(alloc), "--rates", str(rates),
                "--out-dir", str(tmp_path / "o")) == 2


@pytest.mark.parametrize("cell", ["inf", "nan"])
def test_guardband_rejects_nonfinite_rates(tmp_path, capsys, cell):
    alloc = tmp_path / "a.csv"
    rates = tmp_path / "r.csv"
    _write_matrix(alloc, 2, [["L1", 1, 0], ["L2", 0, 1]])
    _write_matrix(rates, 2, [["L1", cell, 0], ["L2", 0, 1]])
    out = tmp_path / "o"
    assert _run("guardband", "--allocation", str(alloc), "--rates", str(rates),
                "--out-dir", str(out)) == 2
    assert f"{rates}: non-finite cell" in capsys.readouterr().err
    assert not out.exists()


def _guard_solve(tmp_path):
    """solve's two CSVs at b = 4 with no interferer, and their rows."""
    out = tmp_path / "solved"
    assert _run("solve", "--scenario", "grid4x12", "--b", "4",
                "--interferers", "none", "--out-dir", str(out)) == 0
    return out, _read_csv(out / "channel_rates.csv")


def test_guardband_rejects_negative_rates(tmp_path, capsys):
    solved, rows = _guard_solve(tmp_path)
    # L1 holds ch1 in this solve, so the cell is a rate > 0, now negated
    assert rows[1][:2] == ["L1", "2.58642"]
    rows[1][1] = "-2.58642"
    rates = tmp_path / "negative.csv"
    _write_matrix(rates, len(rows[0]) - 1, rows[1:])
    out = tmp_path / "o"
    assert _run("guardband", "--allocation", str(solved / "allocation.csv"),
                "--rates", str(rates), "--out-dir", str(out)) == 2
    assert "rates must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.xfail(strict=True, reason=(
    "cli.cmd_guardband reads channel_rates.csv in Mbps but writes "
    "rate_delta_mbps as if it had read bits/s, 1e6 too small; the "
    "benchmark pins those bytes (see CHANGES.md, FOUND)"))
def test_guardband_deltas_are_in_mbps(tmp_path):
    solved, rows = _guard_solve(tmp_path)
    rates = {row[0]: [float(x) for x in row[1:]] for row in rows[1:]}
    out = tmp_path / "gb"
    assert _run("guardband", "--allocation", str(solved / "allocation.csv"),
                "--rates", str(solved / "channel_rates.csv"),
                "--out-dir", str(out)) == 0
    lost = dict.fromkeys(rates, 0.0)
    for _, _, link, channel in _read_csv(out / "guardband_report.csv")[1:]:
        lost[link] += rates[link][int(channel) - 1]
    deltas = {link: float(delta)
              for link, delta in _read_csv(out / "guardband_deltas.csv")[1:]}
    # L2 loses ch4 and ch6 here
    assert lost["L2"] > 0
    assert deltas == {link: pytest.approx(-mbps, rel=1e-5)
                      for link, mbps in lost.items()}


def test_guardband_rejects_non_utf8_csv(tmp_path, capsys):
    alloc = tmp_path / "a.csv"
    rates = tmp_path / "r.csv"
    _write_matrix(alloc, 2, [["L1", 1, 0], ["L2", 0, 1]])
    rates.write_bytes(b"link,ch1,ch2\nL1,\xff,0\nL2,0,1\n")
    out = tmp_path / "o"
    assert _run("guardband", "--allocation", str(alloc), "--rates", str(rates),
                "--out-dir", str(out)) == 2
    assert f"{rates}: not valid UTF-8" in capsys.readouterr().err
    assert not out.exists()


def test_guardband_rejects_csv_without_channel_columns(tmp_path, capsys):
    alloc = tmp_path / "a.csv"
    rates = tmp_path / "r.csv"
    alloc.write_text("link\nL1\n")
    rates.write_text("link\nL1\n")
    out = tmp_path / "o"
    assert _run("guardband", "--allocation", str(alloc), "--rates", str(rates),
                "--out-dir", str(out)) == 2
    assert f"{alloc}: no channel columns" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# repeated in-process calls
# ---------------------------------------------------------------------------

def test_repeated_main_calls_share_no_state(tmp_path, capsys):
    # main reuses one parser per process; a usage error, --version and an
    # input error in between must leave later commands' outputs unchanged
    def solve_and_guard(name):
        code, solved = _solve_dir(tmp_path, name + "-solve", "--b", "4",
                                  "--interferers", "none")
        assert code == 0
        guarded = tmp_path / (name + "-gb")
        assert _run("guardband", "--allocation", str(solved / "allocation.csv"),
                    "--rates", str(solved / "channel_rates.csv"),
                    "--out-dir", str(guarded)) == 0
        return {path.name: path.read_bytes()
                for out in (solved, guarded) for path in out.glob("*.csv")}

    before = solve_and_guard("before")
    with pytest.raises(SystemExit) as usage:
        _run("solve", "--scenario", "grid4x12", "--b", "x")
    assert usage.value.code == 2
    with pytest.raises(SystemExit) as version:
        _run("--version")
    assert version.value.code == 0
    assert _run("solve", "--scenario", "grid4x12", "--interferers", "Z",
                "--out-dir", str(tmp_path / "bad")) == 2
    assert not (tmp_path / "bad").exists()
    capsys.readouterr()
    after = solve_and_guard("after")
    assert after == before
    assert len(before) == 6
