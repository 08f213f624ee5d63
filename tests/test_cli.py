"""End-to-end checks of the command-line surface via main(argv)."""

import csv
import json
import math

import numpy as np
import pytest

import lvt
from lvt.cli import (
    CSV_COLUMNS,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_RESOURCE,
    EXIT_USAGE,
    MAX_CONSTRUCT_ENTRIES,
    MAX_CONSTRUCT_TERMS,
    MAX_SCAN_POINTS,
    SEARCH_WORK_LIMITS,
    load_settings,
    main,
    parse_n_list,
    parse_scan,
    write_csv,
)
from lvt.errors import InvalidInputError
from lvt.oracle import MAX_ORACLE_SETTINGS
from lvt.search import SearchConfig, sweep_work

TINY_SEARCH = ["--inner-iters", "200", "--outer-iters", "2", "--restarts", "1"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_settings(path, a_rows, b_rows):
    path.write_text(json.dumps({"a": a_rows, "b": b_rows}))
    return str(path)


def test_analytic_prints_exact_threshold(capsys):
    code, out, _ = run_cli(capsys, ["analytic"])
    assert code == EXIT_OK
    assert repr(1.0 / 3.0) in out
    assert "exactly 1/3" in out


def test_analytic_scan_flips_at_threshold(capsys):
    code, out, _ = run_cli(capsys, ["analytic", "--scan", "0.30:0.36:0.01"])
    assert code == EXIT_OK
    scan_lines = [line for line in out.splitlines() if line.strip().startswith("v=")]
    assert len(scan_lines) == 7
    for line in scan_lines:
        value = float(line.split()[0].split("=")[1])
        expected = "valid" if value <= 1.0 / 3.0 + 1e-12 else "invalid"
        assert line.split()[1] == expected


def test_analytic_json_record_round_trips(capsys):
    code, out, _ = run_cli(capsys, ["analytic", "--json", "--seed", "5"])
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["command"] == "analytic"
    assert record["seed"] == 5
    assert record["estimates"][0]["value"] == 1.0 / 3.0
    assert record["estimates"][0]["provenance"] == "analytic"
    assert record["wall_time_s"] == 0.0


def test_search_writes_csv_rows(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys,
        ["search", "--n", "2,3", "--seed", "7", "--out", str(out_path)] + TINY_SEARCH,
    )
    assert code == EXIT_OK
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 3
    for row, n in zip(rows[1:], (2, 3)):
        assert int(row[0]) == n
        assert 0.0 <= float(row[1]) <= 1.0
        assert row[3] == "mc-search"
        assert int(row[4]) == 7
        assert int(row[5]) > 0
        assert row[6] == repr(0.0)


def test_search_extrapolate_appends_limit_row(capsys, tmp_path):
    out_path = tmp_path / "fit.csv"
    code, out, _ = run_cli(
        capsys,
        ["search", "--n", "2,3,4", "--seed", "3", "--extrapolate",
         "--out", str(out_path)] + TINY_SEARCH,
    )
    assert code == EXIT_OK
    assert "extrapolated limit:" in out
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 5
    assert int(rows[-1][0]) == 0  # the fitted limit has no settings count


def test_search_at_one_setting_reports_exactly_one(capsys):
    code, out, _ = run_cli(
        capsys, ["search", "--n", "1,2", "--m", "9", "--outer-iters", "3", "--seed", "2", "--json"]
    )
    assert code == EXIT_OK
    first = json.loads(out)["estimates"][0]
    assert first["n_settings"] == 1
    assert first["value"] == 1.0
    assert first["std_error"] == 0.0


def test_search_extrapolate_needs_three_distinct_counts(capsys):
    code, _, err = run_cli(
        capsys, ["search", "--n", "2,3", "--extrapolate"] + TINY_SEARCH
    )
    assert code == EXIT_USAGE
    assert "3 distinct" in err


def test_search_rejects_non_ascending_counts(capsys):
    code, _, err = run_cli(capsys, ["search", "--n", "3,2"] + TINY_SEARCH)
    assert code == EXIT_USAGE
    assert "error:" in err


def test_search_checks_counts_before_pricing_the_sweep(capsys, monkeypatch):
    # Over the work limits, but the sweep would refuse the order: a usage
    # error that does no work, not a call for --long.
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("lvt.cli.n_sweep", no_sweep)
    code, _, err = run_cli(capsys, ["search", "--n", "100000,3"])
    assert code == EXIT_USAGE
    assert "settings counts must be sorted ascending" in err
    assert "--long" not in err


def test_search_long_gate_refuses_big_projection(capsys):
    code, _, err = run_cli(
        capsys, ["search", "--n", "1000", "--inner-iters", "200000"]
    )
    assert code == EXIT_RESOURCE
    assert "--long" in err


# Sweeps around the long-run gate: the README's and the default large-N
# sweep are admitted, sweeps of a minute or more are refused by the
# count that dominates them (None marks an admitted sweep).
GATE_VERDICTS = [
    (["--n", "3,10,30"], None),
    (["--n", "4,16,64"], None),
    (["--n", "100,300,1000"], None),
    (["--n", "4,10,30", "--m", "34", "--outer-iters", "2"], None),
    (["--n", "1000", "--inner-iters", "200000"], "climb steps"),
    (["--n", "4,10,30", "--m", "961"], "finish LP cells"),
    (["--n", "2,3,4", "--inner-iters", "100000"], "climb steps"),
    # 1000 finishes of the 4-state class at N = 2, cap 4: 16 s.
    (["--n", "2", "--outer-iters", "1000", "--inner-iters", "100"], None),
    (["--n", "100,200,300,1000"], None),
    # M >= (N+1)^2 at every N: one climb step per restart, whatever the budget.
    (["--n", "2,3,4", "--m", "34", "--inner-iters", "100000"], None),
    # The full class finishes at (N+1)^2 states whatever M is, so a huge
    # M costs what M = (N+1)^2 costs, and the limit falls between N = 8
    # (24 finishes, 22 s) and 9, and at one outer step between N = 16
    # (61 s) and 17.
    (["--n", "2", "--m", str(10**12)], None),
    (["--n", "9", "--m", "100"], "finish LP cells"),
    (["--n", "8", "--m", "81"], None),
    (["--n", "9", "--m", str(10**12)], "finish LP cells"),
    (["--n", "12", "--m", "169"], "finish LP cells"),
    (["--n", "16", "--m", "289", "--outer-iters", "1"], None),
    (["--n", "17", "--m", "324", "--outer-iters", "1"], "finish LP cells"),
    (["--n", "30", "--m", "961", "--outer-iters", "1"], "finish LP cells"),
]


@pytest.mark.parametrize("argv, refused_by", GATE_VERDICTS)
def test_search_gate_verdicts(capsys, monkeypatch, argv, refused_by):
    sweeps = []

    def record_sweep(n_values, config, on_result=None):
        sweeps.append((n_values, config))
        return []

    monkeypatch.setattr("lvt.cli.n_sweep", record_sweep)
    code, _, err = run_cli(capsys, ["search"] + argv)
    if refused_by is not None:
        assert code == EXIT_RESOURCE
        assert refused_by in err and "limit" in err and "--long" in err
        assert not sweeps
        return
    assert len(sweeps) == 1
    for name, count in sweep_work(*sweeps[0]).items():
        assert count <= SEARCH_WORK_LIMITS[name]


def test_m4_sweep_counts_no_finish_rows():
    # In the 4-state class with N >= 3 inner_maximize skips the see-saw
    # finish, at M = 5 as at M = 4; the full class, M >= (N+1)^2, runs it.
    assert sweep_work([100, 300, 1000], SearchConfig(n_settings=100))["finish LP cells"] == 0
    assert sweep_work([2, 3], SearchConfig(n_settings=2))["finish LP cells"] > 0
    assert sweep_work([3], SearchConfig(n_settings=3, m_states=5))["finish LP cells"] == 0
    assert sweep_work([3], SearchConfig(n_settings=3, m_states=16))["finish LP cells"] > 0


def test_search_streams_progress_to_stderr(capsys):
    code, _, err = run_cli(capsys, ["search", "--n", "2", "--seed", "1"] + TINY_SEARCH)
    assert code == EXIT_OK
    assert "n=2 visibility=" in err


def test_oracle_random_settings(capsys):
    code, out, _ = run_cli(capsys, ["oracle", "--random", "3", "--seed", "1"])
    assert code == EXIT_OK
    value = float(out.split("visibility=")[1].split()[0])
    assert 0.0 <= value <= 1.0


def test_oracle_settings_file_chsh_value(capsys, tmp_path):
    r = 1.0 / math.sqrt(2.0)
    path = write_settings(
        tmp_path / "chsh.json",
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        [[-r, r, 0.0], [-r, -r, 0.0]],
    )
    code, out, _ = run_cli(capsys, ["oracle", "--settings", path])
    assert code == EXIT_OK
    value = float(out.split("visibility=")[1].split()[0])
    assert abs(value - 1.0 / math.sqrt(2.0)) < 1e-9


def test_oracle_requires_exactly_one_source(capsys, tmp_path):
    path = write_settings(tmp_path / "s.json", [[0, 0, 1]], [[0, 0, 1]])
    code, _, err = run_cli(capsys, ["oracle", "--settings", path, "--random", "2"])
    assert code == EXIT_USAGE
    assert "exactly one" in err
    code, _, err = run_cli(capsys, ["oracle"])
    assert code == EXIT_USAGE


def test_oracle_n9_runs_without_long_flag(capsys):
    code, out, _ = run_cli(capsys, ["oracle", "--random", "9", "--seed", "2"])
    assert code == EXIT_OK
    assert "n=9 visibility=" in out


def test_oracle_hard_cap_is_resource_error(capsys):
    code, _, err = run_cli(capsys, ["oracle", "--random", str(MAX_ORACLE_SETTINGS + 1)])
    assert code == EXIT_RESOURCE


@pytest.mark.parametrize("n", [MAX_ORACLE_SETTINGS + 1, 10**12])
def test_oracle_refuses_random_settings_before_drawing(capsys, monkeypatch, n):
    # Drawing 10^12 settings would raise NumPy's memory error instead.
    def no_draw(*args, **kwargs):
        raise AssertionError("settings were drawn")

    monkeypatch.setattr("lvt.cli.SettingsEnsemble.random", no_draw)
    code, _, err = run_cli(capsys, ["oracle", "--random", str(n)])
    assert code == EXIT_RESOURCE
    assert f"at most {MAX_ORACLE_SETTINGS} settings" in err


def test_oracle_cap_is_checked_before_the_gram(capsys, monkeypatch):
    # An N x N Gram at N = 3000 would take 72 MB; past the cap the oracle
    # must refuse without building it.
    def no_gram(self):
        raise AssertionError("gram built")

    monkeypatch.setattr(lvt.SettingsEnsemble, "gram", property(no_gram))
    code, _, _ = run_cli(capsys, ["oracle", "--random", "3000"])
    assert code == EXIT_RESOURCE


def test_bell_threshold_and_closure(capsys):
    code, out, _ = run_cli(capsys, ["bell"])
    assert code == EXIT_OK
    threshold = float(out.splitlines()[0].split(":")[1])
    assert abs(threshold - 2.0 / 3.0) < 1e-3
    closure = float(out.splitlines()[1].split(":")[1])
    assert closure < 0.05


def test_chsh_threshold_and_angle(capsys):
    code, out, _ = run_cli(capsys, ["chsh"])
    assert code == EXIT_OK
    threshold = float(out.splitlines()[0].split(":")[1])
    assert abs(threshold - 1.0 / math.sqrt(2.0)) < 1e-3
    phi = float(out.splitlines()[1].split(":")[1].split()[0])
    assert abs(phi - math.pi / 2.0) < 0.02


def test_construct_random_settings_passes_validation(capsys):
    code, out, _ = run_cli(capsys, ["construct", "--n", "3", "--seed", "5"])
    assert code == EXIT_OK
    assert "passed: True" in out


def test_construct_json_reports_validation_block(capsys, tmp_path):
    path = write_settings(
        tmp_path / "pair.json", [[0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]]
    )
    code, out, _ = run_cli(capsys, ["construct", "--settings", path, "--json"])
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["command"] == "construct"
    assert record["details"]["validation"]["passed"] is True
    assert record["details"]["validation"]["correlation_violation"] < 1e-9
    assert abs(sum(record["details"]["rho"]) - 1.0) < 1e-12


@pytest.mark.parametrize("argv", [
    ["--n", "3", "--m", str(10**12)],
    ["--n", str(10**12)],
    ["--n", "2", "--m", str(MAX_CONSTRUCT_ENTRIES // 2 + 1)],
])
def test_construct_refuses_huge_tables_before_drawing(capsys, monkeypatch, argv):
    def no_draw(*args, **kwargs):
        raise AssertionError("settings were drawn")

    monkeypatch.setattr("lvt.cli.SettingsEnsemble.random", no_draw)
    code, _, err = run_cli(capsys, ["construct"] + argv)
    assert code == EXIT_RESOURCE
    assert "table entries" in err and "limit" in err


@pytest.mark.parametrize("n, m", [(250000, 4), (100001, 4)])
def test_construct_refuses_slow_validation_before_drawing(capsys, monkeypatch, n, m):
    # Within the table-entry limit, but the N^2 * M correlation terms of
    # the validation would take over a minute.
    def no_draw(*args, **kwargs):
        raise AssertionError("settings were drawn")

    monkeypatch.setattr("lvt.cli.SettingsEnsemble.random", no_draw)
    assert n * m <= MAX_CONSTRUCT_ENTRIES < MAX_CONSTRUCT_TERMS < n * n * m
    code, _, err = run_cli(capsys, ["construct", "--n", str(n), "--m", str(m)])
    assert code == EXIT_RESOURCE
    assert "correlation terms" in err and "limit" in err


def test_construct_prices_a_settings_file_by_its_count(capsys, tmp_path):
    path = write_settings(tmp_path / "s.json", [[0, 0, 1]] * 2, [[1, 0, 0]] * 2)
    code, _, err = run_cli(
        capsys, ["construct", "--settings", path, "--m", str(MAX_CONSTRUCT_ENTRIES // 2 + 1)]
    )
    assert code == EXIT_RESOURCE
    assert "N = 2" in err


def test_construct_usage_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["construct"])
    assert code == EXIT_USAGE
    assert "--settings or --n" in err
    code, _, _ = run_cli(capsys, ["construct", "--n", "2", "--m", "3"])
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys, ["construct", "--n", "0"])
    assert code == EXIT_USAGE
    path = write_settings(tmp_path / "s.json", [[0, 0, 1]], [[0, 0, 1]])
    code, _, err = run_cli(capsys, ["construct", "--settings", path, "--n", "3"])
    assert code == EXIT_USAGE
    assert "needs exactly one of --settings or --n" in err


# The climb's step scale, patience and weight floor are fixed, the seed
# comes only from --seed, and only search has a work gate to lift.
@pytest.mark.parametrize("argv", [
    ["search", "--n", "2", "--step", "0.5"],
    ["search", "--n", "2", "--patience", "7"],
    ["search", "--n", "2", "--rho-min", "0.01"],
    ["construct", "--n", "3", "--rho-min", "0.01"],
    ["analytic", "--long"],
    ["oracle", "--random", "3", "--long"],
    ["bell", "--long"],
    ["chsh", "--long"],
    ["construct", "--n", "3", "--long"],
])
def test_removed_settings_are_usage_errors(capsys, argv):
    code, _, err = run_cli(capsys, argv)
    assert code == EXIT_USAGE
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("argv", [
    ["analytic"],
    ["search", "--n", "2"] + TINY_SEARCH,
    ["oracle", "--random", "2"],
    ["bell"],
    ["chsh"],
    ["construct", "--n", "2"],
])
def test_json_record_keys(capsys, argv):
    code, out, _ = run_cli(capsys, argv + ["--json"])
    assert code == EXIT_OK
    record = json.loads(out)
    assert sorted(record) == [
        "command", "config", "details", "estimates", "seed", "version", "wall_time_s",
    ]
    assert record["version"] == lvt.__version__
    assert record["wall_time_s"] == 0.0


def test_seed_env_var_is_ignored(capsys, monkeypatch):
    monkeypatch.setenv("LVT_SEED", "5")
    _, out, _ = run_cli(capsys, ["analytic", "--json"])
    assert json.loads(out)["seed"] == 0
    _, out, _ = run_cli(capsys, ["analytic", "--json", "--seed", "4"])
    assert json.loads(out)["seed"] == 4


def test_negative_seed_rejected(capsys):
    code, _, _ = run_cli(capsys, ["analytic", "--seed", "-1"])
    assert code == EXIT_USAGE


def test_repeated_runs_are_byte_identical(capsys, tmp_path):
    argv = ["search", "--n", "2,3", "--seed", "9", "--json"]
    argv += TINY_SEARCH
    first_csv = tmp_path / "a.csv"
    second_csv = tmp_path / "b.csv"
    code, first_out, _ = run_cli(capsys, argv + ["--out", str(first_csv)])
    assert code == EXIT_OK
    code, second_out, _ = run_cli(capsys, argv + ["--out", str(second_csv)])
    assert code == EXIT_OK
    assert first_out == second_out
    assert first_csv.read_bytes() == second_csv.read_bytes()


def test_settings_loader_rejects_malformed_files(tmp_path):
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"a": [[0, 0, 1]]}))
    with pytest.raises(InvalidInputError):
        load_settings(str(missing))
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"a": [[0, 0, 0]], "b": [[0, 0, 1]]}))
    with pytest.raises(InvalidInputError):
        load_settings(str(zero))
    uneven = tmp_path / "uneven.json"
    uneven.write_text(json.dumps({"a": [[0, 0, 1], [0, 1, 0]], "b": [[0, 0, 1]]}))
    with pytest.raises(InvalidInputError):
        load_settings(str(uneven))
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    with pytest.raises(InvalidInputError):
        load_settings(str(garbled))
    for name, side in (
        ("ragged", [[1, 0], [0, 1, 0]]),
        ("string", [["x", 0, 1]]),
        ("object", {"x": 1}),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"a": side, "b": [[0, 0, 1]]}))
        with pytest.raises(InvalidInputError):
            load_settings(str(path))


def test_settings_loader_normalizes_rows(tmp_path):
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps({"a": [[0.0, 0.0, 2.0]], "b": [[3.0, 0.0, 0.0]]}))
    ensemble = load_settings(str(path))
    np.testing.assert_allclose(ensemble.a_matrix, [[0.0, 0.0, 1.0]])
    np.testing.assert_allclose(ensemble.b_matrix, [[1.0, 0.0, 0.0]])


def test_parse_helpers_reject_bad_text():
    with pytest.raises(InvalidInputError):
        parse_n_list("three")
    with pytest.raises(InvalidInputError):
        parse_n_list(",")
    with pytest.raises(InvalidInputError):
        parse_scan("0.3:0.4")
    with pytest.raises(InvalidInputError):
        parse_scan("0.4:0.3:0.01")
    with pytest.raises(InvalidInputError):
        parse_scan("0.3:1.4:0.1")
    assert parse_n_list("2, 3,4") == [2, 3, 4]
    scan = parse_scan("0.30:0.36:0.01")
    assert len(scan) == 7
    assert abs(scan[-1] - 0.36) < 1e-12


@pytest.mark.parametrize("scan", ["nan:0.3:0.01", "0:inf:0.1", "0:0.3:nan", "0:0.3:inf"])
def test_analytic_scan_rejects_non_finite_parts(capsys, scan):
    code, _, err = run_cli(capsys, ["analytic", "--scan", scan])
    assert code == EXIT_USAGE
    assert "finite" in err


def test_analytic_scan_point_limit(capsys, monkeypatch):
    assert len(parse_scan("0:1:1e-4")) == MAX_SCAN_POINTS

    def no_scan(values):
        raise AssertionError("a scan over the point limit evaluated a point")

    monkeypatch.setattr("lvt.cli.validity_scan", no_scan)
    for scan in ("0:1:1e-9", "0:1:0.99e-4", "0:1:5e-324"):
        code, _, err = run_cli(capsys, ["analytic", "--scan", scan])
        assert code == EXIT_RESOURCE
        assert f"over the limit of {MAX_SCAN_POINTS}" in err


def test_bad_flag_exits_with_usage_code(capsys):
    code, _, _ = run_cli(capsys, ["search"])  # --n is required
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys, ["no-such-command"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("target", ["missing/f.csv", "."])
def test_unwritable_out_path_is_usage_error(capsys, monkeypatch, tmp_path, target):
    # Refused before the run: nothing is printed and no search starts.
    def no_sweep(*args, **kwargs):
        raise AssertionError("a search ran with an unwritable --out path")

    monkeypatch.setattr("lvt.cli.n_sweep", no_sweep)
    out_path = tmp_path / target
    for command in (["analytic"], ["search", "--n", "3"]):
        code, out, err = run_cli(capsys, command + ["--out", str(out_path)])
        assert code == EXIT_USAGE
        assert f"error: cannot write {out_path}" in err
        assert out == ""
        assert "Traceback" not in err


def test_write_time_failure_is_usage_error(tmp_path):
    # The backstop for a path that passes the early check but cannot be opened.
    with pytest.raises(InvalidInputError, match=f"cannot write {tmp_path}"):
        write_csv(str(tmp_path), [])
