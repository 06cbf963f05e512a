"""Experiment registry, CSV emission, convergence fits, and the CLI."""

import contextlib
import dataclasses
import io
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import unittest.mock
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geomint import lowrank, oscillatory, symplectic
from geomint.errors import ContractViolationError, GeomintError, SolverDivergenceError
from geomint.harness import cli, convergence, csvio, experiments
from geomint.series import SeriesTable


# ----------------------------------------------------------------- SeriesTable


def test_series_table_rejects_duplicate_columns():
    with pytest.raises(ContractViolationError):
        SeriesTable(["t", "t"], [[0.0, 1.0]])


def test_series_table_rejects_ragged_rows():
    # The constructor's one shape check and its one time-order check.
    for columns, rows in [
        (["a", "b"], [[1.0]]),  # one value short
        (["a", "b"], [[1.0, 2.0], [3.0]]),  # ragged
        (["a", "b"], [1.0, 2.0]),  # one flat row
        (["a", "b"], [[1.0, "x"]]),  # not a number
        (["t", "x"], [[0.0, 1.0], [0.0, 2.0]]),  # time repeats
        (["t", "x"], [[1.0, 1.0], [0.5, 2.0]]),  # time goes back
        (["t", "x"], [[0.0, 1.0], [math.nan, 2.0]]),  # time is not a number
    ]:
        with pytest.raises(ContractViolationError):
            SeriesTable(columns, rows)


def test_series_table_is_read_only():
    rows = np.array([[0.0, 1.0], [0.5, 2.0]])
    table = SeriesTable(["t", "x"], rows)
    with pytest.raises(ValueError, match="read-only"):
        table.rows[1, 0] = -1.0
    with pytest.raises(ValueError, match="read-only"):
        table.column("x")[0] = 5.0
    rows[0, 1] = 7.0  # the table keeps its own copy
    assert table.column("x").tolist() == [1.0, 2.0]


def test_series_table_unknown_column():
    table = SeriesTable(["a"], [[1.0]])
    with pytest.raises(ContractViolationError):
        table.column("b")


# ------------------------------------------------------------------------ CSV


def test_format_value_tokens():
    assert csvio.format_value(3) == "3"
    assert csvio.format_value(0.1) == "0.10000000000000001"
    assert csvio.format_value(float("nan")) == "nan"
    assert csvio.format_value(float("inf")) == "inf"
    assert csvio.format_value(float("-inf")) == "-inf"


def test_emit_single_record_is_two_lines():
    table = SeriesTable(["t", "H"], [[0.0, -0.5]])
    buf = io.StringIO()
    csvio.emit_csv(table, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 2
    assert lines[0] == "t,H"


def test_round_trip_is_byte_identical():
    rng = np.random.default_rng(12)
    rows = [[0.1 * k, rng.standard_normal(), np.exp(40 * rng.standard_normal())] for k in range(20)]
    table = SeriesTable(["t", "x", "y"], rows + [[2.0, float("nan"), float("inf")]])
    first = io.StringIO()
    csvio.emit_csv(table, first)
    parsed = csvio.parse_csv(io.StringIO(first.getvalue()))
    second = io.StringIO()
    csvio.emit_csv(parsed, second)
    assert second.getvalue() == first.getvalue()


# Values a table may hold: any double (subnormals, +-inf, nan and -0.0
# included), integers and bools.
_CSV_VALUE = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324]),
    st.integers(-(2**64), 2**64),
    st.booleans(),
)


@given(rows=st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(_CSV_VALUE, min_size=n, max_size=n), min_size=1, max_size=8)))
def test_emitted_rows_are_format_value_joined_and_parse_back(rows):
    table = SeriesTable([f"c{j}" for j in range(len(rows[0]))], rows)
    buf = io.StringIO()
    csvio.emit_csv(table, buf)
    text = buf.getvalue()
    assert text.split("\n")[1:] == [",".join(csvio.format_value(x) for x in row)
                                    for row in rows] + [""]
    parsed = csvio.parse_csv(io.StringIO(text))
    assert len(parsed) == len(rows)
    for row, back in zip(rows, parsed.rows):
        for x, y in zip(map(float, row), back):
            if math.isnan(x):
                assert math.isnan(y)
            else:
                assert y == x and math.copysign(1.0, y) == math.copysign(1.0, x)
    # The parsed array equals the constructed one bit for bit: nan at the
    # same places, and the same bits (the sign of zero too) everywhere else.
    nan = np.isnan(table.rows)
    assert np.array_equal(np.isnan(parsed.rows), nan)
    assert np.array_equal(parsed.rows[~nan].view(np.uint64), table.rows[~nan].view(np.uint64))


def test_parse_rejects_bad_input():
    with pytest.raises(ContractViolationError):
        csvio.parse_csv(io.StringIO(""))
    with pytest.raises(ContractViolationError):
        csvio.parse_csv(io.StringIO("a,b\n1\n"))


def test_emit_to_path(tmp_path):
    table = SeriesTable(["t"], [[1.0]])
    dest = tmp_path / "out.csv"
    csvio.emit_csv(table, dest)
    assert dest.read_text() == "t\n1\n"


# Emission and parsing work in blocks of B rows; the tests below pin the
# bytes, bits, line numbers and memory at and around the block edges.
B = csvio._BLOCK_ROWS


def _awkward_table(n_rows, n_cols=3, seed=0):
    """n_rows x n_cols doubles over many decades, with -0.0, +-inf and nan."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n_rows, n_cols)) * 10.0 ** rng.integers(-300, 300, (n_rows, n_cols))
    for value, share in ((-0.0, 0.05), (0.0, 0.05), (math.inf, 0.02), (-math.inf, 0.02), (math.nan, 0.02)):
        rows[rng.random((n_rows, n_cols)) < share] = value
    return SeriesTable([f"c{j}" for j in range(n_cols)], rows)


def _same_bits(a, b):
    """Equal shapes, nan at the same places and the same bits elsewhere."""
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(np.isnan(b), nan)
            and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)))


def _parse_whole_text(text):
    """The reference parse: split the whole text at once, one float per value."""
    lines = text.splitlines()
    if not lines:
        raise ContractViolationError("empty CSV input")
    columns = lines[0].split(",")
    rows = []
    for k, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(columns):
            raise ContractViolationError(f"line {k}: expected {len(columns)} fields, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ContractViolationError(f"line {k}: {exc}") from None
    return SeriesTable(columns, np.reshape(rows, (-1, len(columns))))


class _ShortReads:
    """A source whose ``read(size)`` returns at most ``most`` characters."""

    def __init__(self, text, most):
        self._stream = io.StringIO(text)
        self._most = most

    def read(self, size):
        return self._stream.read(min(size, self._most))


@pytest.mark.parametrize("n_rows", [1, B - 1, B, B + 1, 2 * B + 1])
def test_block_edges_round_trip_byte_and_bit_identical(n_rows):
    table = _awkward_table(n_rows, seed=n_rows)
    first = io.StringIO()
    csvio.emit_csv(table, first)
    text = first.getvalue()
    assert text == "c0,c1,c2\n" + "".join(",".join(csvio.format_value(x) for x in row) + "\n"
                                          for row in table.rows.tolist())
    parsed = csvio.parse_csv(io.StringIO(text))
    assert parsed.columns == table.columns and _same_bits(parsed.rows, table.rows)
    second = io.StringIO()
    csvio.emit_csv(parsed, second)
    assert second.getvalue() == text


@pytest.mark.parametrize("bad_row, bad_text, message", [
    (B + 1, "1,2", "expected 3 fields, got 2"),
    (B + 1, "1,x,2", "could not convert string to float: 'x'"),
    (2 * B + 1, "1,2,3,4", "expected 3 fields, got 4"),
])
def test_a_bad_line_past_a_block_edge_is_reported_with_its_own_number(bad_row, bad_text, message):
    # Data row k is line k + 1, and the blank line above the last good row
    # makes the bad row line bad_row + 2.
    good = ["1,2,3"] * (bad_row - 1)
    text = "\n".join(["a,b,c", *good[:-1], "", good[-1], bad_text, "4,5,6"]) + "\n"
    expected = f"line {bad_row + 2}: {message}"
    with pytest.raises(ContractViolationError) as reference:
        _parse_whole_text(text)
    assert str(reference.value) == expected
    # Read at once, and one character per read, so every line ends a read.
    for source in (io.StringIO(text), _ShortReads(text, 1)):
        with pytest.raises(ContractViolationError) as direct:
            csvio.parse_csv(source)
        assert str(direct.value) == expected


def test_crlf_line_ends_parse_as_lf(tmp_path):
    table = _awkward_table(B + 3, seed=4)
    lf = io.StringIO()
    csvio.emit_csv(table, lf)
    crlf = lf.getvalue().replace("\n", "\r\n")
    dest = tmp_path / "crlf.csv"
    dest.write_bytes(crlf.encode("ascii"))
    # A '\r\n' may fall across two reads: three characters per read puts
    # many of them there.
    for source in (io.StringIO(crlf), _ShortReads(crlf, 3), dest):
        parsed = csvio.parse_csv(source)
        assert parsed.columns == table.columns and _same_bits(parsed.rows, table.rows)


_LINE_TEXT = st.lists(st.sampled_from(["1", "-0", "2.5", "nan", "x", ",", "", "\n", "\r", "\r\n",
                                       "\x0b", "\x0c", "\x1c"]), max_size=40).map("".join)


@settings(max_examples=300)
@given(header=st.sampled_from(["", "a", "a,b"]), body=_LINE_TEXT, most=st.integers(1, 5),
       block_rows=st.integers(1, 3))
def test_parse_matches_the_whole_text_reference(header, body, most, block_rows):
    # Any text, read a few characters at a time and parsed in blocks of one
    # to three rows: the same table bit for bit, or the same error message.
    text = header + "\n" + body if header else body

    def outcome(parse, source):
        try:
            table = parse(source)
        except ContractViolationError as exc:
            return str(exc)
        return table.columns, table.rows.shape, table.rows.tobytes()

    expected = outcome(_parse_whole_text, text)
    with unittest.mock.patch.object(csvio, "_BLOCK_ROWS", block_rows):
        assert outcome(csvio.parse_csv, _ShortReads(text, most)) == expected


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_emission_and_parsing_hold_one_block_not_the_whole_table(tmp_path):
    # 10,001 x 8, the shape of the fpu-exchange table recorded every step.
    table = SeriesTable([f"c{j}" for j in range(8)], np.random.default_rng(9).standard_normal((10_001, 8)))
    dest = tmp_path / "table.csv"
    csvio.emit_csv(table, dest)  # warm up: imports and first-call caches
    emit_peak = _traced_peak(lambda: csvio.emit_csv(table, dest))
    parse_peak = _traced_peak(lambda: csvio.parse_csv(dest))
    # Emission holds one block's Python floats and lines, about 0.5 MiB
    # whatever the length: measured 0.87 x the table's bytes here, against
    # 5.0 x when the whole table went through one tolist().
    assert emit_peak < 1.5 * table.rows.nbytes
    # Parsing holds two whole arrays at a time (the blocks and their
    # concatenation, then that and the table's copy) plus one block of
    # Python floats and one read: measured 2.4 x, against 10.4 x when the
    # whole text, its lines and a float per value were held at once.  A
    # third whole array, the blocks kept alive, would pass 3 x.
    assert parse_peak < 3.0 * table.rows.nbytes


# ---------------------------------------------------------------- convergence


def test_observed_order_on_synthetic_errors():
    h = 0.1 / 2.0 ** np.arange(4)
    table = SeriesTable(["h", "error"], np.column_stack([h, 3.0 * h**2]))
    assert convergence.observed_order(table) == pytest.approx(2.0, abs=1e-12)


def test_convergence_table_kepler_verlet_is_second_order():
    final = convergence.kepler_final(1.0)
    table = convergence.convergence_table(lambda h: final("stormer-verlet", h),
                                          final("stormer-verlet", 0.01 / 20), [0.04, 0.02, 0.01])
    assert table.columns[0] == "h"
    assert 1.8 <= convergence.observed_order(table) <= 2.2


# ----------------------------------------------------------------- experiments


def test_unknown_experiment_rejected():
    with pytest.raises(ContractViolationError):
        experiments.ExperimentConfig(experiment="warp-drive", method=None, h=0.1, t_end=1.0)


def test_wrong_method_for_experiment():
    with pytest.raises(ContractViolationError):
        experiments.ExperimentConfig(experiment="solar", method="ksl", h=100.0, t_end=1000.0)
    with pytest.raises(ContractViolationError, match="convergence-orders takes no method"):
        experiments.ExperimentConfig(experiment="convergence-orders", method="ksl")


@pytest.mark.parametrize("name", sorted(experiments.EXPERIMENTS))
def test_registry_defaults_validate(name):
    spec = experiments.EXPERIMENTS[name]
    cfg = experiments.ExperimentConfig(experiment=name)
    assert {key: getattr(cfg, key) for key in experiments._FIELDS} == {
        key: spec.defaults.get(key) for key in experiments._FIELDS}
    assert cfg.params == spec.params
    assert cfg.output is None


def test_nonpositive_step_rejected():
    with pytest.raises(ContractViolationError):
        experiments.ExperimentConfig(
            experiment="solar", method="stormer-verlet", h=-1.0, t_end=1000.0)


def test_unknown_parameter_rejected():
    with pytest.raises(ContractViolationError):
        experiments.ExperimentConfig(
            experiment="kepler-longtime", method="stormer-verlet", h=0.1, t_end=10.0,
            params={"spin": 1.0})


def test_solar_run_shape_and_summary():
    cfg = experiments.ExperimentConfig(
        experiment="solar", method="symplectic-euler-qp", h=200.0, t_end=20000.0,
        record_every=10)
    res = experiments.run_experiment(cfg)
    assert res.table.columns == ["t", "H", "rel_H_err", "r_J", "r_S", "r_U", "r_N", "r_P"]
    assert not res.diverged
    assert res.summary["steps"] == 100
    assert 0.0 < res.summary["max_rel_H_err"] < 0.2
    assert "headline" in res.summary


def test_runs_are_deterministic():
    def run():
        cfg = experiments.ExperimentConfig(
            experiment="kepler-longtime", method="stormer-verlet", h=0.05, t_end=10.0)
        return experiments.run_experiment(cfg)

    a, b = run(), run()
    assert np.array_equal(a.table.rows, b.table.rows)


# ------------------------------------------------------------------------ CLI


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "run" in capsys.readouterr().out


def test_list_prints_registry(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for name in experiments.EXPERIMENTS:
        assert name in out


def test_run_writes_csv_and_summary(tmp_path, capsys):
    dest = tmp_path / "kepler.csv"
    code = cli.main([
        "run", "kepler-longtime", "--method", "stormer-verlet",
        "--h", "0.05", "--t-end", "10", "--output", str(dest),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert dest.exists()
    assert "kepler-longtime" in out
    header = dest.read_text().splitlines()[0]
    assert header == "t,H,rel_H_err,L,L_drift"


@pytest.mark.parametrize("experiment, modes", [
    ("klein-gordon-decay", [f"E_{j}" for j in range(33)]),
    ("fpu-exchange", ["E_1", "E_2", "E_3"]),
])
def test_energy_table_headers(tmp_path, experiment, modes):
    dest = tmp_path / "energies.csv"
    assert cli.main(["run", experiment, "--t-end", "1", "--output", str(dest)]) == 0
    header = dest.read_text().splitlines()[0]
    assert header == ",".join(["t", *modes, "H_omega", "H_slow", "H", "H_rel_drift"])


def test_unknown_experiment_is_contract_violation(tmp_path, capsys):
    dest = tmp_path / "x.csv"
    assert cli.main(["run", "warp-drive", "--h", "1", "--t-end", "1", "--output", str(dest)]) == 2
    assert "unknown experiment 'warp-drive'" in capsys.readouterr().err
    assert not dest.exists()


def test_unknown_flag_is_usage_error():
    assert cli.main(["run", "solar", "--speed", "9"]) == 1


@pytest.mark.parametrize("experiment, method", [
    ("fpu-resonance-scan", "stormer-verlet"),  # takes no method
    ("solar", "ksl"),  # not one of its methods
])
def test_refused_method_is_contract_violation(tmp_path, capsys, experiment, method):
    dest = tmp_path / "x.csv"
    assert cli.main(["run", experiment, "--method", method, "--h", "0.02", "--t-end", "1",
                     "--output", str(dest)]) == 2
    err = capsys.readouterr().err
    assert f"{experiment} takes no method" in err or f"not valid for {experiment}" in err
    assert not dest.exists()


@pytest.mark.parametrize("args, config", [
    (["fpu-exchange", "--param", "m=abc"], None),
    (["fpu-exchange", "--param", "m=1.5"], None),
    (["kepler-longtime", "--param", "eccentricity=x"], None),
    (["kepler-longtime"], "h = abc"),
    (["lowrank-exactness"], "seed = x"),
    (["kepler-longtime"], "record-every = 2.5"),
    (["lowrank-robustness", "--param", "floors=a,b"], None),
    (["lowrank-robustness", "--param", "floors=,"], None),
    (["kepler-longtime", "--h", "abc"], None),
])
def test_value_that_does_not_convert_is_contract_violation(tmp_path, capsys, args, config):
    dest = tmp_path / "x.csv"
    argv = ["run", *args, "--output", str(dest)]
    if config is not None:
        (tmp_path / "run.cfg").write_text(config + "\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "contract violation" in err and "Traceback" not in err
    assert not dest.exists()


@pytest.mark.parametrize("experiment", ["lowrank-exactness", "lowrank-robustness",
                                        "convergence-orders"])
def test_the_unread_substeps_parameter_is_refused(tmp_path, capsys, experiment):
    # The low-rank experiments step with exact increments, so nothing on
    # their path reads a substep count.
    dest = tmp_path / "x.csv"
    assert cli.main(["run", experiment, "--param", "substeps=2", "--output", str(dest)]) == 2
    assert "unknown parameter(s) ['substeps']" in capsys.readouterr().err
    assert not dest.exists()


@pytest.mark.parametrize("experiment", ["fpu-exchange", "fpu-resonance-scan"])
def test_an_fpu_chain_above_100_springs_is_refused(tmp_path, capsys, experiment, monkeypatch):
    # The resonance screen's coefficient array grows like m**3; the chain
    # is refused before anything is built from it.
    monkeypatch.setattr(oscillatory, "resonance_report", None)
    dest = tmp_path / "x.csv"
    assert cli.main(["run", experiment, "--param", "m=101", "--output", str(dest)]) == 2
    assert "m must be in [1, 100], got 101" in capsys.readouterr().err
    assert not dest.exists()


@pytest.mark.parametrize("method", ["ksl", "ksl-strang"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_exactness_holds_to_roundoff(method, seed):
    # With exact increments the splitting is exact on the rank-1 and rank-3
    # families up to roundoff (Lubich & Oseledets, BIT 2014).
    result = experiments.run_experiment(experiments.ExperimentConfig(
        experiment="lowrank-exactness", method=method, seed=seed))
    assert not result.diverged
    assert result.summary["final_error_rank1"] <= 1e-13
    assert result.summary["final_error_rank3"] <= 1e-13


def test_contract_violation_maps_to_exit_two(tmp_path):
    assert cli.main([
        "run", "solar", "--method", "stormer-verlet",
        "--h", "-5", "--t-end", "1000", "--output", str(tmp_path / "x.csv"),
    ]) == 2
    assert cli.main([
        "run", "kepler-longtime", "--method", "stormer-verlet",
        "--h", "0.1", "--t-end", "1", "--param", "spin=1",
        "--output", str(tmp_path / "y.csv"),
    ]) == 2
    # An infinite frequency or Klein-Gordon mass, and a step ladder that
    # does not start at a positive finite step, are refused before any row.
    for args in (["fpu-resonance-scan", "--param", "omega=inf"],
                 ["fpu-exchange", "--param", "omega=inf"],
                 ["klein-gordon-decay", "--param", "rho=inf"],
                 ["convergence-orders", "--param", "kepler_h0=0"],
                 ["convergence-orders", "--param", "kepler_h0=inf"],
                 ["convergence-orders", "--param", "lowrank_h0=nan"]):
        dest = tmp_path / f"{args[0]}.csv"
        assert cli.main(["run", *args, "--output", str(dest)]) == 2, args
        assert not dest.exists(), args


@pytest.mark.parametrize("experiment, flag, value", [
    *[("fpu-resonance-scan", flag, value)
      for flag, value in (("--h", "0.02"), ("--t-end", "1"), ("--record-every", "1"), ("--seed", "0"))],
    ("convergence-orders", "--h", "1"),
    ("convergence-orders", "--record-every", "1"),
    ("lowrank-robustness", "--record-every", "1"),
    *[(name, "--seed", "3") for name in ("solar", "kepler-longtime", "fpu-exchange",
                                         "klein-gordon-decay")],
])
def test_flag_the_experiment_does_not_read_is_contract_violation(tmp_path, capsys, experiment,
                                                                 flag, value):
    dest = tmp_path / "x.csv"
    assert cli.main(["run", experiment, flag, value, "--output", str(dest)]) == 2
    assert f"{experiment} takes no {flag[2:].replace('-', '_')}" in capsys.readouterr().err
    assert not dest.exists()


def test_robustness_runs_the_chosen_method(tmp_path, capsys):
    errors = {}
    for method in ("ksl", "ksl-strang"):
        dest = tmp_path / f"{method}.csv"
        assert cli.main(["run", "lowrank-robustness", "--method", method, "--param", "floors=10",
                         "--t-end", "0.2", "--output", str(dest)]) == 0
        assert "envelope=ok" in capsys.readouterr().out
        table = csvio.parse_csv(dest)
        assert table.column("within_envelope").tolist() == [1.0]
        errors[method] = table.column("ksl_error")[0]
    assert errors["ksl"] != errors["ksl-strang"]


def test_record_every_zero_is_contract_violation(tmp_path):
    dest = tmp_path / "solar.csv"
    assert cli.main(["run", "solar", "--record-every", "0", "--output", str(dest)]) == 2
    assert not dest.exists()


def test_divergence_maps_to_exit_three(tmp_path, capsys):
    dest = tmp_path / "diverged.csv"
    code = cli.main([
        "run", "solar", "--method", "implicit-euler",
        "--h", "100", "--t-end", "5000", "--output", str(dest),
    ])
    out = capsys.readouterr().out
    assert code == 3
    assert "diverged" in out
    assert dest.exists()  # partial series still written


def test_kepler_divergence_writes_its_partial_csv(tmp_path, capsys):
    # Implicit Euler's Newton solve gives up at step 26 of the default run.
    dest = tmp_path / "kepler.csv"
    code = cli.main(["run", "kepler-longtime", "--method", "implicit-euler", "--output", str(dest)])
    out = capsys.readouterr().out
    assert code == 3
    assert "steps=26 " in out and "status=diverged" in out
    table = csvio.parse_csv(dest)
    assert table.columns == ["t", "H", "rel_H_err", "L", "L_drift"]
    assert table.column("t").tolist() == [0.0, 0.5, 1.0]  # steps 0, 10 and 20


def test_overflowing_robustness_floors_are_recorded_as_inf(tmp_path, capsys):
    # At speed 1e308 the phase t * theta overflows once t passes about 1.8,
    # so every splitting run diverges before t = 2; each floor is still a
    # row, outside the envelope, as an overflowing naive run is.
    dest = tmp_path / "robustness.csv"
    code = cli.main(["run", "lowrank-robustness", "--param", "speed=1e308", "--t-end", "2",
                     "--output", str(dest)])
    assert code == 3
    assert "status=diverged" in capsys.readouterr().out
    table = csvio.parse_csv(dest)
    assert table.column("floor_exponent").tolist() == [10.0, 20.0, 30.0, 40.0]
    assert np.all(table.column("ksl_error") == np.inf)
    assert np.all(table.column("naive_error") == np.inf)
    assert np.all(table.column("within_envelope") == 0.0)
    # At speed 1e300 the phases stay finite, and an exact increment is
    # bounded by 2 ||D||: the splitting runs end with finite errors of
    # order ||D||, far outside the envelope, while the naive runs overflow.
    code = cli.main(["run", "lowrank-robustness", "--param", "speed=1e300", "--t-end", "0.2",
                     "--output", str(dest)])
    assert code == 0
    assert "status=diverged" not in capsys.readouterr().out
    table = csvio.parse_csv(dest)
    assert np.all((0.5 <= table.column("ksl_error")) & (table.column("ksl_error") <= 2.0))
    assert np.all(table.column("naive_error") == np.inf)
    assert np.all(table.column("within_envelope") == 0.0)


def test_convergence_orders_runs_one_reference_per_family(monkeypatch):
    # At the defaults: 5 Kepler methods and 2 low-rank methods, 4 rungs
    # each, plus one tiny-step reference run per family.
    runs = {"kepler": 0, "lowrank": 0}

    def counting(family, run):
        def counted(*args, **kwargs):
            runs[family] += 1
            return run(*args, **kwargs)
        return counted

    monkeypatch.setattr(symplectic, "integrate", counting("kepler", symplectic.integrate))
    monkeypatch.setattr(lowrank, "integrate_lowrank", counting("lowrank", lowrank.integrate_lowrank))
    result = experiments.run_experiment(experiments.ExperimentConfig("convergence-orders"))
    assert not result.diverged
    assert runs == {"kepler": 21, "lowrank": 9}


def test_a_diverging_reference_run_ends_the_table_before_its_family(monkeypatch):
    # The low-rank reference run overflows after the Kepler ladders: their
    # rows are the table, and no low-rank rung is recorded.
    def lowrank_final(t_end, seed):
        def final(method, h):
            exc = SolverDivergenceError("reference overflowed", step_index=1)
            exc.records = []
            raise exc

        return final

    monkeypatch.setattr(experiments, "lowrank_final", lowrank_final)
    result = experiments.run_experiment(experiments.ExperimentConfig("convergence-orders"))
    assert result.diverged
    assert result.table.column("method_index").tolist() == [float(i) for i in range(5) for _ in range(4)]
    assert list(result.summary["orders"]) == list(convergence.KEPLER_METHODS)


def test_convergence_ladder_divergence_writes_the_completed_rungs(tmp_path, capsys):
    # Implicit Euler's Newton solve fails on its coarsest rung (h = 0.1);
    # explicit Euler's three rungs were completed before it.
    dest = tmp_path / "orders.csv"
    code = cli.main(["run", "convergence-orders", "--param", "kepler_h0=0.1",
                     "--param", "levels=3", "--t-end", "1", "--output", str(dest)])
    out = capsys.readouterr().out
    assert code == 3
    assert "steps=3 " in out and "status=diverged" in out
    table = csvio.parse_csv(dest)
    assert table.columns == ["method_index", "h", "error", "order"]
    assert table.column("method_index").tolist() == [0.0, 0.0, 0.0]
    assert table.column("h").tolist() == [0.1, 0.05, 0.025]
    assert math.isnan(table.column("order")[0]) and np.all(np.isfinite(table.column("order")[1:]))


@pytest.mark.parametrize("method, steps", [("trig-mollified", 20), ("trig-impulse", 19)])
def test_oscillatory_divergence_writes_its_partial_csv(tmp_path, capsys, method, steps):
    # h = 0.5 is admissible for omega = 10, but the filtered run blows up.
    dest = tmp_path / "exchange.csv"
    code = cli.main(["run", "fpu-exchange", "--method", method, "--h", "0.5",
                     "--param", "omega=10", "--t-end", "200", "--output", str(dest)])
    out = capsys.readouterr().out
    assert code == 3
    assert f"steps={steps} " in out and "status=diverged" in out
    table = csvio.parse_csv(dest)
    assert table.columns[0] == "t" and 1 <= len(table) and np.all(np.isfinite(table.rows))


def test_convergence_table_divergence_carries_the_completed_rungs():
    final = convergence.kepler_final(1.0)
    with pytest.raises(SolverDivergenceError) as caught:
        convergence.convergence_table(lambda h: final("implicit-euler", h),
                                      final("stormer-verlet", 0.1 / 20), [0.4, 0.2, 0.1])
    assert isinstance(caught.value.records, SeriesTable)
    assert caught.value.records.columns == ["h", "error", "order"]


def test_exactness_divergence_writes_the_records_so_far(tmp_path, capsys, monkeypatch):
    # The exactness families cannot overflow at their own speed, so the
    # flow is built faster.
    build = lowrank.rotating_flow
    dest = tmp_path / "exactness.csv"

    def run_at(speed):
        monkeypatch.setattr(lowrank, "rotating_flow", lambda *args, **kwargs: build(
            *args, **{**kwargs, "speed": speed}))
        code = cli.main(["run", "lowrank-exactness", "--t-end", "2", "--output", str(dest)])
        return code, capsys.readouterr().out, csvio.parse_csv(dest)

    # At speed 1e308 the phase t * theta overflows in step 36 (t from 1.75
    # to 1.8): both runs diverge there, after 36 records.
    code, out, table = run_at(1e308)
    assert code == 3
    assert "steps=36 " in out and "status=diverged" in out
    assert table.column("t").tolist() == [0.05 * k for k in range(36)]
    assert table.rows[0, 1] <= 1e-12 and table.rows[0, 3] <= 1e-12
    assert np.all(np.isfinite(table.rows))
    # At speed 1e300 every phase stays finite, so the runs end.
    code, out, table = run_at(1e300)
    assert code == 0
    assert "steps=40 " in out and "status=diverged" not in out
    assert len(table) == 41 and np.all(np.isfinite(table.rows))


def test_unresolvable_step_product_is_refused_by_the_screen(tmp_path, capsys):
    # h * omega = 2e306: neighbouring doubles lie far more than sqrt(h)
    # apart there, so the screen cannot tell a resonance and refuses.
    dest = tmp_path / "x.csv"
    code = cli.main(["run", "fpu-exchange", "--param", "omega=1e308", "--output", str(dest)])
    err = capsys.readouterr().err
    assert code == 2
    assert "step size 0.02 is resonant for fpu-chain-m3" in err
    assert "too large for that distance to be resolved" in err
    assert "Traceback" not in err
    assert not dest.exists()


def test_resonant_step_error_is_a_contract_violation(tmp_path, capsys, monkeypatch):
    # With the screen made to admit h * omega = 2e306, the kernel's sinc
    # check refuses the step.
    screen = oscillatory.resonance_report

    def admit(sys, h, n_sum_terms=1):
        return dataclasses.replace(screen(sys, h, n_sum_terms), admissible=True)

    monkeypatch.setattr(oscillatory, "resonance_report", admit)
    dest = tmp_path / "x.csv"
    code = cli.main(["run", "fpu-exchange", "--param", "omega=1e308", "--output", str(dest)])
    err = capsys.readouterr().err
    assert code == 2
    assert "sinc(h*omega) vanishes" in err
    assert "Traceback" not in err
    assert not dest.exists()


def test_other_library_errors_map_to_exit_three(tmp_path, capsys, monkeypatch):
    def fail(config):
        raise GeomintError("K factor lost rank")

    monkeypatch.setattr(cli, "run_experiment", fail)
    code = cli.main(["run", "lowrank-exactness", "--output", str(tmp_path / "x.csv")])
    assert code == 3
    assert "GeomintError: K factor lost rank" in capsys.readouterr().err


def test_step_ceiling_exits_two_at_once(tmp_path, capsys):
    start = time.perf_counter()
    code = cli.main(["run", "kepler-longtime", "--h", "1e-300", "--t-end", "1",
                     "--output", str(tmp_path / "x.csv")])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "MAX_STEPS" in capsys.readouterr().err


def test_module_entry_point_runs_without_import_warnings():
    src = str(Path(experiments.__file__).resolve().parents[2])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "geomint.harness.cli", "list"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert "kepler-longtime" in done.stdout


def test_unwritable_output_maps_to_exit_four():
    assert cli.main([
        "run", "kepler-longtime", "--method", "stormer-verlet",
        "--h", "0.1", "--t-end", "1",
        "--output", "/nonexistent-dir/out.csv",
    ]) == 4


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# experiment defaults\n"
        "method = stormer-verlet\n"
        "h = 0.2\n"
        "t-end = 10\n"
        "eccentricity = 0.3\n"
    )
    dest = tmp_path / "out.csv"
    code = cli.main([
        "run", "kepler-longtime", "--config", str(config),
        "--h", "0.1", "--output", str(dest),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "steps=100" in out  # flag h=0.1 beat the config's 0.2


def test_cli_output_is_reproducible(tmp_path):
    def run(name):
        dest = tmp_path / name
        assert cli.main([
            "run", "lowrank-exactness", "--method", "ksl",
            "--h", "0.1", "--t-end", "1", "--output", str(dest),
        ]) == 0
        return dest.read_bytes()

    assert run("a.csv") == run("b.csv")


# -------------------------------------------------------------------- CLI fuzz

# Bounded values: runs take at most about 100 steps, a drawn FPU m or
# Klein-Gordon modes is at most 8 (the resonance screen's signed sums grow
# like m**2, and the scan screens 126 step sizes), and convergence-orders
# always draws short step ladders.  A flag is drawn only for an experiment
# that reads its field, and --t-end always is.  Each example spoils at most
# one value with text that does not convert or lies out of range, or adds a
# flag the experiment does not read, so every refusal is reached on its own.
_FUZZ_FLAGS = {"--t-end": ("0.2", "1"), "--h": ("0.02", "0.1"), "--record-every": ("1", "3"),
               "--seed": ("0", "7")}
_FUZZ_PARAMS = {
    "kepler-longtime": {"eccentricity": ("0.3", "0.95")},
    "fpu-exchange": {"m": ("1", "3", "8"), "omega": ("20", "1e308")},
    "fpu-resonance-scan": {"m": ("2", "8"), "omega": ("50",), "h_min": ("0.01",),
                           "h_max": ("0.1",), "n_points": ("1", "5")},
    "klein-gordon-decay": {"modes": ("4", "8"), "rho": ("0.5", "2"), "eps": ("0.1", "10")},
    "lowrank-robustness": {"rank": ("1", "3"), "floors": ("10", "10,40"),
                           "tail_scale": ("1", "1e-6"), "speed": ("1", "40")},
    "convergence-orders": {"kepler_h0": ("0.1",), "lowrank_h0": ("0.1",), "levels": ("3",)},
}
_FUZZ_BAD = ("abc", "1.5", "-1", "0", "nan", "inf", "1e300", "1e-300", "a,b", "ksl")


def _unread_flags(argv):
    """The flags in ``argv`` whose field the experiment does not read."""
    spec = experiments.EXPERIMENTS.get(argv[1])
    return [arg for arg in argv[2:] if spec and arg in _FUZZ_FLAGS
            and arg[2:].replace("-", "_") not in spec.defaults]


@st.composite
def _cli_argvs(draw):
    name = draw(st.sampled_from([*sorted(experiments.EXPERIMENTS), "warp-drive"]))
    spec = experiments.EXPERIMENTS.get(name)
    unread = _unread_flags(["run", name, *_FUZZ_FLAGS])
    pools = {flag: good for flag, good in _FUZZ_FLAGS.items() if flag not in unread}
    if spec and spec.methods:
        pools["--method"] = spec.methods
    pools.update((f"--param {key}", good) for key, good in _FUZZ_PARAMS.get(name, {}).items())
    values = {key: draw(st.sampled_from(good)) for key, good in pools.items()
              if key == "--t-end" or (name == "convergence-orders" and key.startswith("--param"))
              or draw(st.booleans())}
    spoiled = draw(st.sampled_from([None, *sorted({"--method", *pools}), *unread]))
    if spoiled in unread:
        values[spoiled] = draw(st.sampled_from(_FUZZ_FLAGS[spoiled]))
    elif spoiled is not None:
        values[spoiled] = draw(st.sampled_from(_FUZZ_BAD))
    argv = ["run", name]
    for key, value in values.items():
        flag, _, param = key.partition(" ")
        argv += [flag, f"{param}={value}" if param else value]
    if spoiled not in unread and draw(st.integers(0, 9)) == 0:
        argv += draw(st.sampled_from((["--param", "spin=1"], ["--param", "m"], ["--speed", "9"])))
    return argv


@given(argv=_cli_argvs())
@example(argv=["run", "solar", "--method", "implicit-euler", "--t-end", "2000"])
@example(argv=["run", "fpu-resonance-scan", "--param", "n_points=-1"])
@example(argv=["run", "lowrank-robustness", "--t-end", "0.2", "--param", "tail_scale=1e300"])
@example(argv=["run", "lowrank-robustness", "--t-end", "0.2", "--param", "speed=1e300"])
@example(argv=["run", "convergence-orders", "--t-end", "1", "--param", "kepler_h0=0.1",
               "--param", "levels=3"])
@example(argv=["run", "lowrank-exactness", "--t-end", "0.2", "--seed", "-1"])
@example(argv=["run", "klein-gordon-decay", "--param", "rho=1e-300"])
@example(argv=["run", "klein-gordon-decay", "--param", "eps=0"])
@settings(max_examples=150)
def test_cli_fuzz_keeps_the_exit_code_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        dest = Path(tmp) / "out.csv"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--output", str(dest)])
        assert code in (0, 1, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if _unread_flags(argv):
            assert code == 2, err.getvalue()
        if code == 2:
            assert not dest.exists()
        if code == 3:
            # Every divergence is a recorded outcome: the rows finished
            # before it are written, and stdout says so.
            assert dest.exists(), err.getvalue()
            assert "status=diverged" in out.getvalue(), out.getvalue()
