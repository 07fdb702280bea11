"""CLI tests: schema golden file, exit codes, config resolution, manifests."""

import math
import platform
import warnings

import numpy as np
import pytest

from orderfuse import experiment
from orderfuse.cli import CSV_COLUMNS, build_parser, main

# Frozen golden output for a fixed tiny run (seed 42, 50 trials). Any
# schema or determinism regression shows up as a byte-level diff here.
GOLDEN_ARGS = ["--n-sensors", "100", "--p0", "100000", "--trials", "50", "--seed", "42"]
GOLDEN_CSV = (
    "n_sensors,p0,alpha,n_exp,local_pfa,system_pfa,likelihood_r,n_trials,"
    "master_seed,ants_mean,ants_stderr,empirical_pd,empirical_pfa,"
    "upper_count,lower_count,exhausted_count\n"
    "100,100000,0.02,2,0.001,0.001,0.5,50,42,49.5,6.92857143,1,0,25,25,0\n"
)


def run_theory_table(args, capsys) -> dict:
    assert main(["theory", *args]) == 0
    table = {}
    for line in capsys.readouterr().out.splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            table[key.strip()] = value.strip()
    return table


# ── golden file / determinism ───────────────────────────────────────


def test_simulate_golden_csv(tmp_path):
    out = tmp_path / "run.csv"
    assert main(["simulate", *GOLDEN_ARGS, "--out", str(out)]) == 0
    assert out.read_text() == GOLDEN_CSV
    manifest = tmp_path / "run.csv.manifest"
    assert manifest.exists()
    text = manifest.read_text()
    assert "master_seed = 42" in text
    assert "command = simulate" in text


def test_manifest_records_numpy_and_python_versions(tmp_path):
    out = tmp_path / "run.csv"
    assert main(["simulate", *GOLDEN_ARGS, "--out", str(out)]) == 0
    lines = (tmp_path / "run.csv.manifest").read_text().splitlines()
    assert f"numpy_version = {np.__version__}" in lines
    assert f"python_version = {platform.python_version()}" in lines
    assert out.read_text() == GOLDEN_CSV


def test_simulate_rerun_byte_identical_any_threads(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", *GOLDEN_ARGS, "--threads", "1", "--out", str(out1)]) == 0
    assert main(["simulate", *GOLDEN_ARGS, "--threads", "4", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_golden_schema(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--n-sensors", "100", "--p0", "10", "--trials", "20", "--seed", "5",
         "--axis", "p0", "--values", "10,1000", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "axis_value," + CSV_COLUMNS
    assert len(lines) == 3
    # cell 0 keeps the base seed; later cells get derived seeds
    assert lines[1].split(",")[9] == "5"
    assert lines[2].split(",")[9] != "5"


# Frozen sweep rows along an int axis and a real axis: the axis value
# and every column, cell seeds included.
GOLDEN_SWEEPS = {
    ("--n-sensors", "100", "--p0", "100000", "--trials", "50", "--seed", "42",
     "--axis", "n_sensors", "--values", "20,50,100"): (
        "20,20,100000,0.02,2,0.001,0.001,0.5,50,42,9.5,1.35714286,1,0.04,26,24,0\n"
        "50,50,100000,0.02,2,0.001,0.001,0.5,50,11400714819323198527,"
        "33.32,3.26533306,1,0,34,16,0\n"
        "100,100,100000,0.02,2,0.001,0.001,0.5,50,4354685564936845396,"
        "49.5,6.92857143,1,0,25,25,0\n"
    ),
    ("--n-sensors", "50", "--p0", "100", "--trials", "200", "--seed", "9",
     "--axis", "local_pfa", "--values", "0.001,0.01,0.05"): (
        "0.001,50,100,0.02,2,0.001,0.001,0.5,200,9,23.48,1.66077962,1,0.0816326531,110,90,0\n"
        "0.01,50,100,0.02,2,0.01,0.001,0.5,200,11400714819323198494,"
        "22.06,1.53094775,1,0.0188679245,96,104,0\n"
        "0.05,50,100,0.02,2,0.05,0.001,0.5,200,4354685564936845363,"
        "22.43,1.2166663,1,0.00961538462,97,103,0\n"
    ),
}


@pytest.mark.parametrize("args", list(GOLDEN_SWEEPS), ids=["n_sensors", "local_pfa"])
def test_sweep_golden_rows(tmp_path, args):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *args, "--out", str(out)]) == 0
    expected = "axis_value," + CSV_COLUMNS + "\n" + GOLDEN_SWEEPS[args]
    assert out.read_bytes() == expected.encode()


def test_sweep_rerun_byte_identical(tmp_path):
    args = ["sweep", "--n-sensors", "50", "--p0", "100", "--trials", "30", "--seed", "9",
            "--axis", "likelihood_r", "--values", "0,0.5,1"]
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main([*args, "--out", str(out1), "--threads", "1"]) == 0
    assert main([*args, "--out", str(out2), "--threads", "3"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# ── theory command ──────────────────────────────────────────────────


def test_theory_default_threshold(capsys):
    table = run_theory_table(["--n-sensors", "100", "--p0", "200"], capsys)
    assert float(table["system_threshold_t"]) == pytest.approx(1.0767, abs=1e-4)
    assert float(table["tau"]) == pytest.approx(3.090232, abs=1e-6)


def test_theory_even_local_pfa_prints_positive_zero_tau(capsys):
    table = run_theory_table(["--n-sensors", "100", "--p0", "200", "--local-pfa", "0.5"], capsys)
    assert table["tau"] == "0"


def test_theory_deep_system_pfa_threshold(capsys):
    # T = Q^-1(1e-100) * sqrt(1000 * 0.05 * 0.95) + 50, with
    # Q^-1(1e-100) = 21.2734536; the Gaussian approximation at that T
    # must give back the requested system pfa.
    table = run_theory_table(
        ["--n-sensors", "1000", "--p0", "100", "--local-pfa", "0.05", "--system-pfa", "1e-100"],
        capsys,
    )
    assert table["system_threshold_t"] == "196.617161"
    assert table["theory_pfa"] == "1e-100"


def test_theory_no_signal_pd_equals_pfa(capsys):
    table = run_theory_table(["--n-sensors", "100", "--p0", "0"], capsys)
    assert table["theory_pd"] == table["theory_pfa"]


def test_theory_even_likelihood_bound_is_half_n(capsys):
    # T = 1.077 is not an integer, so the best cases add to (N - 1) / 2.
    table = run_theory_table(
        ["--n-sensors", "100", "--p0", "200", "--likelihood-r", "0.5"], capsys
    )
    assert float(table["ants_combined_bound"]) == 49.5


@pytest.mark.parametrize(
    "args, n, expected",
    [
        # T = -1.08 <= 0: the first arrival stops every run upper.
        (["--n-sensors", "100", "--system-pfa", "0.9999", "--likelihood-r", "1"], 100, "99,0,99"),
        # T = 6.99 >= N: the first arrival stops every run lower.
        (["--n-sensors", "5", "--local-pfa", "0.9", "--system-pfa", "0.0001"], 5, "0,2,2"),
    ],
    ids=["t-below-0", "t-above-n"],
)
def test_theory_savings_defined_for_degenerate_thresholds(capsys, args, n, expected):
    with pytest.warns(RuntimeWarning, match="count threshold"):
        table = run_theory_table([*args, "--p0", "100"], capsys)
    keys = ("ants_upper_case_bound", "ants_lower_case_bound", "ants_combined_bound")
    assert ",".join(table[k] for k in keys) == expected
    assert all(0.0 <= float(table[k]) <= n - 1 for k in keys)


@pytest.mark.parametrize(
    "args",
    [
        ["--n-sensors", "100", "--p0", "3000", "--local-pfa", "0.05"],
        ["--n-sensors", "100", "--p0", "30000", "--local-pfa", "0.05", "--decay-exp", "2.5"],
    ],
    ids=["p0-3000", "p0-30000-n2.5"],
)
def test_theory_strong_signal_converges(capsys, args):
    # Nearly every sensor detects here; the variance quadrature used to
    # exhaust its refinement depth on these (one after about 45 s).
    table = run_theory_table(args, capsys)
    assert 0.0 < float(table["sigma_bar_sq"]) <= 0.25


@pytest.mark.parametrize("p0, pd_bar", [("100", "0.00868718426"), ("100000", "1")])
def test_theory_tiny_local_pfa_converges(capsys, p0, pd_bar):
    # At local_pfa 1e-16 the detection rate spans many orders of magnitude
    # across the disc; a tolerance taken from a coarse first estimate of
    # the integral, far below its value, once ran 25 s and then failed.
    table = run_theory_table(["--n-sensors", "100", "--p0", p0, "--local-pfa", "1e-16"], capsys)
    assert table["pd_bar"] == pd_bar


def test_theory_csv_output(tmp_path, capsys):
    out = tmp_path / "theory.csv"
    assert main(["theory", "--n-sensors", "100", "--p0", "200", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "quantity,value"
    assert any(line.startswith("system_threshold_t,") for line in lines)
    assert (tmp_path / "theory.csv.manifest").exists()


# Frozen `theory --out` values, one line per configuration, in the row
# order of THEORY_QUANTITIES. They pin the quadrature to 9 significant
# digits across sensor counts, decay exponents and powers.
THEORY_QUANTITIES = (
    "n_sensors p0 alpha n_exp roi_b local_pfa system_pfa likelihood_r tau "
    "system_threshold_t gamma pd_bar sigma_bar_sq theory_pfa theory_pd "
    "ants_upper_case_bound ants_lower_case_bound ants_combined_bound"
).split()
GOLDEN_THEORY = {
    ("20", "2", "200", "0.05"):
        "20 200 0.02 2 100 0.05 0.001 0.5 1.64485363 4.01198588 0.406072972 "
        "0.75794011 0.137229114 0.001 1 7.5 2 9.5",
    ("20", "3", "1000", "0.001"):
        "20 1000 0.02 3 100 0.001 0.001 0.5 3.09023231 0.456806277 0.00332181636 "
        "0.120209424 0.0378678704 0.001 0.987379502 9.5 0 9.5",
    ("100", "2", "0", "0.001"):
        "100 0 0.02 2 100 0.001 0.001 0.5 3.09023231 1.07672853 0.001 "
        "0.001 0.000999 0.001 0.001 49 0.5 49.5",
    ("100", "2.5", "1000", "0.05"):
        "100 1000 0.02 2.5 100 0.05 0.001 0.5 1.64485363 11.7350052 0.289449472 "
        "0.694809652 0.144260364 0.001 1 44 5.5 49.5",
    ("1000", "2.5", "200", "0.001"):
        "1000 200 0.02 2.5 100 0.001 0.001 0.5 3.09023231 4.0886868 0.00462286041 "
        "0.110097486 0.0425335877 0.001 1 497.5 2 499.5",
    ("1000", "3", "0", "0.05"):
        "1000 0 0.02 3 100 0.05 0.001 0.5 1.64485363 71.2979564 0.05 "
        "0.05 0.0475 0.001 0.001 464 35.5 499.5",
}


@pytest.mark.parametrize("n, n_exp, p0, local_pfa", list(GOLDEN_THEORY), ids="-".join)
def test_theory_golden_bytes(tmp_path, n, n_exp, p0, local_pfa):
    out = tmp_path / "theory.csv"
    argv = ["theory", "--n-sensors", n, "--decay-exp", n_exp, "--p0", p0,
            "--local-pfa", local_pfa, "--out", str(out)]
    assert main(argv) == 0
    values = GOLDEN_THEORY[n, n_exp, p0, local_pfa].split()
    rows = "".join(f"{k},{v}\n" for k, v in zip(THEORY_QUANTITIES, values, strict=True))
    expected = "quantity,value\n" + rows
    assert out.read_bytes() == expected.encode()


@pytest.mark.parametrize("n_exp", ["2", "2.5", "3"])
def test_theory_huge_roi_runs_without_overflow_warning(tmp_path, n_exp):
    # At b = 1e150 the corner distance to the power n_exp overflows to
    # inf; the amplitude there is 0, its limit, and no warning is printed.
    out = tmp_path / "theory.csv"
    argv = ["theory", "--n-sensors", "20", "--p0", "100", "--roi-b", "1e150",
            "--decay-exp", n_exp, "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    values = (f"20 100 0.02 {n_exp} 1e+150 0.001 0.001 0.5 3.09023231 0.456806277 "
              "0.001 0.001 0.000999 0.001 0.001 9.5 0 9.5").split()
    rows = "".join(f"{k},{v}\n" for k, v in zip(THEORY_QUANTITIES, values, strict=True))
    assert out.read_bytes() == ("quantity,value\n" + rows).encode()


@pytest.mark.parametrize("command, roi_b", [
    pytest.param("theory", "1e300", id="theory"),
    pytest.param("simulate", "1e300", id="simulate"),
    pytest.param("theory", "1e-200", id="theory-1e-200"),
    pytest.param("theory", "1e-160", id="theory-1e-160"),
    pytest.param("theory", "1.5e-154", id="theory-1.5e-154"),
    pytest.param("theory", "1.8695287758658488e-154", id="theory-below-smallest"),
    pytest.param("simulate", "1e-200", id="simulate-1e-200"),
])
def test_roi_side_with_infinite_square_exits_2(tmp_path, capsys, command, roi_b):
    # side_b**2 overflows above 1.3407807929942596e154; theory used to
    # exit 1 there, or refine its quadrature to full depth for minutes.
    # Below 1.869528775865849e-154 the disc weight 2*pi/side_b**2
    # overflows (or side_b**2 underflows to 0), and theory exited 1.
    out = tmp_path / "x.csv"
    code = main([command, "--n-sensors", "20", "--p0", "100", "--roi-b", roi_b,
                 "--trials", "10", "--out", str(out)])
    assert code == 2
    assert "roi_b" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_theory_at_smallest_roi_side_prints_finite_rows(tmp_path):
    # The smallest side whose disc weight 2*pi/side_b**2 is finite: every
    # sensor sits at the target, so pd_bar is the detection rate there.
    out = tmp_path / "t.csv"
    assert main(["theory", "--n-sensors", "20", "--p0", "10",
                 "--roi-b", "1.869528775865849e-154", "--out", str(out)]) == 0
    rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
    assert all(math.isfinite(float(v)) for v in rows.values())
    assert rows["pd_bar"] == rows["gamma"] == "0.528717093"


def test_simulate_huge_roi_runs_without_overflow_warning(tmp_path):
    # At n_exp = 3, d**3 overflows for sensor distances above about
    # 5.6e102; the amplitude there is 0, its limit, and no warning is printed.
    out = tmp_path / "sim.csv"
    argv = ["simulate", "--n-sensors", "20", "--p0", "100", "--roi-b", "1e120",
            "--decay-exp", "3", "--trials", "200", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    assert out.read_text().splitlines()[1].startswith("20,100,0.02,3,")


# ── one parser per process ──────────────────────────────────────────


def main_help(argv, capsys) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def fresh_parser_help(argv, capsys) -> str:
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    return capsys.readouterr().out


def test_repeated_calls_write_identical_bytes(tmp_path):
    written = []
    for i in range(2):
        theory_out, sim_out = tmp_path / f"t{i}.csv", tmp_path / f"s{i}.csv"
        assert main(["theory", "--n-sensors", "100", "--p0", "200", "--out", str(theory_out)]) == 0
        assert main(["simulate", *GOLDEN_ARGS, "--out", str(sim_out)]) == 0
        written.append((theory_out.read_bytes(), sim_out.read_text()))
    assert written[0] == written[1]
    assert written[0][1] == GOLDEN_CSV


def test_usage_error_then_valid_call(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert main(["simulate", "--n-sensors", "ten", "--out", str(out)]) == 2
    assert "--n-sensors" in capsys.readouterr().err
    assert main(["simulate", *GOLDEN_ARGS, "--out", str(out)]) == 0
    assert out.read_text() == GOLDEN_CSV


def test_help_after_run_matches_fresh_parser(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    assert main(["simulate", *GOLDEN_ARGS, "--out", str(tmp_path / "run.csv")]) == 0
    capsys.readouterr()
    reused = main_help(["simulate", "--help"], capsys)
    assert reused == fresh_parser_help(["simulate", "--help"], capsys)
    assert "--n-sensors" in reused


def test_help_wraps_to_columns_set_after_first_call(capsys, monkeypatch):
    # argparse reads the width when it formats help, not when the cached
    # parser was built.
    assert main(["theory", "--n-sensors", "100", "--p0", "200"]) == 0
    capsys.readouterr()
    widths = {}
    for columns in ("40", "160"):
        monkeypatch.setenv("COLUMNS", columns)
        reused = main_help(["theory", "--help"], capsys)
        assert reused == fresh_parser_help(["theory", "--help"], capsys)
        widths[columns] = max(len(line) for line in reused.splitlines())
    assert widths["40"] < widths["160"]


# ── error handling / exit codes ─────────────────────────────────────


def test_unknown_axis_exits_2(tmp_path):
    code = main(["sweep", "--n-sensors", "10", "--p0", "1", "--axis", "tau",
                 "--values", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 2


@pytest.mark.parametrize("axis, values", [
    ("n_sensors", "20,0"), ("local_pfa", "0.01,1.5"), ("p0", "5,-1"),
    ("n_sensors", "10,x"), ("n_sensors", "10,2.5"),
])
def test_bad_sweep_value_exits_2_before_any_cell_runs(tmp_path, capsys, monkeypatch, axis, values):
    # Every cell's config is checked first: a bad last value must not
    # cost the Monte Carlo runs of the cells before it. A value that does
    # not parse as the axis type is reported the same way.
    def no_run(config):
        raise AssertionError("monte_carlo called")

    monkeypatch.setattr(experiment, "monte_carlo", no_run)
    code = main(["sweep", "--n-sensors", "20", "--p0", "10", "--trials", "5",
                 "--axis", axis, "--values", values, "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {axis}: ")
    assert f"sweep value {values.rsplit(',', 1)[1]!r}: " in err
    assert list(tmp_path.iterdir()) == []


def test_empty_values_exits_2(tmp_path):
    code = main(["sweep", "--n-sensors", "10", "--p0", "1", "--trials", "5",
                 "--axis", "p0", "--values", " , ", "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_missing_required_field_exits_2(tmp_path, capsys):
    code = main(["simulate", "--p0", "1", "--trials", "5", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "n_sensors" in capsys.readouterr().err


def test_invalid_value_exits_2_and_names_field(tmp_path, capsys):
    code = main(["simulate", "--n-sensors", "10", "--p0", "1", "--trials", "5",
                 "--local-pfa", "2.0", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "local_pfa" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-5"])
def test_threads_below_one_exits_2_and_writes_nothing(tmp_path, capsys, threads):
    out = tmp_path / "x.csv"
    code = main(["simulate", "--n-sensors", "10", "--p0", "1", "--trials", "5",
                 "--threads", threads, "--out", str(out)])
    assert code == 2
    assert "threads" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_threads_in_config_file_is_accepted_and_recorded(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("threads = 3\n")
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", str(cfg), *GOLDEN_ARGS, "--out", str(out)]) == 0
    assert out.read_text() == GOLDEN_CSV
    assert "threads = 3" in (tmp_path / "x.csv.manifest").read_text()


def test_unwritable_output_exits_1(tmp_path):
    code = main(["simulate", "--n-sensors", "10", "--p0", "1", "--trials", "5",
                 "--out", str(tmp_path / "missing" / "x.csv")])
    assert code == 1


def test_no_command_exits_2():
    assert main([]) == 2


# ── config file handling ────────────────────────────────────────────


def test_config_file_with_flag_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# base configuration\n"
        "n_sensors = 100\n"
        "p0 = 200\n"
        "local_pfa = 0.01\n"
    )
    table = run_theory_table(["--config", str(cfg), "--local-pfa", "0.001"], capsys)
    assert table["n_sensors"] == "100"
    assert table["local_pfa"] == "0.001"  # flag wins over file


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n_sensors = 10\nbogus_key = 3\n")
    code = main(["theory", "--config", str(cfg), "--p0", "1"])
    assert code == 2
    assert "bogus_key" in capsys.readouterr().err


def test_simulate_r0_marks_pd_na(tmp_path):
    out = tmp_path / "r0.csv"
    assert main(["simulate", "--n-sensors", "20", "--p0", "10", "--trials", "10",
                 "--likelihood-r", "0", "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[CSV_COLUMNS.split(",").index("empirical_pd")] == "NA"


def test_sweep_savings_trend_over_power(tmp_path):
    out = tmp_path / "p0_sweep.csv"
    assert main(["sweep", "--n-sensors", "100", "--p0", "10", "--trials", "1000",
                 "--seed", "31", "--axis", "p0", "--values", "10,100,10000",
                 "--out", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    cols = header.split(",")
    mean_i, se_i = cols.index("ants_mean"), cols.index("ants_stderr")
    stats = [(float(r.split(",")[mean_i]), float(r.split(",")[se_i])) for r in rows]
    for (m_lo, se_lo), (m_hi, se_hi) in zip(stats, stats[1:]):
        assert m_hi - m_lo >= -2.0 * math.hypot(se_lo, se_hi)
