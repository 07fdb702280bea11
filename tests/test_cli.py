"""CLI tests: schema golden file, exit codes, config resolution, manifests."""

import math

import pytest

from orderfuse.cli import CSV_COLUMNS, main

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


def test_theory_no_signal_pd_equals_pfa(capsys):
    table = run_theory_table(["--n-sensors", "100", "--p0", "0"], capsys)
    assert table["theory_pd"] == table["theory_pfa"]


def test_theory_even_likelihood_bound_is_half_n(capsys):
    table = run_theory_table(
        ["--n-sensors", "100", "--p0", "200", "--likelihood-r", "0.5"], capsys
    )
    assert float(table["ants_combined_bound"]) == 50.0


def test_theory_csv_output(tmp_path, capsys):
    out = tmp_path / "theory.csv"
    assert main(["theory", "--n-sensors", "100", "--p0", "200", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "quantity,value"
    assert any(line.startswith("system_threshold_t,") for line in lines)
    assert (tmp_path / "theory.csv.manifest").exists()


# ── error handling / exit codes ─────────────────────────────────────


def test_unknown_axis_exits_2(tmp_path):
    code = main(["sweep", "--n-sensors", "10", "--p0", "1", "--axis", "tau",
                 "--values", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 2


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
