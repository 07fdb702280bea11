"""Checks of one workload's outputs against the oracles in oracles.py.

Every function returns a list of problems; an empty list means the
outputs passed. The only values taken from the program are the local
threshold tau and the count threshold T, and only after they agree with
the standard-library values to 1e-9: the replay needs them to the last
bit, which the 9-digit CLI output does not carry.
"""

from __future__ import annotations

import csv
import math
import warnings
from pathlib import Path

import oracles

CSV_HEADER = (
    "n_sensors,p0,alpha,n_exp,local_pfa,system_pfa,likelihood_r,n_trials,"
    "master_seed,ants_mean,ants_stderr,empirical_pd,empirical_pfa,"
    "upper_count,lower_count,exhausted_count"
)
# An empirical rate may sit Z_BINOMIAL binomial standard errors plus
# SLACK_TRIALS / n from its exact value. With rates near 0 or 1 the
# counts are small and skewed; these values keep a false failure below
# 1e-7 per check for the workloads' configurations.
Z_BINOMIAL = 6.0
SLACK_TRIALS = 3.0
# Absolute tolerance of the program's values against the references.
TOL = 1e-9


def print_tol(x: float) -> float:
    """Half a unit in the 9th significant digit: the CSV rounding error."""
    return 0.0 if x == 0.0 else 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 8)


def program_thresholds(n: int, local_pfa: float, system_pfa: float) -> tuple[float, float, list[str]]:
    """tau and T as the program computes them, checked against stdlib."""
    from orderfuse.fusion import system_threshold, threshold_from_local_pfa

    tau = threshold_from_local_pfa(local_pfa).tau
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        t = system_threshold(n, local_pfa, system_pfa)
    problems = []
    if abs(tau - oracles.tau_ref(local_pfa)) > TOL:
        problems.append(f"tau({local_pfa}) = {tau!r}, stdlib {oracles.tau_ref(local_pfa)!r}")
    t_ref = oracles.threshold_ref(n, local_pfa, system_pfa)
    if abs(t - t_ref) > TOL:
        problems.append(f"T({n}, {local_pfa}, {system_pfa}) = {t!r}, stdlib {t_ref!r}")
    return tau, t, problems


def _echo_problems(row: dict, cfg: dict) -> list[str]:
    fmt = oracles.fmt
    want = {
        "n_sensors": str(cfg["n_sensors"]),
        "p0": fmt(cfg["p0"]),
        "alpha": fmt(cfg["alpha"]),
        "n_exp": fmt(cfg["n_exp"]),
        "local_pfa": fmt(cfg["local_pfa"]),
        "system_pfa": fmt(cfg["system_pfa"]),
        "likelihood_r": fmt(cfg["likelihood_r"]),
    }
    if "n_trials" in cfg:
        want["n_trials"] = str(cfg["n_trials"])
        want["master_seed"] = str(cfg["master_seed"])
    return [f"{k} = {row.get(k)!r}, expected {v!r}" for k, v in want.items() if row.get(k) != v]


def _rate_problem(name: str, got: str, hits_n: int, exact: float) -> list[str]:
    if hits_n == 0:
        return [] if got == "NA" else [f"{name} = {got} with no trials of its hypothesis"]
    tol = Z_BINOMIAL * math.sqrt(exact * (1.0 - exact) / hits_n) + SLACK_TRIALS / hits_n
    if abs(float(got) - exact) > tol:
        return [f"{name} = {got}, exact binomial {exact:.6g} +- {tol:.3g} over {hits_n} trials"]
    return []


def check_mc_row(row: dict, cfg: dict) -> list[str]:
    """One result row of simulate or sweep against the oracles and the replay."""
    n, trials = cfg["n_sensors"], cfg["n_trials"]
    tau, t, problems = program_thresholds(n, cfg["local_pfa"], cfg["system_pfa"])
    problems += _echo_problems(row, cfg)
    upper, lower, exhausted = (int(row[k]) for k in ("upper_count", "lower_count", "exhausted_count"))
    if upper + lower + exhausted != trials:
        problems.append(f"stop counts {upper}+{lower}+{exhausted} != n_trials {trials}")
    ants_mean, ants_stderr = float(row["ants_mean"]), float(row["ants_stderr"])
    if not 0.0 <= ants_mean <= n - 1:
        problems.append(f"ants_mean {ants_mean} outside [0, {n - 1}]")
    # Largest sample standard error of values confined to [0, N-1].
    if trials > 1 and ants_stderr > (n - 1) / (2.0 * math.sqrt(trials - 1)) * (1 + 1e-9):
        problems.append(f"ants_stderr {ants_stderr} above (N-1)/(2 sqrt(n-1))")
    if t != math.floor(t) and exhausted != 0:
        problems.append(f"exhausted_count {exhausted} with non-integer T = {t!r}")

    totals = oracles.replay(cfg, tau, t)
    for key, value in oracles.summary_fields(totals, trials).items():
        if row[key] != value:
            problems.append(f"{key} = {row[key]}, replay gives {value}")
    pfa_exact = oracles.binomial_tail_above(n, cfg["local_pfa"], t)
    problems += _rate_problem("empirical_pfa", row["empirical_pfa"], totals["h0_n"], pfa_exact)
    pbar = oracles.mean_pd_square(oracles.tau_ref(cfg["local_pfa"]), cfg["p0"], cfg["alpha"],
                                  cfg["n_exp"], cfg["roi_b"])
    pd_exact = oracles.binomial_tail_above(n, pbar, t)
    problems += _rate_problem("empirical_pd", row["empirical_pd"], totals["h1_n"], pd_exact)
    return problems


def check_theory(rows: dict, cfg: dict) -> list[str]:
    """The quantities printed by ``theory`` against the stdlib references."""
    problems = _echo_problems(rows, cfg)
    tau = oracles.tau_ref(cfg["local_pfa"])
    t = oracles.threshold_ref(cfg["n_sensors"], cfg["local_pfa"], cfg["system_pfa"])
    pd_bar = oracles.mean_pd_disc_corner(tau, cfg["p0"], cfg["alpha"], cfg["n_exp"], cfg["roi_b"])
    for key, want in (
        ("tau", tau),
        ("system_threshold_t", t),
        ("theory_pfa", cfg["system_pfa"]),
        ("pd_bar", pd_bar),
    ):
        got = float(rows[key])
        if abs(got - want) > TOL + print_tol(want):
            problems.append(f"{key} = {rows[key]}, reference {want!r}")
    return problems


def check_monotone_pd(theory: list[tuple[dict, dict]]) -> list[str]:
    """theory_pd must not decrease as p0 grows, all else equal."""
    groups: dict[tuple, list] = {}
    for cfg, rows in theory:
        key = tuple(sorted((k, v) for k, v in cfg.items() if k != "p0"))
        groups.setdefault(key, []).append((cfg["p0"], float(rows["theory_pd"])))
    problems = []
    for points in groups.values():
        points.sort()
        for (p_lo, pd_lo), (p_hi, pd_hi) in zip(points, points[1:]):
            if pd_hi < pd_lo:
                problems.append(f"theory_pd falls from {pd_lo} at p0={p_lo} to {pd_hi} at p0={p_hi}")
    return problems


def _read_csv(path: Path) -> tuple[str, list[dict]]:
    text = path.read_text()
    header = text.splitlines()[0] if text else ""
    return header, list(csv.DictReader(text.splitlines()))


def check_outputs(ops: list[dict], work: Path) -> list[str]:
    """Every output of one round of ``ops``, written under ``work``."""
    problems: list[str] = []
    theory = []
    for op in ops:
        path = work / op["out"]
        if not path.exists():
            problems.append(f"{op['out']}: missing")
            continue
        header, rows = _read_csv(path)
        label = op["out"]
        if op["kind"] == "theory":
            if header != "quantity,value":
                problems.append(f"{label}: header {header!r}")
                continue
            table = {r["quantity"]: r["value"] for r in rows}
            problems += [f"{label}: {p}" for p in check_theory(table, op["config"])]
            theory.append((op["config"], table))
        elif op["kind"] == "simulate":
            if header != CSV_HEADER or len(rows) != 1:
                problems.append(f"{label}: header {header!r} with {len(rows)} rows")
                continue
            problems += [f"{label}: {p}" for p in check_mc_row(rows[0], op["config"])]
        else:
            values = op["values"]
            if header != "axis_value," + CSV_HEADER or len(rows) != len(values):
                problems.append(f"{label}: header {header!r} with {len(rows)} rows")
                continue
            seeds = [int(r["master_seed"]) for r in rows]
            if seeds[0] != op["config"]["master_seed"] or len(set(seeds)) != len(seeds):
                problems.append(f"{label}: cell seeds {seeds} do not start at the base seed or repeat")
            for value, seed, row in zip(values, seeds, rows):
                if row["axis_value"] != oracles.fmt(value):
                    problems.append(f"{label}: axis_value {row['axis_value']}, expected {oracles.fmt(value)}")
                cfg = dict(op["config"], p0=value, master_seed=seed)
                problems += [f"{label} p0={value}: {p}" for p in check_mc_row(row, cfg)]
    return problems + check_monotone_pd(theory)
