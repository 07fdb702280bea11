"""Tests of the benchmark's own oracles, checks and span analysis.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _q(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


@pytest.mark.parametrize("n", [1, 2, 5, 9])
@pytest.mark.parametrize("p", [0.0, 0.03, 0.5, 0.91, 1.0])
@pytest.mark.parametrize("t", [-1.5, 0.0, 0.4, 2.0, 3.7, 9.0, 12.0])
def test_binomial_tail_matches_enumeration(n, p, t):
    brute = math.fsum(
        p ** sum(bits) * (1.0 - p) ** (n - sum(bits))
        for bits in itertools.product((0, 1), repeat=n)
        if sum(bits) > t
    )
    assert oracles.binomial_tail_above(n, p, t) == pytest.approx(brute, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("pfa", [1e-6, 1e-3, 0.05, 0.5, 0.9])
def test_tau_ref_inverts_the_tail(pfa):
    assert _q(oracles.tau_ref(pfa)) == pytest.approx(pfa, rel=1e-12)


def test_threshold_ref_inverts_the_gaussian_count():
    n, pfa, spfa = 100, 1e-3, 1e-3
    t = oracles.threshold_ref(n, pfa, spfa)
    assert _q((t - n * pfa) / math.sqrt(n * pfa * (1 - pfa))) == pytest.approx(spfa, rel=1e-12)


@pytest.mark.parametrize("pfa", [1e-3, 0.05])
def test_mean_pd_is_local_pfa_without_signal(pfa):
    tau = oracles.tau_ref(pfa)
    assert oracles.mean_pd_square(tau, 0.0, 0.02, 2.0, 100.0) == pytest.approx(pfa, rel=1e-12)
    assert oracles.mean_pd_disc_corner(tau, 0.0, 0.02, 2.0, 100.0) == pytest.approx(pfa, rel=1e-12)


@pytest.mark.parametrize("p0", [1.0, 10.0, 100.0, 1000.0])
def test_mean_pd_quadratures_converge(p0):
    tau = oracles.tau_ref(1e-3)
    assert oracles.mean_pd_square(tau, p0, 0.02, 2.0, 100.0) == pytest.approx(
        oracles.mean_pd_square(tau, p0, 0.02, 2.0, 100.0, nodes=256), abs=1e-12
    )
    assert oracles.mean_pd_disc_corner(tau, p0, 0.02, 2.0, 100.0) == pytest.approx(
        oracles.mean_pd_disc_corner(tau, p0, 0.02, 2.0, 100.0, panels=64), abs=1e-12
    )


def test_mean_pd_square_matches_sampling():
    tau, p0 = oracles.tau_ref(0.05), 60.0
    xy = np.random.default_rng(7).uniform(-50.0, 50.0, size=(400_000, 2))
    amp = np.sqrt(p0 / (1.0 + 0.02 * np.hypot(xy[:, 0], xy[:, 1]) ** 2))
    sampled = np.mean([_q(tau - a) for a in amp])
    assert oracles.mean_pd_square(tau, p0, 0.02, 2.0, 100.0) == pytest.approx(sampled, abs=2e-3)


def _run_cli(argv: list[str]) -> None:
    from orderfuse import cli

    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """One small simulate run: its config and its CSV row."""
    out = tmp_path_factory.mktemp("sim") / "sim.csv"
    cfg = workloads.study_config(20, 60.0, 0.05)
    op = workloads.simulate_op(cfg, 3000, 12345, str(out))
    _run_cli(op["argv"])
    (row,) = csv.DictReader(out.read_text().splitlines())
    return op["config"], row


def test_replay_reproduces_the_program(simulated):
    cfg, row = simulated
    assert int(row["upper_count"]) > 0 and int(row["lower_count"]) > 0
    assert checks.check_mc_row(row, cfg) == []


@pytest.mark.parametrize(
    "field, change",
    [
        ("ants_mean", lambda row, cfg: oracles.fmt(float(row["ants_mean"]) + 1.0 / cfg["n_trials"])),
        ("upper_count", lambda row, cfg: str(int(row["upper_count"]) + 1)),
        ("empirical_pfa", lambda row, cfg: "0.5"),
    ],
)
def test_perturbed_row_fails_the_check(simulated, field, change):
    cfg, row = simulated
    bad = dict(row, **{field: change(row, cfg)})
    problems = checks.check_mc_row(bad, cfg)
    assert any(p.startswith(field) for p in problems), problems


def test_theory_check_passes_and_catches_a_wrong_pd_bar(tmp_path):
    out = tmp_path / "theory.csv"
    op = workloads.theory_op(workloads.study_config(100, 10.0, 1e-3), str(out))
    _run_cli(op["argv"])
    table = {r["quantity"]: r["value"] for r in csv.DictReader(out.read_text().splitlines())}
    assert checks.check_theory(table, op["config"]) == []
    table["pd_bar"] = oracles.fmt(float(table["pd_bar"]) * (1 + 1e-6))
    assert any(p.startswith("pd_bar") for p in checks.check_theory(table, op["config"]))


def test_monotone_check_catches_a_fall():
    cfg = workloads.study_config(20, 1.0, 0.05)
    theory = [(dict(cfg, p0=1.0), {"theory_pd": "0.3"}), (dict(cfg, p0=10.0), {"theory_pd": "0.2"})]
    assert checks.check_monotone_pd(theory)
    theory[1][1]["theory_pd"] = "0.3"
    assert checks.check_monotone_pd(theory) == []


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_plans_depend_on_the_seed_only_through_inputs(name):
    a, b = workloads.plan(name, 1), workloads.plan(name, 2)
    assert a == workloads.plan(name, 1)
    assert a != b
    assert [op["kind"] for op in a] == [op["kind"] for op in b]
    assert {"theory"} < {op["kind"] for op in a}


def _spans(rows):
    """Span columns from (thread, index, name, parent, t0, t1) rows."""
    cols = {k: np.array(v, dtype=np.int64) for k, v in zip(("thread", "idx", "name", "parent", "t0", "t1"), zip(*rows))}
    cols["id"] = (cols["thread"] << tracing._THREAD_SHIFT) + cols.pop("idx")
    return cols


def test_self_time_merges_overlapping_children_of_other_threads():
    pool = 1 << tracing._THREAD_SHIFT
    spans = _spans([
        (0, 0, 0, -1, 0, 100),         # parent on the main thread
        (0, 1, 1, 0, 0, 10),           # same-thread child
        (1, 0, 1, 0, 20, 60),          # pool thread 1
        (1, 1, 1, 0, 70, 80),
        (2, 0, 1, 0, 50, 75),          # pool thread 2, overlapping both
        (2, 1, 2, pool * 2, 55, 60),   # grandchild on thread 2
    ])
    selfs = tracing.self_times(spans)
    # Children cover [0, 10) and [20, 80): 70 of the parent's 100.
    assert selfs.tolist() == [30, 10, 40, 10, 20, 5]


def test_rates_are_rescaled_by_the_reference_kernel():
    import run
    import worker

    ops = workloads.plan("theory_grid", 1)
    k = worker.REFERENCE_KERNEL_S
    kernels = [k] * (len(ops) + 1)
    quiet = {"walls": [0.02] * len(ops), "kernels": kernels}
    loaded = {"walls": [0.05] * len(ops), "kernels": [2.5 * x for x in kernels]}
    first = {"walls": [0.5] * len(ops), "kernels": kernels}  # first-call costs: left out
    is_theory = lambda op: op["kind"] == "theory"  # noqa: E731
    assert run._median_rate([first, loaded, quiet, loaded], ops, is_theory) == pytest.approx(50.0)
