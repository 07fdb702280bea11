"""Workload plans: the CLI invocations each benchmark workload makes.

A plan is a list of operations, each one ``orderfuse`` command line plus
the configuration the checks need. A run repeats the same round of
operations, so every run attempts whole rounds. The benchmark seed only
picks master seeds and a small jitter of the emitted power p0; the grid
shapes, sensor counts and trial counts are fixed, so the cost of a round
hardly depends on the seed.

Every workload mixes ``theory`` and Monte Carlo calls, because a user
reproducing an ANTS curve computes both for the same configuration and
because each end-to-end metric is reported on every workload. The mix is
what sets each workload's character (see README.md).
"""

from __future__ import annotations

import random

WORKLOADS = ("simulate_n20", "simulate_n1000", "sweep_p0_n100_t2", "theory_grid")

# Fixed study constants, passed explicitly so that no check depends on
# a program default.
ALPHA = 0.02
N_EXP = 2.0
ROI_B = 100.0
SYSTEM_PFA = 1e-3
LIKELIHOOD_R = 0.5
# System false-alarm rates of the theory curves drawn next to each Monte
# Carlo configuration (the simulation runs at SYSTEM_PFA).
THEORY_SYSTEM_PFAS = (1e-4, 1e-3, 1e-2)


def _round_sig(x: float, digits: int = 4) -> float:
    """Round to a few significant digits so the argument string is exact."""
    return float(f"{x:.{digits - 1}e}")


def study_config(n: int, p0: float, local_pfa: float) -> dict:
    """One configuration of the study, everything but the Monte Carlo size."""
    return {
        "n_sensors": n,
        "p0": p0,
        "alpha": ALPHA,
        "n_exp": N_EXP,
        "roi_b": ROI_B,
        "local_pfa": local_pfa,
        "system_pfa": SYSTEM_PFA,
        "likelihood_r": LIKELIHOOD_R,
    }


def _common_argv(cfg: dict) -> list[str]:
    return [
        "--n-sensors", str(cfg["n_sensors"]),
        "--p0", repr(cfg["p0"]),
        "--alpha", repr(cfg["alpha"]),
        "--decay-exp", repr(cfg["n_exp"]),
        "--roi-b", repr(cfg["roi_b"]),
        "--local-pfa", repr(cfg["local_pfa"]),
        "--system-pfa", repr(cfg["system_pfa"]),
        "--likelihood-r", repr(cfg["likelihood_r"]),
    ]


def theory_op(cfg: dict, out: str) -> dict:
    argv = ["theory", *_common_argv(cfg), "--out", out]
    return {"kind": "theory", "argv": argv, "out": out, "config": cfg}


def simulate_op(cfg: dict, trials: int, seed: int, out: str) -> dict:
    cfg = dict(cfg, n_trials=trials, master_seed=seed)
    argv = [
        "simulate", *_common_argv(cfg),
        "--trials", str(trials), "--seed", str(seed), "--threads", "1", "--out", out,
    ]
    return {"kind": "simulate", "argv": argv, "out": out, "config": cfg}


def sweep_p0_op(cfg: dict, values: list[float], trials: int, seed: int, threads: int, out: str) -> dict:
    cfg = dict(cfg, p0=values[0], n_trials=trials, master_seed=seed)
    argv = [
        "sweep", *_common_argv(cfg),
        "--axis", "p0", "--values", ",".join(repr(v) for v in values),
        "--trials", str(trials), "--seed", str(seed), "--threads", str(threads), "--out", out,
    ]
    return {"kind": "sweep", "argv": argv, "out": out, "config": cfg, "values": values}


def trial_count(op: dict) -> int:
    """Monte Carlo trials one operation runs (0 for ``theory``)."""
    return op["config"].get("n_trials", 0) * len(op.get("values", [None]))


def _jitter(rng: random.Random, p0: float) -> float:
    return _round_sig(p0 * rng.uniform(0.95, 1.05))


def _theory_ops(cfg: dict, tag: str) -> list[dict]:
    """The theory curves of one configuration, one per THEORY_SYSTEM_PFAS."""
    return [theory_op(dict(cfg, system_pfa=s), f"theory{tag}-{m}.csv") for m, s in enumerate(THEORY_SYSTEM_PFAS)]


def _simulate_round(rng: random.Random, n: int, local_pfa: float, trials: int, p0s) -> list[dict]:
    """The theory calls and one simulate call per configuration."""
    ops = []
    for j, p0 in enumerate(p0s):
        cfg = study_config(n, _jitter(rng, p0), local_pfa)
        ops += _theory_ops(cfg, str(j))
        ops.append(simulate_op(cfg, trials, rng.getrandbits(64), f"simulate{j}.csv"))
    return ops


def plan(workload: str, seed: int) -> list[dict]:
    """The round of operations of ``workload`` for benchmark seed ``seed``."""
    rng = random.Random(f"orderfuse-bench/{workload}/{seed}")
    if workload == "simulate_n20":
        # local_pfa = 0.05 puts T near 4, so both UPPER and LOWER stops occur.
        return _simulate_round(rng, 20, 0.05, 5000, (20.0, 60.0, 200.0, 600.0))
    if workload == "simulate_n1000":
        return _simulate_round(rng, 1000, 1e-3, 1000, (20.0, 60.0, 200.0, 600.0))
    if workload == "sweep_p0_n100_t2":
        factor = rng.uniform(0.95, 1.05)
        values = [_round_sig(p0 * factor) for p0 in (1.0, 10.0, 100.0, 1000.0)]
        base = study_config(100, values[0], 1e-3)
        ops = [op for j, v in enumerate(values) for op in _theory_ops(dict(base, p0=v), str(j))]
        ops.append(sweep_p0_op(base, values, 1000, rng.getrandbits(64), 2, "sweep.csv"))
        return ops
    if workload == "theory_grid":
        ops = []
        for n in (20, 100, 1000):
            for local_pfa in (1e-3, 0.05):
                factor = rng.uniform(0.95, 1.05)
                for p0 in (1.0, 10.0, 100.0, 1000.0):
                    cfg = study_config(n, _round_sig(p0 * factor), local_pfa)
                    ops.append(theory_op(cfg, f"theory{len(ops)}.csv"))
        # One small Monte Carlo call keeps every layer measured here too.
        cfg = study_config(20, _jitter(rng, 60.0), 0.05)
        ops.append(simulate_op(cfg, 1000, rng.getrandbits(64), "simulate0.csv"))
        return ops
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
