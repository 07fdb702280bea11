"""orderfuse benchmark: drives ``orderfuse.cli.main`` with generated arguments.

Usage, from the repository root::

    python3 bench/run.py --workload simulate_n20 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all             # every workload in turn
    python3 bench/run.py --workload theory_grid --repeat 10 [--save a.json | --compare a.json]

Each workload runs in a fresh worker process (worker.py) that imports the
package from ``src/`` and repeats whole rounds of CLI invocations for
``--seconds``. This process collects the worker's set-up time, peak
memory and round timings, rescales the timings by the reference kernel
the worker times between operations (host speed drifts on a shared
machine), checks every output against the oracles (checks.py) and prints
one JSON line: ``correct``, ``attempted`` and ``failed`` (operations are
CLI invocations) and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones, measured untraced; with ``--trace 1`` they are the
per-layer ones, derived from the spans of a traced run.

``--repeat K`` runs seeds seed .. seed+K-1 each in a fresh process and
prints the median and quartiles of every metric, for setting and
checking the bounds in BENCHMARK.json; ``--save`` keeps those values and
``--compare`` sets the medians against a saved set.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
DEFAULT_SEED = 1
# A run must end within 180 s; the worker gets what is left after its
# measuring time, set-up and the checks.
WORKER_GRACE_S = 120.0


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _median_rate(rounds: list[dict], ops: list[dict], work_of) -> float:
    """Median over rounds of the work ``work_of`` counts / the host-scaled time of its ops.

    On a shared host the same code runs up to about 2.5x as slow while other
    jobs load it. A round's op wall times are multiplied by
    REFERENCE_KERNEL_S / (the median of the reference kernel timed
    between the round's ops), which takes most of that drift out. The
    first round carries first-call costs and is left out when three or
    more rounds ran.
    """
    rates = []
    for rnd in rounds[1:] if len(rounds) >= 3 else rounds:
        scale = worker.REFERENCE_KERNEL_S / statistics.median(rnd["kernels"])
        done = [(work_of(op), t * scale) for op, t in zip(ops, rnd["walls"]) if work_of(op)]
        rates.append(sum(w for w, _ in done) / sum(t for _, t in done))
    return statistics.median(rates)


def _overhead(rounds: list[dict]) -> float:
    """Traced wall / untraced wall - 1, median over (untraced, traced) pairs.

    The first pair carries first-call costs and is left out when others exist.
    """
    pairs = [(sum(rounds[i]["walls"]), sum(rounds[i + 1]["walls"])) for i in range(0, len(rounds), 2)]
    if len(pairs) > 1:
        pairs = pairs[1:]
    return statistics.median(t / u for u, t in pairs) - 1.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "orderfuse" / "cli.py").is_file():
        raise BenchError(f"no orderfuse sources under {SRC}")
    ops = workloads.plan(workload, seed)
    work = RESULTS / f"work-{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spans_path = RESULTS / f"spans-{workload}.npz"
    try:
        plan = {"src": str(SRC), "ops": ops, "seconds": seconds, "trace": trace, "spans": str(spans_path)}
        (work / "plan.json").write_text(json.dumps(plan))
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "plan.json", "result.json"],
            cwd=work,
            stdout=subprocess.DEVNULL,
        )
        try:
            code = proc.wait(timeout=seconds + WORKER_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("worker exceeded its time limit and was killed") from None
        if code != 0:
            raise BenchError(f"worker exited with status {code}")
        result = json.loads((work / "result.json").read_text())
        rounds = result["rounds"]
        attempted = len(ops) * len(rounds)
        failed = sum(code != 0 for rnd in rounds for code in rnd["codes"])

        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import checks

        problems = result["mismatches"] + checks.check_outputs(ops, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        from tracing import layer_metrics

        metrics = layer_metrics(spans_path, ops)
        metrics["trace.overhead_fraction"] = _overhead(rounds)
    else:
        metrics = {
            "trials_per_s": _median_rate(rounds, ops, workloads.trial_count),
            "theory_points_per_s": _median_rate(rounds, ops, lambda op: op["kind"] == "theory"),
            # The one cold set-up of the run, rescaled like the rates by the
            # kernel times of the round that follows it.
            "setup_s": (result["ready"] - started) * worker.REFERENCE_KERNEL_S / statistics.median(rounds[0]["kernels"]),
            "peak_rss_mib": result["peak_rss_kib"] / 1024.0,
        }
    kernel_ms = 1000.0 * statistics.median(k for rnd in rounds for k in rnd["kernels"])
    print(f"[{workload}] reference kernel: median {kernel_ms:.2f} ms "
          f"(reference {1000.0 * worker.REFERENCE_KERNEL_S:.2f} ms) over {len(rounds)} rounds", file=sys.stderr)
    for problem in problems:
        print(f"CHECK FAILED [{workload}]: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _units() -> dict[str, str]:
    spec = _spec()
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _with_units(metrics: dict[str, float], units: dict[str, str]) -> dict:
    return {k: {"value": v, "unit": units.get(k.split("/")[-1], "")} for k, v in metrics.items()}


def _run_all(names, seed, seconds, trace) -> dict:
    units = _units()
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        res = run_workload(name, seed, seconds, trace)
        print(json.dumps({"workload": name, **res, "metrics": _with_units(res["metrics"], units)}))
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    total["metrics"] = _with_units(total["metrics"], units)
    return total


def _repeat(args) -> dict:
    """Run ``--repeat`` seeds, each in its own process as the benchmark is run."""
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    values: dict[str, list[float]] = {}
    for name in names:
        for seed in range(args.seed, args.seed + args.repeat):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                raise BenchError(f"{name} seed {seed}: run failed: {proc.stderr.strip()}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                raise BenchError(f"{name} seed {seed}: outputs failed their checks")
            values.setdefault(f"{name}/failed_share", []).append(res["failed"] / res["attempted"])
            for metric, m in res["metrics"].items():
                values.setdefault(f"{name}/{metric}", []).append(m["value"])
    bounds = {m["name"]: (m["bound"], m["better"]) for m in _spec()["end_to_end"]}
    saved = json.loads(Path(args.compare).read_text()) if args.compare else {}
    summary = {}
    for key, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        row = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "n": len(vals),
               "values": vals}
        bound, better = bounds.get(key.split("/")[-1], (None, None))
        if bound is not None:
            row["bound"] = bound
        if key in saved and bound is not None:
            base = statistics.median(saved[key])
            worse = (base - med) / base if better == "higher" else (med - base) / base
            row["worse_than_saved"] = worse
            row["within_bound"] = worse <= bound
        summary[key] = row
        print(f"{key:60s} median {med:12.6g}  spread {row['spread']:.4f}"
              + (f"  bound {bound}" if bound is not None else "")
              + (f"  worse {row['worse_than_saved']:+.4f}" if "worse_than_saved" in row else ""),
              file=sys.stderr)
    if args.save:
        Path(args.save).write_text(json.dumps(values, indent=1))
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="K")
    parser.add_argument("--save", metavar="PATH")
    parser.add_argument("--compare", metavar="PATH")
    args = parser.parse_args(argv)
    try:
        if args.seconds is None:
            args.seconds = _spec()["run_seconds"]
        if args.repeat:
            print(json.dumps(_repeat(args)))
        elif args.workload == "all":
            print(json.dumps(_run_all(workloads.WORKLOADS, args.seed, args.seconds, bool(args.trace))))
        else:
            res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            res["metrics"] = _with_units(res["metrics"], _units())
            print(json.dumps(res))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
