"""Benchmark worker: runs one workload's plan against ``orderfuse.cli.main``.

Started by run.py as its own process, so that set-up time and peak
memory belong to the workload alone. Usage::

    python3 worker.py PLAN.json RESULT.json

The plan lists the round of operations (argument vectors for
``cli.main``); the worker repeats whole rounds until the plan's
``seconds`` have passed. Before each operation, and once more at the
end of each round, it times ``reference_kernel``, a fixed piece of work
whose duration tracks how fast the shared host runs at that moment
(run.py uses it to rescale the operations' wall times). With tracing on, rounds alternate untraced and
traced, ending on a traced one, and the spans are written to the plan's
``spans`` path. Every round's outputs must equal the first round's; the
``created_utc`` line of a manifest is the only part exempt.

Until orderfuse is imported the worker imports nothing but ``json``,
``sys`` and ``time``, so the time up to that point is the program's own
set-up; the reference kernel's numpy is the one orderfuse has already
imported.
"""

import json
import sys
import time


def _outputs(op: dict):
    """The op's CSV bytes and manifest lines, minus the creation time."""
    try:
        with open(op["out"], "rb") as fh:
            csv = fh.read()
        with open(op["out"] + ".manifest") as fh:
            manifest = [ln for ln in fh.read().splitlines() if not ln.startswith("created_utc")]
    except FileNotFoundError:
        return None
    return csv, manifest


# The kernel time the rescaled rates refer to: rates read as on a host
# that runs ``reference_kernel`` in this time. A round figure; the
# reference host (2-vCPU Intel Xeon, Python 3.11.7, numpy 2.4.6) ran it
# in 10-14 ms as its load drifted. Changing it rescales every rate.
REFERENCE_KERNEL_S = 0.010


def reference_kernel() -> int:
    """A fixed mix of the kinds of work the program does, 10-14 ms.

    Interpreter arithmetic, scalar math through nested calls as in the
    quadrature, small-array numpy calls as in a per-trial loop, and one
    stable argsort of a large array. It never changes with the program,
    so its duration measures the host, not the code.
    """
    import math

    import numpy as np

    acc = 0
    for i in range(25_000):
        acc += i * i % 7

    def tail(x: float) -> float:
        return 0.5 * math.erfc(x / math.sqrt(2.0)) + math.exp(-0.5 * x * x)

    total = 0.0
    for i in range(4_800):
        total += tail(-3.0 + i / 800.0)
    acc += int(total)
    rng = np.random.Generator(np.random.Philox(key=12345))
    for _ in range(60):
        x = rng.standard_normal(100)
        acc += int(np.argsort(np.abs(x - 0.3), kind="stable")[0])
    acc += int(np.argsort(rng.standard_normal(40_000), kind="stable")[0])
    return acc


def _peak_rss_kib() -> int:
    """Peak resident memory of this process since its exec (Linux VmHWM).

    The parent's ``wait4`` figure would not do: the kernel carries the
    spawning process's high-water mark across exec into the child's.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def main() -> int:
    plan_path, result_path = sys.argv[1], sys.argv[2]
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    from orderfuse import cli

    ops, seconds, trace = plan["ops"], plan["seconds"], plan["trace"]
    tracer = main_id = None
    ready = time.monotonic()
    reference_kernel()  # its first call pays numpy's first-use costs
    reference: dict[int, object] = {}
    mismatches: list[str] = []
    rounds = []
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        if traced:
            if tracer is None:
                from orderfuse import experiment, fusion
                from tracing import Tracer

                tracer = Tracer({"cli": cli, "experiment": experiment, "fusion": fusion})
                main_id = tracer.name_id("cli.main")
            tracer.install()
        walls, codes, kernels = [], [], []
        for i, op in enumerate(ops):
            kernels.append(_timed(reference_kernel))
            if traced:
                tracer.op = i
                t0 = time.perf_counter()
                token = tracer.begin(main_id)
                code = cli.main(op["argv"])
                tracer.end(token)
            else:
                t0 = time.perf_counter()
                code = cli.main(op["argv"])
            walls.append(time.perf_counter() - t0)
            codes.append(code)
            got = _outputs(op)
            if i not in reference:
                reference[i] = got
            elif got != reference[i]:
                mismatches.append(f"round {len(rounds)} ({'traced' if traced else 'untraced'}): {op['out']} differs from round 0")
        kernels.append(_timed(reference_kernel))
        if traced:
            tracer.uninstall()
        rounds.append({"traced": traced, "walls": walls, "codes": codes, "kernels": kernels})
        if time.perf_counter() - start >= seconds and not (trace and len(rounds) % 2):
            break

    peak_rss_kib = _peak_rss_kib()
    if tracer is not None:
        tracer.write(plan["spans"])
    with open(result_path, "w") as fh:
        json.dump({"ready": ready, "rounds": rounds, "mismatches": mismatches,
                   "peak_rss_kib": peak_rss_kib}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
