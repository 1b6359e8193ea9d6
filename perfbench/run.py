"""The repository benchmark: one command, one workload per run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-bursty --seed 0 \\
        --seconds 20 --trace 0

Workloads: ``serve-bursty`` and ``serve-repeat`` (the solve server over
HTTP, see ``serve.py``), ``solve-batch`` (the rejection solvers
in-process, ``solve.py``) and ``sim-heavy`` (the arrival simulator with
admission binding, ``sim.py``).  Every input derives from ``--seed``.
``BENCHMARK.json`` tracks the first three; ``sim-heavy`` runs by hand
until the simulator's run-loop livelock is fixed (see README.md).

Each run checks the program's outputs and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the ``end_to_end`` metrics of ``BENCHMARK.json``; with
``--trace 1`` the run splits its seconds between an untraced and a
traced half and reports the ``per_layer`` metrics, measured around the
public entry points of each layer and from the spans and counters the
program emits.  A layer a workload does not reach reports 0.  The
lines before the JSON print every figure by name with its unit,
including those ``BENCHMARK.json`` does not track.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve-bursty", "serve-repeat", "solve-batch", "sim-heavy")

#: Units of printed figures that ``BENCHMARK.json`` does not list.
EXTRA_UNITS = {"error_share": "fraction", "throughput_per_s.raw": "ops/s",
               "latency_p50_ms.raw": "ms", "setup_s.raw": "s",
               "host.slowness": "ratio", "host.stolen_share": "fraction"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _exit(signum, _frame):
    # Raising here runs every ``finally``: servers and helpers are
    # stopped and waited for on a SIGTERM too.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _exit)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = ROOT / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    # Keep every file the program writes inside the checkout.
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache")
    os.environ["REPRO_MANIFEST_DIR"] = str(work / "manifests")
    spec = _spec()
    trace = bool(args.trace)

    if args.workload.startswith("serve-"):
        import serve

        runner = serve.run_bursty if args.workload == "serve-bursty" \
            else serve.run_repeat
        result = runner(ROOT, work, args.seed, args.seconds, trace)
    elif args.workload == "solve-batch":
        import solve

        result = solve.run(args.seed, args.seconds, trace)
    else:
        import sim

        result = sim.run(args.seed, args.seconds, trace)

    # A per-layer name may also be a figure of the untraced half (the
    # p99 latency, the reject share, ...); a layer the workload does not
    # reach reports 0.
    figures = {**result.end_to_end, **result.extra,
               "error_share": result.error_share}
    if trace:
        figures.update(result.per_layer)
    units = dict(EXTRA_UNITS)
    units.update((e["name"], e["unit"])
                 for e in spec["end_to_end"] + spec["per_layer"])
    tracked = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in tracked:
        name = entry["name"]
        value = figures.get(name, 0.0) if trace else figures[name]
        if not math.isfinite(value):
            print(f"metric {name} is not finite ({value})", file=sys.stderr)
            return 1
        metrics[name] = {"value": value, "unit": entry["unit"]}
    for name, value in figures.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    for reason in result.checks:
        print(f"{args.workload} check failed: {reason}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
