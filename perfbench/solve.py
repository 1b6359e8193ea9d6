"""``solve-batch``: the rejection solvers in-process, on one thread.

A fixed batch, generated from the seed with ``random.Random``, is solved
in whole passes for the run's seconds.  It holds branch-and-bound
instances whose tasks all have exactly the same penalty density (the
family that makes B&B explore most of its tree), plus ``pareto_exact``,
``fptas`` and ``dp_cycles`` at n = 150 and 250 and ``greedy_marginal``
at n = 1000.  No service layer is involved, so solver and kernel
changes show here and nowhere else.

One pass over the batch is the unit of measurement and every run ends
on a pass boundary: throughput is the instances of all passes over
their solving time, and the p50 latency is the median over passes of
each pass's median call.  Each solver call is followed by one
``reference_work``; the median of a pass's references gives its
slowness k, and the pass's times are reported at nominal speed with
stolen time taken out (multiplied by the pass's running share and
divided by k; see ``common.py``).

Set-up is what a fresh start pays before the first solve: a new
interpreter imports the solvers and generates the batch.  ``setup_s``
is the median of ``SETUP_STARTS`` such starts, at nominal speed.  The
batch generation alone takes about 10 ms, and over two sets of ten runs
its median moved by half with the host's speed, where the start of a
whole process (as the serve workloads time it) moved by a few percent.

Output checks (after the timed loop): branch-and-bound equals the
exhaustive optimum; every other cost is compared with the
``pareto_exact`` optimum of the same instance (``fptas`` within
``(1 + eps)``, heuristics never below it); every cost re-evaluates to
the same value and repeats bit-for-bit across passes.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path
from random import Random

from common import (Result, Tracer, cpu_ticks, median, quantile, ratio,
                    reference_work, running_share, self_peak_rss_mb,
                    slowness)

EPS = 0.1
#: A pass solves ``BNB_PER_PASS`` equal-density B&B instances of
#: ``BNB_N`` tasks, one pareto_exact, fptas and dp_cycles instance of
#: each ``MID_N`` size, and one greedy instance of ``GREEDY_N`` tasks.
#: B&B instances are more than two thirds of the pass, so a pass's
#: median call lies inside the B&B times rather than on the edge
#: between two solvers.
BNB_PER_PASS = 16
BNB_N = 10
MID_N = (150, 250)
GREEDY_N = 1000
#: Relative tolerance for comparing float costs of different solvers.
TOL = 1e-9
SETUP_STARTS = 5
SETUP_REFS = 5
HERE = Path(__file__).resolve().parent
SOLVERS = ("branch_and_bound", "pareto_exact", "fptas", "dp_cycles",
           "greedy_marginal")


def _energy_fn():
    from repro.energy import ContinuousEnergyFunction
    from repro.power import xscale_power_model

    return ContinuousEnergyFunction(xscale_power_model(), deadline=1.0)


def _equal_density(rng: Random, n: int, energy_fn):
    """n tasks with penalty = 2 x cycles exactly, total load 1.2..1.6."""
    from repro.core.rejection import RejectionProblem
    from repro.tasks.model import FrameTask, FrameTaskSet

    raw = [rng.uniform(0.5, 1.5) for _ in range(n)]
    scale = rng.uniform(1.2, 1.6) * energy_fn.max_workload / sum(raw)
    tasks = FrameTaskSet(
        FrameTask(name=f"t{i}", cycles=r * scale, penalty=2.0 * r * scale)
        for i, r in enumerate(raw)
    )
    return RejectionProblem(tasks=tasks, energy_fn=energy_fn)


def _random(rng: Random, n: int, energy_fn):
    """n tasks at load 1.2 with penalties near their marginal energy."""
    from repro.core.rejection import RejectionProblem
    from repro.tasks.model import FrameTask, FrameTaskSet

    mean = 1.2 * energy_fn.max_workload / n
    tasks = []
    for i in range(n):
        cycles = mean * rng.uniform(0.4, 1.6)
        penalty = round(4.6 * cycles * rng.uniform(0.3, 2.2), 3)
        tasks.append(FrameTask(name=f"t{i}", cycles=cycles, penalty=penalty))
    return RejectionProblem(tasks=FrameTaskSet(tasks), energy_fn=energy_fn)


def make_batch(seed: int) -> list[tuple[str, object]]:
    """One pass: the batch as a list of ``(solver, problem)`` pairs."""
    energy_fn = _energy_fn()
    rng = Random(f"solve-batch:{seed}")
    bnb = [("branch_and_bound", _equal_density(rng, BNB_N, energy_fn))
           for _ in range(BNB_PER_PASS)]
    others = [(solver, _random(rng, n, energy_fn))
              for n in MID_N
              for solver in ("pareto_exact", "fptas", "dp_cycles")]
    others.append(("greedy_marginal", _random(rng, GREEDY_N, energy_fn)))
    # Interleave so every part of a pass holds a similar mix.
    step = len(bnb) // len(others)
    batch = []
    for k, entry in enumerate(bnb):
        batch.append(entry)
        if k % step == step - 1 and k // step < len(others):
            batch.append(others[k // step])
    return batch


def solve(solver: str, problem):
    from repro.core import rejection

    if solver == "fptas":
        return rejection.fptas(problem, eps=EPS)
    if solver == "dp_cycles":
        return rejection.dp_cycles(
            problem, quantum=problem.capacity / 2000, round_cycles=True
        )
    return getattr(rejection, solver)(problem)


def _setup_s(seed: int) -> tuple[float, float]:
    """Median seconds for a new interpreter to import the solvers and
    generate the batch, over ``SETUP_STARTS`` starts: at nominal speed
    (each start over the mean slowness of references just before and
    after it) and raw."""
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; import solve; "
            "solve.make_batch(int(sys.argv[3]))")
    args = [sys.executable, "-c", code, str(HERE.parent / "src"), str(HERE),
            str(seed)]
    times = []
    slow = [slowness([reference_work() for _ in range(SETUP_REFS)])]
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        subprocess.run(args, check=True)
        times.append(time.perf_counter() - t0)
        slow.append(slowness([reference_work() for _ in range(SETUP_REFS)]))
    nominal = [t / ((a + b) / 2) for t, a, b in zip(times, slow, slow[1:])]
    return median(nominal), median(times)


def _timed_loop(batch, seconds: float, tracer: Tracer | None = None):
    """Solve whole passes over *batch* until *seconds* passed.

    Returns ``(samples, passes)``: one ``(slot, cost, accepted,
    seconds)`` per solve and one ``(instances, solving seconds, call
    ms, slowness, running share)`` per pass, timings raw.
    """
    samples, passes = [], []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        calls, refs = [], []
        ticks = cpu_ticks()
        for slot, (solver, problem) in enumerate(batch):
            t0 = time.perf_counter()
            if tracer is None:
                sol = solve(solver, problem)
            else:
                with tracer.span(f"solver.{solver}"):
                    sol = solve(solver, problem)
            dt = time.perf_counter() - t0
            samples.append((slot, sol.cost, sol.accepted, dt))
            calls.append(1e3 * dt)
            refs.append(reference_work())
        passes.append((len(batch), 1e-3 * sum(calls), calls, slowness(refs),
                       running_share(ticks, cpu_ticks())))
    return samples, passes


def _scale(k: float, share: float, nominal: bool) -> float:
    """Nominal seconds per measured second of a pass (1 if raw)."""
    return share / k if nominal else 1.0


def _throughput(passes, nominal: bool = True) -> float:
    """Instances per second of solving, at nominal speed or raw."""
    return sum(n for n, *_ in passes) / sum(
        wall * _scale(k, share, nominal) for _, wall, _, k, share in passes)


def _latency_ms(passes, q: float, nominal: bool = True) -> float:
    """Median over passes of each pass's *q* quantile call time."""
    return median(quantile(calls, q) * _scale(k, share, nominal)
                  for _, _, calls, k, share in passes)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def _check(batch, samples, result: Result, optimum: dict) -> float:
    """Count wrong solutions into *result*; return the cost ratio.

    *optimum* caches the exact optimum of each slot of the batch.
    """
    from repro.core.rejection import exhaustive, pareto_exact

    for slot in sorted({i for i, *_ in samples} - optimum.keys()):
        solver, problem = batch[slot]
        optimum[slot] = pareto_exact(problem).cost
        if solver == "branch_and_bound":
            exact = exhaustive(problem).cost
            if not _close(exact, optimum[slot]):
                result.fail(1, f"slot {slot}: pareto_exact {optimum[slot]!r} "
                               f"!= exhaustive {exact!r}")
            optimum[slot] = exact
    first: dict[int, tuple] = {}
    heuristic = exact_sum = 0.0
    for slot, cost, accepted, _ in samples:
        solver, problem = batch[slot]
        opt = optimum[slot]
        if slot not in first:
            first[slot] = (cost, accepted)
            recomputed = problem.solution(accepted, algorithm="check").cost
            if recomputed != cost:
                result.fail(1, f"slot {slot} {solver}: cost {cost!r} "
                               f"re-evaluates to {recomputed!r}")
                continue
        elif first[slot] != (cost, accepted):
            result.fail(1, f"slot {slot} {solver}: not deterministic")
            continue
        if solver in ("branch_and_bound", "pareto_exact"):
            ok = _close(cost, opt)
        elif solver == "fptas":
            ok = cost >= opt - TOL * opt and cost <= (1 + EPS) * opt + TOL
        else:
            ok = cost >= opt - TOL * opt
        if not ok:
            result.fail(1, f"slot {slot} {solver}: cost {cost!r} vs "
                           f"optimum {opt!r}")
        if solver in ("fptas", "dp_cycles", "greedy_marginal"):
            heuristic += cost
            exact_sum += opt
    return ratio(heuristic, exact_sum)


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    setup_s, raw_setup_s = _setup_s(seed)
    batch = make_batch(seed)
    samples, passes = _timed_loop(batch, seconds / 2 if trace else seconds)
    rss = self_peak_rss_mb()  # before the checks' reference solves
    result.attempted = len(samples)
    optimum: dict[int, float] = {}
    cost_ratio = _check(batch, samples, result, optimum)
    result.end_to_end.update(
        throughput_per_s=_throughput(passes),
        latency_p50_ms=_latency_ms(passes, 0.5),
        latency_p99_ms=quantile(
            [ms * _scale(k, share, True)
             for _, _, calls, k, share in passes for ms in calls], 0.99),
        goodput_share=(result.attempted - result.failed) / result.attempted,
        setup_s=setup_s,
        rss_peak_mb=rss,
    )
    result.extra.update({
        "cost_ratio": cost_ratio,
        "throughput_per_s.raw": _throughput(passes, nominal=False),
        "latency_p50_ms.raw": _latency_ms(passes, 0.5, nominal=False),
        "setup_s.raw": raw_setup_s,
        "host.slowness": median(p[3] for p in passes),
        "host.stolen_share": 1.0 - median(p[4] for p in passes),
    })
    if trace:
        _per_layer(batch, optimum, seconds / 2, _throughput(passes), result)
    return result


def _per_layer(batch, optimum, seconds, untraced_tput, result) -> None:
    """Traced half of the run, then one counted pass per kernel."""
    from repro.kernels import kernel_names, use_kernel
    from repro.obs import counters as obs_counters
    from repro.obs.trace import MemorySink, tracing

    tracer = Tracer()
    with tracing(MemorySink()), obs_counters.counting():
        samples, passes = _timed_loop(batch, seconds, tracer)
    result.attempted += len(samples)
    layer = result.per_layer
    _check(batch, samples, result, optimum)
    layer["obs.trace_overhead_share"] = ratio(untraced_tput,
                                              _throughput(passes)) - 1.0
    for solver in SOLVERS:
        layer[f"solver.{solver}.ms"] = 1e3 * median(
            tracer.durations(f"solver.{solver}")
        )

    # One pass over the batch per kernel: counts repeat exactly, and the
    # two kernels must agree bit for bit.
    by_kernel = {}
    for kernel in ("python", "numpy"):
        if kernel not in kernel_names():
            continue
        with use_kernel(kernel):
            by_kernel[kernel] = _counted_pass(batch)
    default = by_kernel.get("numpy") or by_kernel["python"]
    seconds_by = default["seconds"]

    def count(solver: str, name: str) -> float:
        return default["counters"][solver].get(f"{solver}.{name}", 0)

    nodes = count("branch_and_bound", "nodes")
    layer.update({
        "bnb.nodes": nodes,
        "bnb.us_per_node": 1e6 * ratio(seconds_by["branch_and_bound"], nodes),
        "bnb.pruned_share": ratio(count("branch_and_bound", "pruned"), nodes),
        "dp.ns_per_cell": 1e9 * ratio(seconds_by["dp_cycles"],
                                      count("dp_cycles", "cells")),
        "fptas.ns_per_state": 1e9 * ratio(seconds_by["fptas"],
                                          count("fptas", "states")),
        "greedy.us_per_evaluation": 1e6 * ratio(
            seconds_by["greedy_marginal"],
            count("greedy_marginal", "evaluations")),
        "pareto.peak_frontier": default["peak_frontier"],
    })
    if "python" in by_kernel and "numpy" in by_kernel:
        py, nq = by_kernel["python"], by_kernel["numpy"]
        result.attempted += len(py["costs"])
        mismatched = sum(a != b for a, b in zip(py["costs"], nq["costs"]))
        result.fail(mismatched, f"{mismatched} costs differ between kernels")
        for solver in SOLVERS:
            layer[f"kernels.{solver}.numpy_over_python"] = ratio(
                nq["seconds"][solver], py["seconds"][solver]
            )


def _counted_pass(batch) -> dict:
    """Solve each batch entry once under a fresh counter registry.

    Counters are summed per solver, so the greedy evaluations that seed
    B&B and FPTAS are not charged to ``greedy_marginal``.
    """
    from repro.obs import counters as obs_counters

    seconds = dict.fromkeys(SOLVERS, 0.0)
    totals: dict[str, dict[str, float]] = {s: {} for s in SOLVERS}
    costs = []
    peak = 0
    for solver, problem in batch:
        with obs_counters.counting() as registry:
            t0 = time.perf_counter()
            sol = solve(solver, problem)
            seconds[solver] += time.perf_counter() - t0
        counts = registry.snapshot()
        peak = max(peak, counts.get("pareto_exact.peak_frontier", 0))
        mine = totals[solver]
        for name, value in counts.items():
            mine[name] = mine.get(name, 0) + value
        costs.append(sol.cost)
    return {"seconds": seconds, "counters": totals, "costs": costs,
            "peak_frontier": peak}
