"""``sim-heavy``: the arrival simulator with admission binding.

Streams of the ``heavy`` arrival family run through
``ArrivalSimulator`` at the ``repro sim`` defaults (2 cores, capacity
5e4 units, 2e4 units/s per core, ``accept`` policy), where about four
in five arrivals are rejected or shed.  Every arrival meets the real
``AdmissionController``; nothing is solved and nothing goes over HTTP.

Each stream holds ``STREAM_ARRIVALS`` arrivals and is drawn from its
own seed derived from ``--seed``; streams run one after another until
the run's seconds are used.  Every stream runs under a watchdog: the
engine's run loop livelocks when a job keeps a remainder between 1e-9
units and rate x 1/2 ulp(now), so that ``now + remaining / rate ==
now``.  At 2e4 units/s that window opens once ``now`` passes 512 s, and
a stream of this length runs to about 600 simulated seconds, so a run
can meet the livelock.  A stream that outlives ``WATCHDOG_S`` is
stopped and all its arrivals count as failed.  After each stream, its
admission log is replayed through a fresh ``AdmissionController`` and
must give the same decisions.
"""

from __future__ import annotations

import signal
import time

from common import Result, Tracer, median, quantile, ratio, self_peak_rss_mb

FAMILY = "heavy"
STREAM_ARRIVALS = 120_000
CORES = 2
CAPACITY = 5e4
RATE = 2e4
WATCHDOG_S = 45.0
#: Arrivals per solver replayed through the worker to price admission.
PRICE_SAMPLES = 12
PRICE_PREFIX = 400
PRICED_SOLVERS = ("greedy_marginal", "fptas", "pareto_exact")


class Stalled(Exception):
    """The watchdog stopped a stream that outlived ``WATCHDOG_S``."""


def _alarm(signum, frame):
    raise Stalled()


def stream_seed(seed: int, index: int) -> int:
    return seed * 100_003 + index


def _simulate(arrivals, cores: int, capacity: float, rate: float):
    from repro.sim import ArrivalSimulator

    sim = ArrivalSimulator(
        arrivals, cores=cores, capacity_units=capacity, rate_units_per_s=rate
    )
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, WATCHDOG_S)
    try:
        return sim.run()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def replay(log, capacity: float, rate: float,
           tracer: Tracer | None = None) -> list[tuple]:
    """Re-apply an admission log to a fresh controller; its decisions."""
    from repro.service.admission import AdmissionController

    controller = AdmissionController(
        None, capacity_units=capacity, rate_units_per_s=rate
    )
    decisions = []
    for event in log:
        kind = event[0]
        if kind == "offer":
            _, req_id, units, weight, deadline_s, *_ = event
            if tracer is None:
                got = controller.offer(req_id, units, weight, deadline_s)
            else:
                with tracer.span("admission.offer"):
                    got = controller.offer(req_id, units, weight, deadline_s)
            decisions.append((req_id, got.admitted, got.reason, got.shed))
        elif tracer is None:
            getattr(controller, kind)(event[1])
        else:
            with tracer.span(f"admission.{kind}"):
                getattr(controller, kind)(event[1])
    return decisions


def simulate_checked(arrivals, result: Result, label: str,
                     tracer: Tracer | None = None, *, cores: int = CORES,
                     capacity: float = CAPACITY, rate: float = RATE):
    """Simulate *arrivals* under the watchdog and replay the admission log.

    Every arrival counts as attempted.  A stalled run counts all of them
    as failed and returns None; each decision the replay does not
    reproduce counts as one failure.
    """
    result.attempted += len(arrivals)
    try:
        if tracer is None:
            report = _simulate(arrivals, cores, capacity, rate)
        else:
            with tracer.span("sim.run"):
                report = _simulate(arrivals, cores, capacity, rate)
    except Stalled:
        result.fail(len(arrivals),
                    f"{label}: sim stalled for {WATCHDOG_S:.0f} s")
        return None
    expected = [d.as_tuple() for d in report.decisions]
    got = replay(report.admission_log, capacity, rate, tracer)
    mismatched = sum(a != b for a, b in zip(expected, got))
    mismatched += abs(len(expected) - len(got))
    result.fail(mismatched, f"{label}: {mismatched} admission decisions "
                            "did not replay")
    return report


def admission_layers(counts: dict, tracer: Tracer, events: int) -> dict:
    """Per-layer admission and engine figures of traced simulator runs.

    *counts* is the ``obs.counters`` snapshot taken around the runs and
    their replays, *tracer* holds their ``sim.run`` and ``admission.*``
    spans; the engine's own time is the run's wall time minus the time
    the replay spent in admission calls.
    """
    layer = {}
    offered = counts.get("service.admission.offered", 0)
    for reason in ("capacity", "deadline", "policy"):
        layer[f"admission.reject_share.{reason}"] = ratio(
            counts.get(f"service.admission.rejected_{reason}", 0), offered)
    layer["admission.shed_per_admit"] = ratio(
        counts.get("service.admission.shed", 0),
        counts.get("service.admission.admitted", 0))
    layer["admission.offer_us"] = tracer.mean_us("admission.offer")
    admission_s = sum(tracer.total(f"admission.{kind}")
                      for kind in ("offer", "dispatched", "release"))
    runs = tracer.durations("sim.run")
    layer["sim.engine_self_ms"] = 1e3 * ratio(sum(runs) - admission_s,
                                             len(runs))
    layer["sim.events"] = events
    return layer


def _run_streams(seed, seconds, first_index, result, tracer=None):
    """Run streams until *seconds* of simulation wall time are used."""
    from repro.sim import make_arrivals

    stats = {"arrivals": 0, "wall": 0.0, "rates": [], "setup": [],
             "latency_ms": [], "good": 0, "refused": 0, "objective": [],
             "stalls": 0, "events": None}
    index = first_index
    while stats["wall"] < seconds:
        t0 = time.perf_counter()
        arrivals = make_arrivals(FAMILY, STREAM_ARRIVALS,
                                 stream_seed(seed, index))
        stats["setup"].append(time.perf_counter() - t0)
        index += 1
        t0 = time.perf_counter()
        report = simulate_checked(arrivals, result, f"stream {index - 1}",
                                  tracer)
        wall = time.perf_counter() - t0
        stats["wall"] += wall
        if report is None:
            stats["stalls"] += 1
            continue
        stats["rates"].append(len(arrivals) / wall)
        stats["arrivals"] += len(arrivals)
        for record in report.records:
            if record.outcome == "completed":
                stats["latency_ms"].append(1e3 * record.response_s)
                stats["good"] += not record.missed
        stats["refused"] += report.rejected + report.shed
        stats["objective"].append(objective(report))
        if stats["events"] is None:
            stats["events"] = len(report.admission_log)
        del report, arrivals  # keep one stream in memory at a time
    return stats, index


def objective(report) -> float:
    """The paper's objective for a simulated run: energy plus penalty."""
    return report.total_energy + report.penalty_cost


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    stats, next_index = _run_streams(
        seed, seconds / 2 if trace else seconds, 0, result
    )
    offered = stats["arrivals"]
    result.end_to_end.update(
        throughput_per_s=median(stats["rates"]),
        latency_p50_ms=quantile(stats["latency_ms"], 0.5),
        latency_p99_ms=quantile(stats["latency_ms"], 0.99),
        goodput_share=ratio(stats["good"], offered),
        setup_s=median(stats["setup"]),
        rss_peak_mb=self_peak_rss_mb(),
    )
    result.extra.update(
        reject_share=ratio(stats["refused"], offered),
        objective_cost=median(stats["objective"]),
        **{"sim.stalls": stats["stalls"]},
    )
    if trace:
        _per_layer(seed, seconds / 2, next_index, stats, result)
    return result


def _per_layer(seed, seconds, first_index, untraced, result: Result) -> None:
    from repro.obs import counters as obs_counters
    from repro.obs.trace import MemorySink, tracing

    tracer = Tracer()
    with tracing(MemorySink()), obs_counters.counting() as registry:
        stats, _ = _run_streams(seed, seconds, first_index, result, tracer)
    layer = result.per_layer
    layer["obs.trace_overhead_share"] = ratio(
        median(untraced["rates"]), median(stats["rates"])) - 1.0
    layer.update(admission_layers(registry.snapshot(), tracer,
                                  stats["events"] or 0))
    layer["sim.stalls"] = untraced["stalls"] + stats["stalls"]
    layer.update(_price_check(seed))


def _price_check(seed: int) -> dict[str, float]:
    """Predicted over measured solve time, per solver.

    The first ``PRICE_SAMPLES`` arrivals of each solver among the first
    ``PRICE_PREFIX`` arrivals of stream 0 are solved in-process through
    the worker entry point; the prediction is the arrival's admission
    units divided by the simulated rate.
    """
    from repro.service.worker import solve_payload
    from repro.sim import make_arrivals
    from repro.sim.bridge import arrival_body

    picked: dict[str, list] = {s: [] for s in PRICED_SOLVERS}
    for arrival in make_arrivals(FAMILY, PRICE_PREFIX, stream_seed(seed, 0)):
        chosen = picked.get(arrival.algorithm)
        if chosen is not None and len(chosen) < PRICE_SAMPLES:
            chosen.append(arrival)
    out = {}
    for solver, arrivals in picked.items():
        predicted = measured = 0.0
        for arrival in arrivals:
            body = arrival_body(arrival)
            body["req_id"] = arrival.req_id
            reply = solve_payload(body)
            predicted += arrival.units / RATE
            measured += reply["seconds"]
        out[f"models.predicted_over_measured.{solver}"] = ratio(
            predicted, measured)
    return out
