"""``serve-bursty`` and ``serve-repeat``: the solve server over HTTP.

The server is ``python -m repro serve --workers 1`` started from the
checkout's sources; the load comes from this process over at most two
keep-alive connections (the machine this was sized on has 2 cores).

``serve-bursty``
    Open loop.  The ``bursty`` arrival family
    (``repro.sim.workload.make_arrivals``) with its clock compressed
    about 4x, to a mean of ``OFFERED_RATE`` requests per second, so
    bursts outrun two connections and the mean load does not.  Each
    arrival is sent as its own unique body
    (``repro.sim.bridge.arrival_body``), so every request takes the
    full miss path: parse, cache miss, admission, batch window, pool
    round trip, solve, cache put, serialise.  Latency runs from the
    arrival's due time, so a stall is charged to every request queued
    behind it; how late the generator itself sent is reported apart.
``serve-repeat``
    Closed loop, two clients, over the first ``WORKING_SET`` bodies of
    the ``bursty`` family, unchanged, solved once in an untimed warm-up
    pass: every timed request is a cache hit.

Set-up time is server start to the first healthy ``/healthz``
(interpreter start, calibration and pool spawn included), measured for
``SERVER_STARTS`` servers and reported as their median at nominal
speed.

Both loops stop about every ``PROBE_EVERY_S`` seconds, once every
request in flight is answered, and time ``reference_work`` on the
client's and the server's CPU at once (``common.SpeedProbe``).  The
requests between two such probes are reported at nominal speed: their
latencies divided, their rate multiplied, by the mean of the two
probes' slowness (see ``common.py``).  The closed loop keeps both CPUs
busy, so its stretches also take stolen time out (times multiplied by
the stretch's running share).  The open loop leaves the CPUs idle
between bursts; there that correction over-corrected (``serve-bursty``
p50 spread 0.20 over ten runs with it, about 0.14 for the same runs
scaled by slowness alone), so it is only reported.  The open loop
stops only before the first arrival of a burst and shifts the rest of
its schedule by the pause.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from random import Random

from common import (Result, SpeedProbe, Tracer, child_setup, cpu_ticks,
                    median, quantile, ratio, running_share, tree_peak_rss_mb)

#: Mean offered rate of ``serve-bursty``, about 4x the bursty family's
#: own ~16 requests/s.  Each run's arrival clock is scaled so that its
#: arrivals span the run at exactly this mean rate.
OFFERED_RATE = 64.0
CONNECTIONS = 2
WORKING_SET = 64
SERVER_STARTS = 9
#: ``serve-repeat`` reads the server's peak RSS when this many timed
#: requests have completed.  The server's memory grows with the
#: requests it has answered, so a reading at the end of the run would
#: follow throughput (and the machine's speed) rather than memory use.
RSS_AT_REQUESTS = 20_000
WARMUP_REQUESTS = 24
#: Served solutions re-solved in-process per run (a seeded sample).
RESOLVE_SAMPLE = 200
#: Seconds of load between two speed probes, and references per probe.
PROBE_EVERY_S = 0.5
PROBE_REPS = 4
#: An arrival more than this many seconds (of the family's own clock)
#: after the previous one starts a burst: ``bursty`` spaces a burst's
#: arrivals at most 5 ms apart.
BURST_GAP_S = 0.005
STARTUP_TIMEOUT_S = 60.0
SOLVERS = ("greedy_marginal", "fptas", "pareto_exact")


def _cpus() -> tuple[int, int] | None:
    """(client CPU, server CPU), or None on a machine with one CPU.

    The load generator and the server are pinned apart so the two busy
    processes never share a CPU: unpinned, ``serve-repeat`` throughput
    moved by up to 1.5x between runs with where the scheduler put them.
    The server's worker inherits the server's CPU.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[1]) if len(cpus) >= 2 else None


class Server:
    """One ``repro serve`` subprocess and its set-up time."""

    def __init__(self, root: Path, work: Path, trace_out: Path | None = None,
                 cpu: int | None = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["REPRO_CACHE_DIR"] = str(work / "cache")
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
               "--workers", "1"]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        self.log = open(work / "server.log", "a")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=self.log, text=True, preexec_fn=child_setup(cpu),
        )
        try:
            self.port = self._read_port(started + STARTUP_TIMEOUT_S)
            self._wait_healthy(started + STARTUP_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _read_port(self, deadline: float) -> int:
        out = self.proc.stdout
        while True:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([out], [], [], left)[0]:
                raise RuntimeError("server did not report its port")
            line = out.readline()
            if not line:
                raise RuntimeError("server exited during start-up")
            if "listening on http://" in line:
                address = line.split("http://", 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])

    def _wait_healthy(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            try:
                status, body = get(self.port, "/healthz")
                if status == 200 and json.loads(body)["status"] == "ok":
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("server never became healthy")

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait for the whole tree."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.log.close()


def get(port: int, path: str) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Conn:
    """A keep-alive HTTP/1.1 client connection (JSON POST only)."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int) -> "Conn":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def post(self, path: str, body: bytes) -> tuple[int, bytes]:
        self.writer.write(
            (f"POST {path} HTTP/1.1\r\nHost: localhost\r\n"
             "Content-Type: application/json\r\n"
             f"Content-Length: {len(body)}\r\n\r\n").encode() + body
        )
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass


# -- load generators ------------------------------------------------------


async def _open_loop(port, schedule, bodies, breaks, probe):
    """Send ``bodies[i]`` at ``schedule[i]`` seconds from the start.

    Before each arrival index in *breaks* the generator waits until
    every request is answered, probes the machine's speed and shifts
    the rest of the schedule by the pause.  Returns ``(records, slowness,
    shares, paused_s)``: one ``(status, due, send, done, lag, body,
    segment)`` per request, where ``lag`` is how late the send left
    after its due time while a connection was free; per segment between
    two probes, the mean slowness of its two probes and its running
    share; and the seconds spent paused.
    """
    loop = asyncio.get_running_loop()
    free: asyncio.Queue = asyncio.Queue()
    for _ in range(CONNECTIONS):
        free.put_nowait((await Conn.open(port), 0.0))
    records: list = [None] * len(schedule)
    probes = [probe.measure(PROBE_REPS)]
    shares = []
    ticks = cpu_ticks()

    async def one(i, conn, due, send, lag, segment):
        try:
            status, body = await conn.post("/solve", bodies[i])
        except (OSError, ValueError, IndexError,
                asyncio.IncompleteReadError):
            status, body = None, b""
            await conn.close()
            conn = await Conn.open(port)
        done = loop.time()
        records[i] = (status, due, send, done, lag, body, segment)
        free.put_nowait((conn, done))

    tasks = []
    t0 = loop.time() + 0.01
    paused_s = 0.0
    for i, offset in enumerate(schedule):
        if i in breaks:
            paused = loop.time()
            await asyncio.gather(*tasks)
            shares.append(running_share(ticks, cpu_ticks()))
            probes.append(probe.measure(PROBE_REPS))
            ticks = cpu_ticks()
            paused_s += loop.time() - paused
            t0 += loop.time() - paused
        due = t0 + offset
        if due > loop.time():
            await asyncio.sleep(due - loop.time())
        conn, free_since = await free.get()
        send = loop.time()
        tasks.append(loop.create_task(
            one(i, conn, due, send, send - max(due, free_since),
                len(probes) - 1)))
    await asyncio.gather(*tasks)
    shares.append(running_share(ticks, cpu_ticks()))
    probes.append(probe.measure(PROBE_REPS))
    while not free.empty():
        await free.get_nowait()[0].close()
    slow = [(a + b) / 2 for a, b in zip(probes, probes[1:])]
    return records, slow, shares, paused_s


async def _closed_loop(port, bodies, seconds, pid, probe):
    """Each client sends the working set round-robin for *seconds*.

    The clients stop every ``PROBE_EVERY_S`` seconds for a speed probe.
    Returns ``(records, intervals, rss_mb)``: ``(index, status, send,
    done, body, interval)`` per request; ``(seconds, slowness, running
    share)`` per interval of load, its slowness the mean of the probes
    around it; and the peak RSS of the server tree *pid* when
    ``RSS_AT_REQUESTS`` requests had completed (at the end of the run if
    fewer did).
    """
    loop = asyncio.get_running_loop()
    conns = [await Conn.open(port) for _ in range(CONNECTIONS)]
    position = [k * len(bodies) // CONNECTIONS for k in range(CONNECTIONS)]
    records, intervals, rss = [], [], []

    async def client(k, until):
        i = position[k]
        while loop.time() < until:
            send = loop.time()
            try:
                status, body = await conns[k].post("/solve", bodies[i])
            except (OSError, ValueError, IndexError,
                    asyncio.IncompleteReadError):
                status, body = None, b""
                await conns[k].close()
                conns[k] = await Conn.open(port)
            records.append((i, status, send, loop.time(), body,
                            len(intervals)))
            if len(records) == RSS_AT_REQUESTS:
                rss.append(tree_peak_rss_mb(pid))
            i = (i + 1) % len(bodies)
        position[k] = i

    try:
        before = probe.measure(PROBE_REPS)
        ticks = cpu_ticks()
        end = loop.time() + seconds
        while loop.time() < end:
            start = loop.time()
            until = min(end, start + PROBE_EVERY_S)
            await asyncio.gather(*(client(k, until)
                                   for k in range(CONNECTIONS)))
            wall = loop.time() - start
            share = running_share(ticks, cpu_ticks())
            after = probe.measure(PROBE_REPS)
            ticks = cpu_ticks()
            intervals.append((wall, (before + after) / 2, share))
            before = after
    finally:
        for conn in conns:
            await conn.close()
    return records, intervals, rss[0] if rss else tree_peak_rss_mb(pid)


async def _send_all(port, bodies):
    """Send each body once, one at a time (untimed warm-up)."""
    conn = await Conn.open(port)
    try:
        return [await conn.post("/solve", body) for body in bodies]
    finally:
        await conn.close()


# -- workload inputs ------------------------------------------------------


def _bursty_inputs(seed: int, seconds: float):
    """``OFFERED_RATE x seconds`` arrivals spread over *seconds*, and the
    arrivals before which the open loop probes the machine's speed: the
    first burst to start after each ``PROBE_EVERY_S`` of schedule."""
    from repro.sim import make_arrivals
    from repro.sim.bridge import arrival_body

    count = round(OFFERED_RATE * seconds)
    arrivals = make_arrivals("bursty", count + 1, seed)
    scale = seconds / arrivals[count].time
    arrivals = arrivals[:count]
    schedule = [a.time * scale for a in arrivals]
    bodies = [_encode(arrival_body(a)) for a in arrivals]
    breaks, mark = set(), PROBE_EVERY_S
    for i in range(1, count):
        if (schedule[i] >= mark
                and arrivals[i].time - arrivals[i - 1].time > BURST_GAP_S):
            breaks.add(i)
            mark = schedule[i] + PROBE_EVERY_S
    return arrivals, schedule, bodies, breaks


def _warmup_bodies(seed: int, count: int) -> list[bytes]:
    from repro.sim import make_arrivals
    from repro.sim.bridge import arrival_body

    return [_encode(arrival_body(a))
            for a in make_arrivals("light", count, seed + 1_000_000)]


def _encode(body: dict) -> bytes:
    return json.dumps(body, sort_keys=True).encode()


# -- checks -----------------------------------------------------------------


def _resolve(body: bytes) -> dict:
    """Solve a request body in-process, as the worker would."""
    from repro.service.models import parse_solve_request
    from repro.service.worker import solve_payload

    request = parse_solve_request(json.loads(body), "check")
    return solve_payload(request.worker_payload())


def _check_served(pairs, result: Result, sample: int | None, seed: int):
    """Re-solve ``(body, solution)`` pairs; count mismatches as failures."""
    if sample is not None and len(pairs) > sample:
        pairs = Random(f"resolve:{seed}").sample(pairs, sample)
    for body, solution in pairs:
        reply = _resolve(body)
        if not reply["ok"]:
            result.fail(1, f"in-process re-solve failed: {reply['error']}")
            continue
        mine = reply["solution"]
        if (mine["cost"], mine["accepted"]) != (solution["cost"],
                                                 solution["accepted"]):
            result.fail(1, f"served cost {solution['cost']!r} != "
                           f"in-process {mine['cost']!r}")


def _outcomes(statuses, result: Result) -> tuple[int, int]:
    """Count 200s and 429s; other statuses are failed operations."""
    ok = sum(s == 200 for s in statuses)
    rejected = sum(s == 429 for s in statuses)
    bad = len(statuses) - ok - rejected
    result.fail(bad, f"{bad} requests answered neither 200 nor 429")
    return ok, rejected


# -- the workloads ------------------------------------------------------------


def _by_interval(records, intervals) -> tuple[float, float, float]:
    """Medians over the closed loop's intervals between speed probes,
    at nominal speed without stolen time: throughput of 200s, p50 and
    p99 latency (ms).  A transient stall of the machine then moves one
    interval, not the run's figures."""
    scales = [share / slow for _, slow, share in intervals]
    latencies: list[list[float]] = [[] for _ in intervals]
    for _, status, send, done, _, k in records:
        if status == 200:
            latencies[k].append(1e3 * (done - send) * scales[k])
    full = [(lat, wall * scale) for lat, (wall, _, _), scale
            in zip(latencies, intervals, scales) if wall >= PROBE_EVERY_S]
    return (median(len(lat) / nominal for lat, nominal in full),
            median(quantile(lat, 0.5) for lat, _ in full),
            median(quantile(lat, 0.99) for lat, _ in full))


def _drive(root: Path, work: Path, trace: bool, phase):
    """Start the servers and run ``phase(server, probe)`` against them.

    ``SERVER_STARTS`` servers start one after another, with a speed
    probe before the first and after each; the median of their start-up
    times at nominal speed is the set-up time.
    The last server runs the phase untraced.  A phase gets a
    ``SpeedProbe`` of the client's and the server's CPUs and returns its
    records and the server tree's peak RSS in MB.  With *trace*, one
    more phase runs on a server started with ``--trace-out``, whose
    counters are then scraped.  Returns
    ``(setup_s, raw setup_s, rss_mb, untraced, traced, scraped,
    trace_out)``.
    """
    trace_out = work / "server-trace.jsonl"
    if trace_out.exists():
        trace_out.unlink()
    cpus = _cpus()
    server_cpu = None
    if cpus is not None:
        os.sched_setaffinity(0, {cpus[0]})
        server_cpu = cpus[1]
    times, traced, scraped = [], None, None
    probe = SpeedProbe(server_cpu)
    try:
        slow = [probe.measure(PROBE_REPS)]
        for _ in range(SERVER_STARTS):
            server = Server(root, work, cpu=server_cpu)
            times.append(server.setup_s)
            slow.append(probe.measure(PROBE_REPS))
            if len(times) < SERVER_STARTS:
                server.stop()
        try:
            untraced, rss = phase(server, probe)
        finally:
            server.stop()
        if trace:
            server = Server(root, work, trace_out, cpu=server_cpu)
            try:
                traced, _ = phase(server, probe)
                scraped = _scrape(server.port)
            finally:
                server.stop()
    finally:
        probe.close()
    nominal = [t / ((a + b) / 2) for t, a, b in zip(times, slow, slow[1:])]
    return (median(nominal), median(times), rss, untraced, traced, scraped,
            trace_out)


def run_bursty(root: Path, work: Path, seed: int, seconds: float,
               trace: bool) -> Result:
    result = Result()
    arrivals, schedule, bodies, breaks = _bursty_inputs(
        seed, seconds / 2 if trace else seconds)
    warmup = _warmup_bodies(seed, WARMUP_REQUESTS)

    def phase(server, probe):
        asyncio.run(_send_all(server.port, warmup))
        run = asyncio.run(_open_loop(server.port, schedule, bodies, breaks,
                                     probe))
        return run, tree_peak_rss_mb(server.proc.pid)

    (setup_s, raw_setup_s, rss, (records, slow, shares, paused_s),
     traced, scraped, trace_out) = _drive(root, work, trace, phase)
    result.attempted = len(records)
    ok, rejected = _outcomes([r[0] for r in records], result)
    raw_ms, lat_ms = [], []
    for status, due, _, done, _, _, segment in records:
        if status == 200:
            raw_ms.append(1e3 * (done - due))
            lat_ms.append(raw_ms[-1] / slow[segment])
    good = sum(1 for r, a in zip(records, arrivals)
               if r[0] == 200 and r[3] - r[1] <= a.deadline_s)
    span = max(r[3] for r in records) - min(r[1] for r in records) - paused_s
    served = [(bodies[i], json.loads(r[5])["solution"])
              for i, r in enumerate(records) if r[0] == 200]
    _check_served(served, result, RESOLVE_SAMPLE, seed)
    result.end_to_end.update(
        throughput_per_s=ok / span,
        latency_p50_ms=quantile(lat_ms, 0.5),
        latency_p99_ms=quantile(lat_ms, 0.99),
        goodput_share=good / len(records),
        setup_s=setup_s,
        rss_peak_mb=rss,
    )
    result.extra.update({
        "reject_share": rejected / len(records),
        "generator_lag_p99_ms": 1e3 * quantile([r[4] for r in records], 0.99),
        "latency_p50_ms.raw": quantile(raw_ms, 0.5),
        "setup_s.raw": raw_setup_s,
        "host.slowness": median(slow),
        "host.stolen_share": 1.0 - median(shares),
    })
    if trace:
        _bursty_layers(result, records, traced[0], arrivals, bodies,
                       schedule, scraped, trace_out)
    return result


def run_repeat(root: Path, work: Path, seed: int, seconds: float,
               trace: bool) -> Result:
    from repro.sim import make_arrivals
    from repro.sim.bridge import arrival_body

    result = Result()
    arrivals = make_arrivals("bursty", WORKING_SET, seed)
    bodies = [_encode(arrival_body(a)) for a in arrivals]
    warm = []

    def phase(server, probe):
        warm[:] = asyncio.run(_send_all(server.port, bodies))
        records, intervals, rss = asyncio.run(_closed_loop(
            server.port, bodies, seconds / 2 if trace else seconds,
            server.proc.pid, probe))
        return (records, intervals), rss

    (setup_s, raw_setup_s, rss, (records, intervals), traced, scraped,
     trace_out) = _drive(root, work, trace, phase)
    result.attempted = len(records) + len(warm)
    _outcomes([status for status, _ in warm], result)
    reference = {}
    for i, (status, body) in enumerate(warm):
        if status == 200:
            reference[i] = json.loads(body)["solution"]
    _check_served([(bodies[i], sol) for i, sol in reference.items()],
                  result, None, seed)
    ok, rejected = _outcomes([r[1] for r in records], result)
    not_hit = wrong = good = 0
    for i, status, send, done, body, _ in records:
        if status != 200:
            continue
        reply = json.loads(body)
        not_hit += reply.get("cache") != "hit"
        wrong += reply["solution"] != reference.get(i)
        good += done - send <= arrivals[i].deadline_s
    result.fail(not_hit, f"{not_hit} timed requests missed the cache")
    result.fail(wrong, f"{wrong} cached solutions differ from the warm-up")
    tput, p50, p99 = _by_interval(records, intervals)
    result.end_to_end.update(
        throughput_per_s=tput,
        latency_p50_ms=p50,
        latency_p99_ms=p99,
        goodput_share=good / len(records),
        setup_s=setup_s,
        rss_peak_mb=rss,
    )
    active = sum(wall for wall, _, _ in intervals)
    result.extra.update({
        "reject_share": rejected / len(records),
        "throughput_per_s.raw": ok / active,
        "latency_p50_ms.raw": quantile(
            [1e3 * (r[3] - r[2]) for r in records if r[1] == 200], 0.5),
        "setup_s.raw": raw_setup_s,
        "host.slowness": median(slow for _, slow, _ in intervals),
        "host.stolen_share": 1.0 - median(share for *_, share in intervals),
    })
    if trace:
        _repeat_layers(result, records, traced[0], bodies, reference, scraped,
                       trace_out)
    return result


# -- per-layer metrics ----------------------------------------------------------


def _scrape(port: int) -> dict:
    """Read the server's counters and time ``GET /metrics``."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        status, _ = get(port, "/metrics")
        times.append(time.perf_counter() - t0)
    status, body = get(port, "/metrics?format=json")
    snapshot = json.loads(body)
    return {"scrape_ms": 1e3 * median(times),
            "counters": snapshot["counters"],
            "rate": snapshot["admission"]["rate_units_per_s"],
            "capacity": snapshot["admission"]["capacity_units"]}


def _server_spans(trace_out: Path) -> dict:
    """The program's own spans, grouped for self-time accounting.

    ``service.batch`` records are written just before the worker spans
    of the requests they carried, which ties each request to its batch.
    """
    requests, admission, batch_of, worker = [], {}, {}, []
    current = None
    with open(trace_out) as fh:
        for line in fh:
            rec = json.loads(line)
            name, attrs = rec["name"], rec.get("attrs") or {}
            if name == "service.request" and attrs.get("path") == "/solve":
                requests.append((attrs.get("req_id"), rec["dur"]))
            elif name == "service.admission":
                admission[attrs["req_id"]] = rec["dur"]
            elif name == "service.batch":
                current = rec["dur"]
            elif name == "service.solve.worker":
                batch_of[attrs["req_id"]] = current
                worker.append((attrs["algorithm"], rec["dur"]))
    return {"requests": requests, "admission": admission,
            "batch_of": batch_of, "worker": worker}


def _server_layers(layer: dict, spans: dict, scraped: dict) -> None:
    layer["server.request_ms"] = 1e3 * median(d for _, d in spans["requests"])
    layer["server.self_ms"] = 1e3 * median(
        dur - spans["admission"].get(rid, 0.0)
        - (spans["batch_of"].get(rid) or 0.0)
        for rid, dur in spans["requests"]
    )
    layer["telemetry.scrape_ms"] = scraped["scrape_ms"]
    counters = scraped["counters"]
    hits = counters.get("service.cache.hits", 0)
    layer["cache.hit_ratio"] = ratio(
        hits, hits + counters.get("service.cache.misses", 0))
    layer["batching.batch_size"] = ratio(
        counters.get("service.batch.requests", 0),
        counters.get("service.batch.dispatched", 0))
    for solver in SOLVERS:
        durs = [d for alg, d in spans["worker"] if alg == solver]
        layer[f"worker.solve_ms.{solver}"] = 1e3 * median(durs) if durs else 0


def _response_bytes(bodies) -> float:
    return ratio(sum(len(b) for b in bodies), len(bodies))


def _bursty_layers(result, untraced, traced, arrivals, bodies, schedule,
                   scraped, trace_out) -> None:
    from repro.service.models import estimate_cost

    layer = result.per_layer
    p50 = quantile([r[3] - r[1] for r in untraced if r[0] == 200], 0.5)
    p50_traced = quantile([r[3] - r[1] for r in traced if r[0] == 200], 0.5)
    layer["obs.trace_overhead_share"] = ratio(p50_traced, p50) - 1.0
    result.attempted += len(traced)
    _outcomes([r[0] for r in traced], result)
    spans = _server_spans(trace_out)
    _server_layers(layer, spans, scraped)
    layer["io.response_bytes"] = _response_bytes(
        [r[5] for r in traced if r[0] == 200])

    tracer = Tracer()
    requests = _replay_request_path(tracer, bodies, scraped)
    layer.update(_path_layers(tracer))
    layer["batching.window_wait_ms"] = _batcher_replay(schedule)
    layer["pool.ipc_ms"] = _pool_replay(
        tracer, requests, max(1, round(layer["batching.batch_size"])))
    _sim_layers(result, arrivals, schedule, scraped)

    # Predicted (admission units / calibrated rate) over measured.
    by_alg: dict[str, list[float]] = {}
    for alg, dur in spans["worker"]:
        by_alg.setdefault(alg, []).append(dur)
    for solver in SOLVERS:
        units = [estimate_cost(r.n, r.algorithm, eps=r.eps)
                 for r in requests if r.algorithm == solver]
        durs = by_alg.get(solver, [])
        layer[f"models.predicted_over_measured.{solver}"] = ratio(
            median(units) / scraped["rate"], median(durs)) if durs else 0.0


def _sim_layers(result, arrivals, schedule, scraped) -> None:
    """The simulator and admission layers on the run's own stream.

    ``ArrivalSimulator`` models the run the server just answered: the
    same arrivals on the same compressed clock, one core (the server's
    one worker) and the capacity and rate the server calibrated.  It
    runs under the simulator's watchdog; a stall counts every arrival
    as failed, and the admission log must replay identically.
    """
    from dataclasses import replace

    from repro.obs import counters as obs_counters

    import sim

    stream = tuple(replace(a, time=t) for a, t in zip(arrivals, schedule))
    tracer = Tracer()
    with obs_counters.counting() as registry:
        report = sim.simulate_checked(
            stream, result, "serve-bursty stream", tracer, cores=1,
            capacity=scraped["capacity"], rate=scraped["rate"])
    layer = result.per_layer
    layer.update(sim.admission_layers(
        registry.snapshot(), tracer,
        len(report.admission_log) if report else 0))
    layer["sim.stalls"] = 0 if report else 1
    if report:
        result.extra["objective_cost"] = sim.objective(report)


def _repeat_layers(result, untraced, traced, bodies, reference, scraped,
                   trace_out) -> None:
    from repro.service.cache import ResultCache
    from repro.service.models import parse_solve_request

    layer = result.per_layer
    wall = max(r[3] for r in untraced) - min(r[2] for r in untraced)
    wall_t = max(r[3] for r in traced) - min(r[2] for r in traced)
    layer["obs.trace_overhead_share"] = ratio(
        len(untraced) / wall, len(traced) / wall_t) - 1.0
    result.attempted += len(traced)
    _outcomes([r[1] for r in traced], result)
    _server_layers(layer, _server_spans(trace_out), scraped)
    layer["io.response_bytes"] = _response_bytes(
        [r[4] for r in traced if r[1] == 200])

    # Replay the timed request sequence through parse and the cache.
    tracer = Tracer()
    cache = ResultCache()
    parsed = [json.loads(b) for b in bodies]
    for i, sol in reference.items():
        request = parse_solve_request(parsed[i], f"w{i}")
        cache.put(cache.key(request.instance, request.algorithm,
                            request.eps), sol)
    for k, (i, *_rest) in enumerate(traced):
        with tracer.span("models.parse"):
            request = parse_solve_request(parsed[i], f"r{k}")
        with tracer.span("cache.key"):
            key = cache.key(request.instance, request.algorithm, request.eps)
        with tracer.span("cache.get"):
            cache.get(key)
    layer.update(_path_layers(tracer))


def _replay_request_path(tracer: Tracer, bodies, scraped) -> list:
    """Parse, cache, admission and io calls of each body, in order;
    returns the parsed requests."""
    from repro.io import instance_from_dict, solution_to_dict
    from repro.service.admission import AdmissionController
    from repro.service.cache import ResultCache
    from repro.service.models import parse_solve_request, resolve_solver

    cache = ResultCache()
    controller = AdmissionController(
        None, capacity_units=scraped["capacity"],
        rate_units_per_s=scraped["rate"],
    )
    requests = []
    for i, body in enumerate(bodies):
        parsed = json.loads(body)
        with tracer.span("models.parse"):
            request = parse_solve_request(parsed, f"r{i}")
        requests.append(request)
        with tracer.span("cache.key"):
            key = cache.key(request.instance, request.algorithm, request.eps)
        with tracer.span("cache.get"):
            cache.get(key)
        with tracer.span("admission.offer"):
            controller.offer(request.req_id, request.cost_units,
                             request.weight, deadline_s=request.deadline_s)
        with tracer.span("admission.dispatched"):
            controller.dispatched(request.req_id)
        with tracer.span("io.instance_from_dict"):
            problem = instance_from_dict(request.instance)
        solver = resolve_solver(request.algorithm)
        if request.algorithm == "fptas":
            solution = solver(problem, eps=request.eps)
        else:
            solution = solver(problem)
        with tracer.span("io.solution_to_dict"):
            as_dict = solution_to_dict(solution)
        with tracer.span("cache.put"):
            cache.put(key, as_dict)
        with tracer.span("admission.release"):
            controller.release(request.req_id)
    return requests


def _path_layers(tracer: Tracer) -> dict:
    return {
        "models.parse_us": tracer.mean_us("models.parse"),
        "cache.key_us": tracer.mean_us("cache.key"),
        "cache.get_us": tracer.mean_us("cache.get"),
        "cache.put_us": tracer.mean_us("cache.put"),
        "io.instance_from_dict_us": tracer.mean_us("io.instance_from_dict"),
        "io.solution_to_dict_us": tracer.mean_us("io.solution_to_dict"),
    }


#: Seconds of the arrival schedule replayed through the batcher.
BATCHER_REPLAY_S = 2.0


def _batcher_replay(schedule) -> float:
    """Median put-to-dispatch wait (ms) of ``MicroBatcher`` replaying
    the first ``BATCHER_REPLAY_S`` seconds of the schedule with the
    server's default window; the dispatch callback resolves at once."""
    from repro.service.batching import BatchEntry, MicroBatcher

    async def replay():
        loop = asyncio.get_running_loop()
        waits = []
        put_at = {}

        async def dispatch(entries):
            now = loop.time()
            for entry in entries:
                waits.append(now - put_at[entry.req_id])
                entry.future.set_result((200, {}))

        batcher = MicroBatcher(dispatch)
        batcher.start()
        t0 = loop.time()
        futures = []
        for i, offset in enumerate(schedule):
            if offset > BATCHER_REPLAY_S:
                break
            due = t0 + offset
            if due > loop.time():
                await asyncio.sleep(due - loop.time())
            entry = BatchEntry(req_id=f"b{i}", payload={},
                               future=loop.create_future())
            put_at[entry.req_id] = loop.time()
            await batcher.put(entry)
            futures.append(entry.future)
        await asyncio.gather(*futures)
        await batcher.close()
        return waits

    return 1e3 * median(asyncio.run(replay()))


#: Executor round trips timed for ``pool.ipc_ms``.
POOL_TRIPS = 40


def _pool_replay(tracer: Tracer, requests, batch_size: int) -> float:
    """Median of (round trip - worker-reported seconds), in ms, over
    ``worker.solve_batch`` round trips of the workload's own payloads on
    a one-worker pool of this process."""
    from repro.runner.pool import evict_executor, get_executor
    from repro.service.worker import solve_batch

    executor = get_executor(1)
    try:
        executor.submit(solve_batch, []).result()
        gaps = []
        for k in range(POOL_TRIPS):
            start = (k * batch_size) % max(1, len(requests) - batch_size)
            payloads = [r.worker_payload()
                        for r in requests[start:start + batch_size]]
            with tracer.span("pool.round_trip"):
                replies = executor.submit(solve_batch, payloads).result()
            _, _, t0, t1, _ = tracer.spans[-1]
            gaps.append(t1 - t0 - sum(r["seconds"] for r in replies))
    finally:
        executor.shutdown(wait=True)
        evict_executor(1)
    return 1e3 * median(gaps)
