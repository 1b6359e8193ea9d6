"""Discrete-event simulator: online rejection over per-core EDF queues.

The engine replays an arrival stream (:mod:`repro.sim.workload`) against
the *same* admission machinery the live server uses — it instantiates
:class:`repro.service.admission.AdmissionController` (which wraps a
:class:`repro.core.rejection.online.OnlinePolicy`) and asks it for a
verdict at every arrival instant.  A simulated rejection and a served
429 are therefore the same decision, by construction rather than by
re-implementation; the recorded :attr:`SimReport.admission_log` replays
byte-identically into a fresh controller (the property test in
``tests/sim/test_equivalence.py`` pins this).

Admitted arrivals become :class:`repro.sched.edf.Job` objects — the
same job class, the same :func:`repro.sched.edf.deadline_missed`
boundary predicate, and the same context-switch semantics (charge on
loading a job the core was not just running; an interrupted switch
restarts from scratch) as the periodic :class:`~repro.sched.edf.EdfSimulator`.
What is new here is the arrival side:

* jobs arrive aperiodically (or from merged periodic streams) instead
  of being released from a fixed task set;
* ``cores`` identical cores each run one job; at every event instant
  the ``cores`` earliest-deadline admitted jobs run (global EDF with
  core affinity: a job keeps its core while it remains scheduled, so
  migrations — and their context switches — only happen when the EDF
  order forces them);
* preemption happens only at event instants (arrivals, completions),
  which is sufficient for EDF at a constant speed;
* the admission controller's *shedding* reaches into the ready queue:
  a queued (never-dispatched) job evicted to make room for a
  higher-density newcomer leaves the simulation and pays its penalty,
  exactly like the server failing a queued future with 429;
* deadline misses use overrun semantics — the job keeps running and
  the miss is recorded — so feasibility shows up as ``misses == ()``
  rather than as lost work.

Everything is pure Python floats over sorted containers with
deterministic tie-breaks: the same arrival tuple and configuration
produce the same :class:`SimReport`, field for field.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from dataclasses import dataclass

from repro._validation import require_nonnegative, require_positive
from repro.core.rejection.online import OnlinePolicy
from repro.hetero.platform import Platform
from repro.power import xscale_power_model
from repro.power.base import PowerModel
from repro.sched.edf import DeadlineMiss, Job, TraceInterval, deadline_missed
from repro.service.admission import AdmissionController
from repro.sim.workload import Arrival

__all__ = ["ArrivalRecord", "ArrivalSimulator", "Decision", "SimReport"]


@dataclass(frozen=True)
class Decision:
    """One admission verdict, in arrival order (the differential unit)."""

    req_id: str
    admitted: bool
    reason: str
    shed: tuple[str, ...] = ()

    def as_tuple(self) -> tuple:
        return (self.req_id, self.admitted, self.reason, self.shed)


@dataclass(frozen=True)
class ArrivalRecord:
    """Per-arrival outcome after the simulation has quiesced.

    ``outcome`` is ``"rejected"`` (turned away at the door), ``"shed"``
    (admitted, then evicted from the queue by a later arrival) or
    ``"completed"``; ``start``/``finish``/``response_s`` are populated
    only for completed jobs, and ``missed`` marks a completed job whose
    finish fell beyond its absolute deadline (per ``deadline_missed``).
    """

    req_id: str
    time: float
    units: float
    weight: float
    deadline_s: float
    outcome: str
    reason: str
    start: float | None = None
    finish: float | None = None
    missed: bool = False

    @property
    def response_s(self) -> float | None:
        """Arrival-to-completion latency (None unless completed)."""
        if self.finish is None:
            return None
        return self.finish - self.time


@dataclass(frozen=True)
class SimReport:
    """Aggregate outcome of one arrival simulation."""

    cores: int
    capacity_units: float
    rate_units_per_s: float
    speed: float
    makespan: float
    busy_time: float
    idle_time: float
    energy_active: float
    energy_idle: float
    energy_switch: float
    context_switches: int
    offered: int
    admitted: int
    rejected: int
    shed: int
    completed: int
    penalty_cost: float
    misses: tuple[DeadlineMiss, ...]
    decisions: tuple[Decision, ...]
    records: tuple[ArrivalRecord, ...]
    admission_log: tuple[tuple, ...]
    trace: tuple[TraceInterval, ...] = ()
    cores_spec: str | None = None

    @property
    def total_energy(self) -> float:
        """Active + idle + context-switch energy over all cores (J)."""
        return self.energy_active + self.energy_idle + self.energy_switch

    @property
    def rejection_rate(self) -> float:
        """Fraction of offered arrivals that did not complete (429s)."""
        if not self.offered:
            return 0.0
        return (self.rejected + self.shed) / self.offered

    def decision_digest(self) -> str:
        """Order-sensitive digest of every admission verdict.

        Two runs — or the simulator and a live server fed the same
        sequence — agree on admission iff their digests match.
        """
        payload = json.dumps(
            [d.as_tuple() for d in self.decisions], separators=(",", ":")
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def slo_samples(self) -> list[tuple[bool, float | None]]:
        """SLO samples in the shared ``(ok, latency_s | None)`` schema.

        Mirrors the serving-side convention
        (:mod:`repro.obs.runtime.slo`): rejected and shed arrivals are
        the admission *policy* and contribute no sample; completed jobs
        contribute their response time, with a deadline miss counting
        as an availability failure (the sim's analogue of a 5xx — the
        answer arrived too late to be useful).
        """
        samples: list[tuple[bool, float | None]] = []
        for record in self.records:
            if record.outcome != "completed":
                continue
            samples.append((not record.missed, record.response_s))
        return samples

    def slo_summary(self, objectives=None) -> list:
        """Batch SLO evaluation over the makespan.

        Returns :class:`repro.obs.runtime.slo.SloResult` rows — the
        same schema ``bench-serve`` prints, so
        :func:`repro.sim.bridge.paired_summary` can report sim-vs-served
        SLO drift row by row.
        """
        from repro.obs.runtime.slo import DEFAULT_SLOS, summarize_slo

        return summarize_slo(
            self.slo_samples(),
            objectives or DEFAULT_SLOS,
            window_s=max(self.makespan, 1e-9),
        )


class _Open:
    """Mutable in-flight state for one admitted job."""

    __slots__ = ("arrival", "job", "dispatched", "start")

    def __init__(self, arrival: Arrival, job: Job) -> None:
        self.arrival = arrival
        self.job = job
        self.dispatched = False
        self.start: float | None = None


class ArrivalSimulator:
    """Simulate an arrival stream against admission + multi-core EDF.

    Parameters
    ----------
    arrivals:
        Time-ordered arrival stream (:func:`repro.sim.workload.make_arrivals`).
    cores:
        Identical cores, each retiring ``rate_units_per_s × speed`` work
        units per second while busy.
    policy:
        The :class:`OnlinePolicy` handed to the admission controller;
        ``None`` means :class:`~repro.core.rejection.online.AcceptIfFeasible`
        (admit whatever fits), exactly as ``repro serve`` defaults.
    capacity_units:
        Admission backlog bound, in the same work units as
        :func:`repro.service.models.estimate_cost`.
    rate_units_per_s:
        Single-core service rate.  Also feeds the controller's
        stateless per-request deadline check unless ``deadline_check``
        is False.
    speed:
        Execution speed in ``(0, 1]`` (clamped to the power model's
        range); busy core-seconds cost ``P(speed)`` watts, idle ones the
        model's static power.
    power_model:
        Energy pricing; defaults to the same normalised XScale curve the
        admission controller prices marginals with.
    context_switch_s, context_switch_j:
        Per-pickup context-switch wall time / energy (see
        :class:`repro.sched.edf.EdfSimulator`; defaults of zero give
        free preemption).
    platform:
        Optional heterogeneous platform
        (:func:`repro.hetero.parse_cores_spec`).  When given, ``cores``
        and ``power_model`` are superseded: the core count is the
        platform's flattened core list, and each core runs its *type's*
        power curve at ``clamp_speed(speed)`` for that type — so LP
        cores retire work at ``rate × s_max,lp`` while HP cores run the
        requested speed.  The controller never sees cores, but job
        completion times do feed back into its outstanding-units state
        via releases, so the decision stream — and
        :meth:`SimReport.decision_digest` — is platform-invariant only
        while admission is insensitive to outstanding workload (e.g.
        ``accept`` under ample capacity); under a binding capacity or a
        workload-priced policy, a slower platform holds units longer
        and can tip later verdicts.
    record_trace:
        Keep the per-core execution trace (``what`` is
        ``"c<k>:<req_id>"`` / ``"c<k>:idle"``).
    """

    def __init__(
        self,
        arrivals: tuple[Arrival, ...],
        *,
        cores: int = 1,
        policy: OnlinePolicy | None = None,
        capacity_units: float,
        rate_units_per_s: float,
        speed: float = 1.0,
        power_model: PowerModel | None = None,
        context_switch_s: float = 0.0,
        context_switch_j: float = 0.0,
        deadline_check: bool = True,
        platform: Platform | None = None,
        record_trace: bool = False,
    ) -> None:
        for prev, cur in zip(arrivals, arrivals[1:]):
            if cur.time < prev.time:
                raise ValueError("arrivals must be time-ordered")
        self._arrivals = tuple(arrivals)
        self._policy = policy
        self._capacity = require_positive("capacity_units", capacity_units)
        self._rate = require_positive("rate_units_per_s", rate_units_per_s)
        self._platform = platform
        if platform is not None:
            if power_model is not None:
                raise ValueError(
                    "platform and power_model are mutually exclusive; the "
                    "platform carries its own per-type curves"
                )
            self._cores = platform.total_cores
            self._speed = require_positive("speed", speed)
            type_indices = platform.core_type_indices()
            self._core_models = [
                platform.core_types[t].power_model for t in type_indices
            ]
            self._core_speeds = [
                m.clamp_speed(self._speed) for m in self._core_models
            ]
        else:
            if cores < 1:
                raise ValueError(
                    f"cores must be a positive integer, got {cores!r}"
                )
            self._cores = int(cores)
            model = power_model if power_model is not None else (
                xscale_power_model(s_max=1.0)
            )
            self._speed = model.clamp_speed(require_positive("speed", speed))
            model.power(self._speed)  # validates the speed is in range
            self._core_models = [model] * self._cores
            self._core_speeds = [self._speed] * self._cores
        self._cs_time = require_nonnegative("context_switch_s", context_switch_s)
        self._cs_energy = require_nonnegative(
            "context_switch_j", context_switch_j
        )
        self._deadline_check = bool(deadline_check)
        self._record = bool(record_trace)

    # ------------------------------------------------------------------ #

    def run(self) -> SimReport:
        """Simulate until every admitted job completes; return the report."""
        controller = AdmissionController(
            self._policy,
            capacity_units=self._capacity,
            rate_units_per_s=self._rate if self._deadline_check else None,
        )
        exec_rates = [self._rate * s for s in self._core_speeds]
        active_powers = [
            m.power(s) for m, s in zip(self._core_models, self._core_speeds)
        ]
        static_powers = [m.static_power for m in self._core_models]
        static_total = sum(static_powers)

        log: list[tuple] = []
        decisions: list[Decision] = []
        records: dict[str, ArrivalRecord] = {}
        misses: list[DeadlineMiss] = []
        open_jobs: dict[str, _Open] = {}

        ready: list[tuple[float, int, Job]] = []  # admitted, not running
        shed_gone: set[str] = set()  # lazy removal of shed queue entries
        running: list[Job | None] = [None] * self._cores
        core_last: list[Job | None] = [None] * self._cores
        trace: list[TraceInterval] = []

        energy_active = energy_idle = energy_switch = 0.0
        busy = idle = 0.0
        context_switches = 0
        completed = 0
        penalty_cost = 0.0
        next_arrival = 0

        def _penalty(a: Arrival) -> float:
            # The controller's own pricing: penalty = weight × capacity
            # fraction (AdmissionController._task_for).
            return a.weight * a.units / self._capacity

        def _admit_arrivals(now: float) -> None:
            nonlocal next_arrival, penalty_cost
            while (
                next_arrival < len(self._arrivals)
                and self._arrivals[next_arrival].time <= now + 1e-12
            ):
                a = self._arrivals[next_arrival]
                next_arrival += 1
                decision = controller.offer(
                    a.req_id, a.units, a.weight, a.deadline_s
                )
                log.append(
                    (
                        "offer",
                        a.req_id,
                        a.units,
                        a.weight,
                        a.deadline_s,
                        decision.admitted,
                        decision.reason,
                        decision.shed,
                    )
                )
                decisions.append(
                    Decision(
                        a.req_id,
                        decision.admitted,
                        decision.reason,
                        decision.shed,
                    )
                )
                for victim in decision.shed:
                    shed_gone.add(victim)
                    entry = open_jobs.pop(victim)
                    penalty_cost += _penalty(entry.arrival)
                    records[victim] = ArrivalRecord(
                        req_id=victim,
                        time=entry.arrival.time,
                        units=entry.arrival.units,
                        weight=entry.arrival.weight,
                        deadline_s=entry.arrival.deadline_s,
                        outcome="shed",
                        reason="shed",
                    )
                if decision.admitted:
                    job = Job(
                        a.req_id,
                        a.time,
                        a.time + a.deadline_s,
                        a.units,
                        a.index,
                    )
                    open_jobs[a.req_id] = _Open(a, job)
                    heapq.heappush(ready, (job.deadline, job.seq, job))
                else:
                    penalty_cost += _penalty(a)
                    records[a.req_id] = ArrivalRecord(
                        req_id=a.req_id,
                        time=a.time,
                        units=a.units,
                        weight=a.weight,
                        deadline_s=a.deadline_s,
                        outcome="rejected",
                        reason=decision.reason,
                    )

        def _pop_ready() -> Job | None:
            while ready:
                _, _, job = heapq.heappop(ready)
                if job.name not in shed_gone:
                    return job
            return None

        def _peek_ready_key() -> tuple[float, int] | None:
            while ready and ready[0][2].name in shed_gone:
                heapq.heappop(ready)
            return ready[0][:2] if ready else None

        def _schedule(now: float) -> None:
            """Put the ``cores`` earliest-deadline jobs on the cores."""
            nonlocal energy_switch, context_switches
            pool = [j for j in running if j is not None]
            while len(pool) < self._cores:
                job = _pop_ready()
                if job is None:
                    break
                pool.append(job)
            # Preemption: a waiting job with an earlier deadline replaces
            # the latest-deadline scheduled job.
            while pool:
                head = _peek_ready_key()
                worst = max(pool, key=Job.key)
                if head is None or head >= worst.key():
                    break
                pool.remove(worst)
                heapq.heappush(ready, (worst.deadline, worst.seq, worst))
                pool.append(_pop_ready())
            # Core affinity: a job that stays scheduled keeps its core.
            new_running: list[Job | None] = [None] * self._cores
            placed = set()
            for c, job in enumerate(running):
                if job is not None and job in pool and id(job) not in placed:
                    new_running[c] = job
                    placed.add(id(job))
            rest = sorted(
                (j for j in pool if id(j) not in placed), key=Job.key
            )
            free = iter(c for c in range(self._cores) if new_running[c] is None)
            for job in rest:
                c = next(free)
                new_running[c] = job
                if job is not core_last[c] and (
                    self._cs_time > 0 or self._cs_energy > 0
                ):
                    # Same restart semantics as EdfSimulator: loading a
                    # different context re-charges the switch in full.
                    job.overhead_s = self._cs_time
                    energy_switch += self._cs_energy
                    context_switches += 1
            running[:] = new_running
            for c, job in enumerate(running):
                if job is None:
                    continue
                core_last[c] = job
                entry = open_jobs[job.name]
                if not entry.dispatched:
                    entry.dispatched = True
                    entry.start = now
                    controller.dispatched(job.name)
                    log.append(("dispatched", job.name))

        def _log_miss_if_due(now: float) -> None:
            pending = [e.job for e in open_jobs.values()]
            pending.sort(key=Job.key)
            for job in pending:
                if not job.miss_logged and deadline_missed(now, job.deadline):
                    job.miss_logged = True
                    misses.append(
                        DeadlineMiss(
                            task=job.name,
                            release=job.release,
                            deadline=job.deadline,
                            remaining_cycles=job.remaining,
                        )
                    )

        now = 0.0
        _admit_arrivals(now)
        while True:
            _schedule(now)
            if all(j is None for j in running):
                if next_arrival >= len(self._arrivals):
                    break  # quiescent: nothing running, nothing to come
                gap_end = self._arrivals[next_arrival].time
                gap = gap_end - now
                if gap > 0:
                    idle += gap * self._cores
                    energy_idle += static_total * gap
                    if self._record:
                        for c in range(self._cores):
                            trace.append(
                                TraceInterval(now, gap_end, f"c{c}:idle", 0.0)
                            )
                now = gap_end
                _admit_arrivals(now)
                _log_miss_if_due(now)
                continue

            finish = min(
                now + j.overhead_s + j.remaining / exec_rates[c]
                for c, j in enumerate(running)
                if j is not None
            )
            if next_arrival < len(self._arrivals):
                run_until = min(finish, self._arrivals[next_arrival].time)
            else:
                run_until = finish
            dt = run_until - now
            if dt > 0:
                for c, job in enumerate(running):
                    if job is None:
                        idle += dt
                        energy_idle += static_powers[c] * dt
                        if self._record:
                            trace.append(
                                TraceInterval(now, run_until, f"c{c}:idle", 0.0)
                            )
                        continue
                    switch_dt = min(job.overhead_s, dt)
                    job.overhead_s -= switch_dt
                    executed = (dt - switch_dt) * exec_rates[c]
                    job.remaining = max(job.remaining - executed, 0.0)
                    busy += dt
                    energy_active += active_powers[c] * dt
                    if self._record:
                        trace.append(
                            TraceInterval(
                                now,
                                run_until,
                                f"c{c}:{job.name}",
                                self._core_speeds[c],
                            )
                        )
            now = run_until
            for c, job in enumerate(running):
                if job is None:
                    continue
                # The second test retires a job whose time left is below
                # half an ulp of ``now``: it can never advance the clock,
                # and the loop would spin on ``dt == 0`` forever.
                if (job.remaining <= 1e-9 and job.overhead_s <= 1e-12) or (
                    now + job.overhead_s + job.remaining / exec_rates[c] == now
                ):
                    running[c] = None
                    completed += 1
                    entry = open_jobs.pop(job.name)
                    controller.release(job.name)
                    log.append(("release", job.name))
                    missed = deadline_missed(now, job.deadline)
                    if missed and not job.miss_logged:
                        job.miss_logged = True
                        misses.append(
                            DeadlineMiss(
                                task=job.name,
                                release=job.release,
                                deadline=job.deadline,
                                remaining_cycles=0.0,
                            )
                        )
                    records[job.name] = ArrivalRecord(
                        req_id=job.name,
                        time=entry.arrival.time,
                        units=entry.arrival.units,
                        weight=entry.arrival.weight,
                        deadline_s=entry.arrival.deadline_s,
                        outcome="completed",
                        reason="admitted",
                        start=entry.start,
                        finish=now,
                        missed=missed or job.miss_logged,
                    )
            _admit_arrivals(now)
            _log_miss_if_due(now)

        assert not open_jobs, "simulation quiesced with jobs still open"
        ordered = tuple(records[a.req_id] for a in self._arrivals)
        return SimReport(
            cores=self._cores,
            capacity_units=self._capacity,
            rate_units_per_s=self._rate,
            speed=self._speed,
            makespan=now,
            busy_time=busy,
            idle_time=idle,
            energy_active=energy_active,
            energy_idle=energy_idle,
            energy_switch=energy_switch,
            context_switches=context_switches,
            offered=len(self._arrivals),
            admitted=controller.admitted_total,
            rejected=controller.rejected_total,
            shed=controller.shed_total,
            completed=completed,
            penalty_cost=penalty_cost,
            misses=tuple(misses),
            decisions=tuple(decisions),
            records=ordered,
            admission_log=tuple(log),
            trace=tuple(trace),
            cores_spec=(
                self._platform.spec() if self._platform is not None else None
            ),
        )
