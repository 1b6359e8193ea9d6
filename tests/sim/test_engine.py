"""Tests for the arrival simulator (determinism, accounting, boundaries)."""

import math

import pytest

from repro.core.rejection.online import RejectAll, ThresholdPolicy
from repro.power import xscale_power_model
from repro.sim.engine import ArrivalSimulator
from repro.sim.workload import Arrival, make_arrivals


def simulate(arrivals, **kwargs):
    kwargs.setdefault("capacity_units", 50_000.0)
    kwargs.setdefault("rate_units_per_s", 20_000.0)
    return ArrivalSimulator(arrivals, **kwargs).run()


def one_arrival(
    *, time=0.5, n=8, deadline_s=2.0, weight=1.0, algorithm="greedy_marginal"
):
    return Arrival(
        index=0,
        time=time,
        n=n,
        algorithm=algorithm,
        eps=0.1,
        weight=weight,
        deadline_s=deadline_s,
        instance_seed=1,
    )


class TestDeterminism:
    @pytest.mark.parametrize("family", ["light", "bursty", "heavy", "periodic"])
    def test_same_inputs_same_report(self, family):
        arrivals = make_arrivals(family, 120, 9)
        kwargs = dict(cores=2, context_switch_s=1e-4, context_switch_j=1e-3)
        first = simulate(arrivals, **kwargs)
        second = simulate(arrivals, **kwargs)
        assert first == second
        assert first.decision_digest() == second.decision_digest()

    def test_digest_is_decision_sensitive(self):
        arrivals = make_arrivals("heavy", 80, 2)
        open_door = simulate(arrivals, capacity_units=1e9)
        slammed = simulate(arrivals, policy=RejectAll())
        assert open_door.decision_digest() != slammed.decision_digest()


class TestConservation:
    @pytest.mark.parametrize("family", ["light", "bursty", "heavy", "periodic"])
    def test_every_arrival_is_accounted_once(self, family):
        report = simulate(make_arrivals(family, 150, 4), cores=2)
        assert report.offered == 150
        assert report.offered == report.admitted + report.rejected
        assert report.admitted == report.completed + report.shed
        assert len(report.records) == report.offered
        outcomes = [r.outcome for r in report.records]
        assert outcomes.count("completed") == report.completed
        assert outcomes.count("rejected") == report.rejected
        assert outcomes.count("shed") == report.shed

    def test_light_family_admits_everything(self):
        report = simulate(make_arrivals("light", 100, 1), cores=2)
        assert report.rejected == 0
        assert report.shed == 0
        assert report.completed == 100
        assert report.misses == ()
        assert report.penalty_cost == 0.0

    def test_heavy_family_must_reject(self):
        report = simulate(make_arrivals("heavy", 150, 1), cores=2)
        assert report.rejected > 0
        assert report.penalty_cost > 0

    def test_reject_all_pays_every_penalty(self):
        arrivals = make_arrivals("light", 30, 0)
        report = simulate(arrivals, policy=RejectAll())
        assert report.completed == 0
        assert report.rejected == 30
        expected = sum(a.weight * a.units / 50_000.0 for a in arrivals)
        assert report.penalty_cost == pytest.approx(expected)
        assert report.busy_time == 0.0

    def test_threshold_policy_rejects_by_reason_policy(self):
        # A small capacity makes each request a sizeable fraction of the
        # pool, so its cubic marginal energy dwarfs theta times its
        # (linear) penalty and the policy declines work that still fits.
        arrivals = make_arrivals("light", 30, 0)
        report = simulate(
            arrivals,
            policy=ThresholdPolicy(1e-6),
            capacity_units=1_000.0,
        )
        assert report.rejected > 0
        assert {
            d.reason for d in report.decisions if not d.admitted
        } == {"policy"}


class TestTimingAndEnergy:
    def test_single_job_timing_is_exact(self):
        a = one_arrival(time=0.5, n=8)  # greedy_marginal: 64 units
        report = simulate((a,), cores=1)
        service = a.units / 20_000.0
        assert report.makespan == pytest.approx(0.5 + service)
        assert report.busy_time == pytest.approx(service)
        assert report.idle_time == pytest.approx(0.5)
        record = report.records[0]
        assert record.outcome == "completed"
        assert record.start == pytest.approx(0.5)
        assert record.response_s == pytest.approx(service)
        assert not record.missed

    def test_energy_matches_power_model(self):
        a = one_arrival()
        model = xscale_power_model(s_max=1.0)
        report = simulate((a,), cores=1, speed=0.5)
        # Half speed: twice the service time at P(0.5).
        service = a.units / (20_000.0 * 0.5)
        assert report.busy_time == pytest.approx(service)
        assert report.energy_active == pytest.approx(
            model.power(0.5) * service
        )
        assert report.energy_idle == pytest.approx(
            model.static_power * report.idle_time
        )
        assert report.total_energy == pytest.approx(
            report.energy_active + report.energy_idle
        )

    def test_idle_cores_burn_static_power(self):
        a = one_arrival()
        solo = simulate((a,), cores=1)
        duo = simulate((a,), cores=2)
        assert duo.idle_time > solo.idle_time
        assert duo.energy_idle > solo.energy_idle
        # The busy accounting is unchanged by the extra core.
        assert duo.busy_time == pytest.approx(solo.busy_time)

    def test_trace_records_per_core_intervals(self):
        report = simulate(
            make_arrivals("light", 10, 0), cores=2, record_trace=True
        )
        assert report.trace
        whats = {t.what.split(":")[0] for t in report.trace}
        assert whats <= {"c0", "c1"}


class TestContextSwitches:
    def test_defaults_are_free(self):
        report = simulate(make_arrivals("bursty", 60, 3), cores=2)
        assert report.context_switches == 0
        assert report.energy_switch == 0.0

    def test_switch_energy_is_count_times_charge(self):
        report = simulate(
            make_arrivals("bursty", 60, 3),
            cores=2,
            context_switch_s=1e-4,
            context_switch_j=2e-3,
        )
        assert report.context_switches > 0
        assert report.energy_switch == pytest.approx(
            report.context_switches * 2e-3
        )
        assert report.total_energy == pytest.approx(
            report.energy_active + report.energy_idle + report.energy_switch
        )

    def test_switch_time_extends_the_makespan(self):
        a = one_arrival(time=0.0, deadline_s=10.0)
        free = simulate((a,), cores=1)
        costly = simulate((a,), cores=1, context_switch_s=0.25)
        assert costly.context_switches == 1
        assert costly.makespan == pytest.approx(free.makespan + 0.25)
        assert costly.busy_time == pytest.approx(free.busy_time + 0.25)

    def test_completion_requires_the_switch_to_finish(self):
        # The switch occupies the core without retiring cycles: a job
        # whose deadline leaves room for its cycles but not for the
        # switch must be recorded as missed.
        service = 64.0 / 20_000.0
        a = one_arrival(time=0.0, n=8, deadline_s=service + 0.01)
        report = simulate((a,), cores=1, context_switch_s=0.02)
        assert report.completed == 1
        assert len(report.misses) == 1
        assert report.records[0].missed


class TestSheddingAndLifecycle:
    def _overload(self):
        # Two cheap queued tasks, then a heavyweight high-penalty
        # arrival that only fits if the queue is shed.
        return (
            Arrival(0, 0.0, 10, "greedy_marginal", 0.1, 0.1, 50.0, 1),
            Arrival(1, 1e-4, 10, "greedy_marginal", 0.1, 0.1, 50.0, 2),
            Arrival(2, 2e-4, 10, "fptas", 0.1, 10.0, 50.0, 3),
        )

    def test_queued_jobs_can_be_shed_for_denser_arrivals(self):
        report = simulate(
            self._overload(),
            cores=1,
            capacity_units=10_100.0,
            rate_units_per_s=1_000.0,
            deadline_check=False,
        )
        # fptas(10) = 10000 units only fits after evicting a queued 100.
        assert report.shed >= 1
        shed_records = [r for r in report.records if r.outcome == "shed"]
        assert {r.req_id for r in shed_records} == {
            victim for d in report.decisions for victim in d.shed
        }

    def test_dispatched_jobs_are_never_shed(self):
        report = simulate(
            self._overload(),
            cores=1,
            capacity_units=10_100.0,
            rate_units_per_s=1_000.0,
            deadline_check=False,
        )
        dispatched = {
            ev[1] for ev in report.admission_log if ev[0] == "dispatched"
        }
        shed = {v for d in report.decisions for v in d.shed}
        assert dispatched.isdisjoint(shed)

    def test_admission_log_is_well_formed(self):
        report = simulate(make_arrivals("bursty", 80, 6), cores=2)
        offers = [ev for ev in report.admission_log if ev[0] == "offer"]
        releases = [ev for ev in report.admission_log if ev[0] == "release"]
        assert len(offers) == report.offered
        assert len(releases) == report.completed
        # Every completed job was dispatched before it was released.
        seen = set()
        for ev in report.admission_log:
            if ev[0] == "dispatched":
                seen.add(ev[1])
            elif ev[0] == "release":
                assert ev[1] in seen

    def test_deadline_check_rejects_oversized_requests_statelessly(self):
        a = one_arrival(n=16, algorithm="fptas", deadline_s=0.05)
        report = simulate((a,), capacity_units=1e9)
        assert report.rejected == 1
        assert report.decisions[0].reason == "deadline"
        without = simulate((a,), capacity_units=1e9, deadline_check=False)
        assert without.rejected == 0


class TestDeadlineBoundary:
    def test_finishing_exactly_at_the_deadline_is_not_a_miss(self):
        # 64 units at 1000 units/s = 64 ms of service; deadline exactly.
        a = one_arrival(time=0.0, n=8, deadline_s=64.0 / 1000.0)
        report = simulate((a,), rate_units_per_s=1_000.0, deadline_check=False)
        assert report.completed == 1
        assert report.misses == ()
        assert not report.records[0].missed

    def test_finishing_past_the_deadline_is_a_miss(self):
        a = one_arrival(time=0.0, n=8, deadline_s=64.0 / 1000.0 - 1e-6)
        report = simulate((a,), rate_units_per_s=1_000.0, deadline_check=False)
        assert report.completed == 1
        assert len(report.misses) == 1
        assert report.records[0].missed
        assert math.isfinite(report.misses[0].deadline)


class TestValidation:
    def test_unordered_arrivals_raise(self):
        a = one_arrival(time=1.0)
        b = Arrival(1, 0.5, 8, "greedy_marginal", 0.1, 1.0, 1.0, 2)
        with pytest.raises(ValueError, match="time-ordered"):
            ArrivalSimulator(
                (a, b), capacity_units=1.0, rate_units_per_s=1.0
            )

    def test_bad_knobs_raise(self):
        a = one_arrival()
        with pytest.raises(ValueError):
            ArrivalSimulator((a,), cores=0, capacity_units=1, rate_units_per_s=1)
        with pytest.raises(ValueError):
            ArrivalSimulator((a,), capacity_units=0, rate_units_per_s=1)
        with pytest.raises(ValueError):
            ArrivalSimulator((a,), capacity_units=1, rate_units_per_s=0)
        with pytest.raises(ValueError):
            ArrivalSimulator(
                (a,),
                capacity_units=1,
                rate_units_per_s=1,
                context_switch_s=-1,
            )


class TestSloSummary:
    def test_samples_mirror_the_serving_convention(self):
        # One completed-on-time, one completed-late (deadline miss),
        # one rejected: the rejection contributes no sample, the miss
        # is an availability failure that still carries its latency.
        fast = one_arrival(time=0.0, n=8, deadline_s=10.0)
        late = Arrival(1, 0.0, 8, "greedy_marginal", 0.1, 1.0, 1e-6, 3)
        report = simulate(
            (fast, late), cores=1, deadline_check=False
        )
        assert report.completed == 2 and len(report.misses) == 1
        samples = report.slo_samples()
        assert len(samples) == 2
        oks = sorted(ok for ok, _ in samples)
        assert oks == [False, True]
        assert all(latency is not None for _, latency in samples)

    def test_rejected_and_shed_contribute_no_samples(self):
        a = one_arrival(time=0.0)
        report = simulate((a,), policy=RejectAll())
        assert report.rejected == 1
        assert report.slo_samples() == []
        # an empty window consumes no budget, same as the server
        for res in report.slo_summary():
            assert res.attainment == 1.0
            assert res.ok

    def test_summary_schema_matches_the_served_side(self):
        arrivals = make_arrivals("bursty", 60, 7)
        report = simulate(arrivals)
        results = report.slo_summary()
        names = [r.objective.name for r in results]
        assert names == ["latency_p99", "availability"]
        for res in results:
            d = res.as_dict()
            assert d["window_s"] == pytest.approx(report.makespan)
            assert 0.0 <= d["attainment"] <= 1.0
            assert d["burn_rate"] >= 0.0
        # deterministic: same arrivals, same summary
        again = simulate(arrivals).slo_summary()
        assert [r.as_dict() for r in results] == [r.as_dict() for r in again]

    def test_custom_objectives_flow_through(self):
        from repro.obs.runtime.slo import SloObjective

        arrivals = make_arrivals("light", 20, 3)
        report = simulate(arrivals)
        strict = SloObjective(
            "resp_tight", "latency", target=0.5, threshold_s=1e-12
        )
        (res,) = report.slo_summary([strict])
        assert res.objective.name == "resp_tight"
        assert res.samples == report.completed
        assert res.good == 0  # nothing responds in a picosecond


class TestRunLoopTermination:
    def test_job_shorter_than_half_an_ulp_of_now_retires(self):
        # At t = 2**60 an ulp is 256 s, so the 64-unit job's 3.2 ms of
        # service cannot advance the clock: ``now + remaining / rate ==
        # now``.  The loop must retire it instead of spinning on dt == 0.
        import threading

        a = one_arrival(time=2.0**60, n=8, deadline_s=2.0)
        assert 2.0**60 + a.units / 20_000.0 == 2.0**60
        box = []
        worker = threading.Thread(
            target=lambda: box.append(simulate((a,), cores=1)), daemon=True
        )
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive(), "run loop livelocked on dt == 0"
        (report,) = box
        assert report.completed == 1
        record = report.records[0]
        assert record.outcome == "completed"
        assert record.start == record.finish == 2.0**60
        assert not record.missed
