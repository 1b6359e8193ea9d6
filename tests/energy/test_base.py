"""Tests for SpeedPlan/SpeedSegment value objects."""

import pytest

from repro.energy.base import SpeedPlan, SpeedSegment


class TestSpeedSegment:
    def test_duration_and_cycles(self):
        seg = SpeedSegment(1.0, 3.0, 0.5)
        assert seg.duration == pytest.approx(2.0)
        assert seg.cycles == pytest.approx(1.0)

    def test_idle_segment_carries_no_cycles(self):
        assert SpeedSegment(0.0, 5.0, 0.0).cycles == 0.0

    def test_sleep_segment(self):
        seg = SpeedSegment(0.0, 1.0, SpeedPlan.SLEEP_SPEED)
        assert seg.is_sleep
        assert seg.cycles == 0.0

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError, match="precedes"):
            SpeedSegment(2.0, 1.0, 0.5)


class TestSpeedPlan:
    def test_contiguity_enforced(self):
        with pytest.raises(ValueError, match="gap"):
            SpeedPlan(
                segments=(
                    SpeedSegment(0.0, 1.0, 1.0),
                    SpeedSegment(1.5, 2.0, 0.0),
                ),
                energy=1.0,
            )

    def test_aggregates(self):
        plan = SpeedPlan(
            segments=(
                SpeedSegment(0.0, 1.0, 0.5),
                SpeedSegment(1.0, 2.0, 0.0),
            ),
            energy=0.3,
        )
        assert plan.horizon == pytest.approx(2.0)
        assert plan.total_cycles == pytest.approx(0.5)
        assert plan.busy_time == pytest.approx(1.0)

    def test_empty_plan(self):
        plan = SpeedPlan(segments=(), energy=0.0)
        assert plan.horizon == 0.0
        assert plan.total_cycles == 0.0

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            SpeedPlan(segments=(), energy=-1.0)


def _energy_functions():
    from repro.energy import (
        ContinuousEnergyFunction,
        CriticalSpeedEnergyFunction,
        DiscreteEnergyFunction,
    )
    from repro.power import DormantMode, PolynomialPowerModel
    from repro.power.discrete import SpeedLevels

    model = PolynomialPowerModel(beta0=0.1, beta1=1.52, alpha=3.0, s_max=1.0)
    return [
        ContinuousEnergyFunction(model, deadline=2.0),
        CriticalSpeedEnergyFunction(model, deadline=2.0),
        DiscreteEnergyFunction(
            model,
            SpeedLevels([0.4, 0.7, 1.0]),
            deadline=2.0,
            dormant=DormantMode(t_sw=0.1, e_sw=0.02),
        ),
    ]


class TestWorkloadValidation:
    """``energy`` and ``plan`` validate the workload exactly once, with
    the same errors as before the single-check refactor."""

    @pytest.mark.parametrize(
        "fn", _energy_functions(), ids=lambda fn: type(fn).__name__
    )
    @pytest.mark.parametrize(
        "workload, match",
        [
            (-0.5, "workload must be >= 0"),
            (float("nan"), "workload must be finite"),
            (float("inf"), "workload must be finite"),
            (2.5, "exceeds the feasible maximum 2.0"),
        ],
    )
    def test_bad_workloads_raise(self, fn, workload, match):
        with pytest.raises(ValueError, match=match):
            fn.energy(workload)
        with pytest.raises(ValueError, match=match):
            fn.plan(workload)

    @pytest.mark.parametrize(
        "fn", _energy_functions(), ids=lambda fn: type(fn).__name__
    )
    def test_non_numbers_raise_type_error(self, fn):
        with pytest.raises(TypeError, match="workload must be a real number"):
            fn.energy("1.0")

    @pytest.mark.parametrize(
        "fn", _energy_functions(), ids=lambda fn: type(fn).__name__
    )
    def test_boundary_workloads_evaluate(self, fn):
        assert fn.energy(0) == fn.energy(0.0)
        top = fn.max_workload
        assert fn.energy(top * (1 + 1e-13)) == fn.plan(top * (1 + 1e-13)).energy
