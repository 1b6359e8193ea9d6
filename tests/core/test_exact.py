"""Tests for the exact algorithms (exhaustive, branch-and-bound)."""

import itertools
import math

import pytest
from hypothesis import given, settings

from repro.core.rejection import (
    RejectionProblem,
    branch_and_bound,
    exhaustive,
    fractional_lower_bound,
)
from repro.core.rejection.exact import stationary_workloads, suffix_bound
from repro.kernels.base import suffix_shed_cost
from repro.energy import ContinuousEnergyFunction
from repro.power import xscale_power_model
from repro.tasks import FrameTask, FrameTaskSet

from tests.conftest import rejection_problems


def brute_force(problem):
    """Independent oracle: plain itertools subset scan."""
    best = math.inf
    best_set = ()
    for r in range(problem.n + 1):
        for combo in itertools.combinations(range(problem.n), r):
            if not problem.is_feasible(combo):
                continue
            cost = problem.cost(combo).total
            if cost < best:
                best, best_set = cost, combo
    return best, best_set


class TestExhaustive:
    def test_matches_independent_oracle_small(self):
        tasks = FrameTaskSet(
            [
                FrameTask(name="a", cycles=0.4, penalty=0.9),
                FrameTask(name="b", cycles=0.5, penalty=0.1),
                FrameTask(name="c", cycles=0.6, penalty=2.0),
                FrameTask(name="d", cycles=0.2, penalty=0.05),
            ]
        )
        g = ContinuousEnergyFunction(xscale_power_model(), deadline=1.0)
        p = RejectionProblem(tasks=tasks, energy_fn=g)
        oracle_cost, _ = brute_force(p)
        assert exhaustive(p).cost == pytest.approx(oracle_cost)

    @given(problem=rejection_problems(max_tasks=6))
    @settings(max_examples=40)
    def test_matches_oracle_property(self, problem):
        oracle_cost, _ = brute_force(problem)
        assert exhaustive(problem).cost == pytest.approx(oracle_cost, rel=1e-9)

    def test_guard_on_large_n(self):
        tasks = FrameTaskSet(
            FrameTask(name=f"t{i}", cycles=0.01, penalty=1.0) for i in range(25)
        )
        g = ContinuousEnergyFunction(xscale_power_model(), deadline=1.0)
        with pytest.raises(ValueError, match="limited"):
            exhaustive(RejectionProblem(tasks=tasks, energy_fn=g))

    def test_solution_is_validated_and_labelled(self):
        tasks = FrameTaskSet([FrameTask(name="a", cycles=0.5, penalty=1.0)])
        g = ContinuousEnergyFunction(xscale_power_model(), deadline=1.0)
        sol = exhaustive(RejectionProblem(tasks=tasks, energy_fn=g))
        assert sol.algorithm == "exhaustive"


class TestBranchAndBound:
    @given(problem=rejection_problems(max_tasks=7))
    @settings(max_examples=50)
    def test_agrees_with_exhaustive(self, problem):
        opt = exhaustive(problem)
        bb = branch_and_bound(problem)
        assert bb.cost == pytest.approx(opt.cost, rel=1e-6, abs=1e-9)

    @given(problem=rejection_problems(max_tasks=7))
    @settings(max_examples=30)
    def test_never_below_fractional_bound(self, problem):
        assert branch_and_bound(problem).cost >= fractional_lower_bound(
            problem
        ) - 1e-9

    def test_scales_past_exhaustive_range(self):
        # 26 tasks: exhaustive would refuse; B&B should finish quickly.
        tasks = FrameTaskSet(
            FrameTask(name=f"t{i}", cycles=0.05 + 0.01 * i, penalty=0.1 + 0.02 * i)
            for i in range(26)
        )
        g = ContinuousEnergyFunction(xscale_power_model(), deadline=1.0)
        p = RejectionProblem(tasks=tasks, energy_fn=g)
        sol = branch_and_bound(p)
        assert sol.cost >= fractional_lower_bound(p) - 1e-9


class _Square:
    """``g(W) = W**2``: the KKT point of ``g(W) - d*W`` is ``W = d/2``."""

    def energy(self, w: float) -> float:
        return w * w


def _tables(cycles, penalties):
    """Density-ordered inputs of :func:`suffix_bound` (already sorted)."""
    densities = [p / c for p, c in zip(penalties, cycles)]
    cum_c, cum_p = [0.0], [0.0]
    for c, p in zip(cycles, penalties):
        cum_c.append(cum_c[-1] + c)
        cum_p.append(cum_p[-1] + p)
    return densities, cum_c, cum_p


class TestSuffixBound:
    """Exact values of the closed-form node bound and its KKT table."""

    def test_table_snaps_endpoints_and_shares_equal_densities(self):
        w = stationary_workloads(_Square(), [0.0, 0.0, 1.0, 1.0, 100.0], 3.0)
        # Zero density: the minimiser of W**2 on [0, 3] snaps to 0 exactly;
        # d = 100 wants W = 50 and snaps to the top of the range.
        assert w[0] == w[1] == 0.0
        assert w[4] == 3.0
        # Equal densities get the very same stationary point (golden
        # section pins a smooth minimiser to about sqrt(eps) only).
        assert w[2] == w[3] == pytest.approx(0.5, abs=1e-7)
        assert w == sorted(w)

    def test_bound_lands_on_a_breakpoint(self):
        # Densities 0, 1, 10 on unit tasks: the optimum accepts exactly
        # the densest task (w = 1), so g(1) + shed 2 cycles = 1 + 1.
        densities, cum_c, cum_p = _tables([1.0, 1.0, 1.0], [0.0, 1.0, 10.0])
        bound = suffix_bound(_Square(), 10.0, densities, cum_c, cum_p)
        assert bound(0, 0.0, 0.0) == 2.0
        assert bound(0, 0.0, 0.5) == 2.5

    def test_bound_inside_a_piece_is_the_stationary_point(self):
        densities, cum_c, cum_p = _tables([2.0, 2.0], [2.0, 2.0])
        bound = suffix_bound(_Square(), 10.0, densities, cum_c, cum_p)
        w = stationary_workloads(_Square(), densities, 4.0)[1]
        expected = w * w + suffix_shed_cost(cum_c, cum_p, densities, 0, 4.0 - w)
        assert bound(0, 0.0, 0.0) == expected
        assert expected == pytest.approx(0.25 + 3.5, rel=1e-12)

    def test_zero_penalty_suffix_sheds_everything(self):
        # All-free tasks: W = 0 everywhere and v = [-2, 0].  At the root
        # the bisect ties on v[1] == 0 and clamps to w = 0; after
        # accepting task 0 (workload 1) no piece qualifies (k == n).
        densities, cum_c, cum_p = _tables([1.0, 2.0], [0.0, 0.0])
        bound = suffix_bound(_Square(), 10.0, densities, cum_c, cum_p)
        assert bound(0, 0.0, 0.0) == 0.0
        assert bound(1, 1.0, 0.0) == 1.0
        assert bound(1, 1.0, 0.25) == 1.25

    def test_negative_room(self):
        densities, cum_c, cum_p = _tables([1.0, 1.0], [1.0, 3.0])
        bound = suffix_bound(_Square(), 1.0, densities, cum_c, cum_p)
        # Beyond the capacity tolerance the node is infeasible.
        assert bound(1, 1.5, 0.0) == math.inf
        # Within it (room = -5e-13) nothing more fits: w = 0, g clamps
        # to the capacity and the whole suffix is shed.
        assert bound(1, 1.0 + 5e-13, 0.0) == 1.0 + 3.0
