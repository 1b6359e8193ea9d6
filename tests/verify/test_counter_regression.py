"""Solver work counters are part of the differential contract.

The kernels must not change *what* the solvers explore — branch-and-bound
node visits, DP cell counts, FPTAS table sizes — only how fast a row is
evaluated.  This pins the counters on fixed instances across every
available kernel: a kernel whose tolerance or tie-breaking drifts from
the shared spec shows up here as a different amount of work long before
it produces a different answer.
"""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._validation import fits
from repro.core.rejection import (
    RejectionProblem,
    branch_and_bound,
    dp_cycles,
    dp_penalty,
    fptas,
    greedy_marginal,
    pareto_exact,
)
from repro.core.rejection.exact import suffix_bound
from repro.core.rejection.relaxation import _minimize_convex, _require_convex
from repro.energy import ContinuousEnergyFunction
from repro.kernels import get_kernel, kernel_names, numpy_available, use_kernel
from repro.kernels.base import suffix_shed_cost
from repro.obs import counters as obs_counters
from repro.power import xscale_power_model
from repro.tasks.model import FrameTask, FrameTaskSet

#: A fixed, mildly overloaded 12-task instance (penalties in 1e-3 quanta
#: near the marginal energy, mirroring the bench generator) — small
#: enough for every exact solver, busy enough that each one does real
#: pruning/relaxation work.
_CYCLES = [0.11, 0.07, 0.15, 0.05, 0.09, 0.13, 0.06, 0.12, 0.08, 0.14, 0.10, 0.09]
_PENALTY = [0.520, 0.310, 0.700, 0.140, 0.450, 0.610, 0.180, 0.590, 0.330, 0.660, 0.470, 0.360]


def _energy_fn() -> ContinuousEnergyFunction:
    return ContinuousEnergyFunction(xscale_power_model(), deadline=1.0)


def _problem() -> RejectionProblem:
    tasks = [
        FrameTask(name=f"t{i}", cycles=c, penalty=p)
        for i, (c, p) in enumerate(zip(_CYCLES, _PENALTY))
    ]
    return RejectionProblem(tasks=FrameTaskSet(tasks), energy_fn=_energy_fn())


def _ramp_problem() -> RejectionProblem:
    """The 26-task instance of ``tests/core/test_exact.py`` (past exhaustive)."""
    tasks = FrameTaskSet(
        FrameTask(name=f"t{i}", cycles=0.05 + 0.01 * i, penalty=0.1 + 0.02 * i)
        for i in range(26)
    )
    return RejectionProblem(tasks=tasks, energy_fn=_energy_fn())


def _equal_density_problem(seed: int = 4001, n: int = 10) -> RejectionProblem:
    """Every task at penalty density exactly 2 (B&B's hardest family)."""
    rng = Random(seed)
    energy_fn = _energy_fn()
    raw = [rng.uniform(0.5, 1.5) for _ in range(n)]
    scale = rng.uniform(1.2, 1.6) * energy_fn.max_workload / sum(raw)
    tasks = FrameTaskSet(
        FrameTask(name=f"t{i}", cycles=r * scale, penalty=2.0 * r * scale)
        for i, r in enumerate(raw)
    )
    return RejectionProblem(tasks=tasks, energy_fn=energy_fn)


SOLVERS = {
    "branch_and_bound": branch_and_bound,
    "dp_cycles": lambda p: dp_cycles(p, quantum=0.01, round_cycles=True),
    "dp_penalty": lambda p: dp_penalty(p, quantum=0.01),
    "fptas": lambda p: fptas(p, eps=0.2),
    "greedy_marginal": greedy_marginal,
    "pareto_exact": pareto_exact,
}

#: Counters that measure the amount of search work (not timings).
WORK_COUNTERS = (
    "branch_and_bound.nodes",
    "branch_and_bound.pruned",
    "branch_and_bound.incumbents",
    "dp_cycles.cells",
    "dp_penalty.cells",
    "fptas.states",
    "fptas.cells",
    "greedy_marginal.evaluations",
    "pareto_exact.states",
)


def _counters(kernel: str, solver, problem=None) -> dict:
    with use_kernel(kernel):
        with obs_counters.counting() as registry:
            solution = solver(problem if problem is not None else _problem())
        snap = registry.snapshot()
    snap["__cost__"] = solution.cost
    return snap


@pytest.mark.parametrize("solver_name", sorted(SOLVERS))
def test_work_counters_are_kernel_independent(solver_name):
    solver = SOLVERS[solver_name]
    names = kernel_names()
    baseline = _counters(names[0], solver)
    assert any(k in baseline for k in WORK_COUNTERS), (
        f"{solver_name} emitted no work counters: {sorted(baseline)}"
    )
    for name in names[1:]:
        assert _counters(name, solver) == baseline, (
            f"{solver_name}: kernel {name!r} explored a different search"
        )


def test_branch_and_bound_node_count_pinned():
    """The exact node count is part of the spec: a tolerance or
    tie-breaking drift changes it even when the answer survives."""
    counts = {}
    for name in kernel_names():
        snap = _counters(name, branch_and_bound)
        counts[name] = snap["branch_and_bound.nodes"]
        assert snap["branch_and_bound.nodes"] > 1  # really branched
        assert snap["branch_and_bound.pruned"] > 0  # bound really fired
    assert len(set(counts.values())) == 1, counts


#: Literal B&B work counters ``(nodes, pruned, incumbents)`` per instance.
#: Any change to the node bound, its tolerances or the branching order
#: shows up here first.
BNB_PINS = {
    "mixed_12": (_problem, (11, 6, 0)),
    "ramp_26": (_ramp_problem, (276_323, 107_508, 8)),
    "equal_density_10": (_equal_density_problem, (947, 196, 7)),
}


@pytest.mark.parametrize("kernel", kernel_names())
@pytest.mark.parametrize("instance", sorted(BNB_PINS))
def test_branch_and_bound_counters_pinned_literally(instance, kernel):
    build, expected = BNB_PINS[instance]
    problem = build()
    snap = _counters(kernel, branch_and_bound, problem)
    got = tuple(
        snap[f"branch_and_bound.{name}"]
        for name in ("nodes", "pruned", "incumbents")
    )
    assert got == expected
    # The answer is the exact optimum (bit-identical on every kernel).
    if problem.n <= 12:
        with use_kernel(kernel):
            assert snap["__cost__"] == pareto_exact(problem).cost


@pytest.mark.skipif(not numpy_available(), reason="strategies are numpy-seeded")
@pytest.mark.parametrize("kernel", kernel_names())
@settings(max_examples=40)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    index=st.integers(min_value=0, max_value=7),
    data=st.data(),
)
def test_node_bound_is_the_dense_minimum(kernel, seed, index, data):
    """The closed-form node bound equals a brute-force minimum of the
    node's relaxation (dense grid plus every shed breakpoint) to 1e-12
    relative, and never lies above it by more."""
    import numpy as np

    from repro.verify.strategies import UNIPROC_STRATEGIES

    problem = UNIPROC_STRATEGIES[index].build(np.random.default_rng(seed))
    with use_kernel(kernel):
        kern = get_kernel()
        order = kern.density_order(
            [t.cycles for t in problem.tasks], [t.penalty for t in problem.tasks]
        )
        cum_c = [float(x) for x in kern.prefix_sums(
            [problem.tasks[i].cycles for i in order])]
        cum_p = [float(x) for x in kern.prefix_sums(
            [problem.tasks[i].penalty for i in order])]
    cycles = [problem.tasks[i].cycles for i in order]
    penalties = [problem.tasks[i].penalty for i in order]
    densities = [p / c for p, c in zip(penalties, cycles)]
    g = _require_convex(problem.energy_fn)
    cap, n = problem.capacity, problem.n
    bound = suffix_bound(g, cap, densities, cum_c, cum_p)

    # A node as the DFS reaches it: decide a prefix, accepting only fits.
    start = data.draw(st.integers(min_value=0, max_value=n - 1))
    workload = penalty = 0.0
    for k, accept in enumerate(
        data.draw(st.lists(st.booleans(), min_size=start, max_size=start))
    ):
        if accept and fits(workload + cycles[k], cap):
            workload += cycles[k]
        else:
            penalty += penalties[k]
    suffix = cum_c[n] - cum_c[start]
    w_hi = min(suffix, max(cap - workload, 0.0))

    def objective(w: float) -> float:
        return (
            penalty
            + g.energy(min(workload + w, cap))
            + suffix_shed_cost(cum_c, cum_p, densities, start, suffix - w)
        )

    points = [w_hi * i / 2000 for i in range(2001)]
    points += [
        cum_c[n] - cum_c[k]
        for k in range(start, n + 1)
        if cum_c[n] - cum_c[k] <= w_hi
    ]
    dense = min(objective(w) for w in points)
    # The grid overshoots a smooth interior minimum by O(step**2); the
    # golden-section refinement closes that gap.
    reference = min(dense, _minimize_convex(objective, 0.0, w_hi)[1])
    got = bound(start, workload, penalty)
    tol = 1e-12 * max(1.0, abs(reference))
    assert got <= reference + tol
    assert got >= reference - tol


def test_dp_and_fptas_table_sizes_pinned():
    for name in kernel_names():
        snap = _counters(name, SOLVERS["dp_cycles"])
        assert snap["dp_cycles.cells"] == snap["dp_cycles.width"] * 12
        fsnap = _counters(name, SOLVERS["fptas"])
        assert fsnap["fptas.states"] * fsnap["fptas.candidates"] == fsnap["fptas.cells"]
