"""Exact algorithms for REJECT-MIN: exhaustive search and branch-and-bound.

:func:`exhaustive` is the reference oracle the experiments normalise
against (as the companion text normalises against "the optimal task
assignment by exhaustive searches"); it enumerates all 2^n subsets with
incrementally maintained sums, so it is practical to n ≈ 20.

:func:`branch_and_bound` is exact as well but prunes with the fractional
relaxation (see :mod:`repro.core.rejection.relaxation`), typically
visiting a tiny fraction of the tree; it extends the exact range to the
mid-20s and serves as an independent implementation to cross-check the
oracle in tests.

Subset-sum tables and the feasible-subset scan run on the active array
kernel (:mod:`repro.kernels`); the branch-and-bound node bound is a
closed form over a per-call KKT table (:func:`suffix_bound`).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable, Sequence

from repro._validation import fits
from repro.core.rejection.greedy import greedy_marginal
from repro.core.rejection.problem import RejectionProblem, RejectionSolution
from repro.core.rejection.relaxation import _minimize_convex, _require_convex
from repro.kernels import get_kernel
from repro.kernels.base import suffix_shed_cost
from repro.obs import counters as obs_counters
from repro.obs.trace import span

#: Hard guard: beyond this, subset enumeration is a programming error.
MAX_EXHAUSTIVE_TASKS = 24


def exhaustive(problem: RejectionProblem) -> RejectionSolution:
    """Optimal solution by subset enumeration (n <= 24).

    Subset workload and penalty sums are built by iterative doubling
    (``sum[mask] = sum[mask without lowest bit] + value[lowest bit]``), so
    the enumeration costs O(2^n) arithmetic plus one ``g`` evaluation per
    *feasible* subset.
    """
    n = problem.n
    if n > MAX_EXHAUSTIVE_TASKS:
        raise ValueError(
            f"exhaustive search limited to {MAX_EXHAUSTIVE_TASKS} tasks, got {n}; "
            "use branch_and_bound or the DP/FPTAS algorithms instead"
        )
    cycles = [t.cycles for t in problem.tasks]
    penalties = [t.penalty for t in problem.tasks]
    total_penalty = sum(penalties)

    kern = get_kernel()
    with span("solve.exhaustive", n=n):
        workload = kern.subset_sums(cycles)
        accepted_penalty = kern.subset_sums(penalties)
        best_mask, _ = kern.exhaustive_best(
            workload,
            accepted_penalty,
            total_penalty,
            problem.capacity,
            problem.energy_fn,
        )
    obs_counters.emit("exhaustive", calls=1, subsets=1 << n)

    if best_mask < 0:  # pragma: no cover - the empty subset always fits
        best_mask = 0
    accepted = [i for i in range(n) if best_mask >> i & 1]
    return problem.solution(accepted, algorithm="exhaustive")


def stationary_workloads(
    energy_fn, densities: Sequence[float], hi: float
) -> list[float]:
    """Non-decreasing ``W_k = argmin_{W in [0, hi]} g(W) - densities[k] * W``.

    ``W_k`` is the total accepted workload at which ``g'`` meets the
    marginal density ``d_k`` (the KKT point of a bound piece whose
    fractional task has density ``d_k``).  Each distinct density costs
    one golden-section search; its result snaps to an endpoint that is
    no worse, because the search stops a hair inside the bracket and
    where ``g`` is near-linear that error is first order.  The running
    max keeps ``W`` monotone in ``k`` (densities ascend) despite fp noise.
    """
    energy = energy_fn.energy
    by_density: dict[float, float] = {}
    out: list[float] = []
    running = 0.0
    for d in densities:
        w = by_density.get(d)
        if w is None:

            def tilted(x: float, d: float = d) -> float:
                return energy(x) - d * x

            w, fw = _minimize_convex(tilted, 0.0, hi)
            for end in (0.0, hi):
                f_end = tilted(end)
                if f_end <= fw:
                    w, fw = end, f_end
            by_density[d] = w
        running = max(running, w)
        out.append(running)
    return out


def suffix_bound(
    energy_fn,
    cap: float,
    densities: Sequence[float],
    cum_c: Sequence[float],
    cum_p: Sequence[float],
) -> Callable[[int, float, float], float]:
    """The fractional completion bound of a branch-and-bound node.

    Returns ``bound(start, workload, penalty)``: the first ``start``
    tasks (density order) are decided with ``workload`` accepted cycles
    and ``penalty`` rejected penalty, and the suffix may be accepted
    fractionally.  The bound minimises the convex
    ``penalty + g(workload + w) + suffix_shed_cost(..., suffix - w)``
    over the accepted suffix cycles ``w`` in closed form (docs/theory.md
    §5): a piece ``k`` covers ``w`` in ``[C - cum_c[k+1], C - cum_c[k]]``
    (``C = cum_c[n]``) whatever ``start`` is, inside it the minimiser is
    ``W_k - workload`` clamped to the piece, and the optimum lies on the
    first piece from ``start`` with ``workload <= v_k = W_k - (C -
    cum_c[k+1])``.  ``v`` is non-decreasing, so that piece is one bisect
    away, and each node costs one ``g`` evaluation.
    """
    n = len(densities)
    total = cum_c[n]
    stationary = stationary_workloads(energy_fn, densities, min(cap, total))
    thresholds = [stationary[k] - (total - cum_c[k + 1]) for k in range(n)]
    energy = energy_fn.energy

    def bound(start: int, workload: float, penalty: float) -> float:
        room = cap - workload
        if room < -1e-12:
            return math.inf
        suffix = total - cum_c[start]
        k = bisect_left(thresholds, workload, start, n)
        if k == n:
            w = 0.0
        else:
            w = min(
                max(stationary[k] - workload, total - cum_c[k + 1]),
                total - cum_c[k],
            )
        w = min(max(w, 0.0), suffix, max(room, 0.0))
        return (
            penalty
            + energy(min(workload + w, cap))
            + suffix_shed_cost(cum_c, cum_p, densities, start, suffix - w)
        )

    return bound


def branch_and_bound(problem: RejectionProblem) -> RejectionSolution:
    """Optimal solution by depth-first search with fractional pruning.

    Tasks are branched in non-decreasing penalty-density order (the order
    in which the relaxation rejects them), reject-branch first, so the
    incumbent drops quickly; every node is pruned against the fractional
    completion bound.
    """
    g_all = _require_convex(problem.energy_fn)
    cap = problem.capacity
    kern = get_kernel()

    order = kern.density_order(
        [t.cycles for t in problem.tasks],
        [t.penalty for t in problem.tasks],
    )
    cycles = [problem.tasks[i].cycles for i in order]
    penalties = [problem.tasks[i].penalty for i in order]
    densities = [p / c for p, c in zip(penalties, cycles)]
    # Plain-float prefix sums: the bound objective feeds these into the
    # scalar energy function, which must never see np.float64 (its ``**``
    # is not bit-equal to CPython's).  The values themselves are
    # identical on either kernel (left-to-right accumulation).
    cum_c = [float(x) for x in kern.prefix_sums(cycles)]
    cum_p = [float(x) for x in kern.prefix_sums(penalties)]
    bound = suffix_bound(g_all, cap, densities, cum_c, cum_p)

    incumbent = greedy_marginal(problem)
    best_cost = incumbent.cost
    best_accept_ranks: list[int] | None = None
    exact_g = problem.energy_fn.energy  # evaluate leaves with the true g

    n = problem.n
    chosen: list[bool] = [False] * n
    nodes = pruned = incumbents = 0

    def dfs(depth: int, workload: float, rejected_penalty: float) -> None:
        nonlocal best_cost, best_accept_ranks, nodes, pruned, incumbents
        nodes += 1
        if depth == n:
            cost = exact_g(min(workload, cap)) + rejected_penalty
            if cost < best_cost - 1e-15:
                best_cost = cost
                best_accept_ranks = [k for k in range(n) if chosen[k]]
                incumbents += 1
            return
        if bound(depth, workload, rejected_penalty) >= best_cost - 1e-12:
            pruned += 1
            return
        # Reject branch first (matches the relaxation's preference).
        dfs(depth + 1, workload, rejected_penalty + penalties[depth])
        if fits(workload + cycles[depth], cap):
            chosen[depth] = True
            dfs(depth + 1, workload + cycles[depth], rejected_penalty)
            chosen[depth] = False

    with span("solve.branch_and_bound", n=n):
        dfs(0, 0.0, 0.0)
    obs_counters.emit(
        "branch_and_bound",
        calls=1,
        nodes=nodes,
        pruned=pruned,
        incumbents=incumbents,
    )

    if best_accept_ranks is None:
        # The greedy incumbent was already optimal.
        return problem.solution(
            incumbent.accepted, algorithm="branch_and_bound"
        )
    accepted = [order[k] for k in best_accept_ranks]
    solution = problem.solution(accepted, algorithm="branch_and_bound")
    # The DFS compares against the incumbent with a strict margin; keep
    # whichever is genuinely cheaper.
    if incumbent.cost < solution.cost:
        return problem.solution(incumbent.accepted, algorithm="branch_and_bound")
    return solution
