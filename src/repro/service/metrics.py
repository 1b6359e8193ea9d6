"""Per-endpoint latency histograms and status counts for ``/metrics``.

A fixed log-spaced bucket layout (100 µs … 60 s) keeps memory constant
no matter how much traffic the server sees; p50/p99 are read back from
the buckets with linear interpolation, which is plenty for a serving
dashboard (the load generator computes exact percentiles client-side
from its own samples).

Thread-safety: ``observe`` runs on the asyncio loop thread, but
``as_dict``/``quantile`` are read by other threads (the in-process
``ThreadedServer`` test harness, ``repro top`` pollers hitting the
sampler's snapshot) and ``merge`` will fold per-shard metrics together
once serving goes horizontal (ROADMAP item 2).  Every histogram and
the endpoint tables are therefore lock-protected; the locks guard
short in-memory mutations only, so the hot path stays cheap.
"""

from __future__ import annotations

import math
import threading
import time

__all__ = ["LatencyHistogram", "ServiceMetrics"]

#: Bucket upper bounds in seconds: 1e-4 … ~60 s, 4 buckets per decade.
_BUCKET_BOUNDS = tuple(
    10.0 ** (exp / 4.0) for exp in range(-16, 8)
) + (float("inf"),)


class LatencyHistogram:
    """Fixed-bucket latency histogram with interpolated quantiles."""

    __slots__ = ("counts", "count", "sum_s", "_lock")

    def __init__(self) -> None:
        self.counts = [0] * len(_BUCKET_BOUNDS)
        self.count = 0
        self.sum_s = 0.0
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        """Record one latency sample."""
        with self._lock:
            for i, bound in enumerate(_BUCKET_BOUNDS):
                if seconds <= bound:
                    self.counts[i] += 1
                    break
            self.count += 1
            self.sum_s += seconds

    def _quantile_locked(self, q: float) -> float:
        if self.count == 0:
            return 0.0
        target = min(max(q, 0.0), 1.0) * self.count
        seen = 0
        for i, bound in enumerate(_BUCKET_BOUNDS):
            bucket = self.counts[i]
            if bucket > 0 and seen + bucket >= target:
                lo = 0.0 if i == 0 else _BUCKET_BOUNDS[i - 1]
                if not math.isfinite(bound):
                    return lo
                return lo + (bound - lo) * (target - seen) / bucket
            seen += bucket
        return _BUCKET_BOUNDS[-2]

    def quantile(self, q: float) -> float:
        """Approximate latency at quantile *q*, in seconds.

        *q* is clamped into ``[0, 1]``; an empty histogram reports 0.
        The result is always finite and never below the lower edge of
        the bucket it lands in: ``q=0`` gives the lower edge of the
        first occupied bucket, ``q=1`` the upper edge of the last, and
        samples in the overflow bucket (beyond the ~56 s top bound)
        report that bound itself rather than an extrapolated value —
        there is no upper edge to interpolate toward.
        """
        with self._lock:
            return self._quantile_locked(q)

    def snapshot(self) -> tuple[list[int], int, float]:
        """A consistent ``(counts, count, sum_s)`` copy."""
        with self._lock:
            return list(self.counts), self.count, self.sum_s

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram in (multi-shard aggregation).

        The bucket layout is a module constant, so counts align by
        construction.  The other histogram is snapshotted first —
        never hold two histogram locks at once.
        """
        counts, count, sum_s = other.snapshot()
        with self._lock:
            for i, n in enumerate(counts):
                self.counts[i] += n
            self.count += count
            self.sum_s += sum_s

    def as_dict(self) -> dict:
        """JSON-ready dump (nonzero buckets only)."""
        with self._lock:
            counts = list(self.counts)
            count = self.count
            sum_s = self.sum_s
            p50 = self._quantile_locked(0.5)
            p99 = self._quantile_locked(0.99)
        return {
            "count": count,
            "sum_s": sum_s,
            "p50_ms": p50 * 1e3,
            "p99_ms": p99 * 1e3,
            "buckets": {
                ("+inf" if math.isinf(b) else f"{b:.6g}"): c
                for b, c in zip(_BUCKET_BOUNDS, counts)
                if c
            },
        }


class ServiceMetrics:
    """Per-endpoint request accounting (status codes + latency)."""

    def __init__(self) -> None:
        self.started_at = time.time()
        self._lock = threading.Lock()
        self._histograms: dict[str, LatencyHistogram] = {}
        self._statuses: dict[str, dict[int, int]] = {}

    def observe(self, endpoint: str, status: int, seconds: float) -> None:
        """Record one served request."""
        with self._lock:
            hist = self._histograms.get(endpoint)
            if hist is None:
                hist = self._histograms[endpoint] = LatencyHistogram()
            by_status = self._statuses.setdefault(endpoint, {})
            by_status[status] = by_status.get(status, 0) + 1
            # Under the same lock as the status count, so a snapshot
            # never sees one without the other.
            hist.observe(seconds)

    @property
    def total_requests(self) -> int:
        """Requests served across all endpoints."""
        with self._lock:
            hists = list(self._histograms.values())
        return sum(h.count for h in hists)

    def merge(self, other: "ServiceMetrics") -> None:
        """Fold another shard's metrics in: counts and histograms sum,
        ``started_at`` keeps the earliest shard start."""
        with other._lock:
            statuses = {
                endpoint: dict(by_status)
                for endpoint, by_status in other._statuses.items()
            }
            hists = dict(other._histograms)
            started_at = other.started_at
        with self._lock:
            self.started_at = min(self.started_at, started_at)
            for endpoint, by_status in statuses.items():
                mine = self._statuses.setdefault(endpoint, {})
                for code, n in by_status.items():
                    mine[code] = mine.get(code, 0) + n
            for endpoint, theirs in hists.items():
                hist = self._histograms.get(endpoint)
                if hist is None:
                    hist = self._histograms[endpoint] = LatencyHistogram()
                hist.merge(theirs)

    def endpoint_series(self) -> list[tuple[str, dict[int, int], list[int], int, float]]:
        """Stable snapshot for exposition: one row per endpoint, sorted,
        as ``(endpoint, statuses, bucket_counts, count, sum_s)``."""
        with self._lock:
            endpoints = sorted(self._histograms)
            statuses = {
                endpoint: dict(self._statuses.get(endpoint, {}))
                for endpoint in endpoints
            }
            snaps = [self._histograms[e].snapshot() for e in endpoints]
        return [
            (endpoint, statuses[endpoint], counts, count, sum_s)
            for endpoint, (counts, count, sum_s) in zip(endpoints, snaps)
        ]

    @staticmethod
    def bucket_bounds() -> tuple[float, ...]:
        return _BUCKET_BOUNDS

    def as_dict(self) -> dict:
        """JSON-ready dump for ``/metrics``."""
        with self._lock:
            endpoints = sorted(self._histograms)
            statuses = {
                endpoint: dict(self._statuses.get(endpoint, {}))
                for endpoint in endpoints
            }
            latency = {e: self._histograms[e].as_dict() for e in endpoints}
        return {
            "uptime_s": time.time() - self.started_at,
            "total_requests": sum(h["count"] for h in latency.values()),
            "endpoints": {
                endpoint: {
                    "statuses": {
                        str(code): n
                        for code, n in sorted(statuses[endpoint].items())
                    },
                    "latency": latency[endpoint],
                }
                for endpoint in endpoints
            },
        }
