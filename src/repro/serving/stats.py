"""Serving telemetry: per-batch records, endpoint summaries, aggregate views.

The ROADMAP's serving goal is characterised the way HPC platform studies
characterise hardware: not one number, but throughput, latency percentiles,
batch occupancy, and reuse rates (plan replays, arena hits, block-cache hits)
reported together so regressions in any one dimension are visible.  With the
multi-tenant router, telemetry comes in two scopes: one
:class:`EngineStats` per endpoint, and :func:`aggregate_summary` pooling
every endpoint's records into the router-level view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence


@dataclass
class BatchRecord:
    """Telemetry of one executed micro-batch."""

    num_requests: int
    num_seeds: int
    block_nodes: int
    block_edges: int
    sample_seconds: float
    execute_seconds: float
    plan_replayed: Optional[bool] = None
    block_cache_hit: Optional[bool] = None

    @property
    def total_seconds(self) -> float:
        return self.sample_seconds + self.execute_seconds


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0..100) of a sequence, by linear interpolation.

    Well-defined for *every* history length: an empty history yields ``0.0``
    (there is nothing to summarise), a single record yields that record, and
    ``q`` is clamped into [0, 100] — no index can ever fall outside the
    sorted data.  Matches ``numpy.percentile``'s default (linear) method on
    longer histories.
    """
    data = sorted(float(v) for v in values)
    if not data:
        return 0.0
    if len(data) == 1:
        return data[0]
    q = min(max(float(q), 0.0), 100.0)
    rank = (len(data) - 1) * (q / 100.0)
    low = int(rank)
    high = min(low + 1, len(data) - 1)
    fraction = rank - low
    return data[low] * (1.0 - fraction) + data[high] * fraction


@dataclass
class EngineStats:
    """Accumulated serving telemetry of one endpoint.

    ``arena`` optionally references the endpoint's
    :class:`~repro.runtime.planner.TenantArenaSource`, so :meth:`report` can
    surface its ``stats`` (memory reuse) next to throughput without the
    caller stitching dicts together.
    """

    batches: List[BatchRecord] = field(default_factory=list)
    request_latencies: List[float] = field(default_factory=list)
    arena: Optional[object] = None
    #: Admission-control counters (all zero when no admission policy is set,
    #: in which case the summary omits them entirely).
    admitted: int = 0
    shed_rate: int = 0
    shed_queue: int = 0
    shed_deadline: int = 0
    failed_requests: int = 0
    queue_depth_high_water: int = 0

    # ------------------------------------------------------------------
    def record_batch(self, record: BatchRecord) -> None:
        self.batches.append(record)

    def record_latency(self, seconds: float) -> None:
        self.request_latencies.append(seconds)

    def record_outcome(self, status: str) -> None:
        """Fold one request's terminal status into the admission counters."""
        if status == "queued" or status == "done":
            self.admitted += 1
        elif status == "shed-rate":
            self.shed_rate += 1
        elif status == "shed-queue":
            self.shed_queue += 1
        elif status == "shed-deadline":
            self.shed_deadline += 1
        elif status == "failed":
            self.admitted += 1
            self.failed_requests += 1

    # ------------------------------------------------------------------
    @property
    def num_batches(self) -> int:
        return len(self.batches)

    @property
    def num_requests(self) -> int:
        return sum(record.num_requests for record in self.batches)

    @property
    def num_seeds(self) -> int:
        return sum(record.num_seeds for record in self.batches)

    @property
    def total_seconds(self) -> float:
        """Wall time spent sampling + executing across all batches."""
        return sum(record.total_seconds for record in self.batches)

    @property
    def mean_occupancy(self) -> float:
        """Mean requests per batch (the micro-batching win lives here)."""
        return self.num_requests / self.num_batches if self.num_batches else 0.0

    @property
    def requests_per_second(self) -> float:
        total = self.total_seconds
        return self.num_requests / total if total > 0 else 0.0

    @property
    def seeds_per_second(self) -> float:
        total = self.total_seconds
        return self.num_seeds / total if total > 0 else 0.0

    @property
    def plan_replay_rate(self) -> Optional[float]:
        """Fraction of batches that replayed the cached plan (None if untracked)."""
        tracked = [record.plan_replayed for record in self.batches if record.plan_replayed is not None]
        if not tracked:
            return None
        return sum(tracked) / len(tracked)

    def latency_percentile(self, q: float) -> float:
        return percentile(self.request_latencies, q)

    @property
    def total_shed(self) -> int:
        return self.shed_rate + self.shed_queue + self.shed_deadline

    @property
    def shed_fraction(self) -> float:
        """Shed requests over all terminal outcomes (admitted + shed)."""
        offered = self.admitted + self.total_shed
        return self.total_shed / offered if offered else 0.0

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """One flat dict for reports and the benchmark tables.

        Admission counters appear only once admission control has actually
        touched the endpoint (``record_outcome`` calls), so endpoints without
        a policy keep the legacy summary shape.
        """
        out = self._base_summary()
        if self.admitted or self.total_shed or self.queue_depth_high_water:
            out.update({
                "admitted": self.admitted,
                "shed_rate_limited": self.shed_rate,
                "shed_queue_full": self.shed_queue,
                "shed_deadline": self.shed_deadline,
                "deadline_misses": self.shed_deadline,
                "failed_requests": self.failed_requests,
                "shed_fraction": round(self.shed_fraction, 3),
                "queue_depth_high_water": self.queue_depth_high_water,
            })
        return out

    def _base_summary(self) -> Dict[str, object]:
        return {
            "requests": self.num_requests,
            "batches": self.num_batches,
            "mean_occupancy": round(self.mean_occupancy, 2),
            "throughput_rps": round(self.requests_per_second, 1),
            "seeds_per_s": round(self.seeds_per_second, 1),
            "latency_p50_ms": round(self.latency_percentile(50) * 1e3, 3),
            "latency_p95_ms": round(self.latency_percentile(95) * 1e3, 3),
            "plan_replay_rate": self.plan_replay_rate,
        }

    def report(self) -> Dict[str, object]:
        """:meth:`summary` plus the attached arena hit/miss/eviction counters."""
        out = self.summary()
        if self.arena is not None:
            arena = self.arena.stats
            out["arena_hits"] = arena.hits
            out["arena_misses"] = arena.misses
            out["arena_evictions"] = arena.evictions
            out["arena_pool_hit_rate"] = round(arena.hit_rate, 3)
        return out


def aggregate_summary(stats: Iterable[EngineStats]) -> Dict[str, object]:
    """Pool several endpoints' records into one router-level summary.

    Throughput here is total requests over the *sum* of busy seconds — the
    endpoints share one executor, so their service times accumulate rather
    than overlap — and latency percentiles are computed over the pooled
    per-request latencies.
    """
    stats = list(stats)
    requests = sum(s.num_requests for s in stats)
    batches = sum(s.num_batches for s in stats)
    seeds = sum(s.num_seeds for s in stats)
    busy = sum(s.total_seconds for s in stats)
    latencies: List[float] = []
    tracked_replays: List[bool] = []
    for s in stats:
        latencies.extend(s.request_latencies)
        tracked_replays.extend(
            record.plan_replayed for record in s.batches if record.plan_replayed is not None
        )
    out = {
        "endpoints": len(stats),
        "requests": requests,
        "batches": batches,
        "mean_occupancy": round(requests / batches, 2) if batches else 0.0,
        "throughput_rps": round(requests / busy, 1) if busy > 0 else 0.0,
        "seeds_per_s": round(seeds / busy, 1) if busy > 0 else 0.0,
        "latency_p50_ms": round(percentile(latencies, 50) * 1e3, 3),
        "latency_p95_ms": round(percentile(latencies, 95) * 1e3, 3),
        # Same zero-record guard as EngineStats.plan_replay_rate: pooling
        # zero tracked batch records must report None, not divide by zero.
        "plan_replay_rate": (
            round(sum(tracked_replays) / len(tracked_replays), 3) if tracked_replays else None
        ),
    }
    admitted = sum(s.admitted for s in stats)
    shed = sum(s.total_shed for s in stats)
    high_water = max((s.queue_depth_high_water for s in stats), default=0)
    if admitted or shed or high_water:
        offered = admitted + shed
        out.update({
            "admitted": admitted,
            "shed": shed,
            "shed_fraction": round(shed / offered, 3) if offered else 0.0,
            "deadline_misses": sum(s.shed_deadline for s in stats),
            "failed_requests": sum(s.failed_requests for s in stats),
            "queue_depth_high_water": high_water,
        })
    return out
