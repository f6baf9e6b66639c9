"""Zero-record discipline of the stats layers, pinned division by division.

Every aggregate in :mod:`repro.train.stats`, :mod:`repro.serving.stats`, and
:class:`repro.train.collective.CollectiveStats` must be defined for *every*
history length — zero epochs, zero shards, zero batches, zero seconds, zero
collective operations — summarising to zeros (or ``None`` where "no data" is
meaningful), never raising ``ZeroDivisionError``.

Also locked here: the generator-consumption regression in
``TrainStats.summary(arena_pools=...)`` — passing a *generator* of pools used
to be silently wrong (the hits sum consumed it, the misses sum saw nothing,
and the hit rate came out 1.0 regardless of the real misses).
"""

from repro.runtime import SharedArenaBudget
from repro.serving.stats import BatchRecord, EngineStats, aggregate_summary, percentile
from repro.train.collective import CollectiveStats
from repro.train.stats import DistributedTrainStats, EpochStats, ShardEpochStats, TrainStats


def _pool(hits, misses):
    """A module-style private pool whose tenant counters read ``hits``/``misses``."""
    pool = SharedArenaBudget(max_arenas=4).tenant("module")
    pool.stats.hits = hits
    pool.stats.misses = misses
    return pool


class TestTrainStatsZeroRecords:
    def test_empty_run_summary_is_all_zeros(self):
        stats = TrainStats()
        summary = stats.summary()
        assert summary["epochs"] == 0
        assert summary["final_loss"] is None
        assert summary["seeds_per_s"] == 0.0
        assert summary["minibatches"] == 0
        assert stats.final_loss is None
        assert stats.loss_curve() == []

    def test_zero_second_epoch_reports_zero_throughput(self):
        epoch = EpochStats(epoch=0, loss=1.0, num_seeds=10, num_minibatches=1,
                           num_steps=1, seconds=0.0)
        assert epoch.seeds_per_second == 0.0
        stats = TrainStats()
        stats.record(epoch)
        assert stats.summary()["seeds_per_s"] == 0.0

    def test_empty_arena_pools_is_not_reported(self):
        assert "arena_hit_rate" not in TrainStats().summary(arena_pools=[])

    def test_zero_lookup_pools_report_zero_not_raise(self):
        summary = TrainStats().summary(arena_pools=[_pool(0, 0)])
        assert summary["arena_hit_rate"] == 0.0

    def test_generator_arena_pools_regression(self):
        """A generator of pools must be counted once, not consumed twice:
        pre-fix this reported hit rate 1.0 (misses silently zero)."""
        pools = (pool for pool in [_pool(1, 0), _pool(0, 1)])
        summary = TrainStats().summary(arena_pools=pools)
        assert summary["arena_hit_rate"] == 0.5


class TestShardStatsZeroRecords:
    def test_zero_busy_shard_reports_zero_throughput(self):
        record = ShardEpochStats(shard=0, epoch=0, num_minibatches=0,
                                 num_seeds=0, busy_seconds=0.0)
        assert record.seeds_per_second == 0.0

    def test_empty_distributed_run_summary(self):
        stats = DistributedTrainStats(num_shards=4)
        assert stats.max_shard_busy_seconds == 0.0
        rows = stats.per_shard_summary()
        assert len(rows) == 4
        for row in rows:
            assert row["seeds_per_s"] == 0.0 and row["busy_s"] == 0.0
        summary = stats.summary()
        assert summary["shards"] == 4
        assert summary["aggregate_seeds_per_s"] == 0.0
        assert summary["max_shard_busy_s"] == 0.0

    def test_zero_shard_world_max_busy_is_zero(self):
        assert DistributedTrainStats(num_shards=0).max_shard_busy_seconds == 0.0

    def test_summary_with_idle_collective(self):
        stats = DistributedTrainStats(num_shards=2)
        summary = stats.summary(collective=_IdleCollective())
        assert summary["all_reduce_ops"] == 0
        assert summary["mean_kb_per_op"] == 0.0
        assert summary["aggregate_seeds_per_s"] == 0.0


class _IdleCollective:
    stats = CollectiveStats()


class TestCollectiveStatsZeroRecords:
    def test_fresh_stats_all_rates_are_zero(self):
        stats = CollectiveStats()
        assert stats.mean_bytes_per_operation == 0.0
        assert stats.megabytes_moved == 0.0
        summary = stats.summary()
        assert summary == {
            "all_reduce_ops": 0,
            "all_reduce_mb": 0.0,
            "all_reduce_s": 0.0,
            "mean_kb_per_op": 0.0,
        }


class TestServingStatsZeroRecords:
    def test_empty_engine_summary_is_all_zeros(self):
        stats = EngineStats()
        assert stats.mean_occupancy == 0.0
        assert stats.requests_per_second == 0.0
        assert stats.seeds_per_second == 0.0
        assert stats.plan_replay_rate is None
        summary = stats.summary()
        assert summary["throughput_rps"] == 0.0
        assert summary["latency_p50_ms"] == 0.0
        assert summary["plan_replay_rate"] is None

    def test_zero_second_batches_report_zero_throughput(self):
        stats = EngineStats()
        stats.record_batch(BatchRecord(num_requests=2, num_seeds=2, block_nodes=1,
                                       block_edges=1, sample_seconds=0.0,
                                       execute_seconds=0.0))
        assert stats.requests_per_second == 0.0
        assert stats.seeds_per_second == 0.0

    def test_percentile_of_empty_and_singleton(self):
        assert percentile([], 50) == 0.0
        assert percentile([3.0], 95) == 3.0
        assert percentile([1.0, 2.0], 200) == 2.0  # q clamped into [0, 100]
        assert percentile([1.0, 2.0], -5) == 1.0

    def test_aggregate_of_no_endpoints(self):
        summary = aggregate_summary([])
        assert summary["endpoints"] == 0
        assert summary["mean_occupancy"] == 0.0
        assert summary["throughput_rps"] == 0.0
        assert summary["seeds_per_s"] == 0.0
        assert summary["latency_p50_ms"] == 0.0
        assert summary["plan_replay_rate"] is None

    def test_aggregate_of_empty_endpoints(self):
        summary = aggregate_summary([EngineStats(), EngineStats()])
        assert summary["endpoints"] == 2
        assert summary["throughput_rps"] == 0.0
        assert summary["plan_replay_rate"] is None

    def test_aggregate_plan_replay_rate_pools_tracked_batches_only(self):
        tracked = EngineStats()
        tracked.record_batch(BatchRecord(1, 1, 1, 1, 0.1, 0.1, plan_replayed=True))
        tracked.record_batch(BatchRecord(1, 1, 1, 1, 0.1, 0.1, plan_replayed=False))
        untracked = EngineStats()
        untracked.record_batch(BatchRecord(1, 1, 1, 1, 0.1, 0.1))
        summary = aggregate_summary([tracked, untracked])
        assert summary["plan_replay_rate"] == 0.5
