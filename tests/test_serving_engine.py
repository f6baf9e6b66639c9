"""One-endpoint serving: correctness of scattered outputs, micro-batch
policy (size cap + timeout), plan replay accounting, and telemetry.

Every router here hosts a single endpoint with the block cache off, so each
batch draws a fresh sample — the plain micro-batching path.
"""

import numpy as np
import pytest

from repro.frontend import CompilerOptions, compile_model
from repro.graph import random_hetero_graph
from repro.models import REFERENCE_CLASSES
from repro.serving import EngineStats, Router, percentile
from repro.serving.stats import BatchRecord

DIM = 8
NAME = "rgcn"


@pytest.fixture(scope="module")
def graph():
    return random_hetero_graph(
        num_nodes=180, num_edges=900, num_node_types=3, num_edge_types=6,
        seed=31, name="servegraph",
    )


@pytest.fixture(scope="module")
def features(graph):
    return np.random.default_rng(2).standard_normal((graph.num_nodes, DIM))


def _router(graph, features, model="rgcn", **overrides):
    params = dict(
        in_dim=DIM, out_dim=DIM, features=features, fanouts=(None,),
        max_batch_size=4, block_cache_size=0, seed=6, sampler_seed=1,
    )
    params.update(overrides)
    router = Router()
    router.register(NAME, model, graph, **params)
    return router


def _serve(router, seed_lists, arrivals=None):
    """Serve one stream on the endpoint; returns the endpoint's report."""
    arrivals = arrivals if arrivals is not None else [0.0] * len(seed_lists)
    router.serve([(NAME, seeds, arrival) for seeds, arrival in zip(seed_lists, arrivals)])
    return router.endpoint(NAME).report()


class TestQueryCorrectness:
    def test_query_matches_full_graph_reference_at_seeds(self, graph, features):
        router = _router(graph, features)
        reference = REFERENCE_CLASSES["rgcn"](graph, DIM, DIM, seed=6)
        reference.load_parameters(
            {k: p.data for k, p in router.endpoint(NAME).module.parameters_by_name.items()}
        )
        full = reference.forward(features)
        key = next(iter(full))
        seeds = np.array([3, 44, 91, 120])
        result = router.query(NAME, seeds)
        assert result.shape == (len(seeds), DIM)
        np.testing.assert_allclose(result, full[key].data[seeds], atol=1e-8)

    def test_batched_requests_scatter_back_per_request(self, graph, features):
        router = _router(graph, features, max_batch_size=8)
        singles = {tuple(seeds): _router(graph, features).query(NAME, np.array(seeds))
                   for seeds in [(1, 2), (50, 61, 72), (2, 100)]}
        requests = [router.submit(NAME, np.array(seeds)) for seeds in singles]
        router.flush()
        for request, expected in zip(requests, singles.values()):
            assert request.done
            np.testing.assert_allclose(request.result, expected, atol=1e-10)

    def test_duplicate_seeds_within_and_across_requests(self, graph, features):
        router = _router(graph, features, max_batch_size=8)
        request_a = router.submit(NAME, np.array([7, 7, 23]))
        request_b = router.submit(NAME, np.array([23, 7]))
        router.flush()
        np.testing.assert_allclose(request_a.result[0], request_a.result[1])
        np.testing.assert_allclose(request_a.result[0], request_b.result[1])
        np.testing.assert_allclose(request_a.result[2], request_b.result[0])
        # One batch, deduplicated union of seeds.
        stats = router.endpoint(NAME).stats
        assert stats.batches[-1].num_requests == 2
        assert stats.batches[-1].num_seeds == 5

    def test_precompiled_module_can_be_adopted(self, graph, features):
        module = compile_model("rgat", graph, in_dim=DIM, out_dim=DIM,
                               options=CompilerOptions(emit_backward=False), seed=2)
        router = _router(graph, features, model=module)
        out = router.query(NAME, [10, 20])
        np.testing.assert_allclose(out, module.forward(features)["out"][[10, 20]], atol=1e-8)
        # Adopted modules have no program handle: replay tracking is off.
        assert router.endpoint(NAME).stats.plan_replay_rate is None

    def test_default_feature_store_makes_quickstart_run(self, graph):
        router = Router()
        router.register(NAME, "rgcn", graph, in_dim=DIM, out_dim=DIM, block_cache_size=0)
        assert router.query(NAME, [0, 1]).shape == (2, DIM)


class TestBatchingPolicy:
    def test_flush_respects_max_batch_size(self, graph, features):
        router = _router(graph, features, max_batch_size=3)
        for index in range(7):
            router.submit(NAME, [index, index + 20])
        completed = router.flush()
        assert len(completed) == 7 and all(r.done for r in completed)
        stats = router.endpoint(NAME).stats
        assert [record.num_requests for record in stats.batches] == [3, 3, 1]

    def test_serve_burst_fills_batches(self, graph, features):
        router = _router(graph, features, max_batch_size=4)
        stream = [np.array([i, i + 30]) for i in range(8)]
        report = _serve(router, stream)
        assert report["batches"] == 2
        assert report["mean_occupancy"] == 4.0
        assert report["plan_replay_rate"] == 1.0
        assert len(router.endpoint(NAME).stats.request_latencies) == 8

    def test_serve_timeout_splits_sparse_arrivals(self, graph, features):
        router = _router(graph, features, max_batch_size=8, batch_timeout_s=0.001)
        stream = [np.array([i]) for i in range(4)]
        arrivals = [0.0, 0.5, 1.0, 1.5]  # far apart vs the 1ms timeout
        report = _serve(router, stream, arrivals)
        assert report["batches"] == 4
        assert report["mean_occupancy"] == 1.0

    def test_serve_rejects_stream_items_for_unknown_endpoints(self, graph, features):
        router = _router(graph, features)
        with pytest.raises(ValueError, match="unknown endpoint"):
            router.serve([("missing", np.array([0]), 0.0)])

    def test_rejects_invalid_requests_and_config(self, graph, features):
        router = _router(graph, features)
        with pytest.raises(ValueError):
            router.submit(NAME, [])
        with pytest.raises(ValueError):
            router.submit(NAME, [graph.num_nodes])
        with pytest.raises(ValueError):
            _router(graph, features, max_batch_size=0)
        with pytest.raises(ValueError):
            _router(graph, features, batch_timeout_s=-1.0)
        with pytest.raises(ValueError):
            _router(graph, np.zeros((graph.num_nodes - 1, DIM)))
        with pytest.raises(ValueError):
            _router(graph, np.zeros((graph.num_nodes, DIM + 2)))


class TestTelemetry:
    def test_report_fields(self, graph, features):
        router = _router(graph, features, max_batch_size=4)
        report = _serve(router, [np.array([i, i + 9]) for i in range(6)])
        for field in [
            "requests", "batches", "mean_occupancy", "throughput_rps",
            "seeds_per_s", "latency_p50_ms", "latency_p95_ms",
            "plan_replay_rate", "max_batch_size", "arena_pool_hit_rate",
            "plan_replays", "plan_recompiles",
        ]:
            assert field in report, field
        assert router.report()["arena_budget"]["live_arenas"] >= 1
        assert report["requests"] == 6
        assert report["throughput_rps"] > 0
        assert report["latency_p95_ms"] >= report["latency_p50_ms"]
        assert report["plan_replays"] == report["batches"]
        assert report["plan_recompiles"] == 0

    def test_reset_stats_clears_telemetry_but_keeps_warm_arenas(self, graph, features):
        router = _router(graph, features, max_batch_size=4)
        endpoint = router.endpoint(NAME)
        router.query(NAME, [1, 2, 3])
        assert endpoint.stats.num_batches == 1 and endpoint.plan_replays == 1
        # The endpoint's arenas live in the router's shared budget (the
        # module's own pool is unused); warm slabs must survive a reset.
        budget = router.budget
        misses_before = budget.tenant_stats(NAME).misses
        assert misses_before >= 1 and budget.live_arenas >= 1
        router.reset_stats()
        assert endpoint.stats.num_batches == 0
        assert endpoint.plan_replays == 0 and endpoint.plan_recompiles == 0
        assert budget.live_arenas >= 1
        router.query(NAME, [1, 2, 3])
        # Same-bucket re-query leases the warm arena: no new build.
        assert budget.tenant_stats(NAME).misses == misses_before

    def test_serve_flushes_previously_submitted_requests_first(self, graph, features):
        router = _router(graph, features, max_batch_size=4)
        early = router.submit(NAME, [5, 6])
        _serve(router, [np.array([i]) for i in range(3)])
        assert early.done and early.result.shape == (2, DIM)

    def test_flush_path_records_service_latency(self, graph, features):
        router = _router(graph, features)
        request = router.submit(NAME, [3, 4])
        router.flush()
        assert request.latency_s is not None and request.latency_s > 0
        assert router.endpoint(NAME).report()["latency_p50_ms"] > 0

    def test_cache_disabled_engine_skips_per_batch_replay_checks(self, graph, features):
        from repro.frontend import CompilerOptions

        router = _router(
            graph, features,
            options=CompilerOptions(emit_backward=False, enable_compilation_cache=False),
        )
        router.query(NAME, [1, 2])
        router.query(NAME, [3, 4])
        # No per-batch recompiles, and replay tracking is off rather than
        # reporting misleading misses.
        endpoint = router.endpoint(NAME)
        assert endpoint.plan_recompiles == 0 and endpoint.plan_replays == 0
        assert endpoint.stats.plan_replay_rate is None

    def test_percentile_and_empty_stats(self):
        assert percentile([], 95) == 0.0
        assert percentile([1.0], 50) == 1.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
        stats = EngineStats()
        assert stats.mean_occupancy == 0.0
        assert stats.requests_per_second == 0.0
        assert stats.plan_replay_rate is None
        stats.record_batch(BatchRecord(
            num_requests=2, num_seeds=3, block_nodes=5, block_edges=4,
            sample_seconds=0.5, execute_seconds=0.5, plan_replayed=True,
        ))
        assert stats.requests_per_second == pytest.approx(2.0)
        assert stats.plan_replay_rate == 1.0


class TestStatsRobustness:
    """Percentile helpers must be total: any history length, any q."""

    def test_percentiles_well_defined_for_zero_and_one_record(self):
        for q in (0, 0.1, 50, 95, 99.9, 100):
            assert percentile([], q) == 0.0
            assert percentile([3.5], q) == 3.5
        stats = EngineStats()
        assert stats.latency_percentile(95) == 0.0
        stats.record_latency(0.25)
        assert stats.latency_percentile(0) == 0.25
        assert stats.latency_percentile(100) == 0.25
        summary = stats.summary()  # must not raise on a 1-record history
        assert summary["latency_p95_ms"] == pytest.approx(250.0)

    def test_out_of_range_q_is_clamped_not_an_index_error(self):
        assert percentile([1.0, 2.0], 150) == 2.0
        assert percentile([1.0, 2.0], -10) == 1.0

    def test_percentile_matches_numpy_on_longer_histories(self):
        values = [0.5, 0.1, 0.9, 0.3, 0.7, 0.2]
        for q in (0, 10, 25, 50, 75, 90, 100):
            assert percentile(values, q) == pytest.approx(float(np.percentile(values, q)))

    def test_report_includes_attached_arena_counters(self, graph, features):
        router = _router(graph, features)
        router.query(NAME, [1, 2, 3])
        report = router.endpoint(NAME).stats.report()
        for key in ("arena_hits", "arena_misses", "arena_evictions", "arena_pool_hit_rate"):
            assert key in report, key
        assert report["arena_misses"] >= 1
        # Without an attachment the report is just the summary.
        assert "arena_hits" not in EngineStats().report()


class TestOneEndpointRouter:
    def test_results_match_after_reset_and_reuse(self, graph, features):
        router = _router(graph, features)
        before = router.query(NAME, np.array([5, 80]))
        router.reset_stats()
        after = router.query(NAME, np.array([5, 80]))
        np.testing.assert_array_equal(before, after)
        assert router.endpoint(NAME).stats.num_batches == 1  # reset really restarted

    def test_submit_time_validation_names_the_endpoint(self, graph, features):
        router = _router(graph, features)
        with pytest.raises(ValueError, match=f"endpoint '{NAME}'"):
            router.submit(NAME, [graph.num_nodes + 5])
