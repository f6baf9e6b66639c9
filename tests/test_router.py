"""Router behaviour: registration, submit-time seed validation, cross-endpoint
fairness (weighted round-robin), shared-arena-budget eviction ordering,
block-cache hit/invalidation semantics, and multi-tenant result isolation.
"""

from collections import deque

import numpy as np
import pytest

from repro.frontend import CompilerOptions, compile_model
from repro.graph import random_hetero_graph
from repro.runtime import GraphContext, SharedArenaBudget
from repro.serving import (
    Router,
    ScheduledBatch,
    VirtualClock,
    WeightedRoundRobin,
    partition_into_batches,
    run_event_loop,
)
from repro.serving.endpoint import ServingRequest

DIM = 8

#: Inference options shared by every endpoint in these tests.
OPTIONS = CompilerOptions(emit_backward=False)


@pytest.fixture(scope="module")
def graph_a():
    return random_hetero_graph(num_nodes=120, num_edges=500, num_node_types=2,
                               num_edge_types=4, seed=7, name="tenant-a")


@pytest.fixture(scope="module")
def graph_b():
    return random_hetero_graph(num_nodes=200, num_edges=900, num_node_types=3,
                               num_edge_types=6, seed=8, name="tenant-b")


def _router(**kwargs) -> Router:
    return Router(**kwargs)


def _register(router, name, graph, model="rgcn", **overrides):
    params = dict(in_dim=DIM, out_dim=DIM, options=OPTIONS, fanouts=(None,),
                  max_batch_size=4, sampler_seed=1, seed=3)
    params.update(overrides)
    return router.register(name, model, graph, **params)


class TestRegistration:
    def test_duplicate_names_rejected(self, graph_a):
        router = _router()
        _register(router, "a", graph_a)
        with pytest.raises(ValueError, match="already registered"):
            _register(router, "a", graph_a)

    def test_unknown_endpoint_errors_list_known(self, graph_a):
        router = _router()
        _register(router, "a", graph_a)
        with pytest.raises(ValueError, match="unknown endpoint 'nope'.*'a'"):
            router.submit("nope", [0])

    def test_invalid_config_rejected(self, graph_a):
        router = _router()
        with pytest.raises(ValueError, match="priority"):
            _register(router, "p", graph_a, priority=0)
        with pytest.raises(ValueError, match="max_batch_size"):
            _register(router, "m", graph_a, max_batch_size=0)
        with pytest.raises(ValueError, match="block_cache_size"):
            _register(router, "c", graph_a, block_cache_size=-1)
        with pytest.raises(ValueError):
            Router(arena_capacity_bytes=0)

    def test_failed_registration_rolls_back_the_budget_tenant(self, graph_a):
        router = _router()
        bad_features = np.zeros((graph_a.num_nodes - 1, DIM))
        with pytest.raises(ValueError, match="feature store"):
            _register(router, "ghost", graph_a, features=bad_features,
                      arena_budget=1 << 20)
        # No phantom tenant, no sticky cap from the failed attempt.
        assert not router.budget.has_tenant("ghost")
        assert "ghost" not in router.budget.report()["tenants"]
        endpoint = _register(router, "ghost", graph_a)
        router.query("ghost", [1, 2])
        assert router.budget.report()["tenants"]["ghost"]["capacity_bytes"] is None
        assert endpoint.stats.num_batches == 1

    def test_adopted_module_endpoint(self, graph_a):
        module = compile_model("rgat", graph_a, in_dim=DIM, out_dim=DIM,
                               options=OPTIONS, seed=2)
        router = _router()
        router.register("adopted", module, graph_a, max_batch_size=4)
        out = router.query("adopted", [5, 9])
        np.testing.assert_allclose(
            out, module.forward(router.endpoint("adopted").features)["out"][[5, 9]], atol=1e-8
        )
        assert router.endpoint("adopted").stats.plan_replay_rate is None


class TestSeedValidation:
    def test_out_of_range_seeds_fail_at_submit_naming_endpoint_and_ids(self, graph_a):
        router = _router()
        _register(router, "tenant-x", graph_a)
        with pytest.raises(ValueError, match=r"endpoint 'tenant-x'.*\[999\].*tenant-a"):
            router.submit("tenant-x", [3, 999])
        with pytest.raises(ValueError, match=r"endpoint 'tenant-x'.*\[-1\]"):
            router.submit("tenant-x", [-1])
        with pytest.raises(ValueError, match="endpoint 'tenant-x'.*at least one seed"):
            router.submit("tenant-x", [])
        # Nothing was admitted: the queue is clean after the failures.
        assert router.endpoint("tenant-x").pending == []

    def test_long_offender_lists_are_elided(self, graph_a):
        router = _router()
        _register(router, "x", graph_a)
        bad = list(range(1000, 1012))
        with pytest.raises(ValueError, match=r"\.\.\."):
            router.submit("x", bad)


class TestFairness:
    def test_weighted_round_robin_interleaves_by_priority(self):
        wrr = WeightedRoundRobin()
        wrr.register("heavy", 3)
        wrr.register("light", 1)
        order = [wrr.pick(["heavy", "light"]) for _ in range(8)]
        assert order.count("heavy") == 6 and order.count("light") == 2
        # Smooth WRR interleaves instead of bursting: light is served within
        # every window of 4, never starved to the end.
        assert "light" in order[:4] and "light" in order[4:]

    def test_wrr_rejects_unknown_and_invalid(self):
        wrr = WeightedRoundRobin()
        with pytest.raises(ValueError):
            wrr.register("x", 0)
        wrr.register("x", 1)
        with pytest.raises(KeyError):
            wrr.pick(["y"])
        with pytest.raises(ValueError):
            wrr.pick([])

    def test_router_execution_log_respects_priorities_under_skewed_load(self, graph_a, graph_b):
        router = _router()
        _register(router, "heavy", graph_a, priority=3, max_batch_size=2)
        _register(router, "light", graph_b, priority=1, max_batch_size=2)
        # Skewed load: both flooded at t=0, every batch ready immediately.
        for index in range(8):
            router.submit("heavy", [index, index + 10])
            router.submit("light", [index, index + 20])
        router.flush()
        order = router.execution_log
        assert order.count("heavy") == 4 and order.count("light") == 4
        window = order[:4]
        assert window.count("heavy") == 3 and window.count("light") == 1

    def test_event_loop_advances_virtual_clock_to_arrivals(self):
        executed = []

        def execute(name, requests):
            executed.append(name)
            return 0.001

        wrr = WeightedRoundRobin()
        wrr.register("a", 1)
        queue = deque([
            ScheduledBatch("a", [ServingRequest(seeds=np.array([0]), arrival_s=0.5)], ready_s=0.5),
        ])
        result = run_event_loop({"a": queue}, wrr, execute, clock=VirtualClock())
        assert executed == ["a"]
        # Clock jumped to the arrival, then accounted the measured service.
        assert result.final_clock_s == pytest.approx(0.501)
        assert result.completed[0].latency_s == pytest.approx(0.001)

    def test_realtime_serve_waits_for_monotonic_arrivals(self, graph_a):
        router = _router()
        _register(router, "rt", graph_a, max_batch_size=2, batch_timeout_s=0.0)
        report = router.serve(
            [("rt", [1], 0.0), ("rt", [2], 0.02)], realtime=True
        )
        assert report["endpoints"]["rt"]["requests"] == 2
        # The second request could not start before its real arrival, so its
        # wall-clock latency is bounded by service time, not by the gap.
        latencies = router.endpoint("rt").stats.request_latencies
        assert len(latencies) == 2 and all(lat > 0 for lat in latencies)

    def test_partition_matches_legacy_batching_rule(self):
        requests = [ServingRequest(seeds=np.array([i]), arrival_s=t)
                    for i, t in enumerate([0.0, 0.0005, 0.001, 0.5, 1.0])]
        batches = partition_into_batches(requests, "e", max_batch_size=8, batch_timeout_s=0.002)
        assert [len(b.requests) for b in batches] == [3, 1, 1]
        # Non-full batches become ready when the oldest member's window expires.
        assert batches[0].ready_s == pytest.approx(0.002)
        assert batches[1].ready_s == pytest.approx(0.502)


class TestSharedBudget:
    def _module_and_ctxs(self, graph_small, graph_big):
        module = compile_model("rgcn", graph_small, in_dim=DIM, out_dim=DIM,
                               options=OPTIONS, seed=0)
        return module, GraphContext.cached(graph_small), GraphContext.cached(graph_big)

    def test_eviction_is_lru_across_tenants(self, graph_a, graph_b):
        module, ctx_small, ctx_big = self._module_and_ctxs(graph_a, graph_b)
        planner = module.memory_planner
        budget = SharedArenaBudget()
        source_a = budget.tenant("a")
        source_b = budget.tenant("b")
        lease_a = source_a.lease(planner, ctx_small)
        size_small = lease_a.arena.arena_bytes()
        lease_b = source_b.lease(planner, ctx_big)
        size_big = lease_b.arena.arena_bytes()
        assert budget.live_arenas == 2
        assert source_a.stats.misses == 1 and source_b.stats.misses == 1

        # Cap to exactly the current footprint: leasing a new bucket evicts
        # the least-recently-used arena, which belongs to tenant "a".
        budget.capacity_bytes = size_small + size_big
        source_b.lease(planner, ctx_small)  # b's small-bucket arena (new key)
        assert budget.eviction_log[0][0] == "a"
        assert source_a.stats.evictions == 1 and source_b.stats.evictions == 0
        assert budget.live_bytes <= budget.capacity_bytes

        # Re-leasing a's bucket is a miss now (rebuilt), evicting b's LRU.
        source_a.lease(planner, ctx_small)
        assert source_a.stats.misses == 2
        assert budget.eviction_log[1][0] == "b"

    def test_use_time_touch_protects_recently_executed_arenas(self, graph_a, graph_b):
        module, ctx_small, ctx_big = self._module_and_ctxs(graph_a, graph_b)
        planner = module.memory_planner
        budget = SharedArenaBudget()
        source = budget.tenant("t")
        lease_small = source.lease(planner, ctx_small)
        lease_big = source.lease(planner, ctx_big)
        # Binding an env through the *older* lease refreshes its recency:
        # LRU order is by use, not by lease creation.
        lease_small.bind({})
        budget.capacity_bytes = lease_small.arena.arena_bytes() + lease_big.arena.arena_bytes()
        tiny_ctx = GraphContext.cached(
            random_hetero_graph(num_nodes=60, num_edges=200, num_node_types=2,
                                num_edge_types=4, seed=99, name="tiny-bucket")
        )
        source.lease(planner, tiny_ctx)
        # Exactly one eviction — the big arena (stale); small (touched) stayed.
        assert source.stats.evictions == 1
        hits_before = source.stats.hits
        source.lease(planner, ctx_small)
        assert source.stats.hits == hits_before + 1  # small survived
        source.lease(planner, ctx_big)
        assert source.stats.misses == 4  # big was the eviction victim

    def test_per_tenant_cap_evicts_only_that_tenant(self, graph_a, graph_b):
        module, ctx_small, ctx_big = self._module_and_ctxs(graph_a, graph_b)
        planner = module.memory_planner
        budget = SharedArenaBudget()
        source_a = budget.tenant("a")
        lease = source_a.lease(planner, ctx_small)
        budget.tenant("a", capacity_bytes=lease.arena.arena_bytes())
        source_b = budget.tenant("b")
        source_b.lease(planner, ctx_small)
        # a's next (bigger-bucket) arena busts a's own cap: a's small arena
        # goes, b is untouched.
        source_a.lease(planner, ctx_big)
        assert source_a.stats.evictions == 1
        assert source_b.stats.evictions == 0
        assert budget.live_arenas == 2

    def test_high_water_and_report(self, graph_a, graph_b):
        module, ctx_small, ctx_big = self._module_and_ctxs(graph_a, graph_b)
        budget = SharedArenaBudget()
        source = budget.tenant("t")
        source.lease(module.memory_planner, ctx_small)
        source.lease(module.memory_planner, ctx_big)
        report = budget.report()
        assert report["live_arenas"] == 2
        assert report["high_water_bytes"] == report["live_bytes"] > 0
        assert report["tenants"]["t"]["misses"] == 2
        assert report["tenants"]["t"]["high_water_bytes"] == report["live_bytes"]

    def test_max_arenas_count_bound_evicts_like_the_old_pool(self, graph_a, graph_b):
        module, ctx_small, ctx_big = self._module_and_ctxs(graph_a, graph_b)
        budget = SharedArenaBudget(max_arenas=1)
        source = budget.tenant("t")
        source.lease(module.memory_planner, ctx_small)
        source.lease(module.memory_planner, ctx_big)
        assert budget.live_arenas == 1
        assert source.stats.evictions == 1
        with pytest.raises(ValueError):
            SharedArenaBudget(max_arenas=0)

    def test_unknown_tenant_lease_is_an_error(self, graph_a):
        module = compile_model("rgcn", graph_a, in_dim=DIM, out_dim=DIM,
                               options=OPTIONS, seed=0)
        budget = SharedArenaBudget()
        with pytest.raises(KeyError, match="unknown tenant"):
            budget.lease("ghost", module.memory_planner, GraphContext.cached(graph_a))


class TestBlockCache:
    def test_hot_seed_sets_hit_and_results_match_fresh_sampling(self, graph_a):
        router = _router()
        _register(router, "hot", graph_a, block_cache_size=4)
        first = router.query("hot", [3, 7, 11])
        again = router.query("hot", [3, 7, 11])
        endpoint = router.endpoint("hot")
        assert endpoint.block_cache_hits == 1 and endpoint.block_cache_misses == 1
        np.testing.assert_array_equal(first, again)
        # Seed order and duplicates never fragment the cache: the key is the
        # frozen (sorted, deduplicated) union.
        router.query("hot", [11, 3, 7, 3])
        assert endpoint.block_cache_hits == 2

    def test_lru_eviction_and_invalidation(self, graph_a):
        router = _router()
        _register(router, "small-cache", graph_a, block_cache_size=2)
        endpoint = router.endpoint("small-cache")
        router.query("small-cache", [1])
        router.query("small-cache", [2])
        router.query("small-cache", [3])  # evicts the [1] block
        assert endpoint.block_cache_evictions == 1
        router.query("small-cache", [1])  # miss: was evicted
        assert endpoint.block_cache_misses == 4 and endpoint.block_cache_hits == 0
        router.query("small-cache", [1])  # hit now
        assert endpoint.block_cache_hits == 1
        dropped = endpoint.invalidate_block_cache()
        assert dropped == 2 and endpoint.block_cache_len == 0
        router.query("small-cache", [1])
        assert endpoint.block_cache_misses == 5

    def test_disabled_cache_records_nothing(self, graph_a):
        router = _router()
        _register(router, "nocache", graph_a, block_cache_size=0)
        router.query("nocache", [1, 2])
        router.query("nocache", [1, 2])
        endpoint = router.endpoint("nocache")
        assert endpoint.block_cache_hits == 0 and endpoint.block_cache_misses == 0
        assert all(record.block_cache_hit is None for record in endpoint.stats.batches)
        assert "block_cache_hit_rate" not in endpoint.report()

    def test_every_sampled_batch_draws_fresh_neighborhoods(self, graph_a):
        """Serving has no training epochs: each sampled batch advances the
        sampler epoch, so under finite fanouts a repeated seed set is *not*
        frozen to its first draw (block reuse is the cache's job — with the
        cache on, hits return the cached block and skip sampling)."""
        router = _router()
        _register(router, "fresh", graph_a, block_cache_size=0, fanouts=(2,))
        endpoint = router.endpoint("fresh")
        router.query("fresh", [1, 2, 3])
        epoch_after_first = endpoint.sampler.epoch
        router.query("fresh", [1, 2, 3])
        assert endpoint.sampler.epoch == epoch_after_first + 1

        router = _router()
        _register(router, "cached", graph_a, block_cache_size=4, fanouts=(2,))
        endpoint = router.endpoint("cached")
        router.query("cached", [1, 2, 3])
        epoch_after_first = endpoint.sampler.epoch
        router.query("cached", [1, 2, 3])  # cache hit: no sampling, no epoch
        assert endpoint.sampler.epoch == epoch_after_first


class TestMultiTenantIsolation:
    def test_mixed_stream_rows_match_isolated_serving(self, graph_a, graph_b):
        def build(only=None):
            router = _router()
            if only in (None, "rgcn-a"):
                _register(router, "rgcn-a", graph_a, model="rgcn", seed=4)
            if only in (None, "hgt-b"):
                _register(router, "hgt-b", graph_b, model="hgt", seed=5)
            return router

        stream = [("rgcn-a", [i, i + 13]) if i % 2 == 0 else ("hgt-b", [i, i + 31])
                  for i in range(12)]
        consolidated = build()
        consolidated_requests = [consolidated.submit(n, s) for n, s in stream]
        consolidated.serve()

        for name in ("rgcn-a", "hgt-b"):
            isolated = build(only=name)
            expected = [isolated.submit(n, s) for n, s in stream if n == name]
            isolated.serve()
            got = [r for r in consolidated_requests if r.endpoint == name]
            assert len(got) == len(expected)
            for consolidated_request, isolated_request in zip(got, expected):
                np.testing.assert_array_equal(
                    consolidated_request.result, isolated_request.result
                )

    def test_aggregate_report_pools_endpoints(self, graph_a, graph_b):
        router = _router()
        _register(router, "a", graph_a)
        _register(router, "b", graph_b, model="rgat")
        router.serve([("a", [1, 2]), ("b", [3]), ("a", [4])])
        report = router.report()
        assert set(report["endpoints"]) == {"a", "b"}
        assert report["aggregate"]["requests"] == 3
        assert report["aggregate"]["endpoints"] == 2
        assert report["arena_budget"]["live_arenas"] >= 1
        for row in report["endpoints"].values():
            assert "arena_hits" in row and "arena_pool_hit_rate" in row

    def test_reset_stats_keeps_warm_state(self, graph_a):
        router = _router()
        _register(router, "a", graph_a, block_cache_size=4)
        router.query("a", [1, 2])
        endpoint = router.endpoint("a")
        assert endpoint.stats.num_batches == 1
        cached = endpoint.block_cache_len
        router.reset_stats()
        assert endpoint.stats.num_batches == 0
        assert endpoint.block_cache_len == cached  # warm cache survives
        assert router.execution_log == []

