"""Concurrency battery for the serving router.

Locks down the three hazards the executor-pool redesign introduced:

* **Cross-tenant corruption** — threads hammering overlapping endpoints must
  leave every request with exactly the rows a single-threaded replay of the
  same requests produces, and a multi-worker ``serve`` must be bit-identical
  to ``workers=1``.
* **Arena-budget races** — concurrent lease/build/evict traffic from many
  tenants against one :class:`SharedArenaBudget` must keep the byte and
  arena accounting exactly consistent (inserts − evictions = live, tracked
  bytes = recomputed bytes), and telemetry reads must wait for the budget
  lock instead of iterating its maps mid-update.
* **Fault isolation** — a request whose seeds make the model raise must fail
  *alone*: batch-mates complete, other endpoints are untouched, and the
  router keeps serving afterwards.

Plus the per-seed cache-invalidation pin: a feature update kills only the
seeds whose sampled neighborhoods it touches — a hot unrelated seed keeps
its draw.
"""

import threading
import time

import numpy as np
import pytest

from repro.frontend import CompilerOptions, compile_model
from repro.graph import NeighborSampler, random_hetero_graph
from repro.runtime.planner import SharedArenaBudget
from repro.serving import Router

DIM = 8
OPTIONS = CompilerOptions(emit_backward=False)


@pytest.fixture(scope="module")
def graphs():
    return {
        "first": random_hetero_graph(
            num_nodes=60, num_edges=300, num_node_types=3, num_edge_types=6,
            seed=3, name="first",
        ),
        "second": random_hetero_graph(
            num_nodes=80, num_edges=400, num_node_types=2, num_edge_types=4,
            seed=9, name="second",
        ),
    }


@pytest.fixture(scope="module")
def modules(graphs):
    """Compiled once per file; routers adopt them (compilation is the slow part)."""
    return {
        "first": compile_model("rgcn", graphs["first"], in_dim=DIM, out_dim=DIM,
                               options=OPTIONS, seed=4),
        "second": compile_model("rgat", graphs["second"], in_dim=DIM, out_dim=DIM,
                                options=OPTIONS, seed=4),
    }


def build_router(modules, graphs, *, num_workers=1):
    router = Router(arena_capacity_bytes=32 << 20, num_workers=num_workers)
    router.register("a", modules["first"], graphs["first"], max_batch_size=4, seed=1)
    router.register("b", modules["second"], graphs["second"], max_batch_size=4, seed=2)
    return router


class TestConcurrentSubmission:
    def test_threaded_submitters_match_single_threaded_replay(self, modules, graphs):
        """Six threads interleave submissions to two overlapping endpoints;
        per-request rows must be *bit-identical* to a single-threaded replay
        of the per-endpoint admitted order (results are a pure function of
        each lane's FIFO — thread timing and lock contention never leak in),
        and match a canonical-order replay to fp tolerance (batch composition
        only moves BLAS reduction noise, never rows across tenants)."""
        num_threads, per_thread = 6, 10
        rng = np.random.default_rng(42)
        specs = []  # (thread, index, endpoint, seeds) — shared ground truth
        for thread_id in range(num_threads):
            for index in range(per_thread):
                name = ("a", "b")[(thread_id + index) % 2]
                num_nodes = graphs["first" if name == "a" else "second"].num_nodes
                seeds = rng.choice(num_nodes, size=3, replace=False)
                specs.append((thread_id, index, name, seeds))

        router = build_router(modules, graphs)
        barrier = threading.Barrier(num_threads)
        requests = {}
        lock = threading.Lock()

        def submitter(thread_id):
            barrier.wait()  # maximise interleaving
            for t, i, name, seeds in specs:
                if t != thread_id:
                    continue
                request = router.submit(name, seeds)
                with lock:
                    requests[(t, i)] = request

        threads = [
            threading.Thread(target=submitter, args=(thread_id,))
            for thread_id in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # The admitted per-endpoint order is what the threads raced over;
        # snapshot it — the replay contract is conditioned on it.
        id_to_key = {id(request): key for key, request in requests.items()}
        admitted_order = {
            name: [id_to_key[id(request)] for request in router.endpoint(name).pending]
            for name in ("a", "b")
        }
        router.flush()

        seeds_by_key = {(t, i): (name, seeds) for t, i, name, seeds in specs}
        replay = build_router(modules, graphs)
        replayed = {}
        for name in ("a", "b"):
            for key in admitted_order[name]:
                replayed[key] = replay.submit(name, seeds_by_key[key][1])
        replay.flush()

        canonical = build_router(modules, graphs)
        expected = {
            (t, i): canonical.submit(name, seeds)
            for t, i, name, seeds in specs  # canonical order, one thread
        }
        canonical.flush()

        assert len(requests) == len(specs)
        for key, request in requests.items():
            assert request.status == "done", f"request {key}: {request.status}"
            np.testing.assert_array_equal(
                request.result, replayed[key].result,
                err_msg=f"request {key} differs from the admitted-order replay",
            )
            np.testing.assert_allclose(
                request.result, expected[key].result, atol=1e-8,
                err_msg=f"request {key} differs from the canonical-order replay",
            )

    def test_multiworker_serve_bit_identical_to_single_worker(self, modules, graphs):
        rng = np.random.default_rng(7)
        stream = []
        for index in range(30):
            name = ("a", "b")[index % 2]
            num_nodes = graphs["first" if name == "a" else "second"].num_nodes
            stream.append((name, rng.choice(num_nodes, size=2, replace=False), index * 0.001))

        served = {}
        for workers in (1, 3):
            router = build_router(modules, graphs, num_workers=workers)
            report = router.serve(stream)
            assert report["serve"]["workers"] == workers
            assert report["serve"]["shed"] == 0
            served[workers] = router.last_served

        for single, pooled in zip(served[1], served[3]):
            assert single.status == pooled.status == "done"
            np.testing.assert_array_equal(single.result, pooled.result)


class TestArenaBudgetUnderConcurrency:
    def test_concurrent_lease_release_keeps_accounting_consistent(self, modules, graphs):
        """Four tenants lease/build/evict concurrently against one budget;
        afterwards the books must balance exactly: per-tenant lookups equal
        the leases issued, misses − evictions equal the live arenas, and the
        tracked per-tenant bytes equal the bytes recomputed from the live
        arenas.  ``max_arenas`` is set below the working set so evictions
        churn throughout."""
        module, graph = modules["first"], graphs["first"]
        features = np.random.default_rng(0).standard_normal((graph.num_nodes, DIM))
        sampler = NeighborSampler(graph, fanouts=(6,), seed=5)
        rng = np.random.default_rng(1)
        blocks = [
            sampler.sample(rng.choice(graph.num_nodes, size=size, replace=False))
            for size in (2, 8, 24)
        ]
        expected_rows = [
            module.bind(block.graph).forward(block.gather_features(features))
            for block in blocks
        ]

        budget = SharedArenaBudget(max_arenas=4)  # < 4 tenants × 3 buckets
        num_threads, iterations = 4, 30
        sources = [budget.tenant(f"tenant-{t}") for t in range(num_threads)]
        errors = []
        barrier = threading.Barrier(num_threads)

        def worker(thread_id):
            # One tenant per thread: same-tenant execution is serialised in
            # the router (lane serialization), so the contended surface is
            # the *budget* — cross-tenant insert/evict/touch under one lock.
            source = sources[thread_id]
            barrier.wait()
            try:
                for k in range(iterations):
                    block = blocks[(thread_id + k) % len(blocks)]
                    binding = module.bind(block.graph, arena_source=source)
                    out = binding.forward(block.gather_features(features))
                    expected = expected_rows[(thread_id + k) % len(blocks)]
                    for key, value in expected.items():
                        np.testing.assert_array_equal(out[key], value)
            except Exception as exc:  # surfaced after join; threads swallow otherwise
                errors.append((thread_id, exc))

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors

        report = budget.report()
        for t in range(num_threads):
            tenant = report["tenants"][f"tenant-{t}"]
            assert tenant["hits"] + tenant["misses"] == iterations
        assert report["live_arenas"] <= 4
        assert report["evictions"] > 0, "max_arenas never forced an eviction"
        # Conservation: every miss inserted one arena, every eviction removed one.
        assert report["misses"] - report["evictions"] == report["live_arenas"]
        # Tracked bytes == bytes recomputed from the arenas actually held.
        for t in range(num_threads):
            name = f"tenant-{t}"
            recomputed = sum(
                arena.arena_bytes()
                for key, arena in budget._arenas.items()
                if key[0] == name
            )
            assert report["tenants"][name]["live_bytes"] == recomputed
        assert report["live_bytes"] == sum(
            tenant["live_bytes"] for tenant in report["tenants"].values()
        )
        assert report["high_water_bytes"] >= report["live_bytes"]

    @pytest.mark.parametrize(
        "read", ["live_bytes", "live_arenas", "hits", "misses", "evictions", "hit_rate"]
    )
    def test_telemetry_reads_wait_for_the_budget_lock(self, read):
        """A worker mid-lease holds the lock while it mutates the arena and
        tenant maps; a concurrent read that skipped the lock could iterate
        them mid-update ("OrderedDict mutated during iteration")."""
        budget = SharedArenaBudget()
        budget.tenant("t")
        returned = threading.Event()
        reader = threading.Thread(target=lambda: (getattr(budget, read), returned.set()))
        with budget._lock:
            reader.start()
            assert not returned.wait(0.2), f"budget.{read} returned while the lock was held"
        reader.join(timeout=5)
        assert returned.is_set()


POISON = 7


def poison_endpoint(endpoint):
    """Make the endpoint raise whenever a batch contains the poison seed."""
    original = endpoint.execute_batch

    def poisoned(requests, timer=time.perf_counter):
        if any(POISON in request.seeds for request in requests):
            raise RuntimeError("poison seed rejected by the model")
        return original(requests, timer=timer)

    endpoint.execute_batch = poisoned


class TestFaultIsolation:
    def test_poisoned_request_fails_alone_on_flush(self, modules, graphs):
        router = build_router(modules, graphs)
        poison_endpoint(router.endpoint("a"))

        good_a = [router.submit("a", [1 + i, 20 + i]) for i in range(3)]
        bad = router.submit("a", [3, POISON])
        good_b = [router.submit("b", [2 + i]) for i in range(2)]
        router.flush()

        assert bad.status == "failed" and bad.result is None
        assert "endpoint 'a'" in bad.error and "poison" in bad.error
        for request in good_a + good_b:
            assert request.status == "done" and request.result is not None
        stats = router.endpoint("a").stats
        assert stats.failed_requests == 1
        # The router keeps serving the faulted endpoint afterwards.
        rows = router.query("a", [5, 11])
        assert rows.shape == (2, DIM)

    def test_poisoned_request_fails_alone_under_worker_pool(self, modules, graphs):
        router = build_router(modules, graphs, num_workers=2)
        poison_endpoint(router.endpoint("a"))
        stream = (
            [("a", [1 + i, 20 + i], i * 0.0005) for i in range(4)]
            + [("a", [3, POISON], 0.00125)]
            + [("b", [2 + i], i * 0.0005) for i in range(4)]
        )
        report = router.serve(stream)

        failed = [request for request in router.last_served if request.status == "failed"]
        assert len(failed) == 1 and POISON in failed[0].seeds
        assert "poison" in failed[0].error
        done = [request for request in router.last_served if request.status == "done"]
        assert len(done) == len(stream) - 1
        assert report["serve"]["completed"] == len(stream)  # failed folds as completed work
        assert report["endpoints"]["a"]["failed_requests"] == 1
        assert report["endpoints"]["b"].get("failed_requests", 0) == 0


class TestPerSeedInvalidation:
    def test_hot_seed_survives_update_to_another_seeds_features(self, modules, graphs):
        """The pin for per-seed cache keys: updating features inside seed B's
        sampled neighborhood redraws B but leaves hot seed A's entry (and its
        results) untouched."""
        router = build_router(modules, graphs)
        endpoint = router.endpoint("a")

        seed_a = 0
        result_a = router.query("a", [seed_a])
        entry_a = endpoint._seed_cache[seed_a]
        # Find a seed whose footprint has nodes A's footprint lacks.
        seed_b, update_node = None, None
        for candidate in range(1, graphs["first"].num_nodes):
            router.query("a", [candidate])
            entry = endpoint._seed_cache[candidate]
            extra = np.setdiff1d(entry.nodes, entry_a.nodes)
            if extra.size:
                seed_b, update_node = candidate, int(extra[0])
                break
        assert seed_b is not None, "no seed with a footprint disjoint enough from A"
        result_b = router.query("a", [seed_b])

        invalidated = endpoint.update_features(
            [update_node], endpoint.features[update_node] + 10.0
        )
        assert invalidated >= 1
        assert seed_a in endpoint._seed_cache, "unrelated hot seed was invalidated"
        assert seed_b not in endpoint._seed_cache, "touched seed kept its stale draw"

        hits_before = endpoint.block_cache_hits
        np.testing.assert_array_equal(router.query("a", [seed_a]), result_a)
        assert endpoint.block_cache_hits == hits_before + 1, (
            "hot seed's batch missed the cache after an unrelated update"
        )
        misses_before = endpoint.block_cache_misses
        refreshed = router.query("a", [seed_b])
        assert endpoint.block_cache_misses == misses_before + 1
        assert not np.array_equal(refreshed, result_b), (
            "seed B's rows ignore the feature update (stale cached block?)"
        )
