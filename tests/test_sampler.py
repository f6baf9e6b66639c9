"""Sampler correctness: schema preservation, fanout caps, seed addressing,
and block-vs-full-graph execution equivalence.

The hypothesis properties pin the structural contract of
:mod:`repro.graph.sampler`; the execution tests pin the semantic one — with
unbounded fanout, a one-hop block's outputs at the seed nodes must equal the
eager full-graph reference restricted to those seeds, for every model.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import CompilerOptions, compile_model
from repro.graph import NeighborSampler, hop_gather_indices, random_hetero_graph, sample_block
from repro.graph.sampler import _splitmix64
from repro.models import MODEL_NAMES, REFERENCE_CLASSES

DIM = 8


def assert_same_block(a, b):
    np.testing.assert_array_equal(a.node_map, b.node_map)
    np.testing.assert_array_equal(a.seed_positions, b.seed_positions)
    for etype in a.parent.canonical_etypes:
        for left, right in zip(a.graph.edges_per_relation[etype],
                               b.graph.edges_per_relation[etype]):
            np.testing.assert_array_equal(left, right)


@st.composite
def graph_and_seeds(draw):
    """A random parent graph plus a non-empty seed set drawn from it."""
    num_node_types = draw(st.integers(2, 3))
    num_edge_types = draw(st.integers(2, 6))
    num_nodes = draw(st.integers(num_node_types * 4, 60))
    num_edges = draw(st.integers(num_edge_types, 180))
    graph_seed = draw(st.integers(0, 1000))
    graph = random_hetero_graph(
        num_nodes=num_nodes,
        num_edges=num_edges,
        num_node_types=num_node_types,
        num_edge_types=num_edge_types,
        seed=graph_seed,
        name="prop",
    )
    seeds = draw(
        st.lists(st.integers(0, graph.num_nodes - 1), min_size=1, max_size=8, unique=True)
    )
    return graph, np.array(seeds, dtype=np.int64)


class TestBlockStructure:
    @settings(max_examples=40, deadline=None)
    @given(data=graph_and_seeds(), fanout=st.one_of(st.none(), st.integers(1, 4)),
           rng_seed=st.integers(0, 100))
    def test_schema_fanout_and_seed_addressing(self, data, fanout, rng_seed):
        graph, seeds = data
        block = sample_block(graph, seeds, fanouts=(fanout,), seed=rng_seed)

        # Schema preserved, ordered: type ids keep indexing the same weights.
        assert block.graph.node_type_names == graph.node_type_names
        assert block.graph.canonical_etypes == graph.canonical_etypes

        # Fanout caps: per-relation in-degree within the block never exceeds
        # the cap (each (relation, dst) keeps its ``fanout`` smallest edge
        # keys, and a merged call draws a revisited node only once).
        if fanout is not None:
            for etype, (_, dst_local) in block.graph.edges_per_relation.items():
                if len(dst_local):
                    assert np.bincount(dst_local).max() <= fanout, etype

        # Seeds stay addressable through the scatter map.
        np.testing.assert_array_equal(block.node_map[block.seed_positions], seeds)
        assert block.num_nodes >= len(np.unique(seeds))

        # Every block edge exists in the parent (per relation, as a multiset).
        for etype, (src_b, dst_b) in block.graph.edges_per_relation.items():
            if not len(src_b):
                continue
            src_p, dst_p = graph.edges_per_relation[etype]
            parent_pairs = {(int(s), int(d)) for s, d in zip(src_p, dst_p)}
            src_type, _, dst_type = etype
            src_off = block.graph.node_type_offset(src_type)
            dst_off = block.graph.node_type_offset(dst_type)
            for s, d in zip(src_b, dst_b):
                parent_s = int(block.node_map[src_off + s]) - graph.node_type_offset(src_type)
                parent_d = int(block.node_map[dst_off + d]) - graph.node_type_offset(dst_type)
                assert (parent_s, parent_d) in parent_pairs, etype

    @settings(max_examples=20, deadline=None)
    @given(data=graph_and_seeds(), rng_seed=st.integers(0, 100))
    def test_full_fanout_keeps_every_seed_in_edge(self, data, rng_seed):
        """fanout=None one-hop blocks contain every incoming edge of a seed."""
        graph, seeds = data
        block = sample_block(graph, seeds, fanouts=(None,), seed=rng_seed)
        seed_set = set(seeds.tolist())
        expected = int(np.isin(graph.edge_dst, list(seed_set)).sum())
        assert block.num_edges == expected

    @settings(max_examples=20, deadline=None)
    @given(data=graph_and_seeds(), fanout=st.integers(1, 3))
    def test_sampling_is_deterministic_per_sampler_seed(self, data, fanout):
        graph, seeds = data
        first = sample_block(graph, seeds, fanouts=(fanout,), seed=9)
        second = sample_block(graph, seeds, fanouts=(fanout,), seed=9)
        np.testing.assert_array_equal(first.node_map, second.node_map)
        assert first.num_edges == second.num_edges
        for etype in graph.canonical_etypes:
            for a, b in zip(first.graph.edges_per_relation[etype],
                            second.graph.edges_per_relation[etype]):
                np.testing.assert_array_equal(a, b)

    def test_multi_hop_reaches_two_hop_neighbors(self):
        # A chain a0 -> a1 -> a2 (by "to"): seeds {2} need two hops to pull a0.
        from repro.graph import HeteroGraph

        chain = HeteroGraph(
            {"a": 3},
            {("a", "to", "a"): (np.array([0, 1]), np.array([1, 2]))},
            name="chain",
        )
        one_hop = sample_block(chain, [2], fanouts=(None,))
        two_hop = sample_block(chain, [2], fanouts=(None, None))
        assert one_hop.num_nodes == 2 and one_hop.num_edges == 1
        assert two_hop.num_nodes == 3 and two_hop.num_edges == 2

    def test_rejects_bad_seeds_and_fanouts(self, small_graph):
        with pytest.raises(ValueError):
            sample_block(small_graph, [])
        with pytest.raises(ValueError):
            sample_block(small_graph, [small_graph.num_nodes])
        with pytest.raises(ValueError):
            sample_block(small_graph, [-1])
        with pytest.raises(ValueError):
            NeighborSampler(small_graph, fanouts=())
        with pytest.raises(ValueError):
            NeighborSampler(small_graph, fanouts=(0,))

    @pytest.mark.parametrize("fanout", [2.5, True, False, "3", -1])
    def test_rejects_non_integer_fanouts_naming_the_value(self, small_graph, fanout):
        with pytest.raises(ValueError, match=re.escape(repr(fanout))):
            NeighborSampler(small_graph, fanouts=(2, fanout))

    def test_accepts_numpy_integer_fanouts(self, small_graph):
        sampler = NeighborSampler(small_graph, fanouts=(np.int64(2), None))
        assert sampler.fanouts == (2, None)

    def test_gather_and_scatter_shapes_are_validated(self, small_graph, rng):
        block = sample_block(small_graph, [0, 5, 9])
        with pytest.raises(ValueError):
            block.gather_features(np.zeros((small_graph.num_nodes - 1, 4)))
        with pytest.raises(ValueError):
            block.seed_outputs(np.zeros((block.num_nodes + 1, 4)))


class TestPerHopBlocks:
    """Structural contract of ``sample_blocks``: one block per hop,
    outermost first, hop boundaries composing through the node maps."""

    @settings(max_examples=30, deadline=None)
    @given(data=graph_and_seeds(),
           fanouts=st.lists(st.one_of(st.none(), st.integers(1, 4)), min_size=1, max_size=3),
           rng_seed=st.integers(0, 100))
    def test_hop_boundary_node_maps_compose(self, data, fanouts, rng_seed):
        graph, seeds = data
        sampler = NeighborSampler(graph, fanouts=fanouts, seed=rng_seed)
        blocks = sampler.sample_blocks(seeds)
        assert len(blocks) == len(fanouts)

        # Outermost first: hop indices count down to 1 at the seeds.
        assert [block.hop for block in blocks] == list(range(len(fanouts), 0, -1))

        # hop-k's destination set is exactly hop-(k-1)'s node set (src
        # frontier), and the innermost destinations are the seed set.
        for outer, inner in zip(blocks, blocks[1:]):
            np.testing.assert_array_equal(outer.dst_nodes, inner.node_map)
            gathered = hop_gather_indices(outer, inner)
            np.testing.assert_array_equal(outer.node_map[gathered], inner.node_map)
        np.testing.assert_array_equal(blocks[-1].dst_nodes, np.unique(seeds))

        # dst_positions address the destination frontier inside each block.
        for block in blocks:
            np.testing.assert_array_equal(block.node_map[block.dst_positions], block.dst_nodes)
            np.testing.assert_array_equal(block.node_map[block.seed_positions], seeds)

    @settings(max_examples=30, deadline=None)
    @given(data=graph_and_seeds(),
           fanouts=st.lists(st.integers(1, 3), min_size=2, max_size=3),
           rng_seed=st.integers(0, 100))
    def test_each_hop_respects_its_own_fanout(self, data, fanouts, rng_seed):
        """Per-relation in-degrees in hop i's block never exceed fanouts[i-1],
        even when hops use different caps (a revisited node must not carry a
        larger earlier draw into a tighter hop)."""
        graph, seeds = data
        blocks = NeighborSampler(graph, fanouts=fanouts, seed=rng_seed).sample_blocks(seeds)
        for block, fanout in zip(blocks, reversed(fanouts)):
            assert block.fanouts == (fanout,)
            for etype, (_, dst_local) in block.graph.edges_per_relation.items():
                if len(dst_local):
                    assert np.bincount(dst_local).max() <= fanout, (etype, block.hop)

    @settings(max_examples=20, deadline=None)
    @given(data=graph_and_seeds(), fanout=st.one_of(st.none(), st.integers(1, 3)),
           rng_seed=st.integers(0, 100))
    def test_every_hop_preserves_the_relation_vocabulary(self, data, fanout, rng_seed):
        """Empty relations stay, in order, so etype ids keep indexing the
        same per-relation weights at every hop."""
        graph, seeds = data
        blocks = NeighborSampler(graph, fanouts=(fanout, fanout), seed=rng_seed).sample_blocks(seeds)
        for block in blocks:
            assert block.graph.canonical_etypes == graph.canonical_etypes
            assert block.graph.node_type_names == graph.node_type_names

    @settings(max_examples=15, deadline=None)
    @given(data=graph_and_seeds(), fanout=st.integers(1, 3), epoch=st.integers(0, 3))
    def test_resampling_with_same_seed_is_deterministic_across_epochs(self, data, fanout, epoch):
        """Two samplers with one base seed replay identical per-hop blocks
        for any epoch, independent of what earlier epochs drew."""
        graph, seeds = data
        first = NeighborSampler(graph, fanouts=(fanout, fanout), seed=13)
        second = NeighborSampler(graph, fanouts=(fanout, fanout), seed=13)
        for earlier in range(epoch):  # first sampler also samples earlier epochs
            first.resample(earlier)
            first.sample_blocks(seeds)
        first.resample(epoch)
        second.resample(epoch)
        for a, b in zip(first.sample_blocks(seeds), second.sample_blocks(seeds)):
            np.testing.assert_array_equal(a.node_map, b.node_map)
            assert a.num_edges == b.num_edges
            for etype in graph.canonical_etypes:
                for left, right in zip(a.graph.edges_per_relation[etype],
                                       b.graph.edges_per_relation[etype]):
                    np.testing.assert_array_equal(left, right)

    @settings(max_examples=25, deadline=None)
    @given(data=graph_and_seeds(),
           fanouts=st.lists(st.integers(1, 4), min_size=2, max_size=3),
           rng_seed=st.integers(0, 100))
    def test_merged_block_caps_hold_under_heterogeneous_fanouts(self, data, fanouts, rng_seed):
        """A destination revisited at a later merged hop reuses its first
        draw even when the hops' fanouts differ, so merged per-relation
        in-degrees never exceed the largest configured cap."""
        graph, seeds = data
        block = NeighborSampler(graph, fanouts=fanouts, seed=rng_seed).sample(seeds)
        cap = max(fanouts)
        for etype, (_, dst_local) in block.graph.edges_per_relation.items():
            if len(dst_local):
                assert np.bincount(dst_local).max() <= cap, etype

    def test_merged_block_equals_outermost_hop_under_uniform_fanout(self, medium_graph):
        """Within one epoch (draws are a pure function) the merged 2-hop block
        and the outermost per-hop block contain exactly the same edges — the basis of
        edge-for-edge per-hop vs merged work accounting."""
        sampler = NeighborSampler(medium_graph, fanouts=(3, 3), seed=4)
        seeds = np.array([0, 17, 55, 120, 199])
        blocks = sampler.sample_blocks(seeds)
        merged = sampler.sample(seeds)
        assert blocks[0].num_edges == merged.num_edges
        np.testing.assert_array_equal(blocks[0].node_map, merged.node_map)
        # ... and the inner hop is a strict subset on any graph with depth.
        assert blocks[1].num_edges <= blocks[0].num_edges


class TestEpochResampling:
    """Draws are a pure function of the epoch: stable within an epoch,
    fresh across epochs, reproducible from the base seed."""

    def test_draws_are_pure_within_an_epoch(self, medium_graph):
        """Repeated and interleaved calls return identical blocks."""
        sampler = NeighborSampler(medium_graph, fanouts=(2, 2), seed=0)
        seeds, other = np.arange(0, 40), np.arange(30, 90)
        first, first_hops = sampler.sample(seeds), sampler.sample_blocks(seeds)
        sampler.sample(other)
        sampler.sample_blocks(other)
        assert_same_block(first, sampler.sample(seeds))
        for a, b in zip(first_hops, sampler.sample_blocks(seeds)):
            assert_same_block(a, b)

    def test_fanout_cap_holds_across_overlapping_minibatches(self, medium_graph):
        """Two same-epoch minibatches sharing destinations reuse one draw, so
        the union of their blocks still respects the cap per destination."""
        sampler = NeighborSampler(medium_graph, fanouts=(2,), seed=0)
        block_a = sampler.sample(np.arange(0, 30))
        block_b = sampler.sample(np.arange(15, 45))  # overlaps 15..29
        for block in (block_a, block_b):
            for etype, (_, dst_local) in block.graph.edges_per_relation.items():
                if len(dst_local):
                    assert np.bincount(dst_local).max() <= 2

    def test_resample_draws_fresh_neighborhoods(self, medium_graph):
        """Epochs must differ: without resample(), every epoch would train on
        exactly the first epoch's neighborhoods."""
        sampler = NeighborSampler(medium_graph, fanouts=(2,), seed=0)
        seeds = np.arange(0, 60)
        epoch_one = sampler.sample(seeds)
        sampler.resample()
        assert sampler.epoch == 1
        epoch_two = sampler.sample(seeds)
        assert any(
            not np.array_equal(epoch_one.graph.edges_per_relation[etype][0],
                               epoch_two.graph.edges_per_relation[etype][0])
            or not np.array_equal(epoch_one.node_map, epoch_two.node_map)
            for etype in medium_graph.canonical_etypes
        )

    def test_epochs_are_reproducible_from_the_base_seed(self, medium_graph):
        sampler_a = NeighborSampler(medium_graph, fanouts=(2,), seed=9)
        sampler_b = NeighborSampler(medium_graph, fanouts=(2,), seed=9)
        seeds = np.arange(0, 50)
        # a samples epochs 0..2; b jumps straight to epoch 2.
        results = {}
        for epoch in range(3):
            sampler_a.resample(epoch)
            results[epoch] = sampler_a.sample(seeds)
        sampler_b.resample(2)
        replay = sampler_b.sample(seeds)
        np.testing.assert_array_equal(results[2].node_map, replay.node_map)
        for etype in medium_graph.canonical_etypes:
            for a, b in zip(results[2].graph.edges_per_relation[etype],
                            replay.graph.edges_per_relation[etype]):
                np.testing.assert_array_equal(a, b)


def as_sets(hops):
    return [{etype: set(kept.tolist()) for etype, kept in hop.items()} for hop in hops]


class TestPureDraws:
    """Draws are a pure function of (seed, epoch, shard, relation, dst,
    fanout): call order, batching and fanout size cannot change them."""

    @settings(max_examples=25, deadline=None)
    @given(data=graph_and_seeds(), fanout=st.integers(1, 3), epoch=st.integers(0, 3),
           calls=st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)), min_size=1, max_size=5),
           perm_seed=st.integers(0, 1000))
    def test_any_call_order_within_an_epoch_gives_the_same_blocks(
        self, data, fanout, epoch, calls, perm_seed
    ):
        graph, _ = data
        requests = [
            (per_hop, np.random.default_rng(pick).choice(graph.num_nodes, size=3))
            for per_hop, pick in calls
        ]
        order = np.random.default_rng(perm_seed).permutation(len(requests))
        forward = NeighborSampler(graph, fanouts=(fanout, fanout), seed=5)
        shuffled = NeighborSampler(graph, fanouts=(fanout, fanout), seed=5)
        forward.resample(epoch)
        shuffled.resample(epoch)

        def run(sampler, per_hop, seeds):
            return sampler.sample_blocks(seeds) if per_hop else [sampler.sample(seeds)]

        in_order = [run(forward, *request) for request in requests]
        permuted = {index: run(shuffled, *requests[index]) for index in order}
        for index, blocks in enumerate(in_order):
            for a, b in zip(blocks, permuted[index]):
                assert_same_block(a, b)

    @settings(max_examples=25, deadline=None)
    @given(data=graph_and_seeds(),
           small=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           extra=st.lists(st.integers(0, 3), min_size=3, max_size=3),
           rng_seed=st.integers(0, 100))
    def test_fanouts_are_nested(self, data, small, extra, rng_seed):
        """Raising any hop's fanout only adds edges, hop by hop."""
        graph, seeds = data
        large = [k + d for k, d in zip(small, extra)]
        narrow = NeighborSampler(graph, fanouts=small, seed=rng_seed).hop_positions(seeds)
        wide = NeighborSampler(graph, fanouts=large, seed=rng_seed).hop_positions(seeds)
        for narrow_hop, wide_hop in zip(as_sets(narrow), as_sets(wide)):
            for etype, kept in narrow_hop.items():
                assert kept <= wide_hop[etype], etype

    @settings(max_examples=25, deadline=None)
    @given(data=graph_and_seeds(),
           fanouts=st.lists(st.one_of(st.none(), st.integers(1, 3)), min_size=1, max_size=3),
           epoch=st.integers(0, 3))
    def test_hop_positions_of_a_seed_set_is_the_union_of_per_seed_draws(
        self, data, fanouts, epoch
    ):
        graph, seeds = data
        sampler = NeighborSampler(graph, fanouts=fanouts, seed=2)
        sampler.resample(epoch)
        together = as_sets(sampler.hop_positions(seeds))
        union = [{etype: set() for etype in graph.canonical_etypes} for _ in fanouts]
        for seed in seeds:
            for hop, per_seed in zip(union, as_sets(sampler.hop_positions([seed]))):
                for etype, kept in per_seed.items():
                    hop[etype] |= kept
        assert together == union

    @settings(max_examples=25, deadline=None)
    @given(data=graph_and_seeds(), fanout=st.integers(1, 3), epoch=st.integers(0, 3))
    def test_one_hop_draw_matches_a_per_destination_reference(self, data, fanout, epoch):
        """Each (relation, destination) keeps its ``fanout`` smallest keys,
        a key being the splitmix64 mix of the epoch salt with the edge's
        (relation id, relation-local position)."""
        graph, seeds = data
        sampler = NeighborSampler(graph, fanouts=(fanout,), seed=4)
        sampler.resample(epoch)
        expected = {}
        for relation, etype in enumerate(graph.canonical_etypes):
            dst_global = graph.edges_per_relation[etype][1] + graph.node_type_offset(etype[2])
            kept = []
            for seed in np.unique(seeds):
                positions = np.flatnonzero(dst_global == seed)
                words = (np.uint64(relation) << np.uint64(32)) | positions.astype(np.uint64)
                keys = _splitmix64(words ^ sampler._salt)
                kept += positions[np.argsort(keys)[:fanout]].tolist()
            expected[etype] = set(kept)
        assert as_sets(sampler.hop_positions(seeds)) == [expected]

    def test_draw_counters(self):
        """``draw_misses`` counts destinations drawn per hop; ``draw_hits``
        counts the ones a merged call skipped as already drawn."""
        from repro.graph import HeteroGraph

        # a0 <-> a1: hop 2 of a merged call reaches a0 again.
        pair = HeteroGraph({"a": 2}, {("a", "to", "a"): (np.array([0, 1]), np.array([1, 0]))})
        merged = NeighborSampler(pair, fanouts=(None, None, None))
        merged.sample([0])
        assert (merged.draw_misses, merged.draw_hits) == (2, 1)
        per_hop = NeighborSampler(pair, fanouts=(None, None, None))
        per_hop.sample_blocks([0])
        assert (per_hop.draw_misses, per_hop.draw_hits) == (1 + 2 + 2, 0)


class TestBlockExecution:
    """Compiled execution on blocks vs the eager full-graph reference."""

    @pytest.mark.parametrize("model", MODEL_NAMES)
    @pytest.mark.parametrize("config_label", ["U", "C+R"])
    def test_full_fanout_block_matches_reference_at_seeds(self, model, config_label,
                                                          small_graph, rng):
        from repro.frontend.config import CONFIGURATIONS

        options = CONFIGURATIONS[config_label].with_(emit_backward=False)
        module = compile_model(model, small_graph, in_dim=DIM, out_dim=DIM,
                               options=options, seed=3)
        reference = REFERENCE_CLASSES[model](small_graph, DIM, DIM, seed=3)
        reference.load_parameters({k: p.data for k, p in module.parameters_by_name.items()})
        features = rng.standard_normal((small_graph.num_nodes, DIM))
        full = reference.forward(features)
        key = next(iter(full))

        seeds = np.array([1, 7, 19, 33, 50])
        block = sample_block(small_graph, seeds, fanouts=(None,), seed=2)
        binding = module.bind(block.graph)
        block_out = binding.forward(block.gather_features(features))[key]
        np.testing.assert_allclose(
            block.seed_outputs(block_out), full[key].data[seeds], atol=1e-8
        )

    @settings(max_examples=10, deadline=None)
    @given(data=graph_and_seeds(), rng_seed=st.integers(0, 50))
    def test_rgcn_block_execution_property(self, data, rng_seed):
        """The execution-equivalence property under random graphs and seeds."""
        graph, seeds = data
        module = compile_model(
            "rgcn", graph, in_dim=DIM, out_dim=DIM,
            options=CompilerOptions(emit_backward=False), seed=1,
        )
        reference = REFERENCE_CLASSES["rgcn"](graph, DIM, DIM, seed=1)
        reference.load_parameters({k: p.data for k, p in module.parameters_by_name.items()})
        features = np.random.default_rng(rng_seed).standard_normal((graph.num_nodes, DIM))
        full = reference.forward(features)
        key = next(iter(full))

        block = sample_block(graph, seeds, fanouts=(None,), seed=rng_seed)
        binding = module.bind(block.graph)
        block_out = binding.forward(block.gather_features(features))[key]
        np.testing.assert_allclose(
            block.seed_outputs(block_out), full[key].data[seeds], atol=1e-8
        )
