"""The compile→bind→execute split: schema-specialised modules, graph
bindings, parameter sharing, input validation, and the bucketed arena pool.
"""

import numpy as np
import pytest

from repro.frontend import CompilerOptions, compile_model
from repro.graph import GraphSchema, random_hetero_graph, sample_block
from repro.models import REFERENCE_CLASSES
from repro.runtime import (
    CompiledRGNNModule,
    MemoryPlanner,
    SharedArenaBudget,
    TenantArenaSource,
    dim_bucket,
)
from repro.runtime.context import GraphContext

DIM = 8


@pytest.fixture(scope="module")
def parent_graph():
    return random_hetero_graph(
        num_nodes=150, num_edges=800, num_node_types=3, num_edge_types=6,
        seed=21, name="bindparent",
    )


@pytest.fixture(scope="module")
def parent_features(parent_graph):
    return np.random.default_rng(4).standard_normal((parent_graph.num_nodes, DIM))


class TestGraphSchema:
    def test_schema_matches_and_validates(self, parent_graph):
        schema = GraphSchema.from_graph(parent_graph)
        assert schema.matches(parent_graph)
        sub = parent_graph.subgraph_by_edge_fraction(0.5, seed=1)
        assert schema.matches(sub)
        block = sample_block(parent_graph, [0, 10, 20])
        assert schema.matches(block.graph)

    def test_schema_rejects_different_vocabulary(self, parent_graph, small_graph):
        schema = GraphSchema.from_graph(parent_graph)
        assert not schema.matches(small_graph)
        with pytest.raises(ValueError, match="specialised for"):
            schema.validate_graph(small_graph)


class TestRebinding:
    def test_one_module_many_bindings_shared_parameters(self, parent_graph, parent_features):
        module = compile_model("rgat", parent_graph, in_dim=DIM, out_dim=DIM,
                               options=CompilerOptions(emit_backward=False), seed=9)
        sub = parent_graph.subgraph_by_edge_fraction(0.4, seed=2)
        binding = module.bind(sub)
        assert binding.module is module
        # Parameters live on the module: the binding reads the same objects.
        reference = REFERENCE_CLASSES["rgat"](sub, DIM, DIM, seed=9)
        reference.load_parameters({k: p.data for k, p in module.parameters_by_name.items()})
        out = binding.forward(parent_features)
        ref = reference.forward(parent_features)
        key = next(iter(out))
        np.testing.assert_allclose(out[key], ref[key].data, atol=1e-8)
        # The default binding still answers for the parent graph.
        assert module.graph is parent_graph
        assert module.forward(parent_features)[key].shape == (parent_graph.num_nodes, DIM)

    def test_bind_rejects_schema_mismatch(self, parent_graph, small_graph):
        module = compile_model("rgcn", parent_graph, in_dim=DIM, out_dim=DIM)
        with pytest.raises(ValueError, match="specialised for"):
            module.bind(small_graph)

    def test_unbound_module_raises_until_bound(self, parent_graph):
        bound = compile_model("rgcn", parent_graph, in_dim=DIM, out_dim=DIM)
        unbound = CompiledRGNNModule.for_schema(
            bound.plan, bound.generated, GraphSchema.from_graph(parent_graph), seed=1
        )
        with pytest.raises(RuntimeError, match="not bound"):
            unbound.forward(np.zeros((parent_graph.num_nodes, DIM)))
        binding = unbound.bind(parent_graph)
        out = binding.forward(np.zeros((parent_graph.num_nodes, DIM)))
        assert next(iter(out.values())).shape == (parent_graph.num_nodes, DIM)

    def test_backward_through_binding_accumulates_into_module(self, parent_graph, parent_features):
        module = compile_model("rgcn", parent_graph, in_dim=DIM, out_dim=DIM, seed=5)
        sub = parent_graph.subgraph_by_edge_fraction(0.5, seed=3)
        reference = REFERENCE_CLASSES["rgcn"](sub, DIM, DIM, seed=5)
        reference.load_parameters({k: p.data for k, p in module.parameters_by_name.items()})

        binding = module.bind(sub)
        out = binding.forward(parent_features)
        key = next(iter(out))
        upstream = np.ones_like(out[key])
        grads = binding.backward({key: upstream})

        ref_out = reference.forward(parent_features)
        ref_out[key].backward(upstream)
        ref_params = reference.named_parameter_dict()
        for name, grad in grads.items():
            np.testing.assert_allclose(grad, ref_params[name].grad, atol=1e-7, err_msg=name)
            # Accumulated into the module's (shared) parameters.
            np.testing.assert_allclose(module.parameters_by_name[name].grad, grad, atol=1e-12)


class TestInputValidation:
    """Satellite: mismatched features fail fast with a clear error."""

    @pytest.fixture(scope="class")
    def module(self, parent_graph):
        return compile_model("rgat", parent_graph, in_dim=DIM, out_dim=DIM,
                             options=CompilerOptions(emit_backward=False))

    def test_wrong_row_count(self, module, parent_graph):
        with pytest.raises(ValueError, match="feature rows"):
            module.forward(np.zeros((parent_graph.num_nodes - 3, DIM)))

    def test_wrong_feature_dim(self, module, parent_graph):
        with pytest.raises(ValueError, match="feature dimension"):
            module.forward(np.zeros((parent_graph.num_nodes, DIM + 1)))

    def test_wrong_rank(self, module, parent_graph):
        with pytest.raises(ValueError, match="2-D"):
            module.forward(np.zeros(parent_graph.num_nodes))

    def test_non_numeric_dtype(self, module, parent_graph):
        with pytest.raises(TypeError, match="numeric"):
            module.forward(np.full((parent_graph.num_nodes, DIM), "x", dtype=object))
        with pytest.raises(TypeError, match="numeric"):
            module.forward(np.zeros((parent_graph.num_nodes, DIM), dtype=bool))

    def test_complex_dtype(self, module, parent_graph):
        with pytest.raises(TypeError, match="real-valued"):
            module.forward(np.zeros((parent_graph.num_nodes, DIM), dtype=np.complex128))

    def test_error_names_the_bound_graph(self, module, parent_graph):
        block = sample_block(parent_graph, [0, 1, 2])
        binding = module.bind(block.graph)
        with pytest.raises(ValueError, match=block.graph.name.replace("[", r"\[").replace("]", r"\]")):
            binding.forward(np.zeros((block.num_nodes + 1, DIM)))

    def test_integer_features_are_accepted_and_upcast(self, module, parent_graph):
        out = module.forward(np.zeros((parent_graph.num_nodes, DIM), dtype=np.int32))
        assert next(iter(out.values())).dtype == np.float64


class TestModulePrivatePool:
    """A module's private pool: the one tenant of a four-arena budget."""

    def test_dim_bucket_is_power_of_two_ceiling(self):
        assert dim_bucket(0) == 0
        assert dim_bucket(1) == 1
        assert dim_bucket(2) == 2
        assert dim_bucket(3) == 4
        assert dim_bucket(1000) == 1024
        assert dim_bucket(1024) == 1024

    def test_same_bucket_bindings_share_one_arena(self, parent_graph, parent_features):
        module = compile_model("rgat", parent_graph, in_dim=DIM, out_dim=DIM,
                               options=CompilerOptions(emit_backward=False))
        pool = module.arena_pool
        assert isinstance(pool, TenantArenaSource)
        # Find two differently-sized blocks that land in one size bucket.
        rng = np.random.default_rng(3)
        by_bucket = {}
        pair = None
        for index in range(32):
            seeds = rng.choice(parent_graph.num_nodes, size=4, replace=False)
            block = sample_block(parent_graph, seeds, fanouts=(2,), seed=index)
            bucket = (dim_bucket(block.num_nodes), dim_bucket(block.num_edges),
                      dim_bucket(block.graph.compaction.num_unique))
            other = by_bucket.setdefault(bucket, block)
            if other is not block and other.num_nodes != block.num_nodes:
                pair = (other, block)
                break
        assert pair is not None, "no same-bucket block pair found in 32 draws"
        first, second = pair
        baseline = pool.stats.lookups
        binding_a = module.bind(first.graph)
        binding_b = module.bind(second.graph)
        assert pool.stats.lookups == baseline + 2
        assert pool.stats.hits >= 1
        assert binding_a.arena is binding_b.arena  # pooled slabs, distinct views
        out_a = binding_a.forward(first.gather_features(parent_features))
        out_b = binding_b.forward(second.gather_features(parent_features))
        key = next(iter(out_a))
        assert out_a[key].shape[0] == first.num_nodes
        assert out_b[key].shape[0] == second.num_nodes
        # Re-running A after B still yields A-shaped results (views re-bound).
        again = binding_a.forward(first.gather_features(parent_features))
        assert again[key].shape[0] == first.num_nodes

    def test_lru_bound_evicts_oldest_bucket(self, parent_graph):
        plan_module = compile_model("rgcn", parent_graph, in_dim=DIM, out_dim=DIM,
                                    options=CompilerOptions(emit_backward=False))
        planner = MemoryPlanner(plan_module.plan)
        pool = SharedArenaBudget(max_arenas=2).tenant("module")
        fractions = [0.12, 0.3, 0.6, 1.0]
        for fraction in fractions:
            sub = parent_graph.subgraph_by_edge_fraction(fraction, seed=1)
            pool.lease(planner, GraphContext.cached(sub))
        assert pool.budget.live_arenas <= 2
        assert pool.stats.evictions >= 1
        assert pool.pooled_bytes() == pool.budget.live_bytes > 0

    def test_pool_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            SharedArenaBudget(max_arenas=0)

    def test_modules_sharing_a_plan_keep_private_pools(self, parent_graph):
        options = CompilerOptions(emit_backward=False)
        first = compile_model("rgcn", parent_graph, in_dim=DIM, out_dim=DIM, options=options)
        second = compile_model("rgcn", parent_graph, in_dim=DIM, out_dim=DIM, options=options)
        assert first.plan is second.plan
        assert first.arena_pool.budget is not second.arena_pool.budget
        assert first.arena_pool.budget.max_arenas == 4
        assert first.bind(parent_graph).arena is not second.bind(parent_graph).arena

    def test_default_binding_keeps_exact_private_arena(self, parent_graph):
        """The classic one-graph path must not pay bucket-rounded slabs."""
        module = compile_model("rgcn", parent_graph, in_dim=DIM, out_dim=DIM,
                               options=CompilerOptions(emit_backward=False))
        assert module.arena_pool.stats.lookups == 0  # pool untouched
        exact = MemoryPlanner(module.plan).build_arena(GraphContext.cached(parent_graph))
        assert module.arena.arena_bytes() == exact.arena_bytes()
        pooled = module.bind(parent_graph)  # explicit rebinds do use the pool
        assert module.arena_pool.stats.lookups == 1
        assert pooled.arena is not module.arena
        assert pooled.arena.arena_bytes() >= module.arena.arena_bytes()

    def test_stale_backward_on_shared_pooled_arena_raises(self, parent_graph, parent_features):
        """Interleaved forward/backward across same-arena bindings must error,
        not silently corrupt gradients; sequential fwd+bwd pairs stay exact."""
        module = compile_model("rgcn", parent_graph, in_dim=DIM, out_dim=DIM, seed=7)
        sub_a = parent_graph.subgraph_by_edge_fraction(0.9, seed=1)
        sub_b = parent_graph.subgraph_by_edge_fraction(0.85, seed=2)
        binding_a = module.bind(sub_a)
        binding_b = module.bind(sub_b)
        if binding_a.arena is not binding_b.arena:
            pytest.skip("subgraphs landed in different buckets")
        out_a = binding_a.forward(parent_features)
        key = next(iter(out_a))
        binding_b.forward(parent_features)  # overwrites the shared slabs
        with pytest.raises(RuntimeError, match="stale"):
            binding_a.backward({key: np.ones_like(out_a[key])})
        # Sequential pairs (the supported gradient-accumulation pattern) match
        # the reference on each subgraph.
        for sub, binding in [(sub_a, binding_a), (sub_b, binding_b)]:
            module.zero_grad()
            reference = REFERENCE_CLASSES["rgcn"](sub, DIM, DIM, seed=7)
            reference.load_parameters({k: p.data for k, p in module.parameters_by_name.items()})
            out = binding.forward(parent_features)
            grads = binding.backward({key: np.ones_like(out[key])})
            ref_out = reference.forward(parent_features)
            ref_out[key].backward(np.ones_like(out[key]))
            ref_params = reference.named_parameter_dict()
            for name, grad in grads.items():
                np.testing.assert_allclose(grad, ref_params[name].grad, atol=1e-7, err_msg=name)

    def test_arena_pool_reuse_during_serving_blocks(self, parent_graph, parent_features):
        module = compile_model("hgt", parent_graph, in_dim=DIM, out_dim=DIM,
                               options=CompilerOptions(emit_backward=False))
        rng = np.random.default_rng(0)
        for index in range(6):
            seeds = rng.choice(parent_graph.num_nodes, size=4, replace=False)
            block = sample_block(parent_graph, seeds, fanouts=(3,), seed=index)
            binding = module.bind(block.graph)
            binding.forward(block.gather_features(parent_features))
        pool = module.arena_pool
        # After warmup the block-size buckets repeat: the pool must be hitting.
        assert pool.stats.hits >= 3
        assert pool.budget.live_arenas <= pool.budget.max_arenas
