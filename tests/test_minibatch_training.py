"""Equivalence lockdown for the ``repro.train`` minibatch-training subsystem.

The central contract: minibatch training over sampled blocks is *the same
computation* as full-graph training when sampling is exact.  With
``fanouts=(None,)`` and gradient accumulation over the whole epoch:

* a single accumulation window covering every node executes the identical
  kernel sequence on an identical block graph, so gradients **and** the
  post-step parameters are bit-identical to full-graph training
  (``np.array_equal``, no tolerance) for RGCN, RGAT, and HGT;
* a multi-minibatch partition computes the same sums in a different
  floating-point association, so it is pinned to tight fp tolerance instead.

The suite also locks the stale-backward guard (interleaving another
binding's forward between a forward/backward pair must raise, not corrupt
gradients) and the multi-layer per-hop execution path against full-graph
multi-layer training.
"""

import numpy as np
import pytest

from repro.frontend import compile_model
from repro.graph import NeighborSampler, random_hetero_graph
from repro.graph.generators import random_labels
from repro.models import MODEL_NAMES
from repro.runtime import MultiLayerModule
from repro.tensor import optim
from repro.train import MinibatchTrainer, mean_squared_error, softmax_cross_entropy

DIM = 8
LR = 0.5


@pytest.fixture(scope="module")
def train_graph():
    return random_hetero_graph(
        num_nodes=60, num_edges=300, num_node_types=3, num_edge_types=6, seed=3, name="train"
    )


@pytest.fixture(scope="module")
def train_features(train_graph):
    return np.random.default_rng(0).standard_normal((train_graph.num_nodes, DIM))


@pytest.fixture(scope="module")
def train_labels(train_graph):
    return random_labels(train_graph, DIM, seed=1)


def full_graph_epoch(model, graph, features, labels, lr=LR, seed=7):
    """One step of classic full-graph mean-loss training; returns the module
    and its pre-step gradients."""
    module = compile_model(model, graph, in_dim=DIM, out_dim=DIM, seed=seed)
    optimizer = optim.SGD(module.parameters(), lr=lr)
    module.zero_grad()
    logits = module.forward(features)[module.output_name]
    _, grad = softmax_cross_entropy(logits, labels)
    module.backward({module.output_name: grad / graph.num_nodes})
    grads = {name: p.grad.copy() for name, p in module.parameters_by_name.items()}
    optimizer.step()
    return module, grads


class TestFullAccumulationEquivalence:
    """fanouts=(None,) + accumulation over all minibatches vs full-graph."""

    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_single_window_epoch_is_bit_identical(self, model, train_graph, train_features,
                                                  train_labels):
        """One minibatch covering every node, full accumulation: the block IS
        the graph, so gradients and updated parameters match bit for bit."""
        reference, reference_grads = full_graph_epoch(
            model, train_graph, train_features, train_labels
        )
        module = compile_model(model, train_graph, in_dim=DIM, out_dim=DIM, seed=7)
        trainer = MinibatchTrainer(
            module, train_graph, train_features, train_labels,
            lr=LR, batch_size=None, accumulation_steps=None, fanouts=(None,),
        )
        trainer.epoch()
        for name, parameter in module.parameters_by_name.items():
            assert np.array_equal(parameter.grad, reference_grads[name]), name
            assert np.array_equal(
                parameter.data, reference.parameters_by_name[name].data
            ), name

    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_multi_minibatch_accumulation_matches_full_graph(self, model, train_graph,
                                                             train_features, train_labels):
        """Four minibatches accumulated into one step sum the identical
        per-edge contributions; only fp association differs, so the match is
        pinned at 1e-10 relative instead of bitwise."""
        _, reference_grads = full_graph_epoch(model, train_graph, train_features, train_labels)
        module = compile_model(model, train_graph, in_dim=DIM, out_dim=DIM, seed=7)
        trainer = MinibatchTrainer(
            module, train_graph, train_features, train_labels,
            lr=LR, batch_size=15, accumulation_steps=None, fanouts=(None,),
        )
        record = trainer.epoch()
        assert record.num_minibatches == 4 and record.num_steps == 1
        for name, parameter in module.parameters_by_name.items():
            np.testing.assert_allclose(
                parameter.grad, reference_grads[name], rtol=1e-10, atol=1e-12, err_msg=name
            )

    def test_full_coverage_block_reproduces_parent_structure(self, train_graph):
        """The premise of bit-identity: seeds covering every node with
        unbounded fanout yield a block structurally identical to the parent."""
        sampler = NeighborSampler(train_graph, fanouts=(None,), seed=0)
        block = sampler.sample(np.random.default_rng(3).permutation(train_graph.num_nodes))
        np.testing.assert_array_equal(block.node_map, np.arange(train_graph.num_nodes))
        assert block.num_edges == train_graph.num_edges
        for etype, (src, dst) in train_graph.edges_per_relation.items():
            block_src, block_dst = block.graph.edges_per_relation[etype]
            np.testing.assert_array_equal(block_src, src)
            np.testing.assert_array_equal(block_dst, dst)

    def test_mse_objective_equivalence(self, train_graph, train_features):
        """The MSE path follows the same window-mean gradient contract."""
        targets = np.random.default_rng(5).standard_normal((train_graph.num_nodes, DIM))
        module = compile_model("rgcn", train_graph, in_dim=DIM, out_dim=DIM, seed=7)
        module.zero_grad()
        out = module.forward(train_features)[module.output_name]
        _, grad = mean_squared_error(out, targets)
        module.backward({module.output_name: grad / train_graph.num_nodes})
        reference_grads = {k: p.grad.copy() for k, p in module.parameters_by_name.items()}

        trained = compile_model("rgcn", train_graph, in_dim=DIM, out_dim=DIM, seed=7)
        trainer = MinibatchTrainer(
            trained, train_graph, train_features, targets, objective="mse",
            lr=LR, batch_size=None, accumulation_steps=None,
        )
        trainer.epoch()
        for name, parameter in trained.parameters_by_name.items():
            assert np.array_equal(parameter.grad, reference_grads[name]), name


class TestStaleBackwardGuard:
    """Interleaving another binding's forward between a forward/backward
    pair must raise the bind-generation error, never corrupt gradients."""

    def test_interleaved_forward_raises_between_pair(self, train_graph, train_features,
                                                     train_labels):
        module = compile_model("rgcn", train_graph, in_dim=DIM, out_dim=DIM, seed=7)
        sampler = NeighborSampler(train_graph, fanouts=(None,), seed=0)
        # The same seed set twice: identical block sizes land in one pool
        # bucket, so the two bindings share a pooled arena.
        block_a = sampler.sample(np.arange(0, 30))
        block_b = sampler.sample(np.arange(0, 30))
        binding_a = module.bind(block_a.graph)
        binding_b = module.bind(block_b.graph)
        assert binding_a.arena is binding_b.arena

        features_a = block_a.gather_features(train_features)
        features_b = block_b.gather_features(train_features)
        out_a = binding_a.forward(features_a)[module.output_name]
        binding_b.forward(features_b)
        with pytest.raises(RuntimeError, match="stale"):
            binding_a.backward({module.output_name: np.zeros_like(out_a)})

    def test_trainer_ordering_never_trips_the_guard(self, train_graph, train_features,
                                                    train_labels):
        """The trainer runs each minibatch's forward+backward as a pair, so a
        full multi-minibatch epoch never hits the guard."""
        module = compile_model("rgcn", train_graph, in_dim=DIM, out_dim=DIM, seed=7)
        trainer = MinibatchTrainer(
            module, train_graph, train_features, train_labels,
            lr=LR, batch_size=10, accumulation_steps=2, fanouts=(4,),
        )
        trainer.train(2)  # would raise on any stale backward

    def test_multilayer_run_interleaving_raises(self, train_graph, train_features):
        """Two stack runs of one MultiLayerModule interleaved (forward A,
        forward B, backward A) share pooled arenas and must be rejected."""
        stack = MultiLayerModule.build("rgcn", train_graph, dims=(DIM, DIM, DIM), seed=5)
        sampler = NeighborSampler(train_graph, fanouts=(None, None), seed=2)
        seeds = np.array([1, 7, 19, 33, 50])
        blocks = sampler.sample_blocks(seeds)
        run_a = stack.forward_blocks(blocks, train_features)
        merged = sampler.sample(seeds)
        stack.forward_merged(merged, train_features)  # same buckets, same arenas
        inner = blocks[-1]
        grad = np.zeros((inner.num_nodes, DIM))
        with pytest.raises(RuntimeError, match="stale"):
            stack.backward_blocks(run_a, grad)


class TestMultiLayerPerHop:
    """Layer-by-hop execution over per-hop blocks vs full-graph stacks."""

    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_per_hop_forward_matches_full_graph_at_seeds(self, model, train_graph,
                                                         train_features):
        stack = MultiLayerModule.build(model, train_graph, dims=(DIM, DIM, DIM), seed=5)
        full = stack.forward_full(train_features).output
        seeds = np.array([1, 7, 19, 33, 50])
        blocks = NeighborSampler(train_graph, fanouts=(None, None), seed=2).sample_blocks(seeds)
        run = stack.forward_blocks(blocks, train_features)
        np.testing.assert_allclose(run.seed_outputs(), full[seeds], atol=1e-8)

    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_per_hop_gradients_match_full_graph(self, model, train_graph, train_features):
        """Seed-masked loss: per-hop backward through the hop boundaries
        accumulates the same parameter gradients as the full-graph stack."""
        seeds = np.array([1, 7, 19, 33, 50])
        out_grad = np.random.default_rng(8).standard_normal((len(seeds), DIM))

        stack = MultiLayerModule.build(model, train_graph, dims=(DIM, DIM, DIM), seed=5)
        full_run = stack.forward_full(train_features)
        stack.zero_grad()
        full_grad = np.zeros_like(full_run.output)
        full_grad[seeds] = out_grad
        stack.backward_full(full_run, full_grad)
        reference = {k: p.grad.copy() for k, p in stack.parameters_by_name().items()}

        stack.zero_grad()
        blocks = NeighborSampler(train_graph, fanouts=(None, None), seed=2).sample_blocks(seeds)
        run = stack.forward_blocks(blocks, train_features)
        inner = blocks[-1]
        block_grad = np.zeros((inner.num_nodes, DIM))
        block_grad[inner.seed_positions] = out_grad
        stack.backward_blocks(run, block_grad)
        for name, parameter in stack.parameters_by_name().items():
            np.testing.assert_allclose(parameter.grad, reference[name], atol=1e-8, err_msg=name)

    def test_inner_layers_aggregate_strictly_less(self, train_graph, train_features):
        """The point of per-hop execution: the innermost layer touches only
        the seeds' in-edges, not the merged frontier's."""
        stack = MultiLayerModule.build("rgcn", train_graph, dims=(DIM, DIM, DIM), seed=5)
        sampler = NeighborSampler(train_graph, fanouts=(None, None), seed=2)
        seeds = np.array([1, 7, 19, 33, 50])
        blocks = sampler.sample_blocks(seeds)
        run = stack.forward_blocks(blocks, train_features)
        merged_run = stack.forward_merged(sampler.sample(seeds), train_features)
        per_hop = stack.layer_edge_counts(run)
        merged = stack.layer_edge_counts(merged_run)
        assert all(h <= m for h, m in zip(per_hop, merged))
        assert per_hop[-1] < merged[-1]

    def test_trainer_drives_a_stack_per_hop(self, train_graph, train_features, train_labels):
        stack = MultiLayerModule.build("rgcn", train_graph, dims=(DIM, DIM, DIM), seed=5)
        trainer = MinibatchTrainer(
            stack, train_graph, train_features, train_labels,
            optimizer="adam", lr=0.02, batch_size=16, fanouts=(4, 4),
        )
        stats = trainer.train(4)
        curve = stats.loss_curve()
        assert curve[-1] < curve[0]
        assert len(stats.epochs[0].layer_edges) == 2
        # Layer 2 (seed side) aggregates over no more edges than layer 1.
        assert stats.epochs[0].layer_edges[1] <= stats.epochs[0].layer_edges[0]


class TestTrainerBehaviour:
    def test_loss_decreases_under_sampled_fanouts(self, train_graph, train_features,
                                                  train_labels):
        module = compile_model("rgcn", train_graph, in_dim=DIM, out_dim=DIM, seed=7)
        trainer = MinibatchTrainer(
            module, train_graph, train_features, train_labels,
            optimizer="adam", lr=0.02, batch_size=16, fanouts=(4,),
        )
        stats = trainer.train(6)
        curve = stats.loss_curve()
        assert curve[-1] < curve[0]

    def test_epoch_shuffles_are_deterministic_and_differ_by_epoch(self, train_graph,
                                                                  train_features, train_labels):
        module = compile_model("rgcn", train_graph, in_dim=DIM, out_dim=DIM, seed=7)
        trainer = MinibatchTrainer(module, train_graph, train_features, train_labels,
                                   batch_size=16, shuffle_seed=3)
        first_epoch = trainer._epoch_minibatches(0)
        replay = trainer._epoch_minibatches(0)
        for a, b in zip(first_epoch, replay):
            np.testing.assert_array_equal(a, b)
        second_epoch = trainer._epoch_minibatches(1)
        assert any(
            not np.array_equal(a, b) for a, b in zip(first_epoch, second_epoch)
        )
        # Every epoch covers the full training set exactly once.
        np.testing.assert_array_equal(
            np.sort(np.concatenate(first_epoch)), np.sort(trainer.train_ids)
        )

    def test_accumulation_windows_count_optimizer_steps(self, train_graph, train_features,
                                                        train_labels):
        module = compile_model("rgcn", train_graph, in_dim=DIM, out_dim=DIM, seed=7)
        trainer = MinibatchTrainer(module, train_graph, train_features, train_labels,
                                   batch_size=10, accumulation_steps=2)
        record = trainer.epoch()
        assert record.num_minibatches == 6
        assert record.num_steps == 3

    def test_epochs_resample_neighborhoods(self, train_graph, train_features, train_labels):
        module = compile_model("rgcn", train_graph, in_dim=DIM, out_dim=DIM, seed=7)
        trainer = MinibatchTrainer(module, train_graph, train_features, train_labels,
                                   batch_size=16, fanouts=(2,))
        trainer.train(3)
        assert trainer.sampler.epoch == 2  # one resample per epoch, reproducible indices

    def test_summary_reports_hit_rates_and_throughput(self, train_graph, train_features,
                                                      train_labels):
        module = compile_model("rgcn", train_graph, in_dim=DIM, out_dim=DIM, seed=7)
        trainer = MinibatchTrainer(module, train_graph, train_features, train_labels,
                                   batch_size=16, fanouts=(4,))
        trainer.train(2)
        summary = trainer.summary()
        assert summary["epochs"] == 2
        assert summary["seeds_per_s"] > 0
        assert 0.0 <= summary["arena_hit_rate"] <= 1.0
        assert summary["arena_hit_rate"] > 0  # same-bucket blocks reuse pooled arenas

    def test_validation_errors(self, train_graph, train_features, train_labels):
        module = compile_model("rgcn", train_graph, in_dim=DIM, out_dim=DIM, seed=7)

        def build(**kwargs):
            return MinibatchTrainer(module, train_graph, train_features, train_labels, **kwargs)

        with pytest.raises(ValueError, match="batch_size"):
            build(batch_size=0)
        with pytest.raises(ValueError, match="accumulation_steps"):
            build(accumulation_steps=0)
        with pytest.raises(KeyError, match="objective"):
            build(objective="nope")
        with pytest.raises(KeyError, match="optimizer"):
            build(optimizer="nope")
        with pytest.raises(ValueError, match="unique"):
            build(train_ids=[0, 0, 1])
        with pytest.raises(ValueError, match="train_ids"):
            build(train_ids=[train_graph.num_nodes])
        with pytest.raises(ValueError, match="features"):
            MinibatchTrainer(module, train_graph, train_features[:-1], train_labels)
        with pytest.raises(ValueError, match="targets"):
            MinibatchTrainer(module, train_graph, train_features, train_labels[:-1])
        stack = MultiLayerModule.build("rgcn", train_graph, dims=(DIM, DIM, DIM), seed=5)
        with pytest.raises(ValueError, match="fanout"):
            MinibatchTrainer(stack, train_graph, train_features, train_labels, fanouts=(None,))
        with pytest.raises(ValueError, match="fanout"):
            # Merged execution needs the hops too: a 2-layer stack over a
            # 1-hop block starves the outer layer of edges.
            MinibatchTrainer(stack, train_graph, train_features, train_labels,
                             fanouts=(None,), per_hop=False)

    def test_merged_stack_training(self, train_graph, train_features, train_labels):
        """per_hop=False drives a stack over one merged block per minibatch —
        every layer pays the same aggregation work (the pre-per-hop regime)."""
        stack = MultiLayerModule.build("rgcn", train_graph, dims=(DIM, DIM, DIM), seed=5)
        trainer = MinibatchTrainer(
            stack, train_graph, train_features, train_labels,
            optimizer="adam", lr=0.02, batch_size=16, fanouts=(4, 4), per_hop=False,
        )
        record = trainer.epoch()
        assert len(record.layer_edges) == 2
        assert record.layer_edges[0] == record.layer_edges[1]

    def test_optimizer_instance_and_callable_objective_are_adopted(self, train_graph,
                                                                   train_features, train_labels):
        module = compile_model("rgcn", train_graph, in_dim=DIM, out_dim=DIM, seed=7)
        optimizer = optim.SGD(module.parameters(), lr=0.1, momentum=0.9)
        trainer = MinibatchTrainer(
            module, train_graph, train_features, train_labels,
            objective=softmax_cross_entropy, optimizer=optimizer, batch_size=20,
        )
        assert trainer.optimizer is optimizer
        trainer.epoch()
        with pytest.raises(ValueError, match="num_epochs"):
            trainer.train(0)

    def test_objective_validation_errors(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((4, 3))
        with pytest.raises(ValueError, match="2-D"):
            softmax_cross_entropy(rows[0], np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError, match="labels"):
            softmax_cross_entropy(rows, np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError, match="lie in"):
            softmax_cross_entropy(rows, np.full(4, 3))
        with pytest.raises(ValueError, match="share a shape"):
            mean_squared_error(rows, rows[:, :2])

    def test_train_on_a_subset_of_nodes(self, train_graph, train_features, train_labels):
        """train_ids restricts the loss to a seed subset (the usual split)."""
        module = compile_model("rgcn", train_graph, in_dim=DIM, out_dim=DIM, seed=7)
        train_ids = np.arange(0, 30)
        trainer = MinibatchTrainer(module, train_graph, train_features, train_labels,
                                   train_ids=train_ids, batch_size=None,
                                   accumulation_steps=None, lr=LR)
        trainer.epoch()

        reference = compile_model("rgcn", train_graph, in_dim=DIM, out_dim=DIM, seed=7)
        reference.zero_grad()
        logits = reference.forward(train_features)[reference.output_name]
        _, grad_rows = softmax_cross_entropy(logits[train_ids], train_labels[train_ids])
        grad = np.zeros_like(logits)
        grad[train_ids] = grad_rows / len(train_ids)
        reference.backward({reference.output_name: grad})
        for name, parameter in module.parameters_by_name.items():
            np.testing.assert_allclose(
                parameter.grad, reference.parameters_by_name[name].grad,
                rtol=1e-10, atol=1e-12, err_msg=name,
            )
