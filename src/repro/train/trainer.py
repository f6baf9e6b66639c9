"""Minibatch training over sampled blocks.

:class:`MinibatchTrainer` composes the existing runtime pieces end to end:
each epoch it shuffles the training seeds deterministically, partitions them
into minibatches, samples every minibatch's k-hop block (merged, or one
block per hop for multi-layer stacks), binds the schema-compiled module to
the block (pooled arenas), runs forward + backward per binding — parameter
gradients accumulate across the accumulation window's bindings exactly like
gradient accumulation — and steps a :mod:`repro.tensor.optim` optimizer once
per window.

Gradient semantics: every optimizer step applies the *mean* gradient over
its accumulation window.  Objectives are sum-reduced and the trainer divides
each minibatch's seed-row gradient by the window's total seed count, so with
``accumulation_steps=None`` (accumulate the whole epoch, step once) and
``fanouts=(None,)`` an epoch reproduces full-graph mean-loss training
exactly — the equivalence the test suite pins bit-for-bit when one window
covers the whole graph.

Window accumulation is materialised as per-minibatch gradient *leaves*
combined by the canonical pairwise tree of
:func:`~repro.train.collective.tree_reduce` — an association that depends
only on the window's global minibatch order, never on which worker computed
which leaf.  That is the hook :class:`~repro.train.distributed.ShardedTrainer`
builds on: N data-parallel shards all-reduce the same leaves and reduce them
through the same tree, so sharded training reproduces this trainer bit for
bit.

Epoch boundaries call :meth:`~repro.graph.sampler.NeighborSampler.resample`,
so under finite fanouts every epoch draws fresh neighborhoods while any
epoch stays exactly reproducible from the sampler's base seed.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graph.hetero_graph import HeteroGraph
from repro.graph.sampler import Fanout, NeighborSampler
from repro.runtime.module import CompiledRGNNModule
from repro.runtime.multilayer import MultiLayerModule
from repro.runtime.planner import TenantArenaSource
from repro.tensor import optim
from repro.train.collective import tree_reduce
from repro.train.objectives import resolve_objective
from repro.train.stats import EpochStats, TrainStats

#: Named optimizer factories the trainer accepts besides instances.
OPTIMIZERS = {"sgd": optim.SGD, "adam": optim.Adam}


class MinibatchTrainer:
    """Sampled-block minibatch SGD over a compiled module or layer stack.

    Args:
        model: a :class:`~repro.runtime.module.CompiledRGNNModule` (single
            layer, merged blocks) or a
            :class:`~repro.runtime.multilayer.MultiLayerModule` (executed
            layer-by-hop over per-hop blocks unless ``per_hop=False``).
        graph: the parent graph minibatches sample their blocks from.
        features: ``(graph.num_nodes, in_dim)`` node-feature store.
        targets: per-node training targets — integer class labels
            (``cross_entropy``) or a float target matrix (``mse``), indexed
            by parent node id.
        objective: objective name (``"cross_entropy"`` / ``"mse"``) or a
            sum-reduced callable ``(rows, targets) -> (loss_sum, grad_rows)``.
        optimizer: an already-built :class:`repro.tensor.optim.Optimizer`
            over the model's parameters, an optimizer name, or ``None`` for
            SGD.
        lr: learning rate for a trainer-built optimizer.
        train_ids: seed nodes to train over (default: every node).
        batch_size: seeds per minibatch (``None`` = one full minibatch).
        accumulation_steps: minibatches per optimizer step; ``None``
            accumulates the whole epoch into a single step.
        fanouts: per-hop sampling fanouts; defaults to unbounded
            neighborhoods, one hop per model layer.
        per_hop: for multi-layer stacks, execute layer-by-hop over per-hop
            blocks (the default) or every layer over one merged block.
        sampler_seed / shuffle_seed: RNG seeds of the neighbor sampler and
            the per-epoch seed shuffle.
    """

    def __init__(
        self,
        model: Union[CompiledRGNNModule, MultiLayerModule],
        graph: HeteroGraph,
        features: np.ndarray,
        targets: np.ndarray,
        *,
        objective="cross_entropy",
        optimizer=None,
        lr: float = 0.1,
        train_ids=None,
        batch_size: Optional[int] = None,
        accumulation_steps: Optional[int] = 1,
        fanouts: Optional[Sequence[Fanout]] = None,
        per_hop: bool = True,
        sampler_seed: int = 0,
        shuffle_seed: int = 0,
    ):
        self.model = model
        self.graph = graph
        self._is_stack = isinstance(model, MultiLayerModule)
        num_layers = model.num_layers if self._is_stack else 1
        self.per_hop = bool(per_hop) and self._is_stack

        if fanouts is None:
            fanouts = (None,) * num_layers
        if self._is_stack and len(fanouts) != num_layers:
            # Merged execution needs the hops too: an L-layer stack over a
            # (L-1)-hop block silently starves the outer layers of edges.
            raise ValueError(
                f"a layer stack needs one fanout per layer: "
                f"{num_layers} layers but {len(fanouts)} fanouts"
            )
        self.sampler = NeighborSampler(graph, fanouts=fanouts, seed=sampler_seed)

        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] != graph.num_nodes:
            raise ValueError(
                f"features must be (num_nodes, in_dim) = ({graph.num_nodes}, ...), "
                f"got shape {features.shape}"
            )
        self.features = features
        targets = np.asarray(targets)
        if targets.shape[0] != graph.num_nodes:
            raise ValueError(
                f"targets must have one row per node ({graph.num_nodes}), "
                f"got {targets.shape[0]}"
            )
        self.targets = targets
        self.objective = resolve_objective(objective)

        if train_ids is None:
            train_ids = np.arange(graph.num_nodes, dtype=np.int64)
        train_ids = np.asarray(train_ids, dtype=np.int64).reshape(-1)
        if train_ids.size == 0:
            raise ValueError("train_ids must name at least one seed node")
        if len(np.unique(train_ids)) != len(train_ids):
            raise ValueError("train_ids must be unique (each seed contributes one loss row)")
        if train_ids.min() < 0 or train_ids.max() >= graph.num_nodes:
            raise ValueError(f"train_ids must lie in [0, {graph.num_nodes})")
        self.train_ids = train_ids

        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1 (or None for one full minibatch)")
        self.batch_size = batch_size
        if accumulation_steps is not None and accumulation_steps < 1:
            raise ValueError("accumulation_steps must be >= 1 (or None to accumulate the epoch)")
        self.accumulation_steps = accumulation_steps

        if optimizer is None:
            optimizer = "sgd"
        if isinstance(optimizer, str):
            try:
                factory = OPTIMIZERS[optimizer]
            except KeyError:
                raise KeyError(
                    f"unknown optimizer {optimizer!r}; known: {sorted(OPTIMIZERS)}"
                ) from None
            optimizer = factory(model.parameters(), lr=lr)
        self.optimizer = optimizer

        self.shuffle_seed = int(shuffle_seed)
        self.stats = TrainStats()
        self._next_epoch = 0
        self._flat_size = int(sum(p.data.size for p in self.model.parameters()))

    @property
    def num_layers(self) -> int:
        """Model layers — the length of every per-epoch ``layer_edges`` list."""
        return self.model.num_layers if self._is_stack else 1

    @property
    def flat_parameter_size(self) -> int:
        """Total parameter scalars — the length of flat gradient leaves."""
        return self._flat_size

    # ------------------------------------------------------------------
    def _epoch_minibatches(self, epoch: int) -> List[np.ndarray]:
        """Deterministically shuffled seed minibatches for one epoch."""
        order = np.random.default_rng([self.shuffle_seed, epoch]).permutation(self.train_ids)
        size = self.batch_size if self.batch_size is not None else len(order)
        return [order[start:start + size] for start in range(0, len(order), size)]

    def _windows(self, minibatches: List[np.ndarray]) -> List[List[np.ndarray]]:
        """Group minibatches into gradient-accumulation windows."""
        if self.accumulation_steps is None:
            return [minibatches]
        step = self.accumulation_steps
        return [minibatches[start:start + step] for start in range(0, len(minibatches), step)]

    def _train_minibatch(self, seeds: np.ndarray, normalizer: int) -> Tuple[float, int, int, List[int]]:
        """Sample, bind, forward, and backward one minibatch.

        Returns ``(loss_sum, block_nodes, block_edges, per_layer_edges)``.
        """
        targets = self.targets[seeds]
        if self._is_stack:
            if self.per_hop:
                blocks = self.sampler.sample_blocks(seeds)
            else:
                merged = self.sampler.sample(seeds)
                blocks = None
            if blocks is not None:
                run = self.model.forward_blocks(blocks, self.features)
                final = blocks[0]
            else:
                run = self.model.forward_merged(merged, self.features)
                final = merged
            rows = run.seed_outputs()
            loss_sum, grad_rows = self.objective(rows, targets)
            inner = run.blocks[-1]
            grad = np.zeros((inner.num_nodes, rows.shape[1]))
            grad[inner.seed_positions] = grad_rows / normalizer
            if blocks is not None:
                self.model.backward_blocks(run, grad)
            else:
                self.model.backward_merged(run, grad)
            layer_edges = self.model.layer_edge_counts(run)
            return loss_sum, final.num_nodes, sum(layer_edges), layer_edges

        block = self.sampler.sample(seeds)
        binding = self.model.bind(block.graph, label="trainer")
        out = binding.forward(block.gather_features(self.features))[self.model.output_name]
        rows = block.seed_outputs(out)
        loss_sum, grad_rows = self.objective(rows, targets)
        grad = np.zeros_like(out)
        grad[block.seed_positions] = grad_rows / normalizer
        binding.backward({self.model.output_name: grad})
        return loss_sum, block.num_nodes, block.num_edges, [block.num_edges]

    # ------------------------------------------------------------------
    # window-gradient hooks (shared with repro.train.distributed)
    # ------------------------------------------------------------------
    def flat_gradient(self) -> np.ndarray:
        """The model's parameter gradients as one flat float64 vector.

        Parameters whose gradient is unset contribute zeros, so the vector
        always has :attr:`flat_parameter_size` entries in parameter order.
        """
        parts = []
        for parameter in self.model.parameters():
            grad = parameter.grad
            if grad is None:
                parts.append(np.zeros(parameter.data.size))
            else:
                parts.append(np.asarray(grad, dtype=np.float64).ravel())
        return np.concatenate(parts) if parts else np.zeros(0)

    def flat_parameters(self) -> np.ndarray:
        """The model's parameter values as one flat float64 vector."""
        return np.concatenate([
            np.asarray(p.data, dtype=np.float64).ravel() for p in self.model.parameters()
        ])

    def load_flat_parameters(self, flat: np.ndarray) -> None:
        """Overwrite parameter values from a :meth:`flat_parameters` vector."""
        flat = np.asarray(flat, dtype=np.float64).reshape(-1)
        if flat.size != self._flat_size:
            raise ValueError(f"expected {self._flat_size} parameter scalars, got {flat.size}")
        offset = 0
        for parameter in self.model.parameters():
            size = parameter.data.size
            parameter.data[...] = flat[offset:offset + size].reshape(parameter.data.shape)
            offset += size

    def minibatch_gradient(self, seeds: np.ndarray, normalizer: int):
        """One minibatch's isolated gradient leaf.

        Zeroes the model gradients, runs the minibatch's forward + backward
        with seed-row gradients divided by ``normalizer`` (the window's total
        seed count), and returns ``(leaf, (loss_sum, nodes, edges,
        layer_edges))`` where ``leaf`` is the flat gradient vector.
        """
        if normalizer < 1:
            raise ValueError(
                f"window seed count must be >= 1 to normalise gradients, got {normalizer}"
            )
        self.model.zero_grad()
        loss_sum, nodes, edges, layer_edges = self._train_minibatch(seeds, normalizer)
        return self.flat_gradient(), (loss_sum, nodes, edges, layer_edges)

    def apply_window_gradient(self, flat_grad: np.ndarray) -> None:
        """Install a window's combined gradient and take the optimizer step."""
        flat_grad = np.asarray(flat_grad, dtype=np.float64).reshape(-1)
        if flat_grad.size != self._flat_size:
            raise ValueError(f"expected {self._flat_size} gradient scalars, got {flat_grad.size}")
        offset = 0
        for parameter in self.model.parameters():
            size = parameter.data.size
            parameter.grad = flat_grad[offset:offset + size].reshape(parameter.data.shape).copy()
            offset += size
        self.optimizer.step()

    # ------------------------------------------------------------------
    def epoch(self) -> EpochStats:
        """Run one training epoch; returns (and records) its statistics."""
        epoch_index = self._next_epoch
        self.sampler.resample(epoch_index)
        minibatches = self._epoch_minibatches(epoch_index)
        if not any(len(batch) for batch in minibatches):
            # Unreachable through the constructor (train_ids is validated
            # non-empty) but reachable through the sharding hooks; fail with
            # the argument named instead of dividing by a zero seed count.
            raise ValueError(
                f"epoch {epoch_index} has no training seeds to iterate (empty train_ids slice)"
            )
        start = time.perf_counter()
        loss_total = 0.0
        nodes_total = 0
        edges_total = 0
        layer_edges_total: List[int] = []
        steps = 0
        for window in self._windows(minibatches):
            window_seeds = int(sum(len(batch) for batch in window))
            if window_seeds == 0:
                # A zero-seed tail window contributes no gradient; stepping
                # the optimizer on it would desynchronise stateful optimizers
                # (Adam's bias correction) from the sharded replicas.
                continue
            leaves = []
            for seeds in window:
                leaf, (loss_sum, nodes, edges, layer_edges) = self.minibatch_gradient(
                    seeds, window_seeds
                )
                leaves.append(leaf)
                loss_total += loss_sum
                nodes_total += nodes
                edges_total += edges
                if not layer_edges_total:
                    layer_edges_total = [0] * len(layer_edges)
                layer_edges_total = [a + b for a, b in zip(layer_edges_total, layer_edges)]
            self.apply_window_gradient(tree_reduce(leaves))
            steps += 1
        seconds = time.perf_counter() - start
        record = EpochStats(
            epoch=epoch_index,
            loss=loss_total / len(self.train_ids),
            num_seeds=len(self.train_ids),
            num_minibatches=len(minibatches),
            num_steps=steps,
            seconds=seconds,
            block_nodes=nodes_total,
            block_edges=edges_total,
            layer_edges=layer_edges_total,
        )
        self.stats.record(record)
        self._next_epoch += 1
        return record

    def train(self, num_epochs: int) -> TrainStats:
        """Run ``num_epochs`` epochs; returns the accumulated statistics."""
        if num_epochs < 1:
            raise ValueError("num_epochs must be >= 1")
        for _ in range(num_epochs):
            self.epoch()
        return self.stats

    # ------------------------------------------------------------------
    def _arena_pools(self) -> List[TenantArenaSource]:
        """The arena lease sources backing the trainer's bindings, per layer."""
        if self._is_stack:
            layers = zip(self.model.arena_sources, self.model.modules)
        else:
            layers = [(None, self.model)]
        pools = [source if source is not None else module.arena_pool for source, module in layers]
        return [pool for pool in pools if pool is not None]

    def summary(self) -> dict:
        """Run-level report: loss, throughput and arena hit rate."""
        return self.stats.summary(arena_pools=self._arena_pools())
