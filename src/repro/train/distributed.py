"""Data-parallel sharded minibatch training with bit-identity to one worker.

:class:`ShardedTrainer` partitions each epoch's deterministically shuffled
seed minibatches across ``num_shards`` workers and trains one model replica
per worker:

* every worker derives the epoch's *global* minibatch list from the shared
  ``(shuffle_seed, epoch)`` stream — exactly the list a 1-worker
  :class:`~repro.train.trainer.MinibatchTrainer` iterates — and takes the
  minibatches whose global index is congruent to its rank
  (:func:`shard_minibatches`: disjoint, covering, deterministic);
* each worker's sampler runs its own ``(sampler_seed, epoch, shard)`` epoch
  stream (:meth:`~repro.graph.sampler.NeighborSampler.resample`), so under
  finite fanouts shards draw disjoint neighborhood streams;
* per accumulation window, each worker fills its rows of a zero-padded
  ``(window_len, num_params)`` leaf matrix with its minibatches' gradient
  leaves, the :class:`~repro.train.collective.Collective` all-reduces the
  matrix (each row has exactly one non-zero contributor, so the rank sum is
  exact), and every worker reduces the rows through the same canonical
  :func:`~repro.train.collective.tree_reduce` the 1-worker trainer uses,
  then steps its own optimizer replica.

**Bit-identity.** Because the window-mean normalisation makes shard sums
exact and the leaf association is a fixed function of the window's global
minibatch order (never of the shard count), N-shard training under exact
sampling (``fanouts=(None,)``) reproduces 1-worker training bit for bit —
``np.array_equal`` on window gradients and post-step parameters, for RGCN,
RGAT, and HGT, under full-epoch and windowed accumulation, via both
collectives (``tests/test_sharded_training.py``).  The cost of the guarantee
is leaf-granular traffic (``window_len × num_params`` doubles per window
instead of ``num_params``); a reproducible-summation gradient exchange that
collapses this back to one vector is recorded as a ROADMAP follow-on.

Workers run as threads under :class:`~repro.train.collective.LocalCollective`
(numpy releases the GIL; per-worker busy time is thread CPU time) and as
forked processes under
:class:`~repro.train.collective.SharedMemoryCollective`.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.graph.hetero_graph import HeteroGraph
from repro.graph.sampler import Fanout
from repro.train.collective import Collective, make_collective, tree_reduce
from repro.train.stats import DistributedTrainStats, EpochStats, ShardEpochStats
from repro.train.trainer import MinibatchTrainer


def shard_minibatches(num_minibatches: int, num_shards: int) -> List[np.ndarray]:
    """Partition global minibatch indices round-robin across shards.

    Returns one index array per shard: shard ``k`` owns the minibatches whose
    global index ``i`` satisfies ``i % num_shards == k``.  The partition is
    disjoint, covering, deterministic, and balanced to within one minibatch;
    shards beyond ``num_minibatches`` simply own nothing (a small tail epoch
    must idle the surplus workers, not crash them).
    """
    if num_minibatches < 0:
        raise ValueError(f"num_minibatches must be >= 0, got {num_minibatches}")
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    return [
        np.arange(shard, num_minibatches, num_shards, dtype=np.int64)
        for shard in range(num_shards)
    ]


def _optimizer_state(optimizer) -> Dict[str, object]:
    """Marshal an optimizer's mutable state (momentum/Adam buffers) as arrays."""
    state: Dict[str, object] = {}
    for name in ("_velocity", "_m", "_v"):
        buffers = getattr(optimizer, name, None)
        if buffers is not None:
            state[name] = [np.array(buffer) for buffer in buffers]
    if hasattr(optimizer, "_step"):
        state["_step"] = optimizer._step
    return state


def _load_optimizer_state(optimizer, state: Dict[str, object]) -> None:
    """Restore state captured by :func:`_optimizer_state` into a replica."""
    for name, value in state.items():
        if name == "_step":
            optimizer._step = value
            continue
        for target, source in zip(getattr(optimizer, name), value):
            target[...] = source


class ShardedTrainer:
    """Data-parallel sharded training over ``num_shards`` model replicas.

    Args:
        model_factory: zero-argument callable building one model replica
            (e.g. ``lambda: compile_model("rgcn", graph, ...)``); called once
            per shard, after which rank 0's parameters are broadcast so every
            replica starts identical even under a nondeterministic factory.
        graph / features / targets: as for
            :class:`~repro.train.trainer.MinibatchTrainer`.
        num_shards: data-parallel worker count (>= 1).
        collective: a registered collective name (``"local"`` in-process
            threads, ``"shm"``/``"multiprocessing"`` forked processes) or an
            already-built :class:`~repro.train.collective.Collective` whose
            world size matches.
        optimizer: an optimizer *name* (each replica builds its own instance;
            sharing one instance across replicas is rejected).
        remaining keyword arguments: as for ``MinibatchTrainer``.
    """

    def __init__(
        self,
        model_factory: Callable[[], object],
        graph: HeteroGraph,
        features: np.ndarray,
        targets: np.ndarray,
        *,
        num_shards: int,
        collective="local",
        objective="cross_entropy",
        optimizer: Optional[str] = None,
        lr: float = 0.1,
        train_ids=None,
        batch_size: Optional[int] = None,
        accumulation_steps: Optional[int] = 1,
        fanouts: Optional[Sequence[Fanout]] = None,
        per_hop: bool = True,
        sampler_seed: int = 0,
        shuffle_seed: int = 0,
    ):
        if not callable(model_factory):
            raise TypeError("model_factory must be a zero-argument callable building one replica")
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if optimizer is not None and not isinstance(optimizer, str):
            raise TypeError(
                "ShardedTrainer needs an optimizer *name* — each shard builds its own "
                "replica instance; one shared optimizer cannot step N replicas"
            )
        self.num_shards = int(num_shards)
        self._trainers = [
            MinibatchTrainer(
                model_factory(), graph, features, targets,
                objective=objective, optimizer=optimizer, lr=lr, train_ids=train_ids,
                batch_size=batch_size, accumulation_steps=accumulation_steps,
                fanouts=fanouts, per_hop=per_hop,
                sampler_seed=sampler_seed, shuffle_seed=shuffle_seed,
            )
            for _ in range(self.num_shards)
        ]
        template = self._trainers[0]
        self.model = template.model
        self.train_ids = template.train_ids
        flat_size = template.flat_parameter_size

        # Widest all-reduce payload: the leaf matrix of the largest window,
        # the per-window stats vector, and the initial parameter broadcast.
        minibatch_count = len(template._epoch_minibatches(0))
        window_len = max(len(window) for window in template._windows([None] * minibatch_count))
        capacity = max(window_len * flat_size, flat_size, 3 + template.num_layers)
        if isinstance(collective, Collective):
            if collective.world_size != self.num_shards:
                raise ValueError(
                    f"collective world size {collective.world_size} != num_shards {self.num_shards}"
                )
            self.collective = collective
        else:
            self.collective = make_collective(collective, self.num_shards, capacity)
        self._multiprocess = bool(getattr(self.collective, "runs_in_processes", False))

        self.stats = DistributedTrainStats(num_shards=self.num_shards)
        self._next_epoch = 0

    # ------------------------------------------------------------------
    # the per-worker loop (identical for thread and process workers)
    # ------------------------------------------------------------------
    def _worker_epoch(self, rank: int, trainer: MinibatchTrainer, epoch: int) -> Dict[str, object]:
        collective = self.collective
        trainer.sampler.resample(epoch, shard=rank)
        minibatches = trainer._epoch_minibatches(epoch)
        num_layers = trainer.num_layers
        flat_size = trainer.flat_parameter_size
        loss_total = 0.0
        nodes_total = 0
        edges_total = 0.0
        layer_edges_total = np.zeros(num_layers)
        steps = 0
        busy = 0.0
        shard_minibatch_count = 0
        shard_seed_count = 0
        global_index = 0
        for window in trainer._windows(minibatches):
            window_seeds = int(sum(len(batch) for batch in window))
            if window_seeds == 0:
                global_index += len(window)
                continue
            leaves = np.zeros((len(window), flat_size))
            stats_vector = np.zeros(3 + num_layers)
            start = time.thread_time()
            for offset, seeds in enumerate(window):
                if (global_index + offset) % self.num_shards != rank:
                    continue
                leaf, (loss_sum, nodes, edges, layer_edges) = trainer.minibatch_gradient(
                    seeds, window_seeds
                )
                leaves[offset] = leaf
                stats_vector[0] += loss_sum
                stats_vector[1] += nodes
                stats_vector[2] += edges
                stats_vector[3:] += layer_edges
                shard_minibatch_count += 1
                shard_seed_count += len(seeds)
            busy += time.thread_time() - start
            # Consume the reduced leaves *before* the stats all-reduce: the
            # local collective hands every rank the one shared result buffer,
            # which the next operation overwrites.
            reduced_leaves = collective.all_reduce(rank, leaves)
            start = time.thread_time()
            trainer.apply_window_gradient(tree_reduce(list(reduced_leaves)))
            busy += time.thread_time() - start
            reduced_stats = collective.all_reduce(rank, stats_vector)
            loss_total += float(reduced_stats[0])
            nodes_total += int(reduced_stats[1])
            edges_total += float(reduced_stats[2])
            layer_edges_total += reduced_stats[3:]
            steps += 1
            global_index += len(window)
        return {
            "epoch": epoch,
            "loss_total": loss_total,
            "num_minibatches": len(minibatches),
            "num_steps": steps,
            "block_nodes": nodes_total,
            "block_edges": int(edges_total),
            "layer_edges": [int(value) for value in layer_edges_total],
            "shard_minibatches": shard_minibatch_count,
            "shard_seeds": shard_seed_count,
            "busy_seconds": busy,
        }

    def _worker_run(self, rank: int, start_epoch: int, num_epochs: int) -> List[Dict[str, object]]:
        trainer = self._trainers[rank]
        # Rank 0's initial parameters are the model; replicas adopt them.
        synced = self.collective.broadcast(rank, trainer.flat_parameters(), root=0)
        trainer.load_flat_parameters(synced)
        return [
            self._worker_epoch(rank, trainer, epoch)
            for epoch in range(start_epoch, start_epoch + num_epochs)
        ]

    # ------------------------------------------------------------------
    # launchers
    # ------------------------------------------------------------------
    def _run_threads(self, start_epoch: int, num_epochs: int) -> List[List[Dict[str, object]]]:
        results: List[Optional[List[Dict[str, object]]]] = [None] * self.num_shards
        errors: List[BaseException] = []

        def run(rank: int) -> None:
            try:
                results[rank] = self._worker_run(rank, start_epoch, num_epochs)
            except BaseException as error:  # noqa: BLE001 - re-raised in the driver
                errors.append(error)
                # Release peers blocked at the rendezvous so join() returns.
                barrier = getattr(self.collective, "_barrier", None)
                if barrier is not None and hasattr(barrier, "abort"):
                    barrier.abort()

        threads = [
            threading.Thread(target=run, args=(rank,), name=f"shard-{rank}")
            for rank in range(self.num_shards)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return [result for result in results if result is not None]

    def _run_processes(self, start_epoch: int, num_epochs: int) -> List[List[Dict[str, object]]]:
        context = multiprocessing.get_context("fork")
        queue = context.Queue()

        def child(rank: int) -> None:
            try:
                records = self._worker_run(rank, start_epoch, num_epochs)
                trainer = self._trainers[rank]
                queue.put((
                    "ok", rank, records,
                    trainer.flat_parameters(), _optimizer_state(trainer.optimizer),
                ))
            except BaseException:  # noqa: BLE001 - marshalled to the parent
                queue.put(("error", rank, traceback.format_exc(), None, None))
                barrier = getattr(self.collective, "_barrier", None)
                if barrier is not None and hasattr(barrier, "abort"):
                    barrier.abort()

        processes = [
            context.Process(target=child, args=(rank,), name=f"shard-{rank}")
            for rank in range(self.num_shards)
        ]
        for process in processes:
            process.start()
        payloads = [queue.get() for _ in processes]
        for process in processes:
            process.join()
        failures = [payload for payload in payloads if payload[0] == "error"]
        if failures:
            raise RuntimeError(
                f"shard {failures[0][1]} failed in a worker process:\n{failures[0][2]}"
            )
        # Fork gave each child a copy-on-write replica; fold the trained
        # parameters and optimizer state back into the parent's replicas so
        # later train() calls (or reads of self.model) see the real run.
        results: List[List[Dict[str, object]]] = [[] for _ in range(self.num_shards)]
        for _, rank, records, flat_params, optimizer_state in payloads:
            results[rank] = records
            self._trainers[rank].load_flat_parameters(flat_params)
            _load_optimizer_state(self._trainers[rank].optimizer, optimizer_state)
        return results

    # ------------------------------------------------------------------
    def train(self, num_epochs: int) -> DistributedTrainStats:
        """Run ``num_epochs`` sharded epochs; returns the accumulated stats."""
        if num_epochs < 1:
            raise ValueError("num_epochs must be >= 1")
        start_epoch = self._next_epoch
        launcher = self._run_processes if self._multiprocess else self._run_threads
        per_rank = launcher(start_epoch, num_epochs)
        for index in range(num_epochs):
            rank_records = [per_rank[rank][index] for rank in range(self.num_shards)]
            reference = rank_records[0]
            max_busy = max(record["busy_seconds"] for record in rank_records)
            self.stats.record(EpochStats(
                epoch=reference["epoch"],
                loss=reference["loss_total"] / len(self.train_ids),
                num_seeds=len(self.train_ids),
                num_minibatches=reference["num_minibatches"],
                num_steps=reference["num_steps"],
                seconds=max_busy,
                block_nodes=reference["block_nodes"],
                block_edges=reference["block_edges"],
                layer_edges=list(reference["layer_edges"]),
            ))
            for rank, record in enumerate(rank_records):
                self.stats.record_shard(ShardEpochStats(
                    shard=rank,
                    epoch=record["epoch"],
                    num_minibatches=record["shard_minibatches"],
                    num_seeds=record["shard_seeds"],
                    busy_seconds=record["busy_seconds"],
                ))
        self._next_epoch += num_epochs
        return self.stats

    def epoch(self) -> EpochStats:
        """Run one sharded epoch; returns its (global) record."""
        self.train(1)
        return self.stats.epochs[-1]

    # ------------------------------------------------------------------
    @property
    def trainers(self) -> List[MinibatchTrainer]:
        """The per-shard replica trainers (rank order)."""
        return list(self._trainers)

    def summary(self) -> Dict[str, object]:
        """Run-level report including per-shard and collective telemetry."""
        return self.stats.summary(
            arena_pools=[
                pool for trainer in self._trainers for pool in trainer._arena_pools()
            ],
            collective=self.collective,
        )
