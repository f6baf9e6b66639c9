"""Minibatch block sampling: per-request subgraphs for serving and training.

Production GNN inference does not run a compiled layer over one static full
graph — each request names a handful of *seed* nodes, and the system samples
their k-hop incoming neighborhood (capped per relation by a *fanout*) into a
compacted minibatch *block*.  This module produces such blocks as ordinary
:class:`~repro.graph.hetero_graph.HeteroGraph` objects that preserve the
parent's full schema (same node-type and relation vocabulary, in the same
order, with empty relations kept), so a schema-specialised compiled module
binds them directly — ``module.bind(block.graph)`` — and the whole existing
machinery (segment pointers, :class:`~repro.graph.compaction.CompactionIndex`
compact materialization, degree normalisation) applies to blocks unchanged.

A :class:`MinibatchBlock` additionally carries the index maps serving needs:
``node_map`` gathers parent-graph features into block order, and
``seed_positions`` scatters block outputs back to the request's seeds.

Sampling semantics (DGL-style incoming-neighbor sampling):

* a draw is a pure function of ``(base seed, epoch, shard, relation,
  destination, fanout)``: every in-edge gets a 64-bit key (a splitmix64 mix
  of a per-``(epoch, shard)`` salt with its relation id and relation-local
  position), and each ``(relation, destination)`` keeps its ``fanout``
  smallest keys.  Draws therefore do not depend on call order, the union of
  per-seed draws is the draw of the seed union, and fanouts nest — the draw
  at fanout ``k`` is a subset of the draw at any larger fanout;
* hop 1 draws the seeds' incoming edges; hop ``k`` repeats from the nodes
  hop ``k-1`` reached;
* a merged :meth:`NeighborSampler.sample` draws each destination once, at
  the first hop that reaches it and with that hop's fanout, so per-relation
  in-degrees in a merged block never exceed the cap of the hop that drew
  the node;
* :meth:`NeighborSampler.resample` starts a new epoch by deriving the salt
  from ``(seed, epoch)`` — or ``(seed, epoch, shard)`` for a data-parallel
  worker's sampler — so epochs (and shards) draw *different* neighborhoods
  while any epoch is exactly reproducible from the base seed; ``shard=0``
  salts the very stream unsharded training uses (numpy's ``SeedSequence``
  absorbs the trailing zero word), so a 1-shard world reproduces plain
  training by construction, while shards >= 1 never alias any unsharded
  epoch;
* ``fanout=None`` keeps the full neighborhood, in which case every seed's
  one-hop aggregation over the block is *exact*: it matches the full-graph
  computation restricted to the seeds (the property the sampler tests pin).

Besides the merged block, :meth:`NeighborSampler.sample_blocks` emits one
block *per hop* (outermost hop first), the message-flow-graph form multilayer
models execute layer-by-hop: layer ``l`` of an ``L``-layer model runs over
``blocks[l-1]`` and only the rows of the next block's nodes survive the hop
boundary, so deep layers stop paying full-frontier aggregation cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.hetero_graph import CanonicalEtype, HeteroGraph
from repro.graph.schema import GraphSchema

#: Per-hop fanout: max sampled incoming edges per (node, relation); None = all.
Fanout = Optional[int]


@dataclass
class MinibatchBlock:
    """A compacted sampled subgraph plus its parent-graph index maps.

    Attributes:
        graph: the block as a :class:`HeteroGraph` with the parent's full
            schema; node ids are block-local (contiguous, grouped by type).
        parent: the graph the block was sampled from.
        node_map: ``(block.num_nodes,)`` — parent global node id of every
            block node (the feature-gather map).
        seeds: the requested seed nodes, as parent global ids, request order.
        seed_positions: ``(len(seeds),)`` — block global node id of every
            seed (the output-scatter map).
        fanouts: the per-hop fanout configuration the block was sampled with.
    """

    graph: HeteroGraph
    parent: HeteroGraph
    node_map: np.ndarray
    seeds: np.ndarray
    seed_positions: np.ndarray
    fanouts: Tuple[Fanout, ...]

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def gather_features(self, parent_features: np.ndarray) -> np.ndarray:
        """Restrict a parent-graph feature matrix to the block's nodes."""
        parent_features = np.asarray(parent_features)
        if parent_features.shape[0] != self.parent.num_nodes:
            raise ValueError(
                f"expected {self.parent.num_nodes} parent feature rows "
                f"(graph {self.parent.name!r}), got {parent_features.shape[0]}"
            )
        return parent_features[self.node_map]

    def seed_outputs(self, block_rows: np.ndarray) -> np.ndarray:
        """Extract the per-seed rows from a block-shaped output matrix."""
        block_rows = np.asarray(block_rows)
        if block_rows.shape[0] != self.graph.num_nodes:
            raise ValueError(
                f"expected {self.graph.num_nodes} block rows, got {block_rows.shape[0]}"
            )
        return block_rows[self.seed_positions]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"MinibatchBlock(parent={self.parent.name!r}, seeds={len(self.seeds)}, "
            f"nodes={self.num_nodes}, edges={self.num_edges}, fanouts={self.fanouts})"
        )


@dataclass
class HopBlock(MinibatchBlock):
    """One hop of a per-hop block sequence (see :meth:`NeighborSampler.sample_blocks`).

    Attributes (beyond :class:`MinibatchBlock`):
        hop: 1-based hop index; hop 1 is the innermost (its destinations are
            the seeds), hop ``k`` the outermost.
        dst_nodes: parent global ids of this hop's destination frontier —
            the nodes whose incoming neighborhoods were drawn, and therefore
            the only rows of this hop's output that are exact.  By
            construction ``blocks[i].dst_nodes == blocks[i+1].node_map`` in a
            ``sample_blocks`` result (hop boundaries compose).
        dst_positions: block-local node ids of ``dst_nodes``.
    """

    hop: int = 0
    dst_nodes: np.ndarray = None
    dst_positions: np.ndarray = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"HopBlock(hop={self.hop}, parent={self.parent.name!r}, "
            f"dst={len(self.dst_nodes)}, nodes={self.num_nodes}, edges={self.num_edges}, "
            f"fanouts={self.fanouts})"
        )


def hop_gather_indices(outer: MinibatchBlock, inner: MinibatchBlock) -> np.ndarray:
    """Positions of ``inner``'s nodes inside ``outer``'s node order.

    The hop-boundary map of layer-by-hop execution: rows of a matrix shaped
    like ``outer``'s nodes, gathered with the returned indices, line up with
    ``inner``'s nodes.  Requires ``inner``'s node set to be a subset of
    ``outer``'s (true for adjacent blocks of one ``sample_blocks`` result,
    where ``inner.node_map == outer.dst_nodes``).
    """
    indices = np.searchsorted(outer.node_map, inner.node_map)
    indices = np.minimum(indices, max(len(outer.node_map) - 1, 0))
    if len(inner.node_map) and not np.array_equal(outer.node_map[indices], inner.node_map):
        raise ValueError(
            f"inner block's nodes are not a subset of the outer block's "
            f"(outer {outer.graph.name!r}, inner {inner.graph.name!r})"
        )
    return indices


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 mix, elementwise over a ``uint64`` array (wrapping)."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


class NeighborSampler:
    """K-hop incoming-neighbor sampler over one parent graph.

    Args:
        graph: the parent heterogeneous graph.
        fanouts: one entry per hop; each is the max number of incoming edges
            kept per (node, relation) — an ``int >= 1`` — or ``None`` for the
            full neighborhood.
        seed: base seed; a draw is a pure function of
            (seed, epoch, shard, relation, destination, fanout).
        shard: optional data-parallel shard index.  A sharded sampler salts
            every epoch from ``(seed, epoch, shard)`` instead of
            ``(seed, epoch)``, so workers sharing a base seed draw disjoint
            neighborhood streams while any ``(epoch, shard)`` pair stays
            exactly replayable (see :meth:`resample`).

    The sampler keeps no draw state: within one epoch, any order of
    :meth:`sample` / :meth:`sample_blocks` calls returns the same blocks.
    ``draw_misses`` counts destinations drawn (summed over hops) and
    ``draw_hits`` the destinations a merged call skipped because an earlier
    hop of the same call had already drawn them.
    """

    def __init__(
        self,
        graph: HeteroGraph,
        fanouts: Sequence[Fanout] = (None,),
        seed: int = 0,
        shard: Optional[int] = None,
    ):
        if not len(fanouts):
            raise ValueError("fanouts needs at least one hop")
        for fanout in fanouts:
            if fanout is not None and (
                isinstance(fanout, bool) or not isinstance(fanout, (int, np.integer)) or fanout < 1
            ):
                raise ValueError(f"fanout must be an int >= 1 or None (full), got {fanout!r}")
        self.graph = graph
        self.fanouts: Tuple[Fanout, ...] = tuple(None if f is None else int(f) for f in fanouts)
        self.schema = GraphSchema.from_graph(graph)
        self.base_seed = int(seed)
        self.shard = None if shard is None else int(shard)
        self.resample(0)
        self.draw_hits = 0
        self.draw_misses = 0
        # One global in-edge CSR sorted by (destination, relation): a slice of
        # ``_in_edges`` holds a destination's incoming edges (global edge ids)
        # grouped by relation, and ``_in_group_start`` points every entry at
        # the first entry of its (destination, relation) group.
        self._relation_offsets = np.zeros(graph.num_edge_types + 1, dtype=np.int64)
        np.cumsum(graph.relation_edge_counts(), out=self._relation_offsets[1:])
        self._in_edges = np.lexsort((graph.edge_type, graph.edge_dst))
        self._in_offsets = np.zeros(graph.num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(graph.edge_dst, minlength=graph.num_nodes), out=self._in_offsets[1:])
        dst = graph.edge_dst[self._in_edges]
        relation = graph.edge_type[self._in_edges]
        position = self._in_edges - self._relation_offsets[relation]
        self._in_words = (relation.astype(np.uint64) << np.uint64(32)) | position.astype(np.uint64)
        new_group = np.ones(len(dst), dtype=bool)
        new_group[1:] = (dst[1:] != dst[:-1]) | (relation[1:] != relation[:-1])
        self._in_group_start = np.flatnonzero(new_group)[np.cumsum(new_group) - 1]

    # ------------------------------------------------------------------
    # epochs
    # ------------------------------------------------------------------
    def _seed_words(self, epoch: int, shard: Optional[int]) -> List[int]:
        """The seed tuple of one ``(epoch, shard)`` stream, validated.

        ``np.random.SeedSequence`` entropy words must be non-negative;
        feeding it a negative epoch (or shard) crashes deep inside numpy with
        an opaque ``ValueError``, so both are rejected here with the argument
        named.
        """
        epoch = int(epoch)
        if epoch < 0:
            raise ValueError(f"epoch must be >= 0 (seed words are non-negative), got {epoch}")
        if shard is not None:
            shard = int(shard)
            if shard < 0:
                raise ValueError(f"shard must be >= 0 (seed words are non-negative), got {shard}")
        return [self.base_seed, epoch] if shard is None else [self.base_seed, epoch, shard]

    def resample(self, epoch: Optional[int] = None, shard: Optional[int] = None) -> int:
        """Start a new sampling epoch; returns the epoch now in effect.

        Derives the edge-key salt from ``(base_seed, epoch)`` — or
        ``(base_seed, epoch, shard)`` for a sharded sampler — so the new
        epoch draws fresh neighborhoods yet is exactly reproducible: any
        sampler with the same base seed replays the same ``(epoch, shard)``
        draws regardless of what earlier epochs (or other shards in between)
        sampled.  ``epoch`` defaults to the next epoch in sequence; ``shard``
        defaults to the sampler's current shard (sticky, so per-worker
        samplers stay in their own stream across epochs).
        """
        epoch = int(epoch) if epoch is not None else self.epoch + 1
        shard = self.shard if shard is None else int(shard)
        words = self._seed_words(epoch, shard)
        self.epoch = epoch
        self.shard = shard
        self._salt = np.random.SeedSequence(words).generate_state(1, np.uint64)[0]
        return self.epoch

    # ------------------------------------------------------------------
    def _validate_seeds(self, seeds) -> np.ndarray:
        graph = self.graph
        seeds = np.asarray(seeds, dtype=np.int64).reshape(-1)
        if seeds.size == 0:
            raise ValueError("a minibatch needs at least one seed node")
        if seeds.min() < 0 or seeds.max() >= graph.num_nodes:
            raise ValueError(
                f"seed ids must lie in [0, {graph.num_nodes}) for graph {graph.name!r}"
            )
        return seeds

    def _draw(self, frontier: np.ndarray, fanout: Fanout) -> np.ndarray:
        """Global ids of the edges kept for a sorted, deduplicated frontier.

        One pass over the frontier's slices of the in-edge CSR: a single
        ``lexsort`` by (group, key) ranks every edge inside its
        (destination, relation) group, and ranks below ``fanout`` are kept.
        """
        self.draw_misses += len(frontier)
        starts = self._in_offsets[frontier]
        counts = self._in_offsets[frontier + 1] - starts
        ends = np.cumsum(counts)
        entries = np.arange(int(ends[-1])) + np.repeat(starts - (ends - counts), counts)
        if fanout is not None and len(entries):
            group_start = self._in_group_start[entries]
            keys = _splitmix64(self._in_words[entries] ^ self._salt)
            order = np.lexsort((keys, group_start))
            # Groups keep their slots under the sort, so an entry's rank is its
            # sorted slot minus the slot its group starts at.
            first_slot = np.arange(len(entries)) - (entries - group_start)
            entries = entries[order[np.arange(len(entries)) - first_slot[order] < fanout]]
        return self._in_edges[entries]

    def _split(self, edges: np.ndarray) -> Dict[CanonicalEtype, np.ndarray]:
        """Per-relation sorted relation-local positions of global edge ids."""
        edges = np.sort(edges)
        bounds = np.searchsorted(edges, self._relation_offsets)
        return {
            etype: edges[bounds[r]:bounds[r + 1]] - self._relation_offsets[r]
            for r, etype in enumerate(self.graph.canonical_etypes)
        }

    def merged_positions(self, seeds) -> Dict[CanonicalEtype, np.ndarray]:
        """Per-relation kept edge positions of the merged k-hop block of
        ``seeds`` — the draw without the compaction.

        This is the cacheable half of :meth:`sample`: positions are parent
        edge indices (relation-local), already deduplicated and sorted, so
        positions drawn for different seed sets can be unioned cheaply with
        ``np.unique(np.concatenate(...))`` and re-compacted via
        :meth:`assemble`.  A destination is drawn once, at the first hop
        that reaches it, with that hop's fanout.  Under ``fanout=None`` the
        union of per-seed positions equals a fresh merged draw of the seed
        union (full neighborhoods compose), which is what makes per-seed
        block caching exact.
        """
        seeds = self._validate_seeds(seeds)
        frontier = visited = np.unique(seeds)
        kept: List[np.ndarray] = []
        for hop, fanout in enumerate(self.fanouts):
            if hop:
                reached = np.unique(self.graph.edge_src[kept[-1]])
                frontier = np.setdiff1d(reached, visited, assume_unique=True)
                self.draw_hits += len(reached) - len(frontier)
                if not len(frontier):
                    break
                visited = np.union1d(visited, frontier)
            kept.append(self._draw(frontier, fanout))
        return self._split(np.concatenate(kept))

    def hop_positions(self, seeds) -> List[Dict[CanonicalEtype, np.ndarray]]:
        """Per-hop per-relation kept edge positions, outermost-last.

        The cacheable half of :meth:`sample_blocks`: entry ``i`` holds hop
        ``i+1``'s drawn edge positions (deduplicated, sorted).  Hop ``i+1``'s
        destination frontier is hop ``i``'s node set (its destinations plus
        every kept edge's source), as :meth:`positions_nodes` reproduces.
        """
        frontier = np.unique(self._validate_seeds(seeds))
        hops: List[Dict[CanonicalEtype, np.ndarray]] = []
        for fanout in self.fanouts:
            kept = self._draw(frontier, fanout)
            hops.append(self._split(kept))
            frontier = np.union1d(frontier, self.graph.edge_src[kept])
        return hops

    def positions_nodes(self, seeds, positions) -> np.ndarray:
        """The node set (sorted parent global ids) a positions draw touches.

        ``positions`` is one per-relation dict (:meth:`merged_positions`) or
        a list of them (:meth:`hop_positions`); the result is the union of
        ``seeds`` and every kept edge's endpoints — exactly the node set of
        the compacted block (block node order is type-major with sorted
        parent-locals per type, and type offsets are cumulative, so the
        block's ``node_map`` is this sorted set).
        """
        graph = self.graph
        chunks = [np.unique(np.asarray(seeds, dtype=np.int64).reshape(-1))]
        for per_relation in positions if isinstance(positions, list) else [positions]:
            for etype, kept in per_relation.items():
                if not len(kept):
                    continue
                src_type, _, dst_type = etype
                src_local, dst_local = graph.edges_per_relation[etype]
                chunks.append(src_local[kept] + graph.node_type_offset(src_type))
                chunks.append(dst_local[kept] + graph.node_type_offset(dst_type))
        return np.unique(np.concatenate(chunks))

    def assemble(
        self,
        seeds,
        positions: Dict[CanonicalEtype, np.ndarray],
        required_nodes: Optional[np.ndarray] = None,
    ) -> MinibatchBlock:
        """Compact a block from per-relation edge positions.

        The deterministic half of sampling: given positions (from
        :meth:`merged_positions`, or a union of cached per-seed draws), the
        resulting block is a pure function of ``(seeds, positions)``.  The
        block keeps the parent's schema; ``required_nodes`` (parent global
        ids) keeps a destination frontier in the block even where no edge
        touches it — per-hop blocks must contain their whole destination
        frontier so hop boundaries compose.
        """
        seeds = self._validate_seeds(seeds)
        graph = self.graph
        final_positions: Dict[CanonicalEtype, np.ndarray] = {
            etype: np.unique(positions.get(etype, np.zeros(0, dtype=np.int64)))
            for etype in graph.canonical_etypes
        }

        # Node set per type: seeds (and any required nodes) plus every
        # endpoint of a kept edge.
        kept_locals: Dict[str, List[np.ndarray]] = {t: [] for t in graph.node_type_names}
        seed_types = np.searchsorted(graph.node_type_offsets, seeds, side="right") - 1
        for type_id, type_name in enumerate(graph.node_type_names):
            of_type = seeds[seed_types == type_id]
            if len(of_type):
                kept_locals[type_name].append(of_type - graph.node_type_offsets[type_id])
        if required_nodes is not None and len(required_nodes):
            required_types = np.searchsorted(graph.node_type_offsets, required_nodes, side="right") - 1
            for type_id, type_name in enumerate(graph.node_type_names):
                of_type = required_nodes[required_types == type_id]
                if len(of_type):
                    kept_locals[type_name].append(of_type - graph.node_type_offsets[type_id])
        for etype, positions in final_positions.items():
            if not len(positions):
                continue
            src_type, _, dst_type = etype
            src_local, dst_local = graph.edges_per_relation[etype]
            kept_locals[src_type].append(src_local[positions])
            kept_locals[dst_type].append(dst_local[positions])
        unique_locals: Dict[str, np.ndarray] = {
            t: (np.unique(np.concatenate(chunks)) if chunks else np.zeros(0, dtype=np.int64))
            for t, chunks in kept_locals.items()
        }

        # Block layout: parent type order, sorted parent-local ids per type —
        # so ``node_map`` is sorted and ``searchsorted`` addresses it.
        block_counts = {t: int(len(unique_locals[t])) for t in graph.node_type_names}
        node_map = np.concatenate(
            [unique_locals[t] + graph.node_type_offset(t) for t in graph.node_type_names]
        )

        # Relabel every relation's endpoints into block-local ids, keeping the
        # parent's full relation vocabulary (empty relations stay, so edge-type
        # ids — and therefore per-relation weights — line up).
        block_edges: Dict[CanonicalEtype, Tuple[np.ndarray, np.ndarray]] = {}
        for etype in graph.canonical_etypes:
            positions = final_positions[etype]
            src_type, _, dst_type = etype
            if not len(positions):
                block_edges[etype] = (
                    np.zeros(0, dtype=np.int64),
                    np.zeros(0, dtype=np.int64),
                )
                continue
            src_local, dst_local = graph.edges_per_relation[etype]
            block_edges[etype] = (
                np.searchsorted(unique_locals[src_type], src_local[positions]),
                np.searchsorted(unique_locals[dst_type], dst_local[positions]),
            )

        block_graph = HeteroGraph(
            {t: block_counts[t] for t in graph.node_type_names},
            block_edges,
            name=f"{graph.name}/block[{len(seeds)}s,{len(node_map)}n]",
        )
        return MinibatchBlock(
            graph=block_graph,
            parent=graph,
            node_map=node_map,
            seeds=seeds,
            seed_positions=np.searchsorted(node_map, seeds),
            fanouts=self.fanouts,
        )

    def assemble_hop_blocks(
        self,
        seeds,
        hops: List[Dict[CanonicalEtype, np.ndarray]],
    ) -> List[HopBlock]:
        """Compact one block per hop from per-hop positions (see
        :meth:`hop_positions`); returns outermost hop first, exactly as
        :meth:`sample_blocks` does."""
        seeds = self._validate_seeds(seeds)
        if len(hops) != len(self.fanouts):
            raise ValueError(
                f"expected {len(self.fanouts)} per-hop position dicts, got {len(hops)}"
            )
        blocks: List[HopBlock] = []
        dst_frontier = np.unique(seeds)
        for hop_index, (fanout, positions) in enumerate(zip(self.fanouts, hops), start=1):
            block = self.assemble(seeds, positions, required_nodes=dst_frontier)
            dst_positions = np.searchsorted(block.node_map, dst_frontier)
            blocks.append(HopBlock(
                graph=block.graph,
                parent=block.parent,
                node_map=block.node_map,
                seeds=block.seeds,
                seed_positions=block.seed_positions,
                fanouts=(fanout,),
                hop=hop_index,
                dst_nodes=dst_frontier,
                dst_positions=dst_positions,
            ))
            dst_frontier = block.node_map
        return list(reversed(blocks))

    def sample(self, seeds) -> MinibatchBlock:
        """Sample the merged block of a set of seed nodes (parent global ids).

        Each destination is drawn once, at the first hop that reaches it and
        with that hop's fanout (see :meth:`merged_positions`), so merged
        per-relation in-degrees never exceed the cap of the hop that first
        reached the node — the block-level fanout invariant.
        """
        return self.assemble(seeds, self.merged_positions(seeds))

    def sample_blocks(self, seeds) -> List[HopBlock]:
        """Sample one block per hop, outermost hop first.

        Returns ``[Block_hop_k, ..., Block_hop_1]`` where hop 1's destination
        frontier is the seed set and hop ``i+1``'s destination frontier is the
        *entire node set* of hop ``i``'s block — so layer ``l`` of an
        ``L``-layer model (``L == k``) executes over ``blocks[l-1]`` and
        computes exact rows precisely for the nodes layer ``l+1`` reads:

        * ``blocks[i].dst_nodes == blocks[i+1].node_map`` (hop boundaries
          compose), and ``blocks[-1].dst_nodes`` is the deduplicated seed set;
        * each hop's per-relation in-degrees respect that hop's fanout;
        * every hop preserves the parent's full relation vocabulary, so edge
          type ids keep indexing the same per-relation weights.

        Draws are the same pure function :meth:`sample` uses: within one
        epoch and under a uniform per-hop fanout, the outermost per-hop block and
        the merged k-hop block of the same seeds contain exactly the same
        edges, which is what makes per-hop vs merged aggregation-work
        comparisons edge-for-edge fair.
        """
        return self.assemble_hop_blocks(seeds, self.hop_positions(seeds))


def sample_block(
    graph: HeteroGraph,
    seeds,
    fanouts: Sequence[Fanout] = (None,),
    seed: int = 0,
) -> MinibatchBlock:
    """One-shot convenience wrapper around :class:`NeighborSampler`."""
    return NeighborSampler(graph, fanouts=fanouts, seed=seed).sample(seeds)
