"""Compiled RGNN modules: schema-specialised parameters + generated kernels.

This is the runtime object the frontend returns from compilation, playing the
role of the PyTorch ``autograd.Function`` subclasses the real Hector
registers.  A module is specialised for a *schema* (the ordered node/edge
type vocabulary that sizes per-type weights) and for the plan's feature
dimensions — never for one concrete graph.  Attaching it to a graph is a
separate, cheap step: :meth:`CompiledRGNNModule.bind` produces a
:class:`~repro.runtime.binding.GraphBinding` (graph context + arena lease +
executor), and one module serves many bindings — the full training graph and
any number of sampled minibatch blocks — with parameters shared across all
of them.

For backward compatibility the module keeps the classic bound-module API:
constructing it with a graph creates a *default binding*, and
``forward`` / ``backward`` / ``graph`` / ``ctx`` / ``arena`` / ``executor``
delegate to it, so ``compile_model(...)`` callers are unaffected.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

from repro.graph.hetero_graph import HeteroGraph
from repro.graph.schema import GraphSchema
from repro.ir.codegen.python_backend import GeneratedModule
from repro.ir.inter_op.space import Space, ValueInfo
from repro.ir.intra_op.plan import KernelPlan
from repro.runtime.binding import GraphBinding
from repro.runtime.context import GraphContext
from repro.runtime.planner import MemoryPlanner, SharedArenaBudget, TenantArenaSource
from repro.tensor import init as tensor_init
from repro.tensor.nn import Parameter


class CompiledRGNNModule:
    """A compiled RGNN layer, rebindable across graphs sharing one schema.

    Args:
        plan: the lowered kernel plan.
        generated: the Python backend's generated kernels for that plan.
        graph: optional graph to create the default binding against (its type
            vocabulary defines the schema when ``schema`` is not given).
        seed: RNG seed for parameter initialisation.
        schema: explicit :class:`~repro.graph.schema.GraphSchema` to
            specialise for; required when ``graph`` is ``None``.

    ``arena_pool`` is the module's private pool: the one tenant of a
    :class:`~repro.runtime.planner.SharedArenaBudget` capped at four arenas
    (modules sharing a cached plan must not share buffers).
    """

    def __init__(
        self,
        plan: KernelPlan,
        generated: GeneratedModule,
        graph: Optional[HeteroGraph] = None,
        seed: int = 0,
        *,
        schema: Optional[GraphSchema] = None,
    ):
        if schema is None:
            if graph is None:
                raise ValueError("CompiledRGNNModule needs a graph or an explicit schema")
            schema = GraphSchema.from_graph(graph)
        self.plan = plan
        self.generated = generated
        self.schema = schema
        self.memory_planner: Optional[MemoryPlanner] = None
        self.arena_pool: Optional[TenantArenaSource] = None
        if plan.metadata.get("memory_planning_enabled"):
            self.memory_planner = MemoryPlanner(plan)
            self.arena_pool = SharedArenaBudget(max_arenas=4).tenant("module")
        self.parameters_by_name: Dict[str, Parameter] = {}
        self._init_parameters(seed)
        self._default_binding: Optional[GraphBinding] = None
        if graph is not None:
            # Exact-size private arena: the classic one-module-one-graph path
            # must not pay the pooled arenas' bucket-rounded slab sizes.
            self._default_binding = self.bind(graph, pooled=False)

    @classmethod
    def for_schema(
        cls,
        plan: KernelPlan,
        generated: GeneratedModule,
        schema: GraphSchema,
        seed: int = 0,
    ) -> "CompiledRGNNModule":
        """An unbound module: compile-side artefact only, bind graphs later."""
        return cls(plan, generated, graph=None, seed=seed, schema=schema)

    # ------------------------------------------------------------------
    # binding
    # ------------------------------------------------------------------
    def bind(
        self,
        graph: HeteroGraph,
        *,
        pooled: bool = True,
        arena_source=None,
        label: Optional[str] = None,
    ) -> GraphBinding:
        """Attach the module to a concrete graph (full graph or sampled block).

        Validates the graph against the module's schema, reuses the memoised
        graph context, and leases an arena.  ``arena_source`` (a
        :class:`~repro.runtime.planner.TenantArenaSource` view of a serving
        router's :class:`~repro.runtime.planner.SharedArenaBudget`) overrides
        where the arena comes from; otherwise ``pooled=True`` (the default
        for explicit rebinds — the serving pattern) leases from the module's
        bucketed LRU pool, so same-bucket bindings share slabs, and
        ``pooled=False`` builds a private arena sized exactly for ``graph``
        (the default binding uses this: a module bound once to one full graph
        should not pay the power-of-two bucket ceiling).  The returned
        binding shares this module's parameters in every case.  ``label``
        names the binding's owner (e.g. a serving endpoint) in error messages.
        """
        self.schema.validate_graph(graph)
        ctx = GraphContext.cached(graph)
        lease = None
        if self.memory_planner is not None:
            if arena_source is not None:
                lease = arena_source.lease(self.memory_planner, ctx)
            elif pooled:
                lease = self.arena_pool.lease(self.memory_planner, ctx)
            else:
                lease = self.memory_planner.build_arena(ctx).lease()
        return GraphBinding(self, graph, ctx, arena_lease=lease, label=label)

    @property
    def default_binding(self) -> Optional[GraphBinding]:
        """The binding created at construction time, if a graph was given."""
        return self._default_binding

    def _require_binding(self) -> GraphBinding:
        if self._default_binding is None:
            raise RuntimeError(
                "this module is not bound to a graph; call module.bind(graph) and use "
                "the returned GraphBinding (or construct the module with a graph)"
            )
        return self._default_binding

    # Delegation: the classic bound-module surface, routed through the
    # default binding so pre-refactor callers keep working unchanged.
    @property
    def graph(self) -> HeteroGraph:
        return self._require_binding().graph

    @property
    def ctx(self) -> GraphContext:
        return self._require_binding().ctx

    @property
    def arena(self):
        return self._require_binding().arena

    @property
    def executor(self):
        return self._require_binding().executor

    @property
    def _last_env(self) -> Optional[Dict[str, np.ndarray]]:
        return self._require_binding()._last_env

    # ------------------------------------------------------------------
    # parameters
    # ------------------------------------------------------------------
    def _parameter_shape(self, info: ValueInfo) -> tuple:
        if info.per_type == "edge_type":
            return (self.schema.num_edge_types,) + tuple(info.feature_shape)
        if info.per_type == "node_type":
            return (self.schema.num_node_types,) + tuple(info.feature_shape)
        return tuple(info.feature_shape)

    def _init_parameters(self, seed: int) -> None:
        for offset, name in enumerate(self.plan.parameter_names):
            info = self.plan.buffers[name]
            shape = self._parameter_shape(info)
            self.parameters_by_name[name] = Parameter(tensor_init.xavier_uniform(shape, seed=seed + offset))

    def parameters(self):
        """All learnable parameters (list of :class:`Parameter`)."""
        return list(self.parameters_by_name.values())

    def num_parameters(self) -> int:
        return int(sum(p.size for p in self.parameters()))

    @property
    def node_feature_inputs(self) -> list:
        """Names of the plan inputs that receive the node-feature matrix."""
        return [
            name for name in self.plan.input_names
            if self.plan.buffers[name].space is Space.NODE
        ]

    @property
    def input_feature_dim(self) -> Optional[int]:
        """The in-dimension the plan's node-feature inputs expect, if uniform."""
        dims = {
            self.plan.buffers[name].feature_shape[0]
            for name in self.node_feature_inputs
            if len(self.plan.buffers[name].feature_shape) == 1
        }
        return int(next(iter(dims))) if len(dims) == 1 else None

    @property
    def output_feature_dim(self) -> Optional[int]:
        """The out-dimension of the plan's first output, if one-dimensional."""
        shape = self.plan.buffers[self.plan.output_names[0]].feature_shape
        return int(shape[-1]) if len(shape) else None

    @property
    def output_name(self) -> str:
        """The plan's primary output buffer name."""
        return self.plan.output_names[0]

    @property
    def backend(self) -> str:
        """Name of the execution backend that generated this module's kernels.

        Recorded in the plan metadata by ``compile_program`` from the registry
        (:mod:`repro.ir.codegen.registry`); ``"python-interp"`` for plans
        compiled before the backend was recorded.
        """
        return str(self.plan.metadata.get("backend", "python-interp"))

    # ------------------------------------------------------------------
    # execution (delegates to the default binding)
    # ------------------------------------------------------------------
    def forward(self, node_features: np.ndarray, extra_inputs: Optional[Mapping[str, np.ndarray]] = None
                ) -> Dict[str, np.ndarray]:
        """Run the generated forward kernels on the default binding.

        See :meth:`GraphBinding.forward`; use :meth:`bind` to execute against
        other graphs.
        """
        return self._require_binding().forward(node_features, extra_inputs)

    __call__ = forward

    def backward(self, output_grads: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Run the generated backward kernels on the default binding.

        See :meth:`GraphBinding.backward`.
        """
        return self._require_binding().backward(output_grads)

    def zero_grad(self) -> None:
        """Clear parameter gradients."""
        for parameter in self.parameters():
            parameter.zero_grad()

    # ------------------------------------------------------------------
    def generated_source(self) -> str:
        """The generated Python kernel source for this module's plan."""
        return self.generated.source

    def generated_for(self, ctx) -> object:
        """The generated module specialised for a bound graph context.

        Backends that re-specialise per binding (the mixed backend's
        occupancy-signature variants) expose ``specialise_for_occupancy``;
        everything else executes the shared generated module as-is.
        ``GraphBinding`` calls this once at bind time.
        """
        specialise = getattr(self.generated, "specialise_for_occupancy", None)
        if specialise is None:
            return self.generated
        return specialise(ctx)

    def summary(self) -> Dict[str, object]:
        """Plan summary plus parameter count (for reports and tests).

        Backend telemetry rides along: the persistent artifact cache's
        hit/miss counters (process-wide), and — for mixed-backend modules —
        the per-kernel assignment counts and the occupancy-respecialisation
        memo counters.
        """
        from repro.ir.codegen.artifact_cache import artifact_cache_stats

        info = self.plan.summary()
        info["backend"] = self.backend
        info["num_parameters"] = self.num_parameters()
        info["graph"] = (
            self._default_binding.graph.name if self._default_binding is not None else str(self.schema)
        )
        info["artifact_cache"] = artifact_cache_stats()
        assignment_counts = getattr(self.generated, "assignment_counts", None)
        if assignment_counts is not None:
            info["mixed_assignment"] = assignment_counts()
        occupancy_stats = getattr(self.generated, "occupancy_stats", None)
        if occupancy_stats is not None:
            info["occupancy"] = occupancy_stats()
        return info
