"""Outside-in tracing for the traced benchmark run.

Spans are recorded around calls into each layer's public functions.  The
wrappers live here, in the benchmark, and are installed only in the traced
child process; the untraced run never imports this module.  A span records
its name, start, end, parent span and an identifier (the training step or
serving batch it belongs to, inherited from the parent when not given) plus a
tag (the endpoint or cell it belongs to, also inherited).  Spans are kept in
memory and written out when the run ends.

A span whose name is already open higher up the stack is not recorded again:
``MultiLayerModule.build`` calling ``compile_model``, or ``assemble_hop_blocks``
calling ``assemble``, count once, so a layer's busy time never double counts
its own recursion.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import replace
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.evaluation.workload import WorkloadSpec
from repro.frontend import compiler
from repro.frontend.cache import global_compilation_cache
from repro.gpu.costmodel import plan_execution_estimate
from repro.graph.sampler import MinibatchBlock, NeighborSampler
from repro.ir.codegen.registry import available_backends, get_backend
from repro.ir.inter_op.passes import PassManager
from repro.runtime import multilayer
from repro.runtime.binding import GraphBinding
from repro.runtime.executor import PlanExecutor
from repro.runtime.module import CompiledRGNNModule
from repro.runtime.multilayer import MultiLayerModule
from repro.serving.endpoint import Endpoint
from repro.tensor import optim

from workloads import DIM, CheckFailed

#: Bytes of one row crossing a hop boundary (dim-64 float64 layer outputs).
HOP_ROW_BYTES = DIM * 8


class Span:
    __slots__ = ("name", "start", "end", "parent", "ident", "tag")

    def __init__(self, name, start, parent, ident, tag):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.ident = ident
        self.tag = tag

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with layer counters."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._open_names: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        #: Per-request serving service seconds, keyed by ``id(request)``.
        self.request_service_s: Dict[int, float] = {}
        self._next_batch = 0

    # ------------------------------------------------------------------
    def begin(self, name: str, ident=None, tag=None) -> int:
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            if ident is None:
                ident = self.spans[parent].ident
            if tag is None:
                tag = self.spans[parent].tag
        self.spans.append(Span(name, time.perf_counter(), parent, ident, tag))
        index = len(self.spans) - 1
        self._stack.append(index)
        self._open_names[name] += 1
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        self._open_names[span.name] -= 1

    def is_open(self, name: str) -> bool:
        return self._open_names[name] > 0

    def next_batch_id(self) -> int:
        self._next_batch += 1
        return self._next_batch

    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, *, tag: Optional[Callable] = None,
             ident: Optional[Callable] = None, after: Optional[Callable] = None,
             classmethod_: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``tag`` / ``ident`` compute the span's tag and identifier from the
        call's arguments; ``after(args, result)`` updates counters once the
        call returns.
        """
        original = owner.__dict__[attr].__func__ if classmethod_ else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer.is_open(name):
                return original(*args, **kwargs)
            index = tracer.begin(
                name,
                ident=ident(*args) if ident is not None else None,
                tag=tag(*args) if tag is not None else None,
            )
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, classmethod(wrapper) if classmethod_ else wrapper)

    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, List[float]]:
        """``name -> [calls, total seconds, self seconds]`` over closed spans."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None and span.end is not None:
                child_time[span.parent] += span.duration
        table: Dict[str, List[float]] = {}
        for index, span in enumerate(self.spans):
            if span.end is None:
                continue
            row = table.setdefault(span.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += span.duration
            row[2] += span.duration - child_time[index]
        return table

    def write(self, path: str, provenance: dict) -> None:
        records = [
            [span.name, span.start, span.end, span.parent, span.ident, span.tag]
            for span in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({
                "provenance": provenance,
                "fields": ["name", "start", "end", "parent", "ident", "tag"],
                "spans": records,
                "counters": dict(self.counters),
            }, handle)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (traced child only)."""
    counters = tracer.counters

    # repro.frontend / repro.ir: compile and its three phases.
    tracer.wrap(compiler, "compile_model", "frontend.compile")
    tracer.wrap(MultiLayerModule, "build", "frontend.compile", classmethod_=True)
    tracer.wrap(PassManager, "run", "ir.inter_op.passes")
    tracer.wrap(compiler, "lower_program", "ir.inter_op.lowering")
    for backend_class in {type(get_backend(name)) for name in available_backends()}:
        if "generate" in backend_class.__dict__:
            tracer.wrap(backend_class, "generate", "ir.codegen.generate")

    # repro.graph.sampler: draw and compact.
    def count_draw(args, result):
        counters["graph.sampler.calls"] += 1

    def count_block_edges(args, result):
        blocks = result if isinstance(result, list) else [result]
        counters["graph.sampler.block_edges"] += sum(block.num_edges for block in blocks)

    for attr in ("hop_positions", "merged_positions"):
        tracer.wrap(NeighborSampler, attr, "graph.sampler.draw", after=count_draw)
    for attr in ("assemble", "assemble_hop_blocks"):
        tracer.wrap(NeighborSampler, attr, "graph.sampler.compact", after=count_block_edges)

    # repro.graph gather: feature gathers and hop-boundary gathers.
    def count_gather(args, result):
        counters["graph.gather_bytes"] += result.nbytes

    def count_hop_gather(args, result):
        counters["graph.gather_bytes"] += len(result) * HOP_ROW_BYTES

    tracer.wrap(MinibatchBlock, "gather_features", "graph.gather", after=count_gather)
    tracer.wrap(multilayer, "hop_gather_indices", "graph.gather", after=count_hop_gather)

    # repro.runtime: bind, forward, backward.
    def count_bind(args, result):
        counters["runtime.bind_calls"] += 1

    tracer.wrap(CompiledRGNNModule, "bind", "runtime.bind", after=count_bind)
    tracer.wrap(GraphBinding, "forward", "runtime.forward")
    tracer.wrap(GraphBinding, "backward", "runtime.backward")

    # repro.tensor.optim.
    tracer.wrap(optim.Adam, "step", "tensor.optim.step")

    # repro.serving: one span per executed batch, tagged with its endpoint.
    def record_service(args, result):
        for request in args[1]:
            tracer.request_service_s[id(request)] = float(result)

    tracer.wrap(
        Endpoint, "execute_batch", "serving.execute_batch",
        tag=lambda endpoint, *rest: endpoint.name,
        ident=lambda *args: tracer.next_batch_id(),
        after=record_service,
    )


# ----------------------------------------------------------------------
# per-kernel replay (fullgraph-train, traced run only)
# ----------------------------------------------------------------------
def kernel_replay(tracer: Tracer, cell: str, module, features, repeats: int = 3) -> List[dict]:
    """Time every generated kernel of one training step, in plan order.

    The default backend runs the fused ``hector_forward`` / ``hector_backward``
    programs; the replay drives the same backend's per-kernel functions
    through a :class:`~repro.runtime.executor.PlanExecutor` on the module's
    own arena, after checking that its outputs and parameter gradients are
    ``array_equal`` to the fused programs'.  Each kernel's measured time (the
    median over ``repeats`` replays) sits beside the cost model's estimate
    for it and its computed FLOPs and bytes.
    """
    binding = module.default_binding
    plan, generated, ctx = module.plan, module.generated, binding.ctx

    def fresh_env():
        env = {name: features for name in module.node_feature_inputs}
        env.update({name: p.data for name, p in module.parameters_by_name.items()})
        return env

    env = fresh_env()
    binding.executor.run_forward(env, ctx)
    fused_out = {name: env[name].copy() for name in plan.output_names}
    upstream = {
        name: np.random.default_rng(0).standard_normal(out.shape) for name, out in fused_out.items()
    }
    binding.executor.run_backward(env, ctx, upstream)
    fused_grads = {name: env[f"grad_{name}"].copy() for name in plan.parameter_names}

    timings: Dict[tuple, List[float]] = defaultdict(list)

    def timed(kernel, function):
        key = (kernel.direction, kernel.name)
        span_name = f"kernel.{cell}.{kernel.category}.{kernel.direction}"

        def call(env, ctx):
            index = tracer.begin(span_name, ident=kernel.name, tag=cell)
            start = time.perf_counter()
            function(env, ctx)
            timings[key].append(time.perf_counter() - start)
            tracer.end(index)

        return call

    replayed = replace(
        generated,
        forward_program=None,
        backward_program=None,
        forward_functions={
            k.name: timed(k, generated.forward_functions[k.name]) for k in plan.forward_kernels
        },
        backward_functions={
            k.name: timed(k, generated.backward_functions[k.name]) for k in plan.backward_kernels
        },
    )
    executor = PlanExecutor(plan, replayed, arena=binding.executor.arena)
    for repeat in range(repeats):
        env = fresh_env()
        executor.run_forward(env, ctx)
        if repeat == 0 and not all(np.array_equal(env[n], fused_out[n]) for n in fused_out):
            raise CheckFailed(f"{cell}: per-kernel forward replay differs from hector_forward")
        executor.run_backward(env, ctx, upstream)
        if repeat == 0 and not all(
            np.array_equal(env[f"grad_{n}"], fused_grads[n]) for n in fused_grads
        ):
            raise CheckFailed(f"{cell}: per-kernel backward replay differs from hector_backward")

    workload = WorkloadSpec.from_graph(module.graph, in_dim=DIM, out_dim=DIM)
    estimate = plan_execution_estimate(plan, workload, training=True)
    rows = []
    for kernel, modelled in zip(plan.kernels("all"), estimate.kernel_times):
        rows.append({
            "name": kernel.name,
            "category": kernel.category,
            "direction": kernel.direction,
            "measured_s": float(np.median(timings[(kernel.direction, kernel.name)])),
            "model_s": modelled.total_time,
            "flops": kernel.flops(workload),
            "bytes": kernel.bytes_read(workload) + kernel.bytes_written(workload),
        })
    return rows


def kernel_table(cell: str, rows: List[dict]) -> List[str]:
    lines = [
        f"per-kernel table, {cell} (measured: median of replays on this host; model: "
        "repro.gpu.costmodel estimate; FLOPs and bytes are computed, not measured)",
        f"  {'kernel':<34} {'category':<10} {'dir':<9} {'measured ms':>12} {'model ms':>10} "
        f"{'FLOPs':>12} {'bytes':>12}",
    ]
    for row in rows:
        lines.append(
            f"  {row['name']:<34} {row['category']:<10} {row['direction']:<9} "
            f"{row['measured_s'] * 1e3:>12.3f} {row['model_s'] * 1e3:>10.4f} "
            f"{row['flops']:>12.4g} {row['bytes']:>12.4g}"
        )
    return lines


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
KERNEL_CELLS = ("rgat-fb15k", "hgt-mag")
SERVE_ENDPOINT_NAMES = ("rgat-aifb", "hgt-mag")
#: Serving telemetry of an endpoint the workload does not have.
NO_ENDPOINT = {"open_loop": [], "shed": 0, "failed": 0, "requests": 0, "batches": 0, "sample_s": 0.0,
               "execute_s": 0.0, "seed_cache_hit_rate": 0.0, "seed_cache_evictions": 0}


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, result: dict) -> Dict[str, float]:
    """Every per-layer metric of the benchmark, from the traced run.

    Layer busy times are shares (%) of the traced run's root span, so a layer
    a workload never reaches reads 0 rather than a time; the printed span
    table carries the absolute seconds.
    """
    root_index = next(index for index, span in enumerate(tracer.spans) if span.name == "run")
    root_s = tracer.spans[root_index].duration

    def busy(names, tag=None, since=0.0) -> float:
        return sum(
            span.duration for span in tracer.spans
            if span.name in names and span.end is not None and span.start >= since
            and (tag is None or span.tag == tag)
        )

    def pct(name, tag=None) -> float:
        return 100.0 * busy((name,), tag) / root_s

    counters = tracer.counters
    arena = result["arena"]
    draw_hits, draw_misses = result.get("sampler_draws", (0, 0))
    metrics = {
        "frontend.compile_pct": pct("frontend.compile"),
        "ir.inter_op.passes_pct": pct("ir.inter_op.passes"),
        "ir.inter_op.lowering_pct": pct("ir.inter_op.lowering"),
        "ir.codegen.generate_pct": pct("ir.codegen.generate"),
        "frontend.cache_hits": global_compilation_cache().stats.hits,
        "ir.codegen.artifact_cache_misses": result["modules"][0].summary()["artifact_cache"]["misses"],
        "graph.sampler.draw_pct": pct("graph.sampler.draw"),
        "graph.sampler.compact_pct": pct("graph.sampler.compact"),
        "graph.sampler.calls": counters["graph.sampler.calls"],
        "graph.sampler.block_edges": counters["graph.sampler.block_edges"],
        "graph.sampler.draw_hit_rate": _ratio(draw_hits, draw_hits + draw_misses),
        "graph.gather_pct": pct("graph.gather"),
        "graph.gather_bytes": counters["graph.gather_bytes"],
        "runtime.bind_pct": pct("runtime.bind"),
        "runtime.bind_calls": counters["runtime.bind_calls"],
        "runtime.forward_pct": pct("runtime.forward"),
        "runtime.backward_pct": pct("runtime.backward"),
        "runtime.arena_hit_rate": arena["hit_rate"],
        "runtime.arena_evictions": arena["evictions"],
        "runtime.arena_high_water_mb": arena["high_water_mb"],
        "tensor.optim.step_pct": pct("tensor.optim.step"),
        "train.fp_overflow_steps": result.get("fp_overflow_steps", 0),
    }

    for cell in KERNEL_CELLS:
        rows = result.get("kernels", {}).get(cell, [])
        total = sum(row["measured_s"] for row in rows)
        for category in ("gemm", "traversal"):
            mine = [row for row in rows if row["category"] == category]
            for direction, short in (("forward", "fwd"), ("backward", "bwd")):
                measured = sum(row["measured_s"] for row in mine if row["direction"] == direction)
                metrics[f"kernel.{cell}.{category}.{short}_pct"] = 100.0 * _ratio(measured, total)
            metrics[f"kernel.{cell}.{category}.model_ratio"] = _ratio(
                sum(row["measured_s"] for row in mine), sum(row["model_s"] for row in mine)
            )

    sampler_spans = ("graph.sampler.draw", "graph.sampler.compact")
    for name in SERVE_ENDPOINT_NAMES:
        ep = result.get("endpoints", {}).get(name, NO_ENDPOINT)
        latency = sum(lat for lat, _ in ep["open_loop"])
        waiting = sum(lat - service for lat, service in ep["open_loop"])
        spans = busy(sampler_spans, tag=name, since=result.get("open_loop_start", 0.0))
        metrics.update({
            f"graph.sampler.draw_pct.{name}": pct("graph.sampler.draw", tag=name),
            f"graph.sampler.compact_pct.{name}": pct("graph.sampler.compact", tag=name),
            f"serving.queue_wait_pct.{name}": 100.0 * _ratio(waiting, latency),
            f"serving.requests_per_service_s.{name}": _ratio(ep["requests"], ep["sample_s"] + ep["execute_s"]),
            f"serving.batch_size_mean.{name}": _ratio(ep["requests"], ep["batches"]),
            f"serving.seed_cache_hit_rate.{name}": ep["seed_cache_hit_rate"],
            f"serving.seed_cache_evictions.{name}": ep["seed_cache_evictions"],
            f"serving.shed.{name}": ep["shed"],
            f"serving.failed.{name}": ep["failed"],
            f"serving.sample_pct.{name}": 100.0 * ep["sample_s"] / root_s,
            f"serving.execute_pct.{name}": 100.0 * ep["execute_s"] / root_s,
            f"serving.sample_span_ratio.{name}": _ratio(spans, ep["sample_s"]),
        })

    children_s = sum(span.duration for span in tracer.spans if span.parent == root_index)
    metrics["trace.root_self_pct"] = 100.0 * (root_s - children_s) / root_s
    return {key: float(value) for key, value in metrics.items()}


def span_table(tracer: Tracer) -> List[str]:
    """Calls, total and self seconds per span name."""
    lines = [f"  {'span':<40} {'calls':>8} {'total s':>10} {'self s':>10}"]
    for name, (calls, total, own) in sorted(tracer.self_times().items(), key=lambda kv: -kv[1][1]):
        lines.append(f"  {name:<40} {int(calls):>8} {total:>10.4f} {own:>10.4f}")
    return lines
