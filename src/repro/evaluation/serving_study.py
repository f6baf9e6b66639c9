"""Serving study: micro-batched throughput vs batch-size-1 on one stream.

The platform-characterisation companion of the serving router: it replays an
identical request stream through two one-endpoint routers — one forced to
batch size 1 (per-request sample + bind + execute, the naive deployment) and
one micro-batching up to ``max_batch_size`` — and reports throughput, latency
percentiles, batch occupancy, plan-replay rate, and arena-pool reuse side by
side.  ``benchmarks/test_serving.py`` gates on the speedup; CI publishes the
table in the job summary (``python -m repro.evaluation.serving_study
--markdown``).
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional

import numpy as np

from repro.frontend.config import CompilerOptions
from repro.graph.generators import random_features, random_hetero_graph
from repro.graph.hetero_graph import HeteroGraph
from repro.serving.router import Router
from repro.evaluation.reporting import format_markdown_table


def default_serving_graph(seed: int = 17) -> HeteroGraph:
    """The study's parent graph: big enough that per-request work dominates."""
    return random_hetero_graph(
        num_nodes=400,
        num_edges=2400,
        num_node_types=3,
        num_edge_types=6,
        seed=seed,
        name="serving",
        source_locality=0.4,
    )


def request_stream(
    graph: HeteroGraph,
    num_requests: int,
    seeds_per_request: int,
    seed: int = 0,
) -> List[np.ndarray]:
    """A reproducible stream of per-request seed-node queries."""
    rng = np.random.default_rng(seed)
    return [
        rng.choice(graph.num_nodes, size=seeds_per_request, replace=False)
        for _ in range(num_requests)
    ]


def serving_study(
    model: str = "rgat",
    graph: Optional[HeteroGraph] = None,
    num_requests: int = 64,
    seeds_per_request: int = 4,
    max_batch_size: int = 16,
    fanout: int = 8,
    in_dim: int = 16,
    out_dim: int = 16,
    seed: int = 0,
) -> Dict[str, object]:
    """Run the batched-vs-unbatched comparison on one request stream.

    Both endpoints share the model, options (inference, compact
    materialization — so blocks exercise the compaction machinery), feature
    store, fanout, and stream; only the batching policy differs.  The block
    cache is off, so every batch draws a fresh sample.

    Returns ``{"rows": [...], "speedup": float, ...}`` where each row is one
    endpoint's :meth:`~repro.serving.endpoint.Endpoint.report` plus a
    ``mode`` column and the router budget's ``live_arenas``.
    """
    graph = graph if graph is not None else default_serving_graph()
    options = CompilerOptions(emit_backward=False, compact_materialization=True)
    features = random_features(graph, in_dim, seed=seed)
    stream = request_stream(graph, num_requests, seeds_per_request, seed=seed)

    def build_router(batch_size: int) -> Router:
        router = Router()
        router.register(
            model,
            model,
            graph,
            in_dim=in_dim,
            out_dim=out_dim,
            options=options,
            features=features,
            fanouts=(fanout,),
            max_batch_size=batch_size,
            block_cache_size=0,
            sampler_seed=seed,
            seed=seed,
        )
        return router

    def serve(router: Router, mode: str) -> Dict[str, object]:
        router.serve([(model, seeds) for seeds in stream])
        report = router.endpoint(model).report()
        del report["endpoint"], report["priority"]
        report["live_arenas"] = router.budget.live_arenas
        report["mode"] = mode
        return report

    single = build_router(1)
    batched = build_router(max_batch_size)
    # Warm both paths once (plan compile happened at registration; one
    # throwaway batch warms the arena budget and any lazy numpy dispatch),
    # then reset telemetry so the reported numbers cover only the measured
    # stream.
    single.query(model, stream[0])
    batched.query(model, stream[0])
    single.reset_stats()
    batched.reset_stats()

    single_report = serve(single, "batch-1")
    batched_report = serve(batched, f"micro-batch({max_batch_size})")
    speedup = (
        batched_report["throughput_rps"] / single_report["throughput_rps"]
        if single_report["throughput_rps"]
        else float("inf")
    )
    columns = ["mode"] + [key for key in single_report if key != "mode"]
    return {
        "model": model,
        "graph": graph.name,
        "rows": [
            {column: single_report.get(column) for column in columns},
            {column: batched_report.get(column) for column in columns},
        ],
        "speedup": round(speedup, 2),
        "zero_recompiles": all(
            router.endpoint(model).plan_recompiles == 0 for router in (single, batched)
        ),
        "num_requests": num_requests,
        "seeds_per_request": seeds_per_request,
    }


def serving_rows(study: Dict[str, object]) -> List[Dict[str, object]]:
    """The study's table rows (for ``format_table`` / markdown rendering)."""
    return list(study["rows"])


def main(argv: Optional[List[str]] = None) -> None:
    """CLI entry point; ``--markdown`` targets the CI job summary."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="rgat", choices=["rgcn", "rgat", "hgt"])
    parser.add_argument("--requests", type=int, default=64)
    parser.add_argument("--seeds-per-request", type=int, default=4)
    parser.add_argument("--max-batch-size", type=int, default=16)
    parser.add_argument("--markdown", action="store_true",
                        help="emit a GitHub-flavoured markdown table (for $GITHUB_STEP_SUMMARY)")
    args = parser.parse_args(argv)
    study = serving_study(
        model=args.model,
        num_requests=args.requests,
        seeds_per_request=args.seeds_per_request,
        max_batch_size=args.max_batch_size,
    )
    rows = serving_rows(study)
    if args.markdown:
        print(f"### Serving throughput — {study['model']} on {study['graph']}")
        print()
        print(format_markdown_table(rows))
        print()
        print(f"**Micro-batch speedup over batch-1: {study['speedup']}×** "
              f"(zero recompiles: {study['zero_recompiles']})")
    else:
        from repro.evaluation.reporting import format_table

        print(format_table(rows, title=f"Serving study — {study['model']} on {study['graph']}"))
        print(f"micro-batch speedup over batch-1: {study['speedup']}x; "
              f"zero recompiles: {study['zero_recompiles']}")


if __name__ == "__main__":  # pragma: no cover - CLI
    main()
