"""Training benchmarks: the acceptance gates of the ``repro.train`` subsystem.

Two claims are gated here:

1. **Loss parity under sampling** — on the citation workload, minibatch SGD
   over fanout-capped sampled blocks reaches training loss at least as good
   as full-graph training under the same model, initial parameters,
   optimizer, and epoch budget (sampling trades exact gradients for
   per-epoch block work, not for convergence), and both regimes improve on
   their initial loss.
2. **Per-hop execution never does more aggregation work** — executing an
   L-layer stack layer-by-hop over per-hop blocks processes, at every layer,
   no more edges than running that layer over the merged block, with strict
   savings on the seed-side layer (the comparison is edge-for-edge fair:
   both samples see one epoch's draws under a uniform fanout).
"""

import pytest

from repro.evaluation.reporting import format_table
from repro.evaluation.training_study import (
    perhop_work_study,
    training_rows,
    training_study,
)

#: Sampled training may not end worse than full-graph training by more than
#: this absolute cross-entropy slack (in practice it ends far *better*: it
#: takes many more optimizer steps per epoch).
LOSS_PARITY_SLACK = 0.25


@pytest.mark.smoke
def test_sampled_minibatch_training_reaches_full_graph_loss_parity():
    """Acceptance gate: sampled-fanout training parity with full-graph."""
    study = training_study(model="rgat", epochs=6, batch_size=32, fanout=8)
    print()
    print(format_table(training_rows(study),
                       title=f"Training — {study['model']} on {study['graph']}"))
    assert study["both_losses_improved"], "training failed to reduce loss"
    assert study["sampled_final_loss"] <= study["full_final_loss"] + LOSS_PARITY_SLACK, (
        f"sampled training ended at {study['sampled_final_loss']} vs full-graph "
        f"{study['full_final_loss']} (slack {LOSS_PARITY_SLACK})"
    )


@pytest.mark.smoke
def test_per_hop_execution_does_no_more_aggregation_work_than_merged():
    """Acceptance gate: per-layer per-hop work ≤ merged-block work, with
    strict savings on the seed-side layer."""
    study = perhop_work_study(model="rgcn", num_layers=2, fanout=8)
    print()
    print(format_table(study["rows"],
                       title=f"Per-hop vs merged work — {study['num_layers']}-layer "
                             f"{study['model']}, fanout {study['fanout']}"))
    assert study["no_layer_does_more_work"], study["rows"]
    inner = study["rows"][-1]
    assert inner["per_hop_edges"] < inner["merged_edges"], (
        "the seed-side layer should aggregate over strictly fewer edges than "
        "the merged block"
    )
    assert study["aggregation_savings"] > 0.0


def test_per_hop_savings_grow_with_depth():
    """Three layers pay the merged frontier three times; per-hop pays each
    shrinking frontier once, so savings increase with depth."""
    two = perhop_work_study(model="rgcn", num_layers=2, fanout=6, num_requests=8)
    three = perhop_work_study(model="rgcn", num_layers=3, fanout=6, num_requests=8)
    assert three["aggregation_savings"] >= two["aggregation_savings"], (
        two["aggregation_savings"], three["aggregation_savings"],
    )


def test_full_accumulation_minibatch_epoch_tracks_full_graph_loss():
    """With unbounded fanout and whole-epoch accumulation the minibatch
    trainer follows full-graph training step for step (same mean gradient),
    so their loss curves agree closely epoch over epoch."""
    from repro.evaluation.training_study import DIM, citation_graph
    from repro.frontend.compiler import compile_model
    from repro.graph.generators import random_features, random_labels
    from repro.train import MinibatchTrainer

    graph = citation_graph(max_edges=2000)
    features = random_features(graph, DIM, seed=0)
    labels = random_labels(graph, DIM, seed=1)

    def curve(batch_size):
        module = compile_model("rgcn", graph, in_dim=DIM, out_dim=DIM, seed=0)
        trainer = MinibatchTrainer(
            module, graph, features, labels, optimizer="sgd", lr=0.5,
            batch_size=batch_size, accumulation_steps=None, fanouts=(None,),
        )
        return trainer.train(4).loss_curve()

    full_curve = curve(batch_size=None)
    minibatch_curve = curve(batch_size=64)
    for full, minibatch in zip(full_curve, minibatch_curve):
        assert abs(full - minibatch) < 1e-6, (full_curve, minibatch_curve)
