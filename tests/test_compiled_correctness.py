"""End-to-end numerical correctness of the generated kernels.

For every model and every optimization configuration the compiled module's
forward output and parameter gradients must match the reference
implementation built on the autograd tensor substrate.
"""

import numpy as np
import pytest

from repro.frontend import compile_model
from repro.frontend.config import CONFIGURATIONS
from repro.models import MODEL_NAMES, REFERENCE_CLASSES

DIM = 8


def _build_pair(model, graph, options, seed=7):
    module = compile_model(model, graph, in_dim=DIM, out_dim=DIM, options=options, seed=seed)
    reference = REFERENCE_CLASSES[model](graph, DIM, DIM, seed=seed)
    reference.load_parameters({name: p.data for name, p in module.parameters_by_name.items()})
    return module, reference


@pytest.fixture(scope="module")
def features(small_graph):
    return np.random.default_rng(0).standard_normal((small_graph.num_nodes, DIM))


class TestForwardCorrectness:
    @pytest.mark.parametrize("model", MODEL_NAMES)
    @pytest.mark.parametrize("config", ["U", "C", "R", "C+R"])
    def test_forward_matches_reference(self, model, config, small_graph, features):
        module, reference = _build_pair(model, small_graph, CONFIGURATIONS[config])
        out = module.forward(features)
        ref = reference.forward(features)
        key = next(iter(out))
        np.testing.assert_allclose(out[key], ref[key].data, atol=1e-8)

    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_forward_on_skewed_graph(self, model, medium_graph):
        feats = np.random.default_rng(1).standard_normal((medium_graph.num_nodes, DIM))
        module, reference = _build_pair(model, medium_graph, CONFIGURATIONS["C+R"])
        out = module.forward(feats)
        ref = reference.forward(feats)
        key = next(iter(out))
        np.testing.assert_allclose(out[key], ref[key].data, atol=1e-8)

    def test_forward_rejects_wrong_feature_count(self, small_graph, features):
        module, _ = _build_pair("rgcn", small_graph, CONFIGURATIONS["U"])
        with pytest.raises(ValueError):
            module.forward(features[:-1])

    def test_forward_is_deterministic(self, small_graph, features):
        module, _ = _build_pair("rgat", small_graph, CONFIGURATIONS["C"])
        a = module.forward(features)["out"]
        b = module.forward(features)["out"]
        np.testing.assert_allclose(a, b)


class TestBackwardCorrectness:
    @pytest.mark.parametrize("model", MODEL_NAMES)
    @pytest.mark.parametrize("config", ["U", "C+R"])
    def test_parameter_gradients_match_reference(self, model, config, small_graph, features):
        module, reference = _build_pair(model, small_graph, CONFIGURATIONS[config])
        out = module.forward(features)
        key = next(iter(out))
        upstream = np.random.default_rng(2).standard_normal(out[key].shape)
        grads = module.backward({key: upstream})

        ref_out = reference.forward(features)
        ref_out[key].backward(upstream)
        ref_params = reference.named_parameter_dict()
        assert set(grads) == set(module.parameters_by_name)
        for name, grad in grads.items():
            assert ref_params[name].grad is not None, name
            np.testing.assert_allclose(grad, ref_params[name].grad, atol=1e-7, err_msg=name)

    def test_backward_before_forward_raises(self, small_graph):
        module, _ = _build_pair("rgcn", small_graph, CONFIGURATIONS["U"])
        with pytest.raises(RuntimeError):
            module.backward({"h_out": np.zeros((small_graph.num_nodes, DIM))})

    def test_gradients_accumulate_and_zero_grad_clears(self, small_graph, features):
        module, _ = _build_pair("rgcn", small_graph, CONFIGURATIONS["U"])
        out = module.forward(features)["h_out"]
        module.backward({"h_out": np.ones_like(out)})
        first = module.parameters_by_name["W"].grad.copy()
        module.forward(features)
        module.backward({"h_out": np.ones_like(out)})
        np.testing.assert_allclose(module.parameters_by_name["W"].grad, 2 * first, atol=1e-9)
        module.zero_grad()
        assert module.parameters_by_name["W"].grad is None


class TestCompiledTraining:
    def test_training_loop_reduces_loss(self, small_graph, features):
        """A few SGD steps through generated forward+backward kernels reduce the loss."""
        from repro.tensor import optim

        module, _ = _build_pair("rgcn", small_graph, CONFIGURATIONS["C+R"])
        rng = np.random.default_rng(3)
        labels = rng.integers(0, DIM, size=small_graph.num_nodes)
        optimizer = optim.SGD(module.parameters(), lr=0.05)

        def loss_and_grad(logits):
            shifted = logits - logits.max(axis=1, keepdims=True)
            log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            n = logits.shape[0]
            loss = -log_probs[np.arange(n), labels].mean()
            probs = np.exp(log_probs)
            grad = probs
            grad[np.arange(n), labels] -= 1.0
            return loss, grad / n

        losses = []
        for _ in range(15):
            optimizer.zero_grad()
            module.zero_grad()
            logits = module.forward(features)["h_out"]
            loss, grad = loss_and_grad(logits)
            module.backward({"h_out": grad})
            optimizer.step()
            losses.append(loss)
        assert losses[-1] < losses[0]

    def test_module_summary_and_source(self, small_graph):
        module, _ = _build_pair("hgt", small_graph, CONFIGURATIONS["C+R"])
        summary = module.summary()
        assert summary["num_parameters"] == module.num_parameters() > 0
        assert summary["compaction_enabled"] is True
        assert "def kernel_gemm_1" in module.generated_source()


def _attention_logits(model, module, graph, features):
    """The edge-softmax input of a compiled RGAT / HGT layer, recomputed."""
    params = {name: p.data for name, p in module.parameters_by_name.items()}
    src, dst, typ = graph.edge_src, graph.edge_dst, graph.edge_type
    if model == "rgat":
        W = params["W"][typ]
        hs = np.einsum("ei,eij->ej", features[src], W)
        ht = np.einsum("ei,eij->ej", features[dst], W)
        raw = (hs * params["w_s"][typ]).sum(-1) + (ht * params["w_t"][typ]).sum(-1)
        return np.where(raw > 0, raw, 0.2 * raw)
    ntype = graph.node_type_ids
    K = np.einsum("ni,nij->nj", features, params["W_K"][ntype])
    Q = np.einsum("ni,nij->nj", features, params["W_Q"][ntype])
    k_att = np.einsum("ei,eij->ej", K[src], params["W_ATT"][typ])
    return (k_att * Q[dst]).sum(-1) / np.sqrt(Q.shape[1])


class TestSoftmaxStability:
    """Attention logits near +-800 overflow a bare ``exp`` (float64 tops out
    near 709); the compiled edge softmax must shift by the per-destination
    max, as the reference does, and stay finite in both directions."""

    ATTENTION_WEIGHTS = {"rgat": ("w_s", "w_t"), "hgt": ("W_ATT",)}

    @pytest.mark.parametrize("model", ["rgat", "hgt"])
    @pytest.mark.parametrize("config", ["U", "C+R"])
    def test_large_logits_stay_finite_and_match_reference(self, model, config,
                                                          small_graph, features):
        module, reference = _build_pair(model, small_graph, CONFIGURATIONS[config])
        logits = _attention_logits(model, module, small_graph, features)
        scale = 800.0 / np.abs(logits).max()
        for name in self.ATTENTION_WEIGHTS[model]:
            module.parameters_by_name[name].data *= scale
        reference.load_parameters({name: p.data for name, p in module.parameters_by_name.items()})
        logits = _attention_logits(model, module, small_graph, features)
        assert np.abs(logits).max() == pytest.approx(800.0) and logits.max() > 709.0

        out = module.forward(features)
        key = next(iter(out))
        upstream = np.random.default_rng(2).standard_normal(out[key].shape)
        with np.errstate(over="raise", invalid="raise"):
            out = module.forward(features)
            grads = module.backward({key: upstream})
        assert np.isfinite(out[key]).all()
        assert all(np.isfinite(grad).all() for grad in grads.values())

        ref_out = reference.forward(features)
        np.testing.assert_allclose(out[key], ref_out[key].data, atol=1e-8)
        ref_out[key].backward(upstream)
        ref_params = reference.named_parameter_dict()
        for name, grad in grads.items():
            np.testing.assert_allclose(grad, ref_params[name].grad, atol=1e-7, err_msg=name)
