"""Predictors, ranking losses, and objective combination."""

import math

import numpy as np
import pytest
from scipy.special import expit

from crossrec.transfer import (
    LossBundle,
    bpr_loss,
    bpr_loss_backward,
    cross_entropy_loss,
    score,
    total_loss,
)
from crossrec.training import (
    CROSS,
    TARGET_ONLY,
    TrainConfig,
    build_scorer,
    forward_losses,
)

from full_matrix import initial_embeddings
from test_training import micro_setup


class TestScore:
    def test_orthogonal_fusion(self):
        assert score(np.array([1.0, 1.0]), np.array([1.0, -1.0])) == 0.0

    def test_hand_arithmetic(self):
        assert score(np.array([1.0, 1.0]), np.array([2.0, 3.0])) == 5.0

    def test_matches_dot_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            u, i = rng.normal(size=(2, 7))
            expected = sum(u[k] * i[k] for k in range(7))
            assert score(u, i) == pytest.approx(expected, rel=1e-12)

    def test_batched_rows(self):
        rng = np.random.default_rng(1)
        u, i = rng.normal(size=(2, 4, 6))
        batched = score(u, i)
        assert batched.shape == (4,)
        for row in range(4):
            assert batched[row] == pytest.approx(score(u[row], i[row]))

    def test_bilinear_in_fused_vector(self):
        rng = np.random.default_rng(2)
        u, i = rng.normal(size=(2, 5))
        a = 2.75
        assert score(a * u, i) == pytest.approx(a * score(u, i))
        j = rng.normal(size=5)
        assert score(u, i + j) == pytest.approx(score(u, i) + score(u, j))

    def test_fused_inner_product_on_training_and_serving_paths(self, dense_micro_bundle):
        # every score is (compressed + e_target) . item, with e_target and the
        # items from a dense power of the adjacency; without a source domain
        # the fused vector is e_target alone
        for model in (CROSS, TARGET_ONLY):
            config = TrainConfig(embedding_dim=4, gate_hidden=4, layers=2, seed=5, model=model)
            graphs, params, batch, draws = micro_setup(dense_micro_bundle, config)
            users, items = {}, {}
            for domain, graph in (("source", graphs.source), ("target", graphs.target)):
                if graph is None:
                    continue
                final = np.linalg.matrix_power(graph.matrix.toarray(), config.layers) @ (
                    initial_embeddings(params, graph, domain, config)
                )
                users[domain] = final[: graph.user_count]
                items[domain] = final[graph.user_count : graph.user_count + graph.item_count]
            users_t = users["target"]

            _, cache = forward_losses(params, graphs, batch, draws, config)
            fused = users_t[batch.users]
            if model == CROSS:
                fused = cache.mixed + fused
            assert list(cache.scores) == list(items)
            for domain, pair in batch.pairs.items():
                for scores, picked in zip(cache.scores[domain], pair):
                    by_hand = [fused[r] @ items[domain][item] for r, item in enumerate(picked)]
                    assert np.allclose(scores, by_hand, rtol=1e-10, atol=1e-12)

            served = users_t.copy()
            if model == CROSS:
                merged = users["source"] + users_t
                gate = expit(params.gate().forward(merged)[0])[:, None]
                served += gate * merged + (1.0 - gate) * merged.mean(axis=0)
            score_fn = build_scorer(params, graphs, config)
            for user in range(users_t.shape[0]):
                assert np.allclose(
                    score_fn(user), items["target"] @ served[user], rtol=1e-10, atol=1e-12
                )


class TestBprLoss:
    def test_tied_scores_give_log_two(self):
        tied = np.array([1.5, -0.3])
        assert bpr_loss(tied, tied.copy()) == pytest.approx(
            math.log(2.0), abs=1e-15
        )

    def test_saturation_to_zero(self):
        assert bpr_loss(np.array([1e4]), np.array([0.0])) == pytest.approx(0.0, abs=1e-30)

    def test_unit_gap_scalar_oracle(self):
        assert bpr_loss(np.array([1.0]), np.array([0.0])) == pytest.approx(0.3132616875182228, abs=1e-12)

    def test_large_negative_gap_stable(self):
        value = bpr_loss(np.array([0.0]), np.array([800.0]))
        assert np.isfinite(value) and value == pytest.approx(800.0, rel=1e-9)

    def test_translation_invariance_and_monotone(self):
        rng = np.random.default_rng(3)
        pos, neg = rng.normal(size=(2, 10))
        assert bpr_loss(pos + 3.7, neg + 3.7) == pytest.approx(bpr_loss(pos, neg))
        gaps = np.linspace(-3, 3, 30)
        values = [bpr_loss(np.array([g]), np.array([0.0])) for g in gaps]
        assert np.all(np.diff(values) < 0)

    def test_backward_is_sigmoid_of_gap(self):
        rng = np.random.default_rng(4)
        pos, neg = rng.normal(size=(2, 8))
        g_pos, g_neg = bpr_loss_backward(pos, neg)
        eps = 1e-6
        for i in range(8):
            bumped = pos.copy()
            bumped[i] += eps
            upper = bpr_loss(bumped, neg)
            bumped[i] -= 2 * eps
            lower = bpr_loss(bumped, neg)
            assert (upper - lower) / (2 * eps) == pytest.approx(g_pos[i], rel=1e-6, abs=1e-10)
        assert np.allclose(g_pos + g_neg, 0.0)

    def test_cross_entropy_alternative(self):
        value = cross_entropy_loss(np.array([0.0]), np.array([0.0]))
        assert value == pytest.approx(math.log(2.0), abs=1e-12)


class TestTotalLoss:
    def test_zero_weights_keep_target_loss(self):
        bundle = total_loss(1.7, 9.9, 3.3, 4.4, (0.0, 0.0, 0.0))
        assert bundle.total == 1.7

    def test_hand_arithmetic(self):
        bundle = total_loss(1.0, 2.0, 3.0, 4.0, (0.1, 0.5, 0.25))
        assert bundle.total == pytest.approx(3.7, abs=1e-15)

    def test_default_weight_configuration(self):
        # the stock movie-target configuration: (0.01, 1.0, 1.0)
        bundle = total_loss(0.5, 0.25, 0.125, 0.0625, (0.01, 1.0, 1.0))
        assert bundle.total == pytest.approx(0.5 + 0.0025 + 0.125 + 0.0625)

    def test_invariant_total_equals_weighted_sum(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            parts = rng.normal(size=4)
            alphas = tuple(rng.uniform(0, 2, size=3))
            bundle = total_loss(*parts, alphas)
            expected = parts[0] + alphas[0] * parts[1] + alphas[1] * parts[2] + alphas[2] * parts[3]
            assert bundle.total == pytest.approx(expected, rel=1e-15)

    def test_gradient_is_weighted_sum(self):
        # d total / d component == its weight, checked via finite differences
        alphas = (0.3, 0.7, 1.3)
        eps = 1e-6
        base = (0.9, 1.1, -0.4, 0.2)
        weights = (1.0, *alphas)
        for index in range(4):
            upper = list(base)
            lower = list(base)
            upper[index] += eps
            lower[index] -= eps
            numeric = (
                total_loss(*upper, alphas).total - total_loss(*lower, alphas).total
            ) / (2 * eps)
            assert numeric == pytest.approx(weights[index], rel=1e-5)

    def test_as_dict_roundtrip(self):
        bundle = total_loss(1.0, 2.0, 3.0, 4.0, (0.5, 0.5, 0.5))
        named = bundle._asdict()
        assert named["total"] == bundle.total
        assert list(named) == ["pred_target", "pred_source", "kl", "contrastive", "total"]
