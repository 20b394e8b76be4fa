"""Ablation variant wiring and source-edge contamination."""

import numpy as np
import pytest

from crossrec.experiments import (
    VARIANTS,
    config_for_variant,
    contaminate_split,
    evaluate_fit,
    run_ablation,
)
from crossrec.training import TARGET_ONLY, TrainConfig, fit


BASE = TrainConfig(
    embedding_dim=8, gate_hidden=8, max_epochs=8, seed=3, batch_size=16,
    learning_rate=0.1, patience=0, alphas=(0.3, 0.1, 0.05),
)


class TestVariantConfigs:
    def test_full_passthrough(self):
        assert config_for_variant("full", BASE) is BASE

    def test_weight_zeroing(self):
        assert config_for_variant("no-pred-s", BASE).alphas == (0.0, 0.1, 0.05)
        assert config_for_variant("no-kl", BASE).alphas == (0.3, 0.0, 0.05)
        assert config_for_variant("no-cl", BASE).alphas == (0.3, 0.1, 0.0)

    def test_structural_variants(self):
        assert config_for_variant("no-kg", BASE).use_kg is False
        assert config_for_variant("target-only", BASE).model == TARGET_ONLY

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown ablation variant"):
            config_for_variant("no-such-thing", BASE)

    def test_variant_list_is_complete(self):
        assert set(VARIANTS) == {
            "full", "no-pred-s", "no-kl", "no-cl", "no-kg", "target-only"
        }


class TestRunAblation:
    def test_full_equals_fit_plus_evaluate(self, tiny_bundle, tiny_split):
        bundle, _ = tiny_bundle
        via_ablation = run_ablation("full", BASE, bundle, tiny_split, ks=(10,))
        direct_fit = fit(BASE, bundle, tiny_split)
        _, direct_metrics = evaluate_fit(direct_fit, tiny_split, bundle, BASE, ks=(10,))
        assert via_ablation.aggregates == direct_metrics

    def test_no_kl_reports_but_excludes_kl(self, tiny_bundle, tiny_split):
        bundle, _ = tiny_bundle
        result = run_ablation("no-kl", BASE, bundle, tiny_split, ks=(10,))
        record = result.fit_result.log[-1]
        # the bound is still evaluated and logged, but carries zero weight
        assert record.losses.kl != 0.0
        a1, _, a3 = BASE.alphas
        expected_total = (
            record.losses.pred_target
            + a1 * record.losses.pred_source
            + a3 * record.losses.contrastive
        )
        assert record.losses.total == pytest.approx(expected_total, rel=1e-12)

    def test_no_kg_and_target_only_run(self, tiny_bundle, tiny_split):
        bundle, _ = tiny_bundle
        for variant in ("no-kg", "target-only"):
            result = run_ablation(variant, BASE, bundle, tiny_split, ks=(10,))
            assert ("ndcg", 10) in result.aggregates
            assert np.isfinite(result.aggregates[("ndcg", 10)])

    def test_no_pred_s_drops_source_term(self, tiny_bundle, tiny_split):
        bundle, _ = tiny_bundle
        result = run_ablation("no-pred-s", BASE, bundle, tiny_split, ks=(10,))
        record = result.fit_result.log[-1]
        _, a2, a3 = BASE.alphas
        expected_total = (
            record.losses.pred_target
            + a2 * record.losses.kl
            + a3 * record.losses.contrastive
        )
        assert record.losses.total == pytest.approx(expected_total, rel=1e-12)


class TestContamination:
    def test_zero_ratio_identity(self, tiny_bundle, tiny_split):
        bundle, _ = tiny_bundle
        assert contaminate_split(bundle, tiny_split, 0.0, 0) is tiny_split

    def test_adds_only_source_edges(self, tiny_bundle, tiny_split):
        bundle, _ = tiny_bundle
        noisy = contaminate_split(bundle, tiny_split, 0.25, np.random.default_rng(4))
        expected = tiny_split.train_source.shape[0] + int(
            np.ceil(0.25 * tiny_split.train_source.shape[0])
        )
        assert noisy.train_source.shape[0] == expected
        assert np.array_equal(noisy.train_target, tiny_split.train_target)
        assert np.array_equal(noisy.test_items, tiny_split.test_items)
        assert np.array_equal(noisy.validation_items, tiny_split.validation_items)
