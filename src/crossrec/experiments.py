"""Ablation variants and the source-noise robustness protocol.

A variant names a modification of the training objective or architecture:

- ``full``        the complete model
- ``no-pred-s``   drop the source-domain prediction loss (alpha1 = 0)
- ``no-kl``       drop the compression bound (alpha2 = 0)
- ``no-cl``       drop the contrastive alignment (alpha3 = 0)
- ``no-kg``       replace the entity bridge with per-item ID embeddings
- ``target-only`` single-domain light-convolution baseline

Noise robustness contaminates the source training edges with uniformly
random interactions at a given ratio and re-trains; validation and test
holdouts stay fixed so the comparison isolates the contamination.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import DatasetBundle
from .evaluation import (
    CUTOFFS,
    LeaveOneOutSplit,
    RankingResult,
    evaluate_ranking,
    inject_source_noise,
)
from .graph import SOURCE, InteractionGraph
from .training import TARGET_ONLY, FitResult, TrainConfig, build_scorer, fit

VARIANTS = ("full", "no-pred-s", "no-kl", "no-cl", "no-kg", "target-only")


def config_for_variant(variant: str, base: TrainConfig) -> TrainConfig:
    """Translate a variant tag into a concrete training configuration."""
    a1, a2, a3 = base.alphas
    if variant == "full":
        return base
    if variant == "no-pred-s":
        return replace(base, alphas=(0.0, a2, a3))
    if variant == "no-kl":
        return replace(base, alphas=(a1, 0.0, a3))
    if variant == "no-cl":
        return replace(base, alphas=(a1, a2, 0.0))
    if variant == "no-kg":
        return replace(base, use_kg=False)
    if variant == "target-only":
        return replace(base, model=TARGET_ONLY)
    raise ValueError(f"unknown ablation variant {variant!r}; choose from {VARIANTS}")


@dataclass
class ExperimentResult:
    variant: str
    config: TrainConfig
    fit_result: FitResult
    per_user: list[RankingResult]
    aggregates: dict[tuple[str, int], float]

    def metric(self, name: str, k: int) -> float:
        return self.aggregates[(name, k)]


def evaluate_fit(
    fit_result: FitResult,
    split: LeaveOneOutSplit,
    bundle: DatasetBundle,
    config: TrainConfig,
    ks: tuple[int, ...] = CUTOFFS,
) -> tuple[list[RankingResult], dict[tuple[str, int], float]]:
    """Rank each test holdout with the trained model's deterministic scorer."""
    scorer = build_scorer(fit_result.params, fit_result.graphs, config)
    excluded = split.train_target_items_by_user(bundle.user_count)
    return evaluate_ranking(scorer, split.users, split.test_items, excluded, ks)


def run_ablation(
    variant: str,
    config: TrainConfig,
    bundle: DatasetBundle,
    split: LeaveOneOutSplit,
    ks: tuple[int, ...] = CUTOFFS,
) -> ExperimentResult:
    """Train one variant and evaluate it on the test holdout."""
    variant_config = config_for_variant(variant, config)
    fit_result = fit(variant_config, bundle, split)
    per_user, aggregates = evaluate_fit(fit_result, split, bundle, variant_config, ks)
    return ExperimentResult(variant, variant_config, fit_result, per_user, aggregates)


def contaminate_split(
    bundle: DatasetBundle, split: LeaveOneOutSplit, ratio: float, rng
) -> LeaveOneOutSplit:
    """Add uniform noise interactions to the source training edges.

    The target-side holdout is untouched, so models trained on the noisy and
    clean splits are evaluated on identical test items.
    """
    if ratio == 0.0:
        return split
    train_graph = InteractionGraph(
        SOURCE, bundle.user_count, bundle.source.item_count, split.train_source
    )
    noisy, _ = inject_source_noise(train_graph, ratio, rng)
    return replace(split, train_source=noisy.edges)


def robustness_curve(
    variant: str,
    config: TrainConfig,
    bundle: DatasetBundle,
    split: LeaveOneOutSplit,
    ratios: tuple[float, ...],
    noise_seed: int = 0,
    metric: tuple[str, int] = ("ndcg", 10),
) -> dict[float, float]:
    """Test metric of one variant across source-noise ratios."""
    curve: dict[float, float] = {}
    for ratio in ratios:
        rng = np.random.default_rng(np.random.SeedSequence([noise_seed, int(round(ratio * 1000))]))
        noisy_split = contaminate_split(bundle, split, ratio, rng)
        result = run_ablation(variant, config, bundle, noisy_split, ks=(metric[1],))
        curve[ratio] = result.metric(*metric)
    return curve


def relative_degradation(curve: dict[float, float], at_ratio: float) -> float:
    """Fractional drop of the metric at ``at_ratio`` relative to the clean run."""
    clean = curve[0.0]
    if clean == 0.0:
        return 0.0 if curve[at_ratio] == 0.0 else np.inf
    return (clean - curve[at_ratio]) / clean
