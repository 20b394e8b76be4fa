"""Ablation variants: train one, rank its test holdout, and contaminate a split.

The command line's ``ablate``, the benchmark and the acceptance suite run
the ablation through these functions.  A variant names a modification of
the training objective or architecture:

- ``full``        the complete model
- ``no-pred-s``   drop the source-domain prediction loss (alpha1 = 0)
- ``no-kl``       drop the compression bound (alpha2 = 0)
- ``no-cl``       drop the contrastive alignment (alpha3 = 0)
- ``no-kg``       replace the entity bridge with per-item ID embeddings
- ``target-only`` single-domain light-convolution baseline

``contaminate_split`` adds uniformly random source training edges at a
given ratio; validation and test holdouts stay fixed, so retraining on it
isolates the contamination.  ``demos/04_noise_robustness.py`` sweeps the
ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    return ExperimentResult(variant_config, fit_result, per_user, aggregates)


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
