"""Dual-domain predictors and the combined training objective.

Both domains are scored with the same fused user vector: the compressed
source-conditioned representation plus the user's target representation.
Scoring a source item with that fused vector is what lets source feedback
supervise the compression gates.

These functions check nothing: scores and representations are float64
arrays of matching shapes, built by ``training.forward_losses``, and
``TrainConfig`` checks the loss weights.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.special import expit


def score(fused_user, e_item):
    """Row-wise inner products of fused user vectors with item representations."""
    return np.sum(fused_user * e_item, axis=-1)


def softplus(x):
    return np.logaddexp(0.0, x)


def bpr_loss(pos_scores, neg_scores) -> float:
    """Mean pairwise ranking loss: softplus(neg - pos).

    Numerically stable for arbitrarily large score gaps; equals ln 2 when the
    scores tie and decays to zero as the positive pulls ahead.
    """
    return float(softplus(neg_scores - pos_scores).mean())


def bpr_loss_backward(pos_scores, neg_scores) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``bpr_loss`` w.r.t. the positive and negative scores."""
    g = expit(neg_scores - pos_scores) / pos_scores.size
    return -g, g


def cross_entropy_loss(pos_scores, neg_scores) -> float:
    """Point-wise alternative: positives labelled 1, negatives 0."""
    n = pos_scores.size + neg_scores.size
    return float((softplus(-pos_scores).sum() + softplus(neg_scores).sum()) / n)


def cross_entropy_loss_backward(pos_scores, neg_scores) -> tuple[np.ndarray, np.ndarray]:
    n = pos_scores.size + neg_scores.size
    return (expit(pos_scores) - 1.0) / n, expit(neg_scores) / n


class LossBundle(NamedTuple):
    """The four objective components and their weighted combination."""

    pred_target: float
    pred_source: float
    kl: float
    contrastive: float
    total: float


def total_loss(
    pred_target: float,
    pred_source: float,
    kl: float,
    contrastive: float,
    alphas: tuple[float, float, float],
) -> LossBundle:
    """Combine the components: pred_target + a1*pred_source + a2*kl + a3*contrastive."""
    a1, a2, a3 = (float(a) for a in alphas)
    total = pred_target + a1 * pred_source + a2 * kl + a3 * contrastive
    return LossBundle(pred_target, pred_source, kl, contrastive, total)
