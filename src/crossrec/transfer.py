"""Dual-domain predictors and the combined training objective.

Both domains are scored with the same fused user vector: the compressed
source-conditioned representation plus the user's target representation.
Scoring a source item with that fused vector is what lets source feedback
supervise the compression gates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit


def score(fused_user, e_item):
    """Inner product of the fused user vector with an item representation.

    Accepts single vectors or row-aligned batches.
    """
    u = np.asarray(fused_user, dtype=np.float64)
    i = np.asarray(e_item, dtype=np.float64)
    if u.shape != i.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {i.shape}")
    result = np.sum(u * i, axis=-1)
    return float(result) if result.ndim == 0 else result


def softplus(x):
    return np.logaddexp(0.0, x)


def bpr_loss(pos_scores, neg_scores) -> float:
    """Mean pairwise ranking loss: softplus(neg - pos).

    Numerically stable for arbitrarily large score gaps; equals ln 2 when the
    scores tie and decays to zero as the positive pulls ahead.
    """
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if pos.shape != neg.shape:
        raise ValueError(f"shape mismatch: {pos.shape} vs {neg.shape}")
    return float(softplus(neg - pos).mean())


def bpr_loss_backward(pos_scores, neg_scores) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``bpr_loss`` w.r.t. the positive and negative scores."""
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    g = expit(neg - pos) / pos.size
    return -g, g


def cross_entropy_loss(pos_scores, neg_scores) -> float:
    """Point-wise alternative: positives labelled 1, negatives 0."""
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    return float((softplus(-pos).sum() + softplus(neg).sum()) / (pos.size + neg.size))


def cross_entropy_loss_backward(pos_scores, neg_scores) -> tuple[np.ndarray, np.ndarray]:
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    n = pos.size + neg.size
    return (expit(pos) - 1.0) / n, expit(neg) / n


@dataclass(frozen=True)
class LossBundle:
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
    if min(a1, a2, a3) < 0:
        raise ValueError(f"loss weights must be non-negative, got {alphas}")
    total = pred_target + a1 * pred_source + a2 * kl + a3 * contrastive
    return LossBundle(
        pred_target=float(pred_target),
        pred_source=float(pred_source),
        kl=float(kl),
        contrastive=float(contrastive),
        total=float(total),
    )
