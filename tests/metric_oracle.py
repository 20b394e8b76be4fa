"""Per-user ranks and ranking metrics: the oracles the ranking, aggregate and
validation tests compare against."""

from __future__ import annotations

import math


def metrics_at(rank: int, ks: tuple[int, ...]) -> dict[tuple[str, int], float]:
    """Exact single-relevant-item metrics as a function of the 1-based rank."""
    if rank < 1:
        raise ValueError(f"rank must be 1-based, got {rank}")
    values: dict[tuple[str, int], float] = {}
    for k in ks:
        hit = rank <= k
        values[("ndcg", k)] = 1.0 / math.log2(rank + 1) if hit else 0.0
        values[("hit", k)] = 1.0 if hit else 0.0
        values[("mrr", k)] = 1.0 / rank if hit else 0.0
    return values


def brute_force_rank(scores, held_item, excluded_items) -> int:
    """Sort-and-scan oracle: the 1-based place of ``held_item`` among the candidates.

    The candidates (the items not in ``excluded_items``) are ordered by
    (score descending, index ascending).  A NaN score beats and ties nothing,
    so NaN candidates are left out of the order and a NaN held-out score
    ranks 1; ``inf`` ties with ``inf``.
    """
    scores = [float(score) for score in scores]
    if math.isnan(scores[held_item]):
        return 1
    excluded = {int(item) for item in excluded_items}
    order = sorted(
        (item for item, score in enumerate(scores) if item not in excluded and not math.isnan(score)),
        key=lambda item: (-scores[item], item),
    )
    return order.index(held_item) + 1
