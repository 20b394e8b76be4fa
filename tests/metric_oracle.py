"""Per-user ranking metrics: the oracle the aggregate and validation tests compare against."""

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
