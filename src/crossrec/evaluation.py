"""Leave-one-out splitting, ranking metrics, and source-noise injection.

This module is model-agnostic: evaluation consumes a scoring callback that
maps a user index to scores over the full target catalog, so any trained
model (or a test stub) plugs in.  Ranks are 1-based; ties are broken by
ascending item index to keep every run reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import InteractionGraph
from .data import DatasetBundle

METRICS = ("ndcg", "hit", "mrr")


@dataclass(frozen=True)
class LeaveOneOutSplit:
    """Per-user holdout: one validation and one test target item each.

    Only users with more than three interactions in both domains qualify;
    the rest are excluded entirely (their edges appear nowhere).
    """

    users: np.ndarray
    train_source: np.ndarray
    train_target: np.ndarray
    validation_items: np.ndarray
    test_items: np.ndarray
    excluded_users: int

    def train_target_items_by_user(self, user_count: int) -> list[np.ndarray]:
        return _items_by_user(self.train_target, user_count)

    def train_source_items_by_user(self, user_count: int) -> list[np.ndarray]:
        return _items_by_user(self.train_source, user_count)


def _items_by_user(edges: np.ndarray, user_count: int) -> list[np.ndarray]:
    buckets: list[list[int]] = [[] for _ in range(user_count)]
    for user, item in edges:
        buckets[user].append(int(item))
    return [np.asarray(bucket, dtype=np.int64) for bucket in buckets]


def split_leave_one_out(bundle: DatasetBundle, rng) -> LeaveOneOutSplit:
    """Hold out one validation and one test target interaction per user.

    ``rng`` may be a seed or a ``numpy.random.Generator``; the same value
    always yields the same holdout.  Users with three or fewer interactions
    in either domain are excluded (with a count), matching the more-than-
    three-interactions filtering rule.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)

    n_users = bundle.user_count
    source_items = _items_by_user(bundle.source.edges, n_users)
    target_items = _items_by_user(bundle.target.edges, n_users)

    qualified: list[int] = []
    validation: list[int] = []
    test: list[int] = []
    train_target: list[tuple[int, int]] = []
    train_source: list[tuple[int, int]] = []
    excluded = 0
    for user in range(n_users):
        if len(source_items[user]) <= 3 or len(target_items[user]) <= 3:
            excluded += 1
            continue
        held = rng.choice(target_items[user], size=2, replace=False)
        qualified.append(user)
        validation.append(int(held[0]))
        test.append(int(held[1]))
        held_set = {int(held[0]), int(held[1])}
        train_target.extend((user, int(i)) for i in target_items[user] if int(i) not in held_set)
        train_source.extend((user, int(i)) for i in source_items[user])

    if not qualified:
        raise ValueError("no users qualify for leave-one-out evaluation")

    return LeaveOneOutSplit(
        users=np.asarray(qualified, dtype=np.int64),
        train_source=np.asarray(train_source, dtype=np.int64),
        train_target=np.asarray(train_target, dtype=np.int64),
        validation_items=np.asarray(validation, dtype=np.int64),
        test_items=np.asarray(test, dtype=np.int64),
        excluded_users=excluded,
    )


@dataclass
class RankingResult:
    user: int
    rank: int
    metrics: dict[tuple[str, int], float]


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


def rank_of_held_out(scores: np.ndarray, held_item: int, excluded_items: np.ndarray) -> int:
    """1-based rank of the held-out item among non-excluded candidates.

    Ties are resolved in favor of the lower item index, so the rank is the
    count of candidates that strictly beat the held-out item plus the count
    of equal-scored candidates with a smaller index, plus one.
    """
    candidate = np.ones(scores.shape[0], dtype=bool)
    candidate[excluded_items] = False
    if not candidate[held_item]:
        raise ValueError(f"held-out item {held_item} is excluded from candidacy")
    held_score = scores[held_item]
    better = (scores > held_score) & candidate
    tied_before = (scores == held_score) & candidate
    tied_before[held_item:] = False
    return int(better.sum() + tied_before.sum() + 1)


def held_out_ranks(score_fn, users, held_items, excluded_by_user) -> list[int]:
    """The rank loop of validation and test: :func:`rank_of_held_out` per user.

    Arguments as for :func:`evaluate_ranking`.
    """
    return [
        rank_of_held_out(score_fn(int(user)), int(held), excluded_by_user[int(user)])
        for user, held in zip(users, held_items)
    ]


def evaluate_ranking(
    score_fn,
    users: np.ndarray,
    held_items: np.ndarray,
    excluded_by_user: list[np.ndarray],
    ks: tuple[int, ...] = (10, 100),
) -> tuple[list[RankingResult], dict[tuple[str, int], float]]:
    """Rank each user's held-out item against the full remaining catalog.

    ``score_fn(user)`` must return scores over every target item.  Aggregates
    are means over users multiplied by 100, the usual percentage convention.
    """
    ranks = held_out_ranks(score_fn, users, held_items, excluded_by_user)
    results = [RankingResult(int(u), rank, metrics_at(rank, ks)) for u, rank in zip(users, ranks)]
    aggregates = {
        key: 100.0 * float(np.mean([r.metrics[key] for r in results]))
        for key in results[0].metrics
    }
    return results, aggregates


def inject_source_noise(
    graph: InteractionGraph, ratio: float, rng
) -> tuple[InteractionGraph, np.ndarray]:
    """Contaminate a source graph with uniformly random extra interactions.

    Adds ``ceil(ratio * |E|)`` user-item pairs not already present; existing
    edges are untouched.  Raises when the graph has too few free pairs left.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"noise ratio must lie in [0, 1], got {ratio}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    count = math.ceil(ratio * graph.edge_count)
    if count == 0:
        return graph, np.zeros((0, 2), dtype=np.int64)

    n_u, n_i = graph.user_count, graph.item_count
    existing = graph.edges[:, 0].astype(np.int64) * n_i + graph.edges[:, 1]
    free = n_u * n_i - existing.size
    if count > free:
        raise ValueError(
            f"cannot add {count} noise edges: only {free} free user-item pairs remain"
        )

    total = n_u * n_i
    if total <= 5_000_000:
        complement = np.setdiff1d(np.arange(total, dtype=np.int64), existing)
        flat = rng.choice(complement, size=count, replace=False)
    else:
        taken = set(existing.tolist())
        picks: list[int] = []
        while len(picks) < count:
            draw = rng.integers(0, total, size=2 * (count - len(picks)))
            for value in draw:
                value = int(value)
                if value not in taken:
                    taken.add(value)
                    picks.append(value)
                    if len(picks) == count:
                        break
        flat = np.asarray(picks, dtype=np.int64)

    new_edges = np.stack(np.divmod(flat, n_i), axis=1)
    combined = np.concatenate([graph.edges, new_edges], axis=0)
    noisy = InteractionGraph(graph.domain_tag, n_u, n_i, combined)
    return noisy, new_edges
