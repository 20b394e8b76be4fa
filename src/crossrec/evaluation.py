"""The per-user item index, leave-one-out splitting, ranking metrics, and
source-noise injection.

This module is model-agnostic: evaluation ranks with a :class:`Scorer`, a
user matrix and an item matrix whose products are the scores over the full
target catalog, so any trained model (or a test stub) plugs in.  Users are
scored in blocks of ``RANK_BLOCK`` with one matrix product each, and a block
is ranked with two comparison passes against each user's held-out score:
the items that score greater are counted, and the equal-scored ones matter
only in the rows that have a tie.  Ranks are 1-based; ties are broken by
ascending item index to keep every run reproducible, and a NaN score beats
and ties nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import InteractionGraph, sorted_unique
from .data import DatasetBundle, choice_from_complement

METRICS = ("ndcg", "hit", "mrr")
# cutoffs k that ranking reports when none are asked for
CUTOFFS = (10, 100)

# users scored by one matrix product when ranking
RANK_BLOCK = 256


@dataclass(frozen=True)
class UserItems:
    """Per-user item index in CSR form: ``index[u]`` is user u's items in edge order.

    ``rows`` holds the (user, item) edges stably sorted by user, so user u's
    edges are ``rows[indptr[u]:indptr[u + 1]]``.
    """

    indptr: np.ndarray
    rows: np.ndarray

    @classmethod
    def build(cls, edges: np.ndarray, user_count: int) -> UserItems:
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(edges[:, 0], minlength=user_count))))
        return cls(indptr, edges[np.argsort(edges[:, 0], kind="stable")])

    def __getitem__(self, user: int) -> np.ndarray:
        return self.rows[self.indptr[user] : self.indptr[user + 1], 1]

    def counts(self) -> np.ndarray:
        return np.diff(self.indptr)

    def entries(self, users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The given users' items as (position in ``users``, item) index arrays."""
        starts = self.indptr[users]
        counts = self.indptr[users + 1] - starts
        offsets = np.repeat(starts - np.cumsum(counts) + counts, counts)
        positions = np.arange(counts.sum()) + offsets
        return np.repeat(np.arange(users.size), counts), self.rows[positions, 1]


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

    def train_target_items_by_user(self, user_count: int) -> UserItems:
        return UserItems.build(self.train_target, user_count)


def split_leave_one_out(bundle: DatasetBundle, rng) -> LeaveOneOutSplit:
    """Hold out one validation and one test target interaction per user.

    ``rng`` may be a seed or a ``numpy.random.Generator``; the same value
    always yields the same holdout.  Users with three or fewer interactions
    in either domain are excluded (with a count), matching the more-than-
    three-interactions filtering rule.

    The holdout is drawn in bulk on the stream of one
    ``rng.choice(target[user], 2, replace=False)`` per user: for n edges,
    that is Floyd's draws below n - 1 and n (the second taken as n - 1 on a
    repeat) and a draw below 2 that swaps the pair on 0.  Its tail-shuffle
    path needs ``pop_size > 10000`` and ``size > pop_size // 50``, never so
    for size 2.  The draws are edge positions, so every copy of a held-out
    item leaves the training edges.
    """
    rng = np.random.default_rng(rng)

    n_users = bundle.user_count
    source = UserItems.build(bundle.source.edges, n_users)
    target = UserItems.build(bundle.target.edges, n_users)
    qualified = (source.counts() > 3) & (target.counts() > 3)
    users = np.flatnonzero(qualified)
    if not users.size:
        raise ValueError("no users qualify for leave-one-out evaluation")

    n = target.counts()[users]
    first, second, shuffle = rng.integers(0, np.stack([n - 1, n, np.full_like(n, 2)], 1)).T
    picks = np.stack([first, np.where(second == first, n - 1, second)], axis=1)
    picks[shuffle == 0] = picks[shuffle == 0, ::-1]
    held = np.full((n_users, 2), -1, dtype=np.int64)
    held[users] = target.rows[target.indptr[users][:, None] + picks, 1]
    owner, item = target.rows[:, 0], target.rows[:, 1]
    keep = qualified[owner] & (item != held[owner, 0]) & (item != held[owner, 1])
    return LeaveOneOutSplit(
        users=users,
        train_source=source.rows[qualified[source.rows[:, 0]]],
        train_target=target.rows[keep],
        validation_items=held[users, 0],
        test_items=held[users, 1],
        excluded_users=n_users - users.size,
    )


@dataclass
class RankingResult:
    user: int
    rank: int


def ndcg_gains(top: int) -> list[float]:
    """NDCG gains ``1 / math.log2(rank + 1)`` of ranks 1..top (not ``np.log2``,
    which differs in the last bit at some ranks)."""
    return [1.0 / math.log2(rank + 1) for rank in range(1, top + 1)]


def rank_of_held_out(scores: np.ndarray, held_item: np.ndarray, excluded_items) -> np.ndarray:
    """1-based rank of each row's held-out item among its non-excluded candidates.

    ``scores`` has one row per user, ``held_item`` one item per row, and
    ``excluded_items`` is a (row, item) pair of index arrays; the ranks come
    back as an integer array.  The rank is one plus the count of candidates
    that strictly beat the held-out item's score, plus the count of
    equal-scored candidates with a smaller index: ties go to the lower item
    index.  A NaN score beats nothing and ties with nothing, so a NaN
    held-out score ranks 1; ``inf`` ties with ``inf``.  A held-out item that
    is excluded raises ``ValueError`` naming the item of the first such row.

    A block is ranked with two comparison passes against each row's held-out
    score, ``greater`` and ``equal``.  The excluded pairs are cleared from
    both by a scatter, so a repeated pair counts once, and ``greater`` is
    counted per row through its bytes.  The lower-index ties are counted only
    in the rows that have one.  ``scores`` is never written to.
    """
    held = np.asarray(held_item)
    rows, items = excluded_items
    held_excluded = items == held[rows]
    if held_excluded.any():
        item = held[rows[held_excluded].min()]
        raise ValueError(f"held-out item {item} is excluded from candidacy")
    row = np.arange(scores.shape[0])
    held_score = scores[row, held][:, None]
    # numpy runs a broadcast comparison through its ufunc buffers, copying
    # the operands, when a row is shorter than half a buffer (8,192 elements
    # by default); with small buffers, rows of a few hundred items compare in
    # place at half the cost
    bufsize = np.setbufsize(256)
    try:
        greater, equal = scores > held_score, scores == held_score
    finally:
        np.setbufsize(bufsize)
    greater[rows, items] = False
    equal[rows, items] = False
    equal[row, held] = False  # what is left ties with a held-out item
    ranks = greater.view(np.uint8).sum(axis=-1, dtype=np.int32) + 1
    if equal.any():
        tied = np.flatnonzero(equal.any(axis=-1))
        before = np.arange(scores.shape[1]) < held[tied, None]
        ranks[tied] += np.count_nonzero(equal[tied] & before, axis=-1)
    return ranks


@dataclass(frozen=True)
class Scorer:
    """Scores over the full catalog: ``items @ users[u]`` for user u.

    ``users`` has one row per user and ``items`` one row per catalog item, in
    the same embedding space.
    """

    users: np.ndarray
    items: np.ndarray

    def __call__(self, user: int) -> np.ndarray:
        return self.items @ self.users[user]


def held_out_ranks(
    scorer: Scorer, users, held_items, excluded_by_user: UserItems
) -> list[int]:
    """The rank loop of validation and test, ``RANK_BLOCK`` users at a time.

    Each block is scored with one matrix product and ranked by
    :func:`rank_of_held_out`.  Arguments as for :func:`evaluate_ranking`.
    """
    users = np.asarray(users, dtype=np.int64)
    held_items = np.asarray(held_items, dtype=np.int64)
    ranks = np.empty(users.size, dtype=np.int64)
    for start in range(0, users.size, RANK_BLOCK):
        block = slice(start, start + RANK_BLOCK)
        scores = scorer.users[users[block]] @ scorer.items.T
        excluded = excluded_by_user.entries(users[block])
        ranks[block] = rank_of_held_out(scores, held_items[block], excluded)
    return ranks.tolist()


def evaluate_ranking(
    scorer: Scorer,
    users: np.ndarray,
    held_items: np.ndarray,
    excluded_by_user: UserItems,
    ks: tuple[int, ...] = CUTOFFS,
) -> tuple[list[RankingResult], dict[tuple[str, int], float]]:
    """Rank each user's held-out item against the full remaining catalog.

    Aggregates are means over users multiplied by 100, the usual percentage
    convention.  With the held-out item at 1-based rank r, a user counts
    ``1 / math.log2(r + 1)`` toward NDCG@k, 1 toward HIT@k and ``1 / r``
    toward MRR@k when r <= k, and 0 otherwise; the gains come from
    :func:`ndcg_gains`.
    """
    ranks = held_out_ranks(scorer, users, held_items, excluded_by_user)
    results = list(map(RankingResult, np.asarray(users).tolist(), ranks))
    ranks = np.asarray(ranks)
    top = min(max(ks), int(ranks.max()))
    gains = np.array(ndcg_gains(top))
    aggregates = {}
    for k in ks:
        hit = ranks <= k
        for metric, value in zip(METRICS, (gains[np.minimum(ranks, top) - 1], 1.0, 1.0 / ranks)):
            aggregates[(metric, k)] = 100.0 * float(np.mean(np.where(hit, value, 0.0)))
    return results, aggregates


def inject_source_noise(
    graph: InteractionGraph, ratio: float, rng
) -> tuple[InteractionGraph, np.ndarray]:
    """Contaminate a source graph with uniformly random extra interactions.

    Adds ``ceil(ratio * |E|)`` user-item pairs not already present; existing
    edges are untouched.  Raises when the graph has too few free pairs left.
    One exact draw picks the ranks of the new pairs among the free pairs in
    key order (``user * items + item``), so memory grows with the edges, not
    with the catalog; it draws what ``rng.choice`` over the explicit list of
    free pairs would (:func:`data.choice_from_complement`).
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"noise ratio must lie in [0, 1], got {ratio}")
    rng = np.random.default_rng(rng)
    count = math.ceil(ratio * graph.edge_count)
    if count == 0:
        return graph, np.zeros((0, 2), dtype=np.int64)

    n_u, n_i = graph.user_count, graph.item_count
    # repeated edges take one pair
    existing = sorted_unique(graph.edges[:, 0].astype(np.int64) * n_i + graph.edges[:, 1])
    free = n_u * n_i - existing.size
    if count > free:
        raise ValueError(
            f"cannot add {count} noise edges: only {free} free user-item pairs remain"
        )

    flat = choice_from_complement(rng, n_u * n_i, existing, count)
    new_edges = np.stack(np.divmod(flat, n_i), axis=1)
    combined = np.concatenate([graph.edges, new_edges], axis=0)
    noisy = InteractionGraph(graph.domain_tag, n_u, n_i, combined)
    return noisy, new_edges
