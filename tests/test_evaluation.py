"""Splits, ranking metrics against a brute-force oracle, noise injection."""

import math

import numpy as np
import pytest

from crossrec.evaluation import (
    RANK_BLOCK,
    Scorer,
    UserItems,
    held_out_ranks,
    inject_source_noise,
    rank_of_held_out,
    split_leave_one_out,
    evaluate_ranking,
)
from crossrec.graph import InteractionGraph, KnowledgeLinkage
from crossrec.data import DatasetBundle, SynthSpec, generate_synthetic
from crossrec.experiments import contaminate_split
from crossrec.training import SAMPLE_WINDOW, Batch, _owned_keys, _sample_batches

from metric_oracle import brute_force_rank, metrics_at


def make_bundle(source_edges, target_edges, n_users, n_items):
    return DatasetBundle(
        source=InteractionGraph("source", n_users, n_items, source_edges),
        target=InteractionGraph("target", n_users, n_items, target_edges),
        kg=KnowledgeLinkage.empty(),
        user_ids=[f"u{i}" for i in range(n_users)],
        source_item_ids=[f"s{i}" for i in range(n_items)],
        target_item_ids=[f"t{i}" for i in range(n_items)],
        entity_ids=[],
    )


def items_by_user_oracle(edges, user_count):
    """Per-edge bucketing: each user's items as an int64 array, in edge order."""
    buckets = [[] for _ in range(user_count)]
    for user, item in edges:
        buckets[user].append(int(item))
    return [np.asarray(bucket, dtype=np.int64) for bucket in buckets]


def split_oracle(bundle, rng):
    """Per-user loop over the bucketed edges: the leave-one-out split's arrays.

    ``rng`` is a seed or a Generator, which the loop draws from in place."""
    rng = np.random.default_rng(rng)
    source_items = items_by_user_oracle(bundle.source.edges, bundle.user_count)
    target_items = items_by_user_oracle(bundle.target.edges, bundle.user_count)
    users, validation, test, train_target, train_source = [], [], [], [], []
    for user in range(bundle.user_count):
        if len(source_items[user]) <= 3 or len(target_items[user]) <= 3:
            continue
        held = rng.choice(target_items[user], size=2, replace=False)
        users.append(user)
        validation.append(int(held[0]))
        test.append(int(held[1]))
        held_set = {int(held[0]), int(held[1])}
        train_target.extend((user, int(i)) for i in target_items[user] if int(i) not in held_set)
        train_source.extend((user, int(i)) for i in source_items[user])
    as_array = lambda values: np.asarray(values, dtype=np.int64)  # noqa: E731
    return {
        "users": as_array(users), "train_source": as_array(train_source),
        "train_target": as_array(train_target), "validation_items": as_array(validation),
        "test_items": as_array(test),
    }, bundle.user_count - len(users)


def sample_batches_oracle(rng, users, batch_size, items_by_user, item_counts):
    """Shuffle, then per user a positive and a rejection-sampled negative per domain."""
    order = rng.permutation(users)
    sets = {d: [set(a.tolist()) for a in by_user] for d, by_user in items_by_user.items()}
    batches = []
    for start in range(0, order.size, batch_size):
        chunk = order[start : start + batch_size]
        pairs = {}
        for domain, by_user in items_by_user.items():
            pos = np.empty(chunk.size, dtype=np.int64)
            neg = np.empty(chunk.size, dtype=np.int64)
            for row, user in enumerate(chunk):
                pos[row] = by_user[user][rng.integers(by_user[user].size)]
                candidate = int(rng.integers(item_counts[domain]))
                while candidate in sets[domain][user]:
                    candidate = int(rng.integers(item_counts[domain]))
                neg[row] = candidate
            pairs[domain] = (pos, neg)
        batches.append(Batch(chunk, pairs))
    return batches


def assert_sampler_matches_oracle(edges, counts, user_count, users, batch_size, domains,
                                  epochs=3):
    """Several epochs of ``_sample_batches`` against the per-user oracle on one
    stream: same batches, dtypes and final generator state."""
    owned = {d: (UserItems.build(edges[d], user_count), counts[d]) for d in domains}
    keys = {d: _owned_keys(index, n_items) for d, (index, n_items) in owned.items()}
    by_user = {d: items_by_user_oracle(edges[d], user_count) for d in domains}
    rng, oracle_rng = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(epochs):
        batches = _sample_batches(rng, users, batch_size, owned, keys)
        expected = sample_batches_oracle(oracle_rng, users, batch_size, by_user, counts)
        assert len(batches) == len(expected)
        for batch, oracle in zip(batches, expected):
            assert_same_array(batch.users, oracle.users)
            assert list(batch.pairs) == list(oracle.pairs) == list(domains)
            for domain, pair in oracle.pairs.items():
                for array, oracle_array in zip(batch.pairs[domain], pair):
                    assert_same_array(array, oracle_array)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


def identity_scorer(scores):
    """A scorer whose matrix product reproduces ``scores`` exactly."""
    return Scorer(np.asarray(scores, dtype=float), np.eye(np.shape(scores)[1]))


def index_of(items_by_user):
    """The UserItems holding ``items_by_user[u]`` for each user u."""
    edges = [(u, int(i)) for u, items in enumerate(items_by_user) for i in items]
    return UserItems.build(np.asarray(edges, dtype=np.int64), len(items_by_user))


def assert_same_array(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)


def awkward_bundle():
    """Shuffled edges; user 5 has none, user 6 too few target ones, user 0 a
    triplicated target item that the holdout can draw."""
    rng = np.random.default_rng(4)
    source = [(u, int(i)) for u in range(5) for i in rng.choice(9, 5, replace=False)]
    source += [(6, i) for i in range(6)]
    target = [(0, 3), (0, 3), (0, 3), (0, 4), (0, 5), (0, 6)]
    target += [(u, int(i)) for u in range(1, 5) for i in rng.choice(9, 6, replace=False)]
    target += [(6, 0), (6, 1)]
    source, target = (np.asarray(e)[rng.permutation(len(e))] for e in (source, target))
    return make_bundle(source, target, 7, 9)


class TestUserItems:
    @pytest.mark.parametrize("domain", ["source", "target"])
    def test_matches_per_edge_buckets(self, domain):
        bundle = awkward_bundle()
        edges = getattr(bundle, domain).edges
        index = UserItems.build(edges, bundle.user_count)
        expected = items_by_user_oracle(edges, bundle.user_count)
        for user in range(bundle.user_count):
            assert_same_array(np.ascontiguousarray(index[user]), expected[user])
        assert index.counts().tolist() == [len(items) for items in expected]

    def test_split_matches_per_user_loop(self):
        bundle = awkward_bundle()
        held_duplicate = False
        for seed in range(60):
            split = split_leave_one_out(bundle, seed)
            expected, excluded = split_oracle(bundle, seed)
            for name, array in expected.items():
                assert_same_array(getattr(split, name), array)
            assert split.excluded_users == excluded == 2
            held_duplicate |= 3 in (split.validation_items[0], split.test_items[0])
        assert held_duplicate  # every copy of a held-out item leaves the training edges

    def test_split_leaves_a_generator_where_the_loop_does(self):
        bundle = awkward_bundle()
        for seed in range(20):
            drawn, looped = (np.random.default_rng([seed, 9]) for _ in range(2))
            split = split_leave_one_out(bundle, drawn)
            expected, _ = split_oracle(bundle, looped)
            for name, array in expected.items():
                assert_same_array(getattr(split, name), array)
            assert drawn.bit_generator.state == looped.bit_generator.state

    def test_split_matches_per_user_loop_on_synthetic_data(self, tiny_bundle):
        bundle, _ = tiny_bundle
        split = split_leave_one_out(bundle, 3)
        expected, excluded = split_oracle(bundle, 3)
        for name, array in expected.items():
            assert_same_array(getattr(split, name), array)
        assert split.excluded_users == excluded

    @pytest.mark.parametrize("batch_size", [1, 4, 16])
    @pytest.mark.parametrize("domains", [("source", "target"), ("target",)])
    @pytest.mark.parametrize("noisy", [False, True])
    def test_sampler_matches_per_user_sets(self, tiny_bundle, tiny_split, batch_size,
                                           domains, noisy):
        # the noisy split's source edges are no longer sorted by user
        bundle, _ = tiny_bundle
        split = contaminate_split(bundle, tiny_split, 0.3, 5) if noisy else tiny_split
        edges = {"source": split.train_source, "target": split.train_target}
        counts = {"source": bundle.source.item_count, "target": bundle.target.item_count}
        assert_sampler_matches_oracle(edges, counts, bundle.user_count, split.users,
                                      batch_size, domains)

    @pytest.mark.parametrize("batch_size", [1, SAMPLE_WINDOW - 1, SAMPLE_WINDOW,
                                            SAMPLE_WINDOW + 1, 1000])
    @pytest.mark.parametrize("domains", [("source", "target"), ("target",)])
    def test_sampler_matches_per_user_sets_across_windows(self, batch_size, domains):
        # 150 users span several windows; user 0 owns every target item but
        # one (a long rejection run), user 1 a single item, user 2 repeats
        # its edges, and user 3 owns every source item but one
        rng = np.random.default_rng(11)
        counts = {"source": 40, "target": 30}
        edges = {}
        for domain, n_items in counts.items():
            rows = [(u, int(i)) for u in range(4, 150)
                    for i in rng.choice(n_items, int(rng.integers(1, 12)), replace=False)]
            rows += [(1, 7), (2, 5), (2, 9), (2, 5), (2, 5), (2, 9)]
            full, other = (0, 3) if domain == "target" else (3, 0)
            rows += [(full, int(i)) for i in rng.permutation(n_items)[1:]]
            rows += [(other, 3), (other, 4)]
            edges[domain] = np.asarray(rows, dtype=np.int64)[rng.permutation(len(rows))]
        users = np.arange(150)
        assert_sampler_matches_oracle(edges, counts, 150, users, batch_size, domains)


def test_array_bounds_draw_as_scalar_bounds():
    # the bulk sampler relies on this numpy property: one integers(0,
    # bounds) call gives the values, and leaves the generator state, of
    # one scalar integers(bound) call per bound in order
    rng = np.random.default_rng(2024)
    for trial in range(300):
        size = int(rng.integers(1, 61))
        top = 2 ** int(rng.integers(1, 32))
        bounds = rng.integers(1, top, size=size, endpoint=True)
        bounds[rng.random(size) < 0.1] = 1
        seed = [trial, 77]
        bulk, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        values = bulk.integers(0, bounds)
        expected = [scalar.integers(int(bound)) for bound in bounds]
        assert values.tolist() == expected
        assert bulk.bit_generator.state == scalar.bit_generator.state
        assert bulk.integers(1000) == scalar.integers(1000)


def test_choice_of_two_draws_as_floyd_pair():
    # the bulk leave-one-out split relies on this numpy property: choice(n,
    # 2, replace=False) draws below n - 1 and below n (Floyd's algorithm: the
    # second becomes n - 1 when it repeats the first), then below 2, and
    # swaps the pair when that last draw is 0
    rng = np.random.default_rng(2025)
    collisions = 0
    for trial in range(600):
        kind = trial % 3
        if kind == 0:  # small counts, where the second draw often collides
            n = int(rng.integers(4, 9))
        elif kind == 1:  # at and around powers of two, where rejection thresholds change
            n = 2 ** int(rng.integers(2, 17)) + int(rng.integers(-1, 2))
        else:
            n = int(rng.integers(4, 2 ** int(rng.integers(3, 17)), endpoint=True))
        n = max(n, 4)
        seed = [trial, 78]
        choice, floyd = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = choice.choice(np.arange(n), 2, replace=False)
        first, second, shuffle = (int(floyd.integers(bound)) for bound in (n - 1, n, 2))
        if second == first:
            second = n - 1
            collisions += 1
        pair = [second, first] if shuffle == 0 else [first, second]
        assert expected.tolist() == pair
        assert choice.bit_generator.state == floyd.bit_generator.state
    assert collisions > 20


class TestSplit:
    def test_four_interactions_split_two_one_one(self):
        source = [(0, i) for i in range(4)]
        target = [(0, i) for i in range(4)]
        bundle = make_bundle(source, target, 1, 6)
        split = split_leave_one_out(bundle, 0)
        assert split.users.tolist() == [0]
        assert split.train_target.shape[0] == 2
        assert split.validation_items.size == 1 and split.test_items.size == 1
        held = {int(split.validation_items[0]), int(split.test_items[0])}
        trained = {int(i) for _, i in split.train_target}
        assert held.isdisjoint(trained)
        assert held | trained == set(range(4))

    def test_three_interactions_excluded(self):
        source = [(0, i) for i in range(4)] + [(1, i) for i in range(4)]
        target = [(0, i) for i in range(4)] + [(1, i) for i in range(3)]
        bundle = make_bundle(source, target, 2, 6)
        split = split_leave_one_out(bundle, 0)
        assert split.users.tolist() == [0]
        assert split.excluded_users == 1
        # excluded users leave no trace in the training edges either
        assert not (split.train_target[:, 0] == 1).any()
        assert not (split.train_source[:, 0] == 1).any()

    def test_deterministic_under_seed(self, tiny_bundle):
        bundle, _ = tiny_bundle
        first = split_leave_one_out(bundle, 42)
        second = split_leave_one_out(bundle, 42)
        assert np.array_equal(first.validation_items, second.validation_items)
        assert np.array_equal(first.test_items, second.test_items)
        different = split_leave_one_out(bundle, 43)
        assert not (
            np.array_equal(first.validation_items, different.validation_items)
            and np.array_equal(first.test_items, different.test_items)
        )

    def test_no_qualified_users_raises(self):
        bundle = make_bundle([(0, 0)], [(0, 0)], 1, 3)
        with pytest.raises(ValueError):
            split_leave_one_out(bundle, 0)


class TestMetrics:
    def test_rank_one_is_perfect(self):
        values = metrics_at(1, (10, 100))
        assert values[("ndcg", 10)] == 1.0
        assert values[("hit", 10)] == 1.0
        assert values[("mrr", 10)] == 1.0

    def test_rank_three_exact_values(self):
        values = metrics_at(3, (10,))
        assert values[("ndcg", 10)] == pytest.approx(0.5)  # 1/log2(4)
        assert values[("mrr", 10)] == pytest.approx(1.0 / 3.0)
        assert values[("hit", 10)] == 1.0

    def test_rank_eleven_misses_at_ten(self):
        values = metrics_at(11, (10, 100))
        assert values[("ndcg", 10)] == 0.0
        assert values[("hit", 10)] == 0.0
        assert values[("mrr", 10)] == 0.0
        assert values[("ndcg", 100)] == pytest.approx(1.0 / math.log2(12.0))

    def test_monotone_in_k(self):
        for rank in range(1, 150):
            values = metrics_at(rank, (10, 100))
            for metric in ("ndcg", "hit", "mrr"):
                assert values[(metric, 10)] <= values[(metric, 100)]

    def test_rejects_rank_zero(self):
        with pytest.raises(ValueError):
            metrics_at(0, (10,))


class TestRankOfHeldOut:
    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            n = int(rng.integers(5, 40))
            scores = np.round(rng.normal(size=n), 2)  # rounding forces ties
            excluded = rng.choice(n, size=int(rng.integers(0, n // 2 + 1)), replace=False)
            candidates = np.setdiff1d(np.arange(n), excluded)
            held = int(rng.choice(candidates))
            expected = brute_force_rank(scores, held, excluded)
            assert rank_of_held_out(scores, held, excluded) == expected

    def test_tie_broken_by_index(self):
        scores = np.array([1.0, 1.0, 1.0])
        assert rank_of_held_out(scores, 0, np.array([], dtype=int)) == 1
        assert rank_of_held_out(scores, 2, np.array([], dtype=int)) == 3

    def test_excluded_item_cannot_be_held_out(self):
        with pytest.raises(ValueError):
            rank_of_held_out(np.array([1.0, 2.0]), 0, np.array([0]))

    def test_enumeration_order_invariance(self):
        # permuting how candidates are listed must not change any rank
        rng = np.random.default_rng(5)
        scores = rng.normal(size=20)
        excluded = np.array([3, 7])
        ranks = [rank_of_held_out(scores, h, excluded) for h in range(20) if h not in (3, 7)]
        shuffled_excluded = np.array([7, 3])
        again = [rank_of_held_out(scores, h, shuffled_excluded) for h in range(20) if h not in (3, 7)]
        assert ranks == again


class TestHeldOutRanks:
    def test_equals_per_user_rank_of_held_out(self):
        # rounded scores force ties; each user excludes a few items
        rng = np.random.default_rng(13)
        n_users, n_items = 30, 25
        scores = np.round(rng.normal(size=(n_users, n_items)), 1)
        excluded = [rng.choice(n_items, size=int(rng.integers(0, 8)), replace=False)
                    for _ in range(n_users)]
        users = np.array([3, 0, 29, 17, 8, 11])
        held = np.array([int(rng.choice(np.setdiff1d(np.arange(n_items), excluded[u])))
                         for u in users])
        expected = [rank_of_held_out(scores[u], h, excluded[u]) for u, h in zip(users, held)]
        assert held_out_ranks(identity_scorer(scores), users, held, index_of(excluded)) == expected
        assert expected == [brute_force_rank(scores[u], h, excluded[u]) for u, h in zip(users, held)]

    @pytest.mark.parametrize("n_users", [1, RANK_BLOCK - 1, RANK_BLOCK, RANK_BLOCK + 1])
    def test_blocks_equal_the_per_user_gemv_loop(self, n_users):
        # small-integer embeddings give exact, heavily tied scores in both the
        # block product and the per-user one; users come shuffled, a third
        # of them exclude nothing and some exclude an item twice
        rng = np.random.default_rng(n_users)
        n_pool, n_items, dim = n_users + 7, 30, 3
        scorer = Scorer(rng.integers(-2, 3, size=(n_pool, dim)).astype(float),
                        rng.integers(-2, 3, size=(n_items, dim)).astype(float))
        excluded = [np.repeat(rng.choice(n_items, size=int(rng.integers(0, 8)), replace=False),
                              int(rng.integers(1, 3))) if u % 3 else np.zeros(0, dtype=np.int64)
                    for u in range(n_pool)]
        users = rng.permutation(n_pool)[:n_users]
        held = np.array([int(rng.choice(np.setdiff1d(np.arange(n_items), excluded[u])))
                         for u in users])
        ranks = held_out_ranks(scorer, users, held, index_of(excluded))
        expected = [rank_of_held_out(scorer(int(u)), int(h), excluded[u])
                    for u, h in zip(users, held)]
        assert ranks == expected
        assert all(type(rank) is int for rank in ranks)
        assert expected == [brute_force_rank(scorer(int(u)), int(h), excluded[u])
                            for u, h in zip(users, held)]

    @pytest.mark.parametrize("position", [0, RANK_BLOCK - 1, RANK_BLOCK])
    def test_excluded_held_out_item_raises(self, position):
        n_users, n_items = RANK_BLOCK + 1, 6
        excluded = [np.array([u % n_items]) for u in range(n_users)]
        held = np.array([(u + 1) % n_items for u in range(n_users)])
        held[position] = position % n_items
        scorer = identity_scorer(np.zeros((n_users, n_items)))
        with pytest.raises(ValueError, match=f"held-out item {position % n_items} is excluded"):
            held_out_ranks(scorer, np.arange(n_users), held, index_of(excluded))


def awkward_scores(rng, n_rows, n_items):
    """Scores rounded to one decimal, so that ties fall before and after
    almost any item, with about 2% NaN, 1% inf and 1% -inf; row 0 is wholly
    tied."""
    scores = np.round(rng.normal(size=(n_rows, n_items)), 1)
    draw = rng.random(size=scores.shape)
    scores[draw < 0.02] = np.nan
    scores[(0.02 <= draw) & (draw < 0.03)] = np.inf
    scores[(0.03 <= draw) & (draw < 0.04)] = -np.inf
    scores[0] = 0.25
    return scores


def awkward_holdout(rng, scores):
    """Each row's excluded items and held-out item.

    Every third row excludes nothing; the others exclude up to 40 items
    drawn with replacement, so some are listed twice.  Rows 1, 2 and 3 hold
    out an item whose score is set to NaN, inf and -inf.
    """
    n_rows, n_items = scores.shape
    excluded = [rng.choice(n_items, size=int(rng.integers(1, 41))) if row % 3 else
                np.zeros(0, dtype=np.int64) for row in range(n_rows)]
    held = np.array([int(rng.choice(np.setdiff1d(np.arange(n_items), excluded[row])))
                     for row in range(n_rows)])
    for row, value in zip((1, 2, 3), (np.nan, np.inf, -np.inf)):
        if row < n_rows:
            scores[row, held[row]] = value
    return excluded, held


def as_pairs(excluded, rng):
    """Per-row excluded items as a (row, item) pair of index arrays, shuffled."""
    rows = np.repeat(np.arange(len(excluded)), [items.size for items in excluded])
    items = np.concatenate(excluded).astype(np.int64)
    order = rng.permutation(rows.size)
    return rows[order], items[order]


def ties_around_held(scores, held):
    """Rows whose held-out score is tied by an item before it and one after it."""
    rows = []
    for row, item in enumerate(held):
        tied = np.flatnonzero(scores[row] == scores[row, item])
        if tied.size and tied.min() < item < tied.max():
            rows.append(row)
    return rows


class TestRankingEquivalence:
    """``rank_of_held_out`` in both forms and ``held_out_ranks`` against the
    sort-and-scan oracle, on full-size catalogs with ties, NaN and +-inf."""

    @pytest.mark.parametrize("n_rows, n_items", [(40, 300), (20, 2000), (6, 16_100)])
    def test_block_and_one_user_forms_match_the_oracle(self, n_rows, n_items):
        rng = np.random.default_rng(n_items)
        scores = awkward_scores(rng, n_rows, n_items)
        excluded, held = awkward_holdout(rng, scores)
        before, bufsize = scores.copy(), np.getbufsize()
        expected = [brute_force_rank(scores[row], held[row], excluded[row]) for row in range(n_rows)]
        ranks = rank_of_held_out(scores, held, as_pairs(excluded, rng))
        assert ranks.tolist() == expected
        one_user = [rank_of_held_out(scores[row], held[row], excluded[row]) for row in range(n_rows)]
        assert one_user == expected
        assert all(type(rank) is int for rank in one_user)
        assert scores.tobytes() == before.tobytes() and np.getbufsize() == bufsize
        # the cases these inputs are for are reached
        assert expected[1] == 1 and 0 in ties_around_held(scores, held)
        assert len(ties_around_held(scores, held)) > n_rows // 2
        assert np.isinf(scores[2:4]).sum() > 2 and np.isnan(scores).sum() > n_rows

    @pytest.mark.parametrize("n_items", [300, 2000, 16_100])
    def test_one_row_block(self, n_items):
        rng = np.random.default_rng(n_items + 1)
        scores = awkward_scores(rng, 1, n_items)
        excluded, held = awkward_holdout(rng, scores)
        for items in (np.zeros(0, dtype=np.int64), np.setdiff1d(rng.choice(n_items, 60), held)):
            items = np.concatenate([items, items[:5]])
            expected = brute_force_rank(scores[0], held[0], items)
            ranks = rank_of_held_out(scores, held, (np.zeros_like(items), items))
            assert ranks.tolist() == [expected]

    @pytest.mark.parametrize("n_users, n_items", [(RANK_BLOCK + 3, 300), (40, 2000), (6, 16_100)])
    def test_held_out_ranks_match_the_oracle(self, n_users, n_items):
        # one-dimensional embeddings make every score one exact product: each
        # user scales one catalog row by +-2^k, which keeps every NaN,
        # infinity and tie (and swaps the infinities' signs when negative);
        # the row holds users 1, 2 and 3's NaN, inf and -inf held-out scores
        rng = np.random.default_rng(n_items + 2)
        scores = awkward_scores(rng, n_users, n_items)
        excluded, held = awkward_holdout(rng, scores)
        catalog = scores[1]
        catalog[held[2]], catalog[held[3]] = np.inf, -np.inf
        assert np.isnan(catalog[held[1]])
        scales = rng.choice([-1.0, 1.0], n_users) * 2.0 ** rng.integers(-4, 5, n_users)
        scorer = Scorer(scales[:, None], catalog[:, None])
        users = rng.permutation(n_users)
        ranks = held_out_ranks(scorer, users, held[users], index_of(excluded))
        expected = [brute_force_rank(scorer(int(u)), held[u], excluded[u]) for u in users]
        assert ranks == expected and expected[users.tolist().index(1)] == 1
        assert all(type(rank) is int for rank in ranks)

    def test_excluded_held_out_item_is_named(self):
        scores = np.arange(12.0).reshape(3, 4)
        with pytest.raises(ValueError, match="held-out item 2 is excluded from candidacy"):
            rank_of_held_out(scores[0], 2, np.array([1, 2]))
        # rows 2 and 1 both exclude their held-out item, listed row 2 first:
        # the error names row 1's
        rows, items = np.array([2, 0, 1]), np.array([3, 0, 1])
        with pytest.raises(ValueError, match="held-out item 1 is excluded from candidacy"):
            rank_of_held_out(scores, np.array([2, 1, 3]), (rows, items))


class TestEvaluateRanking:
    def test_aggregates_are_percentages(self):
        scores_by_user = {
            0: np.array([9.0, 5.0, 1.0]),  # held item 0 -> rank 1
            1: np.array([9.0, 5.0, 1.0]),  # held item 2 -> rank 3
        }
        results, aggregates = evaluate_ranking(
            identity_scorer([scores_by_user[0], scores_by_user[1]]),
            users=np.array([0, 1]),
            held_items=np.array([0, 2]),
            excluded_by_user=index_of([np.array([], dtype=int), np.array([], dtype=int)]),
            ks=(10,),
        )
        assert [r.rank for r in results] == [1, 3]
        assert aggregates[("hit", 10)] == pytest.approx(100.0)
        assert aggregates[("ndcg", 10)] == pytest.approx(100.0 * (1.0 + 0.5) / 2)
        assert aggregates[("mrr", 10)] == pytest.approx(100.0 * (1.0 + 1.0 / 3.0) / 2)

    @pytest.mark.parametrize("ranks", [
        np.random.default_rng(0).permutation(3300) + 1,
        # one user each at ranks whose gain np.log2 rounds one bit away from
        # math.log2's, a difference the x100 keeps (seen with numpy 2.4 on
        # AVX-512); a mean over many users can hide it
        np.array([7956]),
        np.array([15913]),
    ])
    def test_aggregates_equal_the_per_user_metric_dicts(self, ranks):
        # one-dimensional embeddings rank item i at i + 1 for every user, so
        # the held-out items set the ranks
        n = ranks.size
        scorer = Scorer(np.ones((n, 1)), -np.arange(ranks.max(), dtype=float)[:, None])
        ks = (1, 10, 1000, 16_000)
        excluded = index_of([np.zeros(0, dtype=np.int64)] * n)
        results, aggregates = evaluate_ranking(scorer, np.arange(n), ranks - 1, excluded, ks)
        assert [r.rank for r in results] == ranks.tolist()
        assert all(type(r.rank) is int for r in results)
        per_user = [metrics_at(r.rank, ks) for r in results]
        expected = {
            key: 100.0 * float(np.mean([values[key] for values in per_user]))
            for key in per_user[0]
        }
        assert list(aggregates) == list(expected)
        assert aggregates == expected


class TestInjectNoise:
    def test_ratio_zero_is_identity(self):
        graph = InteractionGraph("source", 4, 5, [(0, 0), (1, 1)])
        noisy, added = inject_source_noise(graph, 0.0, 0)
        assert noisy is graph
        assert added.size == 0

    def test_exact_count_and_no_duplicates(self):
        rng = np.random.default_rng(0)
        edges = [(u, i) for u in range(50) for i in rng.choice(100, 20, replace=False)]
        graph = InteractionGraph("source", 50, 100, edges)
        assert graph.edge_count == 1000
        noisy, added = inject_source_noise(graph, 0.1, 123)
        assert added.shape[0] == 100
        assert noisy.edge_count == 1100
        flat = set(map(tuple, noisy.edges.tolist()))
        assert len(flat) == 1100  # no duplicates anywhere

    def test_large_catalog_rejection_path(self):
        # a catalog of more than 5,000,000 user-item pairs, whose free pairs
        # are never listed: the draw maps ranks among them to pair keys
        n_users, n_items = 2500, 2001
        assert n_users * n_items > 5_000_000
        rng = np.random.default_rng(4)
        flat = rng.choice(n_users * n_items, size=3000, replace=False)
        graph = InteractionGraph("source", n_users, n_items, np.stack(np.divmod(flat, n_items), 1))
        noisy, added = inject_source_noise(graph, 0.37, 11)
        assert added.shape == (math.ceil(0.37 * 3000), 2)
        assert np.array_equal(noisy.edges[: graph.edge_count], graph.edges)
        assert np.array_equal(noisy.edges[graph.edge_count :], added)
        assert (added >= 0).all() and (added < [n_users, n_items]).all()
        pairs = set(map(tuple, added.tolist()))
        assert len(pairs) == added.shape[0]
        assert pairs.isdisjoint(map(tuple, graph.edges.tolist()))
        _, again = inject_source_noise(graph, 0.37, 11)
        assert np.array_equal(added, again)

    @pytest.mark.parametrize("seed", [3, 8])
    @pytest.mark.parametrize("ratio", [0.05, 0.6])
    def test_small_catalog_draws_from_the_complement(self, seed, ratio):
        # oracle: the free pairs in ascending order, listed through a mask of
        # every pair, drawn from with the same generator calls; the second
        # catalog has over 5,000,000 pairs
        for n_users, n_items in ((60, 45), (2500, 2001)):
            rng = np.random.default_rng(seed)
            flat = rng.choice(n_users * n_items, size=900, replace=False)
            graph = InteractionGraph("source", n_users, n_items, np.stack(np.divmod(flat, n_items), 1))
            free = np.ones(n_users * n_items, dtype=bool)
            free[flat] = False
            complement = np.flatnonzero(free)
            count = math.ceil(ratio * graph.edge_count)
            drawn = np.random.default_rng(seed + 100).choice(complement, size=count, replace=False)
            expected = np.stack(np.divmod(drawn, n_items), axis=1)
            _, added = inject_source_noise(graph, ratio, seed + 100)
            assert_same_array(added, expected)

    def test_rejects_when_no_free_pairs(self):
        full = [(u, i) for u in range(2) for i in range(2)]
        graph = InteractionGraph("source", 2, 2, full)
        with pytest.raises(ValueError):
            inject_source_noise(graph, 0.5, 0)

    def test_repeated_edges_take_one_pair(self):
        # (0, 0) three times leaves 3 of the 4 pairs free for ceil(0.5 * 3) = 2 edges
        graph = InteractionGraph("source", 2, 2, [(0, 0)] * 3)
        noisy, added = inject_source_noise(graph, 0.5, 0)
        assert added.shape == (2, 2)
        pairs = set(map(tuple, added.tolist()))
        assert len(pairs) == 2 and (0, 0) not in pairs
        assert np.array_equal(noisy.edges[:3], graph.edges)

    def test_injected_edges_disjoint_from_holdouts(self):
        # source noise lives in the source item space; the target-domain
        # validation/test items of every user can never collide with it
        spec = SynthSpec(user_count=40, source_items=50, target_items=50,
                         source_interactions=8, target_interactions=6, seed=2)
        bundle, _ = generate_synthetic(spec)
        split = split_leave_one_out(bundle, 2)
        train_graph = InteractionGraph(
            "source", bundle.user_count, bundle.source.item_count, split.train_source
        )
        _, added = inject_source_noise(train_graph, 0.2, 7)
        held = {
            (int(u), int(i), "target")
            for u, i in zip(split.users, split.validation_items)
        } | {
            (int(u), int(i), "target")
            for u, i in zip(split.users, split.test_items)
        }
        injected = {(int(u), int(i), "source") for u, i in added}
        assert injected.isdisjoint(held)

    def test_deterministic_under_seed(self):
        graph = InteractionGraph("source", 10, 10, [(u, u) for u in range(10)])
        _, first = inject_source_noise(graph, 0.5, 99)
        _, second = inject_source_noise(graph, 0.5, 99)
        assert np.array_equal(first, second)
