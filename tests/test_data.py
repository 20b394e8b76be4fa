"""Loader accounting, round-trips, and the synthetic generator."""

import math
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from crossrec import data
from crossrec.data import (
    KNN_BLOCK,
    PREFERENCE_BLOCK,
    DataPaths,
    SynthSpec,
    _choice_by_cdf,
    _nearest_neighbors,
    choice_from_complement,
    generate_synthetic,
    load_bundle,
    load_interactions,
    save_bundle,
    write_flags,
)


def _softmax(logits):
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def dense_knn_oracle(unit, count):
    """Each row's ``count`` most cosine-similar other rows of ``unit``, from the
    dense similarity matrix with one stable sort per row: descending
    similarity, ties to the lower index."""
    similarity = unit @ unit.T
    np.fill_diagonal(similarity, -np.inf)
    return np.stack([np.argsort(-row, kind="stable")[:count] for row in similarity])


def item_latents_oracle(spec, rng):
    """The generator's first draws: each domain's item latents around shared
    cluster centres."""
    k, n_clusters = spec.latent_dim, spec.entity_clusters
    centers = rng.normal(size=(n_clusters, k))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    item_latents = {}
    for domain, n_items in (("source", spec.source_items), ("target", spec.target_items)):
        clusters = rng.integers(0, n_clusters, size=n_items)
        item_latents[domain] = centers[clusters] + 0.3 * rng.normal(size=(n_items, k))
    return item_latents


def entity_unit_latents(item_latents):
    """One unit vector per entity: the source items' latents, then the target items'."""
    all_latents = np.concatenate([item_latents["source"], item_latents["target"]], axis=0)
    return all_latents / np.linalg.norm(all_latents, axis=1, keepdims=True)


def generate_synthetic_oracle(spec, dense_knn=True):
    """Reference generator: one ``rng.choice(p=softmax)`` per user and
    domain, each uniform draw's pool from ``np.setdiff1d``, and the entity
    kNN from :func:`dense_knn_oracle`.  Returns (source edges, target edges,
    entity edges, flags); the entity edges are None without ``dense_knn``."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    item_latents = item_latents_oracle(spec, rng)
    user_latents = rng.normal(size=(spec.user_count, spec.latent_dim))

    edges = {"source": [], "target": []}
    flags = []
    per_domain = {"source": spec.source_interactions, "target": spec.target_interactions}
    for user in range(spec.user_count):
        for domain in ("source", "target"):
            n_per = per_domain[domain]
            latents = item_latents[domain]
            probabilities = _softmax(latents @ user_latents[user])
            if domain == "source":
                uniform = rng.random(n_per) < spec.irrelevant_fraction
            else:
                uniform = np.zeros(n_per, dtype=bool)
            n_preferred = int((~uniform).sum())
            chosen = list(
                rng.choice(latents.shape[0], size=n_preferred, replace=False, p=probabilities)
            )
            if n_per - n_preferred:
                pool = np.setdiff1d(np.arange(latents.shape[0]), np.asarray(chosen, dtype=np.int64))
                chosen.extend(rng.choice(pool, size=n_per - n_preferred, replace=False))
            for position, item in enumerate(chosen):
                edges[domain].append((user, int(item)))
                if domain == "source":
                    flags.append(position >= n_preferred)

    as_edges = lambda pairs: np.asarray(pairs, dtype=np.int64)  # noqa: E731
    kg = None
    if dense_knn:
        unit = entity_unit_latents(item_latents)
        n_entities = unit.shape[0]
        neighbor_count = min(spec.entity_neighbors, n_entities - 1)
        nearest = dense_knn_oracle(unit, neighbor_count)
        kg = as_edges([(entity, int(other)) for entity in range(n_entities)
                       for other in nearest[entity]])
    return as_edges(edges["source"]), as_edges(edges["target"]), kg, np.asarray(flags, dtype=bool)


DESK_SHAPE = dict(
    user_count=500, source_items=300, target_items=300, latent_dim=8,
    irrelevant_fraction=0.3, source_interactions=12, target_interactions=6,
    entity_neighbors=4,
)
SMALL_SHAPE = dict(user_count=40, source_interactions=6, target_interactions=5)
# the most entities whose similarity rows all fit one kNN block of KNN_BLOCK values
ONE_BLOCK = math.isqrt(KNN_BLOCK)
HALF_BLOCK = ONE_BLOCK // 2
# users per preference block at a 256-item source catalog
BLOCK_USERS = PREFERENCE_BLOCK // 256
BLOCK_SHAPE = dict(SMALL_SHAPE, source_items=256, target_items=200)

# SynthSpec arguments by name; entity count = source_items + target_items
ORACLE_SHAPES = {
    **{f"desk-seed{seed}": dict(DESK_SHAPE, seed=seed) for seed in (1, 2, 3)},
    "below-one-block": dict(SMALL_SHAPE, source_items=HALF_BLOCK,
                            target_items=ONE_BLOCK - HALF_BLOCK - 20),
    "one-block": dict(SMALL_SHAPE, source_items=HALF_BLOCK,
                      target_items=ONE_BLOCK - HALF_BLOCK, seed=4),
    # the fewest entities that take two blocks
    "one-block-plus-one": dict(SMALL_SHAPE, source_items=HALF_BLOCK + 1,
                               target_items=ONE_BLOCK - HALF_BLOCK, seed=5),
    # several blocks, and an entity count that is not a multiple of 8
    "1100-entities": dict(SMALL_SHAPE, source_items=600, target_items=500, latent_dim=16,
                          entity_neighbors=7, seed=6),
    "neighbors-clamped": dict(user_count=10, source_items=6, target_items=5,
                              source_interactions=4, target_interactions=3,
                              entity_neighbors=10, seed=7),
    "all-relevant": dict(SMALL_SHAPE, source_items=50, target_items=40,
                         irrelevant_fraction=0.0, seed=8),
    "all-irrelevant": dict(SMALL_SHAPE, source_items=50, target_items=40,
                           irrelevant_fraction=1.0, seed=9),
    "whole-source-catalog": dict(user_count=30, source_items=12, target_items=20,
                                 source_interactions=12, target_interactions=4,
                                 irrelevant_fraction=0.5, seed=10),
    "preference-block-minus-one": dict(BLOCK_SHAPE, user_count=BLOCK_USERS - 1, seed=11),
    "one-preference-block": dict(BLOCK_SHAPE, user_count=BLOCK_USERS, seed=12),
    "preference-block-plus-one": dict(BLOCK_SHAPE, user_count=BLOCK_USERS + 1, seed=13),
    # each draw takes most of a small catalog, so the first CDF search repeats
    # items and every draw at this seed takes choice's retry path
    "retry-heavy": dict(user_count=60, source_items=40, target_items=30,
                        source_interactions=24, target_interactions=18,
                        irrelevant_fraction=0.2, seed=14),
    # uniform draws of about 360 from a pool above 10,000: choice's tail-shuffle path
    "wide-source-tail-shuffle": dict(user_count=6, source_items=10_500, target_items=50,
                                     source_interactions=400, target_interactions=5,
                                     irrelevant_fraction=0.9, seed=15),
}
# the dense oracle's similarity matrix would take 0.9 GB at 10,550 entities, so
# only the draws are compared there; the other shapes cover the blocked kNN
PREFERENCE_ONLY_SHAPES = {"wide-source-tail-shuffle"}


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture()
def small_files(tmp_path):
    write(tmp_path / "source.tsv", "alice\tbook1\nbob\tbook2\ncarol\tbook3\n")
    write(tmp_path / "target.tsv", "alice\tfilm1\nbob\tfilm2\ndave\tfilm3\n")
    write(tmp_path / "kg.tsv", "ent1\tent2\n")
    write(tmp_path / "map_source.tsv", "book1\tent1\nbook2\tent2\n")
    write(tmp_path / "map_target.tsv", "film1\tent1\n")
    return DataPaths(
        source=tmp_path / "source.tsv",
        target=tmp_path / "target.tsv",
        kg=tmp_path / "kg.tsv",
        map_source=tmp_path / "map_source.tsv",
        map_target=tmp_path / "map_target.tsv",
    )


class TestLoadBundle:
    def test_shared_users_only(self, small_files):
        bundle, report = load_bundle(small_files)
        # alice and bob appear in both domains; carol and dave do not
        assert bundle.user_ids == ["alice", "bob"]
        assert report.single_domain_users == 2
        assert report.single_domain_edges == {"source": 1, "target": 1}
        assert bundle.source.edge_count == 2
        assert bundle.target.edge_count == 2

    def test_drop_accounting_balances(self, small_files):
        bundle, report = load_bundle(small_files)
        for domain, graph in (("source", bundle.source), ("target", bundle.target)):
            dropped = report.duplicate_edges[domain] + report.single_domain_edges[domain]
            assert report.raw_edges[domain] == graph.edge_count + dropped

    def test_malformed_lines_reported_with_numbers(self, tmp_path, small_files):
        write(
            tmp_path / "source.tsv",
            "alice\tbook1\nbroken-line\nbob\tbook2\nalice\t\n",
        )
        bundle, report = load_bundle(small_files)
        positions = [(line, text) for (_, line, text) in report.malformed]
        assert (2, "broken-line") in positions
        assert (4, "alice\t") in positions
        assert report.raw_edges["source"] == 2

    def test_duplicate_interactions_counted(self, tmp_path, small_files):
        write(tmp_path / "source.tsv", "alice\tbook1\nalice\tbook1\nbob\tbook2\n")
        bundle, report = load_bundle(small_files)
        assert report.duplicate_edges["source"] == 1
        assert bundle.source.edge_count == 2

    def test_repeated_map_and_kg_lines_and_kg_self_loops_dropped(self, tmp_path, small_files):
        write(tmp_path / "map_source.tsv", "book1\tent1\nbook2\tent2\nbook1\tent1\n")
        write(tmp_path / "map_target.tsv", "film1\tent1\nfilm1\tent1\n")
        # ent3 is seen only in a self-loop: it keeps its index, but no edge
        write(tmp_path / "kg.tsv",
              "ent1\tent2\nent3\tent3\nent2\tent1\nent1\tr\tent2\nent1\tent1\n")
        bundle, report = load_bundle(small_files)
        assert report.kg_self_loops == 2
        assert report.duplicate_edges == {"source": 0, "target": 0, "map_source": 1,
                                          "map_target": 1, "kg": 1}
        assert report.scoped_out_kg_edges == 0
        assert bundle.entity_ids == ["ent1", "ent2", "ent3"]
        assert bundle.kg.entity_count == 3
        assert id_pairs(bundle)["map_source"] == [("book1", "ent1"), ("book2", "ent2")]
        assert id_pairs(bundle)["map_target"] == [("film1", "ent1")]
        assert id_pairs(bundle)["kg"] == [("ent1", "ent2"), ("ent2", "ent1")]

    def test_comment_lines_skipped(self, tmp_path, small_files):
        write(tmp_path / "source.tsv", "# provenance header\nalice\tbook1\nbob\tbook2\n")
        bundle, report = load_bundle(small_files)
        assert not report.malformed
        assert bundle.source.edge_count == 2

    def test_three_column_kg_ignores_relation(self, tmp_path, small_files):
        write(tmp_path / "kg.tsv", "ent1\trelated_to\tent2\n")
        bundle, _ = load_bundle(small_files)
        assert bundle.kg.entity_edges.shape[0] == 1

    def test_no_overlap_raises(self, tmp_path, small_files):
        write(tmp_path / "target.tsv", "zoe\tfilm1\n")
        with pytest.raises(ValueError):
            load_bundle(small_files)

    def test_missing_file_raises(self, tmp_path):
        paths = DataPaths(*(tmp_path / name for name in
                            ("a.tsv", "b.tsv", "c.tsv", "d.tsv", "e.tsv")))
        with pytest.raises(OSError):
            load_bundle(paths)

    def test_amazon_table_counts(self):
        # optional: checks known counts of the full movie/book dataset
        import os

        root = os.environ.get("CROSSREC_AMAZON_DIR")
        if not root:
            pytest.skip("set CROSSREC_AMAZON_DIR to run the full-dataset loader check")
        paths = DataPaths(
            source=f"{root}/book_interactions.tsv",
            target=f"{root}/movie_interactions.tsv",
            kg=f"{root}/kg.tsv",
            map_source=f"{root}/map_book.tsv",
            map_target=f"{root}/map_movie.tsv",
        )
        bundle, _ = load_bundle(paths)
        assert bundle.user_count == 11_240
        assert bundle.target.item_count == 16_100
        assert bundle.source.item_count == 47_377


def id_pairs(bundle):
    """Every table of a bundle as (left ID, right ID) pairs in edge order."""
    def named(edges, left_ids, right_ids):
        return [(left_ids[a], right_ids[b]) for a, b in edges.tolist()]

    users, entities, kg = bundle.user_ids, bundle.entity_ids, bundle.kg
    return {
        "source": named(bundle.source.edges, users, bundle.source_item_ids),
        "target": named(bundle.target.edges, users, bundle.target_item_ids),
        "map_source": named(kg.item_entity_source, bundle.source_item_ids, entities),
        "map_target": named(kg.item_entity_target, bundle.target_item_ids, entities),
        "kg": named(kg.entity_edges, entities, entities),
    }


class TestRoundTrip:
    def test_save_then_reload_is_identical(self, tiny_bundle, tmp_path):
        # the reload assigns indices in first-seen order, so compare through the IDs
        bundle, _ = tiny_bundle
        written = save_bundle(bundle, tmp_path / "out")
        reloaded, report = load_bundle(
            DataPaths(
                source=written["source"],
                target=written["target"],
                kg=written["kg"],
                map_source=written["map_source"],
                map_target=written["map_target"],
            )
        )
        for ids in ("user_ids", "source_item_ids", "target_item_ids", "entity_ids"):
            assert set(getattr(reloaded, ids)) == set(getattr(bundle, ids))
        assert id_pairs(reloaded) == id_pairs(bundle)

    def test_single_file_loader(self, tmp_path):
        path = write(tmp_path / "inter.tsv", "u1\ti1\nu2\ti2\nu1\ti2\n")
        graph, users, items = load_interactions(path)
        assert users == ["u1", "u2"]
        assert items == ["i1", "i2"]
        assert graph.edge_count == 3


class TestGenerateSynthetic:
    def test_all_relevant_when_fraction_zero(self):
        spec = SynthSpec(user_count=20, source_items=30, target_items=30,
                         source_interactions=5, target_interactions=5,
                         irrelevant_fraction=0.0, seed=1)
        _, flags = generate_synthetic(spec)
        assert not flags.any()

    def test_all_irrelevant_when_fraction_one(self):
        spec = SynthSpec(user_count=20, source_items=30, target_items=30,
                         source_interactions=5, target_interactions=5,
                         irrelevant_fraction=1.0, seed=1)
        _, flags = generate_synthetic(spec)
        assert flags.all()

    def test_fraction_within_binomial_tolerance(self):
        spec = SynthSpec(user_count=500, source_items=300, target_items=300,
                         latent_dim=8, irrelevant_fraction=0.3, seed=11)
        _, flags = generate_synthetic(spec)
        assert abs(flags.mean() - 0.3) <= 0.02

    def test_deterministic_under_seed(self):
        spec = SynthSpec(user_count=25, source_items=40, target_items=40, seed=9,
                         source_interactions=6, target_interactions=5)
        first_bundle, first_flags = generate_synthetic(spec)
        second_bundle, second_flags = generate_synthetic(spec)
        assert np.array_equal(first_bundle.source.edges, second_bundle.source.edges)
        assert np.array_equal(first_bundle.target.edges, second_bundle.target.edges)
        assert np.array_equal(first_flags, second_flags)

    def test_infeasible_counts_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(user_count=5, source_items=4, target_items=10,
                      source_interactions=5, target_interactions=5)

    def test_flags_align_with_source_edges(self, tiny_bundle, tmp_path):
        bundle, flags = tiny_bundle
        assert flags.shape[0] == bundle.source.edge_count
        write_flags(tmp_path / "flags.tsv", bundle, flags)
        lines = (tmp_path / "flags.tsv").read_text().strip().split("\n")
        assert len(lines) == bundle.source.edge_count
        assert all(line.split("\t")[2] in ("relevant", "irrelevant") for line in lines)

    def test_every_item_owns_an_entity(self, tiny_bundle):
        bundle, _ = tiny_bundle
        assert bundle.kg.entity_count == len(bundle.source_item_ids) + len(
            bundle.target_item_ids
        )
        assert bundle.kg.item_entity_source.shape[0] == len(bundle.source_item_ids)
        assert bundle.kg.item_entity_target.shape[0] == len(bundle.target_item_ids)

    @pytest.mark.parametrize("shape", ["tiny", *ORACLE_SHAPES])
    def test_matches_the_dense_oracle(self, tiny_spec, shape):
        spec = tiny_spec if shape == "tiny" else SynthSpec(**ORACLE_SHAPES[shape])
        bundle, flags = generate_synthetic(spec)
        source, target, kg, expected_flags = generate_synthetic_oracle(
            spec, dense_knn=shape not in PREFERENCE_ONLY_SHAPES)
        n_entities = spec.source_items + spec.target_items
        for actual, expected in (
            (bundle.source.edges, source),
            (bundle.target.edges, target),
            *([(bundle.kg.entity_edges, kg)] if kg is not None else []),
            (flags, expected_flags),
            (bundle.kg.item_entity_source,
             np.stack([np.arange(spec.source_items)] * 2, axis=1)),
            (bundle.kg.item_entity_target,
             np.stack([np.arange(spec.target_items),
                       spec.source_items + np.arange(spec.target_items)], axis=1)),
        ):
            assert actual.dtype == expected.dtype
            assert np.array_equal(actual, expected)
        assert bundle.kg.entity_count == n_entities == len(bundle.entity_ids)

    # coordinates of 0, ±1/2 and ±1 make every dot product exact in any
    # summation order, so equal similarities stay equal in every row block
    TIED_DIRECTIONS = np.array([
        [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
        [0.5, 0.5, 0.5, 0.5], [0.5, -0.5, 0.5, -0.5], [0.5, 0.5, -0.5, -0.5],
    ])

    @pytest.mark.parametrize("rows, count", [
        (6, 5),  # a clamped count: every other row
        (40, 4),
        (ONE_BLOCK + 37, 7),  # two row blocks, the last one short
    ])
    def test_nearest_neighbors_break_exact_ties_to_the_lower_index(self, rows, count):
        # duplicate directions tie at similarity 1, and the others at 0 or ±1/2
        rng = np.random.default_rng(rows)
        unit = self.TIED_DIRECTIONS[rng.integers(0, len(self.TIED_DIRECTIONS), size=rows)]
        nearest = _nearest_neighbors(unit, count)
        assert nearest.dtype == np.int64
        assert np.array_equal(nearest, dense_knn_oracle(unit, count))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_nearest_neighbors_do_not_depend_on_the_block_size(self, seed, monkeypatch):
        # a block size changes how the similarity product rounds; on the desk
        # shape's 600 entities, which leave a short last block at KNN_BLOCK,
        # no block size from one row to all of them moves a neighbour
        spec = SynthSpec(**DESK_SHAPE, seed=seed)
        unit = entity_unit_latents(
            item_latents_oracle(spec, np.random.default_rng(np.random.SeedSequence(seed))))
        n = unit.shape[0]
        expected = dense_knn_oracle(unit, spec.entity_neighbors)
        # rows per block; 32 is the mid and reference shapes', KNN_BLOCK // n
        # this shape's
        monkeypatch.setattr(data, "KNN_BLOCK", 0)
        for rows in (1, 7, 32, 256, KNN_BLOCK // n, n):
            monkeypatch.setattr(data, "KNN_ROWS", rows)
            assert np.array_equal(_nearest_neighbors(unit, spec.entity_neighbors), expected), rows

    def test_nearest_neighbors_of_identical_rows_are_the_others_in_index_order(self):
        unit = np.tile(self.TIED_DIRECTIONS[3], (5, 1))
        expected = [[other for other in range(5) if other != row] for row in range(5)]
        assert _nearest_neighbors(unit, 4).tolist() == expected

    def test_user_counts_support_leave_one_out(self, tiny_bundle):
        bundle, _ = tiny_bundle
        source_counts = np.bincount(bundle.source.edges[:, 0], minlength=bundle.user_count)
        target_counts = np.bincount(bundle.target.edges[:, 0], minlength=bundle.user_count)
        assert (source_counts > 3).all()
        assert (target_counts > 3).all()


def _cdf(p):
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return cdf


def test_choice_with_p_draws_as_a_cdf_search_with_retries():
    # generate_synthetic relies on this numpy property: choice(n, size,
    # replace=False, p=p) searches cumsum(p) / its last value (side="right")
    # for size uniform draws and keeps each item's first occurrence; while
    # items are missing, it zeroes the found ones in a copy of p, rebuilds
    # the CDF and searches size - found new draws
    rng = np.random.default_rng(2026)
    retries = 0
    for trial in range(400):
        kind = trial % 4
        n = int(rng.integers(2, 3000))
        if kind == 0:  # random p
            p = rng.random(n)
        elif kind == 1:  # sharply peaked p, where draws repeat and retries follow
            p = np.exp(6.0 * rng.normal(size=n))
        else:  # p with zeros
            p = rng.random(n) * (rng.random(n) < rng.uniform(0.05, 0.9))
            p[int(rng.integers(n))] = 1.0
        p /= p.sum()
        positive = int(np.count_nonzero(p > 0))
        # kind 3 draws every item p can give
        size = positive if kind == 3 else int(rng.integers(0, min(positive, 60) + 1))
        seed = [trial, 79]
        choice, search = np.random.default_rng(seed), np.random.default_rng(seed)
        cdf = _cdf(p)
        probe = np.random.default_rng(seed)
        retries += len(set(cdf.searchsorted(probe.random(size), side="right").tolist())) < size
        expected = choice.choice(n, size, replace=False, p=p)
        assert _choice_by_cdf(search, p, cdf, size) == expected.tolist()
        assert choice.bit_generator.state == search.bit_generator.state
        assert choice.integers(1000) == search.integers(1000)
    assert retries > 100

    # a draw that lands exactly on a CDF step takes the item after it
    seed = 80
    step = float(np.random.default_rng(seed).random())
    p = np.array([step, 1.0 - step])
    assert np.random.default_rng(seed).choice(2, 1, replace=False, p=p).tolist() == [1]
    assert _choice_by_cdf(np.random.default_rng(seed), p, _cdf(p), 1) == [1]


def test_choice_from_a_pool_draws_as_a_choice_over_its_size():
    # generate_synthetic relies on this numpy property: choice(pool, m,
    # replace=False) draws as choice(len(pool), m, replace=False) and takes
    # the pool's items at those indices, on every path of choice: small
    # pools, and pools above 10,000 with few draws or with more than
    # pool // 50 (the tail shuffle)
    rng = np.random.default_rng(2027)
    for trial in range(120):
        kind = trial % 3
        n = int(rng.integers(1, 400)) if kind == 0 else int(rng.integers(10_600, 14_000))
        taken = rng.permutation(n)[:int(rng.integers(0, min(n, 500)))]
        pool = np.setdiff1d(np.arange(n), taken)
        if kind == 2:
            size = int(rng.integers(pool.size // 50 + 1, pool.size // 10))
        else:
            size = int(rng.integers(0, min(pool.size, 200) + 1))
        seed = [trial, 81]
        choice, mapped = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = choice.choice(pool, size, replace=False)
        actual = choice_from_complement(mapped, n, taken, size)
        assert actual.tolist() == expected.tolist()
        assert choice.bit_generator.state == mapped.bit_generator.state
        assert choice.integers(1000) == mapped.integers(1000)


@contextmanager
def deadline(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_too_few_nonzero_probabilities_raise_as_in_numpy():
    p = np.array([0.5, 0.0, 0.5, 0.0])
    message = "Fewer non-zero entries in p than size"
    with pytest.raises(ValueError, match=message):
        np.random.default_rng(0).choice(4, 3, replace=False, p=p)
    with deadline(10), pytest.raises(ValueError, match=message):
        _choice_by_cdf(np.random.default_rng(0), p, _cdf(p), 3)
