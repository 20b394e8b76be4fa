"""Adjacency assembly and normalization against dense-matrix oracles."""

import numpy as np
import pytest
import scipy.sparse as sp

from crossrec import graph as graph_module
from crossrec.data import SynthSpec, generate_synthetic
from crossrec.graph import (
    GraphBuildError,
    InteractionGraph,
    KnowledgeLinkage,
    SparseGraph,
    assemble_adjacency,
    first_seen,
    normalize_symmetric,
    scope_entity_edges,
    sorted_unique,
    unique_edges,
)


def dense_block_oracle(graph, kg):
    """Independent dense construction of the block adjacency."""
    item_entity = kg.item_entity_for(graph.domain_tag)
    n_u, n_i, n_e = graph.user_count, graph.item_count, kg.entity_count
    n = n_u + n_i + n_e
    dense = np.zeros((n, n))
    for u, i in graph.edges:
        dense[u, n_u + i] = 1
        dense[n_u + i, u] = 1
    for i, e in item_entity:
        dense[n_u + i, n_u + n_i + e] = 1
        dense[n_u + n_i + e, n_u + i] = 1
    for a, b in kg.entity_edges:
        dense[n_u + n_i + a, n_u + n_i + b] = 1
        dense[n_u + n_i + b, n_u + n_i + a] = 1
    return dense


def dense_normalize_oracle(dense):
    deg = (dense != 0).sum(axis=1).astype(float)
    inv = np.zeros_like(deg)
    inv[deg > 0] = 1.0 / np.sqrt(deg[deg > 0])
    return np.diag(inv) @ dense @ np.diag(inv)


def random_instance(rng, max_users=6, max_items=8, max_entities=6):
    n_u = int(rng.integers(1, max_users + 1))
    n_i = int(rng.integers(1, max_items + 1))
    n_e = int(rng.integers(1, max_entities + 1))
    pairs = [(u, i) for u in range(n_u) for i in range(n_i)]
    take = rng.permutation(len(pairs))[: max(1, int(0.4 * len(pairs)))]
    edges = [pairs[t] for t in take]
    links = [(i, int(rng.integers(n_e))) for i in range(n_i) if rng.random() < 0.7]
    entity_edges = [
        (a, b) for a in range(n_e) for b in range(n_e) if a != b and rng.random() < 0.3
    ]
    graph = InteractionGraph("source", n_u, n_i, edges)
    kg = KnowledgeLinkage(
        n_e,
        np.asarray(entity_edges, dtype=np.int64).reshape(len(entity_edges), 2),
        np.asarray(links, dtype=np.int64).reshape(len(links), 2),
        np.zeros((0, 2)),
    )
    return graph, kg


class TestAssembleAdjacency:
    def test_single_triple_chain(self):
        graph = InteractionGraph("source", 1, 1, [(0, 0)])
        kg = KnowledgeLinkage(1, np.zeros((0, 2)), [(0, 0)], np.zeros((0, 2)))
        result = assemble_adjacency(graph, kg)
        dense = result.matrix.toarray()
        assert result.nnz == 4
        expected = {(0, 1), (1, 0), (1, 2), (2, 1)}
        assert {tuple(idx) for idx in np.argwhere(dense)} == expected

    def test_empty_inputs(self):
        graph = InteractionGraph("source", 2, 2, np.zeros((0, 2)))
        result = assemble_adjacency(graph, KnowledgeLinkage.empty())
        assert result.nnz == 0
        assert result.node_count == 4

    def test_block_count_oracle(self):
        # 2 users, 3 items, 2 entities, 4 interactions, 2 links, 1 entity edge
        graph = InteractionGraph("source", 2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)])
        kg = KnowledgeLinkage(2, [(0, 1)], [(0, 0), (2, 1)], np.zeros((0, 2)))
        result = assemble_adjacency(graph, kg)
        assert result.nnz == 2 * 4 + 2 * 2 + 2 * 1
        assert np.array_equal(
            result.matrix.toarray(), dense_block_oracle(graph, kg)
        )

    def test_matches_dense_oracle_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            graph, kg = random_instance(rng)
            result = assemble_adjacency(graph, kg)
            assert np.array_equal(result.matrix.toarray(), dense_block_oracle(graph, kg))

    def test_out_of_range_rejected_with_edge(self):
        with pytest.raises(GraphBuildError, match=r"\(0, 5\)"):
            InteractionGraph("source", 2, 3, [(0, 5)])

    def test_repeated_rows_match_the_dense_oracle(self):
        # every block gets some of its rows again, entity edges also reversed
        rng = np.random.default_rng(11)

        def repeated(edges):
            if not len(edges):
                return edges
            return np.concatenate([edges, edges[rng.integers(0, len(edges), 3)]])

        for _ in range(25):
            graph, kg = random_instance(rng)
            graph = InteractionGraph("source", graph.user_count, graph.item_count,
                                     repeated(graph.edges))
            kg = KnowledgeLinkage(kg.entity_count,
                                  np.concatenate([repeated(kg.entity_edges),
                                                  kg.entity_edges[::-1, ::-1]]),
                                  repeated(kg.item_entity_source), kg.item_entity_target)
            result = assemble_adjacency(graph, kg)
            assert np.array_equal(result.matrix.toarray(), dense_block_oracle(graph, kg))
            assert np.all(result.matrix.data == 1.0)

    @pytest.mark.parametrize("count", [0, 1, 50, 400])
    def test_unique_edges_keep_first_occurrences(self, count):
        rng = np.random.default_rng(count)
        edges = [tuple(int(v) for v in rng.integers(0, 6, size=2)) for _ in range(count)]
        seen, oracle = set(), []
        for edge in edges:
            if edge not in seen:
                seen.add(edge)
                oracle.append(edge)
        unique, removed = unique_edges(edges)
        assert unique.dtype == np.int64 and unique.shape == (len(oracle), 2)
        assert [tuple(row) for row in unique.tolist()] == oracle
        assert removed == count - len(oracle)

    def test_entity_self_loops_rejected(self):
        with pytest.raises(GraphBuildError, match=r"^entity edge \(1, 1\) is a self-loop$"):
            KnowledgeLinkage(3, [(0, 1), (1, 1), (2, 2)], [(0, 0)], np.zeros((0, 2)))

    def test_diagonal_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            graph, kg = random_instance(rng)
            result = assemble_adjacency(graph, kg)
            assert np.all(result.matrix.diagonal() == 0)

    @pytest.mark.parametrize("shape", ["tiny", "desk"])
    def test_csr_arrays_equal_the_np_unique_build(self, shape, tiny_bundle, monkeypatch):
        bundle = tiny_bundle[0] if shape == "tiny" else generate_synthetic(SynthSpec(seed=1))[0]
        for graph in (bundle.source, bundle.target):
            built = assemble_adjacency(graph, bundle.kg).matrix
            with monkeypatch.context() as patch:
                patch.setattr(graph_module, "sorted_unique", np.unique)
                oracle = assemble_adjacency(graph, bundle.kg).matrix
            for name in ("indptr", "indices", "data"):
                actual, expected = getattr(built, name), getattr(oracle, name)
                assert actual.dtype == expected.dtype and np.array_equal(actual, expected), name

    @pytest.mark.parametrize("shape", ["tiny", "desk", "random"])
    def test_csr_arrays_equal_a_coo_build(self, shape, tiny_bundle):
        """The direct CSR build gives scipy's COO-to-CSR arrays, dtypes included."""
        if shape == "random":
            rng = np.random.default_rng(5)
            instances = [random_instance(rng, 30, 40, 20) for _ in range(20)]
        else:
            bundle = tiny_bundle[0] if shape == "tiny" else generate_synthetic(SynthSpec(seed=1))[0]
            instances = [(graph, bundle.kg) for graph in (bundle.source, bundle.target)]
        for graph, kg in instances:
            n_u, n_i = graph.user_count, graph.item_count
            n = n_u + n_i + kg.entity_count
            pairs = {(a, b) for edges, (da, db) in (
                (graph.edges, (0, n_u)), (kg.item_entity_for(graph.domain_tag), (n_u, n_u + n_i)),
                (kg.entity_edges, (n_u + n_i, n_u + n_i))) for a, b in (edges + (da, db)).tolist()}
            pairs |= {(b, a) for a, b in pairs}
            r, c = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2).T
            oracle = sp.csr_matrix((np.ones(r.size), (r, c)), shape=(n, n))
            built = assemble_adjacency(graph, kg).matrix
            assert built.indices.dtype == np.int32
            for name in ("indptr", "indices", "data"):
                actual, expected = getattr(built, name), getattr(oracle, name)
                assert actual.dtype == expected.dtype and np.array_equal(actual, expected), name


def first_seen_oracle(keys):
    """``np.unique``'s first indices and inverse, with the keys renumbered by first occurrence."""
    _, index, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.argsort(index)
    code = np.empty_like(rank)
    code[rank] = np.arange(rank.size)
    return code[inverse], index[rank]


@pytest.mark.parametrize("case", ["empty", "one", "all-equal", "repeats", "runs", "near-2**62",
                                  "uint64-top-bit"])
def test_first_seen_equals_np_unique_ranked(case):
    rng = np.random.default_rng(len(case))
    keys = {
        "empty": np.zeros(0, dtype=np.int64),
        "one": np.array([-7], dtype=np.int64),
        "all-equal": np.full(1000, 2**62, dtype=np.int64),
        "repeats": rng.integers(-50, 50, size=5000),
        "runs": np.repeat(rng.integers(0, 30, size=400), rng.integers(1, 6, size=400)),
        "near-2**62": 2**62 + rng.integers(-2000, 2000, size=20000),
        "uint64-top-bit": (rng.integers(0, 40, 6000).astype(np.uint64)
                           + np.uint64(2**63) * rng.integers(0, 2, 6000).astype(np.uint64)),
    }[case]
    before = keys.copy()
    codes, first = first_seen(keys)
    expected_codes, expected_first = first_seen_oracle(keys)
    assert codes.dtype == first.dtype == np.int64
    assert np.array_equal(codes, expected_codes) and np.array_equal(first, expected_first)
    assert np.array_equal(keys[first][codes], keys)
    assert np.array_equal(keys, before)  # the input is left as it was


@pytest.mark.parametrize("case", ["grouped", "scattered"])
def test_unique_edges_are_the_first_seen_rows(case):
    rng = np.random.default_rng(3)
    edges = rng.integers(0, 9, size=(3000, 2))
    if case == "grouped":  # runs of one repeated row, as in a file sorted by user
        edges = np.repeat(edges[:500], rng.integers(1, 7, size=500), axis=0)
    unique, removed = unique_edges(edges)
    oracle = list(dict.fromkeys(map(tuple, edges.tolist())))
    assert [tuple(row) for row in unique.tolist()] == oracle
    assert removed == len(edges) - len(oracle)


@pytest.mark.parametrize("case", ["empty", "one", "all-equal", "repeats", "near-2**62"])
def test_sorted_unique_equals_np_unique(case):
    rng = np.random.default_rng(len(case))
    keys = {
        "empty": np.zeros(0, dtype=np.int64),
        "one": np.array([-7], dtype=np.int64),
        "all-equal": np.full(1000, 2**62, dtype=np.int64),
        "repeats": rng.integers(-50, 50, size=5000),
        "near-2**62": 2**62 + rng.integers(-2000, 2000, size=20000),
    }[case]
    before = keys.copy()
    unique = sorted_unique(keys)
    expected = np.unique(keys)
    assert unique.dtype == expected.dtype == np.int64
    assert np.array_equal(unique, expected)
    assert np.array_equal(keys, before)  # the input is left as it was


class TestNormalizeSymmetric:
    def test_single_edge_unit_weight(self):
        graph = InteractionGraph("source", 1, 1, [(0, 0)])
        normalized = normalize_symmetric(assemble_adjacency(graph, KnowledgeLinkage.empty()))
        dense = normalized.matrix.toarray()
        assert dense[0, 1] == 1.0 and dense[1, 0] == 1.0

    def test_hub_weights(self):
        # user 0 interacts with 4 items, each of degree 1
        graph = InteractionGraph("source", 1, 4, [(0, i) for i in range(4)])
        normalized = normalize_symmetric(assemble_adjacency(graph, KnowledgeLinkage.empty()))
        assert np.allclose(normalized.matrix.data, 0.5)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            graph, kg = random_instance(rng)
            raw = assemble_adjacency(graph, kg)
            normalized = normalize_symmetric(raw)
            oracle = dense_normalize_oracle(raw.matrix.toarray())
            assert np.abs(normalized.matrix.toarray() - oracle).max() <= 1e-12

    def test_pattern_preserved_and_values_symmetric(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            graph, kg = random_instance(rng)
            raw = assemble_adjacency(graph, kg)
            normalized = normalize_symmetric(raw)
            assert np.array_equal(raw.matrix.indptr, normalized.matrix.indptr)
            assert np.array_equal(raw.matrix.indices, normalized.matrix.indices)
            dense = normalized.matrix.toarray()
            assert np.array_equal(dense, dense.T)

    def test_degree_identity(self):
        # for each node a: sum_b value(a, b) * sqrt(deg(b)) == sqrt(deg(a))
        rng = np.random.default_rng(13)
        for _ in range(10):
            graph, kg = random_instance(rng)
            raw = assemble_adjacency(graph, kg)
            normalized = normalize_symmetric(raw)
            deg = np.diff(raw.matrix.indptr).astype(float)
            lhs = normalized.matrix @ np.sqrt(deg)
            assert np.allclose(lhs[deg > 0], np.sqrt(deg[deg > 0]), atol=1e-12)

    def test_zero_degree_rows_skipped(self):
        graph = InteractionGraph("source", 2, 2, [(0, 0)])
        kg = KnowledgeLinkage(3, np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 2)))
        normalized = normalize_symmetric(assemble_adjacency(graph, kg))
        assert np.isfinite(normalized.matrix.data).all()
        assert normalized.matrix.getrow(1).nnz == 0  # user 1 has no edges

    def test_requires_symmetry(self):
        import scipy.sparse as sp

        lopsided = SparseGraph(1, 1, 0, sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])))
        with pytest.raises(GraphBuildError):
            normalize_symmetric(lopsided)


class TestEntityScoping:
    def test_radius_one_keeps_seed_neighborhood(self):
        # entities: 0 linked by an item; chain 0-1-2-3
        kg = KnowledgeLinkage(
            4, [(0, 1), (1, 2), (2, 3)], [(0, 0)], np.zeros((0, 2))
        )
        scoped, dropped = scope_entity_edges(kg, hop_radius=1)
        assert dropped == 2
        assert scoped.entity_edges.tolist() == [[0, 1]]
        assert scoped.entity_count == 4  # index space unchanged

    def test_radius_two_extends(self):
        kg = KnowledgeLinkage(
            4, [(0, 1), (1, 2), (2, 3)], [(0, 0)], np.zeros((0, 2))
        )
        scoped, dropped = scope_entity_edges(kg, hop_radius=2)
        assert dropped == 1
        assert scoped.entity_edges.tolist() == [[0, 1], [1, 2]]

    def test_no_edges_noop(self):
        kg = KnowledgeLinkage.empty()
        scoped, dropped = scope_entity_edges(kg, 1)
        assert dropped == 0 and scoped is kg
