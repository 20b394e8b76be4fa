"""Light graph convolution against dense power-iteration oracles and the full-matrix path."""

import numpy as np
import pytest

from crossrec.encoder import backprop_propagate, propagate
from crossrec.graph import (
    BLOCKS,
    ENTITIES,
    ITEMS,
    USERS,
    InteractionGraph,
    KnowledgeLinkage,
    assemble_adjacency,
    normalize_symmetric,
)

from full_matrix import block_rows, full_propagate, full_pullback, padded
from test_graph import dense_normalize_oracle, random_instance

# every live set a table layout uses: no KG, KG, and every block
LIVE_SETS = [(USERS, ITEMS), (USERS, ENTITIES), BLOCKS]
READ_ROWS = (USERS, ITEMS)


def build_normalized(rng, kg=True):
    graph, linkage = random_instance(rng)
    raw = assemble_adjacency(graph, linkage if kg else KnowledgeLinkage.empty())
    return normalize_symmetric(raw), raw.matrix.toarray()


def live_count(graph, live):
    return block_rows(graph, live).size


def with_non_finite(rng, x):
    """``x`` with NaN, +inf and -inf placed in a few random rows."""
    x = x.copy()
    if x.shape[0]:
        for value in (np.nan, np.inf, -np.inf):
            x[rng.integers(x.shape[0]), rng.integers(x.shape[1])] = value
    return x


class TestPropagate:
    def test_zero_layers_is_identity(self):
        rng = np.random.default_rng(0)
        normalized, _ = build_normalized(rng)
        e0 = rng.normal(size=(normalized.node_count, 3))
        state = propagate(normalized, e0, 0)
        visible = normalized.user_count + normalized.item_count
        assert np.array_equal(state.final, e0[:visible])
        assert state.final.shape[0] == visible

    def test_zero_input_stays_zero(self):
        rng = np.random.default_rng(1)
        normalized, _ = build_normalized(rng)
        state = propagate(normalized, np.zeros((normalized.node_count, 4)), 3)
        assert state.layers == 3
        assert np.all(state.final == 0)

    def test_single_edge_swap(self):
        # one user with embedding [1, 0], one item at zero, one edge: after a
        # single layer the unit-weight edge swaps the rows
        graph = InteractionGraph("source", 1, 1, [(0, 0)])
        normalized = normalize_symmetric(assemble_adjacency(graph, KnowledgeLinkage.empty()))
        e0 = np.array([[1.0, 0.0], [0.0, 0.0]])
        state = propagate(normalized, e0, 1)
        assert np.allclose(state.items, [[1.0, 0.0]])
        assert np.allclose(state.users, [[0.0, 0.0]])

    @pytest.mark.parametrize("layers", [0, 1, 2, 3])
    def test_matches_dense_power_oracle(self, layers):
        # every row the state returns, for every live set
        rng = np.random.default_rng(100 + layers)
        for _ in range(12):
            normalized, dense_raw = build_normalized(rng)
            oracle_op = dense_normalize_oracle(dense_raw)
            visible = normalized.user_count + normalized.item_count
            for live in LIVE_SETS:
                e0 = rng.normal(size=(live_count(normalized, live), 5))
                state = propagate(normalized, e0, layers, live)
                expected = np.linalg.matrix_power(oracle_op, layers) @ padded(normalized, e0, live)
                assert state.final.shape == (visible, 5)
                assert np.abs(state.final - expected[:visible]).max() <= 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(5)
        normalized, _ = build_normalized(rng)
        x = rng.normal(size=(normalized.node_count, 4))
        y = rng.normal(size=(normalized.node_count, 4))
        a, b = 0.37, -1.25
        combined = propagate(normalized, a * x + b * y, 2).final
        separate = a * propagate(normalized, x, 2).final + b * propagate(normalized, y, 2).final
        assert np.abs(combined - separate).max() <= 1e-12

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        normalized, _ = build_normalized(rng)
        with pytest.raises(ValueError):
            propagate(normalized, np.zeros((normalized.node_count + 1, 3)), 1)
        with pytest.raises(ValueError):
            propagate(normalized, np.zeros((normalized.node_count, 3)), 1, (USERS, ENTITIES))

    def test_zero_layers_reject_a_mis_sized_input(self):
        rng = np.random.default_rng(7)
        normalized, _ = build_normalized(rng)
        for live in LIVE_SETS:
            for rows in (live_count(normalized, live) - 1, live_count(normalized, live) + 1):
                with pytest.raises(ValueError):
                    propagate(normalized, np.zeros((rows, 3)), 0, live)


class TestBackpropPropagate:
    def test_zero_layers_passthrough(self):
        rng = np.random.default_rng(2)
        normalized, _ = build_normalized(rng)
        visible = normalized.user_count + normalized.item_count
        e0 = rng.normal(size=(normalized.node_count, 3))
        state = propagate(normalized, e0, 0)
        grad = rng.normal(size=state.final.shape)
        pulled = backprop_propagate(grad, state, normalized)
        assert pulled.shape == e0.shape
        assert np.array_equal(pulled[:visible], grad)
        assert np.all(pulled[visible:] == 0)
        # under the entity bridge the user rows pass and the entity rows,
        # which no read reaches at zero layers, get a zero gradient
        live = (USERS, ENTITIES)
        users = normalized.user_count
        state = propagate(normalized, rng.normal(size=(live_count(normalized, live), 3)), 0, live)
        pulled = backprop_propagate(grad, state, normalized)
        assert pulled.shape == (users + normalized.entity_count, 3)
        assert np.array_equal(pulled[:users], grad[:users])
        assert np.all(pulled[users:] == 0)

    def test_adjoint_identity(self):
        # <propagate(x), y> == <x, backprop(y)> for every live set
        rng = np.random.default_rng(3)
        for _ in range(10):
            normalized, _ = build_normalized(rng)
            for live in LIVE_SETS:
                x = rng.normal(size=(live_count(normalized, live), 4))
                state = propagate(normalized, x, 2, live)
                y = rng.normal(size=state.final.shape)
                lhs = float(np.sum(state.final * y))
                rhs = float(np.sum(x * backprop_propagate(y, state, normalized)))
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_matches_finite_differences(self):
        # 10-node graph: d f(e0)/d e0 for f = sum(propagate(e0).final * W)
        rng = np.random.default_rng(4)
        graph = InteractionGraph("source", 3, 4, [(0, 0), (0, 1), (1, 1), (2, 2), (2, 3)])
        kg = KnowledgeLinkage(3, [(0, 1), (1, 2)], [(0, 0), (1, 1), (3, 2)], np.zeros((0, 2)))
        normalized = normalize_symmetric(assemble_adjacency(graph, kg))
        assert normalized.node_count == 10
        e0 = rng.normal(size=(10, 3))
        weights = rng.normal(size=(7, 3))

        state = propagate(normalized, e0, 2)
        analytic = backprop_propagate(weights, state, normalized)

        eps = 1e-6
        worst = 0.0
        for i in range(10):
            for j in range(3):
                bumped = e0.copy()
                bumped[i, j] += eps
                upper = float(np.sum(propagate(normalized, bumped, 2).final * weights))
                bumped[i, j] -= 2 * eps
                lower = float(np.sum(propagate(normalized, bumped, 2).final * weights))
                numeric = (upper - lower) / (2 * eps)
                denom = max(abs(numeric), abs(analytic[i, j]), 1e-10)
                worst = max(worst, abs(numeric - analytic[i, j]) / denom)
        assert worst <= 1e-6

    def test_shape_check(self):
        rng = np.random.default_rng(8)
        normalized, _ = build_normalized(rng)
        state = propagate(normalized, np.zeros((normalized.node_count, 3)), 1)
        with pytest.raises(ValueError):
            backprop_propagate(np.zeros((1, 3)), state, normalized)


class TestBlockHops:
    """The block hops give the full-matrix path's bits, non-finite rows included."""

    @pytest.mark.parametrize("kg", [True, False], ids=["kg", "no-kg"])
    @pytest.mark.parametrize("layers", [0, 1, 2, 3])
    def test_propagate_is_the_full_matrix_path_bit_for_bit(self, kg, layers):
        rng = np.random.default_rng(300 + 10 * layers + kg)
        for _ in range(20):
            normalized, _ = build_normalized(rng, kg)
            for live in LIVE_SETS:
                x = with_non_finite(rng, rng.normal(size=(live_count(normalized, live), 3)))
                with np.errstate(invalid="ignore"):
                    state = propagate(normalized, x, layers, live)
                    expected = full_propagate(normalized, x, layers, live)
                assert np.array_equal(state.final, expected, equal_nan=True)

    @pytest.mark.parametrize("kg", [True, False], ids=["kg", "no-kg"])
    @pytest.mark.parametrize("layers", [0, 1, 2, 3])
    def test_pullback_is_the_full_matrix_pullback_bit_for_bit(self, kg, layers):
        rng = np.random.default_rng(400 + 10 * layers + kg)
        for _ in range(20):
            normalized, _ = build_normalized(rng, kg)
            for live in LIVE_SETS:
                x = np.zeros((live_count(normalized, live), 3))
                state = propagate(normalized, x, layers, live)
                grad = with_non_finite(rng, rng.normal(size=state.final.shape))
                with np.errstate(invalid="ignore"):
                    pulled = backprop_propagate(grad, state, normalized)
                    expected = full_pullback(normalized, grad, layers, live)
                assert np.array_equal(pulled, expected, equal_nan=True)

    def test_read_blocks_that_cannot_be_nonzero_are_exact_zeros(self):
        # under the entity bridge, E(0) has zero item rows, and one hop takes
        # users only from items
        rng = np.random.default_rng(11)
        live = (USERS, ENTITIES)
        for _ in range(10):
            normalized, _ = build_normalized(rng)
            x = rng.normal(size=(live_count(normalized, live), 3))
            assert np.all(propagate(normalized, x, 0, live).items == 0)
            assert np.all(propagate(normalized, x, 1, live).users == 0)

    def test_zero_layers_are_one_selection_hop_and_its_transpose(self):
        rng = np.random.default_rng(14)
        normalized, _ = build_normalized(rng)
        eye = np.eye(normalized.node_count)
        for live in LIVE_SETS:
            hops = normalized.hops(live, 0)
            assert len(hops.forward) == len(hops.adjoint) == 1
            (hop,), (adjoint,) = hops.forward, hops.adjoint
            selection = eye[np.ix_(block_rows(normalized, READ_ROWS), block_rows(normalized, live))]
            assert np.array_equal(hop.toarray(), selection)
            assert adjoint.format == "csc" and np.array_equal(adjoint.toarray(), selection.T)

    def test_every_block_live_uses_the_matrix_itself(self):
        rng = np.random.default_rng(12)
        normalized, _ = build_normalized(rng, kg=False)
        for live in [(USERS, ITEMS), BLOCKS]:
            hops = normalized.hops(live, 3)
            assert normalized.hops(live, 3) is hops
            assert all(hop is normalized.matrix for hop in hops.forward)

    def test_kg_hops_share_arrays_with_their_transposes_and_skip_entries(self):
        rng = np.random.default_rng(13)
        normalized, _ = build_normalized(rng)
        hops = normalized.hops((USERS, ENTITIES), 2)
        for hop, adjoint in zip(hops.forward, reversed(hops.adjoint)):
            assert adjoint.format == "csc" and adjoint.shape == hop.shape[::-1]
            assert np.shares_memory(adjoint.data, hop.data)
            assert np.shares_memory(adjoint.indices, hop.indices)
        assert sum(hop.nnz for hop in hops.forward) < 2 * normalized.nnz

    @pytest.mark.parametrize("links, expected", [
        # items link to entities: users -> items -> entities -> ...
        ([(0, 0), (1, 1), (3, 2)], {
            1: [((USERS, ITEMS), (USERS, ENTITIES))],
            2: [((ITEMS, ENTITIES), (USERS, ENTITIES)), (READ_ROWS, (ITEMS, ENTITIES))],
            3: [((ITEMS, ENTITIES), (USERS, ENTITIES)), (BLOCKS, (ITEMS, ENTITIES)),
                (READ_ROWS, BLOCKS)],
        }),
        # no item-entity link: no read ever needs an entity row, and users
        # and items take turns at being zero
        ([], {
            1: [((USERS, ITEMS), (USERS, ENTITIES))],
            2: [((ITEMS,), (USERS, ENTITIES)), (READ_ROWS, (ITEMS,))],
            3: [((ITEMS,), (USERS, ENTITIES)), ((USERS,), (ITEMS,)), (READ_ROWS, (USERS,))],
        }),
    ], ids=["linked", "unlinked"])
    def test_hops_keep_the_blocks_that_can_be_nonzero_and_are_needed(self, links, expected):
        graph = InteractionGraph("source", 3, 4, [(0, 0), (0, 1), (1, 1), (2, 2), (2, 3)])
        kg = KnowledgeLinkage(3, [(0, 1), (1, 2)], np.asarray(links).reshape(-1, 2),
                              np.zeros((0, 2)))
        normalized = normalize_symmetric(assemble_adjacency(graph, kg))
        dense = normalized.matrix.toarray()
        for layers, blocks in expected.items():
            hops = normalized.hops((USERS, ENTITIES), layers)
            assert len(hops.forward) == len(blocks)
            for hop, (rows, cols) in zip(hops.forward, blocks):
                sub = dense[np.ix_(block_rows(normalized, rows), block_rows(normalized, cols))]
                assert np.array_equal(hop.toarray(), sub)
