"""Light graph convolution against dense power-iteration oracles."""

import numpy as np
import pytest

from crossrec.encoder import backprop_propagate, propagate
from crossrec.graph import InteractionGraph, KnowledgeLinkage, assemble_adjacency, normalize_symmetric

from test_graph import dense_normalize_oracle, random_instance


def build_normalized(rng):
    graph, kg = random_instance(rng)
    raw = assemble_adjacency(graph, kg)
    return normalize_symmetric(raw), raw.matrix.toarray()


def visible_rows(state):
    """The user and item rows of the final layer, the rows scoring reads."""
    return state.final[: state.user_count + state.item_count]


class TestPropagate:
    def test_zero_layers_is_identity(self):
        rng = np.random.default_rng(0)
        normalized, _ = build_normalized(rng)
        e0 = rng.normal(size=(normalized.node_count, 3))
        state = propagate(normalized, e0, 0)
        assert np.array_equal(state.final, e0)
        assert visible_rows(state).shape[0] == normalized.user_count + normalized.item_count

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
        rng = np.random.default_rng(100 + layers)
        for _ in range(12):
            normalized, dense_raw = build_normalized(rng)
            oracle_op = dense_normalize_oracle(dense_raw)
            e0 = rng.normal(size=(normalized.node_count, 5))
            state = propagate(normalized, e0, layers)
            expected = np.linalg.matrix_power(oracle_op, layers) @ e0
            assert np.abs(state.final - expected).max() <= 1e-10

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

    def test_requires_normalized_graph(self):
        graph = InteractionGraph("source", 1, 1, [(0, 0)])
        raw = assemble_adjacency(graph, KnowledgeLinkage.empty())
        with pytest.raises(ValueError):
            propagate(raw, np.zeros((2, 2)), 1)


class TestBackpropPropagate:
    def test_zero_layers_passthrough(self):
        rng = np.random.default_rng(2)
        normalized, _ = build_normalized(rng)
        e0 = rng.normal(size=(normalized.node_count, 3))
        state = propagate(normalized, e0, 0)
        grad = rng.normal(size=visible_rows(state).shape)
        pulled = backprop_propagate(grad, state, normalized)
        visible = normalized.user_count + normalized.item_count
        assert np.array_equal(pulled[:visible], grad)
        assert np.all(pulled[visible:] == 0)

    def test_adjoint_identity(self):
        # <propagate(x), y> == <x, backprop(y)> under the symmetric operator
        rng = np.random.default_rng(3)
        for _ in range(10):
            normalized, _ = build_normalized(rng)
            x = rng.normal(size=(normalized.node_count, 4))
            state = propagate(normalized, x, 2)
            y = rng.normal(size=visible_rows(state).shape)
            lhs = float(np.sum(visible_rows(state) * y))
            rhs = float(np.sum(x * backprop_propagate(y, state, normalized)))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_matches_finite_differences(self):
        # 10-node graph: d f(e0)/d e0 for f = sum(visible_rows(propagate(e0)) * W)
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
                upper = float(np.sum(visible_rows(propagate(normalized, bumped, 2)) * weights))
                bumped[i, j] -= 2 * eps
                lower = float(np.sum(visible_rows(propagate(normalized, bumped, 2)) * weights))
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
