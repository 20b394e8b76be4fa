"""The encoder as it reads before block hops: every hop multiplies ``graph.matrix``.

A reference for the block-hop encoder.  ``E(0)`` is padded with zero rows to
the whole node set, each layer is ``graph.matrix @`` the previous one, and,
the matrix being symmetric, the adjoint is the same loop over the
zero-padded gradient.  :func:`full_matrix_training` swaps this path into the
training module, so a fit can be replayed on it.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from crossrec import training
from crossrec.encoder import EmbeddingState


def block_rows(graph, blocks) -> np.ndarray:
    """The node indices of ``blocks``, in block order."""
    bounds = np.cumsum([0, graph.user_count, graph.item_count, graph.entity_count])
    return np.concatenate([np.arange(0), *(np.arange(bounds[b], bounds[b + 1]) for b in blocks)])


def padded(graph, live_rows: np.ndarray, live) -> np.ndarray:
    """``E(0)`` over every node: the live blocks' rows, zero elsewhere."""
    e0 = np.zeros((graph.node_count, live_rows.shape[1]))
    e0[block_rows(graph, live)] = live_rows
    return e0


def full_power(graph, x: np.ndarray, layers: int) -> np.ndarray:
    for _ in range(layers):
        x = graph.matrix @ x
    return x


def full_propagate(graph, live_rows: np.ndarray, layers: int, live) -> np.ndarray:
    """The final layer's user and item rows, through ``graph.matrix`` at every hop."""
    visible = graph.user_count + graph.item_count
    return full_power(graph, padded(graph, live_rows, live), layers)[:visible]


def full_pullback(graph, grad: np.ndarray, layers: int, live) -> np.ndarray:
    """The live blocks' rows of ``A^L`` applied to the zero-padded gradient."""
    full = np.zeros((graph.node_count, grad.shape[1]))
    full[: grad.shape[0]] = grad
    return full_power(graph, full, layers)[block_rows(graph, live)]


def filled_blocks(params, domain: str, config) -> dict[int, str]:
    """Block -> the table that fills it in ``domain``'s graph, in block order."""
    layout = training._table_layout(config.model, config.use_kg)
    return dict(sorted((block, name) for name, (domains, block) in layout.items()
                       if domain in domains))


def initial_embeddings(params, graph, domain: str, config) -> np.ndarray:
    """``domain``'s zero-padded ``E(0)``: each table in its block, zero elsewhere."""
    e0 = np.zeros((graph.node_count, config.embedding_dim))
    for block, name in filled_blocks(params, domain, config).items():
        e0[block_rows(graph, [block])] = params.arrays[name]
    return e0


@contextmanager
def full_matrix_training():
    """Within the block, training propagates and pulls back through the full matrix."""

    def propagate(params, graph, domain, config):
        live = tuple(filled_blocks(params, domain, config))
        final = full_power(graph, initial_embeddings(params, graph, domain, config), config.layers)
        visible = graph.user_count + graph.item_count
        return EmbeddingState(graph.user_count, graph.item_count, final[:visible],
                              config.layers, live)

    def backprop(grad, state, graph):
        return full_pullback(graph, grad, state.layers, state.live)

    saved = training._propagate, training.backprop_propagate
    training._propagate, training.backprop_propagate = propagate, backprop
    try:
        yield
    finally:
        training._propagate, training.backprop_propagate = saved
