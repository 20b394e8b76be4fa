"""Weight-free multi-layer light graph convolution.

The encoder repeatedly applies the symmetric-normalized adjacency to an
initial embedding matrix: ``E(l) = A_norm @ E(l-1)``.  There are no feature
transforms or nonlinearities, so the whole map is linear.  ``E(0)`` is
nonzero only in the *live* blocks, the ones that carry parameter tables, and
only the final layer's user and item rows are read.  So each step multiplies
the graph's block hop for that step (:meth:`SparseGraph.hops`): the matrix
restricted to the blocks that can be nonzero there and that a later step
needs.  The adjoint applies the same hops' transposes in reverse order, from
the user and item rows back to the live blocks.  Item rows of ``E(0)`` are
zero when items carry no parameters of their own; their information enters
purely through propagation.

Neither function checks its input: graphs are the normalized ones of
``training.DomainGraphs``, ``TrainConfig`` checks the layer count, and
``training._propagate`` checks that the tables fill the live blocks' rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import BLOCKS, SparseGraph


@dataclass
class EmbeddingState:
    """The user and item rows of one propagation run's final layer.

    ``live`` names the blocks that filled ``E(0)`` and ``layers`` the number
    of steps.  The map is linear, so the backward pass needs no intermediate
    layer.
    """

    user_count: int
    item_count: int
    final: np.ndarray = field(repr=False)
    layers: int
    live: tuple[int, ...]

    @property
    def users(self) -> np.ndarray:
        return self.final[: self.user_count]

    @property
    def items(self) -> np.ndarray:
        return self.final[self.user_count :]


def propagate(
    graph: SparseGraph, e0: np.ndarray, layers: int, live: tuple[int, ...] = BLOCKS
) -> EmbeddingState:
    """Run ``layers`` rounds of normalized neighborhood averaging.

    ``e0`` stacks the rows of the ``live`` blocks in block order; every other
    block of ``E(0)`` is zero.  Keeps only the final layer's user and item
    rows.  ``layers == 0`` returns the input's, with zero rows for a block
    that is not live.
    """
    hops = graph.hops(live, layers)
    if layers == 0:
        current = np.zeros((graph.user_count + graph.item_count, e0.shape[1]))
        current[hops.passed_to] = e0[hops.passed]
    else:
        current = e0
        for hop in hops.forward:
            current = hop @ current
    return EmbeddingState(graph.user_count, graph.item_count, current, layers, live)


def backprop_propagate(
    grad_at_z: np.ndarray, state: EmbeddingState, graph: SparseGraph
) -> np.ndarray:
    """Pull a gradient at the final layer's user and item rows back to E(0)'s live blocks.

    Each hop's adjoint is its transpose, so the transposed hops run in
    reverse order.  Returns the live blocks' rows, stacked as ``propagate``
    took them; a live block that no read reaches gets zero rows.  The caller
    decides which rows feed learnable tables.
    """
    hops = graph.hops(state.live, state.layers)
    if state.layers == 0:
        pulled = np.zeros((hops.live_rows, grad_at_z.shape[1]))
        pulled[hops.passed] = grad_at_z[hops.passed_to]
        return pulled
    for hop in hops.adjoint:
        grad_at_z = hop @ grad_at_z
    return grad_at_z
