"""Weight-free multi-layer light graph convolution.

The encoder repeatedly applies the symmetric-normalized adjacency to an
initial embedding matrix: ``E(l) = A_norm @ E(l-1)``.  There are no feature
transforms or nonlinearities, so the whole map is linear and its adjoint is
the same operator applied to the upstream gradient (the matrix is symmetric).
Item rows of ``E(0)`` are held at zero when items carry no parameters of
their own; their information enters purely through propagation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import SparseGraph


@dataclass
class EmbeddingState:
    """The final layer of one propagation run and the number of layers.

    The map is linear and the adjacency symmetric, so the backward pass needs
    no intermediate layer.  Downstream scoring reads the user and item rows.
    """

    user_count: int
    item_count: int
    entity_count: int
    final: np.ndarray = field(repr=False)
    layers: int

    @property
    def users(self) -> np.ndarray:
        return self.final[: self.user_count]

    @property
    def items(self) -> np.ndarray:
        return self.final[self.user_count : self.user_count + self.item_count]


def propagate(graph: SparseGraph, e0: np.ndarray, layers: int) -> EmbeddingState:
    """Run ``layers`` rounds of normalized neighborhood averaging.

    Keeps only the final layer.  ``layers == 0`` returns the input unchanged.
    """
    if not graph.normalized:
        raise ValueError("propagate expects a normalized adjacency")
    if layers < 0:
        raise ValueError("layer count must be non-negative")
    e0 = np.asarray(e0, dtype=np.float64)
    if e0.ndim != 2 or e0.shape[0] != graph.node_count:
        raise ValueError(
            f"embedding matrix has {e0.shape} rows, graph has {graph.node_count} nodes"
        )
    current = e0
    for _ in range(layers):
        current = graph.matrix @ current
    return EmbeddingState(graph.user_count, graph.item_count, graph.entity_count, current, layers)


def backprop_propagate(
    grad_at_z: np.ndarray, state: EmbeddingState, graph: SparseGraph
) -> np.ndarray:
    """Pull a gradient at the user/item rows of the final layer back to E(0).

    The operator is symmetric, so the adjoint of ``A^L`` is ``A^L`` again.
    Entity rows of the final layer receive no direct gradient (nothing reads
    them), hence the zero padding.  The caller decides which rows of the
    returned matrix feed learnable tables.
    """
    grad_at_z = np.asarray(grad_at_z, dtype=np.float64)
    width = state.final.shape[1]
    visible = state.user_count + state.item_count
    if grad_at_z.shape != (visible, width):
        raise ValueError(
            f"gradient shape {grad_at_z.shape} does not match z shape {(visible, width)}"
        )
    full = np.zeros((graph.node_count, width))
    full[:visible] = grad_at_z
    for _ in range(state.layers):
        full = graph.matrix @ full
    return full
