"""InfoNCE as it reads before the one-pass forward: the backward re-reads the buffer.

A reference for ``compression.info_nce`` and ``compression.info_nce_backward``.
The forward normalizes the B x B cosine buffer and builds the loss, row
block by row block, and keeps each row's shift and softmax denominator.  The
backward reads the buffer again: it recomputes the shifted ``exp`` from the
stored cosines, forms the cosine gradient and its row and column sums, and
overwrites the buffer with the gradient of the dot products.
:func:`two_pass_training` swaps this pair into the compression module, so a
training step can be replayed on it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from crossrec import compression
from crossrec.compression import (
    NORM_FLOOR,
    ForwardConsumedError,
    _block_rows,
    _floored_norms,
    _row_blocks,
)


def _diagonal(rows: slice) -> tuple[np.ndarray, np.ndarray]:
    """Index of the whole matrix's diagonal entries inside the block of ``rows``."""
    local = np.arange(rows.stop - rows.start)
    return local, rows.start + local


@dataclass
class TwoPassForward:
    loss: float
    tau: float
    n_m: np.ndarray
    n_t: np.ndarray
    shift: np.ndarray
    denominator: np.ndarray
    cos: np.ndarray | None


def info_nce(e_target_users, mixed, tau, gradient=True) -> TwoPassForward:
    # this forward never does the gradient's work, so ``gradient`` changes nothing
    t_reps = np.asarray(e_target_users, dtype=np.float64)
    mixed = np.asarray(mixed, dtype=np.float64)
    b = t_reps.shape[0]
    n_m = _floored_norms(mixed)
    n_t = _floored_norms(t_reps)
    cos = mixed @ t_reps.T
    shift = np.empty(b)
    positives = np.empty(b)
    denominator = np.empty(b)
    for rows in _row_blocks(b):
        block = cos[rows]
        block /= n_m[rows, None] * n_t[None, :]
        scaled = block / tau
        shift[rows] = scaled.max(axis=1)
        scaled -= shift[rows, None]
        positives[rows] = scaled[_diagonal(rows)]
        np.exp(scaled, out=scaled)
        denominator[rows] = scaled.sum(axis=1)
    losses = np.log(denominator) - positives
    return TwoPassForward(float(losses.mean()), tau, n_m, n_t, shift, denominator, cos)


def info_nce_backward(e_target_users, mixed, forward: TwoPassForward):
    if forward.cos is None:
        raise ForwardConsumedError("InfoNCE forward record was already used by a backward pass")
    cos, n_m, n_t = forward.cos, forward.n_m, forward.n_t
    forward.cos = None
    t_reps = np.asarray(e_target_users, dtype=np.float64)
    mixed = np.asarray(mixed, dtype=np.float64)
    b = t_reps.shape[0]
    row_sums = np.empty(b)
    scratch = np.zeros((min(b, _block_rows(b)) + 1, b))
    for rows in _row_blocks(b):
        n = rows.stop - rows.start
        g = cos[rows] / forward.tau
        g -= forward.shift[rows, None]
        np.exp(g, out=g)
        g /= forward.denominator[rows, None]
        g[_diagonal(rows)] -= 1.0
        g /= forward.tau * b
        products = np.multiply(cos[rows], g, out=scratch[1 : n + 1])
        row_sums[rows] = products.sum(axis=1)
        scratch[0] = np.sum(scratch[: n + 1], axis=0)
        inv = n_m[rows, None] * n_t[None, :]
        np.divide(1.0, inv, out=inv)
        np.multiply(g, inv, out=cos[rows])
    g, col_sums = cos, scratch[0]
    m_live = (n_m > NORM_FLOOR).astype(np.float64)
    t_live = (n_t > NORM_FLOOR).astype(np.float64)
    g_mixed = g @ t_reps
    g_mixed -= (row_sums / n_m**2 * m_live)[:, None] * mixed
    g_target = g.T @ mixed
    g_target -= (col_sums / n_t**2 * t_live)[:, None] * t_reps
    return g_target, g_mixed


@contextmanager
def two_pass_training():
    """Within the block, training's InfoNCE runs the two-pass forward and backward."""
    saved = compression.info_nce, compression.info_nce_backward
    compression.info_nce, compression.info_nce_backward = info_nce, info_nce_backward
    try:
        yield
    finally:
        compression.info_nce, compression.info_nce_backward = saved
