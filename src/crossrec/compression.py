"""Target-conditioned compression of source behavior representations.

Merged user representations are gated per user: a small network scores how
reliable the user's source behavior is, a relaxed Bernoulli draw turns the
score into a soft gate in (0, 1), and the gated share of the representation
is replaced with Gaussian noise matched to the batch statistics.  Two losses
steer the gates: an upper bound on the retained information (``kl_upper_bound``)
pushes gates closed, an InfoNCE term (``info_nce``) keeps the mixed
representation aligned with the user's target-domain portrait.

All functions take their random draws as explicit arguments, so any
caller-managed stream reproduces results exactly.  They are pure, except that
``info_nce_backward`` drops the buffer from the forward record it is given.

InfoNCE holds one B x B float64 buffer per step.  The forward reads it once,
over row blocks of ``INFO_NCE_BLOCK`` values: each block becomes cosines,
then the loss's shifted ``exp`` and softmax, then, from the same values,
the gradient of the dot products, which overwrites the block; the column
sums the norm terms need are carried from block to block.  The backward is
then two matrix products.  Each block repeats the whole-matrix operations on
the same values, so losses and gradients are bit-identical at any block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

# floors of the noise std, of the KL bound's mass M and of the InfoNCE norms
SIGMA_FLOOR = 1e-4
M_FLOOR = 1e-6
NORM_FLOOR = 1e-12
# keeps logit(m) finite; uniform draws are clipped into the open interval
UNIFORM_EPS = 1e-12
# InfoNCE's elementwise pass works on row blocks of at most this many float64
# values (256 KiB), so the three block arrays it keeps live stay in a core's
# L2 cache; the similarity matrix itself is one B x B buffer
INFO_NCE_BLOCK = 1 << 15


def merge_representations(
    e_source_users: np.ndarray, e_target_users: np.ndarray
) -> np.ndarray:
    """Element-wise sum of the two domains' user representations."""
    a = np.asarray(e_source_users, dtype=np.float64)
    b = np.asarray(e_target_users, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a + b


def gumbel_sigmoid(z, m, t: float):
    """Relaxed Bernoulli gate: ``sigmoid((z + logit(m)) / t)``.

    ``z`` is the gate logit, ``m`` a uniform draw in the open interval (0, 1)
    and ``t`` the relaxation temperature.  As ``t`` shrinks the output
    concentrates on {0, 1} with P(gate -> 1) = sigmoid(z); at any ``t`` the
    map is differentiable in ``z``.
    """
    if t <= 0:
        raise ValueError(f"temperature must be positive, got {t}")
    z = np.asarray(z, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    if np.any(m <= 0.0) or np.any(m >= 1.0):
        raise ValueError("uniform draw must lie strictly inside (0, 1)")
    return expit((z + np.log(m / (1.0 - m))) / t)


def batch_statistics(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension mean and std, floored at ``SIGMA_FLOOR``, of the merged representations.

    These define the noise prior; gradients never flow through them.
    """
    mu = h.mean(axis=0)
    sigma = np.maximum(h.std(axis=0), SIGMA_FLOOR)
    return mu, sigma


def mix_noise(
    h: np.ndarray,
    gate: np.ndarray,
    mu: np.ndarray,
    sigma: np.ndarray,
    noise_draws: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Blend each row of ``h`` with a Gaussian noise row.

    ``noise_draws`` are standard normal; the returned ``eps`` rows follow
    N(mu, sigma^2) per dimension.  Output is ``gate*h + (1-gate)*eps`` with
    the gate broadcast across dimensions.
    """
    h = np.asarray(h, dtype=np.float64)
    gate = np.asarray(gate, dtype=np.float64)
    if noise_draws.shape != h.shape:
        raise ValueError(f"noise shape {noise_draws.shape} != representation shape {h.shape}")
    if gate.shape != (h.shape[0],):
        raise ValueError(f"gate shape {gate.shape} != batch size {h.shape[0]}")
    eps = mu[None, :] + sigma[None, :] * noise_draws
    mixed = gate[:, None] * h + (1.0 - gate[:, None]) * eps
    return mixed, eps


def compress_deterministic(h: np.ndarray, logits: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Noise-free serving path: gate at its expectation, noise at its mean."""
    gate = expit(np.asarray(logits, dtype=np.float64))
    return gate[:, None] * h + (1.0 - gate[:, None]) * mu[None, :]


def kl_upper_bound(gate: np.ndarray, h: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> float:
    """Batch bound on information retained from the input representations.

    Per embedding dimension k, with M = sum_j (1-gate_j)^2 and
    Q_k = sum_j gate_j (h_jk - mu_k) / sigma_k:

        loss_k = -log(max(M, M_FLOOR))/2 + M/(2B) + Q_k^2/(2B)

    and the result is the mean over dimensions (natural log).  The floor on M
    keeps the value finite when every gate saturates at 1.
    """
    gate = np.asarray(gate, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    b = gate.shape[0]
    if b < 1:
        raise ValueError("batch must contain at least one row")
    m_total = np.sum((1.0 - gate) ** 2)
    q = np.sum(gate[:, None] * (h - mu[None, :]) / sigma[None, :], axis=0)
    per_dim = -0.5 * np.log(max(m_total, M_FLOOR)) + m_total / (2 * b) + q**2 / (2 * b)
    return float(per_dim.mean())


def kl_upper_bound_backward(
    gate: np.ndarray, h: np.ndarray, mu: np.ndarray, sigma: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of ``kl_upper_bound`` w.r.t. the gates and representations.

    ``mu`` and ``sigma`` are constants of the batch.  Inside the floored
    region the log term contributes no gradient.
    """
    gate = np.asarray(gate, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    b, d = h.shape
    m_total = np.sum((1.0 - gate) ** 2)
    q = np.sum(gate[:, None] * (h - mu[None, :]) / sigma[None, :], axis=0)

    g_m = 1.0 / (2 * b)
    if m_total > M_FLOOR:
        g_m -= 1.0 / (2 * m_total)
    g_q = q / (b * d)

    centered = (h - mu[None, :]) / sigma[None, :]
    g_gate = g_m * (-2.0 * (1.0 - gate)) + centered @ g_q
    g_h = np.outer(gate, g_q / sigma)
    return g_gate, g_h


def _floored_norms(x: np.ndarray) -> np.ndarray:
    return np.maximum(np.linalg.norm(x, axis=1), NORM_FLOOR)


class ForwardConsumedError(RuntimeError):
    """An InfoNCE forward record was passed to the backward a second time."""


@dataclass
class InfoNceForward:
    """What ``info_nce_backward`` needs from the forward pass.

    ``g_dot`` is the one B x B buffer: the loss gradient w.r.t. the dot
    products ``mixed @ t_reps.T``, which the forward writes over the cosine
    matrix.  ``row_sums`` and ``col_sums`` are the row and column sums of
    the cosines times their gradient, which the norm terms need.  The
    backward drops the buffer, so a record serves exactly one backward.
    """

    loss: float
    n_m: np.ndarray
    n_t: np.ndarray
    row_sums: np.ndarray
    col_sums: np.ndarray
    g_dot: np.ndarray | None


def _block_rows(b: int) -> int:
    """Rows per InfoNCE block of a batch of ``b``: at least one."""
    return max(1, INFO_NCE_BLOCK // b)


def _row_blocks(b: int):
    rows = _block_rows(b)
    for start in range(0, b, rows):
        yield slice(start, min(start + rows, b))


def _diagonal(rows: slice) -> tuple[np.ndarray, np.ndarray]:
    """Index of the whole matrix's diagonal entries inside the block of ``rows``."""
    local = np.arange(rows.stop - rows.start)
    return local, rows.start + local


def info_nce(e_target_users: np.ndarray, mixed: np.ndarray, tau: float) -> InfoNceForward:
    """Contrastive alignment of mixed representations with target portraits.

    Each mixed row is the anchor; its paired target-user row is the positive
    and the other target rows in the batch are negatives.  Similarity is
    cosine, scaled by ``1/tau``.  The loss is ``.loss`` of the returned record.

    One matrix product builds the B x B buffer.  Each row block of
    ``INFO_NCE_BLOCK`` elements is then read once: normalization, the
    shifted ``exp`` and the softmax denominators give the loss, and the same
    values go on to the cosine gradient, its row and column sums, and the
    gradient of the dot products, which overwrites the block.
    """
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    t_reps = np.asarray(e_target_users, dtype=np.float64)
    mixed = np.asarray(mixed, dtype=np.float64)
    if t_reps.shape != mixed.shape:
        raise ValueError(f"shape mismatch: {t_reps.shape} vs {mixed.shape}")
    b = t_reps.shape[0]
    if b < 1:
        raise ValueError("batch must contain at least one row")
    n_m = _floored_norms(mixed)
    n_t = _floored_norms(t_reps)
    buffer = mixed @ t_reps.T
    positives = np.empty(b)
    denominator = np.empty(b)
    row_sums = np.empty(b)
    # row 0 of the scratch holds the column sums of cos * g over the rows done
    # so far; summing it with the next rows continues numpy's row-by-row
    # axis-0 sum
    scratch = np.zeros((min(b, _block_rows(b)) + 1, b))
    for rows in _row_blocks(b):
        n = rows.stop - rows.start
        diagonal = _diagonal(rows)
        cos = buffer[rows]
        norms = n_m[rows, None] * n_t[None, :]
        cos /= norms
        g = cos / tau
        g -= g.max(axis=1, keepdims=True)
        positives[rows] = g[diagonal]
        np.exp(g, out=g)
        denominator[rows] = g.sum(axis=1)
        # d(mean_i loss_i)/d cos[i, j] = (softmax - I) / (tau B)
        g /= denominator[rows, None]
        g[diagonal] -= 1.0
        g /= tau * b
        products = np.multiply(cos, g, out=scratch[1 : n + 1])
        row_sums[rows] = products.sum(axis=1)
        scratch[0] = np.sum(scratch[: n + 1], axis=0)
        np.divide(1.0, norms, out=norms)
        np.multiply(g, norms, out=cos)
    losses = np.log(denominator) - positives
    return InfoNceForward(float(losses.mean()), n_m, n_t, row_sums, scratch[0], buffer)


def info_nce_backward(
    e_target_users: np.ndarray,
    mixed: np.ndarray,
    forward: InfoNceForward,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of ``info_nce`` w.r.t. target rows and mixed rows.

    Consumes ``forward``: two matrix products carry the dot products'
    gradient to the rows, and the norm terms are subtracted.  The buffer is
    dropped from the record, so a second call on the same record raises
    ``ForwardConsumedError``.
    """
    if forward.g_dot is None:
        raise ForwardConsumedError("InfoNCE forward record was already used by a backward pass")
    g, n_m, n_t = forward.g_dot, forward.n_m, forward.n_t
    forward.g_dot = None
    t_reps = np.asarray(e_target_users, dtype=np.float64)
    mixed = np.asarray(mixed, dtype=np.float64)
    b = t_reps.shape[0]
    if mixed.shape != t_reps.shape or g.shape != (b, b):
        raise ValueError(
            f"inputs {mixed.shape}, {t_reps.shape} do not match the forward's {g.shape}"
        )

    # cosine gradient: through the dot product and through each norm; rows at
    # the norm floor are treated as constant-norm (subgradient choice)
    m_live = (n_m > NORM_FLOOR).astype(np.float64)
    t_live = (n_t > NORM_FLOOR).astype(np.float64)
    g_mixed = g @ t_reps
    g_mixed -= (forward.row_sums / n_m**2 * m_live)[:, None] * mixed
    g_target = g.T @ mixed
    g_target -= (forward.col_sums / n_t**2 * t_live)[:, None] * t_reps
    return g_target, g_mixed


@dataclass
class GateNetwork:
    """One-hidden-layer scorer mapping a merged representation to a logit.

    ``tanh`` hidden layer of width ``hidden``, linear scalar output.  The
    logit feeds the relaxed Bernoulli gate, so a large output means the
    user's source behavior is trusted.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    @classmethod
    def initialize(cls, dim: int, hidden: int, rng: np.random.Generator) -> "GateNetwork":
        return cls(
            w1=rng.normal(0.0, 1.0 / np.sqrt(dim), size=(dim, hidden)),
            b1=np.zeros(hidden),
            # at width 0 nothing is drawn; the max keeps the unused scale finite
            w2=rng.normal(0.0, 1.0 / np.sqrt(max(hidden, 1)), size=hidden),
            b2=np.zeros(()),
        )

    def forward(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return per-row logits and the hidden activations (for backward)."""
        hidden = np.tanh(h @ self.w1 + self.b1)
        return hidden @ self.w2 + float(self.b2), hidden

    def backward(
        self, h: np.ndarray, hidden: np.ndarray, g_logits: np.ndarray
    ) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """Gradients of the weights and of the input rows."""
        g_hidden = g_logits[:, None] * self.w2[None, :]
        g_pre = g_hidden * (1.0 - hidden**2)
        grads = {
            "w1": h.T @ g_pre,
            "b1": g_pre.sum(axis=0),
            "w2": hidden.T @ g_logits,
            "b2": np.asarray(g_logits.sum()),
        }
        return grads, g_pre @ self.w1.T
