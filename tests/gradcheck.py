"""Central-difference gradient checker for the training objective.

Compares the exact adjoints of :func:`crossrec.training.backward_losses`
with finite differences of :func:`crossrec.training.forward_losses`.  The
forward looks up ``crossrec.compression.batch_statistics`` and
``gumbel_sigmoid`` at call time; :func:`pinned` substitutes fakes for them,
so the noise-prior statistics stay fixed across evaluations and the gates
can be held open.  Criterion 1 of the acceptance suite and
``test_training.py`` call it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from crossrec import compression
from crossrec.training import (
    CROSS,
    Batch,
    DomainGraphs,
    ModelParameters,
    StepDraws,
    TrainConfig,
    _ForwardCache,
    backward_losses,
    forward_losses,
)


@contextmanager
def pinned(stats: tuple[np.ndarray, np.ndarray] | None = None, open_gates: bool = False):
    """Within the block, the forward uses ``stats`` as the noise-prior
    ``(mu, sigma)`` and, with ``open_gates``, a gate of 1 for every user.

    At gate 1 the backward's ``gate * (1 - gate)`` factor is 0, so the gate
    network's gradient is exactly 0, as the objective no longer depends on it.
    """
    saved = compression.batch_statistics, compression.gumbel_sigmoid
    if stats is not None:
        compression.batch_statistics = lambda merged: stats
    if open_gates:
        compression.gumbel_sigmoid = lambda logits, uniform, temperature: np.ones_like(logits)
    try:
        yield
    finally:
        compression.batch_statistics, compression.gumbel_sigmoid = saved


@dataclass
class GradientCheckResult:
    max_relative_error: float
    worst_parameter: str
    non_smooth: bool
    reasons: list[str]

    def __str__(self) -> str:
        status = "non-smooth point" if self.non_smooth else "smooth"
        return (
            f"max rel err {self.max_relative_error:.3e} at {self.worst_parameter} ({status})"
        )


def _detect_non_smooth(cache: _ForwardCache, config: TrainConfig, open_gates: bool) -> list[str]:
    reasons = []
    if cache.gate is not None and not open_gates:
        m_total = float(np.sum((1.0 - cache.gate) ** 2))
        if m_total <= 2.0 * compression.M_FLOOR:
            reasons.append(f"KL mass floor active (M={m_total:.2e})")
        if np.any(cache.gate >= 1.0 - 1e-12) or np.any(cache.gate <= 1e-12):
            reasons.append("gate saturated to 0/1 at float precision")
    if cache.mixed is not None:
        norms = np.linalg.norm(cache.mixed, axis=1)
        if np.any(norms <= 10.0 * compression.NORM_FLOOR):
            reasons.append("cosine norm floor active")
    return reasons


def gradient_check(
    params: ModelParameters,
    graphs: DomainGraphs,
    batch: Batch,
    draws: StepDraws,
    config: TrainConfig,
    epsilon: float = 1e-5,
    open_gates: bool = False,
    order: int = 2,
) -> GradientCheckResult:
    """Compare the analytic gradient of the total loss with central differences.

    The stochastic draws and the noise-prior statistics are held fixed across
    all evaluations, so the objective is a deterministic function of the
    parameters; ``open_gates`` pins every gate to 1 as well.  Points where a
    floor or saturation is active are reported as non-smooth instead of
    trusted.  ``order`` selects the central stencil: 2 is the classic
    two-point difference, 4 the five-point fourth-order one (same roundoff
    behavior, curvature error ~epsilon^4 instead of ^2).
    """
    if order not in (2, 4):
        raise ValueError("order must be 2 or 4")
    with pinned(open_gates=open_gates):
        _, base_cache = forward_losses(params, graphs, batch, draws, config)
    frozen = (base_cache.mu, base_cache.sigma) if config.model == CROSS else None
    reasons = _detect_non_smooth(base_cache, config, open_gates)

    with pinned(frozen, open_gates):
        _, cache = forward_losses(params, graphs, batch, draws, config)
    analytic = backward_losses(cache)

    def objective() -> float:
        with pinned(frozen, open_gates):
            bundle, _ = forward_losses(params, graphs, batch, draws, config)
        return bundle.total

    def central_difference(flat: np.ndarray, index: int) -> float:
        saved = flat[index]
        values = {}
        steps = (-1, 1) if order == 2 else (-2, -1, 1, 2)
        for step in steps:
            flat[index] = saved + step * epsilon
            values[step] = objective()
        flat[index] = saved
        if order == 2:
            return (values[1] - values[-1]) / (2.0 * epsilon)
        return (values[-2] - 8 * values[-1] + 8 * values[1] - values[2]) / (12.0 * epsilon)

    worst = 0.0
    worst_name = "(none)"
    for name, grad in analytic.items():
        flat_param = params.arrays[name].reshape(-1)
        flat_grad = grad.reshape(-1)
        for index in range(flat_param.size):
            numeric = central_difference(flat_param, index)
            denom = max(abs(flat_grad[index]), abs(numeric), 1e-8)
            rel = abs(flat_grad[index] - numeric) / denom
            if rel > worst:
                worst = rel
                worst_name = f"{name}[{index}]"
    return GradientCheckResult(worst, worst_name, bool(reasons), reasons)
