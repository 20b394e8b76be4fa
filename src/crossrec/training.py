"""End-to-end optimization with exact hand-derived reverse-mode gradients.

The compute graph is fixed: two graph convolutions feed the merge, the gate
network, the relaxed Bernoulli draw, and the noise mixing; the mixed
representation feeds both domains' ranking losses, the information bound,
and the contrastive term.  Every step's gradients are the exact adjoints of
that composition (verified against central finite differences), and
parameters are updated with Adagrad.

The ``target_only`` baseline is the same path without a source graph: the
target convolution, scores and ranking loss run, while the source
convolution, gate, noise mixing, source loss, information bound and
contrastive term are skipped, so the fused user vector is the target one.

Randomness is consumed from counter-based streams derived from the run seed,
so identical configurations reproduce bit-identical trajectories and the
stochastic draws of any step can be replayed for gradient checking.
"""

from __future__ import annotations

import functools
import io
import json
import math
import numbers
import os
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from . import compression, transfer
from .compression import GateNetwork
from .data import HOP_RADIUS, DatasetBundle, write_atomic
from .encoder import EmbeddingState, backprop_propagate, propagate
from .evaluation import LeaveOneOutSplit, Scorer, UserItems, held_out_ranks, ndcg_gains
from .graph import (
    ENTITIES,
    ITEMS,
    SOURCE,
    TARGET,
    USERS,
    InteractionGraph,
    KnowledgeLinkage,
    SparseGraph,
    assemble_adjacency,
    normalize_symmetric,
    sorted_unique,
)

ADAGRAD_EPS = 1e-10

# sub-stream tags hung off the run seed
_STREAM_INIT = 0
_STREAM_EPOCH = 1
_STREAM_DRAWS = 2

CROSS = "cross"
TARGET_ONLY = "target_only"
PREDICTION_LOSSES = ("bpr", "ce")

# users per bulk draw of the negative sampler
SAMPLE_WINDOW = 128

# early stopping selects on validation NDCG at this cutoff
VALIDATION_K = 100
# the NDCG gain of each rank 1..VALIDATION_K, at index rank; index 0 (a miss) is 0
_VALIDATION_GAINS = np.array([0.0, *ndcg_gains(VALIDATION_K)])

# the parameter array of each GateNetwork field, in field order
GATE_ARRAYS = {entry.name: f"gate_{entry.name}" for entry in fields(GateNetwork)}

CHECKPOINT_MAGIC = b"XRCK"
CHECKPOINT_VERSION = 2


class NonFiniteLossError(RuntimeError):
    """A training step produced a non-finite loss; the step was aborted.

    Raised from :func:`fit`, it names the epoch (from 1) and the step within
    that epoch (from 0) that failed.
    """

    def __init__(self, message: str, epoch: int | None = None, step: int | None = None):
        super().__init__(message)
        self.epoch = epoch
        self.step = step


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# the values a TrainConfig field admits, by its annotation, and their name
_ADMITTED = {
    "int": (lambda value: _is_real(value) and isinstance(value, numbers.Integral), "an integer"),
    "float": (_is_real, "a real number"),
    "bool": (lambda value: isinstance(value, bool), "a bool"),
    "str": (lambda value: isinstance(value, str), "a string"),
    "tuple[float, float, float]": (lambda value: isinstance(value, tuple) and len(value) == 3
                                   and all(map(_is_real, value)), "a tuple of three real numbers"),
}


@dataclass(frozen=True)
class TrainConfig:
    embedding_dim: int = 32
    batch_size: int = 4096
    max_epochs: int = 100
    learning_rate: float = 1e-3
    layers: int = 2
    gate_hidden: int = 32
    gumbel_temperature: float = 0.5
    contrastive_temperature: float = 0.2
    alphas: tuple[float, float, float] = (0.01, 1.0, 1.0)
    seed: int = 0
    patience: int = 10
    prediction_loss: str = "bpr"
    weight_decay: float = 0.0
    init_std: float = 0.1
    use_kg: bool = True
    model: str = CROSS
    # the entity-graph scope the data is loaded with (``data.load_bundle``)
    hop_radius: int = HOP_RADIUS

    def __post_init__(self):
        for entry in fields(self):
            value = getattr(self, entry.name)
            admits, kind = _ADMITTED[entry.type]
            if not admits(value):
                raise ValueError(f"{entry.name} must be {kind}, got {value!r}")
            if isinstance(value, (float, tuple)) and not np.isfinite(value).all():
                raise ValueError(f"{entry.name} must be finite, got {value}")
        # init_std 0 starts every embedding at zero, which target-only never leaves
        positive = ("embedding_dim", "batch_size", "learning_rate", "gumbel_temperature",
                    "contrastive_temperature", "init_std")
        non_negative = ("max_epochs", "layers", "gate_hidden", "alphas", "seed", "patience",
                        "weight_decay", "hop_radius")
        for name in positive + non_negative:
            value = getattr(self, name)
            low = min(value) if isinstance(value, tuple) else value
            if low < 0 or (low == 0 and name in positive):
                bound = "positive" if name in positive else "non-negative"
                raise ValueError(f"{name} must be {bound}, got {value}")
        for name, allowed in (("prediction_loss", PREDICTION_LOSSES),
                              ("model", (CROSS, TARGET_ONLY))):
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {value!r}")


@dataclass
class DomainGraphs:
    """Normalized training adjacencies (built from training edges only)."""

    source: SparseGraph | None
    target: SparseGraph

    @classmethod
    def for_config(
        cls, config: TrainConfig, bundle: DatasetBundle, split: LeaveOneOutSplit
    ) -> "DomainGraphs":
        """The graphs ``config`` trains and evaluates on: target-only has no source graph or KG."""
        cross = config.model == CROSS
        if cross and config.use_kg and config.layers < 2:
            # items have no table under the bridge: E(0)'s item rows are zero, so
            # at 0 layers every item row and at 1 every user row serves as zero
            raise ValueError(f"layers must be at least 2 under the entity bridge (got "
                             f"{config.layers}): with fewer, every served score is 0")
        return cls.from_training_edges(
            bundle, split.train_source, split.train_target,
            use_kg=config.use_kg and cross, include_source=cross,
        )

    @classmethod
    def from_training_edges(
        cls,
        bundle: DatasetBundle,
        train_source: np.ndarray,
        train_target: np.ndarray,
        use_kg: bool,
        include_source: bool = True,
    ) -> "DomainGraphs":
        kg = bundle.kg if use_kg else KnowledgeLinkage.empty()

        def build(domain: str, item_count: int, edges: np.ndarray) -> SparseGraph:
            graph = InteractionGraph(domain, bundle.user_count, item_count, edges)
            return normalize_symmetric(assemble_adjacency(graph, kg))

        target = build(TARGET, bundle.target.item_count, train_target)
        source = build(SOURCE, bundle.source.item_count, train_source) if include_source else None
        return cls(source, target)


@dataclass
class ModelParameters:
    """Named parameter arrays plus their Adagrad squared-gradient state."""

    arrays: dict[str, np.ndarray]
    accumulators: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not self.accumulators:
            self.accumulators = {k: np.zeros_like(v) for k, v in self.arrays.items()}

    def gate(self) -> GateNetwork:
        return GateNetwork(**{key: self.arrays[name] for key, name in GATE_ARRAYS.items()})

    def all_finite(self) -> bool:
        return all(np.isfinite(v).all() for v in self.arrays.values())


def _table_layout(model: str, use_kg: bool) -> dict[str, tuple[tuple[str, ...], int]]:
    """Learnable embedding tables in draw order: name -> (domains, node block).

    A table shared by two domains (the entity table) fills that block of both
    graphs and receives the sum of both domains' gradients.
    """
    if model == TARGET_ONLY:
        return {"user_t": ((TARGET,), USERS), "item_t": ((TARGET,), ITEMS)}
    layout = {"user_s": ((SOURCE,), USERS), "user_t": ((TARGET,), USERS)}
    if use_kg:
        layout["entity"] = ((SOURCE, TARGET), ENTITIES)
    else:
        layout["item_s"] = ((SOURCE,), ITEMS)
        layout["item_t_init"] = ((TARGET,), ITEMS)
    return layout


@functools.cache
def _live_tables(model: str, use_kg: bool, domain: str) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The tables that fill ``domain``'s graph and the blocks they fill, both in block order."""
    filled = sorted((block, name) for name, (domains, block) in _table_layout(model, use_kg).items()
                    if domain in domains)
    return tuple(name for _, name in filled), tuple(block for block, _ in filled)


def init_parameters(config: TrainConfig, bundle: DatasetBundle) -> ModelParameters:
    """Draw fresh parameters; tables are iid normal with a small std."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, _STREAM_INIT]))
    d = config.embedding_dim
    arrays: dict[str, np.ndarray] = {}
    for name, (domains, block) in _table_layout(config.model, config.use_kg).items():
        catalog = bundle.source if domains[0] == SOURCE else bundle.target
        rows = (bundle.user_count, catalog.item_count, bundle.kg.entity_count)[block]
        arrays[name] = rng.normal(0.0, config.init_std, size=(rows, d))
    if config.model == CROSS:
        gate = GateNetwork.initialize(d, config.gate_hidden, rng)
        arrays.update({name: getattr(gate, key) for key, name in GATE_ARRAYS.items()})
    return ModelParameters(arrays)


@dataclass(frozen=True)
class Batch:
    """Sampled users and, for each ranked domain, one (positive, negative) item per user."""

    users: np.ndarray
    pairs: dict[str, tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class StepDraws:
    """Stochastic inputs of one step, replayable from (seed, epoch, step)."""

    uniform: np.ndarray
    noise: np.ndarray

    @classmethod
    def for_step(
        cls, seed: int, epoch: int, step: int, batch_size: int, dim: int
    ) -> "StepDraws":
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, _STREAM_DRAWS, epoch, step])
        )
        uniform = np.clip(
            rng.random(batch_size), compression.UNIFORM_EPS, 1.0 - compression.UNIFORM_EPS
        )
        return cls(uniform=uniform, noise=rng.normal(size=(batch_size, dim)))


@dataclass
class _ForwardCache:
    """Forward intermediates; the source-side ones are None for target-only."""

    batch: Batch
    config: TrainConfig
    params: ModelParameters
    graphs: DomainGraphs
    states: dict[str, EmbeddingState]
    eu_t: np.ndarray
    merged: np.ndarray | None
    hidden: np.ndarray | None
    gate: np.ndarray | None
    eps: np.ndarray | None
    mixed: np.ndarray | None
    mu: np.ndarray | None
    sigma: np.ndarray | None
    contrastive: compression.InfoNceForward | None
    fused: np.ndarray
    scores: dict[str, tuple[np.ndarray, np.ndarray]]


def _pred_loss(config: TrainConfig):
    if config.prediction_loss == "bpr":
        return transfer.bpr_loss, transfer.bpr_loss_backward
    return transfer.cross_entropy_loss, transfer.cross_entropy_loss_backward


def _propagate(params: ModelParameters, graph: SparseGraph, domain: str, config: TrainConfig):
    """Propagate ``domain``'s tables, stacked in block order as the rows of its live blocks."""
    names, live = _live_tables(config.model, config.use_kg, domain)
    sizes = (graph.user_count, graph.item_count, graph.entity_count)
    for name, block in zip(names, live):
        rows = params.arrays[name].shape[0]
        if rows != sizes[block]:  # a checkpoint of other data
            raise ValueError(f"parameter table {name!r} has {rows} rows, but the "
                             f"{domain} graph block it fills has {sizes[block]}")
    return propagate(graph, np.concatenate([params.arrays[name] for name in names]),
                     config.layers, live)


def forward_losses(
    params: ModelParameters,
    graphs: DomainGraphs,
    batch: Batch,
    draws: StepDraws | None,
    config: TrainConfig,
) -> tuple[transfer.LossBundle, _ForwardCache]:
    """One full forward pass over the fixed compute graph.

    The noise-prior statistics and the relaxed gates come from
    ``compression.batch_statistics`` and ``compression.gumbel_sigmoid``,
    looked up at call time, so a caller can substitute either (the gradient
    checker pins both).  Without a source domain (target-only) the fused
    vector is the target user vector and the source-side terms are zero;
    only the gate and noise read ``draws``, so target-only may pass None.
    Every domain in ``batch.pairs`` is ranked with the fused vector.
    """
    loss_fn, _ = _pred_loss(config)
    states = {
        domain: _propagate(params, getattr(graphs, domain), domain, config)
        for domain in batch.pairs
    }
    eu_t = states[TARGET].users[batch.users]
    fused = eu_t
    merged = hidden = gate = eps = mixed = mu = sigma = contrastive = None
    kl = contrastive_loss = 0.0

    if config.model == CROSS:
        merged = compression.merge_representations(states[SOURCE].users[batch.users], eu_t)
        logits, hidden = params.gate().forward(merged)
        gate = compression.gumbel_sigmoid(logits, draws.uniform, config.gumbel_temperature)
        mu, sigma = compression.batch_statistics(merged)
        mixed, eps = compression.mix_noise(merged, gate, mu, sigma, draws.noise)
        fused = mixed + eu_t
        kl = compression.kl_upper_bound(gate, merged, mu, sigma)
        # without the contrastive term no backward reads InfoNCE's gradient
        contrastive = compression.info_nce(eu_t, mixed, config.contrastive_temperature,
                                           gradient=config.alphas[2] != 0.0)
        contrastive_loss = contrastive.loss

    scores = {
        domain: tuple(transfer.score(fused, states[domain].items[picked]) for picked in pair)
        for domain, pair in batch.pairs.items()
    }
    pred = {domain: loss_fn(*pair) for domain, pair in scores.items()}
    bundle = transfer.total_loss(
        pred[TARGET], pred.get(SOURCE, 0.0), kl, contrastive_loss, config.alphas
    )
    cache = _ForwardCache(
        batch, config, params, graphs, states, eu_t, merged, hidden,
        gate, eps, mixed, mu, sigma, contrastive, fused, scores,
    )
    return bundle, cache


def _add_rows(table: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``np.add.at(table, rows, values)`` through numpy's 1-d ``add.at`` fast path.

    The flat indices ``rows[:, None] * d + arange(d)`` run row by row, so
    every element receives the same additions, in the same order, as the
    2-d call makes them: a repeated row sums in index order.
    """
    d = table.shape[1]
    flat = (rows[:, None] * d + np.arange(d)).reshape(-1)
    np.add.at(table.reshape(-1), flat, values.reshape(-1))


def backward_losses(cache: _ForwardCache) -> dict[str, np.ndarray]:
    """Exact adjoint of :func:`forward_losses` w.r.t. every parameter array."""
    config, batch, params = cache.config, cache.batch, cache.params
    _, loss_backward = _pred_loss(config)
    a1, a2, a3 = config.alphas
    states = cache.states
    weights = {TARGET: 1.0, SOURCE: a1}

    g_fused = np.zeros_like(cache.fused)
    g_scores: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for domain, (pos_idx, neg_idx) in batch.pairs.items():
        if weights[domain] == 0.0:
            continue
        state = states[domain]
        g_pos, g_neg = (g * weights[domain] for g in loss_backward(*cache.scores[domain]))
        g_fused += g_pos[:, None] * state.items[pos_idx] + g_neg[:, None] * state.items[neg_idx]
        g_scores[domain] = g_pos, g_neg

    grads: dict[str, np.ndarray] = {}
    g_eu_t = g_fused
    g_merged = None
    if config.model == CROSS:
        g_mixed = g_fused.copy()
        if a3 != 0.0:
            # the backward drops InfoNCE's B x B buffer, so the item scatters
            # below run after it is freed
            g_t_cl, g_mixed_cl = compression.info_nce_backward(
                cache.eu_t, cache.mixed, cache.contrastive
            )
            g_mixed += a3 * g_mixed_cl
            g_eu_t += a3 * g_t_cl

        g_gate = np.sum(g_mixed * (cache.merged - cache.eps), axis=1)
        g_merged = g_mixed * cache.gate[:, None]
        if a2 != 0.0:
            g_gate_kl, g_merged_kl = compression.kl_upper_bound_backward(
                cache.gate, cache.merged, cache.mu, cache.sigma
            )
            g_gate += a2 * g_gate_kl
            g_merged += a2 * g_merged_kl

        g_logits = g_gate * cache.gate * (1.0 - cache.gate) / config.gumbel_temperature
        gate_grads, g_merged_net = params.gate().backward(cache.merged, cache.hidden, g_logits)
        g_merged += g_merged_net
        for key, value in gate_grads.items():
            grads[GATE_ARRAYS[key]] = value
        g_eu_t = g_eu_t + g_merged

    # the item rows and the user rows of a domain's gradient are disjoint
    g_z: dict[str, np.ndarray] = {}
    for domain, (pos_idx, neg_idx) in batch.pairs.items():
        state = states[domain]
        g_z[domain] = np.zeros((state.user_count + state.item_count, config.embedding_dim))
        if domain in g_scores:
            g_pos, g_neg = g_scores[domain]
            _add_rows(g_z[domain], state.user_count + pos_idx, g_pos[:, None] * cache.fused)
            _add_rows(g_z[domain], state.user_count + neg_idx, g_neg[:, None] * cache.fused)
    if g_merged is not None:
        _add_rows(g_z[SOURCE], batch.users, g_merged)
    _add_rows(g_z[TARGET], batch.users, g_eu_t)

    for domain, g in g_z.items():
        pulled = backprop_propagate(g, states[domain], getattr(cache.graphs, domain))
        start = 0
        for name in _live_tables(config.model, config.use_kg, domain)[0]:
            stop = start + params.arrays[name].shape[0]
            grads[name] = grads[name] + pulled[start:stop] if name in grads else pulled[start:stop]
            start = stop
    return grads


def adagrad_update(
    params: ModelParameters, grads: dict[str, np.ndarray], learning_rate: float
) -> None:
    """In-place Adagrad: accumulate the squared gradient, then step.

    Because accumulation happens first, the very first step on a coordinate
    moves by at most the learning rate, and so does every later one.  The
    step is written into the gradient it is computed from, with one scratch
    array per table; the operations and their order are those of
    ``acc += grad * grad; param -= learning_rate * grad / (sqrt(acc) + eps)``.
    The arrays of ``grads`` are overwritten.
    """
    for name, grad in grads.items():
        # a sum of 0-d arrays (the gate's b2) may come as a numpy scalar
        grad = np.asarray(grad)
        acc = params.accumulators[name]
        scratch = np.multiply(grad, grad, out=np.empty_like(grad))
        acc += scratch
        np.sqrt(acc, out=scratch)
        scratch += ADAGRAD_EPS
        np.multiply(learning_rate, grad, out=grad)
        grad /= scratch
        params.arrays[name] -= grad


def train_step(
    params: ModelParameters,
    graphs: DomainGraphs,
    batch: Batch,
    draws: StepDraws | None,
    config: TrainConfig,
) -> transfer.LossBundle:
    """Forward, exact backward, and an Adagrad update; aborts on non-finite loss."""
    bundle, cache = forward_losses(params, graphs, batch, draws, config)
    if not np.isfinite(bundle.total):
        raise NonFiniteLossError(
            f"aborted step: non-finite loss {bundle._asdict()} "
            f"(batch of {batch.users.size} users)"
        )
    grads = backward_losses(cache)
    if config.weight_decay > 0.0:
        for name in grads:
            grads[name] += config.weight_decay * params.arrays[name]
    adagrad_update(params, grads, config.learning_rate)
    if not params.all_finite():
        raise NonFiniteLossError("aborted step: parameters became non-finite")
    return bundle


# ---------------------------------------------------------------------------
# Scoring for evaluation (deterministic serving path)
# ---------------------------------------------------------------------------


def build_scorer(params: ModelParameters, graphs: DomainGraphs, config: TrainConfig) -> Scorer:
    """Return the scorer of every user over all target items.

    Serving is deterministic: the gate is its expectation sigmoid(logit) and
    the noise collapses to the population mean of the merged representations.
    """
    target = _propagate(params, graphs.target, TARGET, config)
    fused_all = target.users
    if config.model == CROSS:
        source = _propagate(params, graphs.source, SOURCE, config)
        merged = compression.merge_representations(source.users, target.users)
        logits, _ = params.gate().forward(merged)
        mu, _ = compression.batch_statistics(merged)
        mixed = compression.compress_deterministic(merged, logits, mu)
        fused_all = mixed + target.users
    return Scorer(fused_all, target.items)


# ---------------------------------------------------------------------------
# The training loop
# ---------------------------------------------------------------------------


@dataclass
class EpochRecord:
    epoch: int
    losses: transfer.LossBundle
    validation_metric: float


@dataclass
class FitResult:
    params: ModelParameters
    best_epoch: int
    best_validation: float | None  # None when no epoch ran
    log: list[EpochRecord]
    graphs: DomainGraphs


def _owned_keys(index: UserItems, n_items: int) -> np.ndarray:
    """The sorted distinct ``user * n_items + item`` keys of ``index``'s edges."""
    return sorted_unique(index.rows[:, 0] * n_items + index.rows[:, 1])


def _owns(keys: np.ndarray, query):
    """Whether each ``user * n_items + item`` key in ``query`` is in ``keys``."""
    at = np.minimum(np.searchsorted(keys, query), keys.size - 1)
    return keys[at] == query


def _sample_pairs(
    rng: np.random.Generator, chunk: np.ndarray, index: UserItems, n_items: int,
    keys: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One positive and one rejection-sampled negative per user of ``chunk``."""
    starts = index.indptr[chunk]
    bounds = np.empty(2 * chunk.size, dtype=np.int64)
    bounds[0::2] = index.indptr[chunk + 1] - starts
    bounds[1::2] = n_items
    pos = np.empty(chunk.size, dtype=np.int64)
    neg = np.empty(chunk.size, dtype=np.int64)
    first = 0
    while first < chunk.size:
        stop = min(first + SAMPLE_WINDOW, chunk.size)
        saved = rng.bit_generator.state
        draws = rng.integers(0, bounds[2 * first : 2 * stop])
        candidates = draws[1::2]
        owned = _owns(keys, chunk[first:stop] * n_items + candidates)
        if owned.any():
            # replay the draws up to the first rejected user, then finish
            # that user's rejection loop one scalar draw at a time
            stop = first + int(owned.argmax()) + 1
            rng.bit_generator.state = saved
            rng.integers(0, bounds[2 * first : 2 * stop])
            user_key = int(chunk[stop - 1]) * n_items
            candidate = int(rng.integers(n_items))
            while _owns(keys, user_key + candidate):
                candidate = int(rng.integers(n_items))
            candidates[stop - 1 - first] = candidate
        count = stop - first
        pos[first:stop] = index.rows[starts[first:stop] + draws[0 : 2 * count : 2], 1]
        neg[first:stop] = candidates[:count]
        first = stop
    return pos, neg


def _sample_batches(
    rng: np.random.Generator,
    users: np.ndarray,
    batch_size: int,
    owned: dict[str, tuple[UserItems, int]],
    keys: dict[str, np.ndarray],
) -> list[Batch]:
    """Shuffle users and draw one positive and one uniform negative per domain.

    ``owned`` maps each sampled domain, source first, to its training items
    by user and its item count; ``keys`` maps it to the sorted distinct
    ``user * n_items + item`` keys of those items.

    The stream is the one a per-user loop would consume: for each user in
    batch order, ``rng.integers(count)`` picks the positive among the user's
    ``count`` edges, then ``rng.integers(n_items)`` is drawn until it gives an
    item the user does not own.  The draws are made in bulk, per window of
    ``SAMPLE_WINDOW`` users, as one ``rng.integers(0, bounds)`` over the
    interleaved bounds ``[count_0, n_items, count_1, n_items, ...]``.  When
    some candidate negative in the window is owned (found by ``searchsorted``
    on ``keys``), the generator state saved before the window is restored, the
    bounds are redrawn up to and including the first such user, that user's
    rejection loop continues with scalar draws, and the next window starts
    after it.
    This rests on a property of numpy's ``Generator`` (checked in
    ``tests/test_evaluation.py`` at the pinned numpy): an array of bounds
    gives the same values, and leaves the same state, as one scalar draw per
    bound in order.
    """
    order = rng.permutation(users)
    batches = []
    for start in range(0, order.size, batch_size):
        chunk = order[start : start + batch_size]
        pairs = {domain: _sample_pairs(rng, chunk, index, n_items, keys[domain])
                 for domain, (index, n_items) in owned.items()}
        batches.append(Batch(chunk, pairs))
    return batches


def _validation_metric(
    params: ModelParameters,
    graphs: DomainGraphs,
    config: TrainConfig,
    split: LeaveOneOutSplit,
    excluded_by_user: UserItems,
) -> float:
    scorer = build_scorer(params, graphs, config)
    ranks = np.asarray(held_out_ranks(scorer, split.users, split.validation_items,
                                      excluded_by_user))
    # summed left to right by accumulate: np.sum and np.mean add pairwise and
    # differ in the last bits of best_validation; a miss adds 0.0, which
    # leaves the sum as it is
    hits = _VALIDATION_GAINS[np.where(ranks <= VALIDATION_K, ranks, 0)]
    return float(100.0 * np.add.accumulate(hits)[-1] / split.users.size)


def fit(config: TrainConfig, bundle: DatasetBundle, split: LeaveOneOutSplit) -> FitResult:
    """Train with early stopping on validation ranking quality.

    Returns the parameters of the best validation epoch together with the
    per-epoch loss and metric log.  ``max_epochs == 0`` returns the freshly
    initialized parameters untouched, with no best validation metric (None).
    """
    if split.train_target.size == 0 or (config.model == CROSS and split.train_source.size == 0):
        raise ValueError("training set is empty")

    graphs = DomainGraphs.for_config(config, bundle, split)
    params = init_parameters(config, bundle)
    excluded_by_user = split.train_target_items_by_user(bundle.user_count)
    owned = {TARGET: (excluded_by_user, bundle.target.item_count)}
    if config.model == CROSS:
        source = UserItems.build(split.train_source, bundle.user_count)
        owned = {SOURCE: (source, bundle.source.item_count), **owned}
    # a user without training items has no positive to draw, and one owning
    # a whole catalog would leave the negative draw spinning
    keys = {domain: _owned_keys(index, n_items) for domain, (index, n_items) in owned.items()}
    for domain, (_, n_items) in owned.items():
        distinct = np.bincount(keys[domain] // n_items, minlength=bundle.user_count)[split.users]
        for unusable, problem in (
            (distinct == 0, f"has no training {domain} item: no positive to sample"),
            (distinct >= n_items, f"owns every {domain} item: no negative to sample"),
        ):
            if unusable.any():
                user = bundle.user_ids[split.users[unusable.argmax()]]
                raise ValueError(f"user {user!r} {problem}")

    # the best epoch's parameter arrays; nothing reads its Adagrad state
    best = {name: array.copy() for name, array in params.arrays.items()}
    best_metric = -np.inf
    best_epoch = 0
    log: list[EpochRecord] = []
    stale = 0
    for epoch in range(1, config.max_epochs + 1):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, _STREAM_EPOCH, epoch]))
        batches = _sample_batches(rng, split.users, config.batch_size, owned, keys)
        sums = np.zeros(len(transfer.LossBundle._fields))
        for step, batch in enumerate(batches):
            draws = None  # only the cross step reads the gate and noise draws
            if config.model == CROSS:
                draws = StepDraws.for_step(
                    config.seed, epoch, step, batch.users.size, config.embedding_dim
                )
            try:
                losses = train_step(params, graphs, batch, draws, config)
            except NonFiniteLossError as error:
                raise NonFiniteLossError(f"{error} at epoch {epoch}, step {step}",
                                         epoch=epoch, step=step) from None
            sums += batch.users.size * np.array(losses)
        mean = sums / split.users.size  # an epoch batches each split user once
        epoch_losses = transfer.LossBundle(*mean)
        metric = _validation_metric(params, graphs, config, split, excluded_by_user)
        log.append(EpochRecord(epoch, epoch_losses, metric))
        if metric > best_metric:
            best_metric = metric
            best_epoch = epoch
            best = {name: array.copy() for name, array in params.arrays.items()}
            stale = 0
        else:
            stale += 1
            if config.patience and stale >= config.patience:
                break
    return FitResult(ModelParameters(best), best_epoch, float(best_metric) if log else None, log,
                     graphs)


# ---------------------------------------------------------------------------
# Checkpoints: versioned binary container of named float64 matrices
# ---------------------------------------------------------------------------


def save_checkpoint(path, params: ModelParameters, meta: dict | None = None) -> None:
    """Write parameters to a self-describing binary container.

    Layout: magic, version, JSON metadata block, then each array as
    (name, shape header, raw little-endian float64 data).  The format contains
    no timestamps, so identical parameters produce identical bytes.
    """
    meta_bytes = json.dumps(meta or {}, sort_keys=True, allow_nan=False).encode("utf-8")
    handle = io.BytesIO()
    handle.write(CHECKPOINT_MAGIC)
    handle.write(struct.pack("<II", CHECKPOINT_VERSION, len(meta_bytes)))
    handle.write(meta_bytes)
    handle.write(struct.pack("<I", len(params.arrays)))
    for name, array in params.arrays.items():
        data = np.asarray(array, dtype="<f8")
        encoded = name.encode("utf-8")
        handle.write(struct.pack("<H", len(encoded)))
        handle.write(encoded)
        handle.write(struct.pack("<B", data.ndim))
        handle.write(struct.pack(f"<{max(data.ndim, 1)}Q", *(data.shape or (1,))))
        handle.write(data.tobytes(order="C"))
    write_atomic(path, handle.getvalue())


def _read_exact(handle, size: int) -> bytes:
    # checked before reading, so a corrupt size is never allocated
    left = os.fstat(handle.fileno()).st_size - handle.tell()
    if size > left:
        raise ValueError(f"truncated checkpoint: wanted {size} bytes, {left} left")
    return handle.read(size)


def load_checkpoint(path) -> tuple[ModelParameters, dict]:
    """Read a checkpoint; raises ``ValueError`` unless the file is exactly one."""
    with open(path, "rb") as handle:
        magic = handle.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"not a checkpoint file (magic {magic!r})")
        version, meta_len = struct.unpack("<II", _read_exact(handle, 8))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        meta = json.loads(_read_exact(handle, meta_len).decode("utf-8"))
        if not isinstance(meta, dict):
            raise ValueError("checkpoint metadata is not an object")
        (count,) = struct.unpack("<I", _read_exact(handle, 4))
        arrays: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(handle, 2))
            name = _read_exact(handle, name_len).decode("utf-8")
            (ndim,) = struct.unpack("<B", _read_exact(handle, 1))
            shape = struct.unpack(f"<{max(ndim, 1)}Q", _read_exact(handle, 8 * max(ndim, 1)))
            if ndim == 0:
                shape = ()
            data = np.frombuffer(_read_exact(handle, 8 * math.prod(shape)), dtype="<f8").copy()
            arrays[name] = data.reshape(shape)
        if handle.read(1):
            raise ValueError("trailing bytes after the last checkpoint array")
    return ModelParameters(arrays), meta


def check_checkpoint(params: ModelParameters, config: TrainConfig) -> None:
    """Raise ``ValueError`` unless ``params`` holds the tables ``config`` trains."""
    gate = GATE_ARRAYS.values() if config.model == CROSS else ()
    names = sorted([*_table_layout(config.model, config.use_kg), *gate])
    if sorted(params.arrays) != names:
        raise ValueError(f"checkpoint holds tables {sorted(params.arrays)}, "
                         f"but its config trains a {config.model!r} model with tables {names}")
