"""Optimizer behavior, exact gradients, determinism, checkpoints."""

import struct
from dataclasses import asdict, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from crossrec.compression import SIGMA_FLOOR
from crossrec.data import DatasetBundle, SynthSpec
from crossrec.graph import ENTITIES, USERS, InteractionGraph, KnowledgeLinkage
from crossrec.evaluation import split_leave_one_out
from crossrec.experiments import config_for_variant
from crossrec.transfer import (
    bpr_loss,
    bpr_loss_backward,
    cross_entropy_loss,
    cross_entropy_loss_backward,
)
from crossrec.training import (
    ADAGRAD_EPS,
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CROSS,
    TARGET_ONLY,
    VALIDATION_K,
    Batch,
    DomainGraphs,
    ModelParameters,
    NonFiniteLossError,
    StepDraws,
    TrainConfig,
    adagrad_update,
    backward_losses,
    build_scorer,
    fit,
    forward_losses,
    init_parameters,
    load_checkpoint,
    save_checkpoint,
    _add_rows,
    _owned_keys,
    _sample_batches,
    train_step,
)

from full_matrix import full_matrix_training, full_power
from gradcheck import gradient_check, pinned
from metric_oracle import metrics_at, one_row
from two_pass_info_nce import two_pass_training


def copied(params):
    """An independent copy of ``params``: its arrays and its Adagrad accumulators."""
    return ModelParameters({name: array.copy() for name, array in params.arrays.items()},
                           {name: acc.copy() for name, acc in params.accumulators.items()})


def micro_setup(bundle, config, seed=7):
    """Graphs, parameters, and one deterministic batch over all users."""
    every_edge = SimpleNamespace(train_source=bundle.source.edges, train_target=bundle.target.edges)
    # the graphs do not depend on the layer count; at 2 the entity bridge's
    # check passes, so steps can run at 0 or 1 layers too
    graphs = DomainGraphs.for_config(replace(config, layers=2), bundle, every_edge)
    params = init_parameters(config, bundle)
    rng = np.random.default_rng(seed)
    users = np.arange(bundle.user_count)
    by_user = {
        "source": [bundle.source.edges[bundle.source.edges[:, 0] == u, 1] for u in users],
        "target": [bundle.target.edges[bundle.target.edges[:, 0] == u, 1] for u in users],
    }

    def sample(domain, n_items):
        pos = np.array([owned[rng.integers(owned.size)] for owned in by_user[domain]])
        neg = []
        for owned in by_user[domain]:
            taken = set(owned.tolist())
            candidate = int(rng.integers(n_items))
            while candidate in taken:
                candidate = int(rng.integers(n_items))
            neg.append(candidate)
        return pos, np.asarray(neg)

    pairs = {"source": sample("source", bundle.source.item_count),
             "target": sample("target", bundle.target.item_count)}
    if config.model == TARGET_ONLY:
        del pairs["source"]  # drawn all the same, so the target pairs match the cross model's
    batch = Batch(users, pairs)
    draws = StepDraws.for_step(config.seed, 1, 0, users.size, config.embedding_dim)
    return graphs, params, batch, draws


class TestAdagrad:
    def test_first_step_closed_form(self):
        params = ModelParameters({"w": np.zeros(1)})
        adagrad_update(params, {"w": np.ones(1)}, learning_rate=0.1)
        assert params.arrays["w"][0] == pytest.approx(-0.1 / (1.0 + 1e-10), rel=1e-12)
        assert params.accumulators["w"][0] == 1.0

    def test_zero_gradient_is_noop(self):
        params = ModelParameters({"w": np.full(3, 2.5)})
        adagrad_update(params, {"w": np.zeros(3)}, learning_rate=0.5)
        assert np.array_equal(params.arrays["w"], np.full(3, 2.5))
        assert np.array_equal(params.accumulators["w"], np.zeros(3))

    def test_step_magnitude_bounded_by_learning_rate(self):
        rng = np.random.default_rng(0)
        params = ModelParameters({"w": rng.normal(size=50)})
        lr = 0.07
        for _ in range(20):
            before = params.arrays["w"].copy()
            adagrad_update(params, {"w": rng.normal(size=50) * 10}, learning_rate=lr)
            assert np.abs(params.arrays["w"] - before).max() <= lr + 1e-12

    def test_accumulator_monotone(self):
        rng = np.random.default_rng(1)
        params = ModelParameters({"w": np.zeros(10)})
        previous = np.zeros(10)
        for _ in range(10):
            adagrad_update(params, {"w": rng.normal(size=10)}, learning_rate=0.1)
            assert np.all(params.accumulators["w"] >= previous)
            previous = params.accumulators["w"].copy()

    def test_in_place_step_equals_the_expression(self):
        # the step written into the gradient gives the bits of the plain
        # expression, step after step, for a matrix, a vector and a 0-d table
        rng = np.random.default_rng(2)
        shapes = {"w": (6, 3), "b": (5,), "gate_b2": ()}
        params = ModelParameters({name: rng.normal(size=shape) for name, shape in shapes.items()})
        expected = copied(params)
        for _ in range(5):
            grads = {name: rng.normal(size=shape) * np.exp(rng.normal(size=shape) * 3)
                     for name, shape in shapes.items()}
            for name, grad in grads.items():
                acc = expected.accumulators[name]
                acc += grad * grad
                expected.arrays[name] -= 0.3 * grad / (np.sqrt(acc) + ADAGRAD_EPS)
            adagrad_update(params, {name: grad.copy() for name, grad in grads.items()}, 0.3)
            for name in shapes:
                assert params.arrays[name].tobytes() == expected.arrays[name].tobytes(), name
                assert (params.accumulators[name].tobytes()
                        == expected.accumulators[name].tobytes()), name


def test_flat_scatter_equals_the_row_scatter():
    # _add_rows goes through numpy's 1-d add.at; a repeated row must sum in
    # index order, as the 2-d add.at does (1e16, 1, -1e16 sum to 0 in that
    # order and to 1 as 1e16, -1e16, 1), and a -0.0 must keep its sign
    rng = np.random.default_rng(3)
    for trial in range(20):
        table = rng.normal(size=(7, 4))
        table[rng.random(table.shape) < 0.3] = -0.0
        rows = rng.integers(0, 7, size=int(rng.integers(1, 30)))
        values = rng.normal(size=(rows.size, 4)) * 10.0 ** rng.integers(-3, 17, size=(rows.size, 4))
        values[rng.random(values.shape) < 0.2] = -0.0
        rows = np.concatenate([rows, [2, 2, 2]])
        values = np.concatenate([values, [[1e16] * 4, [1.0] * 4, [-1e16] * 4]])
        expected = table.copy()
        np.add.at(expected, rows, values)
        _add_rows(table, rows, values)
        assert table.tobytes() == expected.tobytes(), trial


class TestTrainStep:
    def test_bpr_only_update_sign_matches_finite_differences(self, dense_micro_bundle):
        # alphas zero, identity encoder (0 layers), per-item ID embeddings so
        # scores are not degenerate: the user-table update must move along
        # the negative gradient of the ranking loss
        config = TrainConfig(
            embedding_dim=4, gate_hidden=4, layers=0, seed=5, use_kg=False,
            alphas=(0.0, 0.0, 0.0), learning_rate=0.05, batch_size=16,
        )
        graphs, params, batch, draws = micro_setup(dense_micro_bundle, config)
        frozen_bundle, cache = forward_losses(params, graphs, batch, draws, config)
        frozen = (cache.mu, cache.sigma)

        def objective():
            with pinned(stats=frozen):
                value, _ = forward_losses(params, graphs, batch, draws, config)
            return value.total

        eps = 1e-5
        table = params.arrays["user_t"]
        fd = np.zeros_like(table)
        flat = table.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + eps
            upper = objective()
            flat[i] = saved - eps
            lower = objective()
            flat[i] = saved
            fd.reshape(-1)[i] = (upper - lower) / (2 * eps)

        before = table.copy()
        train_step(params, graphs, batch, draws, config)
        update = params.arrays["user_t"] - before
        meaningful = np.abs(fd) > 1e-9
        assert meaningful.any()
        assert np.all(np.sign(update[meaningful]) == -np.sign(fd[meaningful]))

    def test_non_finite_loss_aborts(self, dense_micro_bundle):
        config = TrainConfig(embedding_dim=4, gate_hidden=4, layers=1, seed=5, batch_size=16)
        graphs, params, batch, draws = micro_setup(dense_micro_bundle, config)
        params.arrays["user_t"][0, 0] = np.nan
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteLossError, match="non-finite"):
                train_step(params, graphs, batch, draws, config)

    def test_item_rows_stay_zero_under_kg(self, dense_micro_bundle):
        # items carry no parameters of their own when the entity bridge is
        # on: after training no table fills the item block, so it is not a
        # live block of either graph and E(0)'s item rows are exactly zero
        config = TrainConfig(embedding_dim=4, gate_hidden=4, layers=2, seed=5, batch_size=16)
        graphs, params, batch, _ = micro_setup(dense_micro_bundle, config)
        for step in range(5):
            draws = StepDraws.for_step(config.seed, 1, step, batch.users.size, 4)
            train_step(params, graphs, batch, draws, config)
        assert sorted(name for name in params.arrays if not name.startswith("gate")) == [
            "entity", "user_s", "user_t"]
        _, cache = forward_losses(params, graphs, batch, draws, replace(config, layers=0))
        for state in cache.states.values():
            assert state.live == (USERS, ENTITIES)
            assert np.all(state.items == 0.0)

    @pytest.mark.parametrize("layers", [0, 1, 2, 3])
    @pytest.mark.parametrize("model, use_kg", [(CROSS, True), (CROSS, False), (TARGET_ONLY, True)],
                             ids=["full", "no-kg", "target-only"])
    def test_block_hops_train_as_the_full_matrix_does(self, dense_micro_bundle, model, use_kg,
                                                       layers):
        # a few steps through the block hops and through graph.matrix at every
        # hop give the same parameters, accumulators and served scores, bit for bit
        config = TrainConfig(embedding_dim=4, gate_hidden=4, layers=layers, seed=5,
                             batch_size=16, model=model, use_kg=use_kg)
        graphs, params, batch, _ = micro_setup(dense_micro_bundle, config)
        reference = copied(params)
        for step in range(4):
            draws = StepDraws.for_step(config.seed, 1, step, batch.users.size, 4)
            train_step(params, graphs, batch, draws, config)
            with full_matrix_training():
                train_step(reference, graphs, batch, draws, config)
        for name in params.arrays:
            assert np.array_equal(params.arrays[name], reference.arrays[name]), name
            assert np.array_equal(params.accumulators[name], reference.accumulators[name]), name
        served = build_scorer(params, graphs, config)
        with full_matrix_training():
            expected = build_scorer(params, graphs, config)
        assert np.array_equal(served.users, expected.users)
        assert np.array_equal(served.items, expected.items)

    @pytest.mark.filterwarnings("error")
    def test_a_gate_without_hidden_units_trains_without_warnings(self, dense_micro_bundle):
        config = TrainConfig(embedding_dim=4, gate_hidden=0, layers=2, seed=5, batch_size=16)
        graphs, params, batch, _ = micro_setup(dense_micro_bundle, config)
        for step in range(4):
            draws = StepDraws.for_step(config.seed, 1, step, batch.users.size, 4)
            train_step(params, graphs, batch, draws, config)
        assert params.all_finite()
        assert np.isfinite(build_scorer(params, graphs, config)(0)).all()

    @pytest.mark.parametrize("variant", ["full", "no-cl"])
    def test_info_nce_trains_as_the_two_pass_code_does(self, dense_micro_bundle, variant):
        # no-cl runs the forward and discards its gradient work
        config = config_for_variant(variant, TrainConfig(embedding_dim=4, gate_hidden=4,
                                                         layers=2, seed=5, batch_size=16))
        graphs, params, batch, _ = micro_setup(dense_micro_bundle, config)
        reference = copied(params)
        for step in range(4):
            draws = StepDraws.for_step(config.seed, 1, step, batch.users.size, 4)
            train_step(params, graphs, batch, draws, config)
            with two_pass_training():
                train_step(reference, graphs, batch, draws, config)
        for name in params.arrays:
            assert np.array_equal(params.arrays[name], reference.arrays[name]), name
            assert np.array_equal(params.accumulators[name], reference.accumulators[name]), name

    def test_parameters_stay_finite_over_many_steps(self, dense_micro_bundle):
        config = TrainConfig(
            embedding_dim=4, gate_hidden=4, layers=2, seed=5,
            learning_rate=0.5, batch_size=16, alphas=(0.5, 1.0, 1.0),
        )
        graphs, params, batch, _ = micro_setup(dense_micro_bundle, config)
        for step in range(1000):
            draws = StepDraws.for_step(config.seed, 1, step, batch.users.size, 4)
            train_step(params, graphs, batch, draws, config)
        assert params.all_finite()

    @pytest.mark.parametrize("model", [CROSS, TARGET_ONLY])
    def test_weight_decay_adds_the_scaled_parameters(self, dense_micro_bundle, model):
        config = TrainConfig(embedding_dim=4, gate_hidden=4, layers=2, seed=5, batch_size=16,
                             weight_decay=0.01, model=model)
        graphs, params, batch, draws = micro_setup(dense_micro_bundle, config)
        expected, undecayed = copied(params), copied(params)
        _, cache = forward_losses(expected, graphs, batch, draws, config)
        grads = backward_losses(cache)
        decayed = {name: grad + 0.01 * expected.arrays[name] for name, grad in grads.items()}
        adagrad_update(expected, decayed, config.learning_rate)
        train_step(params, graphs, batch, draws, config)
        train_step(undecayed, graphs, batch, draws, replace(config, weight_decay=0.0))
        for name in params.arrays:
            assert np.array_equal(params.arrays[name], expected.arrays[name])
            assert np.array_equal(params.accumulators[name], expected.accumulators[name])
        assert not all(
            np.array_equal(params.arrays[name], undecayed.arrays[name]) for name in params.arrays
        )


class TestForwardCache:
    def test_backward_releases_the_info_nce_buffer(self, dense_micro_bundle):
        # the B x B buffer must not stay alive through the adjoint propagation
        # and the Adagrad update that follow the backward
        config = TrainConfig(embedding_dim=4, gate_hidden=4, layers=2, seed=5)
        graphs, params, batch, draws = micro_setup(dense_micro_bundle, config)
        _, cache = forward_losses(params, graphs, batch, draws, config)
        b = batch.users.size

        def square_fields(record):
            return [entry.name for entry in fields(record)
                    if np.shape(getattr(record, entry.name)) == (b, b)]

        assert square_fields(cache.contrastive) == ["g_dot"]
        backward_losses(cache)
        assert square_fields(cache.contrastive) == []

    def test_compression_invariants(self, dense_micro_bundle):
        config = TrainConfig(embedding_dim=4, gate_hidden=4, layers=2, seed=5)
        graphs, params, batch, draws = micro_setup(dense_micro_bundle, config)
        _, cache = forward_losses(params, graphs, batch, draws, config)
        gate = cache.gate[:, None]
        assert np.allclose(cache.mixed, gate * cache.merged + (1 - gate) * cache.eps)
        assert np.all((cache.gate > 0) & (cache.gate < 1))
        assert np.all(cache.sigma >= SIGMA_FLOOR)
        assert np.allclose(cache.eps, cache.mu + cache.sigma * draws.noise)


def target_only_oracle(params, graphs, batch, config):
    """Loss and gradients of the target-only model as a separate code path.

    These are the formulas of the dedicated target-only branch that the single
    model path replaced, kept here to pin that path bit for bit.
    """
    if config.prediction_loss == "bpr":
        loss_fn, loss_backward = bpr_loss, bpr_loss_backward
    else:
        loss_fn, loss_backward = cross_entropy_loss, cross_entropy_loss_backward
    graph = graphs.target
    users = graph.user_count
    e0 = np.zeros((graph.node_count, config.embedding_dim))
    e0[:users] = params.arrays["user_t"]
    e0[users:] = params.arrays["item_t"]
    final = full_power(graph, e0, config.layers)
    fused = final[:users][batch.users]
    pos_target, neg_target = batch.pairs["target"]
    pos_vec = final[users:][pos_target]
    neg_vec = final[users:][neg_target]
    pos_scores = np.sum(fused * pos_vec, axis=1)
    neg_scores = np.sum(fused * neg_vec, axis=1)
    pred_t = loss_fn(pos_scores, neg_scores)

    g_pos, g_neg = loss_backward(pos_scores, neg_scores)
    g_fused = g_pos[:, None] * pos_vec + g_neg[:, None] * neg_vec
    g_z = np.zeros((graph.node_count, config.embedding_dim))
    np.add.at(g_z, batch.users, g_fused)
    np.add.at(g_z, users + pos_target, g_pos[:, None] * fused)
    np.add.at(g_z, users + neg_target, g_neg[:, None] * fused)
    g_e0 = full_power(graph, g_z, config.layers)
    return pred_t, {"user_t": g_e0[:users], "item_t": g_e0[users:]}


def assert_matches_target_only_oracle(params, graphs, batch, draws, config):
    bundle, cache = forward_losses(params, graphs, batch, draws, config)
    grads = backward_losses(cache)
    pred_t, expected = target_only_oracle(params, graphs, batch, config)
    assert bundle.pred_target == pred_t
    assert bundle.total == pred_t
    assert (bundle.pred_source, bundle.kl, bundle.contrastive) == (0.0, 0.0, 0.0)
    assert set(grads) == set(expected)
    for name, grad in expected.items():
        assert np.array_equal(grads[name], grad), name
    return grads


class TestTargetOnlyOracle:
    @pytest.mark.parametrize("loss", ["bpr", "ce"])
    def test_dense_micro_bundle(self, dense_micro_bundle, loss):
        config = TrainConfig(
            embedding_dim=4, layers=2, seed=5, model=TARGET_ONLY, prediction_loss=loss
        )
        graphs, params, batch, draws = micro_setup(dense_micro_bundle, config)
        assert graphs.source is None
        assert list(params.arrays) == ["user_t", "item_t"]
        assert_matches_target_only_oracle(params, graphs, batch, draws, config)

    # the split has 12 users, so batches of 11 leave a one-user last batch
    @pytest.mark.parametrize("batch_size", [1, 4, 11, 16])
    def test_tiny_split_batches(self, tiny_bundle, tiny_split, batch_size):
        # one epoch of the real sampler; the oracle's gradients drive the
        # Adagrad steps, so later batches are checked away from the init
        bundle, _ = tiny_bundle
        config = TrainConfig(
            embedding_dim=8, layers=2, seed=7, model=TARGET_ONLY, batch_size=batch_size,
            learning_rate=0.1,
        )
        graphs = DomainGraphs.for_config(config, bundle, tiny_split)
        params = init_parameters(config, bundle)
        index = tiny_split.train_target_items_by_user(bundle.user_count)
        owned = {"target": (index, bundle.target.item_count)}
        keys = {"target": _owned_keys(index, bundle.target.item_count)}
        batches = _sample_batches(np.random.default_rng(3), tiny_split.users, batch_size, owned,
                                  keys)
        assert batches[0].users.size == min(batch_size, tiny_split.users.size)
        # the losses divide by the batch size, so no batch may be empty
        sizes = [batch.users.size for batch in batches]
        assert min(sizes) >= 1 and sum(sizes) == tiny_split.users.size
        for step, batch in enumerate(batches):
            draws = StepDraws.for_step(config.seed, 1, step, batch.users.size, 8)
            grads = assert_matches_target_only_oracle(params, graphs, batch, draws, config)
            adagrad_update(params, grads, config.learning_rate)


class TestTargetOnlyIgnoresDraws:
    @pytest.mark.parametrize("loss", ["bpr", "ce"])
    def test_step_without_draws_is_bit_equal(self, dense_micro_bundle, loss):
        config = TrainConfig(embedding_dim=4, layers=2, seed=5, model=TARGET_ONLY,
                             prediction_loss=loss)
        graphs, params, batch, draws = micro_setup(dense_micro_bundle, config)
        drawn, drawn_cache = forward_losses(params, graphs, batch, draws, config)
        undrawn, undrawn_cache = forward_losses(params, graphs, batch, None, config)
        assert undrawn == drawn
        expected = backward_losses(drawn_cache)
        grads = backward_losses(undrawn_cache)
        assert list(grads) == list(expected)
        for name, grad in expected.items():
            assert np.array_equal(grads[name], grad), name

    def test_fit_draws_nothing_and_matches_a_drawn_run(
        self, tiny_bundle, tiny_split, tmp_path, monkeypatch
    ):
        # the drawn run hands every step real draws, as fit did before it
        # skipped them for target-only; the checkpoints must be byte-equal
        bundle, _ = tiny_bundle
        config = TrainConfig(embedding_dim=8, seed=7, model=TARGET_ONLY, batch_size=4,
                             learning_rate=0.1, max_epochs=5, patience=0)

        def refuse(*args, **kwargs):
            raise AssertionError("target-only fit drew step draws")

        monkeypatch.setattr(StepDraws, "for_step", staticmethod(refuse))
        undrawn = fit(config, bundle, tiny_split)
        monkeypatch.undo()

        steps = []

        def drawn_step(params, graphs, batch, draws, config):
            assert draws is None
            steps.append(batch.users.size)
            draws = StepDraws.for_step(config.seed, 1, len(steps), batch.users.size,
                                       config.embedding_dim)
            return train_step(params, graphs, batch, draws, config)

        monkeypatch.setattr("crossrec.training.train_step", drawn_step)
        drawn = fit(config, bundle, tiny_split)
        assert len(steps) == 5 * -(-tiny_split.users.size // 4)
        for name, result in (("undrawn", undrawn), ("drawn", drawn)):
            save_checkpoint(tmp_path / f"{name}.ckpt", result.params, {"config": asdict(config)})
        assert (tmp_path / "undrawn.ckpt").read_bytes() == (tmp_path / "drawn.ckpt").read_bytes()


class TestGradientCheck:
    def test_linear_path_is_machine_exact(self, dense_micro_bundle):
        # gate pinned to one and only ranking losses active: the graph up to
        # the smooth loss is linear, so central differences are nearly exact
        config = TrainConfig(
            embedding_dim=4, gate_hidden=4, layers=2, seed=5, alphas=(0.3, 0.0, 0.0)
        )
        graphs, params, batch, draws = micro_setup(dense_micro_bundle, config)
        result = gradient_check(
            params, graphs, batch, draws, config, epsilon=3e-4, open_gates=True
        )
        assert not result.non_smooth
        assert result.max_relative_error <= 1e-7

    def test_full_objective_small_instance(self, dense_micro_bundle):
        config = TrainConfig(
            embedding_dim=4, gate_hidden=4, layers=2, seed=5, alphas=(0.3, 0.7, 0.5)
        )
        graphs, params, batch, draws = micro_setup(dense_micro_bundle, config)
        result = gradient_check(params, graphs, batch, draws, config, epsilon=1e-5)
        assert not result.non_smooth
        assert result.max_relative_error <= 1e-4

    @pytest.mark.parametrize("setting", [
        {"alphas": (0.0, 0.7, 0.5)},  # no-pred-s: the source ranking term is skipped
        {"use_kg": False},  # per-item source and target tables instead of the entity table
        {"prediction_loss": "ce"},
    ])
    def test_full_objective_other_settings(self, dense_micro_bundle, setting):
        config = TrainConfig(
            embedding_dim=4, gate_hidden=4, layers=2, seed=5, alphas=(0.3, 0.7, 0.5)
        )
        config = replace(config, **setting)
        graphs, params, batch, draws = micro_setup(dense_micro_bundle, config)
        result = gradient_check(params, graphs, batch, draws, config, epsilon=1e-5)
        assert not result.non_smooth
        assert result.max_relative_error <= 1e-4

    def test_saturated_gates_reported_non_smooth(self, dense_micro_bundle):
        config = TrainConfig(
            embedding_dim=4, gate_hidden=4, layers=2, seed=5, alphas=(0.3, 0.7, 0.5)
        )
        graphs, params, batch, draws = micro_setup(dense_micro_bundle, config)
        params.arrays["gate_b2"] = np.asarray(60.0)  # every gate saturates at 1
        result = gradient_check(params, graphs, batch, draws, config, epsilon=1e-5)
        assert result.non_smooth
        assert any("saturated" in reason or "floor" in reason for reason in result.reasons)

    def test_target_only_gradients(self, dense_micro_bundle):
        config = TrainConfig(
            embedding_dim=4, layers=2, seed=5, model="target_only", batch_size=16
        )
        graphs = DomainGraphs.from_training_edges(
            dense_micro_bundle, dense_micro_bundle.source.edges,
            dense_micro_bundle.target.edges, use_kg=False, include_source=False,
        )
        params = init_parameters(config, dense_micro_bundle)
        users = np.arange(4)
        batch = Batch(users, {"target": (np.array([1, 0, 3, 2]), np.array([2, 4, 0, 4]))})
        draws = StepDraws.for_step(5, 1, 0, 4, 4)
        result = gradient_check(params, graphs, batch, draws, config, epsilon=1e-4)
        assert result.max_relative_error <= 1e-6


class TestFit:
    def test_zero_epochs_returns_initial_parameters(self, tiny_bundle, tiny_split):
        bundle, _ = tiny_bundle
        config = TrainConfig(embedding_dim=8, gate_hidden=8, max_epochs=0, seed=9, batch_size=16)
        result = fit(config, bundle, tiny_split)
        fresh = init_parameters(config, bundle)
        for name, array in fresh.arrays.items():
            assert np.array_equal(result.params.arrays[name], array)
        assert result.log == []
        assert result.best_validation is None

    def test_validation_improves_over_initialization(self, tiny_bundle, tiny_split):
        bundle, _ = tiny_bundle
        config = TrainConfig(
            embedding_dim=8, gate_hidden=8, max_epochs=30, seed=7, batch_size=16,
            learning_rate=0.1, patience=0, alphas=(0.3, 0.05, 0.02),
        )
        result = fit(config, bundle, tiny_split)
        assert result.log[0].epoch == 1
        assert result.best_validation > result.log[0].validation_metric or (
            result.log[0].validation_metric == max(r.validation_metric for r in result.log)
            and result.best_validation
            == max(r.validation_metric for r in result.log)
        )
        # the best checkpoint must strictly beat the untrained model
        config_fresh = TrainConfig(
            embedding_dim=8, gate_hidden=8, max_epochs=0, seed=7, batch_size=16
        )
        untouched = fit(config_fresh, bundle, tiny_split)
        from crossrec.training import _validation_metric

        excluded = tiny_split.train_target_items_by_user(bundle.user_count)
        initial = _validation_metric(
            untouched.params, untouched.graphs, config_fresh, tiny_split, excluded
        )
        assert result.best_validation > initial

    def test_bitwise_deterministic(self, tiny_bundle, tiny_split):
        bundle, _ = tiny_bundle
        config = TrainConfig(
            embedding_dim=8, gate_hidden=8, max_epochs=5, seed=11, batch_size=8,
            learning_rate=0.1, patience=0,
        )
        first = fit(config, bundle, tiny_split)
        second = fit(config, bundle, tiny_split)
        for a, b in zip(first.log, second.log):
            assert a.losses.total == b.losses.total  # bit identical
            assert a.validation_metric == b.validation_metric
        for name in first.params.arrays:
            assert np.array_equal(first.params.arrays[name], second.params.arrays[name])

    def test_empty_training_set_rejected(self, tiny_bundle, tiny_split):
        bundle, _ = tiny_bundle
        from dataclasses import replace

        empty = replace(tiny_split, train_target=np.zeros((0, 2), dtype=np.int64))
        config = TrainConfig(max_epochs=1, seed=0)
        with pytest.raises(ValueError, match="empty"):
            fit(config, bundle, empty)

    def test_user_owning_a_whole_catalog_rejected(self):
        # user 0 owns all four source items, so no source negative exists;
        # users 1 and 2 own too few items to be trained
        source = [(0, i) for i in range(4)] + [(1, 0), (2, 1)]
        target = [(0, i) for i in range(6)] + [(1, 0), (2, 1)]
        bundle = DatasetBundle(
            source=InteractionGraph("source", 3, 4, source),
            target=InteractionGraph("target", 3, 8, target),
            kg=KnowledgeLinkage.empty(),
            user_ids=["u0", "u1", "u2"],
            source_item_ids=[f"s{i}" for i in range(4)],
            target_item_ids=[f"t{i}" for i in range(8)],
            entity_ids=[],
        )
        split = split_leave_one_out(bundle, 0)
        with pytest.raises(ValueError, match="user 'u0' owns every source item"):
            fit(TrainConfig(max_epochs=1, seed=0), bundle, split)
        # the target-only model samples no source items
        fit(TrainConfig(max_epochs=1, seed=0, model=TARGET_ONLY), bundle, split)

    @pytest.mark.parametrize("split_seed", [0, 4])
    def test_user_without_training_target_items_rejected(self, repeated_item_bundle, split_seed):
        split = split_leave_one_out(repeated_item_bundle, split_seed)
        assert {int(split.validation_items[0]), int(split.test_items[0])} == {3, 5}
        for model in ("cross", TARGET_ONLY):
            with pytest.raises(ValueError, match="user 'u0' has no training target item"):
                fit(TrainConfig(max_epochs=1, seed=0, model=model), repeated_item_bundle, split)

    def test_early_stopping_stops(self, tiny_bundle, tiny_split):
        bundle, _ = tiny_bundle
        config = TrainConfig(
            embedding_dim=8, gate_hidden=8, max_epochs=50, seed=13, batch_size=16,
            learning_rate=1e-5, patience=3,
        )
        result = fit(config, bundle, tiny_split)
        assert len(result.log) < 50


@pytest.mark.parametrize("setting", [
    {"learning_rate": True}, {"embedding_dim": 8.0}, {"alphas": (1.0, 2.0)},
    {"alphas": [0.01, 1.0, 1.0]}, {"alphas": (0.01, False, 1.0)}, {"model": 1},
    {"use_kg": 1},
], ids=str)
def test_config_refuses_a_value_of_the_wrong_type(setting):
    with pytest.raises(ValueError, match=f"^{next(iter(setting))} must be "):
        TrainConfig(**setting)


def test_config_admits_numpy_scalars_and_integer_reals():
    config = TrainConfig(seed=np.int64(3), learning_rate=1, alphas=(0, 1, np.float64(0.5)))
    assert (config.seed, config.learning_rate, config.alphas) == (3, 1, (0, 1, 0.5))


@pytest.mark.parametrize("setting, message", [
    pytest.param(setting, message, id=str(setting)) for setting, message in [
        ({"embedding_dim": 0}, "embedding_dim must be positive, got 0"),
        ({"batch_size": 0}, "batch_size must be positive, got 0"),
        ({"learning_rate": 0.0}, "learning_rate must be positive, got 0.0"),
        ({"gumbel_temperature": 0.0}, "gumbel_temperature must be positive, got 0.0"),
        ({"contrastive_temperature": 0.0}, "contrastive_temperature must be positive, got 0.0"),
        ({"init_std": 0.0}, "init_std must be positive, got 0.0"),
        ({"init_std": -0.1}, "init_std must be positive, got -0.1"),
        ({"max_epochs": -1}, "max_epochs must be non-negative, got -1"),
        ({"layers": -1}, "layers must be non-negative, got -1"),
        ({"gate_hidden": -1}, "gate_hidden must be non-negative, got -1"),
        ({"alphas": (0.01, -1.0, 1.0)}, "alphas must be non-negative, got (0.01, -1.0, 1.0)"),
        ({"patience": -1}, "patience must be non-negative, got -1"),
        ({"weight_decay": -1.0}, "weight_decay must be non-negative, got -1.0"),
        ({"hop_radius": -1}, "hop_radius must be non-negative, got -1"),
        ({"prediction_loss": "hinge"},
         "prediction_loss must be one of ('bpr', 'ce'), got 'hinge'"),
        ({"model": "dense"}, "model must be one of ('cross', 'target_only'), got 'dense'"),
    ]
])
def test_config_refuses_an_out_of_range_value_by_name(setting, message):
    with pytest.raises(ValueError) as refused:
        TrainConfig(**setting)
    assert str(refused.value) == message


# a value out of every numeric setting's range, by the setting's annotation
NEGATIVE = {"int": -1, "float": -1.0, "tuple[float, float, float]": (-1.0, 1.0, 1.0)}


@pytest.mark.parametrize("settings, entry", [
    pytest.param(settings, entry, id=f"{settings.__name__}.{entry.name}")
    for settings in (TrainConfig, SynthSpec) for entry in fields(settings)
    if entry.type in NEGATIVE
])
def test_every_numeric_setting_refuses_a_negative_value_by_name(settings, entry):
    with pytest.raises(ValueError, match=f"^{entry.name} must "):
        settings(**{entry.name: NEGATIVE[entry.type]})


def validation_oracle(params, graphs, config, split, excluded_by_user):
    """The per-user validation loop from before ranking had one routine."""
    from crossrec.evaluation import rank_of_held_out
    from crossrec.training import build_scorer

    score_fn = build_scorer(params, graphs, config)
    k = VALIDATION_K
    total = 0.0
    for user, held in zip(split.users, split.validation_items):
        scores = score_fn(int(user))
        rank = rank_of_held_out(*one_row(scores, int(held), excluded_by_user[int(user)]))[0]
        total += metrics_at(rank, (k,))[("ndcg", k)]
    return 100.0 * total / split.users.size


class TestValidationOracle:
    @pytest.mark.parametrize("model", ["cross", TARGET_ONLY])
    @pytest.mark.parametrize("epochs", [0, 6])
    def test_bit_identical_to_the_loop(self, tiny_bundle, tiny_split, model, epochs):
        from crossrec.training import _validation_metric

        bundle, _ = tiny_bundle
        config = TrainConfig(
            embedding_dim=8, gate_hidden=8, max_epochs=epochs, seed=5, batch_size=8,
            learning_rate=0.1, patience=0, model=model,
        )
        result = fit(config, bundle, tiny_split)
        excluded = tiny_split.train_target_items_by_user(bundle.user_count)
        args = (result.params, result.graphs, config, tiny_split, excluded)
        assert _validation_metric(*args) == validation_oracle(*args)


class TestTestRanksOracle:
    @pytest.mark.parametrize("model", ["cross", TARGET_ONLY])
    @pytest.mark.parametrize("epochs", [0, 6])
    def test_evaluate_fit_equals_the_per_user_loop(self, tiny_bundle, tiny_split, model, epochs):
        from crossrec.evaluation import rank_of_held_out
        from crossrec.experiments import evaluate_fit
        from crossrec.training import build_scorer

        bundle, _ = tiny_bundle
        config = TrainConfig(
            embedding_dim=8, gate_hidden=8, max_epochs=epochs, seed=5, batch_size=8,
            learning_rate=0.1, patience=0, model=model,
        )
        result = fit(config, bundle, tiny_split)
        per_user, _ = evaluate_fit(result, tiny_split, bundle, config)
        scorer = build_scorer(result.params, result.graphs, config)
        excluded = tiny_split.train_target_items_by_user(bundle.user_count)
        expected = [
            rank_of_held_out(*one_row(scorer(int(user)), int(held), excluded[int(user)]))[0]
            for user, held in zip(tiny_split.users, tiny_split.test_items)
        ]
        assert [r.rank for r in per_user] == expected
        assert all(type(r.rank) is int for r in per_user)


class TestCheckpoints:
    def test_roundtrip(self, tiny_bundle, tmp_path):
        bundle, _ = tiny_bundle
        config = TrainConfig(embedding_dim=8, gate_hidden=8, seed=3)
        params = init_parameters(config, bundle)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, {"note": "test"})
        loaded, meta = load_checkpoint(path)
        assert meta == {"note": "test"}
        assert set(loaded.arrays) == set(params.arrays)
        for name in params.arrays:
            assert np.array_equal(loaded.arrays[name], params.arrays[name])

    def test_identical_parameters_identical_bytes(self, tiny_bundle, tmp_path):
        bundle, _ = tiny_bundle
        config = TrainConfig(embedding_dim=8, gate_hidden=8, seed=3)
        params = init_parameters(config, bundle)
        first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(first, params, {"config": {"seed": 3}})
        save_checkpoint(second, copied(params), {"config": {"seed": 3}})
        assert first.read_bytes() == second.read_bytes()

    def test_truncated_file_rejected(self, tiny_bundle, tmp_path):
        bundle, _ = tiny_bundle
        params = init_parameters(TrainConfig(embedding_dim=8, gate_hidden=8, seed=3), bundle)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        payload = path.read_bytes()
        for cut in (6, 12, 40, len(payload) // 2, len(payload) - 1):
            path.write_bytes(payload[:cut])
            with pytest.raises(ValueError, match="truncated"):
                load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tiny_bundle, tmp_path):
        bundle, _ = tiny_bundle
        params = init_parameters(TrainConfig(embedding_dim=8, gate_hidden=8, seed=3), bundle)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(path)

    @pytest.mark.parametrize("shape, wanted", [
        ((2**32, 2**32), 2**67),  # np.prod wraps the element count to 0
        ((2**40, 2**20), 2**63),  # one past the largest size a read accepts
    ])
    def test_declared_size_checked_before_reading(self, tmp_path, shape, wanted):
        meta = b"{}"
        path = tmp_path / "model.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(meta))
                         + meta + struct.pack("<IH", 1, 6) + b"user_t"
                         + struct.pack("<B2Q", 2, *shape))
        with pytest.raises(ValueError, match=f"truncated checkpoint: wanted {wanted} bytes, 0 left"):
            load_checkpoint(path)

    def test_magic_check(self, tmp_path):
        bogus = tmp_path / "bogus.ckpt"
        bogus.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(bogus)


class TestStepDraws:
    def test_replayable(self):
        first = StepDraws.for_step(3, 5, 2, 16, 8)
        second = StepDraws.for_step(3, 5, 2, 16, 8)
        assert np.array_equal(first.uniform, second.uniform)
        assert np.array_equal(first.noise, second.noise)

    def test_distinct_steps_differ(self):
        a = StepDraws.for_step(3, 5, 2, 16, 8)
        b = StepDraws.for_step(3, 5, 3, 16, 8)
        assert not np.array_equal(a.uniform, b.uniform)

    def test_uniform_draws_interior(self, monkeypatch):
        draws = StepDraws.for_step(0, 1, 0, 1000, 4)
        assert np.all(draws.uniform > 0.0) and np.all(draws.uniform < 1.0)
        # gumbel_sigmoid takes logit(m) unchecked, so the clip must catch a
        # generator that returns the interval's ends
        ends = SimpleNamespace(random=lambda size: np.array([0.0, 1.0]),
                               normal=lambda size: np.zeros(size))
        monkeypatch.setattr(np.random, "default_rng", lambda seed: ends)
        uniform = StepDraws.for_step(0, 1, 0, 2, 4).uniform
        assert np.isfinite(np.log(uniform / (1.0 - uniform))).all()
