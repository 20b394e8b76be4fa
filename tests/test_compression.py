"""Gating, noise mixing, and the two compression losses."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.special import expit

from crossrec import compression
from crossrec.compression import (
    M_FLOOR,
    NORM_FLOOR,
    SIGMA_FLOOR,
    ForwardConsumedError,
    GateNetwork,
    batch_statistics,
    compress_deterministic,
    gumbel_sigmoid,
    info_nce,
    info_nce_backward,
    kl_upper_bound,
    kl_upper_bound_backward,
    merge_representations,
    mix_noise,
)

import two_pass_info_nce


class TestMerge:
    def test_zero_source_passthrough(self):
        target = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(merge_representations(np.zeros((2, 3)), target), target)

    def test_opposite_cancels(self):
        target = np.arange(6.0).reshape(2, 3)
        assert np.all(merge_representations(-target, target) == 0)

    def test_matches_addition_oracle(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        expected = np.array([[a[i, j] + b[i, j] for j in range(5)] for i in range(4)])
        assert np.array_equal(merge_representations(a, b), expected)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            merge_representations(np.zeros((2, 3)), np.zeros((3, 2)))


class TestGumbelSigmoid:
    def test_neutral_inputs_give_half(self):
        assert gumbel_sigmoid(0.0, 0.5, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_low_temperature_saturates(self):
        assert gumbel_sigmoid(2.0, 0.5, 0.01) == pytest.approx(1.0, abs=1e-12)

    def test_high_precision_value(self):
        # frozen from a 50-digit evaluation of sigmoid((z + log(m/(1-m)))/t)
        assert gumbel_sigmoid(0.3, 0.7, 0.5) == pytest.approx(
            0.9084284688124459, abs=1e-12
        )

    def test_empirical_mean_matches_sigmoid(self):
        # for small t, the fraction of draws above 1/2 estimates sigmoid(z)
        rng = np.random.default_rng(123)
        draws = rng.uniform(1e-12, 1 - 1e-12, size=100_000)
        for z in (-1.5, -0.3, 0.0, 0.7, 2.1):
            lam = gumbel_sigmoid(z, draws, 0.1)
            assert abs((lam > 0.5).mean() - expit(z)) <= 0.01

    def test_monotone_in_logit_and_draw(self):
        zs = np.linspace(-3, 3, 25)
        lam = gumbel_sigmoid(zs, 0.4, 0.7)
        assert np.all(np.diff(lam) > 0)
        ms = np.linspace(0.01, 0.99, 25)
        lam = gumbel_sigmoid(0.2, ms, 0.7)
        assert np.all(np.diff(lam) > 0)


class TestMixNoise:
    def test_open_gate_keeps_representation(self):
        h = np.arange(6.0).reshape(2, 3)
        mixed, _ = mix_noise(h, np.ones(2), np.zeros(3), np.ones(3), np.ones((2, 3)))
        assert np.array_equal(mixed, h)

    def test_closed_gate_is_noise(self):
        h = np.arange(6.0).reshape(2, 3)
        mu, sigma = np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.5, 0.5])
        draws = np.ones((2, 3))
        mixed, eps = mix_noise(h, np.zeros(2), mu, sigma, draws)
        assert np.array_equal(mixed, eps)
        assert np.array_equal(eps, mu + sigma * draws)

    def test_midpoint(self):
        h = np.array([[2.0, 0.0]])
        mu, sigma = np.array([0.0, 2.0]), np.array([1.0, 1.0])
        draws = np.zeros((1, 2))  # eps == mu
        mixed, _ = mix_noise(h, np.array([0.5]), mu, sigma, draws)
        assert np.array_equal(mixed, [[1.0, 1.0]])

    def test_deterministic_serving_path(self):
        h = np.array([[2.0, 0.0], [0.0, 2.0]])
        mu = h.mean(axis=0)
        logits = np.array([30.0, -30.0])  # effectively open / closed
        mixed = compress_deterministic(h, logits, mu)
        assert np.allclose(mixed[0], h[0])
        assert np.allclose(mixed[1], mu)


class TestKlUpperBound:
    def test_closed_gates_closed_form(self):
        # all gates 0 with batch 4: M = 4, Q = 0 -> 1/2 - ln(4)/2 per dimension
        h = np.random.default_rng(0).normal(size=(4, 3))
        mu, sigma = batch_statistics(h)
        value = kl_upper_bound(np.zeros(4), h, mu, sigma)
        assert value == pytest.approx(0.5 - 0.5 * math.log(4.0), abs=1e-12)

    def test_open_gates_hit_floor_finite(self):
        h = np.random.default_rng(1).normal(size=(3, 2))
        mu, sigma = batch_statistics(h)
        value = kl_upper_bound(np.ones(3), h, mu, sigma)
        assert np.isfinite(value)
        assert value >= -0.5 * math.log(M_FLOOR) / 2  # log term alone is large

    def test_single_row_matches_gaussian_kl_plus_half(self):
        # the bound exceeds the exact KL between the mixed and prior Gaussians
        # by exactly 1/2 when the batch is a single user, single dimension
        def closed_form_kl(lam, h, mu, sigma):
            mixed_mean = lam * h + (1 - lam) * mu
            mixed_sd = (1 - lam) * sigma
            return (
                math.log(sigma / mixed_sd)
                + (mixed_sd**2 + (mixed_mean - mu) ** 2) / (2 * sigma**2)
                - 0.5
            )

        rng = np.random.default_rng(2024)
        for _ in range(1000):
            lam = rng.uniform(0.01, 0.99)
            h = rng.normal()
            mu = rng.normal()
            sigma = rng.uniform(0.1, 2.0)
            bound = kl_upper_bound(
                np.array([lam]), np.array([[h]]), np.array([mu]), np.array([sigma])
            )
            assert abs(bound - closed_form_kl(lam, h, mu, sigma) - 0.5) <= 1e-10

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        gate = rng.uniform(0.05, 0.95, size=6)
        h = rng.normal(size=(6, 4))
        mu, sigma = batch_statistics(h)
        g_gate, g_h = kl_upper_bound_backward(gate, h, mu, sigma)
        eps = 1e-6

        def fd(array, setter):
            grad = np.zeros_like(array)
            flat = array.reshape(-1)
            for i in range(flat.size):
                saved = flat[i]
                flat[i] = saved + eps
                upper = kl_upper_bound(gate, h, mu, sigma)
                flat[i] = saved - eps
                lower = kl_upper_bound(gate, h, mu, sigma)
                flat[i] = saved
                grad.reshape(-1)[i] = (upper - lower) / (2 * eps)
            return grad

        fd_gate = fd(gate, None)
        fd_h = fd(h, None)
        for analytic, numeric in ((g_gate, fd_gate), (g_h, fd_h)):
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
            assert (np.abs(analytic - numeric) / denom).max() <= 1e-5


class TestInfoNce:
    def test_single_pair_is_zero(self):
        value = info_nce(np.array([[1.0, 2.0]]), np.array([[0.5, 1.0]]), tau=1.0).loss
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_orthonormal_pair_batch(self):
        # direct softmax oracle: each row -log(e / (e + 1))
        reps = np.array([[1.0, 0.0], [0.0, 1.0]])
        value = info_nce(reps, reps.copy(), tau=1.0).loss
        expected = -math.log(math.e / (math.e + 1.0))
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.3132616875182228, abs=1e-12)

    def test_direct_softmax_oracle_random(self):
        rng = np.random.default_rng(8)
        t_reps = rng.normal(size=(5, 3))
        mixed = rng.normal(size=(5, 3))
        tau = 0.37

        def cosine(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        losses = []
        for i in range(5):
            logits = [cosine(mixed[i], t_reps[j]) / tau for j in range(5)]
            losses.append(-math.log(math.exp(logits[i]) / sum(math.exp(l) for l in logits)))
        assert info_nce(t_reps, mixed, tau).loss == pytest.approx(np.mean(losses), abs=1e-12)

    def test_cosine_scale_invariance(self):
        rng = np.random.default_rng(9)
        t_reps = rng.normal(size=(4, 3))
        mixed = rng.normal(size=(4, 3))
        base = info_nce(t_reps, mixed, tau=0.2).loss
        scaled = info_nce(3.7 * t_reps, 0.21 * mixed, tau=0.2).loss
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_nonnegative_and_permutation_invariant(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            b = int(rng.integers(1, 8))
            t_reps = rng.normal(size=(b, 4))
            mixed = rng.normal(size=(b, 4))
            value = info_nce(t_reps, mixed, tau=0.2).loss
            assert value >= 0.0
            perm = rng.permutation(b)
            assert info_nce(t_reps[perm], mixed[perm], tau=0.2).loss == pytest.approx(
                value, abs=1e-12
            )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        t_reps = rng.normal(size=(5, 3))
        mixed = rng.normal(size=(5, 3))
        g_t, g_m = info_nce_backward(t_reps, mixed, info_nce(t_reps, mixed, tau=0.3))
        eps = 1e-6
        worst = 0.0
        for array, grad in ((t_reps, g_t), (mixed, g_m)):
            flat = array.reshape(-1)
            flat_grad = grad.reshape(-1)
            for i in range(flat.size):
                saved = flat[i]
                flat[i] = saved + eps
                upper = info_nce(t_reps, mixed, tau=0.3).loss
                flat[i] = saved - eps
                lower = info_nce(t_reps, mixed, tau=0.3).loss
                flat[i] = saved
                numeric = (upper - lower) / (2 * eps)
                denom = max(abs(numeric), abs(flat_grad[i]), 1e-8)
                worst = max(worst, abs(numeric - flat_grad[i]) / denom)
        assert worst <= 1e-5

    # rows per block: None keeps INFO_NCE_BLOCK; otherwise the block constant
    # is patched to rows * b elements
    @pytest.mark.parametrize(
        "b, rows",
        [
            pytest.param(1, None, id="1"),
            pytest.param(5, None, id="5"),
            pytest.param(100, None, id="100"),
            pytest.param(257, None, id="257"),
            pytest.param(5, 1, id="5-one-row-blocks"),
            pytest.param(257, 1, id="257-one-row-blocks"),
            pytest.param(600, 50, id="600-exact-multiple"),
            pytest.param(257, 16, id="257-partial-last-block"),
            pytest.param(599, 64, id="599-partial-last-block"),
            pytest.param(600, 600, id="600-single-block"),
        ],
    )
    def test_bit_identical_to_recomputing_oracle(self, b, rows, monkeypatch):
        if rows is not None:
            monkeypatch.setattr(compression, "INFO_NCE_BLOCK", rows * b)
        rng = np.random.default_rng(b)
        t_reps = rng.normal(size=(b, 6))
        mixed = rng.normal(size=(b, 6))
        if b > 1:
            mixed[b // 2] = 0.0  # a row at the norm floor
        forward = info_nce(t_reps, mixed, tau=0.2)
        assert forward.loss == _oracle_info_nce(t_reps, mixed, tau=0.2)
        g_t, g_m = info_nce_backward(t_reps, mixed, forward)
        o_t, o_m = _oracle_info_nce_backward(t_reps, mixed, tau=0.2)
        assert np.array_equal(g_t, o_t)
        assert np.array_equal(g_m, o_m)

    # rows per block: None keeps INFO_NCE_BLOCK; otherwise the block constant
    # is patched to rows * b elements
    @pytest.mark.parametrize(
        "b, rows",
        [
            pytest.param(1, None, id="1"),
            pytest.param(2, None, id="2"),
            pytest.param(5, None, id="5"),
            pytest.param(100, None, id="100"),
            pytest.param(257, None, id="257"),
            pytest.param(2, 1, id="2-one-row-blocks"),
            pytest.param(5, 2, id="5-partial-last-block"),
            pytest.param(100, 10, id="100-exact-multiple"),
            pytest.param(257, 1, id="257-one-row-blocks"),
            pytest.param(257, 16, id="257-partial-last-block"),
        ],
    )
    # at 1e-3 the shifted logits reach -2000, so exp underflows to 0 and
    # through the subnormals; at 0.01 they stop at -200
    @pytest.mark.parametrize("tau", [0.2, 0.01, 1e-3])
    def test_bit_identical_to_the_two_pass_code(self, b, rows, tau, monkeypatch):
        if rows is not None:
            monkeypatch.setattr(compression, "INFO_NCE_BLOCK", rows * b)
        rng = np.random.default_rng(100 + b)
        t_reps = rng.normal(size=(b, 6))
        mixed = rng.normal(size=(b, 6))
        if b > 1:
            # rows 0 and 1 of every cosine row tie, and in row 0 they are its maximum
            t_reps[1] = t_reps[0]
            mixed[0] = t_reps[0]
        if b > 4:
            mixed[b // 2] = 0.0  # rows at the norm floor
            t_reps[b // 2 + 1] = 0.0
        if tau == 1e-3 and b > 4:
            cos = (mixed @ t_reps.T) / (_oracle_norms(mixed)[:, None] * _oracle_norms(t_reps))
            scaled = cos / tau
            assert np.any(np.exp(scaled - scaled.max(axis=1, keepdims=True)) == 0.0)
        forward = info_nce(t_reps, mixed, tau)
        reference = two_pass_info_nce.info_nce(t_reps, mixed, tau)
        assert forward.loss == reference.loss
        g_t, g_m = info_nce_backward(t_reps, mixed, forward)
        r_t, r_m = two_pass_info_nce.info_nce_backward(t_reps, mixed, reference)
        assert np.array_equal(g_t, r_t)
        assert np.array_equal(g_m, r_m)

    def test_second_backward_on_one_record_raises(self):
        rng = np.random.default_rng(14)
        t_reps = rng.normal(size=(4, 3))
        mixed = rng.normal(size=(4, 3))
        forward = info_nce(t_reps, mixed, tau=0.2)
        info_nce_backward(t_reps, mixed, forward)
        with pytest.raises(ForwardConsumedError):
            info_nce_backward(t_reps, mixed, forward)

    def test_one_batch_square_buffer_until_the_backward(self):
        b = 300
        rng = np.random.default_rng(15)
        t_reps = rng.normal(size=(b, 8))
        mixed = rng.normal(size=(b, 8))

        def square_fields(record):
            return [
                field.name
                for field in dataclasses.fields(record)
                if np.shape(getattr(record, field.name)) == (b, b)
            ]

        forward = info_nce(t_reps, mixed, tau=0.2)
        assert square_fields(forward) == ["g_dot"]
        info_nce_backward(t_reps, mixed, forward)
        assert square_fields(forward) == []
        with pytest.raises(ForwardConsumedError):
            info_nce_backward(t_reps, mixed, forward)


def test_row_block_reductions_match_whole_array():
    # the blocked InfoNCE relies on these numpy properties of C-contiguous
    # float64: an axis-0 sum adds the rows one after another from row 0, so
    # summing a carried partial sum with the next rows continues it exactly;
    # and row-wise sum, max and exp of a row block equal the same rows of
    # the whole-array call
    rng = np.random.default_rng(2025)
    for trial in range(40):
        n_rows = int(rng.integers(1, 300))
        n_cols = int(rng.integers(1, 700))
        a = rng.normal(size=(n_rows, n_cols)) * np.exp(rng.normal(size=(n_rows, n_cols)) * 4)
        sequential = np.zeros(n_cols)
        for row in a:
            sequential = sequential + row
        assert np.array_equal(a.sum(axis=0), sequential)

        rows = int(rng.integers(1, n_rows + 1))
        running = np.zeros(n_cols)
        for start in range(0, n_rows, rows):
            running = np.sum(np.vstack([running, a[start : start + rows]]), axis=0)
        assert np.array_equal(running, sequential)

        logits = rng.normal(size=(n_rows, n_cols)) * 20
        whole_sum, whole_max, whole_exp = a.sum(axis=1), a.max(axis=1), np.exp(logits)
        for start in range(0, n_rows, rows):
            block = a[start : start + rows]
            assert np.array_equal(block.sum(axis=1), whole_sum[start : start + rows])
            assert np.array_equal(block.max(axis=1), whole_max[start : start + rows])
            assert np.array_equal(
                np.exp(logits[start : start + rows]), whole_exp[start : start + rows]
            )


def _oracle_norms(x):
    return np.maximum(np.linalg.norm(x, axis=1), NORM_FLOOR)


def _oracle_info_nce(t_reps, mixed, tau):
    """The recomputing formulation: cosine matrix, shifted log-sum-exp."""
    cos = (mixed @ t_reps.T) / (_oracle_norms(mixed)[:, None] * _oracle_norms(t_reps)[None, :])
    scaled = cos / tau
    scaled -= scaled.max(axis=1, keepdims=True)
    log_denominator = np.log(np.exp(scaled).sum(axis=1))
    return float((log_denominator - np.diag(scaled)).mean())


def _oracle_info_nce_backward(t_reps, mixed, tau):
    """The recomputing backward: rebuilds the cosine matrix and the softmax."""
    b = t_reps.shape[0]
    n_m = _oracle_norms(mixed)
    n_t = _oracle_norms(t_reps)
    cos = (mixed @ t_reps.T) / (n_m[:, None] * n_t[None, :])
    scaled = cos / tau
    scaled -= scaled.max(axis=1, keepdims=True)
    exp = np.exp(scaled)
    softmax = exp / exp.sum(axis=1, keepdims=True)
    g_cos = (softmax - np.eye(b)) / (tau * b)
    inv = 1.0 / (n_m[:, None] * n_t[None, :])
    m_live = (np.linalg.norm(mixed, axis=1) > NORM_FLOOR).astype(np.float64)
    t_live = (np.linalg.norm(t_reps, axis=1) > NORM_FLOOR).astype(np.float64)
    g_mixed = (g_cos * inv) @ t_reps
    g_mixed -= ((g_cos * cos).sum(axis=1) / n_m**2 * m_live)[:, None] * mixed
    g_target = (g_cos * inv).T @ mixed
    g_target -= ((g_cos * cos).sum(axis=0) / n_t**2 * t_live)[:, None] * t_reps
    return g_target, g_mixed


class TestGateNetwork:
    def test_shapes_and_finiteness(self):
        rng = np.random.default_rng(12)
        gate = GateNetwork.initialize(dim=6, hidden=4, rng=rng)
        h = rng.normal(size=(9, 6))
        logits, hidden = gate.forward(h)
        assert logits.shape == (9,)
        assert hidden.shape == (9, 4)
        assert np.isfinite(logits).all()
        assert np.all((expit(logits) > 0) & (expit(logits) < 1))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("hidden", [0, 1, 32])
    def test_initialize_keeps_the_stream_at_every_width(self, hidden):
        # width 0 draws nothing and divides by no zero
        rng = np.random.default_rng(3)
        gate = GateNetwork.initialize(dim=6, hidden=hidden, rng=rng)
        expected = np.random.default_rng(3)
        w1 = expected.normal(0.0, 1.0 / np.sqrt(6), size=(6, hidden))
        with np.errstate(divide="ignore"):
            w2 = expected.normal(0.0, 1.0 / np.sqrt(hidden), size=hidden)
        assert np.array_equal(gate.w1, w1)
        assert np.array_equal(gate.w2, w2)
        assert rng.normal() == expected.normal()

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        gate = GateNetwork.initialize(dim=4, hidden=3, rng=rng)
        h = rng.normal(size=(5, 4))
        weights = rng.normal(size=5)

        def objective():
            logits, _ = gate.forward(h)
            return float(logits @ weights)

        logits, hidden = gate.forward(h)
        grads, g_h = gate.backward(h, hidden, weights)

        eps = 1e-6
        for name, array in (("w1", gate.w1), ("b1", gate.b1), ("w2", gate.w2)):
            flat = array.reshape(-1)
            flat_grad = grads[name].reshape(-1)
            for i in range(flat.size):
                saved = flat[i]
                flat[i] = saved + eps
                upper = objective()
                flat[i] = saved - eps
                lower = objective()
                flat[i] = saved
                numeric = (upper - lower) / (2 * eps)
                assert numeric == pytest.approx(flat_grad[i], rel=1e-5, abs=1e-8)
        # input gradient
        flat = h.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + eps
            upper = objective()
            flat[i] = saved - eps
            lower = objective()
            flat[i] = saved
            numeric = (upper - lower) / (2 * eps)
            assert numeric == pytest.approx(g_h.reshape(-1)[i], rel=1e-5, abs=1e-8)


class TestBatchStatistics:
    def test_floor_applied(self):
        h = np.ones((4, 3))  # zero variance
        mu, sigma = batch_statistics(h)
        assert np.array_equal(mu, np.ones(3))
        assert np.all(sigma == SIGMA_FLOOR)

