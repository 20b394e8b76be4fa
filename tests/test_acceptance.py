"""Acceptance suite: one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria 6 and 7 train
25 small models, one worker process per allowed CPU, and take a minute or
more; everything else is fast.
"""

import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

from crossrec.compression import gumbel_sigmoid, kl_upper_bound
from crossrec.data import DataPaths, SynthSpec, generate_synthetic, load_bundle
from crossrec.encoder import propagate
from crossrec.evaluation import ndcg_gains, rank_of_held_out, split_leave_one_out
from crossrec.experiments import contaminate_split, run_ablation
from crossrec.graph import (
    InteractionGraph,
    KnowledgeLinkage,
    assemble_adjacency,
    normalize_symmetric,
)
from crossrec.training import (
    Batch,
    DomainGraphs,
    StepDraws,
    TrainConfig,
    init_parameters,
)

from gradcheck import gradient_check
from metric_oracle import metrics_at

# configuration of the desk-scale benchmark used by criteria 6 and 7; the
# dataset shape (500 users, 300+300 items, k=8, rho=0.3) is fixed by the
# criteria, the optimizer settings are calibrated for this scale
BENCHMARK_SEEDS = (1, 2, 3, 4, 5)
BENCHMARK_SPEC = SynthSpec(
    user_count=500, source_items=300, target_items=300, latent_dim=8,
    irrelevant_fraction=0.3, source_interactions=12, target_interactions=6,
    entity_neighbors=4,
)
BENCHMARK_CONFIG = TrainConfig(
    max_epochs=200, patience=0, learning_rate=0.1, batch_size=100,
    alphas=(0.133, 0.025, 0.076), gumbel_temperature=0.5,
    contrastive_temperature=0.5,
)
NOISE_RATIOS = (0.05, 0.10, 0.15, 0.20)


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance] {criterion}: {status}{suffix}")
    assert passed, f"{criterion} failed{suffix}"


def random_training_instance(rng):
    """A random small two-domain instance: <=16 users, d=8, <=100 nodes."""
    n_users = int(rng.integers(4, 17))
    n_items_s = int(rng.integers(5, 21))
    n_items_t = int(rng.integers(5, 21))
    n_entities = int(rng.integers(4, 13))

    def interactions(tag, n_items):
        edges = set()
        for user in range(n_users):
            count = int(rng.integers(2, min(6, n_items)))
            for item in rng.choice(n_items, size=count, replace=False):
                edges.add((user, int(item)))
        return InteractionGraph(tag, n_users, n_items, sorted(edges))

    source = interactions("source", n_items_s)
    target = interactions("target", n_items_t)
    entity_edges = [
        (a, b)
        for a in range(n_entities)
        for b in range(n_entities)
        if a != b and rng.random() < 0.25
    ]
    kg = KnowledgeLinkage(
        n_entities,
        np.asarray(entity_edges, dtype=np.int64).reshape(len(entity_edges), 2),
        [(i, int(rng.integers(n_entities))) for i in range(n_items_s)],
        [(i, int(rng.integers(n_entities))) for i in range(n_items_t)],
    )
    from crossrec.data import DatasetBundle

    bundle = DatasetBundle(
        source, target, kg,
        [f"u{i}" for i in range(n_users)],
        [f"s{i}" for i in range(n_items_s)],
        [f"t{i}" for i in range(n_items_t)],
        [f"e{i}" for i in range(n_entities)],
    )
    total_nodes = n_users + max(n_items_s, n_items_t) + n_entities
    assert total_nodes <= 100

    def batch_for(bundle, rng):
        users = np.arange(n_users)

        def sample(graph):
            owned = [graph.edges[graph.edges[:, 0] == u, 1] for u in users]
            pos = np.array([o[rng.integers(o.size)] for o in owned])
            neg = []
            for o in owned:
                taken = set(o.tolist())
                candidate = int(rng.integers(graph.item_count))
                while candidate in taken:
                    candidate = int(rng.integers(graph.item_count))
                neg.append(candidate)
            return pos, np.asarray(neg)

        return Batch(users, {"source": sample(bundle.source), "target": sample(bundle.target)})

    return bundle, batch_for(bundle, rng)


class TestCriterion1GradientExactness:
    def test_full_objective_vs_central_differences(self):
        rng = np.random.default_rng(20240)
        config = TrainConfig(embedding_dim=8, gate_hidden=8, layers=2, seed=0)
        start = time.perf_counter()
        worst = 0.0
        checked = 0
        attempts = 0
        while checked < 100 and attempts < 130:
            attempts += 1
            bundle, batch = random_training_instance(rng)
            trial_config = replace(config, seed=int(rng.integers(1 << 31)))
            graphs = DomainGraphs.from_training_edges(
                bundle, bundle.source.edges, bundle.target.edges, use_kg=True
            )
            params = init_parameters(trial_config, bundle)
            draws = StepDraws.for_step(trial_config.seed, 1, 0, batch.users.size, 8)
            # the fourth-order stencil keeps curvature error negligible at an
            # epsilon large enough to stay clear of float64 cancellation noise
            result = gradient_check(
                params, graphs, batch, draws, trial_config, epsilon=1e-4, order=4
            )
            if result.non_smooth:
                continue  # clamp boundaries excluded by the criterion
            checked += 1
            worst = max(worst, result.max_relative_error)
        elapsed = time.perf_counter() - start
        report(
            "criterion 1 (gradient exactness, 100 instances)",
            checked == 100 and worst <= 1e-4 and elapsed < 60.0,
            f"max rel err {worst:.2e}, {elapsed:.1f}s",
        )


class TestCriterion2EncoderOracle:
    def test_sparse_propagation_matches_dense_powers(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(50):
            n_u = int(rng.integers(2, 15))
            n_i = int(rng.integers(2, 20))
            n_e = int(rng.integers(1, 15))
            if n_u + n_i + n_e > 50:
                continue
            pairs = [
                (u, i) for u in range(n_u) for i in range(n_i) if rng.random() < 0.3
            ]
            graph = InteractionGraph("source", n_u, n_i, pairs or [(0, 0)])
            links = [(i, int(rng.integers(n_e))) for i in range(n_i) if rng.random() < 0.6]
            ee = [
                (a, b) for a in range(n_e) for b in range(n_e)
                if a != b and rng.random() < 0.25
            ]
            kg = KnowledgeLinkage(
                n_e,
                np.asarray(ee, dtype=np.int64).reshape(len(ee), 2),
                np.asarray(links, dtype=np.int64).reshape(len(links), 2),
                np.zeros((0, 2)),
            )
            raw = assemble_adjacency(graph, kg)
            normalized = normalize_symmetric(raw)
            dense = raw.matrix.toarray()
            degrees = dense.sum(axis=1)
            inv = np.where(degrees > 0, 1.0 / np.sqrt(np.maximum(degrees, 1)), 0.0)
            operator = np.diag(inv) @ dense @ np.diag(inv)
            e0 = rng.normal(size=(raw.node_count, 8))
            for layers in (0, 1, 2, 3):
                state = propagate(normalized, e0, layers)
                expected = np.linalg.matrix_power(operator, layers) @ e0
                worst = max(worst, float(np.abs(state.final - expected[: n_u + n_i]).max()))
        report("criterion 2 (encoder vs dense oracle)", worst <= 1e-10, f"max abs err {worst:.2e}")


class TestCriterion3KlBoundRelation:
    def test_bound_minus_gaussian_kl_is_half(self):
        def gaussian_kl(lam, h, mu, sigma):
            mixed_mean = lam * h + (1 - lam) * mu
            mixed_sd = (1 - lam) * sigma
            return (
                math.log(sigma / mixed_sd)
                + (mixed_sd**2 + (mixed_mean - mu) ** 2) / (2 * sigma**2)
                - 0.5
            )

        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(1000):
            lam = rng.uniform(0.01, 0.99)
            h = rng.normal()
            mu = rng.normal()
            sigma = rng.uniform(0.1, 2.0)
            bound = kl_upper_bound(
                np.array([lam]), np.array([[h]]), np.array([mu]), np.array([sigma])
            )
            worst = max(worst, abs(bound - gaussian_kl(lam, h, mu, sigma) - 0.5))
        report("criterion 3 (bound = Gaussian KL + 1/2 at B=1)", worst <= 1e-10, f"max err {worst:.2e}")


class TestCriterion4GumbelDistribution:
    def test_open_fraction_matches_sigmoid(self):
        rng = np.random.default_rng(4)
        logits = rng.uniform(-2.5, 2.5, size=20)
        worst = 0.0
        for z in logits:
            draws = rng.uniform(1e-12, 1 - 1e-12, size=100_000)
            gates = gumbel_sigmoid(float(z), draws, t=0.05)
            worst = max(worst, abs(float((gates > 0.5).mean()) - float(expit(z))))
        report("criterion 4 (gumbel-sigmoid distribution)", worst <= 0.01, f"max dev {worst:.4f}")


class TestCriterion5MetricIdentities:
    def test_metrics_match_brute_force_ranking(self):
        rng = np.random.default_rng(17)
        mismatches = 0
        for _ in range(1000):
            n = int(rng.integers(5, 200))
            scores = np.round(rng.normal(size=n), 2)
            excluded = rng.choice(n, size=int(rng.integers(0, n // 3 + 1)), replace=False)
            candidates = np.setdiff1d(np.arange(n), excluded)
            held = int(rng.choice(candidates))

            order = sorted(
                (i for i in candidates), key=lambda i: (-scores[i], i)
            )
            oracle_rank = order.index(held) + 1
            rank = rank_of_held_out(scores, held, excluded)
            values = metrics_at(rank, (10, 100))
            for k in (10, 100):
                hit = 1.0 if oracle_rank <= k else 0.0
                ndcg = 1.0 / math.log2(oracle_rank + 1) if oracle_rank <= k else 0.0
                mrr = 1.0 / oracle_rank if oracle_rank <= k else 0.0
                if (
                    rank != oracle_rank
                    or values[("hit", k)] != hit
                    or values[("ndcg", k)] != ndcg
                    or values[("mrr", k)] != mrr
                ):
                    mismatches += 1
        report("criterion 5 (metric identities vs sort oracle)", mismatches == 0,
               f"{mismatches} mismatches in 1000 trials")


def benchmark_fit(job):
    """NDCG@10, seconds and per-user test NDCG@10 (percent, in split order) of
    one criteria-6/7 fit; the data is rebuilt from the seed."""
    seed, variant, contaminated = job
    bundle, _ = generate_synthetic(replace(BENCHMARK_SPEC, seed=seed))
    split = split_leave_one_out(bundle, seed)
    if contaminated:
        split = contaminate_split(
            bundle, split, NOISE_RATIOS[-1],
            np.random.default_rng(np.random.SeedSequence([seed, 200])),
        )
    start = time.perf_counter()
    outcome = run_ablation(variant, replace(BENCHMARK_CONFIG, seed=seed), bundle, split, ks=(10,))
    duration = time.perf_counter() - start
    gains = np.array([0.0, *ndcg_gains(10)])
    ranks = np.array([result.rank for result in outcome.per_user])
    per_user = 100.0 * gains[np.where(ranks <= 10, ranks, 0)]
    return outcome.metric("ndcg", 10), duration, per_user


@pytest.fixture(scope="module")
def benchmark_runs():
    """Clean and contaminated runs shared by criteria 6 and 7, and each seed's
    paired per-user test NDCG@10 difference ``full - no-kl`` on clean data.

    The 25 fits are independent, so they run on one worker process per
    allowed CPU, target-only (the shortest) last; on one CPU they run here.
    Each worker is a fresh interpreter with one BLAS thread, so the workers
    do not contend for the cores.
    """
    clean = {variant: [] for variant in ("full", "no-kl", "target-only")}
    noisy = {variant: [] for variant in ("full", "no-kl")}
    jobs = [(seed, variant, False) for seed in BENCHMARK_SEEDS for variant in clean]
    jobs += [(seed, variant, True) for seed in BENCHMARK_SEEDS for variant in noisy]
    jobs.sort(key=lambda job: job[1] == "target-only")
    workers = min(len(os.sched_getaffinity(0)), len(jobs))
    if workers > 1:
        with pytest.MonkeyPatch.context() as patch:
            for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                patch.setenv(variable, "1")
            spawn = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(workers, mp_context=spawn) as pool:
                results = dict(zip(jobs, pool.map(benchmark_fit, jobs)))
    else:
        results = {job: benchmark_fit(job) for job in jobs}
    for seed in BENCHMARK_SEEDS:
        for runs, contaminated in ((clean, False), (noisy, True)):
            for variant in runs:
                runs[variant].append(results[seed, variant, contaminated][0])
    durations = [duration for _, duration, _ in results.values()]
    paired = [
        results[seed, "full", False][2] - results[seed, "no-kl", False][2]
        for seed in BENCHMARK_SEEDS
    ]
    return clean, noisy, durations, paired


class TestCriterion6SyntheticGain:
    def test_full_model_beats_baseline_and_no_kl(self, benchmark_runs):
        clean, _, durations, paired = benchmark_runs
        med = {variant: float(np.median(values)) for variant, values in clean.items()}
        passed = (
            med["full"] > med["target-only"]
            and med["full"] > med["no-kl"]
            and max(durations) < 300.0
        )
        per_seed = ", ".join(
            f"seed {seed} {full:.3f}/{no_kl:.3f}/{target:.3f}"
            for seed, full, no_kl, target in zip(
                BENCHMARK_SEEDS, clean["full"], clean["no-kl"], clean["target-only"]
            )
        )
        differences = ", ".join(
            f"seed {seed} {diff.mean():+.2f} ± {diff.std(ddof=1) / math.sqrt(diff.size):.2f}"
            for seed, diff in zip(BENCHMARK_SEEDS, paired)
        )
        wins = {
            other: sum(f > o for f, o in zip(clean["full"], clean[other]))
            for other in ("no-kl", "target-only")
        }
        report(
            "criterion 6 (synthetic end-to-end gain)",
            passed,
            f"median NDCG@10: full={med['full']:.3f}, "
            f"target-only={med['target-only']:.3f}, no-kl={med['no-kl']:.3f}, "
            f"slowest run {max(durations):.0f}s; "
            f"per seed full/no-kl/target-only: {per_seed}; "
            f"full > no-kl on {wins['no-kl']} of {len(BENCHMARK_SEEDS)} seeds, "
            f"full > target-only on {wins['target-only']} of {len(BENCHMARK_SEEDS)}; "
            f"per seed paired per-user full - no-kl (± standard error): {differences}",
        )


class TestCriterion7RobustnessOrdering:
    def test_full_degrades_no_more_than_no_kl(self, benchmark_runs):
        clean, noisy, *_ = benchmark_runs
        degradation = {}
        for variant in ("full", "no-kl"):
            per_seed = [
                (clean_value - noisy_value) / clean_value
                for clean_value, noisy_value in zip(clean[variant], noisy[variant])
            ]
            degradation[variant] = float(np.median(per_seed))
        passed = degradation["full"] <= degradation["no-kl"]
        report(
            "criterion 7 (robustness ordering at ratio 0.20)",
            passed,
            f"median relative degradation: full={degradation['full']:+.3f}, "
            f"no-kl={degradation['no-kl']:+.3f}",
        )


class TestCriterion8Determinism:
    def test_same_seed_same_checkpoint_bytes(self, tmp_path):
        from crossrec.cli import main

        data_dir = tmp_path / "data"
        assert main([
            "gen-synth", "--out", str(data_dir), "--users", "20",
            "--source-items", "24", "--target-items", "24",
            "--source-interactions", "8", "--target-interactions", "6",
            "--latent-dim", "4", "--clusters", "6", "--entity-neighbors", "3",
            "--seed", "5",
        ]) == 0
        flags = [
            "--source", str(data_dir / "source.tsv"),
            "--target", str(data_dir / "target.tsv"),
            "--kg", str(data_dir / "kg.tsv"),
            "--map-source", str(data_dir / "map_source.tsv"),
            "--map-target", str(data_dir / "map_target.tsv"),
            "--embedding-dim", "8", "--gate-hidden", "8", "--epochs", "5",
            "--batch-size", "16", "--lr", "0.1", "--patience", "0", "--seed", "5",
        ]
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["train", *flags, "--out", str(out)]) == 0
            outputs.append((out / "best.ckpt").read_bytes())
        report("criterion 8 (byte-identical checkpoints)", outputs[0] == outputs[1])


class TestCriterion9LoaderSanity:
    def test_reference_dataset_counts(self):
        root = os.environ.get("CROSSREC_AMAZON_DIR")
        if not root:
            print(
                "\n[acceptance] criterion 9 (loader vs reference counts): "
                "SKIP (dataset not present; set CROSSREC_AMAZON_DIR)"
            )
            pytest.skip("full dataset not available")
        paths = DataPaths(
            source=f"{root}/book_interactions.tsv",
            target=f"{root}/movie_interactions.tsv",
            kg=f"{root}/kg.tsv",
            map_source=f"{root}/map_book.tsv",
            map_target=f"{root}/map_movie.tsv",
        )
        bundle, _ = load_bundle(paths)
        passed = (
            bundle.user_count == 11_240
            and bundle.target.item_count == 16_100
            and bundle.source.item_count == 47_377
        )
        report("criterion 9 (loader vs reference counts)", passed)
