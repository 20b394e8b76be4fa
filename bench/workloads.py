"""The benchmark's workloads and the correctness checks run inside them.

Each workload alternates set-ups of its inputs from the seed with timed
iterations until the time budget is spent (see :func:`repeat`); the outputs
are checked at the end.  Each timed metric is the best repetition, because
on a shared host interference only ever adds time.

The program is reached only through module attributes looked up at call
time, so the wrappers that :mod:`tracing` installs are the ones called.
"""

from __future__ import annotations

import functools
import hashlib
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import crossrec.cli as cli
import crossrec.data as data
import crossrec.evaluation as evaluation
import crossrec.experiments as experiments
import crossrec.training as training

from tracing import CHECK, SETUP, TIMED, Tracer

# criteria 6/7: dataset shape and optimiser; fewer epochs than the 200 the
# criteria train, so that one run holds many fits (the per-step work is the same)
DESK_SPEC = dict(
    user_count=500, source_items=300, target_items=300, latent_dim=8,
    irrelevant_fraction=0.3, source_interactions=12, target_interactions=6,
    entity_neighbors=4,
)
DESK_CONFIG = dict(
    max_epochs=20, patience=0, learning_rate=0.1, batch_size=100,
    alphas=(0.133, 0.025, 0.076), gumbel_temperature=0.5,
    contrastive_temperature=0.5,
)
# evaluate_fit runs for ~10 ms at this shape; one iteration ranks this often
DESK_RANKINGS = 5
# a desk set-up takes ~0.1 s and runs before every fit; a mid set-up takes
# ~4 s, about as long as one train command, and runs before every other one
DESK_SETUP_EVERY = 1

MID_SHAPE = ("--users", "4000", "--source-items", "4000", "--target-items", "2000")
MID_EPOCHS = 2
MID_SETUP_EVERY = 2
MID_RANKINGS = 2
MID_FILES = ("source", "target", "kg", "map_source", "map_target")

MIN_ITERATIONS = 3
MIN_SETUPS = 3
CPUS = sorted(os.sched_getaffinity(0))
RANK_CHECK_USERS = 50


@dataclass
class Ledger:
    """Operations attempted and failed: fits, commands and checks."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, name: str, passed: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not passed:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return passed

    def run(self, name: str, operation):
        """Run one operation; any exception (NonFiniteLossError too) is a failure."""
        try:
            result = operation()
        except Exception as error:  # noqa: BLE001 - every failure is counted
            self.check(name, False, f"{type(error).__name__}: {error}")
            return None
        self.check(name, True)
        return result


@dataclass
class Outcome:
    setup_s: list[float]
    train_samples_per_s: list[float]
    rank_users_per_s: list[float]
    inputs_sha256: str
    test_ndcg10: float
    iterations: int


def fastest(values: list[float], better: str) -> float:
    """The best repetition: timings on a shared host only ever get slower."""
    if not values:
        return float("nan")
    return float(min(values) if better == "lower" else max(values))


def brute_force_rank(scores: np.ndarray, held: int, excluded) -> int:
    """1 + candidates scoring above the held item, ties going to lower indices."""
    excluded = {int(i) for i in excluded}
    held_score = float(scores[held])
    rank = 1
    for item, score in enumerate(scores.tolist()):
        if item == held or item in excluded:
            continue
        if score > held_score or (score == held_score and item < held):
            rank += 1
    return rank


def check_ranks(ledger, score_fn, users, held_items, excluded_by_user, ranks, seed) -> None:
    """Recompute a sample of the program's test ranks by brute force."""
    rng = np.random.default_rng(seed)
    sample = rng.choice(len(users), size=min(RANK_CHECK_USERS, len(users)), replace=False)
    wrong = [
        int(users[i]) for i in sample
        if brute_force_rank(score_fn(int(users[i])), int(held_items[i]),
                            excluded_by_user[int(users[i])]) != ranks[i]
    ]
    ledger.check("test ranks match a brute-force ranking", not wrong,
                 f"users {wrong[:5]} of {sample.size} sampled differ")


def check_ndcg_range(ledger, values) -> None:
    bad = [v for v in values if not 0.0 <= v <= 100.0]
    ledger.check("every NDCG lies in [0, 100]", not bad, f"out of range: {bad[:5]}")


def bundle_digest(bundle) -> str:
    """sha256 over the generated edges, entity graph and item-entity maps."""
    digest = hashlib.sha256()
    for name, array in (
        ("source", bundle.source.edges),
        ("target", bundle.target.edges),
        ("kg", bundle.kg.entity_edges),
        ("map_source", bundle.kg.item_entity_source),
        ("map_target", bundle.kg.item_entity_target),
    ):
        array = np.ascontiguousarray(array, dtype="<i8")
        digest.update(f"{name}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def files_digest(paths: list[Path]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _pin(count: int) -> None:
    """Move this process to the next allowed core, round robin.

    The host is shared: a core whose hardware sibling is busy runs up to
    1.7x slower, and which core that is changes over minutes.  Spreading the
    repetitions over every core lets the best repetition find a quiet one.
    """
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[count % len(CPUS)]})


def repeat(seconds: float, tracer: Tracer, setup_every: int, set_up, iterate) -> int:
    """Run timed iterations until ``seconds`` have passed; set up before some.

    A set-up runs before every ``setup_every``-th iteration, so set-up samples
    spread over the run instead of meeting one slow spell of the host
    together.  Either callable returns False to stop.  Returns the number of
    timed iterations.
    """
    start = time.perf_counter()
    iterations = setups = 0
    try:
        while (iterations < MIN_ITERATIONS or setups < MIN_SETUPS
               or time.perf_counter() - start < seconds):
            if iterations % setup_every == 0:
                tracer.current_phase = SETUP
                _pin(setups)
                if not set_up():
                    break
                setups += 1
            tracer.current_phase = TIMED
            _pin(iterations)
            iterations += 1
            if not iterate():
                break
    finally:
        tracer.current_phase = CHECK
        os.sched_setaffinity(0, CPUS)
    return iterations


def desk(variant: str, seed: int, seconds: float, tracer: Tracer, ledger: Ledger,
         workdir: Path) -> Outcome:
    """``experiments.run_ablation(variant)`` in memory at the criteria-6/7 shape."""
    spec = data.SynthSpec(**DESK_SPEC, seed=seed)
    config = training.TrainConfig(**DESK_CONFIG, seed=seed)
    setup_s, digests, train_rate, rank_rate, ndcg, aggregates = [], [], [], [], [], []
    bundle = split = result = None

    def set_up() -> bool:
        nonlocal bundle, split
        began = time.perf_counter()
        bundle, _ = data.generate_synthetic(spec)
        split = evaluation.split_leave_one_out(bundle, seed)
        setup_s.append(time.perf_counter() - began)
        digests.append(bundle_digest(bundle))
        return True

    def iterate() -> bool:
        nonlocal result
        result = ledger.run(
            f"fit {variant}",
            lambda: experiments.run_ablation(variant, config, bundle, split, ks=(10,)),
        )
        if result is None:
            return False
        for _ in range(DESK_RANKINGS - 1):
            experiments.evaluate_fit(result.fit_result, split, bundle, result.config, (10,))
        users = split.users.size
        epochs = len(result.fit_result.log)
        train_rate.append(epochs * users / tracer.durations("training.fit")[-1])
        rank_rate.append(DESK_RANKINGS * users
                         / tracer.durations("experiments.evaluate_fit")[-DESK_RANKINGS:].sum())
        ndcg.append(result.metric("ndcg", 10))
        aggregates.extend(result.aggregates.values())
        return True

    iterations = repeat(seconds, tracer, DESK_SETUP_EVERY, set_up, iterate)
    ledger.check("set-ups from one seed give identical inputs", len(set(digests)) == 1)
    if result is not None:
        ledger.check("same-seed fits give identical test NDCG@10", len(set(ndcg)) == 1,
                     f"values {sorted(set(ndcg))[:5]}")
        check_ndcg_range(ledger, aggregates)
        score_fn = training.build_scorer(result.fit_result.params, result.fit_result.graphs,
                                         result.config)
        check_ranks(ledger, score_fn, split.users, split.test_items,
                    split.train_target_items_by_user(bundle.user_count),
                    [r.rank for r in result.per_user], seed)
    return Outcome(setup_s, train_rate, rank_rate, digests[0],
                   ndcg[0] if ndcg else float("nan"), iterations)


def _parse_metrics(path: Path) -> dict[tuple[str, int], float]:
    values = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        metric, k, value = line.split("\t")
        values[(metric, int(k))] = float(value)
    if ("ndcg", 10) not in values:
        raise ValueError(f"{path} has no ndcg@10 line")
    return values


def mid_cli(seed: int, seconds: float, tracer: Tracer, ledger: Ledger,
            workdir: Path) -> Outcome:
    """``gen-synth`` -> ``train`` -> ``evaluate`` through ``crossrec.cli.main``."""
    data_dir, run_dir, eval_dir = workdir / "data", workdir / "run", workdir / "eval"
    files = [data_dir / f"{name}.tsv" for name in MID_FILES]
    file_flags = [arg for name, path in zip(MID_FILES, files)
                  for arg in (f"--{name.replace('_', '-')}", str(path))]

    def command(name: str, argv: list[str]) -> float | None:
        """Run one CLI command; its wall time, or None when it failed."""
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as error:  # noqa: BLE001 - a traceback is a failed command
            code = f"{type(error).__name__}: {error}"
        elapsed = time.perf_counter() - start
        return elapsed if ledger.check(f"{name} exits 0", code == 0, f"exit {code}") else None

    seed_flags = ["--seed", str(seed)]
    setup_s, digests, train_s, epochs, rank_s, checkpoints, metric_files = ([] for _ in range(7))

    def set_up() -> bool:
        elapsed = command("gen-synth", ["gen-synth", *MID_SHAPE, *seed_flags,
                                        "--out", str(data_dir)])
        if elapsed is None:
            return False
        setup_s.append(elapsed)
        digests.append(files_digest(files))
        return True

    def iterate() -> bool:
        elapsed = command("train", ["train", *file_flags, "--epochs", str(MID_EPOCHS),
                                    "--patience", "0", *seed_flags, "--out", str(run_dir)])
        if elapsed is None:
            return False
        train_s.append(elapsed)
        log_lines = (run_dir / "training_log.tsv").read_text(encoding="utf-8").splitlines()
        epochs.append(len(log_lines) - 1)
        checkpoints.append(files_digest([run_dir / "best.ckpt"]))
        for _ in range(MID_RANKINGS):
            elapsed = command("evaluate", ["evaluate", "--checkpoint", str(run_dir / "best.ckpt"),
                                           *file_flags, *seed_flags, "--out", str(eval_dir)])
            if elapsed is None:
                return False
            rank_s.append(elapsed)
            metric_files.append((eval_dir / "metrics.tsv").read_text(encoding="utf-8"))
        return True

    iterations = repeat(seconds, tracer, MID_SETUP_EVERY, set_up, iterate)
    if not digests:
        return Outcome(setup_s, [], [], "", float("nan"), iterations)
    ledger.check("set-ups from one seed give identical inputs", len(set(digests)) == 1)
    ndcg = float("nan")
    train_rate, rank_rate = [], []
    if metric_files:
        parsed = ledger.run("metrics.tsv parses", lambda: _parse_metrics(eval_dir / "metrics.tsv"))
        ledger.check("same-seed runs give identical checkpoints and metrics",
                     len(set(checkpoints)) == 1 and len(set(metric_files)) == 1)
        ranks = [line.split("\t") for line in
                 (eval_dir / "ranks.tsv").read_text(encoding="utf-8").splitlines()[1:]]
        users = len(ranks)
        train_rate = [e * users / t for e, t in zip(epochs, train_s)]
        rank_rate = [users / t for t in rank_s]
        if parsed is not None:
            ndcg = parsed[("ndcg", 10)]
            check_ndcg_range(ledger, list(parsed.values()))
        _check_cli_ranks(ledger, data.DataPaths(*files), run_dir / "best.ckpt", ranks, seed)
    return Outcome(setup_s, train_rate, rank_rate, digests[0], ndcg, iterations)


def _check_cli_ranks(ledger, paths, checkpoint: Path, ranks, seed: int) -> None:
    """Score the test holdout from the checkpoint and brute-force the ranks."""
    params, meta = training.load_checkpoint(checkpoint)
    stored = meta["config"]
    config = training.TrainConfig(**{**stored, "alphas": tuple(stored["alphas"])})
    bundle, _ = data.load_bundle(paths)
    split = evaluation.split_leave_one_out(bundle, seed)
    graphs = training.DomainGraphs.from_training_edges(
        bundle, split.train_source, split.train_target,
        use_kg=config.use_kg and config.model == training.CROSS,
        include_source=config.model == training.CROSS,
    )
    index = {user_id: i for i, user_id in enumerate(bundle.user_ids)}
    users = np.asarray([index[user_id] for user_id, _ in ranks])
    if not np.array_equal(users, split.users):
        ledger.check("ranks.tsv lists the split's users in order", False)
        return
    check_ranks(ledger, training.build_scorer(params, graphs, config), split.users,
                split.test_items, split.train_target_items_by_user(bundle.user_count),
                [int(rank) for _, rank in ranks], seed)


# name -> (run function, layers the traced run must see called)
WORKLOADS = {
    "desk-full": (
        functools.partial(desk, "full"),
        ("data", "graph", "encoder", "compression", "transfer", "training",
         "evaluation", "experiments"),
    ),
    "desk-target-only": (
        functools.partial(desk, "target-only"),
        ("data", "graph", "encoder", "transfer", "training", "evaluation", "experiments"),
    ),
    "mid-cli": (
        mid_cli,
        ("data", "graph", "encoder", "compression", "transfer", "training",
         "evaluation", "cli"),
    ),
}
