"""Command-line entry point for reproducible experiment runs.

Subcommands: ``train``, ``evaluate``, ``gen-synth``, ``inject-noise``,
``ablate``.  Every run resolves its configuration from built-in defaults,
then an optional ``key = value`` config file, then explicit flags (highest
precedence), writes a manifest with input digests before doing any work, and
finalizes it on exit.  All outputs are written atomically (write-then-rename)
under the ``--out`` directory, and identical inputs plus an identical seed
reproduce byte-identical outputs apart from the manifest's timestamps.

The leave-one-out split is derived from the seed, so ``evaluate`` must be
given the same seed (or config) as the ``train`` run it scores.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import sys
import tempfile
import time
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    DataPaths,
    SynthSpec,
    generate_synthetic,
    load_bundle,
    load_interactions,
    save_bundle,
    write_flags,
)
from .evaluation import inject_source_noise, split_leave_one_out
from .experiments import VARIANTS, run_ablation
from .graph import SOURCE
from .training import (
    DomainGraphs,
    NonFiniteLossError,
    TrainConfig,
    fit,
    load_checkpoint,
    save_checkpoint,
    build_scorer,
)
from .evaluation import evaluate_ranking

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISSING_FILE = 2

# TrainConfig fields settable by flag or config file; ``alphas`` is set as
# alpha1..alpha3 and ``hop_radius`` goes to load_bundle
_TRAIN_FIELDS = (
    "embedding_dim", "batch_size", "max_epochs", "learning_rate", "layers", "gate_hidden",
    "gumbel_temperature", "contrastive_temperature", "patience", "prediction_loss",
    "weight_decay", "init_std", "seed",
)
_TRAIN_DEFAULTS = {
    **{name: getattr(TrainConfig(), name) for name in _TRAIN_FIELDS},
    **{f"alpha{i}": alpha for i, alpha in enumerate(TrainConfig().alphas, 1)},
    "hop_radius": inspect.signature(load_bundle).parameters["hop_radius"].default,
}
_CONFIG_FIELDS = {key: type(value) for key, value in _TRAIN_DEFAULTS.items()}

# gen-synth flag/config name -> SynthSpec field
_SYNTH_NAMES = {
    "users": "user_count", "source_items": "source_items", "target_items": "target_items",
    "latent_dim": "latent_dim", "entity_clusters": "entity_clusters",
    "entity_neighbors": "entity_neighbors", "source_interactions": "source_interactions",
    "target_interactions": "target_interactions", "rho": "irrelevant_fraction", "seed": "seed",
}
_SYNTH_DEFAULTS = {key: getattr(SynthSpec(), name) for key, name in _SYNTH_NAMES.items()}
_SYNTH_FIELDS = {key: type(value) for key, value in _SYNTH_DEFAULTS.items()}


def atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def parse_config_file(path: Path) -> dict[str, str]:
    """Parse plain ``key = value`` lines; ``#`` starts a comment."""
    values: dict[str, str] = {}
    for line_no, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = value
    return values


class Manifest:
    """Run manifest: resolved config, input digests, outputs, timings."""

    def __init__(self, out_dir: Path, command: str, resolved: dict):
        self.path = Path(out_dir) / "manifest.json"
        self.payload = {
            "tool": f"crossrec {__version__}",
            "command": command,
            "config": resolved,
            "inputs": {},
            "outputs": [],
            "started_at": datetime.now(timezone.utc).isoformat(),
            "finished_at": None,
            "duration_seconds": None,
        }
        self._t0 = time.perf_counter()

    def record_inputs(self, paths: list[Path]) -> None:
        self.payload["inputs"] = {str(p): sha256_file(p) for p in paths}

    def record_output(self, path: Path) -> None:
        name = str(path)
        if name not in self.payload["outputs"]:
            self.payload["outputs"].append(name)

    def write(self) -> None:
        atomic_write_text(self.path, json.dumps(self.payload, indent=2, sort_keys=True) + "\n")

    def finalize(self) -> None:
        self.payload["finished_at"] = datetime.now(timezone.utc).isoformat()
        self.payload["duration_seconds"] = round(time.perf_counter() - self._t0, 3)
        self.write()


def _resolve(args: argparse.Namespace, parser_defaults: dict) -> dict:
    """Merge defaults, config file, and explicit flags (flags win)."""
    resolved = dict(parser_defaults)
    if getattr(args, "config", None):
        config_path = Path(args.config)
        if not config_path.exists():
            raise FileNotFoundError(config_path)
        for key, raw in parse_config_file(config_path).items():
            if key in _CONFIG_FIELDS:
                resolved[key] = _CONFIG_FIELDS[key](raw)
            elif key in _SYNTH_FIELDS:
                resolved[key] = _SYNTH_FIELDS[key](raw)
            else:
                raise ValueError(f"unknown config key {key!r} in {config_path}")
    for key, value in vars(args).items():
        if key in resolved and value is not None:
            resolved[key] = value
    return resolved


def _train_config(resolved: dict) -> TrainConfig:
    return TrainConfig(
        alphas=(resolved["alpha1"], resolved["alpha2"], resolved["alpha3"]),
        **{name: resolved[name] for name in _TRAIN_FIELDS},
    )


def _synth_spec(resolved: dict) -> SynthSpec:
    return SynthSpec(**{name: resolved[key] for key, name in _SYNTH_NAMES.items()})


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="run seed (default 0)")
    parser.add_argument("--config", type=str, default=None, help="key = value config file")
    parser.add_argument("--out", type=str, required=True, help="output directory")


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--source", required=True, help="source-domain interactions TSV")
    parser.add_argument("--target", required=True, help="target-domain interactions TSV")
    parser.add_argument("--kg", required=True, help="entity-edge TSV")
    parser.add_argument("--map-source", required=True, dest="map_source")
    parser.add_argument("--map-target", required=True, dest="map_target")
    parser.add_argument("--hop-radius", type=int, default=None, dest="hop_radius")


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--embedding-dim", type=int, default=None, dest="embedding_dim")
    parser.add_argument("--batch-size", type=int, default=None, dest="batch_size")
    parser.add_argument("--epochs", type=int, default=None, dest="max_epochs")
    parser.add_argument("--lr", type=float, default=None, dest="learning_rate")
    parser.add_argument("--layers", type=int, default=None)
    parser.add_argument("--gate-hidden", type=int, default=None, dest="gate_hidden")
    parser.add_argument("--gumbel-t", type=float, default=None, dest="gumbel_temperature")
    parser.add_argument("--tau", type=float, default=None, dest="contrastive_temperature")
    parser.add_argument("--alpha1", type=float, default=None)
    parser.add_argument("--alpha2", type=float, default=None)
    parser.add_argument("--alpha3", type=float, default=None)
    parser.add_argument("--patience", type=int, default=None)
    parser.add_argument("--loss", choices=("bpr", "ce"), default=None, dest="prediction_loss")
    parser.add_argument("--weight-decay", type=float, default=None, dest="weight_decay")
    parser.add_argument("--init-std", type=float, default=None, dest="init_std")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossrec",
        description="Cross-domain recommendation with knowledge-bridged compression and transfer.",
    )
    parser.add_argument("--version", action="version", version=f"crossrec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write a checkpoint")
    _add_data_flags(p_train)
    _add_train_flags(p_train)
    _add_common(p_train)

    p_eval = sub.add_parser("evaluate", help="rank held-out items with a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--k", default="10,100", help="comma-separated cutoffs")
    _add_data_flags(p_eval)
    _add_common(p_eval)

    p_synth = sub.add_parser("gen-synth", help="generate a synthetic cross-domain dataset")
    p_synth.add_argument("--users", type=int, default=None)
    p_synth.add_argument("--source-items", type=int, default=None, dest="source_items")
    p_synth.add_argument("--target-items", type=int, default=None, dest="target_items")
    p_synth.add_argument("--latent-dim", type=int, default=None, dest="latent_dim")
    p_synth.add_argument("--clusters", type=int, default=None, dest="entity_clusters")
    p_synth.add_argument("--entity-neighbors", type=int, default=None, dest="entity_neighbors")
    p_synth.add_argument("--source-interactions", type=int, default=None, dest="source_interactions")
    p_synth.add_argument("--target-interactions", type=int, default=None, dest="target_interactions")
    p_synth.add_argument("--rho", type=float, default=None, help="irrelevant source-edge fraction")
    _add_common(p_synth)

    p_noise = sub.add_parser("inject-noise", help="contaminate an interactions file")
    p_noise.add_argument("--source", required=True, help="interactions TSV to contaminate")
    p_noise.add_argument("--ratio", type=float, required=True)
    _add_common(p_noise)

    p_ablate = sub.add_parser("ablate", help="train and evaluate an ablation variant")
    p_ablate.add_argument("--variant", required=True, choices=VARIANTS)
    p_ablate.add_argument("--k", default="10,100")
    _add_data_flags(p_ablate)
    _add_train_flags(p_ablate)
    _add_common(p_ablate)

    return parser


def _require_files(paths: list[Path]) -> None:
    for path in paths:
        if not Path(path).exists():
            raise FileNotFoundError(path)


def _data_paths(args: argparse.Namespace) -> DataPaths:
    return DataPaths(
        source=Path(args.source),
        target=Path(args.target),
        kg=Path(args.kg),
        map_source=Path(args.map_source),
        map_target=Path(args.map_target),
    )


def _metric_lines(aggregates: dict, variant: str | None = None) -> str:
    lines = []
    for (metric, k), value in sorted(aggregates.items()):
        prefix = f"{variant}\t" if variant else ""
        lines.append(f"{prefix}{metric}\t{k}\t{value:.4f}")
    return "\n".join(lines) + "\n"


def _log_lines(log) -> str:
    header = "epoch\tpred_target\tpred_source\tkl\tcontrastive\ttotal\tval_ndcg100"
    rows = [header]
    for record in log:
        losses = record.losses
        rows.append(
            f"{record.epoch}\t{losses.pred_target:.10g}\t{losses.pred_source:.10g}"
            f"\t{losses.kl:.10g}\t{losses.contrastive:.10g}\t{losses.total:.10g}"
            f"\t{record.validation_metric:.10g}"
        )
    return "\n".join(rows) + "\n"


def _ranks_lines(per_user, user_ids) -> str:
    rows = ["user\trank"]
    rows.extend(f"{user_ids[r.user]}\t{r.rank}" for r in per_user)
    return "\n".join(rows) + "\n"


def cmd_train(args: argparse.Namespace) -> int:
    resolved = _resolve(args, _TRAIN_DEFAULTS)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = _data_paths(args)
    _require_files(paths.all())
    manifest = Manifest(out_dir, "train", resolved)
    manifest.record_inputs(paths.all())
    manifest.write()

    config = _train_config(resolved)
    bundle, report = load_bundle(paths, hop_radius=resolved["hop_radius"])
    if report.malformed:
        print(f"warning: {len(report.malformed)} malformed lines skipped", file=sys.stderr)
    split = split_leave_one_out(bundle, config.seed)
    result = fit(config, bundle, split)

    checkpoint = out_dir / "best.ckpt"
    meta = {
        "config": {k: (list(v) if isinstance(v, tuple) else v) for k, v in asdict(config).items()},
        "best_epoch": result.best_epoch,
        "best_validation_ndcg": result.best_validation,
    }
    tmp = out_dir / ".best.ckpt.tmp"
    save_checkpoint(tmp, result.params, meta)
    os.replace(tmp, checkpoint)
    manifest.record_output(checkpoint)

    log_path = out_dir / "training_log.tsv"
    atomic_write_text(log_path, _log_lines(result.log))
    manifest.record_output(log_path)

    id_paths = save_bundle(bundle, out_dir / "data")
    for path in id_paths.values():
        manifest.record_output(path)

    manifest.finalize()
    print(
        f"trained {len(result.log)} epochs; best epoch {result.best_epoch} "
        f"(validation NDCG@100 = {result.best_validation:.4f}); checkpoint at {checkpoint}"
    )
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    resolved = _resolve(args, _TRAIN_DEFAULTS)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = _data_paths(args)
    _require_files(paths.all() + [Path(args.checkpoint)])
    manifest = Manifest(out_dir, "evaluate", resolved)
    manifest.record_inputs(paths.all() + [Path(args.checkpoint)])
    manifest.write()

    ks = tuple(int(k) for k in str(args.k).split(","))
    params, meta = load_checkpoint(args.checkpoint)
    stored = meta.get("config", {})
    config = _train_config(resolved)
    if stored:
        config = replace(
            config,
            embedding_dim=stored.get("embedding_dim", config.embedding_dim),
            layers=stored.get("layers", config.layers),
            gate_hidden=stored.get("gate_hidden", config.gate_hidden),
            use_kg=stored.get("use_kg", config.use_kg),
            model=stored.get("model", config.model),
            seed=stored.get("seed", config.seed) if args.seed is None else config.seed,
        )

    bundle, _ = load_bundle(paths, hop_radius=resolved["hop_radius"])
    split = split_leave_one_out(bundle, config.seed)
    graphs = DomainGraphs.for_config(config, bundle, split)
    score_fn = build_scorer(params, graphs, config)
    excluded = split.train_target_items_by_user(bundle.user_count)
    per_user, aggregates = evaluate_ranking(
        score_fn, split.users, split.test_items, excluded, ks
    )

    metrics_path = out_dir / "metrics.tsv"
    atomic_write_text(metrics_path, _metric_lines(aggregates))
    manifest.record_output(metrics_path)
    ranks_path = out_dir / "ranks.tsv"
    atomic_write_text(ranks_path, _ranks_lines(per_user, bundle.user_ids))
    manifest.record_output(ranks_path)
    manifest.finalize()
    for (metric, k), value in sorted(aggregates.items()):
        print(f"{metric}@{k}: {value:.4f}")
    return EXIT_OK


def cmd_gen_synth(args: argparse.Namespace) -> int:
    resolved = _resolve(args, _SYNTH_DEFAULTS)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(out_dir, "gen-synth", resolved)
    manifest.write()

    spec = _synth_spec(resolved)
    bundle, flags = generate_synthetic(spec)
    written = save_bundle(bundle, out_dir)
    flags_path = out_dir / "flags.tsv"
    write_flags(flags_path, bundle, flags)
    written["flags"] = flags_path
    for path in written.values():
        manifest.record_output(path)
    manifest.finalize()
    print(
        f"wrote synthetic dataset ({spec.user_count} users, "
        f"{spec.source_items}+{spec.target_items} items, "
        f"{int(flags.sum())} irrelevant source edges) to {out_dir}"
    )
    return EXIT_OK


def cmd_inject_noise(args: argparse.Namespace) -> int:
    resolved = _resolve(args, {"seed": 0, "ratio": args.ratio})
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    source_path = Path(args.source)
    _require_files([source_path])
    manifest = Manifest(out_dir, "inject-noise", resolved)
    manifest.record_inputs([source_path])
    manifest.write()

    graph, user_ids, item_ids = load_interactions(source_path, SOURCE)
    rng = np.random.default_rng(resolved["seed"])
    noisy, added = inject_source_noise(graph, args.ratio, rng)
    out_path = out_dir / "noisy_source.tsv"
    header = (
        f"noise-injected: ratio={args.ratio} seed={resolved['seed']} "
        f"base_edges={graph.edge_count} added={added.shape[0]} "
        f"source_sha256={sha256_file(source_path)}"
    )
    lines = [f"# {header}"]
    lines.extend(f"{user_ids[u]}\t{item_ids[i]}" for u, i in noisy.edges)
    atomic_write_text(out_path, "\n".join(lines) + "\n")
    manifest.record_output(out_path)
    manifest.finalize()
    print(f"added {added.shape[0]} noise edges -> {out_path}")
    return EXIT_OK


def cmd_ablate(args: argparse.Namespace) -> int:
    resolved = _resolve(args, _TRAIN_DEFAULTS)
    resolved["variant"] = args.variant
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = _data_paths(args)
    _require_files(paths.all())
    manifest = Manifest(out_dir, "ablate", resolved)
    manifest.record_inputs(paths.all())
    manifest.write()

    ks = tuple(int(k) for k in str(args.k).split(","))
    config = _train_config(resolved)
    bundle, _ = load_bundle(paths, hop_radius=resolved["hop_radius"])
    split = split_leave_one_out(bundle, config.seed)
    result = run_ablation(args.variant, config, bundle, split, ks)

    metrics_path = out_dir / "metrics.tsv"
    atomic_write_text(metrics_path, _metric_lines(result.aggregates, variant=args.variant))
    manifest.record_output(metrics_path)
    log_path = out_dir / "training_log.tsv"
    atomic_write_text(log_path, _log_lines(result.fit_result.log))
    manifest.record_output(log_path)
    manifest.finalize()
    for (metric, k), value in sorted(result.aggregates.items()):
        print(f"{args.variant} {metric}@{k}: {value:.4f}")
    return EXIT_OK


_HANDLERS = {
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "gen-synth": cmd_gen_synth,
    "inject-noise": cmd_inject_noise,
    "ablate": cmd_ablate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        return handler(args)
    except FileNotFoundError as error:
        missing = error.filename if error.filename else str(error)
        print(f"error: missing file: {missing}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except (ValueError, OSError, NonFiniteLossError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
