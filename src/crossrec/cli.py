"""Command-line entry point for reproducible experiment runs.

Subcommands: ``train``, ``evaluate``, ``gen-synth``, ``inject-noise``,
``ablate``.  Every run resolves its configuration from built-in defaults,
then an optional ``key = value`` config file (only the command's own keys),
then explicit flags (highest precedence), writes a manifest with input
digests before doing any work (``evaluate`` reads its checkpoint first), and
finalizes it on exit, as failed if the command raises.  Every output goes
under the ``--out`` directory through :func:`crossrec.data.write_atomic` (a
temporary file renamed into place), so each holds its previous or its
complete new content, and all get one permission mode.  Identical inputs plus an identical seed reproduce
byte-identical outputs apart from the manifest's timestamps, under the
numeric environment the manifest records.

``evaluate`` takes the model configuration from the checkpoint.  The
leave-one-out split is derived from the seed: ``--seed``, else the config
file's ``seed``, else the seed the checkpoint was trained with.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import sys
import time
from dataclasses import asdict, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy
from numpy._core import _multiarray_umath

from . import __version__
from .data import (
    DataPaths,
    LoadReport,
    SynthSpec,
    format_pairs,
    generate_synthetic,
    load_bundle,
    load_interactions,
    save_bundle,
    write_atomic,
    write_flags,
)
from .evaluation import CUTOFFS, inject_source_noise, split_leave_one_out
from .experiments import VARIANTS, evaluate_fit, run_ablation
from .training import (
    PREDICTION_LOSSES,
    VALIDATION_K,
    DomainGraphs,
    FitResult,
    NonFiniteLossError,
    TrainConfig,
    check_checkpoint,
    fit,
    load_checkpoint,
    save_checkpoint,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISSING_FILE = 2

# Flag tables: flag -> config-file key (and manifest ``config`` key).  Each
# key's default sets its flag's type; ``--seed`` (key ``seed``) is common to
# every command.  Training keys name TrainConfig fields, but alpha1..alpha3
# are the entries of ``alphas``.
_ALPHAS = ("alpha1", "alpha2", "alpha3")
_TRAIN_FLAGS = {
    "--hop-radius": "hop_radius", "--embedding-dim": "embedding_dim",
    "--batch-size": "batch_size", "--epochs": "max_epochs",
    "--lr": "learning_rate", "--layers": "layers", "--gate-hidden": "gate_hidden",
    "--gumbel-t": "gumbel_temperature", "--tau": "contrastive_temperature",
    **{f"--{key}": key for key in _ALPHAS},
    "--patience": "patience", "--loss": "prediction_loss",
    "--weight-decay": "weight_decay", "--init-std": "init_std",
}
_TRAIN_DEFAULTS = {
    **{key: getattr(TrainConfig(), key) for key in _TRAIN_FLAGS.values() if key not in _ALPHAS},
    **dict(zip(_ALPHAS, TrainConfig().alphas)),
    "seed": TrainConfig().seed,
}

# gen-synth keys name SynthSpec fields, apart from the two in _SYNTH_RENAMED
_SYNTH_FLAGS = {
    "--users": "users", "--source-items": "source_items", "--target-items": "target_items",
    "--latent-dim": "latent_dim", "--clusters": "entity_clusters",
    "--entity-neighbors": "entity_neighbors", "--source-interactions": "source_interactions",
    "--target-interactions": "target_interactions", "--rho": "rho",
}
_SYNTH_RENAMED = {"users": "user_count", "rho": "irrelevant_fraction"}
_SYNTH_DEFAULTS = {
    key: getattr(SynthSpec(), _SYNTH_RENAMED.get(key, key))
    for key in (*_SYNTH_FLAGS.values(), "seed")
}

# help text by config key or DataPaths field; the other settings have none
_HELP = {
    "source": "source-domain interactions TSV",
    "target": "target-domain interactions TSV",
    "kg": "entity-edge TSV",
    "rho": "irrelevant source-edge fraction",
}


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


def numeric_environment() -> dict:
    """numpy and scipy versions, the BLAS build, kernel and thread count numpy
    uses, and numpy's SIMD levels.

    The kernel and thread count are read through ``ctypes`` from the OpenBLAS
    numpy bundles ("unknown" and None without it).  ``simd_baseline`` lists
    the CPU features numpy was built for, and ``simd_dispatch`` the targets
    of its runtime dispatch that this CPU enables: float64 ``exp`` and
    ``log``, for one, round differently under ``X86_V3`` and ``X86_V4``.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    environment = {"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas["name"],
                   "blas_version": blas["version"], "blas_core": "unknown", "blas_threads": None,
                   "simd_baseline": list(_multiarray_umath.__cpu_baseline__),
                   "simd_dispatch": [target for target in _multiarray_umath.__cpu_dispatch__
                                     if _multiarray_umath.__cpu_features__.get(target)]}
    for library in Path(np.__file__).parent.parent.glob("numpy*libs/*openblas*"):
        try:
            openblas = ctypes.CDLL(str(library))
            openblas.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
            environment.update(blas_core=openblas.scipy_openblas_get_corename64_().decode(),
                               blas_threads=openblas.scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            pass
    return environment


class Manifest:
    """Run manifest: resolved config, numeric environment, input digests, outputs, timings.

    Creating one makes ``out_dir``, digests the inputs (``FileNotFoundError``
    if one is missing) and writes the manifest.  As a context manager it
    finalizes the manifest on leaving: ``ok``, or ``failed`` with the error.
    """

    def __init__(self, out_dir: Path, command: str, resolved: dict, inputs: list[Path] = ()):
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        self.path = out_dir / "manifest.json"
        self.payload = {
            "tool": f"crossrec {__version__}",
            "command": command,
            "config": resolved,
            "environment": numeric_environment(),
            "inputs": {},
            "outputs": [],
            "started_at": datetime.now(timezone.utc).isoformat(),
            "finished_at": None,
            "duration_seconds": None,
        }
        self._t0 = time.perf_counter()
        self.payload["inputs"] = {str(p): sha256_file(p) for p in inputs}
        self.write()

    def record_output(self, path: Path) -> None:
        name = str(path)
        if name not in self.payload["outputs"]:
            self.payload["outputs"].append(name)

    def write_output(self, path: Path, text: str) -> None:
        write_atomic(path, text)
        self.record_output(path)

    def write(self) -> None:
        text = json.dumps(self.payload, indent=2, sort_keys=True, allow_nan=False)
        write_atomic(self.path, text + "\n")

    def __enter__(self) -> "Manifest":
        return self

    def __exit__(self, kind, error, traceback) -> None:
        """Record the end of the run; a diverged one also names its epoch and step."""
        if error is None:
            self.payload["status"] = "ok"
        else:
            self.payload.update(status="failed", error=str(error))
        if isinstance(error, NonFiniteLossError):
            self.payload.update(epoch=error.epoch, step=error.step)
        self.payload["finished_at"] = datetime.now(timezone.utc).isoformat()
        self.payload["duration_seconds"] = round(time.perf_counter() - self._t0, 3)
        self.write()


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge defaults, config file (only keys of ``defaults``), and flags (flags win)."""
    resolved = dict(defaults)
    if getattr(args, "config", None):
        config_path = Path(args.config)
        if not config_path.exists():
            raise FileNotFoundError(config_path)
        for key, raw in parse_config_file(config_path).items():
            if key not in defaults:
                raise ValueError(f"unknown config key {key!r} in {config_path}")
            resolved[key] = type(defaults[key])(raw)
    for key, value in vars(args).items():
        if key in resolved and value is not None:
            resolved[key] = value
    return resolved


def _train_config(resolved: dict) -> TrainConfig:
    settings = {key: resolved[key] for key in _TRAIN_DEFAULTS if key not in _ALPHAS}
    return TrainConfig(alphas=tuple(resolved[key] for key in _ALPHAS), **settings)


def _synth_spec(resolved: dict) -> SynthSpec:
    return SynthSpec(**{_SYNTH_RENAMED.get(key, key): resolved[key] for key in _SYNTH_DEFAULTS})


def cutoffs(text: str) -> tuple[int, ...]:
    """Parse ``--k``: comma-separated positive integers (argparse reports a ValueError)."""
    ks = tuple(int(k) for k in text.split(","))
    if min(ks) < 1:
        raise ValueError(text)
    return ks


def _add_flags(parser: argparse.ArgumentParser, flags: dict, defaults: dict) -> None:
    """Add each table flag; an unset flag is None, so config file and defaults apply."""
    for flag, key in flags.items():
        kind = type(defaults[key])
        parser.add_argument(
            flag, dest=key, default=None, type=None if kind is str else kind, help=_HELP.get(key),
            choices=PREDICTION_LOSSES if key == "prediction_loss" else None,
        )


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    for entry in fields(DataPaths):
        flag = "--" + entry.name.replace("_", "-")
        parser.add_argument(flag, required=True, dest=entry.name, help=_HELP.get(entry.name))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossrec",
        description="Cross-domain recommendation with knowledge-bridged compression and transfer.",
    )
    parser.add_argument("--version", action="version", version=f"crossrec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write a checkpoint")
    _add_data_flags(p_train)
    _add_flags(p_train, _TRAIN_FLAGS, _TRAIN_DEFAULTS)

    p_eval = sub.add_parser("evaluate", help="rank held-out items with a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--k", type=cutoffs, default=CUTOFFS, help="comma-separated cutoffs")
    _add_data_flags(p_eval)

    p_synth = sub.add_parser("gen-synth", help="generate a synthetic cross-domain dataset")
    _add_flags(p_synth, _SYNTH_FLAGS, _SYNTH_DEFAULTS)

    p_noise = sub.add_parser("inject-noise", help="contaminate an interactions file")
    p_noise.add_argument("--source", required=True, help="interactions TSV to contaminate")
    p_noise.add_argument("--ratio", type=float, required=True)

    p_ablate = sub.add_parser("ablate", help="train and evaluate an ablation variant")
    p_ablate.add_argument("--variant", required=True, choices=VARIANTS)
    p_ablate.add_argument("--k", type=cutoffs, default=CUTOFFS, help="comma-separated cutoffs")
    _add_data_flags(p_ablate)
    _add_flags(p_ablate, _TRAIN_FLAGS, _TRAIN_DEFAULTS)

    for name, command in sub.choices.items():
        seed_help = "run seed (default 0)"
        if name == "evaluate":
            seed_help = "split seed (default: the checkpoint's seed)"
        command.add_argument("--seed", type=int, default=None, help=seed_help)
        command.add_argument("--config", type=str, default=None, help="key = value config file")
        command.add_argument("--out", type=str, required=True, help="output directory")
    return parser


def _data_paths(args: argparse.Namespace) -> DataPaths:
    return DataPaths(**{entry.name: Path(getattr(args, entry.name)) for entry in fields(DataPaths)})


def _load_report(report: LoadReport) -> dict:
    """Warn about skipped malformed lines; the loader's counts for the manifest's ``load_report``."""
    if report.malformed:
        print(f"warning: {len(report.malformed)} malformed lines skipped", file=sys.stderr)
    return {**asdict(report), "malformed": len(report.malformed)}


def _load_split(paths: DataPaths, config: TrainConfig, manifest: Manifest):
    """Load the dataset at ``config.hop_radius``, warning about skipped malformed
    lines, and split it by ``config.seed``.

    The manifest's ``load_report`` records what the loader and the split dropped.
    """
    bundle, report = load_bundle(paths, hop_radius=config.hop_radius)
    counts = _load_report(report)
    split = split_leave_one_out(bundle, config.seed)
    manifest.payload["load_report"] = {**counts, "excluded_users": split.excluded_users}
    return bundle, split


def _metric_lines(aggregates: dict, variant: str | None = None) -> str:
    lines = []
    for (metric, k), value in sorted(aggregates.items()):
        prefix = f"{variant}\t" if variant else ""
        lines.append(f"{prefix}{metric}\t{k}\t{value:.4f}")
    return "\n".join(lines) + "\n"


def _log_lines(log) -> str:
    header = f"epoch\tpred_target\tpred_source\tkl\tcontrastive\ttotal\tval_ndcg{VALIDATION_K}"
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
    config = _train_config(resolved)
    out_dir = Path(args.out)
    paths = _data_paths(args)
    with Manifest(out_dir, "train", resolved, paths.all()) as manifest:
        bundle, split = _load_split(paths, config, manifest)
        result = fit(config, bundle, split)
        checkpoint = out_dir / "best.ckpt"
        meta = {"config": asdict(config), "best_epoch": result.best_epoch,
                "best_validation_ndcg": result.best_validation}
        save_checkpoint(checkpoint, result.params, meta)
        manifest.record_output(checkpoint)
        log = _log_lines(result.log)
        manifest.write_output(out_dir / "training_log.tsv", log)
        id_paths = save_bundle(bundle, out_dir / "data")
        for path in id_paths.values():
            manifest.record_output(path)

    summary = "no epoch ran, so the parameters are the initial ones"
    if result.log:
        summary = (f"best epoch {result.best_epoch} "
                   f"(validation NDCG@{VALIDATION_K} = {result.best_validation:.4f})")
    print(f"trained {len(result.log)} epochs; {summary}; checkpoint at {checkpoint}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    checkpoint = Path(args.checkpoint)
    params, meta = load_checkpoint(checkpoint)
    try:
        stored = {**meta["config"], "alphas": tuple(meta["config"]["alphas"])}
        # the config file shares the training keys; only seed applies
        resolved = _resolve(args, {**_TRAIN_DEFAULTS, "seed": stored["seed"]})
        config = TrainConfig(**{**stored, "seed": resolved["seed"]})
    except (KeyError, TypeError) as error:
        raise ValueError(f"{checkpoint} has no usable training config: {error!r}") from None
    check_checkpoint(params, config)
    applied = {**stored, "seed": config.seed, "k": args.k}
    out_dir = Path(args.out)
    paths = _data_paths(args)
    with Manifest(out_dir, "evaluate", applied, paths.all() + [checkpoint]) as manifest:
        bundle, split = _load_split(paths, config, manifest)
        graphs = DomainGraphs.for_config(config, bundle, split)
        fitted = FitResult(params, 0, 0.0, [], graphs)  # evaluate_fit reads params, graphs only
        per_user, aggregates = evaluate_fit(fitted, split, bundle, config, args.k)
        manifest.write_output(out_dir / "metrics.tsv", _metric_lines(aggregates))
        manifest.write_output(out_dir / "ranks.tsv", _ranks_lines(per_user, bundle.user_ids))
    for (metric, k), value in sorted(aggregates.items()):
        print(f"{metric}@{k}: {value:.4f}")
    return EXIT_OK


def cmd_gen_synth(args: argparse.Namespace) -> int:
    resolved = _resolve(args, _SYNTH_DEFAULTS)
    spec = _synth_spec(resolved)
    out_dir = Path(args.out)
    with Manifest(out_dir, "gen-synth", resolved) as manifest:
        bundle, flags = generate_synthetic(spec)
        written = save_bundle(bundle, out_dir)
        flags_path = out_dir / "flags.tsv"
        write_flags(flags_path, bundle, flags)
        written["flags"] = flags_path
        for path in written.values():
            manifest.record_output(path)
    print(
        f"wrote synthetic dataset ({spec.user_count} users, "
        f"{spec.source_items}+{spec.target_items} items, "
        f"{int(flags.sum())} irrelevant source edges) to {out_dir}"
    )
    return EXIT_OK


def cmd_inject_noise(args: argparse.Namespace) -> int:
    resolved = {**_resolve(args, {"seed": 0}), "ratio": args.ratio}
    if not 0.0 <= args.ratio <= 1.0:  # before the strict-JSON manifest fails on a NaN
        raise ValueError(f"noise ratio must lie in [0, 1], got {args.ratio}")
    out_dir = Path(args.out)
    source_path = Path(args.source)
    with Manifest(out_dir, "inject-noise", resolved, [source_path]) as manifest:
        report = LoadReport()
        graph, user_ids, item_ids = load_interactions(source_path, report)
        manifest.payload["load_report"] = _load_report(report)
        rng = np.random.default_rng(resolved["seed"])
        noisy, added = inject_source_noise(graph, args.ratio, rng)
        out_path = out_dir / "noisy_source.tsv"
        header = (
            f"noise-injected: ratio={args.ratio} seed={resolved['seed']} "
            f"base_edges={graph.edge_count} added={added.shape[0]} "
            f"source_sha256={sha256_file(source_path)}"
        )
        pairs = format_pairs(noisy.edges, user_ids, item_ids)
        manifest.write_output(out_path, f"# {header}\n" + pairs)
    print(f"added {added.shape[0]} noise edges -> {out_path}")
    return EXIT_OK


def cmd_ablate(args: argparse.Namespace) -> int:
    resolved = {**_resolve(args, _TRAIN_DEFAULTS), "variant": args.variant, "k": args.k}
    config = _train_config(resolved)
    out_dir = Path(args.out)
    paths = _data_paths(args)
    with Manifest(out_dir, "ablate", resolved, paths.all()) as manifest:
        bundle, split = _load_split(paths, config, manifest)
        result = run_ablation(args.variant, config, bundle, split, args.k)
        manifest.payload["best_epoch"] = result.fit_result.best_epoch
        manifest.payload["best_validation_ndcg"] = result.fit_result.best_validation
        metrics = _metric_lines(result.aggregates, args.variant)
        manifest.write_output(out_dir / "metrics.tsv", metrics)
        log = _log_lines(result.fit_result.log)
        manifest.write_output(out_dir / "training_log.tsv", log)
    if not result.fit_result.log:
        print(f"{args.variant}: no epoch ran, so the metrics are of the initial parameters")
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
