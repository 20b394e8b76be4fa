"""Command-line contract: files produced, exit codes, idempotency."""

import argparse
import json
import os
import shutil
import struct
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
import scipy
from numpy._core import _multiarray_umath

from crossrec import cli
from crossrec.cli import (
    _SYNTH_DEFAULTS,
    _TRAIN_DEFAULTS,
    _resolve,
    _synth_spec,
    _train_config,
    build_parser,
    main,
    parse_config_file,
)
from crossrec.data import (
    DataPaths,
    DatasetBundle,
    LoadReport,
    SynthSpec,
    format_pairs,
    generate_synthetic,
    load_bundle,
    save_bundle,
    write_flags,
)
from crossrec.evaluation import RankingResult, split_leave_one_out
from crossrec.experiments import evaluate_fit
from crossrec.graph import InteractionGraph, KnowledgeLinkage
from crossrec.training import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    DomainGraphs,
    EpochRecord,
    FitResult,
    StepDraws,
    TrainConfig,
    init_parameters,
    load_checkpoint,
    save_checkpoint,
)
from crossrec.transfer import LossBundle

FAST_TRAIN = [
    "--embedding-dim", "8", "--gate-hidden", "8", "--epochs", "4",
    "--batch-size", "16", "--lr", "0.1", "--patience", "0",
]


SYNTH_FLAGS = [
    "--users", "14", "--source-items", "16", "--target-items", "16", "--latent-dim", "4",
    "--clusters", "5", "--source-interactions", "8", "--target-interactions", "6",
    "--entity-neighbors", "3", "--seed", "3",
]


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = main(["gen-synth", "--out", str(out), *SYNTH_FLAGS])
    assert code == 0
    return out


def strict_json(path):
    """Parse ``path`` as RFC 8259 JSON, which has no NaN or Infinity token."""
    def reject(token):
        raise ValueError(f"{path} holds the non-JSON token {token}")
    return json.loads(Path(path).read_text(), parse_constant=reject)


def data_flags(synth_dir):
    return [
        "--source", str(synth_dir / "source.tsv"),
        "--target", str(synth_dir / "target.tsv"),
        "--kg", str(synth_dir / "kg.tsv"),
        "--map-source", str(synth_dir / "map_source.tsv"),
        "--map-target", str(synth_dir / "map_target.tsv"),
    ]


class TestGenSynth:
    def test_files_produced(self, synth_dir):
        for name in ("source.tsv", "target.tsv", "kg.tsv", "map_source.tsv",
                     "map_target.tsv", "flags.tsv", "manifest.json"):
            assert (synth_dir / name).exists()

    def test_manifest_records_outputs(self, synth_dir):
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        assert manifest["command"] == "gen-synth"
        assert manifest["finished_at"] is not None
        assert any(name.endswith("flags.tsv") for name in manifest["outputs"])

    def test_manifest_records_the_numeric_environment(self, synth_dir):
        environment = strict_json(synth_dir / "manifest.json")["environment"]
        assert environment == cli.numeric_environment()
        assert (environment["numpy"], environment["scipy"]) == (np.__version__, scipy.__version__)
        assert environment["blas"] and environment["blas_version"]
        assert isinstance(environment["blas_core"], str) and environment["blas_core"]
        assert environment["blas_threads"] is None or environment["blas_threads"] >= 1
        assert environment["simd_baseline"] and all(isinstance(name, str)
                                                    for name in environment["simd_baseline"])
        assert set(environment["simd_dispatch"]) <= set(_multiarray_umath.__cpu_dispatch__)

    def test_outputs_do_not_depend_on_the_simd_dispatch_level(self, tmp_path):
        # numpy picks its ufunc loops by CPU feature at import; the entity
        # kNN orders each entity's neighbours by argmax's first-maximum rule,
        # which every loop keeps, so no table moves with all dispatch targets
        # disabled
        source_dir = str(Path(cli.__file__).parents[1])
        runs = {"default": None, "baseline": " ".join(_multiarray_umath.__cpu_dispatch__)}
        for name, disabled in runs.items():
            env = {key: value for key, value in os.environ.items()
                   if key != "NPY_DISABLE_CPU_FEATURES"}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_dir, env.get("PYTHONPATH")]))
            if disabled is not None:
                env["NPY_DISABLE_CPU_FEATURES"] = disabled
            subprocess.run([sys.executable, "-m", "crossrec.cli", "gen-synth", "--seed", "7",
                            "--out", str(tmp_path / name)], env=env, check=True,
                           stdout=subprocess.DEVNULL, timeout=300)
        baseline_manifest = strict_json(tmp_path / "baseline" / "manifest.json")
        assert baseline_manifest["environment"]["simd_dispatch"] == []
        # the manifest records the dispatch level and wall times, so only it differs
        written = sorted(path.name for path in (tmp_path / "default").iterdir())
        assert written == sorted(path.name for path in (tmp_path / "baseline").iterdir())
        tables = [name for name in written if name != "manifest.json"]
        assert "kg.tsv" in tables and "flags.tsv" in tables
        for name in tables:
            assert (tmp_path / "default" / name).read_bytes() == \
                (tmp_path / "baseline" / name).read_bytes(), name

    def test_training_key_in_config_file_rejected(self, tmp_path, capsys):
        config = tmp_path / "synth.conf"
        config.write_text("learning_rate = 0.5\n")
        code = main(["gen-synth", "--out", str(tmp_path / "synth"), "--config", str(config)])
        assert code == 1
        assert "error: unknown config key 'learning_rate'" in capsys.readouterr().err


class TestTrain:
    def test_produces_outputs_and_exit_zero(self, synth_dir, tmp_path):
        run_dir = tmp_path / "run"
        code = main(
            ["train", *data_flags(synth_dir), "--out", str(run_dir), "--seed", "3"]
            + FAST_TRAIN
        )
        assert code == 0
        assert (run_dir / "best.ckpt").exists()
        assert (run_dir / "training_log.tsv").exists()
        assert (run_dir / "manifest.json").exists()
        assert (run_dir / "data" / "ids_users.tsv").exists()
        log_lines = (run_dir / "training_log.tsv").read_text().strip().split("\n")
        assert log_lines[0].startswith("epoch\t")
        assert len(log_lines) == 1 + 4  # header + epochs

    def test_alpha_flags_accepted(self, synth_dir, tmp_path):
        # the stock movie-target weight configuration
        code = main(
            ["train", *data_flags(synth_dir), "--out", str(tmp_path / "run"),
             "--alpha1", "0.01", "--alpha2", "1.0", "--alpha3", "1.0", "--seed", "1"]
            + FAST_TRAIN
        )
        assert code == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["config"]["alpha1"] == 0.01
        assert manifest["config"]["alpha2"] == 1.0
        assert manifest["config"]["alpha3"] == 1.0

    def test_missing_file_exit_two(self, synth_dir, tmp_path, capsys):
        flags = data_flags(synth_dir)
        flags[1] = str(synth_dir / "no-such-file.tsv")
        code = main(["train", *flags, "--out", str(tmp_path / "run")] + FAST_TRAIN)
        assert code == 2
        assert "no-such-file.tsv" in capsys.readouterr().err

    def test_deterministic_checkpoints(self, synth_dir, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        for out in (first, second):
            code = main(
                ["train", *data_flags(synth_dir), "--out", str(out), "--seed", "5"]
                + FAST_TRAIN
            )
            assert code == 0
        assert (first / "best.ckpt").read_bytes() == (second / "best.ckpt").read_bytes()
        assert (first / "training_log.tsv").read_text() == (second / "training_log.tsv").read_text()

    def test_config_file_and_flag_precedence(self, synth_dir, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("learning_rate = 0.05\nmax_epochs = 3\n# comment\nalpha1 = 0.9\n")
        run_dir = tmp_path / "run"
        code = main([
            "train", *data_flags(synth_dir), "--out", str(run_dir),
            "--config", str(config), "--alpha1", "0.111", "--seed", "2",
            "--embedding-dim", "8", "--gate-hidden", "8", "--batch-size", "16",
        ])
        assert code == 0
        resolved = json.loads((run_dir / "manifest.json").read_text())["config"]
        assert resolved["learning_rate"] == 0.05  # from config file
        assert resolved["max_epochs"] == 3
        assert resolved["alpha1"] == 0.111  # flag beats config file

    @pytest.mark.parametrize("line, message", [
        ("layers = two", "layers must be an integer, got 'two'"),
        ("layers = 2.0", "layers must be an integer, got '2.0'"),
        ("learning_rate = fast", "learning_rate must be a real number, got 'fast'"),
    ])
    def test_unparsable_config_value_exits_one_naming_file_and_key(
        self, synth_dir, tmp_path, capsys, line, message
    ):
        config = tmp_path / "run.cfg"
        config.write_text(f"{line}\n")
        out = tmp_path / "run"
        code = main(["train", *data_flags(synth_dir), "--out", str(out),
                     "--config", str(config)] + FAST_TRAIN)
        assert code == 1
        assert capsys.readouterr().err == f"error: {config}: {message}\n"
        assert not out.exists()

    def test_synthetic_key_in_config_file_rejected(self, synth_dir, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("rho = 0.1\n")
        code = main(["train", *data_flags(synth_dir), "--out", str(tmp_path / "run"),
                     "--config", str(config)] + FAST_TRAIN)
        assert code == 1
        assert "error: unknown config key 'rho'" in capsys.readouterr().err

    def test_divergence_exits_one_with_error_line(self, synth_dir, tmp_path, capsys):
        flags = [*FAST_TRAIN]
        flags[flags.index("--lr") + 1] = "1e300"
        with np.errstate(all="ignore"):
            code = main(
                ["train", *data_flags(synth_dir), "--out", str(tmp_path / "run"), "--seed", "3"]
                + flags
            )
        assert code == 1
        assert "error: aborted step: non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["train"], ["ablate", "--variant", "full"]])
    def test_divergence_finalizes_the_manifest_as_failed(
        self, synth_dir, tmp_path, capsys, monkeypatch, command
    ):
        # NaN noise at epoch 2, step 1 makes that step's loss non-finite
        real = StepDraws.for_step

        def poisoned(seed, epoch, step, batch_size, dim):
            draws = real(seed, epoch, step, batch_size, dim)
            if (epoch, step) == (2, 1):
                draws = replace(draws, noise=np.full_like(draws.noise, np.nan))
            return draws

        monkeypatch.setattr(StepDraws, "for_step", staticmethod(poisoned))
        run_dir = tmp_path / "run"
        flags = [*FAST_TRAIN]
        flags[flags.index("--batch-size") + 1] = "4"
        with np.errstate(all="ignore"):
            code = main([*command, *data_flags(synth_dir), "--out", str(run_dir), "--seed", "3"]
                        + flags)
        assert code == 1
        assert "at epoch 2, step 1" in capsys.readouterr().err
        manifest = strict_json(run_dir / "manifest.json")
        assert manifest["status"] == "failed"
        assert (manifest["epoch"], manifest["step"]) == (2, 1)
        assert manifest["error"].startswith("aborted step: non-finite loss")
        assert manifest["finished_at"] is not None
        assert manifest["outputs"] == []
        assert not (run_dir / "best.ckpt").exists()

    def test_successful_run_records_status_ok(self, synth_dir, tmp_path):
        run_dir = tmp_path / "run"
        code = main(["train", *data_flags(synth_dir), "--out", str(run_dir), "--seed", "3"]
                    + FAST_TRAIN)
        assert code == 0
        manifest = strict_json(run_dir / "manifest.json")
        assert manifest["status"] == "ok" and "error" not in manifest

    def test_reports_epochs_actually_run(self, synth_dir, tmp_path, capsys):
        run_dir = tmp_path / "run"
        code = main([
            "train", *data_flags(synth_dir), "--out", str(run_dir), "--seed", "3",
            "--embedding-dim", "8", "--gate-hidden", "8", "--batch-size", "16",
            "--lr", "0.1", "--epochs", "50", "--patience", "1",
        ])
        assert code == 0
        epochs_run = len((run_dir / "training_log.tsv").read_text().strip().split("\n")) - 1
        assert epochs_run < 50  # early stopping fired
        assert f"trained {epochs_run} epochs;" in capsys.readouterr().out

    def test_user_owning_a_whole_catalog_exits_one(self, tmp_path, capsys):
        # u0 owns all four source items, so no source negative can be drawn
        files = {
            "source": [f"u0\ts{i}" for i in range(4)] + ["u1\ts0", "u2\ts1"],
            "target": [f"u0\tt{i}" for i in range(6)] + ["u1\tt0", "u2\tt1"],
            "kg": ["es0\tet0"],
            "map_source": [f"s{i}\tes{i}" for i in range(4)],
            "map_target": [f"t{i}\tet{i}" for i in range(8)],
        }
        for name, lines in files.items():
            (tmp_path / f"{name}.tsv").write_text("\n".join(lines) + "\n")
        code = main(["train", *data_flags(tmp_path), "--out", str(tmp_path / "run")] + FAST_TRAIN)
        assert code == 1
        assert "error: user 'u0' owns every source item" in capsys.readouterr().err
        manifest = strict_json(tmp_path / "run" / "manifest.json")
        assert manifest["status"] == "failed" and manifest["finished_at"] is not None
        assert manifest["error"].startswith("user 'u0' owns every source item")

    def test_user_without_training_target_items_exits_one(
        self, synth_dir, tmp_path, repeated_item_bundle, monkeypatch, capsys
    ):
        # the loader collapses repeated edges, so the bundle is handed to the
        # command directly; split seed 0 leaves u0 no training target item
        loaded = (repeated_item_bundle, LoadReport())
        monkeypatch.setattr(cli, "load_bundle", lambda *_, **__: loaded)
        code = main(["train", *data_flags(synth_dir), "--out", str(tmp_path / "run"),
                     "--seed", "0"] + FAST_TRAIN)
        assert code == 1
        assert "error: user 'u0' has no training target item" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("flag, value, key", [
        ("--lr", "nan", "learning_rate"), ("--lr", "-inf", "learning_rate"),
        ("--tau", "inf", "contrastive_temperature"), ("--gumbel-t", "inf", "gumbel_temperature"),
        ("--alpha2", "nan", "alphas"), ("--weight-decay", "inf", "weight_decay"),
        ("--init-std", "nan", "init_std"),
    ])
    def test_non_finite_setting_exits_one_before_any_output(
        self, synth_dir, tmp_path, capsys, command, flag, value, key
    ):
        out = tmp_path / "out"
        variant = ["--variant", "full"] if command == "ablate" else []
        code = main([command, *variant, *data_flags(synth_dir), "--out", str(out), *FAST_TRAIN,
                     f"{flag}={value}"])
        assert code == 1
        assert f"error: {key} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_negative_hop_radius_exits_one_before_any_output(self, synth_dir, tmp_path, capsys,
                                                             command):
        out = tmp_path / "out"
        variant = ["--variant", "full"] if command == "ablate" else []
        code = main([command, *variant, *data_flags(synth_dir), "--out", str(out), *FAST_TRAIN,
                     "--hop-radius", "-1"])
        assert code == 1
        assert "error: hop_radius must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--init-std", "0", "init_std must be positive, got 0.0"),
        ("--init-std", "-0.1", "init_std must be positive, got -0.1"),
        ("--gate-hidden", "-1", "gate_hidden must be non-negative, got -1"),
    ])
    def test_out_of_range_initialization_exits_one_before_any_output(
        self, synth_dir, tmp_path, capsys, command, flag, value, message
    ):
        out = tmp_path / "out"
        variant = ["--variant", "target-only"] if command == "ablate" else []
        code = main([command, *variant, *data_flags(synth_dir), "--out", str(out), *FAST_TRAIN,
                     flag, value])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_fewer_than_two_layers_under_the_entity_bridge_exit_one(self, synth_dir, tmp_path,
                                                                    capsys):
        # items have no table under the bridge, so one layer serves every user as zero
        run_dir = tmp_path / "run"
        code = main(["train", *data_flags(synth_dir), "--out", str(run_dir), *FAST_TRAIN,
                     "--layers", "1"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: layers must be at least 2 under the entity bridge (got 1): "
            "with fewer, every served score is 0\n"
        )
        manifest = strict_json(run_dir / "manifest.json")
        assert manifest["status"] == "failed" and manifest["outputs"] == []
        assert not (run_dir / "best.ckpt").exists()

    def test_zero_epochs_record_null(self, synth_dir, tmp_path, capsys):
        run_dir = tmp_path / "run"
        code = main(["train", *data_flags(synth_dir), "--out", str(run_dir), *FAST_TRAIN,
                     "--epochs", "0"])
        assert code == 0
        assert "trained 0 epochs; no epoch ran" in capsys.readouterr().out
        _, meta = load_checkpoint(run_dir / "best.ckpt")
        assert meta["best_epoch"] == 0 and meta["best_validation_ndcg"] is None
        assert b"Infinity" not in (run_dir / "best.ckpt").read_bytes()
        strict_json(run_dir / "manifest.json")

    def test_unknown_flag_fails_fast(self, synth_dir, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", *data_flags(synth_dir), "--out", str(tmp_path), "--bogus", "1"])
        assert excinfo.value.code == 2


@pytest.fixture(scope="module")
def trained(synth_dir, tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("trained")
    code = main(
        ["train", *data_flags(synth_dir), "--out", str(run_dir), "--seed", "3"]
        + FAST_TRAIN
    )
    assert code == 0
    return run_dir


class TestEvaluate:
    def test_six_aggregate_rows(self, synth_dir, trained, tmp_path):
        eval_dir = tmp_path / "eval"
        code = main([
            "evaluate", "--checkpoint", str(trained / "best.ckpt"),
            *data_flags(synth_dir), "--out", str(eval_dir), "--k", "10,100",
            "--seed", "3",
        ])
        assert code == 0
        rows = (eval_dir / "metrics.tsv").read_text().strip().split("\n")
        assert len(rows) == 6
        parsed = [row.split("\t") for row in rows]
        assert {p[0] for p in parsed} == {"ndcg", "hit", "mrr"}
        assert {p[1] for p in parsed} == {"10", "100"}
        for p in parsed:
            value = p[2]
            assert len(value.split(".")[1]) == 4  # four decimal places
        assert (eval_dir / "ranks.tsv").exists()

    def test_missing_checkpoint_exit_two(self, synth_dir, tmp_path):
        code = main([
            "evaluate", "--checkpoint", str(tmp_path / "missing.ckpt"),
            *data_flags(synth_dir), "--out", str(tmp_path / "eval"),
        ])
        assert code == 2

    def evaluate(self, synth_dir, trained, out, *extra):
        code = main(["evaluate", "--checkpoint", str(trained / "best.ckpt"),
                     *data_flags(synth_dir), "--out", str(out), *extra])
        assert code == 0
        return (out / "ranks.tsv").read_text()

    def test_config_file_seed_sets_the_split(self, synth_dir, trained, tmp_path):
        config = tmp_path / "eval.conf"
        config.write_text("seed = 5\n")
        from_config = self.evaluate(synth_dir, trained, tmp_path / "a", "--config", str(config))
        assert from_config == self.evaluate(synth_dir, trained, tmp_path / "b", "--seed", "5")
        assert from_config != self.evaluate(synth_dir, trained, tmp_path / "c", "--seed", "3")
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 5

    def test_no_seed_uses_the_checkpoint_split(self, synth_dir, trained, tmp_path):
        # the trained fixture used seed 3
        assert (self.evaluate(synth_dir, trained, tmp_path / "a")
                == self.evaluate(synth_dir, trained, tmp_path / "b", "--seed", "3"))

    def test_manifest_records_the_checkpoint_config(self, synth_dir, trained, tmp_path):
        self.evaluate(synth_dir, trained, tmp_path / "eval", "--k", "5,20")
        _, meta = load_checkpoint(trained / "best.ckpt")
        recorded = json.loads((tmp_path / "eval" / "manifest.json").read_text())["config"]
        assert recorded == {**meta["config"], "seed": 3, "k": [5, 20]}
        assert recorded["embedding_dim"] == 8 and recorded["hop_radius"] == 1

    def test_ranks_equal_evaluate_fit(self, synth_dir, trained, tmp_path):
        ranks = self.evaluate(synth_dir, trained, tmp_path / "eval")
        params, meta = load_checkpoint(trained / "best.ckpt")
        stored = meta["config"]
        config = TrainConfig(**{**stored, "alphas": tuple(stored["alphas"])})
        bundle, _ = load_bundle(DataPaths(*(synth_dir / f"{name}.tsv" for name in
                                            ("source", "target", "kg", "map_source", "map_target"))))
        split = split_leave_one_out(bundle, config.seed)
        fitted = FitResult(params, 0, 0.0, [], DomainGraphs.for_config(config, bundle, split))
        per_user, _ = evaluate_fit(fitted, split, bundle, config)
        expected = ["user\trank"] + [f"{bundle.user_ids[r.user]}\t{r.rank}" for r in per_user]
        assert ranks == "\n".join(expected) + "\n"

    @pytest.mark.parametrize("damage", ["no metadata", "no seed", "no alphas", "unknown field"])
    def test_checkpoint_without_usable_config_exits_one(
        self, synth_dir, trained, tmp_path, capsys, damage
    ):
        params, meta = load_checkpoint(trained / "best.ckpt")
        config = dict(meta["config"])
        if damage == "unknown field":
            config["dropout"] = 0.5
        elif damage != "no metadata":
            del config[damage.split()[1]]
        bare = tmp_path / "bare.ckpt"
        save_checkpoint(bare, params, {} if damage == "no metadata" else {"config": config})
        code = main(["evaluate", "--checkpoint", str(bare), *data_flags(synth_dir),
                     "--out", str(tmp_path / "eval")])
        assert code == 1
        assert "has no usable training config" in capsys.readouterr().err

    def test_checkpoint_for_other_data_names_the_table(self, tmp_path, capsys):
        # two KG lines linked to no item: hop scoping drops their edges, so
        # the copy of the data that train saves has 3 entities fewer
        data, run = tmp_path / "data", tmp_path / "run"
        assert main(["gen-synth", "--out", str(data), "--seed", "7"]) == 0
        with open(data / "kg.tsv", "a", encoding="utf-8") as handle:
            handle.write("xa\txb\nxb\txc\n")
        assert main(["train", *data_flags(data), "--epochs", "3", "--out", str(run),
                     "--seed", "7"]) == 0
        capsys.readouterr()
        code = main(["evaluate", "--checkpoint", str(run / "best.ckpt"),
                     *data_flags(run / "data"), "--out", str(tmp_path / "eval"), "--seed", "7"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: parameter table 'entity' has 603 rows, but the target graph block "
            "it fills has 600\n"
        )
        manifest = strict_json(tmp_path / "eval" / "manifest.json")
        assert manifest["status"] == "failed" and manifest["finished_at"] is not None
        assert manifest["error"].startswith("parameter table 'entity' has 603 rows")
        assert manifest["outputs"] == []


def test_evaluate_loads_the_data_at_the_checkpoint_hop_radius(tmp_path):
    # xa, xb and xc are linked to no item and hang off es0 as a chain: radius
    # 0 drops all three chain edges, the default radius 1 keeps es0-xa
    files = {
        "source": [f"u{u}\ts{(u + i) % 8}" for u in range(4) for i in range(4)],
        "target": [f"u{u}\tt{(u + i) % 8}" for u in range(4) for i in range(5)],
        "kg": [f"es{i}\tet{i}" for i in range(8)] + ["es0\txa", "xa\txb", "xb\txc"],
        "map_source": [f"s{i}\tes{i}" for i in range(8)],
        "map_target": [f"t{i}\tet{i}" for i in range(8)],
    }
    for name, lines in files.items():
        (tmp_path / f"{name}.tsv").write_text("\n".join(lines) + "\n")
    run, evaluated = tmp_path / "run", tmp_path / "eval"
    assert main(["train", *data_flags(tmp_path), "--hop-radius", "0", "--out", str(run),
                 *FAST_TRAIN]) == 0
    assert main(["evaluate", "--checkpoint", str(run / "best.ckpt"), *data_flags(tmp_path),
                 "--out", str(evaluated)]) == 0
    trained_at, evaluated_at = (strict_json(out / "manifest.json") for out in (run, evaluated))
    assert evaluated_at["config"]["hop_radius"] == 0
    assert trained_at["load_report"]["scoped_out_kg_edges"] == 3
    assert evaluated_at["load_report"]["scoped_out_kg_edges"] == 3


def test_checkpoint_metadata_is_the_config_and_the_best_epoch(trained):
    payload = (trained / "best.ckpt").read_bytes()
    assert payload[:4] == CHECKPOINT_MAGIC
    assert struct.unpack_from("<I", payload, 4) == (CHECKPOINT_VERSION,) == (2,)
    _, meta = load_checkpoint(trained / "best.ckpt")
    assert sorted(meta) == ["best_epoch", "best_validation_ndcg", "config"]
    assert sorted(meta["config"]) == sorted(entry.name for entry in fields(TrainConfig))


def test_version_one_checkpoint_exits_one_by_name(synth_dir, trained, tmp_path, capsys):
    # the version-1 layout: the model kind beside the config, which held the
    # numerical floors and the validation cutoff but no hop radius
    payload = (trained / "best.ckpt").read_bytes()
    (meta_len,) = struct.unpack_from("<I", payload, 8)
    _, meta = load_checkpoint(trained / "best.ckpt")
    config = {key: value for key, value in meta["config"].items() if key != "hop_radius"}
    config.update(sigma_floor=1e-4, m_floor=1e-6, norm_floor=1e-12, validation_k=100)
    old_meta = json.dumps({**meta, "config": config, "kind": "cross"}, sort_keys=True).encode()
    old = tmp_path / "old.ckpt"
    old.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", 1, len(old_meta)) + old_meta
                    + payload[12 + meta_len:])
    code = main(["evaluate", "--checkpoint", str(old), *data_flags(synth_dir),
                 "--out", str(tmp_path / "eval")])
    assert code == 1
    assert capsys.readouterr().err == "error: unsupported checkpoint version 1\n"
    assert not (tmp_path / "eval").exists()


def rewrite_checkpoint(path, out, meta, arrays=None):
    """The checkpoint at ``path`` with raw ``meta`` bytes and, if given, raw ``arrays`` bytes."""
    payload = path.read_bytes()
    (meta_len,) = struct.unpack_from("<I", payload, 8)
    rest = payload[12 + meta_len:] if arrays is None else arrays
    out.write_bytes(payload[:8] + struct.pack("<I", len(meta)) + meta + rest)
    return out


# (2**40, 2**20) float64 values: 2**63 bytes, one past the largest read size
HUGE_TABLE = (struct.pack("<IH", 1, 6) + b"user_t"
              + struct.pack("<B2Q", 2, 2**40, 2**20))


CROSS_TABLES = "['entity', 'gate_b1', 'gate_b2', 'gate_w1', 'gate_w2', 'user_s', 'user_t']"


@pytest.mark.parametrize("damage, message", [
    ("list", "checkpoint metadata is not an object"),
    ("huge table", "truncated checkpoint: wanted 9223372036854775808 bytes, 0 left"),
    ("target-only config", f"checkpoint holds tables {CROSS_TABLES}, but its config trains a "
                           "'target_only' model with tables ['item_t', 'user_t']"),
])
def test_malformed_checkpoint_exits_one_by_name(synth_dir, trained, tmp_path, capsys,
                                                damage, message):
    _, meta = load_checkpoint(trained / "best.ckpt")
    meta = {
        "list": [meta],
        "huge table": meta,
        "target-only config": {**meta, "config": {**meta["config"], "model": "target_only"}},
    }[damage]
    damaged = rewrite_checkpoint(trained / "best.ckpt", tmp_path / "damaged.ckpt",
                                 json.dumps(meta).encode("utf-8"),
                                 HUGE_TABLE if damage == "huge table" else None)
    code = main(["evaluate", "--checkpoint", str(damaged), *data_flags(synth_dir),
                 "--out", str(tmp_path / "eval"), "--seed", "3"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("layers", [0, 1])
def test_evaluate_refuses_fewer_than_two_layers_under_the_entity_bridge(synth_dir, trained,
                                                                         tmp_path, capsys, layers):
    # every score such a checkpoint serves is 0, an all-ties ranking
    _, meta = load_checkpoint(trained / "best.ckpt")
    meta = {**meta, "config": {**meta["config"], "layers": layers}}
    shallow = rewrite_checkpoint(trained / "best.ckpt", tmp_path / "shallow.ckpt",
                                 json.dumps(meta).encode("utf-8"))
    code = main(["evaluate", "--checkpoint", str(shallow), *data_flags(synth_dir),
                 "--out", str(tmp_path / "eval"), "--seed", "3"])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: layers must be at least 2 under the entity bridge (got {layers}): "
        "with fewer, every served score is 0\n")
    manifest = strict_json(tmp_path / "eval" / "manifest.json")
    assert manifest["status"] == "failed" and manifest["outputs"] == []


@pytest.mark.parametrize("key, value, kind", [
    ("layers", 2.5, "an integer"),
    ("hop_radius", 1.5, "an integer"),
    ("seed", 1.5, "an integer"),
    ("layers", True, "an integer"),
    ("use_kg", "yes", "a bool"),
])
def test_wrongly_typed_checkpoint_config_exits_one_by_name(synth_dir, trained, tmp_path, capsys,
                                                           key, value, kind):
    # no --seed, so the split seed is the checkpoint's
    _, meta = load_checkpoint(trained / "best.ckpt")
    meta = {**meta, "config": {**meta["config"], key: value}}
    damaged = rewrite_checkpoint(trained / "best.ckpt", tmp_path / "damaged.ckpt",
                                 json.dumps(meta).encode("utf-8"))
    code = main(["evaluate", "--checkpoint", str(damaged), *data_flags(synth_dir),
                 "--out", str(tmp_path / "eval")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {key} must be {kind}, got {value!r}\n"
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("command", ["train", "evaluate", "ablate", "inject-noise"])
def test_malformed_lines_warned(synth_dir, trained, tmp_path, capsys, command):
    data = tmp_path / "data"
    shutil.copytree(synth_dir, data)
    with open(data / "target.tsv", "a", encoding="utf-8") as handle:
        handle.write("no tab on this line\n")
    extra = {
        "train": [*data_flags(data), *FAST_TRAIN],
        "evaluate": [*data_flags(data), "--checkpoint", str(trained / "best.ckpt")],
        "ablate": [*data_flags(data), "--variant", "target-only", *FAST_TRAIN],
        "inject-noise": ["--source", str(data / "target.tsv"), "--ratio", "0.1"],
    }[command]
    code = main([command, "--out", str(tmp_path / "out"), *extra])
    assert code == 0
    assert "warning: 1 malformed lines skipped" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "evaluate", "ablate"])
def test_manifest_records_the_load_report(synth_dir, trained, tmp_path, command):
    data = tmp_path / "data"
    shutil.copytree(synth_dir, data)
    source = data / "source.tsv"
    first = next(line for line in source.read_text().splitlines() if not line.startswith("#"))
    with open(source, "a", encoding="utf-8") as handle:
        handle.write(first + "\n")
    extra = {
        "train": [*data_flags(data), *FAST_TRAIN],
        "evaluate": [*data_flags(data), "--checkpoint", str(trained / "best.ckpt")],
        "ablate": [*data_flags(data), "--variant", "no-cl", *FAST_TRAIN],
    }[command]
    out = tmp_path / "out"
    assert main([command, "--out", str(out), "--seed", "3", *extra]) == 0

    bundle, clean = load_bundle(DataPaths(*(synth_dir / f"{name}.tsv" for name in
                                            ("source", "target", "kg", "map_source", "map_target"))))
    expected = {**asdict(clean), "malformed": 0,
                "excluded_users": split_leave_one_out(bundle, 3).excluded_users}
    expected["raw_edges"]["source"] += 1
    expected["duplicate_edges"]["source"] += 1
    assert strict_json(out / "manifest.json")["load_report"] == expected


@pytest.mark.parametrize("argv, message", [
    (["gen-synth", *SYNTH_FLAGS, "--rho", "nan"], "irrelevant_fraction must lie in [0, 1]: nan"),
    (["inject-noise", "--ratio", "nan"], "noise ratio must lie in [0, 1], got nan"),
])
def test_nan_rate_exits_one_before_any_output(synth_dir, tmp_path, capsys, argv, message):
    if argv[0] == "inject-noise":
        argv = [*argv, "--source", str(synth_dir / "source.tsv")]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "ablate", "evaluate", "gen-synth", "inject-noise"])
def test_negative_seed_exits_one_before_any_output(synth_dir, trained, tmp_path, capsys, command):
    head = {
        "train": ["train", *data_flags(synth_dir), *FAST_TRAIN],
        "ablate": ["ablate", "--variant", "full", *data_flags(synth_dir), *FAST_TRAIN],
        "evaluate": ["evaluate", "--checkpoint", str(trained / "best.ckpt"),
                     *data_flags(synth_dir)],
        "gen-synth": ["gen-synth", *SYNTH_FLAGS],
        "inject-noise": ["inject-noise", "--source", str(synth_dir / "source.tsv"),
                         "--ratio", "0.1"],
    }[command]
    out = tmp_path / "out"
    assert main([*head, "--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "ablate"])
@pytest.mark.parametrize("k", ["0", "-5", "x", "10,0"])
def test_k_must_be_positive_integers(synth_dir, tmp_path, command, k):
    head = {"evaluate": ["evaluate", "--checkpoint", str(tmp_path / "any.ckpt")],
            "ablate": ["ablate", "--variant", "full"]}[command]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        main([*head, *data_flags(synth_dir), "--out", str(out), f"--k={k}"])
    assert excinfo.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("header", [False, True], ids=["rows", "header"])
@pytest.mark.parametrize("marked", [*(entry.name for entry in fields(DataPaths)), "inject-noise"])
def test_a_leading_byte_order_mark_is_dropped(synth_dir, tmp_path, marked, header):
    """A file that opens with a UTF-8 byte-order mark, before a row or a ``#``
    header, loads to the IDs, edges and load report of the file without it."""
    opened = "source" if marked == "inject-noise" else marked
    dirs = {}
    for name, mark in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
        dirs[name] = tmp_path / name
        dirs[name].mkdir()
        for entry in fields(DataPaths):
            text = (synth_dir / f"{entry.name}.tsv").read_bytes()
            text = b"# header\n" + text if header else text
            if entry.name == opened:
                text = mark + text
            (dirs[name] / f"{entry.name}.tsv").write_bytes(text)

    if marked == "inject-noise":
        outs = {}
        for name, directory in dirs.items():
            outs[name] = tmp_path / f"noisy-{name}"
            assert main(["inject-noise", "--source", str(directory / "source.tsv"),
                         "--ratio", "0.1", "--seed", "4", "--out", str(outs[name])]) == 0
        # the header line names the source's digest, which the mark changes
        bodies = [(out / "noisy_source.tsv").read_text().split("\n", 1)[1] for out in outs.values()]
        reports = [strict_json(out / "manifest.json")["load_report"] for out in outs.values()]
        assert bodies[0] == bodies[1] and reports[0] == reports[1]
        assert reports[0]["malformed"] == 0
        return

    loads = []
    for directory in dirs.values():
        bundle, report = load_bundle(DataPaths(*(directory / f"{entry.name}.tsv"
                                                 for entry in fields(DataPaths))))
        edges = [bundle.source.edges, bundle.target.edges, bundle.kg.entity_edges,
                 bundle.kg.item_entity_source, bundle.kg.item_entity_target]
        ids = [bundle.user_ids, bundle.source_item_ids, bundle.target_item_ids, bundle.entity_ids]
        loads.append((ids, [array.tolist() for array in edges], asdict(report)))
    assert loads[0] == loads[1]
    assert loads[0][2]["malformed"] == []


class TestInjectNoise:
    def test_exact_ten_percent(self, synth_dir, tmp_path):
        out = tmp_path / "noise"
        code = main([
            "inject-noise", "--source", str(synth_dir / "source.tsv"),
            "--ratio", "0.10", "--out", str(out), "--seed", "4",
        ])
        assert code == 0
        lines = (out / "noisy_source.tsv").read_text().strip().split("\n")
        assert lines[0].startswith("# noise-injected:")
        base = (synth_dir / "source.tsv").read_text().strip().split("\n")
        expected_added = int(np.ceil(0.10 * len(base)))
        assert len(lines) - 1 == len(base) + expected_added

    def test_derived_file_loads_back(self, synth_dir, tmp_path):
        out = tmp_path / "noise"
        main([
            "inject-noise", "--source", str(synth_dir / "source.tsv"),
            "--ratio", "0.05", "--out", str(out), "--seed", "4",
        ])
        from crossrec.data import load_interactions

        graph, _, _ = load_interactions(out / "noisy_source.tsv")
        base_graph, _, _ = load_interactions(synth_dir / "source.tsv")
        assert graph.edge_count > base_graph.edge_count


    def test_repeated_line_dropped_and_counted(self, tmp_path):
        # four lines holding u1-i1 twice: the manifest counts the repeat, and
        # the noise is drawn as from the three distinct lines
        dirty, clean = tmp_path / "dirty.tsv", tmp_path / "clean.tsv"
        dirty.write_text("u1\ti1\nu2\ti2\nu1\ti1\nu3\ti1\n")
        clean.write_text("u1\ti1\nu2\ti2\nu3\ti1\n")
        for source in (dirty, clean):
            assert main(["inject-noise", "--source", str(source), "--ratio", "0.25",
                         "--seed", "4", "--out", str(tmp_path / source.stem)]) == 0
        reports = [strict_json(tmp_path / name / "manifest.json")["load_report"]
                   for name in ("dirty", "clean")]
        assert [report["raw_edges"] for report in reports] == [{"source": 4}, {"source": 3}]
        assert [report["duplicate_edges"] for report in reports] == [{"source": 1}, {"source": 0}]
        assert [report["malformed"] for report in reports] == [0, 0]
        bodies = [(tmp_path / name / "noisy_source.tsv").read_text().split("\n", 1)[1]
                  for name in ("dirty", "clean")]
        assert bodies[0] == bodies[1] and len(bodies[0].splitlines()) == 4

    def noise_run(self, synth_dir, out, *extra):
        return main([
            "inject-noise", "--source", str(synth_dir / "source.tsv"),
            "--ratio", "0.05", "--out", str(out), *extra,
        ])

    def seed_used(self, out):
        manifest = json.loads((out / "manifest.json").read_text())
        header = (out / "noisy_source.tsv").read_text().split("\n", 1)[0]
        return manifest["config"]["seed"], header.split(" seed=")[1].split()[0]

    def test_missing_source_exit_two(self, synth_dir, tmp_path, capsys):
        code = main(["inject-noise", "--source", str(tmp_path / "no.tsv"), "--ratio", "0.05",
                     "--out", str(tmp_path / "noise")])
        assert code == 2
        assert "no.tsv" in capsys.readouterr().err

    def test_missing_config_exit_two(self, synth_dir, tmp_path):
        code = self.noise_run(synth_dir, tmp_path / "noise", "--config", str(tmp_path / "no.conf"))
        assert code == 2

    def test_config_file_seed_applies(self, synth_dir, tmp_path):
        config = tmp_path / "noise.conf"
        config.write_text("seed = 5\n")
        out = tmp_path / "noise"
        assert self.noise_run(synth_dir, out, "--config", str(config)) == 0
        assert self.seed_used(out) == (5, "5")

    def test_ratio_in_config_file_rejected(self, synth_dir, tmp_path, capsys):
        config = tmp_path / "noise.conf"
        config.write_text("ratio = 0.3\n")
        assert self.noise_run(synth_dir, tmp_path / "noise", "--config", str(config)) == 1
        assert "unknown config key 'ratio'" in capsys.readouterr().err

    def test_seed_flag_beats_config_file(self, synth_dir, tmp_path):
        config = tmp_path / "noise.conf"
        config.write_text("seed = 5\n")
        out = tmp_path / "noise"
        assert self.noise_run(synth_dir, out, "--config", str(config), "--seed", "9") == 0
        assert self.seed_used(out) == (9, "9")


class TestAblate:
    def test_metrics_tagged_with_variant(self, synth_dir, tmp_path):
        out = tmp_path / "ablation"
        code = main([
            "ablate", "--variant", "no-kl", *data_flags(synth_dir),
            "--out", str(out), "--seed", "3", "--k", "10",
        ] + FAST_TRAIN)
        assert code == 0
        rows = (out / "metrics.tsv").read_text().strip().split("\n")
        assert all(row.startswith("no-kl\t") for row in rows)
        assert len(rows) == 3  # three metrics at one cutoff

    def test_manifest_records_the_cutoffs(self, synth_dir, tmp_path):
        out = tmp_path / "ablation"
        code = main(["ablate", "--variant", "target-only", *data_flags(synth_dir),
                     "--out", str(out), "--k", "5,20"] + FAST_TRAIN)
        assert code == 0
        recorded = json.loads((out / "manifest.json").read_text())["config"]
        assert recorded["k"] == [5, 20]
        assert recorded["variant"] == "target-only"

    def test_manifest_records_the_best_epoch(self, synth_dir, tmp_path):
        out = tmp_path / "ablation"
        code = main(["ablate", "--variant", "full", *data_flags(synth_dir),
                     "--out", str(out), "--seed", "3"] + FAST_TRAIN)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        rows = [line.split("\t") for line in (out / "training_log.tsv").read_text().splitlines()]
        assert rows[0][-1] == "val_ndcg100"
        validation = [float(row[-1]) for row in rows[1:]]
        assert manifest["best_epoch"] == 1 + int(np.argmax(validation))
        best_row = rows[manifest["best_epoch"]]
        assert f"{manifest['best_validation_ndcg']:.10g}" == best_row[-1]

    def test_zero_epochs_record_null(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "ablation"
        code = main(["ablate", "--variant", "full", *data_flags(synth_dir), "--out", str(out)]
                    + FAST_TRAIN + ["--epochs", "0"])
        assert code == 0
        assert "full: no epoch ran" in capsys.readouterr().out
        manifest = strict_json(out / "manifest.json")
        assert manifest["best_epoch"] == 0 and manifest["best_validation_ndcg"] is None

    @pytest.mark.parametrize("variant, layers", [("target-only", "1"), ("no-kg", "0")])
    def test_fewer_than_two_layers_train_without_the_entity_bridge(self, synth_dir, tmp_path,
                                                                    variant, layers):
        code = main(["ablate", "--variant", variant, *data_flags(synth_dir),
                     "--out", str(tmp_path / "ablation"), *FAST_TRAIN, "--layers", layers])
        assert code == 0

    def test_rejects_unknown_variant(self, synth_dir, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "ablate", "--variant", "mystery", *data_flags(synth_dir),
                "--out", str(tmp_path),
            ])


class TestConfigParsing:
    def test_key_value_lines(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("alpha1 = 0.5\n# full line comment\nbatch_size = 64  # trailing\n")
        assert parse_config_file(path) == {"alpha1": "0.5", "batch_size": "64"}

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("not a config line\n")
        with pytest.raises(ValueError):
            parse_config_file(path)


class TestDefaults:
    def test_no_flag_resolution_is_the_dataclass_defaults(self, tmp_path):
        parser = build_parser()
        files = ["--source", "s", "--target", "t", "--kg", "k", "--map-source", "ms",
                 "--map-target", "mt"]
        args = parser.parse_args(["train", *files, "--out", str(tmp_path)])
        assert asdict(_train_config(_resolve(args, _TRAIN_DEFAULTS))) == asdict(TrainConfig())
        args = parser.parse_args(["gen-synth", "--out", str(tmp_path)])
        assert asdict(_synth_spec(_resolve(args, _SYNTH_DEFAULTS))) == asdict(SynthSpec())


# Every subcommand's options, written out by hand: (option string, dest, type,
# default, choices, required, help).  Training and gen-synth dests are the
# config-file keys.
_DATA_OPTIONS = [
    ("--source", "source", None, None, None, True, "source-domain interactions TSV"),
    ("--target", "target", None, None, None, True, "target-domain interactions TSV"),
    ("--kg", "kg", None, None, None, True, "entity-edge TSV"),
    ("--map-source", "map_source", None, None, None, True, None),
    ("--map-target", "map_target", None, None, None, True, None),
]
_TRAIN_OPTIONS = [
    ("--hop-radius", "hop_radius", int, None, None, False, None),
    ("--embedding-dim", "embedding_dim", int, None, None, False, None),
    ("--batch-size", "batch_size", int, None, None, False, None),
    ("--epochs", "max_epochs", int, None, None, False, None),
    ("--lr", "learning_rate", float, None, None, False, None),
    ("--layers", "layers", int, None, None, False, None),
    ("--gate-hidden", "gate_hidden", int, None, None, False, None),
    ("--gumbel-t", "gumbel_temperature", float, None, None, False, None),
    ("--tau", "contrastive_temperature", float, None, None, False, None),
    ("--alpha1", "alpha1", float, None, None, False, None),
    ("--alpha2", "alpha2", float, None, None, False, None),
    ("--alpha3", "alpha3", float, None, None, False, None),
    ("--patience", "patience", int, None, None, False, None),
    ("--loss", "prediction_loss", None, None, ("bpr", "ce"), False, None),
    ("--weight-decay", "weight_decay", float, None, None, False, None),
    ("--init-std", "init_std", float, None, None, False, None),
]
_SYNTH_OPTIONS = [
    ("--users", "users", int, None, None, False, None),
    ("--source-items", "source_items", int, None, None, False, None),
    ("--target-items", "target_items", int, None, None, False, None),
    ("--latent-dim", "latent_dim", int, None, None, False, None),
    ("--clusters", "entity_clusters", int, None, None, False, None),
    ("--entity-neighbors", "entity_neighbors", int, None, None, False, None),
    ("--source-interactions", "source_interactions", int, None, None, False, None),
    ("--target-interactions", "target_interactions", int, None, None, False, None),
    ("--rho", "rho", float, None, None, False, "irrelevant source-edge fraction"),
]
_K_OPTION = ("--k", "k", cli.cutoffs, (10, 100), None, False, "comma-separated cutoffs")


def _common_options(seed_help="run seed (default 0)"):
    return [
        ("--seed", "seed", int, None, None, False, seed_help),
        ("--config", "config", str, None, None, False, "key = value config file"),
        ("--out", "out", str, None, None, True, "output directory"),
    ]


PARSER_OPTIONS = {
    "train": [*_DATA_OPTIONS, *_TRAIN_OPTIONS, *_common_options()],
    "evaluate": [
        ("--checkpoint", "checkpoint", None, None, None, True, None),
        _K_OPTION,
        *_DATA_OPTIONS,
        *_common_options("split seed (default: the checkpoint's seed)"),
    ],
    "gen-synth": [*_SYNTH_OPTIONS, *_common_options()],
    "inject-noise": [
        ("--source", "source", None, None, None, True, "interactions TSV to contaminate"),
        ("--ratio", "ratio", float, None, None, True, None),
        *_common_options(),
    ],
    "ablate": [
        ("--variant", "variant", None, None,
         ("full", "no-pred-s", "no-kl", "no-cl", "no-kg", "target-only"), True, None),
        _K_OPTION,
        *_DATA_OPTIONS,
        *_TRAIN_OPTIONS,
        *_common_options(),
    ],
}

# a valid non-default value for each training and gen-synth config key
SETTING_VALUES = {
    "train": {
        "embedding_dim": "6", "batch_size": "8", "max_epochs": "2", "learning_rate": "0.05",
        "layers": "3", "gate_hidden": "6", "gumbel_temperature": "0.7",
        "contrastive_temperature": "0.3", "alpha1": "0.5", "alpha2": "0.6", "alpha3": "0.7",
        "patience": "1", "prediction_loss": "ce", "weight_decay": "0.001", "init_std": "0.05",
        "hop_radius": "2", "seed": "5",
    },
    "gen-synth": {
        "users": "13", "source_items": "17", "target_items": "15", "latent_dim": "3",
        "entity_clusters": "4", "entity_neighbors": "2", "source_interactions": "7",
        "target_interactions": "5", "rho": "0.2", "seed": "4",
    },
}


def _setting_cases():
    for command, values in SETTING_VALUES.items():
        for option in PARSER_OPTIONS[command]:
            if option[1] in values:
                yield pytest.param(command, option[0], option[1], id=f"{command}{option[0]}")


class TestFlagTables:
    @pytest.mark.parametrize("command", sorted(PARSER_OPTIONS))
    def test_parser_options_are_pinned(self, command):
        subparsers = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert list(subparsers.choices) == list(PARSER_OPTIONS)
        live = [
            (*action.option_strings, action.dest, action.type, action.default,
             action.choices if action.choices is None else tuple(action.choices),
             action.required, action.help)
            for action in subparsers.choices[command]._actions
            if not isinstance(action, argparse._HelpAction)
        ]
        assert live == PARSER_OPTIONS[command]

    def test_every_setting_has_a_value(self):
        assert set(SETTING_VALUES["train"]) == set(_TRAIN_DEFAULTS)
        assert set(SETTING_VALUES["gen-synth"]) == set(_SYNTH_DEFAULTS)

    @pytest.mark.parametrize("command, flag, key", list(_setting_cases()))
    def test_config_file_key_equals_its_flag(self, synth_dir, tmp_path, command, flag, key):
        value = SETTING_VALUES[command][key]
        if command == "train":
            fast = {"--embedding-dim": "8", "--gate-hidden": "8", "--epochs": "1",
                    "--batch-size": "16"}
            base = [*data_flags(synth_dir)]
        else:
            fast = dict(zip(SYNTH_FLAGS[::2], SYNTH_FLAGS[1::2]))
            base = []
        base += [part for item in fast.items() if item[0] != flag for part in item]
        by_flag, by_file = tmp_path / "flag", tmp_path / "file"
        config = tmp_path / "run.conf"
        config.write_text(f"{key} = {value}\n")
        assert main([command, *base, flag, value, "--out", str(by_flag)]) == 0
        assert main([command, *base, "--config", str(config), "--out", str(by_file)]) == 0

        resolved = [json.loads((out / "manifest.json").read_text())["config"]
                    for out in (by_flag, by_file)]
        assert resolved[0] == resolved[1]
        default = (_TRAIN_DEFAULTS if command == "train" else _SYNTH_DEFAULTS)[key]
        assert resolved[0][key] == type(default)(value) != default
        outputs = {"train": ["best.ckpt", "training_log.tsv"], "gen-synth": ["source.tsv", "kg.tsv"]}
        for name in outputs[command]:
            assert (by_flag / name).read_bytes() == (by_file / name).read_bytes()


@pytest.fixture(scope="module")
def every_command(tmp_path_factory):
    """Run all five commands, recording each rename: (output dirs, renames)."""
    root = tmp_path_factory.mktemp("commands")
    dirs = [root / name for name in ("data", "run", "eval", "noisy", "ablation")]
    data, run, evaluated, noisy, ablation = (str(d) for d in dirs)
    files = data_flags(dirs[0])
    renames = []
    real_replace = os.replace

    def recording_replace(src, dst):
        renames.append((Path(src), Path(dst)))
        real_replace(src, dst)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "replace", recording_replace)
        for argv in (
            ["gen-synth", "--out", data, *SYNTH_FLAGS],
            ["train", *files, "--out", run, "--seed", "3", *FAST_TRAIN],
            ["evaluate", "--checkpoint", f"{run}/best.ckpt", *files, "--out", evaluated],
            ["inject-noise", "--source", f"{data}/source.tsv", "--ratio", "0.1", "--out", noisy],
            ["ablate", "--variant", "no-kl", *files, "--out", ablation, *FAST_TRAIN],
        ):
            assert main(argv) == 0, argv[0]
    return dirs, renames


class TestWritePath:
    def test_every_output_is_renamed_into_place(self, every_command):
        dirs, renames = every_command
        for src, dst in renames:
            assert src.parent == dst.parent and src.name.startswith(f".{dst.name}.")
            assert not src.exists()
        destinations = {dst for _, dst in renames}
        for out_dir in dirs:
            on_disk = {path for path in out_dir.rglob("*") if path.is_file()}
            manifest = json.loads((out_dir / "manifest.json").read_text())
            assert on_disk == {Path(name) for name in manifest["outputs"]} | {
                out_dir / "manifest.json"
            }
            assert on_disk <= destinations

    def test_outputs_share_the_plain_open_mode(self, every_command, tmp_path):
        dirs, _ = every_command
        probe = tmp_path / "probe"
        with open(probe, "w"):
            pass
        modes = {path.stat().st_mode & 0o777 for d in dirs for path in d.rglob("*") if path.is_file()}
        assert modes == {probe.stat().st_mode & 0o777}

    @pytest.mark.parametrize(
        "writer", ["save_bundle", "write_flags", "save_checkpoint", "Manifest.write_output"]
    )
    def test_failed_rename_keeps_the_previous_file(
        self, writer, tiny_spec, tmp_path, monkeypatch
    ):
        manifest = cli.Manifest(tmp_path, "test", {})

        def write(seed):
            bundle, flags = generate_synthetic(replace(tiny_spec, seed=seed))
            if writer == "save_bundle":
                save_bundle(bundle, tmp_path)
            elif writer == "write_flags":
                write_flags(tmp_path / "flags.tsv", bundle, flags)
            elif writer == "save_checkpoint":
                config = TrainConfig(embedding_dim=4, gate_hidden=4, seed=seed)
                save_checkpoint(tmp_path / "best.ckpt", init_parameters(config, bundle))
            else:
                manifest.write_output(tmp_path / "metrics.tsv", f"seed\t{seed}\n")

        def contents():
            return {path.name: path.read_bytes() for path in tmp_path.iterdir()}

        write(1)
        before = contents()

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            write(2)
        assert contents() == before  # same bytes, no temporary file left
        monkeypatch.undo()
        write(2)
        assert contents().keys() == before.keys() and contents() != before


def test_every_table_writer_gives_its_exact_text(tmp_path):
    """Each table's whole text on a tiny input: tab-separated fields, every row
    newline-ended, an empty table as no text and a header-only log as one line."""
    bundle = DatasetBundle(
        source=InteractionGraph("source", 2, 2, [(1, 0), (0, 1)]),
        target=InteractionGraph("target", 2, 1, [(0, 0)]),
        kg=KnowledgeLinkage(2, [(0, 1)], [(1, 0)], [(0, 1)]),
        user_ids=["u0", "u1"], source_item_ids=["s0", "s1"], target_item_ids=["t0"],
        entity_ids=["e0", "e1"],
    )
    assert format_pairs(bundle.source.edges, bundle.user_ids, bundle.source_item_ids) == (
        "u1\ts0\nu0\ts1\n")
    assert format_pairs(np.empty((0, 2), dtype=np.int64), [], []) == ""

    written = save_bundle(bundle, tmp_path / "data")
    assert {key: path.read_text(encoding="utf-8") for key, path in written.items()} == {
        "source": "u1\ts0\nu0\ts1\n", "target": "u0\tt0\n", "kg": "e0\te1\n",
        "map_source": "s1\te0\n", "map_target": "t0\te1\n",
        "ids_users": "u0\t0\nu1\t1\n", "ids_items_source": "s0\t0\ns1\t1\n",
        "ids_items_target": "t0\t0\n", "ids_entities": "e0\t0\ne1\t1\n",
    }
    write_flags(tmp_path / "flags.tsv", bundle, np.array([False, True]))
    assert (tmp_path / "flags.tsv").read_text(encoding="utf-8") == (
        "u1\ts0\trelevant\nu0\ts1\tirrelevant\n")

    aggregates = {("ndcg", 10): 0.5, ("hit", 10): 1.0, ("hit", 5): 0.125}
    assert cli._metric_lines(aggregates) == "hit\t5\t0.1250\nhit\t10\t1.0000\nndcg\t10\t0.5000\n"
    assert cli._metric_lines(aggregates, "no-kl") == (
        "no-kl\thit\t5\t0.1250\nno-kl\thit\t10\t1.0000\nno-kl\tndcg\t10\t0.5000\n")

    header = "epoch\tpred_target\tpred_source\tkl\tcontrastive\ttotal\tval_ndcg100\n"
    assert cli._log_lines([]) == header
    log = [EpochRecord(1, LossBundle(0.5, 0.25, 0.125, 1 / 3, 2.0), 12.5),
           EpochRecord(2, LossBundle(0.1, 1e-12, 0.0, 2 / 3, 123456.789), 0.0)]
    assert cli._log_lines(log) == header + (
        "1\t0.5\t0.25\t0.125\t0.3333333333\t2\t12.5\n"
        "2\t0.1\t1e-12\t0\t0.6666666667\t123456.789\t0\n")

    assert cli._ranks_lines([], bundle.user_ids) == "user\trank\n"
    ranks = [RankingResult(1, 3), RankingResult(0, 1)]
    assert cli._ranks_lines(ranks, bundle.user_ids) == "user\trank\nu1\t3\nu0\t1\n"
