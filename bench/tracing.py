"""Outside-in tracing of crossrec: spans around calls into each module.

Nothing inside ``src/`` is changed.  :func:`instrument` replaces each traced
function with a wrapper in every namespace that binds it: the defining
module, every ``crossrec`` module that imported it by name, and dict values
such as the CLI's handler table.  ``GateNetwork`` methods are replaced on the
class.  Each call records one span (name, start, end, parent, work) in flat
arrays kept in memory; :meth:`Tracer.save` writes them out at exit.

A span's self time is its duration minus the durations of its direct
children.  Per-layer metrics are totals per *pass*: set-up spans divided by
the number of set-ups plus timed-phase spans divided by the number of timed
iterations, so counts repeat exactly and times do not grow with the window.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

SETUP, TIMED, CHECK = 0, 1, 2


class Tracer:
    """In-memory span recorder; wrappers made by :meth:`wrap` append to it.

    The untraced run installs wrappers only at ``BOUNDARIES``, whose wall
    times the end-to-end metrics need.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.phase = array("b")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack: list[int] = []
        self.current_phase = SETUP

    def wrap(self, name: str, fn, work=None):
        ident = self._ids.setdefault(name, len(self.names))
        if ident == len(self.names):
            self.names.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.start)
            self.name_id.append(ident)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.phase.append(self.current_phase)
            self.work.append(work(*args, **kwargs) if work else 0.0)
            self.end.append(0.0)
            self._stack.append(index)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                self._stack.pop()

        return traced

    def durations(self, name: str, phase: int | None = None) -> np.ndarray:
        """Durations of every span called ``name`` (optionally in one phase)."""
        if name not in self._ids:
            return np.zeros(0)
        mask = np.frombuffer(self.name_id, dtype=np.int32) == self._ids[name]
        if phase is not None:
            mask &= np.frombuffer(self.phase, dtype=np.int8) == phase
        return (np.frombuffer(self.end) - np.frombuffer(self.start))[mask]

    def table(self) -> dict[str, np.ndarray]:
        """The span arrays plus derived duration and self time."""
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        children = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=duration.size
        )
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": parent,
            "phase": np.frombuffer(self.phase, dtype=np.int8),
            "start": np.frombuffer(self.start),
            "end": np.frombuffer(self.end),
            "work": np.frombuffer(self.work),
            "duration": duration,
            "self": duration - children[: duration.size],
        }

    def save(self, path: Path) -> None:
        table = self.table()
        np.savez_compressed(
            path, names=np.asarray(self.names), **{k: table[k] for k in
            ("name", "parent", "phase", "start", "end", "work")}
        )


def _propagate_flop(graph, e0, layers, *_, **__):
    return 2.0 * graph.nnz * e0.shape[1] * layers


def _backprop_flop(grad_at_z, state, graph, *_, **__):
    return 2.0 * graph.nnz * grad_at_z.shape[1] * state.layers


def _info_nce_flop(matmuls):
    # each B x B cosine-matrix product costs 2 * B^2 * d
    def flop(e_target_users, mixed, *_, **__):
        b, d = mixed.shape
        return 2.0 * matmuls * b * b * d

    return flop


def _graph_nnz(graph, *_, **__):
    return float(graph.nnz)


# span name -> (defining module, attribute, work function)
TRACED = {
    "data.generate_synthetic": ("crossrec.data", "generate_synthetic", None),
    "data.save_bundle": ("crossrec.data", "save_bundle", None),
    "data.load_bundle": ("crossrec.data", "load_bundle", None),
    "graph.assemble_adjacency": ("crossrec.graph", "assemble_adjacency", None),
    "graph.normalize_symmetric": ("crossrec.graph", "normalize_symmetric", _graph_nnz),
    "encoder.propagate": ("crossrec.encoder", "propagate", _propagate_flop),
    "encoder.backprop_propagate": ("crossrec.encoder", "backprop_propagate", _backprop_flop),
    "compression.merge_representations": ("crossrec.compression", "merge_representations", None),
    "compression.batch_statistics": ("crossrec.compression", "batch_statistics", None),
    "compression.gumbel_sigmoid": ("crossrec.compression", "gumbel_sigmoid", None),
    "compression.mix_noise": ("crossrec.compression", "mix_noise", None),
    "compression.compress_deterministic": ("crossrec.compression", "compress_deterministic", None),
    "compression.kl_upper_bound": ("crossrec.compression", "kl_upper_bound", None),
    "compression.kl_upper_bound_backward": ("crossrec.compression", "kl_upper_bound_backward", None),
    "compression.info_nce": ("crossrec.compression", "info_nce", _info_nce_flop(1)),
    "compression.info_nce_backward": ("crossrec.compression", "info_nce_backward", _info_nce_flop(3)),
    "transfer.bpr_loss": ("crossrec.transfer", "bpr_loss", None),
    "transfer.bpr_loss_backward": ("crossrec.transfer", "bpr_loss_backward", None),
    "transfer.cross_entropy_loss": ("crossrec.transfer", "cross_entropy_loss", None),
    "transfer.cross_entropy_loss_backward": ("crossrec.transfer", "cross_entropy_loss_backward", None),
    "transfer.total_loss": ("crossrec.transfer", "total_loss", None),
    "training.fit": ("crossrec.training", "fit", None),
    "training.train_step": ("crossrec.training", "train_step", None),
    "training.forward_losses": ("crossrec.training", "forward_losses", None),
    "training.backward_losses": ("crossrec.training", "backward_losses", None),
    "training.adagrad_update": ("crossrec.training", "adagrad_update", None),
    "training.sample_batches": ("crossrec.training", "_sample_batches", None),
    "training.validation": ("crossrec.training", "_validation_metric", None),
    "training.build_scorer": ("crossrec.training", "build_scorer", None),
    "training.save_checkpoint": ("crossrec.training", "save_checkpoint", None),
    "training.load_checkpoint": ("crossrec.training", "load_checkpoint", None),
    "evaluation.split_leave_one_out": ("crossrec.evaluation", "split_leave_one_out", None),
    "evaluation.rank_of_held_out": ("crossrec.evaluation", "rank_of_held_out", None),
    "evaluation.evaluate_ranking": ("crossrec.evaluation", "evaluate_ranking", None),
    "experiments.run_ablation": ("crossrec.experiments", "run_ablation", None),
    "experiments.evaluate_fit": ("crossrec.experiments", "evaluate_fit", None),
    "cli.gen_synth": ("crossrec.cli", "cmd_gen_synth", None),
    "cli.train": ("crossrec.cli", "cmd_train", None),
    "cli.evaluate": ("crossrec.cli", "cmd_evaluate", None),
    "cli.manifest_digest": ("crossrec.cli", "sha256_file", None),
}
GATE_METHODS = {"compression.gate_forward": "forward", "compression.gate_backward": "backward"}

# what the untraced run keeps: the wall time of fit and of ranking
BOUNDARIES = ("training.fit", "experiments.evaluate_fit")

LAYERS = ("data", "graph", "encoder", "compression", "transfer", "training",
          "evaluation", "experiments", "cli")


def instrument(tracer: Tracer, names=None) -> None:
    """Wrap the named functions (all of ``TRACED`` by default) everywhere."""
    from crossrec.compression import GateNetwork

    modules = [m for key, m in sorted(sys.modules.items())
               if m is not None and (key == "crossrec" or key.startswith("crossrec."))]
    for name in names if names is not None else list(TRACED) + list(GATE_METHODS):
        if name in GATE_METHODS:
            method = GATE_METHODS[name]
            setattr(GateNetwork, method, tracer.wrap(name, getattr(GateNetwork, method)))
            continue
        home, attribute, work = TRACED[name]
        original = getattr(sys.modules[home], attribute)
        wrapped = tracer.wrap(name, original, work)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                elif isinstance(value, dict):
                    for dict_key, entry in value.items():
                        if entry is original:
                            value[dict_key] = wrapped


def _per_pass(table, select, setups: int, iterations: int, column: str) -> float:
    """Sum ``column`` over the selected spans, per set-up plus per iteration."""
    values = table[column][select]
    phase = table["phase"][select]
    return float(values[phase == SETUP].sum() / max(setups, 1)
                 + values[phase == TIMED].sum() / max(iterations, 1))


# per-layer metric -> (unit, span names, column summed); "count" sums calls
LAYER_METRICS = {
    "encoder.propagate_s": ("s", ["encoder.propagate"], "duration"),
    "encoder.propagate_calls": ("count", ["encoder.propagate"], "count"),
    "encoder.backprop_propagate_s": ("s", ["encoder.backprop_propagate"], "duration"),
    "encoder.backprop_propagate_calls": ("count", ["encoder.backprop_propagate"], "count"),
    "encoder.spmm_flop": ("flop", ["encoder.propagate", "encoder.backprop_propagate"], "work"),
    "compression.info_nce_s": ("s", ["compression.info_nce"], "duration"),
    "compression.info_nce_backward_s": ("s", ["compression.info_nce_backward"], "duration"),
    "compression.info_nce_flop": ("flop", ["compression.info_nce", "compression.info_nce_backward"], "work"),
    "compression.gate_s": ("s", list(GATE_METHODS), "duration"),
    "compression.kl_s": ("s", ["compression.kl_upper_bound", "compression.kl_upper_bound_backward"], "duration"),
    "compression.mix_s": ("s", ["compression.merge_representations", "compression.batch_statistics",
                                "compression.gumbel_sigmoid", "compression.mix_noise",
                                "compression.compress_deterministic"], "duration"),
    "transfer.loss_s": ("s", [n for n in TRACED if n.startswith("transfer.")], "duration"),
    "training.fit_s": ("s", ["training.fit"], "duration"),
    "training.steps": ("count", ["training.train_step"], "count"),
    "training.forward_losses_self_s": ("s", ["training.forward_losses"], "self"),
    "training.backward_losses_self_s": ("s", ["training.backward_losses"], "self"),
    "training.adagrad_update_s": ("s", ["training.adagrad_update"], "duration"),
    "training.sample_batches_s": ("s", ["training.sample_batches"], "duration"),
    "training.validation_self_s": ("s", ["training.validation"], "self"),
    "training.build_scorer_s": ("s", ["training.build_scorer"], "duration"),
    "training.checkpoint_io_s": ("s", ["training.save_checkpoint", "training.load_checkpoint"], "duration"),
    "evaluation.rank_of_held_out_s": ("s", ["evaluation.rank_of_held_out"], "duration"),
    "evaluation.rank_of_held_out_calls": ("count", ["evaluation.rank_of_held_out"], "count"),
    "evaluation.evaluate_ranking_s": ("s", ["evaluation.evaluate_ranking"], "duration"),
    "evaluation.split_leave_one_out_s": ("s", ["evaluation.split_leave_one_out"], "duration"),
    "data.generate_synthetic_s": ("s", ["data.generate_synthetic"], "duration"),
    "data.save_bundle_s": ("s", ["data.save_bundle"], "duration"),
    "data.load_bundle_s": ("s", ["data.load_bundle"], "duration"),
    "graph.build_s": ("s", ["graph.assemble_adjacency", "graph.normalize_symmetric"], "duration"),
    "experiments.evaluate_fit_s": ("s", ["experiments.evaluate_fit"], "duration"),
    "cli.manifest_digest_s": ("s", ["cli.manifest_digest"], "duration"),
    "cli.gen_synth_s": ("s", ["cli.gen_synth"], "duration"),
    "cli.train_s": ("s", ["cli.train"], "duration"),
    "cli.evaluate_s": ("s", ["cli.evaluate"], "duration"),
}


def tail_percentile(samples: int) -> float:
    """Highest of p99/p90/p50 with at least ten samples beyond it, else 100."""
    for pct in (99.0, 90.0, 50.0):
        if samples * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 100.0


def layer_metrics(tracer: Tracer, setups: int, iterations: int):
    """Every per-layer metric as ``name -> (value, unit)``, plus a note on the tail."""
    table = tracer.table()
    table["count"] = np.ones(table["name"].size)
    ids = {name: i for i, name in enumerate(tracer.names)}
    metrics = {}
    for metric, (unit, spans, column) in LAYER_METRICS.items():
        select = np.isin(table["name"], [ids[s] for s in spans if s in ids])
        metrics[metric] = (_per_pass(table, select, setups, iterations, column), unit)

    steps_ms = 1000.0 * tracer.durations("training.train_step", TIMED)
    tail = tail_percentile(steps_ms.size)
    if steps_ms.size:
        metrics["training.train_step_ms_p50"] = (float(np.percentile(steps_ms, 50)), "ms")
        metrics["training.train_step_ms_p99"] = (float(np.percentile(steps_ms, tail)), "ms")
    note = f"training.train_step_ms_p99 is p{tail:g} of {steps_ms.size} timed steps"

    nnz = table["work"][table["name"] == ids.get("graph.normalize_symmetric", -1)]
    metrics["graph.nnz"] = (float(nnz.max()) if nnz.size else 0.0, "count")
    return metrics, note


def layer_calls(tracer: Tracer) -> dict[str, int]:
    """Number of spans recorded per layer outside the check phase."""
    table = tracer.table()
    names = np.asarray([n.split(".", 1)[0] for n in tracer.names] or [""])
    layers = names[table["name"][table["phase"] != CHECK]]
    return {layer: int((layers == layer).sum()) for layer in LAYERS}
