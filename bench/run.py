"""crossrec benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload desk-full --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/`` next to
this directory.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  Run records, span files and scratch data go to
``.bench_out/`` at the repository root.  See ``bench/README.md``.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads; the count is reported with
# every result
BLAS_THREADS = 1
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# the checkout stays as it was, apart from .bench_out/
sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# (unit, better) of the end-to-end metrics in BENCHMARK.json; REPORTED ones
# are printed and recorded but carry no bound (see README.md)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_samples_per_s": ("1/s", "higher"),
    "rank_users_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
REPORTED = {"test_ndcg10": ("%", "higher"), "failed_share": ("1", "lower")}


def import_program():
    """Import crossrec from this checkout's ``src/``, or exit 2."""
    if not (SRC / "crossrec" / "__init__.py").is_file():
        print(f"error: no crossrec sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import crossrec

    if Path(crossrec.__file__).resolve().parent != SRC / "crossrec":
        print(f"error: crossrec imported from {crossrec.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}


def compare_record(ledger, record: dict, previous: dict, reference: dict) -> list[str]:
    """Same-seed agreement: a previous run here is a check, the reference a note."""
    notes = []
    keys = ("inputs_sha256", "test_ndcg10")
    if previous:
        changed = [k for k in keys if previous.get(k) != record[k]]
        ledger.check("inputs and test NDCG@10 match the previous run at this seed",
                     not changed, f"mismatch in {changed}")
    if reference:
        changed = [k for k in keys if reference.get(k) != record[k]]
        notes.append("reference: " + (f"CHANGED {changed}" if changed else "match"))
    else:
        notes.append("reference: none recorded for this seed")
    return notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true",
                        help="store this run's input digest and NDCG in reference.json")
    args = parser.parse_args(argv)

    from tracing import BOUNDARIES, Tracer, instrument, layer_calls, layer_metrics
    from workloads import WORKLOADS, Ledger, fastest

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    run_workload, expected_layers = WORKLOADS[args.workload]

    tracer = Tracer()
    instrument(tracer, None if args.trace else BOUNDARIES)
    ledger = Ledger()
    out_dir = OUT / args.workload
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            outcome = run_workload(args.seed, args.seconds, tracer, ledger, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    samples = {"setup_s": outcome.setup_s,
               "train_samples_per_s": outcome.train_samples_per_s,
               "rank_users_per_s": outcome.rank_users_per_s}
    end_to_end = {name: fastest(values, END_TO_END[name][1]) for name, values in samples.items()}
    end_to_end["peak_rss_mb"] = peak_rss_mb
    record_path = out_dir / f"seed{args.seed}.json"
    previous = load_json(record_path)
    record = {"inputs_sha256": outcome.inputs_sha256, "test_ndcg10": outcome.test_ndcg10}
    reference = load_json(REFERENCE).get(args.workload, {}).get(str(args.seed), {})
    notes = compare_record(ledger, record, previous, reference)

    if args.trace:
        calls = layer_calls(tracer)
        silent = [layer for layer in expected_layers if calls[layer] == 0]
        ledger.check("every expected layer records calls", not silent, f"no calls: {silent}")
        tracer.save(out_dir / f"seed{args.seed}-spans.npz")
        untraced = previous.get("trace0", {})
        for name, value in end_to_end.items():
            if untraced.get(name):
                notes.append(f"tracing overhead {name}: {value / untraced[name] - 1:+.1%}")
        if not untraced:
            notes.append("tracing overhead: no untraced run at this seed to compare with")

    failed = len(ledger.failures)
    end_to_end_all = {**end_to_end, "test_ndcg10": outcome.test_ndcg10,
                      "failed_share": failed / max(ledger.attempted, 1)}
    record = {**previous, **record, "blas_threads": BLAS_THREADS,
              f"trace{args.trace}": end_to_end_all, f"samples{args.trace}": samples}
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if args.update_reference:
        stored = load_json(REFERENCE)
        stored.setdefault(args.workload, {})[str(args.seed)] = {
            k: record[k] for k in ("inputs_sha256", "test_ndcg10")}
        REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"blas_threads {BLAS_THREADS} set-ups {len(outcome.setup_s)} "
          f"iterations {outcome.iterations}")
    print(f"inputs_sha256 {outcome.inputs_sha256}")
    for name, (unit, better) in {**END_TO_END, **REPORTED}.items():
        spread = ""
        if samples.get(name):
            spread = (f", best of {len(samples[name])}, median "
                      f"{statistics.median(samples[name]):.6g}")
        print(f"{name} {end_to_end_all[name]:.6g} {unit} ({better} is better{spread})")
    for line in notes + [f"FAILED {failure}" for failure in ledger.failures]:
        print(line)

    if args.trace:
        metrics, note = layer_metrics(tracer, len(outcome.setup_s), outcome.iterations)
        print(note)
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
    else:
        metrics = {name: (value, END_TO_END[name][0]) for name, value in end_to_end.items()}
    print(json.dumps({
        "correct": failed == 0 and all(math.isfinite(v) for v, _ in metrics.values()),
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if math.isfinite(value)},
    }))
    return 0


if __name__ == "__main__":
    import_program()
    sys.exit(main())
