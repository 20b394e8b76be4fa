"""Paired A/B benchmark: a git revision against the working tree, run alternately.

    python3 tools/abtest.py <rev> [--pairs 5] [--workload NAME ...]

Run from the repository root.  ``<rev>`` is checked out with ``git worktree
add --detach`` into a temporary directory, which is removed when the run
ends, however it ends.  For every workload (by default all of those in
BENCHMARK.json), pair ``i`` runs ``bench/run.py --trace 0 --seconds
<run_seconds>`` at seed ``i`` once in that tree and once in the working
tree, one process at a time; the order alternates from pair to pair, so a
drift of the host's load weighs on both sides alike.  Each run's last line
of output must be a JSON object with ``"correct": true``, or the comparison
stops with exit 1.

For each end-to-end metric of BENCHMARK.json it prints both medians, the
relative change, the revision's interquartile range as a share of its
median, the pairs the working tree won and a two-sided sign-test p-value
(ties left out).  It writes ``BENCH_<workload>.json`` at the repository
root with every run's value, the medians and interquartile ranges, both
revisions (``git rev-parse``; the working tree's is HEAD, with a flag for
uncommitted changes) and ``cli.numeric_environment()``.
"""

from __future__ import annotations

import os

# as bench/run.py does, so numeric_environment() reports the benchmark's
# BLAS thread count
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BASE, CHANGE = "base", "change"


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` process in ``tree``; its metrics, or exit 1 if not correct."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    child = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True)
    try:
        result = json.loads(child.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        result = {}
    if child.returncode or not isinstance(result, dict) or result.get("correct") is not True:
        print(child.stdout[-2000:] + child.stderr[-2000:], file=sys.stderr)
        sys.exit(f"error: {workload} seed {seed} in {tree} did not report correct: true")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile, interpolated between order statistics."""
    if len(values) < 2:
        return values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4, method="inclusive")
    return first, third


def sign_test(wins: int, losses: int) -> float:
    """Two-sided sign-test p-value of ``wins`` against ``losses``."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1)) / 2**n
    return min(1.0, 2 * tail)


def compare(values: dict[str, list[float]], better: str) -> dict:
    """Medians, interquartile ranges, the change's wins and the sign test of one metric."""
    summary = {}
    for side in (BASE, CHANGE):
        first, third = quartiles(values[side])
        summary[side] = {"median": statistics.median(values[side]), "iqr": third - first,
                         "values": values[side]}
    sign = 1 if better == "higher" else -1
    differences = [sign * (c - b) for b, c in zip(values[BASE], values[CHANGE])]
    wins = sum(d > 0 for d in differences)
    losses = sum(d < 0 for d in differences)
    return {**summary, "wins": wins, "losses": losses, "sign_test_p": sign_test(wins, losses)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision to compare the working tree against")
    parser.add_argument("--pairs", type=int, default=5, help="runs of each tree per workload")
    parser.add_argument("--workload", action="append",
                        help="a workload of BENCHMARK.json (repeatable; default all)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = [workload["name"] for workload in benchmark["workloads"]]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"unknown workloads {unknown}; choose from {known}")
    metrics = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]

    sys.path.insert(0, str(ROOT / "src"))
    from crossrec.cli import numeric_environment

    revisions = {BASE: {"revision": git("rev-parse", f"{args.rev}^{{commit}}")},
                 CHANGE: {"revision": git("rev-parse", "HEAD"),
                          "uncommitted_changes": bool(git("status", "--porcelain"))}}
    environment = numeric_environment()
    # a terminated run still removes its worktree: SystemExit unwinds to the finally
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(f"terminated by signal {signum}"))
    worktree = Path(tempfile.mkdtemp(prefix="crossrec-abtest-")) / "tree"
    try:
        git("worktree", "add", "--detach", str(worktree), revisions[BASE]["revision"])
        trees = {BASE: worktree, CHANGE: ROOT}
        for workload in workloads:
            runs = {BASE: [], CHANGE: []}
            for pair in range(args.pairs):
                seed = pair + 1
                for side in (BASE, CHANGE) if pair % 2 == 0 else (CHANGE, BASE):
                    runs[side].append(bench_run(trees[side], workload, seed, seconds))
                print(f"{workload} pair {seed}: " + ", ".join(
                    f"{side} {name} {runs[side][-1][name]:.6g}"
                    for name in metrics for side in (BASE, CHANGE)), flush=True)
            results = {name: {"unit": metric["unit"], "better": metric["better"],
                              **compare({side: [run[name] for run in runs[side]]
                                         for side in runs}, metric["better"])}
                       for name, metric in metrics.items()}
            print(f"\n{workload}: {args.pairs} pairs of {seconds}-s runs, seeds 1-{args.pairs}")
            print(f"{'metric':<22}{'base median':>14}{'change median':>15}{'change':>9}"
                  f"{'base IQR':>10}{'wins':>7}{'sign p':>8}")
            for name, result in results.items():
                base, change = result[BASE]["median"], result[CHANGE]["median"]
                print(f"{name:<22}{base:>14.6g}{change:>15.6g}{change / base - 1:>+9.1%}"
                      f"{result[BASE]['iqr'] / base:>10.1%}"
                      f"{result['wins']:>4}/{args.pairs:<2}{result['sign_test_p']:>8.3f}")
            print()
            record = {"workload": workload, "pairs": args.pairs, "run_seconds": seconds,
                      "seeds": list(range(1, args.pairs + 1)), "revisions": revisions,
                      "numeric_environment": environment, "metrics": results}
            (ROOT / f"BENCH_{workload}.json").write_text(
                json.dumps(record, indent=2) + "\n", encoding="utf-8")
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(worktree)], cwd=ROOT)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT)
        shutil.rmtree(worktree.parent, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
