"""Reach report: the lines of ``src/crossrec`` that no caller outside the tests runs.

    python3 tools/reach.py

Run from the repository root.  Each caller runs in its own Python process
with a ``sys.settrace`` line recorder on the package's code (Python 3.11 has
no ``sys.monitoring``):

- the command block of README.md's "Command line" section, as one process;
- ``ablate`` for every variant with ``--loss bpr`` and ``--loss ce``, and
  for ``target-only`` and ``no-kg`` (the variants that allow it) at
  ``--layers 0``, at ``--epochs 3`` on the data that block generated;
- ``train`` then ``evaluate`` on that data, each reading its settings from
  a ``--config`` file that the caller writes into the work directory;
- every demo under ``demos/``, the only callers of the public API outside
  the tests;
- ``bench/run.py --seed 1 --seconds 2`` for every workload in
  BENCHMARK.json, with ``--trace 0`` and ``--trace 1``, one at a time (it
  writes only to ``.bench_out/``).  The benchmark reaches into the library
  by name (the traced functions, the per-user item index).  Traced
  ``desk-full`` runs the cross step, so the check that every expected layer
  records calls sees compression; ``target-only`` never calls it.
  ``mid-cli`` brute-forces the ranks that ``crossrec evaluate`` wrote to
  ``ranks.tsv`` from the checkpoint; it is the only workload that reaches
  the cli commands and the checkpoint reader and writer by name, so it runs
  traced as well.

Commands and demos run in a temporary directory.  The report lists, per
module, the executable lines (from the code objects' ``co_lines()``) that no
caller reached, with their text.  It exits 1 if a caller exits nonzero, or a
benchmark run's last line of output is not a JSON object with ``"correct":
true``: the callers then did not run as they should, and their reach would
be partial.  Tracing makes the callers several times slower; the whole run
takes some minutes on two cores.
"""

from __future__ import annotations

import argparse
import json
import os
import runpy
import shlex
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "crossrec"
ABLATE_EPOCHS = "3"
# callers traced at once, apart from the benchmark runs
JOBS = 2


def code_lines(code) -> set[int]:
    """The lines a code object's own instructions carry (line 0 is the module's entry)."""
    return {line for _, _, line in code.co_lines() if line}


def executable_lines(path: Path) -> set[int]:
    """The lines of every code object compiled from ``path``."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines |= code_lines(code)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def run_traced(caller: dict, out: Path) -> int:
    """Run one caller with the line recorder on and write the lines it reached to ``out``."""
    prefix = str(PACKAGE) + os.sep
    reached: set[tuple[str, int]] = set()
    unseen: dict = {}  # code object -> its lines not yet reached

    def on_line(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
            unseen[frame.f_code].discard(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        if code not in unseen:
            # the first line is the def (or decorator) line the caller ran
            reached.add((code.co_filename, code.co_firstlineno))
            unseen[code] = code_lines(code) - {code.co_firstlineno}
        return on_line if unseen[code] else None

    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = True
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        if caller["kind"] == "cli":
            from crossrec.cli import main

            for argv in caller["argvs"]:  # in order, up to the first that fails
                code = main(argv)
                if code:
                    break
        else:
            # as ``python <script>`` does: its own directory first on the path
            sys.path.insert(0, str(Path(caller["path"]).parent))
            sys.argv = [caller["path"], *caller["argv"]]
            try:
                runpy.run_path(caller["path"], run_name="__main__")
                code = 0
            except SystemExit as stop:
                code = stop.code if isinstance(stop.code, int) else int(stop.code is not None)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    lines: dict[str, list[int]] = {}
    for filename, line in reached:
        lines.setdefault(str(Path(filename).resolve().relative_to(SRC)), []).append(line)
    out.write_text(json.dumps({"exit": code, "lines": lines}), encoding="utf-8")
    return code


def readme_commands() -> list[list[str]]:
    """The ``crossrec`` commands of README.md's command-line block, as argument lists."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text[text.index("## Command line"):].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words:
            if words[0] != "crossrec":
                raise ValueError(f"README command is not a crossrec command: {line!r}")
            commands.append(words[1:])
    return commands


def callers() -> tuple[dict, list[dict], list[dict]]:
    """The README block (it writes the data ``ablate`` reads), the other commands and
    demos, and the benchmark runs (runs of one workload share ``.bench_out/<workload>/``)."""
    sys.path.insert(0, str(SRC))
    from crossrec.experiments import VARIANTS
    from crossrec.training import PREDICTION_LOSSES

    data = [flag for name in ("source", "target", "kg", "map_source", "map_target")
            for flag in (f"--{name.replace('_', '-')}", f"data/{name}.tsv")]
    rest = [{"name": f"ablate {variant} {loss}", "kind": "cli", "argvs": [[
        "ablate", "--variant", variant, "--loss", loss, "--epochs", ABLATE_EPOCHS, *data,
        "--out", f"ablate-{variant}-{loss}/", "--seed", "7"]]}
        for variant in VARIANTS for loss in PREDICTION_LOSSES]
    rest += [{"name": f"ablate {variant} layers 0", "kind": "cli", "argvs": [[
        "ablate", "--variant", variant, "--layers", "0", "--epochs", ABLATE_EPOCHS, *data,
        "--out", f"ablate-{variant}-layers-0/", "--seed", "7"]]}
        for variant in ("target-only", "no-kg")]
    rest.append({"name": "train and evaluate with --config", "kind": "cli",
                 "files": {"run.cfg": f"# settings file\nmax_epochs = {ABLATE_EPOCHS}\nseed = 7\n"},
                 "argvs": [["train", *data, "--config", "run.cfg", "--out", "config-train/"],
                           ["evaluate", "--checkpoint", "config-train/best.ckpt", *data,
                            "--config", "run.cfg", "--out", "config-evaluate/"]]})
    rest += [{"name": demo.name, "kind": "script", "path": str(demo), "argv": []}
             for demo in sorted((ROOT / "demos").glob("*.py"))]
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
    bench = [{"name": f"bench {workload['name']} trace {trace}", "kind": "script", "bench": True,
              "path": str(ROOT / "bench" / "run.py"),
              "argv": ["--workload", workload["name"], "--seed", "1", "--seconds", "2",
                       "--trace", trace]}
             for workload in workloads for trace in ("0", "1")]
    readme = {"name": "README command block", "kind": "cli", "argvs": readme_commands()}
    return readme, rest, bench


def reports_correct(stdout: str) -> bool:
    """Whether the last line of a benchmark run's output is a JSON object with ``"correct": true``."""
    try:
        result = json.loads(stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return False
    return isinstance(result, dict) and result.get("correct") is True


def launch(caller: dict, index: int, work: Path) -> dict:
    """Run one caller in a child process; its record, exit code and wall time.

    A benchmark run that does not report ``"correct": true`` counts as exit 1.
    """
    record = work / f"reach-{index}.json"
    for name, text in caller.get("files", {}).items():
        (work / name).write_text(text, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.perf_counter()
    command = [sys.executable, str(Path(__file__).resolve()), "--record", str(record),
               json.dumps(caller)]
    child = subprocess.run(
        command, cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    seconds = time.perf_counter() - start
    result = json.loads(record.read_text(encoding="utf-8")) if record.is_file() else {}
    code = result.get("exit", child.returncode) or child.returncode
    if not code and caller.get("bench") and not reports_correct(child.stdout):
        code = 1
    print(f"{caller['name']}: exit {code}, {seconds:.0f} s", flush=True)
    if code:
        print(child.stdout[-2000:] + child.stderr[-2000:], file=sys.stderr)
    return {"exit": code, "lines": result.get("lines", {})}


def report(results: list[dict]) -> None:
    """Print each module's unreached executable lines and the count of them all."""
    reached: dict[str, set[int]] = {}
    for result in results:
        for module, lines in result["lines"].items():
            reached.setdefault(module, set()).update(lines)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        module = str(path.relative_to(SRC))
        executable = executable_lines(path)
        missed = sorted(executable - reached.get(module, set()))
        total += len(missed)
        print(f"\n{module}: {len(missed)} of {len(executable)} executable lines unreached")
        text = path.read_text(encoding="utf-8").splitlines()
        for line in missed:
            print(f"  {line:5d}  {text[line - 1].strip()}")
    print(f"\n{total} executable lines unreached")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", help=argparse.SUPPRESS)
    parser.add_argument("caller", nargs="?", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record:
        return run_traced(json.loads(args.caller), Path(args.record))

    readme, rest, bench = callers()
    with tempfile.TemporaryDirectory(prefix="crossrec-reach-") as work:
        results = [launch(readme, 0, Path(work))]
        with ThreadPoolExecutor(JOBS) as pool:
            results += pool.map(launch, rest, range(1, len(rest) + 1), [Path(work)] * len(rest))
        results += [launch(caller, len(results), Path(work)) for caller in bench]
    report(results)
    failed = [result for result in results if result["exit"]]
    if failed:
        print(f"{len(failed)} callers failed, so the reach is partial", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
