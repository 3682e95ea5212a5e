"""polsp benchmark: CLI workloads timed end to end, plus a traced layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed sequence of ``polsp`` CLI commands (see
workloads.py) run as child processes of this one, on inputs generated
from the seed.  With ``--trace 0`` the sequence is repeated for about
``--seconds`` seconds and the end-to-end metrics are medians over the
repetitions.  With ``--trace 1`` one sequence runs under trace_child.py,
which wraps each polsp module's public functions from outside, and the
per-layer metrics come from that run; untraced repetitions fill the rest
of the time and give the tracing overhead.

Every output is checked after the timed region.  The last line of stdout
is one JSON object: correct, attempted, failed and metrics.  The line
before it records the run environment.  Child processes run with BLAS
and OpenMP pinned to one thread, so ``--threads`` is the only
parallelism, and a sampler checks that no child holds more threads than its
``--threads`` workers and its main thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 7
SAMPLE_INTERVAL = 0.1  # seconds between thread samples of a child

# the set-up child: import polsp, load the workload config, build overlaps
SETUP_CODE = """\
import sys
from polsp import cli, modes
config, _ = cli.load_config(sys.argv[1])
modes.overlap_K(config)
print(cli.__file__)
"""

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, Command  # noqa: E402


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

class ThreadSampler(threading.Thread):
    """Samples a child's thread count until stopped and keeps the largest."""

    def __init__(self, pid: int) -> None:
        super().__init__(daemon=True)
        self.tasks = Path(f"/proc/{pid}/task")
        self.stop = threading.Event()
        self.max_threads = 0

    def run(self) -> None:
        while True:
            try:
                threads = sum(1 for _ in self.tasks.iterdir())
            except OSError:
                return  # the process is gone
            self.max_threads = max(self.max_threads, threads)
            if self.stop.wait(SAMPLE_INTERVAL):
                return


@dataclass
class ChildResult:
    exit_code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    max_threads: int
    stdout: str
    log: Path


def run_child(argv: list[str], env: dict, log: Path) -> ChildResult:
    """Run one child to completion; its own rusage comes from wait4."""
    with log.open("wb") as err, log.with_suffix(".out").open("w+b") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        sampler = ThreadSampler(proc.pid)
        sampler.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            sampler.stop.set()
            sampler.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode("utf-8", "replace")
    return ChildResult(exit_code=proc.returncode, wall_s=wall,
                       cpu_s=usage.ru_utime + usage.ru_stime,
                       maxrss_mb=usage.ru_maxrss / 1024.0,
                       max_threads=sampler.max_threads, stdout=stdout, log=log)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------

@dataclass
class Sequence:
    directory: Path
    children: list[ChildResult] = field(default_factory=list)
    wall_s: float = 0.0
    traces: list[Path] = field(default_factory=list)

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.children)

    @property
    def peak_rss_mb(self) -> float:
        return max(c.maxrss_mb for c in self.children)


def run_sequence(commands: list[Command], directory: Path, env: dict,
                 traced: bool) -> Sequence:
    directory.mkdir(parents=True)
    seq = Sequence(directory)
    start = time.perf_counter()
    for k, command in enumerate(commands):
        args = [a.replace("{seq}", str(directory)) for a in command.argv]
        args += ["--out", str(directory / command.out)]
        if traced:
            trace = directory / f"trace{k}.json"
            seq.traces.append(trace)
            argv = [sys.executable, str(HERE / "trace_child.py"), str(trace), *args]
        else:
            argv = [sys.executable, "-m", "polsp.cli", *args]
        seq.children.append(run_child(argv, env, directory / f"stderr{k}.txt"))
    seq.wall_s = time.perf_counter() - start
    return seq


def timed_sequences(commands: list[Command], run_dir: Path, env: dict,
                    budget: float) -> list[Sequence]:
    """Repeat the sequence while another one is expected to fit the budget."""
    seqs: list[Sequence] = []
    start = time.perf_counter()
    while True:
        seqs.append(run_sequence(commands, run_dir / f"seq{len(seqs)}",
                                 env, traced=False))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(s.wall_s for s in seqs) > budget:
            return seqs


def measure_setup(config: Path, run_dir: Path, env: dict) -> list[float]:
    samples = []
    for k in range(SETUP_SAMPLES):
        child = run_child([sys.executable, "-c", SETUP_CODE, str(config)], env,
                          run_dir / f"setup{k}.txt")
        loaded_from = Path(child.stdout.strip() or ".").resolve()
        if child.exit_code != 0 or SRC.resolve() not in loaded_from.parents:
            raise SystemExit(f"set-up failed (exit {child.exit_code}); polsp was "
                             f"loaded from {child.stdout.strip() or 'nowhere'}, "
                             f"expected {SRC}; see {run_dir / f'setup{k}.txt'}")
        samples.append(child.wall_s)
    return samples


# ---------------------------------------------------------------------------
# per-layer metrics from the traced sequence
# ---------------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def self_time(spans: list, name: str) -> float:
    """Summed duration of the named spans minus what their children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _sid, _name, start, end, parent in spans:
        children.setdefault(parent, []).append((start, end))
    return sum(end - start - _covered(children.get(sid, []))
               for sid, span_name, start, end, _parent in spans if span_name == name)


def layer_metrics(seq: Sequence, threads: int) -> dict[str, tuple[float, str]]:
    """Aggregate the traces of one sequence's commands into layer metrics."""
    counts, seconds, totals = Counter(), Counter(), Counter()
    largest = {"matrix_dim": 0, "grid_points": 0}
    export_s = 0.0
    for path in seq.traces:
        if not path.is_file():
            continue  # the command failed; its failure is reported as such
        trace = json.loads(path.read_text(encoding="utf-8"))
        counts.update(trace["counts"])
        seconds.update(trace["seconds"])
        totals.update(trace["totals"])
        for key in largest:
            largest[key] = max(largest[key], trace["largest"][key])
        # command time not covered by parsing or solver calls
        export_s += self_time(trace["spans"], "cli.command")
    c, s = counts.__getitem__, seconds.__getitem__
    evals, roots = c("dispersion.eval"), totals["roots"]
    sweep_s = s("dispersion.sweep")
    return {
        "dispersion.evals": (evals, "count"),
        "dispersion.scan_evals": (c("dispersion.eval.scan"), "count"),
        "dispersion.bisect_evals": (c("dispersion.eval.bisect"), "count"),
        "dispersion.unique_eval_frac": (totals["unique_evals"] / evals if evals else 0.0, "1"),
        "dispersion.evals_per_root": (evals / roots if roots else 0.0, "count"),
        "dispersion.eval_s": (s("dispersion.eval"), "s"),
        "dispersion.eval_us": (1e6 * s("dispersion.eval") / evals if evals else 0.0, "us"),
        "dispersion.scan_self_s": (s("dispersion.scan_roots") - s("dispersion.eval"), "s"),
        "dispersion.scan_roots.calls": (c("dispersion.scan_roots"), "count"),
        "dispersion.segments": (totals["segments"], "count"),
        "dispersion.roots": (roots, "count"),
        "dispersion.sweep_s": (sweep_s, "s"),
        "dispersion.solve_s": (s("dispersion.solve"), "s"),
        "dispersion.parallel_eff": (
            s("dispersion.solve") / (threads * sweep_s) if sweep_s else 0.0, "1"),
        "model.validate.calls": (c("model.validate"), "count"),
        "model.validate_s": (s("model.validate"), "s"),
        "modes.photon_frequencies.calls": (c("modes.photon_frequencies"), "count"),
        "modes.photon_frequencies_s": (s("modes.photon_frequencies"), "s"),
        "modes.overlap_K.calls": (c("modes.overlap_K"), "count"),
        "modes.overlap_K_s": (s("modes.overlap_K"), "s"),
        "hopfield.build.calls": (c("hopfield.build"), "count"),
        "hopfield.build_s": (s("hopfield.build"), "s"),
        "hopfield.diagonalize.calls": (c("hopfield.diagonalize"), "count"),
        "hopfield.diagonalize_s": (s("hopfield.diagonalize"), "s"),
        "hopfield.matrix_dim": (largest["matrix_dim"], "count"),
        "kk.forward_s": (s("kk.forward"), "s"),
        "kk.inverse_s": (s("kk.inverse"), "s"),
        "kk.grid_points": (largest["grid_points"], "count"),
        "cli.parse_config_s": (s("cli.parse_config"), "s"),
        "cli.export_s": (export_s, "s"),
        "cli.commands": (c("cli.command"), "count"),
    }


# ---------------------------------------------------------------------------
# environment and entry point
# ---------------------------------------------------------------------------

def environment(cores: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": cores, "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "machine": platform.machine(), "pinned": PINNED_THREADS}


def _failures(workload, inputs: dict, commands: list[Command],
              checked: list[Sequence], cores: int) -> dict[int, list[str]]:
    """Problems per operation, indexed in sequence-then-command order.

    Besides the output checks, a command may ask for at most as many
    worker threads as there are cores, and its process may hold no thread
    beyond those workers and the main thread: a BLAS or OpenMP pool that
    ignored the pinning would show up here.
    """
    children = [c for s in checked for c in s.children]
    try:
        problems = workload.check(inputs, [s.directory for s in checked])
    except Exception:  # the checks call the program under test, which may raise
        message = traceback.format_exc(limit=-1).strip().splitlines()[-1]
        problems = {k: [f"output check raised {message}"] for k in range(len(children))}
    for k, child in enumerate(children):
        found = problems.setdefault(k, [])
        if child.exit_code != 0:
            found.append(f"exit code {child.exit_code}, see {child.log}")
        workers = commands[k % len(commands)].threads
        allowed = 1 + workers if workers > 1 else 1
        if workers > cores or child.max_threads > allowed:
            found.append(f"{child.max_threads} threads for --threads {workers} "
                         f"on {cores} cores")
    return {k: v for k, v in problems.items() if v}


def end_to_end_metrics(seqs: list[Sequence], setup: list[float],
                       ok_frac: float) -> dict[str, tuple[float, str]]:
    median = statistics.median
    return {
        "wall_s": (median(s.wall_s for s in seqs), "s"),
        "cpu_s": (median(s.cpu_s for s in seqs), "s"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (median(s.peak_rss_mb for s in seqs), "MiB"),
        "ok_frac": (ok_frac, "1"),
    }


def traced_metrics(traced: Sequence, seqs: list[Sequence],
                   commands: list[Command]) -> dict[str, tuple[float, str]]:
    metrics = layer_metrics(traced, max(c.threads for c in commands))
    untraced = statistics.median(s.wall_s for s in seqs)
    metrics["trace.wall_s"] = (traced.wall_s, "s")
    metrics["trace.overhead_s"] = (traced.wall_s - untraced, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still stops and reaps its running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "polsp" / "cli.py").is_file():
        print(f"error: no polsp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the output checks call polsp directly

    workload = WORKLOADS[args.workload]
    cores = len(os.sched_getaffinity(0))
    env = child_env()
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "inputs").mkdir(parents=True)
    inputs = workload.make_inputs(random.Random(args.seed), run_dir / "inputs")
    commands = workload.commands(inputs)

    setup = measure_setup(inputs["config"], run_dir, env)
    traced = []
    if args.trace:
        traced.append(run_sequence(commands, run_dir / "traced", env, traced=True))
    budget = args.seconds - sum(s.wall_s for s in traced)
    seqs = timed_sequences(commands, run_dir, env, budget)

    # outside the timed region: check every output of every sequence
    checked = seqs + traced
    problems = _failures(workload, inputs, commands, checked, cores)
    ops = [(command, child) for s in checked
           for command, child in zip(commands, s.children)]
    if args.trace:
        metrics = traced_metrics(traced[0], seqs, commands)
    else:
        metrics = end_to_end_metrics(seqs, setup, 1.0 - len(problems) / len(ops))

    record = {
        "environment": environment(cores),
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "sequence_wall_s": [s.wall_s for s in seqs],
        "setup_samples_s": setup,
        "operations": [{"command": command.argv[0], "exit_code": child.exit_code,
                        "wall_s": child.wall_s, "max_threads": child.max_threads}
                       for command, child in ops],
        "problems": {str(k): v for k, v in sorted(problems.items())},
        "metrics": metrics,
    }
    (WORK / f"{run_dir.name}.json").write_text(json.dumps(record, indent=1) + "\n",
                                               encoding="utf-8")
    if not problems:
        shutil.rmtree(run_dir)
    for k, found in sorted(problems.items()):
        print(f"operation {k} ({ops[k][0].argv[0]}): {'; '.join(found)}", file=sys.stderr)
    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps({"correct": not problems, "attempted": len(ops),
                      "failed": len(problems),
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
