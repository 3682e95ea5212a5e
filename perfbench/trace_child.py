"""Run one polsp CLI command with its layer boundaries wrapped from outside.

Usage:  python3 trace_child.py TRACE.json CLI-ARGS...

Each wrapper is installed by rebinding every module attribute that holds
the original function (``polsp.dispersion.photon_frequencies``,
``polsp.hopfield.validate``, ...), which is where its callers look it up;
the package itself is not modified.  Boundaries crossed a few times per
command (command, config parsing, sweep, per-q solve, scan_roots,
overlap_K, matrix build, diagonalize, KK transforms) record a span.  The
per-evaluation boundaries (the scan evaluator, ``validate``,
``photon_frequencies``) record only a call count and summed time, so a
traced sweep does not hold a quarter of a million spans.

The trace is written as JSON: ``counts`` and ``seconds`` per boundary,
``spans`` as [id, name, start, end, parent], and a few problem sizes.  The
exit code is the CLI's.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import polsp
from polsp import cli, dispersion, hopfield, kk, model, modes

_MODULES = (polsp, cli, dispersion, hopfield, kk, model, modes)


class Tracer:
    """Counters, summed times and spans of one traced command."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.local = threading.local()
        self.counts: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        # summed over calls: pole-free segments, roots found, distinct
        # abscissae per scan; largest over calls: matrix and KK grid sizes
        self.totals = {"segments": 0, "roots": 0, "unique_evals": 0}
        self.largest = {"matrix_dim": 0, "grid_points": 0}
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.ids = itertools.count()
        self.main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def _add(self, name: str, dt: float) -> None:
        with self.lock:
            self.counts[name] += 1
            self.seconds[name] += dt

    def span(self, name: str, fn):
        """Wrap fn so each call records a span and adds to the counters."""
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # a pool worker starts with an empty stack; its caller is the
            # span open on the main thread (the sweep)
            source = stack or self.main_stack
            parent = source[-1] if source else None
            sid = next(self.ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent))
                self._add(name, end - start)
        return wrapper

    def counter(self, name: str, fn):
        """Wrap fn so each call adds to a count and a summed time only."""
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add(name, time.perf_counter() - start)
        return wrapper

    def phase(self, name: str, fn):
        """Wrap a scan stage so evaluator calls inside it count under name."""
        def wrapper(*args, **kwargs):
            self.local.phase = name
            try:
                return fn(*args, **kwargs)
            finally:
                self.local.phase = None
        return wrapper

    def scan_roots(self, fn):
        """Wrap scan_roots: a span, plus a counting wrapper on its evaluator."""
        spanned = self.span("dispersion.scan_roots", fn)

        def wrapper(f, *args, **kwargs):
            seen: set = set()

            def evaluator(x):
                start = time.perf_counter()
                try:
                    return f(x)
                finally:
                    dt = time.perf_counter() - start
                    phase = getattr(self.local, "phase", None)
                    with self.lock:
                        self.counts["dispersion.eval"] += 1
                        self.seconds["dispersion.eval"] += dt
                        if phase:
                            self.counts[f"dispersion.eval.{phase}"] += 1
                        seen.add(x)

            roots = spanned(evaluator, *args, **kwargs)
            with self.lock:
                self.totals["roots"] += len(roots)
                self.totals["unique_evals"] += len(seen)
            return roots
        return wrapper

    def sized(self, key: str, measure, fn):
        """Wrap fn so measure(args, result) is summed into totals[key] or
        kept as the largest in largest[key], whichever holds the key."""
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            size = measure(args, result)
            with self.lock:
                if key in self.totals:
                    self.totals[key] += size
                else:
                    self.largest[key] = max(self.largest[key], size)
            return result
        return wrapper

    def to_json(self) -> dict:
        return {"counts": dict(self.counts), "seconds": dict(self.seconds),
                "totals": self.totals, "largest": self.largest,
                "spans": self.spans}


def rebind(original, wrapper) -> None:
    """Point every polsp module attribute holding original at wrapper."""
    for module in _MODULES:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    span, counter = tracer.span, tracer.counter
    rebind(cli.load_config, span("cli.parse_config", cli.load_config))
    rebind(dispersion.sweep, span("dispersion.sweep", dispersion.sweep))
    rebind(dispersion._roots_for_method,
           span("dispersion.solve", dispersion._roots_for_method))
    for name in ("secular_roots", "green_roots", "classical_roots",
                 "one_exciton_roots", "two_exciton_roots"):
        original = getattr(dispersion, name)
        rebind(original, span(f"dispersion.{name}", original))
    rebind(dispersion.scan_roots, tracer.scan_roots(dispersion.scan_roots))
    rebind(dispersion._brackets, tracer.phase("scan", dispersion._brackets))
    rebind(dispersion._bisect_sign, tracer.phase("bisect", dispersion._bisect_sign))
    rebind(dispersion.pole_free_segments, tracer.sized(
        "segments", lambda _args, segments: len(segments),
        dispersion.pole_free_segments))
    rebind(modes.overlap_K, span("modes.overlap_K", modes.overlap_K))
    rebind(modes.photon_frequencies,
           counter("modes.photon_frequencies", modes.photon_frequencies))
    rebind(model.validate, counter("model.validate", model.validate))
    rebind(hopfield.build_dynamical_matrix, tracer.sized(
        "matrix_dim", lambda _args, dyn: dyn.matrix.shape[0],
        span("hopfield.build", hopfield.build_dynamical_matrix)))
    rebind(hopfield.diagonalize, span("hopfield.diagonalize", hopfield.diagonalize))
    for direction in ("forward", "inverse"):
        original = getattr(kk, f"kk_{direction}")
        rebind(original, tracer.sized(
            "grid_points", lambda args, _result: len(args[0]),
            span(f"kk.{direction}", original)))


def main(argv: list[str]) -> int:
    trace_path, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    install(tracer)
    code = tracer.span("cli.command", cli.main)(cli_args)
    trace_path.write_text(json.dumps(tracer.to_json()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
