"""The per-layer tracer in perfbench/ still sees the layers it wraps.

perfbench/trace_child.py rebinds polsp functions by module attribute name.
A refactor that renames one of them, or captures one at import time, would
leave the traced benchmark counting nothing without failing any other
test, so each traced command here must report its layers.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACE_CHILD = ROOT / "perfbench" / "trace_child.py"

CONFIG = """
geometry: {L: 1.0, l: 0.5}
oscillators: [{omega: 20.0, G: 3.0}]
basis: {photon_modes: 8, exciton_modes: 2}
sweep: {q_min: 0.0, q_max: 1.0, points: 3}
solver: {omega_max: 12.0, scan_points: 60}
"""

SWEEP_LAYERS = ("dispersion.scan_roots", "dispersion.solve", "model.validate")
# the secular, green and closed-form routes count their roots and never
# call scan_roots; only the classical route scans signs
SECULAR_LAYERS = ("dispersion.secular_roots", "dispersion.solve", "model.validate")
GREEN_LAYERS = ("dispersion.green_roots", "dispersion.solve", "model.validate")
TWO_EXCITON_LAYERS = ("dispersion.two_exciton_roots", "dispersion.solve", "model.validate")


@pytest.mark.parametrize("argv,layers", [
    (["sweep", "--method", "secular"], SECULAR_LAYERS),
    (["sweep", "--method", "green"], GREEN_LAYERS),
    (["sweep", "--method", "two_exciton"], TWO_EXCITON_LAYERS),
    (["sweep", "--method", "classical"], SWEEP_LAYERS),
    (["sweep", "--method", "dynamical"], ("dispersion.solve", "hopfield.build")),
    (["spectrum"], ("hopfield.build", "hopfield.diagonalize")),
    (["converge"], ("dispersion.scan_roots", "dispersion.solve",
                    "dispersion.secular_roots", "dispersion.classical_roots",
                    "model.validate")),
], ids=["sweep_secular", "sweep_green", "sweep_two_exciton", "sweep_classical", "sweep_dynamical",
        "spectrum", "converge"])
def test_traced_command_counts_its_layers(tmp_path, argv, layers):
    config = tmp_path / "tiny.yaml"
    config.write_text(CONFIG, encoding="utf-8")
    trace = tmp_path / "trace.json"
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, str(TRACE_CHILD), str(trace), *argv,
         "--config", str(config), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(trace.read_text(encoding="utf-8"))["counts"]
    for layer in layers:
        assert counts.get(layer, 0) > 0, (layer, counts)
