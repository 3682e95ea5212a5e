"""Workload definitions: seeded inputs, command sequences and output checks.

Every workload is a fixed problem size whose physical parameters the seed
jitters by a few percent, so two seeds exercise the same code paths on
slightly different numbers.  The program under test receives only the
files written by ``make_inputs``.

Checks run in the benchmark's own process after the timed region.  Every
command's manifest must digest its outputs; most commands also have a
check against an independent route or an acceptance criterion.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

JITTER = 0.03  # relative half-width of the seeded parameter jitter

# tolerances of the output checks; each is the acceptance criterion it
# mirrors, never tuned to the benchmark
SECULAR_VS_DYNAMICAL_RTOL = 1e-8  # criterion 3
GREEN_VS_SECULAR_RTOL = 1e-7
NORM_TOL = 1e-8  # criterion 9
CONVERGE_LADDER = [4, 8, 16, 32, 64]  # criterion 4
CONVERGE_LAST_MAX = 1e-3  # criterion 4
KK_ROUND_TRIP_MAX = 2e-3  # criterion 8
KK_POINTS = 8000


def _jitter(rng: random.Random, value: float) -> float:
    return value * (1.0 + rng.uniform(-JITTER, JITTER))


def _scalar(value) -> str:
    # YAML 1.1 reads 1e-12 as a string; a mantissa with a point is a float
    text = repr(value)
    if isinstance(value, float) and "e" in text and "." not in text:
        text = text.replace("e", ".0e")
    return text


def _yaml(geometry: dict, oscillators: list[dict], basis: dict,
          sweep: dict | None, solver: dict) -> str:
    def flow(mapping: dict) -> str:
        return "{" + ", ".join(f"{k}: {_scalar(v)}" for k, v in mapping.items()) + "}"

    lines = [f"geometry: {flow(geometry)}", "oscillators:"]
    lines += [f"  - {flow(osc)}" for osc in oscillators]
    lines.append(f"basis: {flow(basis)}")
    if sweep is not None:
        lines.append(f"sweep: {flow(sweep)}")
    lines.append(f"solver: {flow(solver)}")
    return "\n".join(lines) + "\n"


def _write_config(path: Path, rng: random.Random, oscillators: list[tuple],
                  photon: int, exciton: int, sweep: dict | None,
                  solver: dict) -> Path:
    text = _yaml(
        {"L": 1.0, "l": _jitter(rng, 0.5), "c": 1.0},
        [{"omega": w, "G": _jitter(rng, g)} for w, g in oscillators],
        {"photon_modes": photon, "exciton_modes": exciton},
        sweep, solver)
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# output readers
# ---------------------------------------------------------------------------

def _data_rows(path: Path) -> list[list[str]]:
    """CSV rows below the '# manifest' comment and the header line."""
    with path.open(encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.reader(lines[1:]))


def _roots_by_q(sweep_csv: Path) -> dict[float, list[float]]:
    per_q: dict[float, list[float]] = {}
    for q, _branch, omega in _data_rows(sweep_csv):
        per_q.setdefault(float(q), []).append(float(omega))
    return {q: sorted(roots) for q, roots in per_q.items()}


def _manifest_problems(out_dir: Path, name: str) -> list[str]:
    """The manifest must exist and digest the bytes of every output it lists."""
    manifest = out_dir / f"{name}_manifest.json"
    if not manifest.is_file():
        return [f"missing {manifest.name}"]
    outputs = json.loads(manifest.read_text(encoding="utf-8"))["outputs"]
    problems = []
    for file_name, digest in outputs.items():
        path = out_dir / file_name
        if not path.is_file():
            problems.append(f"missing {file_name}")
        elif hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            problems.append(f"{file_name} does not match its manifest digest")
    return problems


def _nearest_rel(value: float, candidates) -> float:
    return min(abs(value - c) for c in candidates) / abs(value)


def _grid(config_path: Path) -> list[float]:
    import numpy as np
    from polsp import cli

    _, snapshot = cli.load_config(config_path)
    return [float(q) for q in np.asarray(cli.sweep_grid(snapshot))]


def _match_grid(per_q: dict[float, list[float]], grid: list[float]) -> list[list[float]]:
    # CSV abscissae carry 12 significant digits, so match to the grid by
    # nearest value rather than equality
    ordered: list[list[float]] = [[] for _ in grid]
    for q, roots in per_q.items():
        k = min(range(len(grid)), key=lambda i: abs(grid[i] - q))
        ordered[k] = roots
    return ordered


# ---------------------------------------------------------------------------
# output checks: each factory computes its reference once and returns a
# check of one command's output directory
# ---------------------------------------------------------------------------

Check = Callable[[Path], list[str]]


def secular_vs_dynamical(config_path: Path) -> Check:
    """Every secular root has a dynamical eigenvalue within 1e-8 relative."""
    from polsp import cli, hopfield

    config, _ = cli.load_config(config_path)
    grid = _grid(config_path)
    reference = [list(hopfield.spectrum(config, q)) for q in grid]

    def check(out_dir: Path) -> list[str]:
        per_q = _match_grid(_roots_by_q(out_dir / "sweep.csv"), grid)
        problems = []
        for q, roots, eigs in zip(grid, per_q, reference):
            if not roots:
                problems.append(f"no roots at q={q:g}")
            worst = max((_nearest_rel(r, eigs) for r in roots), default=0.0)
            if worst > SECULAR_VS_DYNAMICAL_RTOL:
                problems.append(f"q={q:g}: secular root {worst:.2e} from the "
                                f"nearest dynamical eigenvalue")
        return problems
    return check


def green_vs_secular(config_path: Path) -> Check:
    """Green finds the secular root count per q, within 1e-7 relative."""
    from polsp import cli, dispersion, modes

    config, _ = cli.load_config(config_path)
    grid = _grid(config_path)
    overlaps = modes.overlap_K(config)
    window = (0.0, config.solver.omega_max)
    reference = [list(dispersion.secular_roots(config, overlaps, q, window))
                 for q in grid]

    def check(out_dir: Path) -> list[str]:
        per_q = _match_grid(_roots_by_q(out_dir / "sweep.csv"), grid)
        problems = []
        for q, roots, sec in zip(grid, per_q, reference):
            if len(roots) != len(sec):
                problems.append(f"q={q:g}: green found {len(roots)} roots, "
                                f"secular {len(sec)}")
                continue
            worst = max((abs(g - s) / s for g, s in zip(roots, sec)), default=0.0)
            if worst > GREEN_VS_SECULAR_RTOL:
                problems.append(f"q={q:g}: green and secular differ by {worst:.2e}")
        return problems
    return check


def sweep_mode_count(config_path: Path, modes_per_q: int) -> Check:
    """A dynamical sweep reports all N + S*Xi modes at every q."""
    grid = _grid(config_path)

    def check(out_dir: Path) -> list[str]:
        per_q = _match_grid(_roots_by_q(out_dir / "sweep.csv"), grid)
        return [f"q={q:g}: {len(roots)} modes, expected {modes_per_q}"
                for q, roots in zip(grid, per_q) if len(roots) != modes_per_q]
    return check


def spectrum_norms(modes_per_q: int) -> Check:
    """All modes present, each with norm_W + norm_X - norm_Y - norm_Z = 1."""
    def check(out_dir: Path) -> list[str]:
        rows = [[float(x) for x in row] for row in _data_rows(out_dir / "spectrum.csv")]
        problems = []
        if len(rows) != modes_per_q:
            problems.append(f"spectrum has {len(rows)} modes, expected {modes_per_q}")
        for omega, w, x, y, z in rows:
            if not abs(w + x - y - z - 1.0) <= NORM_TOL:
                problems.append(f"mode at {omega:.6g} has norm {w + x - y - z!r}")
        return problems
    return check


def converge_deviations() -> Check:
    """The criterion-4 ladder, strictly decreasing deviations, the last small."""
    def check(out_dir: Path) -> list[str]:
        rows = _data_rows(out_dir / "converge.csv")
        ladder, devs = [int(r[0]) for r in rows], [float(r[2]) for r in rows]
        if ladder != CONVERGE_LADDER:
            return [f"converge ladder {ladder}, expected {CONVERGE_LADDER}"]
        problems = []
        if not all(a > b for a, b in zip(devs, devs[1:])):
            problems.append(f"deviations do not strictly decrease: {devs}")
        if not devs[-1] <= CONVERGE_LAST_MAX:
            problems.append(f"last deviation {devs[-1]:.2e} > {CONVERGE_LAST_MAX}")
        return problems
    return check


def classical_in_window(config_path: Path) -> Check:
    """Classical roots exist and lie inside the solver window."""
    from polsp import cli

    config, _ = cli.load_config(config_path)
    hi = config.solver.omega_max

    def check(out_dir: Path) -> list[str]:
        roots = [float(r[0]) for r in _data_rows(out_dir / "classical.csv")]
        if not roots:
            return ["classical.csv has no roots"]
        outside = [w for w in roots if not (0.0 < w < hi and math.isfinite(w))]
        return [f"classical roots outside (0, {hi}): {outside}"] if outside else []
    return check


def kk_round_trip(samples: Path) -> Check:
    """Forward then inverse KK returns the input chi'' within 2e-3 max-norm."""
    import numpy as np

    original = np.loadtxt(samples)

    def check(out_dir: Path) -> list[str]:
        back = np.loadtxt(out_dir / "kk.csv")
        if back.shape != original.shape:
            return [f"kk round trip has shape {back.shape}, input {original.shape}"]
        err = float(np.max(np.abs(back[:, 1] - original[:, 1])))
        return [] if err <= KK_ROUND_TRIP_MAX else [
            f"kk round trip max-norm {err:.2e} > {KK_ROUND_TRIP_MAX}"]
    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    """One CLI invocation and the name its outputs are written under."""

    argv: tuple[str, ...]
    out: str  # output directory, relative to the sequence directory
    manifest: str  # manifest stem the command writes

    @property
    def threads(self) -> int:
        """Worker threads the command asks for (the CLI default is 1)."""
        if "--threads" not in self.argv:
            return 1
        return int(self.argv[self.argv.index("--threads") + 1])


# a step is a command plus the factory of its output check, or None when
# the manifest digest is all there is to check
Step = tuple[Command, Callable[[], Check] | None]


@dataclass(frozen=True)
class Workload:
    """A workload; why each was chosen is recorded in BENCHMARK.json."""

    name: str
    make_inputs: Callable[[random.Random, Path], dict]
    steps: Callable[[dict], list[Step]]

    def commands(self, inputs: dict) -> list[Command]:
        return [command for command, _ in self.steps(inputs)]

    def check(self, inputs: dict, seq_dirs: list[Path]) -> dict[int, list[str]]:
        """Problems per operation, keyed sequence index * commands + command index."""
        steps = self.steps(inputs)
        checks = [build() if build else None for _, build in steps]
        problems: dict[int, list[str]] = {}
        for s, seq_dir in enumerate(seq_dirs):
            for c, ((command, _), check) in enumerate(zip(steps, checks)):
                out_dir = seq_dir / command.out
                try:
                    found = _manifest_problems(out_dir, command.manifest)
                    if not found and check:
                        found = check(out_dir)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    found = [f"unreadable output: {exc!r}"]
                if found:
                    problems[s * len(steps) + c] = found
        return problems


# Problem sizes keep one sequence of each workload to a few seconds on a
# 2-core machine, so a run of BENCHMARK.json's run_seconds holds several
# repetitions and their median damps host noise.
README_OSC = [(20.0, 3.0)]
README_SOLVER = {"method": "secular", "omega_max": 17.0, "scan_points": 800}
DYNAMICAL_SPECIES = [(20.0, 3.0), (35.0, 2.0)]
DYNAMICAL_PHOTON, DYNAMICAL_EXCITON = 192, 32


def _cavity_inputs(rng: random.Random, work: Path) -> dict:
    """The README cavity on 9 q points; both sweep workloads use it."""
    return {"config": _write_config(
        work / "cavity.yaml", rng, README_OSC, 64, 16,
        {"q_min": 0.0, "q_max": 4.0, "points": 9}, README_SOLVER)}


def _lorentz_imag(grid, omega0: float, gamma: float):
    """chi'' of a damped Lorentz oscillator with unit coupling (criterion 8)."""
    import numpy as np
    grid = np.asarray(grid)
    return gamma * grid / ((omega0 ** 2 - grid ** 2) ** 2 + (gamma * grid) ** 2)


def _sweep(config: Path, *extra: str) -> Command:
    return Command(("sweep", "--config", str(config), *extra), "sweep", "sweep")


# -- sweep-secular ----------------------------------------------------------

def _secular_steps(inputs: dict) -> list[Step]:
    config = inputs["config"]
    return [(_sweep(config, "--method", "secular", "--threads", "1"),
             partial(secular_vs_dynamical, config))]


# -- dynamical --------------------------------------------------------------

def _dynamical_inputs(rng: random.Random, work: Path) -> dict:
    return {"config": _write_config(
        work / "two_species.yaml", rng, DYNAMICAL_SPECIES,
        DYNAMICAL_PHOTON, DYNAMICAL_EXCITON,
        {"q_min": 0.0, "q_max": 4.0, "points": 17},
        {"method": "dynamical", "omega_max": 17.0})}


def _dynamical_steps(inputs: dict) -> list[Step]:
    config = inputs["config"]
    modes_per_q = DYNAMICAL_PHOTON + len(DYNAMICAL_SPECIES) * DYNAMICAL_EXCITON
    return [
        (_sweep(config, "--threads", "1"),
         partial(sweep_mode_count, config, modes_per_q)),
        (Command(("spectrum", "--config", str(config), "--q", "0.5"),
                 "spectrum", "spectrum"),
         partial(spectrum_norms, modes_per_q)),
    ]


# -- sweep-green ------------------------------------------------------------

def _green_steps(inputs: dict) -> list[Step]:
    config = inputs["config"]
    return [(_sweep(config, "--method", "green", "--threads", "2"),
             partial(green_vs_secular, config))]


# -- converge-kk ------------------------------------------------------------

def _converge_inputs(rng: random.Random, work: Path) -> dict:
    import numpy as np

    config = _write_config(
        work / "converge.yaml", rng, README_OSC, 512, 64, None,
        # the criterion-4 config at half its scan density
        {"omega_max": 17.0, "scan_points": 400, "root_tol": 1.0e-12})
    omega0, gamma = _jitter(rng, 4.0), _jitter(rng, 0.4)
    grid = np.linspace(0.0, 10.0 * omega0, KK_POINTS)
    samples = work / "chi_imag.txt"
    np.savetxt(samples, np.column_stack([grid, _lorentz_imag(grid, omega0, gamma)]),
               fmt="%.17e", header=f"damped Lorentz omega0={omega0!r} gamma={gamma!r}")
    return {"config": config, "samples": samples}


def _converge_steps(inputs: dict) -> list[Step]:
    config = str(inputs["config"])
    return [
        (Command(("converge", "--config", config), "converge", "converge"),
         converge_deviations),
        (Command(("classical", "--config", config, "--q", "0"),
                 "classical", "classical"),
         partial(classical_in_window, inputs["config"])),
        # checked through the round trip of the next step
        (Command(("kk", "--config", config, "--direction", "forward",
                  "--input", str(inputs["samples"])), "kk_forward", "kk"), None),
        # the runner substitutes this sequence's directory for {seq}
        (Command(("kk", "--config", config, "--direction", "inverse",
                  "--input", "{seq}/kk_forward/kk.csv"), "kk_inverse", "kk"),
         partial(kk_round_trip, inputs["samples"])),
    ]


WORKLOADS = {w.name: w for w in (
    Workload("sweep-secular", _cavity_inputs, _secular_steps),
    Workload("sweep-green", _cavity_inputs, _green_steps),
    Workload("dynamical", _dynamical_inputs, _dynamical_steps),
    Workload("converge-kk", _converge_inputs, _converge_steps),
)}
