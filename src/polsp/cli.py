"""Batch front end: config files, method dispatch, deterministic export.

Config files are YAML with a strict schema; unknown keys are rejected by
name because a silently ignored typo in a physics config is worse than an
error.  Every output file embeds a manifest digest computed over the
run-defining inputs only (config snapshot, method, q grid, tool version),
never over timestamps, so re-running a manifest byte-reproduces the CSV.

Exit codes: 0 success, 2 configuration error, 3 solver error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .dispersion import _lorentz_classical_roots, secular_roots, sweep
from .errors import ConfigError, GeometryError, ParseError, PolspError, \
    SolverError, SpeciesError, TruncationError
from .hopfield import build_dynamical_matrix, diagonalize
from .kk import kk_forward, kk_inverse, load_samples
from .model import METHODS, CavityConfig, OscillatorSpecies, SolverSettings, validate
from .modes import overlap_K

# ---------------------------------------------------------------------------
# config ingestion
# ---------------------------------------------------------------------------

_GEOMETRY_KEYS = {"L", "l", "c"}
_BASIS_KEYS = {"photon_modes", "exciton_modes"}
_SWEEP_KEYS = {"q_min", "q_max", "points"}
_SOLVER_KEYS = {"method", "root_tol", "pole_exclusion", "scan_points",
                "omega_max", "allow_evanescent"}
_SECTIONS = {"geometry", "oscillators", "basis", "sweep", "solver"}

_DEFAULT_PHOTON_MODES = 32
_DEFAULT_EXCITON_MODES = 4


def _mapping(obj, section: str, allowed: set) -> dict:
    """obj as a mapping whose keys all lie in allowed, else ParseError."""
    if not isinstance(obj, dict):
        raise ParseError(f"section must be a mapping, got {type(obj).__name__}",
                         field=section)
    for key in obj:
        if key not in allowed:
            raise ParseError("unknown key", field=f"{section}.{key}")
    return obj


def _as_float(mapping: dict, key: str, section: str, default=None) -> float:
    if key not in mapping:
        if default is None:
            raise ParseError("required key missing", field=f"{section}.{key}")
        return default
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"expected a number, got {value!r}", field=f"{section}.{key}")
    if not math.isfinite(value):
        raise ParseError(f"expected a finite number, got {value!r}",
                         field=f"{section}.{key}")
    return float(value)


def _as_int(mapping: dict, key: str, section: str, default=None) -> int:
    if key not in mapping:
        if default is None:
            raise ParseError("required key missing", field=f"{section}.{key}")
        return default
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"expected an integer, got {value!r}", field=f"{section}.{key}")
    return value


def parse_config(text: str) -> tuple[CavityConfig, dict]:
    """Parse and validate a YAML config; return it plus its plain snapshot."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"invalid YAML: {exc}") from exc
    if raw is None:
        raise ParseError("config file is empty")
    raw = _mapping(raw, "<root>", _SECTIONS)

    if "geometry" not in raw:
        raise ParseError("required section missing", field="geometry")
    geometry = _mapping(raw["geometry"], "geometry", _GEOMETRY_KEYS)
    L = _as_float(geometry, "L", "geometry")
    l = _as_float(geometry, "l", "geometry")
    c = _as_float(geometry, "c", "geometry", default=1.0)

    if "oscillators" not in raw:
        raise ParseError("required section missing", field="oscillators")
    osc_raw = raw["oscillators"]
    if not isinstance(osc_raw, list):
        raise ParseError("must be a list of {omega, G} mappings", field="oscillators")
    species = []
    for k, entry in enumerate(osc_raw):
        entry = _mapping(entry, f"oscillators[{k}]", {"omega", "G"})
        species.append(OscillatorSpecies(
            omega=_as_float(entry, "omega", f"oscillators[{k}]"),
            G=_as_float(entry, "G", f"oscillators[{k}]")))

    basis = _mapping(raw.get("basis", {}), "basis", _BASIS_KEYS)
    photon_modes = _as_int(basis, "photon_modes", "basis", default=_DEFAULT_PHOTON_MODES)
    exciton_modes = _as_int(basis, "exciton_modes", "basis", default=_DEFAULT_EXCITON_MODES)

    sweep_sec = _mapping(raw.get("sweep", {}), "sweep", _SWEEP_KEYS)
    q_min = _as_float(sweep_sec, "q_min", "sweep", default=0.0)
    q_max = _as_float(sweep_sec, "q_max", "sweep", default=0.0)
    points = _as_int(sweep_sec, "points", "sweep", default=1)
    if points < 1:
        raise ParseError("points must be >= 1", field="sweep.points")
    if q_min < 0.0:
        raise ParseError("q_min must be >= 0", field="sweep.q_min")
    if q_max < q_min:
        raise ParseError("q_max must be >= q_min", field="sweep.q_max")

    solver_sec = _mapping(raw.get("solver", {}), "solver", _SOLVER_KEYS)
    defaults = SolverSettings()
    method = solver_sec.get("method", defaults.method)
    if not isinstance(method, str) or method not in METHODS:
        raise ParseError(f"method must be one of {METHODS}, got {method!r}",
                         field="solver.method")
    allow_ev = solver_sec.get("allow_evanescent", defaults.allow_evanescent)
    if not isinstance(allow_ev, bool):
        raise ParseError("expected a boolean", field="solver.allow_evanescent")
    settings = SolverSettings(
        method=method,
        root_tol=_as_float(solver_sec, "root_tol", "solver", defaults.root_tol),
        pole_exclusion=_as_float(solver_sec, "pole_exclusion", "solver",
                                 defaults.pole_exclusion),
        scan_points=_as_int(solver_sec, "scan_points", "solver", defaults.scan_points),
        omega_max=_as_float(solver_sec, "omega_max", "solver", defaults.omega_max),
        allow_evanescent=allow_ev)

    config = CavityConfig(L=L, l=l, c=c, oscillators=tuple(species),
                          photon_mode_count=photon_modes,
                          exciton_mode_count=exciton_modes,
                          solver=settings)
    try:
        validate(config)
    except GeometryError as exc:
        raise GeometryError(f"geometry: {exc}") from None
    except SpeciesError as exc:
        raise SpeciesError(f"oscillators: {exc}") from None
    except TruncationError as exc:
        raise TruncationError(f"basis: {exc}") from None

    snapshot = {
        "geometry": {"L": L, "l": l, "c": c},
        "oscillators": [{"omega": sp.omega, "G": sp.G} for sp in species],
        "basis": {"photon_modes": photon_modes, "exciton_modes": exciton_modes},
        "sweep": {"q_min": q_min, "q_max": q_max, "points": points},
        "solver": {"method": settings.method, "root_tol": settings.root_tol,
                   "pole_exclusion": settings.pole_exclusion,
                   "scan_points": settings.scan_points,
                   "omega_max": settings.omega_max,
                   "allow_evanescent": settings.allow_evanescent},
    }
    return config, snapshot


def load_config(path) -> tuple[CavityConfig, dict]:
    path = Path(path)
    if not path.exists():
        raise ParseError(f"config file not found: {path}")
    return parse_config(path.read_text(encoding="utf-8"))


def sweep_grid(snapshot: dict) -> np.ndarray:
    sec = snapshot["sweep"]
    return np.linspace(sec["q_min"], sec["q_max"], sec["points"])


# ---------------------------------------------------------------------------
# manifest and export
# ---------------------------------------------------------------------------

def _run_fields(snapshot: dict, method: str, q_grid) -> dict:
    # the run-defining inputs: digested, and repeated in every manifest
    return {"config": snapshot, "method": method,
            "q_grid": [float(q) for q in q_grid], "tool_version": __version__}


def manifest_digest(snapshot: dict, method: str, q_grid) -> str:
    """Digest over the run-defining fields only; timestamps never enter."""
    blob = json.dumps(_run_fields(snapshot, method, q_grid),
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _export(out_dir: Path, name: str, snapshot: dict, method: str, q_grid,
            lines: list[str]) -> list[Path]:
    """Write <name>.csv under its manifest line, then <name>_manifest.json."""
    digest = manifest_digest(snapshot, method, q_grid)
    text = "".join(f"{line}\n" for line in [f"# manifest: {digest}", *lines])
    csv_path = out_dir / f"{name}.csv"
    csv_path.write_text(text, encoding="utf-8")
    record = {
        **_run_fields(snapshot, method, q_grid),
        "digest": digest,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "truncation": {
            "photon_modes": snapshot["basis"]["photon_modes"],
            "exciton_modes": snapshot["basis"]["exciton_modes"],
            "species": len(snapshot["oscillators"]),
        },
        "outputs": {csv_path.name: hashlib.sha256(text.encode("utf-8")).hexdigest()},
    }
    manifest_path = out_dir / f"{name}_manifest.json"
    manifest_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")
    return [csv_path, manifest_path]


def _fmt(x: float) -> str:
    return f"{x:.11e}"


# ---------------------------------------------------------------------------
# commands: each returns (method label, q grid, CSV lines below the manifest)
# ---------------------------------------------------------------------------

def _cmd_sweep(config: CavityConfig, snapshot: dict, args):
    qs = sweep_grid(snapshot)
    method = args.method or config.solver.method
    if args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            curve = sweep(config, qs, method=method, mapper=pool.map)
    else:
        curve = sweep(config, qs, method=method)
    lines = ["q,branch,omega"]
    for branch_id, branch in enumerate(curve.branches):
        lines += [f"{_fmt(qv)},{branch_id},{_fmt(omega)}" for qv, omega in branch]
    return method, qs, lines


def _cmd_spectrum(config: CavityConfig, snapshot: dict, args):
    # mode tables need eigenvectors, so this is always the dynamical method
    modes = diagonalize(build_dynamical_matrix(config, overlap_K(config), args.q))
    lines = ["omega,norm_W,norm_X,norm_Y,norm_Z"]
    for mode in modes:
        parts = [float(np.sum(np.abs(v) ** 2)) for v in (mode.W, mode.X, mode.Y, mode.Z)]
        lines.append(",".join(_fmt(p) for p in [mode.Omega, *parts]))
    return "dynamical", [args.q], lines


def _cmd_classical(config: CavityConfig, snapshot: dict, args):
    branch1, branch2 = _lorentz_classical_roots(
        config, args.q, (0.0, config.solver.omega_max))
    rows = sorted([(w, 1) for w in branch1] + [(w, 2) for w in branch2])
    return "classical", [args.q], ["omega,branch"] + [
        f"{_fmt(omega)},{branch}" for omega, branch in rows]


def _cmd_kk(config: CavityConfig, snapshot: dict, args):
    if args.input is None:
        raise ParseError("kk command needs --input with a two-column sample file")
    grid, values = load_samples(args.input)
    transform = kk_forward if args.direction == "forward" else kk_inverse
    result = transform(grid, values)
    lines = [f"# direction: {args.direction}",
             f"# tail_estimate: {result.tail_estimate:.3e}"]
    lines += [f"{_fmt(w)} {_fmt(v)}" for w, v in zip(result.grid, result.values)]
    return f"kk_{args.direction}", grid, lines


def _cmd_converge(config: CavityConfig, snapshot: dict, args):
    # the complete-matter-basis experiment: hold N fixed, double Xi, watch
    # the secular roots approach the classical ones
    window = (0.0, config.solver.omega_max)
    reference = np.sort(np.concatenate(_lorentz_classical_roots(config, 0.0, window)))
    if len(reference) == 0:
        raise SolverError("no classical roots inside the window; widen omega_max")
    compare = min(5, len(reference))

    lines = ["exciton_modes,photon_modes,max_rel_deviation"]
    # Xi = top, top/2, ... down to 1, at most five steps
    top = config.exciton_mode_count
    for xi in sorted(top // 2 ** k for k in range(5) if top // 2 ** k >= 1):
        cfg = config.with_truncation(exciton_mode_count=xi)
        roots = secular_roots(cfg, overlap_K(cfg), 0.0, window)
        take = min(compare, len(roots))
        if take == 0:
            raise SolverError(
                f"no secular roots inside the window at exciton_modes={xi}")
        dev = float(np.max(np.abs(roots[:take] - reference[:take]) / reference[:take]))
        lines.append(f"{xi},{cfg.photon_mode_count},{_fmt(dev)}")
    return "converge", [0.0], lines


COMMANDS = {"sweep": _cmd_sweep, "spectrum": _cmd_spectrum,
            "classical": _cmd_classical, "kk": _cmd_kk, "converge": _cmd_converge}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polsp",
        description="Polariton spectrum of a dispersive slab in a closed cavity")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="YAML config path")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--method", default=None, choices=METHODS,
                        help="override solver.method from the config")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for q sweeps")
    parser.add_argument("--q", type=float, default=0.0,
                        help="in-plane wavenumber for spectrum/classical")
    parser.add_argument("--input", default=None,
                        help="two-column sample file for the kk command")
    parser.add_argument("--direction", default="forward",
                        choices=("forward", "inverse"),
                        help="kk transform direction")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config, snapshot = load_config(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.threads < 1:
            raise ParseError("threads must be >= 1")
        if not 0.0 <= args.q < math.inf:
            raise ParseError(f"q must be finite and >= 0, got {args.q}", field="--q")
        written = _export(out_dir, args.command, snapshot,
                          *COMMANDS[args.command](config, snapshot, args))
    except PolspError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 3
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
