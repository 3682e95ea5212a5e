"""Batch front end: config files, method dispatch, deterministic export.

Config files are YAML with a strict schema; unknown keys are rejected by
name because a silently ignored typo in a physics config is worse than an
error.  Every output file embeds a manifest digest computed over the
run-defining inputs only (config snapshot, method, q grid, tool version,
and for kk, whose q grid is empty, a sha256 of the loaded sample grid
and values), never over timestamps, so re-running a manifest
byte-reproduces the CSV.

Digests take sha256 from CPython's built-in module, as random.py does
sha512: ``hashlib``, the fallback, maps OpenSSL's libcrypto (3.6 MiB
resident per process on Linux, Python 3.11) for the same function.

Exit codes: 0 success, 2 configuration error, 3 solver error.

Loading this module imports no solver route and neither numpy nor PyYAML.
``main`` imports the command's routes (``_ROUTES``) right after parsing
its arguments; they bring numpy, and ``parse_config`` then brings yaml.
Where modules compile from source (PYTHONDONTWRITEBYTECODE), that order
keeps every command's peak RSS lower than compiling the routes on a heap
that already holds numpy or yaml.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from datetime import datetime, timezone
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import ConfigError, GeometryError, ParseError, PolspError, \
    SolverError, SpeciesError, TruncationError
from .model import METHODS, CavityConfig, OscillatorSpecies, SolverSettings

if TYPE_CHECKING:
    import numpy as np

try:
    from _sha2 import sha256
except ImportError:  # before Python 3.12
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

# ---------------------------------------------------------------------------
# config ingestion
# ---------------------------------------------------------------------------

# section -> key -> (type, default); a default of None marks a required key,
# and a section holding one is itself required.  The parsed sections, with
# every default filled in, are the config snapshot that the digest covers.
_SCHEMA = {
    "geometry": {"L": (float, None), "l": (float, None), "c": (float, 1.0)},
    "oscillators": {"omega": (float, None), "G": (float, None)},
    "basis": {"photon_modes": (int, 32), "exciton_modes": (int, 4)},
    "sweep": {"q_min": (float, 0.0), "q_max": (float, 0.0), "points": (int, 1)},
    "solver": {f.name: (type(f.default), f.default) for f in fields(SolverSettings)},
}


def _mapping(obj, section: str, allowed) -> dict:
    """obj as a mapping whose keys all lie in allowed, else ParseError."""
    if not isinstance(obj, dict):
        raise ParseError(f"section must be a mapping, got {type(obj).__name__}",
                         field=section)
    for key in obj:
        if key not in allowed:
            raise ParseError("unknown key", field=f"{section}.{key}")
    return obj


def _section(obj, section: str, schema: dict) -> dict:
    """Every key of schema read from obj, defaults filled in.

    Numbers are type-checked here; the one string key, solver.method, is
    checked against METHODS by parse_config.
    """
    obj = _mapping(obj, section, schema)
    out = {}
    for key, (kind, default) in schema.items():
        where = f"{section}.{key}"
        if key not in obj and default is None:
            raise ParseError("required key missing", field=where)
        value = obj.get(key, default)
        if kind in (int, float) and (isinstance(value, bool)
                                     or not isinstance(value, (int, kind))):
            expected = "an integer" if kind is int else "a number"
            raise ParseError(f"expected {expected}, got {value!r}", field=where)
        if kind is float:
            try:
                value = float(value)
            except OverflowError:  # an integer too large for a float
                value = math.inf
            if not math.isfinite(value):
                raise ParseError(f"expected a finite number, got {value!r}",
                                 field=where)
        out[key] = value
    return out


def parse_config(text: str) -> tuple[CavityConfig, dict]:
    """Parse and validate a YAML config; return it plus its plain snapshot."""
    import yaml

    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"invalid YAML: {exc}") from exc
    if raw is None:
        raise ParseError("config file is empty")
    raw = _mapping(raw, "<root>", _SCHEMA)

    snapshot = {}
    for name, schema in _SCHEMA.items():
        if name not in raw and any(d is None for _, d in schema.values()):
            raise ParseError("required section missing", field=name)
        if name != "oscillators":
            snapshot[name] = _section(raw.get(name, {}), name, schema)
        elif isinstance(raw[name], list):
            snapshot[name] = [_section(entry, f"{name}[{k}]", schema)
                              for k, entry in enumerate(raw[name])]
        else:
            raise ParseError("must be a list of {omega, G} mappings", field=name)

    sweep_sec = snapshot["sweep"]
    if sweep_sec["points"] < 1:
        raise ParseError("points must be >= 1", field="sweep.points")
    if sweep_sec["q_min"] < 0.0:
        raise ParseError("q_min must be >= 0", field="sweep.q_min")
    if sweep_sec["q_max"] < sweep_sec["q_min"]:
        raise ParseError("q_max must be >= q_min", field="sweep.q_max")
    method = snapshot["solver"]["method"]
    if not isinstance(method, str) or method not in METHODS:
        raise ParseError(f"method must be one of {METHODS}, got {method!r}",
                         field="solver.method")

    basis = snapshot["basis"]
    try:
        config = CavityConfig(
            **snapshot["geometry"],
            oscillators=[OscillatorSpecies(**sp) for sp in snapshot["oscillators"]],
            photon_mode_count=basis["photon_modes"],
            exciton_mode_count=basis["exciton_modes"],
            solver=SolverSettings(**snapshot["solver"]))
    except GeometryError as exc:
        raise GeometryError(f"geometry: {exc}") from None
    except SpeciesError as exc:
        raise SpeciesError(f"oscillators: {exc}") from None
    except TruncationError as exc:
        raise TruncationError(f"basis: {exc}") from None
    return config, snapshot


def load_config(path) -> tuple[CavityConfig, dict]:
    path = Path(path)
    if not path.exists():
        raise ParseError(f"config file not found: {path}")
    return parse_config(path.read_text(encoding="utf-8"))


def sweep_grid(snapshot: dict) -> np.ndarray:
    import numpy as np

    sec = snapshot["sweep"]
    return np.linspace(sec["q_min"], sec["q_max"], sec["points"])


# ---------------------------------------------------------------------------
# manifest and export
# ---------------------------------------------------------------------------

def _run_fields(snapshot: dict, method: str, q_grid, inputs=None) -> dict:
    # the run-defining inputs, plus a command's own (such as the kk samples'
    # sha256): digested, and repeated in every manifest
    return {"config": snapshot, "method": method, **(inputs or {}),
            "q_grid": [float(q) for q in q_grid], "tool_version": __version__}


def manifest_digest(snapshot: dict, method: str, q_grid, inputs=None) -> str:
    """Digest over the run-defining fields only; timestamps never enter."""
    blob = json.dumps(_run_fields(snapshot, method, q_grid, inputs),
                      sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode("utf-8")).hexdigest()


def _export(out_dir: Path, name: str, snapshot: dict, method: str, q_grid,
            lines: list[str], inputs=None) -> list[Path]:
    """Write <name>.csv under its manifest line, then <name>_manifest.json.

    out_dir is created here, once the command has succeeded, so a failed
    command leaves no output directory behind.
    """
    digest = manifest_digest(snapshot, method, q_grid, inputs)
    text = "".join(f"{line}\n" for line in [f"# manifest: {digest}", *lines])
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{name}.csv"
    csv_path.write_text(text, encoding="utf-8")
    record = {
        **_run_fields(snapshot, method, q_grid, inputs),
        "digest": digest,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "truncation": {
            "photon_modes": snapshot["basis"]["photon_modes"],
            "exciton_modes": snapshot["basis"]["exciton_modes"],
            "species": len(snapshot["oscillators"]),
        },
        "outputs": {csv_path.name: sha256(text.encode("utf-8")).hexdigest()},
    }
    manifest_path = out_dir / f"{name}_manifest.json"
    manifest_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")
    return [csv_path, manifest_path]


def _fmt(x: float) -> str:
    return f"{x:.11e}"


# ---------------------------------------------------------------------------
# commands: each returns (method label, q grid, CSV lines below the manifest)
# and, for kk, the digested fields of its input file.  Each imports its
# solver modules when it runs; main has loaded them already (_ROUTES), so
# these imports only look up the names, at call time, on the defining
# module.  Rows are formatted from Python floats, which format faster than
# numpy scalars, to the same text.
# ---------------------------------------------------------------------------

def _cmd_sweep(config: CavityConfig, snapshot: dict, args):
    from .dispersion import sweep

    qs = sweep_grid(snapshot)
    method = args.method or config.solver.method
    if args.threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            curve = sweep(config, qs, method=method, mapper=pool.map)
    else:
        curve = sweep(config, qs, method=method)
    lines = ["q,branch,omega"]
    for branch_id, branch in enumerate(curve.branches):
        lines += [f"{_fmt(qv)},{branch_id},{_fmt(omega)}"
                  for qv, omega in branch.tolist()]
    return method, qs, lines


def _cmd_spectrum(config: CavityConfig, snapshot: dict, args):
    from .hopfield import build_dynamical_matrix, diagonalize
    from .modes import overlap_K

    # mode tables need eigenvectors, so this is always the dynamical method
    modes = diagonalize(build_dynamical_matrix(config, overlap_K(config), args.q))
    lines = ["omega,norm_W,norm_X,norm_Y,norm_Z"]
    for mode in modes:
        parts = [float((abs(v) ** 2).sum()) for v in (mode.W, mode.X, mode.Y, mode.Z)]
        lines.append(",".join(_fmt(p) for p in [float(mode.Omega), *parts]))
    return "dynamical", [args.q], lines


def _cmd_classical(config: CavityConfig, snapshot: dict, args):
    from .dispersion import _lorentz_classical_roots

    branch1, branch2 = _lorentz_classical_roots(
        config, args.q, (0.0, config.solver.omega_max))
    rows = sorted([(w, 1) for w in branch1.tolist()]
                  + [(w, 2) for w in branch2.tolist()])
    return "classical", [args.q], ["omega,branch"] + [
        f"{_fmt(omega)},{branch}" for omega, branch in rows]


def _cmd_kk(config: CavityConfig, snapshot: dict, args):
    from .kk import kk_forward, kk_inverse, load_samples

    if args.input is None:
        raise ParseError("kk command needs --input with a two-column sample file")
    grid, values = load_samples(args.input)
    transform = kk_forward if args.direction == "forward" else kk_inverse
    result = transform(grid, values)
    lines = [f"# direction: {args.direction}",
             f"# tail_estimate: {result.tail_estimate:.3e}"]
    lines += [f"{_fmt(w)} {_fmt(v)}"
              for w, v in zip(result.grid.tolist(), result.values.tolist())]
    # kk has no in-plane wavenumber; the samples' digest covers their grid
    # and values, as the bytes of their (2, n) float64 stack
    samples = sha256(grid.tobytes() + values.tobytes()).hexdigest()
    return f"kk_{args.direction}", [], lines, {"samples_sha256": samples}


def _cmd_converge(config: CavityConfig, snapshot: dict, args):
    import numpy as np

    from .dispersion import _labels, _roots_for_method
    from .modes import OverlapSet, overlap_K

    # the complete-matter-basis experiment: hold N fixed, double Xi, watch
    # the secular roots approach the classical ones.  The window ends at the
    # lowest resonance, above which classical roots crowd that no finite Xi
    # holds
    window = (0.0, min([config.solver.omega_max, *(sp.omega for sp in config.oscillators)]))

    def ranked(cfg, overlaps, method):
        # {rank: root}, a root's rank being the rise of the route's count
        # from the window's lower edge to just above the root, less one.
        # The rank names one mode in both routes, where the index does not:
        # at Xi = 1 the secular route leaves out the photon lines of a parity
        # sector without matter modes, which its count still holds as poles
        roots, count = _roots_for_method(cfg, overlaps, method, np.zeros(1), window)
        base = int(count(np.array([window[0]]), np.zeros(1, dtype=np.intp))[0])
        return {above - base - 1: omega
                for omega, (_, above) in zip(roots[0].tolist(), _labels(cfg, roots, count))}

    reference = ranked(config, None, "classical")
    if not reference:
        raise SolverError("no classical roots below omega_max and the lowest resonance")
    compare = sorted(reference)[:5]

    lines = ["exciton_modes,photon_modes,max_rel_deviation"]
    # Xi = top, top/2, ... down to 1, at most five steps.  Column xi of K
    # depends on xi alone, so every rung slices the top rung's K
    top, full = config.exciton_mode_count, overlap_K(config).K
    for xi in sorted(top // 2 ** k for k in range(5) if top // 2 ** k >= 1):
        cfg = config.with_truncation(exciton_mode_count=xi)
        roots = ranked(cfg, OverlapSet(K=full[:, :xi], L=cfg.L, l=cfg.l), "secular")
        shared = [rank for rank in compare if rank in roots]
        if not shared:
            raise SolverError(
                f"no secular roots inside the window at exciton_modes={xi}")
        dev = max(abs(roots[rank] - reference[rank]) / reference[rank] for rank in shared)
        lines.append(f"{xi},{cfg.photon_mode_count},{_fmt(dev)}")
    return "converge", [0.0], lines


COMMANDS = {"sweep": _cmd_sweep, "spectrum": _cmd_spectrum,
            "classical": _cmd_classical, "kk": _cmd_kk, "converge": _cmd_converge}

# the polsp modules each command runs, imported by main before it reads the
# config, so no process loads a route it does not use; what only some
# sweeps need (hopfield for dynamical, kk for classical, concurrent.futures
# for --threads > 1) is imported where it is first used
_ROUTES = {"sweep": ("dispersion", "modes"), "spectrum": ("hopfield", "modes"),
           "classical": ("dispersion", "kk"), "kk": ("kk",),
           "converge": ("dispersion", "kk", "modes")}

# the flags each command reads, with the value each takes when not given;
# a command refuses every other flag, since it would ignore it
_COMMAND_FLAGS = {
    "sweep": {"method": None, "threads": 1},
    "spectrum": {"q": 0.0},
    "classical": {"q": 0.0},
    "kk": {"input": None, "direction": "forward"},
    "converge": {},
}
_FLAGS = sorted({flag for reads in _COMMAND_FLAGS.values() for flag in reads})


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
    # every per-command flag defaults to None, so main can tell a flag
    # that was given from one that was not
    parser.add_argument("--method", choices=METHODS,
                        help="override solver.method from the config (sweep only)")
    parser.add_argument("--threads", type=int,
                        help="worker threads for q sweeps (sweep only; default 1)")
    parser.add_argument("--q", type=float,
                        help="in-plane wavenumber (spectrum and classical; default 0)")
    parser.add_argument("--input",
                        help="two-column sample file (kk only)")
    parser.add_argument("--direction", choices=("forward", "inverse"),
                        help="transform direction (kk only; default forward)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        reads = _COMMAND_FLAGS[args.command]
        for flag in _FLAGS:
            if getattr(args, flag) is None:
                setattr(args, flag, reads.get(flag))
            elif flag not in reads:
                raise ParseError(f"{args.command} does not take --{flag}", field=f"--{flag}")
        for route in _ROUTES[args.command]:
            import_module(f".{route}", __package__)
        config, snapshot = load_config(args.config)
        if args.threads is not None and args.threads < 1:
            raise ParseError("threads must be >= 1", field="--threads")
        if args.q is not None and not 0.0 <= args.q < math.inf:
            raise ParseError(f"q must be finite and >= 0, got {args.q}", field="--q")
        written = _export(Path(args.out), args.command, snapshot,
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
