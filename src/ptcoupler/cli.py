"""Command-line front end: figure datasets and config-driven sweeps.

Subcommands
-----------
fig2   classical power decay, balanced-orthogonal and single-arm launches
fig3   survival of the indistinguishable photon pair, memoryless loss
fig4   entangled-pair survival vs distance (a) and vs loss rate (b)
fig5   fermionic-pair survival with the explicit chain reservoir
sweep  Cartesian parameter sweep driven by a config file

The table _COMMANDS declares each subcommand (help line, flags from
_FLAGS). build_parser() runs subcommand <name> as the module-level
cmd_<name>, looked up when the parser is built, so a wrapper installed on
that attribute is what runs. fig2, fig3 and fig4 panel (a) write one CSV
per loss rate through _write_per_gamma: metadata = the command's leading
keys, the settings every figure records (_shared), its trailing keys.

CSV format
----------
Every data file starts with '# key=value' metadata lines, then one header
row, then data rows. Floats are printed with 17 significant digits, enough
for the printed text to parse back to the exact same doubles, so identical
invocations produce byte-identical files. Anything about a particular run
that is not data (the resolved settings, the list of files written) goes
to a sidecar text file next to the CSVs, never into them.

Sweep config format
-------------------
Flat 'key = value' lines; '#' starts a comment; lists are comma-separated.

  backend       required, markovian | lattice
  gamma         list, loss-rate axis        (markovian backend)
  rho           list, chain-coupling axis   (lattice backend)
  phi           list, exchange phases in [0, pi]
  z             list, propagation distances
  observables   list out of: classical_power, mean_photon_number, p_boson,
                p_entangled, p_fermion, ep_regime, eigenvalue_gap
                (default: all of them)
  kappa         scalar, default 1.0
  beta1, beta2  scalars, default 0.0
  sigma         scalar, required for backend=lattice
  nsites        integer, default min_lattice_size(sigma, max z)
  beta_lattice  scalar, default beta2

One output row per (gamma-or-rho, phi, z) tuple, in declared order. For
the lattice backend the ep_regime and eigenvalue_gap columns use the
effective rate rho^2 / (2 sigma). Empty axis lists produce a header-only
file. Exit codes: 0 success, 1 bad flags or config, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .classical import classical_power_curve, classify_ep, supermodes
from .core import (
    ClassicalInput,
    CouplerParams,
    DecayCurve,
    Indistinguishable,
    PolarizationEntangled,
    PropagationGrid,
)
from .quantum import (
    Lattice,
    mean_photon_number,
    survival_curve,
    survival_entangled,
    survival_fermionic,
    survival_indistinguishable,
)
from .reservoir import LatticePropagator, LatticeReservoir, lattice_gamma, min_lattice_size
# scattering_matrix stays bound here: perfbench/tracing.py wraps it at every
# module that binds it.
from .scattering import scattering_array, scattering_matrix  # noqa: F401

__all__ = [
    "format_float",
    "write_table",
    "write_decay_curves",
    "read_decay_curves",
    "parse_sweep_config",
    "SWEEP_OBSERVABLES",
    "build_parser",
    "main",
]

def format_float(x: float) -> str:
    """17 significant digits: parses back to the identical double."""
    return format(float(x), ".17g")


def _format_value(value) -> str:
    """Metadata or sidecar value: floats by format_float, lists joined by ';'."""
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, (list, tuple)):
        return ";".join(map(_format_value, value))
    return str(value)


# ---------------------------------------------------------------------------
# CSV writing and reading
# ---------------------------------------------------------------------------

def write_table(path, metadata: dict, header: list[str], rows) -> None:
    lines = [f"# {key}={value}" for key, value in metadata.items()]
    lines += [",".join(row) for row in (header, *rows)]
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def write_decay_curves(path, metadata: dict, curves: list[DecayCurve]) -> None:
    """Curves side by side over their common z grid, first column z."""
    if not curves:
        raise ValueError("need at least one curve")
    zs = curves[0].z_values()
    for curve in curves[1:]:
        if not np.array_equal(curve.z_values(), zs):
            raise ValueError("curves must share one z grid")
    header = ["z"] + [curve.label for curve in curves]
    columns = [zs] + [curve.values() for curve in curves]
    rows = ([format_float(col[i]) for col in columns] for i in range(len(zs)))
    write_table(path, metadata, header, rows)


def read_decay_curves(path) -> tuple[dict, list[DecayCurve]]:
    """Inverse of write_decay_curves; floats come back bit-identical."""
    metadata: dict[str, str] = {}
    header: list[str] | None = None
    rows: list[list[str]] = []
    for line in Path(path).read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            metadata[key] = value
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    if header is None:
        raise ValueError(f"{path}: missing header row")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    columns = list(zip(*rows))
    zs = [float(v) for v in columns[0]]
    curves = [
        DecayCurve.from_arrays(label, zs, [float(v) for v in column])
        for label, column in zip(header[1:], columns[1:])
    ]
    return metadata, curves


def _metadata(values: dict) -> dict:
    """CSV metadata: the package version, then values (command first)."""
    return {"version": __version__} | {key: _format_value(v) for key, v in values.items()}


def _write_sidecar(outdir: Path, command: str, settings: dict) -> None:
    """<command>_run.txt: the command, then one key=value line per setting."""
    lines = [f"{key}={_format_value(v)}" for key, v in ({"command": command} | settings).items()]
    (outdir / f"{command}_run.txt").write_text("\n".join(lines) + "\n", newline="\n")


# ---------------------------------------------------------------------------
# Figure commands
# ---------------------------------------------------------------------------

def _setup(args, zmax: float, points: int) -> tuple[PropagationGrid, Path]:
    """The z grid from --zmax/--points, else from the command's defaults
    (zmax in units of 1/kappa), then the output directory."""
    grid = PropagationGrid(
        args.zmax if args.zmax is not None else zmax / args.kappa,
        args.points if args.points is not None else points,
    )
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    return grid, outdir


def _rates(value, kappa: float, defaults: tuple[float, ...]) -> list[float]:
    """The single rate given by a flag, else the defaults in units of kappa."""
    return [value] if value is not None else [d * kappa for d in defaults]


def _shared(args, grid: PropagationGrid, **swept) -> dict:
    """The settings every figure records, with its swept values after kappa."""
    return {"kappa": args.kappa, **swept, "beta1": args.beta1, "beta2": args.beta2,
            "zmax": grid.z_max, "points": grid.num_points}


def _write_per_gamma(args, grid, outdir, name, defaults, curves_for, head, tail=None):
    """One CSV per loss rate (--gamma, else the defaults in units of kappa),
    <name>_gamma<gamma/kappa>.csv, holding curves_for(params); its metadata
    is head, the shared settings, tail. Returns the rates and file names."""
    gammas = _rates(args.gamma, args.kappa, defaults)
    written = []
    for gamma in gammas:
        params = CouplerParams(args.beta1, args.beta2, args.kappa, gamma)
        meta = _metadata(head | _shared(args, grid, gamma=gamma) | (tail or {}))
        file = f"{name}_gamma{gamma / args.kappa:g}.csv"
        write_decay_curves(outdir / file, meta, curves_for(params))
        written.append(file)
    return gammas, written


def cmd_fig2(args) -> int:
    grid, outdir = _setup(args, 10.0, 501)
    launches = (ClassicalInput.BALANCED_ORTHOGONAL, ClassicalInput.SINGLE_WAVEGUIDE)
    gammas, written = _write_per_gamma(
        args, grid, outdir, "fig2", (0.5, 2.0, 10.0),
        lambda params: [classical_power_curve(params, launch, grid) for launch in launches],
        {"command": "fig2", "backend": "markovian"},
        {"solid": "power_balanced_orthogonal", "dashed": "power_single_waveguide"},
    )
    _write_sidecar(outdir, "fig2", _shared(args, grid, gammas=gammas) | {"files": written})
    return 0


def cmd_fig3(args) -> int:
    grid, outdir = _setup(args, 10.0, 501)
    gammas, written = _write_per_gamma(
        args, grid, outdir, "fig3", (0.5, 2.0, 10.0),
        lambda params: [survival_curve(params, Indistinguishable(), grid)],
        {"command": "fig3", "backend": "markovian", "input": "indistinguishable_pair"},
    )
    _write_sidecar(outdir, "fig3", _shared(args, grid, gammas=gammas) | {"files": written})
    return 0


def cmd_fig4(args) -> int:
    grid, outdir = _setup(args, 3.0, 301)
    kappa = args.kappa
    phis = [args.phi] if args.phi is not None else [0.0, 2.0 * math.pi / 3.0, math.pi]
    head = {"command": "fig4", "panel": "a", "backend": "markovian",
            "input": "polarization_entangled_pair"}

    # Panel (a): survival vs distance, one file per loss rate.
    gammas, written = _write_per_gamma(
        args, grid, outdir, "fig4a", (0.625, 2.5),
        lambda params: [survival_curve(params, PolarizationEntangled(phi), grid) for phi in phis],
        head, {"phis": phis},
    )

    # Panel (b): survival at the fixed distance z0 against the loss rate.
    # z0 is the dimensionless product kappa*z0 = 3 converted to a length.
    z0 = 3.0 / kappa
    gamma_axis = np.linspace(0.0, 5.0 * kappa, 201)
    header = ["gamma"] + [f"survival_phi_{phi:.12g}" for phi in phis]
    s, _ = scattering_array(CouplerParams(args.beta1, args.beta2, kappa), z0, gamma=gamma_axis)
    columns = [gamma_axis] + [survival_entangled(s, phi) for phi in phis]
    rows = ([format_float(col[i]) for col in columns] for i in range(len(gamma_axis)))
    meta = _metadata(head | {
        "panel": "b", "kappa": kappa, "beta1": args.beta1, "beta2": args.beta2,
        "z0": z0, "kappa_z0": 3.0, "gamma_min": 0.0, "gamma_max": 5.0 * kappa,
        "gamma_points": 201, "phis": phis,
    })
    write_table(outdir / "fig4b.csv", meta, header, rows)
    written.append("fig4b.csv")

    settings = _shared(args, grid, gammas=gammas, phis=phis) | {"z0": z0, "files": written}
    _write_sidecar(outdir, "fig4", settings)
    return 0


def cmd_fig5(args) -> int:
    grid, outdir = _setup(args, 3.0, 301)
    kappa = args.kappa
    sigma = args.sigma if args.sigma is not None else 20.0 * kappa
    rhos = _rates(args.rho, kappa, (5.0, 10.0))
    phi = args.phi if args.phi is not None else math.pi
    nsites = args.nsites if args.nsites is not None else min_lattice_size(sigma, grid.z_max)
    params = CouplerParams(args.beta1, args.beta2, kappa, 0.0)
    zs = grid.points()
    written = []
    for rho in rhos:
        reservoir = LatticeReservoir(sigma=sigma, rho=rho, n_sites=nsites, beta_lattice=args.beta2)
        exact = survival_curve(params, PolarizationEntangled(phi), grid, Lattice(reservoir))
        gamma_eff = lattice_gamma(sigma, rho)
        markov = np.exp(-2.0 * gamma_eff * zs)
        curves = [DecayCurve.from_arrays("survival_lattice", zs, exact.values()),
                  DecayCurve.from_arrays("survival_markovian_exponential", zs, markov)]
        meta = _metadata({
            "command": "fig5", "backend": "lattice", "input": "polarization_entangled_pair",
            "kappa": kappa, "beta1": args.beta1, "beta2": args.beta2, "phi": phi,
            "sigma": sigma, "rho": rho, "nsites": nsites, "beta_lattice": args.beta2,
            "gamma_eff": gamma_eff, "zmax": grid.z_max, "points": grid.num_points,
            "dashed": "exp(-2*gamma_eff*z)",
        })
        name = f"fig5_rho{rho / kappa:g}.csv"
        write_decay_curves(outdir / name, meta, curves)
        written.append(name)
    settings = _shared(args, grid, rhos=rhos, sigma=sigma, phi=phi, nsites=nsites)
    _write_sidecar(outdir, "fig5", settings | {"files": written})
    return 0


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

# One sweep column: observable name -> its values for one axis value,
# f(s, det, phis, params_eff) with s the (z, 2, 2) propagators over the z
# list and det their determinants (reduced for the memoryless coupler,
# entrywise for the lattice). A value is a string, a number, an array over
# z or an array over (phi, z).
_SWEEP_COLUMNS = {
    "classical_power": lambda s, det, phis, p: 0.5 * mean_photon_number(s),
    "mean_photon_number": lambda s, det, phis, p: mean_photon_number(s),
    "p_boson": lambda s, det, phis, p: survival_indistinguishable(s),
    "p_entangled": lambda s, det, phis, p: [survival_entangled(s, phi) for phi in phis],
    "p_fermion": lambda s, det, phis, p: survival_fermionic(s, det),
    "ep_regime": lambda s, det, phis, p: classify_ep(p).regime.value,
    "eigenvalue_gap": lambda s, det, phis, p: supermodes(p).gap(),
}

SWEEP_OBSERVABLES = tuple(_SWEEP_COLUMNS)


def _parse_number(key: str, token: str) -> float:
    if not token:
        raise ValueError(f"config: {key}: empty entry")
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"config: {key}: could not parse {token!r} as a number") from None
    if not math.isfinite(value):
        raise ValueError(f"config: {key}: must be finite, got {token!r}")
    return value


def _parse_number_list(key: str, raw: str) -> tuple[float, ...]:
    return tuple(_parse_number(f"{key}[{i}]", tok.strip()) for i, tok in enumerate(raw.split(",")))


def _parse_integer(key: str, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"config: {key}: could not parse {token!r} as an integer") from None


def _parse_backend(key: str, value: str) -> str:
    if value not in ("markovian", "lattice"):
        raise ValueError(f"config: {key}: must be markovian or lattice, got {value!r}")
    return value


def _parse_observables(key: str, raw: str) -> tuple[str, ...]:
    observables = tuple(tok.strip() for tok in raw.split(","))
    for name in observables:
        if name not in SWEEP_OBSERVABLES:
            raise ValueError(f"config: {key}: unknown observable {name!r}")
    return observables


def _key(parse, default=None):
    """A config key: parse(key, value) reads a non-empty value."""
    return field(default=default, metadata={"parse": parse})


@dataclass(frozen=True)
class SweepConfig:
    """A parsed sweep config: one field per config key, of the same name.
    parse_sweep_config reads the keys in field order, so the order below
    decides which error a config with several faults reports first."""

    backend: str = field(metadata={"parse": _parse_backend})
    observables: tuple[str, ...] = _key(_parse_observables, SWEEP_OBSERVABLES)
    nsites: int | None = _key(_parse_integer)
    gamma: tuple[float, ...] = _key(_parse_number_list, ())
    rho: tuple[float, ...] = _key(_parse_number_list, ())
    phi: tuple[float, ...] = _key(_parse_number_list, ())
    z: tuple[float, ...] = _key(_parse_number_list, ())
    kappa: float = _key(_parse_number, 1.0)
    beta1: float = _key(_parse_number, 0.0)
    beta2: float = _key(_parse_number, 0.0)
    sigma: float | None = _key(_parse_number)
    beta_lattice: float | None = _key(_parse_number)


def parse_sweep_config(text: str) -> SweepConfig:
    keys = fields(SweepConfig)
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in {f.name for f in keys}:
            raise ValueError(f"config: unknown key {key!r}")
        if key in entries:
            raise ValueError(f"config: duplicate key {key!r}")
        entries[key] = value

    if "backend" not in entries:
        raise ValueError("config: backend: required (markovian or lattice)")
    # An empty value keeps the key's default; backend has none.
    return SweepConfig(**{
        f.name: f.metadata["parse"](f.name, entries[f.name])
        for f in keys
        if entries.get(f.name) or f.name == "backend"
    })


def run_sweep(cfg: SweepConfig) -> tuple[dict, list[str], list[list[str]]]:
    if cfg.backend == "markovian":
        if cfg.rho:
            raise ValueError("config: rho: only meaningful with backend=lattice")
        axis_name, axis = "gamma", cfg.gamma
    else:
        if any(g != 0.0 for g in cfg.gamma):
            raise ValueError(
                "config: gamma: explicit loss cannot be combined with the lattice "
                "backend; sweep rho instead"
            )
        if cfg.sigma is None:
            raise ValueError("config: sigma: required for backend=lattice")
        axis_name, axis = "rho", cfg.rho
    if "ep_regime" in cfg.observables and cfg.beta1 != cfg.beta2:
        raise ValueError("config: ep_regime: requires beta1 == beta2")

    header = [axis_name, "phi", "z"] + list(cfg.observables)
    values = {"command": "sweep", "backend": cfg.backend, "kappa": cfg.kappa,
              "beta1": cfg.beta1, "beta2": cfg.beta2}
    if cfg.backend == "lattice":
        values |= {"sigma": cfg.sigma, "regime_columns_use": "effective_gamma=rho^2/(2*sigma)"}
    meta = _metadata(values)

    rows: list[list[str]] = []
    if not (axis and cfg.phi and cfg.z):
        return meta, header, rows

    columns = [_SWEEP_COLUMNS[name] for name in cfg.observables]
    shape = (len(cfg.phi), len(cfg.z))
    phis = [format_float(phi) for phi in cfg.phi]
    zs = [format_float(z) for z in cfg.z]
    for a in axis:
        if cfg.backend == "markovian":
            params_eff = CouplerParams(cfg.beta1, cfg.beta2, cfg.kappa, a)
            s, det = scattering_array(params_eff, cfg.z)
        else:
            params_eff = CouplerParams(cfg.beta1, cfg.beta2, cfg.kappa, lattice_gamma(cfg.sigma, a))
            nsites = cfg.nsites
            if nsites is None:
                nsites = min_lattice_size(cfg.sigma, max(cfg.z)) if max(cfg.z) > 0.0 else 11
            beta_lattice = cfg.beta_lattice if cfg.beta_lattice is not None else cfg.beta2
            reservoir = LatticeReservoir(cfg.sigma, a, nsites, beta_lattice)
            propagator = LatticePropagator(replace(params_eff, gamma=0.0), reservoir)
            # Farthest first, so the work limit is checked before any work.
            by_z = {z: propagator.scattering(z) for z in sorted(cfg.z, reverse=True)}
            s = np.stack([by_z[z].as_array() for z in cfg.z])
            det = np.array([by_z[z].determinant for z in cfg.z])
        cells = [_format_cells(column(s, det, cfg.phi, params_eff), shape) for column in columns]
        head = format_float(a)
        for i, phi in enumerate(phis):
            for j, z in enumerate(zs):
                rows.append([head, phi, z] + [cell[i, j] for cell in cells])
    return meta, header, rows


def _format_cells(value, shape: tuple[int, int]) -> np.ndarray:
    """One sweep column for one axis value as text, broadcast to (phi, z)."""
    if isinstance(value, str):
        return np.broadcast_to(np.array(value, dtype=object), shape)
    value = np.asarray(value, dtype=float)
    text = np.array([format_float(v) for v in value.ravel()], dtype=object)
    return np.broadcast_to(text.reshape(value.shape), shape)


def cmd_sweep(args) -> int:
    cfg = parse_sweep_config(Path(args.config).read_text())
    meta, header, rows = run_sweep(cfg)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_table(outdir / "sweep.csv", meta, header, rows)
    settings = {"config": args.config, "rows": len(rows), "files": ["sweep.csv"]}
    _write_sidecar(outdir, "sweep", settings)
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # Bad flags are reported like a bad config: on stderr, exit code 1.
        raise ValueError(message)


def _positive_float(text: str) -> float:
    # Downstream defaults (zmax, the gamma set) are derived from kappa, so a
    # bad kappa must be rejected here or the error blames the wrong flag.
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError("must be positive and finite")
    return value


# Every flag once: name -> add_argument keywords (default None unless given).
_FLAGS = {
    "config": dict(required=True, help="path to the sweep config file"),
    "out": dict(default=".", help="output directory (created if missing)"),
    "points": dict(type=int, help="grid points along z"),
    "zmax": dict(type=float, help="largest propagation distance"),
    "kappa": dict(type=_positive_float, default=1.0, help="coupling rate"),
    "beta1": dict(type=float, default=0.0, help="propagation constant, arm 1"),
    "beta2": dict(type=float, default=0.0, help="propagation constant, arm 2"),
    "gamma": dict(type=float, help="single loss rate replacing the default set"),
    "phi": dict(type=float, help="single exchange phase replacing the default"),
    "sigma": dict(type=float, help="chain hopping rate"),
    "rho": dict(type=float, help="single chain coupling replacing the default set"),
    "nsites": dict(type=int, help="chain length"),
}

_FIGURE_FLAGS = ("out", "points", "zmax", "kappa", "beta1", "beta2")

# Subcommand name -> (help, flags in --help order); it runs cmd_<name>.
_COMMANDS = {
    "fig2": ("classical power decay curves", _FIGURE_FLAGS + ("gamma",)),
    "fig3": ("indistinguishable-pair survival curves", _FIGURE_FLAGS + ("gamma",)),
    "fig4": ("entangled-pair survival vs z and vs loss rate", _FIGURE_FLAGS + ("gamma", "phi")),
    "fig5": ("fermionic-pair survival with the chain reservoir",
             _FIGURE_FLAGS + ("phi", "sigma", "rho", "nsites")),
    "sweep": ("config-driven Cartesian sweep", ("config", "out")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ptcoupler",
        description="Lossy two-waveguide coupler: decay curves and pair-survival datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)
    for name, (help_text, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag in flags:
            command.add_argument(f"--{flag}", **_FLAGS[flag])
        # Looked up now, not at import, so a wrapper on the attribute runs.
        command.set_defaults(func=globals()[f"cmd_{name}"])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, OSError) else 1


if __name__ == "__main__":
    sys.exit(main())
