"""Command-line front end: figure datasets and config-driven sweeps.

The table _COMMANDS declares the subcommands, fig2 to fig5 and sweep (help
line, flags from _FLAGS). main() builds the parser once per process and
runs subcommand <name> as the module-level cmd_<name>, looked up at
dispatch, so a wrapper installed on that attribute after import is what
runs. fig2, fig3 and fig4 panel (a) write one CSV per loss rate through
_write_per_gamma, every curve of a file from one scattering_array call.

CSV layout, sweep config keys, exit codes: see README.md ("Command line").
write_table writes every CSV from one array per column (run_sweep's: _SWEEP_COLUMNS).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .classical import _regimes, _supermodes
from .core import MAX_GRID_POINTS, CouplerParams, DecayCurve, PolarizationEntangled, PropagationGrid
from .quantum import (
    _survival_function,
    mean_photon_number,
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

# A float cell: 17 significant digits, which parse back to the identical
# double. write_table formats and writes _WRITE_LINES rows at a time.
_FLOAT_CELL = "%.17g"
_WRITE_LINES = 1024


def format_float(x: float) -> str:
    """One float as write_table writes it."""
    return _FLOAT_CELL % float(x)


def _format_value(value) -> str:
    """Metadata or sidecar value: floats by format_float, lists joined by ';'."""
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, (list, tuple)):
        return ";".join(map(_format_value, value))
    return str(value)


def write_table(path, metadata: dict, header: list[str], columns, shape=None) -> int:
    """'# key=value' metadata lines, the header, then one row per element of
    shape (default: the first column's length) in C order; columns holds one
    array per header name, each broadcasting against shape. Floats are
    written as by format_float, anything else by str. Returns the row count.

    Each block of about _WRITE_LINES rows is one % on a row template: a float
    column of the block's full shape is a %.17g slot, the others are formatted
    once per block at their own shape, each joined onto the text cell before
    it while the joined shape stays smaller than the block."""
    columns = [np.asarray(c) for c in columns]
    if not columns or len(columns) != len(header):
        raise ValueError(f"need one column per header name, got {len(columns)} for {len(header)}")
    shape = (len(columns[0]),) if shape is None else tuple(shape)
    for name, c in zip(header, columns):
        if c.ndim > len(shape) or any(n not in (1, m) for n, m in zip(c.shape[::-1], shape[::-1])):
            raise ValueError(f"column {name!r} of shape {c.shape} does not broadcast to {shape}")
    columns = [c.reshape((1,) * (len(shape) - c.ndim) + c.shape) for c in columns]  # all axes
    # Blocks: slices of the first axis past which one index holds at most _WRITE_LINES rows.
    axis = next(k for k in range(len(shape)) if math.prod(shape[k + 1 :]) <= _WRITE_LINES)
    step = max(1, _WRITE_LINES // max(math.prod(shape[axis + 1 :]), 1))
    with open(path, "w", newline="\n") as out:
        out.write("".join(f"# {key}={value}\n" for key, value in metadata.items())
                  + ",".join(header) + "\n")
        for *lead, start in itertools.product(*map(range, shape[:axis]),
                                              range(0, shape[axis], step)):
            block = [c[tuple(i if n > 1 else 0 for i, n in zip(lead, c.shape))] for c in columns]
            block = [b[start : start + step] if len(b) > 1 else b for b in block]
            out.write(_block_text(block, (min(step, shape[axis] - start),) + shape[axis + 1 :]))
    return math.prod(shape)


def _block_text(columns: list[np.ndarray], shape: tuple[int, ...]) -> str:
    """The rows of one block of the given shape, from its columns."""
    slots = _slots(columns, shape)
    cells = [None] * (math.prod(shape) * len(slots))  # row by row
    for i, values in enumerate(slots):
        values = values if values.shape == shape else np.broadcast_to(values, shape)
        cells[i :: len(slots)] = values.ravel().tolist()
    line = ",".join("%s" if values.dtype == object else _FLOAT_CELL for values in slots) + "\n"
    return line * math.prod(shape) % tuple(cells)


def _slots(columns: list[np.ndarray], shape: tuple[int, ...]) -> list[np.ndarray]:
    """Each cell's values for a block's rows: a float column of the block's
    full shape as it is, the others as text (_text), each joined onto the
    text cell before it while the joined shape stays smaller than the block."""
    slots = []
    for c in columns:
        if c.dtype.kind == "f" and c.shape == shape:
            slots.append(c)
        elif (slots and slots[-1].dtype == object
              and math.prod(map(max, slots[-1].shape, c.shape)) < math.prod(shape)):
            slots[-1] = slots[-1] + "," + _text(c)
        else:
            slots.append(_text(c))
    return slots


def _text(values: np.ndarray) -> np.ndarray:
    """values as an object array of cells: floats as by format_float, anything else by str."""
    cells = values.ravel().tolist()
    if values.dtype.kind != "f":
        return np.fromiter(map(str, cells), object, len(cells)).reshape(values.shape)
    text = (f"{_FLOAT_CELL}\n" * len(cells) % tuple(cells)).split("\n")[:-1]  # one % for them all
    return np.fromiter(text, object, len(cells)).reshape(values.shape)


def write_decay_curves(path, metadata: dict, curves: list[DecayCurve]) -> None:
    """Curves side by side over their common z grid, first column z."""
    if not curves:
        raise ValueError("need at least one curve")
    zs = curves[0].z_values()
    for curve in curves[1:]:
        if not np.array_equal(curve.z_values(), zs):
            raise ValueError("curves must share one z grid")
    header = ["z"] + [curve.label for curve in curves]
    write_table(path, metadata, header, [zs] + [curve.values() for curve in curves])


def read_decay_curves(path) -> tuple[dict, list[DecayCurve]]:
    """Inverse of write_decay_curves; floats come back bit-identical."""
    metadata: dict[str, str] = {}
    table: list[list[str]] = []  # the header row, then the data rows
    for line in Path(path).read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            metadata[key] = value
        elif line or not table:
            table.append(line.split(","))
    if not table:
        raise ValueError(f"{path}: missing header row")
    if len(table) == 1:
        raise ValueError(f"{path}: no data rows")
    z, *columns = zip(*table)  # each column: its label, then its values
    zs = [float(v) for v in z[1:]]
    curves = [DecayCurve.from_arrays(c[0], zs, [float(v) for v in c[1:]]) for c in columns]
    return metadata, curves


def _metadata(values: dict) -> dict:
    """CSV metadata: the package version, then values (command first)."""
    return {"version": __version__} | {key: _format_value(v) for key, v in values.items()}


def _write_sidecar(outdir: Path, command: str, settings: dict) -> None:
    """<command>_run.txt: the command, then one key=value line per setting."""
    lines = [f"{key}={_format_value(v)}" for key, v in ({"command": command} | settings).items()]
    (outdir / f"{command}_run.txt").write_text("\n".join(lines) + "\n", newline="\n")


def _setup(args, zmax: float, points: int) -> tuple[PropagationGrid, Path]:
    """The z grid from --zmax/--points, else from the command's defaults
    (zmax in units of 1/kappa), then the output directory."""
    grid = PropagationGrid(args.zmax if args.zmax is not None else zmax / args.kappa,
                           args.points if args.points is not None else points)
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
    <name>_gamma<gamma/kappa>.csv, holding curves_for(s), {label: values},
    for the rate's propagators s over the grid; its metadata is head, the
    shared settings, tail. Returns the rates and file names."""
    gammas = _rates(args.gamma, args.kappa, defaults)
    zs = grid.points()
    written = []
    for gamma in gammas:
        params = CouplerParams(args.beta1, args.beta2, args.kappa, gamma)
        meta = _metadata(head | _shared(args, grid, gamma=gamma) | (tail or {}))
        # S lives only until its curves are made, not while they are written.
        curves = [DecayCurve.from_arrays(label, zs, v)
                  for label, v in curves_for(scattering_array(params, zs)[0]).items()]
        file = f"{name}_gamma{gamma / args.kappa:g}.csv"
        write_decay_curves(outdir / file, meta, curves)
        written.append(file)
    return gammas, written


def cmd_fig2(args) -> int:
    grid, outdir = _setup(args, 10.0, 501)
    gammas, written = _write_per_gamma(
        args, grid, outdir, "fig2", (0.5, 2.0, 10.0),
        # Power: both arms' column norms (balanced-orthogonal launch), arm 1's.
        lambda s: {"power_balanced_orthogonal": 0.5 * mean_photon_number(s),
                   "power_single_waveguide": np.abs(s[:, 0, 0]) ** 2 + np.abs(s[:, 1, 0]) ** 2},
        {"command": "fig2", "backend": "markovian"},
        {"solid": "power_balanced_orthogonal", "dashed": "power_single_waveguide"},
    )
    _write_sidecar(outdir, "fig2", _shared(args, grid, gammas=gammas) | {"files": written})
    return 0


def cmd_fig3(args) -> int:
    grid, outdir = _setup(args, 10.0, 501)
    gammas, written = _write_per_gamma(
        args, grid, outdir, "fig3", (0.5, 2.0, 10.0),
        lambda s: {"survival_indistinguishable": survival_indistinguishable(s)},
        {"command": "fig3", "backend": "markovian", "input": "indistinguishable_pair"},
    )
    _write_sidecar(outdir, "fig3", _shared(args, grid, gammas=gammas) | {"files": written})
    return 0


def cmd_fig4(args) -> int:
    grid, outdir = _setup(args, 3.0, 301)
    kappa = args.kappa
    phis = [args.phi] if args.phi is not None else [0.0, 2.0 * math.pi / 3.0, math.pi]
    # PolarizationEntangled refuses a bad --phi before anything is computed.
    labels = [_survival_function(PolarizationEntangled(phi))[1] for phi in phis]
    head = {"command": "fig4", "panel": "a", "backend": "markovian",
            "input": "polarization_entangled_pair"}

    # Panel (a): survival vs distance, one file per loss rate.
    gammas, written = _write_per_gamma(
        args, grid, outdir, "fig4a", (0.625, 2.5),
        lambda s: {label: survival_entangled(s, phi) for label, phi in zip(labels, phis)},
        head, {"phis": phis},
    )

    # Panel (b): survival at the fixed distance z0 against the loss rate.
    # z0 is the dimensionless product kappa*z0 = 3 converted to a length.
    z0 = 3.0 / kappa
    gamma_axis = np.linspace(0.0, 5.0 * kappa, 201)
    s, _ = scattering_array(CouplerParams(args.beta1, args.beta2, kappa), z0, gamma=gamma_axis)
    columns = [gamma_axis] + [survival_entangled(s, phi) for phi in phis]
    meta = _metadata(head | {
        "panel": "b", "kappa": kappa, "beta1": args.beta1, "beta2": args.beta2,
        "z0": z0, "kappa_z0": 3.0, "gamma_min": 0.0, "gamma_max": 5.0 * kappa,
        "gamma_points": 201, "phis": phis,
    })
    write_table(outdir / "fig4b.csv", meta, ["gamma"] + labels, columns)
    written.append("fig4b.csv")

    settings = _shared(args, grid, gammas=gammas, phis=phis) | {"z0": z0, "files": written}
    _write_sidecar(outdir, "fig4", settings)
    return 0


def cmd_fig5(args) -> int:
    grid, outdir = _setup(args, 3.0, 301)
    kappa = args.kappa
    sigma = args.sigma if args.sigma is not None else 20.0 * kappa
    rhos = _rates(args.rho, kappa, (5.0, 10.0))
    phi = PolarizationEntangled(args.phi if args.phi is not None else math.pi).phi
    nsites = args.nsites if args.nsites is not None else min_lattice_size(sigma, grid.z_max)
    params = CouplerParams(args.beta1, args.beta2, kappa, 0.0)
    zs = grid.points()
    written = []
    for rho in rhos:
        reservoir = LatticeReservoir(sigma=sigma, rho=rho, n_sites=nsites, beta_lattice=args.beta2)
        s, _ = LatticePropagator(params, reservoir).scattering_array(zs)
        gamma_eff = lattice_gamma(sigma, rho)
        markov = np.exp(-2.0 * gamma_eff * zs)
        curves = [DecayCurve.from_arrays("survival_lattice", zs, survival_entangled(s, phi)),
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
    _warn_if_short(nsites, sigma, grid.z_max)
    return 0


def _warn_if_short(nsites: int, sigma: float, z_max: float) -> None:
    """One stderr line if reflections off the chain ends can reach the coupler by z_max."""
    if z_max > 0.0 and nsites < (needed := min_lattice_size(sigma, z_max)):
        print(f"warning: nsites = {nsites} < min_lattice_size(sigma = {sigma:g}, zmax = {z_max:g}) "
              f"= {needed}: end reflections can reach the coupler", file=sys.stderr)


# One sweep column: observable name -> f(s, det, phis, bare, rates), its values
# broadcasting against (axis, phi, z); s the propagators, shape (axis, 1, z, 2, 2),
# det their determinants (reduced for the memoryless coupler, entrywise for the
# lattice), bare the lossless coupler, rates the axis's (effective) loss rates.
_SWEEP_COLUMNS = {
    "classical_power": lambda s, det, phis, bare, rates: 0.5 * mean_photon_number(s),
    "mean_photon_number": lambda s, det, phis, bare, rates: mean_photon_number(s),
    "p_boson": lambda s, det, phis, bare, rates: survival_indistinguishable(s),
    "p_entangled": lambda s, det, phis, bare, rates: np.concatenate(
        [survival_entangled(s, phi) for phi in phis], axis=1),
    "p_fermion": lambda s, det, phis, bare, rates: survival_fermionic(s, det),
    "ep_regime": lambda s, det, phis, bare, rates: _regimes(bare, rates)[0][:, None, None],
    "eigenvalue_gap": lambda s, det, phis, bare, rates: _supermodes(bare, rates)[2][:, None, None],
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


def run_sweep(cfg: SweepConfig) -> tuple[dict, list[str], list[np.ndarray], tuple[int, int, int]]:
    """The sweep's metadata, header, columns and row shape (axis, phi, z) for write_table."""
    if cfg.backend == "markovian":
        for key in ("rho", "sigma", "nsites", "beta_lattice"):
            if getattr(cfg, key) not in (None, ()):
                raise ValueError(f"config: {key}: only meaningful with backend=lattice")
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
    for phi in cfg.phi:  # whether or not p_entangled reads them
        PolarizationEntangled(phi)

    shape = (len(axis), len(cfg.phi), len(cfg.z))
    rows = math.prod(shape)
    if rows > MAX_GRID_POINTS:
        raise ValueError(
            f"config: the sweep has {rows} rows ({axis_name} x phi x z = "
            f"{' x '.join(map(str, shape))}); the limit is {MAX_GRID_POINTS}"
        )

    header = [axis_name, "phi", "z"] + list(cfg.observables)
    values = {"command": "sweep", "backend": cfg.backend, "kappa": cfg.kappa,
              "beta1": cfg.beta1, "beta2": cfg.beta2}
    if cfg.backend == "lattice":
        values |= {"sigma": cfg.sigma, "regime_columns_use": "effective_gamma=rho^2/(2*sigma)"}
    meta = _metadata(values)
    if not rows:
        return meta, header, [np.empty(shape)] * len(header), shape

    bare = CouplerParams(cfg.beta1, cfg.beta2, cfg.kappa)
    axis_values, zs = np.array(axis), np.array(cfg.z)
    if cfg.backend == "markovian":
        rates = axis_values
        s, det = scattering_array(bare, zs[None, :], gamma=axis_values[:, None])
    else:
        rates = np.array([lattice_gamma(cfg.sigma, rho) for rho in axis])
        nsites = cfg.nsites
        if nsites is None:
            nsites = min_lattice_size(cfg.sigma, max(cfg.z)) if max(cfg.z) > 0.0 else 11
        beta_lattice = cfg.beta_lattice if cfg.beta_lattice is not None else cfg.beta2
        # Each propagator checks its work limit at the farthest z first.
        s, det = map(np.stack, zip(*(
            LatticePropagator(bare, LatticeReservoir(cfg.sigma, rho, nsites, beta_lattice))
            .scattering_array(zs)
            for rho in axis
        )))
        _warn_if_short(nsites, cfg.sigma, max(cfg.z))
    s, det = s[:, None], det[:, None]  # (axis, 1, z): phi broadcasts in between
    keys = [axis_values[:, None, None], np.array(cfg.phi)[:, None], zs]
    columns = keys + [_SWEEP_COLUMNS[name](s, det, cfg.phi, bare, rates) for name in cfg.observables]
    return meta, header, columns, shape


def cmd_sweep(args) -> int:
    cfg = parse_sweep_config(Path(args.config).read_text())
    meta, header, columns, shape = run_sweep(cfg)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    written = write_table(outdir / "sweep.csv", meta, header, columns, shape)
    settings = {"config": args.config, "rows": written, "files": ["sweep.csv"]}
    _write_sidecar(outdir, "sweep", settings)
    return 0


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

# Subcommand name -> (help, flags in --help order); main() runs cmd_<name>.
_COMMANDS = {
    "fig2": ("classical power decay curves", _FIGURE_FLAGS + ("gamma",)),
    "fig3": ("indistinguishable-pair survival curves", _FIGURE_FLAGS + ("gamma",)),
    "fig4": ("entangled-pair survival vs z and vs loss rate", _FIGURE_FLAGS + ("gamma", "phi")),
    "fig5": ("fermionic-pair survival with the chain reservoir",
             _FIGURE_FLAGS + ("phi", "sigma", "rho", "nsites")),
    "sweep": ("config-driven Cartesian sweep", ("config", "out")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="ptcoupler", description=(
        "Lossy two-waveguide coupler: decay curves and pair-survival datasets."))
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)
    for name, (help_text, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag in flags:
            command.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


_parser = functools.cache(build_parser)  # main()'s parser, built once per process


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        # Looked up now, so a wrapper installed on cmd_<name> after import runs.
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, OSError) else 1


if __name__ == "__main__":
    sys.exit(main())
