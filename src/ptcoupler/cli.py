"""Command-line front end: figure datasets and config-driven sweeps.

_COMMANDS declares the subcommands, fig2 to fig5 and sweep (help line, flags
from _FLAGS); main() builds the parser once per process and runs <name> as the
module-level cmd_<name>, looked up at dispatch. Each command lazily makes its
tables, fig2 to fig5 one per rate from one propagator call each (_per_rate), and
_write_tables writes them and the <command>_run.txt sidecar. CSV layout, sweep
keys, exit codes: README.md.

write_table writes every CSV, one block of rows at a time, as bytes: a float
cell's bytes are format_float's, spelled for the block at once in numpy
(_spell); near-ties, non-finite values and |exponent| > 100 go to
format_float itself. Text is encoded once per column, at its own shape."""

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
from .core import MAX_GRID_POINTS, CouplerParams, PolarizationEntangled, PropagationGrid
from .quantum import (
    _survival_function,
    mean_photon_number,
    survival_entangled,
    survival_fermionic,
    survival_indistinguishable,
)
from .reservoir import LatticePropagator, LatticeReservoir, lattice_gamma, min_lattice_size
# scattering_matrix stays bound: perfbench/tracing.py wraps it where it is bound.
from .scattering import scattering_array, scattering_matrix  # noqa: F401

__all__ = [
    "format_float",
    "write_table",
    "parse_sweep_config",
    "SWEEP_OBSERVABLES",
    "build_parser",
    "main",
]

_WRITE_LINES = 1024  # rows that write_table writes at a time


def format_float(x: float) -> str:
    """One float as write_table writes it: 17 significant digits, which parse back to it."""
    return "%.17g" % float(x)


def _format_value(value) -> str:
    """Metadata or sidecar value: floats by format_float, lists joined by ';'."""
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, (list, tuple)):
        return ";".join(map(_format_value, value))
    return str(value)


# _spell writes format_float's bytes for an array of floats. Nonzero a = |x| with decimal
# exponent E, |E| <= _E_MAX, prints the 17 digits of n = round(a 10^k), k = 16 - E. With 10^k
# = hi + lo to 2^-106 and Dekker's split of a, p + s is a 10^k to 4.3e-15: a hi = p + e exactly,
# p > 2^53 an integer, |e| <= 8; lo and t = a lo err by 1.3e-15 each, e + t by half an ulp of
# 32. So n = p + rint(s) unless s is within _TIE_WINDOW of a half-integer: those cells (exact
# ties among them), non-finite ones and those past _E_MAX are spelled by format_float.
_E_MAX, _TIE_WINDOW, _SPLIT = 100, 1e-14, 2.0**27 + 1.0


def _powers_of_ten() -> tuple[np.ndarray, ...]:
    """hi, lo, hi's split halves and the least double >= 10^p at p + _E_MAX + 1, p in
    [-_E_MAX - 1, _E_MAX + 16]: hi + lo is 10^p rounded twice (int / int rounds right)."""
    tens = [(10**p, 1) if p >= 0 else (1, 10**-p) for p in range(-_E_MAX - 1, _E_MAX + 17)]
    hi = np.array([ten / one for ten, one in tens])
    lo = np.array([(ten * b - a * one) / (one * b) for (ten, one), (a, b)
                   in zip(tens, map(float.as_integer_ratio, hi.tolist()))])
    top = hi * _SPLIT - (hi * _SPLIT - hi)
    return hi, lo, top, hi - top, np.where(lo > 0, np.nextafter(hi, np.inf), hi)


def _layouts() -> tuple[np.ndarray, np.ndarray]:
    """Per key 17 form + last: which bytes of _spell's scratch row (000 and n's 17 digits, sign,
    3 unused, then |E| in 3 digits, ".e", E's sign, NULs) spell a cell, and its end; form - 4 is E
    (0-20), or 21 and 22 exponential with 2 and 3 digits of |E|, last n's last nonzero digit."""
    form, last = np.indices((23, 17)).reshape(2, -1, 1)
    point = np.where((form > 4) & (form < 21), form - 3, 1)  # digits before the point
    zeros = np.maximum(4 - form, 0)  # leading zeros
    shown = np.maximum(last + 1 + zeros, point)
    mantissa, suffix = shown + (shown > point), (form > 20) * (form - 17)
    j, k = np.arange(24), np.arange(24) - mantissa  # places after the sign, in the suffix
    at = np.select([k >= suffix, k == 0, k == 1, k > 1, j == point],
                   [31, 28, 29, 27 - suffix + k, 27], np.maximum(j - (j > point) - zeros + 3, 0))
    return np.column_stack([np.full(len(at), 20), at]), (1 + mantissa + suffix).ravel()


_HI, _LO, _HI_TOP, _HI_BOTTOM, _AT_LEAST = _powers_of_ten()
_LAYOUT, _END = _layouts()
_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, -1).T.copy()  # 0000 to 9999: bytes, last nonzero
_QUADS = (_DIGITS + 48).view(np.uint32)[:, 0]
_LAST = ((_DIGITS > 0) * np.arange(17, 21, dtype=np.int8)).max(1) - np.int8(17)  # -17: none
# Per biased binary exponent: the index of 10^E for the least E it holds.
_BINARY = np.floor((np.arange(2048) - 1023) * math.log10(2)).astype(np.intp) + _E_MAX + 1
# Per index of 10^E: 17 times a nonzero cell's form, and the scratch row's tail.
_E = np.arange(-_E_MAX - 1, _E_MAX + 17)
_FORM = 17 * np.where(abs(_E - 6) <= 10, _E + 4, 21 + (abs(_E) > 99))
_TAIL = np.frombuffer("".join(f"{abs(e):03}.e{'-+'[e >= 0]}\0\0" for e in _E.tolist()).encode(), "u8")


def _spell(columns: list[np.ndarray]) -> list[np.ndarray]:
    """format_float's bytes, among NULs, for each float of each array: bytes along a new
    last axis as wide as the array's longest cell and one more (NUL) byte."""
    x = np.concatenate([c.ravel() for c in columns], dtype=float)
    a = np.abs(x)
    normal = (a >= _AT_LEAST[1]) & (a < _AT_LEAST[2 * _E_MAX + 2])
    a = np.where(normal, a, 1.0)
    e = _BINARY.take(a.view(np.int64) >> 52)
    e += a >= _AT_LEAST.take(e + 1)
    k = 2 * _E_MAX + 18 - e  # index of 10^(16 - E)
    top = (split := a * _SPLIT) - (split - a)
    bottom, hi_top, hi_bottom = a - top, _HI_TOP.take(k), _HI_BOTTOM.take(k)
    p = a * _HI.take(k)
    s = ((top * hi_top - p) + top * hi_bottom + bottom * hi_top) + bottom * hi_bottom  # a hi - p
    r = np.rint(s := s + a * _LO.take(k))
    fallback = np.flatnonzero(~normal & (x != 0) | (abs(s - r) > 0.5 - _TIE_WINDOW))
    n = (p.astype(np.int64) + r.astype(np.int64)) * (x != 0)  # 0 spells zero
    n -= (carry := n >= 10**17) * 9 * 10**16  # rounded up to 10^(E + 1)
    e += carry
    groups = np.array(np.unravel_index(n, (10,) + (10**4,) * 4))  # 000d, then 4 digits each
    scratch = np.empty((x.size, 4), np.uint64)
    scratch.view(np.uint32)[:, :5] = _QUADS.take(groups).T
    scratch.view(np.uint8)[:, 20] = 45 * np.signbit(x)
    scratch[:, 3] = _TAIL.take(e)
    last = (_LAST.take(groups) + np.array([[-3], [1], [5], [9], [13]], np.int8)).max(0)
    key = _FORM.take(e) + np.maximum(last, 0)  # n's last nonzero digit
    del a, split, top, bottom, hi_top, hi_bottom, p, s, r, groups, last  # before the widest arrays
    ends = _END.take(key)
    ends[fallback] = 24  # the longest cell
    index = _LAYOUT[:, : ends.max() + 1].take(key, axis=0)
    index += np.arange(0, 32 * x.size, 32)[:, None]
    cells = scratch.view(np.uint8).ravel().take(index)
    spelled = np.array([format_float(v) for v in x[fallback].tolist()], "S24").view(np.uint8)
    cells[fallback, :24] = spelled.reshape(-1, 24)[:, : cells.shape[1]]
    starts = np.cumsum([0] + [c.size for c in columns[:-1]])
    return [cells[i : i + c.size, : w + 1].reshape(c.shape + (w + 1,)) for c, i, w in
            zip(columns, starts.tolist(), np.maximum.reduceat(ends, starts).tolist())]


def write_table(path, metadata: dict, header: list[str], columns, shape=None) -> int:
    """'# key=value' metadata lines, the header, then one row per element of
    shape (default: the first column's length) in C order; columns holds one
    array per header name, each broadcasting against shape. Floats are
    written as by format_float, anything else by str. Returns the row count."""
    columns = [np.asarray(c) for c in columns]
    if not columns or len(columns) != len(header):
        raise ValueError(f"need one column per header name, got {len(columns)} for {len(header)}")
    shape = (len(columns[0]),) if shape is None else tuple(shape)
    for name, c in zip(header, columns):
        if c.ndim > len(shape) or any(n not in (1, m) for n, m in zip(c.shape[::-1], shape[::-1])):
            raise ValueError(f"column {name!r} of shape {c.shape} does not broadcast to {shape}")
    columns = [c.reshape((1,) * (len(shape) - c.ndim) + c.shape) for c in columns]  # all axes
    for i, (name, c) in enumerate(zip(header, columns)):
        if c.dtype.kind != "f":  # text by str in UTF-8, NUL-padded to one byte past the longest
            cells = [str(v).encode() for v in c.ravel().tolist()]
            if b"\0" in b"".join(cells):
                raise ValueError(f"column {name!r}: a text cell holds NUL, which pads the cells")
            cells = np.array(cells, dtype=f"S{max(map(len, cells), default=0) + 1}")
            columns[i] = cells.view(np.uint8).reshape(c.shape + (cells.itemsize,))
    # Blocks: slices of the first axis past which one index holds at most _WRITE_LINES rows.
    axis = next(k for k in range(len(shape)) if math.prod(shape[k + 1 :]) <= _WRITE_LINES)
    step = max(1, _WRITE_LINES // max(math.prod(shape[axis + 1 :]), 1))
    with open(path, "wb") as out:
        out.write(("".join(f"# {key}={value}\n" for key, value in metadata.items())
                   + ",".join(header) + "\n").encode())
        for *lead, start in itertools.product(*map(range, shape[:axis]),
                                              range(0, shape[axis] if math.prod(shape) else 0, step)):
            block = [c[tuple(i if n > 1 else 0 for i, n in zip(lead, c.shape))] for c in columns]
            block = [b[start : start + step] if len(b) > 1 else b for b in block]
            # One byte matrix of the block's rows, cells NUL-padded; written without the NULs.
            spelled = iter(_spell(fs) if (fs := [b for b in block if b.dtype.kind == "f"]) else [])
            block = [next(spelled) if b.dtype.kind == "f" else b for b in block]
            here = (min(step, shape[axis] - start),) + shape[axis + 1 :]
            rows = np.concatenate([np.broadcast_to(b, here + b.shape[-1:]) for b in block], axis=-1)
            rows[..., np.cumsum([b.shape[-1] for b in block]) - 1] = ord(",")  # after each cell
            rows[..., -1] = ord("\n")
            out.write(rows.tobytes().translate(None, b"\0"))
    return math.prod(shape)


def _metadata(values: dict) -> dict:
    """CSV metadata: the package version, then values (command first); idempotent."""
    return {"version": __version__} | {key: _format_value(v) for key, v in values.items()}


def _write_sidecar(outdir: Path, command: str, settings: dict) -> None:
    """<command>_run.txt: the command, then one key=value line per setting."""
    lines = [f"{key}={_format_value(v)}" for key, v in ({"command": command} | settings).items()]
    (outdir / f"{command}_run.txt").write_text("\n".join(lines) + "\n", newline="\n")


def _write_tables(out, command: str, settings: dict, tables) -> None:
    """Create the directory out, write each table (file, metadata values, header,
    columns[, shape]) of the iterable tables as it is made, then <command>_run.txt:
    the settings and the files."""
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    files = []
    for file, values, header, *columns in tables:
        write_table(outdir / file, _metadata(values), header, *columns)
        files.append(file)
    _write_sidecar(outdir, command, settings | {"files": files})


def _grid(args, zmax: float, points: int) -> PropagationGrid:
    """The z grid from --zmax/--points, else from the command's defaults
    (zmax in units of 1/kappa)."""
    return PropagationGrid(args.zmax if args.zmax is not None else zmax / args.kappa,
                           args.points if args.points is not None else points)


def _rates(value, kappa: float, defaults: tuple[float, ...]) -> list[float]:
    """The single rate given by a flag, else the defaults in units of kappa."""
    return [value] if value is not None else [d * kappa for d in defaults]


def _shared(args, grid: PropagationGrid, **swept) -> dict:
    """The settings every figure records, with its swept values after kappa."""
    return {"kappa": args.kappa, **swept, "beta1": args.beta1, "beta2": args.beta2,
            "zmax": grid.z_max, "points": grid.num_points}


def _per_rate(args, grid, name: str, rates, propagate, table):
    """The tables of fig2 to fig5, one per rate (a loss rate, or fig5's rho), made
    lazily: <name><rate/kappa>.csv holds z and the curves of table(rate, zs, s, det),
    which returns (metadata values, {label: values}), s and det from propagate(rate, zs)."""
    zs = grid.points()
    for rate in rates:
        # S lives only until its curves are made, not while they are written.
        values, curves = table(rate, zs, *propagate(rate, zs))
        yield f"{name}{rate / args.kappa:g}.csv", values, ["z", *curves], [zs, *curves.values()]


def _closed_form(args):
    """propagate(gamma, zs) of fig2 to fig4: the memoryless coupler at the loss rate gamma."""
    return lambda gamma, zs: scattering_array(CouplerParams(args.beta1, args.beta2, args.kappa, gamma), zs)


def cmd_fig2(args) -> int:
    grid, gammas = _grid(args, 10.0, 501), _rates(args.gamma, args.kappa, (0.5, 2.0, 10.0))

    def table(gamma, zs, s, det):
        values = {"command": "fig2", "backend": "markovian"} | _shared(args, grid, gamma=gamma)
        # Power: both arms' column norms (balanced-orthogonal launch), arm 1's.
        return values | {"solid": "power_balanced_orthogonal", "dashed": "power_single_waveguide"}, {
            "power_balanced_orthogonal": 0.5 * mean_photon_number(s),
            "power_single_waveguide": np.abs(s[:, 0, 0]) ** 2 + np.abs(s[:, 1, 0]) ** 2}

    _write_tables(args.out, "fig2", _shared(args, grid, gammas=gammas),
                  _per_rate(args, grid, "fig2_gamma", gammas, _closed_form(args), table))
    return 0


def cmd_fig3(args) -> int:
    grid, gammas = _grid(args, 10.0, 501), _rates(args.gamma, args.kappa, (0.5, 2.0, 10.0))

    def table(gamma, zs, s, det):
        values = {"command": "fig3", "backend": "markovian", "input": "indistinguishable_pair"}
        return values | _shared(args, grid, gamma=gamma), {
            "survival_indistinguishable": survival_indistinguishable(s)}

    _write_tables(args.out, "fig3", _shared(args, grid, gammas=gammas),
                  _per_rate(args, grid, "fig3_gamma", gammas, _closed_form(args), table))
    return 0


def cmd_fig4(args) -> int:
    grid, kappa = _grid(args, 3.0, 301), args.kappa
    gammas = _rates(args.gamma, kappa, (0.625, 2.5))
    phis = [args.phi] if args.phi is not None else [0.0, 2.0 * math.pi / 3.0, math.pi]
    # PolarizationEntangled refuses a bad --phi before anything is computed.
    labels = [_survival_function(PolarizationEntangled(phi))[1] for phi in phis]
    phase_axis = np.array(phis)[:, None]  # each phase's column: P_B and P_F mixed at once
    head = {"command": "fig4", "panel": "a", "backend": "markovian",
            "input": "polarization_entangled_pair"}
    # z0 is the dimensionless product kappa*z0 = 3 converted to a length.
    z0 = 3.0 / kappa

    def table(gamma, zs, s, det):
        return (head | _shared(args, grid, gamma=gamma) | {"phis": phis},
                dict(zip(labels, survival_entangled(s, phase_axis, det))))

    def tables():
        # Panel (a): survival vs distance, one file per loss rate.
        yield from _per_rate(args, grid, "fig4a_gamma", gammas, _closed_form(args), table)
        # Panel (b): survival at the fixed distance z0 against the loss rate.
        gamma_axis = np.linspace(0.0, 5.0 * kappa, 201)
        s, det = scattering_array(CouplerParams(args.beta1, args.beta2, kappa), z0, gamma=gamma_axis)
        yield "fig4b.csv", head | {
            "panel": "b", "kappa": kappa, "beta1": args.beta1, "beta2": args.beta2,
            "z0": z0, "kappa_z0": 3.0, "gamma_min": 0.0, "gamma_max": 5.0 * kappa,
            "gamma_points": 201, "phis": phis,
        }, ["gamma"] + labels, [gamma_axis, *survival_entangled(s, phase_axis, det)]

    _write_tables(args.out, "fig4", _shared(args, grid, gammas=gammas, phis=phis) | {"z0": z0}, tables())
    return 0


def cmd_fig5(args) -> int:
    grid, kappa = _grid(args, 3.0, 301), args.kappa
    sigma = args.sigma if args.sigma is not None else 20.0 * kappa
    rhos = _rates(args.rho, kappa, (5.0, 10.0))
    phi = PolarizationEntangled(args.phi if args.phi is not None else math.pi).phi
    nsites = args.nsites if args.nsites is not None else min_lattice_size(sigma, grid.z_max)
    params = CouplerParams(args.beta1, args.beta2, kappa, 0.0)

    def table(rho, zs, s, det):
        gamma_eff = lattice_gamma(sigma, rho)
        return {
            "command": "fig5", "backend": "lattice", "input": "polarization_entangled_pair",
            "kappa": kappa, "beta1": args.beta1, "beta2": args.beta2, "phi": phi,
            "sigma": sigma, "rho": rho, "nsites": nsites, "beta_lattice": args.beta2,
            "gamma_eff": gamma_eff, "zmax": grid.z_max, "points": grid.num_points,
            "dashed": "exp(-2*gamma_eff*z)",
        }, {"survival_lattice": survival_entangled(s, phi, det),
            # gamma_eff z first: 2 gamma_eff may overflow, and inf times z = 0 is NaN.
            "survival_markovian_exponential": np.exp(-2.0 * (gamma_eff * zs))}

    settings = _shared(args, grid, rhos=rhos, sigma=sigma, phi=phi, nsites=nsites)
    _write_tables(args.out, "fig5", settings, _per_rate(args, grid, "fig5_rho", rhos, lambda rho, zs: (
        LatticePropagator(params, LatticeReservoir(sigma, rho, nsites, args.beta2)).scattering_array(zs)),
        table))
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
    "p_entangled": lambda s, det, phis, bare, rates: survival_entangled(s, np.array(phis)[:, None], det),
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
    meta, header, columns, shape = run_sweep(parse_sweep_config(Path(args.config).read_text()))
    _write_tables(args.out, "sweep", {"config": args.config, "rows": math.prod(shape)},
                  [("sweep.csv", meta, header, columns, shape)])
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
