"""Command-line front end: figure datasets and config-driven sweeps.

_COMMANDS declares the subcommands, fig2 to fig5 and sweep (help line, flags
from _FLAGS); main() builds the parser once per process and runs <name> as the
module-level cmd_<name>, looked up at dispatch. A command checks its propagator
source, _closed_form (memoryless loss rates) or _chains (a chain per rho), before
_write_tables makes --out and writes the tables and <command>_run.txt. One
generator, _blocks, tiles every table: a figure in blocks of the z grid of about
_FIGURE_POINTS (rate, z) propagators (_per_rate), the sweep in blocks of at most
8 _FIGURE_POINTS (axis, phi, z) rows, from S of at most _FIGURE_POINTS propagators
that every phase shares, and write_table's blocks of _WRITE_LINES rows. A command's
peak follows one block and its config (32 B a value of the sweep's lists and of
its columns of S at every z of an axis value). CSV layout, keys, exit codes: README.md.

write_table writes every CSV, one block of rows of all a table's files at a
time, as bytes: a float cell's bytes are format_float's, spelled for the block
at once in numpy (_spell); near-ties, non-finite values and |exponent| > 100 go
to format_float itself. Text is encoded once per column, at its own shape."""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import os
import re
import signal
import sys
import threading
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .classical import _power, _regimes, _supermodes
from .core import (MAX_GRID_POINTS, ClassicalInput, CouplerParams, PolarizationEntangled, PropagationGrid,
                   require_non_negative)
from .quantum import (
    _entangled,
    _survival_label,
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

_WRITE_LINES = 1536  # rows that write_table writes at a time, over all of a table's files
_FIGURE_POINTS = 2**14  # propagators that fig2 to fig5 and the sweep evaluate at a time


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
_GATHER = 512  # cells that _spell gathers at a time


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
    del split, top, bottom, hi_top, hi_bottom  # each array as soon as it is used up
    s += a * _LO.take(k)
    del a, k
    r = np.rint(s)
    fallback = np.flatnonzero(~normal & (x != 0) | (abs(s - r) > 0.5 - _TIE_WINDOW))
    n = (p.astype(np.int64) + r.astype(np.int64)) * (x != 0)  # 0 spells zero
    del p, s, r
    n -= (carry := n >= 10**17) * 9 * 10**16  # rounded up to 10^(E + 1)
    e += carry
    groups = np.array(np.unravel_index(n, (10,) + (10**4,) * 4))  # 000d, then 4 digits each
    del n
    scratch = np.empty((x.size, 4), np.uint64)
    scratch.view(np.uint32)[:, :5] = _QUADS.take(groups).T
    scratch.view(np.uint8)[:, 20] = 45 * np.signbit(x)
    scratch[:, 3] = _TAIL.take(e)
    last = (_LAST.take(groups) + np.array([[-3], [1], [5], [9], [13]], np.int8)).max(0)
    key = _FORM.take(e) + np.maximum(last, 0)  # n's last nonzero digit
    del groups, last  # before the widest arrays
    ends = _END.take(key)
    ends[fallback] = 24  # the longest cell
    layout, rows = _LAYOUT[:, : ends.max() + 1], scratch.view(np.uint8)
    cells, row = np.empty((x.size, layout.shape[1]), np.uint8), np.arange(0, 32 * _GATHER, 32)[:, None]
    for i in range(0, x.size, _GATHER):  # the index takes 8 bytes per byte of its cells
        index = layout.take(key[i : i + _GATHER], axis=0)
        index += row[: len(index)]  # where each cell's scratch row starts
        rows[i : i + _GATHER].ravel().take(index, out=cells[i : i + _GATHER])
    if fallback.size:  # building the bytes of no cell costs about 11 us
        spelled = np.array([format_float(v) for v in x[fallback].tolist()], "S24").view(np.uint8)
        cells[fallback, :24] = spelled.reshape(-1, 24)[:, : cells.shape[1]]
    starts = np.cumsum([0] + [c.size for c in columns[:-1]])
    return [cells[i : i + c.size, : w + 1].reshape(c.shape + (w + 1,)) for c, i, w in
            zip(columns, starts.tolist(), np.maximum.reduceat(ends, starts).tolist())]


def _blocks(shape: tuple, size: int) -> Iterator[tuple[slice, ...]]:
    """The blocks of an array of shape in C order, each of at most size elements (one at
    least): one index of each leading axis, a chunk of the next axis, all of the rest."""
    axis = next((k for k in range(len(shape)) if math.prod(shape[k + 1 :]) <= size), len(shape) - 1)
    step, rows = max(1, size // max(math.prod(shape[axis + 1 :]), 1)), math.prod(shape)
    for *lead, start in itertools.product(*map(range, shape[:axis]), range(0, shape[axis] if rows else 0, step)):
        yield (*(slice(i, i + 1) for i in lead), slice(start, min(start + step, shape[axis])),
               *(slice(None),) * (len(shape) - axis - 1))


def _at(column: np.ndarray, block: tuple[slice, ...]) -> np.ndarray:
    """The block of a column that broadcasts against the blocked shape, axes of length 1 whole."""
    return column[tuple([part if n > 1 else slice(None) for part, n in zip(block, column.shape)])]


def _cells(header: list[str], columns, shape: tuple) -> list[np.ndarray]:
    """columns checked against shape and given all of its axes, text as UTF-8 bytes
    along a new last axis, NUL-padded to one byte past the longest cell."""
    columns = [np.asarray(c) for c in columns]
    if not columns or len(columns) != len(header):
        raise ValueError(f"need one column per header name, got {len(columns)} for {len(header)}")
    for name, c in zip(header, columns):
        if c.ndim > len(shape) or any(n not in (1, m) for n, m in zip(c.shape[::-1], shape[::-1])):
            raise ValueError(f"column {name!r} of shape {c.shape} does not broadcast to {shape}")
    columns = [c.reshape((1,) * (len(shape) - c.ndim) + c.shape) for c in columns]  # all axes
    for i, (name, c) in enumerate(zip(header, columns)):
        if c.dtype.kind != "f":  # text by str, once per cell of the column's own shape
            cells = [str(v).encode() for v in c.ravel().tolist()]
            if b"\0" in b"".join(cells):
                raise ValueError(f"column {name!r}: a text cell holds NUL, which pads the cells")
            cells = np.array(cells, dtype=f"S{max(map(len, cells), default=0) + 1}")
            columns[i] = cells.view(np.uint8).reshape(c.shape + (cells.itemsize,))
    return columns


def _write_rows(outs: list, columns: list[np.ndarray], shape: tuple) -> None:
    """The rows of _cells' columns of shape (files, rows...), each file's to its out, in
    blocks of at most _WRITE_LINES rows of all the files together, each spelled once."""
    for index in _blocks(shape[1:], _WRITE_LINES // max(shape[0], 1)):
        block = [_at(c, (slice(None), *index)) for c in columns]
        # One byte matrix of the block's rows, cells NUL-padded; written without the NULs.
        spelled = iter(_spell(fs) if (fs := [b for b in block if b.dtype.kind == "f"]) else [])
        block = [next(spelled) if b.dtype.kind == "f" else b for b in block]
        here = shape[:1] + tuple(len(range(n)[part]) for part, n in zip(index, shape[1:]))
        rows = np.concatenate([np.broadcast_to(b, here + b.shape[-1:]) for b in block], axis=-1)
        rows[..., np.cumsum([b.shape[-1] for b in block]) - 1] = ord(",")  # after each cell
        rows[..., -1] = ord("\n")
        for out, text in zip(outs, rows):
            out.write(text.tobytes().translate(None, b"\0"))
        del block, spelled, rows, text  # before the next block is spelled


def write_table(path, metadata: dict, header: list[str], columns, shape=None) -> int:
    """'# key=value' metadata lines, the header, then one row per element of
    shape (default: the first column's length) in C order; columns holds one
    array per header name, each broadcasting against shape. Floats are
    written as by format_float, anything else by str. Returns the row count.

    path may be a list of paths and metadata a list of dicts, one file per
    index of shape's first axis: each file holds the rows of its index, and
    each block of rows is spelled once for all of them. columns may be an
    iterator of such lists, each the next block of rows in C order, of its
    columns' broadcast shape (the files' axis first where there are several),
    and shape is required: a table is then made while it is written."""
    many, streamed = isinstance(path, list), isinstance(columns, Iterator)
    paths, metadata = (path, metadata) if many else ([path], [metadata])
    shape = (len(columns[0]) if len(columns) else 0,) if shape is None else tuple(shape)
    if many and (len(shape) < 2 or not len(paths) == len(metadata) == shape[0]):
        raise ValueError(f"need one path and one metadata dict per index of the first axis of {shape}")
    whole = shape if many else (1,) + shape  # the files' axis first

    def checked(piece):  # a streamed piece: the next block of rows, of its columns' broadcast shape
        piece = list(piece)
        here = np.broadcast_shapes(*map(np.shape, piece)) if streamed else shape
        here = here if many else (1, *here)
        if len(here) != len(whole) or here[0] != whole[0]:
            raise ValueError(f"a piece of shape {here} is no block of rows of {whole}")
        return _cells(header, piece, here), here

    pieces = map(checked, columns if streamed else [columns])
    first, rows = list(itertools.islice(pieces, 1)), 0  # refused before any file is opened
    with contextlib.ExitStack() as stack:
        outs = [stack.enter_context(open(file, "wb")) for file in paths]
        for out, values in zip(outs, metadata):
            out.write(("".join(f"# {key}={value}\n" for key, value in values.items())
                       + ",".join(header) + "\n").encode())
        for piece, here in itertools.chain(first, pieces):
            _write_rows(outs, piece, here)
            rows += math.prod(here)
    if rows != math.prod(shape):
        raise ValueError(f"the pieces hold {rows} rows, where shape {shape} holds {math.prod(shape)}")
    return rows


def _metadata(values: dict) -> dict:
    """CSV metadata: the package version, then values (command first); idempotent."""
    return {"version": __version__} | {key: _format_value(v) for key, v in values.items()}


def _write_sidecar(path: Path, command: str, settings: dict) -> None:
    """<command>_run.txt at path: the command, then one key=value line per setting."""
    lines = [f"{key}={_format_value(v)}" for key, v in ({"command": command} | settings).items()]
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _write_tables(out, command: str, settings: dict, tables) -> None:
    """Create the directory out and write each table (file, metadata, header,
    columns[, shape]) of the iterable tables as it is made, then <command>_run.txt:
    the settings and the files. A table of one file per index of its first axis
    gives a list of files and one of metadata (see write_table). All or nothing:
    each file is written under a hidden name, .<file>.part, and moved into place,
    the sidecar last, once every table is made; on any error, an interrupt too,
    every file written is removed, and so is each directory made that is left empty."""
    outdir = Path(out)
    made = list(itertools.takewhile(lambda directory: not directory.exists(), [outdir, *outdir.parents]))
    outdir.mkdir(parents=True, exist_ok=True)
    files, written = [], []
    try:
        for file, *table in tables:
            many = isinstance(file, list)
            parts = [outdir / f".{name}.part" for name in (file if many else [file])]
            written += parts
            write_table(parts if many else parts[0], *table)
            files += file if many else [file]
        written.append(outdir / f".{command}_run.txt.part")
        _write_sidecar(written[-1], command, settings | {"files": files})
        for i, file in enumerate(files + [f"{command}_run.txt"]):
            os.replace(written[i], outdir / file)
            written[i] = outdir / file
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        for directory in made:  # the deepest first; one that holds a file stays
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise


def _length(kappa: float, units: float, name: str) -> float:
    """units / kappa, the length name, refused naming kappa where it passes the float range."""
    if units / kappa == math.inf:
        raise ValueError(f"kappa = {kappa:g}: {name} = {units:g}/kappa passes the float range")
    return units / kappa


def _grid(args, zmax: float, points: int) -> PropagationGrid:
    """The z grid from --zmax/--points, else from the command's defaults
    (zmax in units of 1/kappa)."""
    zmax = args.zmax if args.zmax is not None else _length(args.kappa, zmax, "the default zmax")
    return PropagationGrid(zmax, args.points if args.points is not None else points)


def _rates(value, kappa: float, defaults: tuple[float, ...]) -> list[float]:
    """The single rate given by a flag, else the defaults in units of kappa, none past the floats."""
    if value is None and max(defaults) * kappa == math.inf:
        raise ValueError(f"kappa = {kappa:g}: the default rates up to {max(defaults):g} kappa "
                         "pass the float range")
    return [value] if value is not None else [d * kappa for d in defaults]


def _shared(args, grid: PropagationGrid, **swept) -> dict:
    """The settings every figure records, with its swept values after kappa."""
    return {"kappa": args.kappa, **swept, "beta1": args.beta1, "beta2": args.beta2,
            "zmax": grid.z_max, "points": grid.num_points}


def _per_rate(args, grid, name: str, rates, values, labels, curves, propagators) -> list:
    """The table over (rate, z) of fig2 to fig5, a rate being a loss rate or fig5's rho: one file
    <name><rate/kappa>.csv per rate, with the metadata values(rate), z and the curves labels. Its
    pieces of about _FIGURE_POINTS (rate, z) points are made as they are written: curves(s, det, zs)
    gives each label's values, shape (rate, z), from one propagators(zs) call (_closed_form, _chains)."""
    return [([f"{name}{rate / args.kappa:g}.csv" for rate in rates], [_metadata(values(rate)) for rate in rates],
             ["z", *labels], ([zs, *curves(*propagators(zs), zs)]
                              for (part,) in _blocks((grid.num_points,), _FIGURE_POINTS // len(rates))
                              for zs in [grid.points(part.start, part.stop)]),
             (len(rates), grid.num_points))]


def cmd_fig2(args) -> int:
    grid, gammas = _grid(args, 10.0, 501), _rates(args.gamma, args.kappa, (0.5, 2.0, 10.0))
    launches = (ClassicalInput.BALANCED_ORTHOGONAL, ClassicalInput.SINGLE_WAVEGUIDE)
    labels = [f"power_{launch.value}" for launch in launches]
    head = {"command": "fig2", "backend": "markovian"}
    _write_tables(args.out, "fig2", _shared(args, grid, gammas=gammas), _per_rate(
        args, grid, "fig2_gamma", gammas,
        lambda gamma: head | _shared(args, grid, gamma=gamma) | {"solid": labels[0], "dashed": labels[1]},
        labels, lambda s, det, zs: [_power(s, launch) for launch in launches],
        _closed_form(args, gammas, np.array([grid.z_max]))))
    return 0


def cmd_fig3(args) -> int:
    grid, gammas = _grid(args, 10.0, 501), _rates(args.gamma, args.kappa, (0.5, 2.0, 10.0))
    head = {"command": "fig3", "backend": "markovian", "input": "indistinguishable_pair"}
    _write_tables(args.out, "fig3", _shared(args, grid, gammas=gammas), _per_rate(
        args, grid, "fig3_gamma", gammas, lambda gamma: head | _shared(args, grid, gamma=gamma),
        ["survival_indistinguishable"], lambda s, det, zs: [survival_indistinguishable(s)],
        _closed_form(args, gammas, np.array([grid.z_max]))))
    return 0


def cmd_fig4(args) -> int:
    grid, kappa = _grid(args, 3.0, 301), args.kappa
    gammas = _rates(args.gamma, kappa, (0.625, 2.5))
    phis = [args.phi] if args.phi is not None else [0.0, 2.0 * math.pi / 3.0, math.pi]
    # PolarizationEntangled refuses a bad --phi before anything is computed.
    labels = [_survival_label(PolarizationEntangled(phi)) for phi in phis]
    phase_axis = np.array(phis)[:, None]  # each phase's column: P_B and P_F mixed at once
    head = {"command": "fig4", "panel": "a", "backend": "markovian",
            "input": "polarization_entangled_pair"}
    # z0: the product kappa z0 = 3 as a length; panel (b)'s loss rates run up to 5 kappa.
    z0, (gamma_max,) = _length(kappa, 3.0, "z0"), _rates(None, kappa, (5.0,))
    # Panel (a): survival vs distance, one file per loss rate; (b): at z0 against the loss rate.
    panel_a = _per_rate(args, grid, "fig4a_gamma", gammas,
                        lambda gamma: head | _shared(args, grid, gamma=gamma) | {"phis": phis},
                        labels, lambda s, det, zs: survival_entangled(s, phase_axis[..., None], det),
                        _closed_form(args, gammas, np.array([grid.z_max])))
    gamma_axis = np.linspace(0.0, gamma_max, 201)
    panel_b = _closed_form(args, gamma_axis, np.array(z0))

    def tables():
        yield from panel_a
        s, det = panel_b(np.array(z0))
        yield "fig4b.csv", _metadata(head | {
            "panel": "b", "kappa": kappa, "beta1": args.beta1, "beta2": args.beta2,
            "z0": z0, "kappa_z0": 3.0, "gamma_min": 0.0, "gamma_max": gamma_max,
            "gamma_points": 201, "phis": phis,
        }), ["gamma"] + labels, [gamma_axis, *survival_entangled(s, phase_axis, det)]

    _write_tables(args.out, "fig4", _shared(args, grid, gammas=gammas, phis=phis) | {"z0": z0}, tables())
    return 0


def cmd_fig5(args) -> int:
    grid, kappa = _grid(args, 3.0, 301), args.kappa
    (sigma,) = _rates(args.sigma, kappa, (20.0,))
    rhos = _rates(args.rho, kappa, (5.0, 10.0))
    phi = PolarizationEntangled(args.phi if args.phi is not None else math.pi).phi
    nsites, rates, chains = _chains(args, sigma, rhos, args.beta2, np.array([grid.z_max]))

    def curves(s, det, zs):
        with np.errstate(over="ignore"):  # gamma_eff z past the floats is inf, its exponential 0
            markovian = np.exp(-2.0 * (rates[:, None] * zs))  # 2 gamma_eff may overflow; inf times 0 is NaN
        return survival_entangled(s, phi, det), markovian

    def values(rho):
        return {"command": "fig5", "backend": "lattice", "input": "polarization_entangled_pair",
                "kappa": kappa, "beta1": args.beta1, "beta2": args.beta2, "phi": phi,
                "sigma": sigma, "rho": rho, "nsites": nsites, "beta_lattice": args.beta2,
                "gamma_eff": lattice_gamma(sigma, rho), "zmax": grid.z_max, "points": grid.num_points,
                "dashed": "exp(-2*gamma_eff*z)"}

    _write_tables(args.out, "fig5", _shared(args, grid, rhos=rhos, sigma=sigma, phi=phi, nsites=nsites),
                  _per_rate(args, grid, "fig5_rho", rhos, values,
                            ["survival_lattice", "survival_markovian_exponential"], curves, chains))
    return 0


def _closed_form(source, rates, zs: np.ndarray):
    """propagators(z, part=slice(None)): S and the reduced determinants, shape (rate,) + z.shape, at
    each loss rate of rates[part] from one scattering_array call on the coupler of source, the flags
    or the sweep config. The coupler, the rates and the distances zs are checked before any S."""
    params, rates = CouplerParams(source.beta1, source.beta2, source.kappa), require_non_negative("gamma", rates)
    require_non_negative("z", zs)
    return lambda z, part=slice(None): scattering_array(params, z, gamma=rates[part].reshape((-1,) + (1,) * z.ndim))


def _chains(source, sigma: float, rhos, beta_lattice: float, zs: np.ndarray):
    """nsites (source.nsites, else min_lattice_size(sigma, far) at the farthest distance of zs, 11 at
    far = 0), the rates lattice_gamma(sigma, rho) and propagators(z, part) as _closed_form's, with the
    entrywise determinants, on the chain of each rho. source also gives nsites. Every chain is checked
    at zs, then every rate, before any S; a chain whose ends can reflect back by far warns on stderr."""
    far = float(zs.max(initial=0.0))
    nsites = source.nsites if source.nsites is not None else min_lattice_size(sigma, far) if far > 0.0 else 11
    params, chains = CouplerParams(source.beta1, source.beta2, source.kappa), []
    for rho in rhos:
        chains.append(LatticePropagator(params, LatticeReservoir(sigma, rho, nsites, beta_lattice)))
        chains[-1]._sizes(zs)  # the propagator's own refusal, before the first piece
    rates = np.array([lattice_gamma(sigma, rho) for rho in rhos])
    if far > 0.0 and nsites < (needed := min_lattice_size(sigma, far)):
        print(f"warning: nsites = {nsites} < min_lattice_size(sigma = {sigma:g}, zmax = {far:g}) "
              f"= {needed}: end reflections can reach the coupler", file=sys.stderr)

    def propagators(z: np.ndarray, part=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        s, det = zip(*(chain.scattering_array(z) for chain in chains[part]))
        return np.stack(s), np.stack(det)

    return nsites, rates, propagators


# The sweep's columns: of S, name -> f(s, det) over S's (axis, z), det its determinants (reduced for the
# memoryless coupler, entrywise for the lattice); of the axis, name -> f(bare, rates) over the (effective)
# loss rates, bare the lossless coupler; p_entangled mixes p_boson and p_fermion at each phase.
_S_COLUMNS = {
    "classical_power": lambda s, det: _power(s, ClassicalInput.BALANCED_ORTHOGONAL),
    "mean_photon_number": lambda s, det: mean_photon_number(s),
    "p_boson": lambda s, det: survival_indistinguishable(s),
    "p_fermion": lambda s, det: survival_fermionic(s, det),
}
_AXIS_COLUMNS = {"ep_regime": lambda bare, rates: _regimes(bare, rates),
                 "eigenvalue_gap": lambda bare, rates: _supermodes(bare, rates)[2]}
SWEEP_OBSERVABLES = ("classical_power", "mean_photon_number", "p_boson", "p_entangled", "p_fermion",
                     "ep_regime", "eigenvalue_gap")


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


def run_sweep(cfg: SweepConfig) -> tuple[dict, list[str], Iterator[list[np.ndarray]], tuple[int, int, int]]:
    """The sweep's metadata, header, columns and row shape (axis, phi, z) for write_table, the columns
    made as they are written, in blocks of rows (_blocks) of a bounded size."""
    if cfg.backend == "markovian":
        for key in ("rho", "sigma", "nsites", "beta_lattice"):
            if getattr(cfg, key) not in (None, ()):
                raise ValueError(f"config: {key}: only meaningful with backend=lattice")
        axis_name, axis = "gamma", cfg.gamma
    else:
        if any(g != 0.0 for g in cfg.gamma):
            raise ValueError("config: gamma: explicit loss cannot be combined with the lattice "
                             "backend; sweep rho instead")
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
        raise ValueError(f"config: the sweep has {rows} rows ({axis_name} x phi x z = "
                         f"{' x '.join(map(str, shape))}); the limit is {MAX_GRID_POINTS}")

    header = [axis_name, "phi", "z"] + list(cfg.observables)
    values = {"command": "sweep", "backend": cfg.backend, "kappa": cfg.kappa,
              "beta1": cfg.beta1, "beta2": cfg.beta2}
    if cfg.backend == "lattice":
        values |= {"sigma": cfg.sigma, "regime_columns_use": "effective_gamma=rho^2/(2*sigma)"}

    bare = CouplerParams(cfg.beta1, cfg.beta2, cfg.kappa)
    axis_values, phis, zs = np.array(axis), np.array(cfg.phi), np.array(cfg.z)
    if cfg.backend == "markovian":
        rates, propagators = axis_values, _closed_form(cfg, axis_values, zs)
    else:
        beta_lattice = cfg.beta_lattice if cfg.beta_lattice is not None else cfg.beta2
        _, rates, propagators = _chains(cfg, cfg.sigma, axis, beta_lattice, zs)
    # The columns of S that the observables read, held at every z of a chunk of axis values.
    of_s = [name for name in _S_COLUMNS if name in cfg.observables
            or "p_entangled" in cfg.observables and name in ("p_boson", "p_fermion")]

    def pieces():  # of at most 8 _FIGURE_POINTS rows: a piece's p_entangled takes the bytes of S
        for (part,) in _blocks((len(axis),), _FIGURE_POINTS // max(len(zs), 1)):
            n, held = len(axis_values[part]), {name: _AXIS_COLUMNS[name](bare, rates[part])[:, None, None]
                                               for name in cfg.observables if name in _AXIS_COLUMNS}
            held |= {name: np.empty((n, 1, len(zs))) for name in of_s}
            for (z,) in _blocks((len(zs),), _FIGURE_POINTS // n):
                s, det = propagators(zs[z], part)
                for name in of_s:
                    held[name][:, 0, z] = _S_COLUMNS[name](s, det)
            for a, p, z in _blocks((n, len(phis), len(zs)), 8 * _FIGURE_POINTS):
                at = {name: _at(column, (a, p, z)) for name, column in held.items()}
                yield [axis_values[part][a, None, None], phis[p, None], zs[z]] + [
                    _entangled(np.cos(phis[p, None]), at["p_boson"], at["p_fermion"]) if name == "p_entangled"
                    else at[name] for name in cfg.observables]

    return _metadata(values), header, pieces(), shape


def cmd_sweep(args) -> int:
    meta, header, columns, shape = run_sweep(parse_sweep_config(Path(args.config).read_text()))
    _write_tables(args.out, "sweep", {"config": args.config, "rows": math.prod(shape)},
                  [("sweep.csv", meta, header, columns, shape)])
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A flag's value may be any negative float, -1e308 and -inf among them, not
        # only the plain decimals that argparse reads as numbers.
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

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
        # In the main thread, SIGTERM raises SystemExit(128 + SIGTERM) while the command
        # runs, so that _write_tables takes back what it wrote; the old handler returns after.
        terminate = threading.current_thread() is threading.main_thread()
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum)) if terminate else None
        try:
            # Looked up now, so a wrapper installed on cmd_<name> after import runs.
            return globals()[f"cmd_{args.command}"](args)
        finally:
            if terminate:
                signal.signal(signal.SIGTERM, previous)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, OSError) else 1


if __name__ == "__main__":
    sys.exit(main())
