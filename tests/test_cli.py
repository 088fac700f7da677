import contextlib
import dataclasses
import io
import math
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from ptcoupler.classical import EP_DISCRIMINANT_TOL, classical_power_curve, classify_ep, supermodes
import ptcoupler
from ptcoupler.cli import (
    SWEEP_OBSERVABLES,
    SweepConfig,
    format_float,
    main,
    parse_sweep_config,
    run_sweep,
    write_table,
)
from ptcoupler.core import MAX_GRID_POINTS, ClassicalInput, CouplerParams, DecayCurve, PropagationGrid
from ptcoupler.quantum import (
    mean_photon_number,
    survival_entangled,
    survival_fermionic,
    survival_indistinguishable,
)
from ptcoupler.reservoir import LatticePropagator, LatticeReservoir, lattice_gamma
from ptcoupler.scattering import scattering_matrix


def read_table(path):
    metadata, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            metadata[key] = value
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    return metadata, header, rows


def read_decay_curves(path):
    """A figure CSV's metadata and its columns after the first as DecayCurves over
    the first, which check their invariants: z starts at 0 and strictly increases,
    and every value is finite and non-negative. Floats come back bit-identical."""
    metadata, header, rows = read_table(path)
    if header is None:
        raise ValueError(f"{path}: missing header row")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    z, *columns = ([float(v) for v in column] for column in zip(*rows))
    return metadata, [DecayCurve.from_arrays(label, z, c) for label, c in zip(header[1:], columns)]


def curve_by_label(curves, label):
    matches = [c for c in curves if c.label == label]
    assert len(matches) == 1, f"missing column {label!r}"
    return matches[0]


# -- serialization ---------------------------------------------------------

@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_round_trips(x):
    assert float(format_float(x)) == x


def test_decay_curve_round_trip(tmp_path):
    zs = [0.0, 1.0 / 3.0, 0.7, 1.1]
    c1 = DecayCurve.from_arrays("alpha", zs, [1.0, 1.0 / 7.0, 2e-300, 0.0])
    c2 = DecayCurve.from_arrays("beta", zs, [0.3, 0.1, 0.05, 1e-17])
    path = tmp_path / "t.csv"
    write_table(path, {"version": "x", "note": "n"}, ["z", "alpha", "beta"],
                [c1.z_values(), c1.values(), c2.values()])
    metadata, curves = read_decay_curves(path)
    assert metadata == {"version": "x", "note": "n"}
    assert [c.label for c in curves] == ["alpha", "beta"]
    assert np.array_equal(curves[0].z_values(), c1.z_values())
    assert np.array_equal(curves[0].values(), c1.values())
    assert np.array_equal(curves[1].values(), c2.values())


def test_read_decay_curves_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="missing header"):
        read_decay_curves(empty)
    headed = tmp_path / "headed.csv"
    headed.write_text("z,a\n")
    with pytest.raises(ValueError, match="no data rows"):
        read_decay_curves(headed)


# -- fig2 -------------------------------------------------------------------

def test_fig2_default_outputs(tmp_path):
    assert main(["fig2", "--out", str(tmp_path)]) == 0
    names = ["fig2_gamma0.5.csv", "fig2_gamma2.csv", "fig2_gamma10.csv"]
    for name in names:
        metadata, curves = read_decay_curves(tmp_path / name)
        assert metadata["command"] == "fig2"
        assert [c.label for c in curves] == [
            "power_balanced_orthogonal", "power_single_waveguide"
        ]
        for c in curves:
            assert len(c.z_values()) == 501
            assert c.values()[0] == 1.0
            diffs = np.diff(np.asarray(c.values()))
            assert diffs.max() <= 1e-12  # passive: power cannot grow
    sidecar = (tmp_path / "fig2_run.txt").read_text().splitlines()
    assert sidecar[0] == "command=fig2"
    assert "files=" + ";".join(names) in sidecar


def test_fig2_loss_induced_transparency_in_emitted_data(tmp_path):
    assert main(["fig2", "--out", str(tmp_path)]) == 0
    _, weak = read_decay_curves(tmp_path / "fig2_gamma2.csv")
    _, strong = read_decay_curves(tmp_path / "fig2_gamma10.csv")
    i = 150  # z = 3 on the default grid
    assert weak[0].z_values()[i] == pytest.approx(3.0, abs=1e-12)
    assert strong[0].values()[i] > weak[0].values()[i]


def test_fig2_flag_overrides(tmp_path):
    assert main(["fig2", "--out", str(tmp_path), "--gamma", "1.0",
                 "--points", "11", "--zmax", "2.0"]) == 0
    metadata, curves = read_decay_curves(tmp_path / "fig2_gamma1.csv")
    assert len(curves[0].z_values()) == 11
    assert curves[0].z_values()[-1] == 2.0
    assert metadata["gamma"] == "1"


def test_fig2_columns_are_the_power_curves_bit_for_bit(tmp_path):
    # At the exceptional point, over three of fig2's blocks of the grid (5461 points at each
    # of its three rates): the same doubles as one classical_power_curve call per launch.
    assert main(["fig2", "--out", str(tmp_path), "--kappa", "1.3", "--points", "12001",
                 "--zmax", "7"]) == 0
    _, curves = read_decay_curves(tmp_path / "fig2_gamma2.csv")
    params, grid = CouplerParams(0.0, 0.0, 1.3, 2.0 * 1.3), PropagationGrid(7.0, 12001)
    for launch in (ClassicalInput.BALANCED_ORTHOGONAL, ClassicalInput.SINGLE_WAVEGUIDE):
        expected = classical_power_curve(params, launch, grid)
        got = curve_by_label(curves, expected.label)
        assert np.array_equal(got.z_values(), expected.z_values())
        assert np.array_equal(got.values(), expected.values())


def test_fig2_strong_loss_stays_finite(tmp_path):
    # gamma z reaches 4000 on the default grid, far past where cos(w z)
    # alone overflows; the emitted power must stay finite and physical.
    assert main(["fig2", "--gamma", "400", "--out", str(tmp_path)]) == 0
    _, curves = read_decay_curves(tmp_path / "fig2_gamma400.csv")
    for c in curves:
        values = np.asarray(c.values())
        assert np.all(np.isfinite(values)) and np.all(values >= 0.0)
    # Loss-induced transparency: the single-arm launch keeps ~e^{-z/200}.
    single = curve_by_label(curves, "power_single_waveguide")
    assert single.values()[-1] == pytest.approx(math.exp(-2.0 * 10.0 / 400.0), rel=1e-3)


def test_fig2_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["fig2", "--out", str(a)]) == 0
    assert main(["fig2", "--out", str(b)]) == 0
    for name in ("fig2_gamma0.5.csv", "fig2_gamma2.csv", "fig2_gamma10.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("flags", [
    ["--kappa", "1e-170"], ["--kappa", "1e300"], ["--gamma", "1e200"],
    ["--kappa", "1e-170", "--beta1", "1e200", "--beta2", "1e200", "--zmax", "1e-190"],
])
def test_fig2_at_any_scale_of_the_rates_exits_0(tmp_path, flags):
    # kappa^2 + d^2 under- or overflows at these scales; the closed form
    # forms it in units of a power of two near kappa and d, which a common
    # propagation constant far above them must not overflow.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fig2", "--points", "3", *flags, "--out", str(tmp_path)]) == 0
    for path in tmp_path.glob("fig2_gamma*.csv"):
        _, curves = read_decay_curves(path)
        for c in curves:
            assert c.values()[0] == 1.0 and 0.0 <= c.values().min() <= c.values().max() <= 1.0


@pytest.mark.parametrize("k", [-560, 560])
def test_fig2_at_a_power_of_two_kappa_is_fig2_at_kappa_1(tmp_path, k):
    # Rates times 2^k and distances times 2^-k: the same powers, bit for bit.
    assert main(["fig2", "--out", str(tmp_path / "one")]) == 0
    assert main(["fig2", "--kappa", repr(2.0**k), "--out", str(tmp_path / "scaled")]) == 0
    for name in ("fig2_gamma0.5.csv", "fig2_gamma2.csv", "fig2_gamma10.csv"):
        rows = [read_table(tmp_path / tree / name)[2] for tree in ("one", "scaled")]
        assert [row[1:] for row in rows[0]] == [row[1:] for row in rows[1]]


# -- fig3 -------------------------------------------------------------------

def test_fig3_outputs(tmp_path):
    assert main(["fig3", "--out", str(tmp_path)]) == 0
    for name in ("fig3_gamma0.5.csv", "fig3_gamma2.csv", "fig3_gamma10.csv"):
        metadata, curves = read_decay_curves(tmp_path / name)
        assert metadata["input"] == "indistinguishable_pair"
        (curve,) = curves
        assert curve.label == "survival_indistinguishable"
        values = np.asarray(curve.values())
        assert values[0] == 1.0
        assert np.diff(values).max() <= 1e-12


def test_fig3_below_coalescence_curve_is_not_a_plain_exponential(tmp_path):
    # Interference with the coupling modulates the decay: the difference
    # sequence of the emitted samples changes slope direction.
    assert main(["fig3", "--out", str(tmp_path), "--gamma", "0.5"]) == 0
    _, (curve,) = read_decay_curves(tmp_path / "fig3_gamma0.5.csv")
    second = np.diff(np.asarray(curve.values()), n=2)
    assert (second > 1e-12).any()
    assert (second < -1e-12).any()


def test_fig3_pair_dies_faster_than_classical_power(tmp_path):
    assert main(["fig2", "--out", str(tmp_path)]) == 0
    assert main(["fig3", "--out", str(tmp_path)]) == 0
    _, fig2_curves = read_decay_curves(tmp_path / "fig2_gamma10.csv")
    _, (pair,) = read_decay_curves(tmp_path / "fig3_gamma10.csv")
    classical = curve_by_label(fig2_curves, "power_balanced_orthogonal")
    i = 150  # z = 3
    assert pair.values()[i] < classical.values()[i]


# -- fig4 -------------------------------------------------------------------

def test_fig4_panel_a_outputs(tmp_path):
    assert main(["fig4", "--out", str(tmp_path)]) == 0
    labels = ["survival_phi_0", "survival_phi_2.09439510239", "survival_phi_3.14159265359"]
    for name in ("fig4a_gamma0.625.csv", "fig4a_gamma2.5.csv"):
        metadata, curves = read_decay_curves(tmp_path / name)
        assert metadata["panel"] == "a"
        assert [c.label for c in curves] == labels
        for c in curves:
            assert c.values()[0] == 1.0
            assert len(c.z_values()) == 301


def test_fig4_antisymmetric_column_is_pure_exponential(tmp_path):
    assert main(["fig4", "--out", str(tmp_path)]) == 0
    for name, gamma in (("fig4a_gamma0.625.csv", 0.625), ("fig4a_gamma2.5.csv", 2.5)):
        _, curves = read_decay_curves(tmp_path / name)
        fermi = curve_by_label(curves, "survival_phi_3.14159265359")
        zs = np.asarray(fermi.z_values())
        residual = np.log(np.asarray(fermi.values())) - (-2.0 * gamma * zs)
        assert np.abs(residual).max() < 1e-9


def test_fig4_panel_b_outputs(tmp_path):
    assert main(["fig4", "--out", str(tmp_path)]) == 0
    metadata, curves = read_decay_curves(tmp_path / "fig4b.csv")
    assert metadata["panel"] == "b"
    assert metadata["kappa_z0"] == "3"
    gammas = np.asarray(curves[0].z_values())  # first column is the loss axis
    assert len(gammas) == 201
    assert gammas[0] == 0.0
    assert gammas[-1] == 5.0
    for c in curves:
        assert abs(c.values()[0] - 1.0) < 1e-12  # lossless row
    boson_like = curve_by_label(curves, "survival_phi_0")
    fermi_like = curve_by_label(curves, "survival_phi_3.14159265359")
    i = 100
    assert gammas[i] == 2.5
    assert boson_like.values()[i] / fermi_like.values()[i] > 100.0


def test_fig4_panel_b_fermionic_column_is_the_exponential_law_to_the_last_digits(tmp_path):
    # The phi = pi column is |det S|^2 = e^{-2 gamma z0} at every rate; the
    # entrywise interference sum cancelled to 3.9e-7 relative at gamma = 4.95.
    assert main(["fig4", "--out", str(tmp_path)]) == 0
    _, curves = read_decay_curves(tmp_path / "fig4b.csv")
    fermi = curve_by_label(curves, "survival_phi_3.14159265359")
    assert len(fermi.values()) == 201
    for gamma, value in zip(fermi.z_values(), fermi.values()):
        expected = math.exp(-2.0 * gamma * 3.0)
        assert abs(value - expected) <= 1e-13 * expected


def test_fig4_boson_column_is_fig3_byte_for_byte(tmp_path):
    assert main(["fig4", "--gamma", "2", "--out", str(tmp_path / "fig4")]) == 0
    assert main(["fig3", "--gamma", "2", "--zmax", "3", "--points", "301",
                 "--out", str(tmp_path / "fig3")]) == 0
    _, header4, rows4 = read_table(tmp_path / "fig4" / "fig4a_gamma2.csv")
    _, header3, rows3 = read_table(tmp_path / "fig3" / "fig3_gamma2.csv")
    boson = header4.index("survival_phi_0")
    assert [(row[0], row[boson]) for row in rows4] == [tuple(row) for row in rows3]


def test_fig4_panel_b_matches_per_rate_propagators(tmp_path):
    assert main(["fig4", "--out", str(tmp_path), "--beta1", "0.3", "--points", "3"]) == 0
    _, curves = read_decay_curves(tmp_path / "fig4b.csv")
    for c, phi in zip(curves, (0.0, 2.0 * math.pi / 3.0, math.pi), strict=True):
        for gamma, value in zip(c.z_values(), c.values()):
            s = scattering_matrix(CouplerParams(0.3, 0.0, 1.0, float(gamma)), 3.0)
            assert abs(value - survival_entangled(s, phi)) < 1e-14


# -- fig5 -------------------------------------------------------------------

def test_fig5_outputs(tmp_path):
    assert main(["fig5", "--out", str(tmp_path)]) == 0
    expected_gamma_eff = {"fig5_rho5.csv": "0.625", "fig5_rho10.csv": "2.5"}
    for name, gamma_eff in expected_gamma_eff.items():
        metadata, curves = read_decay_curves(tmp_path / name)
        assert metadata["gamma_eff"] == gamma_eff
        assert metadata["nsites"] == "310"
        exact = curve_by_label(curves, "survival_lattice")
        markov = curve_by_label(curves, "survival_markovian_exponential")
        assert abs(exact.values()[0] - 1.0) < 1e-12
        assert markov.values()[0] == 1.0
        gap = np.abs(np.asarray(exact.values()) - np.asarray(markov.values()))
        assert gap.max() < 0.15  # memory effects stay a small correction


def test_fig5_small_custom_run(tmp_path):
    assert main(["fig5", "--out", str(tmp_path), "--rho", "2.0", "--sigma", "10.0",
                 "--nsites", "64", "--points", "11", "--zmax", "1.0"]) == 0
    metadata, curves = read_decay_curves(tmp_path / "fig5_rho2.csv")
    assert metadata["nsites"] == "64"
    assert float(metadata["gamma_eff"]) == 0.2
    assert len(curves[0].z_values()) == 11


def test_fig5_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["fig5", "--out", str(a)]) == 0
    assert main(["fig5", "--out", str(b)]) == 0
    for name in ("fig5_rho5.csv", "fig5_rho10.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_fig5_on_a_very_narrow_band_exits_0_without_warnings(tmp_path, capsys):
    # sigma = 1e-300 gives an 11-site chain whose S is finite; the band is so
    # narrow that squaring (E - d) / (2 sigma) would overflow.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fig5", "--sigma", "1e-300", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    metadata, _ = read_decay_curves(tmp_path / "fig5_rho5.csv")
    assert metadata["nsites"] == "11"


def test_fig5_and_lattice_sweep_past_the_range_of_rho_squared_exit_0(tmp_path):
    # kappa = 1e200: rho = 5e200 and 1e201 square past the float range, while
    # gamma_eff = rho^2 / (2 sigma) = 6.25e199 and 2.5e200 does not.
    assert main(["fig5", "--kappa", "1e200", "--points", "5", "--out", str(tmp_path)]) == 0
    for name, gamma_eff in (("fig5_rho5.csv", 6.25e199), ("fig5_rho10.csv", 2.5e200)):
        metadata, header, rows = read_table(tmp_path / name)
        assert float(metadata["gamma_eff"]) == pytest.approx(gamma_eff, rel=1e-15)
        values = np.array(rows, dtype=float)
        assert np.isfinite(values).all() and values[0, 1:].tolist() == [pytest.approx(1.0), 1.0]
    lattice = dict(backend="lattice", gamma="", rho="1e201", sigma="2e201", phi="0", z="0, 1e-201")
    code, csv = run_sweep_cli(tmp_path, sweep_config_text(**lattice, observables="p_boson, eigenvalue_gap"))
    assert code == 0
    for row in read_table(csv)[2]:  # far above the EP the gap is gamma_eff itself
        assert 0.0 <= float(row[3]) <= 1.0 and float(row[4]) == pytest.approx(2.5e200, rel=1e-15)


def test_short_chain_warns_once_on_stderr(tmp_path, capsys):
    # min_lattice_size(5, 1) = 35 sites; the warning never reaches the files.
    argv = ["fig5", "--sigma", "5", "--rho", "2", "--points", "5", "--zmax", "1"]
    assert main(argv + ["--nsites", "34", "--out", str(tmp_path / "short")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0] == ("warning: nsites = 34 < min_lattice_size(sigma = 5, zmax = 1) = 35: "
                      "end reflections can reach the coupler")
    for nsites in ("35", None):
        assert main(argv + (["--nsites", nsites] if nsites else [])
                    + ["--out", str(tmp_path / f"long{nsites}")]) == 0
    assert capsys.readouterr().err == ""
    metadata, _ = read_decay_curves(tmp_path / "short" / "fig5_rho2.csv")
    assert metadata["nsites"] == "34"
    assert "warning" not in (tmp_path / "short" / "fig5_run.txt").read_text()

    lattice = dict(backend="lattice", gamma="", rho="1, 2", sigma="5", phi="0", z="0, 1")
    code, csv = run_sweep_cli(tmp_path, sweep_config_text(**lattice, nsites="21"))
    err = capsys.readouterr().err.splitlines()
    assert code == 0 and len(err) == 1
    assert err[0].startswith("warning: nsites = 21 < min_lattice_size(sigma = 5, zmax = 1) = 35")
    assert "warning" not in csv.read_text()
    for config in (sweep_config_text(**lattice), sweep_config_text(**lattice, nsites="35"),
                   sweep_config_text(**lattice | {"z": "0"}, nsites="2")):
        assert run_sweep_cli(tmp_path, config)[0] == 0
    assert capsys.readouterr().err == ""


# -- output layout ----------------------------------------------------------

SMALL_SWEEP = "backend = markovian\ngamma = 1\nphi = 0\nz = 1\n"
FIGURE_SIDECAR = "command kappa gammas beta1 beta2 zmax points files"


@pytest.mark.parametrize("argv, csv, metadata_keys, sidecar_keys", [
    (["fig2", "--points", "3"], "fig2_gamma2.csv",
     "version command backend kappa gamma beta1 beta2 zmax points solid dashed",
     FIGURE_SIDECAR),
    (["fig3", "--points", "3"], "fig3_gamma2.csv",
     "version command backend input kappa gamma beta1 beta2 zmax points",
     FIGURE_SIDECAR),
    (["fig4", "--points", "3"], "fig4a_gamma2.5.csv",
     "version command panel backend input kappa gamma beta1 beta2 zmax points phis",
     "command kappa gammas phis beta1 beta2 zmax points z0 files"),
    (["fig4", "--points", "3"], "fig4b.csv",
     "version command panel backend input kappa beta1 beta2 z0 kappa_z0 gamma_min "
     "gamma_max gamma_points phis",
     "command kappa gammas phis beta1 beta2 zmax points z0 files"),
    (["fig5", "--points", "3", "--sigma", "2", "--zmax", "0.5"], "fig5_rho5.csv",
     "version command backend input kappa beta1 beta2 phi sigma rho nsites beta_lattice "
     "gamma_eff zmax points dashed",
     "command kappa rhos sigma phi nsites beta1 beta2 zmax points files"),
    (["sweep"], "sweep.csv",
     "version command backend kappa beta1 beta2",
     "command config rows files"),
])
def test_output_layout(tmp_path, argv, csv, metadata_keys, sidecar_keys):
    if argv == ["sweep"]:
        config = tmp_path / "sweep.cfg"
        config.write_text(SMALL_SWEEP)
        argv = ["sweep", "--config", str(config)]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    metadata, _, _ = read_table(tmp_path / csv)
    assert list(metadata) == metadata_keys.split()
    sidecar = (tmp_path / f"{argv[0]}_run.txt").read_text().splitlines()
    assert [line.partition("=")[0] for line in sidecar] == sidecar_keys.split()


# -- sweep ------------------------------------------------------------------

def sweep_config_text(**overrides):
    base = {
        "backend": "markovian",
        "gamma": "0.5, 2",
        "phi": "0, 3.1415926535897931",
        "z": "0, 1.5",
    }
    base.update(overrides)
    return "\n".join(f"{key} = {value}" for key, value in base.items()) + "\n"


def run_sweep_cli(tmp_path, text):
    config = tmp_path / "sweep.cfg"
    config.write_text(text)
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(config), "--out", str(out)])
    return code, out / "sweep.csv"


def test_sweep_cartesian_shape(tmp_path):
    code, csv = run_sweep_cli(tmp_path, sweep_config_text())
    assert code == 0
    metadata, header, rows = read_table(csv)
    assert header == ["gamma", "phi", "z"] + list(SWEEP_OBSERVABLES)
    assert len(rows) == 2 * 2 * 2
    assert "rows=8\n" in (csv.parent / "sweep_run.txt").read_text()
    assert metadata["backend"] == "markovian"
    # declared order: gamma outermost, z innermost
    assert [r[0] for r in rows[:4]] == [format_float(0.5)] * 4
    assert rows[0][2] == format_float(0.0)
    assert rows[1][2] == format_float(1.5)


def test_sweep_single_tuple_matches_library_bit_for_bit(tmp_path):
    code, csv = run_sweep_cli(
        tmp_path, sweep_config_text(gamma="2", phi="3.1415926535897931", z="1.5")
    )
    assert code == 0
    _, header, rows = read_table(csv)
    (row,) = rows
    params = CouplerParams(0.0, 0.0, 1.0, 2.0)
    s = scattering_matrix(params, 1.5)
    expected = [
        format_float(2.0),
        format_float(math.pi),
        format_float(1.5),
        format_float(0.5 * mean_photon_number(s)),
        format_float(mean_photon_number(s)),
        format_float(survival_indistinguishable(s)),
        format_float(survival_entangled(s, math.pi)),
        format_float(survival_fermionic(s)),
        "at",
        format_float(supermodes(params).gap()),
    ]
    assert row == expected


def test_sweep_regime_columns_once_per_axis_value(tmp_path, monkeypatch):
    # Each per-axis column is one array evaluation per sweep, over the axis's
    # loss rates (the effective rho^2 / (2 sigma) for the lattice), and bit for
    # bit what classify_ep and supermodes give for each axis value: at
    # gamma = 2 kappa and a few doubles either side of both edges of the "at" band.
    import ptcoupler.cli as cli

    calls = []

    def counted(fn):
        def wrapper(params, gamma):
            calls.append((fn.__name__, np.array(gamma)))
            return fn(params, gamma)
        return wrapper

    monkeypatch.setattr(cli, "_regimes", counted(cli._regimes))
    monkeypatch.setattr(cli, "_supermodes", counted(cli._supermodes))
    windows = []
    for edge in (2.0 * math.sqrt(1.0 - EP_DISCRIMINANT_TOL), 2.0 * math.sqrt(1.0 + EP_DISCRIMINANT_TOL)):
        window = [edge]
        for _ in range(3):
            window = [np.nextafter(window[0], 0.0)] + window + [np.nextafter(window[-1], 4.0)]
        windows.append([float(g) for g in window])
    for window, outside in zip(windows, ("below", "above")):  # the band's edge is inside
        regimes = {classify_ep(CouplerParams(0.0, 0.0, 1.0, g)) for g in window}
        assert regimes == {outside, "at"}
    gammas = [0.0, 0.5, 2.0, 3.0] + windows[0] + windows[1]
    sigma = 5.0
    rhos = [math.sqrt(2.0 * sigma * g) for g in gammas]
    for backend, axis, rates in [
        ("markovian", {"gamma": gammas}, gammas),
        ("lattice", {"gamma": "", "rho": rhos, "sigma": repr(sigma)},
         [lattice_gamma(sigma, rho) for rho in rhos]),
    ]:
        calls.clear()
        text = sweep_config_text(
            backend=backend, phi="0, 3", z="0, 0.5", observables="p_boson, ep_regime, eigenvalue_gap",
            **{key: ", ".join(map(repr, v)) if isinstance(v, list) else v for key, v in axis.items()})
        code, csv = run_sweep_cli(tmp_path, text)
        assert code == 0
        assert [name for name, _ in calls] == ["_regimes", "_supermodes"]
        assert all(np.array_equal(gamma, rates) for _, gamma in calls)
        rows = read_table(csv)[2]
        assert len(rows) == len(rates) * 2 * 2
        for i, rate in enumerate(rates):
            params = CouplerParams(0.0, 0.0, 1.0, rate)
            for row in rows[4 * i : 4 * i + 4]:
                assert row[4] == classify_ep(params)
                assert row[5] == format_float(supermodes(params).gap())
        assert {row[4] for row in rows} == {"below", "at", "above"}


def test_sweep_gap_past_the_float_range_is_inf_without_warning(tmp_path):
    # At kappa = 1e308 the supermodes +-kappa lie 2e308 apart: inf, as SupermodePair.gap gives it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, csv = run_sweep_cli(tmp_path, "backend = markovian\nkappa = 1e308\ngamma = 0\nphi = 0\n"
                                            "z = 0\nobservables = eigenvalue_gap\n")
        assert supermodes(CouplerParams(0.0, 0.0, 1e308, 0.0)).gap() == math.inf
    assert code == 0 and read_table(csv)[2] == [["0", "0", "0", "inf"]]


def test_sweep_half_trace_past_the_float_range_raises_no_warning(tmp_path):
    # beta1 + beta2 = 2e308 passes the float range, the half trace 1e308 does not: the
    # supermodes are 1e308 -+ kappa, that is 0 and inf, and the gap inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, csv = run_sweep_cli(tmp_path, "backend = markovian\nbeta1 = 1e308\nbeta2 = 1e308\ngamma = 0\n"
                                            "kappa = 1e308\nobservables = eigenvalue_gap, ep_regime\n")
        pair = supermodes(CouplerParams(1e308, 1e308, 1e308, 0.0))
    assert code == 0 and read_table(csv)[2] == []
    assert (pair.lambda1, pair.lambda2) == (0.0, math.inf) and pair.gap() == math.inf


def test_sweep_gap_closes_at_critical_loss(tmp_path):
    code, csv = run_sweep_cli(
        tmp_path, sweep_config_text(gamma="1.9, 2, 2.1", phi="0", z="1",
                                    observables="eigenvalue_gap"),
    )
    assert code == 0
    _, header, rows = read_table(csv)
    gaps = [float(r[3]) for r in rows]
    assert gaps[1] == 0.0
    assert gaps[0] > 0.1
    assert gaps[2] > 0.1


def test_sweep_empty_axis_writes_header_only(tmp_path, capsys):
    # Every axis empty in turn, on both backends: a header and no rows.
    lattice = dict(backend="lattice", gamma="", sigma="5", rho="1, 2")
    for i, overrides in enumerate([dict(z=""), dict(phi=""), dict(gamma=""),
                                   lattice | dict(rho=""), lattice | dict(z="")]):
        (tmp_path / str(i)).mkdir()
        code, csv = run_sweep_cli(tmp_path / str(i), sweep_config_text(**overrides))
        assert code == 0 and capsys.readouterr().err == ""
        _, header, rows = read_table(csv)
        assert header[:3] == ["rho" if "rho" in overrides else "gamma", "phi", "z"]
        assert rows == []
        assert "rows=0\n" in (csv.parent / "sweep_run.txt").read_text()


@pytest.mark.parametrize("overrides, message", [
    (dict(gamma="1", phi="", z="0, -1"), "z must be non-negative"),
    (dict(backend="lattice", gamma="", sigma="20", rho="5", phi="", z="-1"),
     "z must be finite and non-negative"),
])
def test_sweep_with_no_rows_still_checks_its_distances(tmp_path, capsys, overrides, message):
    code, csv = run_sweep_cli(tmp_path, sweep_config_text(**overrides))
    assert code == 1 and capsys.readouterr().err == f"error: {message}\n"
    assert not csv.exists()


def test_sweep_lattice_backend(tmp_path):
    text = sweep_config_text(
        backend="lattice", gamma="", rho="1, 2", sigma="5", nsites="21",
        phi="0", z="0, 1", observables="p_boson, ep_regime, eigenvalue_gap",
    )
    code, csv = run_sweep_cli(tmp_path, text)
    assert code == 0
    metadata, header, rows = read_table(csv)
    assert metadata["regime_columns_use"] == "effective_gamma=rho^2/(2*sigma)"
    assert header == ["rho", "phi", "z", "p_boson", "ep_regime", "eigenvalue_gap"]
    assert len(rows) == 4
    for row in rows:
        assert row[4] in ("below", "at", "above")
        assert 0.0 <= float(row[3]) <= 1.0


def test_sweep_lattice_fermion_matches_library_bit_for_bit(tmp_path):
    text = sweep_config_text(
        backend="lattice", gamma="", rho="2", sigma="5", nsites="21",
        phi="0", z="0.5, 1", observables="p_fermion",
    )
    code, csv = run_sweep_cli(tmp_path, text)
    assert code == 0
    _, _, rows = read_table(csv)
    propagator = LatticePropagator(CouplerParams(0.0, 0.0, 1.0, 0.0), LatticeReservoir(5.0, 2.0, 21, 0.0))
    assert [row[3] for row in rows] == [
        format_float(survival_fermionic(propagator.scattering(z))) for z in (0.5, 1.0)
    ]


SERIES_PAST_ANY_FLOAT = ("sigma = 1e+300 and z = 1e+10 need a longer series; "
                         "the limit is 5e+05 terms\n")


@pytest.mark.parametrize("argv, config, message", [
    (["fig5", "--sigma", "1e6", "--points", "2"], None, "sigma = 1e+06"),
    (["sweep", "--config"], sweep_config_text(backend="lattice", gamma="", rho="1",
                                              sigma="1e6", phi="0", z="0, 1"), "sigma = 1e+06"),
    (["fig5", "--sigma", "1e300", "--nsites", "11", "--zmax", "1e10", "--points", "2"], None,
     SERIES_PAST_ANY_FLOAT),
    (["sweep", "--config"], sweep_config_text(backend="lattice", gamma="", rho="1", sigma="1e300",
                                              nsites="11", phi="0", z="0, 1e10"),
     SERIES_PAST_ANY_FLOAT),
    (["fig5", "--beta1", "1e6", "--points", "3"], None,
     "the spectral width 1.00005e+06 (beta1 = 1e+06, beta2 = 0, beta_lattice = 0) and z = 3 need"),
    (["sweep", "--config"], sweep_config_text(backend="lattice", gamma="", rho="1", sigma="5",
                                              phi="0", z="1", beta_lattice="1e7"),
     "the spectral width 1e+07 (beta1 = 0, beta2 = 0, beta_lattice = 1e+07) and z = 1 need"),
], ids=["fig5", "sweep", "fig5-series", "sweep-series", "fig5-beta1", "sweep-beta_lattice"])
def test_oversized_chain_exits_1_without_traceback(tmp_path, argv, config, message):
    # sigma = 1e6 asks for a chain of millions of sites or a series of
    # millions of terms, and sigma = 1e300 for a series whose r z passes any
    # float; each must be refused with one line of finite numbers, and no
    # warning even when warnings are errors, before anything of that size is
    # allocated. Where a propagation constant, not sigma, spreads the
    # spectrum, the message names the width it sets.
    if config is not None:
        (tmp_path / "sweep.cfg").write_text(config)
        argv = argv + [str(tmp_path / "sweep.cfg")]
    src = str(Path(ptcoupler.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-W", "error", "-m", "ptcoupler", *argv,
                             "--out", str(tmp_path)],
                            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: chain reservoir too large: " + message)
    assert result.stderr.count("\n") == 1 and "inf" not in result.stderr
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv, z", [
    (["fig3", "--zmax", "1e308", "--points", "3", "--gamma", "1e-300"], "1e+308"),
    (["fig2", "--beta1", "2", "--zmax", "1e308", "--points", "3", "--gamma", "0"], "1e+308"),
    (["fig3", "--gamma", "1e300", "--zmax", "1e10", "--points", "3"], "5e+09"),
], ids=["expm1", "phase", "unit"])
def test_closed_form_past_the_float_range_exits_1_with_one_line(tmp_path, argv, z):
    # 2|w z|, beta1 z or z in the unit 2^-e passes the largest double: one
    # line naming z, no RuntimeWarning, no traceback when warnings are errors.
    src = str(Path(ptcoupler.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-W", "error", "-m", "ptcoupler", *argv,
                             "--out", str(tmp_path)],
                            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 1
    assert result.stderr == (f"error: the propagator's phase or decay at z = {z} passes the "
                             "float range\n")
    assert not list(tmp_path.glob("*.csv"))


def test_determinant_past_the_float_range_exits_1_naming_z(tmp_path, capsys):
    # beta1 + beta2 = 2e308 overflows the determinant's phase tr(M) z at every z,
    # z = 0 included (inf times 0), while S itself stays finite.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fig2", "--beta1", "1e308", "--beta2", "1e308", "--zmax", "0.5",
                     "--points", "3", "--gamma", "0", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == ("error: the propagator's phase or decay at z = 0 passes "
                                       "the float range\n")
    assert not list(tmp_path.glob("*.csv"))


def test_default_rates_past_the_float_range_raise_no_warning(tmp_path, capsys):
    # fig4's panel (b) runs its loss rate to 5 kappa, past the floats above kappa
    # = 3.6e307: refused before any file. fig5's gamma_eff z passes them at sigma
    # = 2.2e-308: its exponential is 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fig4", "--kappa", "1e308", "--points", "2", "--gamma", "0",
                     "--out", str(tmp_path / "fig4")]) == 1
        assert capsys.readouterr().err == ("error: kappa = 1e+308: the default rates up to "
                                           "5 kappa pass the float range\n")
        assert not (tmp_path / "fig4").exists()
        assert main(["fig5", "--sigma", "2.2250738585072014e-308", "--rho", "2", "--points", "2",
                     "--out", str(tmp_path / "fig5")]) == 0
    _, header, rows = read_table(tmp_path / "fig5" / "fig5_rho2.csv")
    assert [row[header.index("survival_markovian_exponential")] for row in rows] == ["1", "0"]


def leftovers(out: Path) -> list[str]:
    """Every name in the directory out, hidden ones too; none if it does not exist."""
    return sorted(os.listdir(out)) if out.exists() else []


@pytest.mark.parametrize("argv, config", [
    (["fig5", "--rho", "0", "--zmax", "300"], None),
    (["fig5", "--sigma", "5e-324", "--rho", "0", "--zmax", "1e3"], None),
    (["sweep"], "backend = lattice\nsigma = 20\nrho = 0\nphi = 3.141592653589793\nz = 300\n"),
], ids=["fig5", "fig5_decoupled_chain", "sweep"])
def test_lossless_chain_past_the_roundoff_slack_exits_1_naming_the_survival(tmp_path, capsys, argv,
                                                                             config):
    # With rho = 0 the arms' block is unitary, so P_F = |det S|^2 = 1, and over
    # thousands of series terms the chain's S errs by about 1e-12, past the slack
    # of the probabilities: one error line names the observable, no traceback,
    # and no file is left.
    if config is not None:
        (tmp_path / "sweep.cfg").write_text(config)
        argv = argv + ["--config", str(tmp_path / "sweep.cfg")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: survival = 1.00000000000") and err.count("\n") == 1
    assert err.endswith(" lies outside [0, 1] beyond roundoff\n")
    assert leftovers(tmp_path / "out") == []


@pytest.mark.parametrize("argv, message", [
    (["fig2", "--kappa", "1e308", "--points", "3"],
     "kappa = 1e+308: the default rates up to 10 kappa pass the float range\n"),
    (["fig3", "--kappa", "1e308", "--points", "3"],
     "kappa = 1e+308: the default rates up to 10 kappa pass the float range\n"),
    # The 5 kappa chain is made and its table written before the 10 kappa one is refused.
    (["fig5", "--kappa", "1e307", "--sigma", "1e307", "--points", "3"],
     "chain reservoir out of range: sigma = 1e+307 and rho = 1e+308 give a spectral centre 0 "
     "and width inf\n"),
    # Lengths in units of 1/kappa and fig5's sigma = 20 kappa: refused before the directory
    # is made, so fig4's z0 before its panel (a) is evaluated.
    (["fig2", "--kappa", "1e-310", "--points", "3"],
     "kappa = 1e-310: the default zmax = 10/kappa passes the float range\n"),
    (["fig4", "--kappa", "1e-310", "--zmax", "1", "--points", "5"],
     "kappa = 1e-310: z0 = 3/kappa passes the float range\n"),
    (["fig5", "--kappa", "1e307", "--points", "3"],
     "kappa = 1e+307: the default rates up to 20 kappa pass the float range\n"),
], ids=["fig2", "fig3", "fig5", "fig2_zmax", "fig4_z0", "fig5_sigma"])
def test_a_refused_command_leaves_no_file(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: " + message
    assert leftovers(tmp_path / "out") == []


@pytest.mark.parametrize("argv, message", [
    (["fig2", "--gamma", "-1"], "gamma must be non-negative"),
    (["fig3", "--gamma", "nan"], "gamma must be finite, got nan"),
    (["fig4", "--gamma", "-1"], "gamma must be non-negative"),
    (["fig4", "--beta1", "nan"], "beta1 must be finite, got nan"),
    (["fig4", "--beta2", "1e309"], "beta2 must be finite, got inf"),
], ids=["fig2_gamma", "fig3_gamma", "fig4_gamma", "fig4_beta1", "fig4_beta2"])
def test_a_refused_flag_leaves_no_output_directory(tmp_path, capsys, argv, message):
    # The closed form's coupler, loss rates and distances are checked before the
    # output directory is made, as the chain's are.
    assert main(argv + ["--points", "3", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_a_refusal_found_while_a_table_is_made_removes_the_directories_it_made(tmp_path, capsys):
    # S at the far end of the grid passes the floats: found once the first piece is made,
    # after --out and its parents are made. Each made directory goes; one given that exists stays.
    argv = ["fig2", "--zmax", "1e308", "--points", "3", "--out"]
    message = "error: the propagator's phase or decay at z = 5e+307 passes the float range\n"
    assert main(argv + [str(tmp_path / "a" / "b" / "out")]) == 1
    assert capsys.readouterr().err == message
    assert leftovers(tmp_path) == []
    (tmp_path / "given").mkdir()
    assert main(argv + [str(tmp_path / "given")]) == 1
    assert capsys.readouterr().err == message
    assert leftovers(tmp_path) == ["given"] and leftovers(tmp_path / "given") == []


def test_sigterm_takes_back_what_a_command_wrote(tmp_path):
    # Killed while it writes, a command exits 128 + SIGTERM and leaves no part file and no --out.
    src = str(Path(ptcoupler.__file__).resolve().parents[1])
    out = tmp_path / "out"
    command = subprocess.Popen([sys.executable, "-m", "ptcoupler", "fig5", "--points", "1000000",
                                "--out", str(out)], env=dict(os.environ, PYTHONPATH=src),
                               stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 60.0
        while not list(out.glob(".*.part")) and command.poll() is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert list(out.glob(".*.part")), "the command wrote no part file"
        command.send_signal(signal.SIGTERM)
        assert command.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        command.kill()
        command.wait()
    assert command.stderr.read() == b""
    assert not out.exists()


def test_main_restores_the_sigterm_handler_and_runs_outside_the_main_thread(tmp_path):
    def handler(signum, frame):
        pass

    previous = signal.signal(signal.SIGTERM, handler)
    try:
        assert main(["fig3", "--points", "3", "--gamma", "1", "--out", str(tmp_path / "main")]) == 0
        assert signal.getsignal(signal.SIGTERM) is handler
    finally:
        signal.signal(signal.SIGTERM, previous)
    codes = []
    thread = threading.Thread(target=lambda: codes.append(
        main(["fig3", "--points", "3", "--gamma", "1", "--out", str(tmp_path / "thread")])))
    thread.start()
    thread.join()
    assert codes == [0] and leftovers(tmp_path / "thread") == leftovers(tmp_path / "main")


def test_a_given_zmax_needs_no_default_length_of_kappa(tmp_path):
    # 10/kappa passes the floats at kappa = 1e-310, but --zmax replaces it.
    assert main(["fig2", "--kappa", "1e-310", "--zmax", "1", "--points", "5",
                 "--out", str(tmp_path)]) == 0
    assert len(list(tmp_path.glob("fig2_gamma*.csv"))) == 3


def test_a_failed_move_takes_back_the_files_moved_before_it(tmp_path):
    # The second table cannot replace a directory of its name: the first one,
    # already in place, is removed again, and the sidecar never arrives.
    (tmp_path / "fig2_gamma2.csv").mkdir()
    assert main(["fig2", "--points", "3", "--out", str(tmp_path)]) == 2
    assert leftovers(tmp_path) == ["fig2_gamma2.csv"]


def test_negative_flag_values_need_no_equals_sign(tmp_path, capsys):
    # Every float literal after a flag is its value, -1e308 and -inf too, so
    # the value's own check names it.
    for form, argv in (("space", ["--beta1", "-1e3"]), ("equals", ["--beta1=-1e3"])):
        assert main(["fig2", *argv, "--points", "3", "--out", str(tmp_path / form)]) == 0
    assert leftovers(tmp_path / "space") == leftovers(tmp_path / "equals") != []
    for name in leftovers(tmp_path / "space"):
        assert (tmp_path / "space" / name).read_bytes() == (tmp_path / "equals" / name).read_bytes()
    for phi, message in (("-1e308", "phi must lie in [0, pi]"), ("-inf", "phi must be finite, got -inf")):
        capsys.readouterr()
        assert main(["fig4", "--phi", phi, "--out", str(tmp_path / "fig4")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert leftovers(tmp_path / "fig4") == []


def test_closed_form_just_inside_the_float_range_is_written(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fig3", "--zmax", "8e307", "--points", "3", "--gamma", "1e-300",
                     "--out", str(tmp_path)]) == 0
    assert list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv, config", [
    (["fig5", "--zmax", "1e308", "--points", "3"], None),
    (["sweep", "--config"], sweep_config_text(backend="lattice", gamma="", rho="1",
                                              sigma="2", phi="0", z="0.5, 1e308")),
], ids=["fig5", "sweep"])
def test_chain_length_past_any_float_exits_1(tmp_path, capsys, argv, config):
    # The default chain length 2.5 * 2 sigma * zmax + 10 overflows to inf:
    # refused with a message naming sigma and z_max, not an OverflowError.
    if config is not None:
        (tmp_path / "sweep.cfg").write_text(config)
        argv = argv + [str(tmp_path / "sweep.cfg")]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "sigma = " in err and "z_max = 1e+308" in err
    assert not list(tmp_path.glob("out/*.csv"))


@pytest.mark.parametrize("argv, config", [
    (["fig5", "--zmax", "1e300", "--points", "3"], None),
    (["fig5", "--nsites", "9" * 400, "--points", "3"], None),
    (["sweep", "--config"], sweep_config_text(backend="lattice", gamma="", rho="1",
                                              sigma="2", phi="0", z="0.5, 1e300")),
], ids=["fig5", "fig5-nsites", "sweep"])
def test_chain_past_the_site_limit_exits_1_with_a_short_message(tmp_path, capsys, argv, config):
    # The default chain length for zmax = 1e300 is a 303-digit integer:
    # refused by the site limit before its series is counted, sizes printed short.
    if config is not None:
        (tmp_path / "sweep.cfg").write_text(config)
        argv = argv + [str(tmp_path / "sweep.cfg")]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: chain reservoir too large: sigma = ")
    assert len(err) < 200 and "inf" not in err
    assert err.endswith("; the limit is 1e+07 sites\n")
    assert not list(tmp_path.glob("out/*.csv"))


@pytest.mark.parametrize("argv", [
    ["fig5", "--sigma", "1e308", "--nsites", "5", "--points", "2"],
    ["fig5", "--beta1", "1e300", "--beta2", "1e300", "--nsites", "5", "--points", "2"],
], ids=["width-overflows", "width-rounds-to-0"])
def test_chain_spectrum_past_the_floats_exits_1(tmp_path, capsys, argv):
    # Refused when the propagator is built, naming sigma, rho and the width:
    # not blamed on z, and no ZeroDivisionError traceback.
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error: chain reservoir out of range: sigma = ") and " and rho = 5 " in err
    assert " width " in err and "z =" not in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("key, value", [("sigma", "5"), ("nsites", "3"), ("beta_lattice", "2")])
def test_memoryless_sweep_refuses_chain_keys(tmp_path, capsys, key, value):
    code, csv = run_sweep_cli(tmp_path, sweep_config_text(**{key: value}))
    assert code == 1
    assert capsys.readouterr().err == f"error: config: {key}: only meaningful with backend=lattice\n"
    assert not csv.exists()


def test_oversized_grid_exits_1_without_traceback(tmp_path):
    src = str(Path(ptcoupler.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "ptcoupler", "fig2", "--points", "1000000000000",
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr == (
        f"error: num_points must be at most {MAX_GRID_POINTS}, got 1000000000000\n")


@pytest.mark.parametrize("argv", [["fig4", "--zmax", "5e-324", "--points", "3"],
                                  ["fig2", "--zmax", "8e-323", "--points", "10"]])
def test_grid_that_would_repeat_a_point_exits_1_before_writing(tmp_path, capsys, argv):
    # A subnormal step: linspace would give 0, 0, 5e-324 (or 8e-323 twice).
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    z_max, points = float(argv[2]), argv[4]
    assert capsys.readouterr().err == f"error: z_max = {z_max!r} is too small for {points} distinct points\n"
    assert not (tmp_path / "out").exists()


def test_oversized_grid_refused_before_allocating(tmp_path):
    tracemalloc.start()
    try:
        code = main(["fig2", "--points", "1000000000000", "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert peak < 1e6  # the grid alone would be 8 TB
    assert not (tmp_path / "out").exists()


def test_sweep_config_errors_exit_1(tmp_path):
    bad_texts = [
        sweep_config_text(backend="quantum"),
        sweep_config_text() + "unknown_key = 3\n",
        sweep_config_text() + "gamma = 1\n",  # duplicate
        sweep_config_text(rho="1"),  # rho under markovian
        sweep_config_text(backend="lattice", rho="1", sigma="5"),  # loss under lattice
        sweep_config_text(backend="lattice", gamma="", rho="1"),  # sigma missing
        sweep_config_text(beta1="0.5", observables="ep_regime"),  # detuned regime
        sweep_config_text(gamma="0.5, oops"),
        "gamma = 1\n",  # backend missing
        "backend\n",  # not key = value
    ]
    for text in bad_texts:
        code, _ = run_sweep_cli(tmp_path, text)
        assert code == 1, f"accepted bad config: {text!r}"


@pytest.mark.parametrize("axis", [{}, {"backend": "lattice", "gamma": "", "rho": "1", "sigma": "5"}])
def test_sweep_refuses_phi_outside_0_pi_even_when_no_column_reads_it(tmp_path, capsys, axis):
    text = sweep_config_text(phi="0.5, 7, -1", observables="p_boson", **axis)
    code, csv = run_sweep_cli(tmp_path, text)
    assert code == 1
    assert capsys.readouterr().err == "error: phi must lie in [0, pi]\n"
    assert not csv.exists()


def test_sweep_config_is_a_frozen_dataclass():
    cfg = parse_sweep_config("backend = markovian\n")
    assert cfg == SweepConfig("markovian")
    assert cfg.observables == SWEEP_OBSERVABLES
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.kappa = 2.0


@pytest.mark.parametrize("text, message", [
    ("backend\n", "config line 1: expected 'key = value'"),
    ("gamma = x\nfoo = 1\n", "config: unknown key 'foo'"),
    ("z = x\nz = 1\n", "config: duplicate key 'z'"),
    ("gamma = x\n", "config: backend: required (markovian or lattice)"),
    ("backend =\n", "config: backend: must be markovian or lattice, got ''"),
    # Several faults: backend, observables, nsites, the axis lists (gamma,
    # rho, phi, z), then the scalars, each reported before the next.
    ("backend = quantum\nobservables = nope\n",
     "config: backend: must be markovian or lattice, got 'quantum'"),
    ("backend = markovian\ngamma = x\nnsites = 2\nobservables = p_boson, nope\n",
     "config: observables: unknown observable 'nope'"),
    ("backend = markovian\ngamma = x\nnsites = 2.5\n",
     "config: nsites: could not parse '2.5' as an integer"),
    ("backend = markovian\nkappa = x\nz = y\nphi = 1\nrho = w\n",
     "config: rho[0]: could not parse 'w' as a number"),
    ("backend = markovian\nbeta_lattice = x\nsigma = y\nbeta1 = inf\n",
     "config: beta1: must be finite, got 'inf'"),
    # Within one axis list, token by token.
    ("backend = markovian\ngamma = 1, , oops\n", "config: gamma[1]: empty entry"),
    ("backend = markovian\ngamma = oops, ,\n", "config: gamma[0]: could not parse 'oops' as a number"),
])
def test_sweep_config_error_messages_and_order(text, message):
    with pytest.raises(ValueError) as info:
        parse_sweep_config(text)
    assert str(info.value) == message


def test_parse_sweep_config_defaults():
    cfg = parse_sweep_config(sweep_config_text() + "# trailing comment\n")
    assert cfg.backend == "markovian"
    assert cfg.observables == SWEEP_OBSERVABLES
    assert cfg.kappa == 1.0
    assert cfg.gamma == (0.5, 2.0)
    assert math.prod(run_sweep(cfg)[3]) == 8


# -- entry point ------------------------------------------------------------

def test_bad_flags_exit_1(tmp_path, capsys):
    assert main(["fig2", "--no-such-flag"]) == 1
    assert main([]) == 1
    assert main(["fig2", "--out", str(tmp_path), "--kappa", "-1.0"]) == 1
    assert main(["fig4", "--out", str(tmp_path), "--phi", "5.0"]) == 1
    capsys.readouterr()
    # kappa sets the default zmax; an infinite one must be blamed on --kappa.
    assert main(["fig2", "--out", str(tmp_path), "--kappa", "inf"]) == 1
    assert "--kappa" in capsys.readouterr().err
    # A bad --sigma is named in the message, not lumped with the other arguments.
    assert main(["fig5", "--out", str(tmp_path), "--sigma", "0"]) == 1
    assert capsys.readouterr().err == "error: sigma must be positive and finite, got 0.0\n"


def test_io_failures_exit_2(tmp_path):
    assert main(["sweep", "--config", str(tmp_path / "absent.cfg"),
                 "--out", str(tmp_path)]) == 2
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    assert main(["fig2", "--out", str(blocker), "--points", "3"]) == 2


# -- array sweep, size guard, streamed writing --------------------------------

def test_sweep_multi_value_matches_library_bit_for_bit(tmp_path):
    gammas, phis, zs = (0.5, 2.0, 3.7), (0.0, 1.1, math.pi), (0.0, 0.8, 2.5)
    code, csv = run_sweep_cli(tmp_path, sweep_config_text(
        gamma="0.5, 2, 3.7", phi="0, 1.1, 3.141592653589793", z="0, 0.8, 2.5"))
    assert code == 0
    _, header, rows = read_table(csv)
    expected = []
    for gamma in gammas:
        params = CouplerParams(0.0, 0.0, 1.0, gamma)
        for phi in phis:
            for z in zs:
                s = scattering_matrix(params, z)
                expected.append([format_float(v) for v in (
                    gamma, phi, z, 0.5 * mean_photon_number(s), mean_photon_number(s),
                    survival_indistinguishable(s), survival_entangled(s, phi),
                    survival_fermionic(s))]
                    + [classify_ep(params), format_float(supermodes(params).gap())])
    assert header == ["gamma", "phi", "z"] + list(SWEEP_OBSERVABLES)
    assert rows == expected


def test_sweep_lattice_matches_the_array_call(tmp_path):
    text = sweep_config_text(
        backend="lattice", gamma="", rho="1, 2.5", sigma="5", nsites="21",
        phi="0, 3.141592653589793", z="1, 0, 0.5",
        observables="mean_photon_number, p_boson, p_entangled, p_fermion, eigenvalue_gap",
    )
    code, csv = run_sweep_cli(tmp_path, text)
    assert code == 0
    _, _, rows = read_table(csv)
    zs = np.array([1.0, 0.0, 0.5])
    expected = []
    for rho in (1.0, 2.5):
        propagator = LatticePropagator(CouplerParams(0.0, 0.0, 1.0), LatticeReservoir(5.0, rho, 21))
        s, det = propagator.scattering_array(zs)
        gap = supermodes(CouplerParams(0.0, 0.0, 1.0, lattice_gamma(5.0, rho))).gap()
        for phi in (0.0, math.pi):
            columns = (mean_photon_number(s), survival_indistinguishable(s),
                       survival_entangled(s, phi, det), survival_fermionic(s, det))
            for j, z in enumerate(zs):
                expected.append([format_float(v) for v in (rho, phi, z)]
                                + [format_float(c[j]) for c in columns] + [format_float(gap)])
    assert rows == expected


@pytest.mark.parametrize("backend", [
    {},
    {"backend": "lattice", "gamma": "", "rho": "1, 2.5", "sigma": "5", "nsites": "41"},
])
def test_sweep_entangled_column_is_boson_at_0_and_fermion_at_pi(tmp_path, backend):
    text = sweep_config_text(**{"gamma": "0, 0.5, 2, 9", "phi": "0, 1.1, 3.141592653589793",
                                "z": "0, 0.7, 2.5, 6", **backend})
    code, csv = run_sweep_cli(tmp_path, text)
    assert code == 0
    _, header, rows = read_table(csv)
    column = {name: [row[header.index(name)] for row in rows] for name in header}
    for phi, name in (("0", "p_boson"), (format_float(math.pi), "p_fermion")):
        at = [i for i, value in enumerate(column["phi"]) if value == phi]
        assert at and [column["p_entangled"][i] for i in at] == [column[name][i] for i in at]


def oversized_sweep_text():
    # 2001 x 100 x 100 rows: 2e7, twice the limit.
    return sweep_config_text(
        gamma=", ".join(str(0.001 * i) for i in range(2001)),
        phi=", ".join(str(0.03 * i) for i in range(100)),
        z=", ".join(str(0.1 * i) for i in range(100)),
    )


def test_oversized_sweep_exits_1_without_traceback(tmp_path):
    (tmp_path / "sweep.cfg").write_text(oversized_sweep_text())
    src = str(Path(ptcoupler.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "ptcoupler", "sweep", "--config", str(tmp_path / "sweep.cfg"),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 1
    assert result.stderr == (
        "error: config: the sweep has 20010000 rows (gamma x phi x z = 2001 x 100 x 100); "
        f"the limit is {MAX_GRID_POINTS}\n")
    assert not (tmp_path / "out").exists()


def test_oversized_sweep_refused_before_allocating(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text(oversized_sweep_text())
    tracemalloc.start()
    try:
        code = main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert peak < 1e6  # the propagators alone would take 1.3 GB, the text several GB
    assert not (tmp_path / "out").exists()


def test_write_table_streams_its_rows(tmp_path):
    n = 100_000
    columns = [np.arange(n) / 7.0, np.arange(n) / 3.0, np.array(["x"])]
    path = tmp_path / "t.csv"
    tracemalloc.start()
    try:
        written = write_table(path, {"version": "1"}, ["a", "b", "c"], columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines = path.read_text().splitlines()
    assert lines[:3] == ["# version=1", "a,b,c", "0,0,x"]
    assert len(lines) == n + 2 and written == n
    assert lines[-1] == f"{format_float((n - 1) / 7.0)},{format_float((n - 1) / 3.0)},x"
    # Joined whole, the lines and their text would take several times the
    # 3.4 MB file; streamed, one chunk of lines at a time.
    assert peak < path.stat().st_size / 4


@pytest.mark.parametrize("header, columns, shape", [
    (["a", "b"], [np.zeros(3)], None),
    (["a"], [np.zeros(3), np.zeros(3)], None),
    ([], [], (3,)),
    (["a", "b"], [np.zeros(3), np.zeros(4)], None),
    (["a", "b"], [np.zeros(3), np.zeros((2, 3))], None),
    (["a", "b"], [np.zeros((1, 3)), np.zeros((2, 1))], (3, 2)),
], ids=["fewer-columns", "more-columns", "none", "length", "more-axes", "axis-order"])
def test_write_table_refuses_columns_that_do_not_fit_before_opening(tmp_path, header, columns, shape):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="column"):
        write_table(path, {"version": "1"}, header, columns, shape)
    assert not path.exists()


def test_sweep_io_failure_exits_2(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text(sweep_config_text())
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    assert main(["sweep", "--config", str(config), "--out", str(blocker)]) == 2
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "sweep.csv").mkdir()  # the table cannot be moved into its place
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 2


# -- one row template per block, one parser, one S per loss rate -------------

# Doubles where the 17-digit text changes form: signed zero, subnormals, the
# switch to exponent notation between 1e16 and 1e17, and neighbours of it.
_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1e17,
                9999999999999998.0, 1.0000000000000002e16, 99999999999999984.0, 1e22, -1e-7]
_CELLS = {
    True: st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS),
    # Text may hold '%': only the template, never a cell, is a format string.
    False: st.text(alphabet="abz_ %s.-", max_size=6),
}


@st.composite
def tables(draw):
    """A row shape of 1-3 axes of 0-4 elements and 1-5 columns, float or
    text, each either full or 1 along every axis."""
    shape = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)))
    columns = []
    for is_float in draw(st.lists(st.booleans(), min_size=1, max_size=5)):
        own = tuple(draw(st.sampled_from((1, n))) for n in shape)
        cells = draw(st.lists(_CELLS[is_float], min_size=math.prod(own), max_size=math.prod(own)))
        columns.append(np.array(cells, dtype=float if is_float else object).reshape(own))
    return shape, columns


@given(tables(), st.integers(1, 4))
def test_write_table_text_is_format_float_per_cell(table, block):
    import tempfile
    from unittest import mock

    import ptcoupler.cli as cli

    shape, columns = table
    header = ["h%d" % i for i in range(len(columns))]
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_WRITE_LINES", block):
        path = Path(tmp) / "t.csv"
        assert write_table(path, {"version": "1", "k": "%s"}, header, columns, shape) == math.prod(shape)
        text = path.read_text()
    full = [np.broadcast_to(c, shape) for c in columns]
    expected = ["# version=1", "# k=%s", ",".join(header)] + [
        ",".join(format_float(c[index]) if c.dtype.kind == "f" else c[index] for c in full)
        for index in np.ndindex(shape)]
    assert text == "\n".join(expected) + "\n"


def test_write_table_builds_no_block_sized_text(tmp_path, monkeypatch):
    # Float cells are spelled in numpy and never become Python strings, and a
    # text column is turned into text once per cell of its own shape: the 2
    # labels below, not once for each of the 2 x 300 rows they label.
    import ptcoupler.cli as cli

    class Label:
        made = 0

        def __str__(self):
            Label.made += 1
            return "x"

    spelled = []
    monkeypatch.setattr(cli, "format_float", lambda x: spelled.append(x) or format_float(x))
    floats = np.arange(600.0).reshape(2, 300) / 7.0
    labels = np.array([[Label()], [Label()]], dtype=object)
    header, path = ["a", "b"], tmp_path / "t.csv"
    assert write_table(path, {"version": "1"}, header, [floats, labels], (2, 300)) == 600
    assert spelled == [] and Label.made == 2
    assert read_table(path)[2][-1] == [format_float(599 / 7.0), "x"]


def test_write_table_writes_a_file_per_index_of_the_first_axis_piece_by_piece(tmp_path, monkeypatch):
    # Each file holds the rows of its index, as a table of its own would: any
    # pieces, any block size.
    import ptcoupler.cli as cli

    z, curves = np.arange(10) / 7.0, np.arange(30.0).reshape(3, 10) / 3.0
    paths, metadata = [tmp_path / f"{i}.csv" for i in range(3)], [{"i": str(i)} for i in range(3)]
    for lines in (1, 4, 1024):
        monkeypatch.setattr(cli, "_WRITE_LINES", lines)
        pieces = iter([[z[:4], curves[:, :4]], [z[4:5], curves[:, 4:5]], [z[5:], curves[:, 5:]]])
        assert write_table(paths, metadata, ["z", "c"], pieces, (3, 10)) == 30
        for i, path in enumerate(paths):
            write_table(tmp_path / "one.csv", {"i": str(i)}, ["z", "c"], [z, curves[i]])
            assert path.read_bytes() == (tmp_path / "one.csv").read_bytes()
    with pytest.raises(ValueError, match=r"one path and one metadata dict per index of the first axis of \(3, 10\)"):
        write_table(paths[:2], metadata[:2], ["z", "c"], [z, curves], (3, 10))
    with pytest.raises(ValueError, match=r"the pieces hold 12 rows, where shape \(3, 10\) holds 30"):
        write_table(paths, metadata, ["z", "c"], iter([[z[:4], curves[:, :4]]]), (3, 10))


def test_write_table_refuses_nul_in_a_text_cell_before_opening(tmp_path):
    # NUL pads the cells, so a text cell holding one could not be written as it is.
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=r"^column 'b': a text cell holds NUL"):
        write_table(path, {"version": "1"}, ["a", "b"], [np.zeros(2), np.array(["x", "y\0z"], object)])
    assert not path.exists()


# -- float cells spelled in numpy: format_float's bytes, every one ------------

def assert_spelled_as_format_float(xs):
    # Each row of _spell, without its NULs, is format_float's text; its last byte is NUL.
    import ptcoupler.cli as cli

    xs = np.asarray(xs, dtype=float).ravel()
    cells = cli._spell([xs])[0]
    assert cells.shape[0] == xs.size and not cells[:, -1].any()
    cells[:, -1] = ord("\n")
    got = cells.tobytes().translate(None, b"\0").split(b"\n")[:-1]
    expected = [format_float(x).encode() for x in xs.tolist()]
    if got != expected:
        bad = [i for i, (cell, text) in enumerate(zip(got, expected)) if cell != text]
        pytest.fail(f"{len(bad)} cells differ, e.g. {[(xs[i], expected[i], got[i]) for i in bad[:5]]}")


@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_spelled_cells_are_format_float(xs):
    assert_spelled_as_format_float(xs)  # nan, +-inf, +-0 and subnormals included


def test_spelled_cells_at_the_edges_of_the_notation_and_the_range():
    tens = np.array([float(f"1e{k}") for k in range(-320, 309)])  # every power the doubles hold
    edges = np.array([0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e16, 1e17,
                      1e-4, 1e-5, np.finfo(float).max, np.inf, np.nan])
    xs = np.concatenate([tens, edges])
    with np.errstate(over="ignore"):  # the neighbours of the largest double
        xs = np.concatenate([xs, np.nextafter(xs, 0.0), np.nextafter(xs, np.inf)])
    assert_spelled_as_format_float(np.concatenate([xs, -xs]))


def test_spelled_exact_ties_fall_back_to_format_float(monkeypatch):
    # x = m / 2^(k+1), m odd: x 10^k = m 5^k / 2 lies halfway between two
    # integers, 17-digit ones for m 5^k in [2e16, 2e17): a tie format_float
    # breaks to even, and x is a double for m < 2^53.
    import ptcoupler.cli as cli

    rng = np.random.default_rng(14)
    ties = []
    for k in range(1, 24):
        low, high = -(-2 * 10**16 // 5**k), min(-(-2 * 10**17 // 5**k), 2**53)
        for m in rng.integers(low, high - 1, 8).tolist():
            ties.append((m | 1) / 2 ** (k + 1))  # exact
    spelled = []
    monkeypatch.setattr(cli, "format_float", lambda x: spelled.append(x) or format_float(x))
    assert_spelled_as_format_float(ties)
    assert len(ties) == 184 and sorted(spelled) == sorted(ties)  # every tie, and nothing else


def test_spelled_cells_of_random_bit_patterns():
    bits = np.random.default_rng(2024).integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
    assert_spelled_as_format_float(bits.view(float))


def test_every_cell_through_the_fallback_gives_the_same_bytes(monkeypatch):
    # A tie window past 1/2 sends every cell to format_float.
    import ptcoupler.cli as cli

    xs = np.concatenate([np.random.default_rng(3).standard_normal(500) * 10.0 ** np.arange(-250, 250),
                         [0.0, -0.0, 1e16, 1e17, 5e-324, np.nan, -np.inf]])
    spelled = []
    monkeypatch.setattr(cli, "format_float", lambda x: spelled.append(x) or format_float(x))
    monkeypatch.setattr(cli, "_TIE_WINDOW", 1.0)
    assert_spelled_as_format_float(xs)
    assert len(spelled) == xs.size


def test_parser_is_built_once_and_commands_are_looked_up_at_dispatch(tmp_path, monkeypatch, capsys):
    import ptcoupler.cli as cli

    argv = ["fig3", "--points", "3", "--gamma", "1", "--out", str(tmp_path)]
    assert main(argv) == 0
    parser = cli._parser()
    calls = []

    def counted(args):
        calls.append(args.command)
        return cmd_fig3(args)

    cmd_fig3 = cli.cmd_fig3
    monkeypatch.setattr(cli, "cmd_fig3", counted)
    assert main(argv) == 0
    assert calls == ["fig3"]
    assert cli._parser() is parser
    for _ in range(2):
        assert main(["fig3", "--no-such-flag"]) == 1
        assert "--no-such-flag" in capsys.readouterr().err
    assert main(["fig3", "--kappa", "0"]) == 1
    assert calls == ["fig3"]


@pytest.mark.parametrize("command, argv, points, grid, calls", [
    ("fig2", [], 2**14, np.linspace(0.0, 10.0, 501), [((3, 1), (501,))]),
    ("fig3", [], 2**14, np.linspace(0.0, 10.0, 501), [((3, 1), (501,))]),
    ("fig4", [], 2**14, np.linspace(0.0, 3.0, 301), [((2, 1), (301,)), ((201,), ())]),
    # Blocks of 12 (rate, z) points: 4 distances at each of the 3 loss rates.
    ("fig3", ["--points", "11"], 12, np.linspace(0.0, 10.0, 11),
     [((3, 1), (4,)), ((3, 1), (4,)), ((3, 1), (3,))]),
], ids=["fig2", "fig3", "fig4", "fig3-blocks"])
def test_figures_evaluate_s_once_per_panel_block(tmp_path, monkeypatch, command, argv, points, grid, calls):
    # One propagator call per block of a panel, with every loss rate on a gamma
    # axis: at the defaults each panel is one block (panel (b) a single distance).
    import ptcoupler.cli as cli
    from ptcoupler.scattering import scattering_array

    made, zs = [], []

    def counted(params, z, gamma=None):
        made.append((np.shape(gamma), np.shape(z)))
        if np.ndim(gamma) == 2:
            assert np.array_equal(gamma[:, 0], [0.5, 2.0, 10.0] if command != "fig4" else [0.625, 2.5])
            zs.append(z)
        return scattering_array(params, z, gamma=gamma)

    monkeypatch.setattr(cli, "scattering_array", counted)
    monkeypatch.setattr(cli, "_FIGURE_POINTS", points)
    assert main([command, *argv, "--out", str(tmp_path)]) == 0
    assert made == calls
    assert np.concatenate(zs).tobytes() == grid.tobytes()


@pytest.mark.parametrize("command, argv", [
    ("fig2", []), ("fig3", []), ("fig4", []), ("fig5", ["--sigma", "5"])])
def test_figure_files_do_not_depend_on_the_block_sizes(tmp_path, monkeypatch, command, argv):
    import ptcoupler.cli as cli

    def files(out):
        assert main([command, "--points", "61", "--zmax", "2", *argv, "--out", str(out)]) == 0
        return {path.name: path.read_bytes() for path in out.iterdir()}

    whole = files(tmp_path / "whole")
    for size in (1, 7, 300):  # one row or distance at a time, then a few, then every one
        monkeypatch.setattr(cli, "_FIGURE_POINTS", size)
        monkeypatch.setattr(cli, "_WRITE_LINES", size)
        assert files(tmp_path / str(size)) == whole


def test_a_figure_of_many_blocks_holds_a_few_blocks_not_the_grid(tmp_path):
    # fig2 over 3 x 300,000 (rate, z) points: S of the whole grid would take 57.6 MB.
    # A block of _FIGURE_POINTS points holds 1 MB of S (64 bytes a point), and the
    # propagator's temporaries a few times that: the bound is S of 8 blocks.
    import ptcoupler.cli as cli

    tracemalloc.start()
    try:
        code = main(["fig2", "--points", "300000", "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 8 * 64 * cli._FIGURE_POINTS
    assert len(read_table(tmp_path / "fig2_gamma10.csv")[2]) == 300_000


def test_fig5_evaluates_s_once_per_rho(tmp_path, monkeypatch):
    import ptcoupler.cli as cli

    calls, array = [], cli.LatticePropagator.scattering_array

    def counted(self, z):
        calls.append((self.lattice.rho, np.shape(z)))
        return array(self, z)

    monkeypatch.setattr(cli.LatticePropagator, "scattering_array", counted)
    assert main(["fig5", "--points", "11", "--out", str(tmp_path)]) == 0
    assert calls == [(5.0, (11,)), (10.0, (11,))]


def test_every_file_of_the_sidecar_is_written_once_by_write_table(tmp_path, monkeypatch):
    import ptcoupler.cli as cli

    written = []

    def counted(path, *args):  # each file is written as .<file>.part, then moved into place
        written.extend(Path(p).name.removeprefix(".").removesuffix(".part")
                       for p in (path if isinstance(path, list) else [path]))
        return write_table(path, *args)

    monkeypatch.setattr(cli, "write_table", counted)
    config = tmp_path / "sweep.cfg"
    config.write_text(sweep_config_text())
    small = ["--points", "3", "--zmax", "0.5"]
    for argv in (["fig2", *small], ["fig3", *small], ["fig4", *small], ["fig5", *small, "--sigma", "2"],
                 ["sweep", "--config", str(config)]):
        written.clear()
        assert main(argv + ["--out", str(tmp_path / argv[0])]) == 0
        sidecar = (tmp_path / argv[0] / f"{argv[0]}_run.txt").read_text().splitlines()
        files = sorted(p.name for p in (tmp_path / argv[0]).glob("*.csv"))
        assert f"files={';'.join(written)}" in sidecar and sorted(written) == files


def test_sweep_streams_its_rows(tmp_path):
    # 20 x 25 x 100 = 5e4 rows; held whole, their text would take about
    # twice the CSV (2.07 of it with every row in one block, 0.14 streamed).
    config = tmp_path / "sweep.cfg"
    config.write_text(sweep_config_text(
        gamma=", ".join(str(0.5 * i) for i in range(20)),
        phi=", ".join(str(0.12 * i) for i in range(25)),
        z=", ".join(str(0.1 * i) for i in range(100)),
    ))
    tracemalloc.start()
    try:
        code = main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    csv = tmp_path / "out" / "sweep.csv"
    assert len(read_table(csv)[2]) == 50_000
    assert peak < csv.stat().st_size / 4


@pytest.mark.parametrize("backend", ["markovian", "lattice"])
def test_sweep_rows_do_not_depend_on_the_block_size(tmp_path, monkeypatch, backend):
    import ptcoupler.cli as cli

    axis = {"gamma": "0, 0.5, 2, 2.5, 7"} if backend == "markovian" else {
        "gamma": "", "rho": "1, 2, 3, 4, 5", "sigma": "20"}
    text = sweep_config_text(backend=backend, phi="0, 1, 3", z="0.4, 0, 1.3, 0.4", **axis)
    code, csv = run_sweep_cli(tmp_path, text)
    whole = csv.read_bytes()
    for lines in (1, 12, 13, 25):  # one axis value per block, then 1, 2 and 3 of them
        monkeypatch.setattr(cli, "_WRITE_LINES", lines)
        assert run_sweep_cli(tmp_path, text) == (0, csv)
        assert csv.read_bytes() == whole
    assert code == 0 and len(read_table(csv)[2]) == 5 * 3 * 4


@pytest.mark.parametrize("backend", ["markovian", "lattice"])
def test_sweep_files_do_not_depend_on_the_block_sizes(tmp_path, monkeypatch, backend):
    # 6 axis values x 3 distances: pieces of 1, 2 and 6 axis values, blocks of 1, 7 and every row.
    import ptcoupler.cli as cli

    axis = {"gamma": "0, 0.5, 2, 2.5, 7, 9"} if backend == "markovian" else {
        "gamma": "", "rho": "1, 2, 3, 4, 5, 6", "sigma": "20"}
    config = tmp_path / "sweep.cfg"
    config.write_text(sweep_config_text(backend=backend, phi="0, 1, 3", z="1.3, 0, 0.4", **axis))

    def files(out):
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        return {path.name: path.read_bytes() for path in out.iterdir()}

    whole = files(tmp_path / "whole")
    for size in (1, 7, 300):
        monkeypatch.setattr(cli, "_FIGURE_POINTS", size)
        monkeypatch.setattr(cli, "_WRITE_LINES", size)
        assert files(tmp_path / str(size)) == whole
    assert len(read_table(tmp_path / "whole" / "sweep.csv")[2]) == 6 * 3 * 3


def test_a_sweep_of_many_pieces_holds_a_few_pieces_not_its_propagators(tmp_path):
    # 200 x 1 x 1000 rows: S at every (gamma, z) would take 12.8 MB. A piece of about
    # _FIGURE_POINTS propagators holds 1 MB of S (64 bytes each), and its temporaries
    # and columns a few times that: the bound is S of 8 pieces.
    import ptcoupler.cli as cli

    config = tmp_path / "sweep.cfg"
    config.write_text(sweep_config_text(gamma=", ".join(str(0.02 * i) for i in range(200)), phi="1",
                                        z=", ".join(str(0.005 * i) for i in range(1000))))
    tracemalloc.start()
    try:
        code = main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 8 * 64 * cli._FIGURE_POINTS
    assert len(read_table(tmp_path / "out" / "sweep.csv")[2]) == 200_000


@pytest.mark.parametrize("axis, phis, zs, bound", [
    # 2 x 5000 x 12 rows: held whole, the rows of an axis value take 480 KB of p_entangled
    # alone, and its mix's temporaries several times that: the bound is 16 bytes a row of one value.
    (2, 5000, 12, 16 * 5000 * 12),
    # 1 x 1 x 20000 rows: S at every z takes 1.28 MB, its temporaries several times that; the
    # columns of S at every z take 32 bytes a z. The bound is twice S of every z.
    (1, 1, 20000, 2 * 64 * 20000),
], ids=["phases", "distances"])
def test_a_sweep_holds_blocks_of_rows_not_the_rows_of_an_axis_value(tmp_path, monkeypatch, axis, phis, zs, bound):
    # S in blocks of at most 64 propagators, rows in pieces and write blocks of at most 512.
    import ptcoupler.cli as cli

    monkeypatch.setattr(cli, "_FIGURE_POINTS", 64)
    monkeypatch.setattr(cli, "_WRITE_LINES", 512)
    cfg = parse_sweep_config(sweep_config_text(gamma=", ".join(str(0.5 * i) for i in range(axis)),
                                               phi=", ".join(str(3.0 * i / phis) for i in range(phis)),
                                               z=", ".join(str(0.001 * i) for i in range(zs))))
    tracemalloc.start()
    try:
        rows = write_table(tmp_path / "sweep.csv", *run_sweep(cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == axis * phis * zs == len(read_table(tmp_path / "sweep.csv")[2])
    assert peak < bound


def test_fig5_refuses_a_chain_past_its_limits_before_any_piece(tmp_path, monkeypatch, capsys):
    # The first pieces of 100,000 points stay within the series limit; z_max = 12000 does
    # not, and is refused before any S is made, whatever the piece that reaches it.
    import ptcoupler.cli as cli

    calls, array = [], cli.LatticePropagator.scattering_array

    def counted(self, z):
        calls.append(np.shape(z))
        return array(self, z)

    monkeypatch.setattr(cli.LatticePropagator, "scattering_array", counted)
    assert main(["fig5", "--points", "100000", "--zmax", "12000", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == ("error: chain reservoir too large: sigma = 20 and z = 12000 "
                                       "need a longer series; the limit is 5e+05 terms\n")
    assert calls == []
    assert leftovers(tmp_path / "out") == []


# -- fuzzing ----------------------------------------------------------------

# Flag and config values as text, two thirds of them ordinary numbers and one third the
# float range's edges, subnormals, non-finite values, an empty value and one that is no number.
FUZZ_ORDINARY = ("0", "0.5", "1", "2", "3", "20")
FUZZ_EDGES = ("-0", "-1", "1e3", "-1e3", "nan", "inf", "-inf", "1e308", "-1e308", "5e-324",
              "-5e-324", "2.2250738585072014e-308", "1e-300", "1e300", "", "x")
FUZZ_NUMBERS = st.sampled_from(FUZZ_ORDINARY) | st.sampled_from(FUZZ_ORDINARY) | st.sampled_from(
    FUZZ_EDGES)
# Grid points and chain lengths: a million sites cost no more than 41, a million points would.
FUZZ_POINTS = st.sampled_from(("2", "5", "41")) | st.sampled_from(
    ("-1", "0", "1", "100000000000", "1.5", ""))
FUZZ_COUNTS = FUZZ_POINTS | st.just("1000000")
FUZZ_LISTS = st.lists(st.sampled_from(FUZZ_ORDINARY) | st.sampled_from(FUZZ_EDGES[:-2]),
                      max_size=3).map(", ".join)  # no list is empty-valued: that keeps the default
FUZZ_FLAGS = {
    "points": FUZZ_POINTS,
    **{flag: FUZZ_NUMBERS for flag in ("zmax", "kappa", "beta1", "beta2", "gamma", "phi", "sigma", "rho")},
    "nsites": FUZZ_COUNTS,
}
FUZZ_FIGURES = {"fig2": ("gamma",), "fig3": ("gamma",), "fig4": ("gamma", "phi"),
                "fig5": ("phi", "sigma", "rho", "nsites")}
FUZZ_SWEEP_KEYS = {
    "phi": FUZZ_LISTS, "z": FUZZ_LISTS, "kappa": FUZZ_NUMBERS, "beta1": FUZZ_NUMBERS, "beta2": FUZZ_NUMBERS,
    "observables": st.lists(st.sampled_from(SWEEP_OBSERVABLES), min_size=1, max_size=3).map(", ".join),
}
FUZZ_BACKENDS = {
    "markovian": ({}, {"gamma": FUZZ_LISTS}),
    "lattice": ({"sigma": FUZZ_NUMBERS},
                {"rho": FUZZ_LISTS, "nsites": FUZZ_COUNTS, "beta_lattice": FUZZ_NUMBERS}),
}
# At most one fault per config: an unknown key or backend, a line with no '=', a
# key of the other backend, a repeated key, an unknown observable, no backend line.
FUZZ_CONFIG_FAULTS = (None,) * 7 + ("bogus = 1", "no equals sign", "backend = both", "gamma = 1",
                                    "rho = 1", "phi = 0", "observables = bogus", "no backend")


def _fuzz_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return -math.inf  # refused before any chain is built


@st.composite
def fuzz_argv(draw):
    """(command, argv or sweep config text, cost): a figure command with some of its
    flags (now and then one it lacks), or a sweep config. cost holds the values that
    set the series length of a chain (None without one): kappa, beta1, beta2,
    beta_lattice, sigma, the largest rho, nsites and the farthest z."""
    command = draw(st.sampled_from(sorted(FUZZ_FIGURES) + ["sweep"]))
    if command == "sweep":
        backend = draw(st.sampled_from(sorted(FUZZ_BACKENDS)))
        required, optional = FUZZ_BACKENDS[backend]
        values = draw(st.fixed_dictionaries(required, optional=FUZZ_SWEEP_KEYS | optional))
        fault = draw(st.sampled_from(FUZZ_CONFIG_FAULTS))
        lines = ([] if fault == "no backend" else [f"backend = {backend}"]
                 ) + [f"{key} = {value}" for key, value in values.items()]
        if fault not in (None, "no backend"):
            lines.insert(draw(st.integers(0, len(lines))), fault)
        if backend == "markovian":
            return command, "\n".join(lines) + "\n", None
        given = {key: value for key, value in values.items() if value}  # an empty value is the default
        farthest = {key: max(given.get(key, "0").split(", "), key=_fuzz_float) for key in ("rho", "z")}
        cost = {"kappa": "1", "beta1": "0", "beta2": "0", "sigma": "0", "nsites": "11"} | given | farthest
        return command, "\n".join(lines) + "\n", {"beta_lattice": cost["beta2"]} | cost
    flags = ("points", "zmax", "kappa", "beta1", "beta2") + FUZZ_FIGURES[command]
    chosen = draw(st.fixed_dictionaries({}, optional={flag: FUZZ_FLAGS[flag] for flag in flags}))
    if draw(st.integers(0, 9)) == 0:  # a flag of another command
        chosen |= {"gamma" if command == "fig5" else "nsites": "1"}
    argv = [command]
    for flag, value in chosen.items():  # --flag value, now and then --flag=value
        argv += [f"--{flag}", value] if draw(st.integers(0, 3)) else [f"--{flag}={value}"]
    if command != "fig5":
        return command, argv, None
    kappa = _fuzz_float(chosen.get("kappa", "1"))
    defaults = {"sigma": 20.0 * kappa, "rho": 10.0 * kappa, "zmax": 3.0 / kappa if kappa else 0.0}
    cost = {"kappa": "1", "beta1": "0", "beta2": "0", "nsites": "11"} | {
        key: repr(value) for key, value in defaults.items()} | chosen
    return command, argv, {"beta_lattice": cost["beta2"], "z": cost["zmax"]} | cost


def _fuzz_series_reach(cost) -> float:
    """r z at the farthest distance, r the half-width of the Gershgorin discs of
    arms and chain that LatticePropagator draws: its series has about r z terms."""
    v = {key: _fuzz_float(text) for key, text in cost.items()}
    chain = v["sigma"] * {"1": 0, "2": 1}.get(cost["nsites"], 2) + v["rho"]
    discs = ((v["beta1"], v["kappa"]), (v["beta2"], v["kappa"] + v["rho"]), (v["beta_lattice"], chain))
    with np.errstate(all="ignore"):
        spread = np.float64(max(c + r for c, r in discs)) - min(c - r for c, r in discs)
        return float(0.5 * spread * v["z"])


@settings(max_examples=300, deadline=None)
@given(fuzz_argv())
def test_fuzzed_commands_exit_0_1_or_2_with_one_error_line(case):
    # In-process main(): no traceback, no RuntimeWarning, one "error: " line on a
    # refusal that leaves no file (and reads every negative number after a flag as
    # its value), and every file the sidecar lists once a command exits 0. Chains
    # whose series would run between 2,000 and 600,000 terms (past the limit they
    # are refused at once) are left out to bound the time.
    command, argv, cost = case
    assume(not (cost and 2e3 < _fuzz_series_reach(cost) < 6e5))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        if command == "sweep":
            (Path(tmp) / "sweep.cfg").write_text(argv)
            argv = ["sweep", "--config", str(Path(tmp) / "sweep.cfg")]
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main([*argv, "--out", str(out)])
        err = err.getvalue()
        assert code in (0, 1, 2), err
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
            assert "expected one argument" not in err and leftovers(out) == [], err
        else:
            assert all(line.startswith("warning: ") for line in err.splitlines()), err
            sidecar = (out / f"{command}_run.txt").read_text().splitlines()
            files = next(line for line in sidecar if line.startswith("files=")).partition("=")[2]
            assert files and all((out / name).is_file() for name in files.split(";"))
