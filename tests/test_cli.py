import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from ptcoupler.classical import classify_ep, supermodes
import ptcoupler
from ptcoupler.cli import (
    SWEEP_OBSERVABLES,
    SweepConfig,
    format_float,
    main,
    parse_sweep_config,
    read_decay_curves,
    run_sweep,
    write_decay_curves,
)
from ptcoupler.core import MAX_GRID_POINTS, CouplerParams, DecayCurve
from ptcoupler.quantum import (
    mean_photon_number,
    survival_entangled,
    survival_fermionic,
    survival_indistinguishable,
)
from ptcoupler.reservoir import LatticePropagator, LatticeReservoir
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
    write_decay_curves(path, {"version": "x", "note": "n"}, [c1, c2])
    metadata, curves = read_decay_curves(path)
    assert metadata == {"version": "x", "note": "n"}
    assert [c.label for c in curves] == ["alpha", "beta"]
    assert np.array_equal(curves[0].z_values(), c1.z_values())
    assert np.array_equal(curves[0].values(), c1.values())
    assert np.array_equal(curves[1].values(), c2.values())


def test_write_decay_curves_validation(tmp_path):
    zs = [0.0, 1.0]
    c1 = DecayCurve.from_arrays("a", zs, [1.0, 0.5])
    c2 = DecayCurve.from_arrays("b", [0.0, 2.0], [1.0, 0.5])
    with pytest.raises(ValueError, match="at least one curve"):
        write_decay_curves(tmp_path / "x.csv", {}, [])
    with pytest.raises(ValueError, match="share one z grid"):
        write_decay_curves(tmp_path / "x.csv", {}, [c1, c2])


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
    import ptcoupler.cli as cli

    calls = {"classify_ep": 0, "supermodes": 0}

    def counted(name, fn):
        def wrapper(params):
            calls[name] += 1
            return fn(params)
        return wrapper

    monkeypatch.setattr(cli, "classify_ep", counted("classify_ep", classify_ep))
    monkeypatch.setattr(cli, "supermodes", counted("supermodes", supermodes))
    code, csv = run_sweep_cli(tmp_path, sweep_config_text(gamma="0.5, 2, 3", z="0, 1, 1.5"))
    assert code == 0
    assert len(read_table(csv)[2]) == 3 * 2 * 3
    assert calls == {"classify_ep": 3, "supermodes": 3}


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


def test_sweep_empty_axis_writes_header_only(tmp_path):
    code, csv = run_sweep_cli(tmp_path, sweep_config_text(z=""))
    assert code == 0
    _, header, rows = read_table(csv)
    assert header[:3] == ["gamma", "phi", "z"]
    assert rows == []


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


@pytest.mark.parametrize("argv, config", [
    (["fig5", "--sigma", "1e6", "--points", "2"], None),
    (["sweep", "--config"], sweep_config_text(backend="lattice", gamma="", rho="1",
                                              sigma="1e6", phi="0", z="0, 1")),
], ids=["fig5", "sweep"])
def test_oversized_chain_exits_1_without_traceback(tmp_path, argv, config):
    # sigma = 1e6 asks for a chain of millions of sites; it must be refused
    # with a message before anything of that size is allocated.
    if config is not None:
        (tmp_path / "sweep.cfg").write_text(config)
        argv = argv + [str(tmp_path / "sweep.cfg")]
    src = str(Path(ptcoupler.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-m", "ptcoupler", *argv, "--out", str(tmp_path)],
                            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: chain reservoir too large: sigma = 1e+06")


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
    header_meta = run_sweep(cfg)
    assert len(header_meta[2]) == 8


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


def test_io_failures_exit_2(tmp_path):
    assert main(["sweep", "--config", str(tmp_path / "absent.cfg"),
                 "--out", str(tmp_path)]) == 2
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    assert main(["fig2", "--out", str(blocker), "--points", "3"]) == 2
