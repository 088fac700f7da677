"""Tests of the benchmark itself: seeded inputs, the independent checker,
the tracer, and the metric names it prints.

    python -m pytest perfbench/tests -q
"""

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import run
from reference import ChainHamiltonian, Checker
from tracing import Binding, Tracer
from workloads import WORKLOADS, parse_config_text, sweep_config

from ptcoupler import cli

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent


def every_row_checker():
    return Checker(rows_per_file=10**9)


def write_outputs(argv, outdir: Path) -> None:
    assert cli.main([*argv, "--out", str(outdir)]) == 0


def perturb_cell(path: Path, row: int, column: str, delta: float) -> None:
    lines = path.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[first].split(",").index(column)
    cells = lines[first + 1 + row].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[first + 1 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


# -- seeded inputs ---------------------------------------------------------

def test_sweep_config_is_a_function_of_the_seed():
    a, b = sweep_config(7), sweep_config(7)
    assert a.text() == b.text()
    assert sweep_config(8).text() != a.text()
    assert (len(a.gammas), len(a.phis), len(a.zs)) == (101, 7, 8)
    assert len(a.gammas) * len(a.phis) * len(a.zs) == 5656
    assert 0.0 in a.gammas and 2.0 in a.gammas
    assert all(0.0 <= g <= 10.0 for g in a.gammas)
    assert a.phis[0] == 0.0 and a.phis[-1] == math.pi
    assert parse_config_text(a.text()) == a
    parsed = cli.parse_sweep_config(a.text())
    assert parsed.gamma == a.gammas and parsed.phi == a.phis and parsed.z == a.zs


# -- independent checker ---------------------------------------------------

def test_chebyshev_chain_propagator_matches_dense_expm():
    for n in (1, 2, 5, 8):
        chain = ChainHamiltonian(1.3, 2.0, 0.7, n)
        h = np.zeros((n + 2, n + 2))
        for i in range(n + 2):
            e = np.zeros((n + 2, 1))
            e[i] = 1.0
            h[:, i] = chain.apply(e)[:, 0]
        zs = np.linspace(0.0, 4.0, 9)
        blocks = chain.coupler_blocks(zs)
        for z, block in zip(zs, blocks):
            np.testing.assert_allclose(block, scipy.linalg.expm(-1j * z * h)[:2, :2], atol=1e-13)


@pytest.mark.parametrize("argv, column", [
    (["fig2", "--points", "21"], "power_single_waveguide"),
    (["fig3", "--points", "21"], "survival_indistinguishable"),
    (["fig4", "--points", "21"], "survival_phi_2.09439510239"),
    (["fig5", "--sigma", "10", "--rho", "2", "--zmax", "1", "--points", "21"], "survival_lattice"),
    (["sweep", "--config", "{config}"], "p_entangled"),
])
def test_checker_accepts_program_output_and_catches_an_injected_error(tmp_path, argv, column):
    config = tmp_path / "sweep.cfg"
    config.write_text(sweep_config(3).text())
    argv = [str(config) if a == "{config}" else a for a in argv]
    good = tmp_path / "good"
    write_outputs(argv, good)
    checker = every_row_checker()
    assert checker.check(argv, good, random.Random(0)) == []

    bad = tmp_path / "bad"
    shutil.copytree(good, bad)
    table = checker.expected(argv)[-1]
    assert column in table.header
    perturb_cell(bad / table.name, 5, column, 1e-6)
    problems = checker.check(argv, bad, random.Random(0))
    assert len(problems) == 1 and column in problems[0]


def test_checker_catches_missing_rows_and_files(tmp_path):
    argv = ["fig3", "--points", "11"]
    write_outputs(argv, tmp_path)
    name = every_row_checker().expected(argv)[0].name
    path = tmp_path / name
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    assert "rows" in every_row_checker().check(argv, tmp_path, random.Random(0))[0]
    path.unlink()
    assert every_row_checker().check(argv, tmp_path, random.Random(0))


# -- tracing ---------------------------------------------------------------

def test_tracer_wraps_every_binding_site_and_restores_them():
    import ptcoupler.classical
    import ptcoupler.quantum
    import ptcoupler.scattering

    original = ptcoupler.scattering.scattering_matrix
    tracer = Tracer()
    tracer.install()
    try:
        assert ptcoupler.cli.scattering_matrix is not original
        assert ptcoupler.quantum.scattering_matrix is ptcoupler.cli.scattering_matrix
        assert ptcoupler.classical.scattering_matrix is ptcoupler.cli.scattering_matrix
    finally:
        tracer.uninstall()
    assert ptcoupler.cli.scattering_matrix is original
    assert "scattering.scattering_matrix" in tracer.present


def test_tracer_counts_calls_and_self_time(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        tracer.record_spans = True
        assert cli.main(["fig3", "--points", "5", "--gamma", "1", "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    stats = tracer.reset()
    assert stats.calls["scattering.scattering_matrix"] == 5
    assert stats.calls["core.passivity_check"] == 5
    assert stats.calls["cli.cmd_fig3"] == 1
    assert stats.extra["cli.rows_written"] == 5
    for key in stats.calls:
        assert 0 <= stats.self_[key] <= stats.incl[key]
    top = [s for s in tracer.spans if s[1] is None]
    assert [s[2] for s in top] == ["cli.cmd_fig3"]
    assert stats.group_incl["cli.command"] == top[0][4] - top[0][3]


def test_missing_function_is_reported_absent_not_zero():
    tracer = Tracer()
    tracer.install([Binding("quantum.gone", "ptcoupler.quantum", "no_such_function"),
                    Binding("core.gone", "ptcoupler.core", "missing", cls="ScatteringMatrix")])
    tracer.uninstall()
    assert tracer.absent >= {"quantum.gone", "core.gone"}


# -- what the benchmark prints ---------------------------------------------

def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    assert [tuple(m.values()) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [tuple(m.values()) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert set(run.TRACED) | set(run.IMPORTS) | {
        "reservoir.build_s_1thread", "cli.command_self_s", "trace.command_coverage", "trace.overhead_s",
    } == {name for name, *_ in run.PER_LAYER}


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_declared_metric(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    r = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "sweep_dense", "--seed", "5",
                        "--seconds", "0.5", "--trace", str(trace)],
                       capture_output=True, text=True, timeout=170)
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "figures_markovian", "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                       timeout=170)
    assert r.returncode != 0
    assert "correct" not in r.stdout
