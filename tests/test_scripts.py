"""The benchmark and output-comparison scripts on this tree: every layer of
scripts/bench.py runs, its ratios come from the minima over all runs, and
scripts/compare_outputs.py names what differs between two CSVs, and which
command or refusal of either tree does not exit as it must."""

import sys
from pathlib import Path

import pytest

from ptcoupler.cli import main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture
def scripts(monkeypatch):
    monkeypatch.setattr(sys, "path", [str(SCRIPTS), *sys.path])  # restored after the test
    import bench
    import compare_outputs

    return bench, compare_outputs


def test_every_bench_layer_runs_on_this_tree(scripts, tmp_path):
    bench, _ = scripts
    layers = bench.layers(tmp_path)
    assert "reservoir.fig5_chain_rho5" in layers and "cli.sweep" in layers
    for run in layers.values():
        run()


def test_bench_ratio_is_one_number_from_the_minima_over_all_runs(scripts):
    bench, _ = scripts
    # Layer b is slower than the baseline in one round and faster in the
    # other; only the minima over every run of every round are compared.
    this = bench.summary([{"a": [3.0, 1.0, 2.0], "b": [5.0]}, {"a": [0.5, 4.0, 4.0], "b": [4.0]}])
    baseline = bench.summary([{"a": [2.0, 2.0, 2.0], "b": [2.0]}, {"a": [1.0, 9.0, 9.0], "b": [8.0]}])
    assert this["a"] == {"median_s": 2.5, "min_s": 0.5, "runs_s": [3.0, 1.0, 2.0, 0.5, 4.0, 4.0]}
    assert bench.ratios(this, baseline) == {"a": 0.5, "b": 2.0}


def write_csv(path, header, rows, metadata="# command=fig2"):
    path.write_text("\n".join([metadata, header, *rows]) + "\n")
    return path


def test_compare_outputs_names_the_columns_that_differ(scripts, tmp_path):
    _, compare = scripts
    base = write_csv(tmp_path / "base.csv", "z,p,label", ["0,1,a", "0.5,0.25,b"])
    differ = compare.differing_columns
    assert differ(write_csv(tmp_path / "p.csv", "z,p,label", ["0,1,a", "0.5,0.75,b"]),
                  base) == "p (max |diff| 0.5)"
    assert differ(write_csv(tmp_path / "t.csv", "z,p,label", ["0,1,a", "0.5,0.25,c"]),
                  base) == "label"
    assert differ(write_csv(tmp_path / "m.csv", "z,p,label", ["0,1,a", "0.5,0.25,b"], "# command=fig3"),
                  base) == "metadata only"
    assert differ(write_csv(tmp_path / "h.csv", "z,q,label", ["0,1,a", "0.5,0.25,b"]),
                  base) == "header or row count"
    assert differ(write_csv(tmp_path / "r.csv", "z,p,label", ["0,1,a"]), base) == "header or row count"


def test_compare_outputs_refusals_exit_1_with_their_messages(scripts, tmp_path, capsys):
    _, compare = scripts
    messages = {
        "refuse_markovian_negative_z": "z must be non-negative",
        "refuse_lattice_negative_z": "z must be finite and non-negative",
        "refuse_fig4_phi": "phi must lie in [0, pi]",
        "refuse_fig5_sites": "chain reservoir too large: sigma = 1e+06 and n_sites = 1.5e+07; "
                             "the limit is 1e+07 sites",
        "refuse_fig2_step": "z_max = 8e-323 is too small for 10 distinct points",
    }
    refused = compare.refusals(tmp_path)
    assert set(refused) == set(messages) and not set(refused) & set(compare.commands(tmp_path))
    for name, argv in refused.items():
        assert main([*argv, "--out", str(tmp_path / name)]) == 1
        assert capsys.readouterr().err == f"error: {messages[name]}\n"


def test_compare_outputs_fails_a_command_that_fails_and_a_refusal_that_differs(scripts):
    _, compare = scripts
    ok, refused = (0, ""), (1, "error: z must be non-negative\n")

    def failures(this, baseline):
        return compare.failures(["fig2"], ["refuse"], {
            "this": {"fig2": ok, "refuse": this}, "baseline": {"fig2": ok, "refuse": baseline}})

    assert failures(refused, refused) == []
    assert failures(ok, ok) and failures(refused, ok) and failures(refused, (1, "error: other\n"))
    assert compare.failures(["fig2"], [], {"this": {"fig2": (1, "error: x\n")}}) == [
        "this: fig2 exited 1: error: x"]
