#!/usr/bin/env python3
"""Run the CLI on this tree and on a git revision; exit 1 if any output differs.

    python scripts/compare_outputs.py --baseline HEAD

Commands: fig2 to fig5 at their defaults and off them (grids that cross
write_table's 1024-row blocks, a single --gamma and --phi, a short chain
over a long distance), the sweep of scripts/sweep_example.cfg, a lattice
sweep of 1200 rows, and every command of perfbench's workloads, the
sweep_dense config at seeds 1 to 3 (each distinct argv once), must exit 0;
the refusals (a negative z in a memoryless and in a lattice sweep, fig4 --phi
4, a chain past the site limit, a grid step too small for distinct points)
must exit 1 on both trees with the same stderr, byte for byte. Each tree runs
them in fresh interpreters whose PYTHONPATH is its src/: this checkout's as
it is on disk, and the src/ of the baseline extracted with git archive, as
scripts/bench.py --baseline does. Every CSV and every <command>_run.txt
sidecar is compared byte for byte (both trees read the same config paths);
one that differs, or that only one tree wrote, is listed, and so is a
command that fails or a refusal that differs. A differing CSV names its
differing columns, each with its largest absolute difference.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "perfbench"), str(REPO / "scripts")]

from bench import extract_src  # noqa: E402
from workloads import CONFIG, WORKLOADS, sweep_config  # noqa: E402

SEEDS = (1, 2, 3)  # sweep_dense configs
LATTICE_SWEEP = ("backend = lattice\nrho = 0.5, 1, 2.5\nsigma = 5\nphi = 0, 0.7, 1.9, 3.141592653589793\n"
                 f"z = {', '.join(repr(0.05 * i) for i in range(100))}\n")


def commands(configs: Path) -> dict[str, list[str]]:
    """Output directory name -> argv without --out; sweep configs are written under configs."""
    runs = {name: [name] for name in ("fig2", "fig3", "fig4", "fig5")}
    runs["fig2_5000"] = ["fig2", "--points", "5000", "--gamma", "2"]
    runs["fig4_2000"] = ["fig4", "--points", "2000", "--gamma", "10", "--phi", "1"]
    runs["fig5_short_chain"] = ["fig5", "--nsites", "41", "--zmax", "10", "--points", "501"]
    runs["sweep_example"] = ["sweep", "--config", str(REPO / "scripts" / "sweep_example.cfg")]
    (configs / "sweep_lattice.cfg").write_text(LATTICE_SWEEP)
    runs["sweep_lattice"] = ["sweep", "--config", str(configs / "sweep_lattice.cfg")]
    for seed in SEEDS:
        (configs / f"sweep_seed{seed}.cfg").write_text(sweep_config(seed).text())
    for workload in WORKLOADS.values():
        for i, argv in enumerate(workload.commands):
            for seed in SEEDS if CONFIG in argv else (None,):
                config = str(configs / f"sweep_seed{seed}.cfg")
                command = [config if a == CONFIG else a for a in argv]
                if command not in runs.values():  # figures_markovian's are the defaults
                    runs[f"{workload.name}_{i}" + (f"_seed{seed}" if seed else "")] = command
    return runs


def refusals(configs: Path) -> dict[str, list[str]]:
    """Output directory name -> argv without --out of a command that must exit 1;
    sweep configs are written under configs."""
    runs = {}
    for backend, axis in (("markovian", "gamma = 1"), ("lattice", "rho = 1\nsigma = 5")):
        (configs / f"refuse_{backend}.cfg").write_text(f"backend = {backend}\n{axis}\nphi = 0\nz = 0, -1\n")
        runs[f"refuse_{backend}_negative_z"] = ["sweep", "--config", str(configs / f"refuse_{backend}.cfg")]
    runs["refuse_fig4_phi"] = ["fig4", "--phi", "4"]
    runs["refuse_fig5_sites"] = ["fig5", "--sigma", "1e6", "--points", "2"]
    runs["refuse_fig2_step"] = ["fig2", "--zmax", "8e-323", "--points", "10"]
    return runs


def run_tree(src: Path, runs: dict[str, list[str]], out: Path) -> dict[str, tuple[int, str]]:
    """Run every command with src on PYTHONPATH, outputs under out: name -> (exit code, stderr)."""
    results = {}
    for name, argv in runs.items():
        result = subprocess.run([sys.executable, "-m", "ptcoupler", *argv, "--out", str(out / name)],
                                env=dict(os.environ, PYTHONPATH=str(src)),
                                capture_output=True, text=True)
        results[name] = result.returncode, result.stderr
    return results


def failures(runs, refused, results: dict[str, dict[str, tuple[int, str]]]) -> list[str]:
    """From each tree's run_tree results: every command of runs that did not exit 0,
    and every refusal that did not exit 1 on all trees with the same stderr."""
    found = [f"{tree}: {name} exited {code}: {err.strip()[-300:]}"
             for tree, done in results.items() for name in runs
             for code, err in [done[name]] if code != 0]
    for name in refused:
        outcomes = {tree: done[name] for tree, done in results.items()}
        if len(set(outcomes.values())) > 1 or next(iter(outcomes.values()))[0] != 1:
            found.append(f"{name}: refusals differ or do not exit 1: " + "; ".join(
                f"{tree} exited {code}: {err.strip()[-300:]}" for tree, (code, err) in outcomes.items()))
    return found


def differing_columns(this: Path, baseline: Path) -> str:
    """The columns in which two CSVs differ, each with its largest |difference|."""
    mine, theirs = ([line.split(",") for line in path.read_text().splitlines()
                     if not line.startswith("# ")] for path in (this, baseline))
    if mine[:1] != theirs[:1] or len(mine) != len(theirs):
        return "header or row count"
    found = []
    for name, a, b in zip(mine[0], zip(*mine[1:]), zip(*theirs[1:])):
        if a != b:
            try:
                worst = max(abs(float(x) - float(y)) for x, y in zip(a, b))
            except ValueError:  # a text column
                found.append(name)
            else:
                found.append(f"{name} (max |diff| {worst:.3g})")
    return ", ".join(found) or "metadata only"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", metavar="REV", required=True, help="git revision to compare with")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        runs, refused = commands(tmp), refusals(tmp)
        trees = {"this": REPO / "src", "baseline": extract_src(args.baseline, tmp / "baseline_src")}
        problems = failures(runs, refused, {tree: run_tree(src, runs | refused, tmp / tree)
                                            for tree, src in trees.items()})
        files = {tree: {p.relative_to(tmp / tree) for pattern in ("*.csv", "*_run.txt")
                        for p in (tmp / tree).rglob(pattern)} for tree in trees}
        same = []
        for path in sorted(files["this"] | files["baseline"]):
            if not all(path in names for names in files.values()):
                problems.append(f"{path}: written by one tree only")
            elif (tmp / "this" / path).read_bytes() == (tmp / "baseline" / path).read_bytes():
                same.append(path)
            elif path.suffix == ".csv":
                columns = differing_columns(tmp / "this" / path, tmp / "baseline" / path)
                problems.append(f"{path}: bytes differ in {columns}")
            else:
                problems.append(f"{path}: sidecar bytes differ")
        counts = [f"{sum(p.suffix == suffix for p in same)} of "
                  f"{sum(p.suffix == suffix for p in files['this'] | files['baseline'])} {kind}"
                  for suffix, kind in ((".csv", "CSVs"), (".txt", "sidecars"))]
        print(f"{len(runs)} commands and {len(refused)} refusals, {' and '.join(counts)} "
              f"byte-identical to {args.baseline}:")
        for name, argv in (runs | refused).items():
            print(f"  {name}: ptcoupler {' '.join(Path(a).name if '/' in a else a for a in argv)}")
        for problem in problems:
            print(f"DIFFERS {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
