#!/usr/bin/env python3
"""Run the CLI on this tree and on a git revision; exit 1 if any CSV differs.

    python scripts/compare_outputs.py --baseline HEAD

Commands: fig2 to fig5 at their defaults, the sweep of scripts/sweep_example.cfg,
and every command of perfbench's workloads, the sweep_dense config at seeds
1 to 3 (each distinct argv once). Each tree runs them in fresh interpreters
whose PYTHONPATH is its src/: this checkout's as it is on disk, and the src/
of the baseline extracted with git archive, as scripts/bench.py --baseline
does. Every CSV is compared byte for byte; one that differs, or that only one
tree wrote, is listed, and so is a command that fails.
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


def commands(configs: Path) -> dict[str, list[str]]:
    """Output directory name -> argv without --out; sweep configs are written under configs."""
    runs = {name: [name] for name in ("fig2", "fig3", "fig4", "fig5")}
    runs["sweep_example"] = ["sweep", "--config", str(REPO / "scripts" / "sweep_example.cfg")]
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


def run_tree(src: Path, runs: dict[str, list[str]], out: Path) -> list[str]:
    """Run every command with src on PYTHONPATH, outputs under out; the failures."""
    failed = []
    for name, argv in runs.items():
        result = subprocess.run([sys.executable, "-m", "ptcoupler", *argv, "--out", str(out / name)],
                                env=dict(os.environ, PYTHONPATH=str(src)),
                                capture_output=True, text=True)
        if result.returncode != 0:
            failed.append(f"{name} exited {result.returncode}: {result.stderr.strip()[-300:]}")
    return failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", metavar="REV", required=True, help="git revision to compare with")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        runs = commands(tmp)
        trees = {"this": REPO / "src", "baseline": extract_src(args.baseline, tmp / "baseline_src")}
        problems = []
        for tree, src in trees.items():
            problems += [f"{tree}: {failure}" for failure in run_tree(src, runs, tmp / tree)]
        csvs = {tree: {p.relative_to(tmp / tree) for p in (tmp / tree).rglob("*.csv")} for tree in trees}
        for path in sorted(csvs["this"] | csvs["baseline"]):
            if not all(path in names for names in csvs.values()):
                problems.append(f"{path}: written by one tree only")
            elif (tmp / "this" / path).read_bytes() != (tmp / "baseline" / path).read_bytes():
                problems.append(f"{path}: bytes differ")
        same = len(csvs["this"] & csvs["baseline"]) - sum("bytes differ" in p for p in problems)
        print(f"{len(runs)} commands, {same} of {len(csvs['this'] | csvs['baseline'])} CSVs "
              f"byte-identical to {args.baseline}:")
        for name, argv in runs.items():
            print(f"  {name}: ptcoupler {' '.join(Path(a).name if '/' in a else a for a in argv)}")
        for problem in problems:
            print(f"DIFFERS {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
