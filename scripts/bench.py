#!/usr/bin/env python3
"""Time the one-point, sweep, chain-reservoir and CSV-writing layers; write a BENCH_*.json.

    python scripts/bench.py --out BENCH_<n>.json
    python scripts/bench.py --out BENCH_<n>.json --baseline <commit>

Every source tree is measured in fresh interpreters whose PYTHONPATH is
that tree: this checkout's src/ as it is on disk and, with --baseline, the
src/ of that commit (extracted with git archive). Without --baseline one
interpreter measures this tree; with it, ROUNDS rounds each run one
interpreter per tree, the two in alternating order, so that drift of the
host lands in both trees alike. Within an interpreter each layer gets one
untimed warm-up call, then REPEATS timed calls, writing to /dev/shm where
it exists (see measure). The JSON keeps every time and each tree's median
and minimum per layer over all of its runs and, with --baseline, each
layer's ratio this / baseline of the two minima.
Every layer makes public calls only, the same in both trees: a baseline
that lacks one of them fails instead of being timed on other code. Layers:

  scattering.matrix_1pt         one scattering_matrix call (beta1 = 0.3,
                                beta2 = -0.2, kappa = 1.1, gamma = 0.7,
                                z = 2): the closed form and its record
  quantum.observables_1pt       the four pair observables (boson, phi = 1.2,
                                fermion, mean photon number) on that record
  quantum.pairs_fig4b           fig4b's three phase columns (0, 2 pi/3, pi)
                                over its 201 loss rates at kappa z0 = 3, as
                                fig4 makes them: one survival_entangled call
                                on the array of phases
  sweep.run_sweep               run_sweep on the config cli.sweep reads, its
                                pieces of columns consumed, none of them
                                formatted, so that cli.sweep - sweep.run_sweep
                                is the formatting and writing
  reservoir.fig5_chain_rho5     S on fig5's 301-point grid (z <= 3) from a
  reservoir.fig5_chain_rho10    fresh LatticePropagator, sigma = 100:
                                n = 1510, rho = 5 and n = 1511, rho = 10
  reservoir.short_chain_far     the same for n = 41, sigma = 20, rho = 5,
                                301 points up to z = 100
  reservoir.long_chain          the same for n = 100010, sigma = 20, rho = 5,
                                301 points up to z = 1000 (fig5 --zmax 1000):
                                many series lengths
  cli.write_table_1e5           write_table of three float columns of 10^5
                                rows
  cli.fig2, cli.fig3, cli.fig4  main() with the argv of perfbench's
  cli.sweep                     figures_markovian and sweep_dense (seed 1)
                                commands, each call into a new directory
  cli.fig2_1e5                  main() with fig2 --points 100000: three
                                loss rates over a grid of many blocks
  cli.fig5_1e5                  main() with fig5 --points 100000: the two
                                default chains over a grid of many blocks

Only numpy, the standard library and perfbench/workloads.py are used.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from importlib import metadata
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
REPEATS = 15  # timed calls per layer and interpreter
ROUNDS = 5  # with --baseline: interpreters per tree, alternating
PERFBENCH_SEED = 1  # sweep_dense's config for sweep.run_sweep and cli.sweep


def layers(tmp: Path) -> dict:
    """Layer name -> a function of no arguments running it once."""
    import numpy as np

    from ptcoupler.cli import main, parse_sweep_config, run_sweep, write_table
    from ptcoupler.core import CouplerParams
    from ptcoupler.quantum import (
        mean_photon_number,
        survival_entangled,
        survival_fermionic,
        survival_indistinguishable,
    )
    from ptcoupler.reservoir import LatticePropagator, LatticeReservoir
    from ptcoupler.scattering import scattering_array, scattering_matrix

    markov = CouplerParams(0.3, -0.2, 1.1, 0.7)
    record = scattering_matrix(markov, 2.0)

    def observables():
        return (survival_indistinguishable(record), survival_entangled(record, 1.2),
                survival_fermionic(record), mean_photon_number(record))

    fig4b, fig4b_det = scattering_array(CouplerParams(0.0, 0.0, 1.0), 3.0,
                                        gamma=np.linspace(0.0, 5.0, 201))
    phis = np.array([0.0, 2.0 * math.pi / 3.0, math.pi])[:, None]

    def chain(sigma, rho, n_sites, z_max):
        params, zs = CouplerParams(0.0, 0.0, 1.0), np.linspace(0.0, z_max, 301)
        lattice = LatticeReservoir(sigma, rho, n_sites, 0.0)
        return lambda: LatticePropagator(params, lattice).scattering_array(zs)

    sys.path.insert(0, str(REPO / "perfbench"))
    from workloads import CONFIG, WORKLOADS, sweep_config

    (tmp / "sweep.cfg").write_text(sweep_config(PERFBENCH_SEED).text())
    config = parse_sweep_config((tmp / "sweep.cfg").read_text())
    outs = itertools.count()

    def command(workload, name, *flags):
        """main() with the argv of workload's command name (name alone if workload is None)."""
        argv, = [(name,)] if workload is None else (a for a in WORKLOADS[workload].commands if a[0] == name)
        argv = [str(tmp / "sweep.cfg") if a == CONFIG else a for a in (*argv, *flags)]

        def run():
            if main([*argv, "--out", str(tmp / f"out{next(outs)}")]) != 0:
                raise RuntimeError(f"{name} failed")
        return run

    table = [np.arange(100_000) / 7.0, np.arange(100_000) / 3.0, np.arange(100_000) * 1e-5]
    return {
        "scattering.matrix_1pt": lambda: scattering_matrix(markov, 2.0),
        "quantum.observables_1pt": observables,
        "quantum.pairs_fig4b": lambda: survival_entangled(fig4b, phis, fig4b_det),
        "sweep.run_sweep": lambda: list(run_sweep(config)[2]),
        "reservoir.fig5_chain_rho5": chain(100.0, 5.0, 1510, 3.0),
        "reservoir.fig5_chain_rho10": chain(100.0, 10.0, 1511, 3.0),
        "reservoir.short_chain_far": chain(20.0, 5.0, 41, 100.0),
        "reservoir.long_chain": chain(20.0, 5.0, 100010, 1000.0),
        "cli.write_table_1e5": lambda: write_table(tmp / "t.csv", {"v": "1"}, ["a", "b", "c"], table),
        "cli.fig2": command("figures_markovian", "fig2"),
        "cli.fig3": command("figures_markovian", "fig3"),
        "cli.fig4": command("figures_markovian", "fig4"),
        "cli.sweep": command("sweep_dense", "sweep"),
        "cli.fig2_1e5": command("figures_markovian", "fig2", "--points", "100000"),
        "cli.fig5_1e5": command(None, "fig5", "--points", "100000"),
    }


def measure() -> dict:
    """Every layer's times in seconds, in this interpreter. The layers write
    to a RAM filesystem where there is one: in a disk-backed /tmp, creating
    the cli layers' files took 1.5-3x longer in some interpreters than in
    others, and their A/A ratios read 0.67-1.64."""
    with tempfile.TemporaryDirectory(dir="/dev/shm" if os.path.isdir("/dev/shm") else None) as tmp:
        times = {}
        for name, run in layers(Path(tmp)).items():
            run()  # warm-up
            samples = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                run()
                samples.append(time.perf_counter() - t0)
            times[name] = samples
    return times


def run_tree(src: Path) -> dict:
    """Every layer's times from one fresh interpreter on the tree src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, __file__, "--measure"],
        env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(result.stdout)


def summary(rounds: list[dict]) -> dict:
    """Per layer: every time of every round, their median and their minimum."""
    out = {}
    for name in rounds[0]:
        runs = [t for r in rounds for t in r[name]]
        out[name] = {"median_s": statistics.median(runs), "min_s": min(runs), "runs_s": runs}
    return out


def ratios(this: dict, baseline: dict) -> dict:
    """Per layer: this tree's minimum over all runs / the baseline's."""
    return {name: this[name]["min_s"] / baseline[name]["min_s"] for name in this}


def git(*argv: str) -> str:
    return subprocess.run(["git", "-C", str(REPO), *argv], stdout=subprocess.PIPE,
                          text=True, check=True).stdout.strip()


def extract_src(rev: str, into: Path) -> Path:
    """The src/ tree of commit rev, extracted under into."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev, "src"],
                             stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)  # our own archive of this repository
    return into / "src"


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.25 prints its configuration only
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),  # not imported by any layer timed here
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="JSON file to write (required)")
    parser.add_argument("--baseline", metavar="COMMIT", help="git commit to compare with")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        print(json.dumps(measure()))
        return 0
    if args.out is None:
        parser.error("--out is required")

    trees = {"this": {"src": "working tree", "git_sha": git("rev-parse", "HEAD"),
                      "dirty": bool(git("status", "--porcelain", "--", "src"))}}
    srcs = {"this": REPO / "src"}
    count = 1 if args.baseline is None else ROUNDS
    with tempfile.TemporaryDirectory() as tmp:
        if args.baseline is not None:
            trees["baseline"] = {"src": args.baseline, "git_sha": git("rev-parse", args.baseline)}
            srcs["baseline"] = extract_src(args.baseline, Path(tmp))
        rounds = {tree: [] for tree in srcs}
        for i in range(count):
            for tree in list(srcs)[:: 1 if i % 2 == 0 else -1]:
                rounds[tree].append(run_tree(srcs[tree]))
    layers = {tree: summary(r) for tree, r in rounds.items()}
    report = {"machine": machine(), "repeats": REPEATS, "rounds": count, "trees": trees,
              "layers": layers}
    if args.baseline is not None:
        report["ratios"] = ratios(layers["this"], layers["baseline"])
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for layer in layers["this"]:
        times = "  ".join(f"{tree} min {layers[tree][layer]['min_s'] * 1e3:8.3f} ms "
                          f"median {layers[tree][layer]['median_s'] * 1e3:8.3f} ms" for tree in trees)
        ratio = f"  ratio {report['ratios'][layer]:.3f}" if "ratios" in report else ""
        print(f"{layer:28s} {times}{ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
