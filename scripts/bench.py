#!/usr/bin/env python3
"""Time the one-point, sweep, chain-reservoir and CSV-writing layers; write a BENCH_*.json.

    python scripts/bench.py --out BENCH_<n>.json
    python scripts/bench.py --out BENCH_<n>.json --baseline <commit>

Every source tree is measured in a fresh interpreter whose PYTHONPATH is
that tree: this checkout's src/ as it is on disk, then, with --baseline,
the src/ of that commit (extracted with git archive), so one run gives
before and after numbers on the same machine. Within it each
layer gets one untimed warm-up call, then REPEATS timed calls; the JSON
keeps every time and their median. Layers:

  scattering.matrix_1pt         one scattering_matrix call (beta1 = 0.3,
                                beta2 = -0.2, kappa = 1.1, gamma = 0.7,
                                z = 2): the closed form and its record
  quantum.observables_1pt       the four pair observables (boson, phi = 1.2,
                                fermion, mean photon number) on that record
  sweep.run_sweep               run_sweep on a seeded 101 x 7 x 8 markovian
                                config with all seven observables: its
                                columns, none of them formatted (cli.sweep
                                times all of the formatting)
  reservoir.fig5_chain_rho5     S on fig5's 301-point grid (z <= 3) from a
  reservoir.fig5_chain_rho10    fresh LatticePropagator, sigma = 100:
                                n = 1510, rho = 5 and n = 1511, rho = 10
  reservoir.short_chain_far     the same for n = 41, sigma = 20, rho = 5,
                                301 points up to z = 100
  reservoir.fig5_moments        _moments_upto the series length of fig5's
                                grid, from a fresh rho = 5 propagator: the
                                Green's-function pass alone
  cli.write_table_1e5           write_table of three float columns of 10^5
                                rows
  cli.fig2, cli.fig3, cli.fig4  main() with the argv of perfbench's
  cli.sweep                     figures_markovian and sweep_dense (seed 1)
                                commands, each call into a new directory

A tree without LatticePropagator.scattering_array is timed on its
per-distance scattering(z), farthest first, as its survival_curve did. A
tree whose write_table takes rows (no shape parameter) is timed on the rows
of the same columns, made in the timed call as its figures made them, and
on every row its run_sweep yields.
Only numpy, the standard library and perfbench/workloads.py are used.
"""

from __future__ import annotations

import argparse
import collections
import inspect
import io
import itertools
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from importlib import metadata
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
REPEATS = 15  # timed calls per layer
PERFBENCH_SEED = 1  # sweep_dense's config for cli.sweep


def sweep_text(seed: int = 5) -> str:
    """101 loss rates in [0, 10] with 0 and 2 kappa pinned, 7 phases with 0
    and pi pinned, 8 distances in [0.1, 10]."""
    rng = random.Random(seed)
    gammas = sorted([0.0, 2.0] + [rng.uniform(0.0, 10.0) for _ in range(99)])
    phis = sorted([0.0, math.pi] + [rng.uniform(0.0, math.pi) for _ in range(5)])
    zs = sorted(rng.uniform(0.1, 10.0) for _ in range(8))
    join = lambda values: ", ".join(repr(v) for v in values)  # noqa: E731
    return (f"backend = markovian\ngamma = {join(gammas)}\nphi = {join(phis)}\n"
            f"z = {join(zs)}\n")


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
    from ptcoupler.scattering import scattering_matrix

    markov = CouplerParams(0.3, -0.2, 1.1, 0.7)
    record = scattering_matrix(markov, 2.0)

    def observables():
        return (survival_indistinguishable(record), survival_entangled(record, 1.2),
                survival_fermionic(record), mean_photon_number(record))

    def chain(sigma, rho, n_sites, z_max):
        params, zs = CouplerParams(0.0, 0.0, 1.0), np.linspace(0.0, z_max, 301)
        lattice = LatticeReservoir(sigma, rho, n_sites, 0.0)

        def run():
            propagator = LatticePropagator(params, lattice)
            if hasattr(propagator, "scattering_array"):
                return propagator.scattering_array(zs)
            return [propagator.scattering(z) for z in zs[::-1]]
        return run

    def moments(sigma, rho, n_sites, z_max):
        params, lattice = CouplerParams(0.0, 0.0, 1.0), LatticeReservoir(sigma, rho, n_sites, 0.0)
        sizes = LatticePropagator(params, lattice)._sizes(np.linspace(0.0, z_max, 301))
        count = int(sizes.max()) // 2
        return lambda: LatticePropagator(params, lattice)._moments_upto(count)

    sys.path.insert(0, str(REPO / "perfbench"))
    from workloads import CONFIG, WORKLOADS, sweep_config

    (tmp / "sweep.cfg").write_text(sweep_config(PERFBENCH_SEED).text())
    outs = itertools.count()

    def command(workload, name):
        argv, = (argv for argv in WORKLOADS[workload].commands if argv[0] == name)
        argv = [str(tmp / "sweep.cfg") if a == CONFIG else a for a in argv]

        def run():
            if main([*argv, "--out", str(tmp / f"out{next(outs)}")]) != 0:
                raise RuntimeError(f"{name} failed")
        return run

    config = parse_sweep_config(sweep_text())
    table = [np.arange(100_000) / 7.0, np.arange(100_000) / 3.0, np.arange(100_000) * 1e-5]
    columnar = "shape" in inspect.signature(write_table).parameters

    def sweep():
        if columnar:
            return run_sweep(config)
        return collections.deque(run_sweep(config)[2], maxlen=0)

    def write():
        columns = table if columnar else zip(*(c.tolist() for c in table))
        return write_table(tmp / "t.csv", {"v": "1"}, ["a", "b", "c"], columns)
    return {
        "scattering.matrix_1pt": lambda: scattering_matrix(markov, 2.0),
        "quantum.observables_1pt": observables,
        "sweep.run_sweep": sweep,
        "reservoir.fig5_chain_rho5": chain(100.0, 5.0, 1510, 3.0),
        "reservoir.fig5_chain_rho10": chain(100.0, 10.0, 1511, 3.0),
        "reservoir.short_chain_far": chain(20.0, 5.0, 41, 100.0),
        "reservoir.fig5_moments": moments(100.0, 5.0, 1510, 3.0),
        "cli.write_table_1e5": write,
        "cli.fig2": command("figures_markovian", "fig2"),
        "cli.fig3": command("figures_markovian", "fig3"),
        "cli.fig4": command("figures_markovian", "fig4"),
        "cli.sweep": command("sweep_dense", "sweep"),
    }


def measure() -> dict:
    """Every layer's times in seconds, in this interpreter."""
    with tempfile.TemporaryDirectory() as tmp:
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
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, __file__, "--measure"],
        env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    times = json.loads(result.stdout)
    return {name: {"median_s": statistics.median(t), "runs_s": t} for name, t in times.items()}


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
    layers = {"this": run_tree(REPO / "src")}
    if args.baseline is not None:
        trees["baseline"] = {"src": args.baseline, "git_sha": git("rev-parse", args.baseline)}
        with tempfile.TemporaryDirectory() as tmp:
            layers["baseline"] = run_tree(extract_src(args.baseline, Path(tmp)))
    report = {"machine": machine(), "repeats": REPEATS, "trees": trees, "layers": layers}
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for layer in report["layers"]["this"]:
        medians = "  ".join(f"{name} {report['layers'][name][layer]['median_s'] * 1e3:8.2f} ms"
                            for name in trees)
        print(f"{layer:30s} {medians}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
