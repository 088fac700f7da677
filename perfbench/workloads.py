"""Workload definitions and the seeded sweep configuration.

A workload is a list of CLI commands (argv without ``--out``) that one
iteration runs in order, plus the minimal-size commands whose first call
into each layer the set-up time includes. ``{config}`` in an argv stands
for the sweep config file the benchmark writes from its seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

CONFIG = "{config}"
PROBE_CONFIG = "{probe_config}"

SWEEP_OBSERVABLES = (
    "classical_power",
    "mean_photon_number",
    "p_boson",
    "p_entangled",
    "p_fermion",
    "ep_regime",
    "eigenvalue_gap",
)
SWEEP_GAMMAS, SWEEP_PHIS, SWEEP_ZS = 101, 7, 8
SWEEP_GAMMA_MAX = 10.0
SWEEP_Z_RANGE = (0.1, 10.0)
EP_GAMMA = 2.0  # gamma = 2 kappa with kappa = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[tuple[str, ...], ...]
    probe: tuple[tuple[str, ...], ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "figures_markovian",
            "fig2-fig4 at CLI defaults: about 6.5k closed-form S(z) with SVD passivity checks, "
            "no eigensolver; import dominates a cold run",
            (("fig2",), ("fig3",), ("fig4",)),
            (
                ("fig2", "--points", "2", "--gamma", "1"),
                ("fig3", "--points", "2", "--gamma", "1"),
                ("fig4", "--points", "2", "--gamma", "1", "--phi", "0"),
            ),
        ),
        Workload(
            "reservoir_fig5",
            "fig5 with sigma=100 on an even (1510) and an odd (1511) chain: dense O(n^3) eigh "
            "dominates and memory grows as n^2",
            (
                ("fig5", "--sigma", "100", "--rho", "5"),
                ("fig5", "--sigma", "100", "--rho", "10", "--nsites", "1511"),
            ),
            (("fig5", "--points", "2", "--zmax", "0.1", "--sigma", "1", "--rho", "1", "--nsites", "1"),),
        ),
        Workload(
            "sweep_dense",
            "seeded 101x7x8 Markovian sweep through gamma=2kappa with all 7 observables: "
            "per-cell observables and float formatting, not a z grid",
            (("sweep", "--config", CONFIG),),
            (("sweep", "--config", PROBE_CONFIG),),
        ),
    )
}


@dataclass(frozen=True)
class SweepConfig:
    gammas: tuple[float, ...]
    phis: tuple[float, ...]
    zs: tuple[float, ...]
    kappa: float = 1.0
    observables: tuple[str, ...] = SWEEP_OBSERVABLES

    def text(self) -> str:
        def join(values):
            return ", ".join(repr(float(v)) for v in values)

        return (
            "backend = markovian\n"
            f"kappa = {self.kappa!r}\n"
            f"gamma = {join(self.gammas)}\n"
            f"phi = {join(self.phis)}\n"
            f"z = {join(self.zs)}\n"
            f"observables = {', '.join(self.observables)}\n"
        )


def sweep_config(seed: int) -> SweepConfig:
    """The sweep_dense config: fixed size, pinned gamma = 0 and 2 kappa and
    phi = 0 and pi, every other value drawn from the seed. Drawn gammas keep
    clear of the coalescence point so ep_regime is never a near tie."""
    rng = random.Random(seed)
    gammas = [0.0, EP_GAMMA]
    while len(gammas) < SWEEP_GAMMAS:
        g = rng.uniform(0.0, SWEEP_GAMMA_MAX)
        if g > 0.0 and abs(g - EP_GAMMA) > 1e-6:
            gammas.append(g)
    phis = [0.0, math.pi] + [rng.uniform(0.0, math.pi) for _ in range(SWEEP_PHIS - 2)]
    zs = [rng.uniform(*SWEEP_Z_RANGE) for _ in range(SWEEP_ZS)]
    return SweepConfig(tuple(sorted(gammas)), tuple(sorted(phis)), tuple(sorted(zs)))


# The smallest sweep that still reaches every layer sweep_dense uses.
PROBE_SWEEP = SweepConfig((EP_GAMMA,), (math.pi,), (1.0,))


def parse_config_text(text: str) -> SweepConfig:
    """Read back a config written by SweepConfig.text."""
    entries = {}
    for line in text.splitlines():
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()

    def floats(key):
        return tuple(float(tok) for tok in entries[key].split(","))

    return SweepConfig(
        floats("gamma"),
        floats("phi"),
        floats("z"),
        float(entries["kappa"]),
        tuple(tok.strip() for tok in entries["observables"].split(",")),
    )
