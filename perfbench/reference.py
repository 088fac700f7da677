"""Independent check of the CSV files the workload commands write.

Nothing here imports ptcoupler: the expected files follow from the CLI's
documented defaults, the memoryless propagator is scipy.linalg.expm of the
coupled-mode matrix, the chain-reservoir propagator is a Chebyshev
expansion of exp(-iHz) on this module's own Hamiltonian (no
eigensolver), and pair survival comes from the two-photon amplitude
matrix U A0 U^T rather than the closed-form pair formulas. Each command's
file layout and leading columns are checked in full; observable cells are
checked on a seed-chosen sample of rows.
"""

from __future__ import annotations

import argparse
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.special

from workloads import parse_config_text

# Far below any physical effect in the data, far above the roundoff of
# either side (the CSVs carry 17 significant digits).
TOL = 1e-9
LEAD_RTOL = 1e-12
EP_DISCRIMINANT_TOL = 1e-12


def coupler_matrix(kappa: float, gamma: float) -> np.ndarray:
    return np.array([[0.0, kappa], [kappa, -1j * gamma]])


def markovian_propagator(kappa: float, gamma: float, z: float) -> np.ndarray:
    return scipy.linalg.expm(-1j * z * coupler_matrix(kappa, gamma))


def pair_survival(u: np.ndarray, phi: float | None = None) -> float:
    """Probability that both photons, one launched per arm, stay in the two
    arms. phi None is the indistinguishable pair, otherwise the
    polarization-entangled pair with exchange phase phi."""
    if phi is None:
        a0, weight = np.array([[0.0, 0.5], [0.5, 0.0]]), 2.0
    else:
        rt = 1.0 / math.sqrt(2.0)
        a0, weight = np.array([[0.0, rt], [rt * np.exp(1j * phi), 0.0]]), 1.0
    a = u @ a0 @ u.T
    return weight * float(np.sum(np.abs(a) ** 2))


def guided_power(u: np.ndarray) -> float:
    """Sum of both column norms: mean guided photon number of the pair."""
    return float(np.sum(np.abs(u) ** 2))


class ChainHamiltonian:
    """Arm 1 -kappa- arm 2 -rho- middle site of an n-site chain (hopping
    sigma), all on-site constants zero. For even n this attaches at site
    n // 2, the mirror image of the other middle site, which leaves the
    coupler block unchanged."""

    def __init__(self, kappa: float, sigma: float, rho: float, n: int):
        self.kappa, self.sigma, self.rho, self.n = kappa, sigma, rho, n
        self.mid = 2 + n // 2
        chain = 2.0 * sigma if n > 2 else sigma * (n - 1)
        radius = max(kappa, kappa + rho, chain + rho)
        self.radius = radius  # Gershgorin: the spectrum lies in [-radius, radius]

    def apply(self, x: np.ndarray) -> np.ndarray:
        y = np.zeros_like(x)
        y[0] += self.kappa * x[1]
        y[1] += self.kappa * x[0]
        y[1] += self.rho * x[self.mid]
        y[self.mid] += self.rho * x[1]
        y[2:-1] += self.sigma * x[3:]
        y[3:] += self.sigma * x[2:-1]
        return y

    def _expm_apply(self, psi: np.ndarray, z: float) -> np.ndarray:
        """exp(-iHz) psi by the Chebyshev series
        sum_k (2 - [k=0]) (-i)^k J_k(Rz) T_k(H/R) psi."""
        r = self.radius
        x = r * z
        kmax = int(x + 15.0 * x ** (1.0 / 3.0) + 40)
        bessel = scipy.special.jv(np.arange(kmax + 1), x)
        significant = np.nonzero(np.abs(bessel) > 1e-18)[0]
        kmax = int(significant[-1]) if significant.size else 0
        phase = np.array([1.0, -1j, -1.0, 1j])
        coef = 2.0 * phase[np.arange(kmax + 1) % 4] * bessel[: kmax + 1]
        coef[0] = bessel[0]
        t_prev, acc = psi, coef[0] * psi
        if kmax == 0:
            return acc
        t_cur = self.apply(psi) / r
        acc = acc + coef[1] * t_cur
        for k in range(2, kmax + 1):
            t_prev, t_cur = t_cur, 2.0 * self.apply(t_cur) / r - t_prev
            acc += coef[k] * t_cur
        return acc

    def coupler_blocks(self, zs) -> np.ndarray:
        """<i| exp(-iHz) |j> for i, j in the two arms at each z of an
        increasing grid starting at or above 0, stepping the two launched
        states from one z to the next."""
        psi = np.zeros((self.n + 2, 2), dtype=complex)
        psi[0, 0] = psi[1, 1] = 1.0
        blocks, z_prev = [], 0.0
        for z in zs:
            psi = self._expm_apply(psi, z - z_prev)
            blocks.append(psi[:2].copy())
            z_prev = z
        return np.array(blocks)


def min_chain_length(sigma: float, zmax: float) -> int:
    """Documented default chain length: ceil(2.5 * 2 sigma * zmax) + 10."""
    return int(math.ceil(2.5 * 2.0 * sigma * zmax)) + 10


@dataclass
class ExpectedTable:
    """One CSV file: its header, the exact leading columns of every row,
    and the reference values of the remaining columns of a given row."""

    name: str
    header: list[str]
    lead: list[tuple[float, ...]]
    cells: Callable[[int], list]
    metadata: dict[str, str] = field(default_factory=dict)


def _grid(zmax: float, points: int) -> np.ndarray:
    return np.linspace(0.0, zmax, points)


def _label(phi: float) -> str:
    return f"survival_phi_{phi:.12g}"


def _parse_argv(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("command")
    parser.add_argument("--points", type=int)
    parser.add_argument("--nsites", type=int)
    for flag in ("--zmax", "--gamma", "--phi", "--sigma", "--rho"):
        parser.add_argument(flag, type=float)
    parser.add_argument("--kappa", type=float, default=1.0)
    parser.add_argument("--config")
    args, extra = parser.parse_known_args(list(argv))
    if extra:
        raise ValueError(f"reference does not model the flags {extra}")
    return args


class Checker:
    """Checks command outputs against the reference. Propagators are cached
    so repeated iterations of one workload stay cheap."""

    def __init__(self, rows_per_file: int = 8):
        self.rows_per_file = rows_per_file
        self._markovian: dict[tuple, np.ndarray] = {}
        self._lattice: dict[tuple, np.ndarray] = {}

    def markovian(self, kappa: float, gamma: float, z: float) -> np.ndarray:
        key = (kappa, gamma, z)
        if key not in self._markovian:
            self._markovian[key] = markovian_propagator(kappa, gamma, z)
        return self._markovian[key]

    def lattice(self, kappa: float, sigma: float, rho: float, n: int, zs: np.ndarray) -> np.ndarray:
        """Coupler blocks over a whole z grid, computed once per system and grid."""
        key = (kappa, sigma, rho, n, zs.tobytes())
        if key not in self._lattice:
            self._lattice[key] = ChainHamiltonian(kappa, sigma, rho, n).coupler_blocks(zs)
        return self._lattice[key]

    # -- expected files ---------------------------------------------------

    def expected(self, argv) -> list[ExpectedTable]:
        a = _parse_argv(argv)
        k = a.kappa
        if a.command in ("fig2", "fig3"):
            return self._fig23(a.command, k, a.zmax or 10.0 / k, a.points or 501,
                               [a.gamma] if a.gamma is not None else [0.5 * k, 2.0 * k, 10.0 * k])
        if a.command == "fig4":
            return self._fig4(k, a.zmax or 3.0 / k, a.points or 301,
                              [a.gamma] if a.gamma is not None else [0.625 * k, 2.5 * k],
                              [a.phi] if a.phi is not None else [0.0, 2.0 * math.pi / 3.0, math.pi])
        if a.command == "fig5":
            zmax = a.zmax or 3.0 / k
            sigma = a.sigma if a.sigma is not None else 20.0 * k
            return self._fig5(k, zmax, a.points or 301, sigma,
                              [a.rho] if a.rho is not None else [5.0 * k, 10.0 * k],
                              a.phi if a.phi is not None else math.pi,
                              a.nsites if a.nsites is not None else min_chain_length(sigma, zmax))
        if a.command == "sweep":
            return self._sweep(Path(a.config).read_text())
        raise ValueError(f"reference does not model command {a.command!r}")

    def _fig23(self, command, k, zmax, points, gammas):
        zs = _grid(zmax, points)
        tables = []
        for gamma in gammas:
            if command == "fig2":
                header = ["z", "power_balanced_orthogonal", "power_single_waveguide"]

                def cells(i, gamma=gamma):
                    u = self.markovian(k, gamma, zs[i])
                    return [0.5 * guided_power(u), float(np.sum(np.abs(u[:, 0]) ** 2))]
            else:
                header = ["z", "survival_indistinguishable"]

                def cells(i, gamma=gamma):
                    return [pair_survival(self.markovian(k, gamma, zs[i]))]
            tables.append(ExpectedTable(f"{command}_gamma{gamma / k:g}.csv", header,
                                        [(z,) for z in zs], cells))
        return tables

    def _fig4(self, k, zmax, points, gammas, phis):
        zs = _grid(zmax, points)
        labels = [_label(phi) for phi in phis]
        tables = []
        for gamma in gammas:
            def cells(i, gamma=gamma):
                u = self.markovian(k, gamma, zs[i])
                return [pair_survival(u, phi) for phi in phis]
            tables.append(ExpectedTable(f"fig4a_gamma{gamma / k:g}.csv", ["z"] + labels,
                                        [(z,) for z in zs], cells))
        gamma_axis = np.linspace(0.0, 5.0 * k, 201)
        z0 = 3.0 / k

        def cells_b(i):
            u = self.markovian(k, gamma_axis[i], z0)
            return [pair_survival(u, phi) for phi in phis]
        tables.append(ExpectedTable("fig4b.csv", ["gamma"] + labels,
                                    [(g,) for g in gamma_axis], cells_b))
        return tables

    def _fig5(self, k, zmax, points, sigma, rhos, phi, n):
        zs = _grid(zmax, points)
        tables = []
        for rho in rhos:
            gamma_eff = rho * rho / (2.0 * sigma)

            def cells(i, rho=rho, gamma_eff=gamma_eff):
                u = self.lattice(k, sigma, rho, n, zs)[i]
                return [pair_survival(u, phi), math.exp(-2.0 * gamma_eff * zs[i])]
            tables.append(ExpectedTable(
                f"fig5_rho{rho / k:g}.csv",
                ["z", "survival_lattice", "survival_markovian_exponential"],
                [(z,) for z in zs], cells, {"nsites": str(n)},
            ))
        return tables

    def _sweep(self, text):
        cfg = parse_config_text(text)
        k = cfg.kappa
        lead = [(g, phi, z) for g in cfg.gammas for phi in cfg.phis for z in cfg.zs]

        def cells(i):
            gamma, phi, z = lead[i]
            u = self.markovian(k, gamma, z)
            m = coupler_matrix(k, gamma)
            disc = k * k - 0.25 * gamma * gamma
            tol = EP_DISCRIMINANT_TOL * k * k
            values = {
                "classical_power": 0.5 * guided_power(u),
                "mean_photon_number": guided_power(u),
                "p_boson": pair_survival(u),
                "p_entangled": pair_survival(u, phi),
                "p_fermion": abs(np.linalg.det(u)) ** 2,
                "ep_regime": "below" if disc > tol else "above" if disc < -tol else "at",
                "eigenvalue_gap": math.sqrt(abs(np.trace(m) ** 2 - 4.0 * np.linalg.det(m))),
            }
            return [values[name] for name in cfg.observables]
        return [ExpectedTable("sweep.csv", ["gamma", "phi", "z", *cfg.observables], lead, cells)]

    # -- checking ---------------------------------------------------------

    def check(self, argv, outdir: Path, rng: random.Random) -> list[str]:
        """Problems found in the files one command wrote to outdir; an
        empty list means the command's output is correct."""
        problems = []
        for table in self.expected(argv):
            problems += self._check_table(table, Path(outdir) / table.name, rng)
        return problems

    def _check_table(self, table: ExpectedTable, path: Path, rng: random.Random) -> list[str]:
        try:
            text = path.read_text()
        except OSError as exc:
            return [f"{path.name}: {exc}"]
        metadata, header, rows = {}, None, []
        for line in text.splitlines():
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                metadata[key] = value
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append(line.split(","))
        where = path.name
        if header != table.header:
            return [f"{where}: header {header} != {table.header}"]
        if len(rows) != len(table.lead):
            return [f"{where}: {len(rows)} rows, expected {len(table.lead)}"]
        for key, value in table.metadata.items():
            if metadata.get(key) != value:
                return [f"{where}: metadata {key}={metadata.get(key)!r}, expected {value!r}"]
        nlead = len(table.lead[0]) if table.lead else 0
        for i, (row, lead) in enumerate(zip(rows, table.lead)):
            if len(row) != len(header):
                return [f"{where} row {i}: {len(row)} cells, expected {len(header)}"]
            for got, want in zip(row[:nlead], lead):
                if not abs(float(got) - want) <= LEAD_RTOL * max(1.0, abs(want)):
                    return [f"{where} row {i}: leading value {got} != {want!r}"]
        problems = []
        sample = rng.sample(range(len(rows)), min(self.rows_per_file, len(rows)))
        for i in sorted(sample):
            for name, got, want in zip(header[nlead:], rows[i][nlead:], table.cells(i)):
                if isinstance(want, str):
                    ok = got == want
                else:
                    try:
                        ok = abs(float(got) - want) <= TOL
                    except ValueError:
                        ok = False
                if not ok:
                    problems.append(f"{where} row {i} {name}: {got} != {want!r}")
        return problems
