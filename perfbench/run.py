#!/usr/bin/env python3
"""ptcoupler benchmark: CLI workloads measured end to end and per layer.

    python3 perfbench/run.py --workload figures_markovian --seed 1 --seconds 12 --trace 0

Runs against the src/ of the checkout it sits in (via PYTHONPATH), never an
installed package. --trace 0 measures the end-to-end metrics with tracing
off: set-up time of fresh interpreters, cold CLI runs in fresh processes,
and a warm in-process loop. --trace 1 makes a separate traced run and
reports per-layer metrics. Every command's output is checked against
perfbench/reference.py, outside all timings. A readable summary goes to
stdout, followed by one JSON line with the result; the run record (and
in traced runs the spans) go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# The checker's own numpy must not compete for cores with measured processes.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from reference import Checker  # noqa: E402
from workloads import CONFIG, PROBE_CONFIG, PROBE_SWEEP, WORKLOADS, sweep_config  # noqa: E402

# The machine's speed drifts over seconds, so each run interleaves its
# samples in rounds and every metric is a median over the whole run.
ROUNDS = 6
CHUNK_MIN_ITERS = 2  # ROUNDS * CHUNK_MIN_ITERS > TAIL_BEYOND keeps wall_s_tail defined
TAIL_BEYOND = 10  # wall_s_tail: highest order statistic with this many iterations above it
TRACE_ROUNDS = 3
CHILD_TIMEOUT_S = 100
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)  # measured processes; fixed so runs on bigger hosts compare

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("cold_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("wall_s_tail", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

# name, unit, better
PER_LAYER = (
    ("import.ptcoupler_s", "s", "lower"),
    ("import.scipy_linalg_s", "s", "lower"),
    ("import.scipy_optimize_s", "s", "lower"),
    ("scattering.scattering_matrix.calls", "count", "lower"),
    ("scattering.scattering_matrix.self_s", "s", "lower"),
    ("core.passivity_checks", "count", "lower"),
    ("core.passivity_check_s", "s", "lower"),
    ("core.decay_curve_s", "s", "lower"),
    ("classical.classical_power_curve.calls", "count", "lower"),
    ("classical.classical_power_curve.self_s", "s", "lower"),
    ("classical.supermodes.calls", "count", "lower"),
    ("classical.classify_ep.calls", "count", "lower"),
    ("classical.regime_s", "s", "lower"),
    ("quantum.survival_curve.self_s", "s", "lower"),
    ("quantum.survival_entangled.calls", "count", "lower"),
    ("quantum.survival_entangled.self_s", "s", "lower"),
    ("quantum.survival_indistinguishable.self_s", "s", "lower"),
    ("quantum.survival_fermionic.self_s", "s", "lower"),
    ("quantum.mean_photon_number.self_s", "s", "lower"),
    ("reservoir.builds", "count", "lower"),
    ("reservoir.build_s", "s", "lower"),
    ("reservoir.build_s_1thread", "s", "lower"),
    ("reservoir.scattering.calls", "count", "lower"),
    ("reservoir.scattering.self_s", "s", "lower"),
    ("reservoir.n_sites", "count", "lower"),
    ("reservoir.dense_bytes_computed", "bytes", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.rows_written", "count", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("cli.format_float.calls", "count", "lower"),
    ("cli.format_float_s", "s", "lower"),
    ("cli.run_sweep.self_s", "s", "lower"),
    ("cli.parse_sweep_config_s", "s", "lower"),
    ("cli.command_self_s", "s", "lower"),
    ("trace.command_coverage", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
)

# Per-layer metric -> (binding key or group, what to read from one traced iteration).
TRACED = {
    "scattering.scattering_matrix.calls": ("scattering.scattering_matrix", "calls"),
    "scattering.scattering_matrix.self_s": ("scattering.scattering_matrix", "self_ns"),
    "core.passivity_checks": ("core.passivity_check", "calls"),
    "core.passivity_check_s": ("core.passivity_check", "self_ns"),
    "core.decay_curve_s": ("core.decay_curve", "incl_ns"),
    "classical.classical_power_curve.calls": ("classical.classical_power_curve", "calls"),
    "classical.classical_power_curve.self_s": ("classical.classical_power_curve", "self_ns"),
    "classical.supermodes.calls": ("classical.supermodes", "calls"),
    "classical.classify_ep.calls": ("classical.classify_ep", "calls"),
    "classical.regime_s": ("classical.regime", "group_incl_ns"),
    "quantum.survival_curve.self_s": ("quantum.survival_curve", "self_ns"),
    "quantum.survival_entangled.calls": ("quantum.survival_entangled", "calls"),
    "quantum.survival_entangled.self_s": ("quantum.survival_entangled", "self_ns"),
    "quantum.survival_indistinguishable.self_s": ("quantum.survival_indistinguishable", "self_ns"),
    "quantum.survival_fermionic.self_s": ("quantum.survival_fermionic", "self_ns"),
    "quantum.mean_photon_number.self_s": ("quantum.mean_photon_number", "self_ns"),
    "reservoir.builds": ("reservoir.build", "calls"),
    "reservoir.build_s": ("reservoir.build", "incl_ns"),
    "reservoir.scattering.calls": ("reservoir.scattering", "calls"),
    "reservoir.scattering.self_s": ("reservoir.scattering", "self_ns"),
    "reservoir.n_sites": ("reservoir.build", "extra"),
    "reservoir.dense_bytes_computed": ("reservoir.build", "extra"),
    "cli.write_s": ("cli.write", "group_incl_ns"),
    "cli.rows_written": ("cli.write_table", "extra"),
    "cli.bytes_written": ("cli.write_table", "extra"),
    "cli.format_float.calls": ("cli.format_float", "calls"),
    "cli.format_float_s": ("cli.format_float", "incl_ns"),
    "cli.run_sweep.self_s": ("cli.run_sweep", "self_ns"),
    "cli.parse_sweep_config_s": ("cli.parse_sweep_config", "incl_ns"),
}
IMPORTS = {
    "import.ptcoupler_s": "ptcoupler",
    "import.scipy_linalg_s": "scipy.linalg",
    "import.scipy_optimize_s": "scipy.optimize",
}


class BenchError(Exception):
    """The benchmark itself cannot run (not a failed operation)."""


def git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def versions() -> dict:
    import numpy
    import scipy

    blas = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError, ValueError):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": blas}


def median(values):
    return statistics.median(values) if values else None


class Bench:
    def __init__(self, workload, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.src = ROOT / "src"
        self.env = dict(os.environ, PYTHONPATH=str(self.src), OPENBLAS_NUM_THREADS=str(BLAS_THREADS))
        self.checker = Checker()
        self.ops: list[tuple] = []  # (argv, outdir or None, exit code)
        self.problems: list[str] = []
        config = tmp / "sweep.cfg"
        probe_config = tmp / "probe.cfg"
        self.sweep = sweep_config(seed)
        config.write_text(self.sweep.text())
        probe_config.write_text(PROBE_SWEEP.text())
        subst = {CONFIG: str(config), PROBE_CONFIG: str(probe_config)}
        self.commands = [[subst.get(a, a) for a in argv] for argv in workload.commands]
        self.probe = [[subst.get(a, a) for a in argv] for argv in workload.probe]
        self.n_sites = [int(t.metadata["nsites"]) for argv in self.commands
                        for t in self.checker.expected(argv) if "nsites" in t.metadata]

    # -- processes ---------------------------------------------------------

    def _run(self, cmd) -> subprocess.CompletedProcess:
        try:
            return subprocess.run(cmd, env=self.env, cwd=self.tmp, timeout=CHILD_TIMEOUT_S,
                                  capture_output=True, text=True)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{cmd[1:3]} timed out after {CHILD_TIMEOUT_S} s") from exc

    def check_package(self) -> None:
        """Import once, discarded: compiles bytecode, warms the file cache and
        makes sure ptcoupler comes from this checkout."""
        r = self._run([sys.executable, "-c", "import ptcoupler.cli; print(ptcoupler.__file__)"])
        where = r.stdout.strip()
        if r.returncode != 0 or not where.startswith(str(self.src)):
            raise BenchError(f"cannot import ptcoupler from {self.src}: {r.stderr.strip()[-300:]}")

    def setup_sample(self, k: int) -> float | None:
        """Seconds from spawning an interpreter until the probe's first calls
        into each layer have returned (the probe reports the moment)."""
        t0 = time.monotonic()
        r = self._run([sys.executable, str(HERE / "probe.py"), str(self.tmp / f"setup{k}"),
                       json.dumps(self.probe)])
        self.ops.append((["set-up probe"], None, r.returncode))
        if r.returncode != 0:
            self.problems.append(f"set-up probe: {r.stderr.strip()[-300:]}")
            return None
        return float(r.stdout.strip().splitlines()[-1]) - t0

    def cold_sample(self, k: int) -> float:
        """Summed wall time of the workload's commands, each a fresh process."""
        total = 0.0
        for j, argv in enumerate(self.commands):
            out = self.tmp / f"cold{k}" / f"c{j}"
            t0 = time.perf_counter()
            r = self._run([sys.executable, "-m", "ptcoupler", *argv, "--out", str(out)])
            total += time.perf_counter() - t0
            self.ops.append((argv, out, r.returncode))
            if r.returncode != 0:
                self.problems.append(f"{' '.join(argv)}: {r.stderr.strip()[-300:]}")
        return total

    def record_runs(self, runs) -> None:
        for run in runs:
            for j, (argv, code) in enumerate(zip(self.commands, run["codes"])):
                self.ops.append((argv, Path(run["dir"]) / f"c{j}", code))

    def import_sample(self) -> dict:
        """Cumulative import time of each IMPORTS module inside `import ptcoupler`
        in a fresh process; 0 when the import no longer happens."""
        r = self._run([sys.executable, "-X", "importtime", "-c", "import ptcoupler"])
        if r.returncode != 0:
            raise BenchError(f"import ptcoupler failed: {r.stderr.strip()[-300:]}")
        cumulative = {}
        for line in r.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        return {name: cumulative.get(module, 0.0) for name, module in IMPORTS.items()}

    # -- checking ----------------------------------------------------------

    def verify(self) -> tuple[int, int]:
        failed = 0
        for i, (argv, outdir, code) in enumerate(self.ops):
            problems = [] if code == 0 else [f"exit code {code}"]
            if code == 0 and outdir is not None:
                rng = random.Random(f"{self.seed}:{i}")
                try:
                    problems = self.checker.check(argv, outdir, rng)
                except (OSError, ValueError) as exc:
                    problems = [f"unreadable output: {exc}"]
            if problems:
                failed += 1
                self.problems += [f"{' '.join(argv)}: {p}" for p in problems[:3]]
        return len(self.ops), failed

    # -- runs --------------------------------------------------------------

    def end_to_end(self, seconds: float) -> tuple[dict, dict]:
        """Rounds of one set-up probe, one cold sample and one warm chunk, so
        every metric's samples spread over the whole run."""
        setup, cold, times = [], [], []
        with Worker(self, "warm", BLAS_THREADS) as worker:
            for r in range(ROUNDS):
                setup.append(self.setup_sample(r))
                cold.append(self.cold_sample(r))
                times += [run["time"] for run in worker.chunk(f"u{r}", seconds / ROUNDS, CHUNK_MIN_ITERS)]
            final = worker.close()
        setup = [s for s in setup if s is not None]
        n = len(times)
        tail_rank = n - 1 - TAIL_BEYOND
        metrics = {
            "setup_s": median(setup),
            "cold_s": median(cold),
            "wall_s": median(times),
            "wall_s_tail": sorted(times)[tail_rank],
            "peak_rss_mb": final["peak_rss_kb"] / 1024.0,
        }
        samples = {
            "setup_s": setup, "cold_s": cold, "wall_s": times,
            "wall_s_tail": {"percentile": 100.0 * tail_rank / (n - 1), "iterations": n,
                            "beyond": TAIL_BEYOND},
        }
        return metrics, samples

    def per_layer(self, seconds: float, spans: Path) -> tuple[dict, dict]:
        """Rounds of an import-time sample, an untraced and a traced chunk."""
        imports, untraced, traced = [], [], []
        chunk_s = seconds / (2 * TRACE_ROUNDS)
        with Worker(self, "trace", BLAS_THREADS) as worker:
            for r in range(TRACE_ROUNDS):
                imports.append(self.import_sample())
                untraced += worker.chunk(f"u{r}", chunk_s, 1)
                traced += worker.chunk(f"t{r}", chunk_s, 1, trace=True)
            final = worker.close(spans)
        present = set(final["present"])
        metrics = {name: median([sample[name] for sample in imports]) for name in IMPORTS}
        for name, (key, field) in TRACED.items():
            metrics[name] = traced_value(traced, key, field, name) if key in present else None

        if "cli.command" in present:
            metrics["cli.command_self_s"] = median([
                sum(ns for key, ns in run["stats"]["self_ns"].items() if key.startswith("cli.cmd_")) / 1e9
                for run in traced])
            metrics["trace.command_coverage"] = median(
                [run["stats"]["group_incl_ns"].get("cli.command", 0) / 1e9 / run["time"] for run in traced])
        else:
            metrics["cli.command_self_s"] = metrics["trace.command_coverage"] = None
        untraced_wall = median([run["time"] for run in untraced])
        traced_wall = median([run["time"] for run in traced])
        metrics["trace.overhead_s"] = traced_wall - untraced_wall

        # The same builds with one BLAS thread: the single-thread baseline.
        metrics["reservoir.build_s_1thread"] = metrics["reservoir.build_s"]
        if metrics["reservoir.builds"]:
            with Worker(self, "single", 1) as worker:
                single = worker.chunk("t", 0, 1, trace=True)
                worker.close()
            metrics["reservoir.build_s_1thread"] = traced_value(
                single, "reservoir.build", "incl_ns", "reservoir.build_s")
        samples = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
                   "traced_iterations": len(traced), "absent": final["absent"]}
        return metrics, samples


class Worker:
    """A warm worker.py process, driven one chunk at a time."""

    def __init__(self, bench: Bench, tag: str, threads: int):
        self.bench = bench
        self.stderr = open(bench.tmp / f"{tag}.stderr", "w")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(bench.commands), str(bench.tmp / tag)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.stderr, text=True,
            cwd=bench.tmp, env=dict(bench.env, OPENBLAS_NUM_THREADS=str(threads)))
        bench.record_runs([self._receive()])

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.stderr.close()

    def _receive(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.stderr.flush()
            tail = Path(self.stderr.name).read_text()[-500:]
            raise BenchError(f"worker stopped answering: {tail}")
        return json.loads(line)

    def _request(self, obj: dict) -> dict:
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()
        return self._receive()

    def chunk(self, tag: str, seconds: float, min_iters: int, trace: bool = False) -> list[dict]:
        runs = self._request({"tag": tag, "seconds": seconds, "min_iters": min_iters, "trace": trace})["runs"]
        self.bench.record_runs(runs)
        return runs

    def close(self, spans: Path | None = None) -> dict:
        return self._request({"exit": True, "spans": str(spans) if spans else None})


def traced_value(runs, key, field, name):
    """Median over traced iterations of one binding's count, time or extra."""
    def one(stats):
        if field == "extra":
            return stats["extra"].get(name, 0)
        value = stats[field].get(key, 0)
        return value if field == "calls" else value / 1e9
    return median([one(run["stats"]) for run in runs])


def record_path(workload: str, seed: int, trace: int, kind: str) -> Path:
    return ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.{kind}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "ptcoupler" / "__init__.py").is_file():
        print(f"error: no ptcoupler package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    outroot = ROOT / ".perfbench_out"
    outroot.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=outroot))
    started = time.monotonic()
    try:
        bench = Bench(workload, args.seed, tmp)
        bench.check_package()
        if args.trace:
            table = PER_LAYER
            metrics, samples = bench.per_layer(args.seconds, record_path(workload.name, args.seed, 1, "spans.jsonl"))
        else:
            table = END_TO_END
            metrics, samples = bench.end_to_end(args.seconds)
        measured = time.monotonic()
        attempted, failed = bench.verify()
        phase_s = {"measure": measured - started, "verify": time.monotonic() - measured}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    units = {name: unit for name, unit, *_ in table}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": workload.name, "commands": bench.commands, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "git_sha": git_sha(ROOT), **versions(),
        "nproc": NPROC, "openblas_num_threads": BLAS_THREADS,
        "n_sites": bench.n_sites, "phase_s": phase_s,
        "sweep_config": bench.sweep.text() if workload.name == "sweep_dense" else None,
        "samples": samples, "error_rate": failed / attempted, "problems": bench.problems[:20],
        "run_s": time.monotonic() - started, "result": result,
    }
    record_path(workload.name, args.seed, args.trace, "json").write_text(json.dumps(record, indent=1))

    print(f"# {workload.name} seed={args.seed} trace={args.trace} ptcoupler@{record['git_sha']} "
          f"python {record['python']} numpy {record['numpy']} scipy {record['scipy']} "
          f"openblas {record['openblas']} threads={BLAS_THREADS}/{NPROC}")
    for name, unit in units.items():
        value = metrics[name]
        shown = "absent" if value is None else f"{value:.6g} {unit}"
        note = samples.get(name)
        if isinstance(note, list):
            shown += f"  (median of {len(note)})"
        elif isinstance(note, dict):
            shown += (f"  (p{note['percentile']:.0f} of {note['iterations']} iterations, "
                      f"{note['beyond']} beyond)")
        print(f"{name:44s} {shown}")
    print(f"{'error_rate':44s} {failed}/{attempted} = {failed / attempted:.3g}")
    for problem in bench.problems[:5]:
        print(f"problem: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
