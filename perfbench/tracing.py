"""Spans around calls into the ptcoupler layers, installed from outside.

Modules bind names directly (``from .scattering import scattering_matrix``),
so a function is wrapped at every place it is looked up: each ptcoupler
module attribute that is the same object, plus the class attribute for
methods. Each span records its name, start, end and parent; per-binding
totals (calls, inclusive and self time) accumulate for every call, while
individual spans are kept in memory only while ``record_spans`` is on.
A binding whose function no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Binding:
    """A traced function: ``attr`` of ``module``, or of class ``cls`` in it."""

    key: str
    module: str
    attr: str
    cls: str | None = None
    group: str | None = None
    after: Callable | None = None  # called as after(stats, args, result) outside the span


def _count_build(stats, args, result):
    lattice = args[2] if len(args) > 2 else None
    n = getattr(lattice, "n_sites", None)
    if isinstance(n, int):
        stats.extra["reservoir.n_sites"] = max(stats.extra.get("reservoir.n_sites", 0), n)
        # H and its eigenvector matrix, (n + 2)^2 doubles each.
        stats.extra["reservoir.dense_bytes_computed"] = (
            stats.extra.get("reservoir.dense_bytes_computed", 0) + 2 * 8 * (n + 2) ** 2
        )


def _count_written(stats, args, result):
    try:
        data = Path(args[0]).read_bytes()
    except (IndexError, OSError, TypeError):
        return
    rows = sum(1 for line in data.splitlines() if line and not line.startswith(b"#")) - 1
    stats.extra["cli.rows_written"] = stats.extra.get("cli.rows_written", 0) + max(rows, 0)
    stats.extra["cli.bytes_written"] = stats.extra.get("cli.bytes_written", 0) + len(data)


BINDINGS = (
    Binding("scattering.scattering_matrix", "ptcoupler.scattering", "scattering_matrix"),
    Binding("core.passivity_check", "ptcoupler.core", "__post_init__", cls="ScatteringMatrix"),
    Binding("core.decay_curve", "ptcoupler.core", "from_arrays", cls="DecayCurve"),
    Binding("classical.classical_power_curve", "ptcoupler.classical", "classical_power_curve"),
    Binding("classical.supermodes", "ptcoupler.classical", "supermodes", group="classical.regime"),
    Binding("classical.classify_ep", "ptcoupler.classical", "classify_ep", group="classical.regime"),
    Binding("quantum.survival_curve", "ptcoupler.quantum", "survival_curve"),
    Binding("quantum.survival_entangled", "ptcoupler.quantum", "survival_entangled"),
    Binding("quantum.survival_indistinguishable", "ptcoupler.quantum", "survival_indistinguishable"),
    Binding("quantum.survival_fermionic", "ptcoupler.quantum", "survival_fermionic"),
    Binding("quantum.mean_photon_number", "ptcoupler.quantum", "mean_photon_number"),
    Binding("reservoir.build", "ptcoupler.reservoir", "__init__", cls="LatticePropagator",
            after=_count_build),
    Binding("reservoir.scattering", "ptcoupler.reservoir", "scattering", cls="LatticePropagator"),
    Binding("cli.write_decay_curves", "ptcoupler.cli", "write_decay_curves", group="cli.write"),
    Binding("cli.write_table", "ptcoupler.cli", "write_table", group="cli.write",
            after=_count_written),
    Binding("cli.format_float", "ptcoupler.cli", "format_float"),
    Binding("cli.run_sweep", "ptcoupler.cli", "run_sweep"),
    Binding("cli.parse_sweep_config", "ptcoupler.cli", "parse_sweep_config"),
)

# Every ptcoupler.cli function named cmd_* is a top-level command span.
COMMAND_PREFIX = "cmd_"
COMMAND_GROUP = "cli.command"


class Stats:
    """Totals for one stretch of traced calls, in nanoseconds."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.incl: dict[str, int] = {}
        self.self_: dict[str, int] = {}
        self.group_incl: dict[str, int] = {}
        self.extra: dict[str, int] = {}

    def as_dict(self) -> dict:
        return {"calls": self.calls, "incl_ns": self.incl, "self_ns": self.self_,
                "group_incl_ns": self.group_incl, "extra": self.extra}


class Tracer:
    def __init__(self):
        self.stats = Stats()
        self.spans: list[tuple] = []
        self.record_spans = False
        self.present: set[str] = set()
        self.absent: set[str] = set()
        self._stack: list[list] = []  # open spans: [id, child_ns, group]
        self._next_id = 0
        self._patches: list[tuple] = []

    def reset(self) -> Stats:
        old, self.stats = self.stats, Stats()
        return old

    def wrap(self, key: str, fn: Callable, group: str | None = None, after=None) -> Callable:
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            tracer._next_id += 1
            frame = [tracer._next_id, 0, group]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                st = tracer.stats
                st.calls[key] = st.calls.get(key, 0) + 1
                st.incl[key] = st.incl.get(key, 0) + d
                st.self_[key] = st.self_.get(key, 0) + d - frame[1]
                if parent is not None:
                    parent[1] += d
                if group is not None and not any(f[2] == group for f in stack):
                    st.group_incl[group] = st.group_incl.get(group, 0) + d
                if tracer.record_spans:
                    tracer.spans.append((frame[0], parent[0] if parent else None, key, t0, t1))
            if after is not None:
                after(st, args, result)
            return result

        return traced

    def install(self, bindings=BINDINGS) -> None:
        """Wrap every binding at every site it is looked up. Call after
        ptcoupler is imported."""
        for b in bindings:
            if self._install_one(b):
                self.present.update(k for k in (b.key, b.group) if k)
            else:
                self.absent.add(b.key)
        cli = sys.modules.get("ptcoupler.cli")
        commands = [name for name in vars(cli) if name.startswith(COMMAND_PREFIX)] if cli else []
        for name in commands:
            self._install_one(Binding(f"cli.{name}", "ptcoupler.cli", name, group=COMMAND_GROUP))
        (self.present if commands else self.absent).add(COMMAND_GROUP)

    def _install_one(self, b: Binding) -> bool:
        module = sys.modules.get(b.module)
        if b.cls is not None:
            owner = getattr(module, b.cls, None)
            raw = vars(owner).get(b.attr) if isinstance(owner, type) else None
            if raw is None:
                return False
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(b.key, raw.__func__, b.group, b.after))
            elif callable(raw):
                new = self.wrap(b.key, raw, b.group, b.after)
            else:
                return False
            self._patch(owner, b.attr, raw, new)
            return True
        original = getattr(module, b.attr, None)
        if not callable(original):
            return False
        wrapped = self.wrap(b.key, original, b.group, b.after)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "ptcoupler" or name.startswith("ptcoupler.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, original, wrapped)
        return True

    def _patch(self, owner, attr, old, new) -> None:
        setattr(owner, attr, new)
        self._patches.append((owner, attr, old))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()


def write_spans(path: str, spans) -> None:
    """Spans as JSON lines: id, parent id, name, start ns, end ns."""
    tmp = f"{path}.part"
    with open(tmp, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    os.replace(tmp, path)
