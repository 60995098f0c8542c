"""Per-layer spans around calls into the package, installed at run time.

Every hook names a span, a module and an attribute path in it, resolved by
name when it is installed.  A name that no longer resolves, because a refactor removed
or renamed the function, is reported as missing and its metrics read 0; the
run itself goes on.  Functions that `cocarry.sim` imports into its own
namespace are patched there, where the simulator looks them up.

A span's self time is its duration minus the time of the spans it encloses.
Self time is kept per (root span, span) so the cost inside `Simulation.step`
is separate from the same function called during set-up.
"""

import functools
import gc
import importlib
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


def _clamped(args, out) -> bool:
    return not np.array_equal(out, args[0])


def _damped(args, out) -> bool:
    return out > 0.0


def _rotating(args, out) -> bool:
    return out.zeta == 1


# (span name, module, attribute, event predicate or None, timed)
HOOKS = (
    ("kinematics", "cocarry.sim", "chain_state", None, True),
    ("objects", "cocarry.sim", "object_wrench", None, True),
    ("human", "cocarry.human", "SimulatedHuman.step", None, True),
    ("aci", "cocarry.aci", "AciController.step", _rotating, True),
    ("aci.index", "cocarry.aci", "AdaptiveIndex.update", None, True),
    ("aci.detector", "cocarry.aci", "IntentionDetector.step", None, True),
    ("wbc", "cocarry.wbc", "compute", None, True),
    ("wbc.solve", "cocarry.wbc", "solve_tracking", None, True),
    ("wbc.nullspace", "cocarry.wbc", "nullspace_projector", None, True),
    ("wbc.clamp", "cocarry.wbc", "clamp_velocities", _clamped, True),
    # Counted only: its few operations stay in the self time of `wbc`.
    ("wbc.damping", "cocarry.wbc", "damping_factor", _damped, False),
    ("sim.step", "cocarry.sim", "Simulation.step", None, True),
    ("sim.init", "cocarry.sim", "Simulation.__init__", None, True),
    ("sim.metrics.alignment", "cocarry.sim", "alignment_metric", None, True),
    ("sim.metrics.interval", "cocarry.sim", "interval_stats", None, True),
    ("sim.write_trace", "cocarry.sim", "write_trace", None, True),
    ("sim.write_metrics", "cocarry.sim", "write_metrics", None, True),
    ("scenario.load", "cocarry.scenario", "load_scenario", None, True),
)


class Tracer:
    """In-memory span totals, call counts, event counts and GC pauses."""

    def __init__(self):
        self.self_s = defaultdict(float)  # (root, name) -> seconds
        self.incl_s = defaultdict(float)  # name -> seconds, children included
        self.calls = Counter()  # (root, name) -> calls
        self.events = Counter()
        self.gc_pause_s = 0.0
        self.gc_collections = [0, 0, 0]
        self.missing: list = []
        self._stack: list = []  # one [name, child seconds] frame per open span
        self._gc_t0 = 0.0

    def _span(self, name, fn, event):
        stack, self_s, incl_s = self._stack, self.self_s, self.incl_s
        calls, events = self.calls, self.events

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            root = stack[0][0] if stack else name
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s[(root, name)] += dt - frame[1]
                incl_s[name] += dt
                calls[(root, name)] += 1
                if stack:
                    stack[-1][1] += dt
            if event is not None and event(args, out):
                events[name] += 1
            return out

        return traced

    def _counter(self, name, fn, event):
        events = self.events

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            if event(args, out):
                events[name] += 1
            return out

        return counted

    def install(self):
        """Wrap every hook that resolves; record the names that do not."""
        for name, module, attr, event, timed in HOOKS:
            *path, leaf = attr.split(".")
            try:
                owner = importlib.import_module(module)
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapped = self._span(name, fn, event) if timed else self._counter(name, fn, event)
            setattr(owner, leaf, wrapped)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_t0 = perf_counter()
        else:
            self.gc_pause_s += perf_counter() - self._gc_t0
            self.gc_collections[info["generation"]] += 1

    def watch_gc(self, on: bool):
        if on:
            gc.callbacks.append(self._on_gc)
        else:
            gc.callbacks.remove(self._on_gc)

    def self_time(self, name, root=None) -> float:
        """Self seconds of `name`, within spans rooted at `root` or anywhere."""
        return sum(
            s for (r, n), s in self.self_s.items() if n == name and root in (None, r)
        )

    def layer_metrics(self, ticks: int) -> dict:
        """Per-layer metrics of one run of `ticks` steps."""

        def per_tick(name):
            return self.self_time(name, root="sim.step") / ticks * 1e6

        gen0, gen1, gen2 = self.gc_collections
        return {
            "kinematics.us_per_tick": per_tick("kinematics"),
            "kinematics.calls": self.calls[("sim.step", "kinematics")],
            "wbc.us_per_tick": per_tick("wbc"),
            "wbc.solve.us_per_tick": per_tick("wbc.solve"),
            "wbc.nullspace.us_per_tick": per_tick("wbc.nullspace"),
            "wbc.clamp.us_per_tick": per_tick("wbc.clamp"),
            "wbc.damped_ticks": self.events["wbc.damping"],
            "wbc.saturated_ticks": self.events["wbc.clamp"],
            "aci.us_per_tick": per_tick("aci"),
            "aci.index.us_per_tick": per_tick("aci.index"),
            "aci.detector.us_per_tick": per_tick("aci.detector"),
            "aci.rotation_ticks": self.events["aci"],
            "human.us_per_tick": per_tick("human"),
            "objects.us_per_tick": per_tick("objects"),
            "sim.step.us_per_tick": per_tick("sim.step"),
            "gc.pause_s": self.gc_pause_s,
            "gc.collections.gen0": gen0,
            "gc.collections.gen1": gen1,
            "gc.collections.gen2": gen2,
            "sim.metrics.alignment_s": self.self_time("sim.metrics.alignment"),
            "sim.metrics.interval_s": self.self_time("sim.metrics.interval"),
            "sim.write_trace_s": self.self_time("sim.write_trace"),
            "sim.write_metrics_s": self.self_time("sim.write_metrics"),
        }
