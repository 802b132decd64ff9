"""Spans and counters at qpassage's layer boundaries, patched in from outside.

The library has no timers of its own, so the traced run wraps its public
callables where their consumers look them up: every ``qpassage`` module
attribute that *is* the original function is replaced by the wrapper (this
covers names imported with ``from .x import f`` and the re-import inside
``propagate_schrodinger``), and methods are wrapped on their class.  Names a
later version of the library no longer has are skipped, so the tracer keeps
working while the code changes; their metrics then read 0.

Spans stay in memory as ``(name, parent_index, start, end)`` and are written
out only after the traced iteration.  A span's self time is its duration minus
the durations of its direct children, which never overlap because everything
runs on one thread.
"""

from __future__ import annotations

import gzip
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

# (span name, module that defines the callable, attribute name)
FUNCTION_SPANS = (
    ("protocols.run_protocol", "qpassage.protocols", "run_protocol"),
    ("protocols.plan", "qpassage.protocols", "plan_bell"),
    ("protocols.plan", "qpassage.protocols", "plan_bell_reverse"),
    ("protocols.plan", "qpassage.protocols", "plan_ghz"),
    ("protocols.build_step_hamiltonian", "qpassage.protocols", "build_step_hamiltonian"),
    ("synthesis.assemble_hamiltonian", "qpassage.synthesis", "assemble_hamiltonian"),
    ("synthesis.synthesize_general", "qpassage.synthesis", "synthesize_general"),
    ("ancillary.build_frame", "qpassage.ancillary", "build_frame"),
    ("dynamics.propagate", "qpassage.dynamics", "propagate_schrodinger"),
    ("dynamics.propagate", "qpassage.dynamics", "propagate_lindblad"),
    ("dynamics.reconstruct_evolution", "qpassage.dynamics", "reconstruct_evolution"),
    ("dynamics.von_neumann_residual", "qpassage.dynamics", "von_neumann_residual"),
    ("linalg.expm_hermitian", "qpassage.linalg", "expm_hermitian"),
    ("io.write", "qpassage.io", "write_trajectory_csv"),
    ("io.write", "qpassage.io", "write_manifest"),
)

# (span name, module, class, method)
METHOD_SPANS = (
    ("protocols.passage_vectors", "qpassage.protocols", "ProtocolStep", "passage_vectors"),
)

# Counted without a span: ~750k calls per bell.cfg run make a span too costly.
COUNTED_METHODS = (
    ("schedules.eval", "qpassage.schedules", "ParameterSchedule", "eval"),
)

_COMPLEX_BYTES = 16


def _propagate_extra(tracer, arguments):
    """Integration steps, and the computed trajectory size: steps+1 nodes of
    the initial state's size (d for a ket, d*d for a density matrix)."""
    state = arguments.get("psi0", arguments.get("rho0"))
    steps = int(arguments["grid"].steps)
    tracer.extra["dynamics.propagate.steps"] += steps
    size = (steps + 1) * state.size * _COMPLEX_BYTES
    tracer.extra["dynamics.trajectory_bytes"] = max(tracer.extra["dynamics.trajectory_bytes"],
                                                    size)


def _io_extra(tracer, arguments):
    """Size of the file the writer just produced."""
    tracer.extra["io.bytes"] += os.path.getsize(arguments["path"])


EXTRA_HOOKS = {
    "propagate_schrodinger": _propagate_extra,
    "propagate_lindblad": _propagate_extra,
    "write_trajectory_csv": _io_extra,
    "write_manifest": _io_extra,
}


class Tracer:
    """Collects spans and counters while installed; restores everything on uninstall."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.extra: Counter = Counter()
        self._counters: dict = {}
        self._restore: list = []

    # -- wrapping -------------------------------------------------------------

    def _span_wrapper(self, name, fn, hook=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        signature = inspect.signature(fn) if hook is not None else None

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, parent, start, end)
            if hook is not None:   # only work that completed counts
                hook(self, signature.bind(*args, **kwargs).arguments)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter_wrapper(self, name, fn):
        cell = self._counters.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch_everywhere(self, original, replacement) -> None:
        """Replace `original` under every qpassage module attribute bound to it."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "qpassage" or mod_name.startswith("qpassage.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        for name, mod_name, attr in FUNCTION_SPANS:
            module = sys.modules.get(mod_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._patch_everywhere(original, self._span_wrapper(name, original,
                                                                EXTRA_HOOKS.get(attr)))
        for wrap, table in ((self._span_wrapper, METHOD_SPANS),
                            (self._counter_wrapper, COUNTED_METHODS)):
            for name, mod_name, cls_name, method in table:
                cls = getattr(sys.modules.get(mod_name), cls_name, None)
                original = getattr(cls, method, None)
                if original is None:
                    continue
                self._restore.append((cls, method, original))
                setattr(cls, method, wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ---------------------------------------------------------------

    def counts(self) -> Counter:
        out = Counter(name for name, _, _, _ in self.spans)
        for name, cell in self._counters.items():
            out[name] += cell[0]
        return out

    def self_times(self) -> dict:
        child_sum = defaultdict(float)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child_sum[parent] += end - start
        out = defaultdict(float)
        for idx, (name, _, start, end) in enumerate(self.spans):
            out[name] += (end - start) - child_sum[idx]
        return out

    def calls_by_parent(self) -> Counter:
        """(span name, parent span name or '') -> count."""
        out = Counter()
        for name, parent, _, _ in self.spans:
            out[(name, self.spans[parent][0] if parent >= 0 else "")] += 1
        return out

    def write(self, path) -> None:
        """Spans as gzip CSV: name, parent index, start and end in ns."""
        with gzip.open(path, "wt", newline="\n") as fh:
            fh.write("index,name,parent,start_ns,end_ns\n")
            for idx, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{idx},{name},{parent},{int(start * 1e9)},{int(end * 1e9)}\n")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers from one traced iteration, keyed by metric name."""
    calls = tracer.counts()
    self_s = tracer.self_times()
    by_parent = tracer.calls_by_parent()
    extra = tracer.extra
    bsh = "protocols.build_step_hamiltonian"
    asm = "synthesis.assemble_hamiltonian"
    h_calls = calls[bsh]
    steps = extra["dynamics.propagate.steps"]
    out = {
        "schedules.eval.calls": calls["schedules.eval"],
        f"{asm}.calls": calls[asm],
        f"{asm}.self_s": self_s[asm],
        f"{asm}.calls.strict": by_parent[(asm, "protocols.run_protocol")],
        "synthesis.synthesize_general.calls": calls["synthesis.synthesize_general"],
        "synthesis.synthesize_general.self_s": self_s["synthesis.synthesize_general"],
        f"{bsh}.calls": h_calls,
        f"{bsh}.self_s": self_s[bsh],
        f"{bsh}.calls.propagate": by_parent[(bsh, "dynamics.propagate")],
        f"{bsh}.calls.residual": by_parent[(bsh, "protocols.run_protocol")],
        f"{bsh}.calls.plan": by_parent[(bsh, "protocols.plan")],
        "protocols.h_per_step": h_calls / steps if steps else 0.0,
        "protocols.assemble_per_h": by_parent[(asm, bsh)] / h_calls if h_calls else 0.0,
        "protocols.plan.calls": calls["protocols.plan"],
        "protocols.plan.self_s": self_s["protocols.plan"],
        "protocols.run_protocol.self_s": self_s["protocols.run_protocol"],
        "protocols.passage_vectors.calls": calls["protocols.passage_vectors"],
        "protocols.passage_vectors.self_s": self_s["protocols.passage_vectors"],
        "ancillary.build_frame.calls": calls["ancillary.build_frame"],
        "ancillary.build_frame.self_s": self_s["ancillary.build_frame"],
        "dynamics.propagate.calls": calls["dynamics.propagate"],
        "dynamics.propagate.steps": steps,
        "dynamics.propagate.self_s": self_s["dynamics.propagate"],
        "dynamics.trajectory_bytes": extra["dynamics.trajectory_bytes"],
        "linalg.expm_hermitian.calls": calls["linalg.expm_hermitian"],
        "linalg.expm_hermitian.self_s": self_s["linalg.expm_hermitian"],
        "dynamics.reconstruct_evolution.self_s": self_s["dynamics.reconstruct_evolution"],
        "dynamics.von_neumann_residual.calls": calls["dynamics.von_neumann_residual"],
        "io.write.self_s": self_s["io.write"],
        "io.bytes": extra["io.bytes"],
        "trace.spans": len(tracer.spans),
    }
    return out
