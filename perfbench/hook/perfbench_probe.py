"""The benchmark's probe inside each process of a run (see sitecustomize.py).

Untraced (``PERFBENCH_TRACE=0``) it records three facts and leaves every
hot path as it was after the first solver step:

* when the parent spawned this process (``PERFBENCH_SPAWN_T``, stamped by
  run.py for the process it launches and by the in transit orchestrator
  for each role it spawns),
* when this process's first solver step began,
* its peak RSS (``VmHWM``) at exit.

Traced (``PERFBENCH_TRACE=1``) it also wraps the public calls of each
nekmini module in spans. A span is ``[name, start, end, child_seconds,
parent_index, attr]``; spans are kept per thread in memory and written at
exit together with the facts above, as ``<pid>.json`` in
``PERFBENCH_PROBE_DIR``. All times are ``time.monotonic()``, which is one
clock for every process on the host, so spans of different processes can
be compared.

Wrappers are installed where the caller looks the name up: a function
imported by name into another module (``from nekmini.solver import step``)
is replaced in that module's namespace, after that module has run.
"""

from __future__ import annotations

import atexit
import importlib.abc
import importlib.machinery
import json
import os
import subprocess
import sys
import threading
import time
import types

PROBE_ENV = "PERFBENCH_PROBE_DIR"
TRACE_ENV = "PERFBENCH_TRACE"
SPAWN_ENV = "PERFBENCH_SPAWN_T"


def peak_rss_bytes() -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


class Recorder:
    """Facts and spans of this process."""

    def __init__(self, out_dir: str, traced: bool):
        self.out_dir = out_dir
        self.traced = traced
        self.spawn_t = float(os.environ.get(SPAWN_ENV, "nan"))
        self.first_step_t: float | None = None
        self.counters: dict[str, float] = {}
        self._threads: dict[int, list] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _thread_state(self):
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack = [], []
            with self._lock:
                self._threads[threading.get_ident()] = local.spans
            return local.spans, local.stack

    def count(self, name: str, amount: float):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name, fn, attr=None):
        """fn wrapped so that each call records a span.

        `name` is a string or a function of the call's arguments; `attr`
        maps (args, result) to a JSON value stored with the span.
        """
        rec = self
        named = callable(name)

        def traced(*args, **kwargs):
            spans, stack = rec._thread_state()
            entry = [name(args) if named else name, time.monotonic(), 0.0, 0.0,
                     stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(entry)
            try:
                result = fn(*args, **kwargs)
                if attr is not None:
                    entry[5] = attr(args, result)
                return result
            except BaseException as e:
                entry[5] = type(e).__name__
                raise
            finally:
                end = time.monotonic()
                entry[2] = end
                stack.pop()
                if stack:
                    spans[stack[-1]][3] += end - entry[1]

        traced.__wrapped__ = fn
        return traced

    def write(self):
        record = {
            "pid": os.getpid(),
            "argv": sys.argv,
            "spawn_t": self.spawn_t,
            "first_step_t": self.first_step_t,
            "peak_rss_bytes": peak_rss_bytes(),
            "counters": self.counters,
            "threads": [spans for spans in self._threads.values() if spans],
        }
        tmp = os.path.join(self.out_dir, f".{os.getpid()}.tmp")
        with open(tmp, "w") as f:
            json.dump(record, f)
        os.replace(tmp, os.path.join(self.out_dir, f"{os.getpid()}.json"))


# ---------------------------------------------------------------------------
# what is wrapped, module by module
# ---------------------------------------------------------------------------

def _snapshot_bytes(snap) -> int:
    return sum(f.values.nbytes for b in snap.blocks for f in b.fields)


def _patch_harness(rec: Recorder, m):
    real_popen = m.subprocess.Popen

    def popen(*args, **kwargs):
        os.environ[SPAWN_ENV] = repr(time.monotonic())
        return real_popen(*args, **kwargs)

    m.subprocess = types.SimpleNamespace(**{**vars(subprocess), "Popen": popen})

    real_step = m.step
    if rec.traced:
        m.step = rec.span("solver.step", real_step)
        m.snapshot_of = rec.span("solver.snapshot", m.snapshot_of)
        m.init_state = rec.span("solver.init", m.init_state)
        first = m.step
    else:
        first = real_step

    def first_step(*args, **kwargs):
        rec.first_step_t = time.monotonic()
        m.step = first
        return first(*args, **kwargs)

    m.step = first_step


def _patch_solver(rec: Recorder, m):
    m._poisson_solve = rec.span("solver.poisson", m._poisson_solve)


def _patch_data_model(rec: Recorder, m):
    import numpy as np

    real = m.FieldArray.__post_init__

    def post_init(self):
        given = self.values
        real(self)
        if not (isinstance(given, np.ndarray) and np.may_share_memory(given, self.values)):
            rec.count("data_model.field_bytes_built", self.values.nbytes)

    m.FieldArray.__post_init__ = post_init


def _patch_bridge(rec: Recorder, m):
    m.validate_snapshot = rec.span("data_model.validate", m.validate_snapshot)
    m.load_config = rec.span("bridge.load_config", m.load_config)
    m.initialize = rec.span("bridge.init", m.initialize)
    m.Bridge.update = rec.span("bridge.update", m.Bridge.update,
                               lambda args, _: _snapshot_bytes(args[1]))


def _patch_transport(rec: Recorder, m):
    m.assemble_global = rec.span("data_model.assemble", m.assemble_global)
    m.encode_message = rec.span("wire.encode", m.encode_message, lambda _, data: len(data))
    m.decode_message = rec.span("wire.decode", m.decode_message,
                                lambda args, result: [len(args[0]), result[1]])
    m.FrameReader.recv_message = rec.span("transport.recv", m.FrameReader.recv_message,
                                          lambda _, msg: type(msg).__name__)
    m.ProducerConnection.__init__ = rec.span("transport.connect", m.ProducerConnection.__init__)
    m.ProducerConnection.send_step = rec.span("transport.send_step", m.ProducerConnection.send_step)


def _patch_sinks(rec: Recorder, m):
    m.CheckpointSink.consume = rec.span(
        lambda args: f"sinks.checkpoint_{args[0].format}", m.CheckpointSink.consume)
    m.RenderSink.consume = rec.span("sinks.render", m.RenderSink.consume)
    m.StatsSink.consume = rec.span("sinks.stats", m.StatsSink.consume)


_TRACED_PATCHES = {
    "nekmini.solver": _patch_solver,
    "nekmini.data_model": _patch_data_model,
    "nekmini.bridge": _patch_bridge,
    "nekmini.transport": _patch_transport,
    "nekmini.sinks": _patch_sinks,
}


class _PatchingFinder(importlib.abc.MetaPathFinder):
    """Finds nekmini modules as usual and patches each once it has run."""

    def __init__(self, patches: dict):
        self.patches = patches

    def find_spec(self, fullname, path, target=None):
        patch = self.patches.get(fullname)
        if patch is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is None or spec.loader is None:
            return spec
        run_module = spec.loader.exec_module

        def exec_module(module):
            run_module(module)
            patch(module)

        spec.loader.exec_module = exec_module
        return spec


def install():
    rec = Recorder(os.environ[PROBE_ENV], os.environ.get(TRACE_ENV) == "1")
    patches = {"nekmini.harness": lambda m: _patch_harness(rec, m)}
    if rec.traced:
        for name, patch in _TRACED_PATCHES.items():
            patches[name] = lambda m, patch=patch: patch(rec, m)
    sys.meta_path.insert(0, _PatchingFinder(patches))
    atexit.register(rec.write)
