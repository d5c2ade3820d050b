"""Runtime-configurable analysis bridge.

Parses an XML configuration document selecting which analysis sinks run
and how often, then dispatches snapshots to them. Swapping the document
swaps the analyses without touching the code that drives the loop.

Document grammar::

    <sensei>
      <analysis type="<kind>" frequency="<n>" <the sink's attributes>/>
      ...
    </sensei>

`type` picks the sink (`sinks.SINKS`; "catalyst" is an alias for render)
and `frequency` (an integer >= 1, default 1) its cadence. Each sink
declares its own attributes; `parse_config` converts and checks them, so
a spec holds the sink's typed keyword arguments. Unknown attributes are
warnings, not errors.
"""

from __future__ import annotations

import logging
import time
import xml.etree.ElementTree as ET
from dataclasses import MISSING, dataclass, field, fields

from nekmini.data_model import Snapshot, validate_snapshot
from nekmini import sinks as sinks_mod

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    """The configuration document is malformed or inconsistent."""


@dataclass(frozen=True)
class AnalysisSpec:
    kind: str
    frequency: int
    params: dict[str, object] = field(default_factory=dict)


def parse_config(text: str) -> tuple[AnalysisSpec, ...]:
    """Parse the XML analysis configuration into one spec per analysis."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as e:
        raise ConfigError(f"malformed configuration document: {e}") from e
    if root.tag != "sensei":
        raise ConfigError(f"expected root element <sensei>, got <{root.tag}>")

    specs = []
    for el in root:
        if el.tag != "analysis":
            log.warning("ignoring unknown element <%s>", el.tag)
            continue
        attrs = dict(el.attrib)
        kind = attrs.pop("type", None)
        if kind is None:
            raise ConfigError("<analysis> element missing 'type' attribute")
        if kind == "catalyst":
            kind = "render"
        sink = sinks_mod.SINKS.get(kind)
        if sink is None:
            raise ConfigError(f"unknown analysis kind {kind!r}")
        frequency = _parse(kind, "frequency", sinks_mod.positive_int, attrs.pop("frequency", "1"))
        params = {}
        for f in fields(sink):
            if f.name in attrs:
                params[f.name] = _parse(kind, f.name, sink.PARSE.get(f.name, str),
                                        attrs.pop(f.name))
            elif f.default is MISSING:
                raise ConfigError(f"{kind} analysis requires a {f.name!r} attribute")
        for k in attrs:
            log.warning("ignoring unknown attribute %r on analysis type %r", k, kind)
        specs.append(AnalysisSpec(kind, frequency, params))

    return tuple(specs)


def _parse(kind: str, name: str, parse, text: str):
    try:
        return parse(text)
    except ValueError as e:
        raise ConfigError(f"{kind} attribute {name}={text!r}: {e}") from None


def load_config(path: str | None) -> tuple[AnalysisSpec, ...]:
    """The specs of the document at `path`; no path is the empty config."""
    if path is None:
        return ()
    with open(path, encoding="utf-8") as f:
        return parse_config(f.read())


@dataclass
class SinkSummary:
    kind: str
    invocations: int = 0
    seconds: float = 0.0
    bytes_written: int = 0
    failures: int = 0


class Bridge:
    """Owns sink instances and dispatches triggered snapshots to them.

    Confined to one logical thread of control; concurrent update calls
    are disallowed by contract.
    """

    def __init__(self, specs: tuple[AnalysisSpec, ...]):
        self.specs = specs
        self.sinks = [sinks_mod.SINKS[spec.kind](**spec.params) for spec in specs]
        self.summaries = [SinkSummary(spec.kind) for spec in specs]
        self._last_step: int | None = None

    def due(self, step: int) -> bool:
        """Whether any spec's frequency divides `step`: the one trigger rule.
        A caller asks before it builds a snapshot; update applies the same
        rule to each spec."""
        return any(step % spec.frequency == 0 for spec in self.specs)

    def update(self, s: Snapshot):
        """Invoke every due sink once, in spec order.

        A failing sink is logged at warning level and counted in its
        summary; it does not prevent later sinks from running.
        """
        violations = validate_snapshot(s)
        if violations:
            raise ValueError(f"invalid snapshot: {violations}")
        if self._last_step is not None and s.step <= self._last_step:
            raise ValueError(
                f"non-increasing step {s.step} (previous update was step {self._last_step})"
            )
        self._last_step = s.step

        for spec, sink, summary in zip(self.specs, self.sinks, self.summaries):
            if s.step % spec.frequency:
                continue
            t0 = time.perf_counter()
            try:
                summary.bytes_written += sink.consume(s)
            except Exception as e:  # sink isolation: log, count, keep going
                summary.failures += 1
                log.warning("sink %s failed at step %d: %s: %s",
                            spec.kind, s.step, type(e).__name__, e)
            summary.invocations += 1
            summary.seconds += time.perf_counter() - t0

    def finalize(self) -> list[SinkSummary]:
        """Per-sink cumulative totals."""
        return list(self.summaries)


def initialize(specs: tuple[AnalysisSpec, ...]) -> Bridge:
    """Construct all sinks up front (fail-fast on unwritable outputs)."""
    return Bridge(specs)
