"""Runtime-configurable analysis bridge.

Parses an XML configuration document selecting which analysis sinks run
and how often, then dispatches snapshots to them. Swapping the document
swaps the analyses without touching the code that drives the loop.

Document grammar::

    <sensei>
      <analysis type="checkpoint" frequency="100" dir="ckpt" format="binary"/>
      <analysis type="render" frequency="100" dir="img" width="256" height="256"/>
      <analysis type="stats" frequency="10" path="stats.csv"/>
      <analysis type="null" frequency="1"/>
    </sensei>

type="catalyst" is accepted as an alias for render. Unknown attributes
are warnings, not errors.
"""

from __future__ import annotations

import logging
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from nekmini.data_model import Snapshot, validate_snapshot
from nekmini import sinks as sinks_mod

log = logging.getLogger(__name__)

KINDS = ("checkpoint", "render", "null", "stats")

_KNOWN_ATTRS = {
    "checkpoint": {"dir", "format"},
    "render": {"dir", "width", "height", "field", "vmin", "vmax"},
    "null": set(),
    "stats": {"path"},
}


class ConfigError(ValueError):
    """The configuration document is malformed or inconsistent."""


@dataclass(frozen=True)
class AnalysisSpec:
    kind: str
    frequency: int
    params: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class BridgeConfig:
    specs: tuple[AnalysisSpec, ...] = ()


def parse_config(text: str) -> BridgeConfig:
    """Parse the XML analysis configuration."""
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
        if kind not in KINDS:
            raise ConfigError(f"unknown analysis kind {kind!r}")
        freq_text = attrs.pop("frequency", "1")
        try:
            frequency = int(freq_text)
        except ValueError:
            raise ConfigError(f"frequency must be an integer, got {freq_text!r}") from None
        if frequency < 1:
            raise ConfigError(f"frequency must be >= 1, got {frequency}")

        params = {}
        for k, v in attrs.items():
            if k in _KNOWN_ATTRS[kind]:
                params[k] = v
            else:
                log.warning("ignoring unknown attribute %r on analysis type %r", k, kind)
        if kind == "stats" and "path" not in params:
            raise ConfigError("stats analysis requires a 'path' attribute")
        specs.append(AnalysisSpec(kind, frequency, params))

    return BridgeConfig(specs=tuple(specs))


def load_config(path: str) -> BridgeConfig:
    with open(path, encoding="utf-8") as f:
        return parse_config(f.read())


def should_trigger(spec: AnalysisSpec, step: int) -> bool:
    if step < 0:
        raise ValueError("step must be non-negative")
    return step % spec.frequency == 0


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

    def __init__(self, cfg: BridgeConfig):
        self.cfg = cfg
        self.sinks = [sinks_mod.make_sink(spec.kind, spec.params) for spec in cfg.specs]
        self.summaries = [SinkSummary(spec.kind) for spec in cfg.specs]
        self._last_step: int | None = None

    def update(self, s: Snapshot):
        """Invoke every triggered sink once, in spec order.

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

        for spec, sink, summary in zip(self.cfg.specs, self.sinks, self.summaries):
            if not should_trigger(spec, s.step):
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


def initialize(cfg: BridgeConfig) -> Bridge:
    """Construct all sinks up front (fail-fast on unwritable outputs)."""
    return Bridge(cfg)
