"""nekmini: a desk-scale in situ / in transit analysis workflow.

A small 2D Rayleigh-Benard convection solver feeds snapshots through a
runtime-configurable analysis bridge to pluggable sinks (checkpoint
writer, pseudocolor renderer, statistics, null), either in-process or
over an N:1 streaming staging transport, with a benchmark harness that
measures the overhead, storage, and scaling trade-offs.
"""

from nekmini.data_model import Block, FieldArray, Snapshot

__all__ = ["Block", "FieldArray", "Snapshot"]

__version__ = "0.1.0"
