"""Structured-grid mesh and field data model.

This is the in-memory contract shared by the solver, the bridge, the
staging transport, and the sinks.  A :class:`Block` is an axis-aligned
structured-points grid carrying named point arrays; a
:class:`Snapshot` is one timestamped block. In transit, each producer
sends its own block, and :func:`assemble_global` tiles a step's blocks
into one before any analysis runs, so every snapshot the bridge and the
sinks see holds exactly one block (:func:`validate_snapshot` checks it).

Array layout convention (used everywhere, including the wire codec and
the checkpoint files): values are flat float64 sequences ordered with the
component index fastest, then x, then y, then z, i.e.

    flat = c + components * (i + ni * (j + nj * k))

which matches legacy-VTK structured-points ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

POINT = "point"  # the one association: every array holds one tuple per point


@dataclass(frozen=True)
class FieldArray:
    """A named array attached to a block.

    values is always a flat, C-contiguous, read-only float64 array of
    length components * point_count, where the point count is implied by
    the owning block's extents. association is always POINT.

    A values array that is already read-only, 1-D, C-contiguous, aligned
    float64 (a decoded wire field, a frozen assembly result) is adopted as
    it is; whoever made it read-only must not write it through another
    view. Anything else, such as the solver's writeable arrays, is copied
    once, here, so a later change to the source never shows in the field.
    """

    name: str
    association: str  # POINT
    components: int
    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if (isinstance(v, np.ndarray) and v.dtype == np.float64 and v.ndim == 1
                and v.flags.c_contiguous and v.flags.aligned and not v.flags.writeable):
            return
        vals = np.array(v, dtype=np.float64, copy=True).ravel()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __eq__(self, other):
        if not isinstance(other, FieldArray):
            return NotImplemented
        return (
            self.name == other.name
            and self.association == other.association
            and self.components == other.components
            and self.values.shape == other.values.shape
            and bool(np.all(self.values == other.values))
        )


@dataclass(frozen=True)
class Block:
    """One structured-points block: origin + spacing + inclusive extents."""

    origin: tuple[float, float, float]
    spacing: tuple[float, float, float]
    extents: tuple[int, int, int, int, int, int]  # i_min,i_max,j_min,j_max,k_min,k_max
    fields: tuple[FieldArray, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "origin", tuple(float(x) for x in self.origin))
        object.__setattr__(self, "spacing", tuple(float(x) for x in self.spacing))
        object.__setattr__(self, "extents", tuple(int(x) for x in self.extents))
        object.__setattr__(self, "fields", tuple(self.fields))

    @property
    def dims(self) -> tuple[int, int, int]:
        e = self.extents
        return (e[1] - e[0] + 1, e[3] - e[2] + 1, e[5] - e[4] + 1)

    @property
    def point_count(self) -> int:
        ni, nj, nk = self.dims
        return ni * nj * nk

    def field_named(self, name: str) -> FieldArray:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(f"no field named {name!r}")


@dataclass(frozen=True)
class Snapshot:
    """The unit of data flowing from the solver to the sinks."""

    time: float
    step: int
    producer_id: int
    blocks: tuple[Block, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))


def validate_snapshot(s: Snapshot) -> list[str]:
    """Check every type invariant; returns [] when the snapshot is valid.

    A snapshot that reaches the bridge holds exactly one block: the
    solver makes one, and the endpoint assembles its producers' blocks
    into one. Violations are strings naming the offending field; never
    raises.
    """
    if len(s.blocks) != 1:
        return [f"snapshot holds {len(s.blocks)} blocks, expected 1"]
    violations: list[str] = []
    if s.step < 0:
        violations.append("negative step")
    b = s.blocks[0]
    e = b.extents
    if e[1] < e[0] or e[3] < e[2] or e[5] < e[4]:
        return violations + [f"inverted extents {e}"]
    for ax, sp in enumerate(b.spacing):
        if not sp > 0:
            violations.append(f"non-positive spacing on axis {ax}")
    seen: set[str] = set()
    for f in b.fields:
        if not f.name:
            violations.append("empty field name")
        if f.name in seen:
            violations.append(f"duplicate field name {f.name!r}")
        seen.add(f.name)
        if f.association != POINT:
            violations.append(f"field {f.name!r}: association {f.association!r} is not point")
            continue
        if f.components < 1:
            violations.append(f"field {f.name!r}: components < 1")
            continue
        expected = f.components * b.point_count
        if f.values.size != expected:
            violations.append(
                f"field {f.name!r}: field length mismatch "
                f"(got {f.values.size}, expected {expected})"
            )
    return violations


class SchemaMismatch(ValueError):
    pass


def _grid(f: FieldArray, dims: tuple[int, int, int]) -> np.ndarray:
    """View a flat field array as (nk, nj, ni, components)."""
    ni, nj, nk = dims
    return f.values.reshape(nk, nj, ni, f.components)


def assemble_global(blocks: list[Block]) -> Block:
    """Tile one or more blocks along x into one global block.

    This is the one place where a step's blocks combine. Blocks must abut
    in the order given (each block's i_min is the previous block's
    i_max + 1: no gap, no ghost overlap) and share spacing, y/z extents
    and field schema; anything else raises SchemaMismatch. Origin is taken
    from the first block.
    """
    if len(blocks) == 1:
        return blocks[0]

    first = blocks[0]
    schema = tuple((f.name, f.components) for f in first.fields)
    for prev, b in zip(blocks, blocks[1:]):
        if b.spacing != first.spacing:
            raise SchemaMismatch("spacing differs across blocks")
        if tuple((f.name, f.components) for f in b.fields) != schema:
            raise SchemaMismatch("field schema differs across blocks")
        if b.extents[2:] != first.extents[2:]:
            raise SchemaMismatch("y/z extents differ across blocks")
        if b.extents[0] != prev.extents[1] + 1:
            raise SchemaMismatch(f"blocks do not tile along x: extents {prev.extents} "
                                 f"are followed by {b.extents}")

    e = first.extents
    global_extents = (e[0], blocks[-1].extents[1], e[2], e[3], e[4], e[5])

    out_fields = []
    for fi, (name, comps) in enumerate(schema):
        parts = [_grid(b.fields[fi], b.dims) for b in blocks]
        merged = np.concatenate(parts, axis=2)  # x is the fastest grid axis
        merged.setflags(write=False)  # so FieldArray adopts it without a copy
        out_fields.append(FieldArray(name, POINT, comps, merged.ravel()))

    return Block(first.origin, first.spacing, global_extents, tuple(out_fields))
