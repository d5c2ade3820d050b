"""Pluggable analysis sinks: checkpoint writer/reader, pseudocolor
renderer, statistics CSV, and a null sink.

Every sink reads the one block of the snapshot it is given (the bridge
rejects any other snapshot; in transit, the endpoint has already tiled
the producers' blocks into one). A checkpoint is one file per snapshot,
step<step:06d>_blk<producer_id:03d>.vtk.

Checkpoint files are legacy-VTK STRUCTURED_POINTS (readable by standard
visualization tools). The exact layout::

    # vtk DataFile Version 3.0\\n
    nekmini step=<n> producer=<n> time=<%.17g> extents=<6 ints>\\n
    BINARY\\n                          (or ASCII)
    DATASET STRUCTURED_POINTS\\n
    DIMENSIONS ni nj nk\\n
    ORIGIN x y z\\n                    (%.17g each)
    SPACING dx dy dz\\n
    POINT_DATA n\\n
    FIELD FieldData k\\n
    <name> <components> <tuples> double\\n
    <big-endian float64 payload>\\n    (ascii mode: %.17g, 9 per line)

The title line carries step/producer/time/extents so a read reproduces
the original snapshot exactly; 17 significant digits make the ascii mode
round-trip float64 bit-exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nekmini.data_model import CELL, POINT, Block, FieldArray, Snapshot

_VTK_HEADER = "# vtk DataFile Version 3.0"
_ASSOC_CODE = {POINT: "POINT_DATA", CELL: "CELL_DATA"}


class CheckpointFormatError(ValueError):
    """A checkpoint file is malformed or truncated."""


# ---------------------------------------------------------------------------
# checkpoint writer / reader
# ---------------------------------------------------------------------------

def checkpoint_filename(step: int, blk: int) -> str:
    return f"step{step:06d}_blk{blk:03d}.vtk"


def checkpoint_write(s: Snapshot, dir: str | Path, format: str = "binary") -> tuple[Path, int]:
    """Write the snapshot's block as one legacy-VTK file, named for its
    step and producer; returns (path, bytes written)."""
    if format not in ("ascii", "binary"):
        raise ValueError(f"format must be 'ascii' or 'binary', got {format!r}")
    (block,) = s.blocks
    if not block.fields:
        raise ValueError("block has no fields to checkpoint")
    path = Path(dir) / checkpoint_filename(s.step, s.producer_id)
    data = _encode_vtk(block, s.step, s.producer_id, s.time, format)
    path.write_bytes(data)
    return path, len(data)


def _encode_vtk(block: Block, step: int, producer: int, time: float, format: str) -> bytes:
    ni, nj, nk = block.dims
    ext = " ".join(str(e) for e in block.extents)
    lines = [
        _VTK_HEADER,
        f"nekmini step={step} producer={producer} time={time:.17g} extents={ext}",
        "BINARY" if format == "binary" else "ASCII",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {ni} {nj} {nk}",
        "ORIGIN " + " ".join(f"{x:.17g}" for x in block.origin),
        "SPACING " + " ".join(f"{x:.17g}" for x in block.spacing),
    ]
    point_fields = [f for f in block.fields if f.association == POINT]
    cell_fields = [f for f in block.fields if f.association == CELL]
    parts = [("\n".join(lines) + "\n").encode("ascii")]
    for assoc, group in ((POINT, point_fields), (CELL, cell_fields)):
        if not group:
            continue
        count = block.entity_count(assoc)
        parts.append(f"{_ASSOC_CODE[assoc]} {count}\n".encode("ascii"))
        parts.append(f"FIELD FieldData {len(group)}\n".encode("ascii"))
        for f in group:
            parts.append(f"{f.name} {f.components} {count} double\n".encode("ascii"))
            if format == "binary":
                parts.append(f.values.astype(">f8"))
            else:
                parts.append(_ascii_values(f.values.tolist()))
            parts.append(b"\n")
    return b"".join(parts)


def _ascii_values(vals: list[float]) -> bytes:
    """Values at 17 significant digits, 9 to a line, formatted by one %."""
    rows, rest = divmod(len(vals), 9)
    line = " ".join(["%.17g"] * 9) + "\n"
    last = " ".join(["%.17g"] * rest) + "\n" if rest else ""
    return ((line * rows + last) % tuple(vals)).encode("ascii")


def checkpoint_read(path: str | Path) -> Snapshot:
    """Inverse of checkpoint_write for one file: a one-block snapshot."""
    raw = Path(path).read_bytes()
    pos = 0

    def next_line() -> str:
        nonlocal pos
        nl = raw.find(b"\n", pos)
        if nl < 0:
            raise CheckpointFormatError("truncated header")
        line = raw[pos:nl].decode("ascii")
        pos = nl + 1
        return line

    if next_line() != _VTK_HEADER:
        raise CheckpointFormatError("not a legacy VTK file")
    title = next_line()
    m = re.match(
        r"nekmini step=(\d+) producer=(\d+) time=(\S+) extents=(-?\d+) (-?\d+) (-?\d+) (-?\d+) (-?\d+) (-?\d+)",
        title,
    )
    step, producer, time_val, extents = 0, 0, 0.0, None
    if m:
        step, producer = int(m.group(1)), int(m.group(2))
        time_val = float(m.group(3))
        extents = tuple(int(m.group(i)) for i in range(4, 10))
    mode = next_line()
    if mode not in ("BINARY", "ASCII"):
        raise CheckpointFormatError(f"unsupported data mode {mode!r}")
    dataset = next_line()
    if dataset != "DATASET STRUCTURED_POINTS":
        raise CheckpointFormatError(f"unsupported dataset type {dataset!r}")
    dims = tuple(int(x) for x in next_line().split()[1:4])
    origin = tuple(float(x) for x in next_line().split()[1:4])
    spacing = tuple(float(x) for x in next_line().split()[1:4])
    if extents is None:
        extents = (0, dims[0] - 1, 0, dims[1] - 1, 0, dims[2] - 1)

    fields: list[FieldArray] = []
    while pos < len(raw):
        while pos < len(raw) and raw[pos:pos + 1] == b"\n":
            pos += 1
        if pos >= len(raw):
            break
        section = next_line().split()
        assoc = POINT if section[0] == "POINT_DATA" else CELL
        field_line = next_line().split()
        if field_line[0] != "FIELD":
            raise CheckpointFormatError(f"expected FIELD, got {field_line[0]!r}")
        n_arrays = int(field_line[2])
        for _ in range(n_arrays):
            name, comps, count, dtype = next_line().split()
            comps, count = int(comps), int(count)
            if dtype != "double":
                raise CheckpointFormatError(f"unsupported dtype {dtype!r}")
            n = comps * count
            if mode == "BINARY":
                end = pos + 8 * n
                if end > len(raw):
                    raise CheckpointFormatError(f"truncated payload for field {name!r}")
                values = np.frombuffer(raw[pos:end], dtype=">f8").astype(np.float64)
                pos = end
            else:
                vals: list[float] = []
                while len(vals) < n:
                    if pos >= len(raw):
                        raise CheckpointFormatError(f"truncated payload for field {name!r}")
                    vals.extend(float(x) for x in next_line().split())
                values = np.array(vals[:n])
            fields.append(FieldArray(name, assoc, comps, values))
            if raw[pos:pos + 1] == b"\n":
                pos += 1

    block = Block(origin, spacing, extents, tuple(fields))
    return Snapshot(time=time_val, step=step, producer_id=producer, blocks=(block,))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ColorMap:
    """Piecewise-linear RGB colormap over t in [0, 1]."""

    anchors: tuple[tuple[float, tuple[int, int, int]], ...]

    def __post_init__(self):
        ts = [t for t, _ in self.anchors]
        if ts[0] != 0.0 or ts[-1] != 1.0 or any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("anchor positions must strictly increase from 0 to 1")

    def apply(self, t: np.ndarray) -> np.ndarray:
        """Map t values (clipped to [0,1]) to uint8 RGB, shape t.shape + (3,)."""
        t = np.clip(np.asarray(t, dtype=np.float64), 0.0, 1.0)
        ts = np.array([a for a, _ in self.anchors])
        rgb = np.empty(t.shape + (3,), dtype=np.uint8)
        for c in range(3):
            channel = np.array([col[c] for _, col in self.anchors], dtype=np.float64)
            rgb[..., c] = np.floor(np.interp(t, ts, channel) + 0.5).astype(np.uint8)
        return rgb


# diverging blue-white-red; fixed anchors keep images byte-reproducible
DEFAULT_COLORMAP = ColorMap(((0.0, (59, 76, 192)), (0.5, (255, 255, 255)), (1.0, (180, 4, 38))))


@dataclass(frozen=True)
class ImageRGB:
    width: int
    height: int
    pixels: bytes  # row-major 8-bit RGB, top row first

    def __post_init__(self):
        if len(self.pixels) != 3 * self.width * self.height:
            raise ValueError("pixel buffer length must be 3 * width * height")


def scalar_field(block: Block, name: str) -> np.ndarray:
    """Extract a scalar (nj, ni) grid; 'field:mag' derives the magnitude."""
    base, _, derived = name.partition(":")
    f = block.field_named(base)
    ni, nj, nk = block.dims
    grid = f.values.reshape(nk * nj, ni, f.components)
    if derived == "":
        if f.components != 1:
            raise ValueError(
                f"field {base!r} has {f.components} components; request a derived "
                f"scalar such as {base!r}:mag"
            )
        return grid[..., 0]
    if derived == "mag":
        return np.sqrt(np.sum(grid**2, axis=-1))
    raise ValueError(f"unknown derived scalar {derived!r}")


def render(
    s: Snapshot,
    field: str,
    width: int = 256,
    height: int = 256,
    vmin: float | None = None,
    vmax: float | None = None,
) -> ImageRGB:
    """Pseudocolor image of one field, bilinear-sampled in index space.

    Pixel row 0 is the top of the domain (highest y index), coloured by
    DEFAULT_COLORMAP. Deterministic: identical inputs give byte-identical
    images.
    """
    data = scalar_field(s.blocks[0], field)
    nj, ni = data.shape

    lo = float(data.min()) if vmin is None else float(vmin)
    hi = float(data.max()) if vmax is None else float(vmax)
    if hi > lo:
        t = (data - lo) / (hi - lo)
    else:
        t = np.zeros_like(data)  # degenerate range: everything maps to t=0

    px = np.arange(width)
    py = np.arange(height)
    xf = px * (ni - 1) / (width - 1) if width > 1 else np.zeros(1)
    yf = (height - 1 - py) * (nj - 1) / (height - 1) if height > 1 else np.zeros(1)
    x0 = np.minimum(xf.astype(int), ni - 2) if ni > 1 else np.zeros(width, dtype=int)
    y0 = np.minimum(yf.astype(int), nj - 2) if nj > 1 else np.zeros(height, dtype=int)
    ax = xf - x0
    ay = yf - y0
    x1 = np.minimum(x0 + 1, ni - 1)
    y1 = np.minimum(y0 + 1, nj - 1)

    t00 = t[np.ix_(y0, x0)]
    t01 = t[np.ix_(y0, x1)]
    t10 = t[np.ix_(y1, x0)]
    t11 = t[np.ix_(y1, x1)]
    ayc = ay[:, None]
    axc = ax[None, :]
    sampled = (
        t00 * (1 - ayc) * (1 - axc)
        + t01 * (1 - ayc) * axc
        + t10 * ayc * (1 - axc)
        + t11 * ayc * axc
    )
    rgb = DEFAULT_COLORMAP.apply(sampled)
    return ImageRGB(width, height, rgb.tobytes())


def write_ppm(img: ImageRGB, path: str | Path) -> int:
    """Binary PPM (P6); returns the exact byte count written."""
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    data = header + img.pixels
    Path(path).write_bytes(data)
    return len(data)


# ---------------------------------------------------------------------------
# sink classes used by the bridge
# ---------------------------------------------------------------------------

class CheckpointSink:
    def __init__(self, params: dict[str, str]):
        self.dir = Path(params.get("dir", "checkpoint_out"))
        self.format = params.get("format", "binary")
        if self.format not in ("ascii", "binary"):
            raise ValueError(f"checkpoint format must be ascii or binary, got {self.format!r}")
        self.dir.mkdir(parents=True, exist_ok=True)
        _probe_writable(self.dir)

    def consume(self, s: Snapshot) -> int:
        return checkpoint_write(s, self.dir, self.format)[1]


class RenderSink:
    """Renders per trigger; with no explicit field, renders two images
    (temperature and velocity magnitude) per snapshot."""

    def __init__(self, params: dict[str, str]):
        self.dir = Path(params.get("dir", "render_out"))
        self.width = int(params.get("width", 256))
        self.height = int(params.get("height", 256))
        f = params.get("field")
        self.fields = [f] if f else ["temperature", "velocity:mag"]
        self.vmin = float(params["vmin"]) if "vmin" in params else None
        self.vmax = float(params["vmax"]) if "vmax" in params else None
        self.dir.mkdir(parents=True, exist_ok=True)
        _probe_writable(self.dir)

    def consume(self, s: Snapshot) -> int:
        total = 0
        for name in self.fields:
            img = render(s, name, self.width, self.height, self.vmin, self.vmax)
            fname = f"step{s.step:06d}_{name.replace(':', '_')}.ppm"
            total += write_ppm(img, self.dir / fname)
        return total


class NullSink:
    """Consumes every snapshot and writes nothing (baseline and scaling runs)."""

    def __init__(self, params: dict[str, str]):
        pass

    def consume(self, s: Snapshot) -> int:
        return 0


class StatsSink:
    """Appends step,time,field,min,max,mean rows (stats over all points
    and components of each field)."""

    HEADER = "step,time,field,min,max,mean"

    def __init__(self, params: dict[str, str]):
        self.path = Path(params["path"])
        if self.path.parent != Path(""):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        if not self.path.exists():
            self.path.write_text(self.HEADER + "\n")
        _probe_writable(self.path.parent)

    def consume(self, s: Snapshot) -> int:
        rows = []
        for f in s.blocks[0].fields:
            # numpy sums an unaligned array (a field decoded off the wire) in
            # buffered chunks, which can round its mean differently
            vals = np.require(f.values, requirements="A")
            rows.append(
                f"{s.step},{s.time:.17g},{f.name},{vals.min():.17g},{vals.max():.17g},{vals.mean():.17g}"
            )
        text = "\n".join(rows) + "\n"
        with open(self.path, "a") as f:
            f.write(text)
        return len(text)


def _probe_writable(d: Path):
    probe = d / ".write_probe"
    try:
        probe.touch()
        probe.unlink()
    except OSError as e:
        raise OSError(f"output directory {d} is not writable: {e}") from e


_SINK_TYPES = {
    "checkpoint": CheckpointSink,
    "render": RenderSink,
    "null": NullSink,
    "stats": StatsSink,
}


def make_sink(kind: str, params: dict[str, str]):
    try:
        cls = _SINK_TYPES[kind]
    except KeyError:
        raise ValueError(f"unknown sink kind {kind!r}") from None
    return cls(params)
