"""Pluggable analysis sinks: checkpoint writer/reader, pseudocolor
renderer, statistics CSV, and a null sink.

`SINKS` maps each analysis kind to its sink: a dataclass whose fields are
the XML attributes it takes (one without a default is required), and whose
`PARSE` converts an attribute's text, raising ValueError on a bad value.

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
round-trip float64 bit-exactly. Every array is point data. The reader
accepts this layout only: it raises CheckpointFormatError on any other.
Each field crosses a file with one copy: a write holds one encoded copy
of it, and a read decodes it once into the read-only array it returns.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nekmini.data_model import POINT, Block, FieldArray, Snapshot, validate_snapshot

_VTK_HEADER = "# vtk DataFile Version 3.0"
_TITLE = re.compile(r"nekmini step=(\d+) producer=(\d+) time=(\S+) extents="
                    + " ".join([r"(-?\d+)"] * 6))


class CheckpointFormatError(ValueError):
    """A checkpoint file is malformed or truncated."""


# ---------------------------------------------------------------------------
# checkpoint writer / reader
# ---------------------------------------------------------------------------

def checkpoint_filename(step: int, blk: int) -> str:
    return f"step{step:06d}_blk{blk:03d}.vtk"


def checkpoint_write(s: Snapshot, dir: str | Path, format: str = "binary") -> tuple[Path, int]:
    """Write the snapshot's block as one legacy-VTK file, named for its
    step and producer; returns (path, bytes written). Every part is encoded
    before the file is opened, so an encoding error leaves no file."""
    checkpoint_format(format)
    (block,) = s.blocks
    if not block.fields:
        raise ValueError("block has no fields to checkpoint")
    path = Path(dir) / checkpoint_filename(s.step, s.producer_id)
    parts = _encode_vtk(block, s.step, s.producer_id, s.time, format)
    with open(path, "wb") as f:
        f.writelines(parts)
        return path, f.tell()


def _vtk_head(block: Block, step: int, producer: int, time: float, format: str,
              nfields: int) -> list[str]:
    """The header lines of a checkpoint, which the reader also checks."""
    ni, nj, nk = block.dims
    ext = " ".join(str(e) for e in block.extents)
    return [
        _VTK_HEADER,
        f"nekmini step={step} producer={producer} time={time:.17g} extents={ext}",
        "BINARY" if format == "binary" else "ASCII",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {ni} {nj} {nk}",
        "ORIGIN " + " ".join(f"{x:.17g}" for x in block.origin),
        "SPACING " + " ".join(f"{x:.17g}" for x in block.spacing),
        f"POINT_DATA {block.point_count}",
        f"FIELD FieldData {nfields}",
    ]


def _encode_vtk(block: Block, step: int, producer: int, time: float, format: str) -> list:
    lines = _vtk_head(block, step, producer, time, format, len(block.fields))
    parts = [("\n".join(lines) + "\n").encode("ascii")]
    for f in block.fields:
        parts.append(f"{f.name} {f.components} {block.point_count} double\n".encode("ascii"))
        if format == "binary":
            parts.append(f.values.astype(">f8"))
        else:
            parts.append(_ascii_values(f.values.tolist()))
        parts.append(b"\n")
    return parts


def _ascii_values(vals: list[float]) -> bytes:
    """Values at 17 significant digits, 9 to a line, formatted by one %."""
    rows, rest = divmod(len(vals), 9)
    line = " ".join(["%.17g"] * 9) + "\n"
    last = " ".join(["%.17g"] * rest) + "\n" if rest else ""
    return ((line * rows + last) % tuple(vals)).encode("ascii")


def checkpoint_read(path: str | Path) -> Snapshot:
    """Inverse of checkpoint_write for one file: a one-block snapshot.
    Raises CheckpointFormatError on any file it could not have written."""
    try:
        s = _decode_vtk(Path(path).read_bytes())
    except CheckpointFormatError:
        raise
    except (ValueError, IndexError) as e:  # a bad number, a short line, a non-ascii byte
        raise CheckpointFormatError(f"malformed checkpoint: {e}") from e
    violations = validate_snapshot(s)
    if violations:
        raise CheckpointFormatError(f"invalid checkpoint: {violations}")
    return s


def _decode_vtk(raw: bytes) -> Snapshot:
    pos = 0

    def next_line() -> str:
        nonlocal pos
        nl = raw.find(b"\n", pos)
        if nl < 0:
            raise CheckpointFormatError("truncated header")
        line = raw[pos:nl].decode("ascii")
        pos = nl + 1
        return line

    head = [next_line() for _ in range(9)]
    title, mode = head[1], head[2]
    m = _TITLE.fullmatch(title)
    if m is None:
        raise CheckpointFormatError(f"not a nekmini title line: {title!r}")
    if mode not in ("BINARY", "ASCII"):
        raise CheckpointFormatError(f"unsupported data mode {mode!r}")
    step, producer, time_val = int(m[1]), int(m[2]), float(m[3])
    ox, oy, oz = map(float, head[5].split()[1:])
    dx, dy, dz = map(float, head[6].split()[1:])
    block = Block((ox, oy, oz), (dx, dy, dz), m.groups()[3:])
    nfields = int(head[8].split()[-1])
    for got, want in zip(head, _vtk_head(block, step, producer, time_val, mode.lower(), nfields)):
        if got != want:
            raise CheckpointFormatError(f"header line {got!r} should read {want!r}")

    npts = block.point_count
    fields: list[FieldArray] = []
    for _ in range(nfields):
        line = next_line()
        name, comps = line.split()[:2]
        if line != f"{name} {comps} {npts} double":
            raise CheckpointFormatError(f"field line {line!r} should read "
                                        f"'{name} {comps} {npts} double'")
        n = int(comps) * npts
        if mode == "BINARY":
            end = pos + 8 * n
            if end > len(raw):
                raise CheckpointFormatError(f"truncated payload for field {name!r}")
            values = np.frombuffer(raw, ">f8", n, pos).astype(np.float64)
            pos = end
        else:
            vals: list[float] = []
            while len(vals) < n:
                if pos >= len(raw):
                    raise CheckpointFormatError(f"truncated payload for field {name!r}")
                vals.extend(float(x) for x in next_line().split())
            values = np.array(vals)
        values.setflags(write=False)  # so FieldArray adopts it without a copy
        fields.append(FieldArray(name, POINT, int(comps), values))
        if raw[pos:pos + 1] == b"\n":
            pos += 1
    if pos != len(raw):
        raise CheckpointFormatError(f"{len(raw) - pos} bytes after the last field")

    block = Block(block.origin, block.spacing, block.extents, tuple(fields))
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
    width: int,
    height: int,
    vmin: float | None = None,
    vmax: float | None = None,
) -> np.ndarray:
    """Pseudocolor image of one field, bilinear-sampled in index space: a
    (height, width, 3) uint8 RGB array.

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
    return DEFAULT_COLORMAP.apply(sampled)


def write_ppm(rgb: np.ndarray, path: str | Path) -> int:
    """Binary PPM (P6) of a (height, width, 3) uint8 array; returns the bytes written."""
    if rgb.dtype != np.uint8 or rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"not a (height, width, 3) uint8 image: {rgb.dtype} {rgb.shape}")
    height, width, _ = rgb.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        f.write(rgb)
        return f.tell()


# ---------------------------------------------------------------------------
# sink classes used by the bridge
# ---------------------------------------------------------------------------

def positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise ValueError("must be an integer >= 1")
    return n


def checkpoint_format(text: str) -> str:
    if text not in ("ascii", "binary"):
        raise ValueError("must be 'ascii' or 'binary'")
    return text


@dataclass
class CheckpointSink:
    PARSE = {"dir": Path, "format": checkpoint_format}
    dir: Path = Path("checkpoint_out")
    format: str = "binary"

    def __post_init__(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        _probe_writable(self.dir)

    def consume(self, s: Snapshot) -> int:
        return checkpoint_write(s, self.dir, self.format)[1]


@dataclass
class RenderSink:
    """Renders per trigger; with no explicit field, renders two images
    (temperature and velocity magnitude) per snapshot. The field name is
    checked against each snapshot, so an unknown one fails every trigger."""

    PARSE = {"dir": Path, "width": positive_int, "height": positive_int,
             "vmin": float, "vmax": float}
    dir: Path = Path("render_out")
    width: int = 256
    height: int = 256
    field: str | None = None
    vmin: float | None = None
    vmax: float | None = None

    def __post_init__(self):
        self.fields = [self.field] if self.field else ["temperature", "velocity:mag"]
        self.dir.mkdir(parents=True, exist_ok=True)
        _probe_writable(self.dir)

    def consume(self, s: Snapshot) -> int:
        total = 0
        for name in self.fields:
            rgb = render(s, name, self.width, self.height, self.vmin, self.vmax)
            fname = f"step{s.step:06d}_{name.replace(':', '_')}.ppm"
            total += write_ppm(rgb, self.dir / fname)
        return total


@dataclass
class NullSink:
    """Consumes every snapshot and writes nothing (baseline and scaling runs)."""

    def consume(self, s: Snapshot) -> int:
        return 0


@dataclass
class StatsSink:
    """Appends step,time,field,min,max,mean rows (stats over all points
    and components of each field)."""

    HEADER = "step,time,field,min,max,mean"
    PARSE = {"path": Path}
    path: Path

    def __post_init__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if not self.path.exists():
            self.path.write_text(self.HEADER + "\n")
        _probe_writable(self.path.parent)

    def consume(self, s: Snapshot) -> int:
        rows = []
        for f in s.blocks[0].fields:
            v = f.values
            rows.append(
                f"{s.step},{s.time:.17g},{f.name},{v.min():.17g},{v.max():.17g},{v.mean():.17g}"
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


SINKS = {
    "checkpoint": CheckpointSink,
    "render": RenderSink,
    "null": NullSink,
    "stats": StatsSink,
}
