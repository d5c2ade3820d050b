"""Tests for checkpoint I/O, rendering, and the sink classes."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nekmini.bridge import AnalysisSpec, Bridge, ConfigError, parse_config
from nekmini.data_model import POINT, Block, FieldArray, Snapshot
from nekmini.sinks import (
    DEFAULT_COLORMAP,
    CheckpointFormatError,
    CheckpointSink,
    ColorMap,
    NullSink,
    RenderSink,
    StatsSink,
    checkpoint_filename,
    checkpoint_read,
    checkpoint_write,
    render,
    scalar_field,
    write_ppm,
)


def random_snapshot(rng, ni=5, nj=4, step=7, producer=2):
    npts = ni * nj
    fields = (
        FieldArray("temperature", POINT, 1, rng.standard_normal(npts)),
        FieldArray("velocity", POINT, 2, rng.standard_normal(2 * npts)),
        FieldArray("pressure", POINT, 1, rng.standard_normal(npts)),
    )
    blk = Block(origin=(0.0, 0.0, 0.0), spacing=(0.25, 0.25, 1.0),
                extents=(0, ni - 1, 0, nj - 1, 0, 0), fields=fields)
    return Snapshot(time=0.125 * step, step=step, producer_id=producer, blocks=(blk,))


def ascii_vtk_line_by_line(block, step, producer, time):
    """An ascii checkpoint built one 9-value line at a time: the reference
    for the writer, which formats each field with one %."""
    ni, nj, nk = block.dims
    out = (
        "# vtk DataFile Version 3.0\n"
        f"nekmini step={step} producer={producer} time={time:.17g} extents="
        + " ".join(str(e) for e in block.extents) + "\n"
        "ASCII\nDATASET STRUCTURED_POINTS\n"
        f"DIMENSIONS {ni} {nj} {nk}\n"
        "ORIGIN " + " ".join(f"{x:.17g}" for x in block.origin) + "\n"
        "SPACING " + " ".join(f"{x:.17g}" for x in block.spacing) + "\n"
        f"POINT_DATA {block.point_count}\nFIELD FieldData {len(block.fields)}\n"
    ).encode("ascii")
    for f in block.fields:
        out += f"{f.name} {f.components} {block.point_count} double\n".encode("ascii")
        vals = [f"{x:.17g}" for x in f.values]
        for i in range(0, len(vals), 9):
            out += " ".join(vals[i:i + 9]).encode("ascii") + b"\n"
        out += b"\n"
    return out


def awkward_values(rng, like):
    """`like` with about two fifths of its values set to +-0.0 and two
    fifths scaled to magnitudes near 1e+300 or 1e-300."""
    vals = np.array(like)
    pick = rng.integers(0, 5, vals.size)
    vals[pick == 0] = 0.0
    vals[pick == 1] = -0.0
    vals[pick == 2] *= 1e300
    vals[pick == 3] *= 1e-300
    return vals


def assert_snapshots_equal(a, b):
    assert a.step == b.step
    assert a.time == b.time
    assert len(a.blocks) == len(b.blocks)
    for ba, bb in zip(a.blocks, b.blocks):
        assert ba.origin == bb.origin
        assert ba.spacing == bb.spacing
        assert ba.extents == bb.extents
        assert len(ba.fields) == len(bb.fields)
        for fa in ba.fields:
            fb = bb.field_named(fa.name)
            assert fa.association == fb.association
            assert fa.components == fb.components
            # bit-exact, not just approximately equal
            assert np.array_equal(fa.values, fb.values)


# ---------------------------------------------------------------------------
# checkpoint round-trips
# ---------------------------------------------------------------------------

class TestCheckpointRoundTrip:
    def test_filename_layout(self):
        assert checkpoint_filename(12, 3) == "step000012_blk003.vtk"

    @pytest.mark.parametrize("format", ["binary", "ascii"])
    def test_round_trip_bit_exact(self, tmp_path, format):
        rng = np.random.default_rng(11)
        s = random_snapshot(rng)
        path, total = checkpoint_write(s, tmp_path, format)
        assert path == tmp_path / "step000007_blk002.vtk"
        assert total == path.stat().st_size
        assert_snapshots_equal(s, checkpoint_read(path))

    def test_many_randomized_binary_round_trips(self, tmp_path):
        # 100 randomized snapshots, every value recovered bit-for-bit
        rng = np.random.default_rng(42)
        for k in range(100):
            s = random_snapshot(rng, ni=int(rng.integers(2, 8)), nj=int(rng.integers(2, 8)), step=k)
            path, _ = checkpoint_write(s, tmp_path, "binary")
            assert_snapshots_equal(s, checkpoint_read(path))

    def test_ascii_preserves_awkward_floats(self, tmp_path):
        vals = np.array([0.1, 1.0 / 3.0, np.nextafter(1.0, 2.0), -2.5e-300, 7e300, 0.0])
        f = FieldArray("temperature", POINT, 1, vals)
        blk = Block((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0, 2, 0, 1, 0, 0), (f,))
        s = Snapshot(time=1.0 / 7.0, step=1, producer_id=0, blocks=(blk,))
        path, _ = checkpoint_write(s, tmp_path, "ascii")
        back = checkpoint_read(path)
        assert np.array_equal(back.blocks[0].fields[0].values, vals)
        assert back.time == 1.0 / 7.0

    @pytest.mark.parametrize("n, awkward", [
        pytest.param(n, awkward, id=f"{n}-awkward" if awkward else str(n))
        for awkward in (False, True) for n in (5, 16, 64)])
    def test_ascii_bytes_match_line_by_line_writer(self, tmp_path, n, awkward):
        # 5x4 gives 20, 40 and 20 values, none a multiple of 9 per line;
        # 16x16 gives 256, 512 and 256; the awkward values mix +-0.0 and
        # magnitudes near 1e+-300 into the normal ones
        rng = np.random.default_rng(n)
        s = random_snapshot(rng, ni=n, nj=4 if n == 5 else n)
        if awkward:
            s = replace(s, blocks=(replace(s.blocks[0], fields=tuple(
                replace(f, values=awkward_values(rng, f.values)) for f in s.blocks[0].fields)),))
        path, total = checkpoint_write(s, tmp_path, "ascii")
        expected = ascii_vtk_line_by_line(s.blocks[0], s.step, s.producer_id, s.time)
        assert path.read_bytes() == expected
        assert total == len(expected)

    def test_binary_file_size_oracle(self, tmp_path):
        # header is ascii text; payload is exactly 8 bytes per value plus a
        # separator newline per field
        rng = np.random.default_rng(3)
        s = random_snapshot(rng, ni=6, nj=5)
        path, total = checkpoint_write(s, tmp_path, "binary")
        raw = path.read_bytes()
        t, v, p = (f.values.astype(">f8").tobytes() for f in s.blocks[0].fields)
        assert len(t) + len(v) + len(p) == 8 * (30 + 2 * 30 + 30)
        assert raw == (b"# vtk DataFile Version 3.0\n"
                       b"nekmini step=7 producer=2 time=0.875 extents=0 5 0 4 0 0\n"
                       b"BINARY\nDATASET STRUCTURED_POINTS\nDIMENSIONS 6 5 1\n"
                       b"ORIGIN 0 0 0\nSPACING 0.25 0.25 1\nPOINT_DATA 30\nFIELD FieldData 3\n"
                       b"temperature 1 30 double\n" + t + b"\nvelocity 2 30 double\n" + v
                       + b"\npressure 1 30 double\n" + p + b"\n")
        assert total == len(raw)

    def test_read_rejects_truncated_payload(self, tmp_path):
        rng = np.random.default_rng(1)
        s = random_snapshot(rng)
        path, _ = checkpoint_write(s, tmp_path, "binary")
        raw = path.read_bytes()
        path.write_bytes(raw[:-20])
        with pytest.raises(CheckpointFormatError, match="truncated"):
            checkpoint_read(path)

    def test_read_rejects_garbage(self, tmp_path):
        p = tmp_path / "x.vtk"
        p.write_bytes(b"not a vtk file\n")
        with pytest.raises(CheckpointFormatError):
            checkpoint_read(p)

    def test_read_rejects_bad_mode(self, tmp_path):
        rng = np.random.default_rng(1)
        s = random_snapshot(rng)
        path, _ = checkpoint_write(s, tmp_path, "ascii")
        raw = path.read_bytes().replace(b"\nASCII\n", b"\nBASE64\n")
        path.write_bytes(raw)
        with pytest.raises(CheckpointFormatError, match="data mode"):
            checkpoint_read(path)

    @pytest.mark.parametrize("format, old, new, match", [
        ("binary", b"nekmini step=7", b"nekmini stpe=7", "not a nekmini title line"),
        ("binary", b"time=0.875", b"time=0.8x5", "malformed checkpoint"),
        ("binary", b"DIMENSIONS 5 4 1", b"DIMENSIONS 4 5 1",
         "'DIMENSIONS 4 5 1' should read 'DIMENSIONS 5 4 1'"),
        ("binary", b"ORIGIN 0 0 0", b"ORIGIN 0 0", "not enough values to unpack"),
        ("binary", b"temperature 1 20", b"temperature 1 19",
         "'temperature 1 19 double' should read 'temperature 1 20 double'"),
        ("binary", b"POINT_DATA", b"FOOBAR_XX", "'FOOBAR_XX 20' should read 'POINT_DATA 20'"),
        ("binary", b"POINT_DATA 20", b"CELL_DATA 12", "'CELL_DATA 12' should read 'POINT_DATA 20'"),
        ("binary", b"velocity 2", b"temperature 2", "duplicate field name"),
        ("binary", b"SPACING 0.25", b"SPACING -0.25", "non-positive spacing"),
        ("ascii", b"\n\nvelocity", b" 1\n\nvelocity", "field length mismatch"),
        ("ascii", b"FIELD FieldData 3", b"FIELD FieldData 2", "bytes after the last field"),
    ], ids=["garbled-title", "non-numeric-time", "dimensions-disagree", "short-origin",
            "short-tuple-count", "unknown-section", "cell-data", "duplicate-name",
            "negative-spacing", "extra-ascii-value", "unread-field"])
    def test_read_rejects_malformed_file(self, tmp_path, format, old, new, match):
        # every malformed file raises CheckpointFormatError, never another
        # error and never a snapshot that validate_snapshot rejects
        path, _ = checkpoint_write(random_snapshot(np.random.default_rng(1)), tmp_path, format)
        raw = path.read_bytes()
        assert raw.count(old) == 1
        path.write_bytes(raw.replace(old, new))
        with pytest.raises(CheckpointFormatError, match=match):
            checkpoint_read(path)

    def test_write_rejects_empty_block(self, tmp_path):
        blk = Block((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0, 1, 0, 1, 0, 0), ())
        s = Snapshot(time=0.0, step=0, producer_id=0, blocks=(blk,))
        with pytest.raises(ValueError, match="no fields"):
            checkpoint_write(s, tmp_path)

    def test_write_rejects_unknown_format(self, tmp_path):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="ascii"):
            checkpoint_write(random_snapshot(rng), tmp_path, "xml")

    @pytest.mark.parametrize("format", ["binary", "ascii"])
    def test_encoding_error_leaves_no_file(self, tmp_path, format):
        # the legacy-VTK header is ascii: a field name that is not fails
        # before the file is opened
        s = random_snapshot(np.random.default_rng(1))
        f = s.blocks[0].fields[-1]
        s = replace(s, blocks=(replace(s.blocks[0], fields=s.blocks[0].fields[:-1]
                                       + (replace(f, name="pressure\u00e9"),)),))
        with pytest.raises(UnicodeEncodeError):
            checkpoint_write(s, tmp_path, format)
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31), st.integers(2, 6), st.integers(2, 6),
           st.sampled_from(["ascii", "binary"]))
    def test_round_trip_property(self, tmp_path_factory, seed, ni, nj, format):
        rng = np.random.default_rng(seed)
        s = random_snapshot(rng, ni=ni, nj=nj)
        d = tmp_path_factory.mktemp("ckpt")
        path, _ = checkpoint_write(s, d, format)
        assert_snapshots_equal(s, checkpoint_read(path))


# ---------------------------------------------------------------------------
# colormap and rendering
# ---------------------------------------------------------------------------

class TestRender:
    def test_colormap_hits_anchors_exactly(self):
        rgb = DEFAULT_COLORMAP.apply(np.array([0.0, 0.5, 1.0]))
        assert rgb.tolist() == [[59, 76, 192], [255, 255, 255], [180, 4, 38]]

    def test_colormap_clips_out_of_range(self):
        rgb = DEFAULT_COLORMAP.apply(np.array([-3.0, 5.0]))
        assert rgb.tolist() == [[59, 76, 192], [180, 4, 38]]

    def test_colormap_rejects_bad_anchors(self):
        with pytest.raises(ValueError):
            ColorMap(((0.1, (0, 0, 0)), (1.0, (255, 255, 255))))
        with pytest.raises(ValueError):
            ColorMap(((0.0, (0, 0, 0)), (0.5, (1, 1, 1)), (0.5, (2, 2, 2)), (1.0, (3, 3, 3))))

    def test_scalar_field_magnitude(self):
        rng = np.random.default_rng(0)
        s = random_snapshot(rng, ni=3, nj=2)
        blk = s.blocks[0]
        mag = scalar_field(blk, "velocity:mag")
        v = blk.field_named("velocity").values.reshape(2, 3, 2)
        assert np.allclose(mag, np.hypot(v[..., 0], v[..., 1]))
        with pytest.raises(ValueError, match="components"):
            scalar_field(blk, "velocity")
        with pytest.raises(ValueError, match="derived"):
            scalar_field(blk, "temperature:grad")

    def test_render_matches_brute_force_bilinear(self):
        rng = np.random.default_rng(9)
        s = random_snapshot(rng, ni=7, nj=5)
        w, h = 11, 9
        got = render(s, "temperature", width=w, height=h)
        assert got.shape == (h, w, 3) and got.dtype == np.uint8
        data = scalar_field(s.blocks[0], "temperature")
        lo, hi = data.min(), data.max()
        t = (data - lo) / (hi - lo)
        nj, ni = t.shape
        for py in range(h):
            for px in range(w):
                xf = px * (ni - 1) / (w - 1)
                yf = (h - 1 - py) * (nj - 1) / (h - 1)
                x0, y0 = min(int(xf), ni - 2), min(int(yf), nj - 2)
                ax, ay = xf - x0, yf - y0
                val = (t[y0, x0] * (1 - ay) * (1 - ax)
                       + t[y0, x0 + 1] * (1 - ay) * ax
                       + t[y0 + 1, x0] * ay * (1 - ax)
                       + t[y0 + 1, x0 + 1] * ay * ax)
                expect = DEFAULT_COLORMAP.apply(np.array([val]))[0]
                assert got[py, px].tolist() == expect.tolist()

    def test_render_row_zero_is_top_of_domain(self):
        # temperature increasing with y: top pixel row must be hottest (red)
        ni, nj = 4, 4
        vals = np.repeat(np.arange(nj, dtype=float), ni)
        f = FieldArray("temperature", POINT, 1, vals)
        blk = Block((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0, ni - 1, 0, nj - 1, 0, 0), (f,))
        s = Snapshot(time=0.0, step=0, producer_id=0, blocks=(blk,))
        px = render(s, "temperature", width=4, height=4)
        assert px[0, 0].tolist() == [180, 4, 38]
        assert px[-1, 0].tolist() == [59, 76, 192]

    def test_render_degenerate_range_is_flat(self):
        f = FieldArray("temperature", POINT, 1, np.full(16, 3.0))
        blk = Block((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0, 3, 0, 3, 0, 0), (f,))
        s = Snapshot(time=0.0, step=0, producer_id=0, blocks=(blk,))
        img = render(s, "temperature", width=2, height=2)
        assert img.tolist() == [[[59, 76, 192]] * 2] * 2

    def test_render_is_deterministic(self):
        rng = np.random.default_rng(4)
        s = random_snapshot(rng)
        a = render(s, "temperature", width=32, height=32)
        b = render(s, "temperature", width=32, height=32)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_image_buffer_length_checked(self, tmp_path):
        # write_ppm takes only a (height, width, 3) uint8 array, and writes
        # no file for anything else
        for shape, dtype in [((2, 2), np.uint8), ((12,), np.uint8), ((2, 2, 4), np.uint8),
                             ((1, 2, 2, 3), np.uint8), ((2, 2, 3), np.float64),
                             ((2, 2, 3), np.int64)]:
            with pytest.raises(ValueError, match=r"\(height, width, 3\) uint8"):
                write_ppm(np.zeros(shape, dtype), tmp_path / "a.ppm")
        assert not (tmp_path / "a.ppm").exists()

    def test_ppm_byte_count_oracle(self, tmp_path):
        # P6 header "P6\n256 256\n255\n" is 15 bytes; 256*256*3 payload
        n = write_ppm(np.zeros((256, 256, 3), np.uint8), tmp_path / "a.ppm")
        assert n == 15 + 196608 == 196623
        assert (tmp_path / "a.ppm").stat().st_size == n
        one = np.array([[[1, 2, 3]]], np.uint8)
        assert write_ppm(one, tmp_path / "b.ppm") == 14
        assert (tmp_path / "b.ppm").read_bytes() == b"P6\n1 1\n255\n\x01\x02\x03"
        # the header gives width before height; rows go top row first
        wide = np.array([[[1, 2, 3], [4, 5, 6]]], np.uint8)
        assert write_ppm(wide, tmp_path / "c.ppm") == 17
        assert (tmp_path / "c.ppm").read_bytes() == b"P6\n2 1\n255\n\x01\x02\x03\x04\x05\x06"


# ---------------------------------------------------------------------------
# sink classes
# ---------------------------------------------------------------------------

class TestSinks:
    def test_checkpoint_sink_reports_exact_bytes(self, tmp_path):
        rng = np.random.default_rng(0)
        s = random_snapshot(rng)
        sink = CheckpointSink(dir=tmp_path / "ck")
        n = sink.consume(s)
        files = sorted((tmp_path / "ck").glob("*.vtk"))
        assert len(files) == 1
        assert n == files[0].stat().st_size

    def test_render_sink_default_two_images(self, tmp_path):
        rng = np.random.default_rng(0)
        s = random_snapshot(rng)
        sink = RenderSink(dir=tmp_path / "im", width=16, height=16)
        n = sink.consume(s)
        files = sorted(p.name for p in (tmp_path / "im").glob("*.ppm"))
        assert files == ["step000007_temperature.ppm", "step000007_velocity_mag.ppm"]
        assert n == sum((tmp_path / "im" / f).stat().st_size for f in files)

    def test_render_sink_explicit_field_and_range(self, tmp_path):
        rng = np.random.default_rng(0)
        s = random_snapshot(rng)
        sink = RenderSink(dir=tmp_path / "im", width=8, height=8, field="temperature",
                          vmin=0.0, vmax=1.0)
        sink.consume(s)
        assert [p.name for p in (tmp_path / "im").glob("*.ppm")] == ["step000007_temperature.ppm"]

    @pytest.mark.parametrize("size", [{"width": "0"}, {"height": "0"}, {"width": "-3"}])
    def test_render_sink_rejects_an_empty_image_at_construction(self, tmp_path, size):
        ((name, value),) = size.items()
        doc = f'<sensei><analysis type="render" dir="{tmp_path}/im" {name}="{value}"/></sensei>'
        with pytest.raises(ConfigError,
                           match=f"render attribute {name}='{value}': must be an integer >= 1"):
            parse_config(doc)
        assert not (tmp_path / "im").exists()

    def test_null_sink_counts_and_writes_nothing(self, tmp_path):
        # the bridge's summary counts the invocations; the sink only consumes
        rng = np.random.default_rng(0)
        br = Bridge((AnalysisSpec("null", 1),))
        assert isinstance(br.sinks[0], NullSink)
        for step in (7, 8):
            br.update(random_snapshot(rng, step=step))
        (summary,) = br.finalize()
        assert (summary.invocations, summary.bytes_written, summary.failures) == (2, 0, 0)
        assert list(tmp_path.iterdir()) == []

    def test_stats_sink_rows_match_numpy(self, tmp_path):
        rng = np.random.default_rng(0)
        s = random_snapshot(rng)
        path = tmp_path / "stats.csv"
        sink = StatsSink(path=path)
        sink.consume(s)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "step,time,field,min,max,mean"
        assert len(lines) == 4  # three fields, one row each
        for line in lines[1:]:
            step, time, name, lo, hi, mean = line.split(",")
            vals = s.blocks[0].field_named(name).values
            assert int(step) == s.step
            assert float(time) == s.time
            assert float(lo) == vals.min()
            assert float(hi) == vals.max()
            assert float(mean) == vals.mean()

    def test_stats_sink_rows_do_not_depend_on_alignment(self, tmp_path):
        # numpy sums an unaligned array in buffered chunks, which can round
        # its mean differently; a field never holds one: an unaligned
        # read-only view is copied once, when its FieldArray is built
        vals = np.random.default_rng(0).random(512 * 512)
        buf = bytearray(8 * vals.size + 1)
        buf[1:] = vals.tobytes()
        view = np.frombuffer(memoryview(buf).toreadonly(), np.float64, offset=1)
        assert not view.flags.aligned
        blk = Block((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0, 511, 0, 511, 0, 0),
                    (FieldArray("temperature", POINT, 1, view),))
        held = blk.fields[0].values
        assert held is not view and not np.shares_memory(held, view)
        assert held.flags.aligned and not held.flags.writeable
        sink = StatsSink(path=tmp_path / "stats.csv")
        sink.consume(Snapshot(time=0.0, step=0, producer_id=0, blocks=(blk,)))
        row = (tmp_path / "stats.csv").read_text().splitlines()[1]
        assert row == f"0,0,temperature,{vals.min():.17g},{vals.max():.17g},{vals.mean():.17g}"

    def test_stats_sink_appends_across_steps(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "stats.csv"
        sink = StatsSink(path=path)
        sink.consume(random_snapshot(rng, step=0))
        sink.consume(random_snapshot(rng, step=100))
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 3

    def test_checkpoint_sink_rejects_bad_format(self, tmp_path):
        doc = f'<sensei><analysis type="checkpoint" dir="{tmp_path}/ck" format="hdf5"/></sensei>'
        with pytest.raises(ConfigError, match="checkpoint attribute format='hdf5'"):
            parse_config(doc)
        assert not (tmp_path / "ck").exists()


# ---------------------------------------------------------------------------
# storage economy (informational): on a production-scale grid the rendered
# images are far smaller than checkpoints of the same snapshot
# ---------------------------------------------------------------------------

def test_render_is_an_order_of_magnitude_smaller_at_scale(tmp_path):
    ni, nj = 1024, 1024
    rng = np.random.default_rng(0)
    npts = ni * nj
    fields = (
        FieldArray("temperature", POINT, 1, rng.standard_normal(npts)),
        FieldArray("velocity", POINT, 2, rng.standard_normal(2 * npts)),
        FieldArray("pressure", POINT, 1, rng.standard_normal(npts)),
    )
    blk = Block((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0, ni - 1, 0, nj - 1, 0, 0), fields)
    s = Snapshot(time=0.0, step=0, producer_id=0, blocks=(blk,))
    _, ckpt_bytes = checkpoint_write(s, tmp_path)
    img_bytes = RenderSink(dir=tmp_path / "im").consume(s)
    assert img_bytes * 10 <= ckpt_bytes


# ---------------------------------------------------------------------------
# copies per file crossing: peak traced allocation of each write and read of
# a 256x256 snapshot against its 2,097,152-byte payload. A binary write holds
# one big-endian copy of each field, and a read the file's bytes plus the
# fields it returns; a PPM write allocates next to nothing beyond its image.
# An ascii write and read peak at 5.151x and 5.326x, mostly Python floats
# and text; their limits keep them from growing.
# ---------------------------------------------------------------------------

def peak_traced_bytes(fn) -> int:
    """Peak bytes traced while fn runs, above what was traced before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("format, write_limit, read_limit", [
    ("binary", 1.1, 2.1),
    ("ascii", 5.16, 5.83),
])
def test_each_file_crossing_makes_one_copy(tmp_path, format, write_limit, read_limit):
    s = random_snapshot(np.random.default_rng(0), ni=256, nj=256)
    payload = sum(f.values.nbytes for f in s.blocks[0].fields)
    assert payload == 2_097_152
    path = tmp_path / checkpoint_filename(s.step, s.producer_id)
    write = peak_traced_bytes(lambda: checkpoint_write(s, tmp_path, format))
    read = peak_traced_bytes(lambda: checkpoint_read(path))
    assert write <= write_limit * payload, f"write peak {write / payload:.3f}x the payload"
    assert read <= read_limit * payload, f"read peak {read / payload:.3f}x the payload"


def test_ppm_write_allocates_no_second_image(tmp_path):
    rgb = np.zeros((256, 256, 3), np.uint8)
    assert peak_traced_bytes(lambda: write_ppm(rgb, tmp_path / "a.ppm")) <= 16 * 1024
