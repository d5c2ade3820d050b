"""Tests for checkpoint I/O, rendering, and the sink classes."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nekmini.bridge import AnalysisSpec, Bridge, BridgeConfig
from nekmini.data_model import CELL, POINT, Block, FieldArray, Snapshot
from nekmini.sinks import (
    DEFAULT_COLORMAP,
    CheckpointFormatError,
    CheckpointSink,
    ColorMap,
    ImageRGB,
    NullSink,
    RenderSink,
    StatsSink,
    checkpoint_filename,
    checkpoint_read,
    checkpoint_write,
    make_sink,
    render,
    scalar_field,
    write_ppm,
)


def random_snapshot(rng, ni=5, nj=4, step=7, producer=2):
    npts = ni * nj
    fields = (
        FieldArray("temperature", POINT, 1, rng.standard_normal(npts)),
        FieldArray("velocity", POINT, 2, rng.standard_normal(2 * npts)),
        FieldArray("pressure", CELL, 1, rng.standard_normal((ni - 1) * (nj - 1))),
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
    ).encode("ascii")
    for assoc, keyword in ((POINT, "POINT_DATA"), (CELL, "CELL_DATA")):
        group = [f for f in block.fields if f.association == assoc]
        if not group:
            continue
        count = block.entity_count(assoc)
        out += f"{keyword} {count}\nFIELD FieldData {len(group)}\n".encode("ascii")
        for f in group:
            out += f"{f.name} {f.components} {count} double\n".encode("ascii")
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
        # 5x4 gives 20, 40 and 12 values, none a multiple of 9 per line;
        # 16x16 gives 256, 512 and 225; the awkward values mix +-0.0 and
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
        npts, ncell = 30, 20
        payload = 8 * (npts + 2 * npts + ncell)
        text = len(raw) - payload
        assert total == len(raw)
        assert raw[:2] == b"# "
        # text portion: everything that is not f8 payload
        assert text == len(raw) - payload > 0

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

    def test_write_rejects_empty_block(self, tmp_path):
        blk = Block((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0, 1, 0, 1, 0, 0), ())
        s = Snapshot(time=0.0, step=0, producer_id=0, blocks=(blk,))
        with pytest.raises(ValueError, match="no fields"):
            checkpoint_write(s, tmp_path)

    def test_write_rejects_unknown_format(self, tmp_path):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="ascii"):
            checkpoint_write(random_snapshot(rng), tmp_path, "xml")

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
        img = render(s, "temperature", width=w, height=h)
        data = scalar_field(s.blocks[0], "temperature")
        lo, hi = data.min(), data.max()
        t = (data - lo) / (hi - lo)
        nj, ni = t.shape
        got = np.frombuffer(img.pixels, dtype=np.uint8).reshape(h, w, 3)
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
        img = render(s, "temperature", width=4, height=4)
        px = np.frombuffer(img.pixels, dtype=np.uint8).reshape(4, 4, 3)
        assert px[0, 0].tolist() == [180, 4, 38]
        assert px[-1, 0].tolist() == [59, 76, 192]

    def test_render_degenerate_range_is_flat(self):
        f = FieldArray("temperature", POINT, 1, np.full(16, 3.0))
        blk = Block((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0, 3, 0, 3, 0, 0), (f,))
        s = Snapshot(time=0.0, step=0, producer_id=0, blocks=(blk,))
        img = render(s, "temperature", width=2, height=2)
        assert img.pixels == bytes([59, 76, 192]) * 4

    def test_render_is_deterministic(self):
        rng = np.random.default_rng(4)
        s = random_snapshot(rng)
        a = render(s, "temperature", width=32, height=32)
        b = render(s, "temperature", width=32, height=32)
        assert a.pixels == b.pixels

    def test_image_buffer_length_checked(self):
        with pytest.raises(ValueError):
            ImageRGB(2, 2, b"\x00" * 11)

    def test_ppm_byte_count_oracle(self, tmp_path):
        # P6 header "P6\n256 256\n255\n" is 15 bytes; 256*256*3 payload
        img = ImageRGB(256, 256, bytes(256 * 256 * 3))
        n = write_ppm(img, tmp_path / "a.ppm")
        assert n == 15 + 196608 == 196623
        assert (tmp_path / "a.ppm").stat().st_size == n
        one = ImageRGB(1, 1, b"\x01\x02\x03")
        assert write_ppm(one, tmp_path / "b.ppm") == 14
        assert (tmp_path / "b.ppm").read_bytes() == b"P6\n1 1\n255\n\x01\x02\x03"


# ---------------------------------------------------------------------------
# sink classes
# ---------------------------------------------------------------------------

class TestSinks:
    def test_checkpoint_sink_reports_exact_bytes(self, tmp_path):
        rng = np.random.default_rng(0)
        s = random_snapshot(rng)
        sink = CheckpointSink({"dir": str(tmp_path / "ck")})
        n = sink.consume(s)
        files = sorted((tmp_path / "ck").glob("*.vtk"))
        assert len(files) == 1
        assert n == files[0].stat().st_size

    def test_render_sink_default_two_images(self, tmp_path):
        rng = np.random.default_rng(0)
        s = random_snapshot(rng)
        sink = RenderSink({"dir": str(tmp_path / "im"), "width": "16", "height": "16"})
        n = sink.consume(s)
        files = sorted(p.name for p in (tmp_path / "im").glob("*.ppm"))
        assert files == ["step000007_temperature.ppm", "step000007_velocity_mag.ppm"]
        assert n == sum((tmp_path / "im" / f).stat().st_size for f in files)

    def test_render_sink_explicit_field_and_range(self, tmp_path):
        rng = np.random.default_rng(0)
        s = random_snapshot(rng)
        sink = RenderSink({
            "dir": str(tmp_path / "im"), "field": "temperature",
            "width": "8", "height": "8", "vmin": "0", "vmax": "1",
        })
        sink.consume(s)
        assert [p.name for p in (tmp_path / "im").glob("*.ppm")] == ["step000007_temperature.ppm"]

    def test_null_sink_counts_and_writes_nothing(self, tmp_path):
        # the bridge's summary counts the invocations; the sink only consumes
        rng = np.random.default_rng(0)
        br = Bridge(BridgeConfig((AnalysisSpec("null", 1),)))
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
        sink = StatsSink({"path": str(path)})
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
        # a field decoded off the wire is a view at any byte offset; its
        # mean must be the one numpy gives an aligned copy
        vals = np.random.default_rng(0).random(512 * 512)
        buf = bytearray(8 * vals.size + 1)
        buf[1:] = vals.tobytes()
        view = np.frombuffer(memoryview(buf).toreadonly(), np.float64, offset=1)
        assert not view.flags.aligned
        blk = Block((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0, 511, 0, 511, 0, 0),
                    (FieldArray("temperature", POINT, 1, view),))
        assert blk.fields[0].values is view  # adopted as it is
        sink = StatsSink({"path": str(tmp_path / "stats.csv")})
        sink.consume(Snapshot(time=0.0, step=0, producer_id=0, blocks=(blk,)))
        row = (tmp_path / "stats.csv").read_text().splitlines()[1]
        assert row == f"0,0,temperature,{vals.min():.17g},{vals.max():.17g},{vals.mean():.17g}"

    def test_stats_sink_appends_across_steps(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "stats.csv"
        sink = StatsSink({"path": str(path)})
        sink.consume(random_snapshot(rng, step=0))
        sink.consume(random_snapshot(rng, step=100))
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 3

    def test_make_sink_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown sink kind"):
            make_sink("movie", {})

    def test_checkpoint_sink_rejects_bad_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            CheckpointSink({"dir": str(tmp_path), "format": "hdf5"})


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
    img_bytes = RenderSink({"dir": str(tmp_path / "im")}).consume(s)
    assert img_bytes * 10 <= ckpt_bytes
