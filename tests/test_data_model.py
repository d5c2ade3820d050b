import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nekmini.data_model import (
    POINT,
    Block,
    FieldArray,
    SchemaMismatch,
    Snapshot,
    assemble_global,
    validate_snapshot,
)


def make_block(ni=2, nj=2, nk=1, origin_i=0, spacing=(1.0, 1.0, 1.0), names=("s",),
               components=(1,), seed=0):
    rng = np.random.default_rng(seed)
    n = ni * nj * nk
    fields = tuple(
        FieldArray(name, POINT, c, rng.standard_normal(n * c))
        for name, c in zip(names, components)
    )
    return Block(
        origin=(origin_i * spacing[0], 0.0, 0.0),
        spacing=spacing,
        extents=(origin_i, origin_i + ni - 1, 0, nj - 1, 0, nk - 1),
        fields=fields,
    )


def test_valid_snapshot_passes():
    s = Snapshot(0.0, 0, 0, (make_block(2, 2, 1),))
    assert validate_snapshot(s) == []


def test_field_length_mismatch_reported():
    b = make_block(2, 2, 1)
    bad = Block(b.origin, b.spacing, b.extents,
                (FieldArray("s", POINT, 1, np.zeros(3)),))
    violations = validate_snapshot(Snapshot(0.0, 0, 0, (bad,)))
    assert any("field length mismatch" in v for v in violations)


def test_non_positive_spacing_reported():
    b = make_block(2, 2, 1, spacing=(1.0, 0.0, 1.0))
    violations = validate_snapshot(Snapshot(0.0, 0, 0, (b,)))
    assert any("non-positive spacing" in v for v in violations)


def test_empty_snapshot_invalid():
    assert validate_snapshot(Snapshot(0.0, 0, 0, ())) != []


def test_two_block_snapshot_reported():
    # blocks combine only in assemble_global; a snapshot holds one block
    s = Snapshot(0.0, 0, 0, (make_block(2, 2, 1), make_block(2, 2, 1, origin_i=2, seed=1)))
    assert validate_snapshot(s) == ["snapshot holds 2 blocks, expected 1"]


def test_duplicate_field_name_reported():
    b = make_block(2, 2, 1, names=("s", "s"), components=(1, 1))
    violations = validate_snapshot(Snapshot(0.0, 0, 0, (b,)))
    assert any("duplicate field name" in v for v in violations)


def test_counts():
    b = make_block(3, 4, 1)
    assert b.dims == (3, 4, 1)
    assert b.point_count == 12


@pytest.mark.parametrize("association", ["cell", "", "Point"])
def test_only_point_data_is_valid(association):
    b = make_block(2, 2, 1)
    bad = Block(b.origin, b.spacing, b.extents, (FieldArray("s", association, 1, np.zeros(4)),))
    assert validate_snapshot(Snapshot(0.0, 0, 0, (bad,))) == [
        f"field 's': association {association!r} is not point"]


def test_assemble_single_block_identity():
    b = make_block(4, 8, 1)
    assert assemble_global([b]) is b


def test_assemble_two_blocks_index_arithmetic():
    # oracle: brute-force loop over every global point
    b0 = make_block(4, 8, 1, origin_i=0, seed=1)
    b1 = make_block(4, 8, 1, origin_i=4, seed=2)
    g = assemble_global([b0, b1])
    assert g.extents == (0, 7, 0, 7, 0, 0)
    gv = g.field_named("s").values.reshape(8, 8)
    v0 = b0.field_named("s").values.reshape(8, 4)
    v1 = b1.field_named("s").values.reshape(8, 4)
    for j in range(8):
        for i in range(8):
            expected = v0[j, i] if i < 4 else v1[j, i - 4]
            assert gv[j, i] == expected
    # the spec'd spot check: global (i=5, j=3) is block 2's (i=1, j=3)
    assert gv[3, 5] == v1[3, 1]


def test_assemble_spacing_mismatch_rejected():
    b0 = make_block(4, 8, 1)
    b1 = make_block(4, 8, 1, origin_i=4, spacing=(0.5, 1.0, 1.0))
    with pytest.raises(SchemaMismatch):
        assemble_global([b0, b1])


@pytest.mark.parametrize("origin_i, shown", [(5, "(5, 8, 0, 7, 0, 0)"), (3, "(3, 6, 0, 7, 0, 0)")],
                         ids=["gap", "overlap"])
def test_assemble_rejects_blocks_that_do_not_tile(origin_i, shown):
    b0 = make_block(4, 8, 1)
    b1 = make_block(4, 8, 1, origin_i=origin_i, seed=1)
    with pytest.raises(SchemaMismatch, match="do not tile") as err:
        assemble_global([b0, b1])
    assert "(0, 3, 0, 7, 0, 0)" in str(err.value) and shown in str(err.value)


def test_assemble_rejects_blocks_out_of_order():
    b0 = make_block(4, 8, 1)
    b1 = make_block(4, 8, 1, origin_i=4, seed=1)
    with pytest.raises(SchemaMismatch, match="do not tile"):
        assemble_global([b1, b0])


def test_assemble_schema_mismatch_rejected():
    b0 = make_block(4, 8, 1, names=("a",))
    b1 = make_block(4, 8, 1, origin_i=4, names=("b",))
    with pytest.raises(SchemaMismatch):
        assemble_global([b0, b1])


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(1, 5),
    ni=st.integers(1, 6),
    nj=st.integers(1, 6),
    comps=st.integers(1, 3),
    seed=st.integers(0, 1000),
)
def test_assemble_preserves_point_count_and_validity(k, ni, nj, comps, seed):
    blocks = [
        make_block(ni, nj, 1, origin_i=i * ni, names=("f",), components=(comps,),
                   seed=seed + i)
        for i in range(k)
    ]
    g = assemble_global(blocks)
    assert g.point_count == sum(b.point_count for b in blocks)
    assert validate_snapshot(Snapshot(0.0, 0, 0, (g,))) == []


def test_field_values_are_immutable():
    f = FieldArray("s", POINT, 1, np.zeros(4))
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_field_copies_a_writeable_source():
    src = np.arange(4.0)
    f = FieldArray("s", POINT, 1, src)
    src[0] = 99.0
    assert f.values[0] == 0.0
    assert not np.shares_memory(f.values, src)


def test_field_adopts_a_read_only_flat_float64_array():
    src = np.arange(4.0)
    src.setflags(write=False)
    assert FieldArray("s", POINT, 1, src).values is src


@pytest.mark.parametrize("src", [
    np.arange(8.0).reshape(2, 4),  # not 1-D
    np.arange(8.0)[::2],  # not contiguous
    np.arange(4, dtype=np.float32),  # not float64
    np.arange(4.0).astype(">f8"),  # not native byte order
    np.frombuffer(b"\0" + np.arange(4.0).tobytes(), np.float64, offset=1),  # not aligned
], ids=["2-D", "strided", "float32", "big-endian", "unaligned"])
def test_field_copies_any_other_read_only_array(src):
    src.setflags(write=False)
    f = FieldArray("s", POINT, 1, src)
    assert not np.shares_memory(f.values, src)
    assert f.values.dtype == np.float64 and f.values.ndim == 1
    assert not f.values.flags.writeable
    assert np.array_equal(f.values, src.ravel())


def test_assembled_fields_are_frozen_concatenations():
    a, b = make_block(2, 3), make_block(2, 3, origin_i=2, seed=1)
    g = assemble_global([a, b])
    v = g.fields[0].values
    assert not v.flags.writeable
    assert not np.shares_memory(v, a.fields[0].values)
    # the field holds the concatenation itself, not a copy of it
    assert v.base is not None and v.base.shape == (1, 3, 4, 1)
