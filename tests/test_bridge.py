import time
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from nekmini import bridge as bridge_mod
from nekmini.bridge import (
    AnalysisSpec,
    Bridge,
    ConfigError,
    parse_config,
)
from nekmini.sinks import SINKS
from nekmini.solver import SolverParams, init_state, snapshot_of, step

# the upstream sample document, verbatim
CATALYST_DOC = """<sensei>
  <analysis type="catalyst" pipeline="pythonscript" filename="analysis.py" frequency="100" />
</sensei>
"""


def make_snapshot(step_no=0):
    p = SolverParams(nx=8, ny=8, amplitude=1e-3)
    s = init_state(p)
    for _ in range(step_no):
        s = step(s, p)
    return snapshot_of(s, producer_id=0)


def test_catalyst_document_parses_verbatim():
    (spec,) = parse_config(CATALYST_DOC)
    assert spec.kind == "render"  # catalyst maps onto the render sink
    assert spec.frequency == 100


def test_empty_document_gives_no_specs():
    assert parse_config("<sensei></sensei>") == ()


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError, match="unknown analysis kind"):
        parse_config('<sensei><analysis type="frobnicate" frequency="1"/></sensei>')


def test_bad_frequency_rejected():
    with pytest.raises(ConfigError, match="frequency"):
        parse_config('<sensei><analysis type="null" frequency="0"/></sensei>')


def test_malformed_document_rejected():
    with pytest.raises(ConfigError, match="malformed"):
        parse_config("<sensei><analysis")


def test_stats_requires_path():
    with pytest.raises(ConfigError, match="path"):
        parse_config('<sensei><analysis type="stats" frequency="1"/></sensei>')


def test_unknown_attribute_is_warning_not_error(caplog):
    with caplog.at_level("WARNING"):
        (spec,) = parse_config('<sensei><analysis type="null" frequency="2" zap="1"/></sensei>')
    assert spec.kind == "null"
    assert any("zap" in rec.message for rec in caplog.records)


@pytest.mark.parametrize(
    "freqs,step_no,expected",
    [
        ((100,), 100, True),
        ((100,), 101, False),
        ((100,), 0, True),
        ((1,), 7, True),
        ((3, 5), 10, True),  # due for the second spec only
    ],
    ids=lambda v: "+".join(map(str, v)) if isinstance(v, tuple) else None,
)
def test_bridge_due(freqs, step_no, expected):
    br = Bridge(tuple(AnalysisSpec("null", f) for f in freqs))
    assert br.due(step_no) is expected


def test_due_is_the_union_of_the_specs_and_update_runs_each_on_its_own():
    br = Bridge((AnalysisSpec("null", 3), AnalysisSpec("null", 5)))
    assert [n for n in range(16) if br.due(n)] == [0, 3, 5, 6, 9, 10, 12, 15]
    assert not any(Bridge(()).due(n) for n in range(16))
    snap = make_snapshot()
    for n in range(16):
        if br.due(n):
            br.update(type(snap)(snap.time, n, 0, snap.blocks))
    assert [s.invocations for s in br.finalize()] == [6, 4]  # 0,3,..,15 and 0,5,10,15


def test_update_rejects_a_negative_step():
    snap = make_snapshot()
    with pytest.raises(ValueError, match="negative step"):
        Bridge((AnalysisSpec("null", 1),)).update(type(snap)(snap.time, -1, 0, snap.blocks))


def test_trigger_count_over_run():
    # steps 1..3000 at frequency 100: 30 exactly
    br = Bridge((AnalysisSpec("null", 100),))
    snap = make_snapshot()
    for s in range(1, 3001):
        br.update(type(snap)(snap.time, s, 0, snap.blocks))
    assert br.finalize()[0].invocations == 3000 // 100


def test_non_monotone_step_rejected():
    br = Bridge((AnalysisSpec("null", 1),))
    snap = make_snapshot()
    br.update(type(snap)(snap.time, 5, 0, snap.blocks))
    with pytest.raises(ValueError, match="non-increasing"):
        br.update(type(snap)(snap.time, 5, 0, snap.blocks))


def test_invalid_snapshot_rejected():
    br = Bridge((AnalysisSpec("null", 1),))
    snap = make_snapshot()
    bad = type(snap)(snap.time, 1, 0, ())
    with pytest.raises(ValueError, match="invalid snapshot"):
        br.update(bad)


def test_two_block_snapshot_rejected():
    br = Bridge((AnalysisSpec("null", 1),))
    snap = make_snapshot()
    two = type(snap)(snap.time, 1, 0, snap.blocks * 2)
    with pytest.raises(ValueError, match="2 blocks"):
        br.update(two)
    assert br.finalize()[0].invocations == 0


class _BoomSink:
    def __init__(self):
        self.calls = 0

    def consume(self, s):
        self.calls += 1
        raise IOError("disk on fire")


def test_sink_failure_isolated(tmp_path, caplog):
    cfg = parse_config(
        f'<sensei><analysis type="null" frequency="1"/>'
        f'<analysis type="stats" frequency="1" path="{tmp_path}/s.csv"/></sensei>'
    )
    br = Bridge(cfg)
    br.sinks[0] = _BoomSink()  # inject a failure into the first sink
    snap = make_snapshot()
    with caplog.at_level("WARNING", logger="nekmini.bridge"):
        br.update(snap)
    # the failure is logged with its kind, step and error text
    failures = [r for r in caplog.records if r.levelname == "WARNING"]
    assert [r.getMessage() for r in failures] == [
        "sink null failed at step 0: OSError: disk on fire"]
    # failure counted, later sink still ran
    summaries = br.finalize()
    assert (summaries[0].invocations, summaries[0].failures) == (1, 1)
    assert (summaries[1].invocations, summaries[1].failures) == (1, 0)
    assert summaries[1].bytes_written == (tmp_path / "s.csv").stat().st_size - len(
        "step,time,field,min,max,mean\n")


def test_finalize_totals_match_triggers_and_files(tmp_path):
    cfg = parse_config(
        f'<sensei><analysis type="checkpoint" frequency="3" dir="{tmp_path}/ck"/>'
        f'<analysis type="null" frequency="2"/></sensei>'
    )
    br = Bridge(cfg)
    p = SolverParams(nx=8, ny=8, amplitude=1e-3)
    s = init_state(p)
    t0 = time.perf_counter()
    for _ in range(20):
        s = step(s, p)
        br.update(snapshot_of(s, 0))
    elapsed = time.perf_counter() - t0
    ck, null = br.finalize()
    files = list((tmp_path / "ck").glob("*.vtk"))
    # steps 1..20: every 3rd for checkpoint, every 2nd for null
    assert (ck.kind, ck.invocations, ck.failures) == ("checkpoint", 6, 0)
    assert (null.kind, null.invocations, null.failures) == ("null", 10, 0)
    assert len(files) == 6
    assert ck.bytes_written == sum(f.stat().st_size for f in files)
    assert null.bytes_written == 0
    assert 0 < ck.seconds < elapsed and 0 < null.seconds < elapsed


def test_unwritable_output_fails_at_initialize(tmp_path):
    # a path whose parent is a regular file cannot be created, even by root
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    doc = f'<sensei><analysis type="checkpoint" frequency="1" dir="{blocker}/ck"/></sensei>'
    with pytest.raises(OSError):
        bridge_mod.initialize(parse_config(doc))


def test_empty_config_update_is_noop():
    br = Bridge(())
    br.update(make_snapshot())
    assert br.finalize() == []


def readme_attribute_table():
    """The rows of README's attribute table, each a list of its cells."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("\n## Analysis configuration\n")[1].split("\n## ")[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| ")]
    assert rows[0] == ["kind", "attribute", "check", "default", "required"]
    return rows[1:]


def test_readme_attribute_table_matches_the_sink_declarations():
    rows = readme_attribute_table()
    assert {kind for kind, *_ in rows} == set(SINKS)
    documented = {(kind, name.strip("`")) for kind, name, *_ in rows if name != "—"}
    declared = {kind: {f.name: f.default for f in fields(cls)} for kind, cls in SINKS.items()}
    assert documented == {(kind, name) for kind in declared for name in declared[kind]}
    for kind, name, _, default, required in rows:
        if name != "—":
            want = declared[kind][name.strip("`")]
            assert required == ("yes" if want is MISSING else "no"), (kind, name)
            if want not in (None, MISSING):
                assert default == f"`{want}`", (kind, name)
