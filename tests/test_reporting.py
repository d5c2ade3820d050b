"""CSV schema and chart determinism tests."""

import math
import re
import xml.etree.ElementTree as ET
from dataclasses import fields
from pathlib import Path

import pytest

from nekmini import reporting
from nekmini.reporting import (
    MemoryRecord,
    TimingRecord,
    aggregate,
    bar_chart_svg,
    line_chart_svg,
    mean_std,
    read_memory,
    read_summary,
    read_timings,
    write_memory,
    write_summary,
    write_timings,
)
from nekmini.transport import EndpointSummary


def sample_timings():
    return [
        TimingRecord("run", 1, "solve", 0.010),
        TimingRecord("run", 1, "sink", 0.002),
        TimingRecord("run", 2, "solve", 0.014),
        TimingRecord("run", 2, "sink", 0.000),
        TimingRecord("run", 3, "solve", 0.012),
    ]


class TestCsvSchemas:
    def test_timings_header_and_round_trip(self, tmp_path):
        p = tmp_path / "timings.csv"
        write_timings(p, sample_timings())
        assert p.read_text().splitlines()[0] == "label,step,phase,seconds"
        back = read_timings(p)
        assert [(r.label, r.step, r.phase) for r in back] == \
            [(r.label, r.step, r.phase) for r in sample_timings()]
        for a, b in zip(back, sample_timings()):
            assert a.seconds == pytest.approx(b.seconds, abs=1e-9)

    def test_memory_header_and_round_trip(self, tmp_path):
        p = tmp_path / "memory.csv"
        recs = [MemoryRecord("run", "insitu", 12345678)]
        write_memory(p, recs)
        assert p.read_text().splitlines()[0] == "label,role,peak_rss_bytes"
        assert read_memory(p) == recs

    def test_summary_header_and_round_trip(self, tmp_path):
        p = tmp_path / "summary.csv"
        agg = {("run", "solve"): (0.012, 0.002, 0), ("run", "sink"): (0.001, 0.0014, 8192)}
        write_summary(p, agg)
        assert p.read_text().splitlines()[0] == "label,phase,mean_s,stddev_s,total_bytes"
        back = read_summary(p)
        assert back[("run", "sink")][2] == 8192
        assert back[("run", "solve")][0] == pytest.approx(0.012, abs=1e-9)

    def test_readers_reject_wrong_header(self, tmp_path):
        p = tmp_path / "timings.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_timings(p)
        with pytest.raises(ValueError, match="header"):
            read_memory(p)
        with pytest.raises(ValueError, match="header"):
            read_summary(p)


class TestAggregation:
    def test_mean_std_hand_computed(self):
        m, sd = mean_std([1.0, 2.0, 3.0, 4.0])
        assert m == 2.5
        assert sd == pytest.approx(math.sqrt(5.0 / 3.0))
        assert mean_std([7.0]) == (7.0, 0.0)

    def test_aggregate_groups_by_label_and_phase(self):
        agg = aggregate(sample_timings(), {("run", "sink"): 4096})
        assert set(agg) == {("run", "solve"), ("run", "sink")}
        assert agg[("run", "solve")][0] == pytest.approx(0.012)
        assert agg[("run", "sink")][0] == pytest.approx(0.001)
        assert agg[("run", "sink")][2] == 4096
        assert agg[("run", "solve")][2] == 0

    def test_aggregate_leaves_out_the_step_0_rendezvous(self):
        # a producer's step 0 waits for the slowest peer to launch; its
        # per-step mean covers steps >= 1, a step -1 total stays as it is
        recs = [TimingRecord("p", 0, "transport", 0.120)] + [
            TimingRecord("p", k, "transport", s) for k, s in ((5, 0.004), (10, 0.008), (15, 0.006))
        ] + [TimingRecord("p", -1, "ack_drain", 0.003)]
        agg = aggregate(recs, {("p", "transport"): 777})
        assert agg[("p", "transport")] == (pytest.approx(0.006), pytest.approx(0.002), 777)
        assert agg[("p", "ack_drain")] == (0.003, 0.0, 0)

    def test_a_phase_timed_only_at_step_0_keeps_its_row_and_bytes(self):
        # steps 3, frequency 5: the producer ships only its initial condition
        recs = [TimingRecord("p", k, "solve", 0.01) for k in (1, 2, 3)] + [
            TimingRecord("p", 0, "snapshot_copy", 0.002), TimingRecord("p", 0, "transport", 0.12)]
        agg = aggregate(recs, {("p", "transport"): 999})
        assert agg[("p", "transport")] == (0.12, 0.0, 999)
        assert agg[("p", "snapshot_copy")] == (0.002, 0.0, 0)
        assert agg[("p", "solve")][0] == pytest.approx(0.01)

    def test_aggregate_empty_raises_no_data(self):
        with pytest.raises(ValueError, match="no data"):
            aggregate([])


class TestCharts:
    def test_bar_chart_is_deterministic(self):
        agg = aggregate(sample_timings())
        a = bar_chart_svg(agg, "t")
        b = bar_chart_svg(agg, "t")
        assert a == b
        assert a.startswith("<svg")
        assert a.rstrip().endswith("</svg>")

    def test_line_chart_is_deterministic(self):
        pts = [(1, 0.1), (2, 0.11), (4, 0.15)]
        a = line_chart_svg(pts, "scaling", "producers", "s/step")
        assert a == line_chart_svg(pts, "scaling", "producers", "s/step")
        assert "polyline" in a

    def test_chart_text_is_escaped(self):
        # a label, phase, title or axis name holding &, < or > still gives a
        # well-formed chart whose text reads back as given
        svg = "{http://www.w3.org/2000/svg}"
        bar = ET.fromstring(bar_chart_svg({("a&b<1>", "so>l&ve"): (1e-3, 0.0, 0)}, "t<&>"))
        texts = [t.text for t in bar.iter(f"{svg}text")]
        assert texts[:2] == ["t<&>", "a&b<1>/so>l&ve"]
        line = ET.fromstring(line_chart_svg([(1, 0.5)], "<p&q>", "x&", "y<"))
        texts = [t.text for t in line.iter(f"{svg}text")]
        assert texts[0] == "<p&q>" and texts[-2:] == ["x&", "y<"]

    def test_charts_reject_empty(self):
        with pytest.raises(ValueError, match="no data"):
            bar_chart_svg({}, "t")
        with pytest.raises(ValueError, match="no data"):
            line_chart_svg([], "t", "x", "y")


class TestReport:
    def test_report_merges_trees_and_is_reproducible(self, tmp_path):
        for sub, label in (("a", "runA"), ("b", "runB")):
            d = tmp_path / "in" / sub
            d.mkdir(parents=True)
            write_timings(d / "timings.csv", [
                TimingRecord(label, 1, "solve", 0.01),
                TimingRecord(label, 2, "solve", 0.03),
            ])
            write_summary(d / "summary.csv", {(label, "solve"): (0.02, 0.0, 100)})
        out = tmp_path / "out"
        summary_path, chart_path = reporting.report(tmp_path / "in", out)
        agg = read_summary(summary_path)
        assert agg[("runA", "solve")][0] == pytest.approx(0.02)
        assert agg[("runB", "solve")][2] == 100
        first = chart_path.read_bytes()
        reporting.report(tmp_path / "in", out)
        assert chart_path.read_bytes() == first  # byte-identical rerun

    def test_report_ignores_its_own_previous_output(self, tmp_path):
        d = tmp_path
        write_timings(d / "timings.csv", [TimingRecord("r", 1, "sink", 0.01)])
        write_summary(d / "summary.csv", {("r", "sink"): (0.01, 0.0, 500)})
        # in-place report: input summary doubles as the output path, and its
        # bytes must neither compound across reruns nor be lost
        reporting.report(d, d)
        reporting.report(d, d)
        assert read_summary(d / "summary.csv")[("r", "sink")][2] == 500

    def test_merged_output_over_role_dirs_is_not_folded_back_in(self, tmp_path):
        # a merged summary.csv with no timings.csv next to it is a previous
        # output: rerunning over the same tree neither compounds nor loses
        for sub, nbytes in (("endpoint", 700), ("producer_0", 40)):
            d = tmp_path / sub
            d.mkdir()
            write_timings(d / "timings.csv", [TimingRecord("b", -1, f"{sub}:x", 0.5)])
            write_summary(d / "summary.csv", {("b", f"{sub}:x"): (0.5, 0.0, nbytes)})
        for _ in range(2):
            reporting.report(tmp_path, tmp_path)
            agg = read_summary(tmp_path / "summary.csv")
            assert {key: v[2] for key, v in agg.items()} == {
                ("b", "endpoint:x"): 700, ("b", "producer_0:x"): 40}

    def test_chart_plots_per_step_rows_only(self, tmp_path):
        # a step -1 row carries a run total (here 5 renders summed); the
        # chart of per-step means leaves it out, summary.csv keeps it
        write_timings(tmp_path / "timings.csv", sample_timings() + [
            TimingRecord("run", -1, "sink:render", 0.05)])
        summary_path, chart_path = reporting.report(tmp_path, tmp_path / "out")
        assert read_summary(summary_path)[("run", "sink:render")][0] == pytest.approx(0.05)
        chart = chart_path.read_text()
        assert "run/sink:render" not in chart
        assert chart == bar_chart_svg(aggregate(sample_timings()), "mean seconds per step phase")

    def test_summary_and_chart_means_cover_steps_from_1(self, tmp_path):
        rows = sample_timings() + [TimingRecord("run", 0, "solve", 0.5),
                                   TimingRecord("run", 0, "sink", 0.5),
                                   TimingRecord("run", 0, "snapshot_copy", 0.25)]
        write_timings(tmp_path / "timings.csv", rows)
        summary_path, chart_path = reporting.report(tmp_path, tmp_path / "out")
        agg = read_summary(summary_path)
        assert agg[("run", "solve")][:2] == (pytest.approx(0.012), pytest.approx(0.002))
        assert agg[("run", "sink")][0] == pytest.approx(0.001)
        assert agg[("run", "snapshot_copy")][0] == pytest.approx(0.25)
        assert chart_path.read_text() == bar_chart_svg(
            aggregate(sample_timings() + [rows[-1]]), "mean seconds per step phase")

    def test_report_over_totals_only_writes_no_chart(self, tmp_path):
        write_timings(tmp_path / "timings.csv", [TimingRecord("b", -1, "sink:stats", 0.5)])
        summary_path, chart_path = reporting.report(tmp_path, tmp_path)
        assert chart_path is None and not (tmp_path / "chart.svg").exists()
        assert read_summary(summary_path)[("b", "sink:stats")][0] == 0.5

    def test_report_with_no_timings_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no data"):
            reporting.report(tmp_path, tmp_path)


def readme_output_table():
    """README's "Output files" table: file name -> its schema cell."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("\n## Output files\n")[1].split("\n## ")[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| ")]
    assert rows[0] == ["file", "schema"]
    return {name.strip("`"): schema for name, schema in rows[1:]}


def test_readme_output_table_matches_the_declared_layouts():
    table = readme_output_table()
    headers = {"timings.csv": reporting.TIMINGS_HEADER, "memory.csv": reporting.MEMORY_HEADER,
               "summary.csv": reporting.SUMMARY_HEADER, "scaling.csv": reporting.SCALING_HEADER}
    assert set(headers) | {"endpoint.addr", "endpoint_summary.txt"} == set(table)
    for name, header in headers.items():
        assert re.match(r"`([^`]*)`", table[name]).group(1).split(",") == header, name
    keys = re.findall(r"`(\w+)`", table["endpoint_summary.txt"])
    assert keys == [f.name for f in fields(EndpointSummary)]
