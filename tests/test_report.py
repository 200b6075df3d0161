import math
import re
from xml.dom import minidom

import numpy as np
import pytest

from drsplit.pddr import SolveTrace, TraceRow
from drsplit.report import (
    _MARGIN,
    _PANEL_H,
    SCAN_HEADER,
    TRACE_HEADER,
    _fmt,
    _Panel,
    read_scan_csv,
    read_trace_csv,
    write_plot,
    write_scan_csv,
    write_trace_csv,
)
from drsplit.spectral import RadiusScan, ScanRow, SpectralRecord, SpectralReport


def awkward_trace():
    rows = [
        TraceRow(0, math.pi, 1.0 / 3.0, 0.1 + 0.2, 1e-300),
        TraceRow(1, 1e17 + 1, 5e-324, 1e4, 0.0),
        TraceRow(2, -2.5, 1.7976931348623157e308, 1e-12, float("inf")),
    ]
    return SolveTrace(rows)


class TestTraceCsv:
    def test_bitwise_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        trace = awkward_trace()
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert len(back.rows) == len(trace.rows)
        for a, b in zip(trace.rows, back.rows):
            assert a.k == b.k
            for name in ("objective", "t", "s", "residual"):
                va, vb = getattr(a, name), getattr(b, name)
                assert va == vb or (math.isnan(va) and math.isnan(vb))

    def test_file_layout(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(awkward_trace(), path)
        text = path.read_text(encoding="ascii")
        lines = text.split("\n")
        assert lines[0] == TRACE_HEADER
        assert text.endswith("\n")
        assert len(lines) == 5  # header + 3 rows + trailing empty piece
        assert lines[1].count(",") == 4

    def test_bytes_match_row_format(self, tmp_path):
        # The writer formats from the array; the bytes are those of the
        # row-by-row format, signed zero and subnormals included.
        rows = awkward_trace().rows + [TraceRow(3, -0.0, 2.0 ** -1074, 1.0, -0.0)]
        path = tmp_path / "trace.csv"
        write_trace_csv(SolveTrace(rows), path)
        want = TRACE_HEADER + "\n" + "".join(
            f"{r.k},{r.objective:.16e},{r.t:.16e},{r.s:.16e},{r.residual:.16e}\n"
            for r in rows)
        assert path.read_text(encoding="ascii") == want

    @pytest.mark.parametrize("k", [2 ** 53 + 1, -(2 ** 53) - 1, 10 ** 30])
    def test_inexact_step_index_rejected(self, tmp_path, k):
        path = tmp_path / "big.csv"
        path.write_text(f"{TRACE_HEADER}\n{k},1.0,1.0,1.0,0.5\n")
        with pytest.raises(ValueError, match="not exact in float64"):
            read_trace_csv(path)

    def test_largest_exact_step_index_round_trips(self, tmp_path):
        path = tmp_path / "edge.csv"
        write_trace_csv(SolveTrace([TraceRow(2 ** 53, 1.0, 1.0, 1.0, 0.5)]), path)
        assert read_trace_csv(path).rows[0].k == 2 ** 53

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_trace_csv(SolveTrace([]), path)
        assert path.read_text(encoding="ascii") == TRACE_HEADER + "\n"
        assert read_trace_csv(path).rows == []

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("iteration,obj\n0,1.0\n")
        with pytest.raises(ValueError, match="header"):
            read_trace_csv(path)


class TestScanCsv:
    def test_round_trip_recovers_best(self, tmp_path):
        rows = [ScanRow(1.0, 1.0, 0.9), ScanRow(1.0, 2.0, 0.5),
                ScanRow(2.0, 1.0, 0.5)]
        scan = RadiusScan(rows=rows, best=rows[1])
        path = tmp_path / "scan.csv"
        write_scan_csv(scan, path)
        back = read_scan_csv(path)
        assert back.rows == rows
        # Ties on rho break toward the smaller (t, s).
        assert back.best == rows[1]
        assert path.read_text(encoding="ascii").split("\n")[0] == SCAN_HEADER

    def test_bytes_match_row_format(self, tmp_path):
        # The bytes are those of the per-row f-string form, signed zero,
        # subnormals and non-finite radii included.
        rows = [ScanRow(1.0 / 3.0, 1e-300, math.pi),
                ScanRow(5e-324, 1.7976931348623157e308, -0.0),
                ScanRow(0.1 + 0.2, 2.0 ** -1074, float("inf")),
                ScanRow(1e4, 1e-12, float("nan"))]
        path = tmp_path / "scan.csv"
        write_scan_csv(RadiusScan(rows=rows, best=rows[0]), path)
        want = SCAN_HEADER + "\n" + "".join(
            f"{r.t:.16e},{r.s:.16e},{r.rho:.16e}\n" for r in rows)
        assert path.read_bytes() == want.encode("ascii")

    def test_empty_scan_rejected_on_read(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text(SCAN_HEADER + "\n")
        with pytest.raises(ValueError, match="no rows"):
            read_scan_csv(path)


def spectrum_report():
    vals = np.array([0.5 + 0.3j, 0.5 - 0.3j, 0.9 + 0.0j])
    records = [SpectralRecord(complex(v), 0.1, 0.4, True, False)
               for v in vals]
    return SpectralReport(eigenvalues=vals, records=records,
                          spectral_radius=0.9)


class TestSvg:
    def test_deterministic_bytes(self, tmp_path):
        trace = awkward_trace()
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        write_plot(trace, p1)
        write_plot(trace, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_document_shape(self, tmp_path):
        path = tmp_path / "t.svg"
        write_plot(awkward_trace(), path)
        text = path.read_text(encoding="ascii")
        assert text.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
        assert text.endswith("</svg>\n")
        assert "<polyline" in text
        assert "nan" not in text.lower()

    def test_single_trace_plots_both_stepsizes(self, tmp_path):
        path = tmp_path / "t.svg"
        write_plot(awkward_trace(), path)
        text = path.read_text(encoding="ascii")
        assert ">t</text>" in text
        assert ">s</text>" in text

    def test_multi_trace_labels(self, tmp_path):
        traces = [awkward_trace(), awkward_trace()]
        path = tmp_path / "m.svg"
        write_plot(traces, path, labels=["alpha", "beta"])
        text = path.read_text(encoding="ascii")
        assert ">alpha</text>" in text
        assert ">beta</text>" in text

    def test_label_count_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            write_plot([awkward_trace()], tmp_path / "x.svg",
                       labels=["a", "b"])

    def test_single_trace_label_count_mismatch(self, tmp_path):
        # A single trace is a one-element list: two labels do not fit it.
        with pytest.raises(ValueError, match="1 traces but 2 labels"):
            write_plot(awkward_trace(), tmp_path / "x.svg", labels=["a", "b"])

    def test_labels_escaped(self, tmp_path):
        path = tmp_path / "esc.svg"
        write_plot([awkward_trace()], path, labels=["t<s & more"])
        doc = minidom.parse(str(path))
        texts = [node.firstChild.data for node in doc.getElementsByTagName("text")
                 if node.firstChild is not None]
        assert "t<s & more" in texts

    def test_spectral_report_takes_no_labels(self, tmp_path):
        with pytest.raises(ValueError, match="spectral report"):
            write_plot(spectrum_report(), tmp_path / "x.svg", labels=["a", "b", "c"])

    def test_polyline_matches_per_point_format(self):
        # The vertices are mapped as arrays and formatted by one template;
        # they must read as each point mapped and formatted on its own.
        # The first and last points sit at the ends of the data range, and
        # the panel is shifted so the topmost vertex maps to a tiny negative
        # pixel, which formats as "-0.00".
        xs = np.array([0.0, 0.25, 1.0 / 3.0, 2.0, 3.0])
        ys = np.array([-1.0, 2.0, 0.1 + 0.2, -0.5, 1.5])
        left, width = _MARGIN["left"], 640 - _MARGIN["left"] - _MARGIN["right"]
        height = _PANEL_H - _MARGIN["top"] - _MARGIN["bottom"]
        xlo, xhi = xs.min() - 0.05 * (xs.max() - xs.min()), xs.max() + 0.05 * (xs.max() - xs.min())
        ylo, yhi = ys.min() - 0.05 * (ys.max() - ys.min()), ys.max() + 0.05 * (ys.max() - ys.min())
        top_gap = (yhi - ys.max()) / (yhi - ylo) * height
        y0 = -_MARGIN["top"] - top_gap - 0.003
        top = y0 + _MARGIN["top"]
        panel = _Panel(y0, "title", "x", "y")
        panel.add_line(xs, ys, "#000000")
        got = re.search(r'<polyline points="([^"]*)"', panel.render()).group(1)
        want = " ".join(
            f"{_fmt(left + (x - xlo) / (xhi - xlo) * width)},"
            f"{_fmt(top + (yhi - y) / (yhi - ylo) * height)}"
            for x, y in zip(xs, ys))
        assert got == want
        assert ",-0.00 " in got

    def test_unlabeled_traces_have_no_legend(self, tmp_path):
        path = tmp_path / "u.svg"
        write_plot([awkward_trace(), awkward_trace()], path)
        text = path.read_text(encoding="ascii")
        assert text.count("<polyline") == 4
        assert "run-" not in text
        # Legend entries are the right-aligned size-12 texts.
        assert not re.search(r'font-size="12" fill="#[0-9a-f]{6}" text-anchor="end"', text)

    def test_empty_trace_list_renders_axes(self, tmp_path):
        path = tmp_path / "e.svg"
        write_plot([], path)
        text = path.read_text(encoding="ascii")
        assert "<rect" in text
        assert "<polyline" not in text

    def test_spectrum_has_circle_and_points(self, tmp_path):
        path = tmp_path / "s.svg"
        write_plot(spectrum_report(), path)
        text = path.read_text(encoding="ascii")
        assert "<ellipse" in text
        assert text.count("<circle") == 3

    def test_unknown_source_type(self, tmp_path):
        with pytest.raises(TypeError):
            write_plot(42, tmp_path / "x.svg")

    def test_nonpositive_objective_stays_linear(self, tmp_path):
        # A trace crossing zero cannot use the log objective axis; the
        # file must still render every point.
        rows = [TraceRow(0, -1.0, 1.0, 1.0, 0.5),
                TraceRow(1, 1.0, 1.0, 1.0, 0.25)]
        path = tmp_path / "lin.svg"
        write_plot(SolveTrace(rows), path)
        text = path.read_text(encoding="ascii")
        assert "<polyline" in text
        # Bottom tick of the padded linear axis [-1, 1].
        assert "-1.1</text>" in text
