"""Trace serialization and self-contained SVG plots.

CSV columns carry 17 significant digits in scientific notation, enough for a
float64 to round-trip bitwise through ``float()``.  The SVG writers build
the markup directly from the data with fixed number formatting, so a given
input always produces byte-identical files and the output needs no external
assets.
"""

from typing import Sequence

import numpy as np

from .pddr import SolveTrace, TraceRow
from .spectral import RadiusScan, ScanRow, SpectralReport, best_row

__all__ = [
    "read_scan_csv",
    "read_trace_csv",
    "write_plot",
    "write_scan_csv",
    "write_trace_csv",
]

TRACE_HEADER = "k,objective,t,s,residual"
SCAN_HEADER = "t,s,rho"

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#e377c2", "#7f7f7f"]


def write_trace_csv(trace: SolveTrace, path) -> None:
    """Write a solve trace; header plus one newline-terminated row per step."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(TRACE_HEADER + "\n")
        for r in trace.rows:
            fh.write(f"{r.k},{r.objective:.16e},{r.t:.16e},{r.s:.16e},{r.residual:.16e}\n")


def read_trace_csv(path) -> SolveTrace:
    """Read a trace written by :func:`write_trace_csv` (bitwise round-trip)."""
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != TRACE_HEADER:
            raise ValueError(f"unexpected trace header: {header!r}")
        for line in fh:
            k, obj, t, s, res = line.strip().split(",")
            rows.append(TraceRow(int(k), float(obj), float(t), float(s), float(res)))
    return SolveTrace(rows)


def write_scan_csv(scan: RadiusScan, path) -> None:
    """Write a stepsize-grid scan table."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(SCAN_HEADER + "\n")
        for r in scan.rows:
            fh.write(f"{r.t:.16e},{r.s:.16e},{r.rho:.16e}\n")


def read_scan_csv(path) -> RadiusScan:
    """Read a scan table written by :func:`write_scan_csv`."""
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != SCAN_HEADER:
            raise ValueError(f"unexpected scan header: {header!r}")
        for line in fh:
            t, s, rho = (float(v) for v in line.strip().split(","))
            rows.append(ScanRow(t, s, rho))
    if not rows:
        raise ValueError("scan table has no rows")
    return RadiusScan(rows=rows, best=best_row(rows))


# -- minimal deterministic SVG rendering ------------------------------------

_W = 640
_PANEL_H = 400
_MARGIN = {"left": 70.0, "right": 20.0, "top": 34.0, "bottom": 46.0}


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:.4g}"


def _log_tick_label(exponent: float) -> str:
    # 10**exponent overflows past ~308; label such ticks by exponent.
    if -300.0 < exponent < 300.0:
        return _tick_label(10.0 ** exponent)
    return f"1e{exponent:.4g}"


class _Panel:
    """One framed plot area inside the SVG: linear x axis, linear or log y."""

    def __init__(self, y_offset: float, title: str, x_label: str, y_label: str,
                 y_log: bool = False):
        self.y0 = y_offset
        self.title = title
        self.x_label = x_label
        self.y_label = y_label
        self.y_log = y_log
        self.series: list[tuple[np.ndarray, np.ndarray, str, str, str]] = []

    def add_line(self, xs, ys, color: str, label: str = "") -> None:
        self.series.append((np.asarray(xs, float), np.asarray(ys, float),
                            color, label, "line"))

    def add_points(self, xs, ys, color: str, label: str = "") -> None:
        self.series.append((np.asarray(xs, float), np.asarray(ys, float),
                            color, label, "points"))

    def _transform(self, xs, ys):
        keep = np.isfinite(xs) & np.isfinite(ys)
        if self.y_log:
            keep &= ys > 0
        xs, ys = xs[keep], ys[keep]
        if self.y_log:
            ys = np.log10(ys)
        return xs, ys

    def _ranges(self):
        all_x, all_y = [], []
        for xs, ys, _, _, _ in self.series:
            tx, ty = self._transform(xs, ys)
            all_x.append(tx)
            all_y.append(ty)
        ax = np.concatenate(all_x) if all_x else np.array([])
        ay = np.concatenate(all_y) if all_y else np.array([])
        if ax.size == 0:
            return (0.0, 1.0), (0.0, 1.0)
        xlo, xhi = float(ax.min()), float(ax.max())
        ylo, yhi = float(ay.min()), float(ay.max())
        if xhi - xlo < 1e-12:
            xlo, xhi = xlo - 0.5, xhi + 0.5
        if yhi - ylo < 1e-12:
            ylo, yhi = ylo - 0.5, yhi + 0.5
        return (xlo, xhi), (ylo, yhi)

    def render(self, equal_aspect: bool = False,
               reference_circle: tuple[float, float, float] | None = None) -> str:
        left = _MARGIN["left"]
        top = self.y0 + _MARGIN["top"]
        width = _W - left - _MARGIN["right"]
        height = _PANEL_H - _MARGIN["top"] - _MARGIN["bottom"]
        (xlo, xhi), (ylo, yhi) = self._ranges()
        if reference_circle is not None:
            cx, cy, r = reference_circle
            xlo, xhi = min(xlo, cx - r), max(xhi, cx + r)
            ylo, yhi = min(ylo, cy - r), max(yhi, cy + r)
        pad_x = 0.05 * (xhi - xlo)
        pad_y = 0.05 * (yhi - ylo)
        xlo, xhi = xlo - pad_x, xhi + pad_x
        ylo, yhi = ylo - pad_y, yhi + pad_y
        if equal_aspect:
            # Stretch the narrower data range so one unit maps to the same
            # number of pixels on both axes.
            x_span, y_span = xhi - xlo, yhi - ylo
            if x_span / width > y_span / height:
                grow = 0.5 * (x_span * height / width - y_span)
                ylo, yhi = ylo - grow, yhi + grow
            else:
                grow = 0.5 * (y_span * width / height - x_span)
                xlo, xhi = xlo - grow, xhi + grow

        def px(v):
            return left + (v - xlo) / (xhi - xlo) * width

        def py(v):
            return top + (yhi - v) / (yhi - ylo) * height

        parts = [
            f'<rect x="{_fmt(left)}" y="{_fmt(top)}" width="{_fmt(width)}" '
            f'height="{_fmt(height)}" fill="none" stroke="#444444" stroke-width="1"/>',
            f'<text x="{_fmt(left)}" y="{_fmt(self.y0 + 22.0)}" font-size="15" '
            f'fill="#222222">{self.title}</text>',
            f'<text x="{_fmt(left + width / 2)}" y="{_fmt(top + height + 36.0)}" '
            f'font-size="12" fill="#222222" text-anchor="middle">{self.x_label}</text>',
            f'<text x="{_fmt(left - 52.0)}" y="{_fmt(top + height / 2)}" font-size="12" '
            f'fill="#222222" text-anchor="middle" '
            f'transform="rotate(-90 {_fmt(left - 52.0)} {_fmt(top + height / 2)})">'
            f'{self.y_label}</text>',
        ]
        for frac in (0.0, 0.5, 1.0):
            xv = xlo + frac * (xhi - xlo)
            yv = ylo + frac * (yhi - ylo)
            x_pix, y_pix = px(xv), py(yv)
            x_lbl = _tick_label(xv)
            y_lbl = _log_tick_label(yv) if self.y_log else _tick_label(yv)
            parts.append(
                f'<line x1="{_fmt(x_pix)}" y1="{_fmt(top + height)}" x2="{_fmt(x_pix)}" '
                f'y2="{_fmt(top + height + 5.0)}" stroke="#444444" stroke-width="1"/>')
            parts.append(
                f'<text x="{_fmt(x_pix)}" y="{_fmt(top + height + 18.0)}" font-size="11" '
                f'fill="#222222" text-anchor="middle">{x_lbl}</text>')
            parts.append(
                f'<line x1="{_fmt(left - 5.0)}" y1="{_fmt(y_pix)}" x2="{_fmt(left)}" '
                f'y2="{_fmt(y_pix)}" stroke="#444444" stroke-width="1"/>')
            parts.append(
                f'<text x="{_fmt(left - 8.0)}" y="{_fmt(y_pix + 4.0)}" font-size="11" '
                f'fill="#222222" text-anchor="end">{y_lbl}</text>')
        if reference_circle is not None:
            cx, cy, r = reference_circle
            rx = r / (xhi - xlo) * width
            ry = r / (yhi - ylo) * height
            parts.append(
                f'<ellipse cx="{_fmt(px(cx))}" cy="{_fmt(py(cy))}" rx="{_fmt(rx)}" '
                f'ry="{_fmt(ry)}" fill="none" stroke="#999999" stroke-width="1" '
                f'stroke-dasharray="4 3"/>')
        legend_y = self.y0 + 22.0
        for xs, ys, color, label, kind in self.series:
            tx, ty = self._transform(xs, ys)
            if tx.size:
                if kind == "line":
                    pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(tx, ty))
                    parts.append(
                        f'<polyline points="{pts}" fill="none" stroke="{color}" '
                        f'stroke-width="1.5"/>')
                else:
                    for x, y in zip(tx, ty):
                        parts.append(
                            f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="3" '
                            f'fill="{color}" fill-opacity="0.7"/>')
            if label:
                parts.append(
                    f'<text x="{_fmt(_W - _MARGIN["right"])}" y="{_fmt(legend_y)}" '
                    f'font-size="12" fill="{color}" text-anchor="end">{label}</text>')
                legend_y += 16.0
        return "\n".join(parts)


def _svg_document(panels: list[str], total_height: int) -> str:
    body = "\n".join(panels)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
        f'height="{total_height}" viewBox="0 0 {_W} {total_height}">\n'
        f'<rect x="0" y="0" width="{_W}" height="{total_height}" fill="#ffffff"/>\n'
        f"{body}\n</svg>\n"
    )


def _trace_figure(traces: Sequence[SolveTrace], labels: Sequence[str]) -> str:
    objective = _Panel(0.0, "objective", "iteration", "objective")
    values = np.concatenate([t.column("objective") for t in traces]) \
        if any(t.rows for t in traces) else np.array([])
    objective.y_log = bool(values.size) and bool(np.all(values > 0))
    steps = _Panel(_PANEL_H, "stepsizes", "iteration", "stepsize", y_log=True)
    for i, (trace, label) in enumerate(zip(traces, labels)):
        ks = trace.column("k")
        color = _PALETTE[i % len(_PALETTE)]
        objective.add_line(ks, trace.column("objective"), color, label)
        if len(traces) == 1:
            steps.add_line(ks, trace.column("t"), _PALETTE[0], "t")
            steps.add_line(ks, trace.column("s"), _PALETTE[1], "s")
        else:
            steps.add_line(ks, trace.column("t"), color, label)
    return _svg_document([objective.render(), steps.render()], 2 * _PANEL_H)


def _spectrum_figure(report: SpectralReport) -> str:
    panel = _Panel(0.0, "eigenvalues of the iteration matrix", "real part",
                   "imaginary part")
    vals = report.eigenvalues
    panel.add_points(np.real(vals), np.imag(vals), _PALETTE[0])
    return _svg_document(
        [panel.render(equal_aspect=True, reference_circle=(0.5, 0.0, 0.5))],
        _PANEL_H,
    )


def write_plot(source, path, labels: Sequence[str] | None = None) -> None:
    """Render a trace, a list of traces, or a spectral report to SVG.

    Traces get an objective panel (log scale whenever every value is
    positive) over a stepsize panel; a spectral report gets an eigenvalue
    scatter with the reference circle of radius 1/2 centered at 1/2.  A
    single trace plots as a one-element list.  ``labels``, when given, name
    the traces one for one; unlabeled traces get no legend entry.  Output
    bytes depend only on the input data.
    """
    traces = [source] if isinstance(source, SolveTrace) else source
    if isinstance(source, SpectralReport):
        doc = _spectrum_figure(source)
    elif isinstance(traces, (list, tuple)) and all(
            isinstance(t, SolveTrace) for t in traces):
        names = [""] * len(traces) if labels is None else list(labels)
        if len(names) != len(traces):
            raise ValueError(f"{len(traces)} traces but {len(names)} labels")
        doc = _trace_figure(traces, names)
    else:
        raise TypeError(f"cannot plot object of type {type(source).__name__}")
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(doc)
