"""Minimal static SVG line charts of a study's values.

Each chart function takes the values a study computed (its sweep rows,
its offsets tables or its spectrum), draws them with :func:`line_chart`
and writes the SVG into an output directory.  Deliberately
dependency-free: the plots are verification aids, not publication
graphics.  Output is deterministic (no timestamps), so identical values
yield byte-identical SVG.
"""

from __future__ import annotations

import math
from pathlib import Path

__all__ = ["line_chart", "sweep_charts", "offsets_chart", "spectrum_chart"]

# Curve colors follow the established convention of this problem area:
# constant blue, linear green, ideal red; pure tone black.
COLORS = {
    "ideal": "#d62728",
    "linear": "#2ca02c",
    "constant": "#1f77b4",
    "pure_tone": "#000000",
    "impaired": "#d62728",
}
_FALLBACK_COLORS = ("#9467bd", "#8c564b", "#e377c2", "#7f7f7f")

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 36, 48


def _color(label: str, i: int) -> str:
    return COLORS.get(label, _FALLBACK_COLORS[i % len(_FALLBACK_COLORS)])


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]

def _log_ticks(lo: float, hi: float) -> list[float]:
    first = math.ceil(math.log10(lo) - 1e-9)
    last = math.floor(math.log10(hi) + 1e-9)
    ticks = [10.0**e for e in range(first, last + 1)]
    return ticks or [lo, hi]


def line_chart(
    series: list[tuple[str, list[float], list[float]]],
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    logx: bool = False,
) -> str:
    """Render (label, xs, ys) series as an SVG line chart string."""
    if not series or all(len(xs) == 0 for _, xs, ys in series):
        raise ValueError("nothing to plot")
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys if math.isfinite(y)]
    if not ys_all:
        raise ValueError("no finite y values to plot")
    if logx and min(xs_all) <= 0:
        raise ValueError("log x axis needs positive x values")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x: float) -> float:
        if logx:
            t = (math.log10(x) - math.log10(x_lo)) / (math.log10(x_hi) - math.log10(x_lo))
        else:
            t = (x - x_lo) / (x_hi - x_lo)
        return _ML + t * (_W - _ML - _MR)

    def sy(y: float) -> float:
        t = (y - y_lo) / (y_hi - y_lo)
        return _H - _MB - t * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="11">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="18" text-anchor="middle" font-size="13">{title}</text>',
    ]
    # Axes box
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    x_ticks = _log_ticks(x_lo, x_hi) if logx else _ticks(x_lo, x_hi)
    for t in x_ticks:
        px = sx(t)
        parts.append(
            f'<line x1="{px:.1f}" y1="{_H - _MB}" x2="{px:.1f}" y2="{_H - _MB + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{_H - _MB + 16}" text-anchor="middle">{t:.3g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        py = sy(t)
        parts.append(f'<line x1="{_ML - 4}" y1="{py:.1f}" x2="{_ML}" y2="{py:.1f}" stroke="black"/>')
        parts.append(
            f'<text x="{_ML - 7}" y="{py + 3:.1f}" text-anchor="end">{t:.4g}</text>'
        )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 10}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{(_MT + _H - _MB) / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2:.1f})">{ylabel}</text>'
    )
    for i, (label, xs, ys) in enumerate(series):
        color = _color(label, i)
        points = " ".join(
            f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys) if math.isfinite(y)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        ly = _MT + 14 + 14 * i
        parts.append(
            f'<line x1="{_W - _MR - 110}" y1="{ly - 4:.1f}" x2="{_W - _MR - 90}" '
            f'y2="{ly - 4:.1f}" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(f'<text x="{_W - _MR - 86}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write(path: Path, svg: str) -> Path:
    path.write_text(svg)
    return path


def sweep_charts(rows, stem: str, out_dir: Path) -> list[Path]:
    """Chart mean L against the sweep variable of sweep ``rows``, a curve
    per kind, one chart per offset, into ``out_dir/{stem}_offset_{offset}.svg``."""
    kinds = list(dict.fromkeys(r.kind for r in rows))
    written = []
    for off in sorted({r.offset_hz for r in rows}):
        series = []
        for kind in kinds:
            pts = sorted((r.x_value, r.mean_l_dbc) for r in rows if r.kind == kind and r.offset_hz == off)
            series.append((kind, [x for x, _ in pts], [y for _, y in pts]))
        svg = line_chart(
            series,
            title=f"{stem} at {off:.4g} Hz offset",
            xlabel="sweep variable",
            ylabel="L (dBc/Hz)",
            logx=True,
        )
        written.append(_write(out_dir / f"{stem}_offset_{off:.10g}.svg", svg))
    return written


def offsets_chart(table, stem: str, out_dir: Path) -> Path:
    """Chart an offsets table's per-line differences against the line
    index, linear and constant, into ``out_dir/{stem}.svg``."""
    idx = table.line_index.tolist()
    series = [("linear", idx, table.diff_linear.tolist()), ("constant", idx, table.diff_constant.tolist())]
    svg = line_chart(
        series,
        title=f"{stem}: sample-offset difference vs ideal",
        xlabel="comb line index",
        ylabel="difference (samples)",
    )
    return _write(out_dir / f"{stem}.svg", svg)


def spectrum_chart(spectrum, stem: str, out_dir: Path) -> Path:
    """Chart a spectrum's L against its offsets into ``out_dir/{stem}.svg``."""
    svg = line_chart(
        [("L", spectrum.offsets.tolist(), spectrum.l_dbc.tolist())],
        title=stem,
        xlabel="offset from carrier (Hz)",
        ylabel="L (dBc/Hz)",
        logx=True,
    )
    return _write(out_dir / f"{stem}.svg", svg)
