"""Deterministic file emission for reconstruction runs.

All numeric fields are printed as 15-significant-digit scientific notation
so identical inputs produce byte-identical CSV/JSON output; files are UTF-8
with LF line endings.  SVG plots are written directly (polylines for bands,
circles for points) with no plotting dependency.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .reconstruct import Points, ScenarioResult
from .symbols import BandStructure


def fmt(x) -> str:
    """15 significant digits, scientific notation."""
    return format(float(x), ".14e")


def _round15(obj):
    """Round floats to 15 significant digits recursively, for JSON payloads."""
    if isinstance(obj, float):
        return float(fmt(obj))
    if isinstance(obj, dict):
        return {k: _round15(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round15(v) for v in obj]
    return obj


def write_json(payload: dict, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_round15(payload), fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_bands_csv(bs: BandStructure, path) -> None:
    """Columns alpha, band_index, lambda, dlambda; one row per grid point per band."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("alpha,band_index,lambda,dlambda\n")
        for p in range(bs.k):
            for j in range(bs.m):
                fh.write(f"{fmt(bs.alphas[j])},{p + 1},{fmt(bs.values[p, j])},{fmt(bs.derivatives[p, j])}\n")


def write_points_csv(points: Points, path) -> None:
    """One row per eigenpair; index is the row number, band_error is empty until compared."""
    errors = [""] * len(points) if points.band_error is None else map(fmt, points.band_error)
    rows = zip(map(fmt, points.alpha_est), map(fmt, points.lam), map(fmt, points.sup_ratio),
               map(fmt, points.ipr), np.where(points.localized, "true", "false"), errors)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("index,alpha_est,lambda,sup_ratio,ipr,localized,band_error\n")
        for i, row in enumerate(rows):
            fh.write(f"{i},{','.join(row)}\n")


def write_transform_csv(alphas, masses, path) -> None:
    """Per-bin (alpha_j, projection mass) pairs, in ascending alpha order."""
    order = np.argsort(np.asarray(alphas), kind="stable")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("alpha,mass\n")
        for i in order:
            fh.write(f"{fmt(alphas[i])},{fmt(masses[i])}\n")


def read_vector_csv(path) -> np.ndarray:
    """One entry per line (complex as `a+bj`); a single comma-separated row also works."""
    entries = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.lower().startswith(("re", "value", "entry")):
                continue
            entries.extend(complex(tok.strip()) for tok in line.split(",") if tok.strip())
    if not entries:
        raise ValueError(f"{path}: no vector entries found")
    return np.asarray(entries, dtype=complex)


# ---------------------------------------------------------------------------
# svg

_SVG_W, _SVG_H, _SVG_PAD = 720, 480, 56


def _svg_open(x_range, y_range, title):
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<rect x="{_SVG_PAD}" y="{_SVG_PAD}" width="{_SVG_W - 2 * _SVG_PAD}" '
        f'height="{_SVG_H - 2 * _SVG_PAD}" fill="none" stroke="black"/>',
        f'<text x="{_SVG_W // 2}" y="{_SVG_PAD - 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<text x="{_SVG_W // 2}" y="{_SVG_H - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">quasiperiodicity</text>',
    ]
    x0, x1 = x_range
    y0, y1 = y_range

    def to_px(x, y):
        fx = (x - x0) / (x1 - x0) if x1 > x0 else 0.5
        fy = (y - y0) / (y1 - y0) if y1 > y0 else 0.5
        return (_SVG_PAD + fx * (_SVG_W - 2 * _SVG_PAD),
                _SVG_H - _SVG_PAD - fy * (_SVG_H - 2 * _SVG_PAD))

    return lines, to_px


def write_bands_svg(bs: BandStructure, path, points: Points | None = None, title="band structure") -> None:
    """Band curves as polylines; optional reconstructed points as circles.

    When points are given the plot covers [0, pi] (recovered values are
    folded there); otherwise the full grid range is shown.  Localized
    points are drawn in a distinct series.
    """
    if points is None:
        xs = bs.alphas
        curves = [bs.values[p] for p in range(bs.k)]
        x_range = (float(xs.min()), float(xs.max()))
    else:
        xs = np.linspace(0.0, np.pi, 257)
        curves = bs.values_at(xs)
        x_range = (0.0, float(np.pi))
    y_all = np.concatenate([np.asarray(c) for c in curves])
    if points:
        y_all = np.concatenate([y_all, points.lam])
    spread = max(float(y_all.max() - y_all.min()), 1e-12)
    y_range = (float(y_all.min()) - 0.05 * spread, float(y_all.max()) + 0.05 * spread)

    lines, to_px = _svg_open(x_range, y_range, title)
    for curve in curves:
        pts = " ".join(f"{to_px(x, y)[0]:.2f},{to_px(x, y)[1]:.2f}" for x, y in zip(xs, curve))
        lines.append(f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>')
    if points:
        for alpha, lam, localized in zip(points.alpha_est, points.lam, points.localized):
            px, py = to_px(alpha, lam)
            if localized:
                lines.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="4" fill="none" '
                             f'stroke="#d62728" stroke-width="1.5"/>')
            else:
                lines.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="2.5" fill="none" '
                             f'stroke="#2ca02c" stroke-width="1"/>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_bundle(result: ScenarioResult, outdir, formats=("csv", "json")) -> list[Path]:
    """Write points.csv, bands.csv, gaps.json, summary.json, and the overlay SVG."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    if "csv" in formats:
        path = outdir / "points.csv"
        write_points_csv(result.points, path)
        written.append(path)
        if result.bands is not None:
            path = outdir / "bands.csv"
            write_bands_csv(result.bands, path)
            written.append(path)
    if "json" in formats:
        if result.gap_report is not None:
            path = outdir / "gaps.json"
            write_json(result.gap_report.as_dict(), path)
            written.append(path)
        path = outdir / "summary.json"
        write_json(result.summary(), path)
        written.append(path)
    if "svg" in formats and result.bands is not None:
        path = outdir / "reconstruction.svg"
        write_bands_svg(result.bands, path, points=result.points,
                        title=f"{result.scenario}: reconstructed bands")
        written.append(path)
    return written
