"""Deterministic file emission for reconstruction runs.

Every CSV file is a table of whole columns, which format_csv turns into
its encoded bytes with one % operation: floats at 15 significant digits in
scientific notation (fmt), as are JSON floats, so identical inputs produce
byte-identical CSV/JSON output; files are UTF-8 with LF line endings.
write_bands_csv keeps the bands.csv bytes of a band structure written a
second time, so a repeated reference symbol (symbols.band_functions returns
the same read-only BandStructure) is formatted at most twice while memoized.
SVG plots are written directly (polylines for bands, circles for points),
each coordinate array mapped to pixels once and each series formatted with
one % operation.  Matrix and vector files are read by matrices.read_entries.
"""

from __future__ import annotations

import itertools
import json
import weakref
from pathlib import Path

import numpy as np

from .reconstruct import Points, ScenarioResult
from .symbols import BandStructure


FLOAT_FORMAT = "%.14e"  # 15 significant digits, scientific notation


def fmt(x) -> str:
    """x with 15 significant digits, in scientific notation."""
    return FLOAT_FORMAT % float(x)


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
    """payload as JSON; a NaN or infinite float (no RFC 8259 token) raises ValueError before the file opens."""
    text = json.dumps(_round15(payload), indent=1, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _rows(row: str, columns, sep: str = "") -> str:
    """row once per entry of the columns, filled row by row with one % operation and joined by sep."""
    return sep.join([row] * len(columns[0])) % tuple(itertools.chain.from_iterable(zip(*columns)))


def format_csv(columns: dict) -> bytes:
    """A header of the column names, then one comma-joined row per entry, encoded as UTF-8.

    Float columns take fmt's 15-digit rule, the others (row numbers, flags, empty cells) str.
    """
    cols = [np.asarray(c) for c in columns.values()]
    row = ",".join(FLOAT_FORMAT if c.dtype.kind == "f" else "%s" for c in cols) + "\n"
    return (",".join(columns) + "\n" + _rows(row, [c.tolist() for c in cols])).encode("utf-8")


def write_csv(columns: dict, path) -> None:
    """format_csv(columns), written to path."""
    Path(path).write_bytes(format_csv(columns))


def format_bands_csv(bs: BandStructure) -> bytes:
    """Columns alpha, band_index, lambda, dlambda; one row per grid point per band."""
    return format_csv({"alpha": np.tile(bs.alphas, bs.k), "band_index": np.repeat(np.arange(1, bs.k + 1), bs.m),
                       "lambda": bs.values.ravel(), "dlambda": bs.derivatives.ravel()})


_bands_csv: weakref.WeakKeyDictionary[BandStructure, bytes | None] = weakref.WeakKeyDictionary()  # see write_bands_csv


def write_bands_csv(bs: BandStructure, path) -> None:
    """format_bands_csv(bs), written to path; its bytes are kept from the second write of bs on.

    The first write of a band structure formats it and keeps a marker, the
    second formats it again and keeps the bytes, and later writes copy them.
    Bytes kept on a first write would be allocated above a fresh chain's
    eigensolve buffers and raise the process's peak memory; a band structure
    written twice is a repeated reference symbol, which symbols.band_functions
    returns as the same object.  The key is that object, held weakly: it
    compares by identity and its arrays are read-only, so kept bytes cannot go
    stale, and the marker or bytes live exactly as long as the band structure.
    """
    data = _bands_csv.get(bs)
    if data is None:
        data = format_bands_csv(bs)
        _bands_csv[bs] = data if bs in _bands_csv else None
    Path(path).write_bytes(data)


def write_points_csv(points: Points, path) -> None:
    """One row per eigenpair; index is the row number, band_error is empty until compared."""
    n = len(points)
    write_csv({"index": np.arange(n), "alpha_est": points.alpha_est, "lambda": points.lam,
               "sup_ratio": points.sup_ratio, "ipr": points.ipr,
               "localized": np.where(points.localized, "true", "false"),
               "band_error": [""] * n if points.band_error is None else points.band_error}, path)


def write_transform_csv(alphas, masses, path) -> None:
    """Per-bin (alpha_j, projection mass) pairs, in ascending alpha order."""
    order = np.argsort(alphas, kind="stable")
    write_csv({"alpha": alphas[order], "mass": masses[order]}, path)


# ---------------------------------------------------------------------------
# svg

_SVG_W, _SVG_H, _SVG_PAD = 720, 480, 56
_CIRCLE = {True: 'r="4" fill="none" stroke="#d62728" stroke-width="1.5"',  # localized
           False: 'r="2.5" fill="none" stroke="#2ca02c" stroke-width="1"'}


def _pixels(v, lo, hi, start, length) -> list:
    """start + length * f, f running from 0 to 1 as v runs from lo to hi (0.5 if a constant band gives lo == hi)."""
    f = (v - lo) / (hi - lo) if hi > lo else np.full(np.shape(v), 0.5)
    return (start + f * length).tolist()


def write_bands_svg(bs: BandStructure, path, points: Points | None = None, title="band structure") -> None:
    """Band curves as polylines; optional reconstructed points as circles.

    When points are given the plot covers [0, pi] (recovered values are
    folded there); otherwise the full grid range is shown.  Localized
    points are drawn in a distinct series.  Each x and y array is mapped to
    pixels once.
    """
    if points is None:
        xs, curves, lam = bs.alphas, bs.values, np.empty(0)
    else:
        xs = np.linspace(0.0, np.pi, 257)
        curves, lam = bs.values_at(xs), points.lam
    y_all = np.concatenate([curves.ravel(), lam])
    spread = float(y_all.max() - y_all.min())  # 0 for flat bands, which _pixels draws at mid-height
    to_x = (float(xs.min()), float(xs.max()), _SVG_PAD, _SVG_W - 2 * _SVG_PAD)
    to_y = (float(y_all.min()) - 0.05 * spread, float(y_all.max()) + 0.05 * spread,
            _SVG_H - _SVG_PAD, -(_SVG_H - 2 * _SVG_PAD))  # pixel rows grow downwards
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
    curve_x = _pixels(xs, *to_x)
    for curve_y in _pixels(curves, *to_y):
        pts = _rows("%.2f,%.2f", [curve_x, curve_y], " ")
        lines.append(f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>')
    if points is not None and len(points):
        lines.append(_rows('<circle cx="%.2f" cy="%.2f" %s/>', [
            _pixels(points.alpha_est, *to_x), _pixels(lam, *to_y),
            [_CIRCLE[loc] for loc in points.localized.tolist()]], "\n"))
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# (format, file name, whether it needs the reference bands, writer) of each file
# write_bundle writes, in order; external_matrix has no bands without a symbol.
BUNDLE = (
    ("csv", "points.csv", False, lambda r, path: write_points_csv(r.points, path)),
    ("csv", "bands.csv", True, lambda r, path: write_bands_csv(r.bands, path)),
    ("json", "gaps.json", True, lambda r, path: write_json(r.gap_report, path)),
    ("json", "summary.json", False, lambda r, path: write_json(r.summary(), path)),
    ("svg", "reconstruction.svg", True, lambda r, path: write_bands_svg(
        r.bands, path, points=r.points, title=f"{r.scenario}: reconstructed bands")),
)
BUNDLE_FORMATS = tuple(dict.fromkeys(f for f, *_ in BUNDLE))  # csv, json, svg


def checked_formats(formats, allowed, who: str):
    """formats when each is one of allowed, else ValueError "unknown output formats: [...]; <who> writes <allowed>"."""
    unknown = sorted(set(formats) - set(allowed))
    if unknown:
        raise ValueError(f"unknown output formats: {unknown}; {who} writes {', '.join(allowed)}")
    return formats


def write_bundle(result: ScenarioResult, outdir, formats=("csv", "json")) -> list[Path]:
    """Write the BUNDLE files of the given formats; those that need reference bands only when the run has them.

    A format outside BUNDLE_FORMATS is refused (checked_formats) before outdir is made.
    """
    checked_formats(formats, BUNDLE_FORMATS, "write_bundle")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for fmt_name, name, needs_bands, write in BUNDLE:
        if fmt_name in formats and (result.bands is not None or not needs_bands):
            write(result, outdir / name)
            written.append(outdir / name)
    return written
