"""Command-line interface: bands, reconstruct, transform, verify."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import matrices, outputs, reconstruct, symbols, transform
from .symbols import _number, _refuse_unread, _text

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_CHECK_FAILED = 2
FORMATS = {"bands": ("csv", "svg"), "reconstruct": ("csv", "json", "svg")}  # what each command writes


def _load_config(args, check=True):
    """The --config JSON object under the given flags; with check, a key that no flag names is refused."""
    flags = {key: value for key, value in vars(args).items() if key not in ("command", "fn", "config")}
    cfg = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
        _refuse_unread(cfg, flags if check else cfg, f"{args.config}: {args.command}")  # else the caller refuses
    return {**cfg, **{key: value for key, value in flags.items() if value is not None}}


def _parse_formats(raw, command: str) -> tuple[str, ...]:
    """The comma-separated formats of raw, refusing none at all and any that the command has no writer for."""
    formats = tuple(f.strip() for f in _text("format", raw).split(",") if f.strip())
    if not formats:
        raise ValueError(f"no output format given; {command} writes {', '.join(FORMATS[command])}")
    unknown = set(formats) - set(FORMATS[command])
    if unknown:
        raise ValueError(f"unknown output formats: {sorted(unknown)}; {command} writes "
                         f"{', '.join(FORMATS[command])}")
    return formats


def cmd_bands(args) -> int:
    cfg = _load_config(args)
    sym = symbols.symbol_from_source(_text("symbol", cfg.get("symbol", "monomer"), inline=True))
    grid = _number("grid", cfg.get("grid", 256), int)
    outdir = Path(_text("out", cfg.get("out", ".")))
    formats = _parse_formats(cfg.get("format", "csv"), "bands")
    bs = symbols.band_functions(sym, grid)
    outdir.mkdir(parents=True, exist_ok=True)
    if "csv" in formats:
        outputs.write_bands_csv(bs, outdir / "bands.csv")
        print(f"wrote {outdir / 'bands.csv'} ({bs.k} band(s), grid {grid})")
    if "svg" in formats:
        outputs.write_bands_svg(bs, outdir / "bands.svg")
        print(f"wrote {outdir / 'bands.svg'}")
    failures = symbols.check_assumptions(bs)["failures"]
    gaps = reconstruct.detect_gaps(bs, [], [])["gaps"]
    if gaps:
        pretty = ", ".join(f"({lo:.6g}, {hi:.6g})" for lo, hi in gaps)
        print(f"band gaps: {pretty}")
    else:
        print("band gaps: none")
    if failures:
        print(f"warning: assumption checks failed: {'; '.join(failures)}")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    cfg = _load_config(args, check=False)  # run_scenario refuses what its scenario leaves unread
    outdir = Path(_text("out", cfg.pop("out", ".")))
    formats = _parse_formats(cfg.pop("format", "csv,json"), "reconstruct")
    result = reconstruct.run_scenario(cfg)
    written = outputs.write_bundle(result, outdir, formats)
    for path in written:
        print(f"wrote {path}")
    if result.bands is None:  # external_matrix without a symbol: no gap search ran
        skipped = [name for f, name, needs_bands, _ in outputs.BUNDLE if needs_bands and f in formats]
        if skipped:
            print(f"not written without a reference symbol (--symbol): {', '.join(skipped)}")
    if result.stats is not None and not result.stats["bulk"]["count"]:
        print(f"warning: the edge margin {result.stats['edge_margin']:.6g} ({reconstruct.EDGE_EXCLUSION_BINS} "
              f"DFT bins from alpha = 0 and pi) leaves no bulk point; the points were not compared with the bands")
    summary = result.summary()
    gap_modes = f"{summary['n_gap_modes']} gap mode(s), " if "n_gap_modes" in summary else ""
    print(f"{result.scenario}: {summary['n_points']} points, {gap_modes}{summary['n_localized']} localized")
    return EXIT_OK


def cmd_transform(args) -> int:
    cfg = _load_config(args)
    vec_path = cfg.get("vector")
    if not vec_path:
        raise ValueError("transform needs --vector")
    k = _number("k", cfg.get("k", 1), int)  # the transform refuses k < 1
    u = matrices.read_entries(_text("vector", vec_path))
    if u.ndim > 2 or u.ndim == 2 and min(u.shape) > 1:
        raise ValueError(f"{vec_path}: a vector file holds one row or one column, got shape {u.shape}")
    u = u.ravel()
    bad = ~np.isfinite(u)
    if bad.any():
        raise ValueError(f"vector has {np.count_nonzero(bad)} non-finite (NaN or inf) entries, "
                         f"the first at entry {np.argmax(bad) + 1}")
    parts = u.view(float)  # re and im of each entry, side by side
    peak = np.abs(parts).max()
    if peak == 0:
        raise ValueError("vector is zero")
    u = np.ldexp(parts, -np.frexp(peak)[1]).view(complex)  # exact; the largest part in [0.5, 1) keeps the norm in range
    u = u / np.linalg.norm(u)  # so an ordinary vector keeps the bits of u / norm(u)
    if not u.imag.any():  # read_entries gives complex entries; a real vector takes the library's real path
        u = u.real
    alphas, masses = transform.projection_profile(u, k)
    q = transform.discrete_quasiperiodicity(u, k)
    outdir = Path(_text("out", cfg.get("out", ".")))
    outdir.mkdir(parents=True, exist_ok=True)
    out_path = outdir / "transform.csv"
    outputs.write_transform_csv(alphas, masses, out_path)
    print(f"wrote {out_path}")
    print(f"recovered quasiperiodicity: {outputs.fmt(q)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify  # only this command reads the check registry; other runs skip its import
    results = verify.run_checks(only=args.only, seed=args.seed)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  ({r.seconds:6.2f}s)  {r.detail}")
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The bandrec parser, built once per process: building it costs ten times what one parse does.

    parse_args leaves the parser as it was, so every call reads the same flags and defaults.
    """
    parser = argparse.ArgumentParser(
        prog="bandrec",
        description="Reconstruct band structures of finite resonator chains and "
                    "detect localized in-gap modes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=None):
        """--out and --config; for a command with a choice of formats, also --format and --grid."""
        p.add_argument("--out", help="output directory (default: current)")
        if formats:
            p.add_argument("--format", help=f"comma-separated subset of {','.join(formats)}")
            p.add_argument("--grid", type=int, help="quasiperiodicity grid size")
        p.add_argument("--config", help="JSON config file; flags take precedence")

    p_bands = sub.add_parser("bands", help="sample a symbol's band functions")
    p_bands.add_argument("--symbol", help="symbol JSON file, inline JSON, or builtin name")
    add_common(p_bands, FORMATS["bands"])
    p_bands.set_defaults(fn=cmd_bands)

    p_rec = sub.add_parser("reconstruct", help="run a reconstruction scenario")
    p_rec.add_argument("--scenario", choices=reconstruct.SCENARIOS)
    for name, (kind, text) in reconstruct.PARAMS.items():
        p_rec.add_argument(f"--{name.replace('_', '-')}", dest=name, type=kind, help=text)
    add_common(p_rec, FORMATS["reconstruct"])
    p_rec.set_defaults(fn=cmd_reconstruct)

    p_tr = sub.add_parser("transform", help="projection profile of a vector")
    p_tr.add_argument("--vector", help="vector CSV path")
    p_tr.add_argument("--k", type=int, help="block size")
    add_common(p_tr)
    p_tr.set_defaults(fn=cmd_transform)

    p_ver = sub.add_parser("verify", help="run invariant and acceptance checks")
    p_ver.add_argument("--only", help="run only checks whose name contains this string")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
