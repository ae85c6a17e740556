"""Command-line interface: bands, reconstruct, transform, verify."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import outputs, reconstruct, symbols, transform, verify
from .reconstruct import _number, _text

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_CHECK_FAILED = 2


def _load_config(args, check=True):
    """The --config JSON object under the given flags; with check, a key that no flag names is refused."""
    flags = {key: value for key, value in vars(args).items() if key not in ("command", "fn", "config")}
    cfg = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        unread = [key for key in cfg if check and key not in flags]
        if unread:
            raise ValueError(f"{args.config}: {args.command} does not read {', '.join(unread)}; "
                             f"it takes {', '.join(flags)}")
    return {**cfg, **{key: value for key, value in flags.items() if value is not None}}


def _parse_formats(raw) -> tuple[str, ...]:
    formats = tuple(f.strip() for f in _text("format", raw).split(",") if f.strip())
    unknown = set(formats) - {"csv", "json", "svg"}
    if unknown:
        raise ValueError(f"unknown output formats: {sorted(unknown)}")
    return formats


def cmd_bands(args) -> int:
    cfg = _load_config(args)
    sym = symbols.symbol_from_source(_text("symbol", cfg.get("symbol", "monomer"), inline=True))
    grid = _number("grid", cfg.get("grid", 256), int)
    outdir = Path(_text("out", cfg.get("out", ".")))
    formats = _parse_formats(cfg.get("format", "csv"))
    bs = symbols.band_functions(sym, grid)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs.write_bands_csv(bs, outdir / "bands.csv")
    print(f"wrote {outdir / 'bands.csv'} ({bs.k} band(s), grid {grid})")
    if "svg" in formats:
        outputs.write_bands_svg(bs, outdir / "bands.svg")
        print(f"wrote {outdir / 'bands.svg'}")
    report = symbols.check_assumptions(bs) if grid >= 16 else None
    gaps = reconstruct.detect_gaps(bs, np.empty(0)).gaps
    if gaps:
        pretty = ", ".join(f"({lo:.6g}, {hi:.6g})" for lo, hi in gaps)
        print(f"band gaps: {pretty}")
    else:
        print("band gaps: none")
    if report is not None and not report.passed:
        print(f"warning: assumption checks failed: {report.details}")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    cfg = _load_config(args, check=False)  # run_scenario refuses what its scenario does not read
    outdir = Path(_text("out", cfg.pop("out", ".")))
    formats = _parse_formats(cfg.pop("format", "csv,json"))
    result = reconstruct.run_scenario(cfg)
    written = outputs.write_bundle(result, outdir, formats)
    for path in written:
        print(f"wrote {path}")
    summary = result.summary()
    print(f"{result.scenario}: {summary['n_points']} points, "
          f"{summary.get('n_gap_modes', 0)} gap mode(s), "
          f"{summary['n_localized']} localized")
    return EXIT_OK


def cmd_transform(args) -> int:
    cfg = _load_config(args)
    vec_path = cfg.get("vector")
    if not vec_path:
        raise ValueError("transform needs --vector")
    k = _number("k", cfg.get("k", 1), int)
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    u = outputs.read_vector_csv(_text("vector", vec_path))
    norm = np.linalg.norm(u)
    if norm == 0:
        raise ValueError("vector is zero")
    u = transform.zero_pad(u / norm, k)
    alphas, masses = transform.projection_profile(u, k)
    outdir = Path(_text("out", cfg.get("out", ".")))
    outdir.mkdir(parents=True, exist_ok=True)
    out_path = outdir / "transform.csv"
    outputs.write_transform_csv(alphas, masses, out_path)
    q = transform.discrete_quasiperiodicity(u, k)
    print(f"wrote {out_path}")
    print(f"recovered quasiperiodicity: {outputs.fmt(q)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    overrides = {}
    for item in args.tol or []:
        name, _, value = item.partition("=")
        if not _:
            raise ValueError(f"--tol expects NAME=VALUE, got {item!r}")
        overrides[name.strip()] = float(value)
    results = verify.run_checks(only=args.only, seed=args.seed, overrides=overrides)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  ({r.seconds:6.2f}s)  {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandrec",
        description="Reconstruct band structures of finite resonator chains and "
                    "detect localized in-gap modes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, sampled=True):
        p.add_argument("--out", help="output directory (default: current)")
        if sampled:
            p.add_argument("--format", help="comma-separated subset of csv,json,svg")
            p.add_argument("--grid", type=int, help="quasiperiodicity grid size")
        p.add_argument("--config", help="JSON config file; flags take precedence")

    p_bands = sub.add_parser("bands", help="sample a symbol's band functions")
    p_bands.add_argument("--symbol", help="symbol JSON file, inline JSON, or builtin name")
    add_common(p_bands)
    p_bands.set_defaults(fn=cmd_bands)

    p_rec = sub.add_parser("reconstruct", help="run a reconstruction scenario")
    p_rec.add_argument("--scenario", choices=reconstruct.SCENARIOS)
    for name, (kind, text) in reconstruct.PARAMS.items():
        p_rec.add_argument(f"--{name.replace('_', '-')}", dest=name, type=kind, help=text)
    add_common(p_rec)
    p_rec.set_defaults(fn=cmd_reconstruct)

    p_tr = sub.add_parser("transform", help="projection profile of a vector")
    p_tr.add_argument("--vector", help="vector CSV path")
    p_tr.add_argument("--k", type=int, help="block size")
    add_common(p_tr, sampled=False)
    p_tr.set_defaults(fn=cmd_transform)

    p_ver = sub.add_parser("verify", help="run invariant and acceptance checks")
    p_ver.add_argument("--only", help="run only checks whose name contains this string")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--tol", action="append", metavar="NAME=VALUE",
                       help="override a check tolerance, e.g. acceptance.09_unitarity.tol=0")
    p_ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
