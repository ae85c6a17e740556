import contextlib
import csv
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bandrec import cli, matrices, outputs, reconstruct, symbols, transform, verify
from bandrec.cli import main


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_bands_monomer(tmp_path, capsys):
    sym_path = tmp_path / "monomer.json"
    symbols.save_symbol(symbols.nearest_neighbour_symbol(2.0, -1.0), sym_path)
    code = main(["bands", "--symbol", str(sym_path), "--grid", "256", "--out", str(tmp_path)])
    assert code == 0
    rows = read_csv(tmp_path / "bands.csv")
    assert len(rows) == 256
    assert set(rows[0]) == {"alpha", "band_index", "lambda", "dlambda"}
    assert "band gaps: none" in capsys.readouterr().out


def test_bands_dimer_echoes_gap(tmp_path, capsys):
    code = main(["bands", "--symbol", "dimer", "--grid", "128", "--out", str(tmp_path)])
    assert code == 0
    rows = read_csv(tmp_path / "bands.csv")
    assert len(rows) == 256  # two bands
    assert {r["band_index"] for r in rows} == {"1", "2"}
    assert "band gaps: (" in capsys.readouterr().out


def test_bands_inline_json_and_svg(tmp_path):
    inline = json.dumps(symbols.symbol_to_dict(symbols.nearest_neighbour_symbol(2.0, -1.0)))
    code = main(["bands", "--symbol", inline, "--grid", "64",
                 "--out", str(tmp_path), "--format", "csv,svg"])
    assert code == 0
    svg = (tmp_path / "bands.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


@pytest.mark.parametrize("formats,written", [(None, ["bands.csv"]), ("svg", ["bands.svg"]),
                                             ("csv,svg", ["bands.csv", "bands.svg"])])
def test_bands_writes_exactly_the_formats_it_is_given(tmp_path, formats, written):
    out = tmp_path / "run"
    code = main(["bands", "--symbol", "dimer", "--out", str(out)] + (["--format", formats] if formats else []))
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == written


@pytest.mark.parametrize("argv,gaps", [(["reconstruct", "--scenario", "ssh"], "1 gap mode(s)"),
                                       (["bands", "--symbol", "dimer"], "band gaps: (1, 2)")])
def test_a_grid_of_16_is_the_smallest_accepted(tmp_path, capsys, argv, gaps):
    assert main(argv + ["--grid", "16", "--out", str(tmp_path)]) == 0
    assert gaps in capsys.readouterr().out


def run_cli(argv, root="."):
    """(exit code, stdout, stderr, paths made or removed under root) of one main call; a usage error exits 2."""
    before = set(Path(root).rglob("*"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
    return code, out.getvalue(), err.getvalue(), sorted(before ^ set(Path(root).rglob("*")))


def assert_refused(argv, message, code=1):
    """main(argv), run in the current directory, exits code, prints nothing on stdout and writes nothing.

    Exit 1 prints "error: <message>" as its whole stderr, and exit 2, an
    argparse usage error, prints "bandrec: error: <message>" as its last line.
    """
    got, out, err, changed = run_cli(argv)
    line = err if code == 1 else err.splitlines()[-1] + "\n"  # argparse prints its usage first
    assert (got, line, out, changed) == (code, ("bandrec: " if code == 2 else "") + f"error: {message}\n", "", [])


def _raised(call, *args) -> str:
    """The message of the ValueError call(*args) raises: json's or numpy's own wording, as installed."""
    with pytest.raises(ValueError) as exc:
        call(*args)
    return str(exc.value)


def _read_csv_lines(text):
    """text as matrices.read_entries reads a CSV file."""
    return np.loadtxt(text.splitlines(), delimiter=",", dtype=complex, ndmin=2, comments=None)


def refusal(row_id, argv, message, files=None, code=1):
    """A REFUSALS row: main(argv) where files (name: text, or a FiniteMatrix to save) were written first."""
    return pytest.param(argv, files or {}, code, message, id=row_id)


def config(obj):
    """A cfg.json holding obj, beside the v.csv that a transform config names."""
    return {"cfg.json": json.dumps(obj), "v.csv": "1\n0\n"}


SCALED_SYMBOL = '{"k":1,"coeffs":[{"s":0,"re":[[1e6]]},{"s":1,"re":[[1.0000005]]},{"s":-1,"re":[[1.0]]}]}'
MONOMER_OBJECT = symbols.symbol_to_dict(symbols.nearest_neighbour_symbol(2.0, -1.0))
# lambda(alpha) = (2 - 2 sin alpha) 1e-9: the odd symbol of the evenness test below at 1e-9 scale
SMALL_ODD = ('{"k":1,"coeffs":[{"s":0,"re":[[2e-9]]},{"s":1,"re":[[0]],"im":[[1e-9]]},'
             '{"s":-1,"re":[[0]],"im":[[-1e-9]]}]}')
# lambda(alpha) = 2 - 2 cos(alpha) + 1.2 cos(2 alpha), with an interior minimum at cos(alpha) = 1/2.4
NOT_MONOTONE = '{"k":1,"coeffs":[{"s":0,"re":[[2]]},{"s":1,"re":[[-1]]},{"s":-1,"re":[[-1]]},' \
    '{"s":2,"re":[[0.6]]},{"s":-2,"re":[[0.6]]}]}'
# band ranges (-2.3, 2.0) and (-0.8, 2.1): even and monotone, but each eigenvector mixes a wave of each band
OVERLAPPING = '{"k":2,"coeffs":[{"s":0,"re":[[0,0.3],[0.3,0.5]]},{"s":1,"re":[[-1,0.2],[0.1,-0.8]]},' \
    '{"s":-1,"re":[[-1,0.1],[0.2,-0.8]]}]}'
HUGE_MONOMER = '{"k":1,"coeffs":[{"s":0,"re":[[1e308]]},{"s":1,"re":[[-1e308]]},{"s":-1,"re":[[-1e308]]}]}'
MONOMER_CHAIN = matrices.capacitance_1d(2.0, -1.0, 80)
SSH = ["reconstruct", "--scenario", "ssh"]
EXTERNAL = ["reconstruct", "--scenario", "external_matrix", "--matrix"]
DELTA_RANGE = "need 2.2e-08 <= 1 + delta <= 4.5e+07, got delta ="
UNREADABLE = "the reference bands cannot be reconstructed, as one |alpha| is recovered per eigenvector:"
ODD_NOTES = "interior slope as small as 0; band 1 is not monotone in |alpha|: its slope changes sign at alpha = " \
    "1.58307; bands not even in alpha, max|lambda(alpha) - lambda(-alpha)| ="
# Every refusal of the CLI: exit 1 and one error line, or exit 2 for an argparse usage error.
REFUSALS = [
    refusal("bands-format-json", ["bands", "--symbol", "dimer", "--format", "json"],
            "unknown output formats: ['json']; bands writes csv, svg"),
    refusal("bands-format-csv,json", ["bands", "--symbol", "dimer", "--format", "csv,json"],
            "unknown output formats: ['json']; bands writes csv, svg"),
    refusal("reconstruct-format-empty", [*SSH, "--format", ""],
            "no output format given; reconstruct writes csv, json, svg"),
    refusal("bands-format-comma", ["bands", "--symbol", "dimer", "--format", ","],
            "no output format given; bands writes csv, svg"),
    refusal("bands-symbol-file-not-json", ["bands", "--symbol", "bad.json"], _raised(json.loads, "{not json"),
            {"bad.json": "{not json"}),
    refusal("bands-symbol-nan", ["bands", "--symbol", '{"k":1,"coeffs":[{"s":0,"re":[[NaN]]}]}', "--grid", "16"],
            "coefficient block at offset 0 has non-finite (NaN or inf) entries"),
    *(refusal(f"bands-symbol-{row_id}", ["bands", "--symbol", symbol, "--grid", "16"], message)
      for row_id, symbol, message in [
          ("offset-1.5", '{"k":1,"coeffs":[{"s":0,"re":[[2.0]]},{"s":1.5,"re":[[-1.0]]},{"s":-1.5,"re":[[-1.0]]}]}',
           "offset s must be an integer, got 1.5"),
          ("k-true", '{"k":true,"coeffs":[{"s":0,"re":[[2.0]]}]}', "block size must be an integer, got True"),
          ("k-1.7", '{"k":1.7,"coeffs":[{"s":0,"re":[[2.0]]}]}', "block size must be an integer, got 1.7"),
          ("k-string", '{"k":"1","coeffs":[{"s":0,"re":[[2.0]]}]}', "block size must be an integer, got '1'"),
          ("offset-twice", '{"k":1,"coeffs":[{"s":0,"re":[[2.0]]},{"s":0,"re":[[3.0]]}]}', "offset 0 is given twice"),
          ("tail_bnd", '{"k":1,"coeffs":[{"s":0,"re":[[2.0]]}],"tail_bnd":0.1}',
           "symbol description does not read 'tail_bnd'; it takes k, coeffs, tail_bound"),
          ("newline-key", '{"k\\nx":1,"coeffs":[]}',  # the key's newline stays inside the one error line
           "symbol description does not read 'k\\nx'; it takes k, coeffs, tail_bound"),
          ("imag", '{"k":1,"coeffs":[{"s":0,"re":[[2.0]],"imag":[[1.0]]}]}',
           "coefficient block at offset 0 does not read 'imag'; it takes s, re, im"),
          ("tail-bound-negative", '{"k":1,"coeffs":[{"s":0,"re":[[2.0]]}],"tail_bound":-0.5}',
           "tail bound must be finite and nonnegative, got -0.5"),
          ("tail-bound-inf", '{"k":1,"coeffs":[{"s":0,"re":[[2.0]]}],"tail_bound":Infinity}',
           "tail bound must be finite and nonnegative, got inf"),
          ("tail-bound-null", '{"k":1,"coeffs":[{"s":0,"re":[[2.0]]}],"tail_bound":null}',
           "tail_bound must be a number, got None"),
          ("im-shape", '{"k": 1, "coeffs": [{"s": 0, "re": [[2]], "im": [0, 0]}]}',
           "coefficient block at offset 0: 'im' has shape (2,) but 're' has shape (1, 1)"),
      ]),
    # entries near the float64 limit overflow in the symbol's samples, in the slopes of its bands or in the eigenvalues
    refusal("bands-symbol-1e308", ["bands", "--symbol", HUGE_MONOMER],
            "the symbol's samples on the 256-point grid overflow float64"),
    refusal("periodic_nn-1e308", ["reconstruct", "--scenario", "periodic_nn", "--a0=1e308", "--a1=-1e308"],
            "the symbol's samples on the 512-point grid overflow float64"),
    refusal("ssh-s1-1e-308", [*SSH, "--s1=1e-308"],
            "the symbol's bands or their slopes on the 512-point grid overflow float64"),
    refusal("external-matrix-1e308", [*EXTERNAL, "big.csv"], "hermitian_eigen found eigenvalues that overflow float64",
            {"big.csv": "1e308,1e308\n1e308,1e308\n"}),
    refusal("external-matrix-json-imag", [*EXTERNAL, "m.json"], "m.json does not read 'imag'; it takes re, im",
            {"m.json": '{"re": [[2, 0], [0, 2]], "imag": [[0, 1], [-1, 0]]}'}),  # im misspelt
    refusal("transform-vector-json-imag", ["transform", "--vector", "m.json"],
            "m.json does not read 'imag'; it takes re, im", {"m.json": '{"re": [0.6, 0.8], "imag": [0, 0]}'}),
    refusal("external-matrix-json-no-re", [*EXTERNAL, "m.json"], "m.json: expected an object with an 're' array",
            {"m.json": '{"im": [[0.0]]}'}),
    refusal("external-matrix-json-im-shape", [*EXTERNAL, "m.json"],
            "m.json: 'im' has shape (1, 1) but 're' has shape (2, 2)",
            {"m.json": '{"re": [[1, 0], [0, 1]], "im": [[0.0]]}'}),
    *(refusal(f"external-matrix-csv-{row_id}", [*EXTERNAL, "m.csv"], f"m.csv: {message}", {"m.csv": text})
      for row_id, text, message in [
          ("empty", "", "empty matrix file"),
          ("ragged", "2,-1\n-1\n", _raised(_read_csv_lines, "2,-1\n-1\n")),
          ("string", "2,x\n-1,2\n", _raised(_read_csv_lines, "2,x\n-1,2\n")),
          ("not-square", "1,2,3\n4,5,6\n", "matrix is not square, shape (2, 3)"),
      ]),
    refusal("external-matrix-nan", [*EXTERNAL, "nan.csv"],
            "matrix has 2 non-finite (NaN or inf) entries, the first at row 1, column 2",
            {"nan.csv": "2,nan\nnan,2\n"}),
    refusal("external-matrix-1e-13", [*EXTERNAL, "tiny.csv"],
            "hermitian_eigen needs a Hermitian matrix, one with max|A - A^H| <= 1e-12 * max|A|",
            {"tiny.csv": "0,1e-13\n0,0\n"}),
    # a symbol given is read, even an empty one: these two once ran without one and wrote no bands
    refusal("external-matrix-symbol-empty", [*EXTERNAL, "m.csv", "--symbol", ""],
            "[Errno 2] No such file or directory: ''", {"m.csv": MONOMER_CHAIN}),
    refusal("config-external-matrix-symbol-{}", ["reconstruct", "--config", "cfg.json"],
            "malformed symbol description: 'k'",
            {"cfg.json": json.dumps({"scenario": "external_matrix", "matrix": "m.csv", "symbol": {}}),
             "m.csv": MONOMER_CHAIN}),
    # a block size above the data's length would only pad zeros, k - n of them per vector, before any check
    *(refusal(f"external-matrix-k{k}", [*EXTERNAL, "m.csv", "--k", str(k)], f"block size must be at most 80, got {k}",
              {"m.csv": MONOMER_CHAIN}) for k in (81, 10 ** 12)),
    *(refusal(f"transform-k{k}", ["transform", "--vector", "v.csv", "--k", str(k)],
              f"block size must be at most 2, got {k}", {"v.csv": "1\n0\n"}) for k in (3, 10 ** 12)),
    *(refusal(f"external-matrix-{symbol}-k{k}", [*EXTERNAL, "m.csv", "--symbol", symbol, "--k", str(k)],
              f"k = {k} differs from the block size {2 if symbol == 'dimer' else 1} of the reference symbol",
              {"m.csv": MONOMER_CHAIN}) for symbol, k in [("monomer", 2), ("dimer", 1), ("dimer", 3)]),
    *(refusal(f"reconstruct-grid{grid}", [*SSH, "--grid", str(grid)],
              f"grid must be an even number of at least 16, got {grid}") for grid in (3, 15, 33)),
    *(refusal(f"bands-grid{grid}", ["bands", "--symbol", "dimer", "--grid", str(grid)],
              f"grid must be an even number of at least 16, got {grid}") for grid in (3, 15)),
    refusal("config-dimers_per_side-list", ["reconstruct", "--config", "cfg.json"],
            "dimers_per_side must be an integer, got [3]", config({"scenario": "ssh", "dimers_per_side": [3]})),
    *(refusal(f"config-{row_id}", [command, "--config", "cfg.json"], message, config(obj))
      for row_id, command, obj, message in [
          ("out-5", "reconstruct", {"scenario": "ssh", "out": 5}, "out must be a string, got 5"),
          ("format-5", "reconstruct", {"scenario": "ssh", "format": 5}, "format must be a string, got 5"),
          ("matrix-7", "reconstruct", {"scenario": "external_matrix", "matrix": 7}, "matrix must be a string, got 7"),
          ("symbol-0", "reconstruct", {"scenario": "periodic_symbol", "symbol": 0},
           "symbol must be a string or an object, got 0"),
          ("bands-symbol-0", "bands", {"symbol": 0}, "symbol must be a string or an object, got 0"),
          ("transform-k-list", "transform", {"vector": "v.csv", "k": [2]}, "block size must be an integer, got [2]"),
          ("m-24.7", "reconstruct", {"scenario": "periodic_nn", "m": 24.7}, "m must be an integer, got 24.7"),
          ("dimers_per_side-true", "reconstruct", {"scenario": "ssh", "dimers_per_side": True},
           "dimers_per_side must be an integer, got True"),
          ("s1-false", "reconstruct", {"scenario": "ssh", "s1": False}, "s1 must be a number, got False"),
          ("scenario-list", "reconstruct", {"scenario": ["ssh"]},
           "scenario must be one of periodic_nn, periodic_symbol, ssh, dislocated, compact_defect, external_matrix, "
           "got ['ssh']"),
          ("bands-list", "bands", [1, 2], "cfg.json: bands: expected an object, got list"),
          ("dimers_per_side-string", "reconstruct", {"scenario": "ssh", "dimers_per_side": "5"},
           "dimers_per_side must be an integer, got '5'"),
          ("s1-string", "reconstruct", {"scenario": "ssh", "s1": "1.5"}, "s1 must be a number, got '1.5'"),
      ]),
    refusal("ssh-m-delta-flags", [*SSH, "--m", "7", "--delta", "0.3"],
            "scenario 'ssh' does not read 'm', 'delta'; it takes s1, s2, dimers_per_side"),
    *(refusal(f"config-unread-{row_id}", [*argv, "--config", "cfg.json"], message, config(obj))
      for row_id, argv, obj, message in [
          ("dimers_per_sid", ["reconstruct"], {"scenario": "ssh", "dimers_per_sid": 500},
           "scenario 'ssh' does not read 'dimers_per_sid'; it takes s1, s2, dimers_per_side"),
          ("margin", ["reconstruct"], {"scenario": "ssh", "margin": 0.1},
           "scenario 'ssh' does not read 'margin'; it takes s1, s2, dimers_per_side"),
          ("d", ["reconstruct", "--scenario", "compact_defect"], {"d": 3.0},
           "scenario 'compact_defect' does not read 'd'; it takes s1, s2, n, delta, index"),
          ("grdi", ["bands"], {"symbol": "dimer", "grdi": 8},
           "cfg.json: bands does not read 'grdi'; it takes symbol, out, format, grid"),
          ("transform-grid", ["transform", "--vector", "v.csv"], {"grid": 8},
           "cfg.json: transform does not read 'grid'; it takes vector, k, out"),
      ]),
    *(refusal(f"ssh-{row_id}", [*SSH, *flags], message) for row_id, flags, message in [
          ("s1-0", ["--s1", "0"], "spacings must be positive"), ("s2-0", ["--s2", "0"], "spacings must be positive"),
          ("s1-inf", ["--s1", "inf"], "spacings must be finite"), ("s2-inf", ["--s2=-inf"], "spacings must be finite"),
          ("s1-nan", ["--s1", "nan"], "spacings must be finite")]),
    # an infinite spacing would decouple its neighbours and write "Infinity", not JSON, into summary.json
    refusal("dislocated-d-inf", ["reconstruct", "--scenario", "dislocated", "--d", "inf"], "spacings must be finite"),
    refusal("compact_defect-s2-inf", ["reconstruct", "--scenario", "compact_defect", "--s2", "inf"],
            "spacings must be finite"),
    *(refusal(f"compact_defect-n{n}", ["reconstruct", "--scenario", "compact_defect", "--n", str(n)],
              f"chain sites must be at least 2, got {n}") for n in (1, 0, -3)),
    # 1 + delta outside matrices.DELTA_SCALE: at delta = 1e14 a run wrote a gap mode of residual 0.41, and with
    # 1 + delta below 2.3e-10 the eigenvector map failed a unit-norm check at some n
    *(refusal(f"compact_defect-delta-{delta}", ["reconstruct", "--scenario", "compact_defect", f"--delta={delta}"],
              f"{DELTA_RANGE} {float(delta)}") for delta in ("nan", "inf", "1e14", "-0.999999999")),
    refusal("periodic_symbol-odd-1e-9",
            ["reconstruct", "--scenario", "periodic_symbol", "--m", "40", "--symbol", SMALL_ODD],
            f"{UNREADABLE} {ODD_NOTES} 4e-09"),
    refusal("periodic_symbol-not-monotone-0.6",
            ["reconstruct", "--scenario", "periodic_symbol", "--m", "40", "--symbol", NOT_MONOTONE],
            f"{UNREADABLE} band 1 is not monotone in |alpha|: its slope changes sign at alpha = 1.14128"),
    refusal("periodic_symbol-overlapping",
            ["reconstruct", "--scenario", "periodic_symbol", "--m", "40", "--symbol", OVERLAPPING],
            f"{UNREADABLE} band ranges separated by only -2.8"),
    refusal("transform-k0", ["transform", "--vector", "v.csv", "--k", "0"], "block size must be at least 1, got 0",
            {"v.csv": "1\n0\n"}),
    refusal("transform-nan", ["transform", "--vector", "v.csv"],
            "vector has 1 non-finite (NaN or inf) entries, the first at entry 2", {"v.csv": "0.6\nnan\n0.8\n"}),
    refusal("transform-inf", ["transform", "--vector", "v.csv"],
            "vector has 2 non-finite (NaN or inf) entries, the first at entry 3", {"v.csv": "1\n0\ninf\n-inf+1j\n"}),
    refusal("transform-matrix-file", ["transform", "--vector", "eye.csv"],
            "eye.csv: a vector file holds one row or one column, got shape (3, 3)",
            {"eye.csv": "1,0,0\n0,1,0\n0,0,1\n"}),
    refusal("transform-zero-vector", ["transform", "--vector", "zero.csv"], "vector is zero",
            {"zero.csv": "0\n0\n0\n0\n"}),
    refusal("transform-no-vector", ["transform"], "transform needs --vector"),
    refusal("reconstruct-no-scenario", ["reconstruct"],
            f"scenario must be one of {', '.join(reconstruct.SCENARIOS)}, got None"),
    refusal("verify-unknown-filter", ["verify", "--only", "nonexistent_group"], "no checks match 'nonexistent_group'"),
    *(refusal(f"usage-{argv[-2].lstrip('-')}", argv, f"unrecognized arguments: {' '.join(argv[-2:])}", code=2)
      for argv in [[*SSH, "--margin", "0.1"], [*SSH, "--jobs", "2"], ["bands", "--seed", "1"],
                   ["transform", "--vector", "v.csv", "--grid", "8"], ["verify", "--tol", "x=0"]]),
]


@pytest.mark.parametrize("argv,files,code,message", REFUSALS)
def test_a_refused_run_prints_one_error_line_and_writes_nothing(tmp_path, monkeypatch, argv, files, code, message):
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        if isinstance(content, str):
            Path(name).write_text(content)
        else:
            matrices.save_matrix(content, name)
    assert_refused(argv, message, code)


def test_a_symbol_file_carries_its_tail_bound_into_the_summary(tmp_path):
    symbols.save_symbol(symbols.exponential_symbol(), tmp_path / "exp.json")
    runs = {}
    for name, source in (("builtin", "exponential"), ("file", str(tmp_path / "exp.json"))):
        assert main(["reconstruct", "--scenario", "periodic_symbol", "--symbol", source,
                     "--out", str(tmp_path / name)]) == 0
        runs[name] = json.loads((tmp_path / name / "summary.json").read_text())["params"]
    assert runs["file"]["truncation_tail_bound"] == runs["builtin"]["truncation_tail_bound"] == 1.81898940354586e-12
    assert (tmp_path / "file" / "points.csv").read_bytes() == (tmp_path / "builtin" / "points.csv").read_bytes()


def test_bands_prints_the_gaps_reconstruct_tests(tmp_path, capsys):
    """bands and reconstruct share one gap rule: the trimer's printed gaps are those of its gaps.json."""
    trimer = json.dumps(symbols.symbol_to_dict(symbols.cell_chain_symbol([1.0, 2.0, 3.0])))
    assert main(["bands", "--symbol", trimer, "--grid", "256", "--out", str(tmp_path / "b")]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("band gaps:")]
    assert main(["reconstruct", "--scenario", "periodic_symbol", "--symbol", trimer, "--grid", "256",
                 "--format", "json", "--out", str(tmp_path / "r")]) == 0
    gaps = json.loads((tmp_path / "r" / "gaps.json").read_text())["gaps"]
    assert printed == ["band gaps: " + ", ".join(f"({lo:.6g}, {hi:.6g})" for lo, hi in gaps)]
    assert printed == ["band gaps: (0.381969, 0.666664), (1.23241, 2.43426)"]


def test_inline_symbol_object_in_a_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"symbol": MONOMER_OBJECT, "grid": 16, "out": str(tmp_path / "b")}))
    assert main(["bands", "--config", str(cfg)]) == 0
    assert len(read_csv(tmp_path / "b" / "bands.csv")) == 16
    from bandrec import matrices
    matrices.save_matrix(matrices.capacitance_1d(2.0, -1.0, 12), tmp_path / "m.csv")
    cfg.write_text(json.dumps({"scenario": "external_matrix", "matrix": str(tmp_path / "m.csv"),
                               "symbol": MONOMER_OBJECT, "out": str(tmp_path / "r")}))
    assert main(["reconstruct", "--config", str(cfg)]) == 0
    assert json.loads((tmp_path / "r" / "summary.json").read_text())["n_gaps"] == 0


def test_bands_accepts_a_large_scale_hermitian_symbol(tmp_path):
    assert main(["bands", "--symbol", SCALED_SYMBOL, "--grid", "16", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("symbol,failure", [
    ('{"k":1,"coeffs":[{"s":0,"re":[[2.0]]}]}', "interior slope as small as 0"),  # one constant band
    (NOT_MONOTONE, "band 1 is not monotone in |alpha|: its slope changes sign at alpha = 1.14128"),
], ids=["flat", "not-monotone"])
def test_bands_warns_when_an_assumption_check_fails(tmp_path, capsys, symbol, failure):
    assert main(["bands", "--symbol", symbol, "--grid", "512", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"warning: assumption checks failed: {failure}"


@pytest.mark.parametrize("symbol,message", [
    (symbols.Symbol(k=1, coeffs={0: [[2.0]], 1: [[1j]], -1: [[-1j]]}), f"{UNREADABLE} {ODD_NOTES} 4"),
    (symbols.symbol_from_source(NOT_MONOTONE),
     f"{UNREADABLE} band 1 is not monotone in |alpha|: its slope changes sign at alpha = 1.14128"),
], ids=["odd", "not-monotone"])
def test_reconstruct_refuses_bands_it_cannot_read_before_the_eigensolve(tmp_path, monkeypatch, symbol, message):
    def no_eigensolve(matrix):
        raise AssertionError("the eigensolve ran before the reference bands were checked")

    monkeypatch.setattr("bandrec.reconstruct.hermitian_eigen", no_eigensolve)
    monkeypatch.chdir(tmp_path)
    symbols.save_symbol(symbol, "sym.json")
    assert_refused(["reconstruct", "--scenario", "periodic_symbol", "--m", "100", "--symbol", "sym.json"], message)


def _numbers(text):
    """Every token of a CSV, JSON or SVG text that float() reads, inf and nan included."""
    for token in re.split(r'[\s,:;=<>/"\[\]{}]+', text):
        try:
            yield float(token)
        except ValueError:
            pass


def assert_exits_cleanly(argv, root):
    """main(argv) refuses (exit 1, an error line, no stdout, no file written) or exits 0 writing finite numbers."""
    code, out, err, changed = run_cli(argv, root)
    if code == 1:
        assert (out, changed, err[:7]) == ("", [], "error: ")
    else:
        assert code == 0
        assert all(math.isfinite(x) for path in changed if path.is_file() for x in _numbers(path.read_text()))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["re", "im", "k", "s", "coeffs"]), inner, max_size=4),
    max_leaves=12)
INPUT_TEXT = st.text(max_size=80) | JSON_VALUES.map(json.dumps)


@settings(max_examples=60, deadline=None)
@given(INPUT_TEXT)
def test_arbitrary_matrix_file_exits_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "matrix.txt"
        path.write_text(text, encoding="utf-8")
        assert_exits_cleanly(["reconstruct", "--scenario", "external_matrix",
                              "--matrix", str(path), "--out", str(Path(tmp) / "run")], tmp)


@settings(max_examples=60, deadline=None)
@given(INPUT_TEXT)
def test_arbitrary_symbol_argument_exits_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        assert_exits_cleanly(["bands", f"--symbol={text}", "--grid", "16", "--out", tmp], tmp)


def test_reconstruct_periodic_nn(tmp_path):
    out = tmp_path / "run"
    code = main(["reconstruct", "--scenario", "periodic_nn", "--m", "80",
                 "--out", str(out), "--format", "csv,json"])
    assert code == 0
    points = read_csv(out / "points.csv")
    assert len(points) == 80
    assert set(points[0]) == {"index", "alpha_est", "lambda", "sup_ratio",
                              "ipr", "localized", "band_error"}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_points"] == 80
    assert summary["errors"]["bulk"]["max"] < 7.5e-2
    gaps = json.loads((out / "gaps.json").read_text())
    assert gaps["gap_modes"] == []


@pytest.mark.parametrize("argv,empty", [
    (["--scenario", "ssh", "--dimers-per-side", "3"], "bulk"),  # the 4-bin edge exclusion takes every bulk point
    (["--scenario", "ssh", "--dimers-per-side", "4"], "bulk"),
    (["--scenario", "periodic_nn"], "localized"),  # no gap mode and no localized eigenvector
])
def test_statistics_of_an_empty_set_are_null(tmp_path, argv, empty):
    out = tmp_path / "run"
    assert main(["reconstruct", *argv, "--out", str(out), "--format", "json"]) == 0
    errors = json.loads((out / "summary.json").read_text())["errors"]
    stats = errors[empty]
    assert stats.pop("count") == 0 and set(stats.values()) == {None}
    other = errors["localized" if empty == "bulk" else "bulk"]
    assert other["count"] > 0 and None not in other.values()


def test_reconstruct_warns_when_no_bulk_point_is_scored(tmp_path, capsys):
    assert main(["reconstruct", "--scenario", "ssh", "--dimers-per-side", "3", "--out", str(tmp_path / "a")]) == 0
    warning, summary = capsys.readouterr().out.splitlines()[-2:]
    assert warning == ("warning: the edge margin 3.59039 (4 DFT bins from alpha = 0 and pi) leaves no bulk point; "
                       "the bulk statistics are null")
    assert summary == "ssh: 13 points, 1 gap mode(s), 1 localized"
    # every point is still scored against the bands, and the localized statistics are written
    errors = json.loads((tmp_path / "a" / "summary.json").read_text())["errors"]
    assert errors["bulk"] == {"count": 0, "max": None, "mean": None, "q90": None}
    assert errors["localized"]["count"] == 1 and errors["localized"]["max"] is not None
    assert all(row["band_error"] for row in read_csv(tmp_path / "a" / "points.csv"))
    assert main(["reconstruct", "--scenario", "ssh", "--out", str(tmp_path / "b")]) == 0
    assert "warning" not in capsys.readouterr().out


def test_reconstruct_compact_defect_gap_mode(tmp_path):
    out = tmp_path / "defect"
    code = main(["reconstruct", "--scenario", "compact_defect", "--delta", "0.5",
                 "--out", str(out)])
    assert code == 0
    gaps = json.loads((out / "gaps.json").read_text())
    assert len(gaps["gap_modes"]) >= 1


def test_reconstruct_external_matrix(tmp_path):
    from bandrec import matrices
    mat = matrices.ssh_matrix(1.0, 2.0, 5)
    mat_path = tmp_path / "ext.csv"
    matrices.save_matrix(mat, mat_path)
    out = tmp_path / "ext_run"
    code = main(["reconstruct", "--scenario", "external_matrix", "--matrix", str(mat_path),
                 "--k", "2", "--out", str(out)])
    assert code == 0
    rows = read_csv(out / "points.csv")
    assert len(rows) == 21
    summary = json.loads((out / "summary.json").read_text())
    assert summary["matrix_kind"] == "external"
    # with no symbol there is no gap search: the gap mode, row 10, is flagged by its evanescent Bloch fit alone
    assert [row["index"] for row in rows if row["localized"] == "true"] == ["10"]
    assert summary["n_localized"] == 1


@pytest.mark.parametrize("flags,k,n_gap_modes", [
    ([], 1, None),
    (["--symbol", "monomer"], 1, 0),
    (["--symbol", "monomer", "--k", "1"], 1, 0),
    (["--symbol", "dimer"], 2, 0),
    (["--k", "2"], 2, None),
])
def test_external_matrix_takes_its_block_size_from_its_symbol(tmp_path, flags, k, n_gap_modes):
    from bandrec import matrices
    chain = (matrices.chain_capacitance(matrices.dimer_alternation(1.0, 2.0, 79)) if k == 2
             else matrices.capacitance_1d(2.0, -1.0, 80))
    matrices.save_matrix(chain, tmp_path / "m.csv")
    out = tmp_path / "run"
    code = main(["reconstruct", "--scenario", "external_matrix", "--matrix", str(tmp_path / "m.csv"),
                 *flags, "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["params"]["k"] == summary["k"] == k
    assert summary.get("n_gap_modes") == n_gap_modes
    if n_gap_modes is not None:
        assert summary["errors"]["bulk"]["max"] < 0.1


def test_external_matrix_without_a_symbol_reports_no_gap_count(tmp_path, capsys):
    from bandrec import matrices
    matrices.save_matrix(matrices.ssh_matrix(1.0, 2.0, 5), tmp_path / "m.csv")
    out = tmp_path / "run"
    argv = ["reconstruct", "--scenario", "external_matrix", "--matrix", str(tmp_path / "m.csv"),
            "--out", str(out), "--format", "csv,json,svg"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"wrote {out / 'points.csv'}", f"wrote {out / 'summary.json'}",
        "not written without a reference symbol (--symbol): bands.csv, gaps.json, reconstruction.svg",
        "external_matrix: 21 points, 0 localized"]
    assert sorted(p.name for p in out.iterdir()) == ["points.csv", "summary.json"]
    assert main(argv + ["--symbol", "dimer"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "external_matrix: 21 points, 1 gap mode(s), 1 localized"
    assert len(list(out.iterdir())) == 5


RERUNS = {
    "periodic_nn": ["reconstruct", "--scenario", "periodic_nn"],
    "periodic_symbol": ["reconstruct", "--scenario", "periodic_symbol"],
    "ssh": ["reconstruct", "--scenario", "ssh", "--dimers-per-side", "8"],
    "dislocated": ["reconstruct", "--scenario", "dislocated"],
    "compact_defect": ["reconstruct", "--scenario", "compact_defect"],
    "external_matrix": ["reconstruct", "--scenario", "external_matrix", "--matrix", "{matrix}", "--symbol", "dimer"],
    "bands": ["bands", "--symbol", "dimer", "--grid", "512", "--format", "csv,svg"],
    # with periodic_nn, dislocated and compact_defect above, the reference runs of the output contract
    "periodic_nn-m200": ["reconstruct", "--scenario", "periodic_nn", "--m", "200"],
    "periodic_symbol-dimer": ["reconstruct", "--scenario", "periodic_symbol", "--symbol", "dimer"],
    "periodic_symbol-exponential-m40": ["reconstruct", "--scenario", "periodic_symbol", "--symbol", "exponential",
                                        "--m", "40"],
    "ssh-default": ["reconstruct", "--scenario", "ssh"],
    "ssh-dps50-grid1024": ["reconstruct", "--scenario", "ssh", "--dimers-per-side", "50", "--grid", "1024"],
    "compact_defect-delta-0.3": ["reconstruct", "--scenario", "compact_defect", "--delta", "-0.3"],
    "compact_defect-n2000-delta-0.3": ["reconstruct", "--scenario", "compact_defect", "--n", "2000",
                                       "--delta", "-0.3"],
    "compact_defect-n1001": ["reconstruct", "--scenario", "compact_defect", "--n", "1001"],
    "bands-dimer": ["bands", "--symbol", "dimer", "--format", "csv,svg"],
    "bands-monomer": ["bands", "--symbol", "monomer", "--format", "csv,svg"],
    "bands-exponential": ["bands", "--symbol", "exponential", "--format", "csv,svg"],
}


@pytest.mark.parametrize("family", RERUNS)
def test_reconstruct_byte_identical_reruns(tmp_path, monkeypatch, family):
    # The cold run samples and formats its bands; the warm run takes the bands from the memo and
    # keeps their bands.csv bytes; the hot run writes the kept bytes without formatting them.
    matrices.save_matrix(matrices.ssh_matrix(1.0, 2.0, 5), tmp_path / "m.csv")
    argv = [arg.format(matrix=tmp_path / "m.csv") for arg in RERUNS[family]]
    bands = argv[0] == "bands"
    if not bands:
        argv += ["--format", "csv,json,svg"]
    formatted, original = [], outputs.format_bands_csv
    monkeypatch.setattr(outputs, "format_bands_csv", lambda bs: formatted.append(bs) or original(bs))
    outs = []
    for name in ("cold", "warm", "hot"):
        out = tmp_path / name
        assert run_cli(argv + ["--out", str(out)])[0] == 0
        outs.append(out)
    assert len(symbols._band_memo) == 1
    assert len(formatted) == 2 and formatted[0] is formatted[1]
    assert list(outputs._bands_csv.values()) == [(outs[0] / "bands.csv").read_bytes()]
    written = sorted(p.name for p in outs[0].iterdir())
    assert len(written) == (2 if bands else 5)
    for out in outs[1:]:
        assert sorted(p.name for p in out.iterdir()) == written
        for fname in written:
            assert (out / fname).read_bytes() == (outs[0] / fname).read_bytes()


def test_reconstruct_emitted_csv_reparses(tmp_path):
    out = tmp_path / "run"
    main(["reconstruct", "--scenario", "dislocated", "--out", str(out)])
    for row in read_csv(out / "points.csv"):
        float(row["alpha_est"]), float(row["lambda"]), float(row["band_error"])
        assert row["localized"] in ("true", "false")
    alphas = [float(r["alpha"]) for r in read_csv(out / "bands.csv")]
    assert min(alphas) >= -np.pi and max(alphas) < np.pi


def test_reconstruct_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "periodic_nn", "m": 20, "out": str(tmp_path / "c1")}))
    code = main(["reconstruct", "--config", str(cfg)])
    assert code == 0
    assert len(read_csv(tmp_path / "c1" / "points.csv")) == 20
    # explicit flag beats the config value
    code = main(["reconstruct", "--config", str(cfg), "--m", "24", "--out", str(tmp_path / "c2")])
    assert code == 0
    assert len(read_csv(tmp_path / "c2" / "points.csv")) == 24


def _run_into(argv, out, capsys):
    """(exit code, stdout, stderr, {file name: bytes}) of one main call writing into out; out reads as OUT."""
    code = main(argv + ["--out", str(out)])
    printed = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
    return code, printed.out.replace(str(out), "OUT"), printed.err.replace(str(out), "OUT"), files


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys):
    # Each call after the first sets flags or defaults the next one does not, so whatever one
    # parse left behind in the kept parser would change a later call's files or exit code.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "periodic_nn", "m": 20, "format": "csv,json,svg"}))
    calls = [["reconstruct", "--config", str(cfg)],
             ["reconstruct", "--scenario", "ssh", "--dimers-per-side", "6", "--grid", "64",
              "--format", "csv,json"],
             ["bands", "--symbol", "dimer", "--grid", "64", "--format", "csv,svg"],
             ["reconstruct", "--scenario", "periodic_nn", "--delta", "0.5"],
             ["reconstruct", "--config", str(cfg)]]
    alone = []
    for i, argv in enumerate(calls):
        cli.build_parser.cache_clear()  # as the first call of a process
        alone.append(_run_into(argv, tmp_path / f"alone-{i}", capsys))
    cli.build_parser.cache_clear()
    parser = cli.build_parser()
    in_turn = [_run_into(argv, tmp_path / f"in-turn-{i}", capsys) for i, argv in enumerate(calls)]
    assert cli.build_parser() is parser and cli.build_parser.cache_info().currsize == 1
    assert [code for code, *_ in alone] == [0, 0, 0, 1, 0]
    assert alone[3][2] == "error: scenario 'periodic_nn' does not read 'delta'; it takes a0, a1, m\n"
    assert in_turn == alone
    assert alone[4] == alone[0] and len(alone[0][3]) == 5


def test_transform_subcommand(tmp_path, capsys):
    m, s = 16, 4
    alpha = 2 * np.pi * s / m
    u = np.exp(1j * alpha * np.arange(m)) / np.sqrt(m)
    vec = tmp_path / "vec.csv"
    vec.write_text("\n".join(str(complex(x)).strip("()") for x in u) + "\n")
    code = main(["transform", "--vector", str(vec), "--k", "1", "--out", str(tmp_path)])
    assert code == 0
    rows = read_csv(tmp_path / "transform.csv")
    assert len(rows) == m
    masses = {float(r["alpha"]): float(r["mass"]) for r in rows}
    assert abs(sum(masses.values()) - 1.0) < 1e-10
    assert abs(masses[max(masses, key=lambda a: masses[a])] - 1.0) < 1e-10
    out = capsys.readouterr().out
    assert "recovered quasiperiodicity" in out


def _normalised_entries(path):
    """The entries of a vector file as transform reads them: complex, divided by their norm."""
    u = matrices.read_entries(path).ravel()
    return u / np.linalg.norm(u)


@pytest.mark.parametrize("seed,k", [(30, 1), (2, 2), (69, 3)])
def test_transform_takes_the_real_path_for_a_real_vector(tmp_path, capsys, monkeypatch, seed, k):
    # a file whose imaginary parts are all zero reaches the library as the real vector it is: the real and the
    # complex path print the same digits, so the test reads the dtype that the library is handed
    vec = tmp_path / "vec.csv"
    vec.write_text("\n".join(repr(float(x)) for x in np.random.default_rng(seed).normal(size=40)) + "\n")
    fit, handed = transform.discrete_quasiperiodicity, []
    monkeypatch.setattr(transform, "discrete_quasiperiodicity", lambda u, k: handed.append(u.dtype) or fit(u, k))
    assert main(["transform", "--vector", str(vec), "--k", str(k), "--out", str(tmp_path)]) == 0
    assert handed == [np.float64]
    expected = outputs.fmt(fit(transform.zero_pad(_normalised_entries(vec).real, k), k)[0])
    assert capsys.readouterr().out.splitlines()[-1] == f"recovered quasiperiodicity: {expected}"


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_transform_csv_is_the_projection_profile_of_the_complex_entries(tmp_path, kind):
    rng = np.random.default_rng(7)
    v = rng.normal(size=41) + (1j * rng.normal(size=41) if kind == "complex" else 0.0)
    vec = tmp_path / "vec.csv"
    vec.write_text("\n".join(str(complex(x)).strip("()") for x in v) + "\n")
    for k in (1, 2, 3):
        out = tmp_path / f"k{k}"
        assert main(["transform", "--vector", str(vec), "--k", str(k), "--out", str(out)]) == 0
        outputs.write_transform_csv(*transform.projection_profile(transform.zero_pad(_normalised_entries(vec), k), k),
                                    tmp_path / "expected.csv")
        assert (out / "transform.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


def test_transform_pads_odd_length(tmp_path):
    vec = tmp_path / "odd.csv"
    vec.write_text("\n".join(["1.0"] * 9) + "\n")
    code = main(["transform", "--vector", str(vec), "--k", "2", "--out", str(tmp_path)])
    assert code == 0
    rows = read_csv(tmp_path / "transform.csv")
    assert len(rows) == 5  # padded to 10 entries, 5 bins
    assert abs(sum(float(r["mass"]) for r in rows) - 1.0) < 1e-10


@pytest.mark.parametrize("scale", [1e160, 1e-160, 1e-300])
def test_transform_reads_a_vector_at_any_scale(tmp_path, capsys, scale):
    # the norm of the entries as read overflows at 1e160 and loses digits to underflow at 1e-160 and 1e-300
    v = np.random.default_rng(3).normal(size=13) + 1j * np.random.default_rng(4).normal(size=13)
    runs = []
    for a in (1.0, scale):
        vec, out = tmp_path / f"v{a}.csv", tmp_path / f"run{a}"
        vec.write_text("\n".join(str(complex(x * a)).strip("()") for x in v) + "\n")
        assert main(["transform", "--vector", str(vec), "--k", "2", "--out", str(out)]) == 0
        alpha = float(capsys.readouterr().out.split("recovered quasiperiodicity: ")[1])
        runs.append((alpha, np.array([float(r["mass"]) for r in read_csv(out / "transform.csv")])))
    (alpha_1, masses_1), (alpha_a, masses_a) = runs
    assert abs(alpha_a - alpha_1) <= 1e-12
    assert np.max(np.abs(masses_a - masses_1)) <= 1e-12


def test_transform_writes_nothing_when_the_quasiperiodicity_is_refused(tmp_path, monkeypatch):
    def refuse(u, k):
        raise ValueError("refused")
    monkeypatch.setattr(transform, "discrete_quasiperiodicity", refuse)
    monkeypatch.chdir(tmp_path)
    Path("v.csv").write_text("0.6\n0.8\n")
    assert_refused(["transform", "--vector", "v.csv"], "refused")


@pytest.mark.parametrize("argv,message", [
    pytest.param(["bands", "--symbol", '{"k": 1, "coeffs": [{"s": 0, "re": [[2]]}, {"s": 1e20, "re": [[-1]]}, '
                                       '{"s": -1e20, "re": [[-1]]}]}'],
                 "offset s must be a 64-bit integer, got 100000000000000000000", id="offset"),
    pytest.param(["reconstruct", "--scenario", "ssh", "--dimers-per-side", "100000000000000000000"],
                 "Maximum allowed size exceeded", id="dimers-per-side"),
])
def test_a_number_beyond_int64_exits_1_without_a_traceback(tmp_path, argv, message):
    out = tmp_path / "run"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "bandrec.cli", *argv, "--out", str(out)],
                          capture_output=True, text=True, env=env)
    assert (done.returncode, done.stderr, done.stdout) == (1, f"error: {message}\n", "")
    assert "Traceback" not in done.stderr and not out.exists()


def test_an_allocation_the_host_refuses_exits_1_without_a_traceback(tmp_path):
    # the 100000-block section asks for 149 GiB; under a 2 GiB address-space cap that fails up front on any
    # overcommit setting, where an uncapped run might touch it all
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-m", "bandrec.cli", "reconstruct", "--scenario", "periodic_symbol",
                           "--m", "100000"], capture_output=True, text=True, env=env, cwd=tmp_path, preexec_fn=cap)
    message = "Unable to allocate 149. GiB for an array with shape (100000, 1, 100000, 1) and data type complex128"
    assert (done.returncode, done.stderr, done.stdout) == (1, f"error: {message}\n", "")
    assert list(tmp_path.iterdir()) == []


def test_no_run_loads_scipy(tmp_path):
    # numpy is the only runtime dependency; an import of scipy anywhere on these paths would pass every other test
    script = (
        "import sys\n"
        "import bandrec, bandrec.cli, bandrec.verify\n"
        "from bandrec.cli import main\n"
        "out = sys.argv[1]\n"
        "assert main(['reconstruct', '--scenario', 'compact_defect', '--format', 'csv,json,svg',\n"
        "             '--out', out + '/reconstruct']) == 0\n"
        "assert main(['bands', '--symbol', 'dimer', '--format', 'csv,svg', '--out', out + '/bands']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"  # the scipy modules loaded
    assert (tmp_path / "reconstruct" / "reconstruction.svg").exists() and (tmp_path / "bands" / "bands.svg").exists()


def test_verify_only_group(capsys):
    code = main(["verify", "--only", "transform"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_tolerance_injection_fails(monkeypatch, capsys):
    # a registry entry with a tolerance no run can meet: verify prints FAIL and exits 2
    monkeypatch.setattr(verify, "CHECKS", [("acceptance.09_unitarity", verify.acceptance_09_unitarity,
                                            {"tol": 0.0})])
    assert main(["verify"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("FAIL  acceptance.09_unitarity") and out.endswith("0/1 checks passed\n")
