import contextlib
import csv
import io
import json
import os
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
                                             ("csv,svg", ["bands.csv", "bands.svg"]), ("json", None),
                                             ("csv,json", None)])
def test_bands_writes_exactly_the_formats_it_is_given(tmp_path, capsys, formats, written):
    out = tmp_path / "run"
    code = main(["bands", "--symbol", "dimer", "--out", str(out)]
                + (["--format", formats] if formats else []))
    if written is None:
        assert code == 1
        assert capsys.readouterr().err == "error: unknown output formats: ['json']; bands writes csv, svg\n"
        assert not out.exists()
    else:
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == written


@pytest.mark.parametrize("argv,message", [
    (["reconstruct", "--scenario", "ssh", "--format", ""], "reconstruct writes csv, json, svg"),
    (["bands", "--symbol", "dimer", "--format", ","], "bands writes csv, svg"),
])
def test_an_empty_format_list_is_refused(tmp_path, capsys, argv, message):
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: no output format given; {message}\n" and captured.out == ""
    assert not out.exists()


def test_bands_malformed_symbol(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(json.JSONDecodeError) as exc:
        json.loads("{not json")
    code = main(["bands", "--symbol", str(bad), "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr() == ("", f"error: {exc.value}\n")
    assert not (tmp_path / "bands.csv").exists()


def test_bands_refuses_non_finite_symbol(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["bands", "--symbol", '{"k":1,"coeffs":[{"s":0,"re":[[NaN]]}]}',
                 "--grid", "16", "--out", str(out)])
    assert code == 1
    assert "offset 0 has non-finite (NaN or inf) entries" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("symbol,message", [
    ('{"k":1,"coeffs":[{"s":0,"re":[[2.0]]},{"s":1.5,"re":[[-1.0]]},{"s":-1.5,"re":[[-1.0]]}]}',
     "offset s must be an integer, got 1.5"),
    ('{"k":true,"coeffs":[{"s":0,"re":[[2.0]]}]}', "block size must be an integer, got True"),
    ('{"k":1.7,"coeffs":[{"s":0,"re":[[2.0]]}]}', "block size must be an integer, got 1.7"),
    ('{"k":"1","coeffs":[{"s":0,"re":[[2.0]]}]}', "block size must be an integer, got '1'"),
    ('{"k":1,"coeffs":[{"s":0,"re":[[2.0]]},{"s":0,"re":[[3.0]]}]}', "offset 0 is given twice"),
    ('{"k":1,"coeffs":[{"s":0,"re":[[2.0]]}],"tail_bnd":0.1}',
     "symbol description does not read tail_bnd; it takes k, coeffs, tail_bound"),
    ('{"k":1,"coeffs":[{"s":0,"re":[[2.0]],"imag":[[1.0]]}]}',
     "coefficient block at offset 0 does not read imag; it takes s, re, im"),
    ('{"k":1,"coeffs":[{"s":0,"re":[[2.0]]}],"tail_bound":-0.5}',
     "tail bound must be finite and nonnegative, got -0.5"),
    ('{"k":1,"coeffs":[{"s":0,"re":[[2.0]]}],"tail_bound":Infinity}',
     "tail bound must be finite and nonnegative, got inf"),
    ('{"k":1,"coeffs":[{"s":0,"re":[[2.0]]}],"tail_bound":null}', "tail_bound must be a number, got None"),
])
def test_bands_refuses_a_symbol_it_would_misread(tmp_path, capsys, symbol, message):
    out = tmp_path / "run"
    assert main(["bands", "--symbol", symbol, "--grid", "16", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_a_matrix_or_vector_file_with_a_key_nothing_reads_is_refused(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"re": [[2, 0], [0, 2]], "imag": [[0, 1], [-1, 0]]}')  # im misspelt
    out = tmp_path / "run"
    assert main(["reconstruct", "--scenario", "external_matrix", "--matrix", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path} does not read imag; it takes re, im\n"
    path.write_text('{"re": [0.6, 0.8], "imag": [0, 0]}')
    assert main(["transform", "--vector", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path} does not read imag; it takes re, im\n"
    assert not out.exists()


def test_a_symbol_file_carries_its_tail_bound_into_the_summary(tmp_path):
    symbols.save_symbol(symbols.exponential_symbol(), tmp_path / "exp.json")
    runs = {}
    for name, source in (("builtin", "exponential"), ("file", str(tmp_path / "exp.json"))):
        assert main(["reconstruct", "--scenario", "periodic_symbol", "--symbol", source,
                     "--out", str(tmp_path / name)]) == 0
        runs[name] = json.loads((tmp_path / name / "summary.json").read_text())["params"]
    assert runs["file"]["truncation_tail_bound"] == runs["builtin"]["truncation_tail_bound"] == 1.81898940354586e-12
    assert (tmp_path / "file" / "points.csv").read_bytes() == (tmp_path / "builtin" / "points.csv").read_bytes()


def test_reconstruct_refuses_json_matrix_without_re(tmp_path, capsys):
    mat_path = tmp_path / "m.json"
    mat_path.write_text('{"im": [[0.0]]}')
    out = tmp_path / "run"
    code = main(["reconstruct", "--scenario", "external_matrix", "--matrix", str(mat_path),
                 "--out", str(out)])
    assert code == 1
    assert "expected an object with an 're' array" in capsys.readouterr().err
    assert not out.exists()


def test_mismatched_imaginary_part_is_refused(tmp_path, capsys):
    mat_path = tmp_path / "m.json"
    mat_path.write_text('{"re": [[1, 0], [0, 1]], "im": [[0.0]]}')
    out = tmp_path / "run"
    code = main(["reconstruct", "--scenario", "external_matrix", "--matrix", str(mat_path),
                 "--out", str(out)])
    assert code == 1
    assert "'im' has shape (1, 1) but 're' has shape (2, 2)" in capsys.readouterr().err
    code = main(["bands", "--symbol", '{"k": 1, "coeffs": [{"s": 0, "re": [[2]], "im": [0, 0]}]}',
                 "--out", str(out)])
    assert code == 1
    assert "'im' has shape (2,) but 're' has shape (1, 1)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text,message", [
    ("", "empty matrix file"),
    ("2,-1\n-1\n", "the number of columns changed from 2 to 1"),
    ("2,x\n-1,2\n", "could not convert string 'x'"),
    ("1,2,3\n4,5,6\n", "matrix is not square, shape (2, 3)"),
])
def test_reconstruct_refuses_a_malformed_matrix_csv(tmp_path, capsys, text, message):
    mat_path = tmp_path / "m.csv"
    mat_path.write_text(text)
    out = tmp_path / "run"
    code = main(["reconstruct", "--scenario", "external_matrix", "--matrix", str(mat_path),
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {mat_path}: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("grid", [3, 15, 16, 33])
def test_reconstruct_refuses_a_grid_that_misses_the_band_edges(tmp_path, capsys, grid):
    out = tmp_path / "run"
    code = main(["reconstruct", "--scenario", "ssh", "--grid", str(grid), "--out", str(out)])
    if grid == 16:
        assert code == 0
        assert len(json.loads((out / "gaps.json").read_text())["gap_modes"]) == 1
    else:
        assert code == 1
        assert capsys.readouterr().err == f"error: grid must be an even number of at least 16, got {grid}\n"
        assert not out.exists()


@pytest.mark.parametrize("grid", [3, 15, 16])
def test_bands_refuses_a_grid_that_misses_the_band_edges(tmp_path, capsys, grid):
    out = tmp_path / "run"
    code = main(["bands", "--symbol", "dimer", "--grid", str(grid), "--out", str(out)])
    captured = capsys.readouterr()
    if grid == 16:
        assert code == 0
        assert "band gaps: (1, 2)" in captured.out
    else:
        assert code == 1
        assert captured.err == f"error: grid must be an even number of at least 16, got {grid}\n"
        assert not (out / "bands.csv").exists()


def test_reconstruct_refuses_non_integer_config_value(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "ssh", "dimers_per_side": [3]}))
    out = tmp_path / "run"
    code = main(["reconstruct", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    assert "dimers_per_side must be an integer, got [3]" in capsys.readouterr().err
    assert not out.exists()


SCALED_SYMBOL = '{"k":1,"coeffs":[{"s":0,"re":[[1e6]]},{"s":1,"re":[[1.0000005]]},{"s":-1,"re":[[1.0]]}]}'
MONOMER_OBJECT = symbols.symbol_to_dict(symbols.nearest_neighbour_symbol(2.0, -1.0))


@pytest.mark.parametrize("command,config,message", [
    ("reconstruct", {"scenario": "ssh", "out": 5}, "out must be a string, got 5"),
    ("reconstruct", {"scenario": "ssh", "format": 5}, "format must be a string, got 5"),
    ("reconstruct", {"scenario": "external_matrix", "matrix": 7}, "matrix must be a string, got 7"),
    ("reconstruct", {"scenario": "periodic_symbol", "symbol": 0},
     "symbol must be a string or an object, got 0"),
    ("bands", {"symbol": 0}, "symbol must be a string or an object, got 0"),
    ("transform", {"vector": "v.csv", "k": [2]}, "block size must be an integer, got [2]"),
    ("reconstruct", {"scenario": "periodic_nn", "m": 24.7}, "m must be an integer, got 24.7"),
    ("reconstruct", {"scenario": "ssh", "dimers_per_side": True},
     "dimers_per_side must be an integer, got True"),
    ("reconstruct", {"scenario": "ssh", "s1": False}, "s1 must be a number, got False"),
    ("reconstruct", {"scenario": ["ssh"]}, "scenario must be one of periodic_nn, periodic_symbol, "
                                           "ssh, dislocated, compact_defect, external_matrix, got ['ssh']"),
    ("bands", [1, 2], "cfg.json: bands: expected an object, got list"),
    ("reconstruct", {"scenario": "ssh", "dimers_per_side": "5"}, "dimers_per_side must be an integer, got '5'"),
    ("reconstruct", {"scenario": "ssh", "s1": "1.5"}, "s1 must be a number, got '1.5'"),
])
def test_config_values_of_the_wrong_type_are_refused(tmp_path, monkeypatch, capsys, command,
                                                     config, message):
    (tmp_path / "v.csv").write_text("1\n0\n")
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    monkeypatch.chdir(tmp_path)
    code = main([command, "--config", "cfg.json"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "v.csv"]


@pytest.mark.parametrize("argv,config,message", [
    (["reconstruct", "--scenario", "ssh", "--m", "7", "--delta", "0.3"], None,
     "scenario 'ssh' does not read m, delta; it takes s1, s2, dimers_per_side"),
    (["reconstruct"], {"scenario": "ssh", "dimers_per_sid": 500},
     "scenario 'ssh' does not read dimers_per_sid; it takes s1, s2, dimers_per_side"),
    (["reconstruct", "--scenario", "compact_defect"], {"d": 3.0},
     "scenario 'compact_defect' does not read d; it takes s1, s2, n, delta, index"),
    (["bands"], {"symbol": "dimer", "grdi": 8},
     "cfg.json: bands does not read grdi; it takes symbol, out, format, grid"),
    (["transform", "--vector", "v.csv"], {"grid": 8},
     "cfg.json: transform does not read grid; it takes vector, k, out"),
])
def test_keys_nothing_reads_are_refused(tmp_path, monkeypatch, capsys, argv, config, message):
    (tmp_path / "v.csv").write_text("1\n0\n")
    (tmp_path / "cfg.json").write_text(json.dumps(config or {}))
    monkeypatch.chdir(tmp_path)
    code = main(argv + (["--config", "cfg.json"] if config else []))
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "v.csv"]


@pytest.mark.parametrize("argv,message", [
    (["--s1", "0"], "spacings must be positive"),
    (["--s2", "0"], "spacings must be positive"),
    (["--s1", "inf"], "spacings must be finite"),
    (["--s2=-inf"], "spacings must be finite"),
])
def test_reconstruct_refuses_values_the_method_cannot_use(tmp_path, capsys, argv, message):
    out = tmp_path / "run"
    assert main(["reconstruct", "--scenario", "ssh", *argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_the_margin_flag_is_gone(tmp_path, capsys):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["reconstruct", "--scenario", "ssh", "--margin", "0.1", "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --margin 0.1\n")
    assert not out.exists()


def test_a_margin_config_key_is_refused(tmp_path, monkeypatch, capsys):
    (tmp_path / "cfg.json").write_text(json.dumps({"scenario": "ssh", "margin": 0.1}))
    monkeypatch.chdir(tmp_path)
    assert main(["reconstruct", "--config", "cfg.json"]) == 1
    assert capsys.readouterr() == ("", "error: scenario 'ssh' does not read margin; "
                                       "it takes s1, s2, dimers_per_side\n")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


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


def test_transform_k_zero_flag_is_refused(tmp_path, capsys):
    (tmp_path / "v.csv").write_text("1\n0\n")
    code = main(["transform", "--vector", str(tmp_path / "v.csv"), "--k", "0",
                 "--out", str(tmp_path / "run")])
    assert code == 1
    assert capsys.readouterr() == ("", "error: block size must be at least 1, got 0\n")
    assert not (tmp_path / "run").exists()


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


def test_bands_warns_when_an_assumption_check_fails(tmp_path, capsys):
    flat = '{"k":1,"coeffs":[{"s":0,"re":[[2.0]]}]}'  # one constant band: zero slope everywhere
    assert main(["bands", "--symbol", flat, "--grid", "16", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "warning: assumption checks failed: interior slope as small as 0")


def test_reconstruct_refuses_bands_that_are_not_even(tmp_path, capsys, monkeypatch):
    def no_eigensolve(matrix):
        raise AssertionError("the eigensolve ran before the evenness check")

    monkeypatch.setattr("bandrec.reconstruct.hermitian_eigen", no_eigensolve)
    sym_path = tmp_path / "odd.json"
    symbols.save_symbol(symbols.Symbol(k=1, coeffs={0: [[2.0]], 1: [[1j]], -1: [[-1j]]}), sym_path)
    out = tmp_path / "run"
    code = main(["reconstruct", "--scenario", "periodic_symbol", "--m", "100",
                 "--symbol", str(sym_path), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: the reference bands are not even in alpha")
    assert not out.exists()


# lambda(alpha) = (2 - 2 sin alpha) 1e-9: the odd symbol above at 1e-9 scale
SMALL_ODD = ('{"k":1,"coeffs":[{"s":0,"re":[[2e-9]]},{"s":1,"re":[[0]],"im":[[1e-9]]},'
             '{"s":-1,"re":[[0]],"im":[[-1e-9]]}]}')


@pytest.mark.parametrize("argv,message", [
    pytest.param(["--scenario", "compact_defect", "--delta", "nan"], "need -1 < delta < inf, got delta = nan",
                 id="delta-nan"),
    pytest.param(["--scenario", "compact_defect", "--delta", "inf"], "need -1 < delta < inf, got delta = inf",
                 id="delta-inf"),
    pytest.param(["--scenario", "periodic_symbol", "--m", "40", "--symbol", SMALL_ODD],
                 "the reference bands are not even in alpha: max|lambda(alpha) - lambda(-alpha)| = 4e-09, "
                 "and only |alpha| is recovered", id="odd-symbol-1e-9"),
    pytest.param(["--scenario", "external_matrix", "--matrix", "{tiny}"],
                 "hermitian_eigen needs a Hermitian matrix, one with max|A - A^H| <= 1e-12 * max|A|",
                 id="matrix-1e-13"),
])
def test_reconstruct_refuses_what_it_cannot_solve_at_any_scale(tmp_path, capsys, argv, message):
    (tmp_path / "tiny.csv").write_text("0,1e-13\n0,0\n")
    out = tmp_path / "run"
    argv = [a.replace("{tiny}", str(tmp_path / "tiny.csv")) for a in argv]
    assert main(["reconstruct", *argv, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def _exit_code_of(argv):
    """Run the CLI quietly; an exception other than the handled ones fails the test."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


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
        code = _exit_code_of(["reconstruct", "--scenario", "external_matrix",
                              "--matrix", str(path), "--out", str(Path(tmp) / "run")])
    assert code in (0, 1)


@settings(max_examples=60, deadline=None)
@given(INPUT_TEXT)
def test_arbitrary_symbol_argument_exits_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        code = _exit_code_of(["bands", f"--symbol={text}", "--grid", "16", "--out", tmp])
    assert code in (0, 1)


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
                       "the points were not compared with the bands")
    assert summary == "ssh: 13 points, 1 gap mode(s), 1 localized"
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
    assert len(read_csv(out / "points.csv")) == 21
    summary = json.loads((out / "summary.json").read_text())
    assert summary["matrix_kind"] == "external"


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


@pytest.mark.parametrize("symbol,k", [("monomer", 2), ("dimer", 1), ("dimer", 3)])
def test_external_matrix_refuses_a_block_size_other_than_its_symbols(tmp_path, capsys, symbol, k):
    from bandrec import matrices
    matrices.save_matrix(matrices.capacitance_1d(2.0, -1.0, 80), tmp_path / "m.csv")
    out = tmp_path / "run"
    code = main(["reconstruct", "--scenario", "external_matrix", "--matrix", str(tmp_path / "m.csv"),
                 "--symbol", symbol, "--k", str(k), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (f"error: k = {k} differs from the block size "
                                       f"{2 if symbol == 'dimer' else 1} of the reference symbol\n")
    assert not out.exists()


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


def test_reconstruct_refuses_non_finite_input(tmp_path, capsys):
    mat_path = tmp_path / "nan.csv"
    mat_path.write_text("2,nan\nnan,2\n")
    out = tmp_path / "run"
    assert main(["reconstruct", "--scenario", "ssh", "--s1", "nan", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: spacings must be finite\n"
    assert main(["reconstruct", "--scenario", "external_matrix", "--matrix", str(mat_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: matrix has ") and "non-finite (NaN or inf) entries" in err
    assert not out.exists()


@pytest.mark.parametrize("n", [1, 0, -3])
def test_a_compact_defect_of_fewer_than_two_sites_is_refused(tmp_path, capsys, n):
    out = tmp_path / "run"
    assert main(["reconstruct", "--scenario", "compact_defect", "--n", str(n), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: chain sites must be at least 2, got {n}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--scenario", "dislocated", "--d", "inf"],
                                  ["--scenario", "compact_defect", "--s2", "inf"]])
def test_a_spacing_that_is_not_finite_is_refused(tmp_path, capsys, argv):
    # an infinite spacing would decouple its neighbours and write "Infinity", not JSON, into summary.json
    out = tmp_path / "run"
    assert main(["reconstruct", *argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: spacings must be finite\n"
    assert not out.exists()


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
        assert _exit_code_of(argv + ["--out", str(out)]) == 0
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


@pytest.mark.parametrize("argv", [["reconstruct", "--scenario", "ssh", "--jobs", "2"],
                                  ["bands", "--seed", "1"],
                                  ["transform", "--vector", "v.csv", "--grid", "8"]])
def test_unread_flags_are_rejected(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_reconstruct_requires_scenario(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the default output directory
    code = main(["reconstruct"])
    assert code == 1
    scenarios = ", ".join(reconstruct.SCENARIOS)
    assert capsys.readouterr() == ("", f"error: scenario must be one of {scenarios}, got None\n")
    assert not any(tmp_path.iterdir())


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
    assert "does not read delta" in alone[3][2]
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
def test_transform_takes_the_real_path_for_a_real_vector(tmp_path, capsys, seed, k):
    # at these inputs the complex fft path prints a different 15th digit than the real rfft one
    vec = tmp_path / "vec.csv"
    vec.write_text("\n".join(repr(float(x)) for x in np.random.default_rng(seed).normal(size=40)) + "\n")
    assert main(["transform", "--vector", str(vec), "--k", str(k), "--out", str(tmp_path)]) == 0
    u = transform.zero_pad(_normalised_entries(vec).real, k)
    assert u.dtype == np.float64
    expected = outputs.fmt(transform.discrete_quasiperiodicity(u, k))
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


@pytest.mark.parametrize("entries,message", [
    (["0.6", "nan", "0.8"], "1 non-finite (NaN or inf) entries, the first at entry 2"),
    (["1", "0", "inf", "-inf+1j"], "2 non-finite (NaN or inf) entries, the first at entry 3"),
])
def test_transform_refuses_non_finite_entries(tmp_path, capsys, entries, message):
    vec = tmp_path / "v.csv"
    vec.write_text("\n".join(entries) + "\n")
    out = tmp_path / "run"
    code = main(["transform", "--vector", str(vec), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: vector has {message}\n" and captured.out == ""
    assert not out.exists()


def test_transform_refuses_a_matrix_file(tmp_path, capsys):
    vec = tmp_path / "eye.csv"
    vec.write_text("1,0,0\n0,1,0\n0,0,1\n")
    out = tmp_path / "run"
    assert main(["transform", "--vector", str(vec), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {vec}: a vector file holds one row or one column, got shape (3, 3)\n"
    assert captured.out == "" and not out.exists()


def test_transform_refuses_a_zero_vector(tmp_path, capsys):
    vec = tmp_path / "zero.csv"
    vec.write_text("0\n0\n0\n0\n")
    out = tmp_path / "run"
    assert main(["transform", "--vector", str(vec), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: vector is zero\n"
    assert captured.out == "" and not out.exists()


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


def test_transform_writes_nothing_when_the_quasiperiodicity_is_refused(tmp_path, capsys, monkeypatch):
    def refuse(u, k):
        raise ValueError("refused")
    monkeypatch.setattr(transform, "discrete_quasiperiodicity", refuse)
    vec, out = tmp_path / "v.csv", tmp_path / "run"
    vec.write_text("0.6\n0.8\n")
    assert main(["transform", "--vector", str(vec), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: refused\n"
    assert not out.exists()


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


def test_transform_missing_vector(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the default output directory
    assert main(["transform"]) == 1
    assert capsys.readouterr() == ("", "error: transform needs --vector\n")
    assert not any(tmp_path.iterdir())


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


def test_verify_takes_no_tolerance_flag(capsys):
    with pytest.raises(SystemExit) as exc:  # an argparse usage error
        main(["verify", "--tol", "x=0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol x=0" in capsys.readouterr().err


def test_verify_unknown_filter(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--only", "nonexistent_group"]) == 1
    assert capsys.readouterr() == ("", "error: no checks match 'nonexistent_group'\n")
    assert not any(tmp_path.iterdir())
