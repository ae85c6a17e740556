import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bandrec import symbols
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


def test_bands_malformed_symbol(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["bands", "--symbol", str(bad), "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_bands_refuses_non_finite_symbol(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["bands", "--symbol", '{"k":1,"coeffs":[{"s":0,"re":[[NaN]]}]}',
                 "--grid", "16", "--out", str(out)])
    assert code == 1
    assert "offset 0 has non-finite (NaN or inf) entries" in capsys.readouterr().err
    assert not out.exists()


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
    ("transform", {"vector": "v.csv", "k": [2]}, "k must be an integer, got [2]"),
    ("reconstruct", {"scenario": "periodic_nn", "m": 24.7}, "m must be an integer, got 24.7"),
    ("reconstruct", {"scenario": "ssh", "dimers_per_side": True},
     "dimers_per_side must be an integer, got True"),
    ("reconstruct", {"scenario": "ssh", "s1": False}, "s1 must be a number, got False"),
    ("reconstruct", {"scenario": "ssh", "params": 5}, "params must be an object, got 5"),
    ("reconstruct", {"scenario": ["ssh"]}, "scenario must be one of periodic_nn, periodic_symbol, "
                                           "ssh, dislocated, compact_defect, external_matrix, got ['ssh']"),
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
    (["reconstruct", "--scenario", "compact_defect"], {"params": {"d": 3.0}},
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
    (["--margin", "nan"], "margin must be finite and nonnegative, got nan"),
    (["--margin", "inf"], "margin must be finite and nonnegative, got inf"),
    (["--s1", "0"], "spacings must be positive"),
    (["--s2", "0"], "spacings must be positive"),
])
def test_reconstruct_refuses_values_the_method_cannot_use(tmp_path, capsys, argv, message):
    out = tmp_path / "run"
    assert main(["reconstruct", "--scenario", "ssh", *argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_transform_k_zero_flag_is_refused(tmp_path, capsys):
    (tmp_path / "v.csv").write_text("1\n0\n")
    code = main(["transform", "--vector", str(tmp_path / "v.csv"), "--k", "0",
                 "--out", str(tmp_path / "run")])
    assert code == 1
    assert "k must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_inline_symbol_object_in_a_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"symbol": MONOMER_OBJECT, "grid": 16, "out": str(tmp_path / "b")}))
    assert main(["bands", "--config", str(cfg)]) == 0
    assert len(read_csv(tmp_path / "b" / "bands.csv")) == 16
    from bandrec import matrices
    matrices.save_matrix(matrices.capacitance_1d(2.0, -1.0, -1.0, 12), tmp_path / "m.csv")
    cfg.write_text(json.dumps({"scenario": "external_matrix", "matrix": str(tmp_path / "m.csv"),
                               "symbol": MONOMER_OBJECT, "out": str(tmp_path / "r")}))
    assert main(["reconstruct", "--config", str(cfg)]) == 0
    assert json.loads((tmp_path / "r" / "summary.json").read_text())["n_gaps"] == 0


def test_bands_accepts_a_large_scale_hermitian_symbol(tmp_path):
    assert main(["bands", "--symbol", SCALED_SYMBOL, "--grid", "16", "--out", str(tmp_path)]) == 0


def test_reconstruct_refuses_bands_that_are_not_even(tmp_path, capsys):
    sym_path = tmp_path / "odd.json"
    symbols.save_symbol(symbols.Symbol(k=1, coeffs={0: [[2.0]], 1: [[1j]], -1: [[-1j]]}), sym_path)
    out = tmp_path / "run"
    code = main(["reconstruct", "--scenario", "periodic_symbol", "--m", "100",
                 "--symbol", str(sym_path), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: the reference bands are not even in alpha")
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


def test_reconstruct_compact_defect_gap_mode(tmp_path):
    out = tmp_path / "defect"
    code = main(["reconstruct", "--scenario", "compact_defect", "--delta", "0.5",
                 "--out", str(out)])
    assert code == 0
    gaps = json.loads((out / "gaps.json").read_text())
    assert len(gaps["gap_modes"]) >= 1


def test_reconstruct_external_matrix(tmp_path):
    from bandrec import matrices
    mat = matrices.ssh_matrix(m=5, **matrices.ssh_params_from_spacings(1.0, 2.0))
    mat_path = tmp_path / "ext.csv"
    matrices.save_matrix(mat, mat_path)
    out = tmp_path / "ext_run"
    code = main(["reconstruct", "--scenario", "external_matrix", "--matrix", str(mat_path),
                 "--k", "2", "--out", str(out)])
    assert code == 0
    assert len(read_csv(out / "points.csv")) == 21
    summary = json.loads((out / "summary.json").read_text())
    assert summary["matrix_kind"] == "external"


def test_reconstruct_refuses_non_finite_input(tmp_path, capsys):
    mat_path = tmp_path / "nan.csv"
    mat_path.write_text("2,nan\nnan,2\n")
    for argv in (["--scenario", "ssh", "--s1", "nan"],
                 ["--scenario", "external_matrix", "--matrix", str(mat_path)]):
        out = tmp_path / "run"
        assert main(["reconstruct", *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: matrix has ") and "non-finite (NaN or inf) entries" in err
        assert not out.exists()


def test_reconstruct_byte_identical_reruns(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["reconstruct", "--scenario", "ssh", "--dimers-per-side", "8",
                     "--out", str(out), "--format", "csv,json,svg"])
        assert code == 0
        outs.append(out)
    for fname in ("points.csv", "bands.csv", "gaps.json", "summary.json", "reconstruction.svg"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


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


def test_reconstruct_requires_scenario(capsys):
    code = main(["reconstruct"])
    assert code == 1
    assert "scenario" in capsys.readouterr().err


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


def test_transform_pads_odd_length(tmp_path):
    vec = tmp_path / "odd.csv"
    vec.write_text("\n".join(["1.0"] * 9) + "\n")
    code = main(["transform", "--vector", str(vec), "--k", "2", "--out", str(tmp_path)])
    assert code == 0
    rows = read_csv(tmp_path / "transform.csv")
    assert len(rows) == 5  # padded to 10 entries, 5 bins
    assert abs(sum(float(r["mass"]) for r in rows) - 1.0) < 1e-10


def test_transform_missing_vector():
    assert main(["transform"]) == 1


def test_verify_only_group(capsys):
    code = main(["verify", "--only", "transform"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_tolerance_injection_fails(capsys):
    code = main(["verify", "--only", "acceptance.09_unitarity",
                 "--tol", "acceptance.09_unitarity.tol=0"])
    assert code == 2
    assert "FAIL" in capsys.readouterr().out


def test_verify_unknown_filter():
    assert main(["verify", "--only", "nonexistent_group"]) == 1


def test_verify_bad_tol_syntax():
    assert main(["verify", "--tol", "oops"]) == 1
