"""The files the writers emit hold exactly the arrays they are given."""

import csv
import re
import weakref
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from bandrec import cli, matrices, outputs, symbols
from bandrec.reconstruct import run_scenario

SVG = "{http://www.w3.org/2000/svg}"


def e14(x):
    return format(float(x), ".14e")


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(params=["ssh", "external_matrix"])
def run(request, tmp_path):
    """A small ssh run, and an external_matrix run without a symbol, written in every format."""
    if request.param == "ssh":
        result = run_scenario({"scenario": "ssh", "dimers_per_side": 5, "grid": 32})
    else:
        matrices.save_matrix(matrices.ssh_matrix(1.0, 2.0, 5), tmp_path / "m.csv")
        result = run_scenario({"scenario": "external_matrix", "matrix": str(tmp_path / "m.csv")})
    outputs.write_bundle(result, tmp_path / "out", ("csv", "json", "svg"))
    return result, tmp_path / "out"


@pytest.mark.parametrize("formats,unknown", [(("xml",), ["xml"]), (("csv", "JSON"), ["JSON"]),
                                             ("svgcsv", ["c", "g", "s", "v"])])  # a bare string is its letters
def test_write_bundle_refuses_a_format_it_has_no_writer_for(tmp_path, formats, unknown):
    result = run_scenario({"scenario": "ssh", "dimers_per_side": 2, "grid": 32})
    with pytest.raises(ValueError, match="^" + re.escape(f"unknown output formats: {unknown}; write_bundle writes "
                                                         "csv, json, svg") + "$"):
        outputs.write_bundle(result, tmp_path / "out", formats)
    assert not (tmp_path / "out").exists()
    assert cli.FORMATS["reconstruct"] == outputs.BUNDLE_FORMATS == ("csv", "json", "svg")


def test_points_csv_holds_every_entry_at_15_digits(run):
    result, out = run
    p = result.points
    rows = read_rows(out / "points.csv")
    assert len(rows) == len(p) == 21
    assert [r["index"] for r in rows] == [str(i) for i in range(len(p))]
    for column, values in (("alpha_est", p.alpha_est), ("lambda", p.lam),
                           ("sup_ratio", p.sup_ratio), ("ipr", p.ipr)):
        assert [r[column] for r in rows] == [e14(x) for x in values], column
    assert [r["localized"] for r in rows] == ["true" if f else "false" for f in p.localized]
    if result.bands is None:
        assert p.band_error is None and all(r["band_error"] == "" for r in rows)
    else:
        assert [r["band_error"] for r in rows] == [e14(x) for x in p.band_error]


def test_bands_csv_holds_every_grid_value_at_15_digits(run):
    result, out = run
    bs = result.bands
    if bs is None:
        assert sorted(f.name for f in out.iterdir()) == ["points.csv", "summary.json"]
        return
    rows = read_rows(out / "bands.csv")
    assert len(rows) == bs.k * bs.m == 64
    for i, r in enumerate(rows):
        p, j = divmod(i, bs.m)
        assert r == {"alpha": e14(bs.alphas[j]), "band_index": str(p + 1),
                     "lambda": e14(bs.values[p, j]), "dlambda": e14(bs.derivatives[p, j])}


def test_reconstruction_svg_draws_each_band_and_each_point(run):
    result, out = run
    if result.bands is None:
        assert not (out / "reconstruction.svg").exists()
        return
    root = ET.parse(out / "reconstruction.svg").getroot()
    polylines = root.findall(f"{SVG}polyline")
    assert len(polylines) == result.bands.k == 2
    assert all(len(pl.get("points").split()) == 257 for pl in polylines)
    circles = root.findall(f"{SVG}circle")
    assert len(circles) == len(result.points)
    assert [c.get("r") == "4" for c in circles] == result.points.localized.tolist()
    assert 0 < np.count_nonzero(result.points.localized) < len(result.points)


def test_a_constant_band_is_drawn_across_the_middle(tmp_path):
    bs = symbols.band_functions(symbols.nearest_neighbour_symbol(1e6, 0.0), 16)
    outputs.write_bands_svg(bs, tmp_path / "b.svg")
    (polyline,) = ET.parse(tmp_path / "b.svg").getroot().findall(f"{SVG}polyline")
    points = [xy.split(",") for xy in polyline.get("points").split()]
    assert [x for x, _ in points[::15]] == ["56.00", "664.00"]
    assert {y for _, y in points} == {"240.00"}


def test_transform_csv_is_sorted_by_alpha(tmp_path):
    alphas, masses = np.array([0.0, 2.5, -2.5, 1.0]), np.array([0.1, 0.2, 0.3, 0.4])
    outputs.write_transform_csv(alphas, masses, tmp_path / "transform.csv")
    rows = read_rows(tmp_path / "transform.csv")
    assert [(r["alpha"], r["mass"]) for r in rows] == [(e14(a), e14(m)) for a, m in
                                                       ((-2.5, 0.3), (0.0, 0.1), (1.0, 0.4), (2.5, 0.2))]


def _count_formatting(monkeypatch) -> list:
    formatted, original = [], outputs.format_bands_csv
    monkeypatch.setattr(outputs, "format_bands_csv", lambda bs: formatted.append(bs) or original(bs))
    return formatted


@pytest.mark.parametrize("m", [16, 512])
@pytest.mark.parametrize("sym", [symbols.nearest_neighbour_symbol(2.0, -1.0), symbols.dimer_symbol(1.0, 2.0)],
                         ids=["k1", "k2"])
def test_bands_csv_bytes_are_kept_from_the_second_write_on(tmp_path, monkeypatch, sym, m):
    bs = symbols.band_functions(sym, m)
    expected = outputs.format_bands_csv(bs)
    formatted = _count_formatting(monkeypatch)
    kept = []
    for i in range(3):
        outputs.write_bands_csv(bs, tmp_path / f"{i}.csv")
        kept.append(outputs._bands_csv[bs])
        assert (tmp_path / f"{i}.csv").read_bytes() == expected
    assert kept[0] is None and kept[1] == expected and kept[2] is kept[1]
    assert formatted == [bs, bs]  # the third write copies the kept bytes


def _evict_with_new_symbols():
    """Sample BAND_MEMO_SIZE symbols the memo has not seen, which drops every entry it held before."""
    for i in range(symbols.BAND_MEMO_SIZE):
        symbols.band_functions(symbols.nearest_neighbour_symbol(10.0 + i, -1.0), 16)


def test_kept_bytes_live_as_long_as_their_band_structure(tmp_path):
    bs = symbols.band_functions(symbols.nearest_neighbour_symbol(2.0, -1.0), 16)
    for _ in range(2):
        outputs.write_bands_csv(bs, tmp_path / "bands.csv")
    _evict_with_new_symbols()  # a ninth symbol: bs leaves the memo
    assert all(kept is not bs for kept in symbols._band_memo.values())
    assert outputs._bands_csv[bs] == (tmp_path / "bands.csv").read_bytes()  # the caller still holds bs
    ref = weakref.ref(bs)
    del bs
    assert ref() is None and len(outputs._bands_csv) == 0


def test_emptying_the_band_memo_empties_the_kept_bytes(tmp_path):
    for name in ("monomer", "dimer", "monomer", "dimer"):
        assert cli.main(["bands", "--symbol", name, "--grid", "16", "--out", str(tmp_path)]) == 0
    assert len(outputs._bands_csv) == 2 and all(outputs._bands_csv.values())
    symbols._band_memo.clear()
    assert len(outputs._bands_csv) == 0


def test_a_symbol_sampled_again_after_eviction_writes_its_first_bytes(tmp_path):
    sym = symbols.dimer_symbol(1.0, 2.0)
    ref = weakref.ref(symbols.band_functions(sym, 64))
    for i in range(5):
        if i == 2:
            _evict_with_new_symbols()
            assert ref() is None and len(outputs._bands_csv) == 0
        outputs.write_bands_csv(symbols.band_functions(sym, 64), tmp_path / f"{i}.csv")
    first = (tmp_path / "0.csv").read_bytes()
    assert [(tmp_path / f"{i}.csv").read_bytes() for i in range(1, 5)] == [first] * 4
    assert list(outputs._bands_csv.values()) == [first]


def test_an_equal_band_structure_built_apart_formats_its_own_bytes(tmp_path, monkeypatch):
    bs = symbols.band_functions(symbols.dimer_symbol(1.0, 2.0), 64)
    for _ in range(2):
        outputs.write_bands_csv(bs, tmp_path / "a.csv")
    twin = symbols.BandStructure(alphas=bs.alphas.copy(), values=bs.values.copy(),
                                 vectors=bs.vectors.copy(), derivatives=bs.derivatives.copy())
    formatted = _count_formatting(monkeypatch)
    outputs.write_bands_csv(twin, tmp_path / "b.csv")
    assert formatted == [twin] and outputs._bands_csv[twin] is None
    assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()


def test_a_band_structure_built_directly_has_read_only_arrays():
    arrays = {"alphas": np.linspace(-np.pi, np.pi, 8, endpoint=False), "values": np.zeros((1, 8)),
              "vectors": np.ones((8, 1, 1), dtype=complex), "derivatives": np.zeros((1, 8))}
    bs = symbols.BandStructure(**arrays)
    for name in arrays:
        with pytest.raises(ValueError, match="read-only"):
            getattr(bs, name)[0] = 0.0


PIXELS = {"ties at the third decimal": [0.125, 0.375, 0.625, 0.875, 1.005, 2.675, 56.125, 663.875],
          "rounding to -0.00": [-0.0, -0.001, -0.004, -0.0049999, -0.005, 0.004],
          "a constant band": [240.0]}


@pytest.mark.parametrize("values", PIXELS.values(), ids=PIXELS)
def test_svg_coordinates_are_formatted_as_one_point_at_a_time(tmp_path, monkeypatch, values):
    result = run_scenario({"scenario": "ssh", "dimers_per_side": 5, "grid": 32})
    monkeypatch.setattr(outputs, "_pixels", lambda v, *to: np.resize(values, np.shape(v)).tolist())
    outputs.write_bands_svg(result.bands, tmp_path / "r.svg", points=result.points)
    root = ET.parse(tmp_path / "r.svg").getroot()
    x = np.resize(values, 257).tolist()
    curves = np.resize(values, (result.bands.k, 257)).tolist()
    assert [pl.get("points") for pl in root.findall(f"{SVG}polyline")] == [
        " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(x, y)) for y in curves]
    centres = np.resize(values, len(result.points)).tolist()
    assert [(c.get("cx"), c.get("cy")) for c in root.findall(f"{SVG}circle")] == [
        (f"{a:.2f}", f"{a:.2f}") for a in centres]


@pytest.mark.parametrize("c", [2.0 ** -50, 2.0 ** 40, 2.0 ** -1000], ids=["2^-50", "2^40", "2^-1000"])
@pytest.mark.parametrize("name", ["monomer", "dimer", "exponential"])
def test_a_band_plot_is_the_same_at_any_scale(tmp_path, name, c):
    sym = symbols.symbol_from_source(name)
    outputs.write_bands_svg(symbols.band_functions(sym, 256), tmp_path / "unit.svg")
    sym = symbols.Symbol(k=sym.k, coeffs={s: c * b for s, b in sym.coeffs.items()})
    outputs.write_bands_svg(symbols.band_functions(sym, 256), tmp_path / "scaled.svg")
    assert (tmp_path / "scaled.svg").read_bytes() == (tmp_path / "unit.svg").read_bytes()
