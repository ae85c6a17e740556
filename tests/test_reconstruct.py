import dataclasses
import tracemalloc

import numpy as np
import pytest

from bandrec import matrices, outputs, spectra, symbols, transform
from bandrec.matrices import FiniteMatrix
from bandrec.reconstruct import (GAP_MARGIN, PARAMS, SCENARIOS, capacitance_eigenpairs_oracle,
                                 compare_to_symbol, detect_gaps, reconstruct_bands, run_scenario,
                                 tridiagonal_eigenpairs_oracle)

MONOMER = symbols.nearest_neighbour_symbol(2.0, -1.0)
DIMER = symbols.dimer_symbol(1.0, 2.0)


def test_tridiagonal_oracle_matches_eigh():
    for m in (4, 9):
        oracle = tridiagonal_eigenpairs_oracle(2.0, -1.0, m)
        eig = spectra.hermitian_eigen(matrices.toeplitz_matrix(MONOMER, m))
        assert np.max(np.abs(oracle.values - eig.values)) < 1e-10
        gram = oracle.vectors.T @ oracle.vectors
        assert np.max(np.abs(gram - np.eye(m))) < 1e-10
        for i in range(m):
            overlap = abs(np.vdot(oracle.vectors[:, i], eig.vectors[:, i]))
            assert abs(overlap - 1.0) < 1e-10


def test_tridiagonal_oracle_sorted_for_positive_coupling():
    oracle = tridiagonal_eigenpairs_oracle(0.0, 1.0, 6)
    assert np.all(np.diff(oracle.values) > 0)
    T = matrices.toeplitz_matrix(symbols.nearest_neighbour_symbol(0.0, 1.0), 6)
    assert np.max(np.abs(oracle.values - np.linalg.eigvalsh(T.data))) < 1e-10


def test_tridiagonal_oracle_even_index_quasiperiodicity_is_read_to_rounding():
    # the sine family's alpha = pi s / (m + 1) lies off the m-point bin grid; the Bloch fit reads it exactly
    for m in (20, 40, 80):
        oracle = tridiagonal_eigenpairs_oracle(2.0, -1.0, m)
        errs = [abs(transform.discrete_quasiperiodicity(oracle.vectors[:, s - 1], 1)[0] - np.pi * s / (m + 1))
                for s in range(2, m + 1, 2)]
        assert max(errs) < 1e-13, m


def test_capacitance_oracle_matches_eigh():
    for m in (5, 12, 33):
        oracle = capacitance_eigenpairs_oracle(2.0, -1.0, m)
        M = matrices.capacitance_1d(2.0, -1.0, m)
        eig = spectra.hermitian_eigen(M)
        assert np.max(np.abs(oracle.values - eig.values)) < 1e-10
        for i in range(m):
            assert spectra.residual(M, float(oracle.values[i]), oracle.vectors[:, i]) < 1e-10
        gram = oracle.vectors.T @ oracle.vectors
        assert np.max(np.abs(gram - np.eye(m))) < 1e-10


def test_capacitance_oracle_even_index_exact():
    for m in (20, 40):
        oracle = capacitance_eigenpairs_oracle(2.0, -1.0, m)
        for s in range(2, m, 2):
            q = transform.discrete_quasiperiodicity(oracle.vectors[:, s], 1)[0]
            assert abs(q - np.pi * s / m) < 1e-12


def test_reconstruct_bands_circulant_exact():
    C = matrices.circulant_matrix(MONOMER, 16)
    points = reconstruct_bands(C, 1)
    assert len(points) == 16
    assert np.all(np.diff(points.lam) >= 0)
    targets = np.abs(transform.brillouin_sample(16))
    assert np.max(np.abs(points.lam - (2.0 - 2.0 * np.cos(points.alpha_est)))) < 1e-10
    assert np.max(np.min(np.abs(targets[:, None] - points.alpha_est), axis=0)) < 1e-10
    assert np.all((0.0 <= points.alpha_est) & (points.alpha_est <= np.pi))


def test_reconstruct_bands_one_by_one_matrix():
    M = FiniteMatrix(data=np.array([[1.5]]))
    points = reconstruct_bands(M, 1)
    assert len(points) == 1
    assert points.alpha_est[0] == 0.0 and points.lam[0] == 1.5


def test_reconstruct_bands_reads_an_integral_float_k_as_an_int():
    M = matrices.ssh_matrix(1.0, 2.0, 5)  # 21 sites: every vector is zero-padded to k = 2
    got, expected = reconstruct_bands(M, 2.0), reconstruct_bands(M, 2)
    for field in dataclasses.fields(expected):
        a, b = getattr(got, field.name), getattr(expected, field.name)
        assert (a is b is None) or (a.dtype == b.dtype and a.tobytes() == b.tobytes()), field.name


def test_compare_to_symbol_circulant():
    points = reconstruct_bands(matrices.circulant_matrix(MONOMER, 16), 1)
    stats = compare_to_symbol(points, MONOMER)
    assert stats["edge_margin"] == 2 * np.pi * 4 / 16  # pi/2: only the modes at alpha = pi/2 are bulk at m = 16
    assert points.band_error.shape == (16,) and np.max(points.band_error) < 1e-10


def test_compare_to_symbol_capacitance_m80():
    m = 80
    points = reconstruct_bands(matrices.capacitance_1d(2.0, -1.0, m), 1)
    stats = compare_to_symbol(points, MONOMER)
    assert stats["edge_margin"] == 2 * np.pi * 4 / m
    # the Bloch fit reads the odd-index eigenvectors, which lie between the bins, as exactly as the even-index
    # ones: the bulk max and every point's error are measured 2.2e-15 here (the bulk max was 4.1e-2 with the
    # windowed peak alone, 7.0e-2 with the mean of |alpha| over every bin)
    assert stats["bulk"]["max"] < 1e-13
    assert np.max(points.band_error) < 1e-13


def test_compare_to_symbol_statistics_of_an_empty_set_are_none():
    points = reconstruct_bands(matrices.circulant_matrix(MONOMER, 16), 1)
    points.localized[:] = True
    stats = compare_to_symbol(points, MONOMER)
    assert stats["bulk"] == {"count": 0, "max": None, "mean": None, "q90": None}
    assert stats["localized"]["count"] == 16
    assert stats["localized"]["max"] == np.max(points.band_error)
    assert stats["localized"]["mean"] == np.mean(points.band_error)


@pytest.mark.parametrize("m", [16, 20, 201])
def test_ties_at_the_edge_margin_count_as_bulk_under_any_rounding(m):
    result = run_scenario({"scenario": "periodic_nn", "m": m})
    points = result.points
    counts = [compare_to_symbol(dataclasses.replace(points, alpha_est=points.alpha_est + nudge),
                                MONOMER)["bulk"]["count"] for nudge in (-1e-13, 1e-13)]
    assert counts == [result.stats["bulk"]["count"]] * 2
    assert m != 16 or counts == [1, 1]  # the one mode at alpha = pi/2 = edge_margin = pi - edge_margin


def test_detect_gaps_monomer_none():
    bands = symbols.band_functions(MONOMER, 128)
    report = detect_gaps(bands, np.array([0.5, 1.0]), np.array([0.1, 0.2]))
    assert report["gaps"] == [] and report["gap_modes"] == []


def test_detect_gaps_dimer():
    bands = symbols.band_functions(DIMER, 256)
    assert len(detect_gaps(bands, [], [])["gaps"]) == 1
    lo, hi = detect_gaps(bands, [], [])["gaps"][0]
    assert abs(lo - 1.0) < 1e-3 and abs(hi - 2.0) < 1e-3

    chain = matrices.chain_capacitance([1.0 if i % 2 == 1 else 2.0 for i in range(1, 40)])
    vals = np.linalg.eigvalsh(chain.data)
    assert np.min(np.abs(vals - 2.0)) < 1e-12  # an eigenvalue on the upper gap edge, which the margin keeps out
    report = detect_gaps(bands, vals, np.zeros(vals.size))
    assert report["gap_modes"] == []


def test_detect_gaps_ssh_single_mode():
    bands = symbols.band_functions(DIMER, 256)
    M = matrices.ssh_matrix(1.0, 2.0, 20)
    points = reconstruct_bands(M, 2)
    report = detect_gaps(bands, points.lam, points.alpha_est)
    assert len(report["gap_modes"]) == 1
    mode = report["gap_modes"][0]
    assert report["gaps"][0][0] < mode["lambda"] < report["gaps"][0][1]
    assert mode["alpha_est"] == points.alpha_est[mode["index"]]


def test_detect_gaps_trimer_two_gaps():
    bands = symbols.band_functions(symbols.cell_chain_symbol([1.0, 2.0, 3.0]), 256)
    values = np.array([0.5, 0.55, 1.5, 2.0, 2.5])
    report = detect_gaps(bands, values, values / 10)
    assert len(report["gaps"]) == 2
    assert report["gaps"] == sorted(report["gaps"])
    assert report["gaps"][0][1] <= report["gaps"][1][0]
    assert len(report["gap_modes"]) == 4  # 2.5 sits inside the top band
    for mode in report["gap_modes"]:
        assert any(lo < mode["lambda"] < hi for lo, hi in report["gaps"])
        assert mode["alpha_est"] == mode["lambda"] / 10


def test_run_scenario_periodic_symbol_reports_tail():
    result = run_scenario({"scenario": "periodic_symbol", "m": 20})
    assert result.params["truncation_tail_bound"] < 1e-10


def test_periodic_symbol_records_the_symbol_it_runs_by_default():
    result = run_scenario({"scenario": "periodic_symbol", "m": 20})
    assert result.params == {"m": 20, "symbol": "exponential", "truncation_tail_bound": 2.0 ** -39}
    assert result.bands is symbols.band_functions(symbols.exponential_symbol(), 512)


def test_detect_gaps_margin_shrinks():
    """Each gap edge moves in by exactly GAP_MARGIN times the band span, the margin gaps.json records."""
    bands = symbols.band_functions(symbols.cell_chain_symbol([1.0, 2.0, 3.0]), 256)
    margin = GAP_MARGIN * float(bands.values.max() - bands.values.min())
    ranges = bands.band_ranges()
    edge = ranges[0][1]
    report = detect_gaps(bands, np.array([edge + margin / 2, edge + 2 * margin]), np.zeros(2))
    assert report["margin"] == margin
    assert report["gaps"] == [[ranges[p][1] + margin, ranges[p + 1][0] - margin] for p in range(2)]
    assert [mode["index"] for mode in report["gap_modes"]] == [1]  # the first is inside the margin


def test_run_scenario_periodic_nn():
    result = run_scenario({"scenario": "periodic_nn", "m": 80})
    assert result.k == 1 and result.matrix.n == 80
    assert len(result.points) == 80
    assert result.stats["bulk"]["max"] < 1e-13  # measured 2.2e-15
    assert result.gap_report["gap_modes"] == []
    summary = result.summary()
    assert summary["n_points"] == 80 and summary["n_gaps"] == 0


def test_run_scenario_periodic_symbol_defaults():
    result = run_scenario({"scenario": "periodic_symbol", "m": 30})
    assert result.matrix.kind == "toeplitz"
    assert result.stats["bulk"]["max"] < 0.18


# The reference runs of the output contract, with the bulk max and q90 that the mean of |alpha_j| over every bin
# gave; a recovery rule may lower them and must not raise any.
MEAN_ABS_ALPHA_BULK = {
    "periodic_nn": ({"scenario": "periodic_nn"}, 0.07021476187975284, 0.06743697104047913),
    "periodic_nn-m200": ({"scenario": "periodic_nn", "m": 200}, 0.027863407529758244, 0.026509128714439244),
    "periodic_symbol-dimer": ({"scenario": "periodic_symbol", "symbol": "dimer"}, 0.039214526630737545,
                              0.038565188086738846),
    "periodic_symbol-exponential-m40": ({"scenario": "periodic_symbol", "symbol": "exponential", "m": 40},
                                        0.16512315954408097, 0.10217251662773687),
    "ssh": ({"scenario": "ssh"}, 0.0363897379085838, 0.03267007535032489),
    "ssh-dps50-grid1024": ({"scenario": "ssh", "dimers_per_side": 50, "grid": 1024}, 0.014561887228127013,
                           0.012739569567768918),
    "dislocated": ({"scenario": "dislocated"}, 0.0646701922451039, 0.05800771820218933),
    "compact_defect": ({"scenario": "compact_defect"}, 0.040627842563701666, 0.025365933734215532),
    "compact_defect-delta-0.3": ({"scenario": "compact_defect", "delta": -0.3}, 0.043870560345038,
                                 0.03439471019668235),
    "compact_defect-n2000-delta-0.3": ({"scenario": "compact_defect", "n": 2000, "delta": -0.3},
                                       0.0017224820908272598, 0.0012907792079307264),
    "compact_defect-n1001": ({"scenario": "compact_defect", "n": 1001}, 0.0015585525809113654,
                             0.0013638438327319147),
}


@pytest.mark.parametrize("run", MEAN_ABS_ALPHA_BULK)
def test_no_reference_run_scores_worse_than_the_mean_of_abs_alpha(run):
    config, old_max, old_q90 = MEAN_ABS_ALPHA_BULK[run]
    bulk = run_scenario(config).stats["bulk"]
    assert bulk["max"] <= old_max and bulk["q90"] <= old_q90


def test_run_scenario_ssh_defaults():
    result = run_scenario({"scenario": "ssh"})
    assert result.matrix.n == 81
    assert len(result.gap_report["gap_modes"]) == 1
    gi = result.gap_report["gap_modes"][0]["index"]
    assert result.points.localized[gi]
    assert np.delete(result.points.band_error, gi).max() < 0.1


def test_run_scenario_dislocated_localized_equals_gap():
    result = run_scenario({"scenario": "dislocated"})
    gap_set = {g["index"] for g in result.gap_report["gap_modes"]}
    loc_set = set(np.flatnonzero(result.points.localized).tolist())
    assert gap_set == loc_set and len(gap_set) == 1


def test_run_scenario_compact_defect_positive():
    result = run_scenario({"scenario": "compact_defect", "delta": 0.5})
    assert len(result.gap_report["gap_modes"]) >= 1
    assert result.points.localized[[g["index"] for g in result.gap_report["gap_modes"]]].all()


def test_run_scenario_compact_defect_negative_detaches_one_state():
    # a weakly localized state always detaches below the upper band for delta < 0
    result = run_scenario({"scenario": "compact_defect", "delta": -0.3})
    modes = result.gap_report["gap_modes"]
    assert len(modes) == 1
    assert 1.9 < modes[0]["lambda"] < 2.0
    assert result.stats["bulk"]["max"] < 0.1


def test_run_scenario_external_matrix(tmp_path):
    M = matrices.ssh_matrix(1.0, 2.0, 5)
    path = tmp_path / "ext.csv"
    matrices.save_matrix(M, path)
    result = run_scenario({"scenario": "external_matrix", "matrix": str(path), "k": 2})
    assert result.bands is None and result.stats is None
    assert len(result.points) == 21

    sym_path = tmp_path / "dimer.json"
    symbols.save_symbol(DIMER, sym_path)
    result2 = run_scenario({"scenario": "external_matrix", "matrix": str(path), "k": 2,
                            "symbol": str(sym_path)})
    assert result2.bands is not None
    assert len(result2.gap_report["gap_modes"]) == 1


# A second value for every scenario parameter, each one the method can use.
OTHER_VALUE = {"a0": 2.5, "a1": -1.2, "m": 24, "s1": 1.1, "s2": 1.9, "d": 3.0,
               "dimers_per_side": 6, "n": 40, "delta": -0.3, "index": 7, "k": 2, "symbol": "dimer"}


def _outcome(config):
    """What a run produced, without the params it records; or the message it was refused with."""
    try:
        result = run_scenario(config)
    except ValueError as exc:
        return str(exc)
    summary = result.summary()
    del summary["params"]
    p = result.points
    return summary, (p.alpha_est.tolist(), p.lam.tolist(), None if p.band_error is None else p.band_error.tolist())


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_every_scenario_parameter_is_declared_and_read(tmp_path, scenario):
    """SCENARIOS and _scenario_setup agree: each declared parameter is read, nothing else is."""
    reads = SCENARIOS[scenario]
    foreign = next(name for name in PARAMS if name not in reads)
    with pytest.raises(ValueError, match=f"^scenario '{scenario}' does not read '{foreign}'; "
                                         f"it takes {', '.join(reads)}$"):
        run_scenario({"scenario": scenario, foreign: OTHER_VALUE[foreign]})

    for name, a0 in (("m.csv", 2.0), ("other.csv", 2.5)):
        matrices.save_matrix(matrices.capacitance_1d(a0, -1.0, 12), tmp_path / name)
    required = {"matrix": str(tmp_path / "m.csv")} if scenario == "external_matrix" else {}
    defaults = run_scenario({"scenario": scenario, **required})
    # every parameter given explicitly, at the value the default run used
    explicit = {key: value for key, value in defaults.params.items() if key != "truncation_tail_bound"}
    if scenario == "external_matrix":  # its symbol is optional, so not recorded when not given
        explicit["symbol"] = "monomer"
    assert set(explicit) == set(reads)
    result = run_scenario({"scenario": scenario, **explicit})
    assert result.params.items() >= explicit.items()
    assert np.array_equal(result.points.lam, defaults.points.lam)
    baseline = _outcome({"scenario": scenario, **explicit})
    if scenario != "external_matrix":  # where the default run has no reference symbol
        assert baseline == _outcome({"scenario": scenario, **required})

    others = dict(OTHER_VALUE, matrix=str(tmp_path / "other.csv"))
    for name in reads:
        assert _outcome({"scenario": scenario, **explicit, name: others[name]}) != baseline, \
            f"{name} is not read"


def test_an_evanescent_mode_above_the_bands_is_localized_out_of_the_bulk():
    # a sweep run whose mode above the top band edge (3.006), outside every gap, has an ipr only 9.96 times the
    # median: its Bloch fit is evanescent, so it is localized; it snaps to alpha = 0, and its band_error is its
    # height above the band
    result = run_scenario({"scenario": "compact_defect", "n": 40, "delta": 0.4718, "s1": 0.99954, "s2": 1.98990})
    p = result.points
    assert p.localized[-1] and 9.9 < p.ipr[-1] / np.median(p.ipr) < 10.0
    assert [g["index"] for g in result.gap_report["gap_modes"]] == [19]
    assert p.alpha_est[-1] == 0.0 and p.band_error[-1] > 0.3 and p.lam[-1] - 0.3 > result.bands.values.max()
    assert result.stats["localized"]["max"] == p.band_error[-1]
    assert result.stats["bulk"]["max"] < 1e-13  # measured 8.9e-16


@pytest.mark.parametrize("n", [12, 20, 40, 80])
def test_compact_defect_flags_its_bound_state_above_the_top_band(n):
    # the bound state at lambda = 3.4065, above the top band edge 3.0, has an ipr 3.2 to 5 times the median at
    # n = 12 to 20; its Bloch fit is evanescent at every n
    result = run_scenario({"scenario": "compact_defect", "n": n, "delta": 0.5})
    p = result.points
    assert p.localized[-1] and abs(p.lam[-1] - 3.4065) < 1e-3 and p.lam[-1] > result.bands.values.max()


def test_touching_bands_are_not_refused_as_overlapping():
    # the dimer with s1 = s2 is the monomer chain read in cells of two: its bands touch at alpha = pi
    result = run_scenario({"scenario": "ssh", "s1": 1.0, "s2": 1.0})
    assert symbols.check_assumptions(result.bands)["min_band_separation"] == 0.0
    assert result.stats["bulk"]["max"] < 1e-13  # measured 2.2e-15


def test_scenario_error_stats_exclude_localized():
    result = run_scenario({"scenario": "ssh"})
    gi = result.gap_report["gap_modes"][0]["index"]
    assert result.stats["localized"]["count"] >= 1
    assert result.points.band_error[gi] > result.stats["bulk"]["max"]


@pytest.mark.parametrize("scenario", ["ssh", "dislocated", "compact_defect", "periodic_nn"])
def test_chain_scenarios_never_write_a_dense_matrix(monkeypatch, tmp_path, scenario):
    if spectra._bundled_dstevd() is None:
        pytest.skip("numpy's bundled OpenBLAS exports no LAPACKE_dstevd")
    solved = []

    def solve(M):
        solved.append((M, [x.copy() for x in M.diagonals]))
        return spectra.hermitian_eigen(M)

    def refuse(*args):
        raise AssertionError("dense array written for a tridiagonal chain")
    monkeypatch.setattr(matrices, "_tridiagonal", refuse)
    monkeypatch.setattr("bandrec.reconstruct.hermitian_eigen", solve)
    result = run_scenario({"scenario": scenario})
    outputs.write_bundle(result, tmp_path, ("csv", "json", "svg"))
    (M, before), = solved
    assert all(np.array_equal(x, y) for x, y in zip(M.diagonals, before))


@pytest.mark.parametrize("scenario,config,bound", [("compact_defect", {"n": 1000}, 2.5),
                                                   ("ssh", {"dimers_per_side": 250}, 1.5)])
def test_a_chain_run_holds_no_n_squared_temporary_beside_its_eigenvectors(scenario, config, bound):
    # Peak traced allocation in units of one n x n float64 array: the eigenvectors V, and for
    # compact_defect the mapped W, each count one; blocked column passes keep the rest O(n).
    if spectra._bundled_dstevd() is None:
        pytest.skip("numpy's bundled OpenBLAS exports no LAPACKE_dstevd")
    tracemalloc.start()
    try:
        result = run_scenario({"scenario": scenario, **config})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = len(result.points)  # 1000, or 1001 for the ssh chain's middle site
    assert peak < bound * n * n * 8
