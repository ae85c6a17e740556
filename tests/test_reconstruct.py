import numpy as np
import pytest

from bandrec import matrices, outputs, spectra, symbols, transform
from bandrec.matrices import FiniteMatrix
from bandrec.reconstruct import (PARAMS, SCENARIOS, capacitance_eigenpairs_oracle,
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


def test_tridiagonal_oracle_even_index_quasiperiodicity_drift():
    # the sine family's even-index recovery is only asymptotically exact:
    # its frequency grid is pinned to m+1 while the transform bins use m
    worst = {}
    for m in (20, 40, 80):
        oracle = tridiagonal_eigenpairs_oracle(2.0, -1.0, m)
        errs = [abs(transform.discrete_quasiperiodicity(oracle.vectors[:, s - 1], 1) - np.pi * s / m)
                for s in range(2, m + 1, 2)]
        worst[m] = max(errs)
    assert worst[20] < 6e-2
    assert worst[20] > worst[40] > worst[80]


def test_capacitance_oracle_matches_eigh():
    for m in (5, 12, 33):
        oracle = capacitance_eigenpairs_oracle(2.0, -1.0, m)
        M = matrices.capacitance_1d(2.0, -1.0, -1.0, m)
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
            q = transform.discrete_quasiperiodicity(oracle.vectors[:, s], 1)
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
    M = FiniteMatrix(data=np.array([[1.5]]), hermitian=True)
    points = reconstruct_bands(M, 1)
    assert len(points) == 1
    assert points.alpha_est[0] == 0.0 and points.lam[0] == 1.5


def test_reconstruct_bands_rejects_bad_k():
    with pytest.raises(ValueError):
        reconstruct_bands(matrices.circulant_matrix(MONOMER, 8), 0)


def test_compare_to_symbol_circulant():
    bands = symbols.band_functions(MONOMER, 512)
    points = reconstruct_bands(matrices.circulant_matrix(MONOMER, 16), 1)
    stats = compare_to_symbol(points, bands)
    assert stats.bulk_max < 1e-10
    assert points.band_error.shape == (16,) and np.all(np.isfinite(points.band_error))


def test_compare_to_symbol_capacitance_m80():
    bands = symbols.band_functions(MONOMER, 512)
    m = 80
    points = reconstruct_bands(matrices.capacitance_1d(2.0, -1.0, -1.0, m), 1)
    stats = compare_to_symbol(points, bands, edge_margin=2 * np.pi * 4 / m)
    # even-index eigenvectors are recovered exactly; the odd-index fold
    # leakage contributes ~3.5/m in alpha, measured 7.0e-2 here
    assert stats.bulk_max < 7.5e-2
    assert np.max(points.band_error[::2]) < 1e-4


def test_compare_to_symbol_empty_points():
    bands = symbols.band_functions(MONOMER, 64)
    with pytest.raises(ValueError):
        compare_to_symbol([], bands)


def test_detect_gaps_monomer_none():
    bands = symbols.band_functions(MONOMER, 128)
    report = detect_gaps(bands, np.array([0.5, 1.0]))
    assert report.gaps == [] and report.gap_modes == []


def test_detect_gaps_dimer():
    bands = symbols.band_functions(DIMER, 256)
    assert len(detect_gaps(bands, np.array([])).gaps) == 1
    lo, hi = detect_gaps(bands, np.array([])).gaps[0]
    assert abs(lo - 1.0) < 1e-3 and abs(hi - 2.0) < 1e-3

    chain = matrices.chain_capacitance([1.0 if i % 2 == 1 else 2.0 for i in range(1, 40)])
    vals = np.linalg.eigvalsh(chain.data)
    report = detect_gaps(bands, vals, margin=1e-3)
    assert report.gap_modes == []


def test_detect_gaps_ssh_single_mode():
    bands = symbols.band_functions(DIMER, 256)
    M = matrices.ssh_matrix(m=20, **matrices.ssh_params_from_spacings(1.0, 2.0))
    points = reconstruct_bands(M, 2)
    report = detect_gaps(bands, points.lam, margin=1e-6, alphas=points.alpha_est)
    assert len(report.gap_modes) == 1
    mode = report.gap_modes[0]
    assert report.gaps[0][0] < mode.lam < report.gaps[0][1]
    assert mode.alpha_est == points.alpha_est[mode.index]


def test_detect_gaps_trimer_two_gaps():
    bands = symbols.band_functions(symbols.cell_chain_symbol([1.0, 2.0, 3.0]), 256)
    values = np.array([0.5, 0.55, 1.5, 2.0, 2.5])
    report = detect_gaps(bands, values)
    assert len(report.gaps) == 2
    assert report.gaps == sorted(report.gaps)
    assert report.gaps[0][1] <= report.gaps[1][0]
    assert len(report.gap_modes) == 4  # 2.5 sits inside the top band
    for mode in report.gap_modes:
        assert any(lo < mode.lam < hi for lo, hi in report.gaps)


def test_reconstruct_bands_propagates_eigensolver_error():
    M = FiniteMatrix(data=np.array([[0.0, 1.0], [0.0, 0.0]]), hermitian=False)
    with pytest.raises(ValueError):
        reconstruct_bands(M, 1)


def test_run_scenario_periodic_symbol_reports_tail():
    result = run_scenario({"scenario": "periodic_symbol", "m": 20})
    assert result.params["truncation_tail_bound"] < 1e-10


def test_detect_gaps_margin_shrinks():
    bands = symbols.band_functions(DIMER, 256)
    report = detect_gaps(bands, np.array([1.05, 1.5]), margin=0.1)
    assert len(report.gap_modes) == 1  # 1.05 now outside the shrunk gap
    for margin in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="margin must be finite and nonnegative"):
            detect_gaps(bands, np.array([]), margin=margin)


def test_run_scenario_periodic_nn():
    result = run_scenario({"scenario": "periodic_nn", "m": 80})
    assert result.k == 1 and result.matrix.n == 80
    assert len(result.points) == 80
    assert result.stats.bulk_max < 7.5e-2
    assert result.gap_report.gap_modes == []
    summary = result.summary()
    assert summary["n_points"] == 80 and summary["n_gaps"] == 0


def test_run_scenario_periodic_symbol_defaults():
    result = run_scenario({"scenario": "periodic_symbol", "m": 30})
    assert result.matrix.kind == "toeplitz"
    assert result.stats.bulk_max < 0.18


def test_run_scenario_ssh_defaults():
    result = run_scenario({"scenario": "ssh"})
    assert result.matrix.n == 81
    assert len(result.gap_report.gap_modes) == 1
    gi = result.gap_report.gap_modes[0].index
    assert result.points.localized[gi]
    assert np.delete(result.points.band_error, gi).max() < 0.1


def test_run_scenario_dislocated_localized_equals_gap():
    result = run_scenario({"scenario": "dislocated"})
    gap_set = {g.index for g in result.gap_report.gap_modes}
    loc_set = set(np.flatnonzero(result.points.localized).tolist())
    assert gap_set == loc_set and len(gap_set) == 1


def test_run_scenario_compact_defect_positive():
    result = run_scenario({"scenario": "compact_defect", "delta": 0.5})
    assert len(result.gap_report.gap_modes) >= 1
    assert result.points.localized[[g.index for g in result.gap_report.gap_modes]].all()


def test_run_scenario_compact_defect_negative_detaches_one_state():
    # a weakly localized state always detaches below the upper band for delta < 0
    result = run_scenario({"scenario": "compact_defect", "delta": -0.3})
    modes = result.gap_report.gap_modes
    assert len(modes) == 1
    assert 1.9 < modes[0].lam < 2.0
    assert result.stats.bulk_max < 0.1


def test_run_scenario_external_matrix(tmp_path):
    M = matrices.ssh_matrix(m=5, **matrices.ssh_params_from_spacings(1.0, 2.0))
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
    assert len(result2.gap_report.gap_modes) == 1


def test_run_scenario_accepts_nested_params():
    result = run_scenario({"scenario": "periodic_nn", "params": {"m": 24}})
    assert result.matrix.n == 24


def test_run_scenario_rejects_unknown():
    with pytest.raises(ValueError):
        run_scenario({"scenario": "warp_drive"})
    with pytest.raises(ValueError):
        run_scenario({})
    with pytest.raises(ValueError, match=r"^dimers_per_side must be an integer, got \[3\]$"):
        run_scenario({"scenario": "ssh", "dimers_per_side": [3]})
    with pytest.raises(ValueError, match="^scenario 'ssh' does not read alpha, alpha_tilde, eta"):
        run_scenario({"scenario": "ssh", "alpha": 1.5, "alpha_tilde": 1.0, "eta": 1.0,
                      "beta1": -1.0, "beta2": -0.5})


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
    foreign = next(name for name in PARAMS if name not in reads and name != "margin")
    with pytest.raises(ValueError, match=f"^scenario '{scenario}' does not read {foreign}; "
                                         f"it takes {', '.join(reads)}$"):
        run_scenario({"scenario": scenario, foreign: OTHER_VALUE[foreign]})

    for name, a0 in (("m.csv", 2.0), ("other.csv", 2.5)):
        matrices.save_matrix(matrices.capacitance_1d(a0, -1.0, -1.0, 12), tmp_path / name)
    required = {"matrix": str(tmp_path / "m.csv")} if scenario == "external_matrix" else {}
    defaults = run_scenario({"scenario": scenario, **required})
    # every parameter given explicitly, at the value the default run used
    explicit = {key: value for key, value in defaults.params.items() if key != "truncation_tail_bound"}
    if "symbol" in reads:  # optional, so not recorded when not given
        explicit["symbol"] = "exponential" if scenario == "periodic_symbol" else "monomer"
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


def test_scenario_error_stats_exclude_localized():
    result = run_scenario({"scenario": "ssh"})
    gi = result.gap_report.gap_modes[0].index
    assert result.stats.localized_count >= 1
    assert result.points.band_error[gi] > result.stats.bulk_max


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
