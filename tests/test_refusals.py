"""Argument checks of the library functions, each refusal matched to its whole message."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from bandrec import matrices, reconstruct, spectra, symbols, transform, verify

MONOMER = symbols.nearest_neighbour_symbol(2.0, -1.0)
DIMER = symbols.dimer_symbol(1.0, 2.0)
HUGE_MONOMER = symbols.nearest_neighbour_symbol(1e308, -1e308)
# lambda(alpha) = 2 - 2 cos(alpha) + 0.6 cos(2 alpha), whose slope changes sign at cos(alpha) = 1/1.2
NOT_MONOTONE = symbols.symbol_to_dict(symbols.Symbol(k=1, coeffs={0: [[2.0]], 1: [[-1.0]], -1: [[-1.0]],
                                                                  2: [[0.3]], -2: [[0.3]]}))
# a_{-s} = a_s = 0.5e-12 i: each offset is within Symbol's tolerance, their sum at alpha = 0 is not
SKEWED = symbols.Symbol(k=1, coeffs={0: [[1.0]], **{s: [[0.5e-12j]] for r in range(1, 61) for s in (r, -r)}})
SKEWED_MESSAGE = "symbol evaluation departs from Hermitian by 1.2e-10 relative to max|f|"
CHAIN = matrices.chain_capacitance([1.0, 2.0, 1.0])
SSH = matrices.ssh_matrix(1.0, 2.0, 5)  # 21 sites
COLUMNS = "expects a nonempty vector or matrix of column vectors, got shape"
NOT_HERMITIAN = matrices.FiniteMatrix(data=np.array([[0.0, 1.0], [0.0, 0.0]]))
EYE6, U3 = matrices.FiniteMatrix(data=np.eye(6)), np.eye(6)[:, :3]
DELTA_RANGE = "need 2.2e-08 <= 1 + delta <= 4.5e+07, got delta ="
SCENARIO_NAMES = "periodic_nn, periodic_symbol, ssh, dislocated, compact_defect, external_matrix"


def skewed_times(c):
    return symbols.Symbol(k=1, coeffs={s: c * b for s, b in SKEWED.coeffs.items()})


def _file(name, text):
    """name, after writing text to it in the current directory."""
    Path(name).write_text(text)
    return name


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: symbols.Symbol(k=0, coeffs={}), "block size must be at least 1, got 0", id="Symbol-k0"),
    pytest.param(lambda: symbols.Symbol(k=1, coeffs={0: [[2.0]], 10**20: [[-1.0]], -10**20: [[-1.0]]}),
                 "offset s must be a 64-bit integer, got 100000000000000000000", id="Symbol-offset-1e20"),
    pytest.param(lambda: matrices.chain_capacitance([]), "need at least one spacing", id="chain_capacitance-empty"),
    pytest.param(lambda: matrices.FiniteMatrix(data=np.zeros((0, 0))),
                 "matrix must be square with n >= 1, got shape (0, 0)", id="FiniteMatrix-empty"),
    pytest.param(lambda: reconstruct.reconstruct_bands(matrices.FiniteMatrix(data=np.eye(4)), 2.5),
                 "block size must be an integer, got 2.5", id="reconstruct_bands-k2.5"),
    pytest.param(lambda: reconstruct.reconstruct_bands(matrices.FiniteMatrix(data=np.eye(4)), True),
                 "block size must be an integer, got True", id="reconstruct_bands-kTrue"),
    pytest.param(lambda: transform.tfbt([], 1), "expected a nonempty 1-d vector, got shape (0,)", id="tfbt-k1-empty"),
    pytest.param(lambda: symbols.banded_truncation(symbols.exponential_symbol(), float("nan")),
                 "band radius must be an integer, got nan", id="banded_truncation-r-nan"),
    pytest.param(lambda: spectra.near_far_split(spectra.hermitian_eigen(CHAIN), 0.0, float("nan"), np.ones(4)),
                 "eps must be positive, got nan", id="near_far_split-eps-nan"),
    pytest.param(lambda: spectra.near_far_split(spectra.hermitian_eigen(SSH), 0.0, 0.1, np.ones(3)),
                 "vector length 3 does not match matrix size 21", id="near_far_split-length3"),
    pytest.param(lambda: spectra.localization_metrics(np.array([])), f"localization_metrics {COLUMNS} (0,)",
                 id="localization_metrics-empty"),
    pytest.param(lambda: spectra.localization_metrics(np.float64(1)), f"localization_metrics {COLUMNS} ()",
                 id="localization_metrics-scalar"),
    pytest.param(lambda: spectra.residual(SSH, 0.0, np.ones((21, 2, 2)) / 21 ** 0.5), f"residual {COLUMNS} (21, 2, 2)",
                 id="residual-stack"),
    *(pytest.param(lambda scale=scale: spectra.degenerate_clusters([1.0, 1.0, 2.0], scale),
                   f"scale must be finite and nonnegative, got {scale}", id=f"degenerate_clusters-scale{scale}")
      for scale in (float("nan"), float("inf"), -1.0)),
    pytest.param(lambda: symbols.symbol_difference_sup_norm(MONOMER, DIMER), "symbols must share the block size",
                 id="symbol_difference_sup_norm-k1-k2"),
    pytest.param(lambda: symbols.symbol_from_dict([1]), "symbol description: expected an object, got list",
                 id="symbol_from_dict-list"),
    pytest.param(lambda: symbols.complex_from_parts({"re": [["x"]]}, "block"),
                 "block: could not convert string to float: 'x'", id="complex_from_parts-string"),
    pytest.param(lambda: symbols.band_functions(SKEWED, 64), SKEWED_MESSAGE, id="band_functions-skewed"),
    *(pytest.param(lambda c=2.0 ** e: symbols.band_functions(skewed_times(c), 64), SKEWED_MESSAGE,
                   id=f"band_functions-skewed-2^{e}") for e in (-50, -40, 40)),  # the same refusal at any scale
    pytest.param(lambda: symbols.band_functions(MONOMER, 8), "grid must be an even number of at least 16, got 8",
                 id="band_functions-grid8"),
    pytest.param(lambda: reconstruct.run_scenario({"scenario": "external_matrix"}),
                 "external_matrix scenario needs a 'matrix' path", id="run_scenario-external_matrix-no-matrix"),
    pytest.param(lambda: matrices.FiniteMatrix(data=np.zeros((2, 3))),
                 "matrix must be square with n >= 1, got shape (2, 3)", id="FiniteMatrix-2x3"),
    pytest.param(lambda: matrices.FiniteMatrix(data=np.eye(2), kind="dense"), "unknown matrix kind 'dense'",
                 id="FiniteMatrix-kind-dense"),
    pytest.param(lambda: matrices.circulant_matrix(MONOMER, 2),
                 "circulant wraparound is ambiguous: need m > 2*r_max = 2, got 2", id="circulant_matrix-r1-m2"),
    pytest.param(lambda: matrices.circulant_matrix(symbols.banded_truncation(symbols.exponential_symbol(), 5), 10),
                 "circulant wraparound is ambiguous: need m > 2*r_max = 10, got 10", id="circulant_matrix-r5-m10"),
    pytest.param(lambda: matrices.chain_capacitance([1.0, -2.0]), "spacings must be positive",
                 id="chain_capacitance-negative"),
    *(pytest.param(lambda build=build, args=args: build(*args), message, id=f"{build.__name__}{args}")
      for build, args, message in [
          (matrices.ssh_matrix, (0.0, 2.0, 3), "spacings must be positive"),
          (matrices.ssh_matrix, (1.0, -2.0, 3), "spacings must be positive"),
          (matrices.dislocated_chain, (0.0, 2.0, 4.0, 3), "spacings must be positive"),
          (matrices.dislocated_chain, (1.0, 2.0, 0.0, 3), "spacings must be positive"),
          (matrices.dislocated_chain, (1.0, 2.0, 4.0, -1), "dimers per side must be at least 1, got -1")]),
    pytest.param(lambda: matrices.compact_perturbation(CHAIN, 5, 0.5), "index 5 out of range 1..4",
                 id="compact_perturbation-index5"),
    # 1 + delta outside DELTA_SCALE: beyond it rounding in the similarity reaches UNIT_NORM_TOL
    *(pytest.param(lambda delta=delta: matrices.compact_perturbation(CHAIN, 2, delta), f"{DELTA_RANGE} {delta}",
                   id=f"compact_perturbation-delta-{delta}")
      for delta in (float("nan"), float("inf"), 1e14, -1.0, -0.999999999)),
    pytest.param(lambda: matrices.load_matrix(_file("bad.csv", "1,2,3\n4,5,6\n")),
                 "bad.csv: matrix is not square, shape (2, 3)", id="load_matrix-2x3"),
    pytest.param(lambda: matrices.load_matrix(_file("nan.csv", "2,nan\nnan,2\n")),
                 "matrix has 2 non-finite (NaN or inf) entries, the first at row 1, column 2", id="load_matrix-nan"),
    pytest.param(lambda: symbols.Symbol(k=1, coeffs={0: [[1.0]], 1: [[1.0]], -1: [[2.0]]}),
                 "non-Hermitian symbol: a_-1 != a_1^* with relative defect 0.5 (tolerance 1e-12)",
                 id="Symbol-non-hermitian"),
    pytest.param(lambda: symbols.Symbol(k=1, coeffs={0: [[1.0]], 1: [[1.0]]}),
                 "support is not symmetric: offset 1 present but -1 missing", id="Symbol-asymmetric-support"),
    pytest.param(lambda: symbols.Symbol(k=2, coeffs={0: [[1.0]]}),
                 "coefficient block at offset 0 has shape (1, 1), expected (2, 2)", id="Symbol-block-shape"),
    pytest.param(lambda: symbols.Symbol(k=1, coeffs={0: [[2.0]], 1.5: [[-1.0]], -1.5: [[-1.0]]}),
                 "offset s must be an integer, got 1.5", id="Symbol-offset-1.5"),
    pytest.param(lambda: symbols.symbol_from_dict({"coeffs": "nope"}), "malformed symbol description: 'k'",
                 id="symbol_from_dict-no-k"),
    pytest.param(lambda: symbols.symbol_from_dict({"k": 2, "coeffs": [{"s": 0, "re": [[1, 0], [0, 1]],
                                                                       "im": [[0.0]]}]}),
                 "coefficient block at offset 0: 'im' has shape (1, 1) but 're' has shape (2, 2)",
                 id="symbol_from_dict-im-shape"),
    pytest.param(lambda: symbols.symbol_from_dict({"k": 10 ** 6, "coeffs": []}),
                 "malformed symbol description: no coefficient blocks", id="symbol_from_dict-no-blocks"),
    pytest.param(lambda: symbols.band_functions(HUGE_MONOMER, 16),
                 "the symbol's samples on the 16-point grid overflow float64", id="band_functions-1e308"),
    pytest.param(lambda: symbols.band_functions(symbols.dimer_symbol(1e-308, 2.0), 16),
                 "the symbol's bands or their slopes on the 16-point grid overflow float64",
                 id="band_functions-s1-1e-308"),
    pytest.param(lambda: spectra.hermitian_eigen(NOT_HERMITIAN),
                 "hermitian_eigen needs a Hermitian matrix, one with max|A - A^H| <= 1e-12 * max|A|",
                 id="hermitian_eigen-not-hermitian"),
    pytest.param(lambda: reconstruct.reconstruct_bands(NOT_HERMITIAN, 1),
                 "hermitian_eigen needs a Hermitian matrix, one with max|A - A^H| <= 1e-12 * max|A|",
                 id="reconstruct_bands-not-hermitian"),
    *(pytest.param(lambda n=n: spectra.hermitian_eigen(matrices.FiniteMatrix(data=np.full((n, n), 1e308))),
                   "hermitian_eigen found eigenvalues that overflow float64", id=f"hermitian_eigen-1e308-{solver}")
      for n, solver in [(2, "dstevd"), (3, "eigh")]),  # a 2 x 2 matrix is tridiagonal
    pytest.param(lambda: spectra.residual(SSH, 0.0, np.ones(4) / 2.0), "vector length 4 does not match matrix size 21",
                 id="residual-length4"),
    *(pytest.param(lambda lam=lam: spectra.residual(EYE6, lam, U3),
                   f"lam has shape {lam.shape}; give a scalar or one value per column of (6, 3)",
                   id=f"residual-lam{lam.shape}") for lam in map(np.zeros, [2, 4, (3, 1), (1, 3)])),
    pytest.param(lambda: spectra.residual(EYE6, np.zeros(1), U3[:, 0]),  # one vector takes a scalar
                 "lam has shape (1,); give a scalar or one value per column of (6,)", id="residual-one-vector-lam(1,)"),
    pytest.param(lambda: spectra.residual(EYE6, np.zeros(3), 2 * U3), "residual expects unit vectors, got norm 2.0",
                 id="residual-norm2"),
    pytest.param(lambda: spectra.near_far_split(spectra.hermitian_eigen(EYE6), 1.0, 0.0, U3[:, 0]),
                 "eps must be positive, got 0.0", id="near_far_split-eps0"),
    pytest.param(lambda: transform.discrete_quasiperiodicity(np.ones(4), 1),
                 "discrete_quasiperiodicity expects a unit vector, got norm 2.0", id="discrete_quasiperiodicity-norm2"),
    *(pytest.param(lambda k=k: transform.zero_pad(np.ones(6), k), f"block size must be at least 1, got {k}",
                   id=f"zero_pad-k{k}") for k in (-1, -3)),
    pytest.param(lambda: reconstruct.compare_to_symbol([], MONOMER), "no points to compare",
                 id="compare_to_symbol-no-points"),
    pytest.param(lambda: reconstruct.run_scenario({"scenario": "warp_drive"}),
                 f"scenario must be one of {SCENARIO_NAMES}, got 'warp_drive'", id="run_scenario-warp_drive"),
    pytest.param(lambda: reconstruct.run_scenario({}), f"scenario must be one of {SCENARIO_NAMES}, got None",
                 id="run_scenario-no-scenario"),
    pytest.param(lambda: reconstruct.run_scenario({"scenario": "ssh", "dimers_per_side": [3]}),
                 "dimers_per_side must be an integer, got [3]", id="run_scenario-dimers_per_side-list"),
    pytest.param(lambda: reconstruct.run_scenario({"scenario": "ssh", "alpha": 1.5, "alpha_tilde": 1.0, "eta": 1.0,
                                                   "beta1": -1.0, "beta2": -0.5}),
                 "scenario 'ssh' does not read 'alpha', 'alpha_tilde', 'eta', 'beta1', 'beta2'; "
                 "it takes s1, s2, dimers_per_side",
                 id="run_scenario-ssh-foreign-keys"),
    pytest.param(lambda: reconstruct.run_scenario({"scenario": "periodic_symbol", "m": 40, "symbol": NOT_MONOTONE}),
                 "the reference bands cannot be reconstructed, as one |alpha| is recovered per eigenvector: "
                 "band 1 is not monotone in |alpha|: its slope changes sign at alpha = 0.589049",
                 id="run_scenario-not-monotone-0.3"),
    pytest.param(lambda: verify.run_check("no.such.check"), "unknown check 'no.such.check'", id="run_check-unknown"),
    pytest.param(lambda: verify.run_checks(only="zzz"), "no checks match 'zzz'", id="run_checks-no-match"),
])
def test_a_refusal_names_what_it_refuses(tmp_path, monkeypatch, call, message):
    monkeypatch.chdir(tmp_path)  # where a row writes the file it reads
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def _scenario(**config):
    return lambda v: reconstruct.run_scenario({key: v if value is None else value for key, value in config.items()})


UNIT = np.ones(6) / 6 ** 0.5
# (what, the least count the call accepts, a valid count, the call taking it) for every public argument that
# is a count; run_scenario's external_matrix row reads m.csv from the current directory
COUNTS = {
    "brillouin_sample": ("grid size", 1, 4, transform.brillouin_sample),
    "bin_alphas": ("grid size", 1, 4, transform.bin_alphas),
    "zero_pad": ("block size", 1, 4, lambda v: transform.zero_pad(UNIT, v)),
    "tfbt": ("block size", 1, 4, lambda v: transform.tfbt(UNIT, v)),
    "projection_profile": ("block size", 1, 4, lambda v: transform.projection_profile(UNIT, v)),
    "discrete_quasiperiodicity": ("block size", 1, 4, lambda v: transform.discrete_quasiperiodicity(UNIT, v)),
    "quasiperiodic_extension": ("number of cells", 1, 3, lambda v: transform.quasiperiodic_extension(UNIT, 0.5, v)),
    "toeplitz_matrix": ("block count", 1, 3, lambda v: matrices.toeplitz_matrix(DIMER, v)),
    "circulant_matrix": ("block count", 3, 3, lambda v: matrices.circulant_matrix(DIMER, v)),
    "capacitance_1d": ("chain sites", 2, 3, lambda v: matrices.capacitance_1d(2.0, -1.0, v)),
    "ssh_matrix": ("dimers per side", 1, 2, lambda v: matrices.ssh_matrix(1.0, 2.0, v)),
    "dislocated_chain": ("dimers per side", 1, 2, lambda v: matrices.dislocated_chain(1.0, 2.0, 4.0, v)),
    "dislocated_spacing_sequence": ("dimers per side", 1, 2,
                                    lambda v: matrices.dislocated_spacing_sequence(1.0, 2.0, 4.0, v)),
    "dimer_alternation": ("spacing count", 0, 3, lambda v: matrices.dimer_alternation(1.0, 2.0, v)),
    "center_index": ("size", 1, 5, matrices.center_index),
    "compact_perturbation-index": ("index", 1, 2, lambda v: matrices.compact_perturbation(CHAIN, v, 0.5)),
    "banded_truncation": ("band radius", 0, 2, lambda v: symbols.banded_truncation(symbols.exponential_symbol(), v)),
    "band_functions": ("grid", 16, 32, lambda v: symbols.band_functions(DIMER, v)),
    "symbol_sup_norm": ("grid", 16, 32, lambda v: symbols.symbol_sup_norm(DIMER, v)),
    "Symbol-k": ("block size", 2, 2, lambda v: symbols.Symbol(k=v, coeffs={0: np.eye(2)})),
    "reconstruct_bands": ("block size", 1, 2, lambda v: reconstruct.reconstruct_bands(SSH, v)),
    "tridiagonal_eigenpairs_oracle": ("size", 1, 4, lambda v: reconstruct.tridiagonal_eigenpairs_oracle(2.0, -1.0, v)),
    "capacitance_eigenpairs_oracle": ("size", 1, 4, lambda v: reconstruct.capacitance_eigenpairs_oracle(2.0, -1.0, v)),
    "run_scenario-m": ("m", 2, 12, _scenario(scenario="periodic_nn", m=None, grid=32)),
    "run_scenario-n": ("n", 2, 12, _scenario(scenario="compact_defect", n=None, grid=32)),
    "run_scenario-index": ("index", 1, 3, _scenario(scenario="compact_defect", n=12, index=None, grid=32)),
    "run_scenario-dimers_per_side": ("dimers_per_side", 1, 3, _scenario(scenario="ssh", dimers_per_side=None, grid=32)),
    "run_scenario-k": ("k", 2, 2, _scenario(scenario="external_matrix", matrix="m.csv", k=None, symbol="dimer",
                                         grid=32)),
    "run_scenario-grid": ("grid", 16, 32, _scenario(scenario="periodic_nn", m=12, grid=None)),
}
NOT_INTEGERS = [2.5, True, np.True_, np.float32(2.5), "2", 2 + 0j, float("nan")]
GRID_15, SITES_1 = "grid must be an even number of at least 16, got 15", "chain sites must be at least 2, got 1"
# the refusal of least - 1 where it is not _count's "<what> must be at least <least>, got <least - 1>"
BELOW_LEAST = {
    "circulant_matrix": "circulant wraparound is ambiguous: need m > 2*r_max = 2, got 2",
    "compact_perturbation-index": "index 0 out of range 1..4",
    "band_functions": GRID_15, "symbol_sup_norm": GRID_15, "run_scenario-grid": GRID_15,
    "Symbol-k": "coefficient block at offset 0 has shape (2, 2), expected (1, 1)",
    "run_scenario-m": SITES_1, "run_scenario-n": SITES_1,
    "run_scenario-index": "index 0 out of range 1..12",
    "run_scenario-dimers_per_side": "dimers per side must be at least 1, got 0",
    "run_scenario-k": "k = 1 differs from the block size 2 of the reference symbol",
}


def _canonical(x):
    """What a result holds, with the type of each scalar, so that 2 and 2.0 differ wherever one is kept."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (tuple, list)):
        return tuple(map(_canonical, x))
    if isinstance(x, dict):
        return tuple((_canonical(key), _canonical(value)) for key, value in x.items())
    if isinstance(x, matrices.FiniteMatrix):
        return x.kind, _canonical(x.data)
    if dataclasses.is_dataclass(x):
        return type(x).__name__, tuple(_canonical(getattr(x, f.name)) for f in dataclasses.fields(x))
    return type(x).__name__, repr(x)


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("row", COUNTS)
def test_every_count_refuses_what_is_not_an_integer(tmp_path, monkeypatch, row, value):
    what, _, _, call = COUNTS[row]
    monkeypatch.chdir(tmp_path)  # nothing is read: the count is refused first
    with pytest.raises(ValueError, match=f"^{re.escape(f'{what} must be an integer, got {value!r}')}$"):
        call(value)


@pytest.mark.parametrize("whole", [float, np.int64, np.float32], ids=lambda kind: kind.__name__)
@pytest.mark.parametrize("row", COUNTS)
def test_every_count_reads_a_whole_float_or_numpy_integer_as_the_equal_int(tmp_path, monkeypatch, row, whole):
    _, _, n, call = COUNTS[row]
    matrices.save_matrix(SSH, tmp_path / "m.csv")
    monkeypatch.chdir(tmp_path)
    assert _canonical(call(whole(n))) == _canonical(call(n))


@pytest.mark.parametrize("row", COUNTS)
def test_every_count_refuses_one_below_its_least(tmp_path, monkeypatch, row):
    what, least, _, call = COUNTS[row]
    matrices.save_matrix(SSH, tmp_path / "m.csv")
    monkeypatch.chdir(tmp_path)
    call(least)  # accepted
    message = BELOW_LEAST.get(row, f"{what} must be at least {least}, got {least - 1}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(least - 1)
