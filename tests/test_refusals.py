"""Argument checks of the library functions, each refusal matched to its whole message."""

import dataclasses
import re

import numpy as np
import pytest

from bandrec import matrices, reconstruct, spectra, symbols, transform

MONOMER = symbols.nearest_neighbour_symbol(2.0, -1.0)
DIMER = symbols.dimer_symbol(1.0, 2.0)
# a_{-s} = a_s = 0.5e-12 i: each offset is within Symbol's tolerance, their sum at alpha = 0 is not
SKEWED = symbols.Symbol(k=1, coeffs={0: [[1.0]], **{s: [[0.5e-12j]] for r in range(1, 61) for s in (r, -r)}})
SKEWED_MESSAGE = "symbol evaluation departs from Hermitian by 1.2e-10 relative to max|f|"
CHAIN = matrices.chain_capacitance([1.0, 2.0, 1.0])
SSH = matrices.ssh_matrix(1.0, 2.0, 5)  # 21 sites
COLUMNS = "expects a nonempty vector or matrix of column vectors, got shape"


def skewed_times(c):
    return symbols.Symbol(k=1, coeffs={s: c * b for s, b in SKEWED.coeffs.items()})


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: symbols.Symbol(k=0, coeffs={}), "block size must be at least 1, got 0", id="Symbol-k0"),
    pytest.param(lambda: symbols.Symbol(k=1, coeffs={0: [[2.0]], 10**20: [[-1.0]], -10**20: [[-1.0]]}),
                 "offset s must be a 64-bit integer, got 100000000000000000000", id="Symbol-offset-1e20"),
    pytest.param(lambda: matrices.toeplitz_matrix(MONOMER, 0), "block count must be at least 1, got 0",
                 id="toeplitz_matrix-m0"),
    pytest.param(lambda: matrices.capacitance_1d(2.0, -1.0, 1), "chain sites must be at least 2, got 1",
                 id="capacitance_1d-m1"),
    pytest.param(lambda: matrices.chain_capacitance([]), "need at least one spacing", id="chain_capacitance-empty"),
    pytest.param(lambda: matrices.FiniteMatrix(data=np.zeros((0, 0))),
                 "matrix must be square with n >= 1, got shape (0, 0)", id="FiniteMatrix-empty"),
    pytest.param(lambda: reconstruct.reconstruct_bands(matrices.FiniteMatrix(data=np.eye(4)), 2.5),
                 "block size must be an integer, got 2.5", id="reconstruct_bands-k2.5"),
    pytest.param(lambda: reconstruct.reconstruct_bands(matrices.FiniteMatrix(data=np.eye(4)), True),
                 "block size must be an integer, got True", id="reconstruct_bands-kTrue"),
    pytest.param(lambda: transform.brillouin_sample(0), "grid size must be at least 1, got 0",
                 id="brillouin_sample-m0"),
    pytest.param(lambda: transform.tfbt([], 1), "expected a nonempty 1-d vector, got shape (0,)", id="tfbt-k1-empty"),
    pytest.param(lambda: transform.quasiperiodic_extension([1.0, 0.0], 0.5, 0),
                 "number of cells must be at least 1, got 0", id="quasiperiodic_extension-m0"),
    pytest.param(lambda: symbols.banded_truncation(MONOMER, -1), "band radius must be at least 0, got -1",
                 id="banded_truncation-r-1"),
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
    pytest.param(lambda: spectra.ipr_localized_flags([]), "ipr_localized_flags expects a nonempty vector, got shape (0,)",
                 id="ipr_localized_flags-empty"),
    *(pytest.param(lambda scale=scale: spectra.degenerate_clusters([1.0, 1.0, 2.0], scale),
                   f"scale must be finite and nonnegative, got {scale}", id=f"degenerate_clusters-scale{scale}")
      for scale in (float("nan"), float("inf"), -1.0)),
    pytest.param(lambda: reconstruct.run_scenario({"scenario": "compact_defect", "n": 1}),
                 "chain sites must be at least 2, got 1", id="run_scenario-compact_defect-n1"),
    pytest.param(lambda: matrices.compact_perturbation(CHAIN, 2, float("nan")),
                 "need -1 < delta < inf, got delta = nan", id="compact_perturbation-delta-nan"),
    pytest.param(lambda: matrices.compact_perturbation(CHAIN, 2, float("inf")),
                 "need -1 < delta < inf, got delta = inf", id="compact_perturbation-delta-inf"),
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
    pytest.param(lambda: reconstruct.tridiagonal_eigenpairs_oracle(2.0, -1.0, 0), "size must be at least 1, got 0",
                 id="tridiagonal_eigenpairs_oracle-m0"),
    pytest.param(lambda: reconstruct.capacitance_eigenpairs_oracle(2.0, -1.0, 0), "size must be at least 1, got 0",
                 id="capacitance_eigenpairs_oracle-m0"),
    pytest.param(lambda: matrices.dimer_alternation(1.0, 2.0, -1), "spacing count must be at least 0, got -1",
                 id="dimer_alternation-count-1"),
    pytest.param(lambda: matrices.center_index(0), "size must be at least 1, got 0", id="center_index-n0"),
    pytest.param(lambda: reconstruct.run_scenario({"scenario": "external_matrix"}),
                 "external_matrix scenario needs a 'matrix' path", id="run_scenario-external_matrix-no-matrix"),
])
def test_a_refusal_names_what_it_refuses(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def _scenario(**config):
    return lambda v: reconstruct.run_scenario({key: v if value is None else value for key, value in config.items()})


UNIT = np.ones(6) / 6 ** 0.5
# (what, a valid count, the call taking it) for every public argument that is a count; run_scenario's
# external_matrix row reads m.csv from the current directory
COUNTS = {
    "brillouin_sample": ("grid size", 4, transform.brillouin_sample),
    "bin_alphas": ("grid size", 4, transform.bin_alphas),
    "zero_pad": ("block size", 4, lambda v: transform.zero_pad(UNIT, v)),
    "tfbt": ("block size", 4, lambda v: transform.tfbt(UNIT, v)),
    "projection_profile": ("block size", 4, lambda v: transform.projection_profile(UNIT, v)),
    "discrete_quasiperiodicity": ("block size", 4, lambda v: transform.discrete_quasiperiodicity(UNIT, v)),
    "quasiperiodic_extension": ("number of cells", 3, lambda v: transform.quasiperiodic_extension(UNIT, 0.5, v)),
    "toeplitz_matrix": ("block count", 3, lambda v: matrices.toeplitz_matrix(DIMER, v)),
    "circulant_matrix": ("block count", 3, lambda v: matrices.circulant_matrix(DIMER, v)),
    "capacitance_1d": ("chain sites", 3, lambda v: matrices.capacitance_1d(2.0, -1.0, v)),
    "ssh_matrix": ("dimers per side", 2, lambda v: matrices.ssh_matrix(1.0, 2.0, v)),
    "dislocated_chain": ("dimers per side", 2, lambda v: matrices.dislocated_chain(1.0, 2.0, 4.0, v)),
    "dislocated_spacing_sequence": ("dimers per side", 2,
                                    lambda v: matrices.dislocated_spacing_sequence(1.0, 2.0, 4.0, v)),
    "dimer_alternation": ("spacing count", 3, lambda v: matrices.dimer_alternation(1.0, 2.0, v)),
    "center_index": ("size", 5, matrices.center_index),
    "compact_perturbation-index": ("index", 2, lambda v: matrices.compact_perturbation(CHAIN, v, 0.5)),
    "banded_truncation": ("band radius", 2, lambda v: symbols.banded_truncation(symbols.exponential_symbol(), v)),
    "band_functions": ("grid", 32, lambda v: symbols.band_functions(DIMER, v)),
    "symbol_sup_norm": ("grid", 32, lambda v: symbols.symbol_sup_norm(DIMER, v)),
    "Symbol-k": ("block size", 2, lambda v: symbols.Symbol(k=v, coeffs={0: np.eye(2)})),
    "reconstruct_bands": ("block size", 2, lambda v: reconstruct.reconstruct_bands(SSH, v)),
    "tridiagonal_eigenpairs_oracle": ("size", 4, lambda v: reconstruct.tridiagonal_eigenpairs_oracle(2.0, -1.0, v)),
    "capacitance_eigenpairs_oracle": ("size", 4, lambda v: reconstruct.capacitance_eigenpairs_oracle(2.0, -1.0, v)),
    "run_scenario-m": ("m", 12, _scenario(scenario="periodic_nn", m=None, grid=32)),
    "run_scenario-n": ("n", 12, _scenario(scenario="compact_defect", n=None, grid=32)),
    "run_scenario-index": ("index", 3, _scenario(scenario="compact_defect", n=12, index=None, grid=32)),
    "run_scenario-dimers_per_side": ("dimers_per_side", 3, _scenario(scenario="ssh", dimers_per_side=None, grid=32)),
    "run_scenario-k": ("k", 2, _scenario(scenario="external_matrix", matrix="m.csv", k=None, symbol="dimer",
                                         grid=32)),
    "run_scenario-grid": ("grid", 32, _scenario(scenario="periodic_nn", m=12, grid=None)),
}
NOT_INTEGERS = [2.5, True, np.True_, np.float32(2.5), "2", 2 + 0j, float("nan")]


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
    what, _, call = COUNTS[row]
    monkeypatch.chdir(tmp_path)  # nothing is read: the count is refused first
    with pytest.raises(ValueError, match=f"^{re.escape(f'{what} must be an integer, got {value!r}')}$"):
        call(value)


@pytest.mark.parametrize("whole", [float, np.int64, np.float32], ids=lambda kind: kind.__name__)
@pytest.mark.parametrize("row", COUNTS)
def test_every_count_reads_a_whole_float_or_numpy_integer_as_the_equal_int(tmp_path, monkeypatch, row, whole):
    _, n, call = COUNTS[row]
    matrices.save_matrix(SSH, tmp_path / "m.csv")
    monkeypatch.chdir(tmp_path)
    assert _canonical(call(whole(n))) == _canonical(call(n))
