"""Argument checks of the library functions, each refusal matched to its whole message."""

import re

import numpy as np
import pytest

from bandrec import matrices, reconstruct, symbols, transform

MONOMER = symbols.nearest_neighbour_symbol(2.0, -1.0)
DIMER = symbols.dimer_symbol(1.0, 2.0)
# a_{-s} = a_s = 0.5e-12 i: each offset is within Symbol's tolerance, their sum at alpha = 0 is not
SKEWED = symbols.Symbol(k=1, coeffs={0: [[1.0]], **{s: [[0.5e-12j]] for r in range(1, 61) for s in (r, -r)}})


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: symbols.Symbol(k=0, coeffs={}), "block size must be positive, got 0", id="Symbol-k0"),
    pytest.param(lambda: symbols.Symbol(k=1, coeffs={0: [[2.0]], 10**20: [[-1.0]], -10**20: [[-1.0]]}),
                 "offset s must be a 64-bit integer, got 100000000000000000000", id="Symbol-offset-1e20"),
    pytest.param(lambda: matrices.toeplitz_matrix(MONOMER, 0), "block count must be positive, got 0",
                 id="toeplitz_matrix-m0"),
    pytest.param(lambda: matrices.capacitance_1d(2.0, -1.0, 1), "chain needs at least 2 sites, got 1",
                 id="capacitance_1d-m1"),
    pytest.param(lambda: matrices.chain_capacitance([]), "need at least one spacing", id="chain_capacitance-empty"),
    pytest.param(lambda: matrices.FiniteMatrix(data=np.zeros((0, 0))),
                 "matrix must be square with n >= 1, got shape (0, 0)", id="FiniteMatrix-empty"),
    pytest.param(lambda: reconstruct.reconstruct_bands(matrices.FiniteMatrix(data=np.eye(4)), 2.5),
                 "k must be an integer, got 2.5", id="reconstruct_bands-k2.5"),
    pytest.param(lambda: reconstruct.reconstruct_bands(matrices.FiniteMatrix(data=np.eye(4)), True),
                 "k must be an integer, got True", id="reconstruct_bands-kTrue"),
    pytest.param(lambda: transform.brillouin_sample(0), "grid size must be positive, got 0",
                 id="brillouin_sample-m0"),
    pytest.param(lambda: transform.tfbt([], 1), "expected a nonempty 1-d vector, got shape (0,)", id="tfbt-k1-empty"),
    pytest.param(lambda: transform.quasiperiodic_extension([1.0, 0.0], 0.5, 0),
                 "number of cells must be positive, got 0", id="quasiperiodic_extension-m0"),
    pytest.param(lambda: symbols.banded_truncation(MONOMER, -1), "band radius must be nonnegative, got -1",
                 id="banded_truncation-r-1"),
    pytest.param(lambda: symbols.symbol_difference_sup_norm(MONOMER, DIMER), "symbols must share the block size",
                 id="symbol_difference_sup_norm-k1-k2"),
    pytest.param(lambda: symbols.symbol_from_dict([1]), "symbol description: expected an object, got list",
                 id="symbol_from_dict-list"),
    pytest.param(lambda: symbols.complex_from_parts({"re": [["x"]]}, "block"),
                 "block: could not convert string to float: 'x'", id="complex_from_parts-string"),
    pytest.param(lambda: symbols.band_functions(SKEWED, 64),
                 "symbol evaluation departs from Hermitian by 1.2e-10 relative to max(1, max|f|)",
                 id="band_functions-skewed"),
    pytest.param(lambda: symbols.band_functions(MONOMER, 8), "grid must be an even number of at least 16, got 8",
                 id="band_functions-grid8"),
    pytest.param(lambda: reconstruct.tridiagonal_eigenpairs_oracle(2.0, -1.0, 0), "size must be positive, got 0",
                 id="tridiagonal_eigenpairs_oracle-m0"),
    pytest.param(lambda: reconstruct.capacitance_eigenpairs_oracle(2.0, -1.0, 0), "size must be positive, got 0",
                 id="capacitance_eigenpairs_oracle-m0"),
    pytest.param(lambda: reconstruct.run_scenario({"scenario": "external_matrix"}),
                 "external_matrix scenario needs a 'matrix' path", id="run_scenario-external_matrix-no-matrix"),
])
def test_a_refusal_names_what_it_refuses(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
