"""Band-structure reconstruction for finite resonator chains.

The pipeline: build a finite chain matrix, diagonalise it, recover each
eigenvector's quasiperiodicity from the Bloch recurrence fitted to its
cells, and compare the recovered (quasiperiodicity, eigenvalue) cloud
against the bands of the underlying periodic symbol; localized defect
modes are those whose fit is evanescent, decaying from cell to cell.
"""

from .matrices import (FiniteMatrix, PerturbedPair, capacitance_1d, chain_capacitance,
                       circulant_matrix, compact_perturbation, dislocated_chain,
                       load_matrix, save_matrix, ssh_matrix, toeplitz_matrix)
from .reconstruct import (Points, ScenarioResult,
                          capacitance_eigenpairs_oracle, compare_to_symbol, detect_gaps,
                          reconstruct_bands, run_scenario, tridiagonal_eigenpairs_oracle)
from .spectra import (EigenDecomposition, hermitian_eigen, localization_metrics, near_far_split,
                      residual)
from .symbols import (BandStructure, Symbol, band_functions, banded_truncation,
                      cell_chain_symbol, check_assumptions, dimer_symbol, evaluate_symbol,
                      exponential_symbol, load_symbol, nearest_neighbour_symbol,
                      save_symbol, symbol_sup_norm)
from .transform import (brillouin_sample, discrete_quasiperiodicity, projection_profile,
                        quasiperiodic_extension, tfbt, zero_pad)

__version__ = "0.1.0"
