"""Named verification checks: module invariants plus the acceptance scenarios.

Each check is a pure function taking its tolerance dictionary and a seeded
generator, returning (passed, detail), and always runs at the tolerances
registered with it in CHECKS.  The registry drives both the CLI `verify`
subcommand and the test suite's check runner, so the two surfaces can
never drift apart.
"""

from __future__ import annotations

import csv
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import matrices, outputs, reconstruct, spectra, symbols, transform


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _fail_on(bad: list[str], ok_detail: str) -> tuple[bool, str]:
    return (False, "; ".join(bad)) if bad else (True, ok_detail)


# ---------------------------------------------------------------------------
# transform group

def check_dft_oracle(tol, rng):
    worst = 0.0
    for m in range(1, 65):
        v = rng.normal(size=m) + 1j * rng.normal(size=m)
        direct = np.array([np.sum(v * np.exp(-2j * np.pi * j * np.arange(m) / m)) for j in range(m)])
        direct /= np.sqrt(m)
        worst = max(worst, float(np.max(np.abs(transform.tfbt(v, 1)[0] - direct))))
    return worst <= tol["tol"], f"max deviation from direct summation {worst:.2e}"


def check_linearity_phase(tol, rng):
    worst = 0.0
    for _ in range(50):
        m, k = int(rng.integers(2, 33)), int(rng.integers(1, 4))
        u = rng.normal(size=m * k) + 1j * rng.normal(size=m * k)
        v = rng.normal(size=m * k) + 1j * rng.normal(size=m * k)
        a, b = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
        lhs = transform.tfbt(a * u + b * v, k)
        rhs = a * transform.tfbt(u, k) + b * transform.tfbt(v, k)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        w = u / np.linalg.norm(u)
        q0 = transform.discrete_quasiperiodicity(w, k)[0]
        q1 = transform.discrete_quasiperiodicity(w * np.exp(1j * rng.uniform(0, 2 * np.pi)), k)[0]
        worst = max(worst, abs(q0 - q1))
    return worst <= tol["tol"], f"max linearity/phase defect {worst:.2e}"


def check_circulant_quasiperiodicity(tol, rng):
    bad = []
    cases = [(symbols.nearest_neighbour_symbol(2.0, -1.0), (8, 17, 32)),
             (symbols.cell_chain_symbol([1.0, 2.0]), (8, 17, 32)),
             (symbols.cell_chain_symbol([1.0, 2.0, 3.0]), (8, 17, 32))]
    worst = 0.0
    for sym, ms in cases:
        for m in ms:
            C = matrices.circulant_matrix(sym, m)
            for alpha in transform.brillouin_sample(m):
                # with blocks (i, j) = a_{i-j}, the cell vector of the
                # quasiperiodic eigenvector at +alpha diagonalises f(e^{-i alpha})
                vals, vecs = np.linalg.eigh(symbols.evaluate_symbol(sym, -alpha))
                for p in range(sym.k):
                    v = transform.quasiperiodic_extension(vecs[:, p], alpha, m)
                    res = spectra.residual(C, vals[p], v)
                    err = abs(transform.discrete_quasiperiodicity(v, sym.k)[0] - abs(alpha))
                    worst = max(worst, res, err)
                    if res > tol["tol"] or err > tol["tol"]:
                        bad.append(f"k={sym.k} m={m} alpha={alpha:.3f}: res={res:.1e} err={err:.1e}")
    return _fail_on(bad[:3], f"worst residual/quasiperiodicity error {worst:.2e}")


# ---------------------------------------------------------------------------
# symbol group

def check_hermitian_evaluation(tol, rng):
    syms = [symbols.nearest_neighbour_symbol(2.0, -1.0),
            symbols.cell_chain_symbol([1.0, 2.0]),
            symbols.exponential_symbol()]
    worst = 0.0
    for sym in syms:
        for alpha in rng.uniform(-np.pi, np.pi, size=25):
            f = symbols.evaluate_symbol(sym, alpha)
            worst = max(worst, float(np.max(np.abs(f - f.conj().T))))
    return worst <= tol["tol"], f"max Hermitian defect {worst:.2e}"


def check_closed_form_bands(tol, rng):
    bs = symbols.band_functions(symbols.nearest_neighbour_symbol(2.0, -1.0), 64)
    worst = float(np.max(np.abs(bs.values[0] - (2.0 - 2.0 * np.cos(bs.alphas)))))
    dim = symbols.dimer_symbol(1.0, 2.0)
    bs2 = symbols.band_functions(dim, 64)
    h = np.abs(-1.0 - 0.5 * np.exp(1j * bs2.alphas))
    worst = max(worst, float(np.max(np.abs(bs2.values[0] - (1.5 - h)))))
    worst = max(worst, float(np.max(np.abs(bs2.values[1] - (1.5 + h)))))
    # decoupled three-band symbol: every band is a shifted cosine, in closed form
    tri = symbols.Symbol(k=3, coeffs={0: np.diag([0.0, 5.0, 10.0]),
                                      1: np.diag([-1.0, -1.0, -1.0]),
                                      -1: np.diag([-1.0, -1.0, -1.0])})
    bs3 = symbols.band_functions(tri, 64)
    for p, d in enumerate((0.0, 5.0, 10.0)):
        worst = max(worst, float(np.max(np.abs(bs3.values[p] - (d - 2.0 * np.cos(bs3.alphas))))))
    worst = max(worst, *(symbols.check_assumptions(b)["evenness_defect"] for b in (bs, bs2, bs3)))
    return worst <= tol["tol"], f"max deviation from closed forms/symmetry {worst:.2e}"


def check_truncation_bound(tol, rng):
    sym = symbols.exponential_symbol()
    bad = []
    worst = 0.0
    for r in (0, 2, 5, 9):
        trunc = symbols.banded_truncation(sym, r)
        measured = symbols.symbol_difference_sup_norm(sym, trunc, samples=256)
        bound = trunc.tail_bound - sym.tail_bound  # sum |a_s| over the blocks dropped at r
        worst = max(worst, measured - bound)
        if measured > bound + tol["tol"]:
            bad.append(f"r={r}: measured {measured:.6f} exceeds coefficient bound {bound:.6f}")
    return _fail_on(bad, f"max excess over triangle bound {worst:.2e}")


# ---------------------------------------------------------------------------
# matrices group

def check_chain_invariants(tol, rng):
    bad = []
    for n in (7, 24, 81):
        spac = rng.uniform(0.5, 3.0, size=n - 1)
        C = matrices.chain_capacitance(spac)
        row_sums = float(np.max(np.abs(C.data.sum(axis=1))))
        if row_sums > tol["tol"]:
            bad.append(f"n={n}: row sums {row_sums:.1e}")
        vals, vecs = np.linalg.eigh(C.data)
        i0 = int(np.argmin(np.abs(vals)))
        const = vecs[:, i0] / vecs[0, i0]
        if abs(vals[i0]) > 1e-10 or np.max(np.abs(const - const[0])) > 1e-6:
            bad.append(f"n={n}: kernel not constant (lam={vals[i0]:.1e})")
    M = matrices.ssh_matrix(1.0, 2.0, 6)
    A = M.data
    if np.max(np.abs(A - A.T)) > 0 or np.max(np.abs(A - A[::-1, ::-1].T)) > 0:
        bad.append("ssh matrix not symmetric/persymmetric")
    return _fail_on(bad, "row sums, kernels, and ssh symmetries hold")


def check_toeplitz_circulant_interior(tol, rng):
    sym = symbols.cell_chain_symbol([1.0, 2.0])
    r = sym.r_max
    for m in (8, 15):
        T = matrices.toeplitz_matrix(sym, m)
        C = matrices.circulant_matrix(sym, m)
        k = sym.k
        inner = slice(r * k, (m - r) * k)
        if np.max(np.abs(T.data[inner, inner] - C.data[inner, inner])) > 0:
            return False, f"m={m}: interior blocks differ"
        diff = np.count_nonzero(T.data != C.data)
        if diff == 0:
            return False, f"m={m}: constructions identical, corners missing"
    return True, "interior agreement with corner-only differences"


def check_perturbation_similarity(tol, rng):
    worst = 0.0
    for n in (10, 37):
        A = rng.normal(size=(n, n))
        C = matrices.FiniteMatrix(data=(A + A.T) / 2)
        pair = matrices.compact_perturbation(C, index=n // 2, delta=0.5)
        s_bc = np.sort(np.linalg.eigvals(pair.bc.data).real)
        s_sym = np.sort(np.linalg.eigvalsh(pair.symmetrized.data))
        worst = max(worst, float(np.max(np.abs(s_bc - s_sym))))
    return worst <= tol["tol"], f"max sorted-spectrum mismatch {worst:.2e}"


# ---------------------------------------------------------------------------
# spectra group

def check_eigen_contract(tol, rng):
    bad = []
    worst = 0.0
    for n in (60, 400, 2000):
        A = rng.normal(size=(n, n))
        M = matrices.FiniteMatrix(data=(A + A.T) / 2)
        eig = spectra.hermitian_eigen(M)
        scale = float(np.max(np.abs(eig.values)))  # spectral norm of a Hermitian matrix
        # full n^3 products are too slow at n=2000 on this BLAS; probe columns
        probe = rng.choice(n, size=min(n, 48), replace=False)
        V = eig.vectors[:, probe]
        res = float(np.max(spectra.residual(M, eig.values[probe], V)))
        gram = float(np.max(np.abs(V.conj().T @ eig.vectors - np.eye(n)[probe])))
        order = float(np.max(np.diff(eig.values) < 0))
        worst = max(worst, res / scale, gram)
        if res > tol["tol"] * scale or gram > tol["tol"] or order:
            bad.append(f"n={n}: residual {res:.1e} gram {gram:.1e} sorted={not order}")
    return _fail_on(bad, f"worst relative residual/gram defect {worst:.2e} (48-column probes)")


# ---------------------------------------------------------------------------
# reconstruct group

def check_error_trend(tol, rng):
    maxima = [reconstruct.run_scenario({"scenario": "periodic_symbol", "m": m}).stats["bulk"]["max"]
              for m in (40, 80, 160)]
    ok = all(maxima[i + 1] <= maxima[i] * tol["slack"] for i in range(len(maxima) - 1))
    return ok, f"bulk maxima along m=40,80,160: " + ", ".join(f"{x:.3e}" for x in maxima)


def check_gap_localization_consistency(tol, rng):
    bad = []
    for scenario in ("ssh", "dislocated"):
        result = reconstruct.run_scenario({"scenario": scenario})
        gap_set = {g["index"] for g in result.gap_report["gap_modes"]}
        loc_set = set(np.flatnonzero(result.points.localized).tolist())
        if gap_set != loc_set:
            bad.append(f"{scenario}: gap modes {sorted(gap_set)} vs localized {sorted(loc_set)}")
    return _fail_on(bad, "localized points coincide with gap modes on ssh and dislocated defaults")


def check_cli_determinism(tol, rng):
    result = reconstruct.run_scenario({"scenario": "dislocated", "dimers_per_side": 6})
    names = ("points.csv", "bands.csv", "gaps.json", "summary.json", "reconstruction.svg")
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp) / "a", Path(tmp) / "b"
        outputs.write_bundle(result, a, formats=("csv", "json", "svg"))
        outputs.write_bundle(reconstruct.run_scenario({"scenario": "dislocated", "dimers_per_side": 6}),
                             b, formats=("csv", "json", "svg"))
        for name in names:
            if (a / name).read_bytes() != (b / name).read_bytes():
                return False, f"{name} differs between identical runs"
        with open(a / "points.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if not rows:
            return False, "points.csv is empty"
        for row in rows:  # numeric fields must re-parse
            float(row["alpha_est"]), float(row["lambda"]), float(row["ipr"])
    return True, "identical runs emit byte-identical files that re-parse"


def _rebased(eig, rng) -> np.ndarray:
    """eig's vectors with each degenerate cluster, a lone vector included, turned by a random unitary."""
    W = eig.vectors.astype(complex)
    for cluster in spectra.degenerate_clusters(eig.values, float(np.abs(eig.values).max())):
        z = rng.normal(size=(len(cluster),) * 2) + 1j * rng.normal(size=(len(cluster),) * 2)
        W[:, cluster] = eig.vectors[:, cluster] @ np.linalg.qr(z)[0]
    return W


def check_rebase_invariance(tol, rng):
    C = matrices.circulant_matrix(symbols.nearest_neighbour_symbol(2.0, -1.0), 16)
    eig = spectra.hermitian_eigen(C)
    W = _rebased(eig, rng)
    worst = max(abs(transform.discrete_quasiperiodicity(W[:, i], 1)[0]
                    - transform.discrete_quasiperiodicity(eig.vectors[:, i], 1)[0]) for i in range(eig.n))
    return worst <= tol["tol"], f"max quasiperiodicity drift under re-basing {worst:.2e}"


# ---------------------------------------------------------------------------
# acceptance criteria

def acceptance_01_circulant_exactness(tol, rng):
    sym = symbols.nearest_neighbour_symbol(2.0, -1.0)
    bad = []
    worst = 0.0
    for m in (8, 16, 32):
        C = matrices.circulant_matrix(sym, m)
        eig = spectra.hermitian_eigen(C)
        targets = np.abs(transform.brillouin_sample(m))
        for vecs in (eig.vectors, _rebased(eig, rng)):
            for i in range(eig.n):
                q = transform.discrete_quasiperiodicity(vecs[:, i], 1)[0]
                lam_err = abs(eig.values[i] - (2.0 - 2.0 * np.cos(q)))
                grid_err = float(np.min(np.abs(targets - q)))
                worst = max(worst, lam_err, grid_err)
                if lam_err > tol["tol"] or grid_err > tol["tol"]:
                    bad.append(f"m={m} i={i}: lam_err={lam_err:.1e} grid_err={grid_err:.1e}")
    return _fail_on(bad[:3], f"worst error {worst:.2e} over m in {{8,16,32}} incl. degenerate re-bases")


def acceptance_02_even_index_exactness(tol, rng):
    worst = 0.0
    for m in (20, 40, 80):
        eig = reconstruct.capacitance_eigenpairs_oracle(2.0, -1.0, m)
        for s in range(2, m, 2):
            q = transform.discrete_quasiperiodicity(eig.vectors[:, s], 1)[0]
            worst = max(worst, abs(q - np.pi * s / m))
    return worst <= tol["tol"], f"max |Q - pi*s/m| over even indices {worst:.2e}"


def acceptance_03_odd_index_convergence(tol, rng):
    # the odd-index vector's quasiperiodicity pi*s/(m+1) lies between the bins pi*s/m; it is read, not approached
    errs = []
    for m in (41, 81, 161, 321):
        s = round(0.3 * m)
        if s % 2 == 0:
            s += 1
        eig = reconstruct.tridiagonal_eigenpairs_oracle(2.0, -1.0, m)
        q = transform.discrete_quasiperiodicity(eig.vectors[:, s - 1], 1)[0]
        errs.append(abs(q - np.pi * s / (m + 1)))
    return max(errs) <= tol["tol"], "|Q - pi*s/(m+1)| at m = 41, 81, 161, 321: " + ", ".join(f"{e:.1e}" for e in errs)


def acceptance_04_exponential_symbol(tol, rng):
    bulk = {m: reconstruct.run_scenario({"scenario": "periodic_symbol", "m": m}).stats["bulk"] for m in (30, 120)}
    bad = []
    if bulk[30]["max"] >= tol["max30"]:
        bad.append(f"bulk max at m=30 is {bulk[30]['max']:.3e} >= {tol['max30']:g}")
    if bulk[30]["mean"] >= tol["mean30"]:
        bad.append(f"bulk mean at m=30 is {bulk[30]['mean']:.3e} >= {tol['mean30']:g}")
    if bulk[120]["max"] >= bulk[30]["max"]:
        bad.append(f"no improvement: {bulk[120]['max']:.3e} at m=120 vs {bulk[30]['max']:.3e}")
    return _fail_on(bad, f"bulk max {bulk[30]['max']:.3e} (m=30) -> {bulk[120]['max']:.3e} (m=120), "
                         f"mean {bulk[30]['mean']:.3e} (m=30)")


def acceptance_05_ssh(tol, rng):
    result = reconstruct.run_scenario({"scenario": "ssh"})
    bad = []
    modes = result.gap_report["gap_modes"]
    if len(modes) != 1:
        bad.append(f"expected exactly one gap mode, found {len(modes)}")
    else:
        gi = modes[0]["index"]
        iprs = result.points.ipr
        ratio = iprs[gi] / np.median(iprs)
        if ratio <= tol["ipr_factor"]:
            bad.append(f"gap-mode ipr only {ratio:.2f}x the median")
        eig = spectra.hermitian_eigen(result.matrix)
        _, masses = transform.projection_profile(eig.vectors[:, gi], 2)
        if masses.max() >= tol["max_bin"]:
            bad.append(f"gap-mode peak bin weight {masses.max():.3f} >= {tol['max_bin']:g}")
        others = np.delete(result.points.band_error, gi)
        if others.max() >= tol["band_err"]:
            bad.append(f"non-gap band error up to {others.max():.3e}")
    return _fail_on(bad, f"one gap mode at {modes[0]['lambda']:.4f}, flat projection profile, "
                         f"non-gap errors < {tol['band_err']:g}" if modes else "")


def acceptance_06_dislocated(tol, rng):
    result = reconstruct.run_scenario({"scenario": "dislocated"})
    bad = []
    modes = result.gap_report["gap_modes"]
    if len(modes) != 1:
        bad.append(f"expected exactly one gap mode, found {len(modes)}")
    else:
        if not result.points.localized[modes[0]["index"]]:
            bad.append("gap mode not flagged localized")
    if result.stats["bulk"]["max"] >= tol["band_err"]:
        bad.append(f"bulk band error {result.stats['bulk']['max']:.3e}")
    return _fail_on(bad, f"one localized gap mode, bulk errors below {tol['band_err']:g}")


def acceptance_07a_compact_defect_negative(tol, rng):
    # Scaling row i by 1+delta gives C v = lam (1 + eps e_i e_i^T) v with
    # eps = -delta/(1+delta), so a bound state solves 1 = lam eps G_ii(lam).
    # In 1D G_ii diverges at the band edges, so every delta < 0 (eps > 0)
    # binds exactly one state just below the upper band (and every delta > 0
    # one just above the lower band, criterion 7b).  A bound state's
    # eigenvalue is size-independent; a band-edge state's moves like 1/n^2.
    results = [reconstruct.run_scenario({"scenario": "compact_defect", "delta": -0.3, "n": n})
               for n in (80, 160)]
    modes = [r.gap_report["gap_modes"] for r in results]
    if [len(m) for m in modes] != [1, 1]:
        found = [[round(g["lambda"], 4) for g in m] for m in modes]
        return False, f"expected one gap mode for delta=-0.3 at n=80 and n=160, found {found}"
    lam80, lam160 = modes[0][0]["lambda"], modes[1][0]["lambda"]
    drift = abs(lam160 - lam80)
    bulk_max = results[0].stats["bulk"]["max"]
    bad = []
    if not 1.9 < lam80 < 2.0:
        bad.append(f"gap mode at {lam80:.4f} is not in the upper part (1.9, 2.0) of the gap")
    if drift > tol["drift"]:
        bad.append(f"gap mode moves by {drift:.1e} from n=80 to n=160 (> {tol['drift']:g}): "
                   f"not a bound state")
    if bulk_max >= tol["band_err"]:
        bad.append(f"bulk band error {bulk_max:.3e}")
    return _fail_on(bad, f"one bound gap mode at {lam80:.4f} (moves {drift:.1e} from n=80 "
                         f"to n=160), bulk errors below {tol['band_err']:g}")


def acceptance_07b_compact_defect_positive(tol, rng):
    result = reconstruct.run_scenario({"scenario": "compact_defect", "delta": 0.5})
    modes = result.gap_report["gap_modes"]
    bad = []
    if not modes:
        bad.append("expected at least one gap mode for delta=+0.5")
    elif not result.points.localized[[g["index"] for g in modes]].all():
        bad.append("gap mode present but not flagged localized")
    return _fail_on(bad, f"{len(modes)} localized gap mode(s) at delta=+0.5")


def acceptance_08_near_far(tol, rng):
    bad = []
    for trial in range(100):
        n = int(rng.integers(6, 51))
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        M = matrices.FiniteMatrix(data=(A + A.conj().T) / 2)
        eig = spectra.hermitian_eigen(M)
        i = int(rng.integers(n))
        eps = float(rng.uniform(0.05, 0.4))
        lam_eps = float(eig.values[i] + rng.uniform(-eps ** 2 / 3, eps ** 2 / 3))
        far = np.flatnonzero(np.abs(eig.values - lam_eps) > eps)
        if far.size == 0:
            continue
        j = int(far[np.argmax(np.abs(eig.values[far] - lam_eps))])
        c = eps ** 2 / (3.0 * abs(eig.values[j] - lam_eps))
        u = np.sqrt(1 - c ** 2) * eig.vectors[:, i] + c * eig.vectors[:, j]
        res = spectra.residual(M, lam_eps, u)
        if res >= eps ** 2:
            bad.append(f"trial {trial}: construction broke, residual {res:.1e} >= eps^2")
            continue
        u_par, u_perp = spectra.near_far_split(eig, lam_eps, eps, u)
        recon = np.linalg.norm(u_par + u_perp - u)
        ortho = abs(np.vdot(u_par, u_perp))
        perp_norm = np.linalg.norm(u_perp)
        if perp_norm >= eps or np.linalg.norm(u_par) <= np.sqrt(1 - eps ** 2):
            bad.append(f"trial {trial}: perp {perp_norm:.3e} vs eps {eps:.3e}")
        if recon > 1e-12 or ortho > 1e-10:
            bad.append(f"trial {trial}: reconstruction {recon:.1e} orthogonality {ortho:.1e}")
    return _fail_on(bad[:3], "100 randomized instances satisfy the near/far bounds")


def acceptance_09_unitarity(tol, rng):
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 65))
        k = int(rng.integers(1, 4))
        n = m * k - int(rng.integers(0, k))  # up to k - 1 sites short of m cells, so zero_pad and tfbt pad
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v /= np.linalg.norm(v)
        worst = max(worst, abs(np.linalg.norm(transform.tfbt(v[:m], 1)) - np.linalg.norm(v[:m])))
        worst = max(worst, abs(np.linalg.norm(transform.zero_pad(v, k)) - 1.0))
        worst = max(worst, abs(np.linalg.norm(transform.tfbt(v, k)) - 1.0))
    return worst <= tol["tol"], f"max norm drift {worst:.2e}"


def acceptance_10_truncation_bounds(tol, rng):
    sym = symbols.exponential_symbol()
    m = 60
    T = matrices.toeplitz_matrix(sym, m)
    eig = spectra.hermitian_eigen(T)
    bad = []
    worst_eq = 0.0
    for r in range(2, 11):
        trunc = symbols.banded_truncation(sym, r)
        measured = symbols.symbol_difference_sup_norm(sym, trunc, samples=256)
        analytic = 2.0 ** (1 - r)
        worst_eq = max(worst_eq, abs(measured - analytic))
        if abs(measured - analytic) > tol["tail_tol"]:
            bad.append(f"r={r}: sampled sup norm {measured:.10f} vs analytic tail {analytic:.10f}")
        res = float(np.max(spectra.residual(matrices.toeplitz_matrix(trunc, m), eig.values, eig.vectors)))
        if res > analytic:
            bad.append(f"r={r}: residual {res:.6f} exceeds the sup-norm bound {analytic:.6f}")
    return _fail_on(bad, f"tail sums match to {worst_eq:.2e}; residuals stay below the bounds")


def acceptance_11_delocalisation_trend(tol, rng):
    sym = symbols.nearest_neighbour_symbol(2.0, -1.0)
    sups = []
    for m in (40, 80, 160, 320):
        eig = spectra.hermitian_eigen(matrices.toeplitz_matrix(sym, m))
        s = round(0.3 * m)
        sup, _ = spectra.localization_metrics(eig.vectors[:, s - 1])
        sups.append(sup)
    ok = all(sups[i + 1] <= sups[i] * tol["slack"] for i in range(len(sups) - 1))
    return ok, "tracked sup-norms: " + ", ".join(f"{x:.4f}" for x in sups)


# ---------------------------------------------------------------------------
# registry

CHECKS = [
    ("transform.dft_oracle", check_dft_oracle, {"tol": 1e-10}),
    ("transform.linearity_phase", check_linearity_phase, {"tol": 1e-12}),
    ("transform.circulant_quasiperiodicity", check_circulant_quasiperiodicity, {"tol": 1e-10}),
    ("symbol.hermitian_evaluation", check_hermitian_evaluation, {"tol": 1e-12}),
    ("symbol.closed_form_bands", check_closed_form_bands, {"tol": 1e-10}),
    ("symbol.truncation_bound", check_truncation_bound, {"tol": 1e-12}),
    ("matrices.chain_invariants", check_chain_invariants, {"tol": 1e-12}),
    ("matrices.toeplitz_circulant_interior", check_toeplitz_circulant_interior, {}),
    ("matrices.perturbation_similarity", check_perturbation_similarity, {"tol": 1e-9}),
    ("spectra.eigen_contract", check_eigen_contract, {"tol": 1e-9}),
    ("reconstruct.error_trend", check_error_trend, {"slack": 1.1}),
    ("reconstruct.gap_localization_consistency", check_gap_localization_consistency, {}),
    ("reconstruct.rebase_invariance", check_rebase_invariance, {"tol": 1e-10}),
    ("cli.determinism", check_cli_determinism, {}),
    ("acceptance.01_circulant_exactness", acceptance_01_circulant_exactness, {"tol": 1e-10}),
    ("acceptance.02_even_index_exactness", acceptance_02_even_index_exactness, {"tol": 1e-10}),
    ("acceptance.03_odd_index_convergence", acceptance_03_odd_index_convergence, {"tol": 1e-10}),
    # each band-error tolerance is about ten times its figure at one and two BLAS threads (1.08e-12 and 5.61e-13,
    # 1.58e-4, 3.73e-4), or a hundred ulps for one at rounding (07a, 1.1e-15); without the Bloch refit 05, 06
    # and 07a read 1.96e-2, 1.87e-2 and 1.43e-2, and fail
    ("acceptance.04_exponential_symbol", acceptance_04_exponential_symbol,
     {"max30": 1e-11, "mean30": 5e-12}),
    ("acceptance.05_ssh", acceptance_05_ssh,
     {"ipr_factor": 10.0, "max_bin": 0.2, "band_err": 2e-3}),
    ("acceptance.06_dislocated", acceptance_06_dislocated, {"band_err": 4e-3}),
    ("acceptance.07a_compact_defect_negative", acceptance_07a_compact_defect_negative,
     {"band_err": 1e-13, "drift": 1e-5}),
    ("acceptance.07b_compact_defect_positive", acceptance_07b_compact_defect_positive, {}),
    ("acceptance.08_near_far", acceptance_08_near_far, {}),
    ("acceptance.09_unitarity", acceptance_09_unitarity, {"tol": 1e-12}),
    ("acceptance.10_truncation_bounds", acceptance_10_truncation_bounds, {"tail_tol": 1e-8}),
    ("acceptance.11_delocalisation_trend", acceptance_11_delocalisation_trend, {"slack": 1.05}),
]


def run_check(name: str, seed: int = 0) -> CheckResult:
    """Run the registered check name at its registered tolerances, with a generator seeded by seed."""
    for check_name, fn, tols in CHECKS:
        if check_name == name:
            rng = np.random.default_rng(seed)
            start = time.perf_counter()
            try:
                passed, detail = fn(tols, rng)
            except Exception as exc:  # a crashing check is a failing check
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            return CheckResult(name=check_name, passed=passed, detail=detail,
                               seconds=time.perf_counter() - start)
    raise ValueError(f"unknown check {name!r}")


def run_checks(only: str | None = None, seed: int = 0) -> list[CheckResult]:
    """Run every check whose name contains only (every check when only is None)."""
    results = [run_check(name, seed=seed) for name, _, _ in CHECKS if not only or only in name]
    if not results:
        raise ValueError(f"no checks match {only!r}")
    return results
