"""Seeded inputs for the workloads, one reconstruction call, and its output checks.

Each workload is an endless stream of calls drawn from a seeded
``random.Random``; the first call of the stream is the untimed warm-up.
bandrec sees only the generated configurations and files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path

import numpy as np

from bandrec import cli, outputs, reconstruct

# Gap modes each family must show: one for the defect chains (compact_defect
# only with delta > 0, the only case generated), none for periodic chains.
EXPECTED_GAP_MODES = {"ssh": 1, "dislocated": 1, "compact_defect": 1,
                      "periodic_nn": 0, "periodic_symbol": 0}
EIGEN_TOL = 1e-9            # relative residual and Gram defect of spectra.eigen_contract
ACCEPTANCE_04_MAX30 = 0.18  # bulk max bound of acceptance.04 at m=30
ORACLE_TOL = 1e-12          # periodic_nn eigenvalues vs the closed form, relative
PROBE_COLUMNS = 16

FORMATS = ("csv", "json", "svg")
OUTPUT_FILES = ("points.csv", "bands.csv", "gaps.json", "summary.json", "reconstruction.svg")


@dataclass(frozen=True)
class Call:
    """One reconstruction: a run_scenario config and the entry point it goes through."""

    config: dict
    via_cli: bool = False
    tag: str = ""

    @property
    def family(self) -> str:
        return self.config["scenario"]

    def argv(self, outdir: Path) -> list[str]:
        argv = ["reconstruct"]
        for key, value in self.config.items():
            argv += [f"--{key.replace('_', '-')}", str(value)]
        return argv + ["--format", ",".join(FORMATS), "--out", str(outdir)]


def chain_large(rng: random.Random, scale: float):
    """ssh, dislocated (d=4) and compact_defect (delta>0) chains of about 2000 sites.

    Each pass draws fresh spacings.  compact_defect enters through the CLI,
    which runs the same run_scenario + write_bundle behind argument parsing.
    """
    dps = max(3, round(500 * scale))
    for i in count():
        base = {"s1": rng.uniform(0.95, 1.05), "s2": rng.uniform(1.9, 2.1)}
        if i % 3 == 0:
            yield Call({"scenario": "ssh", "dimers_per_side": dps, **base})
        elif i % 3 == 1:
            yield Call({"scenario": "dislocated", "dimers_per_side": dps, "d": 4.0, **base})
        else:
            yield Call({"scenario": "compact_defect", "n": 4 * dps,
                        "delta": rng.uniform(0.3, 0.7), **base}, via_cli=True)


def sweep_small(rng: random.Random, scale: float):
    """CLI reconstructions of small chains (40-160 sites) across four families.

    Families come in seeded shuffles of all four, and each family deals its
    sizes from a shuffled deck of 31 sizes, so every run has the same mix of
    families and sizes.  The spacing pairs come from a set of four drawn once
    per seed, so many calls share a reference symbol; periodic_nn keeps
    bandrec's default couplings.  Sizes are small already and do not scale.
    """
    pairs = [(rng.uniform(0.95, 1.05), rng.uniform(1.9, 2.1)) for _ in range(4)]
    decks: dict[str, list[int]] = {}

    def size(family: str, sizes: range) -> int:
        if not decks.get(family):
            decks[family] = rng.sample(sizes, len(sizes))
        return decks[family].pop()

    def mixed():
        families = ["ssh", "dislocated", "compact_defect", "periodic_nn"]
        while True:
            rng.shuffle(families)
            for family in families:
                s1, s2 = rng.choice(pairs)
                if family == "ssh":
                    config = {"dimers_per_side": size(family, range(10, 41)), "s1": s1, "s2": s2}
                elif family == "dislocated":
                    config = {"dimers_per_side": size(family, range(10, 41)),
                              "d": rng.uniform(3.5, 4.5), "s1": s1, "s2": s2}
                elif family == "compact_defect":
                    config = {"n": size(family, range(40, 161, 4)),
                              "delta": rng.uniform(0.3, 0.7), "s1": s1, "s2": s2}
                else:
                    config = {"m": size(family, range(40, 161, 4)), "a0": 2.0, "a1": -1.0}
                yield Call({"scenario": family, **config}, via_cli=True)

    stream = mixed()
    yield next(stream)  # warm-up
    # The first timed call is acceptance.04's case: bandrec's default
    # long-range symbol -2^-|p| at m=30.
    yield Call({"scenario": "periodic_symbol", "m": 30}, via_cli=True, tag="acceptance.04")
    yield from stream


WORKLOADS = {"chain_large": chain_large, "sweep_small": sweep_small}


def calls(workload: str, seed: int, scale: float):
    return WORKLOADS[workload](random.Random(seed), scale)


def execute(call: Call, outdir: Path) -> None:
    """Run one reconstruction and write its files, as a user of bandrec would."""
    if call.via_cli:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(call.argv(outdir))
        if code != 0:
            raise RuntimeError(f"bandrec reconstruct exited with code {code}")
    else:
        result = reconstruct.run_scenario(call.config)
        outputs.write_bundle(result, outdir, FORMATS)


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    digest: dict[str, str] = field(default_factory=dict)
    bytes_written: int = 0
    bulk_max: float = math.nan


def _eigen_problems(matrix, eig) -> list[str]:
    A = matrix.data
    n = A.shape[0]
    lam, V = eig.values, eig.vectors
    if lam.shape != (n,) or V.shape != (n, n):
        return [f"eigenpairs missing: {lam.shape} values, {V.shape} vectors for n={n}"]
    if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(V))):
        return ["non-finite eigenpair"]
    probe = np.unique(np.linspace(0, n - 1, min(n, PROBE_COLUMNS)).round().astype(int))
    Vp = V[:, probe]
    scale = float(np.max(np.abs(lam)))
    res = float(np.max(np.linalg.norm(A @ Vp - Vp * lam[probe], axis=0)))
    gram = float(np.max(np.abs(Vp.conj().T @ V - np.eye(n)[probe])))
    problems = []
    if res > EIGEN_TOL * scale or gram > EIGEN_TOL:
        problems.append(f"eigen residual {res:.2e} (scale {scale:.2e}), gram defect {gram:.2e}")
    if np.any(np.diff(lam) < 0):
        problems.append("eigenvalues not ascending")
    return problems


def check(call: Call, outdir: Path, eigensolves: list, expected_gap_modes: dict) -> Outcome:
    """Check the files one call wrote and the eigenpairs it computed."""
    out = Outcome()
    try:
        _check(call, outdir, eigensolves, expected_gap_modes, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:  # malformed output files
        out.problems.append(f"outputs do not parse: {type(exc).__name__}: {exc}")
    return out


def _check(call, outdir, eigensolves, expected_gap_modes, out: Outcome) -> None:
    missing = [name for name in OUTPUT_FILES if not (outdir / name).is_file()]
    if missing:
        out.problems.append(f"missing output files {missing}")
        return
    for name in OUTPUT_FILES:
        data = (outdir / name).read_bytes()
        out.digest[name] = hashlib.sha256(data).hexdigest()
        out.bytes_written += len(data)

    summary = json.loads((outdir / "summary.json").read_text(encoding="utf-8"))
    n = summary["matrix_size"]
    if summary["n_points"] != n:
        out.problems.append(f"{summary['n_points']} points for {n} eigenpairs")
    want = expected_gap_modes[call.family]
    if summary["n_gap_modes"] != want:
        out.problems.append(f"{call.family}: {summary['n_gap_modes']} gap modes, expected {want}")
    out.bulk_max = float(summary["errors"]["bulk"]["max"])
    if not math.isfinite(out.bulk_max):
        out.problems.append("non-finite bulk error")
    if call.tag == "acceptance.04" and not out.bulk_max < ACCEPTANCE_04_MAX30:
        out.problems.append(f"q=1/2, m=30 bulk max {out.bulk_max:.4e} >= {ACCEPTANCE_04_MAX30}")

    with open(outdir / "points.csv", encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh][1:]
    # alpha_est, lambda, sup_ratio, ipr, band_error
    values = np.array([[float(r[c]) for c in (1, 2, 3, 4, 6)] for r in rows]).reshape(-1, 5)
    if len(rows) != n or not np.all(np.isfinite(values)):
        out.problems.append(f"points.csv: {len(rows)} rows for n={n}, or non-finite fields")
    elif call.family == "periodic_nn":
        c = call.config
        oracle = reconstruct.capacitance_eigenpairs_oracle(c["a0"], c["a1"], c["m"]).values
        err = float(np.max(np.abs(np.sort(values[:, 1]) - oracle)))
        if err > ORACLE_TOL * max(1.0, float(np.max(np.abs(oracle)))):
            out.problems.append(f"periodic_nn eigenvalues off the closed form by {err:.2e}")

    if len(eigensolves) != 1:
        out.problems.append(f"{len(eigensolves)} eigensolves recorded, expected 1")
    else:
        out.problems += _eigen_problems(*eigensolves[0])
        if eigensolves[0][1].n != n:
            out.problems.append(f"eigensolve of size {eigensolves[0][1].n}, summary says {n}")
