"""The reference runs of the output contract, read back from their files and compared with a committed record.

Each run of test_cli.RERUNS runs once, cold (the band memo empty), as the
tier-1 rerun test runs it, and its entry in reference_outputs.json holds
- exact fields, compared exactly: the gap count, the gap-mode indices,
  n_points, n_localized and the index set of the localized column;
- figures, compared within RTOL relative: each gap mode's lambda and
  alpha_est, the errors block of summary.json, and the gap intervals.
A bands run writes no gaps.json, so its entry holds the gap count and the
intervals of the band structure it sampled, as it prints them.

RTOL = 1e-12 is the rounding-order rule's own bound for a figure above
rounding: a change that only reorders rounding keeps it within that bound.
A band error is a difference of two eigenvalues, |lambda - lambda_p|, so
its rounding is absolute, eps times the run's largest |lambda|, however
small the error itself: the bulk max of a chain without a defect sits at
rounding and moves by its own size under any reorder, and the BLAS thread
count reorders the eigensolve of the n >= 1001 runs.  So a figure of the
errors block may also differ by ERROR_ULPS such roundings.  Written at two
OpenBLAS threads, the record reads the same at four; at one thread the bulk
max of compact_defect-n2000-delta-0.3 reads 1.33e-15 against 1.44e-15 (its
mean 3.15e-16 against 3.09e-16), and the bulk mean of compact_defect-n1001
moves by 7e-18, each less than one rounding of the run's largest |lambda|.

An accuracy change, or an output that adds a recorded field, rewrites the
record in the same change, so the record's diff shows what moved.  Each
reconstruct run's bulk max is also held below its BULK_MAX bound, which an
accuracy change may only lower.  Running this file as a script rewrites
the record:

    PYTHONPATH=src python tests/test_reference_outputs.py
"""

import contextlib
import csv
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from bandrec import matrices, reconstruct, symbols
from bandrec.cli import main
from test_cli import RERUNS

RECORD = Path(__file__).with_name("reference_outputs.json")
RTOL = 1e-12
ERROR_ULPS = 4  # the errors block's absolute slack, in units of eps * max|lambda| of the run
# The bulk max of each reconstruct run, above its measured value at OpenBLAS 1 and 2 threads alike.  The Bloch fit
# reads a chain without a defect to rounding; a defect costs the one trimming step more cells than it drops.
BULK_MAX = {
    "periodic_nn": 1e-14,                          # measured 2.2e-15
    "periodic_symbol": 2e-12,                      # 1.08e-12: the exponential symbol's evanescent roots
    "ssh": 1e-14,                                  # 3.3e-16
    "dislocated": 5e-4,                            # 3.73e-4
    "compact_defect": 1e-14,                       # 1.3e-15
    "external_matrix": None,                       # no bulk point
    "periodic_nn-m200": 1e-14,                     # 2.2e-15
    "periodic_symbol-dimer": 1e-14,                # 1.3e-15
    "periodic_symbol-exponential-m40": 2e-12,      # 1.19e-12
    "ssh-default": 2e-4,                           # 1.58e-4
    "ssh-dps50-grid1024": 4e-5,                    # 2.84e-5
    "compact_defect-delta-0.3": 1e-14,             # 1.1e-15
    "compact_defect-n2000-delta-0.3": 1e-14,       # 1.3e-15 at one thread, 1.4e-15 at two
    "compact_defect-n1001": 6e-7,                  # 4.19e-7
}


def run_entry(family: str) -> dict:
    """Run RERUNS[family] cold in the current directory, beside its m.csv, and read its record entry back."""
    argv = [arg.format(matrix="m.csv") for arg in RERUNS[family]]
    if argv[0] != "bands":
        argv += ["--format", "csv,json,svg"]
    symbols._band_memo.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--out", family]) == 0, argv
    if argv[0] == "bands":
        (bs,) = symbols._band_memo.values()  # the band structure the run sampled and printed the gaps of
        gaps = reconstruct.detect_gaps(bs, [], [])["gaps"]
        return {"exact": {"n_gaps": len(gaps)}, "figures": {"gaps": gaps}}
    summary = json.loads(Path(family, "summary.json").read_text())
    modes = json.loads(Path(family, "gaps.json").read_text())["gap_modes"]
    with open(Path(family, "points.csv"), newline="") as fh:
        localized = [int(row["index"]) for row in csv.DictReader(fh) if row["localized"] == "true"]
    return {"exact": {"n_gaps": summary["n_gaps"], "gap_mode_indices": [mode["index"] for mode in modes],
                      "n_points": summary["n_points"], "n_localized": summary["n_localized"],
                      "localized": localized},
            "figures": {"gap_modes": [{"lambda": mode["lambda"], "alpha_est": mode["alpha_est"]} for mode in modes],
                        "errors": summary["errors"], "gaps": summary["gaps"]}}


def assert_close(got, want, where, atol=0.0):
    """got equals want, a JSON value, with each float within RTOL of want's or atol, and everything else exact."""
    if isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= max(RTOL * abs(want), atol), (where, got, want)
    elif isinstance(want, (dict, list)):
        assert type(got) is type(want) and len(got) == len(want), (where, got, want)
        for key in (want if isinstance(want, dict) else range(len(want))):
            assert_close(got[key], want[key], f"{where}[{key!r}]", atol)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


def test_the_record_holds_every_reference_run():
    assert list(json.loads(RECORD.read_text())) == list(RERUNS)


@pytest.mark.parametrize("family", RERUNS)
def test_a_reference_run_matches_its_record(tmp_path, monkeypatch, family):
    matrices.save_matrix(matrices.ssh_matrix(1.0, 2.0, 5), tmp_path / "m.csv")  # as the rerun test's
    monkeypatch.chdir(tmp_path)
    got, want = run_entry(family), json.loads(RECORD.read_text())[family]
    assert got["exact"] == want["exact"]
    if "errors" in want["figures"]:
        with open(Path(family, "points.csv"), newline="") as fh:
            scale = max(abs(float(row["lambda"])) for row in csv.DictReader(fh))
        atol = ERROR_ULPS * np.finfo(float).eps * scale
        assert_close(got["figures"].pop("errors"), want["figures"].pop("errors"), f"{family}['errors']", atol)
    assert_close(got["figures"], want["figures"], family)


@pytest.mark.parametrize("family", [family for family, argv in RERUNS.items() if argv[0] == "reconstruct"])
def test_a_reference_run_keeps_its_bulk_max_within_its_bound(tmp_path, monkeypatch, family):
    matrices.save_matrix(matrices.ssh_matrix(1.0, 2.0, 5), tmp_path / "m.csv")
    monkeypatch.chdir(tmp_path)
    bulk_max, bound = run_entry(family)["figures"]["errors"]["bulk"]["max"], BULK_MAX[family]
    assert bulk_max is None if bound is None else bulk_max <= bound, (family, bulk_max)


if __name__ == "__main__":
    start, record = os.getcwd(), {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            matrices.save_matrix(matrices.ssh_matrix(1.0, 2.0, 5), "m.csv")
            for family in RERUNS:
                record[family] = run_entry(family)
        finally:
            os.chdir(start)
    RECORD.write_text(json.dumps(record, indent=1, allow_nan=False) + "\n")
