"""The reference runs of the output contract, read back from their files and compared with a committed record.

Each run of test_cli.RERUNS runs once, cold (the band memo empty), as the
tier-1 rerun test runs it, and its entry in reference_outputs.json holds
- exact fields, compared exactly: the gap count, the gap-mode indices,
  n_points, n_localized and the index set of the localized column;
- figures, compared within RTOL relative: each gap mode's lambda and
  alpha_est, the errors block of summary.json, and the gap intervals.
A bands run writes no gaps.json, so its entry holds the gap count and the
intervals of the band structure it sampled, as it prints them.

RTOL = 1e-12 is the rounding-order rule's own bound: a change that only
reorders rounding keeps every figure within it, while the BLAS thread count
moves the n >= 1001 runs by about 1e-14 only.  The record holds at any thread
count where the byte digests of tests/output_digests.py hold at one.

An accuracy change, or an output that adds a recorded field, rewrites the
record in the same change, so the record's diff shows what moved.  Running
this file as a script rewrites it:

    PYTHONPATH=src python tests/test_reference_outputs.py
"""

import contextlib
import csv
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from bandrec import matrices, reconstruct, symbols
from bandrec.cli import main
from test_cli import RERUNS

RECORD = Path(__file__).with_name("reference_outputs.json")
RTOL = 1e-12


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


def assert_close(got, want, where):
    """got equals want, a JSON value, with each float within RTOL of want's and everything else exact."""
    if isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= RTOL * abs(want), (where, got, want)
    elif isinstance(want, (dict, list)):
        assert type(got) is type(want) and len(got) == len(want), (where, got, want)
        for key in (want if isinstance(want, dict) else range(len(want))):
            assert_close(got[key], want[key], f"{where}[{key!r}]")
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
    assert_close(got["figures"], want["figures"], family)


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
