"""Print the BLAS setting, then one sha256 digest for the stdout and each file of every run in test_cli.RERUNS.

Each RERUNS entry runs cold, warm and hot in this one process, as
test_cli.test_reconstruct_byte_identical_reruns runs it: the band memo is
emptied before the cold run, and reconstruct runs write every format.  All
runs write inside one temporary directory through relative paths, since an
absolute --matrix path would land in summary.json's params.  Each line reads
"<sha256>  <entry>/<cold|warm|hot>/<stdout or file name>", so the outputs of
two trees, or of two processes, compare with one diff.  The bytes of the
large compact_defect runs follow OpenBLAS's thread count, so the first line
states numpy's version, the bundled OpenBLAS's config string and its thread
count, and a comparison sets the count:

    OPENBLAS_NUM_THREADS=2 PYTHONPATH=src python tests/output_digests.py > digests.txt

pytest does not collect this file; the name does not start with test_.
"""

import contextlib
import ctypes
import hashlib
import io
import os
import tempfile
from pathlib import Path

import numpy as np

from bandrec import matrices, spectra, symbols
from bandrec.cli import main
from test_cli import RERUNS


def blas_setting():
    """numpy's version, the bundled OpenBLAS's config string and thread count; or that there is no such library."""
    lib = spectra._openblas()
    if lib is None:
        return f"numpy {np.__version__}, no bundled OpenBLAS"
    config, threads = lib.scipy_openblas_get_config64_, lib.scipy_openblas_get_num_threads64_
    config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
    return f"numpy {np.__version__}, {config().decode().strip()}, {threads()} thread(s)"


def digests():
    """Yield the digest lines of every RERUNS entry, in RERUNS order."""
    for family, argv in RERUNS.items():
        argv = [arg.format(matrix="m.csv") for arg in argv]
        if argv[0] != "bands":
            argv += ["--format", "csv,json,svg"]
        symbols._band_memo.clear()
        for run in ("cold", "warm", "hot"):
            out, stdout = Path(family, run), io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(argv + ["--out", out.as_posix()])
            if code != 0:
                raise SystemExit(f"{' '.join(argv)} exited {code}")
            yield f"{hashlib.sha256(stdout.getvalue().encode()).hexdigest()}  {out.as_posix()}/stdout"
            for path in sorted(out.iterdir()):
                yield f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.as_posix()}"


if __name__ == "__main__":
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            matrices.save_matrix(matrices.ssh_matrix(1.0, 2.0, 5), "m.csv")  # as the tier-1 rerun test's
            print(blas_setting())
            for line in digests():
                print(line)
        finally:
            os.chdir(start)
