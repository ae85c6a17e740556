"""Print one sha256 digest for the stdout and for each file of every run in test_cli.RERUNS.

Each RERUNS entry runs cold, warm and hot in this one process, as
test_cli.test_reconstruct_byte_identical_reruns runs it: the band memo is
emptied before the cold run, and reconstruct runs write every format.  All
runs write inside one temporary directory through relative paths, since an
absolute --matrix path would land in summary.json's params.  Each line reads
"<sha256>  <entry>/<cold|warm|hot>/<stdout or file name>", so the outputs of
two trees, or of two processes, compare with one diff:

    PYTHONPATH=src python tests/output_digests.py > digests.txt

pytest does not collect this file; the name does not start with test_.
"""

import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

from bandrec import matrices, symbols
from bandrec.cli import main
from test_cli import RERUNS


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
            for line in digests():
                print(line)
        finally:
            os.chdir(start)
