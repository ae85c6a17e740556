"""bandrec benchmark: seeded reconstruction workloads, checked outputs, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload chain_large --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; bandrec is imported from ./src.  One
process, one caller, closed loop: the next reconstruction starts when the
previous one has returned and its outputs have been checked.  The workloads
are defined in workloads.py; BENCHMARK.json says why each was chosen.

--trace 0 reports the end-to-end metrics, measured with nothing wrapped but
the eigensolve capture the checks need.  --trace 1 runs each input untraced
and then again with spans around every traced bandrec function, and reports
self time and counts per layer, per reconstruction, plus the tracing
overhead.  Outputs are checked in both modes; a failed check is counted and
the run goes on.  The last line of stdout is the JSON result; the lines
before it give the run environment and each metric.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# Only the standard library is imported here: bandrec, numpy and the modules
# beside this file are imported inside set_up, so setup_s includes them.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("chain_large", "sweep_small")
SETUP_RUNS = 3   # set-ups per trace-0 run: this process plus fresh child processes
MIN_SAMPLES = 3
MAX_LOGGED_PROBLEMS = 5

END_TO_END_UNITS = {"setup_s": "s", "recon_per_s": "1/s", "recon_s.p50": "s",
                    "recon_s.p90": "s", "peak_rss_mb": "MB", "bulk_err_max": "lambda"}
PER_LAYER_UNITS = {
    "spectra.eigen_s": "s/recon", "spectra.eigen_calls": "calls/recon",
    "transform.polarize_s": "s/recon", "transform.polarize_calls": "calls/recon",
    "transform.recover_s": "s/recon", "transform.recover_calls": "calls/recon",
    "spectra.localization_s": "s/recon", "spectra.localization_calls": "calls/recon",
    "symbols.band_functions_s": "s/recon", "symbols.band_functions_calls": "calls/recon",
    "symbols.evaluate_calls": "calls/recon",
    "matrices.build_s": "s/recon", "matrices.build_calls": "calls/recon",
    "matrices.dense_bytes": "B/recon",
    "reconstruct.run_scenario_self_s": "s/recon", "reconstruct.reconstruct_bands_self_s": "s/recon",
    "reconstruct.compare_s": "s/recon", "reconstruct.gaps_s": "s/recon",
    "outputs.write_s": "s/recon", "outputs.bytes_written": "B/recon",
    "outputs.files_written": "files/recon",
    "cli.parse_s": "s/recon",
    "trace_overhead_s": "s/recon",
}


def import_bandrec():
    """Import bandrec from this checkout's src/, and nothing installed elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import bandrec
    except ImportError as exc:
        raise SystemExit(f"error: cannot import bandrec from {SRC}: {exc}")
    if not Path(bandrec.__file__).resolve().is_relative_to(SRC / "bandrec"):
        raise SystemExit(f"error: bandrec was imported from {bandrec.__file__}, not from {SRC}")


class Session:
    """Runs calls one at a time, checks each call's outputs, keeps the tallies."""

    def __init__(self, workdir: Path, expected_gap_modes: dict):
        import tracing
        self.workdir = workdir
        self.expected = expected_gap_modes
        self.tracer = None
        self.eigensolves: list = []
        self.attempted = self.failed = 0
        self.bulk_max = 0.0
        self._cleanup = contextlib.ExitStack()
        self._cleanup.enter_context(tracing.capture_eigen(self.eigensolves))

    def close(self) -> None:
        self._cleanup.close()

    def run(self, call, name: str, reference: dict | None = None):
        """Time one reconstruction, then check it; returns (seconds, outcome)."""
        import workloads
        outdir = self.workdir / name
        self.eigensolves.clear()
        span = self.tracer.root() if self.tracer else contextlib.nullcontext()
        start = perf_counter()
        try:
            with span:
                workloads.execute(call, outdir)
        except Exception as exc:  # a failed reconstruction is counted, not fatal
            seconds = perf_counter() - start
            outcome = workloads.Outcome(problems=[f"raised {type(exc).__name__}: {exc}"])
        else:
            seconds = perf_counter() - start
            outcome = workloads.check(call, outdir, self.eigensolves, self.expected)
        if reference is not None and outcome.digest != reference:
            outcome.problems.append("files differ from an earlier run of the same input")
        self.eigensolves.clear()
        shutil.rmtree(outdir, ignore_errors=True)
        self.attempted += 1
        self.bulk_max = max(self.bulk_max, outcome.bulk_max)
        if outcome.problems:
            self.failed += 1
            if self.failed <= MAX_LOGGED_PROBLEMS:
                print(f"check failed ({call.family}, {name}): {'; '.join(outcome.problems)}",
                      file=sys.stderr)
        return seconds, outcome


def set_up(workdir: Path, workload: str, seed: int, scale: float, expected_gap_modes=None):
    """Import, generate inputs, run the untimed warm-up; returns (seconds, session, stream)."""
    start = perf_counter()
    import_bandrec()
    import workloads
    session = Session(workdir, {**workloads.EXPECTED_GAP_MODES, **(expected_gap_modes or {})})
    stream = workloads.calls(workload, seed, scale)
    warm_up = next(stream)
    generated = perf_counter() - start
    seconds, _ = session.run(warm_up, "warm-up")
    return generated + seconds, session, stream


def child_set_up(workload: str, seed: int, scale: float) -> tuple[float, int]:
    """Set-up time of a fresh process, so import time is measured again."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "0", "--scale", repr(scale),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["failed"]


def timed(stream, seconds: float):
    """Calls from `stream` until `seconds` have passed and at least MIN_SAMPLES were made."""
    end = perf_counter() + seconds
    for i, call in enumerate(stream):
        if i >= MIN_SAMPLES and perf_counter() >= end:
            return
        yield i, call


def end_to_end(session, stream, workload, seed, scale, seconds, setup_s):
    setups = [setup_s]
    for _ in range(SETUP_RUNS - 1):
        child_s, child_failed = child_set_up(workload, seed, scale)
        setups.append(child_s)
        session.attempted += 1
        session.failed += child_failed
    latencies, done = [], []
    for i, call in timed(stream, seconds):
        latency, outcome = session.run(call, f"call-{i}")
        latencies.append(latency)
        done.append((call, outcome))
    first_call, first = done[0]
    session.run(first_call, "repeat", reference=first.digest)

    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
    beyond = sum(t > p90 for t in latencies)
    print(f"samples: {len(latencies)} timed reconstructions, {beyond} beyond p90"
          + ("" if beyond >= 10 else " (fewer than 10: p90 is a rough upper-tail estimate)"))
    return {
        "setup_s": statistics.median(setups),
        "recon_per_s": len(latencies) / sum(latencies),
        "recon_s.p50": statistics.median(latencies),
        "recon_s.p90": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bulk_err_max": session.bulk_max,
    }


def per_layer(session, stream, seconds):
    """Each input runs untraced, then traced; the traced run must write the same bytes."""
    import tracing
    tracer = tracing.Tracer()
    untraced, traced, written = [], [], []
    for i, call in timed(stream, seconds):
        latency, outcome = session.run(call, f"call-{i}")
        untraced.append(latency)
        session.tracer = tracer
        with tracer.installed():
            latency, replay = session.run(call, f"traced-{i}", reference=outcome.digest)
        session.tracer = None
        traced.append(latency)
        written.append(replay)
    n = len(written)
    s, c = tracer.self_s, tracer.calls
    recover = ("transform.discrete_quasiperiodicity", "transform.zero_pad")
    totals = {
        "spectra.eigen_s": s["spectra.hermitian_eigen"],
        "spectra.eigen_calls": c["spectra.hermitian_eigen"],
        "transform.polarize_s": s["transform.polarize"],
        "transform.polarize_calls": c["transform.polarize"],
        "transform.recover_s": sum(s[name] for name in recover),
        "transform.recover_calls": sum(c[name] for name in recover),
        "spectra.localization_s": s["spectra.localization_metrics"],
        "spectra.localization_calls": c["spectra.localization_metrics"],
        "symbols.band_functions_s": s["symbols.band_functions"],
        "symbols.band_functions_calls": c["symbols.band_functions"],
        "symbols.evaluate_calls": tracer.counts["symbols.evaluate_symbol"],
        "matrices.build_s": sum(t for name, t in s.items() if name.startswith("matrices.")),
        "matrices.build_calls": sum(k for name, k in c.items() if name.startswith("matrices.")),
        "matrices.dense_bytes": tracer.counts["matrices.dense_bytes"],
        "reconstruct.run_scenario_self_s": s["reconstruct.run_scenario"],
        "reconstruct.reconstruct_bands_self_s": s["reconstruct.reconstruct_bands"],
        "reconstruct.compare_s": s["reconstruct.compare_to_symbol"],
        "reconstruct.gaps_s": s["reconstruct.detect_gaps"],
        "outputs.write_s": s["outputs.write_bundle"],
        "outputs.bytes_written": sum(o.bytes_written for o in written),
        "outputs.files_written": sum(len(o.digest) for o in written),
        "cli.parse_s": s["cli.main"],
        "trace_overhead_s": sum(traced) - sum(untraced),
    }
    print(f"samples: {n} inputs, each run untraced then traced; per-layer values are per reconstruction")
    print(f"self time: {sum(s.values()):.6f} s over all spans, {sum(traced):.6f} s traced wall time")
    return {name: value / n for name, value in totals.items()}


def blas_threads():
    """Thread count OpenBLAS is using, read from the loaded library; None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(), "commit": commit, "seed": seed}


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
        expected_gap_modes: dict | None = None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        setup_s, session, stream = set_up(Path(tmp), workload, seed, scale, expected_gap_modes)
        try:
            if trace:
                metrics = per_layer(session, stream, seconds)
                units = PER_LAYER_UNITS
            else:
                metrics = end_to_end(session, stream, workload, seed, scale, seconds, setup_s)
                units = END_TO_END_UNITS
        finally:
            session.close()
    print("env " + json.dumps(environment(seed)))
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {units[name]}")
    print(f"fail_frac {session.failed / session.attempted:.6g} "
          f"({session.failed} of {session.attempted} reconstructions failed a check)")
    return {"correct": session.failed == 0, "attempted": session.attempted,
            "failed": session.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the chain_large sizes (smoke test); 1 is the benchmark")
    parser.add_argument("--setup-only", action="store_true",
                        help="measure one set-up and exit (used for the set-up samples)")
    args = parser.parse_args(argv)
    if args.setup_only:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            setup_s, session, _ = set_up(Path(tmp), args.workload, args.seed, args.scale)
            session.close()
        print(json.dumps({"setup_s": setup_s, "failed": session.failed}))
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
