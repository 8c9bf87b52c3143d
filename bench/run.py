"""crystalwalk benchmark: per-command time to solution on seeded input ladders.

Usage, from the root of a checkout:

    python3 bench/run.py --workload finite --seed 1 --seconds 12 --trace 0

One process drives the CLI in-process (``crystalwalk.cli.main(argv)`` with
``-o`` into a work directory under the checkout) in a closed loop with one
client, BLAS pinned to one thread. A warm-up pass runs first and every output
is checked against an independent reference (``oracles.py``) outside the
timed region; later passes must reproduce the warm-up bytes. Passes over the
ladder then repeat for ``--seconds``.

``--trace 0`` reports the end-to-end metrics. ``solve_rel`` is the time to
solution of the ladder in units of a reference kernel: each op's wall time is
divided by the mean time of the benchmark's own fixed kernel run just before
and after it, and the per-op medians are summed. The raw sum of per-op median
seconds, ``solve_s``, is in the detail line; on a shared host it drifts with
the host's speed (see ``ReferenceKernel``), so it is not the gated metric.
``setup_s`` is the median wall time of fresh interpreters that import the CLI
and run one warm-up call, sampled after each pass and rescaled like the ops to
the host speed at which the kernel takes ``REFERENCE_KERNEL_S`` (the raw
median is ``setup_raw_s`` in the detail line); ``peak_alloc_mb`` sums over
the ladder's ops the tracemalloc peak of each op in the warm-up pass, numpy
buffers included. The process's ``ru_maxrss`` is ``peak_rss_mb`` in the detail line:
on ``finite`` it lands on 73 or 80 MB from run to run as the allocator's
history varies, too unsteady to gate. ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics of ``spans.py``, the tracemalloc peak of
``time_averaged`` being taken in the untimed warm-up pass; traced outputs must match
the checked bytes and the wrapper counts must match the inputs.

The last line of stdout is the result object; the line before it holds the
details (machine, per-op medians, quartiles, sample counts, failures).
``--smoke`` swaps in tiny ladders for the benchmark's own tests.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads: at OpenBLAS's default thread count small
# eigh calls are slower and far noisier.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import ctypes
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 7  # at least this many fresh interpreters per run
# Median ReferenceKernel time on the 2-core 2.1 GHz Xeon host the bounds were set
# on; set-up samples are rescaled to this host speed (see ReferenceKernel).
REFERENCE_KERNEL_S = 0.012
END_TO_END_UNITS = {"solve_rel": "ratio", "setup_s": "s", "peak_alloc_mb": "MB"}
WORKLOAD_NAMES = ("finite", "quadrature", "scan", "torus_inf", "torus_T")
_SETUP_CODE = (
    "import sys, crystalwalk.cli as cli; "
    "sys.exit(cli.main(['density', '--family', 'petersen', '-o', sys.argv[1]]))"
)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny ladders, for the benchmark's own tests")
    return p.parse_args(argv)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be asked."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record(seed: int) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "crystalwalk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_pinned": int(BLAS_THREADS),
        "blas_threads_runtime": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def setup_sample(work: Path, kernel: "ReferenceKernel") -> tuple[float, float]:
    """Wall time of a fresh interpreter that imports the CLI and runs one small density.

    Returned raw and rescaled to the reference host speed by the kernels run
    just before and after it.
    """
    before = kernel.time()
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(work / "setup.json")], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr.decode(errors='replace')}")
    return elapsed, elapsed * 2.0 * REFERENCE_KERNEL_S / (before + kernel.time())


class ReferenceKernel:
    """Fixed work of the benchmark's own whose wall time tracks the host's speed.

    On a shared host the CPU's throughput swings by up to 2x over tens of
    seconds, and CPU time swings with wall time, so it is not scheduling.
    Each op is bracketed by this kernel, which mimics the package's own mix
    (float formatting as in ``serialize``, a per-fiber loop of small complex
    ``eigh`` calls as in ``floquet``, a dense ``eigh`` and torus-sized FFTs);
    the op's time over the kernel's cancels most of the swing. No package
    code runs here, so a change to the package cannot move the kernel.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        a = rng.random((160, 160))
        self._matrix = a + a.T
        self._floats = rng.random(3000).tolist()
        self._thetas = rng.random((120, 2))
        self._edges = list(zip(rng.integers(0, 6, (12, 2)).tolist(), rng.integers(-1, 2, (12, 2))))
        self._grid = rng.random((96, 96, 3)) + 0j
        self.samples: list[float] = []

    def time(self) -> float:
        t0 = perf_counter()
        ",".join("%.17g" % x for x in self._floats)
        for theta in self._thetas:
            h = np.zeros((6, 6), dtype=complex)
            for (p, q), offset in self._edges:
                h[p, q] += np.exp(2j * np.pi * float(np.dot(theta, offset)))
            np.linalg.eigh(h + h.conj().T)
        np.linalg.eigh(self._matrix)
        for _ in range(3):
            np.fft.ifftn(self._grid, axes=(0, 1))
        elapsed = perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed


class Outcome(NamedTuple):
    seconds: float
    payload: bytes
    stdout: str
    error: str | None
    peak_bytes: int  # tracemalloc peak at the end of the call, 0 when not tracing


def execute(op, cli, out: Path) -> Outcome:
    """Run one op; only the call itself is timed."""
    out.unlink(missing_ok=True)
    gc.collect()
    captured, errors = io.StringIO(), io.StringIO()
    result, error = None, None
    with redirect_stdout(captured), redirect_stderr(errors):
        t0 = perf_counter()
        try:
            if op.argv:
                code = cli.main([*op.argv, "-o", str(out)])
            else:
                result = op.call()
                code = 0
        except Exception as exc:  # an op that crashes is a failed op, not a failed run
            code, error = -1, f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
    peak = tracemalloc.get_traced_memory()[1] if tracemalloc.is_tracing() else 0
    if code != 0:
        return Outcome(seconds, b"", captured.getvalue(), error or f"exit {code}: {errors.getvalue().strip()}", peak)
    payload = out.read_bytes() if op.argv else result.values.tobytes()
    return Outcome(seconds, payload, captured.getvalue(), None, peak)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "crystalwalk" / "cli.py").is_file():
        print(f"error: no crystalwalk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import crystalwalk.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "crystalwalk":
        print(f"error: imported crystalwalk from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads
    from oracles import OracleError

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_work"))
    try:
        machine = machine_record(args.seed)
        setup: list[tuple[float, float]] = []  # (raw seconds, seconds at the reference speed)
        ops = workloads.build(args.workload, args.seed, work, args.smoke)
        outs = [work / f"op{i}.out" for i in range(len(ops))]
        failures: list[str] = []
        attempted = 0

        # Warm-up pass, untimed: trace each op's allocation peak (with --trace 1
        # only the peak of time_averaged), check every output against its
        # reference and keep its digest.
        reference: list[str | None] = []
        peak_alloc = 0  # summed over ops, so a memory change in any op shows
        peak_probe = spans.Recorder()
        probe = spans.Tracer(peak_probe)
        if args.trace:
            probe.install_peak_probe()
        try:
            for op, out in zip(ops, outs):
                attempted += 1
                if not args.trace:
                    tracemalloc.start()
                try:
                    outcome = execute(op, cli, out)
                finally:
                    tracemalloc.stop()
                peak_alloc += outcome.peak_bytes
                try:
                    if outcome.error:
                        raise OracleError(outcome.error)
                    op.check(outcome.payload, outcome.stdout)
                    reference.append(hashlib.sha256(outcome.payload).hexdigest())
                except Exception as exc:  # an output the check cannot even parse is a failed op too
                    failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
                    reference.append(None)
        finally:
            probe.uninstall()

        expect: dict[str, int] = {"cli": sum(1 for op in ops if op.argv)}
        for op in ops:
            for key, value in op.expect.items():
                expect[key] = expect.get(key, 0) + value
        unfaithful: list[str] = []
        if args.trace and peak_probe.counters["dynamics.average_T"] != expect.get("dynamics.average_T", 0):
            unfaithful.append(f"dynamics.average_T_peak_mb: probed {peak_probe.counters['dynamics.average_T']:g} calls, "
                              f"inputs imply {expect.get('dynamics.average_T', 0)}")
        # seconds[traced][i] and relative[i]: per-op samples; relative divides
        # each op time by the mean of the reference kernels run around it.
        seconds = {False: [[] for _ in ops], True: [[] for _ in ops]}
        relative: list[list[float]] = [[] for _ in ops]
        kernel = ReferenceKernel()
        layer_samples: list[dict[str, float]] = []
        span_tree: list[dict] = []
        deadline = perf_counter() + args.seconds
        passes = 0
        while perf_counter() < deadline or passes < (2 if args.trace else 1):
            traced = bool(args.trace and passes % 2)
            passes += 1
            recorder = spans.Recorder()
            tracer = spans.Tracer(recorder)
            emitted = 0
            before = None if traced else kernel.time()
            if traced:
                tracer.install()
            try:
                for i, (op, out) in enumerate(zip(ops, outs)):
                    outcome = execute(op, cli, out)
                    attempted += 1
                    seconds[traced][i].append(outcome.seconds)
                    if not traced:
                        after = kernel.time()
                        relative[i].append(2.0 * outcome.seconds / (before + after))
                        before = after
                    if outcome.error or hashlib.sha256(outcome.payload).hexdigest() != reference[i]:
                        problem = outcome.error or "output bytes differ from the checked warm-up output"
                        failures.append(f"{op.label}: {problem}" + (" (traced pass)" if traced else ""))
                    if op.argv:
                        emitted += len(outcome.payload)
            finally:
                tracer.uninstall()
            if args.trace == 0:
                # Set-up samples spread over the run, so the median spans its drift.
                setup.append(setup_sample(work, kernel))
            if traced:
                layer_samples.append(spans.layer_metrics(recorder))
                unfaithful += spans.faithfulness(recorder, {**expect, "serialize.bytes": emitted})
                span_tree = recorder.tree()

        while args.trace == 0 and len(setup) < (2 if args.smoke else SETUP_RUNS):
            setup.append(setup_sample(work, kernel))

        def ladder(samples: list[list[float]]) -> float:
            return sum(statistics.median(s) for s in samples)

        details: dict[str, dict] = {}
        if args.trace == 0:
            values = {
                "solve_s": (ladder(seconds[False]), [sum(t) for t in zip(*seconds[False])]),
                "solve_rel": (ladder(relative), [sum(t) for t in zip(*relative)]),
                "setup_s": (statistics.median(s for _, s in setup), [s for _, s in setup]),
                "setup_raw_s": (statistics.median(raw for raw, _ in setup), [raw for raw, _ in setup]),
                "peak_alloc_mb": (peak_alloc / 2**20, None),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, None),
            }
            units = {"solve_s": "s", "setup_raw_s": "s", "peak_rss_mb": "MB", **END_TO_END_UNITS}
            reported = END_TO_END_UNITS
        else:
            values = {name: (statistics.median(s[name] for s in layer_samples), None) for name in layer_samples[0]}
            values["dynamics.average_T_peak_mb"] = (peak_probe.counters["dynamics.average_T_peak_mb"], None)
            values["trace.overhead_s"] = (ladder(seconds[True]) - ladder(seconds[False]), None)
            units = reported = spans.LAYER_UNITS
        for name, (value, population) in values.items():
            details[name] = {"value": float(value), "unit": units[name]}
            if population:
                q1, _, q3 = quartiles(population)
                details[name].update(n=len(population), q1=q1, q3=q3)
        failed = len(failures) + len(unfaithful)
        detail = {
            "workload": args.workload,
            "trace": args.trace,
            "smoke": args.smoke,
            "machine": machine,
            "passes": passes,
            "error_rate": failed / attempted,
            "metrics": details,
            "reference_kernel_s": statistics.median(kernel.samples),
            "ops": [{"label": op.label, "median_s": statistics.median(s), "median_rel": statistics.median(r), "n": len(s)}
                    for op, s, r in zip(ops, seconds[False], relative)],
            "failures": failures[:20],
            "unfaithful": unfaithful[:20],
        }
        if args.trace:
            detail["spans"] = span_tree
        print(json.dumps(detail))
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": d["value"], "unit": d["unit"]} for name, d in details.items() if name in reported},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
