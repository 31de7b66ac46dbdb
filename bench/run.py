"""levbounds benchmark: one workload, one seed, one process, one thread.

    python3 bench/run.py --workload {search,sweep,certify} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; ``levbounds`` is imported from
its ``src`` directory and nowhere else.  A run does a fixed number of
whole passes of the workload (see workloads.py): as many as fill
``--seconds`` at the workload's nominal pass time, at least one.  Every
output is checked.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the run's provenance and sample counts.  The exit code is 0
only when every correctness gate passed.

--trace 0   end-to-end metrics, measured with tracing off.  Times are
            seconds at the reference CPU speed: each measured time divided
            by the slowdown that calibration samples taken around it show
            (see CALIBRATION_REF_S).  The raw times are in the line before.
              setup_s        median over 5 fresh processes that each import
                             levbounds, build the first pass's inputs and
                             finish one warm-up evaluation (probe.py)
              ref_wall_s     the timed part of the run, all passes
              ref_ops_per_s  operations completed per second of it
              ref_op_p50_ms, per-operation latency over every operation of
              ref_op_p90_ms  the run
              peak_rss_mb    peak resident memory of this process
--trace 1   per-layer metrics, in raw seconds.  Passes run in pairs on
            identical inputs, first untraced and then traced (tracing.py),
            as many pairs as fill --seconds at the nominal pass time; every
            count and time is per traced pass, and trace.overhead_frac
            compares the two halves.  Spans are written to .bench_out/.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads; probes inherit it.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 5

END_TO_END_UNITS = {"setup_s": "s", "ref_wall_s": "s", "ref_ops_per_s": "1/s",
                    "ref_op_p50_ms": "ms", "ref_op_p90_ms": "ms", "peak_rss_mb": "MB"}

# Speed calibration.  The CPU speed of a shared machine drifts by up to
# 1.8x over 10-60 s, which no run length that fits the time budget
# averages out.  While a pass is timed, a SIGALRM handler times a fixed
# piece of pure-Python exact-rational work that does not touch levbounds,
# every CALIBRATE_EVERY_S, inside long operations too.  Each operation's
# time, less the calibration inside it, is divided by the slowdown the
# samples during it and up to CALIBRATION_WINDOW_S around it show (sample
# seconds / CALIBRATION_REF_S): seconds at the reference speed.  CALIBRATION_REF_S is a constant, so the
# reference-speed metrics of two commits compare directly.
CALIBRATE_EVERY_S = 0.1
CALIBRATION_WINDOW_S = 0.5
CALIBRATION_UNITS = 13
CALIBRATION_REF_S = 0.005
_CALIBRATION_DIGITS = [Fraction(f"0.{(i * 7919 + 13) % 10**17:017d}") for i in range(1, 8)]


def calibration_sample() -> float:
    """Seconds taken by a fixed amount of work shaped like levbounds' hot
    path: exact products of 17-digit decimals summed with weights
    1/(j+k+1), as in polyalg.integrate01_product."""
    t = perf_counter()
    for _ in range(CALIBRATION_UNITS):
        total = Fraction(0)
        for j, a in enumerate(_CALIBRATION_DIGITS):
            for k, b in enumerate(_CALIBRATION_DIGITS):
                total += a * b / (j + k + 1)
    return perf_counter() - t


class Calibrator:
    """Calibration samples (end time, seconds) taken from a SIGALRM
    handler while the context is open, plus one on entry and one on exit."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def _sample(self, *_) -> None:
        seconds = calibration_sample()
        self.samples.append((perf_counter(), seconds))

    def __enter__(self) -> "Calibrator":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def work_seconds(self, t0: float, t1: float) -> tuple[float, float]:
        """Work time of the interval [t0, t1], raw and at the reference
        speed: its length less the calibration inside it, then divided by
        the median slowdown of the samples that end within
        CALIBRATION_WINDOW_S of it.  The window and the median damp the
        noise of single short samples while still following the drift."""
        ends = [t for t, _ in self.samples]
        inside = self.samples[bisect.bisect_right(ends, t0):bisect.bisect_right(ends, t1)]
        near = self.samples[bisect.bisect_left(ends, t0 - CALIBRATION_WINDOW_S):
                            bisect.bisect_right(ends, t1 + CALIBRATION_WINDOW_S)]
        work = t1 - t0 - sum(d for _, d in inside)
        return work, work / (statistics.median(d for _, d in near) / CALIBRATION_REF_S)


def load_levbounds() -> None:
    """Import levbounds from this checkout's src directory, or exit."""
    sys.path.insert(0, str(SRC))
    try:
        import levbounds
    except ImportError as exc:
        sys.exit(f"bench: cannot import levbounds from {SRC}: {exc}")
    where = Path(levbounds.__file__).resolve().parent
    if where != SRC / "levbounds":
        sys.exit(f"bench: levbounds imported from {where}, not from {SRC}")


# --------------------------------------------------------------------------
# passes
# --------------------------------------------------------------------------

def _attempt(call, label, fn, *args):
    """Run one gated call; an exception becomes its result."""
    try:
        return call(label, fn, *args)
    except Exception as exc:
        return exc


def _plain(label, fn, *args):
    return fn(*args)


def run_pass(wl, k: int, rec=None, calibrate: bool = False) -> dict:
    """Time one pass; check its outputs afterwards.  With a recorder the
    pass is traced: wrappers are installed for its duration only.  With
    ``calibrate`` the times are also given at the reference speed (see
    Calibrator), excluding the calibration work itself."""
    xs = wl.inputs(k)
    call = rec.span if rec is not None else _plain
    gated, spans = [], []                     # spans: (is_op, start, end)

    def timed(is_op, label, fn, *args):
        t = perf_counter()
        y = _attempt(call, label, fn, *args)
        spans.append((is_op, t, perf_counter()))
        return y

    if rec is not None:
        rec.install()
    clock = Calibrator() if calibrate else contextlib.nullcontext()
    try:
        with clock:
            for label, fn in wl.prelude():
                gated.append((label, None, timed(False, label, fn)))
            for x in xs:
                gated.append(("op", x, timed(True, "bench.op", wl.op, x)))
    finally:
        if rec is not None:
            rec.uninstall()
    if calibrate:
        both = [(is_op, clock.work_seconds(t0, t1)) for is_op, t0, t1 in spans]
        raw = [(is_op, work) for is_op, (work, _) in both]
        ref = [(is_op, at_ref) for is_op, (_, at_ref) in both]
    else:
        raw = ref = [(is_op, t1 - t0) for is_op, t0, t1 in spans]

    failures = Counter()
    for label, x, y in gated:
        if isinstance(y, Exception):
            failures[f"{label}: {type(y).__name__}"] += 1
            continue
        try:
            ok = y if x is None else wl.check(x, y)
        except Exception as exc:
            ok, label = False, f"{label} check: {type(exc).__name__}"
        if not ok:
            failures[f"{label}: wrong output"] += 1
    return {"wall": sum(d for _, d in raw), "ref_wall": sum(d for _, d in ref),
            "op_times": [d for is_op, d in raw if is_op],
            "ref_op_times": [d for is_op, d in ref if is_op],
            "calibration_s": [d for _, d in clock.samples] if calibrate else [],
            "attempted": len(gated), "failures": failures}


def pass_count(wl, seconds: float, passes_per_step: int = 1) -> int:
    """Steps that fill ``seconds`` at the workload's nominal pass time; a
    fixed number, so every commit does the same work for one --seconds."""
    return max(1, round(seconds / (wl.PASS_SECONDS * passes_per_step)))


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def setup_seconds(name: str, seed: int, probes: int) -> tuple[float, float]:
    """Median wall time of fresh probe processes, at the reference speed
    (scaled by calibration samples taken just before and after each probe)
    and raw.  No timeout: waiting with one polls every 50 ms, which would
    quantize the measurement."""
    ref, raw = [], []
    for _ in range(probes):
        before = [calibration_sample() for _ in range(10)]
        t = perf_counter()
        subprocess.run([sys.executable, str(BENCH / "probe.py"), "--workload", name,
                        "--seed", str(seed)], check=True, stdout=subprocess.DEVNULL)
        raw.append(perf_counter() - t)
        near = before + [calibration_sample() for _ in range(10)]
        ref.append(raw[-1] / (sum(near) / len(near) / CALIBRATION_REF_S))
    return statistics.median(ref), statistics.median(raw)


def latency(passes: list[dict], wall_key: str, ops_key: str) -> dict:
    """Wall time of all passes, operations per second, p50 and p90 in ms."""
    wall = sum(p[wall_key] for p in passes)
    ops = [t for p in passes for t in p[ops_key]]
    return {"wall_s": wall, "ops_per_s": len(ops) / wall,
            "op_p50_ms": statistics.median(ops) * 1e3,
            "op_p90_ms": (statistics.quantiles(ops, n=10, method="inclusive")[8]
                          if len(ops) > 1 else ops[0]) * 1e3}


def end_to_end(passes: list[dict], setup_s: float) -> dict:
    values = {"setup_s": setup_s,
              **{f"ref_{k}": v for k, v in latency(passes, "ref_wall", "ref_op_times").items()},
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(rec, wl, plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics from the recorder; counts and times per traced pass."""
    n = len(traced)
    expand_calls, expand_s = rec.leaf("polyalg.expand")
    integrate_calls, integrate_s = rec.leaf("polyalg.integrate")
    mul_calls, mul_s = rec.leaf("jets.mul")
    extract_calls, _ = rec.leaf("jets.extract")
    kn_calls, kn_s = rec.leaf("oracle.kernel_numeric")
    evals_spans = rec.inclusive("proportions.c") + rec.inclusive("proportions.c1")
    searches = rec.results.get("optimizer.optimize", [])
    evals = sum(r.evaluations_used for r in searches)
    improvements = sum(len(r.trace) for r in searches)
    reached = rec.children_of("optimizer.optimize", ("proportions.c", "proportions.c1"))
    search_failures = [cls for _, cls, parent in rec.failures
                       if parent == "optimizer.optimize"]
    margins = list(wl.margins)
    for report in rec.results.get("oracle.crosscheck", []):
        margins += [ch.tolerance / max(ch.rel_delta, 1e-300) for ch in report.checks]
    plain_s = sum(p["wall"] for p in plain)
    traced_s = sum(p["wall"] for p in traced)

    values = {
        "polyalg.expand_calls": (expand_calls / n, "calls/pass"),
        "polyalg.expand_s": (expand_s / n, "s/pass"),
        "polyalg.integrate_calls": (integrate_calls / n, "calls/pass"),
        "polyalg.integrate_s": (integrate_s / n, "s/pass"),
        "kernel.moments_calls": (rec.calls("kernel.moments") / n, "calls/pass"),
        "kernel.moments_s": (rec.self_time("kernel.moments") / n, "s/pass"),
        "kernel.jet_calls": (rec.calls("kernel.jet") / n, "calls/pass"),
        "kernel.jet_s": (rec.self_time("kernel.jet") / n, "s/pass"),
        "kernel.moments_repeat_frac": (rec.repeat_frac("kernel.moments"), "ratio"),
        "kernel.jet_repeat_frac": (rec.repeat_frac("kernel.jet"), "ratio"),
        "jets.mul_calls": (mul_calls / n, "calls/pass"),
        "jets.mul_s": (mul_s / n, "s/pass"),
        "jets.extract_calls": (extract_calls / n, "calls/pass"),
        "proportions.c_calls": (rec.calls("proportions.c") / n, "calls/pass"),
        "proportions.c_s": (rec.self_time("proportions.c") / n, "s/pass"),
        "proportions.c1_calls": (rec.calls("proportions.c1") / n, "calls/pass"),
        "proportions.c1_s": (rec.self_time("proportions.c1") / n, "s/pass"),
        "proportions.eval_p50_us": (statistics.median(evals_spans) * 1e6
                                    if evals_spans else 0.0, "us"),
        "optimizer.evals": (evals / n, "calls/pass"),
        "optimizer.self_s": (rec.self_time("optimizer.optimize") / n, "s/pass"),
        "optimizer.objective_frac": (reached / evals if evals else 0.0, "ratio"),
        "optimizer.improve_frac": (improvements / evals if evals else 0.0, "ratio"),
        "optimizer.failures.ArithmeticError": (
            sum(issubclass(c, ArithmeticError) for c in search_failures) / n, "count/pass"),
        "optimizer.failures.ValueError": (
            sum(issubclass(c, ValueError) for c in search_failures) / n, "count/pass"),
        "oracle.kernel_numeric_calls": (kn_calls / n, "calls/pass"),
        "oracle.kernel_numeric_s": (kn_s / n, "s/pass"),
        "oracle.fd_c_s": (sum(rec.inclusive("oracle.fd_c")) / n, "s/pass"),
        "oracle.fd_c1_s": (sum(rec.inclusive("oracle.fd_c1")) / n, "s/pass"),
        "oracle.crosscheck_s": (sum(rec.inclusive("oracle.crosscheck")) / n, "s/pass"),
        "oracle.min_margin": (min(margins) if margins else 0.0, "ratio"),
        "cli.reproduce_s": (sum(rec.inclusive("cli.reproduce")) / n, "s/pass"),
        "cli.selfcheck_s": (sum(rec.inclusive("cli.selfcheck")) / n, "s/pass"),
        "trace.overhead_frac": ((traced_s - plain_s) / plain_s, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


# --------------------------------------------------------------------------
# provenance
# --------------------------------------------------------------------------

def provenance(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                                    capture_output=True, text=True).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "levbounds").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu, "git_commit": commit,
            "source_sha256": digest.hexdigest(), "seed": seed, "threads": THREAD_ENV}


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            probes: int = SETUP_PROBES) -> tuple[dict, dict]:
    """Run one workload; returns (result, details)."""
    # imported here because they import levbounds, which load_levbounds finds
    from tracing import Recorder
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, tiny)
    if trace:
        rec = Recorder()
        pairs = [(run_pass(wl, k), run_pass(wl, k, rec))
                 for k in range(pass_count(wl, seconds, 2))]
        plain, traced = [p for p, _ in pairs], [t for _, t in pairs]
        passes = plain + traced
        metrics = per_layer(rec, wl, plain, traced)
    else:
        setup_s, raw_setup_s = setup_seconds(name, seed, probes)
        passes = [run_pass(wl, k, calibrate=True) for k in range(pass_count(wl, seconds))]
        metrics = end_to_end(passes, setup_s)
    failures = sum((p["failures"] for p in passes), Counter())
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(failures.values())
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    details = {"workload": name, "seconds": seconds, "trace": int(trace),
               "passes": len(passes), "op_samples": sum(len(p["op_times"]) for p in passes),
               "raw": latency(passes, "wall", "op_times"),
               "failures": dict(failures), "provenance": provenance(seed)}
    if not trace:
        calibration = [t for p in passes for t in p["calibration_s"]]
        details["raw"]["setup_s"] = raw_setup_s
        details["calibration"] = {"samples": len(calibration),
                                  "slowdown_p50": statistics.median(calibration)
                                  / CALIBRATION_REF_S}
    if trace:
        rec.write(ROOT / ".bench_out" / f"{name}-seed{seed}.spans.json.gz", details)
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("search", "sweep", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_levbounds()
    result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, count in details["failures"].items():
        print(f"bench: {count} failed: {key}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
