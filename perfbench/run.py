"""Closed-loop job-stream benchmark for the lawe-spectra CLI.

One client in one process sends seeded analysis jobs through
``lawe_spectra.cli.run``; each job waits for the previous one and gets
only a generated config file (``threads`` is 1, the CLI default, and
``LAWE_SPECTRA_THREADS`` is removed from the environment).  After the
timed loop every job's artifacts are hashed and checked against an
independent reference; a job fails on a nonzero exit code, an
exception or a failed check.

    python3 perfbench/run.py --workload dense-spectrum --seed 1 --seconds 25 --trace 0

``--trace 0`` runs whole rounds of the stream for at least ``--seconds``
and reports the end-to-end metrics in reference seconds (see
:class:`HostClock`); ``--trace 1`` runs a fixed prefix of the stream
twice, untraced and then with per-layer spans, and reports the
per-layer metrics.  Metric names and units come from BENCHMARK.json at
the repository root.  The last line of standard output is one JSON
object; the exit code is 1 when any job failed and 2 when the
benchmark could not set up.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

SETUP_REPEATS = 5
KERNEL_REF_S = 0.005  # nominal duration of one HostClock kernel run
TRACE_ROUNDS = 3     # rounds of the stream run in each pass of a traced run
DIGEST_PREFIX = 16   # jobs covered by the printed stream digest

# fail_frac is 0 on a healthy run, so it cannot carry a relative bound;
# it is printed with the metrics and carried by "failed"/"attempted".
# The wall.* metrics are the unadjusted wall-clock times.
_PRINT_ONLY_UNITS = {"fail_frac": "ratio", "host_speed": "ratio",
                     "wall.jobs_per_s": "jobs/s", "wall.job_p50_s": "s",
                     "wall.job_tail_s": "s", "wall.setup_s": "s"}


class SetupError(Exception):
    pass


def _import_library():
    sys.path.insert(0, SRC)
    try:
        import lawe_spectra.cli
    except ImportError as exc:
        raise SetupError(f"cannot import lawe_spectra from {SRC}: {exc}") from None
    where = os.path.dirname(os.path.abspath(lawe_spectra.cli.__file__))
    if os.path.dirname(where) != SRC:
        raise SetupError(f"lawe_spectra imported from {where}, not from {SRC}")
    return lawe_spectra.cli


def _blas_info():
    """OpenBLAS builds loaded by numpy and scipy and their thread counts."""
    import ctypes
    import numpy
    import scipy
    out = []
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                              pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            entry = {"package": pkg.__name__, "library": os.path.basename(path)}
            for key, names, restype in (
                    ("threads", ("scipy_openblas_get_num_threads64_",
                                 "scipy_openblas_get_num_threads",
                                 "openblas_get_num_threads64_",
                                 "openblas_get_num_threads"), ctypes.c_int),
                    ("config", ("scipy_openblas_get_config64_",
                                "scipy_openblas_get_config",
                                "openblas_get_config64_",
                                "openblas_get_config"), ctypes.c_char_p)):
                for name in names:
                    fn = getattr(lib, name, None)
                    if fn is not None:
                        fn.restype = restype
                        val = fn()
                        entry[key] = val.decode() if isinstance(val, bytes) else val
                        break
            out.append(entry)
    return out


def environment():
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS",
                                                  "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }


def _child_import_seconds():
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import lawe_spectra.cli; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, SRC], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise SetupError(f"import in a fresh interpreter failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def write_config(job, i, cfg_dir, out_dir):
    """Write the config file of the i-th job; artifacts go to out_dir/job-i."""
    cfg = {"schema": 1, **job.config,
           "output": {"directory": os.path.join(out_dir, f"job-{i:04d}")}}
    cfg["analysis"] = {**cfg.get("analysis", {}), "threads": 1}
    os.makedirs(cfg_dir, exist_ok=True)
    path = os.path.join(cfg_dir, f"job-{i:04d}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, sort_keys=True)
    return path


class HostClock:
    """Host-speed reference for the end-to-end times.

    A shared host's CPU speed drifts by up to half over tens of seconds
    with other tenants' load, which moves every wall time of a run
    together.  So each timed step is bracketed by runs of a fixed
    kernel of benchmark code that does the kinds of work the jobs do,
    each about a third of its time: a pure-Python float loop with
    small-array NumPy ufuncs, Python object churn (dicts, strings, a
    keyed sort) and a SciPy DOP853 solve with a Python right-hand side.
    The step is reported in reference seconds: its wall time times
    ``KERNEL_REF_S`` over the mean kernel time just before and just
    after it.  The kernel calls no library code, so a library change
    moves reference seconds as it moves wall seconds.  ``KERNEL_REF_S``
    is about the kernel's median on a shared 2-vCPU x86-64 VM, so there
    the two are close on average.
    """

    REPEATS = 3

    def __init__(self):
        import numpy as np
        from scipy.integrate import solve_ivp
        self._np = np
        self._solve_ivp = solve_ivp
        self._x = np.linspace(0.0, 1.0, 1000)

    def _rhs(self, t, y):
        return [y[1], -y[0] * (1.0 + 0.1 * self._np.sin(t))]

    def _kernel(self):
        acc = 0.0
        for i in range(12000):
            acc += i * 0.5
        x = self._x
        for _ in range(60):
            x = self._np.sqrt(x * x + 1.0) - 0.5
        rows = [{"k": (i * 7) % 13, "i": i, "s": str(i)} for i in range(1500)]
        rows.sort(key=lambda d: (d["k"], d["i"]))
        self._solve_ivp(self._rhs, (0.0, 5.0), [1.0, 0.0], method="DOP853",
                        rtol=1e-9, atol=1e-12)
        return acc, x

    def sample(self):
        """Median seconds of a few kernel runs, now."""
        times = []
        for _ in range(self.REPEATS):
            t0 = perf_counter()
            self._kernel()
            times.append(perf_counter() - t0)
        return statistics.median(times)


class Runner:
    """Runs jobs through the CLI in-process, one at a time."""

    def __init__(self, cli):
        self.cli = cli
        self.sink = open(os.devnull, "w")

    def close(self):
        self.sink.close()

    def run_job(self, kind, cfg_path):
        err = io.StringIO()
        rc, error = None, None
        with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = self.cli.run(kind, cfg_path)
            except Exception:  # a failing job is counted, the stream goes on
                error = traceback.format_exc()
            latency = perf_counter() - t0
        if error is None and rc != 0:
            error = f"exit code {rc}: {err.getvalue().strip()}"
        return {"kind": kind, "latency_s": latency, "rc": rc, "error": error}

    def stream(self, jobs, cfg_dir, out_dir, deadline=None, round_len=1,
               before_job=None, clock=None):
        """Closed loop: write each job's config, then run it.

        Stops after the last job or, at a multiple of ``round_len``
        jobs, once ``deadline`` seconds have passed.  Each record
        carries ``segment_s``, the wall time of writing the job's config
        and running it; with a ``clock``, also ``kernel_s``, the mean of
        the kernel times sampled just before and just after that.
        Returns (jobs run, records, wall seconds).
        """
        ran, records = [], []
        t0 = perf_counter()
        kernel_s = clock.sample() if clock is not None else None
        for i, job in enumerate(jobs):
            if (deadline is not None and i % round_len == 0
                    and perf_counter() >= t0 + deadline):
                break
            t_seg = perf_counter()
            path = write_config(job, i, cfg_dir, out_dir)
            if before_job is not None:
                before_job()
            ran.append(job)
            rec = self.run_job(job.kind, path)
            rec["segment_s"] = perf_counter() - t_seg
            if clock is not None:
                after = clock.sample()
                rec["kernel_s"] = 0.5 * (kernel_s + after)
                kernel_s = after
            records.append(rec)
        return ran, records, perf_counter() - t0


def verify(checks, jobs, records, out_dir):
    """Hash and check each job's artifacts, outside any timed interval."""
    for i, rec in enumerate(records):
        outdir = os.path.join(out_dir, f"job-{i:04d}")
        rec["digest"], rec["bytes"], rec["ref_s"] = None, 0, 0.0
        if rec["error"] is None:
            rec["digest"], rec["bytes"] = checks.artifact_digest(outdir)
            rec["error"], rec["ref_s"] = checks.check(jobs[i], outdir)
        shutil.rmtree(outdir, ignore_errors=True)


def stream_digest(records):
    h = hashlib.sha256()
    for rec in records:
        h.update((rec["digest"] or "-").encode())
    return h.hexdigest()


def tail_latency(latencies):
    """(value, percentile): the highest percentile with >= 10 jobs beyond it.

    That is the 11th largest latency; with 10 jobs or fewer no
    percentile qualifies and the maximum is reported as p100.
    """
    xs = sorted(latencies)
    if len(xs) <= 10:
        return xs[-1], 100.0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs)


def setup(workloads, runner, workload, work, clock=None):
    """Import in a fresh interpreter, then write and run the warm-up jobs.

    Repeated SETUP_REPEATS times; returns (median seconds, samples,
    median wall seconds).  With a ``clock`` the samples are reference
    seconds: each set-up is scaled by the mean of the kernel times
    sampled before and after it.
    """
    samples, walls = [], []
    for k in range(SETUP_REPEATS):
        kernel_s = clock.sample() if clock is not None else None
        t_import = _child_import_seconds()
        t0 = perf_counter()
        _, records, _ = runner.stream(workloads.warmup(workload),
                                      os.path.join(work, "cfg", f"warm{k}"),
                                      os.path.join(work, "out", f"warm{k}"))
        for rec in records:
            if rec["error"] is not None:
                raise SetupError(f"warm-up {rec['kind']} job failed: {rec['error']}")
        wall = t_import + perf_counter() - t0
        walls.append(wall)
        if clock is not None:
            kernel_s = 0.5 * (kernel_s + clock.sample())
            wall *= KERNEL_REF_S / kernel_s
        samples.append(wall)
    shutil.rmtree(os.path.join(work, "out"), ignore_errors=True)
    return statistics.median(samples), samples, statistics.median(walls)


def timed_run(args, runner, workloads, checks, work):
    clock = HostClock()
    setup_s, samples, setup_wall = setup(workloads, runner, args.workload, work, clock)
    out_dir = os.path.join(work, "out", "timed")
    jobs, records, _ = runner.stream(workloads.stream(args.workload, args.seed),
                                     os.path.join(work, "cfg", "timed"), out_dir,
                                     deadline=args.seconds,
                                     round_len=len(workloads.ROUNDS[args.workload]),
                                     clock=clock)
    verify(checks, jobs, records, out_dir)
    speed = [KERNEL_REF_S / r["kernel_s"] for r in records]
    lat = [r["latency_s"] * f for r, f in zip(records, speed)]
    busy = sum(r["segment_s"] * f for r, f in zip(records, speed))
    wall_lat = [r["latency_s"] for r in records]
    wall_busy = sum(r["segment_s"] for r in records)
    failed = sum(r["error"] is not None for r in records)
    passed = len(records) - failed
    tail, pct = tail_latency(lat)
    metrics = {
        "jobs_per_s": passed / busy,
        "job_p50_s": statistics.median(lat),
        "job_tail_s": tail,
        "fail_frac": failed / len(records),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "host_speed": statistics.median(speed),
        "wall.jobs_per_s": passed / wall_busy,
        "wall.job_p50_s": statistics.median(wall_lat),
        "wall.job_tail_s": tail_latency(wall_lat)[0],
        "wall.setup_s": setup_wall,
    }
    notes = {
        "job_p50_s": f"median of n={len(lat)} jobs",
        "job_tail_s": f"p{pct:.1f} of n={len(lat)} jobs, 10 beyond it",
        "fail_frac": f"{failed}/{len(records)} jobs",
        "jobs_per_s": f"{passed} passed jobs in {busy:.3f} reference s",
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in samples),
        "host_speed": f"median of n={len(speed)} kernel samples, "
                      f"{KERNEL_REF_S * 1e3:g} ms over measured kernel time",
    }
    k = min(DIGEST_PREFIX, len(records))
    digest = (f"first {k} jobs", stream_digest(records[:k]))
    return records, failed, metrics, notes, digest


def traced_run(args, runner, workloads, checks, spans, work):
    import numpy as np
    from lawe_spectra import spectra

    n_jobs = TRACE_ROUNDS * len(workloads.ROUNDS[args.workload])
    passes = ("untraced", "traced")

    setup(workloads, runner, args.workload, work)
    jobs = list(itertools.islice(workloads.stream(args.workload, args.seed), n_jobs))
    dirs = {p: (os.path.join(work, "cfg", p), os.path.join(work, "out", p))
            for p in passes}
    _, plain, wall_plain = runner.stream(jobs, *dirs["untraced"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, traced, wall_traced = runner.stream(jobs, *dirs["traced"],
                                               before_job=tracer.begin_job)
    finally:
        tracer.uninstall()
    for name, recs in zip(passes, (plain, traced)):
        verify(checks, jobs, recs, os.path.join(work, "out", name))
    for a, b in zip(plain, traced):
        if b["error"] is None and a["digest"] != b["digest"]:
            b["error"] = "artifacts differ between the untraced and the traced pass"

    metrics = spans.layer_metrics(tracer)
    metrics["trace.overhead_frac"] = wall_traced / wall_plain - 1.0
    metrics["cli.artifact_bytes"] = sum(r["bytes"] for r in traced)

    bisect_s = ref_s = 0.0
    q = {"wkb": [0, 0.0], "bounded": [0, 0.0]}
    for job, rec, tj in zip(jobs, traced, tracer.jobs):
        if job.kind in ("spectrum", "ppmodes"):
            bisect_s += spans.job_span_total(tj, "spectra.eigenvalues_bisect")
            ref_s += rec["ref_s"]
        if job.kind == "sl":
            acc = q["wkb" if job.expect["route"] == workloads.WKB_ROUTE else "bounded"]
            acc[0] += spans.job_span_calls(tj, "slform.Q")
            acc[1] += job.config["analysis"]["x_max"] * len(job.config["analysis"]["lambdas"])
    metrics["spectra.lapack_ref_ratio"] = bisect_s / ref_s if ref_s else 0.0
    for route, (calls, x) in q.items():
        metrics[f"slform.Q.calls_per_x.{route}"] = calls / x if x else 0.0

    speedup, sweep_error = 0.0, None
    if tracer.widest_sweep is not None:
        _, diag, off2, shifts = tracer.widest_sweep
        times = {1: [], 2: []}
        counts = {}
        for _ in range(3):
            for threads in (1, 2):
                t0 = perf_counter()
                counts[threads] = spectra.sturm_counts(diag, off2, shifts, threads)
                times[threads].append(perf_counter() - t0)
        speedup = statistics.median(times[1]) / statistics.median(times[2])
        if not np.array_equal(counts[1], counts[2]):
            sweep_error = "sturm_counts differs between threads=1 and threads=2"
    metrics["spectra.sturm_counts.threads2_speedup"] = speedup

    records = plain + traced
    failed = sum(r["error"] is not None for r in records) + (sweep_error is not None)
    notes = {
        "trace.overhead_frac": f"traced {wall_traced:.3f} s over untraced "
                               f"{wall_plain:.3f} s for the same {n_jobs} jobs",
        "spectra.sturm_counts.threads2_speedup": (
            "no Sturm sweep recorded" if tracer.widest_sweep is None else
            f"threads=1 over threads=2 time, one sweep of "
            f"{tracer.widest_sweep[0]} row-shifts") + (f"; {sweep_error}" if sweep_error else ""),
        "spectra.lapack_ref_ratio": f"bisection {bisect_s:.3f} s over LAPACK "
                                    f"{ref_s:.3f} s on spectrum/ppmodes operators",
    }
    digest = (f"all {n_jobs} jobs", stream_digest(traced))
    return records, failed, metrics, notes, digest


def _load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SetupError(f"cannot read {path}: {exc}") from None
    return spec


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.pop("LAWE_SPECTRA_THREADS", None)

    try:
        spec = _load_spec()
        cli = _import_library()
    except SetupError as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        return 2
    import checks
    import spans
    import workloads
    if args.workload not in workloads.ROUNDS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.ROUNDS)}", file=sys.stderr)
        return 2

    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}"
                              f"-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(cli)
    try:
        if args.trace:
            result = traced_run(args, runner, workloads, checks, spans, work)
            wanted = spec["per_layer"]
        else:
            result = timed_run(args, runner, workloads, checks, work)
            wanted = spec["end_to_end"]
    except SetupError as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        return 2
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
    records, failed, metrics, notes, digest = result
    env = environment()

    mode = "per-layer spans" if args.trace else "end-to-end, tracing off"
    print(f"workload {args.workload}, seed {args.seed}, {mode}: closed loop, "
          f"1 client, threads=1, {len(records)} jobs")
    for name in sorted(metrics, key=lambda n: (n not in {m['name'] for m in wanted}, n)):
        unit = next((m["unit"] for m in wanted if m["name"] == name),
                    _PRINT_ONLY_UNITS.get(name, ""))
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:44s} {metrics[name]:.6g} {unit}{note}")
    for rec in records:
        if rec["error"] is not None:
            print(f"  FAILED {rec['kind']}: {rec['error'].strip().splitlines()[-1]}")
    print(f"artifact digest ({digest[0]}): {digest[1]}")
    print("environment: " + json.dumps(env, sort_keys=True))

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"metrics not computed: {missing}", file=sys.stderr)
        return 2
    out = {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
           for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": out}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
