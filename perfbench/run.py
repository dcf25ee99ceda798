#!/usr/bin/env python3
"""totref benchmark: timed passes of CLI workloads, checked against an oracle.

Run from the root of a totref checkout (the package is imported from
``src/``; nothing needs installing):

    python3 perfbench/run.py --workload analyze-family --seed 1 --seconds 30 --trace 0

Each run is one fresh, single-threaded process.  It times set-up (import of
numpy and totref plus input generation, in child processes, median of
several), then runs passes of the workload's ops through in-process calls to
``totref.cli.main`` until ``--seconds`` would be exceeded.  Every op's report
is checked against the oracle in ``workloads.py`` and digested; a digest that
changes between passes is a failure.  ``--trace 1`` alternates untraced and
traced passes (see ``spans.py``) and reports the per-layer metrics instead.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it holds the
details: digests, per-command timings, failures, environment and the host
probe.  A readable table goes to stderr.  ``--workload all`` runs every
workload in its own process and prints each table.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 7
PROBE_LOOPS = 2_000_000
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "max_op_s": "s",
    "peak_rss_mb": "MB",
}
# Keep BLAS and OpenMP pools, if numpy starts any, at one thread.
SINGLE_THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def probe_s():
    """A fixed pure-Python loop: reports host speed, never rescales a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc = (acc * 31 + i) % 1000003
    return time.perf_counter() - t0


def summary(samples):
    """Median and sample count, plus the highest percentile that has at least
    ten samples beyond it when there are enough samples."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    for pct in (99.9, 99, 95, 90, 75, 50):
        if len(samples) * (1 - pct / 100) >= 10:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            out[f"p{pct:g}"] = cuts[round(pct * 10) - 1]
            break
    return out


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def build_ops(workload, seed, work, smoke):
    from workloads import WORKLOADS

    builder, _ = WORKLOADS[workload]
    return builder(seed, work, os.path.join(ROOT, "graphs"), smoke=smoke)


def _malloc_trim():
    """glibc's malloc_trim, or None on another C library."""
    try:
        fn = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return None
    fn.argtypes = [ctypes.c_size_t]
    fn.restype = ctypes.c_int
    return fn


class Runner:
    """Runs passes of one workload and keeps their outcomes."""

    def __init__(self, ops, cli):
        self.ops = ops
        self.cli = cli  # looked up per call, so a traced pass sees the wrapped main
        self.malloc_trim = _malloc_trim()
        self.digests = {}  # op label -> digests of its first output
        self.verdicts = {}  # op label -> oracle result for that output
        self.failures = []
        self.attempted = 0
        self.failed = 0

    def run_op(self, op):
        # Start every op from a trimmed heap, as a fresh CLI process would.
        # Otherwise memory freed by earlier ops stays resident and
        # peak_rss_mb depends on which ops ran before.
        gc.collect()
        if self.malloc_trim is not None:
            self.malloc_trim(0)
        for path in op.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(op.argv))
        except (Exception, SystemExit) as exc:  # an op that raises fails; the pass goes on
            return time.perf_counter() - t0, 0, f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        stdout = out.getvalue().encode()
        if rc != 0:
            return dt, len(stdout), f"exit {rc}: {err.getvalue().strip()[-200:]}"
        digests = {"stdout": sha256(stdout)}
        nbytes = len(stdout)
        for path in op.outputs:
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except OSError as exc:
                return dt, nbytes, f"output not written: {exc}"
            digests[os.path.basename(path)] = sha256(data)
            nbytes += len(data)
        first = self.digests.setdefault(op.label, digests)
        if digests != first:
            return dt, nbytes, "output differs from the first pass"
        if op.label not in self.verdicts:
            try:
                self.verdicts[op.label] = op.check(json.loads(stdout))
            except Exception as exc:  # a report the oracle cannot read is a wrong result
                self.verdicts[op.label] = f"oracle: {type(exc).__name__}: {exc}"
        return dt, nbytes, self.verdicts[op.label]

    def run_pass(self):
        """One pass over every op: per-op seconds, bytes written, per-command sums."""
        times, commands, nbytes = {}, {}, 0
        for op in self.ops:
            dt, written, error = self.run_op(op)
            times[op.label] = dt
            commands[op.command] = commands.get(op.command, 0.0) + dt
            nbytes += written
            self.attempted += 1
            if error is not None:
                self.failed += 1
                self.failures.append(f"{op.label}: {error}")
        return {"wall": sum(times.values()), "ops": times, "commands": commands, "bytes": nbytes}


def measure_setup(args):
    """Wall times of fresh processes that import totref and generate the inputs."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        argv.append("--smoke")
    samples = []
    for _ in range(2 if args.smoke else SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def setup_only(args):
    import numpy  # noqa: F401
    import totref.cli  # noqa: F401

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        build_ops(args.workload, args.seed, work, args.smoke)
    return 0


def run_passes(runner, seconds, first, cycle):
    """Run the ``first`` passes, then ``cycle`` round and round until the
    next pass would end after ``seconds``.  A kind may return None to skip."""
    passes = []
    start = time.perf_counter()

    def timed(kind):
        t0 = time.perf_counter()
        result = kind(runner, passes)
        if result is not None:
            result["clock"] = time.perf_counter() - t0
            passes.append(result)

    for kind in first:
        timed(kind)
    for kind in itertools.cycle(cycle):
        if time.perf_counter() - start + passes[-1]["clock"] > seconds:
            break
        timed(kind)
    return passes


def plain_pass(runner, passes):
    return dict(runner.run_pass(), kind="untraced")


def traced_pass(runner, passes):
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        result = runner.run_pass()
    finally:
        tracer.uninstall()
    return dict(result, kind="traced", layers=tracer.metrics(), edges=tracer.edge_list(),
                missing=tracer.missing)


def memory_pass(runner, passes):
    """Only when a traced pass saw quadratic_presentation run."""
    from spans import QP, MemoryProbe

    traced = [p for p in passes if p["kind"] == "traced"]
    if not traced[-1]["layers"][QP + ".calls"]:
        return None
    probe = MemoryProbe()
    probe.install()
    try:
        result = runner.run_pass()
    finally:
        probe.uninstall()
    return dict(result, kind="memory", peak_mb=probe.peak_mb)


def untraced_metrics(runner, passes, setup):
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall"] for p in passes),
        "max_op_s": statistics.median(max(p["ops"].values()) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    timings = {"wall_s": summary([p["wall"] for p in passes]),
               "max_op_s": summary([max(p["ops"].values()) for p in passes])}
    for cmd in sorted({c for p in passes for c in p["commands"]}):
        timings[f"{cmd}_s"] = summary([p["commands"][cmd] for p in passes])
    for op in runner.ops:
        timings[op.label] = summary([p["ops"][op.label] for p in passes])
    return metrics, {"timings": timings, "passes": len(passes),
                     "pass_wall_s": [p["wall"] for p in passes]}


def traced_metrics(passes):
    plain = [p for p in passes if p["kind"] == "untraced"]
    traced = [p for p in passes if p["kind"] == "traced"]
    memory = [p for p in passes if p["kind"] == "memory"]
    metrics = {name: statistics.median(p["layers"][name] for p in traced)
               for name in traced[0]["layers"]}
    metrics["cli.output_bytes"] = statistics.median(p["bytes"] for p in passes)
    metrics["analysis.quadratic_presentation.peak_mb"] = memory[0]["peak_mb"] if memory else 0.0
    metrics["trace.overhead_s"] = (
        statistics.median(p["wall"] for p in traced) - statistics.median(p["wall"] for p in plain)
    )
    details = {
        "passes": {k: sum(p["kind"] == k for p in passes) for k in ("untraced", "traced", "memory")},
        "untraced_wall_s": summary([p["wall"] for p in plain]),
        "traced_wall_s": summary([p["wall"] for p in traced]),
        "span_edges": traced[-1]["edges"],
        "missing_spans": traced[-1]["missing"],
    }
    return metrics, details


def run_workload(args):
    if not os.path.isfile(os.path.join(SRC, "totref", "__init__.py")):
        print(f"error: no totref sources under {SRC}; run from a totref checkout",
              file=sys.stderr)
        return 2
    setup = measure_setup(args)
    probe_before = probe_s()
    import numpy
    import totref.cli
    from spans import PER_LAYER
    from totref.fields import PrimeField

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        ops = build_ops(args.workload, args.seed, work, args.smoke)
        runner = Runner(ops, totref.cli)
        if args.trace:
            # traced and untraced passes alternate, so the overhead is measured
            passes = run_passes(runner, args.seconds, [plain_pass, traced_pass],
                                [plain_pass, traced_pass])
            memory = memory_pass(runner, passes)
            if memory is not None:
                passes.append(memory)
            metrics, details = traced_metrics(passes)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            passes = run_passes(runner, args.seconds, [plain_pass, plain_pass], [plain_pass])
            metrics, details = untraced_metrics(runner, passes, setup)
            units = END_TO_END
    probe_after = probe_s()

    details.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "setup_s_samples": setup,
        "failed_frac": runner.failed / runner.attempted,
        "failures": runner.failures[:50],
        "digests": runner.digests,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "prime": PrimeField().p,
            "machine": platform.machine(),
        },
        "probe_s": {"before": probe_before, "after": probe_after},
    })
    for name, value in metrics.items():
        print(f"{args.workload:>15}  {name:<52} {value:>14.6g} {units[name]}", file=sys.stderr)
    print(f"{args.workload:>15}  {'failed/attempted':<52} {runner.failed:>7}/{runner.attempted}",
          file=sys.stderr)
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own fresh process; prints every table."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    os.environ.update(SINGLE_THREAD_ENV)
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        return setup_only(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
