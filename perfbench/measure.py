"""Measuring process of the entpower benchmark: one workload, one run.

``run.py`` starts this file in a session of its own and waits until
every process of that session has ended; run it through ``run.py``.
The workload is a closed loop with one client: each operation is one
in-process call to ``entpower.cli.main`` writing CSV to a temporary
file, and every operation's CSV is checked before the next starts.
Passes of the reference kernel (reference.py) run between operations,
and the end-to-end rates are given in units of its time.
The last line on standard output is the run's JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path

import checks
from spans import Tracer, layer_figures

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# d = 20 and n_max = 2d: curve rows cover both the ramp and the plateau
D_A, D_B, N_MAX = 4, 5, 40


@dataclass(frozen=True)
class Workload:
    """CLI flags of one workload and the samples of each operation."""

    subcommand: str
    ensemble: str
    state: str | None
    samples: int
    parallelism: int

    def argv(self, seed: int, samples: int, parallelism: int, out: str) -> list[str]:
        argv = [self.subcommand, "--da", str(D_A), "--db", str(D_B), "--ensemble", self.ensemble]
        if self.state is not None:
            argv += ["--state", self.state]
        if self.subcommand != "asymptotic":
            argv += ["--nmax", str(N_MAX)]
        return argv + ["--samples", str(samples), "--seed", str(seed),
                       "--parallelism", str(parallelism), "--out", out]


# Why each workload is here: see README.md in this directory.
WORKLOADS = {
    "ep-cue": Workload("ep-curve", "cue", "fixed", 256, 1),
    "opent-cue": Workload("opent-curve", "cue", None, 128, 1),
    "asym-coe-real": Workload("asymptotic", "coe", "random-real", 128, 1),
    "ep-cue-pool": Workload("ep-curve", "cue", "fixed", 4096, 2),
}

END_TO_END_UNITS = {"setup_s": "s", "samples_per_ref": "samples/ref",
                    "cpu_ref_per_ksample": "ref/ksample", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "ensembles.sample_us": "us",
    "ensembles.state_us": "us",
    "dynamics.decompose_us": "us",
    "dynamics.orbit_us": "us",
    "entanglement.purity_batch_us": "us",
    "dynamics.opent_series_us": "us",
    "entanglement.operator_purity_us": "us",
    "dynamics.pairing_us": "us",
    "montecarlo.driver_us_per_sample": "us",
    "montecarlo.pool_overhead_s": "s",
    "montecarlo.fallback_count": "count",
    "cli.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}

# BLAS thread-count getters of the OpenBLAS builds numpy and scipy ship
_BLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads")


@dataclass
class Op:
    """One call of the CLI: its inputs, cost and output."""

    seed: int
    samples: int
    parallelism: int
    wall_s: float
    cpu_s: float
    exit: int | str
    csv: str | None
    problems: list[str]


def op_seed(workload: str, seed: int, index: int | str) -> int:
    """Master seed of one operation, derived from the workload seed and the operation index."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def cpu_seconds() -> float:
    """User + system CPU of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class RssSampler:
    """Peak resident set of this process during each operation.

    A thread reads /proc/self/statm every INTERVAL_S; the peak of an
    operation is the largest reading from its start to its end.  The
    process's own high-water mark cannot be reset, so it would carry
    one operation's peak into every later one.
    """

    INTERVAL_S = 0.005

    def __init__(self):
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._page_mb = os.sysconf("SC_PAGE_SIZE") / 2**20
        self._peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _now(self) -> int:
        return int(os.pread(self._fd, 128, 0).split()[1])

    def _sample(self) -> None:
        while not self._stop.wait(self.INTERVAL_S):
            self._peak = max(self._peak, self._now())

    def start(self) -> None:
        self._peak = self._now()

    def peak_mb(self) -> float:
        return max(self._peak, self._now()) * self._page_mb

    def close(self) -> None:
        self._stop.set()
        self._thread.join()
        os.close(self._fd)


class Reference:
    """Processes of reference.py for the workload's subcommand, as many as its parallelism, run in step.

    One pass runs the kernel once in every process at the same time and
    gives the wall time of the slowest and the mean CPU time of one
    process: the machine's speed at that moment, in the shape of an
    operation.  A pass draws an eighth of the samples an operation gives
    each process, and at least MIN_DRAWS, so that it is neither a blip
    beside a long pooled operation nor shorter than about 15 ms.
    """

    MIN_DRAWS = 32

    def __init__(self, wl: Workload, env: dict[str, str]):
        draws = max(self.MIN_DRAWS, wl.samples // (8 * wl.parallelism))
        cmd = [sys.executable, str(HERE / "reference.py"), wl.subcommand, wl.ensemble, str(draws)]
        self.procs = [subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                       text=True, env=env) for _ in range(wl.parallelism)]

    def run(self) -> tuple[float, float]:
        for proc in self.procs:
            proc.stdin.write("\n")
            proc.stdin.flush()
        times = [proc.stdout.readline().split() for proc in self.procs]
        if any(len(t) != 2 for t in times):
            raise RuntimeError("a reference process ended early")
        return max(float(w) for w, _ in times), statistics.fmean(float(c) for _, c in times)

    def close(self) -> None:
        for proc in self.procs:
            proc.stdin.close()
        for proc in self.procs:
            proc.wait(timeout=60)
            proc.stdout.close()


def table_spec(wl: Workload, targets: dict) -> checks.TableSpec:
    d = D_A * D_B
    state_max = 1 - Fraction(1, min(D_A, D_B))
    if wl.subcommand == "ep-curve":
        gates = ((1, "ep1(a)", targets["ep1_a"]),)
        gates += tuple((n, "epinf(a)", targets["epinf_a"]) for n in range(d, N_MAX + 1))
        return checks.TableSpec(tuple(range(1, N_MAX + 1)), state_max, gates)
    if wl.subcommand == "opent-curve":
        operator_max = 1 - Fraction(1, min(D_A, D_B) ** 2)
        return checks.TableSpec(tuple(range(1, N_MAX + 1)), operator_max,
                                ((1, "opent_cue", targets["opent_cue"]),))
    return checks.TableSpec((-1,), state_max, ((-1, "epinf(c)", targets["epinf_c"]),))


def program_targets(closedform) -> dict:
    case = closedform.CaseTag
    return {
        "ep1_a": closedform.ep1(case.A_CUE_COMPLEX, D_A, D_B),
        "epinf_a": closedform.ep_inf(case.A_CUE_COMPLEX, D_A, D_B),
        "opent_cue": closedform.op_ent_cue(D_A, D_B),
        "epinf_c": closedform.ep_inf(case.C_COE_REAL, D_A, D_B),
    }


class Runner:
    """Runs and checks operations of one workload through one CLI entry point."""

    def __init__(self, main, wl: Workload, spec: checks.TableSpec, out: str):
        self.main, self.wl, self.spec, self.out = main, wl, spec, out

    def run(self, seed: int, samples: int | None = None, parallelism: int | None = None,
            main=None, gate: bool = True) -> Op:
        samples = self.wl.samples if samples is None else samples
        parallelism = self.wl.parallelism if parallelism is None else parallelism
        argv = self.wl.argv(seed, samples, parallelism, self.out)
        if os.path.exists(self.out):
            os.remove(self.out)
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            code = (main or self.main)(argv)
        except Exception as exc:  # a crash inside the program is a failed operation
            code = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        op = Op(seed, samples, parallelism, wall, cpu, code, None, [])
        if code == 0:
            try:
                with open(self.out, encoding="utf-8", newline="") as fh:
                    op.csv = fh.read()
            except OSError as exc:
                op.problems = [f"seed {seed}: exit 0 but no CSV: {exc}"]
                op.csv = ""
                return op
            if gate:
                op.problems = checks.check_table(op.csv, self.spec, samples)
        return op


def recompute_problems(runner: Runner, name: str, seed: int) -> list[str]:
    """Samples 0 and 1 of the first operation, recomputed in numpy without the program's dynamics."""
    wl = runner.wl
    s0 = op_seed(name, seed, 0)
    op = runner.run(s0, samples=2, parallelism=1, gate=False)
    if op.exit != 0:
        return [f"two-sample run exited with {op.exit}"]
    draws = [checks.draw(s0, i, D_A, D_B, wl.ensemble, wl.state) for i in (0, 1)]
    if wl.subcommand == "ep-curve":
        x = [checks.state_entropies(u, psi, D_A, D_B, N_MAX) for u, psi in draws]
        tol = checks.RECOMPUTE_TOL
    elif wl.subcommand == "opent-curve":
        x = [checks.operator_entropies(u, D_A, D_B, N_MAX) for u, _ in draws]
        tol = checks.RECOMPUTE_TOL
    else:
        averages = [checks.direct_time_average(u, psi, D_A, D_B, checks.TIME_AVERAGE_STEPS)
                    for u, psi in draws]
        x = [[mean] for mean, _ in averages]
        tol = sum(t for _, t in averages) / 2
    return checks.check_pair(op.csv, x[0], x[1], tol)


def identity_problems(op: Op, reference: Op, label: str) -> list[str]:
    """Byte identity of an operation's CSV and a reference run of the same seed."""
    if op.exit != 0:
        return []  # counted as a failed operation
    if reference.exit != 0:
        return [f"{label}: reference run exited with {reference.exit}"]
    return checks.check_identical(op.csv, reference.csv, label)


def timed_loop(runner: Runner, name: str, seed: int, seconds: float,
               reference: Reference) -> tuple[list[Op], dict, list[str], dict]:
    """Operations, each between two passes of the reference kernel.

    An operation's time is divided by the mean of the two passes around
    it, which cancels the drift of the machine's speed.
    """
    ops: list[Op] = []
    ref_wall, ref_cpu, op_rss = [], [], []
    rss = RssSampler()
    before = reference.run()
    deadline = time.perf_counter() + seconds
    try:
        while not ops or time.perf_counter() < deadline:
            rss.start()
            ops.append(runner.run(op_seed(name, seed, len(ops))))
            op_rss.append(rss.peak_mb())
            after = reference.run()
            ref_wall.append((before[0] + after[0]) / 2)
            ref_cpu.append((before[1] + after[1]) / 2)
            before = after
    finally:
        rss.close()
    run_peak = peak_rss_mb()
    children_peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    problems = []
    if runner.wl.parallelism > 1:
        for op in ops:
            if op.exit == 0:
                problems += identity_problems(op, runner.run(op.seed, parallelism=1),
                                              f"pooled seed {op.seed}")
    good = [(op, w, c, m) for op, w, c, m in zip(ops, ref_wall, ref_cpu, op_rss) if op.exit == 0]
    if not good:
        raise RuntimeError(f"all {len(ops)} operations failed; first: {ops[0].exit}")
    metrics = {
        "samples_per_ref": statistics.median(op.samples / op.wall_s * w for op, w, _, _ in good),
        "cpu_ref_per_ksample": statistics.median(op.cpu_s / op.samples * 1e3 / c for op, _, c, _ in good),
        "peak_rss_mb": statistics.median(m for _, _, _, m in good) + children_peak,
    }
    raw = {
        "run_peak_rss_mb": run_peak,
        "operation_peak_rss_mb": op_rss,
        "samples_per_s": statistics.median(op.samples / op.wall_s for op, _, _, _ in good),
        "cpu_us_per_sample": statistics.median(op.cpu_s / op.samples * 1e6 for op, _, _, _ in good),
        "reference_wall_s": statistics.median(ref_wall),
        "reference_cpu_s": statistics.median(ref_cpu),
        "operation_reference_wall_s": ref_wall,
        "operation_reference_cpu_s": ref_cpu,
    }
    return ops, metrics, problems, raw


def traced_loop(runner: Runner, name: str, seed: int, seconds: float,
                tracer: Tracer) -> tuple[list[Op], dict, list[str]]:
    """Rounds of one untraced and one traced operation on the same seed.

    Spans cannot follow calls into pool workers, so the traced operation
    always runs serially; on a pooled workload each round also runs the
    seed serially untraced, which is the pool's byte-identity reference
    and the base of both the pool overhead and the tracing overhead.
    """
    ops: list[Op] = []
    figures, pool_overheads, untraced_rate, traced_rate = [], [], [], []
    problems = []
    deadline = time.perf_counter() + seconds
    rnd = 0
    while rnd == 0 or time.perf_counter() < deadline:
        s = op_seed(name, seed, rnd)
        plain = runner.run(s)
        ops.append(plain)
        reference = plain
        if runner.wl.parallelism > 1:
            reference = runner.run(s, parallelism=1)
            ops.append(reference)
            problems += identity_problems(plain, reference, f"pooled seed {s}")
            pool_overheads.append(plain.wall_s - reference.wall_s / 2)
        with tracer.installed(rnd):
            traced = runner.run(s, parallelism=1, main=partial(tracer.call, "cli.main", runner.main))
        ops.append(traced)
        problems += identity_problems(traced, reference, f"traced seed {s}")
        figures.append(layer_figures(*tracer.op_totals(rnd), traced.samples))
        untraced_rate.append(reference.samples / reference.wall_s)
        traced_rate.append(traced.samples / traced.wall_s)
        rnd += 1
    metrics = {key: statistics.median(f[key] for f in figures) for key in figures[0]}
    metrics["montecarlo.pool_overhead_s"] = statistics.median(pool_overheads) if pool_overheads else 0.0
    metrics["montecarlo.fallback_count"] = sum(t.metadata.get("fallback_count", 0) for t in tracer.tables)
    base = statistics.median(untraced_rate)
    metrics["trace.overhead_pct"] = (base - statistics.median(traced_rate)) / base * 100.0
    return ops, metrics, problems


def blas_threads() -> dict[str, int]:
    """Default thread count of every OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line and line.split()[-1].startswith("/")})
    except OSError:
        return {}
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for getter in _BLAS_GETTERS:
            fn = getattr(lib, getter, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree of its own, else "unknown"."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def environment(entpower) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads_default": blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "entpower_version": entpower.__version__,
        "git_commit": git_commit(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--started", type=float, required=True,
                   help="start of the benchmark process on the time.monotonic() clock")
    return p.parse_args(argv)


def main(argv=None) -> int:
    entered = time.monotonic()
    env = dict(os.environ)
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    import entpower
    from entpower import cli, closedform

    imported = time.monotonic()

    if Path(entpower.__file__).resolve().parent != SRC / "entpower":
        print(f"error: entpower imported from {entpower.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    targets = checks.exact_targets(D_A, D_B)
    problems = checks.compare_targets(targets, program_targets(closedform))
    OUT.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        runner = Runner(cli.main, wl, table_spec(wl, targets), os.path.join(tmp, "op.csv"))
        warm = runner.run(op_seed(args.workload, args.seed, "warm-up"), samples=wl.samples // 4)
        if warm.exit != 0:
            problems.append(f"warm-up call exited with {warm.exit}")
        problems += warm.problems
        setup_s = time.monotonic() - args.started
        setup_parts = {"to_measure_main_s": entered - args.started, "entpower_import_s": imported - entered,
                       "warm_up_s": warm.wall_s}
        raw = {}
        if tracer is None:
            reference = Reference(wl, env)
            try:
                ops, metrics, loop_problems, raw = timed_loop(runner, args.workload, args.seed,
                                                              args.seconds, reference)
            finally:
                reference.close()
            metrics = {"setup_s": setup_s, **metrics}
            units = END_TO_END_UNITS
        else:
            ops, metrics, loop_problems = traced_loop(runner, args.workload, args.seed,
                                                      args.seconds, tracer)
            units = PER_LAYER_UNITS
        problems += loop_problems
        problems += [p for op in ops for p in op.problems]
        problems += recompute_problems(runner, args.workload, args.seed)
    failed = sum(op.exit != 0 for op in ops)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    for op in ops:
        if op.exit != 0:
            print(f"operation seed {op.seed} failed: {op.exit}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(entpower), "setup_s": setup_s, "setup_parts": setup_parts,
        "result": result,
        "unnormalised": raw,
        "problems": problems,
        "operations": [{k: v for k, v in asdict(op).items() if k != "csv"} for op in ops],
    }
    if tracer is not None:
        record["spans"] = tracer.spans
    kind = "trace" if args.trace else "run"
    with open(OUT / f"{kind}-{args.workload}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
