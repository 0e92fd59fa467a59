"""Layered benchmark for hyperfast: solve time, set-up time and oracle work.

Run from the root of a checkout:

    python3 perfbench/run.py --workload logreg-small --seed 7 --seconds 30 --trace 0

Each workload is a fixed ``harness.run`` configuration. ``--seed`` picks the
problem instances and reaches the program only as ``problem.seed``: instance i
of a run uses ``seed + 1000*i``, so instance 0 at a workload's default seed is
the pinned one (seed 7 is the ``logreg_fixture`` data, seed 11 the
``sliding_bench`` default). Every solve runs to the solver's own stop and is
checked against a reference optimum, against the paper's window and
contraction invariants, and against the first solve of the same instance
(counters, final f, trace and summary bytes).

``--trace 0`` cycles through the run's instances with tracing off and reports
the end-to-end metrics. On the interpreter-bound workloads each solve's wall
time is rescaled to a reference machine speed, gauged by a fixed calibration
kernel run just before and after it (see ``calibrate``). ``--trace 1``
alternates untraced and traced solves of instance 0, checks that both give
identical bytes and that the traced oracle calls equal the program's own
counters, and reports the per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units are
those of ``BENCHMARK.json``. Earlier lines give the environment, each
instance's counters and every ratio with its base. BLAS is held to one thread
(see ``THREAD_VARS``); the count each loaded BLAS reports is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

#: BLAS runs one thread, set here before numpy loads and inherited by the
#: set-up probes. At OpenBLAS's default of one thread per core, a logreg-large
#: solve on a 2-core box spent 12-13 s of CPU in 6.6-7.1 s of wall time, and
#: in two sets of ten runs its solve time spread by 0.41 and 0.47 of the
#: median: it measured what else the host was running. With one thread the same solve took
#: 5.6-6.6 s of wall and CPU time alike. The program sets no thread count, so a
#: change that sets one shows in the environment record and in the times.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Gradient-norm stop for the reference optimum. The default 1e-13 is below
#: what the Armijo test on f values can resolve: on 73 of 2,000 sliding_bench
#: seeds the search stalls above 1e-10, on none above 1e-8. A residual g moves
#: f* by at most |g|^2 / (2 mu), with mu >= ridge = 1e-3 here: 5e-14 at most,
#: far inside every workload's eps.
FSTAR_TOL = 1e-8
#: Paper invariants checked on every record (criterion 05).
WINDOW = (0.5, 0.75)
SIGMA_MAX = 0.6
#: Fresh processes timed per run for set-up (untraced, traced). The benchmark
#: imports the package first, so the byte-code cache is filled before any of
#: them starts.
SETUP_RUNS = {0: 7, 1: 3}
INSTANCE_STRIDE = 1000
#: calibrate() here and in setup_probe.py take about this long on the 2-core
#: box the bounds were sized on, at full speed. They only set the scale of
#: gauged times.
REFERENCE_CALIB_S = 0.012
SETUP_REFERENCE_CALIB_S = 0.0065


@dataclass(frozen=True)
class Workload:
    config: dict
    default_seed: int
    #: Instances pooled per untraced run. Counters differ between instances by
    #: 17-47% (quartile spread over seeds); pooling keeps a run's mean steady.
    instances: int
    #: Rescale solve times by the calibration kernel (see calibrate). True for
    #: the interpreter-bound workloads: over 10 runs it cut the quartile
    #: spread of solve_s on logreg-small from 0.235 to 0.073. logreg-large
    #: spends its time in BLAS calls on 2000 x 200 matrices, which the kernel
    #: does not track: gauged, its spread over six runs was 0.22, plain 0.057.
    #: So its times stay plain wall time.
    gauged: bool


_LOGREG = {"problem": "logreg", "method": "hyperfast", "eps": "1e-9",
           "max_iters": "30", "problem.ridge": "1e-3"}
WORKLOADS = {
    "logreg-small": Workload({**_LOGREG, "problem.m": "200", "problem.n": "20"},
                             default_seed=7, instances=16, gauged=True),
    "logreg-large": Workload({**_LOGREG, "problem.m": "2000", "problem.n": "200"},
                             default_seed=7, instances=5, gauged=False),
    "sliding": Workload({"problem": "sliding_bench", "method": "sliding",
                         "eps": "1e-6", "max_iters": "30", "problem.m": "40",
                         "problem.n": "8"}, default_seed=11, instances=16,
                        gauged=True),
}


def calibrate() -> float:
    """Time a fixed mix of small numpy and interpreter work, about 12 ms.

    Each CPU of this machine slows by up to 1.5x, on its own, in episodes that
    can outlast a run. An interpreter-bound solve slows with the CPU it runs
    on, and so does this kernel, run on the same thread just before and just
    after the solve. The matrices are too small for BLAS to use threads.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    m = rng.standard_normal((48, 48))
    m = m @ m.T / 48 + np.eye(48)
    t0 = time.perf_counter()
    v = np.ones(48)
    for _ in range(4000):
        v = m @ v
        v = v / float(np.sqrt(v @ v))
    return time.perf_counter() - t0


class Gauge:
    """Calibrates before and after every timed step of a run."""

    def __init__(self):
        self.last = calibrate()

    def step_scale(self) -> float:
        """Call right after a timed step: its seconds times this factor are
        seconds at reference speed."""
        before, self.last = self.last, calibrate()
        return 2 * REFERENCE_CALIB_S / (before + self.last)


@dataclass
class Solve:
    seconds: float
    error: str | None = None
    outcome: object = None
    trace: bytes = b""
    summary: bytes = b""
    scale: float = 1.0

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale

    @property
    def counters(self) -> dict:
        return {k: v for k, v in self.outcome.summary.items() if k.startswith("n_")}

    def total(self, kind: str) -> int:
        c = self.counters
        return c.get(f"n_{kind}", 0) + c.get(f"n_{kind}_g", 0) + c.get(f"n_{kind}_h", 0)


@dataclass
class Instance:
    seed: int
    cfg: object
    f_star: float | None
    f_star_error: str | None
    first: Solve | None = None
    solves: list = field(default_factory=list)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import hyperfast from this checkout's src/, never from elsewhere."""
    if not (SRC / "hyperfast" / "__init__.py").is_file():
        fail(f"no hyperfast sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import hyperfast
    from hyperfast import harness

    if Path(hyperfast.__file__).resolve().parent != SRC / "hyperfast":
        fail(f"imported hyperfast from {hyperfast.__file__}, not from {SRC}")
    return harness


def blas_info() -> dict:
    """BLAS vendor from numpy's build record, and the thread count each loaded
    OpenBLAS reports (numpy and scipy may each bundle one)."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"vendor": blas.get("name"), "version": blas.get("version"),
            "threads": {}}
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps
                       if "openblas" in line.lower() and line.rstrip().endswith(".so")})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                info["threads"][Path(lib_path).name] = fn()
                break
    return info


def environment() -> dict:
    import numpy as np
    import scipy

    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_info(),
            "thread_env": {k: os.environ[k] for k in THREAD_VARS}}


class SetupProbes:
    """Fresh-process set-up timings, spread evenly over the measuring window.

    Machine speed here changes in episodes of several seconds, so probes run
    back to back would all land in one episode. Each probe also gauges its own
    speed (see setup_probe.py); ``median(..., gauged=True)`` rescales to
    reference speed.
    """

    def __init__(self, mapping: dict, count: int, seconds: float):
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
                    json.dumps(mapping)]
        start = time.perf_counter()
        self.due = [start + seconds * j / count for j in range(count)]
        self.samples: list[dict] = []

    def run_due(self, finish: bool = False) -> None:
        while self.due and (finish or self.due[0] <= time.perf_counter()):
            self.due.pop(0)
            done = subprocess.run(self.cmd, capture_output=True, text=True,
                                  timeout=120, check=True, cwd=ROOT)
            sample = json.loads(done.stdout.splitlines()[-1])
            if Path(sample["package"]).resolve().parent != SRC / "hyperfast":
                fail(f"set-up probe imported {sample['package']}")
            self.samples.append(sample)

    def median(self, *keys: str, gauged: bool = False) -> float:
        return statistics.median(
            sum(s[k] for k in keys)
            * (SETUP_REFERENCE_CALIB_S / s["calib_s"] if gauged else 1.0)
            for s in self.samples)


def make_instances(harness, workload: Workload, seed: int, count: int,
                   workdir: Path) -> list[Instance]:
    instances = []
    for i in range(count):
        s = seed + INSTANCE_STRIDE * i
        cfg = harness.build_run_config({
            **workload.config, "problem.seed": str(s),
            "trace": str(workdir / f"{s}.trace"),
            "summary": str(workdir / f"{s}.summary")})
        f_star, error = None, None
        try:
            f_star = harness.reference_fstar(harness.make_problem(cfg).single(),
                                             tol=FSTAR_TOL)
        except Exception as exc:  # a missing reference fails every solve below
            error = f"{type(exc).__name__}: {exc}"
        instances.append(Instance(s, cfg, f_star, error))
    return instances


def solve_once(harness, inst: Instance, gauge: Gauge | None = None) -> Solve:
    t0 = time.perf_counter()
    try:
        outcome = harness.run(inst.cfg)
    except Exception as exc:  # a raising solve is counted as failed
        seconds = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return Solve(seconds, error=f"raised {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    scale = gauge.step_scale() if gauge else 1.0
    return Solve(seconds, outcome=outcome,
                 trace=Path(inst.cfg.trace_path).read_bytes(),
                 summary=Path(inst.cfg.summary_path).read_bytes(), scale=scale)


def problems_with(inst: Instance, solve: Solve) -> list[str]:
    """Correctness gate: why this solve failed, empty if it passed.

    The first solve of an instance that returns becomes its reference for
    the repeat checks.
    """
    if solve.error:
        return [solve.error]
    found = []
    summary = solve.outcome.summary
    if inst.f_star_error:
        found.append(f"no reference optimum: {inst.f_star_error}")
    elif summary["final_f"] - inst.f_star > inst.cfg.eps:
        found.append(f"f - f* = {summary['final_f'] - inst.f_star:.3e} > eps")
    if summary["converged"] != 1:
        found.append(f"status {summary['status']} is not converged")
    for rec in solve.outcome.records:
        if not WINDOW[0] <= rec.window_value <= WINDOW[1]:
            found.append(f"record {rec.k}: window value {rec.window_value!r}")
        if rec.sigma_observed > SIGMA_MAX:
            found.append(f"record {rec.k}: sigma_observed {rec.sigma_observed!r}")
    if inst.cfg.method == "hyperfast" and solve.total("third"):
        found.append(f"{solve.total('third')} third-derivative calls")
    ref = inst.first
    if ref is None:
        inst.first = solve
    else:
        for what, mine, theirs in (
                ("counters", solve.counters, ref.counters),
                ("final f", summary["final_f"], ref.outcome.summary["final_f"]),
                ("trace bytes", solve.trace, ref.trace),
                ("summary bytes", solve.summary, ref.summary)):
            if mine != theirs:
                found.append(f"{what} differ from the first solve")
    return found


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, inst: Instance, solve: Solve, label: str, extra=()) -> None:
        self.attempted += 1
        found = problems_with(inst, solve) + list(extra)
        if found:
            self.failed += 1
            print(f"FAILED {label} solve of seed {inst.seed}: {'; '.join(found)}",
                  file=sys.stderr)
        inst.solves.append(solve)


def percentile_line(times: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n <= 10:
        return f"{n} solves: too few for a percentile with 10 samples beyond it"
    return (f"{n} solves: p{100 * (n - 10) / n:.0f} = {sorted(times)[n - 11]:.4f} s "
            "(10 solves beyond it)")


def mean_of_medians(instances, attr: str) -> float:
    """Median solve time per instance, averaged over the instances."""
    return statistics.fmean(statistics.median(getattr(s, attr) for s in i.solves)
                            for i in instances)


def run_untraced(harness, workload: Workload, instances, seconds, tally, probes):
    gauge = Gauge() if workload.gauged else None
    deadline = time.perf_counter() + seconds
    n = 0
    while True:
        inst = instances[n % len(instances)]
        probes.run_due()
        tally.record(inst, solve_once(harness, inst, gauge), "untraced")
        n += 1
        nxt = instances[n % len(instances)]
        guess = statistics.median(s.seconds for s in (nxt.solves or inst.solves))
        if n >= len(instances) and time.perf_counter() + guess > deadline:
            break
    probes.run_due(finish=True)

    done = [i for i in instances if i.first is not None]
    if not done:
        fail("every solve raised; no metric to report")
    for inst in done:
        ref, summary = inst.first, inst.first.outcome.summary
        gap = "unknown" if inst.f_star is None else f"{summary['final_f'] - inst.f_star:.3e}"
        print(f"instance seed {inst.seed}: grad {ref.total('grad')}, hess "
              f"{ref.total('hess')}, third {ref.total('third')}; status "
              f"{summary['status']}, iters {summary['iters']}, f - f* = {gap}; "
              f"wall s {' '.join(f'{s.seconds:.4f}' for s in inst.solves)}; "
              f"reference-speed s {' '.join(f'{s.ref_seconds:.4f}' for s in inst.solves)}")
    print("wall solve time " + percentile_line([s.seconds for i in instances for s in i.solves]))
    print(f"solve_s is {'reference-speed' if gauge else 'wall'} time; wall "
          f"{mean_of_medians(instances, 'seconds'):.4f} s, reference-speed "
          f"{mean_of_medians(instances, 'ref_seconds'):.4f} s")
    print(f"setup_s is reference-speed time; wall "
          f"{probes.median('import_s', 'make_problem_s'):.4f} s")
    return {
        "solve_s": mean_of_medians(instances, "ref_seconds"),
        "setup_s": probes.median("import_s", "make_problem_s", gauged=True),
        "grad_calls": statistics.fmean(i.first.total("grad") for i in done),
        "hess_calls": statistics.fmean(i.first.total("hess") for i in done),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def wrapper_problems(solve: Solve, metrics: dict, seen: dict) -> list[str]:
    """Traced solves: the wrappers must see exactly the calls the program counted."""
    found = []
    counters = solve.counters
    for (kind, role), calls in seen.items():
        key = f"n_{kind}" if role == "f" else f"n_{kind}_{role}"
        if calls != counters.get(key, 0):
            found.append(f"wrappers saw {calls} {key} calls, the program "
                         f"counted {counters.get(key, 0)}")
    if metrics["natmi.outer_iters"] != len(solve.outcome.records):
        found.append(f"{metrics['natmi.outer_iters']} accepted outer searches, "
                     f"{len(solve.outcome.records)} records")
    return found


def run_traced(harness, inst: Instance, seconds, tally, probes):
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    sliding_method = inst.cfg.method == "sliding"
    deadline = time.perf_counter() + seconds
    untraced, traced, layers = [], [], []
    while True:
        probes.run_due()
        solve = solve_once(harness, inst)
        tally.record(inst, solve, "untraced")
        untraced.append(solve.seconds)
        tracer.install()
        try:
            solve = solve_once(harness, inst)
        finally:
            tracer.uninstall()
        spans = tracer.take_spans()
        traced.append(solve.seconds)
        found = []
        if solve.outcome is not None:
            metrics, seen = layer_metrics(spans, sliding_method)
            layers.append(metrics)
            found = wrapper_problems(solve, metrics, seen)
        tally.record(inst, solve, "traced", found)
        if time.perf_counter() + 2 * statistics.median(untraced + traced) > deadline:
            break
    probes.run_due(finish=True)
    if not layers:
        fail("every traced solve raised; no metric to report")
    merged = {}
    for key in layers[0]:
        values = [m[key] for m in layers]
        # Counts repeat exactly; keep them whole.
        merged[key] = values[0] if len(set(values)) == 1 else statistics.median(values)
    merged["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    merged["cli.import_s"] = probes.median("import_s")
    merged["harness.make_problem_s"] = probes.median("make_problem_s")
    print(f"traced solve {statistics.median(traced):.4f} s over {len(traced)}, untraced "
          f"{statistics.median(untraced):.4f} s over {len(untraced)}")
    for name, num, den in (("natmi.accept_ratio", "natmi.outer_iters", "natmi.lambda_trials"),
                           ("bdgm.inner_per_setup", "bdgm.inner_iters", "bdgm.setups"),
                           ("sliding.middle_accept_ratio", "sliding.middle_iters",
                            "sliding.middle_trials")):
        print(f"{name} = {merged[num]}/{merged[den]} = {merged[name]:.4f}")
    print(f"bdgm.bregman_us_per_step = {merged['bdgm.bregman_self_s']:.4f} s / "
          f"{merged['bdgm.bregman_steps']} steps")
    print(f"oracles.grad_us_per_call = {merged['oracles.grad_s']:.4f} s / "
          f"{inst.first.total('grad')} calls")
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    bench_path = ROOT / "BENCHMARK.json"
    harness = import_program()
    bench = json.loads(bench_path.read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}

    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    print("environment " + json.dumps(environment(), sort_keys=True))

    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        count = 1 if args.trace else workload.instances
        instances = make_instances(harness, workload, seed, count, workdir)
        probes = SetupProbes({**workload.config, "problem.seed": str(seed)},
                             SETUP_RUNS[args.trace], args.seconds)
        if args.trace:
            values = run_traced(harness, instances[0], args.seconds, tally, probes)
        else:
            values = run_untraced(harness, workload, instances, args.seconds, tally,
                                  probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    if set(values) != set(units):
        fail(f"metrics {sorted(set(values) ^ set(units))} disagree with {bench_path.name}")
    print(f"failed_frac = {tally.failed}/{tally.attempted}")
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in sorted(values)}}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
