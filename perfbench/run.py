"""framecert benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One process, one operation at a time, BLAS pinned to one thread.

The workload's fixed batch runs again and again until ``--seconds`` would be
exceeded (at least once), moving from core to core.  Each operation is
timed by its fastest repetition in the run; ``wall_s`` is the batch's time
as the sum of those, and ``op_p50_s`` and ``op_tail_s`` are taken over
them.  ``setup_s`` is the median of several set-ups, each in a fresh
interpreter.  Each operation's outputs are checked by the benchmark's own
code after the batch.  With ``--trace 0`` the last line of stdout is the
end-to-end result; with ``--trace 1`` untraced and traced batches alternate
and the last line carries the per-layer metrics.  The line before it is a
JSON report with the environment, the verdicts seen, ``fail_frac`` and
``undecided_frac``.

The run exits with code 2, printing no result, when ``src/framecert`` is
missing.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere; child processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gzip
import itertools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracer as tr

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACES = HERE / "traces"

# Set-up is repeated this many times, each in a fresh interpreter.
SETUP_REPS = 5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
                    "peak_rss_mb": "MB"}

# Per-layer metric -> (key in the traced metrics, unit).
PER_LAYER = {
    **{name: (name, "s") for name in (
        "certify.estimate_a0.self_s", "lapack.eigh.busy_s", "certify.certify_complex.self_s",
        "core.RealifiedFrame.from_frame.self_s", "stability.perturb_frame.self_s",
        "stability.stability_experiment.self_s", "certify.injectivity_sampling_oracle.self_s",
        "scipy.minimize.busy_s", "stability.l_matrix_gap_audit.self_s",
        "certify.complement_property.self_s", "core.rank_by_svd.self_s", "lapack.svd.busy_s",
        "cli.import_framecert_self_s", "cli.main.self_s", "frameio.load_frame.self_s",
        "frameio.frame_to_dict.self_s", "constructions.bodmann_hammen.self_s",
        "constructions.random_frame.self_s", "core.frame_bounds.self_s",
        "trace.wall_s", "trace.self_sum_s", "trace.overhead_s")},
    **{name: (name, "count") for name in (
        "certify.estimate_a0.calls", "certify.estimate_a0.iterations",
        "certify.estimate_a0.hit_max_iter", "certify.estimate_a0.block_solves",
        "lapack.eigh.calls", "lapack.eigvalsh.calls",
        "certify.magnitude_separation_check.calls", "certify.magnitude_separation_check.violations",
        "core.r_matrix.calls", "certify.injectivity_sampling_oracle.found",
        "scipy.minimize.calls", "scipy.minimize.nit", "core.rank_by_svd.calls",
        "lapack.svd.calls")},
    "cli.process_s": ("cli.process.busy_s", "s"),
    "cli.import_s": ("cli.import.busy_s", "s"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help="time one set-up in this process, print it and exit")
    return p.parse_args(argv)


def workdir_for(args) -> Path:
    return HERE / ".work" / f"{args.workload}-{os.getpid()}"


def probe_setup(args) -> float:
    """Import, build the inputs and warm up, timed inside this process."""
    t0 = perf_counter()
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir_for(args))
    try:
        wl.warm_up()
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)
    return perf_counter() - t0


def setup_seconds(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    out = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


@dataclass
class Round:
    """One batch: its wall time, per-operation durations and check results;
    for a traced batch also its layer metrics and, for the first, its spans."""

    wall: float
    durations: list
    results: list
    traced: bool
    layers: dict | None = None
    spans: list | None = None


def run_round(wl, traced: bool, keep_spans: bool) -> Round:
    from workloads import FAILED, OpClock

    tracer = tr.Tracer() if traced else None
    undo = tr.install(tracer) if traced else []
    clock = OpClock(tracer)
    try:
        t0 = perf_counter()
        pending = wl.run_batch(clock, tracer)
        t1 = perf_counter()
    finally:
        tr.uninstall(undo)
    results = [check() for check in pending]
    results += [(FAILED, "missing", "operation left no result")] * (len(clock.labels) - len(results))
    r = Round(t1 - t0, clock.durations(t1), results, traced)
    if traced:
        r.layers = {**tr.layer_metrics(tracer.spans), **tracer.counts,
                    "trace.wall_s": r.wall, "trace.self_sum_s": sum(tr.self_times(tracer.spans))}
        r.spans = tracer.spans if keep_spans else None
    return r


def measure(wl, seconds: float, trace: bool) -> list[Round]:
    """Repeat the batch while another cycle still fits in ``seconds``; with
    tracing a cycle is one untraced and one traced batch.  Cycle k runs
    pinned to usable core k mod the number of them: the cores of a shared
    host slow down independently of each other, and a run left on one core
    can spend all its time on a slowed one."""
    kinds = (False, True) if trace else (False,)
    cores = sorted(os.sched_getaffinity(0))
    start = perf_counter()
    rounds: list[Round] = []
    try:
        for cycle in itertools.count():
            os.sched_setaffinity(0, {cores[cycle % len(cores)]})
            t = perf_counter()
            rounds += [run_round(wl, traced, keep_spans=cycle == 0) for traced in kinds]
            now = perf_counter()
            if now - start + (now - t) > seconds:
                return rounds
    finally:
        os.sched_setaffinity(0, cores)


def layer_values(args, rounds: list[Round]) -> dict[str, float]:
    """Per-layer metrics: the median over traced batches of each batch's
    totals, plus what one traced input construction adds."""
    import workloads

    setup_tracer = tr.Tracer()
    undo = tr.install(setup_tracer)
    try:
        workloads.WORKLOADS[args.workload](args.seed, workdir_for(args) / "traced-setup")
    finally:
        tr.uninstall(undo)
    setup = tr.layer_metrics(setup_tracer.spans)

    traced = [r for r in rounds if r.traced]
    untraced_wall = statistics.median(r.wall for r in rounds if not r.traced)
    out = {}
    for name, (key, _unit) in PER_LAYER.items():
        out[name] = (statistics.median(r.layers.get(key, 0) for r in traced)
                     + (setup.get(key, 0) if not key.startswith("trace.") else 0))
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall
    save_spans(args, traced[0].spans)
    return out


def save_spans(args, spans) -> None:
    """Write the spans of the first traced batch, replacing the last run's."""
    TRACES.mkdir(exist_ok=True)
    with gzip.open(TRACES / f"{args.workload}.json.gz", "wt", compresslevel=1, encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "fields": ["name", "start", "end", "parent", "op", "note"], "spans": spans}, fh)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "framecert" / "__init__.py").is_file():
        print(f"run.py: no framecert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        print(probe_setup(args))
        return 0
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    setup = setup_seconds(args)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir_for(args))
    try:
        wl.warm_up()
        rounds = measure(wl, args.seconds, bool(args.trace))
        layers = layer_values(args, rounds) if args.trace else None
    finally:
        shutil.rmtree(workdir_for(args), ignore_errors=True)

    untraced = [r for r in rounds if not r.traced]
    # Every batch repeats the same operations on the same inputs, so each
    # operation is timed by its fastest repetition: other tenants of a shared
    # machine slow a core by up to 1.7x for seconds to minutes, and only add
    # time.  Batches alternate between cores (see measure), and operations
    # are short, so each one gets repetitions on a core running at speed.
    durations = [min(times) for times in zip(*(r.durations for r in untraced))]
    tail_pct, tail_value = tr.tail_percentile(durations)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    end_to_end = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(durations),
        "op_p50_s": statistics.median(durations),
        "op_tail_s": tail_value,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    results = [res for r in rounds for res in r.results]
    attempted = len(results)
    failed = sum(1 for status, _, _ in results if status == workloads.FAILED)
    undecided = sum(1 for status, _, _ in results if status == workloads.UNDECIDED)
    report = {
        "workload": args.workload, "why": wl.why, "seed": args.seed, "trace": args.trace,
        "environment": environment(),
        "batches": {"untraced": len(untraced), "traced": len(rounds) - len(untraced)},
        "operations_per_batch": len(durations), "op_tail_percentile": tail_pct,
        "setup_samples_s": setup,
        "fail_frac": {"value": failed / attempted, "unit": "1"},
        "undecided_frac": {"value": undecided / attempted, "unit": "1"},
        "verdicts": sorted({tag for _, tag, _ in results}),
        "failures": [f"{tag}: {detail}" for status, tag, detail in results
                     if status == workloads.FAILED][:10],
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()},
    }
    if layers is not None:
        metrics = {k: {"value": layers[k], "unit": PER_LAYER[k][1]} for k in PER_LAYER}
    else:
        metrics = report["end_to_end"]
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
