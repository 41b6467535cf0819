"""extvae benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 bench/run.py --workload desk-fit --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --quick            # every workload, tiny, all checks

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  With --trace 0 the metrics are setup_s, run_s and
peak_rss_mb; with --trace 1 they are the per-layer and per-stage figures of
bench/README.md, taken from one extra traced round.  Each run also writes a
results file under bench/results/.  Exit status: 0 when every command and
check passed, 1 when one failed, 2 when the program cannot be run.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
# one BLAS thread: steady timings on a shared machine, recorded in results
BLAS_THREADS = "1"
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = BLAS_THREADS

SETUP_REPEATS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["desk-fit", "desk-ensemble",
                                          "grid50-pipeline", "fwi-preprocess"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--quick", action="store_true",
                   help="every workload (or the one named) at tiny sizes")
    args = p.parse_args(argv)
    if args.workload is None and not args.quick:
        p.error("--workload is required unless --quick is given")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = 0
    for base, _, files in os.walk(os.path.join(SRC, "extvae")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    src_lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "cpu": cpu, "cpus": os.cpu_count(), "blas_threads": int(BLAS_THREADS),
            "src_lines": src_lines}


STAGE_UNITS = {"simulate_s": "s", "train_timesteps_per_s": "1/s",
               "emulate_samples_per_s": "1/s", "counterfactual_samples_per_s": "1/s",
               "diagnostics_s": "s", "preprocess_sites_per_s": "1/s"}


def measure(wl, run, seconds: float, trace: bool, quick: bool) -> dict:
    """Set up, time whole rounds for ``seconds``, optionally trace one more
    round, then run every check.  Returns the raw figures."""
    from tracing import Tracer

    setups = []
    for _ in range(1 if quick else SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup(run)
        setups.append(time.perf_counter() - t0)

    walls, stages, hashes = [], [], []
    t_begin = time.perf_counter()
    while True:
        run.commands, run.hashes = [], []
        t0 = time.perf_counter()
        stages.append(wl.round(run))
        walls.append(time.perf_counter() - t0)
        hashes.append(run.hashes)
        if time.perf_counter() - t_begin >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    untraced = run.commands

    tracer = None
    if trace:
        tracer = Tracer()
        run.commands, run.hashes, run.tracer = [], [], tracer
        tracer.install()
        try:
            wl.round(run)
        finally:
            tracer.uninstall()
            run.tracer = None
        hashes.append(run.hashes)

    def same_outputs():
        if any(h != hashes[0] for h in hashes[1:]):
            raise AssertionError("output hashes differ between rounds")
        return f"{len(hashes)} rounds with identical outputs"

    run.check("rounds are bit-identical (traced round included)", same_outputs)
    wl.checks(run)
    return {"setups": setups, "walls": walls, "stages": stages,
            "peak_rss_mb": peak_rss_mb, "untraced": untraced, "tracer": tracer}


def run_workload(wl_cls, seed: int, seconds: float, trace: bool, quick: bool,
                 import_s: float) -> tuple[dict, int]:
    from tracing import layer_metrics
    from workloads import CommandFailed, Run

    wl = wl_cls(quick)
    workdir = os.path.join(BENCH_DIR, "_work", f"{wl.name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    run = Run(workdir, seed)
    try:
        m = measure(wl, run, seconds, trace, quick)
        extra = wl.probe(run) if trace else {}
    except CommandFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return {}, 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    end_to_end = {"setup_s": (import_s + statistics.median(m["setups"]), "s"),
                  "run_s": (statistics.median(m["walls"]), "s"),
                  "peak_rss_mb": (m["peak_rss_mb"], "MB")}
    stages = {k: (statistics.median(s[k] for s in m["stages"])
                  if k in m["stages"][0] else 0.0, u)
              for k, u in STAGE_UNITS.items()}
    record = {"workload": wl.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "quick": quick, "environment": environment(),
              "import_s": import_s, "setup_runs_s": m["setups"],
              "round_walls_s": m["walls"], "rounds": m["stages"],
              "checks": run.check_log,
              "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
              "stages": {k: v for k, (v, _) in stages.items()}}
    metrics = end_to_end
    if trace:
        tracer = m["tracer"]
        layers = layer_metrics(tracer, extra)
        metrics = {**stages, **layers}
        record["per_layer"] = {k: v for k, (v, _) in layers.items()}
        record["traced_commands"] = [
            dict(row, untraced_s=wall)
            for row, (_, wall) in zip(tracer.commands(), m["untraced"])]
        record["self_times"] = tracer.self_times()

    out_dir = os.path.join(BENCH_DIR, "results")
    os.makedirs(out_dir, exist_ok=True)
    tag = "quick" if quick else f"seed{seed}"
    with open(os.path.join(out_dir, f"{wl.name}-{tag}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for row in run.check_log:
        if not row["ok"]:
            print(f"check failed: {row['check']}: {row['detail']}", file=sys.stderr)
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {k: {"value": float(v), "unit": u}
                          for k, (v, u) in metrics.items()}}
    return result, 0 if run.failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "extvae", "cli.py")):
        print(f"error: no extvae sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import extvae.cli  # noqa: F401  (interpreter and library import is set-up)
    import workloads

    import_s = time.perf_counter() - T_START
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    status = 0
    for name in names:
        result, rc = run_workload(workloads.WORKLOADS[name], args.seed,
                                  0.0 if args.quick else args.seconds,
                                  bool(args.trace), args.quick, import_s)
        status = max(status, rc)
        if result:
            print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
