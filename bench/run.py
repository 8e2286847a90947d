"""The alexnorm benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S]
    python3 bench/run.py --write-config

One run is one fresh single-threaded process on one workload.  It measures
set-up time on fresh child processes, sets up once itself, then runs whole
rounds of the same operations until the next round would pass ``--seconds``
(at least one round), and checks every output against ``oracles``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and the metrics (end-to-end with ``--trace 0``, per-layer with
``--trace 1``).  Run records and traces go to ``.bench_runs/`` at the
repository root.

``--all`` runs every workload, untraced and traced, each in its own process,
and prints every metric by name with its unit.  ``--write-config`` writes
BENCHMARK.json from the description below.
"""

from __future__ import annotations

import os

# one thread for numpy/scipy, set before anything imports them
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORDS = ROOT / ".bench_runs"
SETUP_PROBES = 5

CONFIG = {
    "command": ["python3", "bench/run.py"],
    "paths": ["bench"],
    "run_seconds": 30,
    "workloads": [
        {"name": "canonical",
         "why": "the user-facing manifest run; c10's half-plane harness (evaluation "
                "and grid-extremum refinement) is about 85% of it"},
        {"name": "gap_engines",
         "why": "norms and gaps on tables, Chebyshev panels and closed forms: extremum "
                "search and Primitive.eval do the work; no Poisson code runs"},
        {"name": "poisson_points",
         "why": "one-shot half-plane and disc evaluations, one operator per point, so "
                "construction dominates; no grid_extrema runs"},
    ],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.05},
    ],
}


def config() -> dict:
    from tracer import PER_LAYER
    return {**CONFIG, "per_layer": [
        {"name": name, "unit": unit,
         "better": "higher" if name.endswith(("panel_yield", "useful_ratio")) else "lower"}
        for name, unit in PER_LAYER]}


def import_library():
    """Import alexnorm from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "alexnorm" / "__init__.py").is_file():
        raise SystemExit(f"error: no alexnorm package under {src}")
    sys.path.insert(0, str(src))
    import alexnorm
    if Path(alexnorm.__file__).resolve().parent != (src / "alexnorm").resolve():
        raise SystemExit(f"error: imported alexnorm from {alexnorm.__file__}")
    return alexnorm


def set_up(workload: str, seed: int):
    import workloads
    import_library()
    wl = workloads.WORKLOADS[workload]()
    wl.setup(ROOT, seed)
    return wl


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process to the end of its set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != b"ready":
        raise SystemExit(f"error: set-up probe for {workload} exited with {code}")
    return elapsed


def run_rounds(wl, seconds: float, tracer=None, alexnorm=None, min_rounds=1):
    """Whole rounds until the next one would end after `seconds`.

    With a tracer, untraced and traced rounds alternate (at least one of
    each); the tracer is installed for traced rounds only."""
    rounds = []
    t_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install(alexnorm)
            tracer.enabled = True
        try:
            times, ops = wl.round(tracer if traced else None)
        finally:
            if traced:
                tracer.enabled = False
                tracer.keep_spans = False
                tracer.uninstall()
        rounds.append((traced, times, ops))
        elapsed = time.perf_counter() - t_start
        per_round = elapsed / len(rounds)
        if len(rounds) >= min_rounds and elapsed + per_round > seconds:
            return rounds


def wall_s(rounds) -> float:
    """Sum over the timed parts of a round (operations, or the whole manifest
    run) of each part's median over the rounds.  Taking the median per part
    rather than per round sum keeps a slow stretch of a shared machine, which
    hits some operations of a round, out of the figure."""
    return sum(statistics.median(part) for part in zip(*rounds))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_s = statistics.median(probe_setup(workload, seed) for _ in range(SETUP_PROBES))
    tracer = None
    alexnorm = import_library()
    if trace:
        # the set-up is traced too, for the registry builds
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install(alexnorm)
        tracer.enabled = True
    try:
        wl = set_up(workload, seed)
    finally:
        if trace:
            tracer.enabled = False
            tracer.uninstall()
            tracer.reset(keep="registry.")
    rounds = run_rounds(wl, seconds, tracer, alexnorm,
                        min_rounds=2 if trace else 1)
    ops = [op for _, _, round_ops in rounds for op in round_ops]
    failed = [op for op in ops if not op.ok]
    correct = all(op.known_fault for op in failed)
    plain = wall_s([times for traced, times, _ in rounds if not traced])
    if not trace:
        metrics = {
            "wall_s": (plain, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    else:
        traced = [times for t, times, _ in rounds if t]
        metrics = tracer.metrics(len(traced))
        metrics["trace.untraced_round_s"] = (plain, "s")
        metrics["trace.traced_round_s"] = (wall_s(traced), "s")
        metrics["trace.overhead_ratio"] = (wall_s(traced) / plain - 1.0, "ratio")
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rounds": [{"traced": t, "times_s": times} for t, times, _ in rounds],
        "failed_ops": sorted({f"{op.name}: {op.detail}" for op in failed}),
        "result": {"correct": correct, "attempted": len(ops), "failed": len(failed),
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
    }
    RECORDS.mkdir(exist_ok=True)
    stem = RECORDS / f"{workload}-seed{seed}-trace{int(trace)}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        tracer.save(stem.with_suffix(".npz"))
    return record


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    import workloads
    code = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                code = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:48s} {m['value']:.6g} {m['unit']}")
            code |= 0 if result["correct"] else 1
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=CONFIG["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--write-config", action="store_true", help="write BENCHMARK.json")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.write_config:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(config(), indent=2) + "\n")
        return 0
    if args.all:
        return run_all(args.seed, args.seconds)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.setup_probe:
        set_up(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for metric, m in record["result"]["metrics"].items():
        print(f"{metric} = {m['value']:.6g} {m['unit']}")
    for line in record["failed_ops"]:
        print(f"FAILED {line.splitlines()[0]}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
