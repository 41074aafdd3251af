"""Seeded benchmark for polyrep: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the polyrep under test is always the
checkout's own src/.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones (BENCHMARK.json "end_to_end"); with
--trace 1 they are the per-layer ones, from a traced run that also
repeats the untraced passes to measure the tracing overhead.  Lines
before it are a readable report.  Scratch files, the span table and a
full result go to .perfbench/ at the checkout root.

Before numpy is imported this launcher pins BLAS/OpenMP to one thread
and puts the checkout's src/ first on PYTHONPATH, for this process and
for every process it starts.
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
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NAMES = ("cli-cold", "certify", "pipeline", "simulate")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
SETUP_SAMPLES = 3  # this process plus two fresh ones


def pin_environment() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    rest = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p and p != str(SRC)]
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), *rest])
    sys.path.insert(0, str(SRC))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def provenance() -> dict:
    from importlib import metadata

    import polyrep

    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            loose = ROOT / ".git" / ref[5:]
            packed = ROOT / ".git" / "packed-refs"
            if loose.is_file():
                commit = loose.read_text().strip()
            elif packed.is_file():
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + ref[5:]):
                        commit = line.split()[0]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": commit,
        "polyrep": str(Path(polyrep.__file__).parent),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def run_passes(wl, budget_s: float, traced: bool, spans=None):
    """Whole passes over the operation list until the next would overrun the budget."""
    import speed

    start = time.perf_counter()
    passes, infos, op_id = [], {}, 0
    track = speed.SpeedTrack(sample_inside=wl.in_process)
    while True:
        pass_start = time.perf_counter()
        results = []
        for op in wl.ops:
            if spans is not None:
                spans.current_op = op_id
            results.append(wl.run(op, op_id, traced, track.timed))
            infos[op_id] = op.info()
            op_id += 1
        if spans is not None:
            spans.current_op = -1
        passes.append(results)
        now = time.perf_counter()
        if now - start + (now - pass_start) > budget_s:
            break
    for res in (r for p in passes for r in p):
        res.latency_s = res.raw_s * track.factor(res.block)
    return passes, infos


def pass_wall(passes) -> float:
    """One pass over the operation list, each operation at its median
    latency over the passes (robust to a slow spell during one pass)."""
    return sum(statistics.median(p[i].latency_s for p in passes) for i in range(len(passes[0])))


def setup_samples(args, first: float) -> list[float]:
    samples = [first]
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1", "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        res = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
        samples.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "polyrep" / "__init__.py").is_file():
        print(f"error: no polyrep sources under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    workdir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)

    # Set-up: imports (numpy, polyrep.cli), the seeded corpus, warm-up.
    t0 = time.perf_counter()
    import polyrep.cli  # noqa: F401  (timed: part of set-up)

    if Path(sys.modules["polyrep"].__file__).resolve().parent != (SRC / "polyrep").resolve():
        print(f"error: imported polyrep from {sys.modules['polyrep'].__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    workloads.warm_up(workdir)
    setup_raw = time.perf_counter() - t0
    import speed

    setup_s = setup_raw * speed.factor_now()
    if args.setup_only:
        shutil.rmtree(workdir)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    budget = args.seconds if args.trace == 0 else args.seconds / 2
    measure_start = time.perf_counter()
    passes, _ = run_passes(wl, budget, traced=False)
    if wl.name == "cli-cold":
        peak_rss = max(r.peak_rss_mb for p in passes for r in p)
    else:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    walls = [sum(r.latency_s for r in p) for p in passes]

    traced_passes = []
    if args.trace:
        import layers
        import numpy as np
        import tracer

        spans = tracer.Tracer()
        tracer.install(spans)
        workloads.warm_up(workdir / "traced")
        remaining = args.seconds - (time.perf_counter() - measure_start)
        traced_passes, infos = run_passes(wl, remaining, traced=True, spans=spans)
        parts = [spans.arrays()]
        parts += [dict(np.load(f)) for f in sorted((workdir / "spans").glob("*.npz"))]
        merged = tracer.merge(parts)
        np.savez_compressed(workdir / "spans.npz", **merged)
        per_layer = layers.span_metrics(merged, infos, len(traced_passes))
        per_layer["trace.overhead_frac"] = pass_wall(traced_passes) / pass_wall(passes) - 1.0
        per_layer.update(layers.import_breakdown(sys.executable, dict(os.environ), ROOT))
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit in layers.PER_LAYER}
        setups = [setup_s]
    else:
        setups = setup_samples(args, setup_s)
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": pass_wall(passes),
            "op_p50_ms": 1e3 * statistics.median(r.latency_s for p in passes for r in p),
            "peak_rss_mb": peak_rss,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    results = [r for p in passes + traced_passes for r in p]
    failures = [r.failure for r in results if r.failure]
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "setup_samples_s": setups,
        "untraced_pass_walls_s": walls,
        "traced_pass_walls_s": [sum(r.latency_s for r in p) for p in traced_passes],
        "ops_per_pass": len(wl.ops),
        "setup_raw_s": setup_raw,
        "op_latencies_s": [r.latency_s for p in passes for r in p],
        "op_raw_latencies_s": [r.raw_s for p in passes for r in p],
        "extra": extra_metrics(wl, passes),
        "failures": failures,
        "metrics": metrics,
    }
    (workdir / "result.json").write_text(json.dumps(report, indent=2))
    print_report(report)
    print(json.dumps({
        "correct": not any(r.wrong for r in results),
        "attempted": len(results),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def extra_metrics(wl, passes) -> dict:
    """Figures reported but not gated: each is 0 or undefined on some workload."""
    results = [r for p in passes for r in p]
    latencies = sorted(r.latency_s for r in results)
    out = {
        "fail_frac": sum(1 for r in results if r.failure) / len(results),
        "op_samples": len(latencies),
    }
    if len(latencies) >= 100:
        out["op_p90_ms"] = 1e3 * statistics.quantiles(latencies, n=10)[-1]
    certs = [r.certified for r in results if r.certified is not None]
    if certs:
        out["certified_frac"] = sum(certs) / len(certs)
    if wl.name == "simulate":
        out["start_steps_per_s"] = wl.start_steps() / pass_wall(passes)
    return out


def print_report(report: dict) -> None:
    prov = report["provenance"]
    print(f"perfbench {report['workload']} seed={report['seed']} seconds={report['seconds']} trace={report['trace']}")
    print("provenance: " + " ".join(f"{k}={v}" for k, v in prov.items() if k != "threads")
          + " threads=" + ",".join(f"{k}={v}" for k, v in prov["threads"].items()))
    walls = report["untraced_pass_walls_s"]
    print(f"passes: {len(walls)} untraced, {len(report['traced_pass_walls_s'])} traced;"
          f" {report['ops_per_pass']} operations per pass")
    for name, value in report["extra"].items():
        print(f"{name}: {value:.6g}")
    for name, m in report["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    for failure in dict.fromkeys(report["failures"]):
        print(f"failed ({report['failures'].count(failure)}x): {failure}")


if __name__ == "__main__":
    sys.exit(main())
