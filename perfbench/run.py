"""headsparse benchmark: decode throughput at 8K and 128K, the CLI pipeline
at 32K, and a traced per-layer breakdown.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root.  With `--trace 0` the last line of standard
output is one JSON object holding every end-to-end metric; with `--trace 1`
it holds every per-layer metric instead.  The line before it records the
environment and the notes behind the numbers.  See perfbench/README.md.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import pins  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("decode-8k-exact", "decode-128k-histogram", "cli-32k")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def metric_units(trace: bool) -> dict[str, str]:
    """Unit of every metric that a run with `--trace <trace>` reports, as
    BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def environment(args: argparse.Namespace) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                if k in blas}
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "threads": {name: os.environ.get(name) for name in pins.THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
    }


def run_one(args: argparse.Namespace) -> int:
    # the thread pins must be in place before numpy loads its BLAS
    pins.pin_threads(os.environ)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    import_s = time.perf_counter() - PROCESS_START
    bench = workloads.WORKLOADS[args.workload]
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        outcome, tracer = workloads.run_bench(bench, ROOT, args.seed, args.seconds,
                                              bool(args.trace), import_s, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.json")

    units = metric_units(bool(args.trace))
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in outcome.metrics.items()}
    for name, m in metrics.items():
        print(f"{args.workload:<22s} {name:<36s} {m['value']:>16.6g} {m['unit']}")
    details = {"environment": environment(args),
               "failed_share": outcome.failed / max(outcome.attempted, 1),
               "notes": outcome.notes}
    print(json.dumps(details))
    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in turn, each in a fresh process.  A child gets a
    fixed allowance for set-up and checks plus three times `--seconds`."""
    results = {}
    timeout = 180 + 3 * args.seconds
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        # a session of its own, so a timeout also stops the CLI children
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                                start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            print(f"{name}: no result within {timeout:g} s", file=sys.stderr)
            return 1
        lines = stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "headsparse" / "__init__.py").is_file():
        print(f"error: no headsparse sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
