"""The SkyServer benchmark's one command.

    python3 benchmarks/e2e/run.py --workload <name|all> [--seed N] [--seconds S]
                                  [--trace [0|1]] [--repeat K] [--out FILE] [--smoke]

One workload is one process: it builds its own server, runs the read
phase, the write burst and the checks, prints every metric by name with
its unit, and ends with one JSON line (``correct``, ``attempted``,
``failed``, ``metrics``).  ``--trace 0`` (the default) prints the
end-to-end metrics; ``--trace 1`` is a separate run that wraps the
layers' entry points in spans and prints the per-layer metrics (the
spans go to ``benchmarks/e2e/out/<workload>.trace.jsonl``).

``--workload all`` and ``--repeat K`` (seeds N .. N+K-1) run each
(workload, seed) in a fresh process of this same command and gather the
results; ``--out FILE`` writes them as one set that ``compare.py`` reads.
"""

from __future__ import annotations

import time

PROCESS_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))

from manifest import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [workload.name for workload in WORKLOADS]
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=11,
                        help="request-stream and statement-order seed (default 11)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="size of the read phase (work is sized by count, "
                             "in proportion to this)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1,
                        help="run seeds seed .. seed+repeat-1")
    parser.add_argument("--out", help="write the gathered results to this JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny data and counts: exercises every code path in seconds")
    return parser.parse_args(argv)


def run_one(args: argparse.Namespace) -> dict:
    """Run one workload in this process and print its metrics."""
    from workloads import OUT_DIR, Run, run_workload
    from harness import instrument

    run = Run(workload=args.workload, seed=args.seed, seconds=args.seconds,
              trace=bool(args.trace), smoke=args.smoke, started=PROCESS_STARTED)
    restore = instrument(run.recorder) if run.trace else None
    try:
        run_workload(run)
    finally:
        if restore is not None:
            restore()
    if run.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        run.recorder.write_jsonl(os.path.join(OUT_DIR, f"{run.workload}.trace.jsonl"))

    definitions = PER_LAYER if run.trace else END_TO_END
    values = run.per_layer if run.trace else run.end_to_end
    print(f"# {run.workload} seed={run.seed} seconds={run.seconds:g} trace={int(run.trace)}"
          f"{' smoke' if run.smoke else ''}; times are reference time, this machine ran at "
          f"{run.meter.speed():.3f} of reference speed")
    for metric in definitions:
        samples = run.samples.get(metric.name)
        note = f"  (n={samples})" if samples else ""
        print(f"{metric.name:<52} {values[metric.name]:>16.6f} {metric.unit}{note}")
    for failure in run.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {metric.name: {"value": values[metric.name], "unit": metric.unit}
                    for metric in definitions},
    }
    print(json.dumps(result))
    return result


def run_many(args: argparse.Namespace) -> int:
    """Each (workload, seed) in a fresh process; gather into one set."""
    names = ([workload.name for workload in WORKLOADS]
             if args.workload == "all" else [args.workload])
    runs = []
    worst = 0
    for seed in range(args.seed, args.seed + args.repeat):
        for name in names:
            command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
            started = time.perf_counter()
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            wall = time.perf_counter() - started
            sys.stdout.write(done.stdout)
            sys.stdout.flush()
            worst = max(worst, done.returncode)
            lines = done.stdout.strip().splitlines()
            if not lines or not lines[-1].startswith("{"):
                continue
            runs.append({"workload": name, "seed": seed, "trace": args.trace,
                         "process_wall_s": wall, **json.loads(lines[-1])})
    if args.out:
        gathered = {
            "meta": {"nproc": os.cpu_count(), "python": platform.python_version(),
                     "machine": platform.machine(), "seconds": args.seconds,
                     "smoke": args.smoke},
            "runs": runs,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(gathered, handle, indent=1)
            handle.write("\n")
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all" or args.repeat > 1 or args.out:
        return run_many(args)
    if argv is None and os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing is seeded per process and moves dict and set
        # behaviour with it; pin it so two runs differ only in --seed.
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  {**os.environ, "PYTHONHASHSEED": "0"})
    return 0 if run_one(args)["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
