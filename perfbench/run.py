"""Benchmark qpassage end to end (tracing off) or per layer (tracing on).

    python3 perfbench/run.py --workload bell-cfg --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from a checkout; it measures the checkout's own
``src/qpassage``.  Each invocation starts fresh processes: a few set-up probes
(spawn -> ``import qpassage`` -> plans built) and one workload process that
runs the closed loop.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
repeat every metric with its unit, the failures and the environment.
Work files go to ``.perfbench_work/`` in the checkout and are removed, except
the last span file of each traced workload under ``.perfbench_work/traces/``.
See perfbench/NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bell-cfg", "ghz5", "rotating-ghz3", "verify")
SETUP_PROBES = 4          # plus the workload process itself: 5 set-up samples
DEADLINE_S = 170.0        # the whole invocation must end within 180 s
SWITCH_S = 0.2            # how long the child stays on one core
BLAS_THREADS = "1"        # see NOTES.md: more OpenBLAS threads only add noise
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())   # metric names and units


class BenchError(RuntimeError):
    pass


def _child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    # users import from cached bytecode; the first probe in a checkout writes it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update({
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "OMP_NUM_THREADS": BLAS_THREADS,
        "MKL_NUM_THREADS": BLAS_THREADS,
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": str(ROOT / "src"),
        "TMPDIR": str(workdir),
    })
    return env


def _move(pid: int, core: int) -> None:
    try:
        os.sched_setaffinity(pid, {core})
    except OSError:   # the process has just ended, or affinity is not ours to set
        pass


def _spawn(args, workdir: Path, tag: str, extra: list, timeout: float) -> dict:
    """Run one child and return its result record.

    While it runs, the child is moved to the next allowed core every
    SWITCH_S seconds.  Interference from other tenants differs per core and is
    uncorrelated between cores, so alternating halves the run-to-run spread of
    a fixed computation (12% -> 6.5% in a 2-core guest, see NOTES.md).
    """
    result = workdir / f"{tag}.json"
    log = workdir / f"{tag}.log"
    cores = sorted(os.sched_getaffinity(0))
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", str(result), *extra]
    deadline = time.monotonic() + max(timeout, 1.0)
    with open(log, "w") as fh:
        spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                                env=_child_env(workdir), stdout=fh, stderr=subprocess.STDOUT)
        try:
            turn = 0
            while True:
                try:
                    proc.wait(timeout=SWITCH_S)
                    break
                except subprocess.TimeoutExpired:
                    if time.monotonic() > deadline:
                        raise BenchError(f"{args.workload}: {tag} process exceeded "
                                         f"{timeout:.0f} s") from None
                    turn += 1
                    if len(cores) > 1:
                        _move(proc.pid, cores[turn % len(cores)])
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if proc.returncode != 0 or not result.exists():
        tail = (log.read_text().strip().splitlines() or ["no output"])[-1]
        raise BenchError(f"{args.workload}: {tag} process exited {proc.returncode}: {tail}")
    return json.loads(result.read_text())


def measure(args) -> dict:
    """Run the probes and the workload process; return the result record."""
    started = time.monotonic()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        probes = [_spawn(args, workdir, f"setup-{i}", ["--setup-only"], 60.0)
                  for i in range(SETUP_PROBES)]
        main = _spawn(args, workdir, "workload", [],
                      DEADLINE_S - (time.monotonic() - started))
        spans = workdir / "spans.csv.gz"
        if spans.exists():
            keep = ROOT / ".perfbench_work" / "traces"
            keep.mkdir(exist_ok=True)
            shutil.move(spans, keep / f"{args.workload}-seed{args.seed}.csv.gz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = probes + [main]
    if args.trace:
        values = dict(main["layers"])
        values["setup.import_s"] = statistics.median(s["import_s"] for s in samples)
        values["failed_frac"] = main["failed"] / max(main["attempted"], 1)
        listed = BENCHMARK["per_layer"]
    else:
        values = {
            "throughput": main["throughput"],
            "setup_s": statistics.median(s["setup_s"] for s in samples),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        listed = BENCHMARK["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise BenchError(f"{args.workload}: no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    return {"main": main, "metrics": metrics}


def _git_revision() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def report(args, record: dict) -> str:
    main = record["main"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"iterations={main['iterations']} "
          f"iteration_wall_s={[round(w, 3) for w in main['iteration_wall_s']]}")
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  attempted={main['attempted']} failed={main['failed']} "
          f"incorrect={main['incorrect']}")
    for message in main["failures"]:
        print(f"  failure: {message}")
    env = dict(main["environment"], git=_git_revision())
    print(f"  environment: {json.dumps(env, sort_keys=True)}")
    return json.dumps({
        "correct": main["incorrect"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": record["metrics"],
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/qpassage/__init__.py", "configs/bell.cfg")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} is not a qpassage checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        try:
            line = report(one, measure(one))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 1
            continue
        print(line, flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
