"""One workload in one fresh process: set-up, timed closed loop, checks.

    python3 perfbench/child.py --workload ghz5 --seed 1 --seconds 20 --trace 0 \
        --spawned-at <CLOCK_MONOTONIC at spawn> --result out.json [--setup-only]

`perfbench/run.py` starts this script; it is not meant to be run by hand.
Set-up time runs from the parent's spawn timestamp (CLOCK_MONOTONIC is shared
by all processes) to the moment the workload's plans are built, so it
includes interpreter start-up and ``import qpassage``.  Nothing here may
import numpy or qpassage before the import is timed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = json.loads((HERE / "reference.json").read_text())


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Outcome:
    """Operations of one iteration: attempted, failed (with reasons), work done."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.incorrect = 0
        self.units = 0

    def passed(self, units: int) -> None:
        self.attempted += 1
        self.units += units

    def failed(self, message: str, incorrect: bool = False) -> None:
        """A failed operation contributes no work; `incorrect` marks a missed check
        (wrong output) as opposed to a run that raised or refused to finish."""
        self.attempted += 1
        self.failures.append(" ".join(str(message).split()))
        self.incorrect += int(incorrect)


def _close(got: float, ref: float, tol: float) -> bool:
    return abs(got - ref) <= tol


def _one_line(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}".splitlines()[0]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class BellCfg:
    """`qpassage run configs/bell.cfg` through the CLI entry point, in-process."""

    min_iterations = 2         # the determinism check compares two iterations
    plans_in_iteration = True  # `qpassage run` parses the config and plans itself

    def __init__(self, seed: int, workdir: Path):
        self.config_path = ROOT / "configs" / "bell.cfg"
        self.out = workdir / "bell-out"
        self.ref = REFERENCE["bell-cfg"]
        self.digests: dict | None = None

    def setup(self):
        from qpassage.config import load_config
        from qpassage.protocols import QubitModel, plan_bell
        self.config = load_config(self.config_path)
        c = self.config
        model = QubitModel(qubits=c.qubits, omega=c.omega_T, j_over_omega=c.j_over_omega)
        self.plan = plan_bell(model, 1.0, c.boundary, c.schedule_overrides or None)
        self.units_per_run = len(self.plan.steps) * c.grid

    def iteration(self, outcome: Outcome) -> None:
        from qpassage import cli
        shutil.rmtree(self.out, ignore_errors=True)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(["run", str(self.config_path), "--out", str(self.out)])
        kappas = list(self.config.kappa_T)
        manifest_path = self.out / "manifest.json"
        if rc != 0 or not manifest_path.exists():
            reason = err.getvalue().strip().splitlines()[-1:] or [f"exit {rc}"]
            for _ in kappas:
                outcome.failed(f"exit {rc}: {reason[0]}")
            return
        manifest = json.loads(manifest_path.read_text())
        manifest.pop("duration_seconds", None)
        runs = {r["index"]: r for r in manifest.get("runs", [])}
        digests = {"manifest": json.dumps(manifest, sort_keys=True)}
        for index, run in runs.items():
            digests[index] = hashlib.sha256((self.out / run["csv"]).read_bytes()).hexdigest()
        if self.digests is None:
            self.digests = digests
        for index, kappa in enumerate(kappas):
            run = runs.get(index)
            if run is None:
                outcome.failed(f"kappa_T={kappa:g}: missing from the manifest")
            elif not run["ok"]:
                outcome.failed(f"kappa_T={kappa:g}: manifest marks the run not ok")
            elif digests[index] != self.digests.get(index):
                outcome.failed(f"kappa_T={kappa:g}: CSV differs from the first iteration",
                               incorrect=True)
            elif digests["manifest"] != self.digests["manifest"]:
                outcome.failed(f"kappa_T={kappa:g}: manifest differs from the first "
                               "iteration (duration_seconds excluded)", incorrect=True)
            else:
                miss = self._check(kappa, run)
                if miss:
                    outcome.failed(f"kappa_T={kappa:g}: {miss}", incorrect=True)
                else:
                    outcome.passed(self.units_per_run)

    def _check(self, kappa: float, run: dict) -> str:
        if kappa == 0.0:
            if run["final_fidelity"] < self.ref["closed_min_fidelity"]:
                return f"closed F = {run['final_fidelity']:.9f} below the bound"
            return ""
        key = f"{kappa:g}"
        refs = self.ref["open"].get(key)
        if refs is None:
            return f"no reference for kappa_T={key}"
        for step, (ref, tol) in refs.items():
            got = run["step_fidelities"].get(step, float("nan"))
            if not _close(got, ref, tol):
                return f"{step} step F = {got:.9f}, reference {ref} +/- {tol}"
        return ""


class Ghz5:
    """`run_protocol` on the 5-qubit GHZ plan, effective mode, no residual."""

    min_iterations = 1
    plans_in_iteration = False

    def __init__(self, seed: int, workdir: Path):
        self.ref = REFERENCE["ghz5"]

    def setup(self):
        from qpassage.protocols import CALIBRATED_OMEGA_T, QubitModel, plan_ghz
        self.model = QubitModel(qubits=5, omega=CALIBRATED_OMEGA_T)
        self.plan = plan_ghz(self.model, 5)
        self.units_per_run = len(self.plan.steps) * self.ref["grid"]

    def iteration(self, outcome: Outcome) -> None:
        from qpassage import protocols
        for kappa in self.ref["kappa_T"]:
            try:
                result = protocols.run_protocol(
                    self.plan, self.model.with_kappa(kappa), mode="effective",
                    noise=kappa > 0, grid_steps=self.ref["grid"], compute_residual=False)
            except Exception as exc:  # counted, never fatal
                outcome.failed(f"kappa_T={kappa:g}: {_one_line(exc)}")
                continue
            if not protocols.diagnostics_ok(result, "effective"):
                outcome.failed(f"kappa_T={kappa:g}: diagnostics out of bounds")
                continue
            fidelity = float(result.auxiliary["fidelity_final"][-1])
            if kappa == 0.0:
                ok = fidelity >= self.ref["closed_min_fidelity"]
            else:
                ok = _close(fidelity, *self.ref["open_fidelity"])
            if ok:
                outcome.passed(self.units_per_run)
            else:
                outcome.failed(f"kappa_T={kappa:g}: F = {fidelity:.12f} misses its "
                               "reference", incorrect=True)


class RotatingGhz3:
    """3-qubit GHZ in rotating-frame mode with residual and the strict J check."""

    min_iterations = 1
    plans_in_iteration = False

    def __init__(self, seed: int, workdir: Path):
        self.ref = REFERENCE["rotating-ghz3"]

    def setup(self):
        from qpassage.protocols import CALIBRATED_OMEGA_T, QubitModel, plan_ghz
        self.model = QubitModel(qubits=3, omega=CALIBRATED_OMEGA_T)
        self.plan = plan_ghz(self.model, 3)
        self.units_per_run = len(self.plan.steps) * self.ref["grid"]

    def iteration(self, outcome: Outcome) -> None:
        from qpassage import protocols
        for kappa in self.ref["kappa_T"]:
            try:
                result = protocols.run_protocol(
                    self.plan, self.model.with_kappa(kappa), mode="rotating-frame",
                    noise=kappa > 0, grid_steps=self.ref["grid"], strict=True,
                    compute_residual=True)
            except Exception as exc:  # the known open-run defect lands here
                outcome.failed(f"kappa_T={kappa:g}: {_one_line(exc)}")
                continue
            if not protocols.diagnostics_ok(result, "rotating-frame"):
                outcome.failed(f"kappa_T={kappa:g}: diagnostics out of bounds")
                continue
            got = [s["target_fidelity"] for s in result.steps]
            if kappa == 0.0:
                refs, tol = self.ref["closed_step_fidelities"]
                ok = len(got) == len(refs) and all(_close(g, r, tol) for g, r in zip(got, refs))
            else:
                # no reference exists for an open rotating-frame run yet
                ok = all(0.0 <= g <= 1.0 for g in got)
            if ok:
                outcome.passed(self.units_per_run)
            else:
                outcome.failed(f"kappa_T={kappa:g}: step fidelities {got} miss their "
                               "references", incorrect=True)


class Verify:
    """`qpassage verify --seed <seed>` with the default sizes, in-process."""

    min_iterations = 1
    plans_in_iteration = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed % 2**32   # numpy's generator takes non-negative seeds

    def setup(self):
        pass   # set-up is the import alone

    def iteration(self, outcome: Outcome) -> None:
        from qpassage import cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["verify", "--seed", str(self.seed)])
        lines = out.getvalue().splitlines()
        suites = [ln for ln in lines if ln.startswith(("pass ", "FAIL "))]
        if not suites:
            outcome.failed(f"exit {rc}: no suite lines; {err.getvalue().strip()[:200]}")
            return
        for line in suites:
            if line.startswith("pass ") and rc == 0:
                outcome.passed(0)
            else:
                outcome.failed(f"exit {rc}: {' '.join(line.split())}",
                               incorrect=line.startswith("FAIL "))
        if not outcome.failures:   # a partly failed verify completes no case
            outcome.units = _verify_sizes(lines) * REFERENCE["verify"]["instances"]


def _verify_sizes(lines) -> int:
    """Number of (M, N) sizes from the report header `... sizes=[(1, 2), ...]`."""
    for line in lines:
        if line.startswith("verification seed=") and "sizes=" in line:
            return line.split("sizes=", 1)[1].count("(")
    return 0


WORKLOADS = {
    "bell-cfg": BellCfg,
    "ghz5": Ghz5,
    "rotating-ghz3": RotatingGhz3,
    "verify": Verify,
}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def timed_loop(workload, seconds: float) -> dict:
    """Closed loop, one caller: iterations back to back until the next one
    would end more than half an iteration past the deadline."""
    iterations = []
    start = time.perf_counter()
    while True:
        outcome = Outcome()
        t0 = time.perf_counter()
        workload.iteration(outcome)
        wall = time.perf_counter() - t0
        iterations.append((outcome, wall))
        if len(iterations) == 1:
            # the peak of one user-visible run; later iterations reuse a heap
            # whose layout, and so whose peak, depends on the iteration count
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - start
        mean = elapsed / len(iterations)
        if len(iterations) >= workload.min_iterations and elapsed + 0.5 * mean > seconds:
            break
    return dict(summarize(iterations), peak_rss_mb=peak_rss_mb)


def summarize(iterations) -> dict:
    """Throughput is the median over iterations of completed units per wall
    second; failed operations contribute no units."""
    attempted = sum(o.attempted for o, _ in iterations)
    failures = [f for o, _ in iterations for f in o.failures]
    return {
        "throughput": statistics.median([o.units / wall for o, wall in iterations]),
        "iterations": len(iterations),
        "iteration_wall_s": [wall for _, wall in iterations],
        "attempted": attempted,
        "failed": len(failures),
        "incorrect": sum(o.incorrect for o, _ in iterations),
        "failures": sorted(set(failures)),
    }


def traced_pass(workload_cls, seed: int, workdir: Path) -> dict:
    """One untraced and one traced pass, each building plans and running one
    iteration, so counts include plan construction and the ratio of the two
    walls is the tracing overhead."""
    import tracer as tracing

    def one_run(work, outcome):
        """What one user-visible run does: plan (unless the iteration plans
        itself, as `qpassage run` does), then one iteration."""
        t0 = time.perf_counter()
        if not work.plans_in_iteration:
            work.setup()
        work.iteration(outcome)
        return time.perf_counter() - t0

    plain = workload_cls(seed, workdir)
    if plain.plans_in_iteration:
        plain.setup()
    untraced = Outcome()
    untraced_wall = one_run(plain, untraced)

    traced = Outcome()
    tr = tracing.Tracer()
    with tr:
        # the same instance: artifacts must match the untraced iteration's
        traced_wall = one_run(plain, traced)
    tr.write(workdir / "spans.csv.gz")

    metrics = tracing.layer_metrics(tr)
    metrics["trace.overhead"] = traced_wall / untraced_wall
    summary = summarize([(untraced, untraced_wall), (traced, traced_wall)])
    summary["layers"] = metrics
    return summary


def environment() -> dict:
    import numpy
    import scipy
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy without mode="dicts"
        pass
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workdir = Path(args.result).parent

    t0 = _now()
    import qpassage
    import_s = _now() - t0
    if not Path(qpassage.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported qpassage from {qpassage.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, workdir)
    workload.setup()
    result = {"setup_s": _now() - args.spawned_at, "import_s": import_s}

    if not args.setup_only:
        if args.trace:
            result.update(traced_pass(WORKLOADS[args.workload], args.seed, workdir))
        else:
            result.update(timed_loop(workload, args.seconds))
        result["environment"] = environment()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
