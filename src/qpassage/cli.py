"""Command-line front end: run protocols, sweep parameters, verify the stack.

    qpassage run bell.cfg [--out DIR] [--grid N]
    qpassage sweep bell.cfg --param kappa_T --values 0.0145,0.0725,0.145
    qpassage verify --seed 1 --max-m 3 --max-n 4

`run` writes one trajectory CSV per kappa_T value plus a manifest.json and
exits 0 only when every run's integration diagnostics stay inside their
bounds (1 on a diagnostic failure, 2 on configuration problems).  `sweep`
repeats a run over one parameter and emits a summary table, with the same
exit codes; fidelity must be non-increasing in kappa_T.  `verify` runs the
randomized oracle suites.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
from pathlib import Path

from . import __version__
from .config import (MIN_GRID, SWEEPABLE, ConfigError, RunConfig, check_grid, finite_float,
                     load_config)
from .io import write_manifest, write_trajectory_csv
from .protocols import (QubitModel, diagnostics_ok, plan_bell, plan_bell_reverse,
                        plan_ghz, run_protocol)
from .verify import run_verification

__all__ = ["main", "cmd_run", "cmd_sweep", "cmd_verify"]


def _build_plan(config: RunConfig):
    model = QubitModel(qubits=config.qubits, omega=config.omega_T,
                       j_over_omega=config.j_over_omega)
    overrides = config.schedule_overrides or None
    if config.protocol == "bell":
        return plan_bell(model, 1.0, config.boundary, overrides)
    if config.protocol == "bell-reverse":
        return plan_bell_reverse(model, 1.0, overrides)
    return plan_ghz(model, config.qubits, 1.0, config.boundary, overrides)


def _execute(config: RunConfig, plan, kappa: float):
    model = QubitModel(qubits=config.qubits, omega=config.omega_T,
                       j_over_omega=config.j_over_omega, kappa=kappa)
    return run_protocol(plan, model, mode=config.mode, noise=kappa > 0,
                        grid_steps=config.grid)


def _run_record(config: RunConfig, index: int, kappa: float, result, csv_name: str) -> dict:
    ok = diagnostics_ok(result, config.mode)
    return {
        "index": index,
        "protocol": config.protocol,
        "mode": config.mode,
        "kappa_T": kappa,
        "final_fidelity": float(result.auxiliary["fidelity_final"][-1]),
        "step_fidelities": {s["name"]: s["target_fidelity"] for s in result.steps},
        "diagnostics": {k: v for k, v in result.diagnostics.items()
                        if isinstance(v, (int, float, str))},
        "csv": csv_name,
        "ok": ok,
    }


def _load(config_path, out: str | None, grid: int | None) -> RunConfig:
    """The config with the command-line overrides, which obey the file's rules."""
    config = load_config(config_path)
    if out is not None:
        config.out = out
    if grid is not None:
        config.grid = check_grid(grid, "--grid")
    return config


def cmd_run(config_path, out: str | None = None, grid: int | None = None) -> int:
    started = time.time()
    try:
        config = _load(config_path, out, grid)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        plan = _build_plan(config)
    except ValueError as exc:  # protocol, synthesis and schedule errors alike
        print(f"error: {config_path}: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(config.out)
    results = []
    for kappa in config.kappa_T:
        try:
            results.append(_execute(config, plan, kappa))
        except Exception as exc:
            print(f"error: run failed at kappa_T={kappa:g}: {exc}", file=sys.stderr)
            return 1

    records = []
    for index, (kappa, result) in enumerate(zip(config.kappa_T, results)):
        csv_name = f"{config.protocol}-{index:02d}.csv"
        write_trajectory_csv(result, out_dir / csv_name, time_scale=config.duration)
        records.append(_run_record(config, index, kappa, result, csv_name))
    write_manifest(out_dir / "manifest.json", config.echo(), records,
                   __version__, time.time() - started)

    for rec in records:
        status = "ok " if rec["ok"] else "BAD"
        print(f"[{status}] kappa_T={rec['kappa_T']:g} final_fidelity={rec['final_fidelity']:.6f} "
              f"-> {rec['csv']}")
    print(f"manifest: {out_dir / 'manifest.json'}")
    return 0 if all(rec["ok"] for rec in records) else 1


def _sweep_value_error(param: str, config: RunConfig, values: list) -> str:
    """Why the sweep cannot run, or '' when it can."""
    if param == "omega_T" and config.mode == "effective":
        return "omega_T does not enter effective mode; sweep it with mode = rotating-frame"
    if param == "kappa_T" and any(v < 0 for v in values):
        return "kappa_T values must be non-negative"
    if param == "omega_T" and any(v <= 0 for v in values):
        return "omega_T values must be positive"
    if param == "grid" and any(v != int(v) or v < MIN_GRID for v in values):
        return f"grid values must be whole numbers of at least {MIN_GRID} steps"
    return ""


def cmd_sweep(config_path, param: str, values_text: str, out: str | None = None,
              grid: int | None = None) -> int:
    try:
        config = _load(config_path, out, grid)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if param not in SWEEPABLE:
        print(f"error: unknown sweep parameter {param!r}; expected one of {SWEEPABLE}",
              file=sys.stderr)
        return 2
    try:
        values = [finite_float(v) for v in values_text.split(",") if v.strip()]
    except ValueError as exc:
        print(f"error: bad --values list {values_text!r}: {exc}", file=sys.stderr)
        return 2
    if not values:
        print("error: empty --values list", file=sys.stderr)
        return 2
    problem = _sweep_value_error(param, config, values)
    if problem:
        print(f"error: {config_path}: {problem}", file=sys.stderr)
        return 2

    rows = []
    for value in values:
        if param == "kappa_T":
            variant = dataclasses.replace(config, kappa_T=(value,))
        elif param == "omega_T":
            variant = dataclasses.replace(config, omega_T=value)
        else:
            variant = dataclasses.replace(config, grid=int(value))
        try:
            plan = _build_plan(variant)
        except ValueError as exc:
            print(f"error: {config_path}: {param}={value:g}: {exc}", file=sys.stderr)
            return 2
        try:
            result = _execute(variant, plan, variant.kappa_T[0])
        except Exception as exc:
            print(f"error: run failed at {param}={value:g}: {exc}", file=sys.stderr)
            return 1
        rows.append((value, float(result.auxiliary["fidelity_final"][-1]),
                     float(result.diagnostics.get("max_residual", 0.0)),
                     diagnostics_ok(result, variant.mode)))

    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    table_path = out_dir / f"sweep-{param}.csv"
    with open(table_path, "w", newline="\n") as fh:
        fh.write(f"{param},final_fidelity,max_residual\n")
        for value, fidelity, residual, _ in rows:
            fh.write(f"{value:.17e},{fidelity:.17e},{residual:.17e}\n")
    for value, fidelity, residual, ok in rows:
        status = "ok " if ok else "BAD"
        print(f"[{status}] {param}={value:g} final_fidelity={fidelity:.6f} "
              f"max_residual={residual:.3e}")
    print(f"table: {table_path}")

    if param == "kappa_T" and len(rows) > 1:
        ordered = sorted(rows, key=lambda r: r[0])
        for (va, fa, _, _), (vb, fb, _, _) in zip(ordered, ordered[1:]):
            if fb > fa + 1e-9:
                print(f"error: fidelity is not monotone in kappa_T "
                      f"({fa:.6f} at {va:g} -> {fb:.6f} at {vb:g})", file=sys.stderr)
                return 1
    return 0 if all(ok for *_, ok in rows) else 1


def cmd_verify(seed: int, max_m: int, max_n: int, instances: int = 3,
               inject_detuning: float = 0.0) -> int:
    if instances < 1:
        print(f"error: --instances must be at least 1, got {instances}", file=sys.stderr)
        return 2
    if seed < 0:
        print(f"error: --seed must be a non-negative integer, got {seed}", file=sys.stderr)
        return 2
    if not math.isfinite(inject_detuning):
        print(f"error: --inject-detuning must be finite, got {inject_detuning}",
              file=sys.stderr)
        return 2
    sizes = [(m, n) for m in range(1, max_m + 1) for n in range(2, max_n + 1)]
    report = run_verification(seed, sizes, instances=instances,
                              inject_detuning=inject_detuning)
    print(report.format())
    if report.passed:
        print("verification passed")
        return 0
    failed = ", ".join(s.name for s in report.suites if not s.passed)
    print(f"verification FAILED: {failed}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qpassage",
        description="nonadiabatic-passage protocols: run, sweep, verify")
    parser.add_argument("--version", action="version", version=f"qpassage {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a protocol config, write CSVs and a manifest")
    p_run.add_argument("config")
    p_run.add_argument("--out", help="output directory (overrides the config)")
    p_run.add_argument("--grid", type=int, help="integration steps per protocol step")

    p_sweep = sub.add_parser("sweep", help="repeat a run over one parameter")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True, help=f"one of {', '.join(SWEEPABLE)}")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out")
    p_sweep.add_argument("--grid", type=int)

    p_verify = sub.add_parser("verify", help="run the randomized oracle suites")
    p_verify.add_argument("--seed", type=int, default=1)
    p_verify.add_argument("--max-m", type=int, default=3,
                          help="largest assistant level count")
    p_verify.add_argument("--max-n", type=int, default=4,
                          help="largest working level count")
    p_verify.add_argument("--instances", type=int, default=3,
                          help="random instances per size")
    p_verify.add_argument("--inject-detuning", type=float, default=0.0,
                          help="offset the synthesized detuning to demonstrate "
                               "that the residual suite catches it")

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.out, args.grid)
    if args.command == "sweep":
        return cmd_sweep(args.config, args.param, args.values, args.out, args.grid)
    return cmd_verify(args.seed, args.max_m, args.max_n, args.instances,
                      args.inject_detuning)


if __name__ == "__main__":
    sys.exit(main())
