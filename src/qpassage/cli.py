"""Command-line front end: run protocols, sweep parameters, verify the stack.

    qpassage run bell.cfg [--out DIR] [--grid N]
    qpassage sweep bell.cfg --param kappa_T --values 0.0145,0.0725,0.145
    qpassage verify --seed 1 --max-m 3 --max-n 4

`run` integrates every kappa_T value of the config together, writes one
trajectory CSV per value plus a manifest.json (and the wall-clock duration in
timings.json), and exits 0 only when every run's integration diagnostics stay
inside their bounds (1 on a diagnostic failure, 2 on configuration problems,
an unwritable output directory or artifact and a plan or grid too large to
allocate included).  `sweep` repeats a run over one parameter, planned once,
and emits a summary table, with the same exit codes; fidelity must be
non-increasing in kappa_T.  `verify` runs the randomized oracle suites.  Every refusal is
raised, and `main` alone prints its one `error:` line and picks the exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import os
import sys
import time
from pathlib import Path

from . import __version__
from .config import SWEEPABLE, ConfigError, RunConfig, finite_float, load_config
from .io import write_csv, write_manifest, write_timings, write_trajectory_csv
from .protocols import (ProtocolError, QubitModel, check_strong_coupling, diagnostics_ok,
                        plan_bell, plan_bell_reverse, plan_ghz, run_protocol_kappas)
from .verify import run_verification

__all__ = ["main"]


class _Refusal(Exception):
    """One `error:` line and its exit code: 1 for a failed run, else 2."""

    def __init__(self, line: str, code: int = 2):
        super().__init__(line)
        self.code = code


@contextlib.contextmanager
def _writing():
    """Refuse an artifact that cannot be written, naming its file."""
    try:
        yield
    except OSError as exc:
        raise _Refusal(f"cannot write {exc.filename!r}: {exc.strerror or exc}") from None


def _model(config: RunConfig) -> QubitModel:
    return QubitModel(qubits=config.qubits, omega=config.omega_T,
                      j_over_omega=config.j_over_omega)


def _prepare(config_path, config: RunConfig, variants=()):
    """The config's plan, then its output directory, created if needed, so a
    refused plan leaves no directory.  No sweepable value enters the plan, so
    no refusal names one; a plan too large to allocate names its `qubits`,
    as a grid too fine to allocate names its `grid`.  The plan's
    strong-coupling rule is checked here too, before anything is
    integrated, on the config of each (config, value) pair of a sweep's
    `variants`, or on `config` itself; its refusal names J."""
    overrides = config.schedule_overrides or None
    try:
        model = _model(config)
        if config.protocol == "bell":
            plan = plan_bell(model, 1.0, config.boundary, overrides)
        elif config.protocol == "bell-reverse":
            plan = plan_bell_reverse(model, 1.0, overrides)
        else:
            plan = plan_ghz(model, config.qubits, 1.0, config.boundary, overrides)
    except ValueError as exc:
        raise _Refusal(f"{config_path}: {exc}") from None
    except MemoryError as exc:  # a plan too large to allocate
        raise _Refusal(f"{config_path}: qubits={config.qubits}: {exc}") from None
    declared = set().union(*(step.schedules.table for step in plan.steps))
    for symbol in config.schedule_overrides:
        if symbol not in declared:
            raise _Refusal(f"{config_path}: schedule override {symbol!r} matches no step of "
                           f"the {config.protocol} plan")
    for variant, _ in variants or [(config, None)]:
        try:
            check_strong_coupling(plan, _model(variant), variant.mode)
        except ProtocolError as exc:
            raise _Refusal(f"{config_path}: {exc}") from None

    out_dir = Path(config.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        problem = "" if os.access(out_dir, os.W_OK | os.X_OK) else "permission denied"
    except OSError as exc:
        problem = exc.strerror or str(exc)
    if problem:
        raise _Refusal(f"cannot write to output directory {str(out_dir)!r}: {problem}")
    return plan, out_dir


def _integrate(config_path, config: RunConfig, plan, param="kappa_T", value=None) -> list:
    """One result per kappa_T value, integrated together; only the first when
    `value`, a sweep's value of `param`, is given.  A failure names the
    kappa_T it carries, or `value`.  The strong-coupling rule is not checked
    again: `_prepare` checked it on this config."""
    kappas = config.kappa_T if value is None else config.kappa_T[:1]
    try:
        return run_protocol_kappas(plan, _model(config), kappas, mode=config.mode,
                                   grid_steps=config.grid, strict=False)
    except MemoryError as exc:  # a grid too fine to allocate
        raise _Refusal(f"{config_path}: grid={config.grid}: {exc}") from None
    except Exception as exc:
        failed = getattr(exc, "kappa", kappas[0]) if value is None else value
        raise _Refusal(f"run failed at {param}={failed:g}: {exc}", 1) from None


def _final_fidelity(result) -> float:
    """The run's final fidelity as its last step record holds it: the final
    target is the last step's, so this is the trajectory CSV's last F."""
    return result.steps[-1]["target_fidelity"]


def _run_record(config: RunConfig, index: int, kappa: float, result, csv_name: str) -> dict:
    ok = diagnostics_ok(result, config.mode)
    return {
        "index": index,
        "protocol": config.protocol,
        "mode": config.mode,
        "kappa_T": kappa,
        "final_fidelity": _final_fidelity(result),
        "step_fidelities": {s["name"]: s["target_fidelity"] for s in result.steps},
        "diagnostics": {k: v for k, v in result.diagnostics.items()
                        if isinstance(v, (int, float, str))},
        "csv": csv_name,
        "ok": ok,
    }


def _replace(config: RunConfig, anchor: str, **changes) -> RunConfig:
    """`config` with `changes`, which obey the file's rules; a refusal is
    anchored at `anchor`."""
    try:
        return dataclasses.replace(config, **changes)
    except ConfigError as exc:
        raise exc.at(anchor) from None


def _load(config_path, out: str | None, grid: int | None) -> RunConfig:
    """The config with the command-line overrides; only the grid has a rule."""
    flags = {name: value for name, value in (("out", out), ("grid", grid)) if value is not None}
    return _replace(load_config(config_path), "--grid", **flags)


def _run(config_path, out: str | None, grid: int | None) -> int:
    started = time.time()
    config = _load(config_path, out, grid)
    plan, out_dir = _prepare(config_path, config)
    results = _integrate(config_path, config, plan)

    records = []
    with _writing():
        for index, (kappa, result) in enumerate(zip(config.kappa_T, results)):
            csv_name = f"{config.protocol}-{index:02d}.csv"
            write_trajectory_csv(result, out_dir / csv_name, time_scale=config.duration)
            records.append(_run_record(config, index, kappa, result, csv_name))
        write_manifest(out_dir / "manifest.json", config.echo(), records, __version__)
        write_timings(out_dir / "timings.json", time.time() - started)

    for rec in records:
        status = "ok " if rec["ok"] else "BAD"
        print(f"[{status}] kappa_T={rec['kappa_T']:g} final_fidelity={rec['final_fidelity']:.6f} "
              f"-> {rec['csv']}")
    print(f"manifest: {out_dir / 'manifest.json'}")
    return 0 if all(rec["ok"] for rec in records) else 1


def _sweep(config_path, param: str, values_text: str, out: str | None,
           grid: int | None) -> int:
    config = _load(config_path, out, grid)
    if param not in SWEEPABLE:
        raise _Refusal(f"unknown sweep parameter {param!r}; expected one of {SWEEPABLE}")
    try:
        values = [finite_float(v) for v in values_text.split(",") if v.strip()]
    except ValueError as exc:
        raise _Refusal(f"bad --values list {values_text!r}: {exc}") from None
    if not values:
        raise _Refusal("empty --values list")
    if param == "omega_T" and config.mode == "effective":
        raise _Refusal(f"{config_path}: omega_T does not enter effective mode; sweep it "
                       "with mode = rotating-frame")
    # each variant obeys the file's rules; a kappa_T sweep integrates its
    # values together, as `run` does
    if param == "kappa_T":
        variants = [(_replace(config, config_path, kappa_T=tuple(values)), None)]
    else:
        variants = [(_replace(config, config_path, **{param: v}), v) for v in values]
    # no sweepable value enters the plan, so one plan serves every variant
    plan, out_dir = _prepare(config_path, config, variants)
    rows = []
    for variant, value in variants:
        results = _integrate(config_path, variant, plan, param, value)
        swept = variant.kappa_T if value is None else [value]
        rows += [(v, _final_fidelity(result),
                  float(result.diagnostics.get("max_residual", 0.0)),
                  diagnostics_ok(result, variant.mode)) for v, result in zip(swept, results)]

    table_path = out_dir / f"sweep-{param}.csv"
    with _writing():
        write_csv(table_path, [param, "final_fidelity", "max_residual"], list(zip(*rows))[:3])
    for value, fidelity, residual, ok in rows:
        status = "ok " if ok else "BAD"
        print(f"[{status}] {param}={value:g} final_fidelity={fidelity:.6f} "
              f"max_residual={residual:.3e}")
    print(f"table: {table_path}")

    if param == "kappa_T" and len(rows) > 1:
        ordered = sorted(rows, key=lambda r: r[0])
        for (va, fa, _, _), (vb, fb, _, _) in zip(ordered, ordered[1:]):
            if fb > fa + 1e-9:
                raise _Refusal(f"fidelity is not monotone in kappa_T "
                               f"({fa:.6f} at {va:g} -> {fb:.6f} at {vb:g})", 1)
    return 0 if all(ok for *_, ok in rows) else 1


def _verify(seed: int, max_m: int, max_n: int, instances: int,
            inject_detuning: float) -> int:
    if instances < 1:
        raise _Refusal(f"--instances must be at least 1, got {instances}")
    if seed < 0:
        raise _Refusal(f"--seed must be a non-negative integer, got {seed}")
    if not math.isfinite(inject_detuning):
        raise _Refusal(f"--inject-detuning must be finite, got {inject_detuning}")
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
    try:
        if args.command == "run":
            return _run(args.config, args.out, args.grid)
        if args.command == "sweep":
            return _sweep(args.config, args.param, args.values, args.out, args.grid)
        return _verify(args.seed, args.max_m, args.max_n, args.instances,
                       args.inject_detuning)
    except (ConfigError, _Refusal) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "code", 2)


if __name__ == "__main__":
    sys.exit(main())
