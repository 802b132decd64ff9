"""Declarative run configuration: a small key/value file with sections.

The format is line oriented:

    protocol = bell            # bell | bell-reverse | ghz
    duration = 1.0             # step duration T (scales the reported t column)
    kappa_T = 0.0, 0.0145      # list -> one run per value

    [schedules]
    alpha = constant: value=3.141592653589793

Keys live either at the top level or inside a [section]; '#' starts a comment;
lists are comma separated.  Schedule overrides use "kind: key=value, ..." with
the kinds and parameters of :mod:`qpassage.schedules`.  Parse and validation
errors carry the file path and line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .schedules import ParameterSchedule

__all__ = ["ConfigError", "RunConfig", "check_grid", "finite_float", "parse_config_text",
           "load_config"]

PROTOCOLS = ("bell", "bell-reverse", "ghz")
MODES = ("effective", "rotating-frame")
BOUNDARIES = ("caption", "text")
SWEEPABLE = ("kappa_T", "omega_T", "grid")
MIN_GRID = 10


class ConfigError(ValueError):
    def __init__(self, message: str, path: str = "<config>", line: int | None = None):
        anchor = f"{path}:{line}" if line is not None else path
        super().__init__(f"{anchor}: {message}")
        self.path = path
        self.line = line


@dataclass
class RunConfig:
    """Validated run parameters; see the module docstring for the file format."""

    protocol: str
    duration: float
    qubits: int
    mode: str = "effective"
    grid: int = 2000
    kappa_T: tuple = (0.0,)
    omega_T: float | None = None
    j_over_omega: float = 0.1
    boundary: str = "caption"
    out: str = "runs"
    schedule_overrides: dict = field(default_factory=dict)

    def echo(self) -> dict:
        d = {
            "protocol": self.protocol,
            "duration": self.duration,
            "qubits": self.qubits,
            "mode": self.mode,
            "grid": self.grid,
            "kappa_T": list(self.kappa_T),
            "omega_T": self.omega_T,
            "j_over_omega": self.j_over_omega,
            "boundary": self.boundary,
            "out": self.out,
        }
        if self.schedule_overrides:
            d["schedule_overrides"] = {k: v.kind for k, v in self.schedule_overrides.items()}
        return d


def _raw_sections(text: str, path: str) -> dict:
    """{section: {key: (value, line)}}; the top level is section ''."""
    sections: dict = {"": {}}
    current = ""
    section_lines = {"": 0}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ConfigError("empty section name", path, lineno)
            sections.setdefault(current, {})
            section_lines[current] = lineno
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", path, lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError("missing key before '='", path, lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r}", path, lineno)
        sections[current][key] = (value, lineno)
    sections["__section_lines__"] = section_lines
    return sections


def finite_float(text: str) -> float:
    """float(text), refusing nan and infinities."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _take(table: dict, key: str, path: str, convert, default=None, required=False):
    """Pop `key` and convert its text; a float key goes through finite_float,
    and any conversion error becomes a ConfigError anchored at the key's line."""
    if convert is float:
        convert = finite_float
    if key not in table:
        if required:
            raise ConfigError(f"missing required key {key!r}", path, 1)
        return default
    value, lineno = table.pop(key)
    try:
        return convert(value)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}", path, lineno) from None


def _float_list(text: str) -> tuple:
    values = tuple(finite_float(part) for part in text.split(",") if part.strip())
    if not values:
        raise ValueError("empty list")
    return values


def _parse_schedule(text: str) -> ParameterSchedule:
    if ":" in text:
        kind, rest = (part.strip() for part in text.split(":", 1))
    else:
        kind, rest = text.strip(), ""
    params = {}
    for chunk in rest.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValueError(f"expected key=value in schedule parameters, got {chunk!r}")
        name, value = (part.strip() for part in chunk.split("=", 1))
        params[name] = finite_float(value)
    if kind == "constant":
        return ParameterSchedule.constant(params.pop("value"), **params)
    if kind == "cosine-ramp":
        return ParameterSchedule.cosine_ramp(params.pop("amplitude"), **params)
    if kind == "linear-ramp":
        return ParameterSchedule.linear_ramp(params.pop("offset"), params.pop("slope"), **params)
    raise ValueError(f"unknown schedule kind {kind!r} (sampled overrides are not "
                     "supported in config files)")


def parse_config_text(text: str, path: str = "<config>") -> RunConfig:
    sections = _raw_sections(text, path)
    section_lines = sections.pop("__section_lines__")
    top = sections.pop("", {})

    def line_of(key):
        return top[key][1] if key in top else None

    protocol = _take(top, "protocol", path, str, required=True)
    if protocol not in PROTOCOLS:
        raise ConfigError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}",
                          path, 1)
    duration_line = line_of("duration")
    duration = _take(top, "duration", path, float, required=True)
    if duration <= 0:
        raise ConfigError("duration must be positive", path, duration_line)

    default_qubits = 3 if protocol == "ghz" else 2
    qubits_line = line_of("qubits")
    qubits = _take(top, "qubits", path, int, default=default_qubits)
    if protocol in ("bell", "bell-reverse") and qubits != 2:
        raise ConfigError("bell protocols run on exactly two qubits", path, qubits_line)
    if protocol == "ghz" and qubits < 3:
        raise ConfigError("the ghz protocol needs at least three qubits", path, qubits_line)

    mode_line = line_of("mode")
    mode = _take(top, "mode", path, str, default="effective")
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}", path, mode_line)

    kappa_line = line_of("kappa_T")
    kappa_T = _take(top, "kappa_T", path, _float_list, default=(0.0,))
    if any(k < 0 for k in kappa_T):
        raise ConfigError("kappa_T values must be non-negative", path, kappa_line)

    omega_line = line_of("omega_T")
    omega_T = _take(top, "omega_T", path, float, default=None)
    if mode == "rotating-frame" and omega_T is None:
        raise ConfigError("rotating-frame mode requires omega_T", path, mode_line or 1)
    if omega_T is not None and omega_T <= 0:
        raise ConfigError("omega_T must be positive", path, omega_line)

    grid_line = line_of("grid")
    grid = check_grid(_take(top, "grid", path, int, default=2000), path, grid_line)

    boundary_line = line_of("boundary")
    boundary = _take(top, "boundary", path, str, default="caption")
    if boundary not in BOUNDARIES:
        raise ConfigError(f"unknown boundary {boundary!r}; expected one of {BOUNDARIES}",
                          path, boundary_line)

    config = RunConfig(
        protocol=protocol,
        duration=duration,
        qubits=qubits,
        mode=mode,
        grid=grid,
        kappa_T=kappa_T,
        omega_T=omega_T,
        j_over_omega=_take(top, "j_over_omega", path, float, default=0.1),
        boundary=boundary,
        out=_take(top, "out", path, str, default="runs"),
    )
    if top:
        key = next(iter(top))
        raise ConfigError(f"unknown key {key!r}", path, top[key][1])

    overrides = sections.pop("schedules", {})
    for symbol, (value, lineno) in overrides.items():
        try:
            config.schedule_overrides[symbol] = _parse_schedule(value)
        except Exception as exc:
            raise ConfigError(f"bad schedule override for {symbol!r}: {exc}",
                              path, lineno) from None
    if sections:
        name = next(iter(sections))
        raise ConfigError(f"unknown section [{name}]", path, section_lines.get(name))
    return config


def check_grid(grid: int, path: str = "<config>", line: int | None = None) -> int:
    """The grid rule shared by the config key and the --grid flags."""
    if grid < MIN_GRID:
        raise ConfigError(f"grid must be at least {MIN_GRID} steps", path, line)
    return grid


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", str(path)) from None
    return parse_config_text(text, str(path))
