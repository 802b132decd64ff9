"""Declarative run configuration: a small key/value file with sections.

The format is line oriented:

    protocol = bell            # bell | bell-reverse | ghz
    duration = 1.0             # step duration T (scales the reported t column)
    kappa_T = 0.0, 0.0145      # list -> one run per value

    [schedules]
    alpha = constant: value=3.141592653589793

Keys live either at the top level or inside a [section]; '#' starts a comment;
lists are comma separated.  Schedule overrides use "kind: key=value, ..." with
the kinds and parameters of :mod:`qpassage.schedules`.

The parser only converts each key's text; the rules a run's parameters obey
live in :class:`RunConfig` itself, so a config built from a file, with
command-line overrides or as a sweep variant through `dataclasses.replace`
passes the same checks.  Errors carry the file path and the line number of
the key at fault.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .schedules import ParameterSchedule

__all__ = ["ConfigError", "RunConfig", "finite_float", "parse_config_text", "load_config"]

PROTOCOLS = ("bell", "bell-reverse", "ghz")
MODES = ("effective", "rotating-frame")
BOUNDARIES = ("caption", "text")
SWEEPABLE = ("kappa_T", "omega_T", "grid")
MIN_GRID = 10
MAX_GRID = np.iinfo(np.intp).max // 8  # the grid+1 nodes fit one float64 array


class ConfigError(ValueError):
    """A configuration problem: `message` anchored at `path` (and `line`);
    `key` names the RunConfig field a rule refused, when one did."""

    def __init__(self, message: str, path: str = "<config>", line: int | None = None,
                 key: str | None = None):
        anchor = f"{path}:{line}" if line is not None else path
        super().__init__(f"{anchor}: {message}")
        self.message = message
        self.path = path
        self.line = line
        self.key = key

    def at(self, path: str, line: int | None = None) -> "ConfigError":
        """The same error anchored at `path` (and `line`)."""
        return ConfigError(self.message, path, line, key=self.key)


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

    def __post_init__(self):
        """Every rule a run's parameters obey, in the order a file is checked;
        each comparison is written so that nan fails it."""
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"unknown protocol {self.protocol!r}; expected one of {PROTOCOLS}",
                              key="protocol")
        if not self.duration > 0:
            raise ConfigError("duration must be positive", key="duration")
        if self.protocol in ("bell", "bell-reverse") and self.qubits != 2:
            raise ConfigError("bell protocols run on exactly two qubits", key="qubits")
        if self.protocol == "ghz" and not self.qubits >= 3:
            raise ConfigError("the ghz protocol needs at least three qubits", key="qubits")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}", key="mode")
        if not all(k >= 0 for k in self.kappa_T):
            raise ConfigError("kappa_T values must be non-negative", key="kappa_T")
        if self.mode == "rotating-frame" and self.omega_T is None:
            raise ConfigError("rotating-frame mode requires omega_T", key="mode")
        if self.omega_T is not None and not self.omega_T > 0:
            raise ConfigError("omega_T must be positive", key="omega_T")
        if not (isinstance(self.grid, int) or float(self.grid).is_integer()):
            raise ConfigError("grid must be a whole number of steps", key="grid")
        if not self.grid >= MIN_GRID:
            raise ConfigError(f"grid must be at least {MIN_GRID} steps", key="grid")
        if not self.grid < MAX_GRID:
            raise ConfigError(f"grid must be below {MAX_GRID} steps", key="grid")
        self.grid = int(self.grid)
        if self.boundary not in BOUNDARIES:
            raise ConfigError(f"unknown boundary {self.boundary!r}; expected one of "
                              f"{BOUNDARIES}", key="boundary")

    def echo(self) -> dict:
        """The keys that shape the results; `out` only says where they go."""
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


# how each top-level key's text becomes its RunConfig field; the rules follow
# in RunConfig itself
_CONVERTERS = {
    "protocol": str,
    "duration": finite_float,
    "qubits": int,
    "mode": str,
    "grid": int,
    "kappa_T": _float_list,
    "omega_T": finite_float,
    "j_over_omega": finite_float,
    "boundary": str,
    "out": str,
}


def parse_config_text(text: str, path: str = "<config>") -> RunConfig:
    sections = _raw_sections(text, path)
    section_lines = sections.pop("__section_lines__")
    top = sections.pop("", {})

    for key in ("protocol", "duration"):
        if key not in top:
            raise ConfigError(f"missing required key {key!r}", path, 1)
    values = {}
    for key, (value, lineno) in top.items():
        if key not in _CONVERTERS:
            raise ConfigError(f"unknown key {key!r}", path, lineno)
        try:
            values[key] = _CONVERTERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}", path, lineno) from None
    values.setdefault("qubits", 3 if values["protocol"] == "ghz" else 2)
    try:
        config = RunConfig(**values)
    except ConfigError as exc:
        raise exc.at(path, top[exc.key][1] if exc.key in top else None) from None

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


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", str(path)) from None
    return parse_config_text(text, str(path))
