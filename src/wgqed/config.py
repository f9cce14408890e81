"""Experiment configuration: INI-style parsing and validation.

A config document has five sections (all optional; missing keys take the
documented defaults, which follow the baseline two-qubit scenario):

    [chain]       n, gamma_r, gamma_l, delta, spacing, positions, rho21_hc
    [pulse]       tbar, width, normalization, mode
    [integrator]  dt, t_end, sample_every
    [observables] threshold
    [output]      path, label

Rates, detunings and positions accept a single value, broadcast to every
qubit, or a comma-separated per-qubit list; :class:`ExperimentConfig` and
:func:`apply_overrides` take the same two forms.  Unknown sections or keys
are rejected.  Every :class:`ExperimentConfig` is validated when it is
constructed, whether it comes from a document, a preset or an override.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, replace

from .hierarchy import ChainParams, DriveMode
from .integrator import IntegratorConfig
from .pulse import GaussianPulse


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved parameters of one simulation run."""

    n: int = 2
    gamma_r: tuple[float, ...] = (1.0,)
    gamma_l: tuple[float, ...] = (1.0,)
    delta: tuple[float, ...] = (0.0,)
    spacing: float = 0.0
    positions: tuple[float, ...] | None = None
    rho21_hc: bool = True
    tbar: float = 5.0
    width: float = 1.5
    normalization: str = "unit-l2"
    mode: str = "two-photon"
    dt: float = 1e-3
    t_end: float = 15.0
    sample_every: int = 10
    threshold: float = 0.05
    path: str | None = None
    label: str = "run"
    notes: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        """Coerce numbers to float and validate by building every component;
        their errors surface as :class:`ConfigError`.  Per-qubit values are
        stored as :class:`ChainParams` broadcast them (unset positions stay
        None)."""
        try:
            for name in _FLOAT_FIELDS:
                object.__setattr__(self, name, float(getattr(self, name)))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{name}: expected a number, got {getattr(self, name)!r}") from exc
        params = _checked("[chain]", self.chain_params)
        for name in _PER_QUBIT_FIELDS:
            if name != "positions" or self.positions is not None:
                object.__setattr__(self, name, tuple(getattr(params, name).tolist()))
        _checked("[pulse]", self.gaussian_pulse)
        _checked("[pulse] mode:", self.drive_mode)
        _checked("[integrator]", self.integrator_config)
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError("[observables] threshold: must lie strictly between 0 and 1")

    def chain_params(self) -> ChainParams:
        return ChainParams(
            self.n, self.gamma_r, self.gamma_l, self.delta, self.spacing, self.positions
        )

    def gaussian_pulse(self) -> GaussianPulse:
        return GaussianPulse(self.tbar, self.width, self.normalization)

    def integrator_config(self) -> IntegratorConfig:
        return IntegratorConfig(self.dt, self.t_end, self.sample_every)

    def drive_mode(self) -> DriveMode:
        return DriveMode(self.mode)


def _checked(where: str, build):
    """``build()``, with its ValueError or TypeError raised as ConfigError."""
    try:
        return build()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where} {exc}") from exc


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_list(raw: str) -> tuple[float, ...]:
    return tuple(float(p) for p in raw.split(",") if p.strip())


_SCHEMA = {
    "chain": {
        "n": int,
        "gamma_r": _parse_list,
        "gamma_l": _parse_list,
        "delta": _parse_list,
        "spacing": float,
        "positions": _parse_list,
        "rho21_hc": _parse_bool,
    },
    "pulse": {"tbar": float, "width": float, "normalization": str, "mode": str},
    "integrator": {"dt": float, "t_end": float, "sample_every": int},
    "observables": {"threshold": float},
    "output": {"path": str, "label": str},
}
# the fields parsed as one number, and those holding one value per qubit,
# broadcast by ChainParams, in the order of _SCHEMA
_FLOAT_FIELDS = tuple(
    k for keys in _SCHEMA.values() for k, parse in keys.items() if parse is float
)
_PER_QUBIT_FIELDS = tuple(
    k for keys in _SCHEMA.values() for k, parse in keys.items() if parse is _parse_list
)


def parse_config(text: str) -> ExperimentConfig:
    """Parse a config document; missing keys take the documented defaults."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser[section].items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            if not raw.strip():
                continue
            try:
                values[key] = _SCHEMA[section][key](raw.strip())
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as handle:
        return parse_config(handle.read())


def apply_overrides(cfg: ExperimentConfig, **overrides) -> ExperimentConfig:
    """Return a copy with the non-None overrides applied (and so validated).

    When ``n`` changes, a per-qubit field that is not overridden and holds one
    value for every qubit is broadcast to the new length; a non-uniform one
    must be restated.
    """
    changes = {k: v for k, v in overrides.items() if v is not None}
    unknown = set(changes) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown override field(s): {sorted(unknown)}")
    if changes.get("n", cfg.n) != cfg.n:
        for name in _PER_QUBIT_FIELDS:
            values = getattr(cfg, name)
            if name not in changes and values is not None and len(set(values)) == 1:
                changes[name] = values[:1]
    return replace(cfg, **changes)
