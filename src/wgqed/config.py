"""Experiment configuration: INI-style parsing and validation.

A config document has five sections (all optional; missing keys take the
documented defaults, which follow the baseline two-qubit scenario):

    [chain]       n, gamma_r, gamma_l, delta, spacing, positions, rho21_hc
    [pulse]       tbar, width, normalization, mode
    [integrator]  dt, t_end, sample_every
    [observables] pair_norm, threshold
    [output]      path, label

Rates, detunings and positions accept a scalar or a comma-separated
per-qubit list.  Unknown sections or keys are rejected.  Every
:class:`ExperimentConfig` is validated when it is constructed, whether it
comes from a document, a preset or an override.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, replace

from .hierarchy import ChainParams, DriveMode
from .integrator import IntegratorConfig
from .observables import PAIR_NORMS
from .pulse import GaussianPulse


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved parameters of one simulation run."""

    n: int = 2
    gamma_r: tuple[float, ...] = (1.0, 1.0)
    gamma_l: tuple[float, ...] = (1.0, 1.0)
    delta: tuple[float, ...] = (0.0, 0.0)
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
    pair_norm: str = "all-pairs"
    threshold: float = 0.05
    path: str | None = None
    label: str = "run"
    notes: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        """Coerce numbers to float and validate by building every component;
        their errors surface as :class:`ConfigError`."""
        try:
            for name in _FLOAT_FIELDS:
                object.__setattr__(self, name, float(getattr(self, name)))
            for name in _PER_QUBIT_FIELDS:
                if getattr(self, name) is not None:
                    object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{name}: expected numbers, got {getattr(self, name)!r}") from exc
        for where, build in (
            ("[chain]", self.chain_params),
            ("[pulse]", self.gaussian_pulse),
            ("[pulse] mode:", self.drive_mode),
            ("[integrator]", self.integrator_config),
        ):
            try:
                build()
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{where} {exc}") from exc
        for name in _PER_QUBIT_FIELDS:
            value = getattr(self, name)
            if value is not None and len(value) != self.n:
                raise ConfigError(f"[chain] {name}: expected {self.n} values, got {len(value)}")
        if self.pair_norm not in PAIR_NORMS:
            raise ConfigError(
                f"[observables] pair_norm: expected one of {PAIR_NORMS}, got {self.pair_norm!r}"
            )
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError("[observables] threshold: must lie strictly between 0 and 1")

    def chain_params(self) -> ChainParams:
        return ChainParams(
            n=self.n,
            gamma_r=list(self.gamma_r),
            gamma_l=list(self.gamma_l),
            delta=list(self.delta),
            spacing=self.spacing,
            positions=None if self.positions is None else list(self.positions),
        )

    def gaussian_pulse(self) -> GaussianPulse:
        return GaussianPulse(self.tbar, self.width, self.normalization)

    def integrator_config(self) -> IntegratorConfig:
        return IntegratorConfig(self.dt, self.t_end, self.sample_every)

    def drive_mode(self) -> DriveMode:
        return DriveMode(self.mode)


_FLOAT_FIELDS = ("spacing", "tbar", "width", "dt", "t_end", "threshold")
_PER_QUBIT_FIELDS = ("gamma_r", "gamma_l", "delta", "positions")


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
    "observables": {"pair_norm": str, "threshold": float},
    "output": {"path": str, "label": str},
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse a config document; missing keys take the documented defaults.

    A single value for a per-qubit key is broadcast to every qubit.
    """
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

    n = values.get("n", ExperimentConfig.n)
    for key, default in (("gamma_r", 1.0), ("gamma_l", 1.0), ("delta", 0.0)):
        values.setdefault(key, (default,))
    for key in _PER_QUBIT_FIELDS:
        if len(values.get(key, ())) == 1:
            values[key] = values[key] * n
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as handle:
        return parse_config(handle.read())


def apply_overrides(cfg: ExperimentConfig, **overrides) -> ExperimentConfig:
    """Return a copy with the non-None overrides applied (and so validated)."""
    changes = {k: v for k, v in overrides.items() if v is not None}
    unknown = set(changes) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown override field(s): {sorted(unknown)}")
    return replace(cfg, **changes)
