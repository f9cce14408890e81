"""Preset parameter sets for the documented figure scenarios.

All presets share the reference pulse (mean 5, width 1.5, unit-l2
normalization) and the unit decay rate unless stated.  End times are read
off the published plot ranges and are estimates, flagged in run metadata.
"""

from __future__ import annotations

from .config import ConfigError, ExperimentConfig

_T_END_NOTE = "t_end is an estimate read off the published axis range"
_SEPARATION_NOTE = (
    "separations use a baseline of one emission wavelength (spacing D = 1 "
    "corresponds to the largest separation case)"
)


def _cfg(label: str, notes: tuple[str, ...] = (), **kwargs) -> ExperimentConfig:
    return ExperimentConfig(label=label, notes=(_T_END_NOTE,) + notes, **kwargs)


def _fig2() -> list[ExperimentConfig]:
    return [_cfg("fig2", n=1)]


def _fig3() -> list[ExperimentConfig]:
    return [_cfg("fig3", n=2)]


def _fig4() -> list[ExperimentConfig]:
    return [_cfg(f"fig4_n{n}", n=n) for n in (3, 4, 5)]


def _fig5() -> list[ExperimentConfig]:
    return [
        _cfg(f"fig5_n{n}", t_end=40.0, n=n, gamma_r=0.1, gamma_l=0.1)
        for n in (2, 3, 4, 5)
    ]


def _fig5c() -> list[ExperimentConfig]:
    # survival time vs pulse duration, small vs unit decay rates (3 qubits)
    configs = []
    for rate, t_end, tag in ((1.0, 25.0, "unit"), (0.1, 50.0, "small")):
        for width in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
            configs.append(
                _cfg(
                    f"fig5c_{tag}_w{width:g}".replace(".", "p"),
                    n=3,
                    gamma_r=rate,
                    gamma_l=rate,
                    width=width,
                    t_end=t_end,
                )
            )
    return configs


def _fig6() -> list[ExperimentConfig]:
    return [_cfg(f"fig6_n{n}", n=n, gamma_r=5.0, gamma_l=1.0) for n in (2, 3, 4, 5)]


def _fig6c() -> list[ExperimentConfig]:
    configs = []
    for n in (2, 3, 4, 5):
        configs.append(_cfg(f"fig6c_chiral_n{n}", n=n, gamma_r=5.0, gamma_l=1.0))
        configs.append(_cfg(f"fig6c_symmetric_n{n}", n=n))
    return configs


def _fig7a() -> list[ExperimentConfig]:
    configs = []
    for n in (2, 3, 4, 5):
        configs.append(_cfg(f"fig7a_detuned_n{n}", n=n, delta=0.5))
        configs.append(_cfg(f"fig7a_resonant_n{n}", n=n))
    return configs


def _fig7b() -> list[ExperimentConfig]:
    configs = []
    for n in (2, 4):
        for spacing, tag in ((1.0, "sep1"), (1.0 / 8.0, "sep8th"), (1.0 / 16.0, "sep16th")):
            configs.append(
                _cfg(
                    f"fig7b_n{n}_{tag}",
                    notes=(_SEPARATION_NOTE,),
                    n=n,
                    spacing=spacing,
                )
            )
    return configs


PRESETS: dict[str, tuple[str, callable]] = {
    "fig2": ("single atom, two-photon pulse, population dynamics", _fig2),
    "fig3": ("two identical atoms, populations and concurrence", _fig3),
    "fig4": ("chains of 3..5 atoms, average pairwise concurrence", _fig4),
    "fig5": ("small decay rates (0.1), longer entanglement survival", _fig5),
    "fig5c-sweep": ("survival time vs pulse width, small and unit rates", _fig5c),
    "fig6": ("chiral emission (right rate 5x left), 2..5 atoms", _fig6),
    "fig6c-sweep": ("peak concurrence vs chain length, chiral vs symmetric", _fig6c),
    "fig7a": ("0.5 detuning vs resonance, 2..5 atoms", _fig7a),
    "fig7b": ("inter-atom separations 1, 1/8, 1/16 wavelengths", _fig7b),
}


def list_presets() -> dict[str, str]:
    return {name: desc for name, (desc, _) in PRESETS.items()}


def expand_preset(preset_id: str) -> list[ExperimentConfig]:
    """All fully specified configs belonging to one preset."""
    try:
        _, factory = PRESETS[preset_id]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(f"unknown preset {preset_id!r}; expected one of: {known}") from None
    return factory()
