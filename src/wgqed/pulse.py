"""Time-domain Gaussian envelope of the incoming photon wavepacket.

Two normalization conventions are supported:

``verbatim``
    g(t) = exp(-(t - tbar)^2 / (2 w^2)) / (sqrt(2 pi) w), the Fourier-pair
    prefactor.  Its L2 norm depends on the width w.

``unit-l2``
    g(t) = exp(-(t - tbar)^2 / (2 w^2)) / (pi w^2)^(1/4), normalized so that
    the integral of |g(t)|^2 over all times is exactly 1, as required of a
    single temporal mode function.

The ``unit-l2`` mode is the package default: it is the one that reproduces
the documented single-atom peak excitation of ~48% (see README notes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORMALIZATIONS = ("verbatim", "unit-l2")


@dataclass(frozen=True)
class GaussianPulse:
    """Gaussian temporal envelope with mean ``tbar`` and width ``width``.

    Times and widths are in units of the inverse reference decay rate.
    """

    tbar: float
    width: float
    normalization: str = "unit-l2"

    def __post_init__(self) -> None:
        if not np.isfinite(self.tbar):
            raise ValueError(f"pulse tbar must be finite, got {self.tbar}")
        if not (np.isfinite(self.width) and self.width > 0):
            raise ValueError(f"pulse width must be positive and finite, got {self.width}")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(
                f"unknown normalization {self.normalization!r}; "
                f"expected one of {NORMALIZATIONS}"
            )

    @property
    def amplitude(self) -> float:
        """Peak value g(tbar) of the envelope under its normalization."""
        if self.normalization == "verbatim":
            return 1.0 / (np.sqrt(2.0 * np.pi) * self.width)
        return (np.pi * self.width**2) ** -0.25

    def envelope(self, t):
        """Real amplitude g(t); accepts scalars or arrays.  A Python or numpy
        float time is evaluated without 0-d arrays, bit for bit as the 0-d
        array of that time is."""
        if not isinstance(t, float):
            t = np.asarray(t, dtype=float)
        out = self.amplitude * np.exp(_exponent(t, self.tbar, self.width))
        return out if out.ndim else float(out)

    def drive_intensity(self, gamma_r: float, t):
        """|sqrt(2 gamma_r) g(t)|^2, the plotted pulse-shape quantity."""
        if gamma_r < 0:
            raise ValueError("decay rate must be non-negative")
        g = self.envelope(t)
        return 2.0 * gamma_r * np.square(g) if np.ndim(g) else 2.0 * gamma_r * g * g


def drive_intensities(pulses, gammas, times) -> np.ndarray:
    """``pulses[r].drive_intensity(gammas[r], times[r])`` for every r, bit
    for bit, with one exp call.  Each exponent is formed in scalar
    arithmetic as ``envelope`` forms it: numpy squares an array by
    multiplication, a scalar by ``pow``, and the two can differ in the last
    bit."""
    exponents = [_exponent(t, p.tbar, p.width) for p, t in zip(pulses, times)]
    g = np.multiply([p.amplitude for p in pulses], np.exp(exponents))
    return 2.0 * np.asarray(gammas, dtype=float) * g * g


def _exponent(t, tbar, width):
    return -((t - tbar) ** 2) / (2.0 * width**2)
