import numpy as np
import pytest

from wgqed.presets import expand_preset
from wgqed.pulse import NORMALIZATIONS, GaussianPulse, drive_intensities


def test_verbatim_peak_value():
    p = GaussianPulse(tbar=5.0, width=1.5, normalization="verbatim")
    assert abs(p.envelope(5.0) - 1.0 / (np.sqrt(2 * np.pi) * 1.5)) < 1e-15
    assert abs(p.envelope(5.0) - 0.26596) < 1e-5


def test_far_tails_vanish():
    for norm in ("verbatim", "unit-l2"):
        p = GaussianPulse(tbar=0.0, width=2.0, normalization=norm)
        assert p.envelope(100.0) == 0.0
        assert p.envelope(-100.0) == 0.0


def test_unit_l2_normalization_quadrature():
    # trapezoid oracle over a ten-sigma window
    p = GaussianPulse(tbar=3.0, width=0.8, normalization="unit-l2")
    t = np.linspace(3.0 - 8.0, 3.0 + 8.0, 40001)
    integral = np.trapezoid(p.envelope(t) ** 2, t)
    assert abs(integral - 1.0) < 1e-6


def test_drive_intensity_values():
    p = GaussianPulse(tbar=5.0, width=1.5, normalization="verbatim")
    assert p.drive_intensity(1.0, 500.0) == 0.0
    peak = p.drive_intensity(1.0, 5.0)
    assert abs(peak - 2.0 * 0.26596**2) < 1e-4
    assert p.drive_intensity(0.0, 5.0) == 0.0


def test_drive_intensity_peaks_at_mean():
    for width in (0.4, 1.5, 3.0):
        p = GaussianPulse(tbar=2.0, width=width)
        t = np.linspace(-10, 14, 4801)
        assert abs(t[np.argmax(p.drive_intensity(1.0, t))] - 2.0) < 0.01


def test_symmetry_about_mean():
    p = GaussianPulse(tbar=1.3, width=0.9)
    s = np.linspace(0.0, 5.0, 100)
    assert np.allclose(p.envelope(1.3 + s), p.envelope(1.3 - s), rtol=1e-12, atol=0)


def test_monotone_decay_from_mean():
    p = GaussianPulse(tbar=0.0, width=1.0)
    right = p.envelope(np.linspace(0, 6, 200))
    assert np.all(np.diff(right) < 0)


def test_verbatim_peak_scales_inversely_with_width():
    a = GaussianPulse(tbar=0.0, width=1.0, normalization="verbatim")
    b = GaussianPulse(tbar=0.0, width=2.0, normalization="verbatim")
    assert abs(a.envelope(0.0) - 2.0 * b.envelope(0.0)) < 1e-15


def test_drive_intensities_are_each_drive_intensity_bit_for_bit():
    # every sample time of a dt = 1e-3, sample_every 10 run to t = 40 for
    # pulses of four widths, both normalizations and two rates, each row its
    # own pulse, rate and time, and the tail where the envelope underflows
    pulses = [GaussianPulse(5.0, w, norm) for w in (0.5, 1.0, 2.0, 3.0) for norm in NORMALIZATIONS]
    times = [k * 10 * 1e-3 for k in range(4001)] + [30.0, 40.0, 60.0, 1e3]
    rows = [(p, gamma, t) for p in pulses for gamma in (1.0, 0.1) for t in times]
    got = drive_intensities(*zip(*rows))
    want = np.array([p.drive_intensity(gamma, t) for p, gamma, t in rows])
    assert got.tobytes() == want.tobytes()
    assert want.max() > 0.0 and (want == 0.0).any()
    assert drive_intensities([], [], []).shape == (0,)


def test_scalar_envelope_is_the_array_path_bit_for_bit():
    # every time at which a fig3 run at dt = 1e-3 evaluates the envelope,
    # formed as the RK4 step forms them, then the pulse's subnormal tail and
    # times where it has underflowed to exactly 0
    cfg = expand_preset("fig3")[0]
    pulse, config = cfg.gaussian_pulse(), cfg.integrator_config()
    dt = config.dt
    assert dt == 1e-3
    stages = [s for k in range(config.n_steps) for t in [k * dt] for s in (t, t + 0.5 * dt, t + dt)]
    tail = [60.0 + 0.125 * k for k in range(24)]
    underflowed = [63.0, 100.0, 1e3, -80.0]
    for t in stages + tail + underflowed:
        want = np.float64(pulse.envelope(np.asarray(t))).tobytes()
        for scalar in (t, np.float64(t)):
            got = pulse.envelope(scalar)
            assert type(got) is float and np.float64(got).tobytes() == want
    assert [pulse.envelope(t) for t in underflowed] == [0.0] * 4
    assert pulse.envelope(60.0) > 0.0


def test_validation():
    with pytest.raises(ValueError):
        GaussianPulse(tbar=0.0, width=0.0)
    with pytest.raises(ValueError):
        GaussianPulse(tbar=0.0, width=1.0, normalization="bogus")
    with pytest.raises(ValueError):
        GaussianPulse(tbar=0.0, width=1.0).drive_intensity(-1.0, 0.0)
