import dataclasses
import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from cvswap import gaussian
from cvswap.optomech import (DEFAULT_RTOL, HBAR, KB, PANEL_LIMIT,
                             LinearizedModel, OptomechParams,
                             QuadratureConvergenceError, StabilityError,
                             _excess_integral, build_drift_matrix,
                             check_stability, default_window,
                             diffusion_matrix, drive_rate, filter_fourier,
                             filter_transfer, n_thermal, output_cm,
                             single_photon_coupling, steady_state)
from support import OMEGA_M, drive_params

# frozen pipeline fixtures, computed once from the defining formulas with
# CODATA constants and pinned here against regressions
G0_B = 952.6636002352755            # rad/s
G0_C = 952.2780078464899            # rad/s
G_B_OVER_WM = 0.3090124398491701    # at kappa = 0.5 omega_m, P_b = 4 mW
G_C_OVER_WM = 0.3276908506494694    # at kappa = 0.5 omega_m, P_c = 4.5 mW
Q_S = 6691.464240399031             # static displacement, same point
NBAR_PLUS_HALF = 833.4648654280111  # mechanical bath at 0.4 K


def half_kappa_params():
    return drive_params(kappa_over_wm=0.5)


def test_params_validation():
    good = drive_params()
    with pytest.raises(ValueError):
        dataclasses.replace(good, L=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(good, T=-1.0)
    with pytest.raises(ValueError):
        dataclasses.replace(good, P_b=-1e-3)
    with pytest.raises(ValueError):
        dataclasses.replace(good, Q_m=0.5)
    with pytest.raises(ValueError):
        dataclasses.replace(good, tau_b=float("inf"))
    # detunings and filter centers are signed
    dataclasses.replace(good, Delta_b=+OMEGA_M, Omega_b=+OMEGA_M)
    with pytest.raises(ValueError):
        good.branch("z")
    assert good.gamma_m == pytest.approx(OMEGA_M / 1e5)


def test_single_photon_coupling_fixture_and_scaling():
    p = half_kappa_params()
    assert single_photon_coupling(p, "b") == pytest.approx(G0_B, rel=1e-12)
    assert single_photon_coupling(p, "c") == pytest.approx(G0_C, rel=1e-12)
    # inverse length, inverse-root mass
    assert single_photon_coupling(
        dataclasses.replace(p, L=2e-3), "b") == pytest.approx(G0_B / 2,
                                                              rel=1e-12)
    assert single_photon_coupling(
        dataclasses.replace(p, m=4e-11), "b") == pytest.approx(G0_B / 2,
                                                               rel=1e-12)


def test_drive_rate_scaling_and_value():
    p = half_kappa_params()
    assert drive_rate(dataclasses.replace(p, P_b=0.0), "b") == 0.0
    assert drive_rate(dataclasses.replace(p, P_b=16e-3), "b") == (
        pytest.approx(2 * drive_rate(p, "b"), rel=1e-12))
    # modulus of the defining expression
    omega_laser = 2 * np.pi * 299792458.0 / p.lambda_b
    expected = np.sqrt(2 * p.kappa_b * p.P_b / (HBAR * omega_laser))
    assert drive_rate(p, "b") == pytest.approx(expected, rel=1e-14)


def test_steady_state_fixtures():
    p = half_kappa_params()
    model = steady_state(p)
    assert isinstance(model, LinearizedModel)
    assert model.G_b / OMEGA_M == pytest.approx(G_B_OVER_WM, rel=1e-9)
    assert model.G_c / OMEGA_M == pytest.approx(G_C_OVER_WM, rel=1e-9)
    assert model.q_s == pytest.approx(Q_S, rel=1e-9)
    assert model.stable
    # |a_s| = E / sqrt(kappa^2 + Delta^2)
    expected = drive_rate(p, "b") / np.hypot(p.kappa_b, p.Delta_b)
    assert abs(model.a_s[0]) == pytest.approx(expected, rel=1e-12)


def test_steady_state_dark():
    p = dataclasses.replace(drive_params(), P_b=0.0, P_c=0.0)
    model = steady_state(p)
    assert model.G_b == 0.0 and model.G_c == 0.0
    assert model.q_s == 0.0
    assert_allclose(np.abs(model.a_s), 0.0)


def test_drift_matrix_layout():
    k = build_drift_matrix(1.0, 1e-5, 0.3, 0.4, 0.5, 0.6, -1.0, 1.0)
    expected = np.array([
        [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        [-1.0, -1e-5, 0.3, 0.0, 0.4, 0.0],
        [0.0, 0.0, -0.5, -1.0, 0.0, 0.0],
        [0.3, 0.0, 1.0, -0.5, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, -0.6, 1.0],
        [0.4, 0.0, 0.0, 0.0, -1.0, -0.6],
    ])
    assert_allclose(k, expected, rtol=0, atol=0)


def test_decoupled_drift_spectrum():
    gamma = 1e-5
    k = build_drift_matrix(1.0, gamma, 0.0, 0.0, 0.5, 0.7, -1.0, 1.0)
    ev = np.sort_complex(np.linalg.eigvals(k))
    mech = -gamma / 2 + 1j * np.sqrt(1 - gamma ** 2 / 4)
    expected = np.sort_complex(np.array([
        mech, np.conj(mech), -0.5 - 1j, -0.5 + 1j, -0.7 - 1j, -0.7 + 1j]))
    assert_allclose(ev, expected, rtol=1e-9, atol=1e-12)
    stable, abscissa = check_stability(k)
    assert stable
    assert abscissa == pytest.approx(-gamma / 2, rel=1e-6)


def test_lone_entangling_drive_goes_unstable():
    # the parametric branch alone anti-damps the mechanics; the spectral
    # abscissa crosses zero between weak and strong coupling
    weak = build_drift_matrix(1.0, 1e-5, 0.001, 0.0, 0.3, 0.3, -1.0, 1.0)
    strong = build_drift_matrix(1.0, 1e-5, 0.1, 0.0, 0.3, 0.3, -1.0, 1.0)
    assert check_stability(weak)[0]
    assert not check_stability(strong)[0]
    # both drives in the balanced configuration restore stability
    balanced = build_drift_matrix(1.0, 1e-5, 0.3, 0.3, 0.3, 0.3, -1.0, 1.0)
    assert check_stability(balanced)[0]


def test_diffusion_matrix_entries():
    p = drive_params()
    gamma = p.gamma_m
    q0 = diffusion_matrix(0.0, p)
    assert q0[0, 0] == 0.0
    # dc limit of the symmetrized Brownian spectrum
    assert q0[1, 1] == pytest.approx(2 * gamma * KB * p.T / (HBAR * p.omega_m),
                                     rel=1e-9)
    # smooth through zero
    eps = diffusion_matrix(1e-6 * p.omega_m, p)[1, 1]
    assert eps == pytest.approx(q0[1, 1], rel=1e-9)
    # at the mechanical frequency, coth gives the thermal occupation
    q1 = diffusion_matrix(p.omega_m, p)
    assert q1[1, 1] == pytest.approx(gamma * (2 * n_thermal(p) + 1),
                                     rel=1e-12)
    assert q1[2, 2] == q1[3, 3] == p.kappa_b
    assert q1[4, 4] == q1[5, 5] == p.kappa_c
    # cryogenic but still high-T for these parameters
    theta = HBAR * p.omega_m / (KB * p.T)
    assert theta == pytest.approx(1.19982e-3, rel=1e-4)
    assert NBAR_PLUS_HALF == pytest.approx(n_thermal(p) + 0.5, rel=1e-12)


def test_filter_fourier_peak_width_and_norm():
    tau, center = 8.0 / OMEGA_M, -OMEGA_M
    peak = abs(filter_fourier(center, tau, center)) ** 2
    assert peak == pytest.approx(2 * tau, rel=1e-12)
    # Lorentzian half-width 1/tau
    half = abs(filter_fourier(center + 1 / tau, tau, center)) ** 2
    assert half == pytest.approx(tau, rel=1e-12)
    # unit norm under d omega / 2 pi; integrate in units of the bandwidth
    # so the infinite-interval transform keeps its accuracy
    def detuned(s):
        return abs(filter_fourier(center + s / tau, tau, center)) ** 2 / tau
    val = quad(detuned, -np.inf, 0.0)[0] + quad(detuned, 0.0, np.inf)[0]
    assert val / (2 * np.pi) == pytest.approx(1.0, rel=1e-8)


def test_filter_transfer_block():
    p = drive_params()
    w = 0.63 * p.omega_m
    block = filter_transfer(w, p, "b")
    h_here = filter_fourier(w, p.tau_b, p.Omega_b)
    h_conj = np.conj(filter_fourier(-w, p.tau_b, p.Omega_b))
    hp = (h_here + h_conj) / 2
    hm = (h_here - h_conj) / 2j
    expected = np.sqrt(2 * p.kappa_b) * np.array([[hp, -hm], [hm, hp]])
    assert_allclose(block, expected, rtol=1e-14)


def test_undriven_output_is_vacuum_and_thermal():
    p = dataclasses.replace(drive_params(kappa_over_wm=0.5),
                            P_b=0.0, P_c=0.0)
    cm = output_cm(p).matrix()
    assert np.max(np.abs(cm[2:, 2:] - 0.5 * np.eye(4))) < 1e-8
    assert np.max(np.abs(cm[0:2, 2:])) < 1e-8
    target = n_thermal(p) + 0.5
    assert cm[0, 0] == pytest.approx(target, rel=0.01)
    assert cm[1, 1] == pytest.approx(target, rel=0.01)


def test_undriven_mechanical_block_matches_scalar_oracle():
    # independent 1-D integration of the decoupled Brownian spectrum over
    # the same window
    p = dataclasses.replace(drive_params(), P_b=0.0, P_c=0.0)
    gam = 1.0 / p.Q_m
    theta = HBAR * p.omega_m / (KB * p.T)
    w_max = default_window(p)

    def brownian(w, row):
        resolvent = np.linalg.inv(1j * w * np.eye(2)
                                  + np.array([[0.0, 1.0], [-1.0, -gam]]))
        weight = gam * w / np.tanh(theta * w / 2) if w > 1e-9 else \
            gam * 2 / theta
        val = resolvent[row, 1] * weight * np.conj(resolvent[row, 1])
        return val.real / np.pi

    def integrate(row):
        # the gamma-wide resonance gets its own panel or quad walks past it
        total = 0.0
        for lo, hi in ((0.0, 0.99), (0.99, 1.01), (1.01, w_max)):
            total += quad(lambda w: brownian(w, row), lo, hi, limit=400,
                          epsabs=1e-12, epsrel=1e-10)[0]
        return total

    v_qq = integrate(0)
    v_pp = integrate(1)
    cm = output_cm(p).matrix()
    assert cm[0, 0] == pytest.approx(v_qq, rel=1e-6)
    assert cm[1, 1] == pytest.approx(v_pp, rel=1e-6)


def test_operating_point_state():
    p = drive_params()
    cm = output_cm(p)
    full = cm.matrix()
    assert gaussian.validate_state(full).passed
    # driven mechanics stays far above the bare thermal floor scale
    assert full[0, 0] > 1.0
    # regression pin on the full integral, one entry per block row
    assert full[0, 0] == pytest.approx(11.612624751229774, rel=1e-6)
    assert full[2, 2] == pytest.approx(16.10457042165039, rel=1e-6)
    assert full[4, 4] == pytest.approx(3.6762827206807227, rel=1e-6)


def test_unstable_params_raise():
    p = dataclasses.replace(drive_params(), P_c=0.0)
    assert not steady_state(p).stable
    with pytest.raises(StabilityError):
        output_cm(p)


def test_starved_quadrature_budget_raises():
    with pytest.raises(QuadratureConvergenceError):
        output_cm(drive_params(), quad_limit=1)


def test_excess_integral_matches_quad():
    """The Gauss-Legendre Brownian-excess integral of output_cm agrees with
    scipy's adaptive quad at epsrel 1e-12 to 1e-10 relative, from a hot
    bath to the closed form's theta limit, at the default window and twice
    it, for a high and a low mechanical Q."""
    worst = 0.0
    for temperature, q_m in itertools.product((4.0, 0.4, 0.048),
                                              (1e5, 2.0)):
        p = dataclasses.replace(drive_params(), T=temperature, Q_m=q_m)
        gam = 1.0 / q_m
        theta = HBAR * p.omega_m / (KB * p.T)

        def excess(w):
            coth_excess = (w / math.tanh(0.5 * theta * w)
                           - 1.0 / math.tanh(0.5 * theta))
            return gam * coth_excess / (1.0 + w * w) / math.pi

        for half_width in (default_window(p), 2.0 * default_window(p)):
            expected = quad(excess, 0.0, half_width, epsrel=1e-12,
                            epsabs=0.0, limit=200)[0]
            got = _excess_integral(gam, theta, half_width, DEFAULT_RTOL,
                                   PANEL_LIMIT)
            worst = max(worst, abs(got - expected) / abs(expected))
    print(f"worst relative deviation {worst:.3e}")
    assert worst <= 1e-10


def test_window_override_and_default():
    p = drive_params()
    w0 = default_window(p)
    assert w0 == pytest.approx(3.2 / (HBAR * p.omega_m / (KB * p.T)),
                               rel=1e-12)
    # wide filters push the rate term past the thermal plateau term
    wide = dataclasses.replace(p, kappa_b=200 * OMEGA_M,
                               kappa_c=200 * OMEGA_M)
    assert default_window(wide) == pytest.approx(4000 + 1.0, rel=1e-12)
    v1 = output_cm(p).matrix()
    v2 = output_cm(p, window=1.5 * w0).matrix()
    assert np.max(np.abs(v2 - v1)) < 1e-5