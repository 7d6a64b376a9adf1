"""Linearized cavity-optomechanics model of the tripartite source.

A single mechanical mode couples to two driven cavity modes (branches b and
c). Linearizing the quantum Langevin equations around the classical steady
state gives a 6x6 drift matrix over (q, p, x_b, y_b, x_c, y_c). Causal
single-pole filters of time tau_k centered at Omega_k select one temporal
output mode per branch. The stationary covariance matrix of (mechanical
mode, filtered b output, filtered c output) comes from the Lyapunov
equation of the drift extended by the filter modes (output_cm); the
frequency integral over the noise spectra is kept as an independent
oracle (spectral_output_cm).

All public operations take SI inputs (rad/s, seconds, kelvin, watts);
internally everything is scaled by the mechanical frequency for
conditioning.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .protocol import TripartiteCM

HBAR = 1.054571817e-34      # J s
KB = 1.380649e-23           # J / K
C_LIGHT = 299792458.0       # m / s

DEFAULT_RTOL = 1e-8
# absolute error floor of the scalar integral and of the spectral quadrature
QUAD_ATOL = 1e-12
# default cap on the number of Gauss-Legendre panels of the scalar integral
PANEL_LIMIT = 50

# transform-convention regression guard: the complex integrand must satisfy
# f(-w) = conj(f(w)); the residue is checked against this bound
IMAG_RESIDUE_TOL = 1e-10

# largest theta = hbar omega_m / kB T times the fastest scaled rate of the
# system at which output_cm uses its closed-form Brownian correction; above
# it output_cm evaluates the spectral quadrature instead. At this value the
# closed form stayed within 8e-10 relative of an exactly windowed reference
# over random parameters with Q_m from 1.05 to 1e7, and its error grows as
# the cube of theta. The shipped example grids reach 0.0036.
CLOSED_FORM_MAX_THETA_RATE = 0.01


class StabilityError(RuntimeError):
    """Drift matrix has a non-negative spectral abscissa."""


class QuadratureConvergenceError(RuntimeError):
    """Spectral integral failed its accuracy target."""


@dataclass(frozen=True)
class OptomechParams:
    """Physical parameters of one two-drive optomechanical site (SI units)."""

    L: float                # cavity length, m
    m: float                # effective mass, kg
    omega_m: float          # mechanical angular frequency, rad/s
    Q_m: float              # mechanical quality factor
    T: float                # bath temperature, K
    lambda_b: float         # drive wavelength, branch b, m
    lambda_c: float         # drive wavelength, branch c, m
    P_b: float              # input power, branch b, W
    P_c: float              # input power, branch c, W
    kappa_b: float          # cavity decay rate, branch b, rad/s
    kappa_c: float          # cavity decay rate, branch c, rad/s
    Delta_b: float          # effective detuning, branch b, rad/s (signed)
    Delta_c: float          # effective detuning, branch c, rad/s (signed)
    Omega_b: float          # filter center, branch b, rad/s (signed)
    Omega_c: float          # filter center, branch c, rad/s (signed)
    tau_b: float            # filter time, branch b, s
    tau_c: float            # filter time, branch c, s

    def __post_init__(self):
        positive = ("L", "m", "omega_m", "T", "lambda_b", "lambda_c",
                    "kappa_b", "kappa_c", "tau_b", "tau_c")
        for name in positive:
            v = float(getattr(self, name))
            if not v > 0.0 or not np.isfinite(v):
                raise ValueError(f"{name} must be positive, got {v}")
            object.__setattr__(self, name, v)
        for name in ("P_b", "P_c"):
            v = float(getattr(self, name))
            if v < 0.0 or not np.isfinite(v):
                raise ValueError(f"{name} must be >= 0, got {v}")
            object.__setattr__(self, name, v)
        for name in ("Delta_b", "Delta_c", "Omega_b", "Omega_c", "Q_m"):
            v = float(getattr(self, name))
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
            object.__setattr__(self, name, v)
        if not self.Q_m > 1.0:
            raise ValueError(f"Q_m must exceed 1, got {self.Q_m}")

    @property
    def gamma_m(self) -> float:
        """Mechanical damping rate, omega_m / Q_m."""
        return self.omega_m / self.Q_m

    def branch(self, branch: str) -> tuple:
        """(wavelength, power, kappa, Delta, Omega, tau) of one branch."""
        if branch == "b":
            return (self.lambda_b, self.P_b, self.kappa_b, self.Delta_b,
                    self.Omega_b, self.tau_b)
        if branch == "c":
            return (self.lambda_c, self.P_c, self.kappa_c, self.Delta_c,
                    self.Omega_c, self.tau_c)
        raise ValueError(f"branch must be 'b' or 'c', got {branch!r}")


@dataclass(frozen=True)
class LinearizedModel:
    """Steady state and linearized drift of one site."""

    K: np.ndarray           # 6x6 drift matrix, rad/s
    G_b: float              # effective coupling, rad/s
    G_c: float              # effective coupling, rad/s
    a_s: np.ndarray         # steady intracavity amplitudes (b, c), complex
    q_s: float              # steady mechanical displacement, dimensionless
    stable: bool

    def __post_init__(self):
        k = np.asarray(self.K, dtype=float)
        if k.shape != (6, 6):
            raise ValueError(f"K must be 6x6, got {k.shape}")
        k = k.copy()
        k.setflags(write=False)
        object.__setattr__(self, "K", k)
        a = np.asarray(self.a_s, dtype=complex).reshape(2).copy()
        a.setflags(write=False)
        object.__setattr__(self, "a_s", a)


def single_photon_coupling(params: OptomechParams, branch: str) -> float:
    """Vacuum optomechanical coupling (omega_cavity/L) sqrt(hbar/(m omega_m))."""
    lam = params.branch(branch)[0]
    omega_cav = 2.0 * np.pi * C_LIGHT / lam
    return (omega_cav / params.L) * np.sqrt(
        HBAR / (params.m * params.omega_m))


def drive_rate(params: OptomechParams, branch: str) -> float:
    """Cavity driving rate |E| = sqrt(2 kappa P / (hbar omega_laser))."""
    lam, power, kappa = params.branch(branch)[:3]
    omega_laser = 2.0 * np.pi * C_LIGHT / lam
    return np.sqrt(2.0 * kappa * power / (HBAR * omega_laser))


def build_drift_matrix(omega_m: float, gamma_m: float, G_b: float,
                       G_c: float, kappa_b: float, kappa_c: float,
                       Delta_b: float, Delta_c: float) -> np.ndarray:
    """Drift matrix over (q, p, x_b, y_b, x_c, y_c), all rates in rad/s.

    The intracavity phase reference per branch makes the steady amplitude
    real, which puts each coupling G_k in the (p, x_k) and (y_k, q) slots.
    """
    return np.array([
        [0.0, omega_m, 0.0, 0.0, 0.0, 0.0],
        [-omega_m, -gamma_m, G_b, 0.0, G_c, 0.0],
        [0.0, 0.0, -kappa_b, Delta_b, 0.0, 0.0],
        [G_b, 0.0, -Delta_b, -kappa_b, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, -kappa_c, Delta_c],
        [G_c, 0.0, 0.0, 0.0, -Delta_c, -kappa_c],
    ])


def check_stability(K: np.ndarray) -> tuple:
    """(stable, spectral_abscissa): stable iff max Re eig(K) < 0."""
    abscissa = float(np.max(np.linalg.eigvals(np.asarray(K, dtype=float)).real))
    return abscissa < 0.0, abscissa


def steady_state(params: OptomechParams) -> LinearizedModel:
    """Classical steady state and the linearized model built on it.

    Amplitudes use the given effective detunings directly (no
    self-consistent cavity-pull loop); the couplings absorb the amplitude
    phase, G_k = sqrt(2) G_0k |a_sk|.
    """
    amps = []
    g_eff = []
    q_s = 0.0
    for br in ("b", "c"):
        _, _, kappa, delta = params.branch(br)[:4]
        e_k = drive_rate(params, br)
        a_k = e_k / (kappa + 1j * delta)
        g0 = single_photon_coupling(params, br)
        amps.append(a_k)
        g_eff.append(np.sqrt(2.0) * g0 * abs(a_k))
        q_s += g0 * abs(a_k) ** 2 / params.omega_m
    k = build_drift_matrix(params.omega_m, params.gamma_m, g_eff[0], g_eff[1],
                           params.kappa_b, params.kappa_c,
                           params.Delta_b, params.Delta_c)
    stable, _ = check_stability(k)
    return LinearizedModel(K=k, G_b=g_eff[0], G_c=g_eff[1],
                           a_s=np.array(amps), q_s=q_s, stable=stable)


def n_thermal(params: OptomechParams) -> float:
    """Mean thermal occupation of the mechanical bath."""
    return 1.0 / np.expm1(HBAR * params.omega_m / (KB * params.T))


def _x_coth(x, theta: float):
    """x * coth(theta x / 2) elementwise, series-stabilized through x = 0
    (limit 2/theta)."""
    x = np.asarray(x, dtype=float)
    a = 0.5 * theta * x
    small = np.abs(a) < 1e-4
    return np.where(small, (2.0 / theta) * (1.0 + a * a / 3.0),
                    x / np.tanh(np.where(small, 1.0, a)))


def diffusion_matrix(omega: float, params: OptomechParams) -> np.ndarray:
    """Diagonal noise spectral weights at angular frequency omega (rad/s).

    Mechanical momentum entry gamma_m (omega/omega_m) coth(hbar omega/2kT),
    continuous at omega = 0 with limit 2 gamma_m kB T/(hbar omega_m);
    optical entries are the decay rates, frequency independent.
    """
    theta = HBAR * params.omega_m / (KB * params.T)
    mech = params.gamma_m * _x_coth(omega / params.omega_m, theta)
    return np.diag([0.0, mech, params.kappa_b, params.kappa_b,
                    params.kappa_c, params.kappa_c])


def filter_fourier(omega: float, tau: float, center: float) -> complex:
    """Analysis transform of the causal filter sqrt(2/tau) e^(i center t - t/tau)."""
    return np.sqrt(2.0 / tau) / (1.0 / tau + 1j * (center - omega))


def filter_transfer(omega: float, params: OptomechParams,
                    branch: str) -> np.ndarray:
    """Frequency-domain 2x2 quadrature block of one branch's output filter,
    including the sqrt(2 kappa) input-output prefactor.

    The time-domain kernel is real, built from Re h(t) and Im h(t); their
    transforms are h_plus = (h(w) + h(-w)*)/2 and h_minus = (h(w) - h(-w)*)/2i,
    so the block is complex at real frequencies.
    """
    _, _, kappa, _, center, tau = params.branch(branch)
    h_here = filter_fourier(omega, tau, center)
    h_conj = np.conj(filter_fourier(-omega, tau, center))
    hp = 0.5 * (h_here + h_conj)
    hm = (h_here - h_conj) / 2j
    return np.sqrt(2.0 * kappa) * np.array([[hp, -hm], [hm, hp]])


def default_window(params: OptomechParams) -> float:
    """Integration half-window in units of omega_m.

    Covers the resonances and filter bandwidths (20x rule) and the thermal
    plateau of the Brownian noise, whose coth crossover sits at
    2 kB T / hbar, far above the mechanical frequency at cryogenic
    temperatures but cheap to include.
    """
    w = params.omega_m
    theta = HBAR * w / (KB * params.T)
    rates = max(params.kappa_b / w, params.kappa_c / w,
                1.0 / (params.tau_b * w), 1.0 / (params.tau_c * w))
    detunings = max(abs(params.Delta_b), abs(params.Delta_c)) / w
    return max(50.0, 20.0 * rates + detunings, 3.2 / theta)


def _stable_model(params: OptomechParams) -> LinearizedModel:
    """steady_state, raising StabilityError for an unstable drift matrix."""
    model = steady_state(params)
    if not model.stable:
        _, absc = check_stability(model.K)
        raise StabilityError(
            f"drift matrix unstable: spectral abscissa {absc:.6e} rad/s")
    return model


def _fastest_rate(params: OptomechParams, model: LinearizedModel) -> float:
    """Largest rate or frequency of the cavities, couplings and filters in
    units of omega_m, at least 1 (the mechanical frequency itself)."""
    rates = (params.kappa_b, params.kappa_c, 1.0 / params.tau_b,
             1.0 / params.tau_c, abs(params.Delta_b), abs(params.Delta_c),
             abs(params.Omega_b), abs(params.Omega_c), model.G_b, model.G_c)
    return max(1.0, max(rates) / params.omega_m)


def _extended_drift(params: OptomechParams,
                    model: LinearizedModel) -> np.ndarray:
    """10x10 drift A = [[K, 0], [C, R]] over (q, p, x_b, y_b, x_c, y_c, f_b,
    f_c) in units of omega_m. Each filter pair obeys
    df/dt = R f + sqrt(2/tau) a_out with a_out = sqrt(2 kappa) a - a_in."""
    w_m = params.omega_m
    a = np.zeros((10, 10))
    a[:6, :6] = model.K / w_m
    for k, branch in enumerate("bc"):
        _, _, kappa, _, center, tau = params.branch(branch)
        kappa, center, tau = kappa / w_m, center / w_m, tau * w_m
        cav = slice(2 + 2 * k, 4 + 2 * k)
        filt = slice(6 + 2 * k, 8 + 2 * k)
        a[filt, filt] = [[-1.0 / tau, center], [-center, -1.0 / tau]]
        a[filt, cav] = np.sqrt(2.0 / tau) * np.sqrt(2.0 * kappa) * np.eye(2)
    return a


# every filter block -(1/tau) I + Omega J is normal, with the unitary
# eigenvectors (1, +i)/sqrt(2) and (1, -i)/sqrt(2) (eigenvalues
# -1/tau +- i Omega), so the two blocks share one fixed eigenbasis
_FILTER_BASIS = np.kron(np.eye(2),
                        np.array([[1.0, 1.0], [1.0j, -1.0j]]) / math.sqrt(2.0))


def _lyapunov(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """U with A U + U A^T + S = 0 for symmetric S and an extended drift
    A = [[K, 0], [C, R]] (see _extended_drift).

    A is block lower triangular, so the solve splits (Bartels & Stewart):
    the 6x6 system block is one Kronecker solve, and the 4x6 cross block
    and the 4x4 filter block are diagonal in the filters' eigenbasis.
    K is never eigendecomposed; its eigenvectors can be ill-conditioned.
    """
    k, c = a[:6, :6], a[6:, :6]
    lam = np.array([a[6, 6] + 1j * a[6, 7], a[6, 6] - 1j * a[6, 7],
                    a[8, 8] + 1j * a[8, 9], a[8, 8] - 1j * a[8, 9]])
    q = _FILTER_BASIS
    eye = np.eye(6)
    # K U11 + U11 K^T = -S11; k4 is kron(K, I) as a 6x6x6x6 array and
    # its index swap kron(I, K)
    k4 = k[:, None, :, None] * eye[None, :, None, :]
    u11 = np.linalg.solve((k4 + k4.transpose(1, 0, 3, 2)).reshape(36, 36),
                          -s[:6, :6].ravel()).reshape(6, 6)
    # R U21 + U21 K^T = -(S21 + C U11); row i of Q^H U21 solves
    # (K + lam_i) y_i = -g_i
    g = q.conj().T @ (s[6:, :6] + c @ u11)
    y = np.linalg.solve(k + lam[:, None, None] * eye, -g[:, :, None])
    u21 = (q @ y[:, :, 0]).real
    # R U22 + U22 R^T = -H, with R^T = conj(Q) Lam Q^T
    h = s[6:, 6:] + c @ u21.T + u21 @ c.T
    z = -(q.conj().T @ h @ q.conj()) / (lam[:, None] + lam[None, :])
    u22 = (q @ z @ q.T).real
    return np.block([[u11, u21.T], [u21, u22]])


@functools.cache
def _gauss_rules() -> tuple:
    """Gauss-Legendre rules of the scalar integral: the 20-node sum is the
    value and its distance from the 10-node sum the error estimate. Returns
    both rules' nodes as one concatenated set, then each rule's weights.
    numpy.polynomial loads on first use, so importing cvswap stays cheap."""
    from numpy.polynomial.legendre import leggauss

    fine, coarse = leggauss(20), leggauss(10)
    return np.concatenate([fine[0], coarse[0]]), fine[1], coarse[1]


def _excess_integral(gam: float, theta: float, half_width: float,
                     rtol: float, panel_limit: int) -> float:
    """(1/pi) times the integral over [0, half_width] of the Brownian excess
    gam (w coth(theta w / 2) - coth(theta / 2)) against 1/(1 + w^2).

    Composite Gauss-Legendre on at most panel_limit geometric panels
    [0, 1], [1, 4], ..., [., half_width]. Raises QuadratureConvergenceError
    when the error estimate exceeds ten times max(QUAD_ATOL, rtol |value|).
    """
    coth0 = 1.0 / math.tanh(0.5 * theta)
    edges = [0.0]
    edge = 1.0
    while edge < half_width and len(edges) < panel_limit:
        edges.append(edge)
        edge *= 4.0
    edges = np.array(edges + [half_width])
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]

    def excess(w: np.ndarray) -> np.ndarray:
        return gam * (_x_coth(w, theta) - coth0) / (1.0 + w * w) / math.pi

    nodes, w_fine, w_coarse = _gauss_rules()
    f = half * excess(mid + half * nodes)
    fine, coarse = f[:, :20] @ w_fine, f[:, 20:] @ w_coarse
    value = float(np.sum(fine))
    err = float(np.sum(np.abs(fine - coarse)))
    target = max(QUAD_ATOL, rtol * abs(value))
    if err > 10.0 * target:
        raise QuadratureConvergenceError(
            f"achieved error estimate {err:.3e} exceeds target {target:.3e}")
    return value


def output_cm(params: OptomechParams, rtol: float = DEFAULT_RTOL,
              window: float | None = None,
              quad_limit: int | None = None) -> TripartiteCM:
    """Stationary CM of (mechanical, filtered b output, filtered c output).

    Each causal filter is itself a linear mode driven by its branch's
    output field, so the six system quadratures plus the two filter
    quadrature pairs form a 10-mode linear system (units of omega_m)

        d/dt (x, f) = A (x, f) + B noise,   A = [[K, 0], [C, R]],

    whose stationary CM solves A V + V A^T + B D B^T = 0. The solve runs on
    U = V - V_vac, with the exact vacuum 1/2 of every optical and filter
    quadrature taken out: the optical noise cancels against it
    analytically, so undriven outputs come out as exact vacuum.

    The Brownian spectrum gamma w coth(theta w / 2) is not white. Its
    excess over the white level gamma coth(theta / 2) is
    (gamma theta / 6)(w^2 - 1) wherever the system responds, and a w^2
    noise spectrum is itself a Lyapunov source, so the excess rides in the
    same solve. That form needs theta times the system's fastest rate to be
    small (kB T well above hbar times it); above
    CLOSED_FORM_MAX_THETA_RATE, output_cm returns spectral_output_cm
    instead, so the closed form is never used outside its range.

    The momentum variance alone keeps a weak dependence on the far tail;
    it gets the scalar integral of the exact excess against the asymptotic
    response 1/(1 + w^2) out to the window. The spectral integral stops at
    the window, so the parts of the solve beyond it are taken out in
    closed form from the response's high-frequency expansion, and the
    result matches spectral_output_cm.

    The solve (_lyapunov) and the scalar integral (_excess_integral) use
    numpy alone; scipy loads only above the closed form's range.

    window is the half-width in units of omega_m (defaults to
    default_window). rtol is the scalar integral's relative target, with
    an absolute floor of QUAD_ATOL, and quad_limit caps its number of
    Gauss-Legendre panels (PANEL_LIMIT when None). Above the closed form's
    range both go to the spectral quadrature instead, quad_limit as its
    subinterval limit.

    Raises StabilityError for an unstable drift matrix and
    QuadratureConvergenceError when the scalar integral (or, above the
    closed form's range, the spectral quadrature) misses its target.
    """
    model = _stable_model(params)
    theta = HBAR * params.omega_m / (KB * params.T)
    if theta * _fastest_rate(params, model) > CLOSED_FORM_MAX_THETA_RATE:
        return _spectral_cm(params, model, rtol, window, quad_limit)
    gam = 1.0 / params.Q_m
    coth0 = 1.0 / math.tanh(0.5 * theta)
    half_width = float(window) if window is not None else default_window(params)
    a = _extended_drift(params, model)

    # source of the vacuum-shifted solve: white Brownian noise plus the
    # mechanics-cavity terms of A V_vac + V_vac A^T that the optical
    # noise leaves over
    s = np.zeros((10, 10))
    s[1, 1] = gam * coth0
    s[0:2, 2:6] = 0.5 * a[0:2, 2:6]
    s[2:6, 0:2] = s[0:2, 2:6].T
    # Brownian excess (gam theta / 6)(w^2 - 1) on p: with the response
    # m = (iw - A)^-1 e_p, iw m = e_p + A m turns the w^2 part into the
    # source -(A^2 e_p e_p^T + e_p e_p^T A^2T) / 2 plus a divergent
    # e_p e_p^T integral, which the momentum correction below replaces
    curvature = gam * theta / 6.0
    a2_p = a @ a[:, 1]
    s[:, 1] -= 0.5 * curvature * a2_p
    s[1, :] -= 0.5 * curvature * a2_p
    s[1, 1] -= curvature
    u = _lyapunov(a, s)
    windowed = _excess_integral(gam, theta, half_width, rtol,
                                PANEL_LIMIT if quad_limit is None
                                else quad_limit)

    # momentum variance: the quadratic excess against
    # |m_p|^2 - 1/(1 + w^2) is the solve's part plus curvature; windowed
    # is the exact excess against 1/(1 + w^2)
    u[1, 1] += curvature + windowed
    # the spectral integral stops at the window. Beyond it
    # Re(m m^H) = e_pp / w^2 + n4 / w^4 + O(w^-6), so the white level and
    # the quadratic excess that the solve holds there are taken out
    e_pp = np.zeros((10, 10))
    e_pp[1, 1] = 1.0
    a_p = a[:, 1]
    n4 = np.outer(a_p, a_p) - np.outer(e_pp[1], a2_p) - np.outer(a2_p, e_pp[1])
    u -= (gam * coth0 * (e_pp / half_width + n4 / (3.0 * half_width ** 3))
          + curvature * (n4 + e_pp) / half_width) / math.pi

    keep = [0, 1, 6, 7, 8, 9]
    cm = u[np.ix_(keep, keep)]
    cm[2:, 2:] += 0.5 * np.eye(4)
    return TripartiteCM.from_matrix(0.5 * (cm + cm.T))


def spectral_output_cm(params: OptomechParams, rtol: float = DEFAULT_RTOL,
                       window: float | None = None) -> TripartiteCM:
    """Spectral-quadrature oracle for output_cm (same result).

    Integrates the noise-spectrum matrix against the filter transfer blocks
    over a symmetric frequency window. The flat optical floor (which alone
    integrates to the vacuum 1/2 by the filter normalization) is taken out
    of the quadrature and added back exactly, so the numerical integrand
    decays fast and the window truncation error sits far below rtol.

    window is the half-width in units of omega_m (defaults to
    default_window); rtol is the relative target, with an absolute floor
    of QUAD_ATOL.

    Raises StabilityError for an unstable drift matrix and
    QuadratureConvergenceError when the integral cannot reach its target or
    the integrand breaks its conjugate symmetry (transform-convention guard).
    """
    return _spectral_cm(params, _stable_model(params), rtol, window, None)


def _spectral_cm(params: OptomechParams, model: LinearizedModel, rtol: float,
                 window: float | None,
                 quad_limit: int | None) -> TripartiteCM:
    # scipy loads here, not at import, so the protocol layer runs without it
    from scipy.integrate import quad_vec

    w_m = params.omega_m
    k = model.K / w_m
    kb = params.kappa_b / w_m
    kc = params.kappa_c / w_m
    half_width = float(window) if window is not None else default_window(params)

    p_floor = np.diag([0.0, 0.0, 0.5 / kb, 0.5 / kb, 0.5 / kc, 0.5 / kc])
    eye6 = np.eye(6)

    def spectrum(w: float) -> np.ndarray:
        resolvent = np.linalg.inv(1j * w * eye6 + k)
        q = diffusion_matrix(w * w_m, params) / w_m
        x = resolvent + p_floor
        core = x @ q @ x.conj().T - p_floor @ q @ p_floor
        t = np.zeros((6, 6), dtype=complex)
        t[0:2, 0:2] = np.eye(2)
        t[2:4, 2:4] = filter_transfer(w * w_m, params, "b")
        t[4:6, 4:6] = filter_transfer(w * w_m, params, "c")
        return t @ core @ t.conj().T

    # the full-line integrand pairs (w, -w) into conjugates, so the value is
    # 2 Re over the half line; verify the pairing instead of assuming it
    residue = 0.0
    for probe in (0.37, 1.0, 0.5 * half_width):
        g_pos = spectrum(probe)
        g_neg = spectrum(-probe)
        scale = max(float(np.max(np.abs(g_pos))), 1e-300)
        residue = max(residue,
                      float(np.max(np.abs(g_neg - np.conj(g_pos)))) / scale)
    if residue > IMAG_RESIDUE_TOL:
        raise QuadratureConvergenceError(
            f"integrand conjugate-symmetry residue {residue:.3e} exceeds "
            f"{IMAG_RESIDUE_TOL}")

    def integrand(w: float) -> np.ndarray:
        return np.real(spectrum(w)) / np.pi

    breakpoints = sorted({1.0, abs(params.Omega_b / w_m),
                          abs(params.Omega_c / w_m),
                          abs(params.Delta_b / w_m),
                          abs(params.Delta_c / w_m)} - {0.0})
    kwargs = {}
    if quad_limit is not None:
        kwargs["limit"] = quad_limit
    res, err = quad_vec(integrand, 0.0, half_width, epsrel=rtol,
                        epsabs=QUAD_ATOL, points=breakpoints, norm="max",
                        quadrature="gk21", **kwargs)
    target = max(QUAD_ATOL, rtol * float(np.max(np.abs(res))))
    if err > 10.0 * target:
        raise QuadratureConvergenceError(
            f"achieved error estimate {err:.3e} exceeds target {target:.3e}")

    # exact integral of the subtracted optical floor: each filter is
    # normalized, so the floor contributes the vacuum variance 1/2
    res = res + np.diag([0.0, 0.0, 0.5, 0.5, 0.5, 0.5])
    cm = 0.5 * (res + res.T)
    return TripartiteCM.from_matrix(cm)