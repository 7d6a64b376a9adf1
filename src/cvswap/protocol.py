"""Certified continuous-variable entanglement swapping on covariance matrices.

Two sites each hold a tripartite Gaussian state over a remote mode (a), a
Bell mode (b) and a certifying mode (c). The two Bell modes interfere on a
balanced beam splitter; x is measured on the minus output and p on the plus
output. Conditioned on the outcomes, entanglement appears between the two
remote modes and, independently measurable, between the two certifying
modes. The certifying entanglement lower-bounds the remote entanglement
when the input states satisfy chi < 1.

All closed forms here were checked against the generic beam-splitter +
homodyne conditioning path of the gaussian module; the internal mode order
after the swap is (a1, a2, c1, c2) everywhere.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import gaussian
from .gaussian import Bipartition, GaussianState

Z = np.diag([1.0, -1.0])

# |det M| below this means the summed Bell block cannot be inverted
SINGULAR_M_TOL = 1e-12

# zero-pattern tolerance for the standard-form predicate
STANDARD_FORM_TOL = 1e-9

# strict-inequality slack for the purity classifier (relative)
CLASSIFY_REL_TOL = 1e-9

# Bell outcomes drawn per batch by bell_outcome_sampler
SAMPLER_CHUNK = 8192

# quadratures of the a, b and c modes, and the rows and columns of each
# upper block of the 6x6
_A, _B, _C = slice(0, 2), slice(2, 4), slice(4, 6)
_BLOCK_SLICES = {"R": (_A, _A), "D": (_A, _B), "F": (_A, _C),
                 "B": (_B, _B), "E": (_B, _C), "C": (_C, _C)}

# quadratures of a site's remote and certifying modes, their rows in the
# internal (a1, a2, c1, c2) order after the swap for sites 1 and 2, and the
# matching index grids of their covariance blocks
_AC = np.array([0, 1, 4, 5])
_SITE_ROWS = (_AC, _AC + 2)
_AC_GRID = np.ix_(_AC, _AC)
_SITE_GRIDS = tuple(np.ix_(rows, rows) for rows in _SITE_ROWS)


class SingularBellBlockError(ValueError):
    """B1 + Z B2 Z is numerically singular; the protocol degenerates."""


class NotStandardFormError(ValueError):
    """Input CM does not match the standard-form zero pattern."""


@dataclass(frozen=True)
class TripartiteCM:
    """6x6 CM over (remote a, Bell b, certifying c), stored as 2x2 blocks.

    Layout: rows/cols (a, b, c) with upper blocks R=Cov(a,a), D=Cov(a,b),
    F=Cov(a,c), B=Cov(b,b), E=Cov(b,c), C=Cov(c,c). The 6x6 is assembled
    and validated once; matrix() and the blocks are read-only views of it.
    """

    R: np.ndarray
    D: np.ndarray
    F: np.ndarray
    B: np.ndarray
    E: np.ndarray
    C: np.ndarray
    _cm: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = []
        for name in _BLOCK_SLICES:
            m = np.asarray(getattr(self, name), dtype=float)
            if m.shape != (2, 2):
                raise ValueError(f"block {name} must be 2x2, got {m.shape}")
            blocks.append(m)
        r, d, f, b, e, c = blocks
        # lower blocks are the transposes by construction, so any asymmetry
        # in R, B, C surfaces in the GaussianState symmetry check, which
        # also validates physicality and makes the matrix read-only
        cm = GaussianState(np.block([[r, d, f], [d.T, b, e], [f.T, e.T, c]]),
                           np.zeros(6)).cm
        object.__setattr__(self, "_cm", cm)
        for name, (rows, cols) in _BLOCK_SLICES.items():
            object.__setattr__(self, name, cm[rows, cols])

    def matrix(self) -> np.ndarray:
        """The validated 6x6 (read-only)."""
        return self._cm

    @classmethod
    def from_matrix(cls, cm: np.ndarray) -> "TripartiteCM":
        cm = np.asarray(cm, dtype=float)
        if cm.shape != (6, 6):
            raise ValueError(f"tripartite CM must be 6x6, got {cm.shape}")
        return cls(**{name: cm[rows, cols]
                      for name, (rows, cols) in _BLOCK_SLICES.items()})


@dataclass(frozen=True)
class GainMatrices:
    """Per-mode 2x2 gains for the outcome-conditioned displacements.

    The textbook protocol uses diagonal gains (one scalar per quadrature);
    optimal gains for inputs away from the standard form are full 2x2, so
    the diagonal property is exposed as a predicate rather than enforced.
    """

    G_a1: np.ndarray
    G_a2: np.ndarray
    G_c1: np.ndarray
    G_c2: np.ndarray

    def __post_init__(self):
        for name in ("G_a1", "G_a2", "G_c1", "G_c2"):
            m = np.asarray(getattr(self, name), dtype=float)
            if m.shape != (2, 2):
                raise ValueError(f"gain {name} must be 2x2, got {m.shape}")
            m = m.copy()
            m.setflags(write=False)
            object.__setattr__(self, name, m)

    @classmethod
    def from_diagonals(cls, g_a1, g_a2, g_c1, g_c2) -> "GainMatrices":
        """Build diagonal gains from (x, p) scalar pairs."""
        return cls(*(np.diag(np.asarray(g, dtype=float))
                     for g in (g_a1, g_a2, g_c1, g_c2)))

    @classmethod
    def zero(cls) -> "GainMatrices":
        z = np.zeros((2, 2))
        return cls(z, z, z, z)

    def is_diagonal(self, tol: float = 1e-12) -> bool:
        return all(
            abs(g[0, 1]) <= tol and abs(g[1, 0]) <= tol
            for g in (self.G_a1, self.G_a2, self.G_c1, self.G_c2))

    def stacked(self) -> np.ndarray:
        return np.vstack([self.G_a1, self.G_a2, self.G_c1, self.G_c2])


@dataclass(frozen=True)
class BellOutcome:
    """Homodyne results (x on the minus output, p on the plus output)."""

    beta: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.beta, dtype=float).reshape(2)
        b.setflags(write=False)
        object.__setattr__(self, "beta", b)


class ProtocolClass(enum.Enum):
    Certifiable = 1
    NotCertifiable = 2
    WrongSwapping = 3
    NoSwapping = 4


@dataclass(frozen=True)
class SwapOutput:
    """Post-measurement 4-mode state over (a1, a2, c1, c2)."""

    V_R: np.ndarray
    V_C: np.ndarray
    V_X: np.ndarray
    cm: np.ndarray
    eta_remote: float
    eta_certifying: float
    E_N_remote: float
    E_N_certifying: float


def _bell_inverse(V1: TripartiteCM, V2: TripartiteCM) -> tuple:
    m = V1.B + Z @ V2.B @ Z
    if abs(np.linalg.det(m)) <= SINGULAR_M_TOL:
        raise SingularBellBlockError(
            f"det(B1 + Z B2 Z) = {np.linalg.det(m):.3e}")
    return m, np.linalg.inv(m)


def _bell_terms(V1: TripartiteCM, V2: TripartiteCM) -> tuple:
    """(P, L, M, W) of the Bell measurement, over (a1, a2, c1, c2).

    P is the 8x8 CM of the unmeasured modes (R, F and C of each site) and
    L = [D1; -D2 Z; E1^T; -E2^T Z] = -sqrt(2) Cov(., (x_minus, p_plus)) Z
    their coupling to the measured pair, so conditioning on the outcome is
    the Schur complement P - L W L^T with W = M^-1, M = B1 + Z B2 Z.
    """
    m, w = _bell_inverse(V1, V2)
    p = np.zeros((8, 8))
    l = np.empty((8, 2))
    for rows, grid, V, z in zip(_SITE_ROWS, _SITE_GRIDS, (V1, V2),
                                (np.eye(2), -Z)):
        p[grid] = V.matrix()[_AC_GRID]
        l[rows] = V.matrix()[_AC, 2:4] @ z
    return p, l, m, w


def optimal_gains(V1: TripartiteCM, V2: TripartiteCM) -> GainMatrices:
    """Gains that cancel the conditional means for every Bell outcome.

    These reduce to the familiar diagonal expressions (-D/(2b) style) when
    both inputs are in standard form; in general they are full 2x2.
    """
    _, l, _, w = _bell_terms(V1, V2)
    g = -l @ w
    return GainMatrices(g[0:2], g[2:4], g[4:6], g[6:8])


def _displacement_map(V1: TripartiteCM, V2: TripartiteCM,
                      gains: GainMatrices) -> np.ndarray:
    """8x2 map from the outcome pair to the gain-displaced conditional mean:
    the conditional mean -sqrt(2) L W Z plus the displacement -sqrt(2) G Z.
    """
    _, l, _, w = _bell_terms(V1, V2)
    return -np.sqrt(2.0) * (l @ w + gains.stacked()) @ Z


def displaced_first_moment(V1: TripartiteCM, V2: TripartiteCM,
                           gains: GainMatrices,
                           outcome: BellOutcome) -> np.ndarray:
    """Mean of the gain-displaced conditional state for one Bell outcome.

    Ordering is the internal (a1, a2, c1, c2); some references print the
    same vector in the order (a1, c1, c2, a2), i.e. rows permuted by
    [0, 3, 1, 2] at the mode level. Each mode's displacement is
    -sqrt(2) G Z beta, so the result is identically zero at optimal gains.
    """
    return _displacement_map(V1, V2, gains) @ outcome.beta


def conditional_output_cm(V1: TripartiteCM, V2: TripartiteCM) -> SwapOutput:
    """Post-measurement CM over (a1, a2, c1, c2), outcome independent."""
    p, l, _, w = _bell_terms(V1, V2)
    cm = p - l @ w @ l.T
    cm = 0.5 * (cm + cm.T)
    # construction doubles as the physicality check on the output
    GaussianState(cm, np.zeros(8))
    v_r, v_c = cm[0:4, 0:4], cm[4:8, 4:8]
    split = Bipartition((0,), (1,))
    eta_r = gaussian.min_pts_eigenvalue(v_r, split)
    eta_c = gaussian.min_pts_eigenvalue(v_c, split)
    return SwapOutput(
        V_R=v_r, V_C=v_c, V_X=cm[0:4, 4:8], cm=cm,
        eta_remote=eta_r, eta_certifying=eta_c,
        E_N_remote=max(0.0, -np.log(2.0 * eta_r)),
        E_N_certifying=max(0.0, -np.log(2.0 * eta_c)),
    )


def ensemble_output_blocks(V1: TripartiteCM, V2: TripartiteCM,
                           gains: GainMatrices) -> tuple:
    """Ensemble-averaged remote and certifying 4x4 blocks for any gains.

    Averaging the gain-displaced conditional states over the Bell outcome
    distribution adds the covariance of the residual displacement; the
    result collapses onto the conditional blocks exactly at optimal gains.
    """
    p, l, m, _ = _bell_terms(V1, V2)
    g = gains.stacked()
    cm = p + g @ m @ g.T + g @ l.T + l @ g.T
    cm = 0.5 * (cm + cm.T)
    return cm[0:4, 0:4], cm[4:8, 4:8]


def bell_outcome_covariance(V1: TripartiteCM, V2: TripartiteCM) -> np.ndarray:
    """2x2 covariance of the measured pair (x_minus, p_plus): Z M Z / 2."""
    m, _ = _bell_inverse(V1, V2)
    return Z @ m @ Z / 2.0


def bell_outcome_sampler(V1: TripartiteCM, V2: TripartiteCM, seed):
    """Endless deterministic stream of Bell outcomes for the given inputs."""
    cov = bell_outcome_covariance(V1, V2)
    chol = np.linalg.cholesky(cov)
    rng = np.random.default_rng(seed)
    while True:
        draws = rng.standard_normal((SAMPLER_CHUNK, 2)) @ chol.T
        for row in draws:
            yield BellOutcome(row)


@dataclass(frozen=True)
class MonteCarloEstimate:
    cm: np.ndarray
    n_samples: int
    stderr_scale: float


def monte_carlo_ensemble(V1: TripartiteCM, V2: TripartiteCM,
                         gains: GainMatrices, n: int, seed) -> MonteCarloEstimate:
    """Empirical ensemble CM over n sampled gain-displaced conditional states.

    The conditional CM is outcome independent, so the ensemble CM is the
    conditional CM plus the empirical covariance of the displaced means.
    stderr_scale = 5/sqrt(n) is the tolerance used by the convergence tests
    (Frobenius distance scaled by the norm of the target CM).
    """
    if n < 2:
        raise ValueError("need at least 2 samples")
    cov = bell_outcome_covariance(V1, V2)
    chol = np.linalg.cholesky(cov)
    rng = np.random.default_rng(seed)
    total = _displacement_map(V1, V2, gains)  # outcome -> displaced mean
    draws = rng.standard_normal((n, 2)) @ chol.T
    means = draws @ total.T                   # (n, 8)
    centered = means - means.mean(axis=0)
    emp = centered.T @ centered / n
    base = conditional_output_cm(V1, V2).cm
    return MonteCarloEstimate(cm=base + emp, n_samples=n,
                              stderr_scale=5.0 / np.sqrt(n))


def is_standard_form(V: TripartiteCM) -> bool:
    """Zero-pattern predicate: diagonal blocks proportional to identity,
    D diagonal, E upper triangular. (The a-c block F is unconstrained.)
    """
    scale = max(1.0, float(np.max(np.abs(V.matrix()))))
    devs = []
    for blk in (V.R, V.B, V.C):
        devs.append(abs(blk[0, 0] - blk[1, 1]))
        devs.append(abs(blk[0, 1]))
        devs.append(abs(blk[1, 0]))
    devs.append(abs(V.D[0, 1]))
    devs.append(abs(V.D[1, 0]))
    devs.append(abs(V.E[1, 0]))
    return max(devs) <= STANDARD_FORM_TOL * scale


def symmetric_closed_forms(V: TripartiteCM) -> tuple:
    """(eta_R_minus, eta_C_minus, eta_C_plus) for two identical standard-form
    inputs.

    eta_R_minus = sqrt(det V_RB)/b; the certifying pair comes from the
    radical in det V_BC, b, c and the two Bell-certifying covariances e' (p-p)
    and e'' (x_b-p_c). Requires the standard-form zero pattern.
    """
    if not is_standard_form(V):
        raise NotStandardFormError("input fails the standard-form predicate")
    full = V.matrix()
    b = full[2, 2]
    c = full[4, 4]
    ep = V.E[1, 1]
    epp = V.E[0, 1]
    det_rb = float(np.linalg.det(full[0:4, 0:4]))
    det_bc = float(np.linalg.det(full[2:6, 2:6]))
    eta_r = np.sqrt(max(det_rb, 0.0)) / b
    rad = (b * b * c * c - det_bc) ** 2 - (2.0 * b * c * ep * epp) ** 2
    rad = np.sqrt(max(rad, 0.0))
    eta_c_minus = np.sqrt(max(det_bc + b * b * c * c - rad, 0.0) / 2.0) / b
    eta_c_plus = np.sqrt((det_bc + b * b * c * c + rad) / 2.0) / b
    return float(eta_r), float(eta_c_minus), float(eta_c_plus)


def chi(V: TripartiteCM) -> float:
    """Local symplectic invariant sqrt(det V_RB / det V_BC).

    chi < 1 makes the certifying entanglement a lower bound on the remote
    entanglement for standard-form inputs.
    """
    full = V.matrix()
    det_rb = float(np.linalg.det(full[0:4, 0:4]))
    det_bc = float(np.linalg.det(full[2:6, 2:6]))
    if det_bc <= 0.0 or det_rb <= 0.0:
        raise ValueError(
            f"non-positive subsystem determinant: det_RB={det_rb:.3e}, "
            f"det_BC={det_bc:.3e}")
    return float(np.sqrt(det_rb / det_bc))


def purities_triplet(V: TripartiteCM) -> tuple:
    """(mu_B, mu_RB, mu_BC) of the Bell mode and the two pair subsystems,
    mu = 1 / (2^n sqrt(det)) of each principal block of the CM."""
    full = V.matrix()
    return tuple(1.0 / (2.0 ** (len(blk) // 2) * np.sqrt(np.linalg.det(blk)))
                 for blk in (full[2:4, 2:4], full[0:4, 0:4], full[2:6, 2:6]))


def _strictly_greater(a: float, b: float) -> bool:
    return (a - b) > CLASSIFY_REL_TOL * max(abs(a), abs(b))


def classify(V: TripartiteCM) -> ProtocolClass:
    """Four-way classification from the local purities.

    Certifiable     mu_RB > mu_BC > mu_B   swap works, certificate is a
                                           valid lower bound
    NotCertifiable  mu_RB > mu_B >= mu_BC  swap works, certifying pair stays
                                           separable
    WrongSwapping   mu_BC > mu_B, ordering mu_RB > mu_BC fails: the
                                           certificate overstates the swap
    NoSwapping      neither pair beats the Bell-mode purity

    Ties (relative 1e-9) resolve away from Certifiable.
    """
    return classify_from_purities(*purities_triplet(V))


def classify_from_purities(mu_b: float, mu_rb: float,
                           mu_bc: float) -> ProtocolClass:
    """Same decision rule as classify, on already-computed purities."""
    if _strictly_greater(mu_rb, mu_bc) and _strictly_greater(mu_bc, mu_b):
        return ProtocolClass.Certifiable
    if _strictly_greater(mu_rb, mu_b) and not _strictly_greater(mu_bc, mu_b):
        return ProtocolClass.NotCertifiable
    if _strictly_greater(mu_bc, mu_b):
        return ProtocolClass.WrongSwapping
    return ProtocolClass.NoSwapping


def inseparability_bound(mu_x: float, mu_y: float) -> float:
    """Purity threshold: a two-party Gaussian state with marginal purities
    (mu_x, mu_y) is entangled iff its global purity exceeds
    mu_x mu_y / sqrt(mu_x^2 + mu_y^2 - mu_x^2 mu_y^2).
    """
    for v in (mu_x, mu_y):
        if not 0.0 < v <= 1.0 + 1e-12:
            raise ValueError(f"purity out of range (0, 1]: {v}")
    return mu_x * mu_y / np.sqrt(mu_x ** 2 + mu_y ** 2 - (mu_x * mu_y) ** 2)