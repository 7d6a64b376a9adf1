"""Convention-fixed Gaussian-state algebra on covariance matrices.

Conventions used throughout the package: hbar = 1, vacuum variance 1/2,
[x, p] = i, quadrature ordering x1, p1, ..., xN, pN. A state is entangled
across a bipartition iff the minimum symplectic eigenvalue of the partially
transposed CM drops below 1/2, and the logarithmic negativity is
E_N = max(0, -ln 2*eta_minus).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# physicality slack for eigenvalue checks; symmetry is held much tighter
PHYSICALITY_TOL = 1e-9
SYMMETRY_TOL = 1e-12

# largest gap (relative) between the moduli of a +/- eigenvalue pair of iJV
PAIRING_TOL = 1e-9

# measured quadrature variance below this is a degenerate homodyne
DEGENERACY_TOL = 1e-14

_J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


class StateValidationError(ValueError):
    """Covariance matrix violates symmetry or the uncertainty principle."""


class DegenerateMeasurementError(ValueError):
    """Homodyne on a quadrature with (near-)zero variance."""


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form, one [[0,1],[-1,0]] block per mode."""
    if n_modes < 1:
        raise ValueError(f"n_modes must be positive, got {n_modes}")
    return np.kron(np.eye(n_modes), _J2)


def min_physicality_eigenvalue(cm: np.ndarray) -> float:
    """Minimum eigenvalue of the Hermitian matrix cm + (i/2) J.

    Non-negative (up to PHYSICALITY_TOL) iff cm is a valid quantum CM.
    """
    if cm.size == 0:
        return 0.0
    n = cm.shape[0] // 2
    h = cm + 0.5j * symplectic_form(n)
    return float(np.linalg.eigvalsh(h)[0])


@dataclass(frozen=True)
class GaussianState:
    """N-mode Gaussian state: 2N x 2N covariance matrix plus mean vector."""

    cm: np.ndarray
    mean: np.ndarray

    def __post_init__(self):
        cm = np.asarray(self.cm, dtype=float)
        mean = np.asarray(self.mean, dtype=float)
        if cm.ndim != 2 or cm.shape[0] != cm.shape[1] or cm.shape[0] % 2:
            raise StateValidationError(f"cm must be 2N x 2N, got {cm.shape}")
        if mean.shape != (cm.shape[0],):
            raise StateValidationError(
                f"mean shape {mean.shape} does not match cm {cm.shape}")
        defect = float(np.max(np.abs(cm - cm.T))) if cm.size else 0.0
        if defect > SYMMETRY_TOL:
            raise StateValidationError(f"cm asymmetric: defect {defect:.3e}")
        phys = min_physicality_eigenvalue(cm)
        if phys < -PHYSICALITY_TOL:
            raise StateValidationError(
                f"cm unphysical: min eigenvalue of cm + iJ/2 is {phys:.3e}")
        cm.setflags(write=False)
        mean.setflags(write=False)
        object.__setattr__(self, "cm", cm)
        object.__setattr__(self, "mean", mean)

    @property
    def n_modes(self) -> int:
        return self.cm.shape[0] // 2


def vacuum_state(n_modes: int) -> GaussianState:
    return GaussianState(0.5 * np.eye(2 * n_modes), np.zeros(2 * n_modes))


def thermal_state(nbar, n_modes: int | None = None) -> GaussianState:
    """Thermal state; nbar is a scalar or one occupation per mode."""
    occ = np.atleast_1d(np.asarray(nbar, dtype=float))
    if n_modes is not None and occ.size == 1:
        occ = np.full(n_modes, occ[0])
    if np.any(occ < 0):
        raise ValueError("thermal occupation must be >= 0")
    diag = np.repeat(occ + 0.5, 2)
    return GaussianState(np.diag(diag), np.zeros(diag.size))


def two_mode_squeezed_state(r: float) -> GaussianState:
    """Two-mode squeezed vacuum with squeezing parameter r (E_N = 2r)."""
    ch, sh = np.cosh(2 * r), np.sinh(2 * r)
    z = np.diag([1.0, -1.0])
    i2 = np.eye(2)
    cm = 0.5 * np.block([[ch * i2, sh * z], [sh * z, ch * i2]])
    return GaussianState(cm, np.zeros(4))


@dataclass(frozen=True)
class ValidityReport:
    min_physicality_eigenvalue: float
    symmetry_defect: float
    passed: bool


def validate_state(state) -> ValidityReport:
    """Check symmetry and the uncertainty principle.

    Accepts a GaussianState or a raw CM; the raw form exists so that
    matrices which would be rejected by the GaussianState constructor can
    still be reported on.
    """
    cm = state.cm if isinstance(state, GaussianState) else state
    cm = np.asarray(cm, dtype=float)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1] or cm.shape[0] % 2:
        raise ValueError(f"cm must be 2N x 2N, got {cm.shape}")
    defect = float(np.max(np.abs(cm - cm.T)))
    # symmetrize before the eigenvalue check so the report isolates physicality
    sym = 0.5 * (cm + cm.T)
    phys = min_physicality_eigenvalue(sym)
    passed = defect <= SYMMETRY_TOL and phys >= -PHYSICALITY_TOL
    return ValidityReport(phys, defect, passed)


def _mode_indices(modes) -> np.ndarray:
    modes = list(modes)
    return np.array([2 * m + k for m in modes for k in (0, 1)])


def partial_trace(state: GaussianState, keep) -> GaussianState:
    """Restrict to the kept modes (ordering preserved)."""
    keep = list(keep)
    if not keep:
        raise ValueError("keep must be nonempty")
    n = state.n_modes
    if any(m < 0 or m >= n for m in keep):
        raise ValueError(f"mode index out of range for {n}-mode state: {keep}")
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate mode index in {keep}")
    idx = _mode_indices(keep)
    return GaussianState(state.cm[np.ix_(idx, idx)], state.mean[idx])


def purity(state: GaussianState, modes=None) -> float:
    """mu = 1 / (2^N sqrt(det V)) of the reduced state on the given modes."""
    if modes is not None:
        state = partial_trace(state, modes)
    n = state.n_modes
    det = float(np.linalg.det(state.cm))
    if det <= 0:
        raise ValueError(f"non-positive CM determinant {det:.3e}")
    return 1.0 / (2.0 ** n * np.sqrt(det))


@dataclass(frozen=True)
class Bipartition:
    """Two disjoint ordered groups of mode indices."""

    party_a: tuple
    party_b: tuple

    def __post_init__(self):
        a = tuple(self.party_a)
        b = tuple(self.party_b)
        if set(a) & set(b):
            raise ValueError(f"parties overlap: {sorted(set(a) & set(b))}")
        if len(set(a)) != len(a) or len(set(b)) != len(b):
            raise ValueError("duplicate mode index within a party")
        if any(m < 0 for m in a + b):
            raise ValueError("negative mode index")
        object.__setattr__(self, "party_a", a)
        object.__setattr__(self, "party_b", b)


def partial_transpose(cm: np.ndarray, bipartition: Bipartition) -> np.ndarray:
    """Flip the sign of p on every party-b mode: P V P with P = +/-1 diagonal."""
    cm = np.asarray(cm, dtype=float)
    n = cm.shape[0] // 2
    covered = set(bipartition.party_a) | set(bipartition.party_b)
    if covered != set(range(n)):
        raise ValueError(
            f"bipartition {sorted(covered)} does not cover modes 0..{n - 1}")
    p = np.ones(2 * n)
    for m in bipartition.party_b:
        p[2 * m + 1] = -1.0
    return cm * np.outer(p, p)


def symplectic_eigenvalues(cm: np.ndarray) -> np.ndarray:
    """Moduli of the +/- conjugate eigenvalue pairs of iJ.cm, sorted ascending."""
    cm = np.asarray(cm, dtype=float)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1] or cm.shape[0] % 2:
        raise ValueError(f"cm must be 2N x 2N, got {cm.shape}")
    n = cm.shape[0] // 2
    ev = np.linalg.eigvals(1j * symplectic_form(n) @ cm)
    mods = np.sort(np.abs(ev))
    paired = mods.reshape(n, 2)
    gap = float(np.max(np.abs(paired[:, 0] - paired[:, 1]))) if n else 0.0
    scale = max(1.0, float(mods[-1])) if n else 1.0
    if gap > PAIRING_TOL * scale:
        raise ValueError(f"eigenvalues of iJV fail to pair: gap {gap:.3e}")
    return paired.mean(axis=1)


def _min_pts_two_mode(cm: np.ndarray) -> float:
    # closed form: Sigma = det A + det B - 2 det C on the PT'd state, i.e.
    # the -2 det C sign flip relative to the ordinary symplectic invariant
    a = cm[0:2, 0:2]
    b = cm[2:4, 2:4]
    c = cm[0:2, 2:4]
    sigma = np.linalg.det(a) + np.linalg.det(b) - 2.0 * np.linalg.det(c)
    det = np.linalg.det(cm)
    rad = max(sigma * sigma - 4.0 * det, 0.0)
    val = max((sigma - np.sqrt(rad)) / 2.0, 0.0)
    return float(np.sqrt(val))


def min_pts_eigenvalue(cm: np.ndarray, bipartition: Bipartition) -> float:
    """Minimum symplectic eigenvalue of the partially transposed CM."""
    cm = np.asarray(cm, dtype=float)
    covered = set(bipartition.party_a) | set(bipartition.party_b)
    if cm.shape[0] == 4 and len(bipartition.party_a) == 1 \
            and len(bipartition.party_b) == 1 and covered == {0, 1}:
        return _min_pts_two_mode(cm)
    pt = partial_transpose(cm, bipartition)
    return float(symplectic_eigenvalues(pt)[0])


def log_negativity(cm: np.ndarray, bipartition: Bipartition) -> float:
    eta = min_pts_eigenvalue(cm, bipartition)
    return max(0.0, -np.log(2.0 * eta))


def beam_splitter(state: GaussianState, i: int, j: int) -> GaussianState:
    """Balanced beam splitter; mode i carries the minus combination,
    mode j the plus combination: x_i -> (x_j - x_i)/sqrt(2), x_j -> (x_j + x_i)/sqrt(2).
    """
    n = state.n_modes
    if i == j:
        raise ValueError("beam splitter needs two distinct modes")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"mode index out of range for {n}-mode state")
    s = np.eye(2 * n)
    inv = 1.0 / np.sqrt(2.0)
    ii, jj = slice(2 * i, 2 * i + 2), slice(2 * j, 2 * j + 2)
    s[ii, ii] = -inv * np.eye(2)
    s[ii, jj] = inv * np.eye(2)
    s[jj, ii] = inv * np.eye(2)
    s[jj, jj] = inv * np.eye(2)
    cm = s @ state.cm @ s.T
    return GaussianState(0.5 * (cm + cm.T), s @ state.mean)


def homodyne_condition(state: GaussianState, mode: int, quadrature: str,
                       outcome: float = 0.0) -> GaussianState:
    """Condition on a homodyne measurement of x or p on one mode.

    The measured mode is removed. The conditional CM is the Schur complement
    against the measured quadrature's scalar variance and does not depend on
    the outcome; the conditional mean does, so an outcome (default 0) is
    accepted to keep the mean exact.
    """
    n = state.n_modes
    if n < 2:
        raise ValueError("conditioning needs at least one unmeasured mode")
    if not 0 <= mode < n:
        raise ValueError(f"mode index out of range for {n}-mode state")
    if quadrature not in ("x", "p"):
        raise ValueError(f"quadrature must be 'x' or 'p', got {quadrature!r}")
    idx = 2 * mode + (0 if quadrature == "x" else 1)
    var = float(state.cm[idx, idx])
    if var < DEGENERACY_TOL:
        raise DegenerateMeasurementError(
            f"measured quadrature variance {var:.3e} below {DEGENERACY_TOL}")
    keep = [k for k in range(2 * n) if k // 2 != mode]
    cross = state.cm[keep, idx]
    cm = state.cm[np.ix_(keep, keep)] - np.outer(cross, cross) / var
    mean = state.mean[keep] + cross * (outcome - state.mean[idx]) / var
    return GaussianState(0.5 * (cm + cm.T), mean)


def write_matrix(path, matrix) -> None:
    """Plain-text matrix dump: one row per line, 17 significant digits."""
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    with open(path, "w", encoding="utf-8") as fh:
        for row in m:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def read_matrix(path) -> np.ndarray:
    """Read a matrix written by write_matrix."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(tok) for tok in line.split()])
    if not rows:
        raise ValueError(f"empty matrix file: {path}")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"ragged rows in matrix file: {path}")
    return np.array(rows)
