"""Seeded stream of 6x6 covariance matrices and the check of each result.

The stream comes in blocks of ten: five generic physical states, four
standard-form squeezing-circuit states and one invalid matrix, in a seeded
order. Invalid matrices alternate between an asymmetric one and an
unphysical one; the program must reject both with StateValidationError.

The check does not use the protocol's closed forms: purities come from
determinants, and the swap is rebuilt from the generic beam splitter and
homodyne primitives of ``cvswap.gaussian``.

Only numpy and the program are imported: the set-up that setup_s times
imports this module, and must not pay for imports the program does not
make.
"""
from __future__ import annotations

import numpy as np

from cvswap import gaussian
from cvswap.gaussian import (GaussianState, StateValidationError,
                             beam_splitter, homodyne_condition)

BLOCK = ("generic",) * 5 + ("circuit",) * 4 + ("invalid",)

J3 = np.kron(np.eye(3), np.array([[0.0, 1.0], [-1.0, 0.0]]))
J2 = J3[:4, :4]
Z2 = np.diag([1.0, -1.0])
PT2 = np.diag([1.0, 1.0, 1.0, -1.0])

PURITY_RTOL = 1e-9
SWAP_RTOL = 1e-9
EN_ATOL = 1e-8
MEAN_ATOL = 1e-9


def _symplectic(rng, scale=0.4):
    """exp(J H) for a random symmetric H, by eigen-decomposition."""
    h = rng.normal(size=(6, 6))
    w, v = np.linalg.eig(J3 @ (scale * 0.5 * (h + h.T)))
    return ((v * np.exp(w)) @ np.linalg.inv(v)).real


def _thermal_through(s, nu):
    v = s @ np.diag(np.repeat(nu, 2)) @ s.T
    return 0.5 * (v + v.T)


def _tms(i, j, r):
    s = np.eye(6)
    ch, sh = np.cosh(r), np.sinh(r)
    for a, b in ((i, i), (j, j)):
        s[2 * a:2 * a + 2, 2 * b:2 * b + 2] = ch * np.eye(2)
    for a, b in ((i, j), (j, i)):
        s[2 * a:2 * a + 2, 2 * b:2 * b + 2] = sh * Z2
    return s


def generic_state(rng):
    return _thermal_through(_symplectic(rng), 0.5 + rng.uniform(0.0, 2.0, 3))


def circuit_state(rng):
    """Thermal inputs through TMS(a, b) then TMS(b, c): standard form."""
    s = _tms(1, 2, rng.uniform(0.1, 1.2)) @ _tms(0, 1, rng.uniform(0.1, 1.2))
    return _thermal_through(s, 0.5 + rng.uniform(0.0, 0.4, 3))


def invalid_state(rng, asymmetric: bool):
    if asymmetric:
        # inside the Bell block: from_matrix reads only the upper blocks,
        # so an asymmetry between off-diagonal blocks would not survive
        v = generic_state(rng)
        v[2, 3] += 1e-6
        return v
    # symplectic eigenvalues below 0.45 after halving: violates V + iJ/2 >= 0
    return 0.5 * _thermal_through(_symplectic(rng),
                                  0.5 + rng.uniform(0.0, 0.4, 3))


def stream(seed: int):
    """Endless (kind, matrix, Bell outcome) triples; same seed, same stream."""
    rng = np.random.default_rng(seed)
    block = 0
    while True:
        for kind in rng.permutation(BLOCK):
            if kind == "generic":
                m = generic_state(rng)
            elif kind == "circuit":
                m = circuit_state(rng)
            else:
                m = invalid_state(rng, asymmetric=block % 2 == 0)
            yield str(kind), m, rng.normal(scale=1.5, size=2)
        block += 1


def process(protocol, m):
    """The library path of one state, as the README describes it.

    Names are looked up on the module at call time so that the traced pass
    sees its wrappers.
    """
    v = protocol.TripartiteCM.from_matrix(m)
    mu = protocol.purities_triplet(v)
    klass = protocol.classify_from_purities(*mu)
    ratio = protocol.chi(v)
    swap = protocol.conditional_output_cm(v, v)
    gains = protocol.optimal_gains(v, v)
    return mu, klass, ratio, swap, gains


def _oracle_swap(m, beta):
    """Bell measurement on two copies through the generic primitives.

    Sites joined as (a1, b1, c1, a2, b2, c2); x measured on the minus
    output, p on the plus output; survivors reordered to (a1, a2, c1, c2).
    """
    zero = np.zeros_like(m)
    state = GaussianState(np.block([[m, zero], [zero, m]]), np.zeros(12))
    state = beam_splitter(state, 1, 4)
    state = homodyne_condition(state, 1, "x", beta[0])
    state = homodyne_condition(state, 3, "p", beta[1])
    return gaussian.partial_trace(state, [0, 2, 1, 3])


def _log_negativity(cm4):
    ev = np.linalg.eigvals(1j * J2 @ (PT2 @ cm4 @ PT2))
    return max(0.0, -np.log(2.0 * float(np.min(np.abs(ev)))))


def _rel(a, b):
    return float(np.linalg.norm(a - b)) / max(float(np.linalg.norm(b)), 1e-300)


def check(protocol, kind, m, beta, outcome) -> str | None:
    """Why a processed state is wrong, or None.

    outcome is the tuple process() returned, or the exception it raised.
    """
    if kind == "invalid":
        if isinstance(outcome, StateValidationError):
            return None
        return f"invalid input not rejected: {outcome!r}"[:200]
    if isinstance(outcome, BaseException):
        return f"valid input raised {outcome!r}"[:200]
    mu, klass, ratio, swap, gains = outcome
    mu_b = 1.0 / (2.0 * np.sqrt(np.linalg.det(m[2:4, 2:4])))
    mu_rb = 1.0 / (4.0 * np.sqrt(np.linalg.det(m[0:4, 0:4])))
    mu_bc = 1.0 / (4.0 * np.sqrt(np.linalg.det(m[2:6, 2:6])))
    if _rel(np.array(mu), np.array([mu_b, mu_rb, mu_bc])) > PURITY_RTOL:
        return f"purities {mu} != {(mu_b, mu_rb, mu_bc)}"
    if klass != protocol.classify_from_purities(mu_b, mu_rb, mu_bc):
        return f"class {klass} disagrees with determinant purities"
    if abs(ratio - mu_bc / mu_rb) > PURITY_RTOL * abs(ratio):
        return f"chi {ratio} != {mu_bc / mu_rb}"
    oracle = _oracle_swap(m, beta)
    if _rel(swap.cm, oracle.cm) > SWAP_RTOL:
        return f"swap CM off by {_rel(swap.cm, oracle.cm):.3e}"
    for got, block in ((swap.E_N_remote, oracle.cm[0:4, 0:4]),
                       (swap.E_N_certifying, oracle.cm[4:8, 4:8])):
        want = _log_negativity(block)
        if abs(got - want) > EN_ATOL:
            return f"E_N {got} != {want}"
    displaced = oracle.mean.copy()
    for k, g in enumerate((gains.G_a1, gains.G_a2, gains.G_c1, gains.G_c2)):
        displaced[2 * k:2 * k + 2] -= np.sqrt(2.0) * g @ Z2 @ beta
    if float(np.max(np.abs(displaced))) > MEAN_ATOL * max(
            1.0, float(np.max(np.abs(oracle.mean)))):
        return f"optimal gains leave mean {np.max(np.abs(displaced)):.3e}"
    return None
