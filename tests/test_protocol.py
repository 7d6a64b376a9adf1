import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import cvswap
from cvswap import gaussian
from cvswap.gaussian import Bipartition, GaussianState, StateValidationError
from cvswap.protocol import (BellOutcome, GainMatrices, NotStandardFormError,
                             ProtocolClass, TripartiteCM,
                             bell_outcome_covariance, bell_outcome_sampler,
                             chi, classify, classify_from_purities,
                             conditional_output_cm, displaced_first_moment,
                             ensemble_output_blocks, inseparability_bound,
                             is_standard_form, monte_carlo_ensemble,
                             optimal_gains, purities_triplet,
                             symmetric_closed_forms)
from support import (circuit_standard_state, random_cm, random_symplectic,
                     random_tripartite, swap_via_gaussian, tms_symplectic)


def standard_cm(r, b, c, d, dp, e, ep, f=None):
    """Assemble a standard-form tripartite CM from its scalar entries."""
    v = np.zeros((6, 6))
    v[0:2, 0:2] = r * np.eye(2)
    v[2:4, 2:4] = b * np.eye(2)
    v[4:6, 4:6] = c * np.eye(2)
    v[0:2, 2:4] = np.diag([d, dp])
    v[2:4, 0:2] = np.diag([d, dp])
    v[2:4, 4:6] = np.diag([e, ep])
    v[4:6, 2:4] = np.diag([e, ep])
    if f is not None:
        v[0:2, 4:6] = f
        v[4:6, 0:2] = f.T
    return TripartiteCM.from_matrix(v)


def test_block_roundtrip():
    rng = np.random.default_rng(0)
    v = random_tripartite(rng)
    again = TripartiteCM.from_matrix(v.matrix())
    assert_allclose(again.matrix(), v.matrix(), rtol=0, atol=0)
    assert_allclose(v.matrix()[2:4, 0:2], v.D.T)


def test_blocks_are_read_only_views_of_the_matrix():
    v = random_tripartite(np.random.default_rng(1))
    full = v.matrix()
    assert v.matrix() is full
    assert not full.flags.writeable
    with pytest.raises(ValueError):
        full[0, 0] = 9.0
    for block in (v.R, v.D, v.F, v.B, v.E, v.C):
        assert np.shares_memory(block, full)
        assert not block.flags.writeable


def test_one_validation_per_state(monkeypatch):
    # one pass of the library path validates the input once and the swap
    # output once, not once per helper
    calls = []
    validate = GaussianState.__post_init__

    def counting(self):
        calls.append(self.cm.shape)
        validate(self)

    monkeypatch.setattr(GaussianState, "__post_init__", counting)
    v = TripartiteCM.from_matrix(random_cm(np.random.default_rng(2), 3))
    purities_triplet(v)
    chi(v)
    conditional_output_cm(v, v)
    assert calls == [(6, 6), (8, 8)]


def test_protocol_import_leaves_scipy_unloaded():
    src = str(Path(cvswap.__file__).resolve().parents[1])
    code = "import sys, cvswap.protocol; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_tripartite_rejects_bad_input():
    with pytest.raises(StateValidationError):
        TripartiteCM.from_matrix(0.25 * np.eye(6))
    asym = 0.5 * np.eye(6)
    asym[0, 1] = 1e-3
    with pytest.raises(StateValidationError):
        TripartiteCM.from_matrix(asym)
    with pytest.raises(ValueError):
        TripartiteCM.from_matrix(np.eye(4))


def test_gain_container():
    g = GainMatrices.from_diagonals([1, 2], [3, 4], [5, 6], [7, 8])
    assert g.is_diagonal()
    assert g.stacked().shape == (8, 2)
    assert_allclose(g.stacked()[0:2], np.diag([1.0, 2.0]))
    assert not GainMatrices(np.ones((2, 2)), *[np.zeros((2, 2))] * 3
                            ).is_diagonal()
    assert_allclose(GainMatrices.zero().stacked(), np.zeros((8, 2)))


def test_conditional_output_matches_gaussian_oracle():
    rng = np.random.default_rng(42)
    for _ in range(60):
        v1, v2 = random_tripartite(rng), random_tripartite(rng)
        swap = conditional_output_cm(v1, v2)
        oracle = swap_via_gaussian(v1, v2)
        err = np.linalg.norm(swap.cm - oracle.cm) / np.linalg.norm(oracle.cm)
        assert err < 1e-10


def test_conditional_mean_matches_gaussian_oracle():
    rng = np.random.default_rng(43)
    zero = GainMatrices.zero()
    for _ in range(100):
        v1, v2 = random_tripartite(rng), random_tripartite(rng)
        u = rng.normal(size=2)
        oracle = swap_via_gaussian(v1, v2, outcomes=(u[0], u[1]))
        mean = displaced_first_moment(v1, v2, zero, BellOutcome(u))
        assert_allclose(mean, oracle.mean, rtol=0, atol=1e-10)


def test_optimal_gains_cancel_displacement():
    rng = np.random.default_rng(44)
    for _ in range(50):
        v1, v2 = random_tripartite(rng), random_tripartite(rng)
        gains = optimal_gains(v1, v2)
        u = BellOutcome(rng.normal(size=2) * 3.0)
        d = displaced_first_moment(v1, v2, gains, u)
        assert np.max(np.abs(d)) < 1e-12


def test_optimal_gains_standard_reduction():
    # identical standard-form inputs make M = 2b, so the first remote gain
    # is the diagonal -D/(2b)
    v = standard_cm(r=1.2, b=1.5, c=1.1, d=0.6, dp=-0.5, e=0.4, ep=-0.3)
    gains = optimal_gains(v, v)
    assert gains.is_diagonal(tol=1e-14)
    assert_allclose(gains.G_a1, -np.diag([0.6, -0.5]) / 3.0, atol=1e-14)
    assert_allclose(gains.G_c1, -np.diag([0.4, -0.3]) / 3.0, atol=1e-14)


def test_zero_correlation_means_zero_gains():
    v1 = standard_cm(r=1.2, b=1.5, c=1.1, d=0.0, dp=0.0, e=0.0, ep=0.0)
    rng = np.random.default_rng(45)
    v2 = random_tripartite(rng)
    gains = optimal_gains(v1, v2)
    assert_allclose(gains.G_a1, np.zeros((2, 2)), atol=1e-15)
    assert_allclose(gains.G_c1, np.zeros((2, 2)), atol=1e-15)


def test_displacement_linearity_and_zero_gain_form():
    rng = np.random.default_rng(46)
    v1, v2 = random_tripartite(rng), random_tripartite(rng)
    zero = GainMatrices.zero()
    u = rng.normal(size=2)
    d1 = displaced_first_moment(v1, v2, zero, BellOutcome(u))
    d2 = displaced_first_moment(v1, v2, zero, BellOutcome(2 * u))
    assert_allclose(d2, 2 * d1, rtol=1e-12, atol=1e-14)
    # zero-gain means depend only on the correlation blocks: killing D1, E1
    # silences site 1 entirely
    v1_cut = TripartiteCM(R=v1.R, D=np.zeros((2, 2)), F=np.zeros((2, 2)),
                          B=v1.B, E=np.zeros((2, 2)), C=v1.C)
    d = displaced_first_moment(v1_cut, v2, zero, BellOutcome(u))
    assert_allclose(d[0:2], 0.0, atol=1e-15)
    assert_allclose(d[4:6], 0.0, atol=1e-15)
    assert np.max(np.abs(d[2:4])) > 0.0


def test_symmetric_standard_remote_block():
    # identical inputs: diagonal entries r - d^2/2b, cross-site d^2/2b,
    # with the primed analogs on the p rows picking up the mirror sign
    r, b, d, dp = 1.4, 1.6, 0.7, -0.55
    v = standard_cm(r=r, b=b, c=1.2, d=d, dp=dp, e=0.3, ep=-0.2)
    swap = conditional_output_cm(v, v)
    exp_diag = np.diag([r - d ** 2 / (2 * b), r - dp ** 2 / (2 * b)])
    assert_allclose(swap.V_R[0:2, 0:2], exp_diag, rtol=1e-13)
    assert_allclose(swap.V_R[2:4, 2:4], exp_diag, rtol=1e-13)
    cross = np.diag([d ** 2 / (2 * b), -dp ** 2 / (2 * b)])
    assert_allclose(swap.V_R[0:2, 2:4], cross, rtol=1e-13)


def test_uncorrelated_inputs_swap_nothing():
    v1 = standard_cm(r=1.3, b=1.5, c=1.0, d=0.0, dp=0.0, e=0.25, ep=-0.2)
    v2 = standard_cm(r=0.9, b=1.1, c=1.0, d=0.0, dp=0.0, e=0.2, ep=-0.1)
    swap = conditional_output_cm(v1, v2)
    assert_allclose(swap.V_R, np.diag([1.3, 1.3, 0.9, 0.9]), atol=1e-14)
    assert swap.E_N_remote == 0.0


def test_swap_output_is_physical():
    rng = np.random.default_rng(47)
    for _ in range(50):
        swap = conditional_output_cm(random_tripartite(rng),
                                     random_tripartite(rng))
        assert gaussian.validate_state(swap.cm).passed
        assert swap.eta_remote > 0
        assert swap.E_N_remote == pytest.approx(
            max(0.0, -np.log(2 * swap.eta_remote)))


def test_ensemble_collapses_at_optimal_gains():
    rng = np.random.default_rng(48)
    for _ in range(30):
        v1, v2 = random_tripartite(rng), random_tripartite(rng)
        swap = conditional_output_cm(v1, v2)
        vp_r, vp_c = ensemble_output_blocks(v1, v2, optimal_gains(v1, v2))
        assert np.max(np.abs(vp_r - swap.V_R)) < 1e-12
        assert np.max(np.abs(vp_c - swap.V_C)) < 1e-12


def test_ensemble_zero_gains_keeps_marginals():
    rng = np.random.default_rng(49)
    v1, v2 = random_tripartite(rng), random_tripartite(rng)
    vp_r, vp_c = ensemble_output_blocks(v1, v2, GainMatrices.zero())
    expected_r = np.zeros((4, 4))
    expected_r[0:2, 0:2] = v1.R
    expected_r[2:4, 2:4] = v2.R
    assert_allclose(vp_r, expected_r, atol=1e-14)
    expected_c = np.zeros((4, 4))
    expected_c[0:2, 0:2] = v1.C
    expected_c[2:4, 2:4] = v2.C
    assert_allclose(vp_c, expected_c, atol=1e-14)


def random_gains(rng, scale=0.5):
    return GainMatrices(*(scale * rng.normal(size=(2, 2)) for _ in range(4)))


def test_ensemble_matches_monte_carlo_3sigma():
    rng = np.random.default_rng(50)
    v1, v2 = random_tripartite(rng), random_tripartite(rng)
    gains = random_gains(rng)
    vp_r, vp_c = ensemble_output_blocks(v1, v2, gains)
    est = monte_carlo_ensemble(v1, v2, gains, n=40000, seed=123)
    target = est.cm[0:4, 0:4]
    err = np.linalg.norm(vp_r - target) / np.linalg.norm(vp_r)
    assert err < 0.6 * est.stderr_scale
    err_c = np.linalg.norm(vp_c - est.cm[4:8, 4:8]) / np.linalg.norm(vp_c)
    assert err_c < 0.6 * est.stderr_scale


def test_monte_carlo_reproducible_and_guarded():
    rng = np.random.default_rng(51)
    v1, v2 = random_tripartite(rng), random_tripartite(rng)
    gains = random_gains(rng)
    a = monte_carlo_ensemble(v1, v2, gains, n=500, seed=9)
    b = monte_carlo_ensemble(v1, v2, gains, n=500, seed=9)
    assert_allclose(a.cm, b.cm, rtol=0, atol=0)
    assert a.stderr_scale == pytest.approx(5 / np.sqrt(500))
    with pytest.raises(ValueError):
        monte_carlo_ensemble(v1, v2, gains, n=1, seed=9)


def test_bell_outcome_covariance_standard_case():
    v = standard_cm(r=1.2, b=1.5, c=1.1, d=0.6, dp=-0.5, e=0.4, ep=-0.3)
    assert_allclose(bell_outcome_covariance(v, v), 1.5 * np.eye(2),
                    atol=1e-14)


def test_sampler_determinism_and_marginal():
    rng = np.random.default_rng(52)
    v1, v2 = random_tripartite(rng), random_tripartite(rng)
    s1 = bell_outcome_sampler(v1, v2, seed=77)
    s2 = bell_outcome_sampler(v1, v2, seed=77)
    first = [next(s1).beta for _ in range(5)]
    again = [next(s2).beta for _ in range(5)]
    assert_allclose(np.array(first), np.array(again), rtol=0, atol=0)

    # vacuum Bell modes give N(0, 1/2) outcomes per quadrature
    vac = standard_cm(r=0.5, b=0.5, c=0.5, d=0.0, dp=0.0, e=0.0, ep=0.0)
    assert_allclose(bell_outcome_covariance(vac, vac), 0.5 * np.eye(2),
                    atol=1e-15)
    n = 100000
    draws = np.array([b.beta for b, _ in
                      zip(bell_outcome_sampler(vac, vac, seed=3), range(n))])
    emp = draws.T @ draws / n
    assert_allclose(emp, 0.5 * np.eye(2), atol=3 * 0.5 / np.sqrt(n))


def test_sample_covariance_tracks_analytic_marginal():
    rng = np.random.default_rng(53)
    v1, v2 = random_tripartite(rng), random_tripartite(rng)
    cov = bell_outcome_covariance(v1, v2)
    n = 100000
    draws = np.array([b.beta for b, _ in
                      zip(bell_outcome_sampler(v1, v2, seed=5), range(n))])
    emp = draws.T @ draws / n
    assert np.linalg.norm(emp - cov) < 3 * np.linalg.norm(cov) / np.sqrt(n) * 2


def test_standard_form_predicate():
    v = standard_cm(r=1.2, b=1.5, c=1.1, d=0.6, dp=-0.5, e=0.4, ep=-0.3,
                    f=np.array([[0.1, 0.05], [-0.02, 0.08]]))
    assert is_standard_form(v)  # the remote-certifying block is unconstrained
    rng = np.random.default_rng(54)
    assert not is_standard_form(random_tripartite(rng))


def test_closed_forms_require_standard_form():
    rng = np.random.default_rng(55)
    with pytest.raises(NotStandardFormError):
        symmetric_closed_forms(random_tripartite(rng))


def test_closed_forms_match_general_path():
    rng = np.random.default_rng(56)
    for _ in range(200):
        v = circuit_standard_state(rng)
        eta_r, eta_c_minus, eta_c_plus = symmetric_closed_forms(v)
        swap = conditional_output_cm(v, v)
        assert eta_r == pytest.approx(swap.eta_remote, rel=1e-10)
        assert eta_c_minus == pytest.approx(swap.eta_certifying, rel=1e-10)
        spectrum = gaussian.symplectic_eigenvalues(
            gaussian.partial_transpose(swap.V_C, Bipartition((0,), (1,))))
        assert eta_c_plus == pytest.approx(float(spectrum[-1]), rel=1e-10)


def test_product_standard_state_remote_eta_is_marginal():
    # no remote-Bell correlation: the swap output remote pair is the bare
    # thermal marginal with symplectic eigenvalue r
    v = standard_cm(r=1.3, b=1.5, c=1.1, d=0.0, dp=0.0, e=0.4, ep=-0.3)
    eta_r, _, _ = symmetric_closed_forms(v)
    assert eta_r == pytest.approx(1.3, rel=1e-12)
    assert conditional_output_cm(v, v).E_N_remote == 0.0


def test_chi_relation_on_upper_triangular_free_states():
    rng = np.random.default_rng(57)
    for _ in range(300):
        v = circuit_standard_state(rng)
        eta_r, eta_c_minus, _ = symmetric_closed_forms(v)
        assert eta_r == pytest.approx(chi(v) * eta_c_minus, rel=1e-9)


def test_purity_identities():
    rng = np.random.default_rng(58)
    for _ in range(300):
        v = circuit_standard_state(rng)
        mu_b, mu_rb, mu_bc = purities_triplet(v)
        eta_r, eta_c_minus, _ = symmetric_closed_forms(v)
        assert eta_r == pytest.approx(mu_b / (2 * mu_rb), rel=1e-9)
        assert eta_c_minus == pytest.approx(mu_b / (2 * mu_bc), rel=1e-9)


def test_purities_match_reduced_states_on_generic_inputs():
    rng = np.random.default_rng(61)
    for _ in range(100):
        v = random_tripartite(rng)
        state = GaussianState(v.matrix(), np.zeros(6))
        want = [gaussian.purity(gaussian.partial_trace(state, modes))
                for modes in ([1], [0, 1], [1, 2])]
        assert_allclose(purities_triplet(v), want, rtol=1e-12, atol=0)


def test_chi_fixtures_and_invariance():
    # mirror-symmetric state: remote-Bell and Bell-certifying subsystems
    # have equal determinants
    v = standard_cm(r=1.0, b=1.0, c=1.0, d=0.45, dp=-0.45, e=0.45, ep=-0.45)
    assert chi(v) == pytest.approx(1.0, rel=1e-14)

    rng = np.random.default_rng(59)
    for _ in range(50):
        v = random_tripartite(rng)
        base = chi(v)
        # chi is invariant under mode-local symplectics
        s = np.zeros((6, 6))
        for m in range(3):
            s[2 * m:2 * m + 2, 2 * m:2 * m + 2] = random_symplectic(rng, 1)
        rotated = TripartiteCM.from_matrix(s @ v.matrix() @ s.T)
        assert chi(rotated) == pytest.approx(base, rel=1e-9)
        # exchanging the remote and certifying modes inverts the ratio
        perm = np.zeros((6, 6))
        perm[0:2, 4:6] = np.eye(2)
        perm[2:4, 2:4] = np.eye(2)
        perm[4:6, 0:2] = np.eye(2)
        swapped = TripartiteCM.from_matrix(perm @ v.matrix() @ perm.T)
        assert chi(swapped) == pytest.approx(1.0 / base, rel=1e-9)


def test_classifier_fixtures():
    # certifying-region circuit state
    s1 = tms_symplectic(3, 0, 1, 1.0)
    s2 = tms_symplectic(3, 1, 2, 0.5)
    v0 = np.diag(np.repeat([0.5, 0.55, 0.5], 2))
    v = TripartiteCM.from_matrix(s2 @ s1 @ v0 @ s1.T @ s2.T)
    mu_b, mu_rb, mu_bc = purities_triplet(v)
    if mu_rb > mu_bc > mu_b:
        assert classify(v) is ProtocolClass.Certifiable

    # product tripartite state: neither pair purity beats the Bell purity
    prod = standard_cm(r=0.8, b=0.7, c=0.9, d=0.0, dp=0.0, e=0.0, ep=0.0)
    assert classify(prod) is ProtocolClass.NoSwapping


def test_classifier_tie_handling():
    assert classify_from_purities(0.5, 0.7, 0.7) is ProtocolClass.WrongSwapping
    assert classify_from_purities(0.5, 0.7, 0.5) is ProtocolClass.NotCertifiable
    assert classify_from_purities(0.5, 0.8, 0.6) is ProtocolClass.Certifiable
    assert classify_from_purities(0.6, 0.5, 0.8) is ProtocolClass.WrongSwapping
    assert classify_from_purities(0.5, 0.5, 0.5) is ProtocolClass.NoSwapping
    nan = float("nan")
    assert classify_from_purities(nan, nan, nan) is ProtocolClass.NoSwapping


def test_classifier_agrees_with_entanglement_ordering():
    # in the certifiable class both entanglements are positive and ordered;
    # checked on upper-triangular-free symmetric states where the bound is
    # exact
    rng = np.random.default_rng(60)
    seen = 0
    for _ in range(400):
        v = circuit_standard_state(rng)
        if classify(v) is not ProtocolClass.Certifiable:
            continue
        seen += 1
        swap = conditional_output_cm(v, v)
        assert swap.E_N_certifying > 0
        assert swap.E_N_remote > swap.E_N_certifying - 1e-9
    assert seen > 10


@given(st.floats(1e-3, 1.0), st.floats(1e-3, 1.0))
def test_inseparability_bound_never_exceeds_first_purity(x, y):
    assert inseparability_bound(x, y) <= x * (1 + 1e-12)


@given(st.floats(1e-3, 1.0), st.floats(1e-3, 1.0), st.floats(1e-3, 1.0))
@settings(max_examples=200)
def test_inseparability_bound_monotone(x, y, bump):
    x2 = min(1.0, x + bump)
    assert inseparability_bound(x2, y) >= inseparability_bound(x, y) - 1e-12


def test_inseparability_bound_fixtures():
    assert inseparability_bound(1.0, 1.0) == pytest.approx(1.0)
    assert inseparability_bound(0.5, 1.0) == pytest.approx(0.5)
    assert inseparability_bound(1.0, 0.5) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        inseparability_bound(0.0, 0.5)
    with pytest.raises(ValueError):
        inseparability_bound(0.5, 1.5)


@given(st.floats(1e-6, 1.0), st.floats(1e-6, 1.0), st.floats(1e-6, 1.0))
@settings(max_examples=300)
def test_classifier_is_total(mu_b, mu_rb, mu_bc):
    assert classify_from_purities(mu_b, mu_rb, mu_bc) in ProtocolClass