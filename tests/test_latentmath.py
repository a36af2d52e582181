"""Kernel tests: scoring math, projection, objective, gradients.

Expected values marked "oracle" were computed with the independent
hand-rolled formulas in _oracle_* below (math.log only), then frozen.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expandforge import latentmath as lm
from expandforge.errors import (
    DegenerateVectorError,
    NumericInputError,
    ParameterError,
    ShapeError,
    SimplexError,
)


def _oracle_entropy(p):
    return -sum(x * math.log(x) for x in p if x > 0)


def _oracle_kl(p, q):
    return sum(x * (math.log(x) - math.log(max(y, 1e-12))) for x, y in zip(p, q) if x > 0)


def _oracle_softmax(v):
    m = max(v)
    e = [math.exp(x - m) for x in v]
    s = sum(e)
    return [x / s for x in e]


def _oracle_diversity(latents):
    flats = [list(np.asarray(f).ravel()) for f in latents]
    mean = [sum(col) / len(flats) for col in zip(*flats)]
    r = _oracle_softmax(mean)
    return sum(_oracle_kl(_oracle_softmax(u), r) for u in flats)


# ---------------------------------------------------------------- softmax

def test_softmax_uniform_on_equal_inputs():
    np.testing.assert_allclose(lm.softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(lm.softmax([1000.0, 1000.0]), [0.5, 0.5], atol=1e-15)


def test_softmax_no_overflow_on_large_inputs():
    p = lm.softmax([1000.0, 0.0])
    assert np.all(np.isfinite(p))
    assert abs(p.sum() - 1.0) < 1e-12


def test_softmax_temperature_preserves_argmax():
    rng = np.random.default_rng(11)
    for _ in range(200):
        v = rng.standard_normal(rng.integers(2, 9))
        for tau in (0.1, 1.0, 7.3):
            assert np.argmax(lm.softmax(v, tau)) == np.argmax(v)


def test_softmax_rejects_bad_inputs():
    with pytest.raises(NumericInputError):
        lm.softmax([1.0, np.nan])
    with pytest.raises(ParameterError):
        lm.softmax([1.0, 2.0], tau=0.0)
    with pytest.raises(ParameterError):
        lm.softmax([1.0, 2.0], tau=-1.0)


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=10))
def test_softmax_is_simplex(v):
    p = lm.softmax(v)
    assert np.all(p >= 0)
    assert abs(p.sum() - 1.0) <= 1e-9


# ---------------------------------------------------------------- entropy

def test_entropy_frozen_example():
    # oracle: -(0.9 ln 0.9 + 0.1 ln 0.1)
    assert lm.entropy([0.9, 0.1]) == pytest.approx(0.3250829733914482, abs=1e-12)


def test_entropy_uniform_and_onehot():
    for c in range(2, 9):
        assert lm.entropy(np.full(c, 1.0 / c)) == pytest.approx(math.log(c), abs=1e-12)
    assert lm.entropy([1.0, 0.0, 0.0]) == 0.0


def test_entropy_of_a_one_hot_is_positive_zero():
    # -0.0 == 0.0, so only the sign bit tells them apart; canonical JSON
    # would write -0.0 as "-0"
    assert math.copysign(1.0, lm.entropy([1.0, 0.0, 0.0])) == 1.0
    assert math.copysign(1.0, lm.entropy([0.0, 1.0])) == 1.0
    rows = lm.entropy_rows(np.array([[0.0, 1.0, 0.0], [0.5, 0.5, 0.0], [1.0, 0.0, 0.0]]))
    assert [math.copysign(1.0, h) for h in rows] == [1.0, 1.0, 1.0]
    assert rows[1] == math.log(2.0)


def test_entropy_rejects_non_simplex():
    with pytest.raises(SimplexError):
        lm.entropy([0.5, 0.6])
    with pytest.raises(SimplexError):
        lm.entropy([1.2, -0.2])


@given(st.lists(st.floats(0.001, 1.0), min_size=2, max_size=8))
def test_entropy_range(weights):
    p = np.asarray(weights) / sum(weights)
    h = lm.entropy(p)
    assert -1e-12 <= h <= math.log(p.size) + 1e-12


# ---------------------------------------------------------------- kl

def test_kl_frozen_example():
    # oracle: 0.75 ln 1.5 + 0.25 ln 0.5
    assert lm.kl_divergence([0.75, 0.25], [0.5, 0.5]) == pytest.approx(
        0.13081203594113697, abs=1e-12
    )


def test_kl_self_is_zero():
    p = [0.3, 0.25, 0.45]
    assert lm.kl_divergence(p, p) == 0.0


def test_kl_floor_keeps_result_finite():
    val = lm.kl_divergence([0.5, 0.5], [1.0, 0.0])
    assert math.isfinite(val)
    assert val == pytest.approx(_oracle_kl([0.5, 0.5], [1.0, 0.0]), rel=1e-12)


def test_kl_rejects_length_mismatch():
    with pytest.raises(ShapeError):
        lm.kl_divergence([0.5, 0.5], [0.3, 0.3, 0.4])


def test_kl_nonnegative_on_random_pairs():
    rng = np.random.default_rng(5)
    for _ in range(300):
        c = rng.integers(2, 9)
        p = rng.dirichlet(np.ones(c))
        q = rng.dirichlet(np.ones(c))
        assert lm.kl_divergence(p, q) >= 0.0


# ---------------------------------------------------------------- cosine

def test_cosine_basic_geometry():
    assert lm.cosine([1.0, 0.0], [2.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
    assert lm.cosine([1.0, 0.0], [0.0, 3.0]) == pytest.approx(0.0, abs=1e-12)
    assert lm.cosine([1.0, 0.0], [-5.0, 0.0]) == pytest.approx(-1.0, abs=1e-12)


def test_cosine_rejects_degenerate_vectors():
    with pytest.raises(DegenerateVectorError):
        lm.cosine([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(DegenerateVectorError):
        lm.cosine([1.0, 0.0], [1e-13, 0.0])


def test_cosine_range_on_random_pairs():
    rng = np.random.default_rng(6)
    for _ in range(300):
        n = rng.integers(2, 12)
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        assert -1.0 - 1e-12 <= lm.cosine(a, b) <= 1.0 + 1e-12


# ---------------------------------------------------------------- perturb_and_project

def test_perturb_examples_unbounded_and_clamped():
    f = lm.Latent(np.array([[1.0, 2.0]]))
    params = lm.PerturbationParams(z=np.array([[0.5, -0.25]]), b=np.array([[0.1, 0.0]]))
    out = lm.perturb_and_project(f, params, math.inf)
    np.testing.assert_allclose(out.values, [[1.6, 1.5]], atol=1e-12)
    out = lm.perturb_and_project(f, params, 0.2)
    np.testing.assert_allclose(out.values, [[1.2, 1.8]], atol=1e-12)


def test_perturb_epsilon_zero_is_bit_identical():
    rng = np.random.default_rng(7)
    f = lm.Latent(rng.standard_normal((3, 5)))
    params = lm.PerturbationParams(z=rng.uniform(0, 1, (3, 5)), b=rng.standard_normal((3, 5)))
    out = lm.perturb_and_project(f, params, 0.0)
    assert np.array_equal(out.values, f.values)


def test_perturb_containment_thousand_cases():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        t, d = rng.integers(1, 5), rng.integers(1, 7)
        f = lm.Latent(rng.standard_normal((t, d)) * 3)
        params = lm.PerturbationParams(
            z=rng.uniform(0, 1, (t, d)), b=rng.standard_normal((t, d)) * 2
        )
        eps = float(rng.uniform(0, 2))
        out = lm.perturb_and_project(f, params, eps)
        assert np.max(np.abs(out.values - f.values)) <= eps


def test_perturb_rejects_bad_arguments():
    f = lm.Latent(np.ones((2, 2)))
    params = lm.PerturbationParams(z=np.zeros((2, 2)), b=np.zeros((2, 2)))
    with pytest.raises(ParameterError):
        lm.perturb_and_project(f, params, -0.1)
    bad = lm.PerturbationParams(z=np.zeros((3, 2)), b=np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        lm.perturb_and_project(f, bad, 0.5)


def test_perturbation_params_mode_validation():
    z = np.tile(np.array([[0.1, 0.2]]), (3, 1))
    lm.PerturbationParams(z=z, b=z.copy(), noise_mode="channel")
    ragged = z.copy()
    ragged[1, 0] = 9.0
    with pytest.raises(ShapeError):
        lm.PerturbationParams(z=ragged, b=z.copy(), noise_mode="channel")
    with pytest.raises(ParameterError):
        lm.PerturbationParams(z=z, b=z.copy(), noise_mode="diagonal")


# ---------------------------------------------------------------- prediction + scores

def test_prediction_argmax_tie_breaks_low():
    pred = lm.Prediction.from_probs([0.4, 0.4, 0.2])
    assert pred.argmax_class == 0


def test_prediction_rejects_bad_probs():
    with pytest.raises(SimplexError):
        lm.Prediction.from_probs([0.7, 0.7])
    with pytest.raises(ShapeError):
        lm.Prediction.from_probs([1.0])


def _one_variant_scores(s, sp):
    """guidance_objective of the seed prediction s and one variant prediction."""
    return lm.guidance_objective(s, [sp], [lm.Latent(np.zeros((1, 2)))])


def test_consistency_score_examples():
    s = lm.Prediction.from_probs([0.7, 0.2, 0.1])
    sp = lm.Prediction.from_probs([0.4, 0.5, 0.1])
    assert _one_variant_scores(s, sp).s_con == pytest.approx(0.4, abs=1e-15)
    assert _one_variant_scores(s, s).s_con == pytest.approx(0.7, abs=1e-15)
    with pytest.raises(ShapeError):
        _one_variant_scores(s, lm.Prediction.from_probs([0.5, 0.5]))


def test_entropy_gain_frozen_example():
    s = lm.Prediction.from_probs([0.9, 0.1])
    sp = lm.Prediction.from_probs([0.5, 0.5])
    # oracle: ln 2 - entropy([0.9, 0.1])
    assert _one_variant_scores(s, sp).s_ent == pytest.approx(0.3680642071684971, abs=1e-12)


def test_entropy_gain_uniform_to_onehot():
    for c in (2, 4, 8):
        s = lm.Prediction.from_probs(np.full(c, 1.0 / c))
        onehot = np.zeros(c)
        onehot[1] = 1.0
        assert _one_variant_scores(s, lm.Prediction.from_probs(onehot)).s_ent == pytest.approx(
            -math.log(c), abs=1e-12
        )


# ---------------------------------------------------------------- diversity

def test_diversity_frozen_example():
    variants = [lm.Latent(np.array([[1.0, 0.0]])), lm.Latent(np.array([[0.0, 1.0]]))]
    # oracle (softmax each, softmax of mean, sum of the two KLs): 0.22188814334345475
    assert lm.diversity_score(variants) == pytest.approx(0.22188814334345475, abs=1e-12)


def test_diversity_identical_variants_is_zero():
    rng = np.random.default_rng(9)
    base = rng.standard_normal((2, 4))
    variants = [lm.Latent(base.copy()) for _ in range(4)]
    assert lm.diversity_score(variants) == 0.0
    assert lm.diversity_score([lm.Latent(base)]) == 0.0


def test_diversity_permutation_invariant():
    rng = np.random.default_rng(10)
    variants = [lm.Latent(rng.standard_normal((2, 3))) for _ in range(4)]
    ref = lm.diversity_score(variants)
    perm = [variants[i] for i in (2, 0, 3, 1)]
    assert lm.diversity_score(perm) == pytest.approx(ref, rel=1e-12)


def test_diversity_rejects_shape_mismatch():
    with pytest.raises(ShapeError):
        lm.diversity_score([lm.Latent(np.ones((1, 2))), lm.Latent(np.ones((2, 2)))])
    with pytest.raises(ShapeError):
        lm.diversity_score([])


def test_diversity_matches_oracle_on_random_sets():
    rng = np.random.default_rng(12)
    for _ in range(50):
        k = rng.integers(1, 6)
        vals = [rng.standard_normal((2, 3)) for _ in range(k)]
        got = lm.diversity_score([lm.Latent(v) for v in vals])
        assert got == pytest.approx(max(_oracle_diversity(vals), 0.0), abs=1e-10)


# ---------------------------------------------------------------- guidance objective

def test_guidance_objective_composite_against_oracle():
    s = lm.Prediction.from_probs([0.9, 0.1])
    s_primes = [
        lm.Prediction.from_probs([0.5, 0.5]),
        lm.Prediction.from_probs([0.75, 0.25]),
    ]
    variants = [lm.Latent(np.array([[1.0, 0.0]])), lm.Latent(np.array([[0.0, 1.0]]))]
    scores = lm.guidance_objective(s, s_primes, variants)
    want_con = 0.5 + 0.75
    want_ent = (_oracle_entropy([0.5, 0.5]) - _oracle_entropy([0.9, 0.1])) + (
        _oracle_entropy([0.75, 0.25]) - _oracle_entropy([0.9, 0.1])
    )
    want_div = 0.22188814334345475
    assert scores.s_con == pytest.approx(want_con, abs=1e-12)
    assert scores.s_ent == pytest.approx(want_ent, abs=1e-12)
    assert scores.s_div == pytest.approx(want_div, abs=1e-12)
    assert scores.total == pytest.approx(want_con + want_ent + want_div, abs=1e-12)


def test_guidance_objective_weighted_total():
    s = lm.Prediction.from_probs([0.6, 0.4])
    sp = [lm.Prediction.from_probs([0.55, 0.45])]
    variants = [lm.Latent(np.array([[0.3, -0.2]]))]
    scores = lm.guidance_objective(s, sp, variants, weights=(2.0, 0.5, 0.0))
    assert scores.total == pytest.approx(
        2.0 * scores.s_con + 0.5 * scores.s_ent, abs=1e-12
    )


def test_guidance_objective_rejects_mismatch_and_bad_weights():
    s = lm.Prediction.from_probs([0.6, 0.4])
    sp = [lm.Prediction.from_probs([0.5, 0.5])]
    variants = [lm.Latent(np.ones((1, 2))), lm.Latent(np.ones((1, 2)))]
    with pytest.raises(ShapeError):
        lm.guidance_objective(s, sp, variants)
    with pytest.raises(ParameterError):
        lm.GuidanceScores(s_con=1.0, s_ent=0.0, s_div=0.0, weights=(-1.0, 1.0, 1.0))
    with pytest.raises(ParameterError):
        lm.GuidanceScores(s_con=1.0, s_ent=0.0, s_div=0.0, weights=(math.inf, 1.0, 1.0))


def test_kernel_reals_follow_one_rule():
    f = lm.Latent(np.ones((2, 2)))
    params = lm.PerturbationParams(z=np.zeros((2, 2)), b=np.zeros((2, 2)))
    for bad in ("0.1", True, None, math.nan):
        with pytest.raises(ParameterError):
            lm.perturb_and_project(f, params, bad)
        with pytest.raises(ParameterError):
            lm.softmax([1.0, 2.0], tau=bad)
        with pytest.raises(ParameterError):
            lm.objective_gradient_fd(lambda x: 0.0, np.zeros(2), h=bad)
        with pytest.raises(ParameterError):
            lm.GuidanceScores(s_con=1.0, s_ent=0.0, s_div=0.0, weights=(1.0, bad, 1.0))
    with pytest.raises(ParameterError):
        lm.GuidanceScores(s_con=1.0, s_ent=0.0, s_div=0.0, weights=5)
    # the ranges accepted before still are: an infinite epsilon or temperature
    assert np.array_equal(lm.perturb_and_project(f, params, math.inf).values, f.values)
    assert np.array_equal(lm.softmax([1.0, 2.0], tau=math.inf), [0.5, 0.5])


# ---------------------------------------------------------------- finite differences

def test_fd_quadratic_example():
    grad = lm.objective_gradient_fd(lambda x: float(np.sum(x * x)), np.array([1.0, 2.0]))
    np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-6)


def test_fd_linear_is_near_exact():
    c = np.array([[3.0, -1.5], [0.25, 2.0]])
    grad = lm.objective_gradient_fd(lambda x: float(np.sum(c * x)), np.zeros((2, 2)))
    np.testing.assert_allclose(grad, c, atol=1e-9)


def test_fd_rejects_bad_step():
    with pytest.raises(ParameterError):
        lm.objective_gradient_fd(lambda x: 0.0, np.zeros(2), h=0.0)


# ---------------------------------------------------------------- analytic gradients

def _rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12)


def test_classify_matches_cosine_and_softmax():
    rng = np.random.default_rng(13)
    protos = rng.standard_normal((4, 6))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    e = rng.standard_normal(6)
    pred = lm.classify(e, protos, tau=0.7)
    for c in range(4):
        assert pred.affinities[c] == pytest.approx(lm.cosine(e, protos[c]), abs=1e-12)
    np.testing.assert_allclose(pred.probs, lm.softmax(pred.affinities, 0.7), atol=1e-15)
    with pytest.raises(DegenerateVectorError):
        lm.classify(np.zeros(6), protos)


# Inline copies of the per-vector formulas the row kernels replaced: the
# stacked kernels must round exactly as these do, not merely agree with
# their own one-row case.


def _reference_classify(e, protos, tau):
    norm = float(np.linalg.norm(e))
    unit = e / norm
    affinities = protos @ unit
    scaled = affinities / tau
    ex = np.exp(scaled - scaled.max())
    jac = (protos - np.outer(affinities, unit)) / norm
    return affinities, ex / ex.sum(), jac


def _reference_consistency_entropy_grad(p, jac, tau, target, lam_con, lam_ent):
    logp = np.log(np.maximum(p, 1e-300))
    h_val = float(-(p * np.where(p > 0, logp, 0.0)).sum())
    row = -p[target] * p
    row[target] += p[target]
    d_logits = np.zeros_like(p)
    d_logits += lam_con * row
    d_logits += lam_ent * (-(p * (logp + h_val)))
    return (d_logits / tau) @ jac


def _reference_diversity(flats):
    """The per-variant loop that diversity_rows stacks, masked sums and all:
    (total, grads, per-variant KLs)."""
    k = len(flats)
    r = lm.softmax(np.mean(flats, axis=0))
    log_r = np.log(np.maximum(r, lm.KL_FLOOR))
    qs, log_qs, kls = [], [], []
    for u in flats:
        q = lm.softmax(u)
        log_q = np.log(np.maximum(q, lm.KL_FLOOR))
        m = q > 0.0
        kls.append(float((q[m] * (log_q[m] - log_r[m])).sum()))
        qs.append(q)
        log_qs.append(log_q)
    d_mean = k * r - np.sum(np.stack(qs, axis=0), axis=0)
    grads = [q * ((lq - log_r) - kl) + d_mean / k for q, lq, kl in zip(qs, log_qs, kls)]
    return max(float(sum(kls)), 0.0), grads, kls


def _reference_entropy(p):
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


def _reference_kl(p, q):
    q = np.maximum(q, lm.KL_FLOOR)
    m = p > 0.0
    return max(float((p[m] * (np.log(p[m]) - np.log(q[m]))).sum()), 0.0)


def test_row_kernels_are_bit_equal_to_per_vector_calls():
    # the stacked ascent relies on these: a stacked gemv, row dot, row or
    # K-axis reduction must round exactly as the one-vector formula does
    rng = np.random.default_rng(15)
    a = rng.standard_normal((7, 64))
    x = rng.standard_normal((3, 4, 64))
    protos = rng.standard_normal((5, 64))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    mv = lm.matvec(a, x)
    affinities, probs, jac = lm.classify_rows(x, protos, 0.7)
    target = np.array([[0], [3], [4]])
    grads = lm.consistency_entropy_grad_rows(probs, jac, 0.7, target, 1.0, 0.6)
    for idx in np.ndindex(3, 4):
        assert np.array_equal(mv[idx], a @ x[idx])
        want_aff, want_probs, want_jac = _reference_classify(x[idx], protos, 0.7)
        assert np.array_equal(affinities[idx], want_aff)
        assert np.array_equal(probs[idx], want_probs)
        assert np.array_equal(jac[idx], want_jac)
        want = _reference_consistency_entropy_grad(
            want_probs, want_jac, 0.7, int(target[idx[0], 0]), 1.0, 0.6
        )
        assert np.array_equal(grads[idx], want)
        # the one-vector entry points are the one-row case
        pred, one_jac = lm.classify_grad(x[idx], protos, 0.7)
        assert np.array_equal(pred.probs, want_probs) and np.array_equal(one_jac, want_jac)
    # rows with exact zeros take the masked sums, and entries below KL_FLOOR
    # take the floor
    p = rng.dirichlet(np.ones(20), size=(3, 4))
    p[1, 2, ::3] = 0.0
    p[0, 3, 1::4] = 1e-14
    q = rng.dirichlet(np.ones(20), size=(3, 4))
    q[1, 2, 1::3] = 0.0
    q[2, 0, ::5] = 1e-15
    p /= p.sum(axis=-1, keepdims=True)
    q /= q.sum(axis=-1, keepdims=True)
    h = lm.entropy_rows(p)
    kl = lm.kl_rows(p, q)
    kl_first = lm.kl_rows(p, q[:, :1])  # one q row per group, broadcast
    s_con, gains = lm.consistency_entropy_rows(p, q[:, 0])
    flats = rng.standard_normal((3, 4, 20))
    flats[2, 1, :5] = -900.0  # softmax underflows to exact zeros
    flats[0, 2, :3] = -40.0  # softmax entries below KL_FLOOR
    total, div_grads = lm.diversity_rows(flats)
    s_div = lm.diversity_terms_rows(flats)
    for g in range(3):
        want_total, want_grads, want_kls = _reference_diversity(flats[g])
        assert total[g] == want_total == lm.diversity_score_grad(list(flats[g]))[0]
        assert all(np.array_equal(div_grads[g, i], w) for i, w in enumerate(want_grads))
        assert s_div[g].tolist() == [max(kl, 0.0) for kl in want_kls]
        seed_class = int(np.argmax(q[g, 0]))
        for i in range(4):
            assert h[g, i] == _reference_entropy(p[g, i]) == lm.entropy(p[g, i])
            assert kl[g, i] == _reference_kl(p[g, i], q[g, i]) == lm.kl_divergence(p[g, i], q[g, i])
            assert kl_first[g, i] == _reference_kl(p[g, i], q[g, 0])
            assert s_con[g, i] == p[g, i, seed_class]
            assert gains[g, i] == _reference_entropy(p[g, i]) - _reference_entropy(q[g, 0])
    # a single 1-d row is the one-row case
    assert lm.entropy_rows(p[1, 2]) == _reference_entropy(p[1, 2])
    assert lm.kl_rows(p[1, 2], q[1, 2]) == _reference_kl(p[1, 2], q[1, 2])


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 40.0))
def test_record_s_div_equals_the_unfloored_kl_above_the_floor(seed, scale):
    # a record's s_div is each variant's floored KL term of the diversity
    # score; records once took it from kl_rows with log softmax(flat)
    # unfloored, and the two agree bit for bit wherever no softmax entry of
    # the flat falls below KL_FLOOR (scales past ~10 put rows below it)
    flats = np.random.default_rng(seed).standard_normal((3, 4, 8)) * scale
    r = lm.softmax_rows(np.mean(flats, axis=-2))[..., None, :]
    old = lm.kl_rows(lm.softmax_rows(flats), r)
    new = lm.diversity_terms_rows(flats)
    above = (lm.softmax_rows(flats) >= lm.KL_FLOOR).all(axis=-1)
    assert np.array_equal(new[above], old[above])
    assert (new >= 0.0).all()


def test_consistency_entropy_grad_matches_fd():
    rng = np.random.default_rng(14)
    for _ in range(20):
        e_dim = int(rng.integers(3, 10))
        c = int(rng.integers(2, 7))
        protos = rng.standard_normal((c, e_dim))
        protos /= np.linalg.norm(protos, axis=1, keepdims=True)
        e = rng.standard_normal(e_dim) * 2
        tau = float(rng.uniform(0.5, 2.0))
        lam_con, lam_ent = float(rng.uniform(0, 2)), float(rng.uniform(0, 2))
        target = int(rng.integers(0, c))
        pred, jac = lm.classify_grad(e, protos, tau)
        grad = lm.consistency_entropy_grad(pred, jac, tau, target, lam_con, lam_ent)

        def objective(x):
            p = lm.classify(x, protos, tau)
            return lam_con * p.probs[target] + lam_ent * lm.entropy(p.probs)

        assert _rel_err(grad, lm.objective_gradient_fd(objective, e)) < 1e-6


def test_diversity_grad_matches_fd():
    rng = np.random.default_rng(15)
    for _ in range(10):
        k = int(rng.integers(1, 5))
        vals = [rng.standard_normal((2, 4)) for _ in range(k)]
        total, grads = lm.diversity_score_grad(vals)
        assert total == pytest.approx(lm.diversity_score([lm.Latent(v) for v in vals]))
        for j in range(k):

            def objective(x, j=j):
                probe = [v.copy() for v in vals]
                probe[j] = x.reshape(2, 4)
                return lm.diversity_score([lm.Latent(v) for v in probe])

            fd = lm.objective_gradient_fd(objective, vals[j])
            assert _rel_err(grads[j], fd) < 1e-6


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1))
def test_projection_containment_property(seed):
    rng = np.random.default_rng(seed)
    f = lm.Latent(rng.standard_normal((2, 3)) * 5)
    params = lm.PerturbationParams(z=rng.uniform(0, 1, (2, 3)), b=rng.standard_normal((2, 3)) * 4)
    eps = float(rng.uniform(0, 1))
    out = lm.perturb_and_project(f, params, eps)
    assert np.max(np.abs(out.values - f.values)) <= eps
