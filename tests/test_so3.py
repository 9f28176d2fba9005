import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    IDENTITY_QUAT,
    error_matrices,
    g_matrix,
    normalize,
    principal_angle,
    quat_from_axis_angle,
    quat_inv,
    quat_mul,
    rotation_matrix,
    skew,
    spectral_norm,
)

finite = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)


def quats():
    return (
        st.tuples(finite, finite, finite, finite)
        .filter(lambda t: sum(x * x for x in t) > 1e-2)
        .map(lambda t: normalize(np.array(t)))
    )


def vectors():
    return st.tuples(finite, finite, finite).map(lambda t: np.array(t))


@given(quats(), quats())
def test_quat_mul_closure(a, b):
    assert abs(np.linalg.norm(quat_mul(a, b)) - 1.0) < 1e-12


@given(quats())
def test_quat_inverse(q):
    assert np.allclose(quat_mul(q, quat_inv(q)), IDENTITY_QUAT, atol=1e-12)
    assert np.allclose(quat_mul(quat_inv(q), q), IDENTITY_QUAT, atol=1e-12)


@given(quats(), quats())
def test_quat_mul_associative_with_rotation(a, b):
    # composing quaternions composes their rotation matrices (same order)
    left = rotation_matrix(quat_mul(a, b))
    right = rotation_matrix(b) @ rotation_matrix(a)
    assert np.allclose(left, right, atol=1e-10)


@given(quats())
def test_rotation_matrix_orthogonal(q):
    R = rotation_matrix(q)
    assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
    assert abs(np.linalg.det(R) - 1.0) < 1e-12


@given(quats())
def test_rotation_matrix_sign_invariant(q):
    assert np.allclose(rotation_matrix(q), rotation_matrix(-q), atol=1e-12)


@given(vectors(), vectors())
def test_skew_is_cross(v, w):
    assert np.allclose(skew(v) @ w, np.cross(v, w), atol=1e-12)


@given(quats())
def test_g_matrix_definition(q):
    assert np.allclose(g_matrix(q), q[0] * np.eye(3) + skew(q[1:]), atol=1e-15)


@given(quats())
@settings(max_examples=200)
def test_error_matrix_norm_identity(qt):
    if qt[0] < 0:
        qt = -qt
    M, E = error_matrices(qt)
    # sqrt(2*(1 - qt0)) in the cancellation-free form sqrt(2*|qv|^2/(1 + qt0))
    expected = math.sqrt(2.0 * float(qt[1:] @ qt[1:]) / (1.0 + qt[0]))
    assert abs(spectral_norm(M) - expected) < 1e-10
    assert abs(spectral_norm(E) - expected) < 1e-10


@given(quats(), quats())
@settings(max_examples=200)
def test_error_matrix_multiplication_identity(qe, qt):
    # right-multiplying by qt^-1 equals adding M(qt) @ qe
    if qt[0] < 0:
        qt = -qt
    M, E = error_matrices(qt)
    qhe = quat_mul(qe, quat_inv(qt))
    assert np.allclose(qhe, qe + M @ qe, atol=1e-10)
    assert np.allclose(qhe[1:], qe[1:] + E @ qe, atol=1e-10)


@given(quats())
@settings(max_examples=200)
def test_rotation_deviation_bound(qt):
    # ||I - R^T(qt)|| <= 2*||qt_v||
    dev = spectral_norm(np.eye(3) - rotation_matrix(qt).T)
    assert dev <= 2.0 * np.linalg.norm(qt[1:]) + 1e-12


def test_principal_angle_roundtrip():
    axis = np.array([1.0, -2.0, 0.5])
    axis /= np.linalg.norm(axis)
    for angle in np.linspace(0.0, math.pi, 25):
        q = quat_from_axis_angle(axis, angle)
        assert abs(principal_angle(q) - angle) < 1e-12
        assert abs(principal_angle(-q) - angle) < 1e-12


def test_principal_angle_range():
    rng = np.random.default_rng(3)
    for _ in range(100):
        q = normalize(rng.standard_normal(4))
        assert 0.0 <= principal_angle(q) <= math.pi + 1e-12


def test_spectral_norm_known():
    a = np.array([[3.0, 0.0], [0.0, -4.0]])
    assert abs(spectral_norm(a) - 4.0) < 1e-12
    rng = np.random.default_rng(1)
    b = rng.standard_normal((4, 4))
    assert abs(spectral_norm(b) - np.linalg.svd(b, compute_uv=False)[0]) < 1e-12
