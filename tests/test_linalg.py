import numpy as np
import pytest

from l1fit.linalg import default_rank_tol, norm1, norm2, norm_inf, nullspace_basis, pcg, pinv, soft


def test_matmul_contract():
    eye = np.eye(2)
    assert np.array_equal(eye @ eye, eye)
    assert np.array_equal(np.array([[1.0, 2.0], [3.0, 4.0]]) @ np.array([[1.0], [1.0]]),
                          np.array([[3.0], [7.0]]))
    A = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(A @ np.zeros((3, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        A @ np.zeros((2, 2))


def test_norms_and_parts():
    assert norm1([1.0, -2.0, 3.0]) == 6.0
    assert norm2([3.0, 4.0]) == 5.0
    assert norm_inf([1.0, -7.0, 2.0]) == 7.0
    assert norm_inf([]) == 0.0


def test_soft_examples():
    assert soft(3.0, 1.0) == 2.0
    assert soft(-3.0, 1.0) == -2.0
    assert soft(0.5, 1.0) == 0.0
    assert np.array_equal(soft(np.array([3.0, -0.5]), 1.0), [2.0, 0.0])
    with pytest.raises(ValueError):
        soft(1.0, -0.1)


def test_soft_non_expansive():
    rng = np.random.default_rng(1)
    for _ in range(200):
        u, v = rng.standard_normal(2) * 3.0
        a = abs(rng.standard_normal())
        assert abs(soft(u, a) - soft(v, a)) <= abs(u - v) + 1e-15


def test_pinv_examples():
    assert np.allclose(pinv(np.eye(3)), np.eye(3))
    assert np.allclose(pinv(np.array([[3.0], [4.0]])), [[3.0 / 25.0, 4.0 / 25.0]])
    assert np.array_equal(pinv(np.zeros((2, 3))), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        pinv(np.zeros((0, 2)))


def test_pinv_penrose_conditions():
    rng = np.random.default_rng(2)
    shapes = [(3, 3), (5, 2), (2, 5), (8, 8), (8, 4), (4, 8), (6, 6)]
    for m, n in shapes:
        A = rng.standard_normal((m, n))
        if m == n and m >= 6:
            A[:, -1] = A[:, 0]  # exercise the rank-deficient branch
        G = pinv(A)
        tol = 1e-9 * (1.0 + np.max(np.abs(A)))
        assert np.max(np.abs(A @ G @ A - A)) <= tol
        assert np.max(np.abs(G @ A @ G - G)) <= tol
        assert np.max(np.abs((A @ G).T - A @ G)) <= tol
        assert np.max(np.abs((G @ A).T - G @ A)) <= tol


def test_nullspace_examples():
    N = nullspace_basis(np.array([[1.0, 1.0]]))
    assert N.shape == (2, 1)
    assert np.allclose(np.abs(N[:, 0]), [1.0 / np.sqrt(2.0)] * 2)
    assert nullspace_basis(np.eye(2)).shape == (2, 0)
    # zero-row matrix: the whole space
    assert np.allclose(nullspace_basis(np.zeros((0, 3))), np.eye(3))
    with pytest.raises(ValueError, match="2-d matrix"):
        nullspace_basis(np.ones(3))


def test_nullspace_orthonormal_and_annihilating():
    rng = np.random.default_rng(3)
    for m, n in [(2, 4), (3, 7), (5, 6), (4, 4)]:
        A = rng.standard_normal((m, n))
        N = nullspace_basis(A)
        assert N.shape[1] == n - np.linalg.matrix_rank(A, tol=default_rank_tol(A))
        if N.shape[1]:
            assert np.max(np.abs(A @ N)) <= 1e-10
            assert np.max(np.abs(N.T @ N - np.eye(N.shape[1]))) <= 1e-10


def test_pcg_identity_and_exact():
    b = np.array([1.0, -2.0, 3.0])
    assert np.allclose(pcg(np.eye(3), b, maxiter=1), b)
    x = pcg(np.array([[4.0, 1.0], [1.0, 3.0]]), np.array([1.0, 2.0]), lambda v: v)
    assert np.allclose(x, [1.0 / 11.0, 7.0 / 11.0])


def test_pcg_perfect_preconditioner_one_iteration():
    rng = np.random.default_rng(4)
    B = rng.standard_normal((6, 6))
    H = B @ B.T + 6.0 * np.eye(6)
    g = rng.standard_normal(6)
    x = pcg(H, g, P=lambda v: np.linalg.solve(H, v), maxiter=1, tol=1e-12)
    assert norm2(H @ x - g) <= 1e-12 * norm2(g)


def test_pcg_matches_direct_solve():
    rng = np.random.default_rng(5)
    for dim in (5, 12, 20):
        B = rng.standard_normal((dim, dim))
        H = B @ B.T + dim * np.eye(dim)
        g = rng.standard_normal(dim)
        x = pcg(H, g, tol=1e-14)
        assert norm2(x - np.linalg.solve(H, g)) <= 1e-8 * norm2(np.linalg.solve(H, g))


def test_pcg_rejects_asymmetric():
    with pytest.raises(ValueError):
        pcg(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2))


def test_pcg_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="shape mismatch"):
        pcg(np.eye(2), np.ones(3))
