import numpy as np
import pytest
import scipy.linalg as sla


def _dense_bordered_solve(a, b, cs):
    """Reference constrained solve on small systems: numpy.linalg.solve of the
    dense bordered system [[R^T A R, R^T c], [c^T R, 0]], with R the
    trace-elimination map (identity without elimination) and no border
    without a mean constraint.  ``b`` is a vector or a block of columns."""
    r = cs.reduction_matrix().toarray() if cs.has_elimination else np.eye(cs.n)
    a_red = r.T @ a.to_dense() @ r
    b_red = r.T @ np.asarray(b, dtype=np.float64)
    if cs.mean_vector is None:
        return r @ np.linalg.solve(a_red, b_red)
    c = r.T @ cs.mean_vector
    n = a_red.shape[0]
    big = np.zeros((n + 1, n + 1))
    big[:n, :n] = a_red
    big[:n, n] = c
    big[n, :n] = c
    rhs = np.concatenate([b_red, np.zeros((1,) + b_red.shape[1:])])
    return r @ np.linalg.solve(big, rhs)[:n]


def _dense_constrained_eigs(a, b, cs, k):
    """Reference constrained eigenvalues on small systems: the smallest k of
    the pencil (A, B) on {x = R y : c.x = 0}, by scipy.linalg.eigh in an
    orthonormal null-space basis of the reduced constraint functional R^T c.
    ``b`` is a dense full-space matrix."""
    r = cs.reduction_matrix().toarray() if cs.has_elimination else np.eye(cs.n)
    basis = r @ sla.null_space((r.T @ cs.mean_vector)[None, :])
    a_nn = basis.T @ a.to_dense() @ basis
    b_nn = basis.T @ b @ basis
    return sla.eigh(a_nn, 0.5 * (b_nn + b_nn.T), eigvals_only=True,
                    subset_by_index=[0, k - 1])


@pytest.fixture(scope="session")
def dense_bordered_solve():
    return _dense_bordered_solve


@pytest.fixture(scope="session")
def dense_constrained_eigs():
    return _dense_constrained_eigs
