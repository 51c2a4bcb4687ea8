import numpy as np
import pytest


def _dense_bordered_solve(a, b, cs):
    """Reference constrained solve on small systems: numpy.linalg.solve of the
    dense bordered system [[R^T A R, R^T c], [c^T R, 0]], with R the
    trace-elimination map (identity without elimination) and no border
    without a mean constraint."""
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
    return r @ np.linalg.solve(big, np.append(b_red, 0.0))[:n]


@pytest.fixture(scope="session")
def dense_bordered_solve():
    return _dense_bordered_solve
