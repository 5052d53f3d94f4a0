import numpy as np
import pytest

from prenmf.fixtures import get_fixture


@pytest.fixture
def nested_squares():
    return get_fixture("nested-squares")


@pytest.fixture
def sepex():
    return get_fixture("sepex")


@pytest.fixture
def noisy():
    return get_fixture("noisy")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_nonneg(rng, m, n, distinct=True):
    """Random nonnegative matrix, regenerated until columns are distinct."""
    for _ in range(50):
        M = rng.random((m, n)) + 0.05
        norm = M / np.abs(M).sum(axis=0)
        ok = True
        for i in range(n):
            for j in range(i):
                if np.abs(norm[:, i] - norm[:, j]).max() < 1e-3:
                    ok = False
        if ok or not distinct:
            return M
    raise AssertionError("could not generate distinct columns")


def synthetic(m, n, r, noise=0.01, seed=0):
    """The synthetic m x n input of the scale notes: W sparse, H dense, and
    with noise=0 a matrix of exact rank r."""
    rng = np.random.default_rng(seed)
    W = rng.random((m, r)) * (rng.random((m, r)) < 0.4)
    M = W @ rng.random((r, n))
    return M + noise * rng.random((m, n)) if noise else M


def separable_rank3(rng, m, n):
    """A separable rank-3 product W [I | H] with shuffled columns, so that
    alpha_bar = 1 (built as in perfbench's rank3-npp workload)."""
    W = rng.random((m, 3)) + 0.05
    H = np.hstack([np.eye(3), rng.random((3, n - 3)) + 0.05])
    return W @ H[:, rng.permutation(n)]


def sweep_products():
    """(k, M) for 300 sparse exact rank-3 products W H of random shapes.

    Every third M repeats its first two rows and every fifth gains a zero
    row, so the simplex slice gets parallel and vanishing constraints.
    """
    rng = np.random.default_rng(0)
    for k in range(300):
        m, n = rng.integers(3, 40), rng.integers(3, 30)
        W = rng.random((m, 3)) * (rng.random((m, 3)) < 0.7)
        H = rng.random((3, n)) * (rng.random((3, n)) < 0.8)
        M = W @ H
        if k % 3 == 0:
            M = np.vstack([M, M[:2]])
        if k % 5 == 0:
            M = np.vstack([M, np.zeros((1, M.shape[1]))])
        yield k, M


def stress_products():
    """(k, M) for the sparse random inputs of full column rank among 1,500
    draws: n in [3, 25), m in [n, 45), density in [0.2, 0.9), and every
    fourth draw rounded to quarters, which makes ties and degenerate
    points common."""
    rng = np.random.default_rng(11)
    for k in range(1500):
        n = int(rng.integers(3, 25))
        m = int(rng.integers(n, 45))
        density = rng.uniform(0.2, 0.9)
        M = rng.random((m, n)) * (rng.random((m, n)) < density)
        if k % 4 == 0:
            M = np.round(4 * M) / 4
        if np.linalg.matrix_rank(M) == n:
            yield k, M


def hexagon_slack():
    """The 6x6 slack matrix of the regular hexagon, up to scale: rank 3 and
    nonnegative rank 5, so no triangle nests between its polygons."""
    return np.array([np.roll([0, 1, 2, 2, 1, 0], i) for i in range(6)], float)


def parts_50x40():
    """Criterion 10's input: parts-based 50x40 data of rank 5 (localized
    nonnegative parts, dense mixing, 0.5% noise), clipped at zero."""
    rng = np.random.default_rng(42)
    m, n, r = 50, 40, 5
    W = np.zeros((m, r))
    for j in range(r):
        lo = j * (m // r)
        W[lo:lo + 14, j] = rng.random(min(14, m - lo)) + 0.2
    H = 0.15 + rng.random((r, n))
    M0 = W @ H
    return np.maximum(M0 + 0.005 * M0.mean() * rng.standard_normal(M0.shape),
                      0.0)


def lifted(M):
    """M times a power of two, max|M| in [1, 2).

    ``preprocess_matrix`` lifts an M with max|M| < 1 to this scale and runs
    any other M as it is.  So for max|M| >= 2 this is a scale the library
    never runs M at: the kernel's tolerances are absolute, and its path can
    differ from the one M takes in ``preprocess_matrix``."""
    return np.ldexp(M, 1 - np.frexp(np.abs(M).max())[1])
