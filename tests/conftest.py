import numpy as np
import pytest

from qfdiv import rng
from qfdiv.condent import BipartiteState
from qfdiv.linalg import as_matrix, psd_eigh


def random_hermitian(dim: int, seed: int) -> np.ndarray:
    g = rng.complex_gaussian(rng.generator(seed), (dim, dim))
    return (g + g.conj().T) / 2.0


def support_projector(a) -> np.ndarray:
    """Orthogonal projector onto the range of a positive operator: the span of
    the eigenvectors that ``psd_eigh`` leaves outside the kernel."""
    w, v = psd_eigh(as_matrix(a))
    cols = v[:, w > 0.0]
    return cols @ cols.conj().T


def bell_matrix() -> np.ndarray:
    m = np.zeros((4, 4))
    m[np.ix_((0, 3), (0, 3))] = 0.5
    return m


@pytest.fixture
def bell_state() -> BipartiteState:
    return BipartiteState(bell_matrix(), (2, 2))
