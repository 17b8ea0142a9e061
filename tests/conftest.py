import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qfdiv
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


def in_fresh_interpreter(probe: str) -> str:
    """What ``probe`` prints, run in a new interpreter that imports ``qfdiv`` from this tree."""
    path = os.pathsep.join([str(Path(qfdiv.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout.strip()


def bell_matrix() -> np.ndarray:
    m = np.zeros((4, 4))
    m[np.ix_((0, 3), (0, 3))] = 0.5
    return m


@pytest.fixture
def bell_state() -> BipartiteState:
    return BipartiteState(bell_matrix(), (2, 2))
