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
    _, v, k = psd_eigh(as_matrix(a))
    cols = v[:, k:]
    return cols @ cols.conj().T


def run_fresh(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a new interpreter that imports ``qfdiv`` from this tree."""
    path = os.pathsep.join([str(Path(qfdiv.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


def in_fresh_interpreter(probe: str) -> str:
    """What ``probe`` prints, run in a new interpreter that imports ``qfdiv`` from this tree."""
    run = run_fresh("-c", probe)
    run.check_returncode()
    return run.stdout.strip()


def served(check, record=None):
    """What a property check returns, with each request it stages served alone, in order, by
    its own checked one-item call: one trial's requests, as ``run_property`` serves a lone
    request.  ``record``, a list, collects every request served."""
    values = None
    while True:
        try:
            requests = check.send(values)
        except StopIteration as stop:
            return stop.value
        if record is not None:
            record.extend(requests)
        values = [request.one(*request.args) for request in requests]


def staged(margins):
    """A property check, a generator function, that stages no request and returns what
    ``margins(trial)`` returns, or raises what it raises."""

    def check(trial):
        yield from ()
        return margins(trial)

    return check


def bell_matrix() -> np.ndarray:
    m = np.zeros((4, 4))
    m[np.ix_((0, 3), (0, 3))] = 0.5
    return m


@pytest.fixture
def bell_state() -> BipartiteState:
    return BipartiteState(bell_matrix(), (2, 2))
