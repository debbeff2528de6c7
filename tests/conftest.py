import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_incoherent_dictionary(n: int, a: int, seed: int = 0):
    """Random unit-norm atoms with mild coherence, plus dummy unit directions."""
    from mpnetlab.arrays import Dictionary, doa_grid_upa

    gen = np.random.default_rng(seed)
    atoms = gen.standard_normal((n, a)) + 1j * gen.standard_normal((n, a))
    atoms /= np.linalg.norm(atoms, axis=0, keepdims=True)
    return Dictionary(atoms, doa_grid_upa(a))
