import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import configuration


def pytest_configure(config):
    # Hypothesis caches constants parsed from local sources under
    # ./.hypothesis even with database=None; keep it out of the working tree.
    home = tempfile.mkdtemp(prefix="covfn-hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    configuration.set_hypothesis_home_dir(home)


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def random_spd(rng, d, lo=0.5, hi=3.0):
    """SPD matrix with spectrum drawn uniformly from [lo, hi]."""
    q = random_orthogonal(rng, d)
    lam = rng.uniform(lo, hi, size=d)
    return q @ np.diag(lam) @ q.T


def random_sym(rng, d, scale=1.0):
    a = rng.standard_normal((d, d))
    return scale * (a + a.T) / 2.0


@pytest.fixture
def np_rng():
    return np.random.default_rng(20240817)
