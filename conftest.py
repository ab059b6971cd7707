"""Repo-wide pytest configuration.

Reseeds the *global* random state before every test so any code path that
falls back to ``np.random``/``random`` module-level generators behaves
identically run to run and regardless of test ordering or ``-m`` selection.
Code under test that wants randomness should still take an explicit
``np.random.default_rng(seed)``; this fixture is the safety net that keeps
tier-1 tests and benchmarks deterministic either way.

The report header names the numpy release and the SIMD extensions it found
on the host: the SHA-256 pins hash raw float64 samples and errors, so a pin
that fails on one CI leg only should say which numpy produced its bytes.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

GLOBAL_TEST_SEED = 727


def pytest_report_header(config):
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    found = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    return f"numpy {np.__version__}, SIMD extensions found: {' '.join(found) or 'none'}"


@pytest.fixture(autouse=True)
def _reseed_global_rngs():
    random.seed(GLOBAL_TEST_SEED)
    np.random.seed(GLOBAL_TEST_SEED)
    yield
