from __future__ import annotations

import warnings

import numpy as np
import pytest

# Hypothesis imports this module only to report a failing example.  It
# imports libcst, whose use of mypy_extensions.TypedDict raises a
# DeprecationWarning, and under pyproject.toml's error::DeprecationWarning
# that turns any failing property test into an INTERNALERROR that ends the
# session and loses its summary.  Importing it here, with that one import's
# deprecations ignored, keeps failures reported; no other filter changes.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

from elemrange.elemop import random_instance


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def random_operator(rng):
    def make(n=2, k=2, label=None):
        return random_instance(n, k, rng, label=label)

    return make


def random_matrix(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
