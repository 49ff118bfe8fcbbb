"""Fixtures shared by the test modules."""

import collections

import numpy as np
import pytest

import cvchan.functionals as fn


@pytest.fixture
def search_calls(monkeypatch):
    """A list that gains one entry per search that a search driver runs, the
    pure-input ``functionals._lockstep_bfgs`` or the sup-entropy
    ``functionals._lockstep_nelder_mead``: a call that runs several searches
    in lockstep adds one entry for each."""
    calls = []

    def counting(driver):
        def count(objective, searches):
            calls.extend(searches)
            return driver(objective, searches)

        return count

    for name in ("_lockstep_bfgs", "_lockstep_nelder_mead"):
        monkeypatch.setattr(fn, name, counting(getattr(fn, name)))
    return calls


@pytest.fixture
def linalg_calls(monkeypatch):
    """A counter of the ``numpy.linalg`` factorization and solver calls the
    package makes (``eigvalsh``, ``eigh``, ``cholesky``, ``svd``, ``qr``,
    ``solve``) by name, from the time it is set up."""
    calls = collections.Counter()

    def counting(name, solver):
        def call(*args, **kwargs):
            calls[name] += 1
            return solver(*args, **kwargs)

        return call

    for name in ("eigvalsh", "eigh", "cholesky", "svd", "qr", "solve"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return calls
