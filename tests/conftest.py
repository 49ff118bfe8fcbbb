"""Fixtures shared by the test modules."""

import collections

import numpy as np
import pytest

import cvchan.functionals as fn


@pytest.fixture
def search_calls(monkeypatch):
    """A list that gains one entry per search that the search driver
    ``functionals._lockstep_bfgs`` runs, pure-input or sup-entropy: a call
    that runs several searches in lockstep adds one entry for each."""
    calls = []
    driver = fn._lockstep_bfgs

    def count(groups, budget):
        calls.extend(values_of for values_of, arrays, _ in groups for _ in arrays[0])
        return driver(groups, budget)

    monkeypatch.setattr(fn, "_lockstep_bfgs", count)
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
