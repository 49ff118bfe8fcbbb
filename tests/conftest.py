"""Fixtures shared by the test modules."""

import pytest

import cvchan.functionals as fn


@pytest.fixture
def search_calls(monkeypatch):
    """A list that gains one entry per search that ``functionals._lockstep_nelder_mead``
    runs: a call that runs several searches in lockstep adds one entry for each."""
    calls = []
    lockstep = fn._lockstep_nelder_mead

    def counting(objective, searches):
        calls.extend(searches)
        return lockstep(objective, searches)

    monkeypatch.setattr(fn, "_lockstep_nelder_mead", counting)
    return calls
