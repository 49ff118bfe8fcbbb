"""Fixtures shared by the test modules."""

import pytest

import cvchan.functionals as fn


@pytest.fixture
def search_calls(monkeypatch):
    """A list that gains one entry per ``functionals._search`` call."""
    calls = []
    search = fn._search

    def counting(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(fn, "_search", counting)
    return calls
