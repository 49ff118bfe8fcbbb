"""The README's library tour runs as written, computes what its comments
state, and reads only names that ``cvchan`` republishes from their modules."""

import ast
import importlib
import math
import pathlib

import pytest

import cvchan

README = pathlib.Path(__file__).parents[1] / "README.md"


def _tour() -> ast.Module:
    """The fenced ``python`` block under the README's "Library tour" heading."""
    section = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    start = section.index("```python\n") + len("```python\n")
    return ast.parse(section[start:section.index("```", start)])


@pytest.fixture(scope="module")
def tour():
    """The tour's namespace after it ran, and the value of each of its
    expression statements, by the statement's source text."""
    namespace, values = {}, {}
    for statement in _tour().body:
        code = ast.unparse(statement)
        if isinstance(statement, ast.Expr):
            values[code] = eval(code, namespace)
        else:
            exec(code, namespace)
    return namespace, values


def _g(n: float) -> float:
    """Entropy of a thermal mode with mean photon number n, in nats."""
    return (n + 1.0) * math.log(n + 1.0) - n * math.log(n)


def test_tour_computes_what_its_comments_state(tour):
    namespace, values = tour
    assert values["cv.min_output_fp_closed(channel, p=2)"] == 8.0
    assert values["cv.max_output_p_norm(channel, p=2)"] == pytest.approx(2.0 / math.sqrt(8.0), rel=1e-12)
    assert abs(values["report.gap_to_closed_form"]) <= 1e-12
    cap = namespace["cap"]
    assert cap.search is None
    assert cap.value == pytest.approx(_g(1.0) - _g(0.5), rel=1e-12)
    assert values["sup.gap_to_closed_form"] <= 1e-9


def test_tour_reads_republished_names(tour):
    names = {node.attr for node in ast.walk(_tour())
             if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "cv"}
    assert "williamson" in names and names <= set(cvchan.__all__)
    for name in names:
        obj = getattr(cvchan, name)
        assert obj is getattr(importlib.import_module(obj.__module__), name), name
