"""The bytes contract: the CLI report of each pinned command, JSON and CSV,
equals its reference file under ``tests/reports`` byte for byte.

The references hold the bytes of the numpy and BLAS build recorded in
``tests/reports/build.json``.  On that build every byte is held.  LAPACK
results can differ in the last bits between BLAS builds and CPUs, so on any
other build the byte comparison is skipped, with both builds named in the
reason; the exit codes and the report fields, in order, are held on every
build.  A change that moves a report on purpose rewrites the references,
and the build record, with

    PYTHONPATH=src python tests/test_reports.py [NAME ...]

and names each moved value in CHANGES.md.  Given names, it rewrites only
those references, in both formats, and leaves the build record as it is.

The ``numpy.linalg`` calls of the closed-form analyze commands and of the
library tour, and the objective calls, rows, channel actions, Renyi calls
and ``eigh`` calls of the search commands, are pinned here too, as counts.
"""

import collections
import contextlib
import csv
import ctypes
import functools
import glob
import io
import json
import os
import pathlib
import platform
import sys

import numpy as np
import pytest

from cvchan import channels as ch
from cvchan import cli
from cvchan import functionals as fn
from cvchan import states as st
from cvchan import symplectic as sp

REPORTS = pathlib.Path(__file__).parent / "reports"

#: Name: (argv, exit code) of every pinned command: the README commands with
#: the campaigns and searches at reduced sizes, the commands on the
#: benchmark's 2-mode custom channel and on a 1-mode custom channel, and
#: closed-form analyze rows like those of the benchmark's calls workload
#: (the thermal4 one overflows F_p and writes its log).
#: ``{spec}`` stands for ``reports/channels/spec.json``.
COMMANDS = {
    "analyze": (["analyze", "--channel", "{thermal}", "--p", "2,3"], 0),
    "capacity": (["capacity", "--channel", "{thermal}", "--energy", "1.5", "--budget", "20000", "--seed", "1"], 0),
    "theorem1": (["verify", "theorem1", "--trials", "2000", "--max-modes", "4", "--seed", "23"], 0),
    "lemma1": (["verify", "lemma1", "--instances", "5", "--trials", "2000", "--max-modes", "3"], 0),
    "schur": (["verify", "schur", "--trials", "1000"], 0),
    "concavity": (["verify", "concavity"], 0),
    "multiplicativity": (["verify", "multiplicativity", "--budget", "1000"], 0),
    "additivity": (["verify", "additivity", "--energy", "3.0", "--budget", "1000"], 0),
    "custom2_analyze_numeric": (["analyze", "--channel", "{custom2}", "--numeric", "--p", "2", "--budget", "1000"], 0),
    "custom2_capacity": (["capacity", "--channel", "{custom2}", "--energy", "2.5", "--budget", "1000", "--seed", "3"], 0),
    "custom2_analyze": (["analyze", "--channel", "{custom2}"], 3),
    "custom1_analyze_numeric": (
        ["analyze", "--channel", "{custom1}", "--numeric", "--p", "2,7", "--budget", "1500", "--seed", "4"], 0
    ),
    "custom1_capacity": (["capacity", "--channel", "{custom1}", "--energy", "1.7", "--budget", "900", "--seed", "2"], 0),
    "classical2_analyze": (["analyze", "--channel", "{classical2}", "--p", "1.5,2,3,7"], 0),
    "lossy3_analyze": (["analyze", "--channel", "{lossy3}", "--p", "1.5,2,3,7"], 0),
    "thermal4_analyze": (["analyze", "--channel", "{thermal4}", "--p", "400"], 0),
}

#: Objective calls and scored rows (the evaluations) of each pinned search
#: command: a driver that splits or merges its rounds changes the calls.
#: The searches of one lockstep share every round's call, so a lockstep
#: makes as many calls as its longest search has rounds.  Every command
#: runs one lockstep, a custom ``capacity`` too: its S_min search and its
#: sup search share the rounds of one BFGS lockstep on ``_chart_scores``,
#: so custom2 makes 27 calls (27 rounds each) and custom1 14 (S_min 12,
#: sup 14), with the rows of both searches.
SEARCH_WORK = {
    "multiplicativity": (21, 300),
    "additivity": (21, 69),
    "custom2_analyze_numeric": (17, 106),
    "custom2_capacity": (27, 155),
    "custom1_analyze_numeric": (12, 122),
    "custom1_capacity": (14, 89),
}

#: Channel actions (``channels._act``), ``states._renyi`` calls and
#: ``numpy.linalg.eigh`` calls made inside the objective calls of each
#: pinned search command.  A round of the pure-input search makes one
#: action and one eigh (its Williamson frames) per mode-count group with
#: rows, and at most two Renyi calls per group (its order-1 rows and its
#: other orders); a round of the sup search makes one action, one Renyi
#: call and one eigh (its one group, of order 1).  ``verify
#: multiplicativity`` has a two-mode and a three-mode group, and ``analyze
#: --numeric`` an order-1 search beside its searches per ``p``.
ROUND_WORK = {
    "multiplicativity": {"actions": 36, "renyi": 36, "eigh": 36},
    "additivity": {"actions": 21, "renyi": 21, "eigh": 21},
    "custom2_analyze_numeric": {"actions": 17, "renyi": 32, "eigh": 17},
    "custom2_capacity": {"actions": 54, "renyi": 54, "eigh": 54},
    "custom1_analyze_numeric": {"actions": 12, "renyi": 23, "eigh": 12},
    "custom1_capacity": {"actions": 26, "renyi": 26, "eigh": 26},
}

#: Single-matrix ``sample_symplectics`` draws of each pinned search command:
#: ``_chart_starts`` draws STARTS - 1 = 3 starts once per mode count of a
#: lockstep, which every search of that mode count shares.  ``verify
#: multiplicativity`` has a two-mode and a three-mode group (18 draws when
#: each of its six searches drew its own), and a custom ``capacity``'s S_min
#: and sup searches share their mode count's draws (6 when they did not).
START_DRAWS = {
    "multiplicativity": 6,
    "additivity": 3,
    "custom2_analyze_numeric": 3,
    "custom2_capacity": 3,
    "custom1_analyze_numeric": 3,
    "custom1_capacity": 3,
}

#: ``numpy.linalg`` calls (see the ``linalg_calls`` fixture) of each
#: closed-form analyze command, by name.  Thermal and lossy channels certify in closed
#: form and read nu* off their parameters.  Classical noise takes eigvalsh(Y)
#: once, for its PSD check (X = I makes that its certificate, and its
#: minimum picks the Cholesky route of the noise spectrum), then one
#: spectrum of Y.
EIGEN_WORK = {
    "classical2_analyze": {"eigvalsh": 2, "cholesky": 1},
    "thermal4_analyze": {},
    "lossy3_analyze": {},
}

#: A command that exits 0 or 1 is pinned by its report in both formats; one
#: that exits 2 or 3 writes no report and is pinned by its ``error:`` line.
CASES = [(name, fmt) for name, (_, code) in COMMANDS.items() for fmt in (("json", "csv") if code < 2 else ("txt",))]


def _blas_core():
    """The CPU core whose kernels OpenBLAS picked at run time, or None where
    it cannot be read (another BLAS, or no bundled OpenBLAS)."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename64_",
                       "openblas_get_corename"):
            if hasattr(library, symbol):
                getattr(library, symbol).restype = ctypes.c_char_p
                return getattr(library, symbol)().decode()
    return None


def build() -> dict:
    """The numpy version, BLAS library and CPU that set the last bits."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        library = f"{blas['name']} {blas['version']}"
    except TypeError:  # numpy < 1.25 has no ``mode``
        library = None
    return {"numpy": np.__version__, "blas": library, "blas_core": _blas_core(), "machine": platform.machine()}


@functools.cache
def run(name: str, fmt: str) -> tuple[int, str]:
    """Exit code and output of one pinned command: the report for json and
    csv, the stderr line for txt."""
    argv, _ = COMMANDS[name]
    argv = [str(REPORTS / "channels" / f"{arg[1:-1]}.json") if arg.startswith("{") else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv if fmt == "txt" else [*argv, "--format", fmt])
    return code, err.getvalue() if fmt == "txt" else out.getvalue()


def fields(text: str, fmt: str) -> list[tuple[str, str]]:
    """(field, value) pairs of an output in order: flattened JSON keys, CSV
    cells by row and column, or lines."""
    if fmt == "json":
        row = {}
        cli._flatten("", json.loads(text), row)
        return [(key, json.dumps(value)) for key, value in row.items()]
    if fmt == "csv":
        header, *rows = csv.reader(io.StringIO(text))
        return [("header", ",".join(header))] + [
            (f"row {i} {column}", cell) for i, row in enumerate(rows, start=1) for column, cell in zip(header, row)
        ]
    return [(f"line {i}", line) for i, line in enumerate(text.splitlines(), start=1)]


def first_difference(expected: list, actual: list) -> str:
    for (key, value), (actual_key, actual_value) in zip(expected, actual):
        if key != actual_key:
            return f"field {actual_key} where the reference has {key}"
        if value != actual_value:
            return f"{key}: reference {value}, now {actual_value}"
    if len(expected) != len(actual):
        extra = (expected if len(expected) > len(actual) else actual)[min(len(expected), len(actual))][0]
        return f"field {extra} only in the {'reference' if len(expected) > len(actual) else 'output'}"
    return "same fields and values, different bytes"


def reference(name: str, fmt: str) -> str:
    return (REPORTS / f"{name}.{fmt}").read_text(encoding="utf-8")


@pytest.mark.parametrize("name, fmt", CASES, ids=[f"{name}.{fmt}" for name, fmt in CASES])
def test_exit_code_and_fields(name, fmt):
    code, text = run(name, fmt)
    assert code == COMMANDS[name][1]
    assert [key for key, _ in fields(text, fmt)] == [key for key, _ in fields(reference(name, fmt), fmt)], name


@pytest.mark.parametrize("name, fmt", CASES, ids=[f"{name}.{fmt}" for name, fmt in CASES])
def test_bytes(name, fmt):
    recorded = json.loads((REPORTS / "build.json").read_text())
    if build() != recorded:
        pytest.skip(f"references made on {recorded}, this is {build()}")
    _, text = run(name, fmt)
    expected = reference(name, fmt)
    if text != expected:
        pytest.fail(f"{name} ({fmt}) differs from tests/reports/{name}.{fmt}: "
                    f"{first_difference(fields(expected, fmt), fields(text, fmt))}")


@pytest.mark.parametrize("name", SEARCH_WORK)
def test_search_work(name, monkeypatch):
    recorded = json.loads((REPORTS / "build.json").read_text())
    if build() != recorded:
        pytest.skip(f"counts taken on {recorded}, this is {build()}")
    rows, depth, work = [], [], collections.Counter()

    def objective(function, rows_of):
        def call(*args):
            rows.append(rows_of(args[-1]))
            depth.append(None)
            try:
                return function(*args)
            finally:
                depth.pop()

        return call

    def counting(key, function):
        def call(*args, **kwargs):
            work[key] += bool(depth)
            return function(*args, **kwargs)

        return call

    monkeypatch.setattr(fn, "_chart_scores", objective(fn._chart_scores, lambda rounds: sum(len(rows[-1]) for _, rows in rounds)))
    monkeypatch.setattr(ch, "_act", counting("actions", ch._act))
    monkeypatch.setattr(st, "_renyi", counting("renyi", st._renyi))
    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    assert run.__wrapped__(name, "json")[0] == 0
    assert (len(rows), sum(rows)) == SEARCH_WORK[name]
    assert work == ROUND_WORK[name]


@pytest.mark.parametrize("name", START_DRAWS)
def test_start_draws(name, monkeypatch):
    draws, sample = [], fn.sample_symplectics
    monkeypatch.setattr(fn, "sample_symplectics", lambda *args: draws.append(args[2]) or sample(*args))
    assert run.__wrapped__(name, "json")[0] == 0
    assert (len(draws), set(draws)) == (START_DRAWS[name], {1})


@pytest.mark.parametrize("name", ["multiplicativity", "custom2_capacity"])
def test_seeds_in_one_process_keep_their_bytes(name):
    # Seeds 1, 2 and 1 again in one process: the third run has the first run's bytes, so no
    # start draw outlives the command that made it.
    argv = [str(REPORTS / "channels" / f"{arg[1:-1]}.json") if arg.startswith("{") else arg for arg in COMMANDS[name][0]]
    outputs = []
    for seed in (1, 2, 1):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main([*argv, "--seed", str(seed), "--format", "json"]) == 0
        outputs.append(out.getvalue())
    assert outputs[2] == outputs[0] != outputs[1]


@pytest.mark.parametrize("name", EIGEN_WORK)
def test_eigen_work(name, linalg_calls):
    assert run.__wrapped__(name, "json")[0] == 0
    assert linalg_calls == EIGEN_WORK[name]


#: ``numpy.linalg`` calls of each op of the library tour, the public calls
#: of the benchmark's ``calls`` workload, at every mode count from 1 to 4.
#: A state's physicality check is its one validated spectrum (Cholesky and
#: eigvalsh); Williamson adds the eigenvectors and the solve of its frame;
#: the thermal channel certifies in closed form, and the entropies read the
#: spectrum the state holds.
TOUR_WORK = {
    "williamson": {"cholesky": 1, "eigh": 1, "solve": 1},
    "euler_decompose": {"svd": 1, "qr": 1},
    "GaussianState": {"cholesky": 1, "eigvalsh": 1},
    "thermal_noise": {},
    "apply": {"cholesky": 1, "eigvalsh": 1},
    "trace_p": {},
    "von_neumann_entropy": {},
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tour_work(n, linalg_calls):
    gamma, s = sp.random_covariance(n, seed=n), sp.random_symplectic(n, seed=n)
    eta, nbar = np.linspace(0.3, 0.8, n), np.linspace(0.5, 2.0, n)
    state = st.GaussianState(gamma, np.zeros(2 * n), np.ones(n))
    channel = ch.thermal_noise(eta, nbar)
    out = ch.apply(channel, state)
    ops = {
        "williamson": lambda: sp.williamson(gamma),
        "euler_decompose": lambda: sp.euler_decompose(s),
        "GaussianState": lambda: st.GaussianState(gamma, np.zeros(2 * n), np.ones(n)),
        "thermal_noise": lambda: ch.thermal_noise(eta, nbar),
        "apply": lambda: ch.apply(channel, state),
        "trace_p": lambda: st.trace_p(out, 2.0),
        "von_neumann_entropy": lambda: st.von_neumann_entropy(out),
    }
    work = {}
    for name, op in ops.items():
        linalg_calls.clear()
        op()
        work[name] = dict(linalg_calls)
    assert work == TOUR_WORK


def test_first_difference_names_the_field():
    expected = fields('{"a": 1, "b": {"c": 2.5}}', "json")
    assert first_difference(expected, fields('{"a": 1, "b": {"c": 2.4}}', "json")) == "b.c: reference 2.5, now 2.4"
    assert first_difference(expected, fields('{"a": 1}', "json")) == "field b.c only in the reference"
    assert first_difference(fields("x,y\n1,2\n", "csv"), fields("x,y\n1,3\n", "csv")) == "row 1 y: reference 2, now 3"


if __name__ == "__main__":
    names = sys.argv[1:]
    if unknown := sorted(set(names) - set(COMMANDS)):
        sys.exit(f"unknown report: {', '.join(unknown)}")
    for name, fmt in CASES:
        if not names or name in names:
            (REPORTS / f"{name}.{fmt}").write_text(run(name, fmt)[1], encoding="utf-8")
    if not names:
        (REPORTS / "build.json").write_text(json.dumps(build(), indent=2) + "\n")
