"""Workload definitions: seeded inputs, the op list of one pass, and checks.

A workload is a closed loop with one caller: each op starts when the
previous one returns.  An op is one documented CLI command, driven through
``cvchan.cli.main(argv)``, or one public library call.  Every op returns a
value that the workload's own check inspects; the checks use oracles
computed here with plain numpy, never the package under test.

Inputs come from ``--seed`` alone: the command seeds of pass ``i`` and the
random matrices of the ``calls`` pool are drawn from a Philox stream keyed
by the workload seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

#: Acceptance tolerances restated here so that a change to the package's
#: own constants cannot loosen the benchmark's checks.
TOL_OPT_SUP = 1e-3
TOL_MULT_MARGIN = 1e-6
TOL_WITNESS = 1e-8
TOL_CLOSED_REL = 1e-9
TOL_DECOMP = 1e-8

WORKLOADS = ("campaigns", "searches", "calls")

#: Seconds one pass of each workload takes at the seed commit (shared 2-core
#: x86-64 virtual machine, BLAS pinned to one thread).  Only used to size the traced run,
#: so that its op set, and with it every per-layer count, is fixed by
#: (seed, seconds) and not by the speed of the code under test.
NOMINAL_PASS_S = {"campaigns": 1.8, "searches": 13.0, "calls": 0.035}


class CheckFailed(Exception):
    """An op ran but its output is wrong."""


def _strict_json(text: str):
    """Parse a report, rejecting the NaN and Infinity literals."""

    def reject(token):
        raise CheckFailed(f"report holds the non-JSON literal {token}")

    return json.loads(text, parse_constant=reject)


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# numpy oracles

def _j(n: int) -> np.ndarray:
    return np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def oracle_spectrum(gamma: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues as |Im| of the eigenvalues of J gamma."""
    n = gamma.shape[0] // 2
    ev = np.linalg.eigvals(_j(n) @ gamma)
    return np.sort(np.abs(ev.imag))[::2]


def f_p(x, p: float):
    x = np.asarray(x, dtype=float)
    return (x + 1.0) ** p - (x - 1.0) ** p


def entropy(nu) -> float:
    nu = np.maximum(np.asarray(nu, dtype=float), 1.0)
    up, dn = 0.5 * (nu + 1.0), 0.5 * (nu - 1.0)
    out = up * np.log(up)
    mask = dn > 0.0
    out[mask] -= dn[mask] * np.log(dn[mask])
    return float(np.sum(out))


def g(x: float) -> float:
    """Entropy of a thermal state with mean photon number x."""
    return 0.0 if x <= 0.0 else (x + 1.0) * math.log(x + 1.0) - x * math.log(x)


def holevo_werner(eta: float, nbar: float, energy: float, omega: float = 1.0) -> float:
    """Gaussian capacity of a single-mode thermal channel at mean energy E."""
    photons = energy / omega - 0.5
    return g(eta * photons + (1.0 - eta) * nbar) - g((1.0 - eta) * nbar)


def _rot(n: int, i: int, j: int, theta: float) -> np.ndarray:
    out = np.eye(2 * n)
    c, s = math.cos(theta), math.sin(theta)
    out[i, i] = out[j, j] = c
    out[i, j], out[j, i] = s, -s
    return out


def random_symplectic(rng: np.random.Generator, n: int, squeeze=(1.0, 2.5)) -> np.ndarray:
    """Product of phase rotations, beam splitters and single-mode squeezers."""
    s = np.eye(2 * n)
    for layer in range(3):
        for k in range(n):
            s = _rot(n, 2 * k, 2 * k + 1, rng.uniform(0.0, 2.0 * math.pi)) @ s
        for k in range(n - 1):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            s = _rot(n, 2 * k + 2, 2 * k, theta) @ _rot(n, 2 * k + 3, 2 * k + 1, theta) @ s
        if layer < 2:
            z = rng.uniform(*squeeze, size=n)
            s = np.diag(np.repeat(z, 2) ** np.tile([1.0, -1.0], n)) @ s
    return s


# ---------------------------------------------------------------------------
# campaigns and searches: documented commands

def run_cli(main, argv: list[str]) -> tuple[int, str]:
    """One CLI invocation with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def custom_channel_record() -> dict:
    """Fixed 2-mode phase-sensitive channel: a beam splitter after unequal
    quadrature gains, with anisotropic noise above the CP threshold."""
    d = np.diag([0.9, 0.6, 0.7, 0.8])
    x = _rot(2, 2, 0, 0.4) @ _rot(2, 3, 1, 0.4) @ d
    y = np.diag([0.5, 0.8, 0.9, 0.4])
    return {"n_modes": 2, "kind": "custom", "X": x.ravel().tolist(), "Y": y.ravel().tolist()}


THERMAL_README = {"n_modes": 1, "kind": "thermal", "eta": [0.5], "nbar": [1.0], "omega": [1.0]}


def command_specs(workload: str, smoke: bool) -> list[tuple[str, list[str]]]:
    """(name, argv template) of the commands in one pass.  ``{thermal}`` and
    ``{custom}`` name input files; each pass appends its own ``--seed``."""
    if workload == "campaigns":
        trials, instances, samples, schur = ("200", "2", "500", "50") if smoke else ("10000", "20", "10000", "1000")
        return [
            ("theorem1", ["verify", "theorem1", "--max-modes", "4", "--trials", trials]),
            ("lemma1", ["verify", "lemma1", "--max-modes", "3", "--instances", instances, "--trials", samples]),
            ("schur", ["verify", "schur", "--trials", schur]),
            ("concavity", ["verify", "concavity"]),
        ]
    cap, budget = ("300", "200") if smoke else ("20000", "2000")
    return [
        ("capacity", ["capacity", "--channel", "{thermal}", "--energy", "1.5", "--budget", cap]),
        ("multiplicativity", ["verify", "multiplicativity", "--budget", budget]),
        # The per-factor grid inside additivity has its own fixed budget, so
        # a smaller joint budget would not make the command cheap.
        ("additivity", ["verify", "additivity", "--energy", "3.0", "--budget", "2000"]),
        ("analyze_numeric", ["analyze", "--channel", "{custom}", "--numeric", "--p", "2", "--budget", budget]),
    ]


def check_command(name: str, code: int, text: str, files: dict) -> None:
    _check(code == 0, f"{name}: exit code {code}")
    report = _strict_json(text)
    if name in ("theorem1", "lemma1", "schur", "concavity"):
        result = report["result"]
        _check(result["pass"] is True, f"{name}: campaign did not pass")
        if name == "lemma1":
            _check(abs(result["witness_gap"]) <= TOL_WITNESS, f"lemma1: witness gap {result['witness_gap']}")
    elif name == "capacity":
        result = report["result"]
        expected = holevo_werner(0.5, 1.0, 1.5)
        _check(result["flag"] == "ok", "capacity: infeasible")
        _check(abs(result["capacity"] - expected) <= TOL_OPT_SUP,
               f"capacity: {result['capacity']} vs Holevo-Werner {expected}")
    elif name == "multiplicativity":
        results = report["results"]
        _check(len(results) == 6, f"multiplicativity: {len(results)} pairs")
        for entry in results:
            _check(entry["pass"] is True and entry["margin"] >= -TOL_MULT_MARGIN,
                   f"multiplicativity: {entry['pair']} margin {entry['margin']}")
    elif name == "additivity":
        _check(report["result"]["pass"] is True, f"additivity: margin {report['result']['margin']}")
    elif name == "analyze_numeric":
        _check_numeric_analyze(report, files["custom_record"])
    else:
        raise KeyError(name)


def _check_numeric_analyze(report: dict, record: dict) -> None:
    """A search can only land between the purity floor and any input it
    could have tried, so bound it by the vacuum input from above."""
    n = record["n_modes"]
    x = np.array(record["X"]).reshape(2 * n, 2 * n)
    y = np.array(record["Y"]).reshape(2 * n, 2 * n)
    nu_vac = np.maximum(oracle_spectrum(x.T @ x + y), 1.0)
    (entry,) = report["results"]
    p = entry["p"]
    upper = float(np.prod(f_p(nu_vac, p)))
    inf_fp = entry["inf_F_p"]
    _check(entry["closed_form"] is False, "analyze_numeric: expected the search path")
    _check(2.0 ** (p * n) * (1.0 - 1e-12) <= inf_fp <= upper * (1.0 + TOL_CLOSED_REL),
           f"analyze_numeric: inf_F_p {inf_fp} outside [{2.0 ** (p * n)}, {upper}]")
    _check(abs(entry["xi_p"] - 2.0**n / inf_fp ** (1.0 / p)) <= 1e-12 * entry["xi_p"], "analyze_numeric: xi_p")
    _check(-1e-12 <= entry["S_min"] <= entropy(nu_vac) + 1e-9, f"analyze_numeric: S_min {entry['S_min']}")


# ---------------------------------------------------------------------------
# calls: the library tour

P_VALUES = (1.5, 2.0, 3.0, 7.0)


class CallsPool:
    """Seeded inputs of the ``calls`` workload: covariances with known
    symplectic spectra and channel spec files, four variants per mode count."""

    VARIANTS = 4

    def __init__(self, seed: int, directory: str):
        rng = np.random.Generator(np.random.Philox(key=[seed, 1]))
        self.states = {}
        self.specs = {}
        for n in range(1, 5):
            for v in range(self.VARIANTS):
                nu = np.sort(rng.uniform(1.0, 3.0, n))
                s = random_symplectic(rng, n)
                gamma = s @ np.diag(np.repeat(nu, 2)) @ s.T
                gamma = 0.5 * (gamma + gamma.T)
                eta = rng.uniform(0.2, 0.9, n)
                nbar = rng.uniform(0.0, 2.0, n)
                p = float(P_VALUES[v])
                self.states[n, v] = (gamma, nu, eta, nbar, p)
                yq, yp = rng.uniform(0.2, 2.0, n), rng.uniform(0.2, 2.0, n)
                records = {
                    "thermal": {"n_modes": n, "kind": "thermal", "eta": eta.tolist(), "nbar": nbar.tolist()},
                    "lossy": {"n_modes": n, "kind": "lossy", "eta": eta.tolist()},
                    "classical": {"n_modes": n, "kind": "classical",
                                  "Y": np.diag(np.column_stack([yq, yp]).ravel()).ravel().tolist()},
                }
                expected = {
                    "thermal": 1.0 + 2.0 * (1.0 - eta) * nbar,
                    "lossy": np.ones(n),
                    "classical": 1.0 + np.sqrt(yq * yp),
                }
                for kind, record in records.items():
                    path = os.path.join(directory, f"{kind}{n}_{v}.json")
                    with open(path, "w", encoding="utf-8") as handle:
                        json.dump(record, handle)
                    self.specs[kind, n, v] = (path, expected[kind])


def check_closed_analyze(text: str, n: int, args: np.ndarray) -> None:
    report = _strict_json(text)
    results = report["results"]
    _check([r["p"] for r in results] == list(P_VALUES), "analyze: p list")
    for r in results:
        expected = float(np.prod(f_p(args, r["p"])))
        _check(r["closed_form"] is True, "analyze: expected the closed form")
        _check(abs(r["inf_F_p"] - expected) <= TOL_CLOSED_REL * expected,
               f"analyze: inf_F_p {r['inf_F_p']} vs {expected}")
        xi = 2.0**n / expected ** (1.0 / r["p"])
        _check(abs(r["xi_p"] - xi) <= TOL_CLOSED_REL * xi, f"analyze: xi_p {r['xi_p']} vs {xi}")
        s_min = entropy(args)
        _check(abs(r["S_min"] - s_min) <= 1e-9 * max(1.0, s_min), f"analyze: S_min {r['S_min']} vs {s_min}")


def calls_pass_ops(cv, main, pool: CallsPool, index: int):
    """Yield (kind, thunk, check) for one pass of the library tour.

    The thunk is the timed op; the check runs untimed on its result.  Each
    call's input is the previous call's output, as in the README tour.
    """
    v = index % CallsPool.VARIANTS
    for n in range(1, 5):
        gamma, nu, eta, nbar, p = pool.states[n, v]
        box: dict = {}

        def check_williamson(dec, gamma=gamma, nu=nu):
            box["s"] = dec.s
            _check(np.allclose(dec.spectrum, nu, rtol=TOL_DECOMP, atol=0.0), "williamson: spectrum")
            resid = np.max(np.abs(dec.s @ gamma @ dec.s.T - np.diag(np.repeat(nu, 2))))
            _check(resid <= TOL_DECOMP * np.max(nu), f"williamson: residual {resid}")

        def check_euler(eul):
            s = box["s"]
            zz = np.repeat(eul.z, 2) ** np.tile([1.0, -1.0], len(eul.z))
            resid = np.max(np.abs(eul.t1 @ (zz[:, None] * eul.t2) - s))
            _check(resid <= TOL_DECOMP * max(1.0, np.max(np.abs(s))), f"euler: residual {resid}")

        def check_state(state, gamma=gamma):
            box["state"] = state
            _check(np.array_equal(state.gamma, gamma), "GaussianState: covariance changed")

        def check_channel(channel, eta=eta, nbar=nbar):
            box["channel"] = channel
            _check(np.allclose(np.diag(channel.y), np.repeat((2 * nbar + 1) * (1 - eta), 2)), "thermal_noise: Y")

        def check_apply(out, gamma=gamma, eta=eta, nbar=nbar):
            box["out"] = out
            sq = np.repeat(np.sqrt(eta), 2)
            expected = sq[:, None] * gamma * sq[None, :] + np.diag(np.repeat((2 * nbar + 1) * (1 - eta), 2))
            _check(np.allclose(out.gamma, expected, rtol=1e-12, atol=1e-12), "apply: output covariance")
            box["nu_out"] = np.maximum(oracle_spectrum(out.gamma), 1.0)

        def check_trace(value, p=p):
            expected = float(np.prod(2.0**p / f_p(box["nu_out"], p)))
            _check(abs(value - expected) <= 1e-8 * expected, f"trace_p: {value} vs {expected}")

        def check_entropy(value):
            expected = entropy(box["nu_out"])
            _check(abs(value - expected) <= 1e-8 * max(1.0, expected), f"entropy: {value} vs {expected}")

        yield "williamson", (lambda g=gamma: cv.williamson(g)), check_williamson
        yield "euler_decompose", (lambda: cv.euler_decompose(box["s"])), check_euler
        yield "GaussianState", (lambda g=gamma, n=n: cv.GaussianState(g, np.zeros(2 * n), np.ones(n))), check_state
        yield "thermal_noise", (lambda e=eta, b=nbar: cv.thermal_noise(e, b)), check_channel
        yield "apply", (lambda: cv.apply(box["channel"], box["state"])), check_apply
        yield "trace_p", (lambda p=p: cv.trace_p(box["out"], p)), check_trace
        yield "von_neumann_entropy", (lambda: cv.von_neumann_entropy(box["out"])), check_entropy
        for kind in ("thermal", "lossy", "classical"):
            path, args = pool.specs[kind, n, v]
            argv = ["analyze", "--channel", path, "--p", ",".join(str(q) for q in P_VALUES)]

            def check_analyze(result, n=n, args=args):
                code, text = result
                _check(code == 0, f"analyze: exit code {code}")
                check_closed_analyze(text, n, args)

            yield f"analyze_{kind}", (lambda argv=argv: run_cli(main, argv)), check_analyze
