"""Command-line surface: channel analysis, capacity, verification campaigns.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 input or configuration error (``main`` maps every ``ValueError`` and
``OSError`` to it, with one ``error:`` line), 3 unsupported request
(closed form asked for a kind that has none, without --numeric).

Reports are deterministic: identical (config, seed) produce identical
bytes.  Progress and timing go to stderr; reports go to --out or stdout.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
import time

import numpy as np

from . import __version__
from . import channels as ch
from . import functionals as fn
from . import majorization as mj
from . import states as st

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_UNSUPPORTED = 3

def _parse_float_list(text: str) -> list[float]:
    values = [float(part) for part in text.split(",") if part.strip()]
    if not values or not all(math.isfinite(v) for v in values):
        raise ValueError(f"expected a comma-separated list of finite numbers, got {text!r}")
    return values


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvchan",
        description="Gaussian-channel output norms, capacities, and verification campaigns.",
    )
    parser.add_argument("--version", action="version", version=f"cvchan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="random seed recorded in the report")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None, help="report path (default: stdout)")

    analyze = sub.add_parser("analyze", parents=[common], help="output p-norms and minimal entropy")
    analyze.add_argument("--channel", required=True, help="channel spec file (JSON)")
    analyze.add_argument("--p", default="2", help="comma-separated list of p values")
    analyze.add_argument("--numeric", action="store_true", help="search numerically when no closed form exists")
    analyze.add_argument("--budget", type=int, default=20000)

    capacity = sub.add_parser("capacity", parents=[common], help="energy-constrained Holevo capacity")
    capacity.add_argument("--channel", required=True)
    capacity.add_argument("--energy", type=float, required=True)
    capacity.add_argument("--omega", default=None, help="comma-separated mode frequencies (default: 1)")
    capacity.add_argument("--budget", type=int, default=20000)

    verify = sub.add_parser("verify", parents=[common], help="randomized verification campaigns")
    verify.add_argument("target", choices=VERIFY_TARGETS)
    verify.add_argument("--tol", type=float, default=None, help="tolerance override of the target's check")
    verify.add_argument("--trials", type=int, default=10000)
    verify.add_argument("--max-modes", type=int, default=4)
    verify.add_argument("--budget", type=int, default=20000)
    verify.add_argument("--instances", type=int, default=100, help="matrix instances for the lemma1 campaign")
    verify.add_argument("--energy", type=float, default=3.0, help="total budget for the additivity campaign")
    return parser


def _emit(report: dict, fmt: str, out_path) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        text = _to_csv(report)
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _flatten(prefix: str, value, row: dict) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else key, sub, row)
    elif isinstance(value, (list, tuple)):
        for i, sub in enumerate(value, start=1):
            _flatten(f"{prefix}_{i}", sub, row)
    else:
        row[prefix] = value


def _to_csv(report: dict) -> str:
    """One row per entry of ``results``, or one for the whole report; the
    header lists every key in the order of first appearance."""
    entries = report["results"] if isinstance(report.get("results"), list) else [report]
    rows = [{} for _ in entries]
    for entry, row in zip(entries, rows):
        _flatten("", entry, row)
    header = list(dict.fromkeys(key for row in rows for key in row))
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=header, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


#: Report names of the result fields that are not written under their own name.
_FIELD_NAMES = {"value": "capacity", "passed": "pass"}


def record_of(result) -> dict:
    """The report fields of a library result: its dataclass fields in
    declaration order, None values left out, ``value`` written as
    ``capacity`` and ``passed`` (a field or a property) as ``pass``; a
    search writes its ``evaluations``, ``budget`` and ``converged``."""
    record = {}
    for item in dataclasses.fields(result):
        value = getattr(result, item.name)
        if isinstance(value, fn.OptimizationReport):
            record.update(evaluations=value.evaluations, budget=value.budget, converged=value.converged)
        elif value is not None:
            record[_FIELD_NAMES.get(item.name, item.name)] = value
    if hasattr(result, "passed"):
        record["pass"] = result.passed
    return record


def _base_report(args, tolerances: dict) -> dict:
    return {
        "tool": "cvchan",
        "version": __version__,
        "operation": args.command,
        "seed": args.seed,
        "tolerances": tolerances,
    }


def cmd_analyze(args) -> int:
    channel, _ = ch.load_channel(args.channel)
    p_values = _parse_float_list(args.p)
    report = _base_report(args, {"tol_opt": fn.TOL_OPT_CLOSED})
    for p in p_values:  # the whole list, before any search
        fn.check_fp_order(p)
    try:
        nu = fn.optimal_output_spectrum(channel)  # every closed-form row is read off it
    except fn.UnsupportedKindError:
        if not args.numeric:
            print(f"error: kind {channel.kind!r} has no closed form; rerun with --numeric", file=sys.stderr)
            return EXIT_UNSUPPORTED
        nu = None
    if nu is None:  # one search for S_min and one per p, run together
        s_min, *s_ps = (search.best_value for search in fn.numeric_min_renyis(
            [(channel, p) for p in (1.0, *p_values)], args.budget, args.seed))
        inf_fps = [fn.exp_or_inf(fn.log_fp_of_renyi(channel.n, p, s_p)) for p, s_p in zip(p_values, s_ps)]
    else:  # renyi_entropy validates nu once; every row's product is one row of a (P, n) array
        s_min, s_ps = st.renyi_entropy(nu, 1.0), [None] * len(p_values)
        inf_fps = fn.fp_product(nu, np.array(p_values)[:, None])
    results = []
    for p, s_p, inf_fp in zip(p_values, s_ps, inf_fps):
        entry = {"p": p, "kind": channel.kind, "closed_form": nu is not None, "S_min": s_min}
        if math.isfinite(inf_fp):
            entry["inf_F_p"] = inf_fp
            entry["xi_p"] = 2.0**channel.n / inf_fp ** (1.0 / p)
        else:  # the product overflows; its log, read from the minimal S_p, does not
            log_inf_fp = fn.log_fp_of_renyi(channel.n, p, st.renyi_entropy(nu, p) if s_p is None else s_p)
            if not math.isfinite(log_inf_fp):  # strict JSON has no Infinity
                raise ValueError(f"--p {p}: ln F_p overflows a double")
            entry["inf_F_p"] = None
            entry["log_inf_F_p"] = log_inf_fp
            entry["xi_p"] = 2.0**channel.n * math.exp(-log_inf_fp / p)
        results.append(entry)
    report["channel"] = ch.channel_to_record(channel)
    report["results"] = results
    _emit(report, args.format, args.out)
    return EXIT_OK


def cmd_capacity(args) -> int:
    channel, file_omega = ch.load_channel(args.channel)
    if args.omega is not None:
        omega = np.asarray(_parse_float_list(args.omega))
    elif file_omega is not None:
        omega = file_omega
    else:
        omega = np.ones(channel.n)
    budget = fn.EnergyBudget(args.energy, omega)
    cap = fn.gaussian_holevo_capacity(channel, budget, search_budget=args.budget, seed=args.seed)
    report = _base_report(args, {"tol_sup": fn.TOL_OPT_SUP})
    report["channel"] = ch.channel_to_record(channel)
    report["energy"] = args.energy
    report["omega"] = [float(w) for w in budget.omega]
    report["result"] = {**record_of(cap), "flag": "ok" if cap.feasible else "infeasible"}
    _emit(report, args.format, args.out)
    return EXIT_OK


def _builtin_channel_pairs():
    """Configured tensor pairs for multiplicativity verification."""
    rotation = np.array([[np.cos(0.3), np.sin(0.3)], [-np.sin(0.3), np.cos(0.3)]])
    y_rot = rotation @ np.diag([2.0, 0.5]) @ rotation.T
    return [
        ("classical(2,2) x classical(1,1)", 2.0,
         [ch.classical_noise(np.diag([2.0, 2.0])), ch.classical_noise(np.diag([1.0, 1.0]))]),
        ("classical(2,2) x thermal(0.5, 1)", 2.0,
         [ch.classical_noise(np.diag([2.0, 2.0])), ch.thermal_noise([0.5], [1.0])]),
        ("thermal(0.5, 1) x thermal(0.3, 2)", 2.0,
         [ch.thermal_noise([0.5], [1.0]), ch.thermal_noise([0.3], [2.0])]),
        ("classical 2-mode x classical rotated", 1.5,
         [ch.classical_noise(np.diag([2.0, 2.0, 0.5, 0.5])), ch.classical_noise(y_rot)]),
        ("thermal(0.7, 2) x lossy(0.5)", 3.0,
         [ch.thermal_noise([0.7], [2.0]), ch.lossy([0.5])]),
        ("thermal 2-mode x classical(1.5, 0.7)", 2.0,
         [ch.thermal_noise([0.6, 0.8], [1.0, 0.5]), ch.classical_noise(np.diag([1.5, 0.7]))]),
    ]


def _check_builtin_pairs(args, tol: float) -> dict:
    """``multiplicativity_checks`` of every built-in pair, by label."""
    labels, ps, pairs = zip(*_builtin_channel_pairs())
    return dict(zip(labels, fn.multiplicativity_checks(list(zip(pairs, ps)), args.budget, args.seed, tol)))


#: Per verify target: the report key and the default of the tolerance that
#: --tol sets, the other tolerances its check reads, and the check, called
#: with the arguments and the tolerance.  A report records exactly the
#: tolerances its check reads.  A check returns one result, or a dict of
#: results by channel pair.
VERIFY_TARGETS = {
    "theorem1": ("prefix_atol", mj.PREFIX_ATOL, {"prefix_rtol": mj.PREFIX_RTOL}, lambda args, tol: mj.theorem1_trial(
        args.max_modes, trials=args.trials, seed=args.seed, atol=tol)),
    "lemma1": ("prefix_atol", mj.PREFIX_ATOL, {"prefix_rtol": mj.PREFIX_RTOL}, lambda args, tol: mj.lemma1_campaign(
        instances=args.instances, max_modes=min(args.max_modes, 3), samples=args.trials, seed=args.seed, atol=tol)),
    "schur": ("prefix_atol", mj.PREFIX_ATOL, {"prefix_rtol": mj.PREFIX_RTOL}, lambda args, tol: mj.schur_campaign(
        trials=args.trials, max_dim=args.max_modes * 2, seed=args.seed, atol=tol)),
    "concavity": ("concavity_bound", fn.CONCAVITY_BOUND, {}, lambda args, tol: fn.log_fp_concavity_check(bound=tol)),
    "multiplicativity": ("tol_opt", fn.TOL_OPT_CLOSED, {"margin_ulps": fn.MARGIN_ULPS},
                         lambda args, tol: _check_builtin_pairs(args, tol)),
    "additivity": ("tol_sup", fn.TOL_OPT_SUP, {}, lambda args, tol: fn.additivity_check(
        [ch.classical_noise(np.diag([2.0, 2.0])), ch.classical_noise(np.diag([1.0, 1.0]))],
        fn.EnergyBudget(args.energy, np.ones(2)), search_budget=args.budget, seed=args.seed, tol=tol)),
}


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    key, default, fixed, check = VERIFY_TARGETS[args.target]
    tol = default if args.tol is None else args.tol
    report = _base_report(args, {key: tol, **fixed})
    report["target"] = args.target
    outcome = check(args, tol)
    if isinstance(outcome, dict):
        report["results"] = [{"pair": label, **record_of(result)} for label, result in outcome.items()]
        failed = not all(result.passed for result in outcome.values())
    else:
        report["result"] = record_of(outcome)
        failed = not outcome.passed
    _emit(report, args.format, args.out)
    print(f"verify {args.target}: {'FAIL' if failed else 'PASS'} ({time.monotonic() - t0:.1f} s)", file=sys.stderr)
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


#: Smallest accepted value of the integer options that several commands share.
_MINIMUMS = {"seed": 0, "budget": 1, "max_modes": 1}


def _check_arguments(args) -> None:
    for name, value in vars(args).items():
        option = "--" + name.replace("_", "-")
        # Reports are strict JSON, which has no NaN or Infinity.
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{option} must be a finite number, got {value}")
        if name in _MINIMUMS and value < _MINIMUMS[name]:
            raise ValueError(f"{option} must be >= {_MINIMUMS[name]}, got {value}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code) if exc.code is not None else EXIT_INPUT_ERROR
    command = {"analyze": cmd_analyze, "capacity": cmd_capacity, "verify": cmd_verify}[args.command]
    try:
        _check_arguments(args)
        return command(args)
    except (ValueError, OSError, MemoryError) as exc:  # MemoryError: sizes too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
