"""Command-line surface: channel analysis, capacity, verification campaigns.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 input or configuration error, 3 unsupported request (closed form asked
for a kind that has none, without --numeric).

Reports are deterministic: identical (config, seed) produce identical
bytes.  Progress and timing go to stderr; reports go to --out or stdout.
"""

from __future__ import annotations

import argparse
import csv
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

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_UNSUPPORTED = 3

VERIFY_TARGETS = ("theorem1", "lemma1", "schur", "concavity", "multiplicativity", "additivity")


def _parse_float_list(text: str) -> list[float]:
    values = [float(part) for part in text.split(",") if part.strip()]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"expected finite numbers, got {text!r}")
    return values


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
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
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
    rows = report.get("results")
    if not isinstance(rows, list):
        rows = [report]
    flat_rows = []
    for entry in rows:
        row: dict = {}
        _flatten("", entry, row)
        flat_rows.append(row)
    header: list[str] = []
    for row in flat_rows:
        for key in row:
            if key not in header:
                header.append(key)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=header, lineterminator="\n")
    writer.writeheader()
    for row in flat_rows:
        writer.writerow(row)
    return buffer.getvalue()


def _base_report(args, tolerances: dict) -> dict:
    return {
        "tool": "cvchan",
        "version": __version__,
        "operation": args.command,
        "seed": args.seed,
        "tolerances": tolerances,
    }


def cmd_analyze(args) -> int:
    try:
        channel, _ = ch.load_channel(args.channel)
        p_values = _parse_float_list(args.p)
    except (ch.ChannelSpecError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    report = _base_report(args, {"tol_opt": fn.TOL_OPT_CLOSED})
    results = []
    for p in p_values:
        entry = {"p": p, "kind": channel.kind}
        try:
            inf_fp = fn.min_output_fp_closed(channel, p)
            entry["closed_form"] = True
            if math.isfinite(inf_fp):
                entry["inf_F_p"] = inf_fp
            else:  # the product overflows; its log does not
                entry["inf_F_p"] = None
                entry["log_inf_F_p"] = fn.log_min_output_fp_closed(channel, p)
            entry["xi_p"] = fn.max_output_p_norm(channel, p)
            entry["S_min"] = fn.min_output_entropy_closed_only(channel)
        except fn.UnsupportedKindError:
            if not args.numeric:
                print(
                    f"error: kind {channel.kind!r} has no closed form; rerun with --numeric",
                    file=sys.stderr,
                )
                return EXIT_UNSUPPORTED
            search = fn.numeric_inf_fp(channel, p, budget=args.budget, seed=args.seed)
            entry["closed_form"] = False
            entry["inf_F_p"] = search.best_value
            entry["xi_p"] = 2.0**channel.n / search.best_value ** (1.0 / p)
            entry["S_min"] = fn.numeric_min_entropy(channel, budget=args.budget, seed=args.seed).best_value
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        results.append(entry)
    report["channel"] = ch.channel_to_record(channel)
    report["results"] = results
    _emit(report, args.format, args.out)
    return EXIT_OK


def cmd_capacity(args) -> int:
    try:
        channel, file_omega = ch.load_channel(args.channel)
        if args.omega is not None:
            omega = np.asarray(_parse_float_list(args.omega))
        elif file_omega is not None:
            omega = file_omega
        else:
            omega = np.ones(channel.n)
        budget = fn.EnergyBudget(args.energy, omega)
        if budget.omega.shape != (channel.n,):
            raise ValueError(f"expected {channel.n} frequencies, got {budget.omega.size}")
    except (ch.ChannelSpecError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    report = _base_report(args, {"tol_sup": fn.TOL_OPT_SUP})
    try:
        cap = fn.gaussian_holevo_capacity(channel, budget, search_budget=args.budget, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    report["channel"] = ch.channel_to_record(channel)
    record = cap.record()
    record.pop("search", None)  # optimizer trace summary stays compact
    record["flag"] = "ok" if cap.feasible else "infeasible"
    if cap.search is not None:
        record["evaluations"] = cap.search.evaluations
        record["budget"] = cap.search.budget
        record["converged"] = cap.search.converged
    report["energy"] = args.energy
    report["omega"] = [float(w) for w in budget.omega]
    report["result"] = record
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


#: Per verify target: the report key and the default of the tolerance
#: that --tol sets.
_VERIFY_TOLERANCES = {
    "theorem1": ("prefix_atol", mj.PREFIX_ATOL),
    "lemma1": ("prefix_atol", mj.PREFIX_ATOL),
    "schur": ("prefix_atol", mj.PREFIX_ATOL),
    "concavity": ("concavity_bound", 1e-9),
    "multiplicativity": ("tol_opt", fn.TOL_OPT_CLOSED),
    "additivity": ("tol_sup", fn.TOL_OPT_SUP),
}


def _run_target(args, report: dict) -> bool:
    """Run one verification target into ``report``; return True on failure."""
    failed = False
    tol = _VERIFY_TOLERANCES[args.target][1] if args.tol is None else args.tol
    if args.target == "theorem1":
        trial = mj.theorem1_trial(args.max_modes, trials=args.trials, seed=args.seed, atol=tol)
        report["result"] = trial.record()
        failed = not trial.passed
    elif args.target == "lemma1":
        campaign = mj.lemma1_campaign(
            instances=args.instances,
            max_modes=min(args.max_modes, 3),
            samples=args.trials,
            seed=args.seed,
            atol=tol,
        )
        report["result"] = campaign.record()
        failed = not campaign.passed or abs(campaign.witness_gap) > 1e-8
    elif args.target == "schur":
        campaign = mj.schur_campaign(trials=args.trials, max_dim=args.max_modes * 2, seed=args.seed, atol=tol)
        report["result"] = campaign.record()
        failed = not campaign.passed
    elif args.target == "concavity":
        check = fn.log_fp_concavity_check(bound=tol)
        report["result"] = check.record()
        failed = not check.passed
    elif args.target == "multiplicativity":
        results = []
        for label, p, pair in _builtin_channel_pairs():
            check = fn.multiplicativity_check(pair, p, search_budget=args.budget, seed=args.seed, tol=tol)
            entry = {"pair": label, **check.record()}
            results.append(entry)
            failed = failed or not check.passed
        report["results"] = results
    else:  # additivity
        pair = [ch.classical_noise(np.diag([2.0, 2.0])), ch.classical_noise(np.diag([1.0, 1.0]))]
        budget = fn.EnergyBudget(args.energy, np.ones(2))
        check = fn.additivity_check(pair, budget, search_budget=args.budget, seed=args.seed, tol=tol)
        report["result"] = check.record()
        failed = not check.passed
    return failed


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    tolerances = {"prefix_atol": mj.PREFIX_ATOL, "prefix_rtol": mj.PREFIX_RTOL}
    if args.tol is not None:
        tolerances[_VERIFY_TOLERANCES[args.target][0]] = args.tol
    report = _base_report(args, tolerances)
    report["target"] = args.target
    try:
        failed = _run_target(args, report)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    print(f"verify {args.target}: {'FAIL' if failed else 'PASS'} ({time.monotonic() - t0:.1f} s)", file=sys.stderr)
    _emit(report, args.format, args.out)
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code) if exc.code is not None else EXIT_INPUT_ERROR
    for name, value in vars(args).items():
        # Reports are strict JSON, which has no NaN or Infinity.
        if isinstance(value, float) and not math.isfinite(value):
            print(f"error: --{name.replace('_', '-')} must be a finite number, got {value}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    if args.command == "analyze":
        return cmd_analyze(args)
    if args.command == "capacity":
        return cmd_capacity(args)
    return cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
