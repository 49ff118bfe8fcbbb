"""cvchan benchmark: one workload, one seed, end-to-end or traced.

    python3 bench/run.py --workload campaigns --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The package is imported from ``src/``
of that checkout; no install step is needed.  Every measured op runs in a
fresh single-threaded interpreter (``worker.py``) with the BLAS and OpenMP
thread counts pinned to 1; this parent process only starts workers, one at
a time, and summarizes what they report.  Times are scaled to a reference
machine speed by ``worker.calibrate()`` (see ``bench/README.md``); the raw
figures are printed beside them.

``--trace 0`` times set-up in several fresh interpreters and then runs
whole passes of the workload for ``--seconds``.  ``--trace 1`` runs a
fixed number of passes twice, untraced and then with the module-boundary
wrappers, and reports per-layer metrics and the tracing overhead; it also
records one informational traced run with the thread variables unset.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it print every metric by name
with its unit.  A fuller record (environment, per-command times, failures)
goes to ``.bench_out/BENCH_<workload>_seed<seed>_trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from worker import CAL_REF_S, THREAD_VARS, calibrate  # noqa: E402
from workloads import NOMINAL_PASS_S, WORKLOADS  # noqa: E402

#: Set-up is timed in this many fresh interpreters per run; the median is
#: reported.
SETUP_PROBES = 5
#: Every worker of one run must have ended this long after the run began.
RUN_DEADLINE_S = 175.0
STARTED = time.perf_counter()


class WorkerError(RuntimeError):
    pass


def worker_env(pinned: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS and k != "PYTHONPATH"}
    if pinned:
        env.update({var: "1" for var in THREAD_VARS})
    return env


def run_worker(config: dict, pinned: bool = True) -> tuple[float, dict | None]:
    """Start one worker, time it to READY, wait for it; return (setup_s, result)."""
    out = os.path.join(ROOT, ".bench_out", f"worker-{os.getpid()}.json")
    config = {**config, "root": ROOT, "out": out}
    if os.path.exists(out):
        os.remove(out)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(config)],
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=worker_env(pinned), cwd=ROOT, text=True,
    )
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        proc.communicate(timeout=max(1.0, RUN_DEADLINE_S - (time.perf_counter() - STARTED)))
        code = proc.returncode
    except subprocess.TimeoutExpired:
        code = "none (killed at the run deadline)"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "READY" or code != 0:
        raise WorkerError(f"worker ({config['mode']}) exited with code {code} before finishing")
    if config["mode"] == "setup":
        return setup_s, None
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)
    os.remove(out)
    return setup_s, result


def source_lines() -> int:
    total = 0
    for base, _, names in os.walk(os.path.join(ROOT, "src", "cvchan")):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(base, name), encoding="utf-8") as handle:
                    total += sum(1 for _ in handle)
    return total


def git_commit() -> str | None:
    """HEAD read from the .git directory, when the checkout has one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def setup_probe(base: dict) -> tuple[float, float]:
    """Set-up seconds of one fresh interpreter: (raw, at the reference speed)."""
    before = calibrate()
    raw = run_worker({**base, "mode": "setup"})[0]
    return raw, raw * 2.0 * CAL_REF_S / (before + calibrate())


def end_to_end(args, probes: list[tuple[float, float]], result: dict) -> tuple[dict, dict]:
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in probes), "s"),
        # A mean, not a median: after the speed scaling, what varies between
        # passes is the seed-dependent work of each pass (the lemma1
        # instance mix, the search restarts), which a mean averages better.
        "wall_s": (statistics.mean(result["pass_ref_s"]), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    info = {
        "failed_ratio": (result["failed"] / max(1, result["attempted"]), "ratio"),
        "setup_raw_s": (statistics.median(raw for raw, _ in probes), "s"),
        "wall_raw_s": (statistics.mean(result["pass_s"]), "s"),
        "machine_speed": (CAL_REF_S / statistics.median(result["cal_s"]), "ratio"),
    }
    ops = {kind: times for kind, times in sorted(result["op_ref_s"].items()) if not kind.endswith(".replay")}
    if args.workload == "calls":
        calls = [t for times in ops.values() for t in times]
        info["call_p50_us"] = (1e6 * statistics.median(calls), "us")
        info["call_p90_us"] = (1e6 * statistics.quantiles(calls, n=10)[-1], "us")
        info["calls_per_pass"] = (len(calls) / max(1, len(result["pass_s"])), "count")
    else:
        info.update({f"{kind}_s": (statistics.median(times), "s") for kind, times in ops.items()})
    return metrics, info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny command sizes, for the harness self-test")
    args = parser.parse_args()
    # On SIGTERM, unwind through run_worker's cleanup, which kills the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    if not os.path.isfile(os.path.join(ROOT, "src", "cvchan", "__init__.py")):
        print(f"error: no cvchan sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    base = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke, "trace": False}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "git_commit": git_commit(), "src_cvchan_lines": source_lines(),
              "load": "closed loop, one caller, one process, BLAS threads pinned to 1"}
    try:
        if args.trace == 0:
            probes = [setup_probe(base) for _ in range(SETUP_PROBES)]
            _, result = run_worker({**base, "mode": "measure", "seconds": args.seconds})
            metrics, info = end_to_end(args, probes, result)
            workers = [result]
            record.update(setup_samples_s=probes, pass_s=result["pass_s"], pass_ref_s=result["pass_ref_s"],
                          cal_s=result["cal_s"], env=result["env"], failures=result["failures"],
                          informational=info)
            if args.workload != "calls":
                record.update(op_s=result["op_s"], op_ref_s=result["op_ref_s"])
        else:
            # A fixed pass count keeps the traced op set, and so every
            # per-layer count, a function of (seed, seconds) alone.
            passes = max(1, round(args.seconds / 2 / NOMINAL_PASS_S[args.workload]))
            fixed = {**base, "mode": "passes", "passes": passes, "seconds": args.seconds}
            _, plain = run_worker(fixed)
            spans = os.path.join(ROOT, ".bench_out", f"spans_{args.workload}_seed{args.seed}.npz")
            _, traced = run_worker({**fixed, "trace": True, "spans": spans})
            _, default_threads = run_worker(
                {**base, "mode": "info", "trace": True, "seconds": args.seconds / 6}, pinned=False)
            plain_wall = sum(sum(v) for v in plain["op_ref_s"].values())
            metrics = {name: tuple(value) for name, value in traced["layers"].items()}
            metrics["trace.overhead"] = (traced["traced_wall_ref_s"] / plain_wall - 1.0, "ratio")
            workers = [plain, traced, default_threads]
            record.update(passes=passes, spans=spans, env=traced["env"], untraced_wall_ref_s=plain_wall,
                          machine_speed=CAL_REF_S / statistics.median(traced["cal_s"]),
                          traced_wall_ref_s=traced["traced_wall_ref_s"],
                          failures=plain["failures"] + traced["failures"] + default_threads["failures"],
                          default_threads={"env": default_threads["env"], "layers": default_threads["layers"],
                                           "traced_wall_s": default_threads["traced_wall_s"]})
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    record.update(metrics=metrics, attempted=attempted, failed=failed)
    path = os.path.join(ROOT, ".bench_out", f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {attempted} ops, {failed} failed, "
          f"record in {os.path.relpath(path, ROOT)}")
    for name, (value, unit) in {**metrics, **record.get("informational", {})}.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
