"""One benchmark interpreter: set up, run passes of a workload, report.

Started by ``run.py`` as ``python3 bench/worker.py CONFIG_JSON``.  The
config names the checkout root, workload, seed, mode and stop rule.  The
worker prints ``READY`` on stdout once imports and input files are done,
so the parent can time set-up from interpreter start, then writes its
result to ``config["out"]``.

Modes: ``setup`` exits after READY; ``measure`` runs whole passes until
``seconds`` have elapsed and at least ``MIN_PASSES`` are done; ``passes``
runs exactly ``passes`` passes; ``info`` runs ops until ``seconds`` have
elapsed.  With ``trace`` set, the module-boundary wrappers are installed
before the first op.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time

import numpy as np

#: A median needs a few samples even when one pass outlasts ``seconds``.
MIN_PASSES = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: Seconds ``calibrate()`` takes on the reference machine (the shared 2-core
#: x86-64 virtual machine of the seed baseline, in its faster state).
CAL_REF_S = 0.0046
_CAL_MATRIX = np.eye(6) * 2.0 + np.full((6, 6), 0.25)


def calibrate() -> float:
    """Seconds for a fixed kernel of small LAPACK calls driven from Python.

    The shared machines this runs on change speed by up to 1.7x within
    seconds, for every process alike.  Timing this kernel next to each
    unit of work and scaling the unit by ``CAL_REF_S / kernel time``
    reports the work at the reference machine speed; a change to cvchan
    cannot change the kernel.
    """
    start = time.perf_counter()
    for _ in range(250):
        np.linalg.eigh(_CAL_MATRIX)
        np.linalg.svd(_CAL_MATRIX, compute_uv=False)
    return time.perf_counter() - start


def environment() -> dict:
    import scipy

    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {key: deps.get(key) for key in ("blas", "lapack")}
    except (TypeError, AttributeError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
    }


class Runner:
    """Times ops, runs their checks, and keeps the per-op record.

    Ops are grouped into units (one command, or one pass of library
    calls); ``calibrate()`` runs before the first unit and after each one,
    and a unit's ops are scaled by the mean of the two samples around it.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.ops: list[tuple[str, float, int]] = []  # (kind, seconds, unit)
        self.cal_s = [calibrate()]

    def end_unit(self) -> None:
        if self.ops and self.ops[-1][2] == len(self.cal_s) - 1:
            self.cal_s.append(calibrate())

    def run(self, kind: str, thunk, check):
        import workloads as wl

        self.attempted += 1
        call = (lambda: self.tracer.call("op." + kind, thunk)) if self.tracer else thunk
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # an op that raises is a failed op, and the loop goes on
            self.failures.append(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        self.ops.append((kind, time.perf_counter() - start, len(self.cal_s) - 1))
        try:
            check(result)
        except (wl.CheckFailed, KeyError, TypeError, ValueError) as exc:
            self.failures.append(f"{kind}: {exc}")
        return result

    def scaled(self) -> list[float]:
        """Each op's seconds at the reference machine speed."""
        self.end_unit()
        return [t * 2.0 * CAL_REF_S / (self.cal_s[u] + self.cal_s[u + 1]) for _, t, u in self.ops]


def main() -> int:
    config = json.loads(sys.argv[1])
    root = config["root"]
    sys.path.insert(0, os.path.join(root, "src"))
    import cvchan
    import cvchan.cli as cli
    import workloads as wl

    if not os.path.abspath(cvchan.__file__).startswith(os.path.join(root, "src") + os.sep):
        print(f"error: cvchan imported from {cvchan.__file__}, not from the checkout", file=sys.stderr)
        return 2

    workload = config["workload"]
    inputs = tempfile.mkdtemp(prefix=f"inputs-{workload}-", dir=os.path.join(root, ".bench_out"))
    try:
        files = {"custom_record": wl.custom_channel_record()}
        for key, record in (("thermal", wl.THERMAL_README), ("custom", files["custom_record"])):
            files[key] = os.path.join(inputs, f"{key}.json")
            with open(files[key], "w", encoding="utf-8") as handle:
                json.dump(record, handle)
        pool = wl.CallsPool(config["seed"], inputs) if workload == "calls" else None
        print("READY", flush=True)
        if config["mode"] == "setup":
            return 0
        return run(config, cvchan, cli, wl, files, pool)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


def run(config, cvchan, cli, wl, files, pool) -> int:
    tracer = None
    if config["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    runner = Runner(tracer)
    workload, mode, seconds = config["workload"], config["mode"], config["seconds"]
    seeds = np.random.Generator(np.random.Philox(key=[config["seed"], 0]))
    specs = None if workload == "calls" else wl.command_specs(workload, config["smoke"])

    def main_now(argv):
        return cli.main(argv)  # looked up per call, so a traced rebinding is used

    def pass_ops(index: int):
        if pool is not None:
            yield from wl.calls_pass_ops(cvchan, main_now, pool, index)
            return
        for name, template in specs:
            argv = [files.get(part.strip("{}"), part) if part.startswith("{") else part for part in template]
            argv += ["--seed", str(int(seeds.integers(0, 2**31 - 1)))]
            yield name, (lambda argv=argv: wl.run_cli(main_now, argv)), \
                (lambda result, name=name: wl.check_command(name, result[0], result[1], files))

    passes: list[tuple[int, int]] = []  # op index range of each whole pass
    replay = None
    start = time.perf_counter()
    index = 0
    stop = False
    while not stop:
        first = len(runner.ops)
        for kind, thunk, check in pass_ops(index):
            out = runner.run(kind, thunk, check)
            if pool is None:
                runner.end_unit()
            if replay is None and isinstance(out, tuple):
                replay = (kind, thunk, out[1])
            if mode == "info" and time.perf_counter() - start >= seconds:
                stop = True
                break
        else:
            runner.end_unit()
            passes.append((first, len(runner.ops)))
        index += 1
        if mode == "passes":
            stop = stop or index >= config["passes"]
        elif mode == "measure":
            stop = len(passes) >= MIN_PASSES and time.perf_counter() - start >= seconds
        else:
            stop = stop or time.perf_counter() - start >= seconds

    # Determinism: the first command of the run, replayed with the same
    # (config, seed), must emit the same bytes.
    if replay is not None:
        runner.end_unit()
        kind, thunk, first_bytes = replay

        def same_bytes(result):
            if result[1] != first_bytes:
                raise wl.CheckFailed("replay with the same seed emitted different bytes")

        runner.run(kind + ".replay", thunk, same_bytes)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scaled = runner.scaled()
    op_s: dict[str, list[float]] = {}
    op_ref_s: dict[str, list[float]] = {}
    for (kind, raw, _), ref in zip(runner.ops, scaled):
        op_s.setdefault(kind, []).append(raw)
        op_ref_s.setdefault(kind, []).append(ref)
    result = {
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:20],
        "pass_s": [sum(op[1] for op in runner.ops[a:b]) for a, b in passes],
        "pass_ref_s": [sum(scaled[a:b]) for a, b in passes],
        "op_s": op_s,
        "op_ref_s": op_ref_s,
        "cal_s": runner.cal_s,
        "peak_rss_mb": peak_rss_mb,
        "env": environment(),
    }
    if tracer is not None:
        from tracing import layer_metrics

        traced_wall = sum(op[1] for op in runner.ops)
        result["traced_wall_s"] = traced_wall
        result["traced_wall_ref_s"] = sum(scaled)
        result["layers"] = layer_metrics(tracer, traced_wall)
        if config.get("spans"):
            tracer.dump(config["spans"])
    with open(config["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
