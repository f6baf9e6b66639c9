"""The repository benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload minibatch-train --seed 1 --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric, the per-kernel table, the span
table with self times, and the tracing overhead.  The last line of standard
output is the JSON result ``{"correct", "attempted", "failed", "metrics"}``.

Every measurement runs in a fresh child process of this script, with
``REPRO_CODEGEN_CACHE`` and ``REPRO_TUNING_DB`` pointed at fresh directories
under ``perfbench/out/``, so set-up is a cold compile and the user's
``~/.cache/repro`` is never read or written:

* ``--trace 0``: ``SETUP_REPEATS - 1`` set-up-only children, then one main
  child that sets up, measures for ``--seconds`` and checks correctness.
  ``setup_s`` is the median over all of them.
* ``--trace 1``: one untraced and one traced main child, each measuring for
  half of ``--seconds``; the overhead is traced minus untraced.

A failed correctness check, a failed child or a missing ``src/repro`` makes
the run exit non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
#: Seed kept out of every run made while the benchmark was defined, for
#: held-out checks of later claims.
HELD_OUT_SEED = 7919
#: The whole run, children included, ends within this many seconds.
RUN_DEADLINE_S = 170


def provenance(seed: int) -> dict:
    """Host and code fingerprint recorded with every run."""
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target is not None and target.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {
            var: os.environ.get(var, "unset")
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


# ----------------------------------------------------------------------
# child process: one workload measurement
# ----------------------------------------------------------------------
def run_child(args) -> int:
    from workloads import WORKLOADS, CheckFailed

    tracer = None
    if args.role == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        result = WORKLOADS[args.workload](
            args.seed, args.seconds, tracer=tracer, setup_only=args.role == "setup"
        )
    except CheckFailed as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        return 1
    for line in result.get("report", []):
        print(line)
    if tracer is not None:
        import tracing

        result["layers"] = tracing.layer_metrics(tracer, result)
        for cell, rows in result.get("kernels", {}).items():
            print("\n".join(tracing.kernel_table(cell, rows)))
        print("spans (traced run):")
        print("\n".join(tracing.span_table(tracer)))
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(str(trace_path), provenance(args.seed))
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    keep = ("setup_s", "peak_rss_mb", "p50_ms", "tail_ms", "rate_per_s", "attempted", "failed", "layers")
    with open(args.out, "w") as handle:
        json.dump({key: result[key] for key in keep if key in result}, handle)
    return 0


# ----------------------------------------------------------------------
# parent process: orchestrate children, print the result line
# ----------------------------------------------------------------------
def spawn(role: str, args, seconds: float, rundir: Path, index: int, deadline: float) -> dict:
    """Run one child in fresh cache directories; returns its result.

    The child is killed and waited for if it outlives ``deadline``.
    """
    workdir = rundir / f"{role}-{index}"
    workdir.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["REPRO_CODEGEN_CACHE"] = str(workdir / "codegen")
    env["REPRO_TUNING_DB"] = str(workdir / "tuning_db.json")
    out = workdir / "result.json"
    command = [
        sys.executable, str(Path(__file__).resolve()), "--role", role, "--out", str(out),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", repr(seconds),
    ]
    sys.stdout.flush()
    completed = subprocess.run(command, env=env, cwd=ROOT, timeout=max(deadline - time.monotonic(), 1.0))
    if completed.returncode != 0:
        raise RuntimeError(f"{role} child exited with code {completed.returncode}")
    with open(out) as handle:
        return json.load(handle)


def orchestrate(args, spec: dict) -> int:
    end_to_end = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    per_layer = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    deadline = time.monotonic() + RUN_DEADLINE_S
    OUT.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    print("provenance: " + json.dumps(provenance(args.seed)))
    try:
        if args.trace:
            half = args.seconds / 2
            plain = spawn("main", args, half, rundir, 0, deadline)
            traced = spawn("traced", args, half, rundir, 1, deadline)
            overhead = {name: traced[name] - plain[name] for name in end_to_end}
            print("tracing overhead (traced minus untraced, half-length runs):")
            for name, unit in end_to_end.items():
                print(f"  {name:<14} {plain[name]:>12.4f} -> {traced[name]:>12.4f} {unit:<6} "
                      f"({overhead[name]:+.4f})")
            values = dict(traced["layers"])
            values.update({f"trace.overhead.{name}": overhead[name] for name in end_to_end})
            units, result = per_layer, traced
        else:
            setups = [spawn("setup", args, args.seconds, rundir, i, deadline)["setup_s"]
                      for i in range(SETUP_REPEATS - 1)]
            result = spawn("main", args, args.seconds, rundir, SETUP_REPEATS, deadline)
            values = dict(result)
            values["setup_s"] = statistics.median(setups + [result["setup_s"]])
            print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups + [result['setup_s']])}")
            units = end_to_end
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"benchmark failed: metrics not produced: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "main", "traced"), help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative (it seeds numpy generators)")
    if args.role:
        return run_child(args)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"benchmark failed: {ROOT} holds no src/repro package or no BENCHMARK.json", file=sys.stderr)
        return 2
    with open(spec_path) as handle:
        spec = json.load(handle)
    # A terminated run still kills and waits for its child (subprocess.run
    # does so on any exception).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload not in {workload["name"] for workload in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    return orchestrate(args, spec)


if __name__ == "__main__":
    sys.exit(main())
