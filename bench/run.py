"""Benchmark of phimin's example families, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload gallery --seed 1 --seconds 20 --trace 0

Workloads are ``gallery``, ``duality`` and ``representation`` (see
``workloads.py``).  A run fills the file cache with one untimed start of
``phimin.cli``, times several more starts (``setup_s``), then runs whole
passes over the workload's examples, each in a fresh interpreter, until
``--seconds`` have gone by and at least two passes are done.  Every pass
checks its outputs against closed forms.  The times are calibrated
against a host-speed reference timed between the examples (``REFERENCE_S``
below).  ``--trace 1`` adds one traced pass and reports the per-layer
metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; metric names and units come from
``BENCHMARK.json``.  The run's record (library versions, cores, thread
settings, commit, ``src/`` size) and every pass's figures are written to
``bench/_runs/<run id>/run.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_LAUNCHES = 5
MIN_PASSES = 2
# Host-speed calibration: times are reported as measured seconds scaled by
# REFERENCE_S / (the run's median time of ``one_pass.reference_kernel``).
# The host's speed drifts by 10-25 % over tens of minutes; the reference
# drifts with it, the ratio does not.  REFERENCE_S is the kernel's typical
# time on the host the reference figures in README.md were measured on.
REFERENCE_S = 0.21
CHILD_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env(root: Path) -> dict:
    """One BLAS thread, PHIMIN_THREADS unset, phimin from ``src/``."""
    env = dict(os.environ)
    env.pop("PHIMIN_THREADS", None)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    paths = [str(root / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def launch(argv, root: Path, env: dict):
    """Run a child to its end; returns (seconds, completed process)."""
    t = time.perf_counter()
    proc = subprocess.run(argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    seconds = time.perf_counter() - t
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(map(str, argv[:4]))} exited "
                         f"{proc.returncode}: {(proc.stderr or '')[-2000:]}")
    return seconds, proc


def run_pass(args, root, env, run_dir, work, k, traced=False) -> dict:
    result = run_dir / f"pass{k}{'-traced' if traced else ''}.json"
    argv = [sys.executable] + (["-X", "importtime"] if traced else []) + [
        str(BENCH / "one_pass.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--inputs", str(work / "inputs"),
        "--work", str(work / f"pass{k}"), "--result", str(result),
        "--trace", "1" if traced else "0"]
    _, proc = launch(argv, root, env)
    doc = json.loads(result.read_text(encoding="utf-8"))
    shutil.rmtree(work / f"pass{k}", ignore_errors=True)
    if traced:
        doc["importtime"] = tracing.parse_importtime(proc.stderr)
    return doc


def record(args, root: Path, passes: int) -> dict:
    """Where and on what the figures were measured."""
    src_files = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in src_files:
        data = f.read_bytes()
        digest.update(f.relative_to(root).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    try:
        import numpy
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except Exception:  # older numpy: no dict form of the build config
        blas = None
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "passes": passes,
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "nproc": os.cpu_count(),
            "cpus_available": len(os.sched_getaffinity(0)),
            "blas": blas,
            "blas_threads": {v: "1" for v in BLAS_THREAD_VARS},
            "PHIMIN_THREADS": {"outer": os.environ.get("PHIMIN_THREADS"),
                               "passes": None},
            "git_commit": commit,
            "src_sha256": digest.hexdigest(),
            "src_lines": lines,
            "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def metric_list(root: Path, trace: int) -> list:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def measure(args, root: Path) -> dict:
    wanted = metric_list(root, args.trace)
    env = child_env(root)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-" \
             f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    run_dir = BENCH / "_runs" / run_id
    work = BENCH / "_work" / run_id
    run_dir.mkdir(parents=True)
    try:
        workloads.make_inputs(args.workload, args.seed, work / "inputs")
        start = [sys.executable, "-c", "import phimin.cli"]
        launch(start, root, env)  # untimed: fills the file cache
        setup = ([launch(start, root, env)[0]
                  for _ in range(SETUP_LAUNCHES)] if not args.trace else [])

        passes = []
        t_begin = time.perf_counter()
        while (len(passes) < MIN_PASSES
               or time.perf_counter() - t_begin < args.seconds):
            passes.append(run_pass(args, root, env, run_dir, work,
                                   len(passes)))
        traced = (run_pass(args, root, env, run_dir, work, len(passes),
                           traced=True) if args.trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    done = passes + ([traced] if traced else [])
    wall = statistics.median(p["wall_s"] for p in passes)
    measured = {
        "setup_s": statistics.median(setup) if setup else None,
        "wall_s": wall,
        "example_p50_s": statistics.median(
            t for p in passes for t in p["examples"].values()),
    }
    reference = statistics.median(r for p in passes for r in p["reference_s"])
    scale = REFERENCE_S / reference
    values = {k: v * scale for k, v in measured.items() if v is not None}
    values["peak_rss_mb"] = statistics.median(p["peak_rss_mb"]
                                              for p in passes)
    if traced:
        values = tracing.layer_metrics(traced["trace"],
                                       traced["traced_wall_s"], wall,
                                       traced["importtime"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    failed_checks = [c for p in done for c in p["checks"] if not c["ok"]]
    unexpected = [u for p in done for u in p["unexpected"]]
    summary = {"correct": not failed_checks and not unexpected,
               "attempted": sum(p["attempted"] for p in done),
               "failed": sum(p["failed"] for p in done),
               "metrics": metrics}
    doc = {"record": record(args, root, len(passes)),
           "result": summary,
           "measured_s": measured,
           "reference_s": reference,
           "calibration": scale,
           "setup_launches_s": setup,
           "passes": [{k: p[k] for k in ("wall_s", "examples", "peak_rss_mb",
                                          "reference_s", "attempted",
                                          "failed")}
                      for p in passes],
           "checks": done[0]["checks"],
           "failed_checks": failed_checks,
           "unexpected": unexpected}
    if traced:
        doc["traced_pass"] = {"wall_s": traced["traced_wall_s"],
                              "examples": traced["examples"],
                              "counts": traced["trace"]["counts"]}
    (run_dir / "run.json").write_text(json.dumps(doc, indent=1),
                                      encoding="utf-8")
    for item in failed_checks + unexpected:
        print(f"FAILED: {item}", file=sys.stderr)
    print(f"record: {run_dir / 'run.json'}", file=sys.stderr)
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "phimin" / "cli.py").is_file():
        print(f"error: {root} holds no phimin sources (src/phimin); run the "
              "benchmark from the root of a checkout", file=sys.stderr)
        return 2
    try:
        summary = measure(args, root)
    except (BenchError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
