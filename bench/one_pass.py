"""One pass over a workload's examples, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  The pass imports
phimin from ``src/`` of the checkout, runs every example through
``phimin.cli.main`` or the library, timing each and, between them, a
host-speed reference; it reads the peak resident memory, and only then runs
the benchmark's checks on the outputs.  With
``--trace 1`` the spans and counters of ``tracing.Tracer`` are recorded
too.  The result goes to ``--result`` as JSON.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import phimin.cli  # noqa: E402

T_IMPORT = time.perf_counter()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

def reference_kernel() -> float:
    """Seconds for a fixed piece of work that shares no code with phimin:
    the host-speed reference ``run.py`` calibrates the times with.  It mixes
    what phimin's passes spend their time on: vectorized math and sorting,
    a row sort-and-unique like the mesh topology code, float-to-text
    formatting like the artifact writers, and plain bytecode.  Its arrays
    stay small (about 10 MB) so that it never sets the peak memory."""
    rng = np.random.default_rng(12345)
    t = time.perf_counter()
    for _ in range(4):
        values = rng.random(100_000)
        np.sort(np.sin(values) * np.exp(values))
        edges = rng.integers(0, 15_000, size=(30_000, 2))
        np.unique(np.sort(edges, axis=1), axis=0, return_counts=True)
        "\n".join("v %.17g %.17g %.17g" % tuple(r)
                  for r in rng.random((4_000, 3)))
        sum(i % 7 for i in range(40_000))
    return time.perf_counter() - t


class Ops:
    """Runs and counts the program's operations.

    An operation is one CLI command or one library call.  One that exits
    non-zero or raises counts as failed; one whose outcome differs from
    the expected one is also recorded as unexpected, which makes the run
    incorrect.
    """

    def __init__(self):
        self.example = ""
        self.attempted = 0
        self.failed = 0
        self.unexpected = []

    def _record(self, label, code, expect):
        self.attempted += 1
        if code != 0:
            self.failed += 1
        if code != expect:
            self.unexpected.append(f"{self.example}: {label} gave {code}, "
                                   f"expected {expect}")

    def cli(self, *argv, expect=0):
        code = phimin.cli.main(list(argv))
        self._record(" ".join(argv[:2]), code, expect)
        return code

    def call(self, label, fn, *args, **kwargs):
        try:
            out = fn(*args, **kwargs)
        except Exception:  # counted as a failed operation and reported
            self._record(label, "raised: " + traceback.format_exc(limit=3), 0)
            return None
        self._record(label, 0, 0)
        return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    src = Path.cwd() / "src"
    if Path(phimin.cli.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"phimin was imported from {phimin.cli.__file__}, "
                 f"not from {src}")

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.add_span("setup.import", T0, T_IMPORT)
        tracer.install()

    work = Path(args.work)
    examples = workloads.examples(args.workload, args.seed,
                                  Path(args.inputs))
    ops = Ops()
    times = {}
    # the untraced passes time the reference before every example and after
    # the last, so it samples the host's speed over the same stretch of time
    reference = []
    for ex in examples:
        if not tracer:
            reference.append(reference_kernel())
        ops.example = ex.name
        if tracer:
            tracer.example = ex.name
        t = time.perf_counter()
        ex.run(ops, work / ex.name)
        times[ex.name] = time.perf_counter() - t
    t_end = time.perf_counter()
    if not tracer:
        reference.append(reference_kernel())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    found = []
    for ex in examples:
        try:
            results = ex.check(work / ex.name)
        except Exception:  # a check that cannot run is a failed check
            results = [checks.Check("check_raised: "
                                    + traceback.format_exc(limit=3),
                                    math.nan, 0.0, False)]
        found += [dict(c._asdict(), example=ex.name) for c in results]

    doc = {"wall_s": sum(times.values()),
           "examples": times,
           "peak_rss_mb": rss_mb,
           "reference_s": reference,
           "attempted": ops.attempted,
           "failed": ops.failed,
           "unexpected": ops.unexpected,
           "checks": found}
    if tracer:
        doc["traced_wall_s"] = t_end - T0
        doc["trace"] = tracer.dump()
    Path(args.result).write_text(json.dumps(doc), encoding="utf-8")


if __name__ == "__main__":
    main()
