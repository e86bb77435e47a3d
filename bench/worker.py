"""Batches of one workload, in the process this script starts in.

    python3 bench/worker.py --workload NAME --seed N --budget S [--trace 0|1]
    python3 bench/worker.py --workload NAME --setup-only

Times set-up (from before ``import condensim`` to the end of the
workload's warm-up), then runs one batch after another, batch ``i`` on
the input set ``sub_seed(N, i)``, until about ``S`` seconds after
the process started.  Each batch is timed, its outputs checked, and
its record printed as one JSON line as soon as it ends, so that a
worker killed mid-batch has reported the batches before.  With
``--trace 1`` each batch runs untraced and then traced, with the
condensim names rebound to traced versions; the traced pass adds its
per-layer metrics to the record, and its spans go to ``bench/_out/``.
``run.py`` starts this script.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"
STARTED = time.perf_counter()


def sub_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th input set of a run with ``--seed seed``."""
    return seed * 100 + index


def setup(workload: str, paths: int | None):
    """The workload object, and the seconds its set-up took."""
    t0 = time.perf_counter()
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import condensim

    here = Path(condensim.__file__).resolve().parent
    if here != ROOT / "src" / "condensim":
        raise ImportError(f"condensim imported from {here}, not from this checkout")
    import spec
    import workloads

    if paths is None:
        paths = spec.WORKLOADS[workload].paths
    job = workloads.WORKLOADS[workload](paths, ROOT)
    return job, time.perf_counter() - t0


def timed(job, seed: int, trace: bool, spans_path: Path | None = None) -> dict:
    """One pass of ``job`` on input set ``seed``, timed and checked; a
    traced pass writes its spans to ``spans_path``."""
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    c0, w0 = time.process_time(), time.perf_counter()
    try:
        result = job.run(seed)
        error = None
    except Exception:  # an ensemble that raises fails every operation
        result, error = None, traceback.format_exc()
    finally:
        wall_s = time.perf_counter() - w0
        cpu_s = time.process_time() - c0
        if tracer is not None:
            tracer.uninstall()

    if error is None:
        attempted, failed, digest, notes = job.check(result)
    else:
        attempted, failed, digest, notes = job.ops, job.ops, None, {"error": error}
    record = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "paths": job.paths,
        "attempted": attempted,
        "failed": failed,
        "digest": digest,
        "notes": notes,
        # the process's peak so far: set-up and every pass up to this one
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        record["layers"] = tracing.summarize(tracer.spans)
        record["self_s"] = tracing.self_times(tracer.spans)
        if spans_path is not None:
            spans_path.parent.mkdir(exist_ok=True)
            tracer.write(spans_path)
    return record


def batches(job, seed: int, budget: float, trace: bool, min_batches: int = 1, spans_path=None):
    """Yield one record per batch until about ``budget`` seconds after
    the process started, and always at least ``min_batches``.

    The last batch is the one whose end is nearest the budget.  With
    ``trace`` a batch is an untraced pass, whose fields make the record,
    and a traced pass of the same input set under ``"traced"``.
    """
    durations: list[float] = []
    for index in range(100):
        elapsed = time.perf_counter() - STARTED
        if index >= min_batches and elapsed + statistics.median(durations) / 2 > budget:
            return
        began = time.perf_counter()
        record = timed(job, sub_seed(seed, index), trace=False)
        if trace:
            record["traced"] = timed(job, sub_seed(seed, index), True, spans_path)
        durations.append(time.perf_counter() - began)
        record["batch"] = index
        yield record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--budget", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    def emit(record):
        print(json.dumps(record), flush=True)

    job, setup_s = setup(args.workload, None)
    emit({"setup_s": setup_s})
    if args.setup_only:
        return 0
    import spec

    gate = spec.WORKLOADS[args.workload].gate_batches
    spans_path = OUT / f"spans-{args.workload}.jsonl"
    for record in batches(job, args.seed, args.budget, bool(args.trace), gate, spans_path):
        emit(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
