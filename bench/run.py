"""condensim benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --write-json      # regenerate BENCHMARK.json

A run times set-up in ``spec.SETUPS`` fresh single-threaded worker
processes (``worker.py``, BLAS pools pinned to one thread), one after
another; the last of them then runs batches of the workload, each on
its own input set derived from the seed, until about ``--seconds``
seconds after the run began.  A worker still running ``spec.LIMIT_S``
seconds after the run began is killed, and the batch it was running
counts as failed.  With ``--trace 0`` the end-to-end metrics are the
median set-up time and, over the batches, the mean time per batch and
the paths per second; with ``--trace 1`` each batch runs untraced and
then traced, the two must give the same output digest, and the
per-layer metrics come from the traced passes.  Every metric is
printed by name and unit; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The environment, the batch records and the output digests are written
to ``bench/_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import spec

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"
RUN_SECONDS = 30
SINGLE_THREAD = {
    var: "1" for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}


def environment() -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": SINGLE_THREAD,
        "loadavg": os.getloadavg(),
    }


def worker(workload: str, args: list[str], deadline: float) -> tuple[list[dict], dict | None]:
    """The records one worker process printed, and what went wrong with
    it: ``{"killed": ...}`` when it ran past ``deadline`` (a
    ``time.monotonic()`` value), ``{"crashed": ...}`` on a non-zero exit."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, *args]
    env = dict(os.environ, **SINGLE_THREAD)
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=deadline - time.monotonic())
        problem = {"crashed": proc.returncode} if proc.returncode else None
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        problem = {"killed": True, "limit_s": spec.LIMIT_S}
    if problem:
        sys.stderr.write(err[-4000:])
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:  # a line cut short by the kill
            pass
    return records, problem


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set-up times, batch records and problems of one run.

    The first ``spec.SETUPS - 1`` workers only set up; the last one also
    runs the batches, on the input sets ``worker.sub_seed(seed, i)``, for
    what is left of ``seconds``.  A killed or crashed worker ends the run.
    """
    start = time.monotonic()
    deadline = start + spec.LIMIT_S
    run = {"setups": [], "batches": [], "problems": []}
    for last in [False] * (spec.SETUPS - 1) + [True]:
        if last:
            budget = seconds - (time.monotonic() - start)
            args = ["--seed", str(seed), "--budget", f"{budget:.3f}", "--trace", str(int(trace))]
        else:
            args = ["--setup-only"]
        records, problem = worker(workload, args, deadline)
        for record in records:
            if "setup_s" in record:
                run["setups"].append(record["setup_s"])
            else:
                run["batches"].append(record)
        if problem:
            run["problems"].append(problem)
            break
    return run


def pooled_gates(batches: list[dict], gate_batches: int) -> tuple[int, dict]:
    """Operations failed by the statistical gates, and their z-scores.

    Each gate pools the first ``gate_batches`` batches, a fixed number
    of paths whatever the speed of the machine or the code.  When it
    fails, every operation it covers fails, in their traced passes too.
    """
    covered = [b for b in batches if b["batch"] < gate_batches]
    passes = covered + [b["traced"] for b in covered if "traced" in b]
    failed, scores = 0, {}
    winners = [b["notes"]["winners"] for b in covered if "winners" in b["notes"]]
    if winners:
        n = sum(b["paths"] for b in covered)
        p = 1.0 / len(winners[0])
        scores["winners"] = max(
            abs(sum(counts) - n * p) / (n * p * (1 - p)) ** 0.5 for counts in zip(*winners)
        )
        if scores["winners"] > spec.HISTOGRAM_GATE:
            failed += sum(b["paths"] for b in passes if "winners" in b["notes"])
    residuals = [b["notes"]["residuals"] for b in covered if "residuals" in b["notes"]]
    failing = set()
    for k, per_batch in enumerate(zip(*residuals)):
        engine = per_batch[0][0]
        n, mean, m2 = 0, 0.0, 0.0
        # The merge of condensim.experiments.MomentAccumulator, repeated
        # because this process imports neither numpy nor condensim: it
        # must report a missing or broken condensim tree.
        for _, n_i, mean_i, m2_i in per_batch:
            delta = mean_i - mean
            mean += delta * n_i / (n + n_i)
            m2 += m2_i + delta * delta * n * n_i / (n + n_i)
            n += n_i
        z = abs(mean) / (m2 / (n - 1) / n) ** 0.5
        scores[f"{engine}_{k // 2}"] = z
        if z > spec.MARTINGALE_GATE:
            failing.add(engine)
    for engine in failing:
        failed += sum(
            next(n for tag, n, _, _ in b["notes"]["residuals"] if tag == engine)
            for b in passes if "residuals" in b["notes"]
        )
    return failed, scores


def summarize(workload: str, run: dict, trace: bool) -> tuple[dict, dict, dict]:
    """The result line's fields, notes on what made it incorrect, and the
    statistical gates' z-scores.

    Batch times are means over the run's batches, which average over
    input sets whose cost has a long tail; set-up time is the median.
    Per-layer times are medians over the traced passes; counts and
    ratios of counts are exact functions of the input set, so they come
    from the first traced pass.
    """
    batches = run["batches"]
    passes = batches + [b["traced"] for b in batches if "traced" in b]
    attempted = sum(b["attempted"] for b in passes)
    gate_failed, scores = pooled_gates(batches, spec.WORKLOADS[workload].gate_batches)
    failed = min(attempted, sum(b["failed"] for b in passes) + gate_failed)
    problems = {}
    if gate_failed:
        problems["gates"] = scores
    if run["problems"]:
        problems["incomplete"] = run["problems"]
        attempted += spec.WORKLOADS[workload].ops  # the batch that did not end
        failed += spec.WORKLOADS[workload].ops
    if failed:
        problems["failed"] = failed
    if None in (b["digest"] for b in passes):
        problems["digests"] = "missing"
    if trace and any(b["digest"] != b["traced"]["digest"] for b in batches):
        problems["digests"] = "tracing changed the outputs"

    def total(key, rows=batches):
        return sum(r[key] for r in rows)

    metrics = {}
    if trace:
        traced = [b["traced"] for b in batches]
        if traced:
            for name, unit, _, _ in spec.PER_LAYER[:-1]:
                if unit in ("s", "ns"):
                    value = statistics.median(r["layers"][name] for r in traced)
                else:
                    value = traced[0]["layers"][name]
                metrics[name] = {"value": value, "unit": unit}
            overhead = total("wall_s", traced) / total("wall_s") - 1.0
            metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    elif batches and run["setups"]:
        values = {
            "setup_s": statistics.median(run["setups"]),
            "wall_s": total("wall_s") / len(batches),
            "paths_per_s": total("paths") / total("wall_s"),
            "cpu_s": total("cpu_s") / len(batches),
            # One batch's peak, as one invocation of the workload sees
            # it: the process keeps some memory from batch to batch.
            "peak_rss_mb": batches[0]["rss_mb"],
            "ok_frac": 1.0 - failed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in spec.END_TO_END}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, problems, scores


def layer_shares(batches: list[dict]) -> dict[str, float]:
    """Median share of the traced ``wall_s`` spent in each span's own code."""
    traced = [b["traced"] for b in batches if "traced" in b]
    names = sorted({name for r in traced for name in r["self_s"]})
    return {
        name: statistics.median(r["self_s"].get(name, 0.0) / r["wall_s"] for r in traced)
        for name in names
    }


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w.why} for name, w in spec.WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in spec.END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in spec.PER_LAYER],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-json", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_json:
        text = json.dumps(benchmark_json(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text)
        return 0
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    if not 0 < args.seconds <= spec.MAX_SECONDS:
        parser.error(f"--seconds must be in (0, {spec.MAX_SECONDS:g}]")
    if not (ROOT / "src" / "condensim" / "__init__.py").is_file():
        print(f"error: no condensim source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment()
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result, problems, scores = summarize(args.workload, run, bool(args.trace))
    if not result["metrics"]:
        print(f"error: no batch of {args.workload} completed: {problems}", file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    log = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env, **run, "problems": problems, "gates": scores,
    }
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(log, indent=1) + "\n")

    print(json.dumps({"environment": env}))
    batches = run["batches"]
    print(f"{args.workload} seed {args.seed}: {len(batches)} batches, digest {batches[0]['digest']}")
    times = [b["wall_s"] for b in batches]
    print(f"  batch wall_s: median {statistics.median(times):.6g} s, max {max(times):.6g} s")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if args.trace:
        for name, share in sorted(layer_shares(batches).items(), key=lambda kv: -kv[1]):
            print(f"  share of wall_s, self time of {name}: {share:.1%}")
    for name, z in scores.items():
        print(f"  gate z-score {name} = {z:.3f}")
    base = result["attempted"]
    print(f"  fail_frac = {result['failed'] / base:.6g} (base {base} operations)")
    if problems:
        print(f"  incorrect: {json.dumps(problems)[:2000]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
