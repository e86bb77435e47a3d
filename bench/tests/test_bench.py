"""The benchmark's own checks: tracing changes no output, the seeded
counts repeat, rebinding is undone, a hung worker counts as failed,
the pooled gates fail what they cover, and BENCHMARK.json matches the
spec.

    python3 -m pytest -q bench/tests
"""

import json
import sys

import pytest

import run
import spec
import tracing
import worker

SMALL = {"zrp-condense": 20, "diffusion-wide": 20, "martingale-grid": 40}


def passes(workload, seed, paths, trace):
    """The batch records of a worker given no time: its first batches."""
    job, _ = worker.setup(workload, paths)
    gate = spec.WORKLOADS[workload].gate_batches
    return list(worker.batches(job, seed, 0.0, trace, gate))


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_tracing_leaves_outputs_unchanged(workload):
    for batch in passes(workload, 5, SMALL[workload], trace=True):
        assert batch["failed"] == batch["traced"]["failed"] == 0
        assert batch["digest"] == batch["traced"]["digest"]


def test_counts_repeat_exactly():
    first = passes("martingale-grid", 3, 40, trace=True)[0]["traced"]["layers"]
    second = passes("martingale-grid", 3, 40, trace=True)[0]["traced"]["layers"]
    for name in spec.EXACT_COUNTS:
        assert first[name] == second[name], name
    for name in ("zrp.iterations", "zrp.path_events", "diffusion.path_steps"):
        assert first[name] > 0


def _public_names():
    return {
        (mod_name, attr): value
        for mod_name, module in sys.modules.items()
        if mod_name == "condensim" or mod_name.startswith("condensim.")
        for attr, value in vars(module).items()
    }


def test_every_rebound_name_is_restored():
    worker.setup("martingale-grid", 10)  # imports condensim
    before = _public_names()
    tracer = tracing.Tracer()
    tracer.install()
    rebound = {(module.__name__, name) for module, name, _ in tracer.rebound}
    assert {("condensim.rng", "PathStreams"), ("condensim.zrp", "PathStreams"),
            ("condensim.diffusion", "PathStreams"), ("condensim.cli", "trace_rates"),
            ("condensim.chain", "harmonic_extensions"), ("condensim.cli", "main")} <= rebound
    assert all(_public_names()[key] is not before[key] for key in rebound)
    tracer.uninstall()
    after = _public_names()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    passes("martingale-grid", 1, 10, trace=True)
    after = _public_names()
    assert all(after[key] is before[key] for key in before)


def test_hung_worker_is_killed_and_counted_failed(monkeypatch):
    # Set-up alone takes longer than this limit.
    monkeypatch.setattr(spec, "LIMIT_S", 0.2)
    measured = run.measure("zrp-condense", 1, seconds=1, trace=False)
    assert measured["problems"] == [{"killed": True, "limit_s": 0.2}]
    assert measured["batches"] == []
    result, problems, _ = run.summarize("zrp-condense", measured, trace=False)
    assert not result["correct"] and not result["metrics"]
    assert result["attempted"] == result["failed"] == spec.WORKLOADS["zrp-condense"].ops
    assert problems["incomplete"] == measured["problems"]


def test_benchmark_json_matches_spec():
    assert json.loads((run.ROOT / "BENCHMARK.json").read_text()) == run.benchmark_json()


def _record(index, paths, notes):
    return {"batch": index, "wall_s": 1.0, "paths": paths, "attempted": paths, "failed": 0,
            "digest": "d", "notes": notes}


def test_pooled_gates_fail_every_operation_they_cover():
    assert spec.WORKLOADS["martingale-grid"].gate_batches == 3
    # Each batch has the ZRP residual at 3 standard errors, under the
    # gate; three batches pooled put it at 3 * sqrt(3) = 5.2, over it.
    se2 = 1.0 / 100  # stderr 0.1 at n = 100
    ok = ["diffusion", 100, 0.0, se2 * 100 * 99]
    biased = ["zrp", 100, 0.3, se2 * 100 * 99]
    pooled = [_record(i, 200, {"residuals": [ok, biased]}) for i in range(3)]
    pooled[0]["traced"] = _record(0, 200, {"residuals": [ok, biased]})
    # Batches after the first three are not pooled, however biased.
    later = [_record(i, 200, {"residuals": [["diffusion", 100, 5.0, 1.0], biased]}) for i in (3, 4)]
    failed, scores = run.pooled_gates(pooled + later, 3)
    assert scores["diffusion_0"] == 0.0
    assert scores["zrp_0"] == pytest.approx(3 * 3**0.5, rel=0.01)
    assert failed == 4 * 100  # the ZRP paths of the pooled batches, traced too

    uniform = [_record(i, 300, {"winners": [100, 100, 100]}) for i in range(3)]
    assert run.pooled_gates(uniform, 3) == (0, {"winners": 0.0})
    assert run.pooled_gates(uniform + [_record(3, 300, {"winners": [300, 0, 0]})], 3)[0] == 0
    skewed = uniform[:2] + [_record(2, 300, {"winners": [200, 50, 50]})]
    failed, scores = run.pooled_gates(skewed, 3)
    assert scores["winners"] > spec.HISTOGRAM_GATE and failed == 3 * 300
