"""The per-path stream contract of ``condensim.rng.PathStreams``, the
live-set bookkeeping of ``condensim.rng.LiveSet``, and the rule that
every draw in the package comes from those per-path streams."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import condensim.diffusion
from condensim.diffusion import DiffusionConfig, simulate_diffusion_ensemble
from condensim.errors import ConfigRangeError
from condensim.rng import LiveSet, PathStreams, path_generator
from condensim.zrp import ZrpConfig, simulate_zrp_ensemble

from _chains import k3


def _schedule(block: int) -> dict[int, int]:
    """Steps taken by each path: a live set that shrinks across three
    block boundaries, with removals one step before, right at and one
    step after a boundary, and mid-block.  Path 9 is never listed."""
    return {
        0: 3 * block + 5, 1: block - 1, 2: block, 3: block + 1,
        4: block // 2, 5: 2 * block, 6: 3 * block, 7: 3 * block + 5,
        8: 2 * block + 3, 9: 0,
    }


@pytest.mark.parametrize("gaussian, k, block", [(False, 2, 256), (True, 8, 64)])
def test_streams_match_path_generators(generator_calls, gaussian, k, block):
    seed = 12345
    steps = _schedule(block)
    streams = PathStreams(seed, len(steps), k, block, gaussian)
    rows = {p: [] for p in steps}
    for step in range(max(steps.values())):
        paths = np.array([p for p, n in steps.items() if n > step])
        got = streams.take(paths)
        assert got.shape == (len(paths), k)
        for p, row in zip(paths.tolist(), got):
            rows[p].append(row)

    for p, n in steps.items():
        g = path_generator(seed, p)
        want = g.standard_normal((n, k)) if gaussian else g.random((n, k))
        assert np.array_equal(np.reshape(rows[p], (n, k)), want), p
    # One generator per listed path, none for the path never listed.
    assert sorted(generator_calls) == [p for p, n in steps.items() if n > 0]


@pytest.mark.parametrize("gaussian, k, block", [(False, 2, 256), (True, 8, 64)])
@pytest.mark.parametrize("hand_off", ["before-refill", "mid-block", "block-boundary"])
def test_hand_out_continues_the_stream(gaussian, k, block, hand_off):
    # After any number of lockstep steps, the draws handed out for a path
    # are the ones take would have given it from then on, on a twin stream.
    steps = {"before-refill": 0, "mid-block": block + block // 3, "block-boundary": 2 * block}
    paths = np.arange(4)
    streams = PathStreams(77, 4, k, block, gaussian)
    twin = PathStreams(77, 4, k, block, gaussian)
    for _ in range(steps[hand_off]):
        streams.take(paths)
        twin.take(paths)
    later = 2 * block + 5
    want = np.array([twin.take(paths) for _ in range(later)])
    for p in (1, 3):
        blocks, got = streams.hand_out(p), []
        while sum(map(len, got)) < later:
            got.append(next(blocks))
        assert np.array_equal(np.concatenate(got)[:later], want[:, p]), p


@pytest.mark.parametrize("gaussian, k, block", [(False, 2, 256), (True, 8, 64)])
def test_refill_memory_is_bounded(gaussian, k, block):
    # Construction and the first refill of 4000 paths allocate at most
    # the n_paths x block x k buffer (which may be mapped off the traced
    # heap), one generator per path (about 0.6 kB each) and 1 MB more.
    # A full-size transposed copy of the buffer would add 16 MB to the
    # transient peak.
    n = 4000
    buffer = n * block * k * 8
    tracemalloc.start()
    try:
        streams = PathStreams(7, n, k, block, gaussian)
        streams.take(np.arange(n))
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - current <= 2**20
    assert current - buffer <= 2**20 + n * 1024


@given(st.data())
def test_live_set_hands_out_each_slot_once_in_order(data):
    times = sorted(set(data.draw(st.lists(st.floats(0.0, 10.0), max_size=6))))
    n_paths = data.draw(st.integers(0, 6))
    end = data.draw(st.floats(0.5, 8.0))
    live = LiveSet(n_paths, None, end, times, scale=2.0)
    grid = live.grid[:-1]
    assert np.array_equal(grid, np.multiply(times, 2.0))
    live.t = live.ids + 0.5  # a clock tied to each path
    handed = {p: [] for p in range(n_paths)}
    bounds = st.floats(-1.0, 25.0) | st.just(np.inf)
    if times:
        bounds |= st.sampled_from(grid.tolist())
    for _ in range(data.draw(st.integers(1, 5))):
        width = live.ids.size
        bound = np.array(data.draw(st.lists(bounds, min_size=width, max_size=width)), dtype=float)
        rows, slots = live.due_samples(bound)
        for row, slot in zip(rows.tolist(), slots.tolist()):
            assert grid[slot] < bound[row]
            handed[live.ids[row]].append(slot)
        for row, p in enumerate(live.ids.tolist()):
            # The path's slots so far are 0, 1, ..., once each, in order,
            # and every slot below its bound is among them.
            assert handed[p] == list(range(live.cursor[row]))
            assert np.count_nonzero(grid < bound[row]) <= live.cursor[row]

        masks = st.lists(st.booleans(), min_size=width, max_size=width).map(np.array)
        keep = data.draw(st.none() | masks)
        before = live.ids
        (column,) = live.retire(keep, 10 * live.ids)
        # Kept paths whose clock is before the end stay, in order, and
        # every array stays aligned with the ids.
        wanted = [p for i, p in enumerate(before.tolist())
                  if (keep is None or keep[i]) and p + 0.5 < live.end]
        assert live.ids.tolist() == wanted
        assert np.array_equal(column, 10 * live.ids)
        assert np.array_equal(live.t, live.ids + 0.5)
        assert [len(handed[p]) for p in wanted] == live.cursor.tolist()


def _zrp_run(n_paths):
    config = ZrpConfig(chain=k3(), n_particles=12, b=1.5, seed=1, sample_times=(0.0, 0.01))
    return simulate_zrp_ensemble(config, [4, 4, 4], n_paths)


def _diffusion_run(n_paths):
    config = DiffusionConfig(chain=k3(), b=1.5, seed=1, sample_times=(0.0, 0.01))
    return simulate_diffusion_ensemble(config, np.full(3, 1 / 3), n_paths)


@pytest.mark.parametrize("n_paths", [0, -1])
@pytest.mark.parametrize("run", [_zrp_run, _diffusion_run], ids=["zrp", "diffusion"])
def test_path_count(run, n_paths):
    # No paths is an empty ensemble; a negative count is a typed error.
    if n_paths < 0:
        with pytest.raises(ConfigRangeError, match="n_paths"):
            run(n_paths)
    else:
        ens = run(n_paths)
        assert ens.n_paths == 0
        assert ens.t_cond.shape == (0,)
        assert ens.samples.shape == (0, 2, 3)


@pytest.mark.parametrize("n_paths", [2.0, 2.5, True])
@pytest.mark.parametrize("run", [_zrp_run, _diffusion_run], ids=["zrp", "diffusion"])
def test_path_count_must_be_an_integer(run, n_paths):
    with pytest.raises(ConfigRangeError, match="n_paths"):
        run(n_paths)


@pytest.mark.parametrize("run", [_zrp_run, _diffusion_run], ids=["zrp", "diffusion"])
def test_numpy_integer_path_count(run):
    ens = run(np.int64(3))
    assert ens.n_paths == 3
    assert np.array_equal(ens.samples, run(3).samples, equal_nan=True)


def test_drift_only_run_builds_no_streams(monkeypatch):
    built = []

    class Counted(PathStreams):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(condensim.diffusion, "PathStreams", Counted)
    for noise_scale, streams in ((0.0, 0), (1.0, 1)):
        config = DiffusionConfig(chain=k3(), b=1.5, seed=1, noise_scale=noise_scale, horizon=0.01)
        simulate_diffusion_ensemble(config, np.full(3, 1 / 3), 5)
        assert len(built) == streams


def _numpy_random_uses(tree: ast.AST) -> list[str]:
    """Every use of ``numpy.random`` in a module: the attribute taken
    from ``np.random`` (or ``numpy.random``), or "import" for an import
    of the module or of a name from it."""
    uses = []
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            uses += ["import" for a in node.names if a.name.startswith("numpy.random")]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.startswith("numpy.random") or (
                module == "numpy" and any(a.name == "random" for a in node.names)
            ):
                uses.append("import")
        elif (
            isinstance(node, ast.Attribute) and node.attr == "random"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
        ):
            parent = parents.get(node)
            uses.append(parent.attr if isinstance(parent, ast.Attribute) else "random")
    return uses


def test_one_random_stream_model():
    # Every random number in the package is drawn from a per-path Philox
    # stream that rng.py builds; no module seeds a generator of its own.
    src = Path(__file__).resolve().parents[1] / "src" / "condensim"
    found = {
        path.name: _numpy_random_uses(ast.parse(path.read_text()))
        for path in sorted(src.glob("*.py"))
    }
    allowed = {"Generator", "Philox"}
    bad = {
        name: uses for name, uses in found.items()
        if uses and (name != "rng.py" or not set(uses) <= allowed)
    }
    assert not bad, bad
    assert set(found["rng.py"]) == allowed
