"""Spans around condensim's public functions, recorded from outside.

``Tracer.install`` rebinds each traced public name at every condensim
module that holds it (``condensim.zrp.PathStreams`` as well as
``condensim.rng.PathStreams``), so calls made inside the package are
traced too.  ``Tracer.uninstall`` puts every original back.  Each span
is ``[name, parent index, start ns, end ns, attrs]``; spans stay in
memory until ``write``.  ``summarize`` turns them into the per-layer
metrics named in ``spec.PER_LAYER``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

from spec import CLI_SUBCOMMANDS


def _paths_arg(_result, _config, _start, n_paths):
    return {"paths": int(n_paths)}


def _diffusion_attrs(result, config, start, n_paths):
    return {"paths": int(n_paths), "absorptions": sum(len(ev) for ev in result.events)}


def _csv_attrs(result, _path, _header, rows):
    return {"rows": len(rows), "bytes": result.stat().st_size}


# (home module, public name, span name, attrs(result, *args) or None)
FUNCTIONS = [
    ("condensim.zrp", "simulate_zrp_ensemble", "zrp.ensemble", _paths_arg),
    ("condensim.zrp", "zrp_generator_apply", "zrp.generator_apply", None),
    ("condensim.diffusion", "simulate_diffusion_ensemble", "diffusion.ensemble", _diffusion_attrs),
    ("condensim.diffusion", "generator_apply", "diffusion.generator_apply", None),
    ("condensim.chain", "trace_rates", "chain.trace_rates", None),
    ("condensim.chain", "harmonic_extensions", "chain.harmonic_extensions", None),
    ("condensim.experiments", "martingale_residual", "experiments.martingale", None),
    ("condensim.experiments", "superharmonic_sign_check", "experiments.sign_check", None),
    ("condensim.experiments", "winner_distribution", "experiments.stats", None),
    ("condensim.experiments", "compare_winner", "experiments.stats", None),
    ("condensim.experiments", "ks_distance", "experiments.stats", None),
    ("condensim.experiments", "hitting_bound_check", "experiments.stats", None),
    ("condensim.config", "parse_config", "config.parse", None),
    ("condensim.reporting", "write_csv", "reporting.write_csv", _csv_attrs),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.rebound: list[tuple] = []  # (module, name, original)

    def wrap(self, fn, name, attrs=None, label=None):
        """``fn`` recording one span per call, named ``name`` or ``label(*args)``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [label(*args, **kwargs) if label else name, parent, time.perf_counter_ns(), 0, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                self._stack.pop()
            if attrs is not None:
                span[4] = attrs(result, *args, **kwargs)
            return result

        return traced

    def _streams_class(self, base):
        signature = inspect.signature(base.__init__)

        def init_attrs(_result, *args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            n = int(a["n_paths"])
            mb = n * int(a["block"]) * int(a["values_per_step"]) * 8 / 2**20
            return {"paths": n, "buffer_mb": mb}

        return type(base.__name__, (base,), {
            "__init__": self.wrap(base.__init__, "rng.init", init_attrs),
            "take": self.wrap(base.take, "rng.take", lambda _r, _s, paths: {"rows": len(paths)}),
        })

    def _rebind(self, original, replacement) -> None:
        name = original.__name__
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "condensim" and not mod_name.startswith("condensim."):
                continue
            if getattr(module, name, None) is original:
                setattr(module, name, replacement)
                self.rebound.append((module, name, original))

    def install(self) -> None:
        """Rebind every traced name; condensim must already be imported."""
        rng = sys.modules["condensim.rng"]
        diffusion = sys.modules["condensim.diffusion"]
        self._rebind(rng.PathStreams, self._streams_class(rng.PathStreams))
        face_table = diffusion.FaceTable
        self._rebind(face_table, type("FaceTable", (face_table,), {
            "__init__": self.wrap(face_table.__init__, "diffusion.facetable"),
        }))
        for home, public, span_name, attrs in FUNCTIONS:
            self._rebind(getattr(sys.modules[home], public), self.wrap(
                getattr(sys.modules[home], public), span_name, attrs,
            ))
        main = sys.modules["condensim.cli"].main
        self._rebind(main, self.wrap(main, "cli", label=lambda argv=None: f"cli.{argv[0]}"))

    def uninstall(self) -> None:
        while self.rebound:
            module, name, original = self.rebound.pop()
            setattr(module, name, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def self_times(spans) -> dict[str, float]:
    """Seconds of each span name not covered by its child spans."""
    dur = [(s[3] - s[2]) / 1e9 for s in spans]
    own = list(dur)
    for i, span in enumerate(spans):
        if span[1] >= 0:
            own[span[1]] -= dur[i]
    out: dict[str, float] = defaultdict(float)
    for span, value in zip(spans, own):
        out[span[0]] += value
    return dict(out)


def summarize(spans) -> dict[str, float]:
    """Per-layer metrics (all but ``trace.overhead_frac``) from one run's spans."""
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    attr: dict[str, Counter] = defaultdict(Counter)
    buffer_mb = 0.0
    takes: Counter = Counter()  # take calls per direct parent span
    rows: Counter = Counter()
    for span in spans:
        name, parent, start, end, attrs = span
        total[name] += (end - start) / 1e9
        calls[name] += 1
        if name == "rng.take":
            takes[parent] += 1
            rows[parent] += attrs["rows"]
        elif attrs:
            attr[name].update({k: v for k, v in attrs.items() if k != "buffer_mb"})
            buffer_mb = max(buffer_mb, attrs.get("buffer_mb", 0.0))
    own = defaultdict(float, self_times(spans))

    engines = {}
    for prefix in ("zrp", "diffusion"):
        iterations = events = slots = 0
        for i, span in enumerate(spans):
            if span[0] == f"{prefix}.ensemble":
                iterations += takes[i]
                events += rows[i]
                slots += takes[i] * span[4]["paths"]
        engines[prefix] = (iterations, events, events / slots if slots else 0.0)

    def per(seconds, count):
        return seconds / count * 1e9 if count else 0.0

    zrp_it, zrp_ev, zrp_fill = engines["zrp"]
    dif_it, dif_ev, dif_fill = engines["diffusion"]
    take_rows = sum(rows.values())
    out = {
        "rng.take_s": total["rng.take"],
        "rng.take_calls": calls["rng.take"],
        "rng.take_rows": take_rows,
        "rng.take_ns_per_row": per(total["rng.take"], take_rows),
        "rng.init_s": total["rng.init"],
        "rng.streams_created": attr["rng.init"]["paths"],
        "rng.buffer_mb_computed": buffer_mb,
        "zrp.ensemble_s": total["zrp.ensemble"],
        "zrp.self_s": own["zrp.ensemble"],
        "zrp.iterations": zrp_it,
        "zrp.path_events": zrp_ev,
        "zrp.self_ns_per_event": per(own["zrp.ensemble"], zrp_ev),
        "zrp.lockstep_fill": zrp_fill,
        "zrp.generator_apply_s": total["zrp.generator_apply"],
        "diffusion.generator_apply_s": total["diffusion.generator_apply"],
        "experiments.martingale_self_s": own["experiments.martingale"],
        "diffusion.ensemble_s": total["diffusion.ensemble"],
        "diffusion.self_s": own["diffusion.ensemble"],
        "diffusion.iterations": dif_it,
        "diffusion.path_steps": dif_ev,
        "diffusion.self_ns_per_step": per(own["diffusion.ensemble"], dif_ev),
        "diffusion.lockstep_fill": dif_fill,
        "diffusion.absorptions": attr["diffusion.ensemble"]["absorptions"],
        "diffusion.facetable_s": total["diffusion.facetable"],
        "diffusion.facetable_builds": calls["diffusion.facetable"],
        "chain.trace_rates_calls": calls["chain.trace_rates"],
        "chain.trace_rates_s": total["chain.trace_rates"],
        "chain.harmonic_extensions_s": total["chain.harmonic_extensions"],
        "experiments.sign_check_s": total["experiments.sign_check"],
        "experiments.stats_s": total["experiments.stats"],
        "config.parse_s": total["config.parse"],
    }
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}_s"] = total[f"cli.{sub}"]
    out["cli.self_s"] = sum(own[f"cli.{sub}"] for sub in CLI_SUBCOMMANDS)
    out["reporting.write_csv_s"] = total["reporting.write_csv"]
    out["reporting.csv_rows"] = attr["reporting.write_csv"]["rows"]
    out["reporting.csv_bytes"] = attr["reporting.write_csv"]["bytes"]
    return out
