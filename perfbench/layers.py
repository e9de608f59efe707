"""Traced-run instruments: timing proxies, layer probes, the report.

Nothing here hooks into ``src/``.  The runtime layers are timed through
proxies that sit on public seams (a :class:`ResultStore` subclass, a
:class:`Dispatcher` wrapper); the hardware layers are timed by calling
their public functions from outside, with the stage split taken only
from the existing ``profiler=`` argument.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from repro.hw.mapper import fanout_table
from repro.hw.sne import SNE
from repro.runtime.jobs import spec_from_doc, spec_to_doc
from repro.runtime.profile import Profiler
from repro.runtime.store import ResultStore

from deploy import build_evaluator, build_jobs

pc = time.perf_counter

STAGES = ("assemble", "update", "fire", "reset")
LAYERS = ("layer0", "layer1", "layer3", "layer4")


class TimingStore(ResultStore):
    """A :class:`ResultStore` that times every ``get`` and ``put``.

    ``missed[job_hash]`` keeps the end of a job's first store miss, so a
    serve request's queue wait can start where that miss ended.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        self.reset()

    def reset(self) -> None:
        self.calls = {"get_hit": [], "get_miss": [], "put": []}
        self.missed: dict[str, float] = {}

    def get(self, spec):
        t0 = pc()
        hit = super().get(spec)
        t1 = pc()
        self.calls["get_hit" if hit is not None else "get_miss"].append(t1 - t0)
        if hit is None:
            self.missed.setdefault(spec.job_hash, t1)
        return hit

    def put(self, spec, value, duration_s):
        t0 = pc()
        super().put(spec, value, duration_s)
        self.calls["put"].append(pc() - t0)

    def layers(self) -> dict:
        c = self.calls
        out = {"runtime.store.hit_ratio":
               len(c["get_hit"]) / max(1, len(c["get_hit"]) + len(c["get_miss"]))}
        for kind in c:
            if c[kind]:
                out[f"runtime.store.{kind}_s"] = statistics.median(c[kind])
        return out


class TimingDispatcher:
    """A :class:`~repro.runtime.dispatch.Dispatcher` that times the one
    it wraps: when each batch starts, when each job's result is
    yielded, and how long each batch takes."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = inner.name
        self.reset()

    def reset(self) -> None:
        self.batches: list[tuple[float, int]] = []
        self.started: dict[str, float] = {}
        self.yielded: dict[str, float] = {}

    async def submit(self, specs):
        specs = list(specs)
        t0 = pc()
        for spec in specs:
            self.started[spec.job_hash] = t0
        async for result in self.inner.submit(specs):
            self.yielded[result.job_hash] = pc()
            yield result
        self.batches.append((pc() - t0, len(specs)))

    async def aclose(self) -> None:
        await self.inner.aclose()

    def describe(self) -> dict:
        return self.inner.describe()

    def layers(self) -> dict:
        if not self.batches:
            return {}
        return {
            "runtime.dispatch.batch_s": statistics.median(b for b, _ in self.batches),
            "runtime.serve.batch_jobs": statistics.fmean(n for _, n in self.batches),
        }


def hardware_layers(pool, seed: int, n_fresh: int = 3) -> dict:
    """Per-layer figures of ``hw.mapper``, ``hw.sne``, ``hw.runner`` and
    the ``runtime.jobs`` codec, measured on the run's own samples.

    The cold fanout build uses ``n_fresh`` deployments no workload of
    this process has touched; the per-sample figures are means over the
    first 16 samples of ``pool`` (eight of each band) on a warm one.
    """
    out = {}
    builds = []
    for k in range(n_fresh):
        ev = build_evaluator(seed * 1000 + 900 + k)
        t0 = pc()
        for program in ev.programs:
            fanout_table(program).packed()
        builds.append(pc() - t0)
    out["hw.mapper.fanout_build_s"] = statistics.median(builds)

    picks = pool[:16]
    layer_s = {name: 0.0 for name in LAYERS}
    prof = Profiler()
    update_events = sops = 0
    for _, sample in picks:
        sne = SNE(ev.config)
        current = sample.stream
        for program in ev.programs:
            t0 = pc()
            current, st = sne.run_layer(program, current, profiler=prof)
            layer_s[program.name] += pc() - t0
            update_events += st.update_events
            sops += st.sops
    n = len(picks)
    for name in LAYERS:
        out[f"hw.sne.{name}_s"] = layer_s[name] / n
    stage_s = {s: prof.spans[f"sne.{s}"].wall_s / n for s in STAGES}
    for s in STAGES:
        out[f"hw.sne.{s}_s"] = stage_s[s]
    out["hw.sne.unattributed_s"] = sum(layer_s.values()) / n - sum(stage_s.values())
    out["hw.sne.update_events"] = update_events
    out["hw.sne.sops"] = sops

    for band in ("low", "high"):
        times = []
        for b, sample in picks:
            if b == band:
                t0 = pc()
                ev.run_sample(sample.stream, sample.label)
                times.append(pc() - t0)
        out[f"hw.runner.run_sample_{band}_s"] = statistics.median(times)

    t0 = pc()
    jobs = build_jobs(ev, picks)
    out["runtime.jobs.spec_build_s"] = (pc() - t0) / n
    to_doc, from_doc, sizes = [], [], []
    for job in jobs:
        t0 = pc()
        text = json.dumps(spec_to_doc(job))
        t1 = pc()
        spec_from_doc(json.loads(text))
        from_doc.append(pc() - t1)
        to_doc.append(t1 - t0)
        sizes.append(len(text))
    out["runtime.jobs.spec_to_doc_s"] = statistics.median(to_doc)
    out["runtime.jobs.spec_from_doc_s"] = statistics.median(from_doc)
    out["runtime.jobs.spec_doc_bytes"] = statistics.fmean(sizes)
    return out


def render_table(workload: str, rows, total: float, basis: str) -> str:
    """The attribution table: self time and share of each row, plus an
    ``unattributed`` row so the shares sum to ``total``."""
    rows = list(rows) + [("unattributed", total - sum(s for _, s in rows))]
    lines = [f"per-layer attribution - {workload} ({basis}: {total:.4f} s)",
             f"  {'layer':<44}{'self_s':>12}{'share':>9}"]
    for name, s in rows:
        lines.append(f"  {name:<44}{s:>12.4f}{100 * s / total:>8.1f}%")
    lines.append(f"  {'total':<44}{sum(s for _, s in rows):>12.4f}"
                 f"{100 * sum(s for _, s in rows) / total:>8.1f}%")
    return "\n".join(lines)


def render_overhead(traced: dict, untraced: dict) -> str:
    """Traced against untraced end-to-end numbers of the same seed."""
    lines = ["tracing overhead (traced / untraced, same workload and seed)",
             f"  {'metric':<24}{'untraced':>12}{'traced':>12}{'ratio':>8}"]
    for name, value in untraced.items():
        if name in traced and value:
            lines.append(f"  {name:<24}{value:>12.5g}{traced[name]:>12.5g}"
                         f"{traced[name] / value:>8.3f}")
    return "\n".join(lines)


def log(text: str) -> None:
    print(text, file=sys.stderr, flush=True)
