"""SNE top level: slices + C-XBAR + DMA streamers + collector (paper Fig. 2).

Two operating modes (paper §III-D.5):

* **time-multiplexed** (:meth:`SNE.run_layer` / :meth:`SNE.run_network`)
  — the network is larger than the 8192 on-chip neurons; each layer runs
  as one or more *passes*, each pass mapping a block of output neurons
  onto the slices and replaying the input event stream, with
  intermediate feature maps spilled through the DMAs.
* **layer-parallel** (:meth:`SNE.run_network_pipelined`) — the whole
  network fits; each layer occupies a group of slices and output events
  flow to the next layer through the C-XBAR within the same timestep.

All slices observe every event (broadcast) and their address filters
decide participation, so a pass costs the same cycle count on every
slice; the run's cycle count is the per-slice busy time times the number
of passes, while SOPs and output events sum across slices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np

from ..events.stream import EventStream
from .config import SNEConfig
from .kernels import resolve_kernel
from .mapper import LayerProgram, fanout_table
from .registers import RegisterFile
from .slice import Slice
from .xbar import Crossbar

__all__ = ["SNE", "SNEStats"]

_pc = time.perf_counter


@dataclass
class SNEStats:
    """Aggregate counters of one SNE run (one layer or one network)."""

    cycles: int = 0
    sops: int = 0
    update_events: int = 0
    fire_events: int = 0
    reset_events: int = 0
    output_events: int = 0
    active_cluster_cycles: int = 0
    gated_cluster_cycles: int = 0
    fifo_stall_cycles: int = 0
    sequencer_overrun_cycles: int = 0
    passes: int = 0
    dma_words_in: int = 0
    dma_words_out: int = 0
    xbar_broadcasts: int = 0
    tlu_skipped_steps: int = 0
    per_layer: list = field(default_factory=list)

    def merge(self, other: "SNEStats", parallel: bool = False) -> None:
        """Accumulate another run's counters.

        ``parallel=True`` models concurrent execution: cycles take the
        max instead of the sum (layer-parallel mode), everything else
        still adds.
        """
        for f in fields(self):
            if f.name in ("cycles", "per_layer"):
                continue
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        if parallel:
            self.cycles = max(self.cycles, other.cycles)
        else:
            self.cycles += other.cycles

    # -- derived metrics ---------------------------------------------------
    def time_s(self, config: SNEConfig) -> float:
        return self.cycles / config.freq_hz

    def sops_per_second(self, config: SNEConfig) -> float:
        t = self.time_s(config)
        return self.sops / t if t > 0 else 0.0

    def utilization(self) -> float:
        """Fraction of cluster-cycles spent on actual neuron updates."""
        total = self.active_cluster_cycles + self.gated_cluster_cycles
        return self.active_cluster_cycles / total if total else 0.0


class SNE:
    """One SNE instance: a configurable number of slices behind a C-XBAR."""

    def __init__(self, config: SNEConfig | None = None) -> None:
        self.config = config or SNEConfig()
        self.slices = [Slice(self.config, i) for i in range(self.config.n_slices)]
        # Masters: 2 DMAs + collector; slaves: the slices + output DMA port.
        self.xbar = Crossbar(
            n_masters=self.config.n_dmas + 1, n_slaves=self.config.n_slices + 1
        )
        self.registers = RegisterFile(
            self.config.n_slices,
            n_filter_sets=self.config.n_filter_sets,
            weights_per_set=self.config.neurons_per_cluster,
        )

    # -- programming ---------------------------------------------------------
    def _program_pass(
        self, program: LayerProgram, pass_lo: int, pass_hi: int
    ) -> list[tuple[Slice, int, int]]:
        """Configure the slices for one pass; returns the active ones."""
        cfg = self.config
        active: list[tuple[Slice, int, int]] = []
        for s, sl in enumerate(self.slices):
            lo = pass_lo + s * cfg.neurons_per_slice
            hi = min(lo + cfg.neurons_per_slice, pass_hi)
            if lo >= hi:
                break
            sl.configure(program, lo, hi)
            self.registers.program_lif(s, program.threshold, program.leak)
            self.registers.program_interval(s, lo, hi)
            active.append((sl, lo, hi))
        return active

    @staticmethod
    def _activity_snapshot(active) -> tuple[int, int, int, int]:
        """(sops, output_events, active_cc, gated_cc) summed over slices."""
        sops = sum(sl.stats.sops for sl, _, _ in active)
        outs = sum(sl.stats.output_events for sl, _, _ in active)
        act = sum(sl.stats.active_cluster_cycles for sl, _, _ in active)
        gated = sum(sl.stats.gated_cluster_cycles for sl, _, _ in active)
        return sops, outs, act, gated

    # -- single-layer execution ----------------------------------------------
    def run_layer(
        self,
        program: LayerProgram,
        stream: EventStream,
        trace=None,
        profiler=None,
        batched: bool = True,
        kernel: str = "auto",
    ) -> tuple[EventStream, SNEStats]:
        """Execute one layer in time-multiplexed mode.

        Replays the input stream once per pass (Listing 1's software
        loop).  Returns the output event stream and the run statistics.
        When an :class:`~repro.hw.trace.ActivityTrace` is passed, one
        entry per timestep is recorded (multi-pass runs use the global
        index ``pass * n_steps + step``).

        ``profiler`` (a :class:`repro.runtime.profile.Profiler`)
        receives per-stage spans — ``sne.assemble`` / ``sne.update`` /
        ``sne.fire`` / ``sne.reset`` (+ ``sne.trace`` when tracing) —
        with event counts, at per-pass granularity, plus one
        ``sne.fanout_build`` around the (memoised) fanout table lookup
        on the kernel paths.

        ``kernel`` selects the batched stage implementation through the
        :mod:`repro.hw.kernels` registry: ``"auto"`` (numba when
        importable, else the numpy shim), ``"numba"``, ``"numpy"``, or
        ``"reference"`` for the retained per-event loop.
        ``batched=False`` also selects the reference loop (the original
        dispatch the registry mirrors).  Every choice produces
        bit-identical outputs and statistics (the parity the kernel
        matrix in ``tests/test_kernels.py`` and the Fig. 5b speedup
        benchmark pin down).
        """
        cfg = self.config
        program.validate_for(cfg)
        g = program.geometry
        if stream.shape != g.input_shape(stream.n_steps):
            raise ValueError(
                f"stream envelope {stream.shape} does not match layer input "
                f"{g.input_shape(stream.n_steps)}"
            )
        stats = SNEStats()
        ks = resolve_kernel(kernel) if batched else None
        out_t, out_ch, out_x, out_y = [], [], [], []
        fired_parts: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
        n_passes = program.n_passes(cfg)
        table = packed = None
        if ks is not None:
            t0 = _pc() if profiler is not None else 0.0
            table = fanout_table(program)
            packed = table.packed()
            if profiler is not None:
                profiler.add("sne.fanout_build", _pc() - t0)

        for pass_idx in range(n_passes):
            pass_lo, pass_hi = program.pass_neuron_range(cfg, pass_idx)
            active = self._program_pass(program, pass_lo, pass_hi)
            pass_cycles = 0
            assemble_s = update_s = fire_s = trace_s = 0.0
            n_pass_events = 0

            # RST bracket
            t0 = _pc() if profiler is not None else 0.0
            for sl, _, _ in active:
                sl.process_reset(0)
            pass_cycles += cfg.cycles_per_reset
            if profiler is not None:
                profiler.add("sne.reset", _pc() - t0, events=len(active))

            counts = stream.counts_per_step()
            start = 0
            for step in range(stream.n_steps):
                step_cycles_before = pass_cycles
                snapshot = self._activity_snapshot(active) if trace is not None else None
                n = int(counts[step])
                n_pass_events += n
                if ks is not None and n:
                    if profiler is not None:
                        t0 = _pc()
                    sel = slice(start, start + n)
                    flat = table.flat_ids(stream.ch[sel], stream.x[sel], stream.y[sel])
                    idx, w, ev = ks.assemble(packed.offsets, packed.idx, packed.w, flat)
                    if profiler is not None:
                        t1 = _pc()
                        assemble_s += t1 - t0
                    event_cycles = None
                    for sl, _, _ in active:
                        cyc = sl.process_update_step(step, idx, w, ev, n, kernels=ks)
                        event_cycles = (
                            cyc if event_cycles is None else np.maximum(event_cycles, cyc)
                        )
                    pass_cycles += int(event_cycles.sum())
                    stats.xbar_broadcasts += n
                    if profiler is not None:
                        update_s += _pc() - t1
                elif n:  # per-event reference loop
                    if profiler is not None:
                        t0 = _pc()
                    for k in range(start, start + n):
                        t = int(stream.t[k])
                        ch, x, y = int(stream.ch[k]), int(stream.x[k]), int(stream.y[k])
                        event_cycles = cfg.cycles_per_event
                        for sl, _, _ in active:
                            event_cycles = max(event_cycles, sl.process_update(t, ch, x, y))
                        pass_cycles += event_cycles
                        stats.xbar_broadcasts += 1
                    if profiler is not None:
                        update_s += _pc() - t0
                start += n
                if profiler is not None:
                    t0 = _pc()
                fire_cycles = cfg.cycles_per_fire
                if ks is not None:
                    for sl, _, _ in active:
                        f_ch, f_x, f_y, cyc = sl.process_fire_packed(step, kernels=ks)
                        fire_cycles = max(fire_cycles, cyc)
                        if f_ch.size:
                            fired_parts.append((step, f_ch, f_x, f_y))
                else:
                    for sl, _, _ in active:
                        events, cyc = sl.process_fire(step)
                        fire_cycles = max(fire_cycles, cyc)
                        for (t, o, x, y) in events:
                            out_t.append(t)
                            out_ch.append(o)
                            out_x.append(x)
                            out_y.append(y)
                pass_cycles += fire_cycles
                if profiler is not None:
                    fire_s += _pc() - t0
                if trace is not None:
                    if profiler is not None:
                        t0 = _pc()
                    from .trace import StepTrace

                    after = self._activity_snapshot(active)
                    trace.record(
                        StepTrace(
                            step=pass_idx * stream.n_steps + step,
                            input_events=n,
                            cycles=pass_cycles - step_cycles_before,
                            sops=after[0] - snapshot[0],
                            output_events=after[1] - snapshot[1],
                            active_cluster_cycles=after[2] - snapshot[2],
                            gated_cluster_cycles=after[3] - snapshot[3],
                        )
                    )
                    if profiler is not None:
                        trace_s += _pc() - t0

            if profiler is not None:
                profiler.add("sne.assemble", assemble_s, count=stream.n_steps,
                             events=n_pass_events)
                profiler.add("sne.update", update_s, count=stream.n_steps,
                             events=n_pass_events)
                profiler.add("sne.fire", fire_s, count=stream.n_steps,
                             events=stream.n_steps * len(active))
                if trace is not None:
                    profiler.add("sne.trace", trace_s, count=stream.n_steps)

            # Collect per-slice counters of the pass.
            for sl, _, _ in active:
                s = sl.stats
                stats.sops += s.sops
                stats.output_events += s.output_events
                stats.active_cluster_cycles += s.active_cluster_cycles
                stats.gated_cluster_cycles += s.gated_cluster_cycles
                stats.fifo_stall_cycles += s.fifo_stall_cycles
                stats.sequencer_overrun_cycles += s.sequencer_overrun_cycles
                for cluster in sl.clusters:
                    stats.tlu_skipped_steps += cluster.stats.tlu_skipped_steps
            stats.update_events += len(stream) * len(active)
            stats.fire_events += stream.n_steps * len(active)
            stats.reset_events += len(active)
            stats.cycles += pass_cycles
            # DMA traffic: the input image is re-read every pass; outputs
            # are written once (they are produced across passes).
            stats.dma_words_in += 1 + len(stream) + stream.n_steps

        stats.passes = n_passes
        if ks is not None:
            # Packed fire events: concatenate the per-(step, slice)
            # arrays once instead of growing Python lists event by event.
            if fired_parts:
                arr_t = np.concatenate(
                    [np.full(p[1].size, p[0], dtype=np.int64) for p in fired_parts]
                )
                arr_ch = np.concatenate([p[1] for p in fired_parts])
                arr_x = np.concatenate([p[2] for p in fired_parts])
                arr_y = np.concatenate([p[3] for p in fired_parts])
            else:
                arr_t = arr_ch = arr_x = arr_y = np.zeros(0, dtype=np.int64)
            stats.dma_words_out += int(arr_t.size)
            out_stream = EventStream(
                arr_t.astype(np.int32),
                arr_ch.astype(np.int32),
                arr_x.astype(np.int32),
                arr_y.astype(np.int32),
                g.output_shape(stream.n_steps),
            )
            return out_stream, stats
        stats.dma_words_out += len(out_t)
        out_stream = EventStream(
            np.array(out_t, dtype=np.int32),
            np.array(out_ch, dtype=np.int32),
            np.array(out_x, dtype=np.int32),
            np.array(out_y, dtype=np.int32),
            g.output_shape(stream.n_steps),
        )
        return out_stream, stats

    # -- whole-network execution -----------------------------------------------
    def run_network(
        self,
        programs: list[LayerProgram],
        stream: EventStream,
        profiler=None,
        batched: bool = True,
        kernel: str = "auto",
    ) -> tuple[EventStream, SNEStats]:
        """Run layers back-to-back in time-multiplexed mode.

        Intermediate feature maps travel through external memory (the
        DMA word counters accumulate accordingly).  ``profiler``,
        ``batched`` and ``kernel`` are forwarded to every
        :meth:`run_layer` call; the profiler additionally receives one
        ``sne.layer.<name>`` span per executed layer.
        """
        if not programs:
            raise ValueError("network must contain at least one program")
        total = SNEStats()
        current = stream
        for program in programs:
            t0 = _pc() if profiler is not None else 0.0
            current, layer_stats = self.run_layer(
                program, current, profiler=profiler, batched=batched, kernel=kernel
            )
            if profiler is not None:
                profiler.add(
                    f"sne.layer.{program.name}", _pc() - t0,
                    events=layer_stats.update_events,
                )
            total.merge(layer_stats)
            total.per_layer.append((program.name, layer_stats))
        return current, total

    def run_network_pipelined(
        self,
        programs: list[LayerProgram],
        stream: EventStream,
        profiler=None,
        kernel: str = "auto",
    ) -> tuple[EventStream, SNEStats]:
        """Run the whole network in layer-parallel mode (§III-D.5).

        Every layer must fit simultaneously; each gets a contiguous group
        of slices and output events hop to the next layer through the
        C-XBAR within the same timestep.  The run's cycle count is the
        busiest slice group (they execute concurrently).  ``profiler``
        receives the same ``sne.assemble`` / ``sne.update`` /
        ``sne.fire`` / ``sne.reset`` / ``sne.fanout_build`` stage spans
        as :meth:`run_layer`.

        ``kernel`` selects the stage implementation exactly as in
        :meth:`run_layer`.  On the kernel paths the fire→next-layer hop
        carries fired events as packed int64 arrays straight into the
        next group's gather — no Python-list round trip; the
        ``"reference"`` choice runs the per-event loop with the
        original tuple hop.  All choices are bit-identical.
        """
        cfg = self.config
        if not programs:
            raise ValueError("network must contain at least one program")
        # Allocate slice groups.
        groups: list[list[tuple[Slice, int, int]]] = []
        next_slice = 0
        for program in programs:
            program.validate_for(cfg)
            n_outputs = program.geometry.n_outputs
            needed = -(-n_outputs // cfg.neurons_per_slice)
            if next_slice + needed > cfg.n_slices:
                raise ValueError(
                    f"network needs more than {cfg.n_slices} slices for "
                    "layer-parallel mode; use run_network (time-multiplexed)"
                )
            group = []
            for k in range(needed):
                sl = self.slices[next_slice + k]
                lo = k * cfg.neurons_per_slice
                hi = min(lo + cfg.neurons_per_slice, n_outputs)
                sl.configure(program, lo, hi)
                self.registers.program_lif(next_slice + k, program.threshold, program.leak)
                self.registers.program_interval(next_slice + k, lo, hi)
                group.append((sl, lo, hi))
            groups.append(group)
            next_slice += needed

        stats = SNEStats()
        stats.passes = 1
        n_steps = stream.n_steps
        n_update_events = 0
        t0 = _pc() if profiler is not None else 0.0
        for group in groups:
            for sl, _, _ in group:
                sl.process_reset(0)
        if profiler is not None:
            profiler.add("sne.reset", _pc() - t0,
                         events=sum(len(g) for g in groups))

        ks = resolve_kernel(kernel)
        out_t, out_ch, out_x, out_y = [], [], [], []
        fired_parts: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
        tables = packs = [None] * len(programs)
        if ks is not None:
            t0 = _pc() if profiler is not None else 0.0
            tables = [fanout_table(program) for program in programs]
            packs = [table.packed() for table in tables]
            if profiler is not None:
                profiler.add("sne.fanout_build", _pc() - t0)
        counts = stream.counts_per_step()
        start = 0
        assemble_s = update_s = fire_s = 0.0
        for step in range(n_steps):
            n = int(counts[step])
            sel = slice(start, start + n)
            in_ch = stream.ch[sel].astype(np.int64)
            in_x = stream.x[sel].astype(np.int64)
            in_y = stream.y[sel].astype(np.int64)
            start += n
            for table, pack, group in zip(tables, packs, groups):
                m = int(in_ch.size)
                if m:
                    if profiler is not None:
                        t0 = _pc()
                    if ks is not None:
                        flat = table.flat_ids(in_ch, in_x, in_y)
                        if profiler is not None:
                            t1 = _pc()
                            assemble_s += t1 - t0
                        idx, w, ev = ks.assemble(pack.offsets, pack.idx, pack.w, flat)
                        for sl, _, _ in group:
                            sl.process_update_step(step, idx, w, ev, m, kernels=ks)
                    else:  # per-event reference loop
                        if profiler is not None:
                            t1 = _pc()
                            assemble_s += t1 - t0
                        for k in range(m):
                            ch_k = int(in_ch[k])
                            x_k = int(in_x[k])
                            y_k = int(in_y[k])
                            for sl, _, _ in group:
                                sl.process_update(step, ch_k, x_k, y_k)
                    stats.xbar_broadcasts += m
                    n_update_events += m
                    if profiler is not None:
                        update_s += _pc() - t1
                if profiler is not None:
                    t0 = _pc()
                if ks is not None:
                    # Packed fire→next-layer hop: fired events stay int64
                    # arrays all the way into the next group's gather.
                    hop_ch, hop_x, hop_y = [], [], []
                    for sl, _, _ in group:
                        f_ch, f_x, f_y, _ = sl.process_fire_packed(step, kernels=ks)
                        if f_ch.size:
                            hop_ch.append(f_ch)
                            hop_x.append(f_x)
                            hop_y.append(f_y)
                    if hop_ch:
                        in_ch = np.concatenate(hop_ch)
                        in_x = np.concatenate(hop_x)
                        in_y = np.concatenate(hop_y)
                    else:
                        in_ch = in_x = in_y = np.zeros(0, dtype=np.int64)
                else:
                    next_ch, next_x, next_y = [], [], []
                    for sl, _, _ in group:
                        events, _ = sl.process_fire(step)
                        for (t, o, x, y) in events:
                            next_ch.append(o)
                            next_x.append(x)
                            next_y.append(y)
                    in_ch = np.asarray(next_ch, dtype=np.int64)
                    in_x = np.asarray(next_x, dtype=np.int64)
                    in_y = np.asarray(next_y, dtype=np.int64)
                if profiler is not None:
                    fire_s += _pc() - t0
            if ks is not None:  # final layer's output, still packed
                if in_ch.size:
                    fired_parts.append((step, in_ch, in_x, in_y))
            else:
                for (o, x, y) in zip(in_ch, in_x, in_y):
                    out_t.append(step)
                    out_ch.append(int(o))
                    out_x.append(int(x))
                    out_y.append(int(y))
        if profiler is not None:
            profiler.add("sne.assemble", assemble_s, count=n_steps,
                         events=n_update_events)
            profiler.add("sne.update", update_s, count=n_steps,
                         events=n_update_events)
            profiler.add("sne.fire", fire_s, count=n_steps,
                         events=n_steps * len(groups))

        # Concurrency: total time is the busiest group; SOPs etc. sum.
        group_cycles = []
        for group in groups:
            cyc = max(sl.stats.busy_cycles for sl, _, _ in group)
            group_cycles.append(cyc)
            for sl, _, _ in group:
                s = sl.stats
                stats.sops += s.sops
                stats.output_events += s.output_events
                stats.active_cluster_cycles += s.active_cluster_cycles
                stats.gated_cluster_cycles += s.gated_cluster_cycles
                stats.fifo_stall_cycles += s.fifo_stall_cycles
                stats.sequencer_overrun_cycles += s.sequencer_overrun_cycles
                stats.update_events += s.update_events
                stats.fire_events += s.fire_events
                stats.reset_events += s.reset_events
                for cluster in sl.clusters:
                    stats.tlu_skipped_steps += cluster.stats.tlu_skipped_steps
        stats.cycles = max(group_cycles)
        stats.dma_words_in = 1 + len(stream) + n_steps

        g_last = programs[-1].geometry
        if ks is not None:
            if fired_parts:
                arr_t = np.concatenate(
                    [np.full(p[1].size, p[0], dtype=np.int64) for p in fired_parts]
                )
                arr_ch = np.concatenate([p[1] for p in fired_parts])
                arr_x = np.concatenate([p[2] for p in fired_parts])
                arr_y = np.concatenate([p[3] for p in fired_parts])
            else:
                arr_t = arr_ch = arr_x = arr_y = np.zeros(0, dtype=np.int64)
            stats.dma_words_out = int(arr_t.size)
            out_stream = EventStream(
                arr_t.astype(np.int32),
                arr_ch.astype(np.int32),
                arr_x.astype(np.int32),
                arr_y.astype(np.int32),
                g_last.output_shape(n_steps),
            )
            return out_stream, stats
        stats.dma_words_out = len(out_t)
        out_stream = EventStream(
            np.array(out_t, dtype=np.int32),
            np.array(out_ch, dtype=np.int32),
            np.array(out_x, dtype=np.int32),
            np.array(out_y, dtype=np.int32),
            g_last.output_shape(n_steps),
        )
        return out_stream, stats
