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
from .kernels import PassParams, PassResult, resolve_kernel
from .lif_datapath import state_bounds
from .mapper import LayerGeometry, LayerProgram, fanout_table
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
        cfg = self.config
        # One membrane buffer for every slice.  The slices of a pass (or
        # of a layer-parallel group) are contiguous row blocks, so the
        # pass kernels treat them as one (clusters, neurons) matrix.
        cps = cfg.clusters_per_slice
        self.state = np.zeros((cfg.n_slices * cps, cfg.neurons_per_cluster), dtype=np.int64)
        self.slices = [
            Slice(cfg, i, state=self.state[i * cps : (i + 1) * cps])
            for i in range(cfg.n_slices)
        ]
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

    def _pass_params(self, program: LayerProgram) -> PassParams:
        cfg = self.config
        vlo, vhi = state_bounds(cfg.state_bits)
        return PassParams(
            cfg.clusters_per_slice, cfg.cycles_per_event, cfg.cycles_per_fire,
            cfg.fire_slack, program.leak, program.threshold, vlo, vhi,
        )

    def _absorb(
        self, slices: list[Slice], res: PassResult, tlu: np.ndarray,
        n_events: int, n_steps: int,
    ) -> None:
        """Write one kernel pass's counters back to the slice and cluster registers."""
        cps = self.config.clusters_per_slice
        fire_cycles = n_steps * self.config.cycles_per_fire
        per_slice = zip(
            res.slice_update_cycles.tolist(), res.slice_sops.tolist(),
            res.slice_outputs.tolist(), res.slice_stall.tolist(),
            res.slice_overrun.tolist(),
        )
        per_cluster = zip(
            tlu.tolist(), res.cluster_updates.tolist(), res.cluster_seen.tolist(),
            res.cluster_fires.tolist(), res.cluster_skipped.tolist(),
        )
        for sl, (cycles, sops, outs, stall, over) in zip(slices, per_slice):
            st = sl.stats
            st.busy_cycles += cycles + fire_cycles + stall
            st.update_events += n_events
            st.fire_events += n_steps
            st.sops += sops
            st.active_cluster_cycles += sops
            st.gated_cluster_cycles += cps * cycles - sops
            st.output_events += outs
            st.fifo_stall_cycles += stall
            st.sequencer_overrun_cycles += over
            for cluster, (tlu_c, updates, seen, fires, skipped) in zip(
                sl.clusters, per_cluster
            ):
                cs = cluster.stats
                cs.events_gated += n_events - seen
                if seen:  # an untouched cluster neither fires nor moves its TLU
                    cluster.tlu = tlu_c
                    cs.updates += updates
                    cs.events_seen += seen
                    cs.fires += fires
                    cs.tlu_skipped_steps += skipped

    @staticmethod
    def _collect_pass(stats: SNEStats, active, n_events: int, n_steps: int) -> None:
        """Add one pass's per-slice counters to the run statistics."""
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
        stats.update_events += n_events * len(active)
        stats.fire_events += n_steps * len(active)
        stats.reset_events += len(active)
        # DMA traffic: the input image is re-read every pass; outputs
        # are written once (they are produced across passes).
        stats.dma_words_in += 1 + n_events + n_steps

    @staticmethod
    def _emit(
        geometry: LayerGeometry, n_steps: int, out_t: list, out_lin: list
    ) -> EventStream:
        """Output stream from fired (timestep, linear neuron) arrays, decoded once."""
        if out_t:
            t = np.concatenate(out_t)
            lin = np.concatenate(out_lin)
        else:
            t = lin = np.zeros(0, dtype=np.int64)
        ch, rem = np.divmod(lin, geometry.out_height * geometry.out_width)
        y, x = np.divmod(rem, geometry.out_width)
        return EventStream(t, ch, x, y, geometry.output_shape(n_steps))

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

        ``kernel`` selects the pass kernel through the
        :mod:`repro.hw.kernels` registry: ``"auto"`` (numba when
        importable, else the numpy shim), ``"numba"``, ``"numpy"``, or
        ``"reference"`` for the retained per-event loop.
        ``batched=False`` also selects the reference loop (the original
        dispatch the registry mirrors).  On the kernel paths the input
        stream's fanout is assembled once, and each pass is one
        ``run_pass`` call whose counters are written back to the slice
        and cluster registers.  Every choice produces bit-identical
        outputs, statistics, registers and traces (the parity the kernel
        matrix in ``tests/test_kernels.py`` and the Fig. 5b speedup
        benchmark pin down).

        ``profiler`` (a :class:`repro.runtime.profile.Profiler`)
        receives per-stage spans with event counts: ``sne.fanout_build``
        around the (memoised) fanout table lookup, ``sne.assemble`` for
        the fanout gather and the pass plan, ``sne.update`` for the
        per-step leak and accumulate, ``sne.fire`` for the fire scans,
        ``sne.reset`` (+ ``sne.trace`` when tracing).
        """
        cfg = self.config
        program.validate_for(cfg)
        g = program.geometry
        if stream.shape != g.input_shape(stream.n_steps):
            raise ValueError(
                f"stream envelope {stream.shape} does not match layer input "
                f"{g.input_shape(stream.n_steps)}"
            )
        ks = resolve_kernel(kernel) if batched else None
        if ks is None:
            return self._run_layer_reference(program, stream, trace, profiler)

        stats = SNEStats()
        n_steps, n_events = stream.n_steps, len(stream)
        n_passes = program.n_passes(cfg)
        timed = profiler is not None
        t0 = _pc() if timed else 0.0
        table = fanout_table(program)
        packed = table.packed()
        if timed:
            t1 = _pc()
            profiler.add("sne.fanout_build", t1 - t0)
        flat = table.flat_ids(stream.ch, stream.x, stream.y)
        idx, w, ev = ks.assemble(packed.offsets, packed.idx, packed.w, flat)
        event_t = stream.t.astype(np.int64)
        params = self._pass_params(program)
        clock = [_pc() - t1, 0.0, 0.0] if timed else None
        counts = stream.counts_per_step() if trace is not None else None
        reset_s = trace_s = 0.0
        n_active = 0  # slices summed over passes
        out_t, out_lin = [], []
        for pass_idx in range(n_passes):
            pass_lo, pass_hi = program.pass_neuron_range(cfg, pass_idx)
            active = self._program_pass(program, pass_lo, pass_hi)
            t0 = _pc() if timed else 0.0
            for sl, _, _ in active:
                sl.process_reset(0)
            if timed:
                reset_s += _pc() - t0
            n_rows = len(active) * cfg.clusters_per_slice
            tlu = np.zeros(n_rows, dtype=np.int64)
            res = ks.run_pass(
                self.state[:n_rows], tlu, idx, w, ev, event_t, 0, n_steps,
                pass_lo, pass_hi, params, clock,
            )
            self._absorb([sl for sl, _, _ in active], res, tlu, n_events, n_steps)
            if trace is not None:
                from .trace import StepTrace  # trace -> energy -> sne cycle

                t0 = _pc() if timed else 0.0
                for s, (cyc, sops, gated, outs) in enumerate(zip(
                    res.step_cycles.tolist(), res.step_sops.tolist(),
                    res.step_gated.tolist(), res.step_outputs.tolist(),
                )):
                    trace.record(StepTrace(
                        step=pass_idx * n_steps + s, input_events=int(counts[s]),
                        cycles=cyc, sops=sops, output_events=outs,
                        active_cluster_cycles=sops, gated_cluster_cycles=gated,
                    ))
                if timed:
                    trace_s += _pc() - t0
            out_t.append(res.out_t)
            out_lin.append(res.out_local + pass_lo)
            stats.cycles += cfg.cycles_per_reset + int(res.step_cycles.sum())
            stats.xbar_broadcasts += n_events
            n_active += len(active)
            self._collect_pass(stats, active, n_events, n_steps)
        stats.passes = n_passes
        out_stream = self._emit(g, n_steps, out_t, out_lin)
        stats.dma_words_out += len(out_stream)
        if timed:
            steps = n_steps * n_passes
            profiler.add("sne.reset", reset_s, count=n_passes, events=n_active)
            profiler.add("sne.assemble", clock[0], count=steps, events=n_events * n_passes)
            profiler.add("sne.update", clock[1], count=steps, events=n_events * n_passes)
            profiler.add("sne.fire", clock[2], count=steps, events=n_steps * n_active)
            if trace is not None:
                profiler.add("sne.trace", trace_s, count=steps)
        return out_stream, stats

    def _run_layer_reference(
        self, program: LayerProgram, stream: EventStream, trace, profiler
    ) -> tuple[EventStream, SNEStats]:
        """The per-event loop: every event through every slice's
        :meth:`~repro.hw.slice.Slice.process_update`, one
        :meth:`~repro.hw.slice.Slice.process_fire` per slice and step.
        The oracle every kernel is checked against."""
        cfg = self.config
        stats = SNEStats()
        out_t, out_ch, out_x, out_y = [], [], [], []
        n_passes = program.n_passes(cfg)
        counts = stream.counts_per_step()
        for pass_idx in range(n_passes):
            pass_lo, pass_hi = program.pass_neuron_range(cfg, pass_idx)
            active = self._program_pass(program, pass_lo, pass_hi)
            pass_cycles = 0
            update_s = fire_s = trace_s = 0.0

            # RST bracket
            t0 = _pc() if profiler is not None else 0.0
            for sl, _, _ in active:
                sl.process_reset(0)
            pass_cycles += cfg.cycles_per_reset
            if profiler is not None:
                profiler.add("sne.reset", _pc() - t0, events=len(active))

            start = 0
            for step in range(stream.n_steps):
                step_cycles_before = pass_cycles
                snapshot = self._activity_snapshot(active) if trace is not None else None
                n = int(counts[step])
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
                start += n
                if profiler is not None:
                    t1 = _pc()
                    update_s += t1 - t0
                fire_cycles = cfg.cycles_per_fire
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
                    fire_s += _pc() - t1
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
                profiler.add("sne.assemble", 0.0, count=stream.n_steps,
                             events=len(stream))
                profiler.add("sne.update", update_s, count=stream.n_steps,
                             events=len(stream))
                profiler.add("sne.fire", fire_s, count=stream.n_steps,
                             events=stream.n_steps * len(active))
                if trace is not None:
                    profiler.add("sne.trace", trace_s, count=stream.n_steps)
            stats.cycles += pass_cycles
            self._collect_pass(stats, active, len(stream), stream.n_steps)

        stats.passes = n_passes
        stats.dma_words_out += len(out_t)
        out_stream = EventStream(
            np.array(out_t, dtype=np.int32),
            np.array(out_ch, dtype=np.int32),
            np.array(out_x, dtype=np.int32),
            np.array(out_y, dtype=np.int32),
            program.geometry.output_shape(stream.n_steps),
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

        Every layer must fit simultaneously and take the previous layer's
        output plane as its input plane; each gets a contiguous group
        of slices and output events hop to the next layer through the
        C-XBAR within the same timestep.  The run's cycle count is the
        busiest slice group (they execute concurrently).  ``profiler``
        receives the same ``sne.assemble`` / ``sne.update`` /
        ``sne.fire`` / ``sne.reset`` / ``sne.fanout_build`` stage spans
        as :meth:`run_layer`.

        ``kernel`` selects the implementation exactly as in
        :meth:`run_layer`.  On the kernel paths each (timestep, slice
        group) is one ``run_pass`` call over a one-step window, the
        group's TLU registers carried from step to step, and the fired
        neurons hop to the next group as linear int64 ids; the
        ``"reference"`` choice runs the per-event loop with the
        original tuple hop.  All choices are bit-identical.
        """
        cfg = self.config
        cps = cfg.clusters_per_slice
        if not programs:
            raise ValueError("network must contain at least one program")
        # Allocate slice groups.
        groups: list[list[tuple[Slice, int, int]]] = []
        rows: list[slice] = []
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
            rows.append(slice(next_slice * cps, (next_slice + needed) * cps))
            next_slice += needed
        for k in range(1, len(programs)):
            g_in, g_out = programs[k].geometry, programs[k - 1].geometry
            if g_in.input_shape(1) != g_out.output_shape(1):
                raise ValueError(
                    f"layer {k} input {g_in.input_shape(1)[1:]} does not chain "
                    f"from layer {k - 1} output {g_out.output_shape(1)[1:]}"
                )

        stats = SNEStats()
        stats.passes = 1
        t0 = _pc() if profiler is not None else 0.0
        for group in groups:
            for sl, _, _ in group:
                sl.process_reset(0)
        if profiler is not None:
            profiler.add("sne.reset", _pc() - t0,
                         events=sum(len(g) for g in groups))

        ks = resolve_kernel(kernel)
        if ks is None:
            out_stream = self._run_pipelined_reference(groups, stream, stats, profiler)
        else:
            out_stream = self._run_pipelined_kernel(
                ks, programs, groups, rows, stream, stats, profiler
            )

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
        stats.dma_words_in = 1 + len(stream) + stream.n_steps
        stats.dma_words_out = len(out_stream)
        return out_stream, stats

    def _run_pipelined_kernel(
        self, ks, programs, groups, rows, stream, stats, profiler
    ) -> EventStream:
        """Layer-parallel loop on a kernel: one ``run_pass`` per
        (timestep, slice group), each group's TLU registers carried
        across steps, fired neurons hopping on as packed arrays."""
        timed = profiler is not None
        t0 = _pc() if timed else 0.0
        tables = [fanout_table(program) for program in programs]
        if timed:
            profiler.add("sne.fanout_build", _pc() - t0)
        layers = [
            (table.packed(), self._pass_params(program), self.state[r],
             np.zeros(r.stop - r.start, dtype=np.int64),
             [sl for sl, _, _ in group], program.geometry.n_outputs)
            for table, program, r, group in zip(tables, programs, rows, groups)
        ]
        clock = [0.0, 0.0, 0.0] if timed else None
        n_steps = stream.n_steps
        counts = stream.counts_per_step()
        start = n_update_events = 0
        out_t, out_lin = [], []
        t0 = _pc() if timed else 0.0
        flat_in = tables[0].flat_ids(stream.ch, stream.x, stream.y)
        if timed:
            clock[0] += _pc() - t0
        for step in range(n_steps):
            n = int(counts[step])
            flat = flat_in[start:start + n]
            start += n
            for pack, params, state, tlu, slices, n_outputs in layers:
                m = int(flat.size)
                t0 = _pc() if timed else 0.0
                idx, w, ev = ks.assemble(pack.offsets, pack.idx, pack.w, flat)
                if timed:
                    clock[0] += _pc() - t0
                res = ks.run_pass(
                    state, tlu, idx, w, ev, np.full(m, step, dtype=np.int64),
                    step, 1, 0, n_outputs, params, clock,
                )
                self._absorb(slices, res, tlu, m, 1)
                stats.xbar_broadcasts += m
                n_update_events += m
                # Packed fire->next-layer hop: the layers chain, so a
                # fired neuron's linear output id is the next layer's
                # linear input id.
                flat = res.out_local
            out_t.append(res.out_t)
            out_lin.append(res.out_local)
        if timed:
            profiler.add("sne.assemble", clock[0], count=n_steps, events=n_update_events)
            profiler.add("sne.update", clock[1], count=n_steps, events=n_update_events)
            profiler.add("sne.fire", clock[2], count=n_steps, events=n_steps * len(groups))
        return self._emit(programs[-1].geometry, n_steps, out_t, out_lin)

    @staticmethod
    def _run_pipelined_reference(groups, stream, stats, profiler) -> EventStream:
        """Layer-parallel per-event loop with the tuple hop (the oracle)."""
        n_steps = stream.n_steps
        counts = stream.counts_per_step()
        start = 0
        update_s = fire_s = 0.0
        n_update_events = 0
        out_t, out_ch, out_x, out_y = [], [], [], []
        for step in range(n_steps):
            n = int(counts[step])
            in_ch = stream.ch[start:start + n].tolist()
            in_x = stream.x[start:start + n].tolist()
            in_y = stream.y[start:start + n].tolist()
            start += n
            for group in groups:
                if profiler is not None:
                    t0 = _pc()
                for ch_k, x_k, y_k in zip(in_ch, in_x, in_y):
                    for sl, _, _ in group:
                        sl.process_update(step, ch_k, x_k, y_k)
                stats.xbar_broadcasts += len(in_ch)
                n_update_events += len(in_ch)
                if profiler is not None:
                    t1 = _pc()
                    update_s += t1 - t0
                in_ch, in_x, in_y = [], [], []
                for sl, _, _ in group:
                    events, _ = sl.process_fire(step)
                    for (_, o, x, y) in events:
                        in_ch.append(o)
                        in_x.append(x)
                        in_y.append(y)
                if profiler is not None:
                    fire_s += _pc() - t1
            out_t.extend([step] * len(in_ch))
            out_ch.extend(in_ch)
            out_x.extend(in_x)
            out_y.extend(in_y)
        if profiler is not None:  # the per-event loop assembles nothing
            profiler.add("sne.assemble", 0.0, count=n_steps, events=n_update_events)
            profiler.add("sne.update", update_s, count=n_steps,
                         events=n_update_events)
            profiler.add("sne.fire", fire_s, count=n_steps,
                         events=n_steps * len(groups))
        g_last = groups[-1][0][0].program.geometry
        return EventStream(
            np.array(out_t, dtype=np.int32),
            np.array(out_ch, dtype=np.int32),
            np.array(out_x, dtype=np.int32),
            np.array(out_y, dtype=np.int32),
            g_last.output_shape(n_steps),
        )
