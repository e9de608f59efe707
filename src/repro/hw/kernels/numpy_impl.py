"""Pure-numpy pass kernel: the always-available fallback.

:func:`run_pass` plans a whole pass with a few vector calls over every
assembled entry — address filter, per-(event, cluster) sequencer
counts, the (timestep, cluster) touch matrix that yields every TLU
distance, and the per-(timestep, neuron) accumulate groups — so the
timestep loop is left with the state arithmetic alone.  Bit-identity
with the per-event reference is the load-bearing property: the
saturating accumulate keeps the stable-sort + partial-sum fast path,
the (rare) neurons that do saturate replay their updates serially, and
every counter is computed from the same quantities the reference path
counts.
"""

from __future__ import annotations

import time

import numpy as np

from . import PassParams, PassResult

__all__ = ["assemble", "run_pass"]

_pc = time.perf_counter
_EMPTY = np.zeros(0, dtype=np.int64)


def assemble(
    offsets: np.ndarray, idx_flat: np.ndarray, w_flat: np.ndarray, flat: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather the packed CSR fanout of a batch of events.

    ``offsets[f]:offsets[f+1]`` delimits input coordinate ``f``'s fanout
    inside ``idx_flat``/``w_flat``; ``flat`` holds the batch's linear
    coordinates in event order.  Returns ``(neuron_idx, weights,
    event_idx)``: each event's
    :meth:`repro.hw.mapper.LayerGeometry.affected_outputs`,
    concatenated in event order.  :meth:`repro.hw.mapper.FanoutTable.gather`
    is this call over the table's packed arrays.
    """
    sizes = offsets[flat + 1] - offsets[flat]
    total = int(sizes.sum())
    if total == 0:
        return _EMPTY, _EMPTY, _EMPTY
    ev = np.repeat(np.arange(flat.size, dtype=np.int64), sizes)
    starts = np.cumsum(sizes) - sizes
    src = np.arange(total, dtype=np.int64) - np.repeat(starts - offsets[flat], sizes)
    return idx_flat[src], w_flat[src], ev


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Offsets where each run of equal values of non-empty ``keys`` starts."""
    return np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))


def _isum(keys: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Integer ``values`` summed per key in ``[0, n)``."""
    return np.bincount(keys, weights=values, minlength=n).astype(np.int64)


def run_pass(
    state: np.ndarray,
    tlu: np.ndarray,
    neuron_idx: np.ndarray,
    weights: np.ndarray,
    event_idx: np.ndarray,
    event_t: np.ndarray,
    t0: int,
    n_steps: int,
    neuron_lo: int,
    neuron_hi: int,
    params: PassParams,
    clock: list | None = None,
) -> PassResult:
    """One pass over timesteps ``[t0, t0 + n_steps)``; see :class:`KernelSet`."""
    if clock is not None:
        c0 = _pc()
    cps, window, fire_cycles, fifo_slack, leak, threshold, vlo, vhi = params
    n_rows, per = state.shape
    n_slices = n_rows // cps
    n_ev = event_t.size
    ev_step = event_t - t0
    ev_per_step = np.bincount(ev_step, minlength=n_steps)
    step_cycles = ev_per_step * window + fire_cycles
    step_gated = (cps * n_slices * window) * ev_per_step
    slice_update = np.full(n_slices, n_ev * window, dtype=np.int64)
    zeros_s = np.zeros(n_slices, dtype=np.int64)
    zeros_c = np.zeros(n_rows, dtype=np.int64)
    local, w, ev = neuron_idx, weights, event_idx
    if local.size and (local.min() < neuron_lo or local.max() >= neuron_hi):
        keep = (local >= neuron_lo) & (local < neuron_hi)  # the address filter
        local, w, ev = local[keep], w[keep], ev[keep]
    n = local.size
    if n == 0:  # nothing reaches this pass's neurons: every cluster gated
        if clock is not None:
            clock[0] += _pc() - c0
        return PassResult(
            step_cycles, np.zeros(n_steps, dtype=np.int64), step_gated,
            np.zeros(n_steps, dtype=np.int64), slice_update, zeros_s, zeros_s,
            zeros_s, zeros_s, zeros_c, zeros_c, zeros_c, zeros_c, _EMPTY, _EMPTY,
        )
    if neuron_lo:
        local = local - neuron_lo
    step = ev_step[ev]

    # Sequencer: updates per (event, cluster).  Fanouts ascend within an
    # event, so the pair keys arrive sorted; each event costs the window
    # plus the overrun of its busiest cluster, per slice and overall.
    p0 = _run_starts(ev * n_rows + local // per)
    p_count = np.diff(np.append(p0, n))
    p_ev = ev[p0]
    p_row = local[p0] // per
    p_slice = p_row // cps
    e0 = _run_starts(p_ev * n_slices + p_slice)
    over = np.maximum(np.maximum.reduceat(p_count, e0) - window, 0)
    e_ev = p_ev[e0]
    if over.any():
        v0 = _run_starts(e_ev)
        ev_over = np.zeros(n_ev, dtype=np.int64)
        ev_over[e_ev[v0]] = np.maximum.reduceat(over, v0)
        slice_overrun = _isum(p_slice[e0], over, n_slices)
        slice_update += slice_overrun
        step_cycles += _isum(ev_step, ev_over, n_steps)
        step_gated += cps * _isum(ev_step[e_ev], over, n_steps)
    else:
        slice_overrun = zeros_s
    step_sops = _isum(ev_step[p_ev], p_count, n_steps)
    step_gated -= step_sops
    cluster_updates = _isum(p_row, p_count, n_rows)
    slice_sops = cluster_updates.reshape(n_slices, cps).sum(axis=1)
    cluster_seen = np.bincount(p_row, minlength=n_rows)

    # TLU: the (timestep, cluster) touch matrix.  A running max of the
    # touch times gives each touch its predecessor, hence the leak
    # distance and the idle steps the register collapsed.
    touched = np.zeros((n_steps, n_rows), dtype=bool)
    touched[ev_step[p_ev], p_row] = True
    t_step, t_row = np.nonzero(touched)  # step-major, clusters ascending
    last = np.where(touched, np.arange(t0, t0 + n_steps)[:, None], tlu)
    np.maximum.accumulate(last, axis=0, out=last)
    dt = (t_step + t0) - np.where(t_step > 0, last[t_step - 1, t_row], tlu[t_row])
    cluster_skipped = _isum(t_row, np.maximum(dt - 1, 0), n_rows)
    tlu[:] = last[-1]
    t_bound = np.zeros(n_steps + 1, dtype=np.int64)
    np.cumsum(touched.sum(axis=1), out=t_bound[1:])
    decay = (leak * dt)[:, None] if leak > 0 else None

    # Accumulate groups: entries per (timestep, neuron) in event order
    # (stable sort).  A group whose running sum never leaves the rails
    # from its entry state collapses into one add; the others clip.
    key = step * (n_rows * per) + local
    order = np.argsort(key, kind="stable")
    g0 = _run_starts(key[order])
    g_end = np.append(g0[1:], n) - 1
    sw = w[order]
    cs = np.cumsum(sw)
    g_base = cs[g0] - sw[g0]  # running sum before each group
    g_max = np.maximum.reduceat(cs, g0) - g_base
    g_min = np.minimum.reduceat(cs, g0) - g_base
    g_total = cs[g_end] - g_base
    g_entry = order[g0]
    g_neuron = local[g_entry]
    g_bound = np.zeros(n_steps + 1, dtype=np.int64)
    np.cumsum(np.bincount(step[g_entry], minlength=n_steps), out=g_bound[1:])
    t_b, g_b = t_bound.tolist(), g_bound.tolist()

    flat = state.reshape(-1)
    fired_steps, fired_counts, fired = [], [], []
    if clock is not None:
        c1 = _pc()
        clock[0] += c1 - c0
    for s in np.flatnonzero(t_bound[1:] > t_bound[:-1]).tolist():
        a, b = t_b[s], t_b[s + 1]
        rows = t_row[a:b]
        if decay is not None:
            sub = state[rows]
            state[rows] = np.sign(sub) * np.maximum(np.abs(sub) - decay[a:b], 0)
        ga, gb = g_b[s], g_b[s + 1]
        neurons = g_neuron[ga:gb]
        e = flat[neurons]
        new = e + g_total[ga:gb]
        clip = np.flatnonzero((e + g_max[ga:gb] > vhi) | (e + g_min[ga:gb] < vlo))
        for k in clip.tolist():  # saturating accumulations replay serially
            v = int(e[k])
            for dw in sw[g0[ga + k] : g_end[ga + k] + 1].tolist():
                v = min(vhi, max(vlo, v + dw))
            new[k] = v
        flat[neurons] = new
        if clock is not None:
            c2 = _pc()
            clock[1] += c2 - c1
        # The touched rows are up to date (TLU == this step): no decay.
        f_r, f_j = np.nonzero(state[rows] >= threshold)
        if f_r.size:
            f_row = rows[f_r]
            state[f_row, f_j] = 0
            fired_steps.append(s)
            fired_counts.append(f_r.size)
            fired.append(f_row * per + f_j)
        if clock is not None:
            c1 = _pc()
            clock[2] += c1 - c2

    if fired:
        f_step = np.repeat(np.array(fired_steps, dtype=np.int64), fired_counts)
        f_local = np.concatenate(fired)
        cluster_fires = np.bincount(f_local // per, minlength=n_rows)
        valid = f_local < neuron_hi - neuron_lo  # TDM slots past the interval stay silent
        f_step = f_step[valid]
        f_local = f_local[valid]
        per_slice = np.bincount(
            f_step * n_slices + f_local // (per * cps), minlength=n_steps * n_slices
        ).reshape(n_steps, n_slices)
        stall = np.maximum(per_slice - fifo_slack, 0)
        step_cycles += stall.max(axis=1)
        step_outputs = per_slice.sum(axis=1)
        slice_outputs = per_slice.sum(axis=0)
        slice_stall = stall.sum(axis=0)
    else:
        f_step = f_local = _EMPTY
        cluster_fires = zeros_c
        step_outputs = np.zeros(n_steps, dtype=np.int64)
        slice_outputs = slice_stall = zeros_s
    return PassResult(
        step_cycles, step_sops, step_gated, step_outputs,
        slice_update, slice_sops, slice_outputs, slice_stall, slice_overrun,
        cluster_updates, cluster_seen, cluster_fires, cluster_skipped,
        f_step + t0, f_local,
    )
