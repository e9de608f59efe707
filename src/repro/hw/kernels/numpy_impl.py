"""Pure-numpy kernel shim: the always-available batched fallback.

These are the vectorised stage implementations that previously lived
inline in :mod:`repro.hw.slice` / :mod:`repro.hw.mapper`, restated
against the :class:`~repro.hw.kernels.KernelSet` contract so the numba
backend can replace them call-for-call.  Bit-identity with the per-event
reference is the load-bearing property: the saturating accumulate keeps
the stable-sort + prefix-sum fast path with exact serial replay of the
(rare) saturating neurons, and every counter is computed from the same
quantities the reference path counts.
"""

from __future__ import annotations

import numpy as np

__all__ = ["assemble", "update_step", "fire_step", "scan_accumulate"]


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
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    ev = np.repeat(np.arange(flat.size, dtype=np.int64), sizes)
    starts = np.cumsum(sizes) - sizes
    src = np.arange(total, dtype=np.int64) - np.repeat(starts - offsets[flat], sizes)
    return idx_flat[src], w_flat[src], ev


def scan_accumulate(
    flat_state: np.ndarray, idx: np.ndarray, w: np.ndarray, lo: int, hi: int
) -> None:
    """Saturating accumulate of one step's entries, in event order.

    ``idx`` is slice-local (0-based) into ``flat_state`` and ``w``
    parallel to it, both concatenated in event order.  Saturation stays
    per event: entries group per neuron (stable sort keeps event order),
    prefix sums find the neurons whose running value never leaves
    ``[lo, hi]`` — for those every clip is a no-op and the whole
    sequence collapses into one add — and the rare saturating neurons
    replay their updates serially.  Bit-identical to the per-event
    :meth:`~repro.hw.cluster.Cluster.apply_update` chain.
    """
    n = idx.size
    entry_state = flat_state[idx]
    order = np.argsort(idx, kind="stable")
    sn = idx[order]
    sw = w[order]
    change = np.flatnonzero(sn[1:] != sn[:-1]) + 1
    starts = np.concatenate((np.zeros(1, dtype=np.int64), change))
    ends = np.concatenate((change, np.array([n], dtype=np.int64))) - 1
    cs = np.cumsum(sw)
    seg_base = np.repeat(cs[starts] - sw[starts], np.diff(np.append(starts, n)))
    running = entry_state[order] + (cs - seg_base)
    neurons = sn[starts]
    safe = (np.maximum.reduceat(running, starts) <= hi) & (
        np.minimum.reduceat(running, starts) >= lo
    )
    final = running[ends].copy()
    for k in np.flatnonzero(~safe):  # saturating accumulations replay serially
        v = int(entry_state[order[starts[k]]])
        for dw in sw[starts[k] : ends[k] + 1]:
            v = min(hi, max(lo, v + int(dw)))
        final[k] = v
    flat_state[neurons] = final


def update_step(
    state: np.ndarray,
    tlus: np.ndarray,
    t: int,
    leak: int,
    neuron_idx: np.ndarray,
    weights: np.ndarray,
    event_idx: np.ndarray,
    n_events: int,
    neuron_lo: int,
    neuron_hi: int,
    window: int,
    vlo: int,
    vhi: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Apply one timestep's UPDATE events to a slice's state matrix.

    ``state`` is the contiguous ``(n_clusters, neurons_per_cluster)``
    membrane matrix, mutated in place: touched clusters catch up their
    leak first (the TLU mechanism), then the saturating accumulate runs
    in event order.  Returns ``(cycles, per_cluster_updates,
    events_touching, n_in_range, overrun_cycles)`` where ``cycles[k]``
    is exactly what the per-event reference charges event ``k``.
    """
    n_clusters, per_cluster = state.shape
    in_range = (neuron_idx >= neuron_lo) & (neuron_idx < neuron_hi)
    idx = neuron_idx[in_range] - neuron_lo
    w = weights[in_range]
    ev = event_idx[in_range]

    cluster_ids = idx // per_cluster
    counts = np.bincount(
        ev * n_clusters + cluster_ids, minlength=n_events * n_clusters
    ).reshape(n_events, n_clusters)
    max_updates = counts.max(axis=1) if n_events else np.zeros(0, dtype=np.int64)
    overrun = np.maximum(max_updates - window, 0)
    cycles = window + overrun
    per_cluster_updates = counts.sum(axis=0)
    events_touching = (counts > 0).sum(axis=0)

    if leak > 0:
        touched = np.flatnonzero(events_touching)
        if touched.size:
            dt = (t - tlus[touched])[:, None]
            rows = state[touched]
            state[touched] = np.sign(rows) * np.maximum(np.abs(rows) - leak * dt, 0)

    if idx.size:
        scan_accumulate(state.reshape(-1), idx, w, vlo, vhi)
    return cycles, per_cluster_updates, events_touching, int(idx.size), int(overrun.sum())


def fire_step(
    state: np.ndarray,
    dts: np.ndarray,
    leak: int,
    threshold: int,
    neuron_lo: int,
    neuron_hi: int,
    plane: int,
    out_width: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One TDM fire scan across every cluster of a slice.

    Compares the *effective* membrane (stored value decayed by the
    per-cluster TLU distance, never written back) against the
    threshold, zeroes every fired membrane in place, and translates the
    fired TDM slots inside ``[neuron_lo, neuron_hi)`` to output
    ``(ch, x, y)`` coordinates.  Slots beyond the mapped interval stay
    silent but are still cleared and counted — the reference scan's
    exact behaviour.  Returns ``(out_ch, out_x, out_y,
    fires_per_cluster)`` int64 arrays in cluster-major scan order.
    """
    n_clusters, per_cluster = state.shape
    if leak > 0:
        effective = np.sign(state) * np.maximum(np.abs(state) - leak * dts[:, None], 0)
    else:
        effective = state
    mask = effective >= threshold
    fired_c, fired_n = np.nonzero(mask)
    fires = np.bincount(fired_c, minlength=n_clusters)
    state[fired_c, fired_n] = 0
    linear = neuron_lo + fired_c * per_cluster + fired_n
    lin = linear[linear < neuron_hi]
    out_ch = lin // plane
    rem = lin - out_ch * plane
    out_y = rem // out_width
    out_x = rem - out_y * out_width
    return out_ch, out_x, out_y, fires
