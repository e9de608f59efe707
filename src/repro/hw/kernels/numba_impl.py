"""Numba-jit kernels for the SNE hot loop (preferred when importable).

The pass kernel is one fused serial loop over a pass's assembled
entries — address filter, first-touch leak catch-up, per-(event,
cluster) sequencer counts and the saturating accumulate in event order,
then the fire scan of the touched clusters at the end of each timestep.
Serial execution in event order makes bit-identity with the per-event
reference *trivial*: there is no fast-path/replay split to keep honest,
every add clips exactly like :func:`repro.hw.lif_datapath.sat_add`.

Import of this module never fails: ``AVAILABLE`` records whether numba
imported, and the registry (:mod:`repro.hw.kernels`) falls back to the
numpy shim — with a once-per-process warning — when it did not.  The
undecorated bodies stay plain Python, so the tests run them against the
numpy kernel on machines without numba.  JIT compilation is paid once
per process (``cache=True`` persists the machine code across processes
where numba's cache directory allows).
"""

from __future__ import annotations

import time

import numpy as np

from . import PassParams, PassResult

__all__ = ["AVAILABLE", "DETAIL", "assemble", "run_pass"]

try:  # pragma: no cover - exercised only where numba is installed
    import numba

    AVAILABLE = True
    DETAIL = f"numba {numba.__version__}"
except ImportError as _exc:  # the container this grew in has no numba
    numba = None
    AVAILABLE = False
    DETAIL = f"numba not importable ({_exc})"


def _jit(func):
    """``numba.njit(cache=True)`` when numba imported, else identity.

    Keeping the decorator total lets the module define its kernels
    unconditionally; the registry only hands them out when
    ``AVAILABLE`` is true, so the undecorated forms are never hot.
    """
    if numba is None:
        return func
    return numba.njit(cache=True)(func)


@_jit
def _assemble(offsets, idx_flat, w_flat, flat):  # pragma: no cover - jit body
    n = flat.shape[0]
    total = 0
    for k in range(n):
        total += offsets[flat[k] + 1] - offsets[flat[k]]
    idx = np.empty(total, np.int64)
    w = np.empty(total, np.int64)
    ev = np.empty(total, np.int64)
    p = 0
    for k in range(n):
        f = flat[k]
        for s in range(offsets[f], offsets[f + 1]):
            idx[p] = idx_flat[s]
            w[p] = w_flat[s]
            ev[p] = k
            p += 1
    return idx, w, ev


@_jit
def _run_pass(
    state, tlu, idx, w, ev, ev_t, t0, n_steps, neuron_lo, neuron_hi,
    cps, window, fire_cycles, fifo_slack, leak, threshold, vlo, vhi,
):  # pragma: no cover - jit body
    n_rows, per = state.shape
    n_slices = n_rows // cps
    flat = state.reshape(-1)
    n_valid = neuron_hi - neuron_lo
    n_ev = ev_t.shape[0]
    n_entries = idx.shape[0]
    step_cycles = np.zeros(n_steps, np.int64)
    step_sops = np.zeros(n_steps, np.int64)
    step_gated = np.zeros(n_steps, np.int64)
    step_outputs = np.zeros(n_steps, np.int64)
    slice_update = np.zeros(n_slices, np.int64)
    slice_sops = np.zeros(n_slices, np.int64)
    slice_outputs = np.zeros(n_slices, np.int64)
    slice_stall = np.zeros(n_slices, np.int64)
    slice_overrun = np.zeros(n_slices, np.int64)
    cl_updates = np.zeros(n_rows, np.int64)
    cl_seen = np.zeros(n_rows, np.int64)
    cl_fires = np.zeros(n_rows, np.int64)
    cl_skipped = np.zeros(n_rows, np.int64)
    count = np.zeros(n_rows, np.int64)  # the current event's updates per cluster
    ev_rows = np.empty(n_rows, np.int64)  # clusters the current event reached
    slice_max = np.zeros(n_slices, np.int64)
    slice_fired = np.zeros(n_slices, np.int64)
    touched_at = np.full(n_rows, t0 - 1, np.int64)
    step_rows = np.empty(n_rows, np.int64)  # clusters touched this timestep
    out_t = np.empty(64, np.int64)
    out_loc = np.empty(64, np.int64)
    m = 0
    e = 0
    k = 0
    for s in range(n_steps):
        t = t0 + s
        n_touched = 0
        n_step_ev = 0
        while e < n_ev and ev_t[e] == t:
            n_er = 0
            while k < n_entries and ev[k] == e:
                g = idx[k]
                if g >= neuron_lo and g < neuron_hi:
                    loc = g - neuron_lo
                    r = loc // per
                    if touched_at[r] != t:  # first touch: TLU catch-up
                        touched_at[r] = t
                        step_rows[n_touched] = r
                        n_touched += 1
                        dt = t - tlu[r]
                        if dt > 1:
                            cl_skipped[r] += dt - 1
                        if leak > 0 and dt > 0:
                            dec = leak * dt
                            base = r * per
                            for j in range(per):
                                v = flat[base + j]
                                if v > 0:
                                    v -= dec
                                    flat[base + j] = v if v > 0 else 0
                                elif v < 0:
                                    v += dec
                                    flat[base + j] = v if v < 0 else 0
                        tlu[r] = t
                    if count[r] == 0:
                        ev_rows[n_er] = r
                        n_er += 1
                    count[r] += 1
                    v = flat[loc] + w[k]
                    if v > vhi:
                        v = vhi
                    elif v < vlo:
                        v = vlo
                    flat[loc] = v
                k += 1
            for i in range(n_er):
                r = ev_rows[i]
                c = count[r]
                sl = r // cps
                cl_updates[r] += c
                cl_seen[r] += 1
                slice_sops[sl] += c
                step_sops[s] += c
                if c > slice_max[sl]:
                    slice_max[sl] = c
            ev_over = 0
            for i in range(n_er):
                r = ev_rows[i]
                count[r] = 0
                sl = r // cps
                over = slice_max[sl] - window
                slice_max[sl] = 0  # each slice counted once per event
                if over > 0:
                    slice_overrun[sl] += over
                    slice_update[sl] += over
                    step_gated[s] += cps * over
                    if over > ev_over:
                        ev_over = over
            step_cycles[s] += window + ev_over
            n_step_ev += 1
            e += 1
        step_gated[s] += cps * n_slices * window * n_step_ev - step_sops[s]
        # Fire scan of the touched clusters, in cluster order; each was
        # just brought to TLU == t, so no decay applies.
        rows = np.sort(step_rows[:n_touched])
        for i in range(n_touched):
            r = rows[i]
            base = r * per
            for j in range(per):
                if flat[base + j] >= threshold:
                    flat[base + j] = 0
                    cl_fires[r] += 1
                    if base + j < n_valid:
                        if m == out_t.shape[0]:
                            grown_t = np.empty(2 * m, np.int64)
                            grown_loc = np.empty(2 * m, np.int64)
                            grown_t[:m] = out_t
                            grown_loc[:m] = out_loc
                            out_t = grown_t
                            out_loc = grown_loc
                        out_t[m] = t
                        out_loc[m] = base + j
                        m += 1
                        slice_fired[r // cps] += 1
        stall_max = 0
        for sl in range(n_slices):
            f = slice_fired[sl]
            slice_fired[sl] = 0
            slice_outputs[sl] += f
            step_outputs[s] += f
            stall = f - fifo_slack
            if stall > 0:
                slice_stall[sl] += stall
                if stall > stall_max:
                    stall_max = stall
        step_cycles[s] += fire_cycles + stall_max
    for sl in range(n_slices):
        slice_update[sl] += n_ev * window
    return (
        step_cycles, step_sops, step_gated, step_outputs,
        slice_update, slice_sops, slice_outputs, slice_stall, slice_overrun,
        cl_updates, cl_seen, cl_fires, cl_skipped,
        out_t[:m].copy(), out_loc[:m].copy(),
    )


def assemble(offsets, idx_flat, w_flat, flat):
    """CSR fanout gather (jit): same contract as the numpy shim."""
    return _assemble(offsets, idx_flat, w_flat, flat)


def run_pass(
    state, tlu, neuron_idx, weights, event_idx, event_t, t0, n_steps,
    neuron_lo, neuron_hi, params: PassParams, clock=None,
) -> PassResult:
    """One fused pass (jit): same contract as the numpy shim.

    The body has no stage boundaries a clock could see, so ``clock``
    books all of it as the per-step update.
    """
    c0 = time.perf_counter() if clock is not None else 0.0
    result = PassResult(*_run_pass(
        state, tlu,
        np.ascontiguousarray(neuron_idx), np.ascontiguousarray(weights),
        np.ascontiguousarray(event_idx), np.ascontiguousarray(event_t, dtype=np.int64),
        int(t0), int(n_steps), int(neuron_lo), int(neuron_hi), *map(int, params),
    ))
    if clock is not None:
        clock[1] += time.perf_counter() - c0
    return result
