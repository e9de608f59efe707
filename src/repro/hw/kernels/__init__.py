"""Compiled kernels for the SNE event loop: one call per pass.

A *pass* replays an input stream over one block of output neurons (the
time-multiplexed mode's unit of work, one timestep of one slice group in
layer-parallel mode).  Everything about a pass that does not depend on
membrane state — which clusters each event reaches, the sequencer
cycles it costs, the TLU distances, the per-neuron accumulate groups —
is planned once, and only the state arithmetic runs per timestep.
This package puts that work behind a runtime-selected
:class:`KernelSet` — the shape Matterhorn uses for its optional compiled
LIF kernels: accelerate the hot loop, never abandon the bit-identical
reference.

Selection mirrors the existing ``batched=True`` dispatch::

    SNE().run_layer(program, stream, kernel="auto")   # numba if importable
    SNE().run_layer(program, stream, kernel="numpy")  # vectorised shim
    SNE().run_layer(program, stream, kernel="reference")  # per-event loop

Every registered kernel is **bit-identical** against the per-event
reference — outputs, stats, cluster registers, traces and membranes —
enforced by the three-way parity matrix in ``tests/test_kernels.py``
and the kernel fuzz harness (``repro.hw.fuzz``).  Requesting
``"numba"`` where numba is not importable warns once and falls back to
the numpy shim (never crashes): a fleet silently mixing numba and numpy
workers still produces bit-identical results, and
:func:`available_kernels` makes the mix detectable in ``repro profile
--json`` and serve/worker startup logs.
"""

from __future__ import annotations

import ctypes
import sys
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "KERNEL_CHOICES",
    "KernelSet",
    "PassParams",
    "PassResult",
    "available_kernels",
    "default_kernel",
    "kernel_summary",
    "register_kernel",
    "resolve_kernel",
]

#: Valid values of the ``kernel=`` parameter everywhere it appears
#: (``SNE.run_layer``/``run_network``/``run_network_pipelined``,
#: ``sample_eval`` job specs, ``repro profile/eval/sweep --kernel``).
KERNEL_CHOICES = ("auto", "numba", "numpy", "reference")


class PassParams(NamedTuple):
    """The per-layer scalars of a pass (from the config and the program)."""

    clusters_per_slice: int
    window: int  # sequencer cycles per UPDATE event
    fire_cycles: int  # TDM scan cycles per FIRE event
    fifo_slack: int  # fired events a scan absorbs before it stalls
    leak: int
    threshold: int
    vlo: int  # membrane register rails
    vhi: int


class PassResult(NamedTuple):
    """Counters of one pass, as int64 arrays.

    ``step_*`` have one entry per timestep of the window: cycles
    (updates plus the fire scan), SOPs, gated cluster-cycles and output
    events.  ``slice_*`` have one entry per slice: update cycles (the
    sequencer windows including overrun), SOPs, output events, FIFO
    stall cycles and sequencer overrun cycles.  ``cluster_*`` have one
    entry per cluster: neuron updates, events that reached it, fired
    neurons and idle timesteps its TLU skipped.  ``out_t``/``out_local``
    list the output events in emission order — timestep and neuron
    index relative to the pass's ``neuron_lo``.
    """

    step_cycles: np.ndarray
    step_sops: np.ndarray
    step_gated: np.ndarray
    step_outputs: np.ndarray
    slice_update_cycles: np.ndarray
    slice_sops: np.ndarray
    slice_outputs: np.ndarray
    slice_stall: np.ndarray
    slice_overrun: np.ndarray
    cluster_updates: np.ndarray
    cluster_seen: np.ndarray
    cluster_fires: np.ndarray
    cluster_skipped: np.ndarray
    out_t: np.ndarray
    out_local: np.ndarray


@dataclass(frozen=True)
class KernelSet:
    """The two kernels one backend provides.

    ``assemble(offsets, idx, w, flat)`` gathers the packed CSR fanout of
    a batch of events into ``(neuron_idx, weights, event_idx)`` int64
    arrays concatenated in event order: each event contributes its
    :meth:`repro.hw.mapper.LayerGeometry.affected_outputs` — neuron
    indices strictly ascending within the event — which the closed-form
    :class:`~repro.hw.mapper.PackedFanout` reproduces per coordinate
    (:meth:`repro.hw.mapper.FanoutTable.gather` is the numpy form of
    this call).

    ``run_pass(state, tlu, neuron_idx, weights, event_idx, event_t, t0,
    n_steps, neuron_lo, neuron_hi, params, clock=None)`` runs the events
    of timesteps ``[t0, t0 + n_steps)`` over the neurons ``[neuron_lo,
    neuron_hi)``.  ``state`` is the C-contiguous ``(clusters,
    neurons_per_cluster)`` membrane matrix of the pass's slices (row 0
    holds ``neuron_lo``) and
    ``tlu`` its per-cluster time-of-last-update registers, both updated
    in place; ``event_t`` is the time-sorted timestep of each event and
    must not precede any TLU.  Per timestep the touched clusters catch
    up their leak, the saturating accumulate runs in event order, and
    the touched clusters are scanned for fires.  Only touched clusters
    are scanned: with ``threshold > 0`` and a leak that only moves a
    membrane toward zero, a cluster that passed its last scan cannot
    fire before its next update.  ``params`` is a :class:`PassParams`;
    the result is a :class:`PassResult` whose every counter equals what
    the per-event reference (``Slice.process_update`` /
    ``Slice.process_fire``) counts.  ``clock``, when given, is a
    three-float list that accumulates the seconds spent planning, in
    the per-step leak and accumulate, and in the fire scans.
    """

    name: str
    assemble: Callable
    run_pass: Callable
    detail: str = field(default="", compare=False)


#: name -> zero-arg factory returning a KernelSet (or None when the name
#: selects the per-event reference loop rather than a batched kernel).
_FACTORIES: dict[str, Callable[[], "KernelSet | None"]] = {}
_RESOLVED: dict[str, "KernelSet | None"] = {}
_WARNED: set[str] = set()


def register_kernel(name: str, factory: Callable[[], "KernelSet | None"]) -> None:
    """Register a kernel backend under ``name``.

    ``factory`` is called lazily (once) on first resolution; it may
    raise to signal the backend is unavailable on this machine.
    """
    _FACTORIES[name] = factory


def _numba_available() -> tuple[bool, str]:
    """Probe numba importability without paying for a JIT compile."""
    from . import numba_impl

    return numba_impl.AVAILABLE, numba_impl.DETAIL


#: glibc ``mallopt`` parameters (malloc.h) and the values the kernels set.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_BYTES, _MMAP_BYTES = 64 << 20, 32 << 20


def _keep_freed_heap() -> None:
    """Keep freed heap memory mapped for the next pass to reuse.

    A pass plan is a few MB of short-lived arrays, some of hundreds of
    KB (a dense layer's entries).  With glibc's default thresholds those
    come from fresh ``mmap`` calls or are trimmed off the heap top when
    freed, so every sample re-faulted its pages: about 230 page faults
    a sample and 7 % of a benchmark run's CPU time in the kernel, a cost
    that follows the host's memory traffic rather than the event count.
    Fixed thresholds keep the pages: 32 MB for ``mmap`` (glibc's
    ceiling for its dynamic threshold) and twice that for trimming (its
    dynamic rule).  Does nothing where the C library has no ``mallopt``.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES)


def _numpy_factory() -> KernelSet:
    """Build the pure-numpy shim kernel set (always available)."""
    from . import numpy_impl

    return KernelSet(
        name="numpy",
        assemble=numpy_impl.assemble,
        run_pass=numpy_impl.run_pass,
        detail=f"numpy {np.__version__}",
    )


def _numba_factory() -> KernelSet:
    """Build the numba-jit kernel set; raises when numba is absent."""
    from . import numba_impl

    if not numba_impl.AVAILABLE:
        raise ImportError(numba_impl.DETAIL)
    return KernelSet(
        name="numba",
        assemble=numba_impl.assemble,
        run_pass=numba_impl.run_pass,
        detail=numba_impl.DETAIL,
    )


register_kernel("numpy", _numpy_factory)
register_kernel("numba", _numba_factory)
register_kernel("reference", lambda: None)


def default_kernel() -> str:
    """The concrete kernel ``"auto"`` resolves to on this machine."""
    available, _ = _numba_available()
    return "numba" if available else "numpy"


def available_kernels() -> dict:
    """Structured capability report of the kernel backends.

    Returns ``{"auto": <name>, "kernels": {name: {"available": bool,
    "detail": str}, ...}}`` — the document surfaced by ``repro profile
    --json`` and logged at serve/worker startup so a fleet silently
    mixing numba and numpy workers is detectable.
    """
    numba_ok, numba_detail = _numba_available()
    return {
        "auto": default_kernel(),
        "kernels": {
            "numba": {"available": numba_ok, "detail": numba_detail},
            "numpy": {"available": True, "detail": f"numpy {np.__version__}"},
            "reference": {"available": True, "detail": "per-event python loop"},
        },
    }


def kernel_summary() -> str:
    """One-line capability summary for startup log lines."""
    caps = available_kernels()
    marks = ",".join(
        name for name, cap in caps["kernels"].items() if cap["available"]
    )
    return f"kernels {marks} (auto->{caps['auto']})"


def resolve_kernel(name: str = "auto") -> KernelSet | None:
    """Resolve a kernel name to a :class:`KernelSet`.

    ``"reference"`` resolves to ``None`` — the caller runs the retained
    per-event loop.  ``"auto"`` picks numba when importable, else the
    numpy shim.  An explicit ``"numba"`` request on a machine without
    numba warns once per process and falls back to numpy: results are
    bit-identical by the parity contract, so a mixed-kernel fleet is a
    performance concern, never a correctness one.
    """
    if name not in KERNEL_CHOICES:
        raise ValueError(
            f"unknown kernel {name!r}; choose from {', '.join(KERNEL_CHOICES)}"
        )
    if name == "auto":
        name = default_kernel()
    if name in _RESOLVED:
        return _RESOLVED[name]
    factory = _FACTORIES[name]
    try:
        ks = factory()
    except ImportError as exc:
        if name not in _WARNED:
            _WARNED.add(name)
            warnings.warn(
                f"kernel {name!r} unavailable ({exc}); falling back to the "
                "numpy shim (outputs are bit-identical)",
                RuntimeWarning,
                stacklevel=2,
            )
        ks = _FACTORIES["numpy"]()
    if ks is not None:
        _keep_freed_heap()
    _RESOLVED[name] = ks
    return ks
