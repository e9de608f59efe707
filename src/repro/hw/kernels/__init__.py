"""Compiled kernels for the three hot SNE stages (assemble/update/fire).

The numpy vectorisation (PR 4) made the event loop ~4x faster than the
per-event reference; profiling still shows ``sne.update``,
``sne.assemble`` and ``sne.fire`` dominating.  This package moves those
three stages behind a runtime-selected :class:`KernelSet` — the shape
Matterhorn uses for its optional compiled LIF kernels: accelerate the
hot loop, never abandon the bit-identical reference.

Selection mirrors the existing ``batched=True`` dispatch::

    SNE().run_layer(program, stream, kernel="auto")   # numba if importable
    SNE().run_layer(program, stream, kernel="numpy")  # vectorised shim
    SNE().run_layer(program, stream, kernel="reference")  # per-event loop

Every registered kernel is **bit-identical** against the per-event
reference — outputs, stats, traces and membranes — enforced by the
three-way parity matrix in ``tests/test_kernels.py`` and the cosim fuzz
harness (``repro.hw.fuzz``).  Requesting ``"numba"`` where numba is not
importable warns once and falls back to the numpy shim (never crashes):
a fleet silently mixing numba and numpy workers still produces
bit-identical results, and :func:`available_kernels` makes the mix
detectable in ``repro profile --json`` and serve/worker startup logs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "KERNEL_CHOICES",
    "KernelSet",
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


@dataclass(frozen=True)
class KernelSet:
    """The three stage kernels one backend provides.

    ``assemble(offsets, idx, w, flat)`` gathers the packed CSR fanout of
    a batch of events into ``(neuron_idx, weights, event_idx)`` int64
    arrays concatenated in event order: each event contributes its
    :meth:`repro.hw.mapper.LayerGeometry.affected_outputs`, which the
    closed-form :class:`~repro.hw.mapper.PackedFanout` reproduces per
    coordinate (:meth:`repro.hw.mapper.FanoutTable.gather` is the numpy
    form of this call).

    ``update_step(state, tlus, t, leak, neuron_idx, weights, event_idx,
    n_events, neuron_lo, neuron_hi, window, vlo, vhi)`` applies one
    timestep's UPDATE events to a slice's ``(clusters, neurons)`` state
    matrix in place — leak catch-up on first touch, then the saturating
    accumulate in event order — and returns ``(cycles_per_event,
    per_cluster_updates, events_touching, n_in_range, overrun_cycles)``.

    ``fire_step(state, dts, leak, threshold, neuron_lo, neuron_hi,
    plane, out_width)`` runs one TDM fire scan: zeroes fired membranes
    in place and returns ``(out_ch, out_x, out_y, fires_per_cluster)``
    with TDM slots beyond ``neuron_hi`` silenced (state still cleared,
    fire still counted — exactly the reference scan).
    """

    name: str
    assemble: Callable
    update_step: Callable
    fire_step: Callable
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


def _numpy_factory() -> KernelSet:
    """Build the pure-numpy shim kernel set (always available)."""
    from . import numpy_impl

    return KernelSet(
        name="numpy",
        assemble=numpy_impl.assemble,
        update_step=numpy_impl.update_step,
        fire_step=numpy_impl.fire_step,
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
        update_step=numba_impl.update_step,
        fire_step=numba_impl.fire_step,
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
        _RESOLVED[name] = ks
        return ks
    _RESOLVED[name] = ks
    return ks
