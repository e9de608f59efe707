"""Randomised co-simulation: the event-driven model vs the dense golden.

A verification engineer would fuzz the RTL against a golden C model;
this module is the Python analogue.  :func:`random_case` draws a random
layer kind, geometry, LIF parameters and input stream (constrained to
the saturation-free regime where the two paths are provably
equivalent); :func:`run_case` executes both and diffs the outputs.
Used by the property-based tests and runnable standalone::

    python -m repro.hw.fuzz 200

The second harness fuzzes the compiled-kernel matrix
(:mod:`repro.hw.kernels`): :func:`random_kernel_case` draws scenarios
that deliberately hit the kernel-boundary suspects — forced mid-step
saturation, zero-event steps, single-neuron slices — and
:func:`run_kernel_case` diffs every available kernel against the
per-event reference on outputs, statistics and membranes.  Unlike the
dense golden, the reference IS the spec here, so saturating scenarios
are compared, not skipped::

    python -m repro.hw.fuzz 200 --kernels
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..events.stream import EventStream
from .config import SNEConfig
from .functional import check_no_intra_step_saturation, simulate_layer_dense
from .mapper import LayerGeometry, LayerKind, LayerProgram
from .sne import SNE

__all__ = [
    "FuzzCase",
    "FuzzResult",
    "KernelFuzzResult",
    "fuzz",
    "fuzz_kernels",
    "matrix_kernels",
    "random_case",
    "random_kernel_case",
    "run_case",
    "run_kernel_case",
]


@dataclass(frozen=True)
class FuzzCase:
    """One randomly drawn co-simulation scenario."""

    program: LayerProgram
    stream: EventStream
    n_slices: int
    seed: int


@dataclass(frozen=True)
class FuzzResult:
    """Outcome of one scenario."""

    case: FuzzCase
    matched: bool
    hw_events: int
    golden_events: int
    skipped_saturation: bool


def random_case(seed: int, max_plane: int = 10) -> FuzzCase:
    """Draw a random saturation-checkable layer + stream + slice count."""
    rng = np.random.default_rng(seed)
    kind = rng.choice([LayerKind.CONV, LayerKind.DEPTHWISE, LayerKind.DENSE])
    c_in = int(rng.integers(1, 4))
    n_steps = int(rng.integers(1, 10))

    if kind == LayerKind.DENSE:
        h = int(rng.integers(1, 5))
        w = int(rng.integers(1, 5))
        c_out = int(rng.integers(1, 16))
        geometry = LayerGeometry(kind, c_in, h, w, c_out, 1, 1)
        weights = rng.integers(-2, 3, (c_out, geometry.n_inputs))
    else:
        kernel = int(rng.integers(1, 4))
        h = int(rng.integers(kernel, max_plane))
        w = int(rng.integers(kernel, max_plane))
        if kind == LayerKind.DEPTHWISE:
            stride = kernel  # pooling-style
            if h % stride or w % stride:
                h -= h % stride
                w -= w % stride
                h = max(h, stride)
                w = max(w, stride)
            geometry = LayerGeometry(
                kind, c_in, h, w, c_in, h // stride, w // stride, kernel, stride, 0
            )
            weights = rng.integers(1, 3, (c_in, kernel, kernel))
        else:
            padding = int(rng.integers(0, kernel))
            stride = int(rng.integers(1, 3))
            h_out = (h + 2 * padding - kernel) // stride + 1
            w_out = (w + 2 * padding - kernel) // stride + 1
            if h_out < 1 or w_out < 1:
                stride, padding = 1, kernel // 2
                h_out = h + 2 * padding - kernel + 1
                w_out = w + 2 * padding - kernel + 1
            c_out = int(rng.integers(1, 5))
            geometry = LayerGeometry(
                kind, c_in, h, w, c_out, h_out, w_out, kernel, stride, padding
            )
            weights = rng.integers(-2, 3, (c_out, c_in, kernel, kernel))

    program = LayerProgram(
        geometry,
        weights,
        threshold=int(rng.integers(1, 12)),
        leak=int(rng.integers(0, 3)),
    )
    density = float(rng.uniform(0.0, 0.25))
    dense = (rng.random((n_steps, c_in, h, w)) < density).astype(np.uint8)
    return FuzzCase(
        program=program,
        stream=EventStream.from_dense(dense),
        n_slices=int(rng.choice([1, 2, 4, 8])),
        seed=seed,
    )


def run_case(case: FuzzCase) -> FuzzResult:
    """Co-simulate one case; skips scenarios where paths may diverge."""
    if not check_no_intra_step_saturation(case.program, case.stream):
        return FuzzResult(case, matched=True, hw_events=0, golden_events=0,
                          skipped_saturation=True)
    out_hw, _ = SNE(SNEConfig(n_slices=case.n_slices)).run_layer(
        case.program, case.stream
    )
    out_gold = simulate_layer_dense(case.program, case.stream)
    return FuzzResult(
        case,
        matched=out_hw == out_gold,
        hw_events=len(out_hw),
        golden_events=len(out_gold),
        skipped_saturation=False,
    )


def fuzz(n_cases: int, seed0: int = 0) -> list[FuzzResult]:
    """Run ``n_cases`` scenarios; returns every result (failures included)."""
    if n_cases < 1:
        raise ValueError("n_cases must be positive")
    return [run_case(random_case(seed0 + i)) for i in range(n_cases)]


@dataclass(frozen=True)
class KernelFuzzResult:
    """Outcome of one kernel-matrix scenario."""

    case: FuzzCase
    kernels: tuple[str, ...]
    matched: bool
    mismatches: tuple[str, ...]  # "<kernel>: <field>" per divergence


def matrix_kernels() -> tuple[str, ...]:
    """The kernels worth fuzzing here: numpy always, numba when importable.

    The per-event reference is the golden, so it is never in this list;
    an unavailable numba is excluded rather than exercised through the
    (warning, numpy-identical) fallback, which would test numpy twice.
    """
    from .kernels import available_kernels

    caps = available_kernels()["kernels"]
    return tuple(n for n in ("numpy", "numba") if caps[n]["available"])


def random_kernel_case(seed: int, max_plane: int = 8) -> FuzzCase:
    """Draw an adversarial scenario for the kernel parity matrix.

    Unlike :func:`random_case` (constrained to the saturation-free
    regime where the dense golden is provably equivalent), the kernel
    matrix compares against the per-event reference — which is the spec
    even when membranes clip — so the boundary conditions the compiled
    kernels could plausibly get wrong are provoked on purpose, rotating
    through five flavours:

    * forced mid-step saturation — full-rail ±7 weights on fully
      populated steps (the dtype-overflow suspect);
    * zero-event steps — long idle gaps between bursts (TLU catch-up
      and the per-step fire scan with nothing to accumulate);
    * single-neuron slices — a one-output dense layer, the degenerate
      TDM range (off-by-one suspect at the ``neuron_lo/hi`` boundary);
    * a general draw via :func:`random_case` for broad coverage
      (depthwise pooling, strided conv, multi-pass TDM);
    * empty windows — a conv or depthwise layer whose stride exceeds
      its kernel, or whose output plane is cropped below its natural
      size, so some input coordinates have no fanout at all (the
      closed-form CSR's edge cases).
    """
    rng = np.random.default_rng(0x5EED0 + seed)
    flavor = seed % 5
    if flavor == 3:
        return random_case(seed, max_plane=max_plane)
    n_steps = int(rng.integers(2, 8))
    if flavor == 0:
        # Forced mid-step saturation: every step fully populated, rails
        # reachable in one step.  A huge threshold sometimes suppresses
        # firing entirely so state parks on the rails across steps.
        side = int(rng.integers(1, 3))
        c_in = int(rng.integers(1, 3))
        c_out = int(rng.integers(2, 40))
        g = LayerGeometry(LayerKind.DENSE, c_in, side, side, c_out, 1, 1)
        weights = rng.integers(-7, 8, (c_out, g.n_inputs))
        threshold = int(rng.choice([1, 5, 10_000]))
        dense = np.ones((n_steps, c_in, side, side), dtype=np.uint8)
    elif flavor == 1:
        # Zero-event steps: bursts only at the stream's edges, so the
        # kernels cross an idle gap the TLU collapses in one hop while
        # the fire scan still runs every timestep.
        side = int(rng.integers(2, max_plane))
        c_in = int(rng.integers(1, 3))
        c_out = int(rng.integers(1, 9))
        g = LayerGeometry(LayerKind.DENSE, c_in, side, side, c_out, 1, 1)
        weights = rng.integers(-4, 5, (c_out, g.n_inputs))
        threshold = int(rng.integers(1, 8))
        n_steps = int(rng.integers(5, 12))
        dense = np.zeros((n_steps, c_in, side, side), dtype=np.uint8)
        burst = (rng.random((c_in, side, side)) < 0.5).astype(np.uint8)
        dense[0] = burst
        dense[-1] = 1 - burst
    elif flavor == 4:
        # Empty windows: residues (y + padding) % stride >= kernel reach
        # no output; on a stride-1 plane cropped to at most
        # h + padding - kernel rows the last input row reaches none.
        kind = rng.choice([LayerKind.CONV, LayerKind.DEPTHWISE])
        kernel = int(rng.integers(1, 3))
        c_in = int(rng.integers(1, 3))
        side = int(rng.integers(kernel + 2, max_plane + 1))
        if rng.random() < 0.5:
            stride = int(rng.integers(kernel + 1, kernel + 3))
            padding = int(rng.integers(0, kernel + 1))
            h_out = w_out = (side + 2 * padding - kernel) // stride + 1
        else:
            stride, padding = 1, int(rng.integers(0, kernel))
            h_out = int(rng.integers(1, side + padding - kernel + 1))
            w_out = int(rng.integers(1, side + 2 * padding - kernel + 2))
        c_out = c_in if kind == LayerKind.DEPTHWISE else int(rng.integers(1, 5))
        g = LayerGeometry(kind, c_in, side, side, c_out, h_out, w_out,
                          kernel, stride, padding)
        shape = (c_in,) if kind == LayerKind.DEPTHWISE else (c_out, c_in)
        weights = rng.integers(-4, 5, shape + (kernel, kernel))
        threshold = int(rng.integers(1, 8))
        dense = (rng.random((n_steps, c_in, side, side)) < 0.4).astype(np.uint8)
    else:
        # Single-neuron slice: one output neuron total, so every kernel
        # runs with the degenerate [lo, lo+1) TDM range.
        side = int(rng.integers(1, max_plane))
        c_in = int(rng.integers(1, 3))
        g = LayerGeometry(LayerKind.DENSE, c_in, side, side, 1, 1, 1)
        weights = rng.integers(-7, 8, (1, g.n_inputs))
        threshold = int(rng.integers(1, 6))
        dense = (rng.random((n_steps, c_in, side, side)) < 0.4).astype(np.uint8)
    program = LayerProgram(g, weights, threshold=threshold,
                           leak=int(rng.integers(0, 3)))
    return FuzzCase(
        program=program,
        stream=EventStream.from_dense(dense),
        n_slices=int(rng.choice([1, 2, 8])),
        seed=seed,
    )


def run_kernel_case(case: FuzzCase, kernels=None) -> KernelFuzzResult:
    """Run one case through every kernel; the per-event reference is golden.

    Each kernel's outputs, statistics (as plain dicts) and per-slice
    membrane snapshots are diffed against the reference run; every
    divergent field is recorded as ``"<kernel>: <field>"``.
    """
    import dataclasses

    names = tuple(kernels) if kernels is not None else matrix_kernels()
    cfg = SNEConfig(n_slices=case.n_slices)
    sne_ref = SNE(cfg)
    out_ref, stats_ref = sne_ref.run_layer(case.program, case.stream,
                                           kernel="reference")
    ref_stats = dataclasses.asdict(stats_ref)
    ref_membranes = [sl.membrane_snapshot() for sl in sne_ref.slices]
    mismatches: list[str] = []
    for name in names:
        sne_k = SNE(cfg)
        out_k, stats_k = sne_k.run_layer(case.program, case.stream, kernel=name)
        if out_k != out_ref:
            mismatches.append(f"{name}: outputs")
        if dataclasses.asdict(stats_k) != ref_stats:
            mismatches.append(f"{name}: stats")
        if any(not np.array_equal(sl.membrane_snapshot(), m)
               for sl, m in zip(sne_k.slices, ref_membranes)):
            mismatches.append(f"{name}: membranes")
    return KernelFuzzResult(case=case, kernels=names,
                            matched=not mismatches,
                            mismatches=tuple(mismatches))


def fuzz_kernels(n_cases: int, seed0: int = 0, kernels=None) -> list[KernelFuzzResult]:
    """Run ``n_cases`` kernel-matrix scenarios; every result returned."""
    if n_cases < 1:
        raise ValueError("n_cases must be positive")
    names = tuple(kernels) if kernels is not None else matrix_kernels()
    return [run_kernel_case(random_kernel_case(seed0 + i), kernels=names)
            for i in range(n_cases)]


def main(argv: list[str]) -> int:
    if "--kernels" in argv:
        argv = [a for a in argv if a != "--kernels"]
        n = int(argv[0]) if argv else 100
        results = fuzz_kernels(n)
        failures = [r for r in results if not r.matched]
        names = results[0].kernels if results else ()
        print(f"{len(results)} kernel cases over {{{', '.join(names)}}}: "
              f"{len(results) - len(failures)} matched, "
              f"{len(failures)} mismatched")
        for r in failures:
            print(f"  MISMATCH seed={r.case.seed}: {'; '.join(r.mismatches)}")
        return 1 if failures else 0
    n = int(argv[0]) if argv else 100
    results = fuzz(n)
    failures = [r for r in results if not r.matched]
    skipped = sum(r.skipped_saturation for r in results)
    print(f"{len(results)} cases: {len(results) - len(failures)} matched, "
          f"{len(failures)} mismatched, {skipped} skipped (saturation)")
    for r in failures:
        print(f"  MISMATCH seed={r.case.seed}: hw={r.hw_events} gold={r.golden_events}")
    return 1 if failures else 0


if __name__ == "__main__":
    import sys

    raise SystemExit(main(sys.argv[1:]))
