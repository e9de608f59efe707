"""Mapping eCNN layers onto SNE: geometry, programs, placement.

This is the deployment flow the paper exercises through Listing 1: the
software loops over output-channel groups, reprograms the filter buffer,
and replays the input event stream; the hardware loops over time and
events.  A :class:`LayerProgram` captures everything one such hardware
run needs — integer weights, LIF parameters, the layer geometry that the
address filter/shift logic implements, and the placement of output
neurons onto clusters.

Placement uses channel-major linear neuron indices in blocks of 64 per
cluster.  The RTL maps spatial tiles per cluster and shifts the base
address (§III-D.4); blocked placement touches the same number of
neurons per event and therefore produces identical SOP/cycle/energy
accounting, which is what the reproduction measures.
"""

from __future__ import annotations

import enum
import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..snn.layers import EConv2d, EDense, EFlatten, ESumPool2d
from ..snn.network import Sequential
from ..snn.neurons import LIFDynamics
from ..snn.quantize import QuantSpec, export_layer_quant
from .config import SNEConfig
from .kernels.numpy_impl import assemble
from .lif_datapath import check_weight_range

__all__ = [
    "LayerKind",
    "LayerGeometry",
    "LayerProgram",
    "FanoutTable",
    "PackedFanout",
    "fanout_table",
    "program_content_hash",
    "compile_layer",
    "compile_network",
]


class LayerKind(enum.Enum):
    CONV = "conv"
    DEPTHWISE = "depthwise"  # pooling = depthwise conv with a constant kernel
    DENSE = "dense"


@dataclass(frozen=True)
class LayerGeometry:
    """Shapes and receptive-field parameters of one mapped layer."""

    kind: LayerKind
    in_channels: int
    in_height: int
    in_width: int
    out_channels: int
    out_height: int
    out_width: int
    kernel: int = 1
    stride: int = 1
    padding: int = 0

    def __post_init__(self) -> None:
        for name in (
            "in_channels", "in_height", "in_width",
            "out_channels", "out_height", "out_width", "kernel", "stride",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.padding < 0:
            raise ValueError("padding must be non-negative")
        if self.kind == LayerKind.DEPTHWISE and self.in_channels != self.out_channels:
            raise ValueError("depthwise layers preserve the channel count")

    @property
    def n_outputs(self) -> int:
        return self.out_channels * self.out_height * self.out_width

    @property
    def n_inputs(self) -> int:
        return self.in_channels * self.in_height * self.in_width

    def input_shape(self, n_steps: int) -> tuple[int, int, int, int]:
        return (n_steps, self.in_channels, self.in_height, self.in_width)

    def output_shape(self, n_steps: int) -> tuple[int, int, int, int]:
        return (n_steps, self.out_channels, self.out_height, self.out_width)

    # -- receptive-field arithmetic -----------------------------------------
    def _window(self, coord: int, out_size: int) -> tuple[int, int]:
        """Output index interval [lo, hi] covered by one input coordinate."""
        lo = math.ceil((coord + self.padding - self.kernel + 1) / self.stride)
        hi = math.floor((coord + self.padding) / self.stride)
        return max(lo, 0), min(hi, out_size - 1)

    def affected_outputs(
        self, ch: int, x: int, y: int, weights: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Neurons touched by one input event, with their synaptic weights.

        Returns ``(neuron_linear_idx, weight)`` arrays.  Linear indices
        are channel-major: ``o * (H_o * W_o) + i * W_o + j``.
        """
        if not (0 <= ch < self.in_channels and 0 <= x < self.in_width and 0 <= y < self.in_height):
            raise ValueError(f"event ({ch}, {x}, {y}) outside the input plane")
        if self.kind == LayerKind.DENSE:
            flat = (ch * self.in_height + y) * self.in_width + x
            idx = np.arange(self.out_channels, dtype=np.int64)
            return idx, np.asarray(weights[:, flat], dtype=np.int64)

        i_lo, i_hi = self._window(y, self.out_height)
        j_lo, j_hi = self._window(x, self.out_width)
        if i_lo > i_hi or j_lo > j_hi:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        ii, jj = np.meshgrid(
            np.arange(i_lo, i_hi + 1), np.arange(j_lo, j_hi + 1), indexing="ij"
        )
        ii = ii.reshape(-1)
        jj = jj.reshape(-1)
        ki = y + self.padding - ii * self.stride
        kj = x + self.padding - jj * self.stride
        plane = self.out_height * self.out_width
        pos = ii * self.out_width + jj
        if self.kind == LayerKind.DEPTHWISE:
            idx = ch * plane + pos
            return idx.astype(np.int64), np.asarray(weights[ch, ki, kj], dtype=np.int64)
        # CONV: every output channel sees the event
        o = np.arange(self.out_channels, dtype=np.int64)[:, None]
        idx = (o * plane + pos[None, :]).reshape(-1)
        w = weights[:, ch, ki, kj].reshape(-1)
        return idx, np.asarray(w, dtype=np.int64)


@dataclass(frozen=True)
class LayerProgram:
    """Everything one SNE layer execution needs.

    ``weights`` shapes: CONV ``[C_out, C_in, k, k]``, DEPTHWISE
    ``[C, k, k]``, DENSE ``[F_out, F_in]`` — integer values in the
    configured weight width.  ``scale`` maps integer membrane units back
    to the float training domain (bookkeeping only; the hardware never
    sees it).
    """

    geometry: LayerGeometry
    weights: np.ndarray
    threshold: int
    leak: int
    scale: float = 1.0
    name: str = "layer"
    spiking: bool = True

    def __post_init__(self) -> None:
        expected = {
            LayerKind.CONV: (
                self.geometry.out_channels,
                self.geometry.in_channels,
                self.geometry.kernel,
                self.geometry.kernel,
            ),
            LayerKind.DEPTHWISE: (
                self.geometry.in_channels,
                self.geometry.kernel,
                self.geometry.kernel,
            ),
            LayerKind.DENSE: (self.geometry.out_channels, self.geometry.n_inputs),
        }[self.geometry.kind]
        if tuple(self.weights.shape) != expected:
            raise ValueError(
                f"weight shape {self.weights.shape} does not match geometry {expected}"
            )
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.leak < 0:
            raise ValueError("leak must be non-negative")

    def validate_for(self, config: SNEConfig) -> None:
        """Check weight width and filter-buffer capacity against a config."""
        check_weight_range(self.weights, config.weight_bits)
        if self.geometry.kind is not LayerKind.DENSE:
            if self.geometry.in_channels > config.n_filter_sets:
                raise ValueError(
                    f"{self.geometry.in_channels} input channels exceed the "
                    f"{config.n_filter_sets}-entry filter buffer"
                )

    # -- placement ---------------------------------------------------------
    def n_passes(self, config: SNEConfig) -> int:
        """Replays of the input stream needed when the layer overflows SNE.

        This is Listing 1's software loop: each pass maps a block of
        output neurons onto the available clusters and replays the
        events (time-multiplexed mode, §III-D.5).
        """
        neurons_available = config.total_neurons
        return -(-self.geometry.n_outputs // neurons_available)

    def pass_neuron_range(self, config: SNEConfig, pass_idx: int) -> tuple[int, int]:
        """Linear neuron interval [lo, hi) handled by one pass."""
        n_passes = self.n_passes(config)
        if not 0 <= pass_idx < n_passes:
            raise ValueError(f"pass index {pass_idx} out of range [0, {n_passes})")
        per_pass = config.total_neurons
        lo = pass_idx * per_pass
        return lo, min(lo + per_pass, self.geometry.n_outputs)


# ---------------------------------------------------------------------------
# Event fanout lookup (the vectorised event loop's geometry cache)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PackedFanout:
    """CSR form of a layer's complete event fanout.

    ``offsets[f]:offsets[f+1]`` delimits input coordinate ``f``'s fanout
    inside the flat ``idx``/``w`` int64 arrays.  This is the
    representation the compiled kernels (:mod:`repro.hw.kernels`) gather
    from — one contiguous lookup instead of a Python loop over
    coordinates.  :class:`FanoutTable` builds it in closed form from the
    layer geometry; each slice equals
    :meth:`LayerGeometry.affected_outputs` of its coordinate, in order
    and dtype (checked by property test in ``tests/test_mapper.py``), so
    kernel gathers stay bit-identical to the per-event path.
    """

    offsets: np.ndarray
    idx: np.ndarray
    w: np.ndarray


def _axis_taps(
    geometry: LayerGeometry, n_in: int, n_out: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis receptive-field table: ``(out_index, valid)``, both ``[n_in, kernel]``.

    Column ``t`` is kernel tap ``kernel - 1 - t``; descending taps make
    the output index ascend along a row, the order
    :meth:`LayerGeometry.affected_outputs` enumerates its window in.
    ``valid`` masks taps the stride skips or that land off the output
    plane.
    """
    k, s = geometry.kernel, geometry.stride
    taps = np.arange(k - 1, -1, -1)
    num = np.arange(n_in, dtype=np.int64)[:, None] + geometry.padding - taps
    out = num // s
    return out, (num >= 0) & (num % s == 0) & (out < n_out)


class FanoutTable:
    """The whole-plane :meth:`LayerGeometry.affected_outputs` lookup of one program.

    The per-event path recomputes the receptive-field arithmetic for
    every event; a run replays the same few thousand input coordinates
    thousands of times, so the vectorised event loop resolves whole
    timesteps through this table's :class:`PackedFanout` instead.  It
    is built once, in one vectorised pass: conv/depthwise fanouts from
    :func:`_axis_taps` broadcast over ``[c_in, y, x, (c_out), tap_i,
    tap_j]``, dense fanouts from the weight matrix, each compressed by
    one validity mask whose row-major order is ``affected_outputs``'
    order (channel-major, window row-major within a channel).
    """

    def __init__(self, program: LayerProgram) -> None:
        g = program.geometry
        self._geometry = g
        # The boolean compress below copies, so a built table never sees
        # later in-place mutations of the program's weights (the
        # stale-fanout bug the content-hash keying fixes).
        weights = np.asarray(program.weights, dtype=np.int64)
        if g.kind is LayerKind.DENSE:
            # [c_in, y, x, c_out]: every coordinate reaches every output.
            idx = np.arange(g.out_channels, dtype=np.int64)
            w = weights.T.reshape(g.in_channels, g.in_height, g.in_width, -1)
            mask = np.ones(1, dtype=bool)
        else:
            oi, vi = _axis_taps(g, g.in_height, g.out_height)
            oj, vj = _axis_taps(g, g.in_width, g.out_width)
            # [y, x, tap_i, tap_j]
            pos = (oi * g.out_width)[:, None, :, None] + oj[None, :, None, :]
            mask = vi[:, None, :, None] & vj[None, :, None, :]
            base = np.arange(g.out_channels, dtype=np.int64) * (g.out_height * g.out_width)
            taps = weights[..., ::-1, ::-1]
            if g.kind is LayerKind.DEPTHWISE:  # [c, y, x, tap_i, tap_j]
                idx = base[:, None, None, None, None] + pos
                w = taps[:, None, None]
            else:  # CONV: [c_in, y, x, c_out, tap_i, tap_j]
                idx = base[:, None, None] + pos[:, :, None]
                w = taps.transpose(1, 0, 2, 3)[:, None, None]
                mask = mask[:, :, None]
        shape = np.broadcast_shapes(idx.shape, w.shape, mask.shape)
        mask = np.broadcast_to(mask, shape)
        offsets = np.zeros(g.n_inputs + 1, dtype=np.int64)
        np.cumsum(mask.reshape(g.n_inputs, -1).sum(axis=1), out=offsets[1:])
        self._packed = PackedFanout(
            offsets,
            np.broadcast_to(idx, shape)[mask],
            np.broadcast_to(w, shape)[mask],
        )

    def flat_ids(self, ch: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Linear input-coordinate ids, validated against the input plane."""
        g = self._geometry
        ch = np.asarray(ch, dtype=np.int64)
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        bad = (
            (ch < 0) | (ch >= g.in_channels)
            | (x < 0) | (x >= g.in_width)
            | (y < 0) | (y >= g.in_height)
        )
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"event ({int(ch[k])}, {int(x[k])}, {int(y[k])}) outside the input plane"
            )
        return (ch * g.in_height + y) * g.in_width + x

    def gather(
        self, ch: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fanout of a batch of events, concatenated in event order.

        Returns ``(neuron_idx, weights, event_idx)`` int64 arrays: the
        linear output neurons touched by each event, their synaptic
        weights, and the position of the owning event within the batch —
        :func:`repro.hw.kernels.numpy_impl.assemble` over :meth:`packed`.
        """
        p = self._packed
        return assemble(p.offsets, p.idx, p.w, self.flat_ids(ch, x, y))

    def packed(self) -> PackedFanout:
        """The whole input plane's fanout in CSR form."""
        return self._packed


def program_content_hash(program: LayerProgram) -> str:
    """Stable digest of everything a :class:`FanoutTable` depends on.

    Geometry, weight values (shape + bytes) and the LIF parameters.
    Two programs with equal content hash to the same key even when they
    are distinct objects (repeated ``run_network`` invocations, the
    pipelined path, jobs unpickled per worker), and an in-place
    ``weights`` mutation *changes* the key — the stale-table bug the
    old ``id(program)`` keying could not see.
    """
    g = program.geometry
    h = hashlib.sha256()
    h.update(
        repr(
            (
                g.kind.value, g.in_channels, g.in_height, g.in_width,
                g.out_channels, g.out_height, g.out_width,
                g.kernel, g.stride, g.padding,
                int(program.threshold), int(program.leak), bool(program.spiking),
            )
        ).encode()
    )
    w = np.ascontiguousarray(np.asarray(program.weights, dtype=np.int64))
    h.update(repr(w.shape).encode())
    h.update(w.tobytes())
    return h.hexdigest()


#: content hash -> FanoutTable, LRU-bounded.  Content keying (not
#: ``id(program)``) means repeated runs, the pipelined path and
#: per-worker unpickled copies of one program share a single table, and
#: mutating a program's weights in place can never serve a stale one.
_FANOUTS: "OrderedDict[str, FanoutTable]" = OrderedDict()
_FANOUT_CACHE_CAP = 128


def fanout_table(program: LayerProgram) -> FanoutTable:
    """The (cached) :class:`FanoutTable` of ``program``.

    Tables are keyed by :func:`program_content_hash` and shared across
    slices, passes, repeated runs and content-equal program copies; the
    memo holds the most recently used ``_FANOUT_CACHE_CAP`` tables.
    They are kept out of the program itself so job payloads pickle
    without dragging the cache across process boundaries.
    """
    key = program_content_hash(program)
    table = _FANOUTS.get(key)
    if table is None:
        table = FanoutTable(program)
        _FANOUTS[key] = table
        while len(_FANOUTS) > _FANOUT_CACHE_CAP:
            _FANOUTS.popitem(last=False)
    else:
        _FANOUTS.move_to_end(key)
    return table


# ---------------------------------------------------------------------------
# Compilation from trained layers
# ---------------------------------------------------------------------------

def _lif_of(layer) -> LIFDynamics:
    if not isinstance(layer.dynamics, LIFDynamics):
        raise TypeError(
            "only LIF layers deploy on SNE; SRM baselines run in software "
            f"(got {type(layer.dynamics).__name__})"
        )
    return layer.dynamics


def compile_layer(
    layer,
    in_shape: tuple[int, int, int],
    config: SNEConfig | None = None,
    name: str = "layer",
) -> LayerProgram:
    """Quantise one trained layer into a :class:`LayerProgram`.

    ``in_shape`` is ``(channels, height, width)`` of the layer's input.
    Convolution and dense layers use their trained weights (4-bit
    max-abs quantisation); pooling maps to a depthwise all-ones kernel.
    """
    config = config or SNEConfig()
    c_in, h_in, w_in = in_shape
    spec = QuantSpec(bits=config.weight_bits)

    if isinstance(layer, EConv2d):
        dyn = _lif_of(layer)
        h_out = (h_in + 2 * layer.padding - layer.kernel) // layer.stride + 1
        w_out = (w_in + 2 * layer.padding - layer.kernel) // layer.stride + 1
        geometry = LayerGeometry(
            LayerKind.CONV, c_in, h_in, w_in, layer.out_channels, h_out, w_out,
            kernel=layer.kernel, stride=layer.stride, padding=layer.padding,
        )
        q = export_layer_quant(
            layer.weight.value, dyn.params.threshold, dyn.params.leak,
            spec=spec, state_bits=config.state_bits,
        )
        weights = q["weights_int"].reshape(
            layer.out_channels, c_in, layer.kernel, layer.kernel
        )
        program = LayerProgram(
            geometry, weights, q["threshold_int"], q["leak_int"], q["scale"], name=name
        )
    elif isinstance(layer, ESumPool2d):
        dyn = _lif_of(layer)
        k = layer.kernel
        if h_in % k or w_in % k:
            raise ValueError(f"plane {h_in}x{w_in} does not tile by pool kernel {k}")
        geometry = LayerGeometry(
            LayerKind.DEPTHWISE, c_in, h_in, w_in, c_in, h_in // k, w_in // k,
            kernel=k, stride=k, padding=0,
        )
        # Pooling kernel: constant weight 1 on the integer grid; the float
        # pool weight becomes the scale, thresholds rescale accordingly.
        scale = layer.pool_weight
        if scale <= 0:
            raise ValueError("pool_weight must be positive to map onto SNE")
        weights = np.ones((c_in, k, k), dtype=np.int64)
        threshold = max(1, int(round(dyn.params.threshold / scale)))
        leak = int(round(dyn.params.leak / scale))
        program = LayerProgram(geometry, weights, threshold, leak, scale, name=name)
    elif isinstance(layer, EDense):
        dyn = _lif_of(layer)
        n_in = c_in * h_in * w_in
        if layer.in_features != n_in:
            raise ValueError(
                f"dense layer expects {layer.in_features} inputs, got plane {in_shape}"
            )
        geometry = LayerGeometry(
            LayerKind.DENSE, c_in, h_in, w_in, layer.out_features, 1, 1
        )
        q = export_layer_quant(
            layer.weight.value, dyn.params.threshold, dyn.params.leak,
            spec=spec, state_bits=config.state_bits,
        )
        program = LayerProgram(
            geometry, q["weights_int"], q["threshold_int"], q["leak_int"],
            q["scale"], name=name,
        )
    else:
        raise TypeError(f"cannot compile layer type {type(layer).__name__}")

    program.validate_for(config)
    return program


def compile_network(
    network: Sequential,
    input_shape: tuple[int, int, int],
    config: SNEConfig | None = None,
) -> list[LayerProgram]:
    """Compile a trained Sequential eCNN into per-layer SNE programs.

    ``EFlatten`` disappears (dense geometry subsumes it); everything
    else maps one-to-one.  Output planes chain automatically.
    """
    config = config or SNEConfig()
    programs: list[LayerProgram] = []
    shape = input_shape
    for i, layer in enumerate(network.layers):
        if isinstance(layer, EFlatten):
            continue
        program = compile_layer(layer, shape, config, name=f"layer{i}")
        g = program.geometry
        shape = (g.out_channels, g.out_height, g.out_width)
        programs.append(program)
    return programs
