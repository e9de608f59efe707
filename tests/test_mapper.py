"""Tests for layer geometry, receptive-field arithmetic and compilation."""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import (
    LayerGeometry,
    LayerKind,
    LayerProgram,
    SNEConfig,
    compile_layer,
    compile_network,
    fanout_table,
)
from repro.hw import mapper as mapper_mod
from repro.snn import build_small_network, EConv2d, EDense, ESumPool2d, SRMDynamics


def conv_geometry(**kwargs):
    base = dict(
        kind=LayerKind.CONV,
        in_channels=2, in_height=8, in_width=8,
        out_channels=3, out_height=8, out_width=8,
        kernel=3, stride=1, padding=1,
    )
    base.update(kwargs)
    return LayerGeometry(**base)


def brute_force_affected(geometry, ch, x, y, weights):
    """Reference implementation: scan every output neuron."""
    hits = []
    g = geometry
    if g.kind == LayerKind.DENSE:
        flat = (ch * g.in_height + y) * g.in_width + x
        return sorted((o, int(weights[o, flat])) for o in range(g.out_channels))
    for o in range(g.out_channels):
        if g.kind == LayerKind.DEPTHWISE and o != ch:
            continue
        for i in range(g.out_height):
            for j in range(g.out_width):
                ki = y + g.padding - i * g.stride
                kj = x + g.padding - j * g.stride
                if 0 <= ki < g.kernel and 0 <= kj < g.kernel:
                    w = (
                        weights[o, ch, ki, kj]
                        if g.kind == LayerKind.CONV
                        else weights[ch, ki, kj]
                    )
                    hits.append(
                        (o * g.out_height * g.out_width + i * g.out_width + j, int(w))
                    )
    return sorted(hits)


class TestLayerGeometry:
    def test_rejects_depthwise_channel_change(self):
        with pytest.raises(ValueError, match="depthwise"):
            conv_geometry(kind=LayerKind.DEPTHWISE, out_channels=5)

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            conv_geometry(in_channels=0)

    def test_counts(self):
        g = conv_geometry()
        assert g.n_outputs == 3 * 8 * 8
        assert g.n_inputs == 2 * 8 * 8

    def test_affected_outputs_center_event_3x3(self):
        g = conv_geometry(out_channels=1)
        w = np.arange(18).reshape(1, 2, 3, 3)
        idx, weights = g.affected_outputs(ch=0, x=4, y=4, weights=w)
        assert idx.size == 9  # full 3x3 receptive field, one channel

    def test_affected_outputs_corner_event(self):
        g = conv_geometry(out_channels=1)
        w = np.ones((1, 2, 3, 3))
        idx, _ = g.affected_outputs(ch=0, x=0, y=0, weights=w)
        assert idx.size == 4  # clipped by the border (padding 1)

    def test_rejects_event_outside_plane(self):
        g = conv_geometry()
        with pytest.raises(ValueError, match="outside"):
            g.affected_outputs(ch=0, x=8, y=0, weights=np.ones((3, 2, 3, 3)))

    def test_dense_touches_every_output(self):
        g = LayerGeometry(LayerKind.DENSE, 2, 3, 3, 7, 1, 1)
        w = np.arange(7 * 18).reshape(7, 18)
        idx, weights = g.affected_outputs(ch=1, x=2, y=0, weights=w)
        assert np.array_equal(idx, np.arange(7))
        flat = (1 * 3 + 0) * 3 + 2
        assert np.array_equal(weights, w[:, flat])

    def test_depthwise_touches_single_channel(self):
        g = LayerGeometry(
            LayerKind.DEPTHWISE, 3, 4, 4, 3, 2, 2, kernel=2, stride=2, padding=0
        )
        w = np.ones((3, 2, 2))
        idx, _ = g.affected_outputs(ch=2, x=1, y=1, weights=w)
        plane = 2 * 2
        assert np.array_equal(idx, [2 * plane + 0])  # pooled into (0, 0) of ch 2

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_affected_outputs_matches_brute_force(self, data):
        kind = data.draw(st.sampled_from(list(LayerKind)))
        k = data.draw(st.integers(1, 3))
        stride = data.draw(st.integers(1, 2))
        pad = data.draw(st.integers(0, k - 1))
        c_in = data.draw(st.integers(1, 3))
        h = data.draw(st.integers(k, 6))
        w_dim = data.draw(st.integers(k, 6))
        if kind == LayerKind.DENSE:
            c_out, h_out, w_out, k, stride, pad = data.draw(st.integers(1, 5)), 1, 1, 1, 1, 0
        else:
            c_out = c_in if kind == LayerKind.DEPTHWISE else data.draw(st.integers(1, 3))
            h_out = (h + 2 * pad - k) // stride + 1
            w_out = (w_dim + 2 * pad - k) // stride + 1
        g = LayerGeometry(kind, c_in, h, w_dim, c_out, h_out, w_out, k, stride, pad)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        if kind == LayerKind.CONV:
            weights = rng.integers(-8, 8, (c_out, c_in, k, k))
        elif kind == LayerKind.DEPTHWISE:
            weights = rng.integers(-8, 8, (c_in, k, k))
        else:
            weights = rng.integers(-8, 8, (c_out, g.n_inputs))
        ch = data.draw(st.integers(0, c_in - 1))
        x = data.draw(st.integers(0, w_dim - 1))
        y = data.draw(st.integers(0, h - 1))
        idx, wout = g.affected_outputs(ch, x, y, weights)
        got = sorted(zip(idx.tolist(), [int(v) for v in wout]))
        assert got == brute_force_affected(g, ch, x, y, weights)


@st.composite
def fanout_programs(draw):
    """Any layer kind, with strides past the kernel, padding up to the
    kernel and output planes cropped below their natural size, so some
    input coordinates have an empty fanout."""
    kind = draw(st.sampled_from(list(LayerKind)))
    c_in = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if kind == LayerKind.DENSE:
        h, w_dim = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        g = LayerGeometry(kind, c_in, h, w_dim, draw(st.integers(1, 6)), 1, 1)
        return LayerProgram(g, rng.integers(-8, 8, (g.out_channels, g.n_inputs)),
                            threshold=1, leak=0)
    k = draw(st.integers(1, 4))
    stride = draw(st.integers(1, 5))
    pad = draw(st.integers(0, k))
    h = draw(st.integers(max(1, k - 2 * pad), 7))
    w_dim = draw(st.integers(max(1, k - 2 * pad), 7))
    h_out = draw(st.integers(1, (h + 2 * pad - k) // stride + 1))
    w_out = draw(st.integers(1, (w_dim + 2 * pad - k) // stride + 1))
    if kind == LayerKind.DEPTHWISE:
        c_out, shape = c_in, (c_in, k, k)
    else:
        c_out = draw(st.integers(1, 3))
        shape = (c_out, c_in, k, k)
    g = LayerGeometry(kind, c_in, h, w_dim, c_out, h_out, w_out, k, stride, pad)
    return LayerProgram(g, rng.integers(-8, 8, shape), threshold=1, leak=0)


class TestFanoutTable:
    @given(fanout_programs())
    @settings(max_examples=150, deadline=None)
    def test_packed_matches_affected_outputs(self, program):
        """The closed-form CSR is ``affected_outputs``, coordinate by
        coordinate, in order and dtype (the per-event path's oracle)."""
        g = program.geometry
        packed = mapper_mod.FanoutTable(program).packed()
        for arr in (packed.offsets, packed.idx, packed.w):
            assert arr.dtype == np.int64
        assert packed.offsets.shape == (g.n_inputs + 1,)
        assert packed.offsets[0] == 0 and packed.offsets[-1] == packed.idx.size
        for f in range(g.n_inputs):
            ch, rem = divmod(f, g.in_height * g.in_width)
            y, x = divmod(rem, g.in_width)
            idx, w = g.affected_outputs(ch, x, y, program.weights)
            lo, hi = packed.offsets[f], packed.offsets[f + 1]
            assert np.array_equal(packed.idx[lo:hi], idx)
            assert np.array_equal(packed.w[lo:hi], w)
            assert idx.dtype == np.int64 and w.dtype == np.int64

    def test_empty_fanouts_are_packed_as_empty_rows(self):
        # stride 3 > kernel 1: only every third row/column reaches an output
        g = LayerGeometry(LayerKind.CONV, 1, 6, 6, 2, 2, 2, kernel=1, stride=3)
        packed = fanout_table(
            LayerProgram(g, np.full((2, 1, 1, 1), 5), threshold=1, leak=0)
        ).packed()
        sizes = np.diff(packed.offsets).reshape(6, 6)
        expected = np.zeros((6, 6), dtype=np.int64)
        expected[::3, ::3] = 2
        assert np.array_equal(sizes, expected)

    def test_build_never_calls_affected_outputs(self, monkeypatch):
        """Guard: the build is one vectorised pass, never the
        per-coordinate loop over ``affected_outputs``."""
        monkeypatch.setattr(mapper_mod, "_FANOUTS", OrderedDict())

        def boom(*args, **kwargs):
            raise AssertionError("fanout build called affected_outputs")

        monkeypatch.setattr(LayerGeometry, "affected_outputs", boom)
        conv = LayerProgram(conv_geometry(), np.ones((3, 2, 3, 3)), threshold=1, leak=0)
        depthwise = LayerProgram(
            conv_geometry(kind=LayerKind.DEPTHWISE, out_channels=2,
                          out_height=4, out_width=4, kernel=2, stride=2, padding=0),
            np.ones((2, 2, 2)), threshold=1, leak=0,
        )
        for program in (conv, depthwise):
            packed = fanout_table(program).packed()
            assert packed.offsets[-1] == packed.idx.size > 0


class TestLayerProgram:
    def test_weight_shape_validation(self):
        g = conv_geometry()
        with pytest.raises(ValueError, match="weight shape"):
            LayerProgram(g, np.ones((3, 2, 3)), threshold=1, leak=0)

    def test_parameter_validation(self):
        g = conv_geometry()
        w = np.ones((3, 2, 3, 3), dtype=int)
        with pytest.raises(ValueError):
            LayerProgram(g, w, threshold=0, leak=0)
        with pytest.raises(ValueError):
            LayerProgram(g, w, threshold=1, leak=-1)

    def test_validate_for_checks_weight_width(self):
        g = conv_geometry()
        program = LayerProgram(g, np.full((3, 2, 3, 3), 9), threshold=1, leak=0)
        with pytest.raises(ValueError, match="range"):
            program.validate_for(SNEConfig())

    def test_validate_for_checks_filter_buffer(self):
        g = LayerGeometry(LayerKind.CONV, 300, 4, 4, 1, 2, 2, kernel=3)
        program = LayerProgram(g, np.ones((1, 300, 3, 3), dtype=int), threshold=1, leak=0)
        with pytest.raises(ValueError, match="filter buffer"):
            program.validate_for(SNEConfig())

    def test_pass_count_and_ranges(self):
        cfg = SNEConfig(n_slices=1)  # 1024 neurons available
        g = LayerGeometry(LayerKind.DENSE, 1, 1, 2500, 2500, 1, 1)
        program = LayerProgram(g, np.ones((2500, 2500), dtype=int), threshold=1, leak=0)
        assert program.n_passes(cfg) == 3
        assert program.pass_neuron_range(cfg, 0) == (0, 1024)
        assert program.pass_neuron_range(cfg, 2) == (2048, 2500)
        with pytest.raises(ValueError, match="pass index"):
            program.pass_neuron_range(cfg, 3)


class TestCompilation:
    def test_compile_conv(self):
        layer = EConv2d(2, 4, kernel=3, padding=1)
        program = compile_layer(layer, (2, 8, 8))
        assert program.geometry.kind == LayerKind.CONV
        assert program.weights.shape == (4, 2, 3, 3)
        assert program.weights.max() <= 7 and program.weights.min() >= -8
        assert program.threshold >= 1

    def test_compile_pool(self):
        layer = ESumPool2d(2, pool_weight=0.5)
        program = compile_layer(layer, (4, 8, 8))
        assert program.geometry.kind == LayerKind.DEPTHWISE
        assert np.all(program.weights == 1)
        assert program.scale == 0.5
        assert program.threshold == 2  # 1.0 / 0.5

    def test_compile_pool_rejects_non_tiling(self):
        with pytest.raises(ValueError, match="tile"):
            compile_layer(ESumPool2d(3), (2, 8, 8))

    def test_compile_dense(self):
        layer = EDense(32, 10)
        program = compile_layer(layer, (2, 4, 4))
        assert program.geometry.kind == LayerKind.DENSE
        assert program.weights.shape == (10, 32)

    def test_compile_dense_validates_feature_count(self):
        with pytest.raises(ValueError, match="inputs"):
            compile_layer(EDense(33, 10), (2, 4, 4))

    def test_compile_rejects_srm_layers(self):
        layer = EConv2d(2, 4, dynamics=SRMDynamics())
        with pytest.raises(TypeError, match="LIF"):
            compile_layer(layer, (2, 8, 8))

    def test_compile_network_chains_shapes(self):
        net = build_small_network(input_size=8, channels=4, hidden=16, n_classes=5)
        programs = compile_network(net, (2, 8, 8))
        # conv, pool, dense, dense (flatten disappears)
        assert len(programs) == 4
        assert programs[0].geometry.out_channels == 4
        assert programs[-1].geometry.out_channels == 5
        assert programs[2].geometry.n_inputs == 4 * 4 * 4
