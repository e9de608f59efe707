"""SNE hardware configuration (paper §III-D, §IV).

The paper's reference design is 8 slices x 16 clusters x 64 TDM neurons
= 8192 neurons (Table II), clocked at 400 MHz, with 4-bit weights and
8-bit membrane state.  One UPDATE event occupies a slice for 48 clock
cycles (§III-D.5); at one neuron update per cluster per cycle this gives
the 51.2 GSOP/s peak of Fig. 5b.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..events.event import DEFAULT_FORMAT, EventFormat

__all__ = ["SNEConfig", "PAPER_CONFIG"]


@dataclass(frozen=True)
class SNEConfig:
    """Static parameters of one SNE instance.

    ``cycles_per_event`` is the fixed sequencer window per UPDATE event;
    ``cycles_per_fire`` the per-cluster TDM scan length of a FIRE event
    (one cycle per TDM neuron); ``cycles_per_reset`` the RST broadcast.
    """

    n_slices: int = 8
    clusters_per_slice: int = 16
    neurons_per_cluster: int = 64
    weight_bits: int = 4
    state_bits: int = 8
    cycles_per_event: int = 48
    cycles_per_fire: int = 64
    cycles_per_reset: int = 1
    freq_hz: float = 400e6
    n_dmas: int = 2
    dma_fifo_depth: int = 16
    cluster_fifo_depth: int = 8
    memory_latency: int = 2
    n_filter_sets: int = 256
    event_format: EventFormat = field(default=DEFAULT_FORMAT)

    def __post_init__(self) -> None:
        for name in (
            "n_slices",
            "clusters_per_slice",
            "neurons_per_cluster",
            "cycles_per_event",
            "freq_hz",
            "n_dmas",
            "dma_fifo_depth",
            "cluster_fifo_depth",
            "n_filter_sets",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.cycles_per_fire < 0 or self.cycles_per_reset < 0 or self.memory_latency < 0:
            raise ValueError(
                "cycles_per_fire, cycles_per_reset and memory_latency must be >= 0"
            )
        if not 2 <= self.weight_bits <= 8:
            raise ValueError("weight_bits must be in [2, 8]")
        if not 4 <= self.state_bits <= 32:
            raise ValueError("state_bits must be in [4, 32]")

    # -- derived quantities ------------------------------------------------
    @property
    def neurons_per_slice(self) -> int:
        return self.clusters_per_slice * self.neurons_per_cluster

    @property
    def total_neurons(self) -> int:
        """8192 in the paper's reference configuration (Table II)."""
        return self.n_slices * self.neurons_per_slice

    @property
    def total_clusters(self) -> int:
        return self.n_slices * self.clusters_per_slice

    @property
    def peak_sops_per_cycle(self) -> int:
        """One state update per cluster per cycle (double-buffered memories)."""
        return self.total_clusters

    @property
    def peak_sops_per_s(self) -> float:
        """51.2 GSOP/s at 8 slices / 400 MHz (Fig. 5b)."""
        return self.peak_sops_per_cycle * self.freq_hz

    @property
    def fire_slack(self) -> int:
        """Fired events one FIRE scan absorbs before it stalls.

        The collector drains one event per scan cycle and every cluster
        FIFO holds ``cluster_fifo_depth`` more.
        """
        return self.cycles_per_fire + self.cluster_fifo_depth * self.clusters_per_slice

    @property
    def event_time_s(self) -> float:
        """Wall-clock time to consume one event: 120 ns at 400 MHz (§IV-B)."""
        return self.cycles_per_event / self.freq_hz

    def with_slices(self, n_slices: int) -> "SNEConfig":
        """The same design scaled to a different slice count (Fig. 4/5 sweeps)."""
        from dataclasses import replace

        return replace(self, n_slices=n_slices)


#: The configuration every headline number of the paper refers to.
PAPER_CONFIG = SNEConfig()
