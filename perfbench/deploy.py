"""The shared deployment, sample pool and correctness checks.

Every workload runs the deployment ``repro eval`` / ``repro profile``
use by default: ``SyntheticDVSGesture(size=16, n_steps=12)`` into
``build_small_network(channels=6, hidden=32)`` compiled for ``(2, 16,
16)`` on ``PAPER_CONFIG.with_slices(8)`` with ``kernel="auto"``.
Samples come in two input-activity bands bracketing the paper's
DVS-Gesture range (1.2 % and 4.9 %).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import statistics

from repro.events.datasets import EventDataset, SyntheticDVSGesture
from repro.events.dvs import DVSConfig
from repro.hw.config import PAPER_CONFIG
from repro.hw.mapper import compile_network
from repro.hw.runner import HardwareEvaluator
from repro.runtime.jobs import execute_job
from repro.snn.topology import build_small_network

SIZE, STEPS, SLICES, N_CLASSES = 16, 12, 8, 11

#: Sensor settings of the two activity bands.  Measured over seeds
#: 0-4 at 44 samples a band: 1.20-1.23 % and 4.85-5.01 %.
BANDS = {
    "low": DVSConfig(contrast_threshold=0.6, background_rate=0.004),
    "high": DVSConfig(contrast_threshold=0.25, background_rate=0.069),
}

#: The statistics a host-only change must leave bit-identical.
STAT_KEYS = ("cycles", "sops", "energy_uj", "prediction")

#: The golden set, the same in every run whatever its seed: the first
#: 8 samples (4 a band) of the one-per-class pool of seed 0, on network
#: seed 999, which no workload of a seed below 1 reaches.  Its expected
#: per-sample digests are committed in ``golden.json``; rewrite that
#: file (:func:`write_golden`) only with a change meant to alter the
#: simulated statistics.
GOLDEN_SEED, GOLDEN_NET_SEED, GOLDEN_SAMPLES = 0, 999, 8
GOLDEN_FILE = pathlib.Path(__file__).with_name("golden.json")


def make_pool(seed: int, per_class: int = 4) -> list[tuple[str, object]]:
    """``(band, EventSample)`` pairs alternating low/high, seeded."""
    bands = {
        name: SyntheticDVSGesture(size=SIZE, n_steps=STEPS, dvs=dvs)
        .generate(n_per_class=per_class, seed=seed).samples
        for name, dvs in BANDS.items()
    }
    return [(band, bands[band][i])
            for i in range(len(bands["low"])) for band in ("low", "high")]


def band_activity(pool) -> dict[str, float]:
    """Mean input activity of each band in ``pool``."""
    return {band: statistics.fmean(s.activity for b, s in pool if b == band)
            for band in BANDS}


def build_evaluator(net_seed: int) -> HardwareEvaluator:
    """One deployment: a fresh network of seed ``net_seed``, compiled.

    Each workload draws network seeds from its own range (``seed*1000``
    plus 0, 300, 500 or 900), so none warms another's fanout tables.
    """
    net = build_small_network(input_size=SIZE, n_classes=N_CLASSES, channels=6,
                              hidden=32, seed=net_seed)
    programs = compile_network(net, (2, SIZE, SIZE))
    return HardwareEvaluator(programs, PAPER_CONFIG.with_slices(SLICES))


def build_jobs(evaluator: HardwareEvaluator, picks, profile: bool = False):
    """``sample_eval`` specs for ``picks`` (``(band, sample)`` pairs)."""
    data = EventDataset([s for _, s in picks], n_classes=N_CLASSES)
    return evaluator.sample_jobs(data, profile=profile)


def stats_of(value: dict) -> tuple:
    """The simulated statistics of one answered sample."""
    return tuple(value[k] for k in STAT_KEYS)


def digest(values) -> str:
    """Digest of the simulated statistics of answered ``values``."""
    h = hashlib.sha256()
    for value in values:
        h.update(json.dumps(stats_of(value)).encode())
    return h.hexdigest()[:16]


def plain(value: dict) -> dict:
    """A result value without the timing-only ``profile`` summary."""
    return {k: v for k, v in value.items() if k != "profile"}


def golden_digests() -> list[str]:
    """Per-sample statistics digests of the golden set, run serially."""
    picks = make_pool(GOLDEN_SEED, per_class=1)[:GOLDEN_SAMPLES]
    specs = build_jobs(build_evaluator(GOLDEN_NET_SEED), picks)
    return [digest([execute_job(spec)]) for spec in specs]


def write_golden() -> None:
    """Record the golden set's digests as the expected ones."""
    GOLDEN_FILE.write_text(json.dumps({"digests": golden_digests()}, indent=1) + "\n")


class Checker:
    """Checks answered values against serial in-process execution.

    Outside the timed region, every distinct answered spec is executed
    again with :func:`~repro.runtime.jobs.execute_job`; a seeded subset
    is also run on the per-event ``kernel="reference"`` path, and the
    golden set's statistics are compared with the committed digests.
    Each answer or golden sample that differs counts as one failure.
    """

    def __init__(self, seed: int, n_reference: int = 2) -> None:
        self.seed = seed
        self.n_reference = n_reference
        self._serial: dict[str, dict] = {}

    def serial(self, spec) -> dict:
        value = self._serial.get(spec.job_hash)
        if value is None:
            value = self._serial[spec.job_hash] = plain(execute_job(spec))
        return value

    def matches(self, spec, value) -> bool:
        """Whether ``value`` equals the serial result of ``spec`` (a
        ``None`` value is an unanswered or failed request)."""
        return value is not None and plain(value) == self.serial(spec)

    def reference_mismatches(self, specs) -> int:
        """Run a seeded subset of ``specs`` on the reference kernel."""
        distinct = list({s.job_hash: s for s in specs}.values())
        distinct.sort(key=lambda s: hashlib.sha256(
            f"{self.seed}:{s.job_hash}".encode()).hexdigest())
        bad = 0
        for spec in distinct[:self.n_reference]:
            p = spec.payload
            ev = HardwareEvaluator(p["programs"], p["config"], p["power"])
            ref = ev.run_sample(p["stream"], p["label"], kernel="reference")
            if dataclasses.asdict(ref) != self.serial(spec):
                bad += 1
        return bad

    def golden_mismatches(self, expected: list[str] | None = None) -> int:
        """Golden samples whose statistics digest differs from ``expected``
        (default: the committed ``golden.json``)."""
        if expected is None:
            expected = json.loads(GOLDEN_FILE.read_text())["digests"]
        actual = golden_digests()
        return (sum(a != e for a, e in zip(actual, expected))
                + abs(len(actual) - len(expected)))
