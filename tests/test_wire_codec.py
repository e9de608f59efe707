"""Spec-document codecs: ``json`` / ``events`` round trips.

The fleet-serving path (``BrokerDispatcher``) and the ``cluster``
backend both cross process boundaries through
:func:`repro.runtime.jobs.spec_to_doc` documents, so these tests pin
the wire contract down:

* every document carries an explicit ``codec`` field from
  :data:`repro.runtime.jobs.CODECS`;
* ``sample_eval`` payloads round-trip through the ``events`` codec
  **bit-identically** — same job hash, byte-equal weight and event
  arrays, identical execution results;
* a payload kind with no wire codec cannot be encoded at all;
* the dist chunk files built on top are pure JSON, even for
  payload-carrying specs, and a planted pickle — as a chunk file or as
  a spec document — is rejected as corrupt without ever being loaded.
"""

import base64
import dataclasses
import json
import os
import pickle
import threading

import numpy as np
import pytest

from repro.energy.power import PowerModel
from repro.events import EventStream
from repro.hw import LayerGeometry, LayerKind, LayerProgram, SNEConfig
from repro.runtime import Broker, JobSpec, canonical_json, dse_point_job, execute_job
from repro.runtime.dist import _decode_chunk, _encode_chunk, worker_loop
from repro.runtime.jobs import CODECS, sample_eval_job, spec_from_doc, spec_to_doc


def make_sample_spec(power=True, seed=0):
    """A tiny but real ``sample_eval`` spec (compiled program, event
    stream, optional power model)."""
    g = LayerGeometry(LayerKind.DENSE, 1, 2, 2, 4, 1, 1)
    w = np.random.default_rng(seed).integers(-3, 4, (4, 4))
    programs = [LayerProgram(g, w, threshold=2, leak=0)]
    stream = EventStream.from_dense(np.ones((3, 1, 2, 2), dtype=np.uint8))
    return sample_eval_job(
        programs, SNEConfig(n_slices=1), stream, 1,
        power=PowerModel() if power else None,
    )


class PlantedPickle:
    """Unpickling this object creates the directory ``marker`` — a
    stand-in for arbitrary code run by whoever loads the bytes."""

    def __init__(self, marker):
        self.marker = str(marker)

    def __reduce__(self):
        return (os.mkdir, (self.marker,))


class TestCodecField:
    def test_codecs_tuple_is_the_contract(self):
        assert CODECS == ("json", "events")

    def test_payload_free_spec_is_json_codec(self):
        spec = JobSpec(kind="k", key=canonical_json({"a": 1}))
        doc = spec_to_doc(spec)
        assert doc["codec"] == "json"
        assert spec_from_doc(doc) == spec

    def test_missing_codec_field_means_json(self):
        # Pre-codec documents (old spools) decode unchanged.
        spec = JobSpec(kind="k", key=canonical_json({"a": 1}))
        assert spec_from_doc({"kind": spec.kind, "key": spec.key}) == spec

    def test_unknown_codec_rejected(self):
        with pytest.raises(ValueError, match="unknown spec codec"):
            spec_from_doc({"kind": "k", "key": "{}", "codec": "msgpack"})

    def test_pickle_codec_document_rejected_unloaded(self, tmp_path):
        marker = tmp_path / "ran"
        blob = pickle.dumps(PlantedPickle(marker))
        doc = {"kind": "k", "key": "{}", "codec": "pickle",
               "payload": base64.b64encode(blob).decode("ascii")}
        with pytest.raises(ValueError, match="unknown spec codec"):
            spec_from_doc(doc)
        assert not marker.exists()


class TestEventsCodec:
    def test_sample_eval_uses_events_codec_and_is_pure_json(self):
        doc = spec_to_doc(make_sample_spec())
        assert doc["codec"] == "events"
        json.dumps(doc)  # raises if anything live leaked into the doc

    def test_round_trip_is_bit_identical(self):
        spec = make_sample_spec()
        back = spec_from_doc(spec_to_doc(spec))
        assert back.job_hash == spec.job_hash
        a, b = spec.payload, back.payload
        for pa, pb in zip(a["programs"], b["programs"]):
            assert pa.geometry == pb.geometry
            assert pa.weights.dtype == pb.weights.dtype
            assert pa.weights.tobytes() == pb.weights.tobytes()
            assert (pa.threshold, pa.leak, pa.scale, pa.name, pa.spiking) == (
                pb.threshold, pb.leak, pb.scale, pb.name, pb.spiking)
        assert a["config"] == b["config"]
        for f in ("t", "ch", "x", "y"):
            assert getattr(a["stream"], f).tobytes() == (
                getattr(b["stream"], f).tobytes())
        assert a["stream"].shape == b["stream"].shape
        assert a["label"] == b["label"]
        assert dataclasses.asdict(a["power"].tech) == (
            dataclasses.asdict(b["power"].tech))
        assert a["power"].gating_residual == b["power"].gating_residual

    def test_round_trip_executes_identically(self):
        spec = make_sample_spec()
        back = spec_from_doc(spec_to_doc(spec))
        assert execute_job(back) == execute_job(spec)

    def test_round_trip_without_power_model(self):
        spec = make_sample_spec(power=False)
        back = spec_from_doc(spec_to_doc(spec))
        assert back.payload["power"] is None
        assert back.job_hash == spec.job_hash

    def test_corrupt_events_payload_is_structured_error(self):
        doc = spec_to_doc(make_sample_spec())
        doc["payload"]["stream"]["t"]["data"] = "!!not-base64!!"
        with pytest.raises(ValueError, match="events-codec payload"):
            spec_from_doc(doc)


class TestPickleFallback:
    """There is no pickle fallback: a payload kind without a wire codec
    cannot be encoded, so it can never reach a spool or the wire."""

    def spec(self):
        return JobSpec(kind="t_exotic", key=canonical_json({"n": 1}),
                       payload={"blob": np.arange(3)})

    def test_rejected_without_opt_in(self):
        with pytest.raises(ValueError, match="no wire codec"):
            spec_to_doc(self.spec())


class TestChunkFilesAreJSON:
    def test_sample_eval_chunks_spool_as_json(self):
        spec = make_sample_spec()
        blob = _encode_chunk("c-0", 0, [spec], trace=None)
        doc = json.loads(blob.decode("utf-8"))  # not pickle bytes
        assert doc["jobs"][0]["codec"] == "events"
        specs, trace = _decode_chunk(blob)
        assert trace is None
        assert specs[0].job_hash == spec.job_hash
        assert execute_job(specs[0]) == execute_job(spec)

    def test_planted_pickle_chunk_is_corrupt_and_never_loaded(self, tmp_path):
        marker = tmp_path / "ran"
        with pytest.raises(ValueError, match="corrupt spool chunk"):
            _decode_chunk(pickle.dumps(PlantedPickle(marker)))
        assert not marker.exists()

    def test_worker_reports_planted_pickle_chunk_as_chunk_failure(self, tmp_path):
        spool, marker = tmp_path / "spool", tmp_path / "ran"
        jobs = [dse_point_job(n) for n in (1, 2, 4, 8)]
        broker = Broker(spool, max_attempts=1)
        ids = broker.submit(jobs, chunk_size=2)
        (spool / "chunks" / f"{ids[1]}.chunk").write_bytes(
            pickle.dumps(PlantedPickle(marker)))
        worker = threading.Thread(target=worker_loop, args=(spool,),
                                  kwargs=dict(drain=True, poll_s=0.01))
        worker.start()
        results = broker.collect(timeout=30)
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert [r.ok for r in results] == [True, True, False, False]
        for r in results[2:]:
            assert "corrupt spool chunk" in r.error
        assert broker.stats.chunk_failures == 1
        assert not marker.exists()
