"""The three benchmark workloads.

Each workload drives the system only through public entry points,
builds its inputs from ``seed``, measures for ``seconds`` and checks
every answer (see :class:`deploy.Checker`).  ``traced=True`` swaps in
the timing proxies of :mod:`layers` and fills :attr:`Run.layers` and
the attribution rows; untraced runs use the plain objects.

Times, and rates the CPU sets, are reported at reference speed
(:mod:`calibrate`): on a shared host the raw per-sample p50 moved by
30-40 % between identical runs.  The p10 and p90 of every class are
recorded in the facts.

Samples are band-mixed, so one percentile over both bands would sit in
the gap between two clusters and jump from run to run; a band-mixed
population reports the mean of its per-band percentiles.
"""

from __future__ import annotations

import asyncio
import math
import multiprocessing
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.hw.mapper import fanout_table
from repro.runtime.dispatch import LocalDispatcher
from repro.runtime.dist import Broker, worker_loop
from repro.runtime.executor import run_jobs
from repro.runtime.profile import Profiler
from repro.runtime.progress import BrokerTelemetry, Progress
from repro.runtime.serve import AsyncServer
from repro.runtime.store import ResultStore

from calibrate import Calibrator
from deploy import (N_CLASSES, Checker, band_activity, build_evaluator, build_jobs, digest,
                    make_pool)
from layers import STAGES, TimingDispatcher, TimingStore

pc = time.perf_counter

#: End-to-end metrics: name -> (unit, better).  Every workload emits all.
E2E = {
    "setup_s": ("s", "lower"),
    "samples_per_s": ("1/s", "higher"),
    "host_msops": ("MSOP/s", "higher"),
    "low_sample_p50_s": ("s", "lower"),
    "high_sample_p50_s": ("s", "lower"),
    "cold_p50_s": ("s", "lower"),
    "warm_p50_s": ("s", "lower"),
    "slo_ok_ratio": ("ratio", "higher"),
}

#: Per-layer metrics of the traced run: name -> (unit, better).  The two
#: ``hw.sne`` counts are simulated work, which must repeat exactly.
PER_LAYER = {
    "hw.mapper.fanout_build_s": ("s", "lower"),
    **{f"hw.sne.{layer}_s": ("s", "lower") for layer in ("layer0", "layer1", "layer3", "layer4")},
    "hw.sne.update_events": ("count", "lower"),
    "hw.sne.sops": ("count", "lower"),
    **{f"hw.sne.{stage}_s": ("s", "lower") for stage in STAGES},
    "hw.sne.unattributed_s": ("s", "lower"),
    "hw.runner.run_sample_low_s": ("s", "lower"),
    "hw.runner.run_sample_high_s": ("s", "lower"),
    "runtime.jobs.spec_build_s": ("s", "lower"),
    "runtime.jobs.spec_to_doc_s": ("s", "lower"),
    "runtime.jobs.spec_from_doc_s": ("s", "lower"),
    "runtime.jobs.spec_doc_bytes": ("bytes", "lower"),
    "runtime.store.get_hit_s": ("s", "lower"),
    "runtime.store.get_miss_s": ("s", "lower"),
    "runtime.store.put_s": ("s", "lower"),
    "runtime.store.hit_ratio": ("ratio", "higher"),
    "runtime.executor.overhead_s": ("s", "lower"),
    "runtime.serve.queue_wait_s": ("s", "lower"),
    "runtime.serve.batch_jobs": ("count", "higher"),
    "runtime.dispatch.batch_s": ("s", "lower"),
    "runtime.dist.submit_s": ("s", "lower"),
    "runtime.dist.poll_s": ("s", "lower"),
    "runtime.dist.chunk_bytes": ("bytes", "lower"),
    "runtime.dist.worker_execute_s": ("s", "lower"),
    "runtime.dist.spool_overhead_s": ("s", "lower"),
}

#: Latency limits of ``slo_ok_ratio`` per workload and class, in raw
#: seconds: 5-20 times the class's p50 on a 2-core host without numba,
#: so they catch stalls and wrong answers, not drift.
SLO = {
    "eval-mixed": {"cold": 0.4, "warm": 0.1},
    "serve-open": {"cold": 0.25, "warm": 0.05},
    "fleet-chunks": {"cold": 2.0, "warm": 1.0},
}

SETUP_REPEATS = 9
#: Samples each eval-mixed deployment evaluates: what ``repro eval``
#: runs on one deployment by default (``--per-class 2`` over 11 classes).
PER_DEPLOYMENT = 2 * N_CLASSES
#: serve-open requests per second.
SERVE_RATE = 20.0
#: fleet-chunks worker processes, samples a chunk, chunks kept in flight,
#: chunks a deployment, and the broker's and idle workers' poll interval.
FLEET_WORKERS, CHUNK, OUTSTANDING, CHUNKS_PER_DEPLOYMENT = 2, 4, 2, 8
POLL_S = 0.005
#: Serve calibrates while the next arrival is at least this far off.
CAL_GAP_S = 0.005
#: How long a fleet worker process may take to import and start.
WORKER_START_S = 60.0
#: How long the fleet may take to drain its last chunks before they fail.
DRAIN_LIMIT_S = 60.0


@dataclass
class Run:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    metrics: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    basis: str = ""
    total_s: float = 0.0


def pct(xs, q: float = 50) -> float:
    """Percentile ``q`` of ``xs``; a ``{band: values}`` dict gives the
    mean of its per-band percentiles."""
    if isinstance(xs, dict):
        return statistics.fmean(pct(v, q) for v in xs.values())
    return float(np.percentile(xs, q))


def fill_metrics(run: Run, cal: Calibrator, rate: float, exec_by_band: dict,
                 sops_by_band: dict, cold, warm) -> None:
    """The time metrics shared by every workload, at reference speed.

    ``rate`` is the workload's samples/s.  Every observation is a
    ``(seconds, start, end)`` triple, scaled by ``cal`` to the CPU speed
    around ``[start, end]``: ``exec_by_band`` holds the execution times
    of fanout-warm computed samples (``sops_by_band`` their simulated
    SOPs), ``cold``/``warm`` the latencies of the workload's cold and
    warm units (lists, or dicts by band).
    """
    def scaled(obs):
        if isinstance(obs, dict):
            return {k: scaled(v) for k, v in obs.items()}
        return [cal.scale(*o) for o in obs]

    exec_by_band, cold, warm = scaled(exec_by_band), scaled(cold), scaled(warm)
    m = run.metrics
    m["samples_per_s"] = rate
    m["low_sample_p50_s"] = pct(exec_by_band["low"])
    m["high_sample_p50_s"] = pct(exec_by_band["high"])
    # SOPs of a typical low + high pair over its median host time.
    m["host_msops"] = (sum(map(statistics.fmean, sops_by_band.values()))
                       / (m["low_sample_p50_s"] + m["high_sample_p50_s"]) / 1e6)
    m["cold_p50_s"] = pct(cold)
    m["warm_p50_s"] = pct(warm)
    run.facts["speed"] = cal.speed()
    run.facts["stolen"] = cal.stolen()
    run.facts["percentiles_s"] = {
        name: {f"p{q}": pct(xs, q) for q in (10, 50, 90)}
        for name, xs in (("low_sample", exec_by_band["low"]),
                         ("high_sample", exec_by_band["high"]),
                         ("cold", cold), ("warm", warm))}


def timed_setups(make, teardown):
    """Set up ``SETUP_REPEATS`` times; keep the last, return the median
    at reference speed."""
    cal = Calibrator()
    spans, state = [], None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            teardown(state)
        cal.tick(2)
        t0 = pc()
        state = make()
        t1 = pc()
        spans.append((t1 - t0, t0, t1))
    cal.tick(2)
    return statistics.median(cal.scale(*span) for span in spans), state


def finish(run: Run, answers, checker: Checker, limits: dict, head: int = 8) -> None:
    """Check every answer and the golden set, and fill
    ``attempted``/``failed``/``slo_ok_ratio``.

    ``answers`` holds ``(spec, value, latency_s, cls)`` in submission order;
    the ``stats_digest`` fact covers the first ``head`` distinct specs,
    which every run of a seed answers.
    """
    ok = within = 0
    for spec, value, latency, cls in answers:
        good = checker.matches(spec, value)
        ok += good
        within += good and latency <= limits[cls]
    ref_bad = checker.reference_mismatches([a[0] for a in answers])
    golden_bad = checker.golden_mismatches()
    run.attempted = len(answers)
    run.failed = run.attempted - ok + ref_bad + golden_bad
    run.correct = run.failed == 0
    run.metrics["slo_ok_ratio"] = within / run.attempted
    firsts = list({a[0].job_hash: a[0] for a in answers}.values())[:head]
    run.facts["stats_digest"] = digest(checker.serial(s) for s in firsts)
    run.facts["reference_checked"] = min(checker.n_reference, len(firsts))
    run.facts["golden_mismatches"] = golden_bad


# -- eval-mixed ---------------------------------------------------------------

class _Ticks(Progress):
    """``run_jobs`` progress sink that calibrates after every job and
    notes when each job ended and how long its calibration took."""

    def __init__(self, cal: Calibrator) -> None:
        self.cal = cal
        self.ends: list[float] = []
        self.spent = 0.0

    def on_job(self, done, total, result) -> None:
        t0 = pc()
        self.ends.append(t0)
        self.cal.tick()
        self.spent += pc() - t0


def eval_mixed(seed: int, seconds: float, work, traced: bool = False,
               backend=None) -> Run:
    """Serial ``run_jobs`` over fresh deployments into a fresh store.

    Each deployment (a network of its own seed) is built inside the
    timed window and evaluates ``PER_DEPLOYMENT`` samples that alternate
    low/high, starting low.  Its first sample pays the cold fanout build.
    """
    run = Run()
    store_cls = TimingStore if traced else ResultStore
    n_setups = iter(range(SETUP_REPEATS))

    def make():
        return make_pool(seed), store_cls(root=work / f"eval-store-{next(n_setups)}")

    run.metrics["setup_s"], (pool, store) = timed_setups(
        make, lambda state: shutil.rmtree(state[1].root))
    answers, cold, warm_wall, loops = [], [], [], []
    cal = Calibrator()
    exec_by_band = {"low": [], "high": []}
    sops_by_band = {"low": [], "high": []}
    exec_s = 0.0
    prof = Profiler()
    spent = dict.fromkeys(("build", "spec", "fanout", "run_jobs", "calibration"), 0.0)
    t_start = pc()
    i = 0
    while i == 0 or pc() - t_start < seconds:
        t0 = pc()
        cal.tick(3)
        spent["calibration"] += pc() - t0
        t0 = pc()
        ev = build_evaluator(seed * 1000 + i)
        t1 = pc()
        picks = [pool[(i * PER_DEPLOYMENT + k) % len(pool)] for k in range(PER_DEPLOYMENT)]
        jobs = build_jobs(ev, picks, profile=traced)
        t2 = pc()
        if traced:  # time the cold build from outside, ahead of the first sample
            for program in ev.programs:
                fanout_table(program).packed()
        ticks = _Ticks(cal)
        t3 = pc()
        report = run_jobs(jobs, executor=backend, cache=store, progress=ticks)
        t4 = pc() - ticks.spent
        for key, dt in zip(spent, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, ticks.spent)):
            spent[key] += dt
        for k, (spec, r, (band, _)) in enumerate(zip(jobs, report.results, picks)):
            cls = "cold" if k == 0 else "warm"
            answers.append((spec, r.value if r.ok else None, r.duration_s, cls))
            if not r.ok:
                continue
            span = (r.duration_s, ticks.ends[k] - r.duration_s, ticks.ends[k])
            if k == 0:
                cold.append(span)
            else:
                exec_by_band[band].append(span)
                sops_by_band[band].append(r.value["sops"])
            exec_s += r.duration_s
            if traced:
                prof.merge(r.value["profile"])
        warm_wall.append(((t4 - t3 - report.results[0].duration_s) / (len(jobs) - 1),
                          t3, t4))
        loops.append((t4 - t0, t0, t4))
        i += 1
    wall = pc() - t_start
    cal.tick(3)
    fill_metrics(run, cal, len(answers) / sum(cal.scale(*loop) for loop in loops),
                 exec_by_band, sops_by_band, cold, warm_wall)
    run.facts.update(samples=len(answers), deployments=i, window_s=wall,
                     band_activity=band_activity(pool))
    if traced:
        spans = {name: s.wall_s for name, s in prof.spans.items()}
        layer_s = sum(v for k, v in spans.items() if k.startswith("sne.layer."))
        stage_s = {s: spans[f"sne.{s}"] for s in STAGES}
        store_s = {k: sum(v) for k, v in store.calls.items()}
        run.rows = [
            ("deploy.build (snn + hw.mapper compile)", spent["build"]),
            ("runtime.jobs.spec_build", spent["spec"]),
            ("hw.mapper.fanout_build", spent["fanout"]),
            *((f"hw.sne.{s}", stage_s[s]) for s in STAGES),
            ("hw.sne (program, collect, loop)", layer_s - sum(stage_s.values())),
            ("hw.runner", spans["runner.sample"] - layer_s),
            ("runtime.jobs.execute", exec_s - spans["runner.sample"]),
            ("runtime.store.get", store_s["get_hit"] + store_s["get_miss"]),
            ("runtime.store.put", store_s["put"]),
            ("runtime.executor", spent["run_jobs"] - exec_s - sum(store_s.values())),
            ("bench.calibration", spent["calibration"]),
        ]
        run.basis, run.total_s = "window wall", wall
        run.layers.update(store.layers())
        run.layers["runtime.executor.overhead_s"] = (
            (spent["run_jobs"] - exec_s) / len(answers))
    finish(run, answers, Checker(seed), SLO["eval-mixed"])
    return run


# -- serve-open ---------------------------------------------------------------

def serve_open(seed: int, seconds: float, work, traced: bool = False,
               store_cls=None) -> Run:
    """Open-loop ``AsyncServer.submit`` at ``SERVE_RATE`` requests a second.

    Arrivals are a seeded Poisson process of exactly ``SERVE_RATE * seconds``
    requests (uniform arrival times given the count).  Half of them,
    in seeded order, are cold: a ``sample_eval`` job never asked before,
    alternating low/high.  The other half repeat a job whose answer was
    due at least a second earlier, so they are store hits.  Latency runs
    from when the request was due, so generator lateness counts.
    """
    return asyncio.run(_serve_open(seed, seconds, work, traced,
                                   store_cls or (TimingStore if traced else ResultStore)))


async def _serve_open(seed, seconds, work, traced, store_cls) -> Run:
    run = Run()
    n = max(4, int(round(SERVE_RATE * seconds)))
    n_cold = n // 2
    n_setups = iter(range(SETUP_REPEATS))

    async def make():
        pool = make_pool(seed)
        n_deploy = math.ceil((n_cold + 2) / (len(pool) - 2)) + 1
        fresh = {"low": [], "high": []}
        warmup = []
        for d in range(n_deploy):
            jobs = build_jobs(build_evaluator(seed * 1000 + 300 + d), pool)
            warmup += list(zip(("low", "high"), jobs[:2]))
            for (band, _), spec in zip(pool[2:], jobs[2:]):
                fresh[band].append((band, spec))
        inner = LocalDispatcher("thread", workers=2)
        dispatcher = TimingDispatcher(inner) if traced else inner
        store = store_cls(root=work / f"serve-store-{next(n_setups)}")
        server = AsyncServer(dispatcher=dispatcher, cache=store)
        await server.__aenter__()
        # One answer per band and deployment: builds every fanout table
        # and seeds the warm set before the window opens.
        await asyncio.gather(*(server.submit(spec) for _, spec in warmup))
        return pool, fresh, warmup, dispatcher, store, server

    async def teardown(state):
        *_, dispatcher, store, server = state
        await server.aclose()
        await dispatcher.aclose()
        shutil.rmtree(store.root)

    cal = Calibrator()
    times, state = [], None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            await teardown(state)
        cal.tick(3)
        t0 = pc()
        state = await make()
        times.append(pc() - t0)
    run.metrics["setup_s"] = statistics.median(times) / cal.speed()
    pool, fresh, warmup, dispatcher, store, server = state

    rng = np.random.default_rng(seed)
    dues = np.sort(rng.uniform(0.0, seconds, n))
    is_cold = rng.permutation(np.arange(n) < n_cold)
    for band in fresh:
        fresh[band] = [fresh[band][j] for j in rng.permutation(len(fresh[band]))]
    plan, answered_by, k_cold = [], [], 0  # answered_by: (due, (band, spec))
    for due, cold in zip(dues, is_cold):
        if cold:
            item = fresh["low" if k_cold % 2 == 0 else "high"][k_cold // 2]
            k_cold += 1
            answered_by.append((due, item))
        else:
            ready = [it for d, it in answered_by if d <= due - 1.0] + warmup
            item = ready[rng.integers(len(ready))]
        plan.append((due, "cold" if cold else "warm", item))

    if traced:
        store.reset()
        dispatcher.reset()
    records = [None] * n  # (spec, band, cls, result, latency, lateness)

    async def request(i, due_abs, cls, band, spec):
        sent = pc()
        try:
            result = await server.submit(spec)
        except Exception:  # shed or closed: answered wrongly by definition
            result = None
        records[i] = (spec, band, cls, result, pc() - due_abs, sent - due_abs)
        if cls == "cold":  # the compute threads just ran; sample their speed
            cal.tick()

    tasks = []
    cal = Calibrator()
    t0 = pc()
    for i, (due, cls, (band, spec)) in enumerate(plan):
        delay = t0 + due - pc()
        if delay > CAL_GAP_S:  # calibrate in the gap, clear of any send
            cal.tick()
            delay = t0 + due - pc()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(request(i, t0 + due, cls, band, spec)))
    await asyncio.gather(*tasks)
    wall = pc() - t0
    await server.aclose()
    await dispatcher.aclose()

    lat = {"cold": {"low": [], "high": []}, "warm": {"low": [], "high": []}}
    exec_by_band = {"low": [], "high": []}
    sops_by_band = {"low": [], "high": []}
    answers = []
    for (spec, band, cls, result, latency, _), (due, _, _) in zip(records, plan):
        ok = result is not None and result.ok
        answers.append((spec, result.value if ok else None, latency, cls))
        if not ok:
            continue
        span = (t0 + due, t0 + due + latency)
        lat[cls][band].append((latency, *span))
        if not result.cached:
            exec_by_band[band].append((result.duration_s, *span))
            sops_by_band[band].append(result.value["sops"])
    # Arrivals set the open loop's rate, so it is not scaled to CPU speed.
    fill_metrics(run, cal, sum(a[1] is not None for a in answers) / wall,
                 exec_by_band, sops_by_band, lat["cold"],
                 lat["warm"]["low"] + lat["warm"]["high"])
    lateness = [r[5] for r in records]
    run.facts.update(requests=n, cold_requests=n_cold, rate_per_s=SERVE_RATE,
                     window_s=wall, band_activity=band_activity(pool),
                     generator_lateness_p99_s=float(np.percentile(lateness, 99)),
                     computed=len(exec_by_band["low"]) + len(exec_by_band["high"]))
    if traced:
        _serve_rows(run, records, store, dispatcher)
    finish(run, answers, Checker(seed), SLO["serve-open"])
    return run


def _serve_rows(run, records, store, dispatcher) -> None:
    """Split the summed request latency into layers (traced run)."""
    queue = [dispatcher.started[s.job_hash] - store.missed[s.job_hash]
             for s, _, _, r, _, _ in records
             if r is not None and not r.cached and s.job_hash in dispatcher.started]
    dispatch = execute = 0.0
    for spec, _, _, result, _, _ in records:
        h = spec.job_hash
        if result is not None and not result.cached and h in dispatcher.yielded:
            dispatch += dispatcher.yielded[h] - dispatcher.started[h]
            execute += result.duration_s
    calls = store.calls
    run.rows = [
        ("bench.generator_lateness", sum(r[5] for r in records)),
        ("runtime.store.get", sum(calls["get_hit"]) + sum(calls["get_miss"])),
        ("runtime.serve.queue_wait", sum(queue)),
        ("runtime.dispatch (thread hop, batch order)", dispatch - execute),
        ("sample_eval execute (hw.*)", execute),
        ("runtime.store.put", sum(calls["put"])),
    ]
    run.basis = "summed request latency"
    run.total_s = sum(r[4] for r in records)
    run.layers.update(store.layers())
    run.layers.update(dispatcher.layers())
    if queue:
        run.layers["runtime.serve.queue_wait_s"] = statistics.median(queue)


# -- fleet-chunks -------------------------------------------------------------

def _worker(ready, **kwargs) -> None:
    """Fleet worker process: report that imports are done, then poll."""
    ready.set()
    worker_loop(**kwargs)


class _ChunkHook:
    """``worker_loop`` ``on_chunk`` hook: after each chunk the worker runs
    one calibration pass and sends back ``(chunk_id, claimed, published,
    pass_end, pass_cost, worker_id)``, the times on the wall clock."""

    def __init__(self, queue, worker_id: str) -> None:
        self.queue = queue
        self.worker_id = worker_id

    def __call__(self, chunk_id, n_jobs, elapsed_s) -> None:
        now = time.time()
        cal = Calibrator()
        cal.tick()
        self.queue.put((chunk_id, now - elapsed_s, now, time.time(), cal.costs[0],
                        self.worker_id))


class _Ingests(BrokerTelemetry):
    """Stamps when ``poll_once`` ingests each chunk."""

    def __init__(self) -> None:
        self.at: dict[str, float] = {}

    def on_chunk(self, chunk_id, n_jobs, worker_id) -> None:
        self.at[chunk_id] = pc()


def fleet_chunks(seed: int, seconds: float, work, traced: bool = False) -> Run:
    """A closed loop of small chunks through one :class:`Broker` and
    ``FLEET_WORKERS`` fresh :func:`worker_loop` processes (no store).

    ``OUTSTANDING`` chunks are kept in flight.  The deployment changes
    every ``CHUNKS_PER_DEPLOYMENT`` chunks.  Each worker keeps its own
    fanout tables, so a chunk is cold when its worker had not yet run
    that deployment (it builds the tables); ``samples_per_s`` counts the
    samples of the chunks ingested within the window.  A chunk
    holds ``CHUNK`` samples alternating low/high, and no two chunks of a
    run hold the same samples: the broker names a chunk after its submit
    index and member hashes, so re-submitting one spec list reuses an id.
    Deployments past the first few are built when the loop reaches them.
    """
    run = Run()
    # Fork, not spawn or forkserver: those start a resource tracker or
    # fork server that outlives the run, and no one waits for it.
    ctx = multiprocessing.get_context("fork")
    n_setups = iter(range(SETUP_REPEATS))
    per = CHUNK * CHUNKS_PER_DEPLOYMENT

    def make():
        pool = make_pool(seed)
        if per > len(pool):
            raise ValueError("a deployment needs more distinct samples than the pool has")

        def deployment(d):
            if d not in built:
                built[d] = build_jobs(build_evaluator(seed * 1000 + 500 + d),
                                      [pool[(d * per + k) % len(pool)] for k in range(per)])
            return built[d]

        built = {}
        for d in range(4):
            deployment(d)
        spool = work / f"spool-{next(n_setups)}"
        ingests = _Ingests()
        broker = Broker(spool, poll_s=POLL_S, telemetry=ingests)
        stop = ctx.Event()
        hooks = ctx.SimpleQueue()
        ready = [ctx.Event() for _ in range(FLEET_WORKERS)]
        procs = [ctx.Process(target=_worker, args=(ready[k],), daemon=True, kwargs=dict(
            spool_dir=str(spool), worker_id=f"w{k}", poll_s=POLL_S, stop=stop,
            on_chunk=_ChunkHook(hooks, f"w{k}"))) for k in range(FLEET_WORKERS)]
        for p in procs:
            p.start()
        state = pool, deployment, spool, ingests, broker, stop, hooks, procs
        if not all(event.wait(WORKER_START_S) for event in ready):
            teardown(state)
            raise RuntimeError("fleet workers did not start")
        return state

    def teardown(state):
        _, _, spool, _, broker, stop, _, procs = state
        stop.set()
        for p in procs:
            p.join(10)
            if p.is_alive():
                p.kill()
                p.join()
        broker.close()
        shutil.rmtree(spool)

    run.metrics["setup_s"], state = timed_setups(make, teardown)
    pool, deployment, spool, ingests, broker, stop, hooks, procs = state
    try:
        sent = []  # (chunk_id, submitted_at, deployment, specs)
        submit_s, poll_s_list, chunk_bytes, stamped = [], [], [], []
        # Workers calibrate; this process reads the stolen-time counters.
        cal = Calibrator()
        cal.note()
        clock_offset = time.time() - pc()
        t_start = pc()
        while True:
            while (len(broker.outstanding()) < OUTSTANDING
                   and pc() - t_start < seconds):
                j = len(sent)
                d, c = divmod(j, CHUNKS_PER_DEPLOYMENT)
                specs = deployment(d)[c * CHUNK:(c + 1) * CHUNK]
                t0 = pc()
                chunk_id = broker.submit(specs, chunk_size=len(specs))[-1]
                t1 = pc()
                sent.append((chunk_id, t1, d, specs))
                if traced:
                    submit_s.append(t1 - t0)
                    chunk_bytes.append(
                        (spool / "chunks" / f"{chunk_id}.chunk").stat().st_size)
            t0 = pc()
            broker.poll_once()
            if traced:
                poll_s_list.append(pc() - t0)
            while not hooks.empty():  # keep the pipe from filling up
                stamped.append(hooks.get())
            if pc() - t_start >= seconds and not broker.outstanding():
                break
            if pc() - t_start > seconds + DRAIN_LIMIT_S:
                broker.fail_outstanding("benchmark drain limit reached")
                break
            cal.note()
            time.sleep(POLL_S)
        cal.note()
        results = broker.results_in_order()
    finally:
        teardown(state)
    while not hooks.empty():
        stamped.append(hooks.get())
    # Workers run the samples, so their calibration passes scale them.
    for _, _, _, pass_end, cost, _ in sorted(stamped, key=lambda h: h[3]):
        cal.times.append(pass_end - clock_offset)
        cal.costs.append(cost)
    # A chunk is cold when it is the first its worker ran of its deployment.
    deployment_of = {chunk_id: d for chunk_id, _, d, _ in sent}
    seen, cold_ids = set(), set()
    for chunk_id, *_, worker_id in sorted(stamped, key=lambda h: h[1]):
        key = (worker_id, deployment_of[chunk_id])
        if key not in seen:
            seen.add(key)
            cold_ids.add(chunk_id)

    wall = max(ingests.at.values()) - t_start
    latency = {"cold": [], "warm": []}
    exec_by_band = {"low": [], "high": []}
    sops_by_band = {"low": [], "high": []}
    answers = []
    for n, (chunk_id, submitted, _, specs) in enumerate(sent):
        cold = chunk_id in cold_ids
        cls = "cold" if cold else "warm"
        ingested = ingests.at.get(chunk_id, math.inf)
        lat = ingested - submitted
        latency[cls].append((lat, submitted, min(ingested, t_start + wall)))
        for k, (spec, r) in enumerate(zip(specs, results[n * CHUNK:(n + 1) * CHUNK])):
            answers.append((spec, r.value if r.ok else None, lat, cls))
            if r.ok and not cold:
                band = "low" if k % 2 == 0 else "high"
                sops_by_band[band].append(r.value["sops"])
                exec_by_band[band].append((r.duration_s, submitted, ingested))
    # Samples of the chunks ingested within the window, over the window
    # in reference-speed time, scaled between consecutive ingests.
    t_end = t_start + seconds
    done = sorted(t for t in ingests.at.values() if t <= t_end)
    n_done = sum(len(specs) for chunk_id, _, _, specs in sent
                 if ingests.at.get(chunk_id, math.inf) <= t_end)
    edges = [t_start, *done, t_end]
    window = sum(cal.scale(b - a, a, b) for a, b in zip(edges, edges[1:]))
    fill_metrics(run, cal, n_done / window,
                 exec_by_band, sops_by_band, latency["cold"], latency["warm"])
    run.facts.update(chunks=len(sent), cold_chunks=len(cold_ids), samples=len(answers),
                     workers=FLEET_WORKERS,
                     chunk_samples=CHUNK, outstanding=OUTSTANDING, window_s=wall,
                     band_activity=band_activity(pool),
                     requeues=broker.stats.requeues)
    if traced:
        _fleet_rows(run, sent, ingests, broker, stamped, clock_offset)
        run.layers.update({
            "runtime.dist.submit_s": statistics.median(submit_s),
            "runtime.dist.poll_s": statistics.median(poll_s_list),
            "runtime.dist.chunk_bytes": statistics.fmean(chunk_bytes),
        })
    finish(run, answers, Checker(seed), SLO["fleet-chunks"])
    return run


def _fleet_rows(run, sent, ingests, broker, stamped, clock_offset) -> None:
    """Split the summed chunk latency into layers (traced run).

    ``stamped`` holds the :class:`_ChunkHook` records of every chunk;
    ``clock_offset`` maps their wall-clock times onto ``perf_counter``.
    """
    stamps = {chunk_id: (claimed - clock_offset, published - clock_offset)
              for chunk_id, claimed, published, *_ in stamped}
    queue = publish = poll = total = 0.0
    for chunk_id, submitted, _, _ in sent:
        claimed, published = stamps[chunk_id]
        ingested = ingests.at[chunk_id]
        queue += claimed - submitted
        publish += published - claimed
        poll += ingested - published
        total += ingested - submitted
    spans = broker.worker_profile.spans
    worker_chunk = spans["worker.chunk"].wall_s
    execute = spans["worker.execute"].wall_s
    run.rows = [
        ("runtime.dist.queue_wait (submit to claim)", queue),
        ("runtime.jobs decode + records (worker)", worker_chunk - execute),
        ("sample_eval execute (hw.*)", execute),
        ("runtime.dist.publish (worker)", publish - worker_chunk),
        ("runtime.dist.poll_delay (publish to ingest)", poll),
    ]
    run.basis, run.total_s = "summed chunk latency", total
    run.layers["runtime.dist.worker_execute_s"] = execute / len(sent)
    run.layers["runtime.dist.spool_overhead_s"] = (total - execute) / len(sent)


WORKLOADS = {
    "eval-mixed": eval_mixed,
    "serve-open": serve_open,
    "fleet-chunks": fleet_chunks,
}
