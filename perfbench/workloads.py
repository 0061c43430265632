"""The benchmark workloads.

Each workload turns ``--seed`` into its inputs, sets up (several times,
so ``setup_s`` is a median), measures for the requested seconds, checks
every output, and returns an :class:`Outcome`. The program only sees the
generated inputs.

Why these three (see ``BENCHMARK.json`` for the one-line versions of the
two it gates):

- ``synth-sa``: cold full Table I grid synthesis of ``lenet5``. Stage 1
  (the SA weight-duplication filter) takes about 90% of host time, so a
  change to the SA filter shows here and barely elsewhere.
- ``synth-ea``: the same job shape on ``resnet18_cifar`` and
  ``alexnet_cifar``, where stage 3 (EA macro partitioning) takes about
  three quarters of host time.
- ``serve-mixed``: the HTTP front end, queue and result store under a
  closed loop of two keep-alive clients; four of every five requests
  repeat a prewarmed key (store reads), the fifth is a fresh fast-preset
  key that synthesizes and writes. The only workload with repeated
  inputs, so it is the one that exercises the store as a cache. It is
  not in ``BENCHMARK.json``: on a shared 2-core host its figures are
  not steady enough to gate. Its hit latency sits at the knee of a
  tail made by interpreter-lock contention with the miss being
  synthesized, so a host slow phase that made synthesis 1.6x slower
  doubled the median hit latency; ten runs spread by 0.37-0.49 of
  their median against the 0.25 ceiling. Run it by hand with
  ``--workload serve-mixed``; the synth workloads still measure every
  serve layer through their served re-run check.

Output checks, each failure counted in ``failed``: every design's power
is within its budget; each synth job's winner cross-validates the same
when re-materialized; the library and the service return byte-identical
solutions for the same inputs (synth workloads re-run their cheapest
designated job through the service, once computed and once from the
store; ``serve-mixed`` re-runs its first fresh key through the library);
every store hit's payload equals ``ResultStore.peek`` for its key.

Workloads record wall seconds and calibrate the host between timed
steps (``hostspeed.py``); ``metrics.py`` scales the end-to-end times by
the host-speed factor of the whole run.

Design-quality numbers and every per-layer count cover a fixed,
seed-determined subset of each run's jobs (the *designated* jobs: the
first ``designated_cycles`` cycles of synth jobs, or each serve client's
first :data:`SERVE_DESIGNATED` fresh keys), which always completes, so
two runs with the same seed report identical values however fast the
host is.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import random
import resource
import shutil
import statistics
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro import Pimsyn, SynthesisConfig
from repro.core.design_space import DesignSpace
from repro.core.persistence import solution_from_payload
from repro.nn import zoo
from repro.serve import JobRequest, JobScheduler, ResultStore, make_server
from repro.sim.cycle import cross_validate

from hostspeed import HostSpeed
from tracing import Tracer, traced

#: Set-ups per run; ``setup_s`` reports their median (plus imports).
SETUP_REPEATS = 5
#: Cross-validations per design; ``xval_s`` keeps their mean (see
#: _xval_seconds).
XVAL_REPEATS = 5
#: Power budgets are drawn as this band of multiples of the model's
#: feasibility floor (``DesignSpace.minimum_feasible_power``).
MARGIN_BAND = (1.5, 3.0)


@dataclass
class Outcome:
    """What one run measured; ``run.py`` formats it."""

    attempted: int = 0
    failed: int = 0
    import_s: float = 0.0  # reference seconds (run.py)
    setup_s: float = 0.0  # the workload's own set-up, wall seconds
    window_s: float = 0.0
    check_s: float = 0.0  # harness checks and calibration in the window
    latencies: List[float] = field(default_factory=list)
    synth_s: List[float] = field(default_factory=list)
    xval_s: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    # Designated jobs only:
    designs: List[dict] = field(default_factory=list)
    xvals: List[dict] = field(default_factory=list)
    reports: List[dict] = field(default_factory=list)
    layers: Optional[Tuple] = None  # tracer totals
    # Served requests (the serve window, or a synth workload's check):
    hit_latencies: List[float] = field(default_factory=list)
    miss_latencies: List[float] = field(default_factory=list)
    serve_spans: Dict[str, List[float]] = field(
        default_factory=lambda: {"queue_wait": [], "compute": [], "http": []})
    store_totals: Optional[Tuple] = None  # tracer totals
    notes: List[str] = field(default_factory=list)
    job_lines: List[str] = field(default_factory=list)
    host_factor: float = 1.0  # wall to reference seconds (hostspeed.py)
    calibrations: int = 0

    def fail(self, note: str) -> None:
        self.failed += 1
        self.notes.append(note)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _add_totals(acc: Optional[Tuple], before: Tuple, after: Tuple) -> Tuple:
    """Accumulate the tracer delta ``after - before`` into ``acc``."""
    calls, counts, seconds = acc if acc is not None else ({}, {}, {})
    calls, counts, seconds = dict(calls), dict(counts), dict(seconds)
    for target, old, new in ((calls, before[0], after[0]),
                             (counts, before[1], after[1]),
                             (seconds, before[2], after[2])):
        for key, value in new.items():
            target[key] = target.get(key, 0) + value - old.get(key, 0)
    return calls, counts, seconds


def _xval_row(report) -> dict:
    return {
        "energy_dev": report.energy_deviation,
        "throughput_dev": report.throughput_deviation,
        "ok": report.ok,
    }


def _design_row(metrics: dict, budget: float) -> dict:
    return {
        "tops_per_watt": metrics["tops_per_watt"],
        "throughput": metrics["throughput_img_s"],
        "power": metrics["power_w"],
        "budget": budget,
    }


def _report_row(report) -> dict:
    if not isinstance(report, dict):
        report = vars(report)
    return {key: report[key] for key in
            ("ea_runs", "pruned_tasks", "cache_hits", "ea_evaluations",
             "wall_seconds")}


def _solution_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


# ----------------------------------------------------------------------
# The service and its HTTP client
# ----------------------------------------------------------------------
class _Service:
    """A fresh store, a one-worker scheduler and the async front end."""

    def __init__(self, work_dir: Path, prewarmed: List[bytes]) -> None:
        work_dir.mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="store-", dir=work_dir))
        self.store = ResultStore(self.root)
        self.scheduler = JobScheduler(self.store, workers=1)
        self.server = make_server("127.0.0.1", 0, self.scheduler, self.store)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       name="perfbench-server", daemon=True)
        self.thread.start()
        try:
            for body in prewarmed:
                request = JobRequest.from_payload(json.loads(body))
                record = self.scheduler.submit(request)
                self.scheduler.wait_record(record, timeout=120)
                if record.state != "done":
                    raise RuntimeError(f"prewarm failed: {record.error}")
        except BaseException:
            self.close()
            raise

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.server_address[:2]

    def close(self) -> None:
        try:
            self.server.shutdown()
            self.thread.join(timeout=10)
            self.scheduler.shutdown(wait=True)
        finally:
            shutil.rmtree(self.root, ignore_errors=True)


@dataclass
class _Response:
    body: bytes
    fresh: bool
    latency: float
    status: int
    record: Optional[dict]


class _Client:
    """One keep-alive connection sending ``POST /jobs?wait=1``."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self.address = address
        self.conn = http.client.HTTPConnection(*address, timeout=120)

    def post(self, body: bytes, fresh: bool, errors: List[str]) -> _Response:
        sent = time.perf_counter()
        try:
            self.conn.request("POST", "/jobs?wait=1&timeout=120", body=body,
                              headers={"Content-Type": "application/json"})
            reply = self.conn.getresponse()
            data, status = reply.read(), reply.status
        except (OSError, http.client.HTTPException) as exc:
            errors.append(f"{type(exc).__name__}: {exc}")
            self.conn.close()
            self.conn = http.client.HTTPConnection(*self.address, timeout=120)
            data, status = b"", 0
        latency = time.perf_counter() - sent
        try:
            record = json.loads(data) if status == 200 else None
        except ValueError:
            record = None
        return _Response(body, fresh, latency, status, record)

    def close(self) -> None:
        self.conn.close()


def _account(out: Outcome, response: _Response, store: ResultStore,
             peeked: Dict[str, Optional[dict]]) -> Optional[dict]:
    """Check one served response and record its serve-layer spans.

    Every failed check is counted in ``out``. Returns the job record
    when the job finished (state ``done``), else None.
    """
    record = response.record
    if (response.status != 200 or record is None
            or record.get("state") != "done"):
        out.fail(f"status {response.status}: {(record or {}).get('error')}")
        return None
    metrics = record["metrics"]
    if metrics["power_w"] > record["total_power"]:
        out.fail(f"power over budget for {record['key']}")
    spans = out.serve_spans
    spans["http"].append(
        response.latency - (record["finished_at"] - record["submitted_at"]))
    if record["cache_hit"]:
        out.hit_latencies.append(response.latency)
        key = record["key"]
        if key not in peeked:
            peeked[key] = store.peek(key)
        stored = peeked[key]
        if (stored is None or stored["solution"]["metrics"] != metrics
                or stored["report"] != record["report"]):
            out.fail(f"hit payload differs from the store for {key}")
    else:
        out.miss_latencies.append(response.latency)
        spans["queue_wait"].append(
            record["started_at"] - record["submitted_at"])
        spans["compute"].append(record["finished_at"] - record["started_at"])
    return record


# ----------------------------------------------------------------------
# Synthesis workloads: the library, cold, one job after another
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SynthShape:
    """One synth workload's job mix.

    A *cycle* visits every (model, margin) cell once, in an order drawn
    from ``--seed``; runs measure whole cycles, so every run sees the
    same mix. With ``margins`` unset, each visit draws its margin inside
    one of ``strata`` equal slices of :data:`MARGIN_BAND` and its
    synthesis seed from ``--seed``. With fixed ``margins`` the cells are
    a fixed catalogue at the library's default synthesis seed, and
    ``--seed`` only orders the cycle: per-job host time on these models
    swings by 2x with the synthesis seed (the EA task count does), which
    at eight jobs per run would swamp any change worth detecting.
    """

    models: Tuple[str, ...]
    strata: int = 0
    margins: Tuple[float, ...] = ()
    designated_cycles: int = 1

    @property
    def cycle(self) -> int:
        return len(self.models) * (len(self.margins) or self.strata)


SYNTH_SHAPES = {
    "synth-sa": SynthShape(models=("lenet5",), strata=4, designated_cycles=2),
    # alexnet_cifar at 2x the floor is the known cross-validation gap
    # (energy deviation 0.165 against the 0.15 tolerance): kept in on
    # purpose, so the gap shows in every run.
    "synth-ea": SynthShape(models=("resnet18_cifar", "alexnet_cifar"),
                           margins=(1.5, 2.0, 2.5, 3.0)),
}


def synth_jobs(name: str, seed: int) -> Iterator[Tuple[str, float, int]]:
    """Endless (model, margin, synthesis seed) stream, one cycle at a time."""
    shape = SYNTH_SHAPES[name]
    rng = random.Random(f"perfbench:{seed}")
    if shape.margins:
        cells = [(model, margin, SynthesisConfig.seed)
                 for model in shape.models for margin in shape.margins]
        while True:
            rng.shuffle(cells)
            yield from cells
    low, high = MARGIN_BAND
    width = (high - low) / shape.strata
    cells = [(m, s) for m in shape.models for s in range(shape.strata)]
    while True:
        rng.shuffle(cells)
        for model, stratum in cells:
            margin = low + width * (stratum + rng.random())
            yield model, margin, rng.randrange(1, 2 ** 31)


def _synth_setup(shape: SynthShape) -> Dict[str, Tuple[object, float]]:
    models = {}
    for name in shape.models:
        model = zoo.by_name(name)
        floor = DesignSpace(model, SynthesisConfig()).minimum_feasible_power()
        models[name] = (model, floor)
    return models


def run_synth(name: str, seed: int, seconds: float, tracer: Optional[Tracer],
              work_dir: Path, speed: HostSpeed) -> Outcome:
    """Cold ``Pimsyn.synthesize()`` then ``cross_validate`` per job, in
    whole cycles, until ``seconds`` have passed."""
    shape = SYNTH_SHAPES[name]
    designated_jobs = shape.cycle * shape.designated_cycles
    out = Outcome()
    setups = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        models = _synth_setup(shape)
        setups.append(time.perf_counter() - started)
        speed.cover(setups[-1])
    out.setup_s = statistics.median(setups)

    jobs = synth_jobs(name, seed)
    cheapest = None  # (synth seconds, model name, budget, seed, solution)
    with traced(tracer) if tracer else nullcontext():
        started = time.perf_counter()
        while True:
            model_name, margin, job_seed = next(jobs)
            model, floor = models[model_name]
            budget = floor * margin
            designated = out.attempted < designated_jobs
            before = tracer.snapshot() if tracer and designated else None
            out.attempted += 1
            job_started = time.perf_counter()
            try:
                synthesizer = Pimsyn(model, SynthesisConfig(
                    total_power=budget, seed=job_seed, jobs=1))
                solution = synthesizer.synthesize()
                synth_done = time.perf_counter()
                xval = cross_validate(solution)
                done = time.perf_counter()
            except Exception as exc:  # a failed job is counted, not fatal
                out.fail(f"{model_name}: {type(exc).__name__}: {exc}")
                solution = None
                done = time.perf_counter()
            if before is not None:
                out.layers = _add_totals(out.layers, before, tracer.snapshot())
            checks_started = time.perf_counter()
            if solution is not None:
                synth_s = synth_done - job_started
                out.latencies.append(done - job_started)
                out.synth_s.append(synth_s)
                out.job_lines.append(
                    f"{model_name} x{margin:.3f} seed {job_seed}: synth "
                    f"{synth_s:.3f} s, xval {done - synth_done:.4f} s, "
                    f"energy dev {xval.energy_deviation:.4f} (wall seconds)")
                payload = solution.to_payload()
                out.xval_s.append(_xval_seconds(out, model, payload, xval,
                                                done - synth_done))
                design = _design_row(payload["metrics"], budget)
                if design["power"] > budget:
                    out.fail(f"{model_name}: power {design['power']} W over "
                             f"budget {budget} W")
                if designated:
                    out.designs.append(design)
                    out.xvals.append(_xval_row(xval))
                    out.reports.append(_report_row(synthesizer.report))
                    if cheapest is None or synth_s < cheapest[0]:
                        cheapest = (synth_s, model_name, budget, job_seed,
                                    payload)
            speed.cover(time.perf_counter() - job_started)
            out.check_s += time.perf_counter() - checks_started
            elapsed = time.perf_counter() - started
            if (elapsed >= seconds and out.attempted % shape.cycle == 0
                    and out.attempted >= designated_jobs):
                break
        out.window_s = elapsed
        out.peak_rss_mb = _peak_rss_mb()

    if cheapest is not None:
        _served_rerun(out, *cheapest[1:], tracer, work_dir)
    return out


def _xval_seconds(out: Outcome, model, payload: dict, first,
                  first_s: float) -> float:
    """Time :data:`XVAL_REPEATS` cross-validations of a design (the call
    already made, ``first`` taking ``first_s``, then fresh
    re-materializations), return their mean in wall seconds, and check
    that every call reports the same deviations. A 10-100 ms call lands
    in a fast or a slow moment of the host; the mean of several weighs
    those moments as the run's host factor does, where the fastest call
    would not (scaled by that factor, the fastest of three or five
    spread more from run to run)."""
    times = [first_s]
    for _ in range(XVAL_REPEATS - 1):
        copy = solution_from_payload(payload, model)
        started = time.perf_counter()
        again = cross_validate(copy)
        times.append(time.perf_counter() - started)
        if _xval_row(again) != _xval_row(first):
            out.fail(f"{payload['model']}: cross-validation of a "
                     "re-materialized design differs")
    return statistics.mean(times)


def _served_rerun(out: Outcome, model_name: str, budget: float, seed: int,
                  payload: dict, tracer: Optional[Tracer],
                  work_dir: Path) -> None:
    """Send one designated job to a fresh service twice: the first must
    compute the library's solution byte for byte, the second must come
    from the store. Both requests feed the ``serve.*`` per-layer metrics
    on the synth workloads."""
    body = json.dumps({"model": model_name, "power": budget,
                       "preset": "full", "seed": seed}).encode("utf-8")
    service = _Service(work_dir, [])
    errors: List[str] = []
    try:
        with traced(tracer) if tracer else nullcontext():
            before = tracer.snapshot() if tracer else None
            client = _Client(service.address)
            try:
                responses = [client.post(body, True, errors)
                             for _ in range(2)]
            finally:
                client.close()
            if tracer:
                out.store_totals = _add_totals(None, before,
                                               tracer.snapshot())
        for note in errors:
            out.fail(note)
        peeked: Dict[str, Optional[dict]] = {}
        computed, stored = (_account(out, r, service.store, peeked)
                            for r in responses)
        if computed is None or stored is None:
            return
        if computed["cache_hit"] or not stored["cache_hit"]:
            out.fail("served re-run: expected one computed and one stored "
                     "answer")
        served = service.store.peek(computed["key"])
        if served is None or (_solution_json(served["solution"])
                              != _solution_json(payload)):
            out.fail(f"{model_name}: the service's solution differs from "
                     "the library's")
    finally:
        service.close()


# ----------------------------------------------------------------------
# Serve workload: closed loop of keep-alive clients against the server
# ----------------------------------------------------------------------
SERVE_MODEL = "lenet5"
SERVE_CLIENTS = 2        # = cores of the reference host (nproc)
SERVE_PREWARMED = 6      # repeated keys, synthesized during set-up
SERVE_BLOCK = 5          # one fresh key in every block of five requests
SERVE_STRATA = 4         # fresh margins cycle through these slices
SERVE_DESIGNATED = 8     # fresh keys per client that define the quality


def _serve_body(margin: float, job_seed: int, floor: float) -> bytes:
    return json.dumps({
        "model": SERVE_MODEL, "power": floor * margin, "preset": "fast",
        "seed": job_seed,
    }).encode("utf-8")


def serve_requests(seed: int, client: int, floor: float,
                   prewarmed: List[bytes]) -> Iterator[Tuple[bytes, bool]]:
    """Endless (body, fresh?) stream of one client's requests.

    Every block of :data:`SERVE_BLOCK` requests holds exactly one fresh
    key, at a seeded position; fresh margins visit the
    :data:`SERVE_STRATA` slices of :data:`MARGIN_BAND` once per cycle,
    so each client's designated keys span the band evenly.
    """
    rng = random.Random(f"perfbench:{seed}:client:{client}")
    low, high = MARGIN_BAND
    width = (high - low) / SERVE_STRATA
    strata = list(range(SERVE_STRATA))
    while True:
        rng.shuffle(strata)
        for stratum in strata:
            fresh_at = rng.randrange(SERVE_BLOCK)
            for position in range(SERVE_BLOCK):
                if position == fresh_at:
                    margin = low + width * (stratum + rng.random())
                    yield _serve_body(margin, rng.randrange(1, 2 ** 31),
                                      floor), True
                else:
                    yield rng.choice(prewarmed), False


def _prewarmed_bodies(seed: int, floor: float) -> List[bytes]:
    rng = random.Random(f"perfbench:{seed}:prewarm")
    low, high = MARGIN_BAND
    return [_serve_body(rng.uniform(low, high), rng.randrange(1, 2 ** 31),
                        floor) for _ in range(SERVE_PREWARMED)]


def _client_loop(address, requests, deadline: float, minimum: int,
                 sink: List[_Response], errors: List[str]) -> None:
    client = _Client(address)
    try:
        while time.perf_counter() < deadline or len(sink) < minimum:
            body, fresh = next(requests)
            sink.append(client.post(body, fresh, errors))
    finally:
        client.close()


def _clients_ready() -> bool:
    return True


def _run_clients(address, seed: int, floor: float, prewarmed: List[bytes],
                 seconds: float):
    """Client-process entry point: the closed loop of every client.

    Returns each client's responses, transport errors, and the window's
    wall time. The clients run in their own process, as real clients
    do, so their parsing never competes with the server for its
    interpreter lock.
    """
    sinks: List[List[_Response]] = [[] for _ in range(SERVE_CLIENTS)]
    errors: List[str] = []
    minimum = SERVE_BLOCK * SERVE_DESIGNATED
    started = time.perf_counter()
    threads = [threading.Thread(
        target=_client_loop,
        args=(address, serve_requests(seed, client, floor, prewarmed),
              started + seconds, minimum, sinks[client], errors),
        name=f"perfbench-client-{client}")
        for client in range(SERVE_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sinks, errors, time.perf_counter() - started


def run_serve(seed: int, seconds: float, tracer: Optional[Tracer],
              work_dir: Path, speed: HostSpeed) -> Outcome:
    out = Outcome()
    setups = []
    service = None
    try:
        for _ in range(SETUP_REPEATS):
            if service is not None:
                service.close()
                service = None
            started = time.perf_counter()
            model = zoo.by_name(SERVE_MODEL)
            floor = DesignSpace(
                model, SynthesisConfig.fast()
            ).minimum_feasible_power()
            prewarmed = _prewarmed_bodies(seed, floor)
            service = _Service(work_dir, prewarmed)
            setups.append(time.perf_counter() - started)
            speed.cover(setups[-1])
        out.setup_s = statistics.median(setups)
        designated = _serve_window(out, service, seed, seconds, tracer,
                                   floor, prewarmed, speed)
        stored = [service.store.peek(record["key"])
                  for _response, record in designated]
    finally:
        if service is not None:
            service.close()
    _serve_checks(out, model, designated, stored, tracer, speed)
    return out


def _serve_window(out: Outcome, service: _Service, seed: int, seconds: float,
                  tracer: Optional[Tracer], floor: float,
                  prewarmed: List[bytes],
                  speed: HostSpeed) -> List[Tuple[_Response, dict]]:
    """Run the closed loop; return the designated (response, record)s.

    Calibrating inside the window would compete with the server, so the
    host is calibrated for the window's length right after it."""
    # Per-synthesis tracer deltas, keyed by the request that caused them,
    # so per-layer counts cover exactly the designated fresh keys.
    per_job: Dict[Tuple[float, int], Tuple] = {}
    original = Pimsyn.synthesize

    def attributed(self):
        before = tracer.snapshot()
        try:
            return original(self)
        finally:
            per_job[(self.config.total_power, self.config.seed)] = (
                _add_totals(None, before, tracer.snapshot()))

    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as clients:
        # Start the client process (and its imports) before the window.
        clients.submit(_clients_ready).result(timeout=120)
        with traced(tracer) if tracer else nullcontext():
            if tracer:
                Pimsyn.synthesize = attributed
                before = tracer.snapshot()
            try:
                sinks, errors, out.window_s = clients.submit(
                    _run_clients, service.address, seed, floor, prewarmed,
                    seconds,
                ).result(timeout=seconds + 120)
            finally:
                if tracer:
                    Pimsyn.synthesize = original
                    out.store_totals = _add_totals(None, before,
                                                   tracer.snapshot())
    speed.cover(out.window_s)
    out.peak_rss_mb = _peak_rss_mb()
    for note in errors:
        out.fail(note)

    designated = []
    peeked: Dict[str, Optional[dict]] = {}
    for sink in sinks:
        fresh_seen = 0
        for response in sink:
            out.attempted += 1
            fresh_seen += response.fresh
            record = _account(out, response, service.store, peeked)
            if record is None:
                continue
            out.latencies.append(response.latency)
            if not record["cache_hit"]:
                out.synth_s.append(record["report"]["wall_seconds"])
            if response.fresh and fresh_seen <= SERVE_DESIGNATED:
                designated.append((response, record))

    for response, record in designated:
        out.designs.append(_design_row(record["metrics"],
                                       record["total_power"]))
        out.reports.append(_report_row(record["report"]))
        if tracer:
            request = json.loads(response.body)
            delta = per_job.get((request["power"], request["seed"]))
            if delta is not None:
                out.layers = _add_totals(out.layers, ({}, {}, {}), delta)
    return designated


def _serve_checks(out: Outcome, model,
                  designated: List[Tuple[_Response, dict]],
                  stored: List[dict], tracer: Optional[Tracer],
                  speed: HostSpeed) -> None:
    """Cross-validate each designated design from its stored result, and
    re-run the first one through the library: it must match."""
    for payload in stored:
        solution = solution_from_payload(payload["solution"], model)
        with traced(tracer) if tracer else nullcontext():
            before = tracer.snapshot() if tracer else None
            started = time.perf_counter()
            xval = cross_validate(solution)
            first_s = time.perf_counter() - started
            if tracer:
                out.layers = _add_totals(out.layers, before, tracer.snapshot())
        out.xval_s.append(_xval_seconds(out, model, payload["solution"],
                                        xval, first_s))
        speed.cover(time.perf_counter() - started)
        out.xvals.append(_xval_row(xval))
    if designated:
        request = JobRequest.from_payload(json.loads(designated[0][0].body))
        again = Pimsyn(request.resolve_model(),
                       request.build_config()).synthesize()
        if _solution_json(again.to_payload()) != _solution_json(
                stored[0]["solution"]):
            out.fail("library re-run differs from the served solution")
