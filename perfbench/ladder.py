"""The traced run: the workload's inputs replayed down a ladder of front doors.

Every fresh operation of the workload's stream is timed from outside at
five rungs, in this order, on the same inputs:

1. the floor -- the bare CG loop (or its batched twin) on the scipy copy;
2. the solver function called directly (``repro.vr_conjugate_gradient``,
   ``repro.conjugate_gradient`` or ``repro.batched_cg``);
3. the library front door (``repro.solve`` / ``repro.solve_batched``);
4. ``SolverService.submit`` / ``submit_batched`` in this process, with the
   workload's service configuration;
5. HTTP to a server process with the same configuration.

A layer's time is one rung minus the rung below it, taken per operation;
the medians of the parts must add up to the top rung's median within
``SUM_TOLERANCE``.  Repeats and bad-option requests go to rung 5 only,
as in the gated run, so the warm-start hit ratio and the failed share
are those of the workload.  Around the ladder, rung 2 runs once more
under a ``Tracer`` for the phase split, ``repro.counting()`` gives exact
per-iteration counters over a steady-state window, and standalone
probes time the sparse kernels.
"""

from __future__ import annotations

import asyncio
import statistics
import sys
import time

import numpy as np

import floor
from client import ServerProcess, get_text, post_json
from measure import ITERATION_SLACK, check_http, payload, route
from spec import OPERATORS, RTOL, SERVICE_CONFIG, WORKLOADS, Stream, Workload, build_operator

#: Largest share of the top rung's median by which the sum of the layer
#: medians may miss it.
SUM_TOLERANCE = 0.10
#: Steady-state counter window: iterations ``[WINDOW[0], WINDOW[1])``.
#: It ends before the eager vr iteration without residual replacement
#: breaks down on the workload operator (after about 40 iterations).
WINDOW = (8, 24)
#: Seconds spent on each standalone kernel probe.
PROBE_SECONDS = 0.3

RUNGS = ("floor", "direct", "library", "service", "http")

#: The drift-triggered residual replacement ``repro.solve`` turns on for
#: vr; without it the eager iteration breaks down on ``poisson3d(32)``.
VR_DRIFT_TOL = 1e-6


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - start, out


def _probe_us(fn) -> float:
    """Median microseconds per call of ``fn`` over batches of calls."""
    fn()
    calls = 1
    while True:
        elapsed, _ = _timed(lambda: [fn() for _ in range(calls)])
        if elapsed > 0.01:
            break
        calls *= 2
    batches = []
    deadline = time.perf_counter() + PROBE_SECONDS
    while time.perf_counter() < deadline or len(batches) < 5:
        elapsed, _ = _timed(lambda: [fn() for _ in range(calls)])
        batches.append(elapsed / calls * 1e6)
    return statistics.median(batches)


class Replay:
    """The program's objects for one workload, one per rung."""

    def __init__(self, workload: Workload, server: ServerProcess) -> None:
        import repro
        from repro.serve import ServiceConfig, SolverService

        self.repro = repro
        self.workload = workload
        self.server = server
        self.ops = {}
        self.scipy_ops = {}
        for name in workload.operators:
            self.ops[name] = build_operator(name)
            self.scipy_ops[name] = floor.laplacian(*OPERATORS[name])
        self.stop = repro.StoppingCriterion(rtol=RTOL)
        self.service = SolverService(ServiceConfig(**SERVICE_CONFIG))
        if workload.block:
            self.direct = repro.batched_cg
        elif workload.method == "vr":
            self.direct = repro.vr_conjugate_gradient
        else:
            self.direct = repro.conjugate_gradient

    # -- rungs 2 and 3 -------------------------------------------------
    def call_direct(self, name: str, b, pure: bool = False, **extra):
        options = dict(self.workload.options)
        if self.workload.method == "vr" and not pure:
            options["replace_drift_tol"] = VR_DRIFT_TOL
        return self.direct(self.ops[name], b, stop=extra.pop("stop", self.stop), **options, **extra)

    def call_library(self, name: str, b, **extra):
        front = self.repro.solve_batched if self.workload.block else self.repro.solve
        return front(self.ops[name], b, self.workload.method, stop=self.stop, **self.workload.options, **extra)

    # -- rung 4 --------------------------------------------------------
    async def call_service(self, name: str, b) -> tuple[float, list]:
        from repro.serve import SolveRequest

        start = time.perf_counter()
        columns = b.T if self.workload.block else [b]
        requests = [
            SolveRequest(
                a=self.ops[name], b=np.ascontiguousarray(col), method=self.workload.method,
                stop=self.stop, options=dict(self.workload.options),
            )
            for col in columns
        ]
        if self.workload.block:
            responses = await self.service.submit_batched(requests)
        else:
            responses = [await self.service.submit(requests[0])]
        return time.perf_counter() - start, responses

    # -- checks ----------------------------------------------------------
    def solution_ok(self, name: str, b, result) -> bool:
        return bool(result.converged) and floor.residual_ok(self.scipy_ops[name], b, result.x, RTOL)

    def responses_ok(self, name: str, b, responses) -> bool:
        if not all(r.ok and r.result.converged for r in responses):
            return False
        x = np.stack([r.result.x for r in responses], axis=1)
        return floor.residual_ok(self.scipy_ops[name], b, x if self.workload.block else x[:, 0], RTOL)


COUNTED = ("matvecs", "dots", "reductions", "scalar_flops", "words_moved")


def _counted(replay: Replay, name: str, b, **extra):
    with replay.repro.counting() as counts:
        result = replay.call_direct(name, b, **extra)
    return counts.snapshot(), result


def solve_counters(replay: Replay, name: str, b) -> dict[str, float]:
    """Exact operation totals of one rung-2 solve per (column-)iteration."""
    counts, result = _counted(replay, name, b)
    steps = int(np.sum(result.column_iterations)) if replay.workload.block else result.iterations
    return {field: getattr(counts, field) / steps for field in COUNTED}


def steady_counters(replay: Replay, name: str, b) -> dict[str, float]:
    """Exact counts per (column-)iteration of the bare iteration over the
    steady-state window: the difference of two truncated solves, with
    residual replacement off so that only the iteration itself counts."""
    totals = []
    for iterations in WINDOW:
        stop = replay.repro.StoppingCriterion(rtol=1e-15, max_iter=iterations)
        counts, _ = _counted(replay, name, b, stop=stop, pure=True)
        totals.append(counts)
    steps = (WINDOW[1] - WINDOW[0]) * (replay.workload.block or 1)
    return {
        field: (getattr(totals[1], field) - getattr(totals[0], field)) / steps
        for field in COUNTED
    }


def kernel_probes(replay: Replay, name: str, rng) -> dict[str, float]:
    a, scipy_a = replay.ops[name], replay.scipy_ops[name]
    x = rng.standard_normal(a.nrows)
    y = np.empty_like(x)
    matvec_us = _probe_us(lambda: a.matvec(x, out=y))
    with replay.repro.counting() as counts:
        a.matvec(x, out=y)
    workspace = replay.repro.Workspace()
    return {
        "sparse.matvec_us": matvec_us,
        "sparse.scipy_matvec_us": _probe_us(lambda: scipy_a @ x),
        "sparse.matvec_gbps_computed": counts.words_moved * 8 / (matvec_us * 1e-6) / 1e9,
        "backend.workspace_get_us": _probe_us(lambda: workspace.get("r", a.nrows)),
    }


class Record:
    """Per-operation samples of the traced run."""

    def __init__(self) -> None:
        self.rungs = {rung: [] for rung in RUNGS}
        self.floor_ms = []
        self.iterations = []
        self.sweeps = []
        self.block_probe = []
        self.phases = []
        self.traced_ratio = []
        self.request_bytes = []
        self.response_bytes = []
        self.queue_seconds = []
        self.widths = []
        self.repeats = 0
        self.warm_hits = 0
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0

    def fail(self, expected: bool) -> None:
        self.failed += 1
        self.unexpected += not expected


def phase_split(replay: Replay, name: str, b) -> tuple[dict[str, float], int]:
    """Tracer phase totals (seconds) and iterations of one traced vr solve
    (k=2, with the front door's drift replacement) of ``b``, or of its
    first column for a block.  vr is the library's default method and has
    every phase; cg has no recurrences and ``batched_cg`` opens no phase
    spans, so the split is taken from vr on every workload."""
    from repro.telemetry import Telemetry
    from repro.telemetry.sinks import NullSink

    tracer = replay.repro.Tracer()
    result = replay.repro.vr_conjugate_gradient(
        replay.ops[name], b[:, 0] if b.ndim == 2 else b, k=2, replace_drift_tol=VR_DRIFT_TOL,
        stop=replay.stop, telemetry=Telemetry(NullSink(), tracer=tracer),
    )
    totals: dict[str, float] = {}
    for root in tracer.spans():
        for span in root.walk():
            if span.name in ("startup", "recurrence", "axpy", "local_dot", "matvec"):
                totals[span.name] = totals.get(span.name, 0.0) + span.seconds
    return totals, result.iterations


async def replay_fresh(replay: Replay, record: Record, names: list[str], requests, reverse: bool) -> None:
    """All five rungs for one fresh operation per connection.  The rungs
    run bottom-up or, when ``reverse``, top-down, so that a drift in host
    speed does not favour one end of the ladder."""
    workload = replay.workload
    bs = [r.b for r in requests]
    solver_floor = floor.block_cg if workload.block else floor.cg

    async def rung_floor():
        return [_timed(solver_floor, replay.scipy_ops[n], b, RTOL) for n, b in zip(names, bs)]

    async def rung_direct():
        return [_timed(replay.call_direct, n, b) for n, b in zip(names, bs)]

    async def rung_library():
        return [_timed(replay.call_library, n, b) for n, b in zip(names, bs)]

    async def rung_service():
        return await asyncio.gather(*(replay.call_service(n, b) for n, b in zip(names, bs)))

    async def rung_http():
        posted = await asyncio.gather(
            *(
                post_json(replay.server.port, route(workload), payload(workload, n, r))
                for n, r in zip(names, requests)
            )
        )
        return [(seconds, rest) for seconds, *rest in posted]

    steps = dict(zip(RUNGS, (rung_floor, rung_direct, rung_library, rung_service, rung_http)))
    out = {}
    for rung in reversed(RUNGS) if reverse else RUNGS:
        out[rung] = await steps[rung]()
    for i, (name, request) in enumerate(zip(names, requests)):
        b = request.b
        (t_floor, (_, floor_iterations)), (t_direct, direct), (t_library, library), (
            t_service, responses), (t_http, (status, response, request_bytes, raw)) = (
            out[rung][i] for rung in RUNGS
        )
        record.attempted += 1
        ok = (
            replay.solution_ok(name, b, direct)
            and replay.solution_ok(name, b, library)
            and replay.responses_ok(name, b, responses)
            and check_http(workload, request, status, response, replay.scipy_ops[name])[0]
        )
        if workload.method == "vr":
            ok &= abs(direct.iterations - floor_iterations) <= ITERATION_SLACK
        if not ok:
            record.fail(expected=False)
            continue
        for rung, seconds in zip(RUNGS, (t_floor, t_direct, t_library, t_service, t_http)):
            record.rungs[rung].append(seconds)
        # Around the ladder, not in it: the traced front door, the phase
        # split of rung 2, and a width-1 block solve for single-RHS loads.
        t_traced, _ = _timed(replay.call_library, name, b, trace=replay.repro.Tracer())
        record.traced_ratio.append(t_traced / t_library)
        iterations = int(np.sum(direct.column_iterations)) if workload.block else direct.iterations
        record.phases.append(phase_split(replay, name, b))
        record.sweeps.append(direct.iterations)
        record.iterations.append(iterations)
        if not workload.block:
            t_probe, probe = _timed(replay.repro.batched_cg, replay.ops[name], b[:, None], stop=replay.stop)
            record.block_probe.append(t_probe / probe.iterations)
        json_seconds = floor.json_round_trip(payload(workload, name, request), raw)
        record.floor_ms.append((t_floor + (json_seconds if workload.front == "http" else 0.0)) * 1e3)
        record.request_bytes.append(request_bytes)
        record.response_bytes.append(len(raw))
        columns = response["results"] if workload.block else [response]
        record.queue_seconds.extend(c["queue_seconds"] for c in columns)
        record.widths.extend(c["coalesce_width"] for c in columns)


async def replay_http_only(replay: Replay, record: Record, names: list[str], requests) -> None:
    """Repeats and bad-option requests: rung 5 only, as in the workload."""
    workload = replay.workload
    posted = await asyncio.gather(
        *(
            post_json(replay.server.port, route(workload), payload(workload, n, r))
            for n, r in zip(names, requests)
        )
    )
    for name, request, (_, status, response, _, _) in zip(names, requests, posted):
        record.attempted += 1
        ok, _ = check_http(workload, request, status, response, replay.scipy_ops[name])
        if not ok:
            record.fail(expected=request.kind == "bad")
        elif request.kind == "repeat":
            record.repeats += 1
            record.warm_hits += bool(response.get("warm_started"))


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def summarize(workload: Workload, record: Record, counters: dict, probes: dict, inflight_peak: float) -> tuple[dict, float]:
    rungs = record.rungs
    diffs = {
        lower: [hi - lo for hi, lo in zip(rungs[upper], rungs[lower])]
        for lower, upper in zip(RUNGS, RUNGS[1:])
    }
    parts = [_median(rungs["floor"])] + [_median(diffs[r]) for r in RUNGS[:-1]]
    top = _median(rungs["http"])
    unexplained = abs(sum(parts) - top) / top if top else float("inf")
    print(
        f"{workload.name} ladder medians (ms): "
        + ", ".join(f"{n}={p * 1e3:.3f}" for n, p in zip(("floor", "core", "registry", "service", "wire"), parts))
        + f"; sum={sum(parts) * 1e3:.3f} top={top * 1e3:.3f} ({len(rungs['http'])} operations)",
        file=sys.stderr,
    )
    per_iter = [t / i for t, i in zip(rungs["direct"], record.iterations)]
    per_sweep = [t / s for t, s in zip(rungs["direct"], record.sweeps)]

    def phase(name: str) -> float:
        return _median([p.get(name, 0.0) / i for p, i in record.phases]) * 1e6

    front_rung = "library" if workload.front == "library" else "http"
    metrics = {
        "floor.ms.p50": (_median(record.floor_ms), "ms"),
        "host.latency_ms.p50": (_median(rungs[front_rung]) * 1e3, "ms"),
        "http.wire_ms.p50": (_median(diffs["service"]) * 1e3, "ms"),
        "http.request_kb": (_mean(record.request_bytes) / 1024, "KB"),
        "http.response_kb": (_mean(record.response_bytes) / 1024, "KB"),
        "service.queue_ms.p50": (_median(record.queue_seconds) * 1e3, "ms"),
        "service.overhead_ms.p50": (_median(diffs["library"]) * 1e3, "ms"),
        "service.coalesce_width.mean": (_mean(record.widths), "count"),
        "service.warm_hit_ratio": (record.warm_hits / record.repeats if record.repeats else 0.0, "ratio"),
        "service.dispatch_inflight_peak": (inflight_peak, "count"),
        "registry.overhead_us": (_median(diffs["direct"]) * 1e6, "us"),
        "core.us_per_iter": (_median(per_iter) * 1e6, "us"),
        "core.startup_ms": (_median([p.get("startup", 0.0) for p, _ in record.phases]) * 1e3, "ms"),
        "core.recurrence_us_per_iter": (phase("recurrence"), "us"),
        "core.axpy_us_per_iter": (phase("axpy"), "us"),
        "core.dot_us_per_iter": (phase("local_dot"), "us"),
        "sparse.matvec_us_per_iter": (phase("matvec"), "us"),
        "sparse.matvec_us": (probes["sparse.matvec_us"], "us"),
        "sparse.scipy_matvec_us": (probes["sparse.scipy_matvec_us"], "us"),
        "sparse.matvec_gbps_computed": (probes["sparse.matvec_gbps_computed"], "GB/s"),
        "backend.workspace_get_us": (probes["backend.workspace_get_us"], "us"),
        "batched.us_per_block_iter": (
            (_median(per_sweep) if workload.block else _median(record.block_probe)) * 1e6, "us"
        ),
        "core.matvecs_per_iter": (counters["matvecs"], "count"),
        "core.direct_dots_per_iter": (counters["dots"], "count"),
        "core.reductions_per_iter": (counters["reductions"], "count"),
        "core.scalar_flops_per_iter": (counters["scalar_flops"], "count"),
        "core.words_moved_per_iter": (counters["words_moved"], "count"),
        "trace.overhead_x": (_median(record.traced_ratio), "x"),
        "ladder.unexplained_pct": (unexplained * 100, "%"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}, unexplained


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


async def _run(workload: Workload, seed: int, seconds: float) -> dict:
    server = ServerProcess(workload.operators)
    try:
        replay = Replay(workload, server)
        names = list(workload.connections)
        streams = [Stream(workload, i, seed + 1) for i in range(len(names))]
        window_b = Stream(workload, 0, seed).next().b
        counters = solve_counters(replay, names[0], window_b)
        steady = steady_counters(replay, names[0], window_b)
        # C5/C6: one matvec and two direct inner products per steady-state
        # iteration; and the exact counters repeat exactly.
        counters_ok = (
            counters == solve_counters(replay, names[0], window_b)
            and steady == steady_counters(replay, names[0], window_b)
            and steady["matvecs"] == 1.0
            and steady["dots"] == 2.0
        )
        print(
            f"{workload.name} steady-state window {WINDOW}: "
            + ", ".join(f"{k}={v:g}" for k, v in steady.items()),
            file=sys.stderr,
        )
        probes = kernel_probes(replay, names[0], np.random.default_rng(seed))
        record = Record()
        ladders = 0
        start = time.perf_counter()
        try:
            while True:
                for _ in range(workload.round_ops):
                    requests = [s.next() for s in streams]
                    if requests[0].kind == "fresh":
                        await replay_fresh(replay, record, names, requests, reverse=ladders % 2 == 1)
                        ladders += 1
                    else:
                        await replay_http_only(replay, record, names, requests)
                if time.perf_counter() - start >= seconds:
                    break
        finally:
            await replay.service.drain()
        metrics_text = await get_text(server.port, "/metrics")
    finally:
        server.stop()
    inflight_peak = next(
        float(line.split()[-1]) for line in metrics_text.splitlines()
        if line.startswith("repro_serve_dispatch_inflight_peak")
    )
    metrics, unexplained = summarize(workload, record, counters, probes, inflight_peak)
    if unexplained > SUM_TOLERANCE:
        print(
            f"{workload.name}: layer medians miss the top rung by {unexplained:.1%}, "
            f"more than the {SUM_TOLERANCE:.0%} tolerance; the split is too noisy to read",
            file=sys.stderr,
        )
    return {
        "correct": record.unexpected == 0 and counters_ok,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": metrics,
    }


def run(name: str, seed: int, seconds: float) -> dict:
    return asyncio.run(_run(WORKLOADS[name], seed, seconds))
