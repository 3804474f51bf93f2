"""The gated run: end-to-end metrics, each timing paired with a floor.

Every operation goes through a public front door of the program
(``repro.solve``, ``POST /solve`` or ``POST /solve_batched``) and is
followed by its floor on the same inputs: the bare CG loop (or its
batched twin) on the benchmark's own scipy copy of the operator, plus,
on HTTP workloads, one JSON encode/decode of both bodies.  Latency is
reported as the ratio of the two, which cancels the host's speed swings.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import floor
from client import ServerProcess, get_text, post_json, run_probe, vmhwm_mb
from spec import BAD_OPTIONS, OPERATORS, RTOL, WORKLOADS, Stream, Workload, build_operator, percentile

#: Fresh starts per run behind ``setup_s`` (the median is reported).
SETUP_STARTS = 7
#: Operations per connection run before timing starts (not counted).
WARMUP_OPS = 3
#: The most the Van Rosendale iteration count may differ from the floor
#: CG's on the same right-hand side.
ITERATION_SLACK = 3


def payload(workload: Workload, operator: str, request) -> dict:
    """The JSON body of one HTTP operation."""
    body = {"operator": operator, "method": workload.method, "rtol": RTOL, "return_x": True}
    if workload.block:
        body["bs"] = request.b.T.tolist()
    else:
        body["b"] = request.b.tolist()
    options = BAD_OPTIONS if request.kind == "bad" else workload.options
    if options:
        body["options"] = dict(options)
    return body


def route(workload: Workload) -> str:
    return "/solve_batched" if workload.block else "/solve"


def check_http(workload: Workload, request, status: int, response: dict, a) -> tuple[bool, list[int]]:
    """Whether one HTTP answer is right; returns ``(ok, iterations per
    solve)``.  A bad-option request is right when it gets a 400 that
    names the rejected option."""
    if request.kind == "bad":
        error = str(response.get("error", ""))
        return status == 400 and all(name in error for name in BAD_OPTIONS), []
    if status != 200 or response.get("status") != "ok":
        return False, []
    records = response["results"] if workload.block else [response]
    if workload.block and len(records) != workload.block:
        return False, []
    if not all(r.get("status") == "ok" and r.get("converged") for r in records):
        return False, []
    x = np.array([r["x"] for r in records], dtype=np.float64)
    x = x.T if workload.block else x[0]
    return floor.residual_ok(a, request.b, x, RTOL), [int(r["iterations"]) for r in records]


def floor_seconds(workload: Workload, a, b: np.ndarray) -> tuple[float, int]:
    """Seconds and iterations of the bare CG floor on one input."""
    start = time.perf_counter()
    if workload.block:
        _, iterations = floor.block_cg(a, b, RTOL)
    else:
        _, iterations = floor.cg(a, b, RTOL)
    return time.perf_counter() - start, iterations


@dataclass
class Tally:
    """What a run measured, operation by operation."""

    ratios: list[float] = field(default_factory=list)
    floor_per_solve: list[float] = field(default_factory=list)
    program_seconds: float = 0.0
    solves: int = 0
    iterations: int = 0
    attempted: int = 0
    failed: int = 0
    unexpected: int = 0
    setup: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    run_checks_ok: bool = True

    def fail(self, expected: bool) -> None:
        self.failed += 1
        if not expected:
            self.unexpected += 1

    def result(self, workload: Workload) -> dict:
        if not self.ratios:
            raise RuntimeError("no operation succeeded")
        # Mean, not median: with the floor interleaved, total floor time
        # over total program time cancels the host's speed swings.
        floor_solve = statistics.fmean(self.floor_per_solve)
        print(
            f"{workload.name}: {len(self.ratios)} timed samples, tail is "
            f"p{workload.tail_pct}", file=sys.stderr,
        )
        metrics = {
            "latency_x_floor.p50": (statistics.median(self.ratios), "x_floor"),
            "latency_x_floor.tail": (percentile(self.ratios, workload.tail_pct), "x_floor"),
            "throughput_x_floor": (self.solves / self.program_seconds * floor_solve, "x_floor"),
            "iterations_per_solve": (self.iterations / self.solves, "count"),
            "setup_s": (statistics.median(self.setup), "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }
        return {
            "correct": self.unexpected == 0 and self.run_checks_ok,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def _enough(tally: Tally, workload: Workload, start: float, seconds: float) -> bool:
    return (
        time.perf_counter() - start >= seconds
        and len(tally.ratios) >= workload.min_samples
    )


def run_library(workload: Workload, seed: int, seconds: float, setup_starts: int = SETUP_STARTS) -> dict:
    import repro

    tally = Tally()
    for _ in range(setup_starts):
        probe = run_probe(str(seed))
        tally.setup.append(probe["answered_at"] - probe["started_at"])
        tally.run_checks_ok &= bool(probe["ok"])
    name = workload.connections[0]
    a = build_operator(name)
    scipy_a = floor.laplacian(*OPERATORS[name])
    stop = repro.StoppingCriterion(rtol=RTOL)
    stream = Stream(workload, 0, seed + 1)

    def solve(b):
        return repro.solve(a, b, workload.method, stop=stop, **workload.options)

    for _ in range(WARMUP_OPS):
        b = stream.next().b
        solve(b)
        floor_seconds(workload, scipy_a, b)
    start = time.perf_counter()
    while not _enough(tally, workload, start, seconds):
        b = stream.next().b
        tally.attempted += 1
        floor_first = tally.attempted % 2 == 0
        if floor_first:
            floor_s, floor_iterations = floor_seconds(workload, scipy_a, b)
        t0 = time.perf_counter()
        result = solve(b)
        elapsed = time.perf_counter() - t0
        if not floor_first:
            floor_s, floor_iterations = floor_seconds(workload, scipy_a, b)
        # C3-C6: the restructured iteration takes the classical CG's steps.
        ok = (
            result.converged
            and abs(result.iterations - floor_iterations) <= ITERATION_SLACK
            and floor.residual_ok(scipy_a, b, result.x, RTOL)
        )
        if not ok:
            tally.fail(expected=False)
            continue
        tally.ratios.append(elapsed / floor_s)
        tally.floor_per_solve.append(floor_s)
        tally.program_seconds += elapsed
        tally.solves += 1
        tally.iterations += result.iterations
    tally.peak_rss_mb = vmhwm_mb()
    return tally.result(workload)


async def _start_server(workload: Workload, tally: Tally, seed: int) -> ServerProcess:
    """One fresh server start timed to its first verified answer."""
    server = ServerProcess(workload.operators)
    try:
        name = workload.connections[0]
        request = Stream(workload, 0, seed).next()
        _, status, response, _, _ = await post_json(
            server.port, route(workload), payload(workload, name, request)
        )
        answered = time.monotonic()
        ok, _ = check_http(workload, request, status, response, floor.laplacian(*OPERATORS[name]))
    except BaseException:
        server.stop()
        raise
    tally.setup.append(answered - server.started_at)
    tally.run_checks_ok &= ok
    return server


async def _run_http(workload: Workload, seed: int, seconds: float, setup_starts: int) -> dict:
    tally = Tally()
    for _ in range(setup_starts - 1):
        (await _start_server(workload, tally, seed)).stop()
    server = await _start_server(workload, tally, seed)
    per_request = workload.block or 1
    sent = per_request  # the set-up request
    try:
        ops = [floor.laplacian(*OPERATORS[name]) for name in workload.connections]

        async def one(i: int, request):
            body = payload(workload, workload.connections[i], request)
            return body, await post_json(server.port, route(workload), body)

        async def round_of_pairs(streams: list[Stream], count: int, timed: bool) -> None:
            nonlocal sent
            for _ in range(count):
                requests = [s.next() for s in streams]
                t0 = time.perf_counter()
                outcomes = await asyncio.gather(*(one(i, r) for i, r in enumerate(requests)))
                wall = time.perf_counter() - t0
                sent += len(requests) * per_request
                if not timed:
                    continue
                tally.program_seconds += wall
                for i, (request, (body, (elapsed, status, response, _, raw))) in enumerate(
                    zip(requests, outcomes)
                ):
                    tally.attempted += 1
                    ok, iterations = check_http(workload, request, status, response, ops[i])
                    if not ok:
                        tally.fail(expected=request.kind == "bad")
                        continue
                    if request.kind == "bad":
                        continue
                    floor_s, _ = floor_seconds(workload, ops[i], request.b)
                    floor_s += floor.json_round_trip(body, raw)
                    tally.ratios.append(elapsed / floor_s)
                    tally.floor_per_solve.append(floor_s / len(iterations))
                    tally.solves += len(iterations)
                    tally.iterations += sum(iterations)

        def streams(offset: int) -> list[Stream]:
            return [Stream(workload, i, seed + offset) for i in range(len(ops))]

        # Warm up on a throwaway stream so the timed stream starts a round.
        await round_of_pairs(streams(2), WARMUP_OPS, timed=False)
        measured = streams(1)
        start = time.perf_counter()
        while not _enough(tally, workload, start, seconds):
            await round_of_pairs(measured, workload.round_ops, timed=True)
        status = json.loads(await get_text(server.port, "/status"))
        tally.run_checks_ok &= (
            status["served"] + status["errors"] == sent and status["shed"] == 0
        )
        tally.peak_rss_mb = vmhwm_mb(server.proc.pid)
    finally:
        server.stop()
    return tally.result(workload)


def run_http(workload: Workload, seed: int, seconds: float, setup_starts: int = SETUP_STARTS) -> dict:
    return asyncio.run(_run_http(workload, seed, seconds, setup_starts))


def run(name: str, seed: int, seconds: float, setup_starts: int = SETUP_STARTS) -> dict:
    workload = WORKLOADS[name]
    runner = run_library if workload.front == "library" else run_http
    return runner(workload, seed, seconds, setup_starts)
