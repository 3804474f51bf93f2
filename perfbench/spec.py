"""Workload definitions and their seeded input streams.

A workload is a set of operators, a method, a front door and a request
mix.  Inputs come only from ``--seed``: the same seed gives the same
right-hand sides in the same order.  Every run attempts whole *rounds*
of the mix, so the share of repeats and of bad-option requests is the
same in every run whatever its length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

RTOL = 1e-8

#: Grid dimensions of every operator a workload can use, by name.
OPERATORS = {
    "p3d32": (32, 32, 32),
    "p24": (24, 24),
    "p20": (20, 20),
}

#: The server (and in-process service) configuration: the ``repro serve``
#: defaults (2 ms coalesce window, width 16, queue 64, warm-start 64) with
#: two dispatch workers, one per core of the reference host.
SERVICE_CONFIG = {
    "max_queue_depth": 64,
    "coalesce_window": 0.002,
    "max_coalesce_width": 16,
    "workers": 2,
    "warm_start": 64,
}

#: ``http_solve`` mix, per connection and round: request ``i`` repeats the
#: right-hand side of request ``i - 3`` when ``i % 4 == 3``, and the last
#: request of the round carries an option no method accepts.
ROUND_REQUESTS = 50
REPEAT_EVERY = 4
BAD_OPTIONS = {"bogus": 1}


def build_operator(name: str):
    """The program's own operator ``name`` (``repro.poisson2d``/``poisson3d``)."""
    import repro

    dims = OPERATORS[name]
    return repro.poisson3d(*dims) if len(dims) == 3 else repro.poisson2d(*dims)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Operator of each closed-loop connection (one per concurrent client).
    connections: tuple[str, ...]
    method: str
    options: dict = field(default_factory=dict)
    #: Columns per request; 0 for a single right-hand side.
    block: int = 0
    #: ``"library"`` calls ``repro.solve``; ``"http"`` posts to a server.
    front: str = "http"
    #: Operations per connection in one round.
    round_ops: int = 1
    #: Percentile reported as ``latency_x_floor.tail`` and the fewest timed
    #: samples a run takes so that ten or more lie beyond it.
    tail_pct: int = 95
    min_samples: int = 200

    @property
    def operators(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(self.connections))


WORKLOADS = {
    "lib_vr_3d": Workload(
        "lib_vr_3d", ("p3d32",), "vr", {"k": 2}, front="library",
        tail_pct=90, min_samples=100,
    ),
    "http_solve": Workload(
        "http_solve", ("p24", "p20"), "cg", round_ops=ROUND_REQUESTS,
        tail_pct=99, min_samples=1000,
    ),
    "http_batched": Workload(
        "http_batched", ("p24",), "cg", block=16,
        tail_pct=95, min_samples=200,
    ),
}


@dataclass
class Request:
    """One operation of a connection's stream."""

    kind: str  # "fresh", "repeat" or "bad"
    b: np.ndarray  # (n,) or (n, block)


class Stream:
    """The seeded request stream of one connection."""

    def __init__(self, workload: Workload, connection: int, seed: int) -> None:
        self.workload = workload
        self.n = int(np.prod(OPERATORS[workload.connections[connection]]))
        self.rng = np.random.default_rng([seed, connection])
        self.index = 0
        self.history: list[np.ndarray] = []

    def _fresh(self) -> np.ndarray:
        shape = (self.n, self.workload.block) if self.workload.block else (self.n,)
        return self.rng.standard_normal(shape)

    def next(self) -> Request:
        i = self.index % self.workload.round_ops
        self.index += 1
        if self.workload.round_ops == 1:
            return Request("fresh", self._fresh())
        if i == self.workload.round_ops - 1:
            return Request("bad", self._fresh())
        if i % REPEAT_EVERY == REPEAT_EVERY - 1:
            return Request("repeat", self.history[-(REPEAT_EVERY - 1)])
        b = self._fresh()
        self.history = self.history[-REPEAT_EVERY:] + [b]
        return Request("fresh", b)


def tail_rank(count: int, pct: int) -> int:
    """Zero-based nearest-rank index of the ``pct`` percentile."""
    return max(0, min(count - 1, -(-count * pct // 100) - 1))


def percentile(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[tail_rank(len(ordered), pct)]
