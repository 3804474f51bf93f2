"""Child processes and the loopback HTTP client.

The server runs in its own interpreter (``server.py``) so that the
client, the floor and the checks never share a process or an
interpreter lock with the program under test.  Each request opens its
own connection, as the server answers with ``Connection: close``.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Threads per BLAS call in every benchmark process.  With the default
#: threading, a large floor solve on two cores ran slower and its
#: ratio spread doubled.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

START_TIMEOUT = 60.0


def child_env() -> dict[str, str]:
    """Environment for benchmark children: BLAS pinned, the repo's
    sources importable, and no inherited switches that change what the
    program does (kernel backend, postmortem writes)."""
    env = {
        k: v for k, v in os.environ.items()
        if k not in ("REPRO_BACKEND", "REPRO_POSTMORTEM_DIR")
    }
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def _read_line(proc: subprocess.Popen, timeout: float) -> dict:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    line = proc.stdout.readline() if ready else b""
    if not line:
        raise RuntimeError(f"child {proc.args!r} printed nothing (exit {proc.poll()})")
    return json.loads(line)


def run_probe(*args: str) -> dict:
    """Run ``probe.py`` in a fresh interpreter; return its JSON line with
    ``started_at`` (the monotonic clock just before the spawn) added."""
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), *args],
        stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
    )
    try:
        out = _read_line(proc, START_TIMEOUT)
    finally:
        _reap(proc)
    out["started_at"] = started
    return out


def _reap(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


class ServerProcess:
    """``server.py`` serving ``names``; started on construction."""

    def __init__(self, names: tuple[str, ...]) -> None:
        self.started_at = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), *names],
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
        )
        try:
            self.port = int(_read_line(self.proc, START_TIMEOUT)["port"])
        except BaseException:
            _reap(self.proc)
            raise

    def stop(self) -> None:
        _reap(self.proc)


def vmhwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line")


async def exchange(port: int, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
    """One HTTP/1.1 request on a fresh loopback connection; returns
    ``(status, body)``."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            (
                f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin1")
            + body
        )
        await writer.drain()
        data = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, payload = data.partition(b"\r\n\r\n")
    return int(head.split(None, 2)[1]), payload


async def post_json(port: int, path: str, payload: dict) -> tuple[float, int, dict, int, bytes]:
    """Encode, post and decode one request, timed from the first byte of
    encoding to the decoded response.  Returns ``(seconds, status,
    response, request_bytes, response_body)``."""
    start = time.perf_counter()
    body = json.dumps(payload).encode()
    status, raw = await exchange(port, "POST", path, body)
    response = json.loads(raw)
    return time.perf_counter() - start, status, response, len(body), raw


async def get_text(port: int, path: str) -> str:
    status, raw = await exchange(port, "GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return raw.decode()
