"""Serve the named workload operators over HTTP until SIGTERM.

    python3 perfbench/server.py p24 p20

Builds each operator with ``repro``, starts ``SolverService`` behind
``HttpFrontend`` on an ephemeral loopback port with the benchmark's
service configuration, and prints one JSON line ``{"port": N}`` once it
accepts connections.  SIGTERM (or the parent going away) drains the
service and exits 0.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys

from spec import SERVICE_CONFIG, build_operator


async def serve(names: list[str]) -> None:
    from repro.serve import HttpFrontend, ServiceConfig, SolverService

    service = SolverService(ServiceConfig(**SERVICE_CONFIG))
    for name in names:
        service.register_operator(name, build_operator(name))
    frontend = HttpFrontend(service, "127.0.0.1", 0)
    await frontend.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    print(json.dumps({"port": frontend.address[1]}), flush=True)
    parent = os.getppid()
    try:
        while not stop.is_set() and os.getppid() == parent:
            try:
                await asyncio.wait_for(stop.wait(), timeout=1.0)
            except asyncio.TimeoutError:
                pass
    finally:
        await frontend.aclose()


if __name__ == "__main__":
    asyncio.run(serve(sys.argv[1:]))
