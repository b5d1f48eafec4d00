"""Fixtures for serve tests: a thread-hosted in-process daemon.

The suite has no async test runner, so the server's event loop runs on
a dedicated thread and tests talk to it through the blocking
:class:`~repro.serve.client.ServeClient` — exactly the shape of a real
deployment, minus the process boundary (``test_drain.py`` covers the
real CLI daemon as a subprocess).
"""

import asyncio
import threading

import pytest

from repro.serve.client import ServeClient
from repro.serve.server import DeclusterServer, ServeConfig, parse_spec

SPEC = "ecc:16x16:8"
DIMS = (16, 16)
NUM_DISKS = 8
SCHEME = "ecc"


class ServerHarness:
    """One in-process daemon on a unix socket, drained at teardown."""

    def __init__(self, tmp_path, **config_kwargs):
        self.socket_path = str(tmp_path / "serve.sock")
        kwargs = {
            "specs": [parse_spec(SPEC)],
            "unix_path": self.socket_path,
        }
        kwargs.update(config_kwargs)
        self.config = ServeConfig(**kwargs)
        self.server = DeclusterServer(self.config)
        self.loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="serve-test-loop", daemon=True
        )

    def _run(self):
        asyncio.set_event_loop(self.loop)

        async def main():
            await self.server.start()
            self._started.set()
            await self.server.serve_until_shutdown()

        try:
            self.loop.run_until_complete(main())
        finally:
            self.loop.close()

    def start(self):
        self._thread.start()
        assert self._started.wait(60), "server never started"
        return self

    def client(self, timeout=30.0):
        return ServeClient(unix_path=self.socket_path, timeout=timeout)

    def stop(self, timeout=30.0):
        if self._thread.is_alive():
            self.loop.call_soon_threadsafe(self.server.request_shutdown)
            self._thread.join(timeout)
        assert not self._thread.is_alive(), "server failed to drain"


@pytest.fixture
def serve_harness(tmp_path):
    harness = ServerHarness(tmp_path).start()
    try:
        yield harness
    finally:
        harness.stop()
