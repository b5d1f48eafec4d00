"""Subprocess integration: the real CLI daemon and its SIGTERM drain.

Starts ``repro serve`` as a child process exactly as a supervisor
would, puts a batch in flight, sends SIGTERM, and asserts the drain
contract: the in-flight batch is still answered in full, the daemon
exits 0 and writes its metrics export, and it never started a child
process of its own (batches run on its thread pool).
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time

import numpy as np

from repro.core.cache import global_cache
from repro.core.grid import Grid
from repro.core.query import QueryBatch
from repro.serve import protocol
from repro.serve.client import ServeClient

#: A 1-D grid keeps the request small (16 bytes a query) while the
#: 8-byte-a-query response still dwarfs any socket buffer, so the
#: daemon cannot finish writing it until the client reads.
SPEC = "dm:4096:8"
DIMS = (4096,)
NUM_DISKS = 8
COUNT = 1 << 18


def _start_daemon(tmp_path):
    socket_path = str(tmp_path / "drain.sock")
    metrics_path = str(tmp_path / "serve_metrics.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [p for p in (env.get("PYTHONPATH"),) if p]
        + [os.path.join(os.path.dirname(__file__), "..", "..", "src")]
    )
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--spec", SPEC,
            "--unix", socket_path,
            "--metrics-out", metrics_path,
            "--drain-timeout", "30",
            "--log-level", "info",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        if process.poll() is not None:
            out = process.stdout.read() if process.stdout else ""
            raise AssertionError(
                f"daemon exited {process.returncode} at startup:\n{out}"
            )
        if os.path.exists(socket_path):
            try:
                with ServeClient(unix_path=socket_path) as client:
                    client.ping()
                return process, socket_path, metrics_path
            except OSError:
                pass
        time.sleep(0.1)
    process.kill()
    raise AssertionError("daemon never became ready")


def _children_of(pid):
    """Pids whose parent is ``pid`` (empty where /proc is unavailable)."""
    children = []
    if not os.path.isdir("/proc"):
        return children
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            children.append(int(entry))
    return children


def _batch():
    rng = np.random.default_rng(9)
    lower = rng.integers(0, DIMS[0], size=(COUNT, 1)).astype(np.int64)
    upper = np.minimum(
        lower + rng.integers(0, 64, size=(COUNT, 1)), DIMS[0] - 1
    ).astype(np.int64)
    engine = global_cache().engine("dm", Grid(DIMS), NUM_DISKS)
    expected = engine.batch_response_times(
        QueryBatch(lower, upper + 1, DIMS)
    )
    frame = protocol.encode_frame(
        protocol.REQUEST_BATCH_RT,
        {"scheme": "dm", "dims": list(DIMS), "num_disks": NUM_DISKS,
         "count": COUNT},
        lower.tobytes() + upper.tobytes(),
    )
    return frame, expected


def test_sigterm_answers_the_inflight_batch_then_exits(tmp_path):
    frame, expected = _batch()
    process, socket_path, metrics_path = _start_daemon(tmp_path)
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(60)
            sock.connect(socket_path)
            # Send the batch but do not read yet: the daemon computes it
            # and then blocks writing the response, so the request is
            # provably in flight until this client reads.
            sock.sendall(frame)
            with ServeClient(unix_path=socket_path, timeout=60) as probe:
                deadline = time.monotonic() + 60
                while True:
                    stats = probe.stats()
                    # The probe's own stats request counts as one.
                    if stats["inflight"] >= 2:
                        break
                    assert time.monotonic() < deadline, stats
                    time.sleep(0.01)
                assert "workers" not in stats
                assert _children_of(process.pid) == []

            # Give the kernel ample time to finish: the request must
            # still count as in flight while its response waits on
            # this client, or the drain would not wait for it.
            time.sleep(1.0)
            process.send_signal(signal.SIGTERM)
            # Let the daemon handle the signal before reading: a read
            # started at once can drain the whole response in the same
            # event-loop turn that delivers SIGTERM, and the request
            # then finishes before the drain counts it.
            time.sleep(0.5)
            response = protocol.recv_frame(sock)

        assert response is not None, "in-flight batch was dropped"
        kind, header, body = response
        assert kind == protocol.RESPONSE_OK, header
        assert header["count"] == COUNT
        np.testing.assert_array_equal(
            np.frombuffer(body, dtype=np.int64), expected
        )

        process.wait(timeout=60)
        assert process.returncode == 0
        output = process.stdout.read()
        assert "drain requested: 1 request(s) in flight" in output

        payload = json.loads(open(metrics_path).read())
        counters = payload["aggregate"]["counters"]
        assert counters["serve.requests"] >= 3
        assert "serve.drain_timeouts" not in counters
        assert (
            "serve.latency.batch_response_times.seconds"
            in payload["aggregate"]["histograms"]
        )
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
