#!/usr/bin/env python
"""CI serving smoke: daemon boot, served answers, clean drain.

Boots the real ``repro serve`` daemon over a unix socket and walks the
path CI cares about:

1. **Batch** — a batch of random range queries answered over the wire
   must be byte-identical to the in-process engine's answer.
2. **Degraded plan** — a ``degraded_plan`` request with ``offset=-1``
   (any integer offset is valid; only its residue mod M matters) must
   be answered, and match the in-process planner.
3. **Drain** — SIGTERM must exit 0 and write the metrics export.

A metrics export path given on the command line is left on disk for
``check_obs_output.py --counters-only`` (check_all.sh chains it with
``--expect-counter`` assertions on the serve counters).  The script's
own temp directory (the socket, and the export when no path is given)
is removed on exit, pass or fail.

Usage::

    PYTHONPATH=src python scripts/smoke_serve.py [metrics-out.json]
"""

import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time

_REPO = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_REPO / "src"))

import numpy as np  # noqa: E402

from repro.core.cache import AllocationCache  # noqa: E402
from repro.core.exceptions import ServeError  # noqa: E402
from repro.core.grid import Grid  # noqa: E402
from repro.core.query import QueryBatch, RangeQuery  # noqa: E402
from repro.faults.models import FailStop, FaultScenario  # noqa: E402
from repro.replication.allocation import chained_replication  # noqa: E402
from repro.replication.planner import plan_query  # noqa: E402
from repro.serve.client import ServeClient  # noqa: E402

__all__ = ['main']

SCHEME, DIMS, DISKS = "ecc", (16, 16), 8
SPEC = f"{SCHEME}:{'x'.join(str(d) for d in DIMS)}:{DISKS}"


def _fail(message):
    print(f"smoke_serve: FAILED — {message}", file=sys.stderr)
    return 1


def _random_bounds(seed, count=64):
    rng = np.random.default_rng(seed)
    lower = rng.integers(0, 16, size=(count, 2)).astype(np.int64)
    upper = np.minimum(
        lower + rng.integers(0, 6, size=(count, 2)), 15
    ).astype(np.int64)
    return lower, upper


def _local_times(cache, lower, upper):
    engine = cache.engine(SCHEME, Grid(DIMS), DISKS)
    queries = [
        RangeQuery(tuple(lo), tuple(hi))
        for lo, hi in zip(lower.tolist(), upper.tolist())
    ]
    return engine.batch_response_times(
        QueryBatch.from_queries(queries, Grid(DIMS))
    )


def _wait_ready(process, socket_path, deadline=120):
    limit = time.monotonic() + deadline
    while time.monotonic() < limit:
        if process.poll() is not None:
            out = process.stdout.read() if process.stdout else ""
            raise RuntimeError(
                f"daemon exited {process.returncode} at startup:\n{out}"
            )
        if os.path.exists(socket_path):
            try:
                with ServeClient(unix_path=socket_path) as client:
                    client.ping()
                return
            except OSError:
                pass
        time.sleep(0.1)
    raise RuntimeError("daemon never became ready")


def main() -> int:
    tmp = tempfile.mkdtemp(prefix="repro-smoke-serve-")
    try:
        return _smoke(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _smoke(tmp) -> int:
    """The scenario, with the socket (and a default metrics export)
    under ``tmp``, which the caller removes."""
    metrics_out = (
        sys.argv[1] if len(sys.argv) > 1
        else os.path.join(tmp, "serve_metrics.json")
    )
    socket_path = os.path.join(tmp, "serve.sock")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_REPO / "src")]
        + [p for p in (env.get("PYTHONPATH"),) if p]
    )
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--spec", SPEC,
            "--unix", socket_path,
            "--metrics-out", metrics_out,
            "--drain-timeout", "15",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    cache = AllocationCache(maxsize=4)
    try:
        _wait_ready(process, socket_path)
        print(f"smoke_serve: daemon ready (pid {process.pid})")

        with ServeClient(unix_path=socket_path, timeout=60) as client:
            lower, upper = _random_bounds(11)
            times, _shed = client.batch_response_times(
                SCHEME, DIMS, DISKS, lower, upper
            )
            if times.tobytes() != _local_times(
                cache, lower, upper
            ).tobytes():
                return _fail("served batch diverged from local engine")
            print("smoke_serve: served batch byte-identical")

            try:
                served = client.degraded_plan(
                    SCHEME, DIMS, DISKS, (0, 0), (7, 7), failed=(3,),
                    offset=-1,
                )
            except (OSError, ServeError) as exc:
                return _fail(f"degraded_plan offset=-1 not answered: {exc}")
            local = plan_query(
                chained_replication(
                    cache.allocation(SCHEME, Grid(DIMS), DISKS), offset=-1
                ),
                RangeQuery((0, 0), (7, 7)),
                method="flow",
                scenario=FaultScenario(DISKS, [FailStop((3,))]),
            )
            if (
                served["response_time"] != local.response_time
                or served["loads"] != [int(v) for v in local.loads]
            ):
                return _fail(
                    f"degraded plan {served} diverged from local planner"
                )
            print("smoke_serve: degraded_plan offset=-1 answered")

        process.send_signal(signal.SIGTERM)
        process.wait(timeout=60)
        if process.returncode != 0:
            out = process.stdout.read() if process.stdout else ""
            return _fail(
                f"drain exited {process.returncode}:\n{out}"
            )
        if not os.path.exists(metrics_out):
            return _fail("metrics export missing after drain")
        print(f"smoke_serve: ok — drain clean, metrics at {metrics_out}")
        return 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)


if __name__ == "__main__":
    sys.exit(main())
