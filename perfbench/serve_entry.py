"""Traced serve daemon: the CLI's ``serve`` with the layer shims installed.

Usage::

    python perfbench/serve_entry.py --spans-out FILE -- <repro CLI args>

The shims go in before the CLI starts, the daemon runs exactly as
``python -m repro.cli <args>`` would, and when it has drained (SIGTERM)
the recorded spans are written to ``FILE``.  SIGUSR1 clears what was
recorded so far, so the caller can leave warm-up traffic out.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path
from typing import List, Optional

__all__ = ["main"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else (
        args.cli_args
    )

    from common import prepare_process

    prepare_process()
    from repro import cli
    from shims import Recorder, ShimSet, layer_targets

    recorder = Recorder()
    signal.signal(signal.SIGUSR1, lambda *_: recorder.request_reset())
    with ShimSet(recorder, layer_targets()):
        code = cli.main(cli_args)
    Path(args.spans_out).write_text(json.dumps(recorder.to_json()))
    return code


if __name__ == "__main__":
    sys.exit(main())
