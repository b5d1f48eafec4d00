#!/usr/bin/env bash
# The repository's quality gate, in the order CI runs it:
#
#   ruff  ->  mypy  ->  repro-decluster qa  ->  tier-1 pytest
#
# ruff and mypy come from the `dev` extra (`pip install -e '.[dev]'`).
# When they are not installed (e.g. a minimal container) they are skipped
# with a warning unless REQUIRE_TOOLS=1, in which case missing tools fail
# the gate.  The qa pass and the test suite always run.
set -uo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

REQUIRE_TOOLS="${REQUIRE_TOOLS:-0}"
failed=0

run_step() {
    local name="$1"
    shift
    echo "==> ${name}"
    if "$@"; then
        echo "==> ${name}: ok"
    else
        echo "==> ${name}: FAILED" >&2
        failed=1
    fi
}

run_optional_tool() {
    local name="$1"
    shift
    if command -v "${name}" >/dev/null 2>&1; then
        run_step "${name}" "$@"
    elif [ "${REQUIRE_TOOLS}" = "1" ]; then
        echo "==> ${name}: NOT INSTALLED (REQUIRE_TOOLS=1)" >&2
        failed=1
    else
        echo "==> ${name}: not installed, skipping (pip install -e '.[dev]')"
    fi
}

run_optional_tool ruff ruff check src tests
run_optional_tool mypy mypy
# Full qa pass (lint + contracts) gated against the committed
# baseline; the SARIF log is what CI uploads as an artifact.
QA_SARIF="${QA_SARIF:-qa.sarif}"
run_step "repro qa (baseline gate)" \
    python -m repro.qa --baseline qa_baseline.json --sarif "${QA_SARIF}"
run_step "pytest (tier 1)" python -m pytest -x -q
# The daemon's own tests again under Python's development mode, where a
# socket or transport left unclosed, or an exception swallowed in a
# finalizer, fails the step.  tests/serve/test_drain.py is the fixed
# subprocess drain check and stays out of it.
run_step "serve tests (python -X dev, resource warnings fatal)" \
    python -X dev -m pytest -q -p no:cacheprovider \
        tests/serve/test_server.py tests/serve/test_protocol.py \
        tests/serve/test_served_schemes.py \
        -W error::ResourceWarning \
        -W error::pytest.PytestUnraisableExceptionWarning
# The chunked SAT build hashes each tile on a helper thread: its tests
# again under development mode, where a helper that raises instead of
# handing its error to the build, or a leaked file, fails the step.
run_step "chunked build tests (python -X dev, thread errors fatal)" \
    python -X dev -m pytest -q -p no:cacheprovider \
        tests/core/test_tile_kernel.py tests/core/test_integrity.py \
        tests/faults/test_io_faults.py \
        -W error::ResourceWarning \
        -W error::pytest.PytestUnhandledThreadExceptionWarning \
        -W error::pytest.PytestUnraisableExceptionWarning
# Degraded-mode smoke: the X7 sweep on a small grid must run clean.
run_step "degraded mode (quick)" \
    python -m repro experiment degraded --quick
# Self-healing smoke: crash -> checkpoint -> --resume, byte-identical.
run_step "resume round-trip" python scripts/smoke_resume.py
# Chaos smoke: injected I/O faults must land on real recovery paths —
# kill-at-tile-boundary -> byte-identical resume, on-disk corruption ->
# detected + rebuilt, compile fault -> numpy-reference degradation.
run_step "chaos smoke (I/O fault injection)" python scripts/smoke_chaos.py
# Doctor sweep: whatever corrupt or stale SAT spills and kernel-cache
# entries are left behind get classified and removed.
run_step "doctor --gc" python -m repro doctor --gc
# Serving smoke: boot the real `repro serve` daemon, check a batch
# byte for byte, get a degraded_plan with offset=-1 answered, SIGTERM-
# drain with exit 0, and prove the traffic in the metrics export (the
# readiness ping, the batch and the plan: 3 requests on 2 connections).
# It runs with a TMPDIR of its own, and a repro-smoke-serve-* directory
# left there afterwards fails the step.
serve_smoke() {
    local tmpdir="$1"
    TMPDIR="${tmpdir}" python scripts/smoke_serve.py "$2" || return 1
    if compgen -G "${tmpdir}/repro-smoke-serve-*" >/dev/null; then
        echo "smoke_serve left a temp directory under ${tmpdir}" >&2
        return 1
    fi
}
serve_tmp="$(mktemp -d)"
mkdir "${serve_tmp}/tmp"
run_step "serve smoke (batch + degraded plan + drain, no temp leak)" \
    serve_smoke "${serve_tmp}/tmp" "${serve_tmp}/metrics.json"
run_step "serve obs check (requests + connections counted)" \
    python scripts/check_obs_output.py --counters-only \
        "${serve_tmp}/metrics.json" \
        --expect-counter serve.requests:3 \
        --expect-counter serve.connections:2
rm -rf "${serve_tmp}"
# The batch query engine must stay >=5x faster than the per-query loop;
# the best compiled kernel backend must stay >=3x over the numpy batch
# kernel (skipped with a warning when none is available); the chunked
# beyond-RAM SAT build must complete within its byte budget (live on a
# CI-sized grid, plus the committed full-scale BENCH_native.json record);
# a disabled tracer span must stay effectively free; the serve daemon
# must answer byte-identically over the wire (qps floor on 4+ cores).
run_step "batch + native bench gate" python scripts/check_bench_gate.py
# Observability smoke: a fully instrumented run must export a valid
# trace + metrics pair that records every experiment and the cache
# counters.
obs_tmp="$(mktemp -d)"
run_step "obs smoke (instrumented run)" \
    python -m repro experiment all --quick \
        --trace "${obs_tmp}/trace.jsonl" \
        --metrics-out "${obs_tmp}/metrics.json"
run_step "obs output check" \
    python scripts/check_obs_output.py \
        "${obs_tmp}/trace.jsonl" "${obs_tmp}/metrics.json"
run_step "obs summary" \
    python -m repro obs summary \
        --metrics "${obs_tmp}/metrics.json" --trace "${obs_tmp}/trace.jsonl"
rm -rf "${obs_tmp}"

if [ "${failed}" -ne 0 ]; then
    echo "check_all: FAILED" >&2
    exit 1
fi
echo "check_all: all gates passed"
