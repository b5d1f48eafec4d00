"""Chaos tests for the fail-fast runner and its checkpoint store.

Faults reach the runner through the ``experiment.<KEY>`` points of the
``REPRO_IO_FAULTS`` plan, so the same injection path covers a failing
experiment, the resume-after-failure flow, and a CLI process that dies
outright.  Every resumed run must match the no-fault report byte for
byte.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.exceptions import RunnerError
from repro.experiments.checkpoint import CHECKPOINT_VERSION, RunCheckpoint
from repro.experiments.runner import EXPERIMENT_KEYS, render_all, run_all
from repro.faults.io import (
    IO_EXIT_STATUS,
    IO_FAULTS_ENV,
    IO_FAULTS_STATE_ENV,
)


@pytest.fixture(scope="module")
def baseline():
    return run_all(quick=True)


@pytest.fixture(autouse=True)
def clean_fault_env(monkeypatch):
    monkeypatch.delenv(IO_FAULTS_ENV, raising=False)
    monkeypatch.delenv(IO_FAULTS_STATE_ENV, raising=False)


class TestFailFast:
    def test_failure_stops_the_run_after_one_attempt(
        self, baseline, monkeypatch, tmp_path
    ):
        state = tmp_path / "fault-state"
        monkeypatch.setenv(IO_FAULTS_ENV, "experiment.E2:error:1")
        monkeypatch.setenv(IO_FAULTS_STATE_ENV, str(state))
        with pytest.raises(RunnerError, match="experiment E2 failed"):
            run_all(quick=True)
        # One attempt consumed the one-hit budget: nothing retried.
        assert (state / "experiment_E2.hits").read_text() == "1"
        assert render_all(run_all(quick=True)) == render_all(baseline)


class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ckpt.pkl"
        writer = RunCheckpoint(path, quick=True)
        writer.record("E1", {"x": 1})
        writer.record("E2", [1, 2, 3])
        reader = RunCheckpoint(path, quick=True)
        assert reader.load() == {"E1": {"x": 1}, "E2": [1, 2, 3]}

    def test_missing_file_is_empty(self, tmp_path):
        assert RunCheckpoint(tmp_path / "none.pkl", quick=True).load() == {}

    def test_quick_flag_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ckpt.pkl"
        RunCheckpoint(path, quick=True).record("E1", 1)
        with pytest.raises(RunnerError, match="quick"):
            RunCheckpoint(path, quick=False).load()

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "ckpt.pkl"
        path.write_bytes(b"not a pickle at all")
        with pytest.raises(RunnerError, match="unreadable"):
            RunCheckpoint(path, quick=True).load()

    def test_wrong_schema_version_rejected(self, tmp_path):
        path = tmp_path / "ckpt.pkl"
        payload = {
            "version": CHECKPOINT_VERSION + 1,
            "quick": True,
            "results": {},
        }
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(RunnerError, match="version"):
            RunCheckpoint(path, quick=True).load()

    def test_clear_is_idempotent(self, tmp_path):
        path = tmp_path / "ckpt.pkl"
        store = RunCheckpoint(path, quick=True)
        store.record("E1", 1)
        store.clear()
        assert not path.exists()
        store.clear()  # no file left — still fine


class TestResume:
    def test_resume_requires_checkpoint_path(self):
        with pytest.raises(ValueError):
            run_all(quick=True, resume=True)

    def test_crash_then_resume_is_byte_identical(
        self, baseline, monkeypatch, tmp_path
    ):
        path = tmp_path / "ckpt.pkl"
        # X5 fails: the run stops late, with earlier experiments
        # already persisted.
        monkeypatch.setenv(IO_FAULTS_ENV, "experiment.X5")
        with pytest.raises(RunnerError, match="X5"):
            run_all(quick=True, checkpoint=path)
        completed = RunCheckpoint(path, quick=True).load()
        assert "E1" in completed and "X5" not in completed

        # Resume with a plan that would fail E1 forever: it must be
        # served from the checkpoint, never re-run.
        monkeypatch.setenv(IO_FAULTS_ENV, "experiment.E1")
        resumed = run_all(quick=True, checkpoint=path, resume=True)
        assert render_all(resumed) == render_all(baseline)
        # A fully successful run clears its checkpoint.
        assert not path.exists()

    @pytest.mark.parametrize("key", EXPERIMENT_KEYS)
    def test_failure_at_each_experiment_checkpoints_its_prefix(
        self, key, baseline, monkeypatch, tmp_path
    ):
        path = tmp_path / "ckpt.pkl"
        monkeypatch.setenv(IO_FAULTS_ENV, f"experiment.{key}")
        with pytest.raises(RunnerError, match=key):
            run_all(quick=True, checkpoint=path)
        done = EXPERIMENT_KEYS[: EXPERIMENT_KEYS.index(key)]
        assert set(RunCheckpoint(path, quick=True).load()) == set(done)

        monkeypatch.delenv(IO_FAULTS_ENV)
        resumed = run_all(quick=True, checkpoint=path, resume=True)
        assert render_all(resumed) == render_all(baseline)
        assert not path.exists()

    def test_process_death_then_resume_is_byte_identical(
        self, baseline, tmp_path
    ):
        # ``exit`` kills the CLI process outright at X5 — no exception,
        # no cleanup — so only the checkpoint survives for --resume.
        path = tmp_path / "ckpt.pkl"
        env = dict(os.environ)
        env.pop(IO_FAULTS_STATE_ENV, None)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        command = [
            sys.executable, "-m", "repro", "experiment", "all", "--quick",
            "--checkpoint", str(path),
        ]
        died = subprocess.run(
            command,
            env=dict(env, **{IO_FAULTS_ENV: "experiment.X5:exit"}),
            capture_output=True, text=True, timeout=300,
        )
        assert died.returncode == IO_EXIT_STATUS
        completed = RunCheckpoint(path, quick=True).load()
        assert "X4" in completed and "X5" not in completed

        env.pop(IO_FAULTS_ENV, None)
        resumed = subprocess.run(
            command + ["--resume"], env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == render_all(baseline) + "\n"
        assert not path.exists()
