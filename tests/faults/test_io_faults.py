"""The ``REPRO_IO_FAULTS`` plan: grammar, counting, injection points."""

import os

import pytest

from repro.core.exceptions import FaultError, RunnerError
from repro.core.grid import Grid
from repro.core.registry import get_scheme
from repro.core.sat import SummedAreaTable
from repro.experiments.runner import EXPERIMENT_KEYS, run_experiment
from repro.faults.io import (
    IO_FAULTS_ENV,
    IO_FAULTS_STATE_ENV,
    InjectedIOFault,
    IoFaultPlan,
    maybe_io_fault,
)


class TestPlanParsing:
    def test_defaults(self):
        plan = IoFaultPlan.from_spec("sat.read")
        with pytest.raises(InjectedIOFault):
            plan.apply("sat.read")

    def test_times_without_mode(self, tmp_path):
        plan = IoFaultPlan.from_spec("compile:2", str(tmp_path))
        for _ in range(2):
            with pytest.raises(InjectedIOFault):
                plan.apply("compile")
        plan.apply("compile")  # third hit passes

    def test_mode_and_times(self, tmp_path):
        plan = IoFaultPlan.from_spec(
            "sat.read:error:1", str(tmp_path)
        )
        with pytest.raises(InjectedIOFault):
            plan.apply("sat.read")
        plan.apply("sat.read")

    def test_multiple_entries(self):
        plan = IoFaultPlan.from_spec("sat.read; ;sat.write:2;")
        with pytest.raises(InjectedIOFault):
            plan.apply("sat.read")
        with pytest.raises(InjectedIOFault):
            plan.apply("sat.write")
        plan.apply("compile")  # not in the plan

    def test_without_state_dir_fires_forever(self):
        plan = IoFaultPlan.from_spec("experiment.E1:error:1")
        for _ in range(3):
            with pytest.raises(InjectedIOFault):
                plan.apply("experiment.E1")

    def test_malformed_entry_rejected(self):
        with pytest.raises(FaultError, match="bad I/O fault entry"):
            IoFaultPlan.from_spec("sat.read:error:1:9")

    def test_unknown_point_rejected(self):
        with pytest.raises(FaultError, match="unknown I/O fault point"):
            IoFaultPlan.from_spec("sat.rite")

    @pytest.mark.parametrize("key", EXPERIMENT_KEYS)
    def test_experiment_point_per_runner_key(self, key):
        plan = IoFaultPlan.from_spec(f"experiment.{key}")
        with pytest.raises(InjectedIOFault, match=f"experiment.{key}"):
            plan.apply(f"experiment.{key}")
        other = "E1" if key != "E1" else "E2"
        plan.apply(f"experiment.{other}")  # not in the plan

    def test_experiment_point_matches_case_insensitively(self, tmp_path):
        plan = IoFaultPlan.from_spec("Experiment.epm:2", str(tmp_path))
        for _ in range(2):
            with pytest.raises(InjectedIOFault):
                plan.apply("experiment.EPM")
        plan.apply("experiment.EPM")  # third hit passes

    @pytest.mark.parametrize(
        "spec",
        ["experiment.E99", "experiment.X6", "experiment.", "experiment"],
    )
    def test_unknown_experiment_key_rejected(self, spec):
        # X6 runs outside the runner, so it has no point either.
        with pytest.raises(FaultError, match="unknown I/O fault point"):
            IoFaultPlan.from_spec(f"{spec}:exit")

    def test_unknown_mode_rejected(self):
        with pytest.raises(FaultError, match="unknown I/O fault mode"):
            IoFaultPlan.from_spec("sat.read:explode")

    def test_nonpositive_times_rejected(self):
        with pytest.raises(FaultError, match="at least once"):
            IoFaultPlan.from_spec("sat.read:error:0")

    def test_injected_fault_is_oserror(self):
        # Recovery paths must not be able to special-case chaos.
        assert issubclass(InjectedIOFault, OSError)


class TestEnvironmentPlan:
    def test_absent_env_is_noop(self, monkeypatch):
        monkeypatch.delenv(IO_FAULTS_ENV, raising=False)
        maybe_io_fault("sat.read")  # no plan, no fault

    def test_env_plan_fires(self, monkeypatch):
        monkeypatch.setenv(IO_FAULTS_ENV, "sat.read")
        with pytest.raises(InjectedIOFault):
            maybe_io_fault("sat.read")

    def test_state_survives_plan_reconstruction(
        self, monkeypatch, tmp_path
    ):
        # maybe_io_fault builds a fresh plan per call — exactly what a
        # spawned worker does — so the state file carries the count.
        monkeypatch.setenv(IO_FAULTS_ENV, "sat.read:1")
        monkeypatch.setenv(IO_FAULTS_STATE_ENV, str(tmp_path))
        with pytest.raises(InjectedIOFault):
            maybe_io_fault("sat.read")
        maybe_io_fault("sat.read")  # budget spent


class TestInjectionPoints:
    def test_sat_read_point(self, monkeypatch, tmp_path):
        path = str(tmp_path / "t.npy")
        sat = SummedAreaTable.build_chunked(
            get_scheme("dm"), Grid((6, 4)), 2, path=path
        )
        sat.close()
        monkeypatch.setenv(IO_FAULTS_ENV, "sat.read")
        with pytest.raises(InjectedIOFault):
            SummedAreaTable.open_mmap(path)

    def test_sat_write_point_keeps_resumable_state(
        self, monkeypatch, tmp_path
    ):
        from repro.core.integrity import manifest_path
        from repro.core.sat import build_partial_path

        path = str(tmp_path / "t.npy")
        monkeypatch.setenv(IO_FAULTS_ENV, "sat.write:1")
        monkeypatch.setenv(
            IO_FAULTS_STATE_ENV, str(tmp_path / "state")
        )
        with pytest.raises(InjectedIOFault):
            SummedAreaTable.build_chunked(
                get_scheme("dm"), Grid((12, 6)), 3,
                byte_budget=400, path=path,
            )
        assert os.path.exists(build_partial_path(path))
        assert os.path.exists(manifest_path(build_partial_path(path)))
        # The fault budget is spent: the next build resumes and lands.
        sat = SummedAreaTable.build_chunked(
            get_scheme("dm"), Grid((12, 6)), 3,
            byte_budget=400, path=path,
        )
        sat.close()
        assert os.path.exists(path)

    def test_experiment_point_fires_before_the_experiment(
        self, monkeypatch
    ):
        monkeypatch.setenv(IO_FAULTS_ENV, "experiment.E2")
        with pytest.raises(RunnerError, match="experiment E2 failed") as info:
            run_experiment("E2", quick=True)
        assert isinstance(info.value.__cause__, InjectedIOFault)
        run_experiment("E1", quick=True)  # other keys run

    def test_compile_point(self, monkeypatch, tmp_path):
        from repro.core.backends.native import _compile_library

        monkeypatch.setenv(
            "REPRO_NATIVE_CACHE", str(tmp_path / "cache")
        )
        monkeypatch.setenv(IO_FAULTS_ENV, "compile")
        with pytest.raises(InjectedIOFault):
            _compile_library("int x;")

class TestConcurrentHitCounting:
    def test_hits_are_unique_across_threads(self, tmp_path):
        # Several processes (serve workers) can bump one counter at
        # once; without the flock two bumpers can claim the same hit
        # and a TIMES=1 exit plan kills both.  Threads exercise the
        # same file-level race (each opens its own descriptor).
        import threading

        plan = IoFaultPlan.from_spec("sat.write:90", str(tmp_path))
        seen = []
        lock = threading.Lock()

        def bump(n):
            for _ in range(n):
                hit = plan._bump_hit("sat.write")
                with lock:
                    seen.append(hit)

        threads = [
            threading.Thread(target=bump, args=(10,)) for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(seen) == list(range(1, 81))

    def test_counter_survives_separate_plans(self, tmp_path):
        first = IoFaultPlan.from_spec("sat.write:5", str(tmp_path))
        second = IoFaultPlan.from_spec("sat.write:5", str(tmp_path))
        assert first._bump_hit("sat.write") == 1
        assert second._bump_hit("sat.write") == 2
        assert first._bump_hit("sat.write") == 3
