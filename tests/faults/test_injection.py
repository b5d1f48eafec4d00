"""Unit tests for the runner's environment-driven fault plan."""

import pytest

from repro.core.exceptions import DeclusteringError, FaultError
from repro.faults.injection import (
    FAULTS_ENV,
    FAULTS_STATE_ENV,
    InjectedFault,
    RunnerFaultPlan,
    maybe_inject_runner_fault,
)


class TestPlanParsing:
    def test_single_entry_defaults_to_one_shot(self):
        plan = RunnerFaultPlan.from_spec("E2:crash")
        with pytest.raises(InjectedFault):
            plan.apply("E2")

    def test_key_and_mode_case_insensitive(self):
        plan = RunnerFaultPlan.from_spec("e2:CRASH")
        with pytest.raises(InjectedFault):
            plan.apply("E2")

    def test_unlisted_keys_untouched(self):
        plan = RunnerFaultPlan.from_spec("E2:crash")
        plan.apply("E1")  # must not raise

    def test_multiple_entries_and_blanks(self):
        plan = RunnerFaultPlan.from_spec("E1:crash; ;X4:crash:2;")
        with pytest.raises(InjectedFault):
            plan.apply("E1")
        with pytest.raises(InjectedFault):
            plan.apply("X4")

    def test_malformed_entry_rejected(self):
        with pytest.raises(FaultError):
            RunnerFaultPlan.from_spec("E1")
        with pytest.raises(FaultError):
            RunnerFaultPlan.from_spec("E1:crash:2:9")

    @pytest.mark.parametrize("mode", ["explode", "hang"])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(FaultError):
            RunnerFaultPlan.from_spec(f"E1:{mode}")

    def test_non_positive_times_rejected(self):
        with pytest.raises(FaultError):
            RunnerFaultPlan.from_spec("E1:crash:0")


class TestAttemptCounting:
    def test_state_dir_limits_fault_to_n_attempts(self, tmp_path):
        plan = RunnerFaultPlan.from_spec(
            "E1:crash:2", state_dir=str(tmp_path)
        )
        with pytest.raises(InjectedFault):
            plan.apply("E1")
        with pytest.raises(InjectedFault):
            plan.apply("E1")
        plan.apply("E1")  # third attempt survives

    def test_state_survives_plan_reconstruction(self, tmp_path):
        # Every attempt re-parses the plan from the environment; the
        # attempt count must carry across instances via the state dir.
        first = RunnerFaultPlan.from_spec(
            "X4:crash:1", state_dir=str(tmp_path)
        )
        with pytest.raises(InjectedFault):
            first.apply("X4")
        second = RunnerFaultPlan.from_spec(
            "X4:crash:1", state_dir=str(tmp_path)
        )
        second.apply("X4")  # already fired once

    def test_without_state_dir_fires_forever(self):
        plan = RunnerFaultPlan.from_spec("E1:crash:1")
        for _ in range(3):
            with pytest.raises(InjectedFault):
                plan.apply("E1")


class TestEnvironmentBridge:
    def test_absent_env_is_no_plan(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert RunnerFaultPlan.from_environment() is None
        maybe_inject_runner_fault("E1")  # no-op without a plan

    def test_env_plan_applies(self, monkeypatch, tmp_path):
        monkeypatch.setenv(FAULTS_ENV, "E3:crash:1")
        monkeypatch.setenv(FAULTS_STATE_ENV, str(tmp_path))
        with pytest.raises(InjectedFault):
            maybe_inject_runner_fault("E3")
        maybe_inject_runner_fault("E3")  # second attempt passes

    def test_injected_fault_is_not_a_library_error(self):
        # The runner must see an injected crash as an unexpected
        # experiment bug, not as a polite DeclusteringError.
        assert not issubclass(InjectedFault, DeclusteringError)
        assert issubclass(InjectedFault, RuntimeError)
