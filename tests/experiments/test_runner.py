"""Tests for the all-experiments runner (quick configuration)."""

import json
import os
import subprocess
import sys

import pytest

from repro.experiments.runner import (
    EXPERIMENT_KEYS,
    render_all,
    render_thm,
    run_all,
    run_experiment,
)


@pytest.fixture(scope="module")
def results():
    return run_all(quick=True)


class TestRunAll:
    def test_every_experiment_present(self, results):
        assert set(results) == {
            "E1", "E2", "E3", "E4a", "E4b", "E5",
            "X1", "EPM", "X3", "X4", "X5", "X7a", "X7b", "THM",
        }

    def test_experiment_ids_consistent(self, results):
        assert results["E1"].experiment_id == "E1"
        assert results["E4a"].experiment_id == "E4a"
        assert results["E3"].result_2d.experiment_id == "E3-2d"

    def test_thm_results_match_theory(self, results):
        exists = [r.exists for r in results["THM"]]
        assert exists == [True, True, True, False, True, False]


class TestRunExperiment:
    def test_run_experiment_unit_matches_suite(self, results):
        assert run_experiment("E2", quick=True) == results["E2"]
        e4a, e4b = run_experiment("E4", quick=True)
        assert (e4a, e4b) == (results["E4a"], results["E4b"])

    def test_unknown_key_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("E99", quick=True)

    @pytest.mark.parametrize("workers", [0, 2, 4])
    def test_worker_counts_other_than_one_rejected(self, workers):
        with pytest.raises(ValueError, match="one process"):
            run_all(quick=True, workers=workers)

    def test_single_worker_is_the_serial_run(self, results):
        assert render_all(run_all(quick=True, workers=1)) == render_all(
            results
        )

    def test_canonical_key_order_is_fixed(self, results):
        assert EXPERIMENT_KEYS == (
            "E1", "E2", "E3", "E4", "E5", "X1", "EPM", "X3", "X4", "X5",
            "X7", "THM",
        )
        assert list(results) == [
            "E1", "E2", "E3", "E4a", "E4b", "E5",
            "X1", "EPM", "X3", "X4", "X5", "X7a", "X7b", "THM",
        ]


class TestRenderAll:
    def test_report_mentions_every_section(self, results):
        report = render_all(results)
        for token in ("[E1]", "[E2]", "[E3", "[E4a]", "[E4b]", "[E5]",
                      "[X1]", "[X7a]", "[X7b]", "[THM]", "[T1]"):
            assert token in report

    def test_report_has_scheme_labels(self, results):
        report = render_all(results)
        for label in ("DM/CMD", "FX", "ECC", "HCAM"):
            assert label in report

    def test_render_thm_rows(self, results):
        text = render_thm(results["THM"])
        assert "yes" in text and "no" in text
        assert text.count("\n") >= len(results["THM"])


#: Every ``repro`` module a fresh ``import repro.experiments.runner,
#: repro.experiments.exp_growth`` loads.  A module joining this set adds
#: to the import cost of every report run; one leaving it is a layer the
#: report no longer pays for.
COLD_IMPORT_MODULES = [
    "repro",
    "repro.core",
    "repro.core.allocation",
    "repro.core.backends",
    "repro.core.backends.base",
    "repro.core.backends.native",
    "repro.core.backends.numpy_backend",
    "repro.core.cache",
    "repro.core.cost",
    "repro.core.engine",
    "repro.core.evaluator",
    "repro.core.exceptions",
    "repro.core.grid",
    "repro.core.integrity",
    "repro.core.query",
    "repro.core.registry",
    "repro.core.sat",
    "repro.ecc",
    "repro.ecc.codes",
    "repro.ecc.gf2",
    "repro.experiments",
    "repro.experiments.checkpoint",
    "repro.experiments.common",
    "repro.experiments.exp_growth",
    "repro.experiments.exp_num_attributes",
    "repro.experiments.reporting",
    "repro.experiments.runner",
    "repro.faults",
    "repro.faults.degraded",
    "repro.faults.io",
    "repro.faults.models",
    "repro.gridfile",
    "repro.gridfile.dynamic",
    "repro.gridfile.file",
    "repro.gridfile.partitioner",
    "repro.obs",
    "repro.obs.log",
    "repro.obs.metrics",
    "repro.obs.trace",
    "repro.replication",
    "repro.replication.allocation",
    "repro.replication.planner",
    "repro.schemes",
    "repro.schemes.base",
    "repro.schemes.baselines",
    "repro.schemes.cyclic",
    "repro.schemes.disk_modulo",
    "repro.schemes.ecc_scheme",
    "repro.schemes.fieldwise_xor",
    "repro.schemes.hilbert_scheme",
    "repro.schemes.lattice",
    "repro.sfc",
    "repro.sfc.hilbert",
    "repro.sfc.ordering",
    "repro.sfc.zorder",
    "repro.theory",
    "repro.theory.bounds",
    "repro.theory.conditions",
    "repro.theory.optimality",
    "repro.theory.search",
    "repro.workloads",
    "repro.workloads.datasets",
    "repro.workloads.queries",
]


class TestLazyExperimentPackage:
    def test_runner_import_loads_only_what_it_needs(self):
        probe = (
            "import json, sys\n"
            "import repro.experiments.runner, repro.experiments.exp_growth\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "    if m == 'repro' or m.startswith('repro.'))))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "..", "src")]
            + [p for p in (env.get("PYTHONPATH"),) if p]
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert json.loads(
            result.stdout.strip().splitlines()[-1]
        ) == COLD_IMPORT_MODULES
