"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_grid_parsing(self):
        args = build_parser().parse_args(
            ["allocate", "--grid", "4x8", "--disks", "2"]
        )
        assert args.grid == (4, 8)

    def test_bad_grid_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["allocate", "--grid", "4xfoo"])

    def test_bad_scheme_list_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["evaluate", "--schemes", "dm,nope"]
            )


class TestErrorHandling:
    def test_inapplicable_scheme_reports_cleanly(self, capsys):
        assert main(
            ["allocate", "--grid", "6x6", "--disks", "4",
             "--scheme", "ecc"]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "power-of-two" in err

    def test_missing_input_file_reports_cleanly(self, capsys):
        assert main(
            ["obs", "summary", "--metrics", "/nonexistent/metrics.json"]
        ) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_scheme_reports_cleanly(self, capsys):
        assert main(
            ["allocate", "--grid", "8x8", "--disks", "4",
             "--scheme", "nope"]
        ) == 1
        assert "unknown scheme" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["bad", "ecc:16xq:8", "ecc:16x16:0"])
    def test_bad_serve_bench_spec_reports_cleanly(self, capsys, spec):
        # Rejected before any daemon starts: one typed line, exit 1.
        assert main(["serve-bench", "--spec", spec, "--duration", "0.1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: bad spec {spec!r}")


class TestServeBenchClosedStdout:
    def test_closed_reader_exits_quietly(self, tmp_path):
        """``serve-bench ... | head -1`` with the reader already gone."""
        out = tmp_path / "bench.json"
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        # The self-hosted daemon's socket lands here, so its removal
        # shows the daemon was stopped.
        env["TMPDIR"] = str(tmp_path)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "repro", "serve-bench",
                 "--duration", "0.2", "--batch", "64",
                 "--concurrency", "1", "--out", str(out)],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                text=True,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert "BrokenPipeError" not in result.stderr
        assert json.loads(out.read_text())["measured"]["queries"] > 0
        assert not list(tmp_path.glob("repro-serve-bench-*.sock"))


class TestSchemesCommand:
    def test_lists_all_schemes(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        for name in ("dm", "fx", "ecc", "hcam"):
            assert name in out


class TestAllocateCommand:
    def test_reports_balance(self, capsys):
        assert main(
            ["allocate", "--grid", "8x8", "--disks", "4",
             "--scheme", "hcam"]
        ) == 0
        out = capsys.readouterr().out
        assert "balanced=True" in out

    def test_show_prints_table(self, capsys):
        assert main(
            ["allocate", "--grid", "4x4", "--disks", "2",
             "--scheme", "dm", "--show"]
        ) == 0
        out = capsys.readouterr().out
        # 4 rows of 4 disk ids after the summary line.
        assert len(out.strip().splitlines()) == 5

    def test_save_writes_loadable_file(self, capsys, tmp_path):
        path = tmp_path / "alloc.json"
        assert main(
            ["allocate", "--grid", "8x8", "--disks", "4",
             "--scheme", "dm", "--save", str(path)]
        ) == 0
        from repro.io import load_allocation

        allocation = load_allocation(path)
        assert allocation.grid.dims == (8, 8)
        assert allocation.num_disks == 4

    def test_show_refuses_non_2d(self, capsys):
        assert main(
            ["allocate", "--grid", "4x4x4", "--disks", "2",
             "--scheme", "dm", "--show"]
        ) == 0
        assert "2-d only" in capsys.readouterr().out


class TestEvaluateCommand:
    def test_shape_evaluation(self, capsys):
        assert main(
            ["evaluate", "--grid", "16x16", "--disks", "8",
             "--shape", "2x2"]
        ) == 0
        out = capsys.readouterr().out
        assert "HCAM" in out and "meanRT" in out

    def test_area_evaluation(self, capsys):
        assert main(
            ["evaluate", "--grid", "16x16", "--disks", "8",
             "--area", "16"]
        ) == 0
        assert "area 16" in capsys.readouterr().out

    def test_missing_query_spec_fails(self, capsys):
        assert main(
            ["evaluate", "--grid", "16x16", "--disks", "8"]
        ) == 2
        assert "provide --shape or --area" in capsys.readouterr().err

    def test_results_sorted_best_first(self, capsys):
        main(
            ["evaluate", "--grid", "16x16", "--disks", "8",
             "--shape", "2x2"]
        )
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if "meanRT" in l]
        values = [float(l.split("meanRT=")[1].split()[0]) for l in lines]
        assert values == sorted(values)

    def test_default_schemes_skip_inapplicable(self, capsys):
        # ECC needs a power-of-two M: the default set ranks the rest.
        assert main(
            ["evaluate", "--grid", "16x16", "--disks", "7",
             "--shape", "2x2"]
        ) == 0
        captured = capsys.readouterr()
        skipped = [
            line for line in captured.err.splitlines()
            if line.startswith("skipped ")
        ]
        assert len(skipped) == 1
        assert skipped[0].startswith("skipped ecc: ")
        assert "power-of-two" in skipped[0]
        ranked = [l for l in captured.out.splitlines() if "meanRT" in l]
        labels = {line.split()[0] for line in ranked}
        assert labels == {"DM/CMD", "FX", "HCAM"}

    def test_explicit_inapplicable_scheme_still_fails(self, capsys):
        assert main(
            ["evaluate", "--grid", "16x16", "--disks", "7",
             "--shape", "2x2", "--schemes", "ecc"]
        ) == 1
        assert "power-of-two" in capsys.readouterr().err


class TestExperimentCommand:
    def test_single_experiment(self, capsys):
        assert main(["experiment", "E2", "--quick"]) == 0
        assert "[E2]" in capsys.readouterr().out

    def test_e4_prints_both_panels(self, capsys):
        assert main(["experiment", "E4", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "[E4a]" in out and "[E4b]" in out

    def test_e3_prints_both_grids(self, capsys):
        assert main(["experiment", "E3", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "2-attribute" in out and "3-attribute" in out

    def test_thm(self, capsys):
        assert main(["experiment", "THM", "--quick"]) == 0
        assert "strictly optimal" in capsys.readouterr().out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["experiment", "E99", "--quick"]) == 2

    def test_unknown_experiment_fails_before_any_work(
        self, capsys, monkeypatch
    ):
        from repro.experiments import runner

        def no_work(*args, **kwargs):
            raise AssertionError("an experiment ran")

        monkeypatch.setattr(runner, "run_experiment", no_work)
        monkeypatch.setattr(runner, "run_all", no_work)
        assert main(["experiment", "E99", "--quick"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown experiment 'E99'" in captured.err

    def test_single_key_runs_only_that_experiment(
        self, capsys, monkeypatch
    ):
        from repro.experiments import runner

        ran = []
        original = runner.run_experiment

        def counting(key, quick=False):
            ran.append(key)
            return original(key, quick)

        monkeypatch.setattr(runner, "run_experiment", counting)
        assert main(["experiment", "degraded", "--quick"]) == 0
        assert ran == ["X7"]
        out = capsys.readouterr().out
        assert "[X7a]" in out and "[X7b]" in out

    def test_single_key_failure_is_a_one_line_error(
        self, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_IO_FAULTS", "experiment.E2")
        assert main(["experiment", "E2", "--quick"]) == 1
        assert "error: experiment E2 failed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--resume"], ["--checkpoint", "run.pkl"]],
    )
    def test_checkpoint_flags_need_the_whole_suite(
        self, flags, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["experiment", "E2", "--quick"] + flags) == 2
        assert "whole-suite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags", [["--retries", "1"], ["--backoff", "0.5"]]
    )
    def test_retry_flags_are_usage_errors(self, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "all", "--quick"] + flags)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_csv_and_json_export(self, capsys, tmp_path):
        csv_path = tmp_path / "e2.csv"
        json_path = tmp_path / "e2.json"
        assert main(
            ["experiment", "E2", "--quick",
             "--csv", str(csv_path), "--json", str(json_path)]
        ) == 0
        assert csv_path.read_text().startswith("aspect ratio")
        from repro.io import load_result

        assert load_result(json_path).experiment_id == "E2"

    def test_export_of_e4_writes_both_panels(self, capsys, tmp_path):
        base = tmp_path / "e4.csv"
        assert main(
            ["experiment", "E4", "--quick", "--csv", str(base)]
        ) == 0
        assert (tmp_path / "e4.csv.E4a").exists()
        assert (tmp_path / "e4.csv.E4b").exists()

    def test_thm_export_rejected(self, capsys, tmp_path):
        assert main(
            ["experiment", "THM", "--quick",
             "--csv", str(tmp_path / "thm.csv")]
        ) == 2
        assert "no tabular series" in capsys.readouterr().err


class TestNewExperimentIds:
    def test_epm(self, capsys):
        assert main(["experiment", "EPM", "--quick"]) == 0
        assert "[EPM]" in capsys.readouterr().out

    def test_x3(self, capsys):
        assert main(["experiment", "X3", "--quick"]) == 0
        assert "[X3]" in capsys.readouterr().out

    def test_x6_growth(self, capsys):
        assert main(["experiment", "X6", "--quick"]) == 0
        assert "[X6]" in capsys.readouterr().out


class TestProfileCommand:
    def test_profile_2d(self, capsys):
        assert main(
            ["profile", "--grid", "8x8", "--disks", "4",
             "--scheme", "dm", "--shape", "2x2"]
        ) == 0
        out = capsys.readouterr().out
        assert "sub-optimality map" in out
        assert "same-disk distance" in out

    def test_profile_default_shape(self, capsys):
        assert main(
            ["profile", "--grid", "8x8", "--disks", "4",
             "--scheme", "hcam"]
        ) == 0
        assert "shape=(2, 2)" in capsys.readouterr().out


class TestTheoryCommand:
    def test_search(self, capsys):
        assert main(["theory", "search", "--max-disks", "4"]) == 0
        out = capsys.readouterr().out
        assert "M= 4" in out and "impossible" in out

    def test_search_show_prints_allocation(self, capsys):
        assert main(
            ["theory", "search", "--max-disks", "2", "--show"]
        ) == 0
        out = capsys.readouterr().out
        assert "exists" in out

    def test_table(self, capsys):
        assert main(["theory", "table"]) == 0
        out = capsys.readouterr().out
        assert "DM/CMD" in out and "HCAM" in out


class TestRemovedPoolFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--build-workers", "2", "schemes"],
            ["experiment", "all", "--quick", "--workers", "2"],
            ["experiment", "all", "--quick", "--timeout", "5"],
            ["serve", "--spec", "ecc:16x16:8", "--unix", "s.sock",
             "--serve-workers", "2"],
            ["serve-bench", "--serve-workers", "2"],
            ["serve", "--spec", "ecc:16x16:8", "--unix", "s.sock",
             "--max-inflight", "2"],
            ["serve-bench", "--max-inflight", "2"],
            ["qa", "--no-flow"],
        ],
    )
    def test_pool_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err
