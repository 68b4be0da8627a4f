"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import experiment_names, validate_result_dict


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_parse(self):
        parser = build_parser()
        for argv in (
            ["stats"],
            ["fig2", "--days", "1"],
            ["fig3"],
            ["sec3"],
            ["pcap", "--out", "x.pcap"],
            ["run", "hidden-hhh"],
            ["experiments"],
            ["scenarios"],
            ["detectors"],
            ["bench"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)


class TestInputValidation:
    @pytest.mark.parametrize("argv", [
        ["stats", "--duration", "-5"],
        ["stats", "--duration", "0"],
        ["stats", "--day", "7"],
        ["fig2", "--duration", "-1"],
        ["fig2", "--days", "0"],
        ["fig3", "--phi", "1.5"],
        ["fig3", "--phi", "0"],
        ["fig3", "--duration", "nope"],
        ["sec3", "--window", "-2"],
        ["sec3", "--phi", "-0.1"],
        ["bench", "--duration", "0"],
        ["pcap", "--out", "x.pcap", "--duration", "-3"],
    ])
    def test_garbage_rejected_by_argparse(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_experiment_clean_error(self, capsys):
        assert main(["run", "no-such-experiment"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_bad_set_pair_clean_error(self, capsys):
        assert main(["run", "hidden-hhh", "--set", "nonsense"]) == 2
        assert "key=value" in capsys.readouterr().err

    def test_unknown_param_clean_error(self, capsys):
        assert main(["run", "hidden-hhh", "--set", "bogus=1"]) == 2
        assert "no parameter" in capsys.readouterr().err

    def test_bad_trace_spec_clean_error(self, capsys):
        assert main(["run", "trace-stats", "--trace", "marsnet"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_scenario_param_clean_error(self, capsys):
        assert main(
            ["run", "trace-stats", "--trace", "caida:day=9,duration=5"]
        ) == 2
        assert "day must be" in capsys.readouterr().err

    def test_mistyped_scenario_param_clean_error(self, capsys):
        # A float day binds the builder signature but explodes inside it;
        # the spec layer must still map that to a clean exit.
        assert main(
            ["run", "trace-stats", "--trace", "caida:day=1.5,duration=3"]
        ) == 2
        assert "rejected" in capsys.readouterr().err

    def test_harness_cross_param_error_clean(self, capsys):
        # Each param passes its own check, but the experiment enforces
        # delta < baseline_size at run time; must not escape as a
        # traceback.
        assert main(
            ["run", "window-sensitivity", "--set", "baseline_size=0.05"]
        ) == 2
        assert "delta" in capsys.readouterr().err

    def test_bench_unknown_detector_clean_error(self, capsys):
        assert main(["bench", "--detector", "nope", "--duration", "2"]) == 2
        assert "unknown detector" in capsys.readouterr().err


class TestCommands:
    def test_stats(self, capsys):
        assert main(["stats", "--duration", "5"]) == 0
        out = capsys.readouterr().out
        assert "packets" in out

    def test_fig2_small(self, capsys):
        assert main([
            "fig2", "--duration", "10", "--days", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "hidden_%" in out
        assert "max_hidden_percent" in out

    def test_fig3_small(self, capsys):
        assert main(["fig3", "--duration", "25"]) == 0
        out = capsys.readouterr().out
        assert "delta_ms" in out

    def test_sec3_small(self, capsys):
        assert main(["sec3", "--duration", "15", "--window", "5"]) == 0
        out = capsys.readouterr().out
        assert "td-hhh" in out

    def test_pcap_export(self, tmp_path, capsys):
        out_file = tmp_path / "out.pcap"
        assert main([
            "pcap", "--out", str(out_file), "--duration", "2",
        ]) == 0
        assert out_file.exists()
        assert "wrote" in capsys.readouterr().out


class TestRegistryCommands:
    def test_experiments_listing(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for name in ("hidden-hhh", "window-sensitivity", "decay-comparison",
                     "batch-throughput"):
            assert name in out

    def test_experiments_names_plain(self, capsys):
        assert main(["experiments", "--names"]) == 0
        out = capsys.readouterr().out
        assert set(out.split()) == set(experiment_names())

    def test_scenarios_listing(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("caida", "zipf", "ddos-burst", "flash-crowd",
                     "portscan", "pcap"):
            assert name in out

    def test_run_with_trace_and_set(self, capsys):
        assert main([
            "run", "hidden-hhh",
            "--trace", "caida:day=0,duration=10",
            "--set", "window_sizes=5", "--set", "thresholds=0.05",
        ]) == 0
        out = capsys.readouterr().out
        assert "hidden_%" in out
        assert "max_hidden_percent" in out
        assert "caida:day=0,duration=10" in out

    def test_run_json_artifact_validates(self, tmp_path, capsys):
        out_file = tmp_path / "result.json"
        assert main([
            "run", "trace-stats", "--trace", "calm:duration=4",
            "--json", str(out_file),
        ]) == 0
        document = json.loads(out_file.read_text())
        validate_result_dict(document)
        assert document["experiment"] == "trace-stats"
        assert document["traces"][0]["spec"] == "calm:duration=4"
        assert capsys.readouterr().out  # table printed too

    @pytest.mark.parametrize("name", sorted(experiment_names()))
    def test_every_experiment_smoke_runs_with_valid_json(
        self, name, tmp_path, capsys
    ):
        out_file = tmp_path / f"{name}.json"
        assert main([
            "run", name, "--smoke", "--json", str(out_file),
        ]) == 0
        document = json.loads(out_file.read_text())
        validate_result_dict(document)
        assert document["experiment"] == name
        assert document["rows"]

    #: alias argv -> the ``run`` argv it rewrites to (EXPERIMENTS.md's
    #: "Paper-artefact aliases" table).
    ALIAS_RUNS = {
        "fig2": (
            ["fig2", "--duration", "10", "--days", "2"],
            ["run", "hidden-hhh", "--set", "mode=unique",
             "--trace", "caida:day=0,duration=10.0", "--label", "day0",
             "--trace", "caida:day=1,duration=10.0", "--label", "day1"],
        ),
        "fig3": (
            ["fig3", "--duration", "25", "--phi", "0.1"],
            ["run", "window-sensitivity",
             "--trace", "sensitivity:duration=25.0", "--set", "phi=0.1"],
        ),
        "sec3": (
            ["sec3", "--duration", "15", "--window", "5"],
            ["run", "decay-comparison",
             "--trace", "caida:day=0,duration=15.0",
             "--set", "window_size=5.0", "--set", "phi=0.05"],
        ),
        "bench": (
            ["bench", "--detector", "countmin", "--duration", "2"],
            ["run", "batch-throughput",
             "--trace", "caida:day=0,duration=2.0",
             "--set", "detectors=countmin"],
        ),
    }

    @pytest.mark.parametrize("alias", sorted(ALIAS_RUNS))
    def test_alias_json_matches_run(self, alias, tmp_path):
        documents = []
        for argv in self.ALIAS_RUNS[alias]:
            out_file = tmp_path / f"{argv[0]}.json"
            assert main([*argv, "--json", str(out_file)]) == 0
            document = json.loads(out_file.read_text())
            validate_result_dict(document)
            documents.append(document)
        via_alias, via_run = documents
        # bench rows are wall-clock timings; everything else is seeded.
        keys = ["experiment", "params", "traces"]
        if alias != "bench":
            keys.append("rows")
        for key in keys:
            assert via_alias[key] == via_run[key], key
