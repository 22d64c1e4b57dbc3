"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_map_defaults(self):
        args = build_parser().parse_args(
            ["map", "--ifm", "14", "--ic", "256", "--oc", "256"])
        assert args.scheme == "vw-sdk"
        assert args.array == "512x512"

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["map", "--ifm", "14", "--ic", "1", "--oc", "1",
                 "--scheme", "magic"])


class TestMapCommand:
    def test_resnet_l4(self, capsys):
        assert main(["map", "--ifm", "14", "--ic", "256",
                     "--oc", "256"]) == 0
        out = capsys.readouterr().out
        assert "4x3" in out
        assert "504" in out
        assert "utilization" in out

    def test_custom_array_and_scheme(self, capsys):
        assert main(["map", "--ifm", "14", "--ic", "256", "--oc", "256",
                     "--array", "512x256", "--scheme", "im2col"]) == 0
        out = capsys.readouterr().out
        assert "im2col" in out

    def test_kernel_flag(self, capsys):
        assert main(["map", "--ifm", "112", "--kernel", "7", "--ic", "3",
                     "--oc", "64"]) == 0
        out = capsys.readouterr().out
        assert "10x8" in out

    def test_malformed_array_exits_2(self, capsys):
        assert main(["map", "--ifm", "14", "--ic", "256", "--oc", "256",
                     "--array", "5x12x"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("vwsdk: ConfigurationError: ")
        assert "'5x12x'" in err


class TestNetworkCommand:
    def test_resnet18(self, capsys):
        assert main(["network", "resnet18"]) == 0
        out = capsys.readouterr().out
        assert "vw-sdk=4294" in out
        assert "4.67x" in out

    def test_unknown_network(self):
        with pytest.raises(ValueError):
            main(["network", "lenet"])

    def test_small_array(self, capsys):
        assert main(["network", "resnet18", "--array", "128x128"]) == 0
        out = capsys.readouterr().out
        assert "128x128" in out


class TestLandscapeCommand:
    def test_prints_best_windows(self, capsys):
        assert main(["landscape", "--ifm", "14", "--ic", "256",
                     "--oc", "256", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "4x3" in out
        assert "feasible" in out


class TestChipCommand:
    def test_plans_pipeline(self, capsys):
        assert main(["chip", "plan", "resnet18", "--arrays", "64"]) == 0
        out = capsys.readouterr().out
        assert "bottleneck" in out
        assert "arrays used" in out

    def test_scheme_flag(self, capsys):
        assert main(["chip", "plan", "resnet18", "--arrays", "64",
                     "--scheme", "im2col"]) == 0
        out = capsys.readouterr().out
        assert "im2col" in out

    def test_sweep_counts_range(self, capsys):
        assert main(["chip", "sweep", "resnet18",
                     "--counts", "23:63:8"]) == 0
        out = capsys.readouterr().out
        assert "residency floor: 23 arrays" in out
        assert "ChipLattice" in out

    def test_sweep_counts_list_marks_infeasible(self, capsys):
        assert main(["chip", "sweep", "resnet18",
                     "--counts", "4,64"]) == 0
        out = capsys.readouterr().out
        assert "-" in out          # the 4-array probe is below the floor
        assert "81" in out         # the 64-array bottleneck

    def test_sweep_default_grid(self, capsys):
        assert main(["chip", "sweep", "resnet18"]) == 0
        out = capsys.readouterr().out
        assert "chip sweep" in out

    def test_sweep_bad_counts_spec(self):
        for spec in ("1:2:3:4", "23:abc", "4,x", "64:32", "23:64:0", ","):
            with pytest.raises(SystemExit):
                main(["chip", "sweep", "resnet18", "--counts", spec])


class TestChipParetoCommand:
    def test_homogeneous_frontier(self, capsys):
        assert main(["chip", "pareto", "resnet18",
                     "--sides", "128,256"]) == 0
        out = capsys.readouterr().out
        assert "cells/energy/latency frontier" in out
        assert "non-dominated deployments" in out
        assert "128x128" in out

    def test_pools_flag_adds_mixed_plan(self, capsys):
        assert main(["chip", "pareto", "resnet18", "--pools",
                     "--sides", "128,256,512"]) == 0
        out = capsys.readouterr().out
        assert "heterogeneous pools" in out
        assert "mixed" in out

    def test_cost_params_file(self, capsys, tmp_path):
        config = tmp_path / "cost.json"
        config.write_text('{"cycle_time_ns": 10.0, "adc_energy_pj": 0.5}')
        assert main(["chip", "pareto", "resnet18", "--sides", "256",
                     "--cost-params", str(config)]) == 0
        out = capsys.readouterr().out
        assert "energy (nJ)" in out

    def test_bad_cost_params_exit_cleanly(self, tmp_path):
        bad_key = tmp_path / "bad.json"
        bad_key.write_text('{"adc_energy": 1.0}')
        bad_json = tmp_path / "mangled.json"
        bad_json.write_text("{not json")
        for path in (bad_key, bad_json, tmp_path / "missing.json"):
            with pytest.raises(SystemExit):
                main(["chip", "pareto", "resnet18", "--sides", "256",
                      "--cost-params", str(path)])

    def test_infeasible_bounds_exit_cleanly(self):
        with pytest.raises(SystemExit):
            main(["chip", "pareto", "resnet18", "--sides", "512",
                  "--max-arrays", "4"])

    def test_bad_sides_exit_cleanly(self):
        for argv in (["--sides", "64,abc"], ["--sides", "0,64"],
                     ["--max-cells", "0"]):
            with pytest.raises(SystemExit):
                main(["chip", "pareto", "resnet18"] + argv)

    def test_sides_exceeding_budget_exit_cleanly(self, capsys):
        # Every candidate over --max-cells: empty pool, clean exit.
        with pytest.raises(SystemExit, match="max_cells"):
            main(["chip", "pareto", "resnet18", "--sides", "1024"])


class TestDseCommand:
    def test_square_frontier(self, capsys):
        assert main(["dse", "sweep", "resnet18",
                     "--max-cells", "65536"]) == 0
        out = capsys.readouterr().out
        assert "square cells-vs-cycles frontier" in out
        assert "256x256" in out

    def test_non_square_frontier(self, capsys):
        assert main(["dse", "sweep", "resnet18", "--non-square",
                     "--max-cells", "65536"]) == 0
        out = capsys.readouterr().out
        assert "non-square cells-vs-cycles frontier" in out
        assert "256x64" in out     # a rectangle on the frontier

    def test_sides_override(self, capsys):
        assert main(["dse", "sweep", "resnet18", "--sides", "64,128",
                     "--max-cells", "16384"]) == 0
        out = capsys.readouterr().out
        assert "64x64" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["dse"])

    def test_bad_sides_and_budget_exit_cleanly(self):
        for argv in (["--sides", "64,abc"], ["--sides", ","],
                     ["--sides", "0,64"], ["--max-cells", "0"],
                     ["--non-square", "--max-cells", "16"]):
            with pytest.raises(SystemExit):
                main(["dse", "sweep", "resnet18"] + argv)


class TestRuntimeFlags:
    def test_map_store_persists_and_replays(self, capsys, tmp_path):
        store = tmp_path / "solutions.jsonl"
        argv = ["map", "--ifm", "14", "--ic", "256", "--oc", "256",
                "--store", str(store)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert store.stat().st_size > 0    # the solution was persisted
        assert main(argv) == 0             # fresh process-equivalent run
        assert capsys.readouterr().out == cold

    def test_network_store_flag(self, capsys, tmp_path):
        store = tmp_path / "solutions.jsonl"
        assert main(["network", "resnet18", "--store", str(store)]) == 0
        assert "totals:" in capsys.readouterr().out
        assert store.stat().st_size > 0

    def test_unopenable_store_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="--store"):
            main(["map", "--ifm", "14", "--ic", "256", "--oc", "256",
                  "--store", str(tmp_path)])    # a directory, not a file

    def test_chip_sweep_deadline_exceeded_exits_3(self, capsys):
        code = main(["chip", "sweep", "resnet18",
                     "--deadline-ms", "0.0001"])
        assert code == 3
        err = capsys.readouterr().err
        assert "deadline exceeded" in err
        assert "probes finished" in err    # best-so-far progress line

    def test_bad_deadline_exits_cleanly(self):
        with pytest.raises(SystemExit, match="--deadline-ms"):
            main(["chip", "sweep", "resnet18", "--deadline-ms", "-5"])

    def test_repro_error_exits_2(self, capsys):
        code = main(["chip", "plan", "resnet18", "--arrays", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("vwsdk: ")   # typed one-liner, no traceback


class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert (args.host, args.port, args.workers) == ("127.0.0.1", 8080, 2)
        assert args.backend == "auto"
        assert args.fault_injection is False

    def test_dispatches_to_server(self, monkeypatch):
        calls = {}

        def fake_serve(host, port, **kwargs):
            calls["host"], calls["port"] = host, port
            calls.update(kwargs)

        import repro.server
        monkeypatch.setattr(repro.server, "serve", fake_serve)
        assert main(["serve", "--port", "0", "--workers", "3",
                     "--store", "l2.jsonl", "--backend", "numpy",
                     "--fault-injection"]) == 0
        assert calls["port"] == 0
        assert calls["workers"] == 3
        assert calls["store_path"] == "l2.jsonl"
        assert calls["backend"] == "numpy"
        assert calls["fault_injection"] is True

    def test_invalid_workers_exit_cleanly(self):
        with pytest.raises(SystemExit, match="serve:"):
            main(["serve", "--workers", "0", "--port", "0"])
