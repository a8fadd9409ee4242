"""Tests for the `python -m repro` command-line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.__main__ import main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_experiment_validates_network(self):
        with pytest.raises(SystemExit):
            main(["experiment", "mesh", "scalapack"])

    def test_experiment_validates_app(self):
        with pytest.raises(SystemExit):
            main(["experiment", "single-as", "hadoop"])

    def test_scale_choices(self):
        with pytest.raises(SystemExit):
            main(["figures", "--scale", "galactic"])

    @pytest.mark.parametrize("argv", [
        ["experiment", "single-as", "scalapack", "--backend", "mp", "--procs", "0"],
        ["experiment", "single-as", "scalapack", "--backend", "mp", "--checkpoint-every", "0"],
        ["experiment", "single-as", "scalapack", "--backend", "mp", "--max-respawns", "-1"],
        ["chaos", "single-as", "scalapack", "--kill-workers", "0"],
        ["chaos", "single-as", "scalapack", "--kill-workers", "1", "--procs", "0"],
        ["chaos", "single-as", "scalapack", "--kill-workers", "1", "--checkpoint-every", "0"],
        ["chaos", "single-as", "scalapack", "--kill-workers", "1", "--max-respawns", "-1"],
    ])
    def test_bad_counts_are_usage_errors_before_any_work(self, argv, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the counts were checked")

        monkeypatch.setattr("repro.experiments.runner.build_network", no_work)
        monkeypatch.setattr("repro.experiments.chaos.run_process_chaos", no_work)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "must be >=" in err

    @pytest.mark.parametrize("argv", [
        ["chaos", "single-as", "scalapack", "--duration", "-1"],
        ["chaos", "single-as", "scalapack", "--duration", "0"],
        ["chaos", "single-as", "scalapack", "--kill-workers", "1", "--duration", "0"],
        ["trace", "--duration", "0"],
        ["trace", "--duration", "nan"],
        ["trace", "--timeline", "--duration", "inf"],
    ])
    def test_bad_durations_are_usage_errors_before_any_work(self, argv, capsys, monkeypatch):
        # A run's length is its one-LP engine's window: it must be > 0.
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the duration was checked")

        monkeypatch.setattr("repro.experiments.build_network", no_work)
        monkeypatch.setattr("repro.experiments.runner.build_network", no_work)
        monkeypatch.setattr("repro.experiments.chaos.build_network", no_work)
        monkeypatch.setattr("repro.experiments.chaos.run_process_chaos", no_work)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "must be a finite number > 0" in err


class TestSyncCost:
    def test_prints_table(self, capsys):
        assert main(["synccost"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "100" in out and "580" in out


class TestExperimentCommand:
    def test_invokes_runner(self, capsys, monkeypatch):
        calls = {}

        def fake_run(network, app, scale=None, seed=0):
            calls["args"] = (network, app, scale.name, seed)

            class R:
                pass

            return R()

        monkeypatch.setattr("repro.experiments.run_experiment", fake_run)
        monkeypatch.setattr(
            "repro.experiments.format_result", lambda r: "FAKE RESULT"
        )
        assert main(["experiment", "multi-as", "gridnpb", "--seed", "3"]) == 0
        assert calls["args"] == ("multi-as", "gridnpb", "small", 3)
        assert "FAKE RESULT" in capsys.readouterr().out

    def test_save_flag_writes_result(self, monkeypatch, capsys, tmp_path):
        saved = {}
        monkeypatch.setattr(
            "repro.experiments.run_experiment",
            lambda *a, **k: "RESULT",
        )
        monkeypatch.setattr("repro.experiments.format_result", lambda r: "")
        monkeypatch.setattr(
            "repro.serialization.save_result",
            lambda result, path: saved.update(result=result, path=path),
        )
        out = tmp_path / "res.json"
        assert main(["experiment", "single-as", "scalapack", "--save", str(out)]) == 0
        assert saved == {"result": "RESULT", "path": str(out)}

    def test_scale_flag_selects_scale(self, monkeypatch, capsys):
        seen = {}

        def fake_run(network, app, scale=None, seed=0):
            seen["scale"] = scale.name
            return object()

        monkeypatch.setattr("repro.experiments.run_experiment", fake_run)
        monkeypatch.setattr("repro.experiments.format_result", lambda r: "")
        main(["experiment", "single-as", "scalapack", "--scale", "medium"])
        assert seen["scale"] == "medium"

    def test_obs_out_flag_forwarded_to_runner(self, monkeypatch, capsys, tmp_path):
        seen = {}

        def fake_run(network, app, scale=None, seed=0, obs_out=None):
            seen["obs_out"] = obs_out
            return object()

        monkeypatch.setattr("repro.experiments.run_experiment", fake_run)
        monkeypatch.setattr("repro.experiments.format_result", lambda r: "")
        out = tmp_path / "snap.json"
        assert main(
            ["experiment", "single-as", "scalapack", "--obs-out", str(out)]
        ) == 0
        assert seen["obs_out"] == str(out)


class TestChaosCommand:
    def _fake_result(self, recovered=True):
        class R:
            pass

        r = R()
        r.recovered = recovered
        return r

    def test_invokes_runner_with_builtin_scenario(self, capsys, monkeypatch):
        calls = {}

        def fake_run(network, app, scenario, scale=None, seed=0, duration_s=None,
                     obs_out=None):
            calls["args"] = (network, app, scenario.name, seed, duration_s)
            return self._fake_result()

        monkeypatch.setattr("repro.experiments.run_chaos_experiment", fake_run)
        monkeypatch.setattr(
            "repro.experiments.format_chaos_report", lambda r: "CHAOS REPORT"
        )
        rc = main(
            ["chaos", "multi-as", "scalapack", "--scenario", "link-flap",
             "--seed", "2", "--duration", "5"]
        )
        assert rc == 0
        assert calls["args"] == ("multi-as", "scalapack", "link-flap", 2, 5.0)
        assert "CHAOS REPORT" in capsys.readouterr().out

    def test_degraded_run_exits_nonzero(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "repro.experiments.run_chaos_experiment",
            lambda *a, **k: self._fake_result(recovered=False),
        )
        monkeypatch.setattr(
            "repro.experiments.format_chaos_report", lambda r: "DEGRADED"
        )
        assert main(["chaos", "multi-as", "scalapack"]) == 1
        capsys.readouterr()

    def test_spec_file_overrides_scenario(self, capsys, monkeypatch, tmp_path):
        spec = tmp_path / "scenario.json"
        spec.write_text(json.dumps({"name": "mini", "link_flaps": 1}))
        seen = {}

        def fake_run(network, app, scenario, **kwargs):
            seen["scenario"] = scenario
            return self._fake_result()

        monkeypatch.setattr("repro.experiments.run_chaos_experiment", fake_run)
        monkeypatch.setattr(
            "repro.experiments.format_chaos_report", lambda r: "ok"
        )
        assert main(["chaos", "single-as", "gridnpb", "--spec", str(spec)]) == 0
        assert seen["scenario"].name == "mini"
        assert seen["scenario"].link_flaps == 1
        capsys.readouterr()

    def test_bad_spec_key_rejected(self, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"blast_radius": 9}))
        with pytest.raises(ValueError, match="unknown scenario keys"):
            main(["chaos", "single-as", "gridnpb", "--spec", str(spec)])

    def test_validates_network_and_scenario_choices(self):
        with pytest.raises(SystemExit):
            main(["chaos", "bogus-net", "scalapack"])
        with pytest.raises(SystemExit):
            main(["chaos", "multi-as", "scalapack", "--scenario", "nope"])


class TestSweepCommand:
    def test_prints_one_numeric_row_per_record(self, capsys, monkeypatch):
        """Every record is printed, the ones the sweep did not partition too."""
        from dataclasses import replace

        import repro.core
        from repro.experiments import SCALES
        from repro.partition import partition_kway

        smoke = replace(
            SCALES["small"], name="smoke", flat_routers=60, flat_hosts=40,
            http_clients=24, http_servers=8, num_engines=4, app_processes=4,
            scalapack_iterations=2, duration_s=1.5, profile_duration_s=0.5,
        )
        monkeypatch.setattr("repro.__main__._resolve_scale", lambda args: smoke)
        hierarchical = repro.core.hierarchical_partition
        sweep, handed, handed_in_sweep = [], [], []

        def noting(graph, num_parts, **kwargs):
            handed.append(graph.num_vertices)
            return partition_kway(graph, num_parts, **kwargs)

        def keeping_the_sweep(*args, **kwargs):
            result = hierarchical(*args, partitioner=noting, **kwargs)
            sweep.extend(result.sweep)
            handed_in_sweep.append(len(handed))
            return result

        monkeypatch.setattr("repro.core.hierarchical_partition", keeping_the_sweep)
        assert main(["sweep"]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert handed_in_sweep[0] < len(sweep) == len(rows)  # capped records printed too
        for record, row in zip(sweep, rows):
            tmll, coarse, _, _, e, _ = (float(x) for x in row.split()[:6])
            assert (tmll, coarse) == (round(record.tmll_s * 1e3, 2), record.coarse_vertices)
            assert f"{e:.3f}" == f"{record.evaluation.efficiency:.3f}"


class TestWaitPercentiles:
    def test_the_line_holds_exact_percentiles(self, capsys):
        from repro.__main__ import _print_wait_percentiles

        _print_wait_percentiles([0.0, 1.0, 2.0, 3.0, 4.0])
        assert capsys.readouterr().out == (
            "barrier wait per window: p50 2.0000 ms, p95 3.8000 ms, p99 3.9600 ms\n"
        )

    def test_no_waits_print_no_line(self, capsys):
        from repro.__main__ import _print_wait_percentiles

        _print_wait_percentiles(np.zeros(0))
        assert capsys.readouterr().out == ""


class TestTraceCommand:
    def test_trace_writes_validated_snapshot(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        rc = main(
            ["trace", "single-as", "scalapack", "--duration", "0.25",
             "--out", str(out)]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "[validators passed]" in printed
        assert "node events" in printed

        data = json.loads(out.read_text())
        assert data["version"] == 3
        assert data["meta"]["network"] == "single-as"
        assert data["meta"]["approach"] == "PROF"
        assert "efficiency" in data["meta"]["partition"]
        assert data["counters"]["netsim.packets.sent"] > 0
        node_events = data["vectors"]["netsim.node.events"]
        assert node_events["sum"] > 0
        assert "series" not in data

    def test_trace_of_a_run_without_traffic_is_a_usage_error(self, capsys, tmp_path):
        # An all-zero profile would weight every node alike: exit 2,
        # naming the flag to change, and write no snapshot.
        out = tmp_path / "trace.json"
        rc = main(["trace", "--duration", "0.000001", "--out", str(out)])
        assert rc == 2
        assert "--duration" in capsys.readouterr().err
        assert not out.exists()

    def test_trace_prometheus_format(self, capsys, tmp_path):
        out = tmp_path / "trace.prom"
        rc = main(
            ["trace", "single-as", "--duration", "0.25", "--out", str(out),
             "--format", "prom"]
        )
        assert rc == 0
        text = out.read_text()
        assert "# TYPE repro_netsim_packets_sent counter" in text

    def test_trace_validates_network_choice(self):
        with pytest.raises(SystemExit):
            main(["trace", "mesh"])

    def test_trace_rejects_topology_only_approach(self, capsys):
        # TOP needs no profile, so snapshot mode has nothing to validate
        # it against (exit 2). --timeline does accept it (base mapping).
        assert main(["trace", "single-as", "--approach", "TOP"]) == 2
        assert "does not consume a profile" in capsys.readouterr().out

    def test_timeline_emits_blame_whatif_and_chrome_trace(self, capsys, tmp_path):
        out = tmp_path / "timeline.json"
        rc = main(["trace", "--timeline", "--duration", "0.2", "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        # (b) the per-LP blame table with its sum cross-check
        assert "blame sums to it exactly" in printed
        assert "straggler wins" in printed
        assert "barrier wait per window: p50" in printed
        assert "critical path:" in printed
        # (c) what-if scores for all four candidate mappings
        assert "<== best" in printed
        for label in ("TOP", "PROF", "HTOP", "HPROF"):
            assert label in printed
        # (a) a Perfetto-loadable Chrome trace-event document
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        assert any(e["ph"] == "M" for e in events)
        slices = [e for e in events if e["ph"] == "X"]
        assert slices and all("ts" in e and "dur" in e for e in slices)

    def test_timeline_wait_percentiles_are_exact(self, capsys, tmp_path, monkeypatch):
        from repro.obs import blame

        reports = []
        analyze = blame.analyze
        monkeypatch.setattr(
            blame, "analyze", lambda *a, **kw: reports.append(analyze(*a, **kw)) or reports[-1]
        )
        assert main(["trace", "--timeline", "--duration", "0.2",
                     "--out", str(tmp_path / "timeline.json")]) == 0
        (report,) = reports
        p50, p95, p99 = np.percentile(report.window_wait_s * 1e3, (50, 95, 99))
        assert (f"barrier wait per window: p50 {p50:.4f} ms, p95 {p95:.4f} ms, "
                f"p99 {p99:.4f} ms") in capsys.readouterr().out

    def test_timeline_trace_capacity_bounds_the_ring(self, capsys, tmp_path):
        def run(*capacity):
            out = tmp_path / "timeline.json"
            assert main(["trace", "--timeline", "--duration", "0.2", *capacity,
                         "--out", str(out)]) == 0
            printed = capsys.readouterr().out
            lines = printed.splitlines()
            start = lines.index("what-if mapping replay (modeled wall-clock of this run):")
            hot = [line for line in lines if line.startswith("hot nodes")]
            return printed, lines[start : start + 6], hot

        printed, whatif, hot = run("--trace-capacity", "64")
        assert "trace overflowed" in printed
        assert "retained suffix" in printed
        # windows come from the engine's WindowStats, not the ring
        assert "blame covers every window" in printed
        # The what-if table and the hot nodes come from the samples the
        # engine and the simulator record whole: the capacity bounds
        # only the ring channels, and the note names only what they feed.
        default, default_whatif, default_hot = run()
        assert "trace overflowed" not in default
        assert whatif == default_whatif and hot == default_hot and hot
        assert whatif[-1].split()[0] in ("TOP", "PROF", "HTOP", "HPROF")
        note = [line for line in printed.splitlines() if line.startswith("note:")]
        assert note and not any("what-if" in n or "node blame" in n for n in note)
