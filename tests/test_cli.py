"""Tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["fig1"])
        assert args.handler is not None
        assert args.seed == 0

    def test_options_parsed(self):
        parser = build_parser()
        args = parser.parse_args(["fig3", "--seed", "7", "--scale", "40", "--days", "1.5"])
        assert args.seed == 7
        assert args.scale == 40
        assert args.days == 1.5

    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
        out = capsys.readouterr().out
        assert "repro-bgp" in out


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig1", "fig5", "grooming"):
            assert name in out

    @pytest.mark.parametrize("command", ["fig1", "fig2"])
    def test_pop_commands_run(self, capsys, command):
        assert main([command, "--scale", "30", "--days", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "ms" in out or "%" in out

    def test_fig4_runs(self, capsys):
        assert main(["fig4", "--scale", "30", "--days", "1"]) == 0
        out = capsys.readouterr().out
        assert "improved" in out

    def test_fig5_runs(self, capsys):
        assert main(["fig5", "--scale", "40", "--days", "2"]) == 0
        out = capsys.readouterr().out
        assert "within +/- 10 ms" in out

    def test_sites_runs(self, capsys):
        assert main(["sites", "--scale", "30"]) == 0
        out = capsys.readouterr().out
        assert "sites" in out

    def test_fig1_csv_export(self, capsys, tmp_path):
        target = tmp_path / "fig1.csv"
        assert main(
            ["fig1", "--scale", "30", "--days", "0.25", "--csv", str(target)]
        ) == 0
        text = target.read_text()
        assert text.startswith("bgp_minus_alternate_ms,cum_fraction")
        assert len(text.splitlines()) > 10


class TestScenario:
    def test_flags_parsed(self):
        parser = build_parser()
        args = parser.parse_args(
            ["scenario", "--name", "hijack", "--mrai-s", "2.5",
             "--timeline-out", "t.json", "--seed", "3"]
        )
        assert args.name == "hijack"
        assert args.mrai_s == 2.5
        assert args.timeline_out == "t.json"
        assert args.seed == 3

    def test_name_required(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario"])

    def test_unknown_name_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "--name", "nope"])

    def test_choices_match_registry(self):
        from repro.bgp import SCENARIOS
        from repro.cli import SCENARIO_NAMES

        assert sorted(SCENARIO_NAMES) == sorted(SCENARIOS)

    def test_hijack_runs_and_writes_timeline(self, capsys, tmp_path):
        import json

        out = tmp_path / "hijack.json"
        assert main(
            ["scenario", "--name", "hijack", "--timeline-out", str(out)]
        ) == 0
        stdout = capsys.readouterr().out
        assert "time to reconverge" in stdout
        assert "captured_ases" in stdout
        payload = json.loads(out.read_text())
        assert payload["converged"] is True
        assert payload["timeline"]
        assert payload["time_to_reconverge_s"] > 0

    def test_withdrawal_cascade_reports_recovery(self, capsys):
        assert main(["scenario", "--name", "withdrawal-cascade"]) == 0
        stdout = capsys.readouterr().out
        assert "recovered to baseline" in stdout
        assert "time to recover" in stdout

    def test_list_mentions_scenario(self, capsys):
        assert main(["list"]) == 0
        assert "scenario" in capsys.readouterr().out


class TestIngest:
    def test_flags_parsed(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "ingest",
                "--shards",
                "3",
                "--chunk-windows",
                "8",
                "--sketch",
                "p2",
                "--max-centroids",
                "32",
                "--compare-batch",
                "--snapshot-out",
                "snap.json",
                "--rate-out",
                "rate.json",
            ]
        )
        assert args.shards == 3
        assert args.chunk_windows == 8
        assert args.sketch == "p2"
        assert args.max_centroids == 32
        assert args.compare_batch is True
        assert args.snapshot_out == "snap.json"
        assert args.rate_out == "rate.json"

    def test_list_mentions_ingest(self, capsys):
        assert main(["list"]) == 0
        assert "ingest" in capsys.readouterr().out

    def test_runs_end_to_end(self, capsys, tmp_path):
        """The service mode streams, reports, and writes its artifacts."""
        snap = tmp_path / "snapshot.json"
        rate = tmp_path / "rate.json"
        assert (
            main(
                [
                    "ingest",
                    "--scale",
                    "25",
                    "--days",
                    "0.25",
                    "--snapshot-out",
                    str(snap),
                    "--rate-out",
                    str(rate),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "sessions ingested" in out
        assert "sessions/sec" in out

        import json

        from repro.stream import IngestSnapshot

        snapshot = IngestSnapshot.from_json(snap.read_text())
        assert snapshot.sessions > 0
        assert snapshot.to_json() == snap.read_text()  # canonical bytes
        measured = json.loads(rate.read_text())
        assert measured["sessions"] == snapshot.sessions
        assert measured["sessions_per_sec"] > 0

    def test_compare_batch_agrees(self, capsys):
        assert (
            main(["ingest", "--scale", "25", "--days", "0.25", "--compare-batch"])
            == 0
        )
        assert "lanes agree within tolerance" in capsys.readouterr().out

    def test_sharded_merge_is_byte_identical(self, capsys):
        assert (
            main(["ingest", "--scale", "25", "--days", "0.25", "--shards", "2"])
            == 0
        )
        assert "byte-identical to in-process merge" in capsys.readouterr().out


class TestCampaign:
    def test_flags_parsed(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "campaign",
                "--study",
                "pop",
                "--seeds",
                "1,2,3",
                "--jobs",
                "4",
                "--cache-dir",
                "/tmp/x",
                "--timeout",
                "30",
                "--retries",
                "1",
            ]
        )
        assert args.study == "pop"
        assert args.seeds == "1,2,3"
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/x"
        assert args.timeout == 30.0
        assert args.retries == 1

    def test_jobs_and_cache_available_everywhere(self):
        parser = build_parser()
        args = parser.parse_args(["report", "--jobs", "2", "--cache-dir", "c"])
        assert args.jobs == 2 and args.cache_dir == "c"

    def test_bad_seed_list_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["campaign", "--study", "pop", "--seeds", "1,x"])

    def test_campaign_caches_across_invocations(self, capsys, tmp_path):
        argv = [
            "campaign",
            "--study",
            "pop",
            "--seeds",
            "1,2",
            "--scale",
            "25",
            "--days",
            "0.25",
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "0 cache hits, 2 ran" in first
        assert "pop-routing: 2 seeds" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "2 cache hits, 0 ran" in second
        # Identical aggregates from cache as from simulation.
        marker = "pop-routing: 2 seeds"
        assert second.split(marker)[1] == first.split(marker)[1]

    def test_single_seed_campaign_prints_report(self, capsys):
        assert main(
            ["campaign", "--study", "pop", "--scale", "25", "--days", "0.25"]
        ) == 0
        out = capsys.readouterr().out
        assert "Study: pop-routing" in out

    def test_list_mentions_campaign(self, capsys):
        assert main(["list"]) == 0
        assert "campaign" in capsys.readouterr().out


class TestResilienceFlags:
    """The campaign subcommand's fault/checkpoint/breaker surface."""

    def test_flags_parsed(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "campaign",
                "--study",
                "pop",
                "--checkpoint-dir",
                "/tmp/ckpt",
                "--resume",
                "--faults",
                "error=0.2,slow=0.1",
                "--fault-seed",
                "7",
                "--retry-budget",
                "5",
                "--breaker-threshold",
                "0.8",
                "--allow-partial",
            ]
        )
        assert args.checkpoint_dir == "/tmp/ckpt"
        assert args.resume is True
        assert args.faults == "error=0.2,slow=0.1"
        assert args.fault_seed == 7
        assert args.retry_budget == 5
        assert args.breaker_threshold == 0.8
        assert args.allow_partial is True

    def test_kwargs_mapping(self):
        from repro.cli import _campaign_runner_kwargs
        from repro.faults import FaultPlan

        parser = build_parser()
        args = parser.parse_args(
            [
                "campaign",
                "--study",
                "pop",
                "--checkpoint-dir",
                "/tmp/ckpt",
                "--resume",
                "--faults",
                "error=0.2",
                "--fault-seed",
                "7",
                "--retry-budget",
                "5",
                "--breaker-threshold",
                "0.8",
                "--allow-partial",
            ]
        )
        kwargs = _campaign_runner_kwargs(args)
        assert kwargs["fault_plan"] == FaultPlan(seed=7, p_error=0.2)
        assert kwargs["checkpoint_dir"] == "/tmp/ckpt"
        assert kwargs["resume"] is True
        assert kwargs["retry_budget"] == 5
        assert kwargs["breaker_threshold"] == 0.8
        assert kwargs["allow_partial"] is True

    def test_checkpoint_dir_defaults_to_cache_dir(self):
        from repro.cli import _campaign_runner_kwargs

        parser = build_parser()
        args = parser.parse_args(
            ["campaign", "--study", "pop", "--cache-dir", "/tmp/cache", "--resume"]
        )
        kwargs = _campaign_runner_kwargs(args)
        assert kwargs["checkpoint_dir"] == "/tmp/cache"
        assert kwargs["resume"] is True

    def test_resume_without_directories_exits(self):
        from repro.cli import _campaign_runner_kwargs

        parser = build_parser()
        args = parser.parse_args(["campaign", "--study", "pop", "--resume"])
        with pytest.raises(SystemExit, match="--resume requires"):
            _campaign_runner_kwargs(args)

    def test_bad_fault_spec_exits(self):
        from repro.cli import _campaign_runner_kwargs

        parser = build_parser()
        args = parser.parse_args(
            ["campaign", "--study", "pop", "--faults", "bogus=1"]
        )
        with pytest.raises(SystemExit, match="--faults"):
            _campaign_runner_kwargs(args)

    def test_campaign_with_faults_and_checkpoint_runs(self, capsys, tmp_path):
        argv = [
            "campaign",
            "--study",
            "pop",
            "--seeds",
            "1,2",
            "--scale",
            "25",
            "--days",
            "0.25",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--faults",
            "error=0.4",
            "--retries",
            "4",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "pop-routing: 2 seeds" in out
        # A clean finish retires the checkpoint (which defaulted to the
        # cache directory).
        assert not list((tmp_path / "cache").glob("campaign-*.ckpt.json"))


class TestTelemetry:
    def test_runtime_flags_parse_after_subcommand(self):
        parser = build_parser()
        args = parser.parse_args(
            ["report", "--setting", "A", "--trace-out", "t.jsonl",
             "--log-level", "debug"]
        )
        assert args.setting == "A"
        assert args.trace_out == "t.jsonl"
        assert args.log_level == "debug"

    def test_runtime_flags_parse_before_subcommand(self):
        parser = build_parser()
        args = parser.parse_args(["--log-json", "-v", "list"])
        assert args.log_json is True
        assert args.verbose == 1

    def test_trace_summarize_registered(self):
        parser = build_parser()
        args = parser.parse_args(["trace", "summarize", "t.jsonl"])
        assert args.file == "t.jsonl"
        assert args.handler is not None

    def test_trace_out_writes_stream_and_manifest(self, capsys, tmp_path):
        from repro import obs

        target = tmp_path / "t.jsonl"
        assert main(
            ["report", "--setting", "A", "--scale", "25", "--days", "0.25",
             "--trace-out", str(target)]
        ) == 0
        events = obs.load_events(target)
        span_names = {
            e["name"] for e in events if e["kind"] == "span_end"
        }
        assert len(span_names) >= 5  # the acceptance bar
        assert any(name.startswith("study.pop.") for name in span_names)
        manifest = obs.read_manifest(f"{target}.manifest.json")
        assert manifest.run_id == events[0]["run"]
        assert manifest.extra["n_events"] == len(events)

        capsys.readouterr()
        assert main(["trace", "summarize", str(target)]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "phase" in out
        assert "topology.build" in out


class TestTraceProfiling:
    """The profiling verbs: trace profile/flame/critical, campaign --progress."""

    @pytest.fixture(scope="class")
    def campaign_trace(self, tmp_path_factory):
        """One traced 3-seed campaign, shared by every verb test."""
        tmp = tmp_path_factory.mktemp("trace")
        target = tmp / "campaign.jsonl"
        assert main(
            ["campaign", "--study", "pop", "--seeds", "0,1,2",
             "--scale", "25", "--days", "0.25",
             "--cache-dir", str(tmp / "cache"),
             "--trace-out", str(target)]
        ) == 0
        return target

    def test_verbs_registered(self):
        parser = build_parser()
        args = parser.parse_args(
            ["trace", "profile", "t.jsonl", "--limit", "5", "--include-replay"]
        )
        assert args.file == "t.jsonl" and args.limit == 5
        assert args.include_replay is True
        args = parser.parse_args(["trace", "flame", "t.jsonl", "--out", "f.txt"])
        assert args.out == "f.txt"
        args = parser.parse_args(
            ["trace", "critical", "t.jsonl", "--anchor", "runner.campaign"]
        )
        assert args.anchor == "runner.campaign"
        args = parser.parse_args(["campaign", "--progress"])
        assert args.progress is True

    def test_profile_ranks_spans(self, campaign_trace, capsys):
        assert main(["trace", "profile", str(campaign_trace)]) == 0
        out = capsys.readouterr().out
        assert "profile:" in out
        assert "runner.campaign" in out
        assert "topology.build" in out
        assert "self" in out and "cum" in out

    def test_profile_limit(self, campaign_trace, capsys):
        assert main(["trace", "profile", str(campaign_trace), "--limit", "1"]) == 0
        body = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.strip() and not line.lstrip().startswith(("profile:", "span", "-"))
        ]
        assert len(body) <= 3  # one row plus totals

    def test_flame_writes_collapsed_stacks(self, campaign_trace, capsys, tmp_path):
        from repro.obs import parse_collapsed

        out_file = tmp_path / "flame.txt"
        assert main(
            ["trace", "flame", str(campaign_trace), "--out", str(out_file)]
        ) == 0
        text = out_file.read_text()
        parsed = parse_collapsed(text)  # speedscope-loadable round trip
        assert any(path[0] == "runner.campaign" for path in parsed)

        capsys.readouterr()
        assert main(["trace", "flame", str(campaign_trace)]) == 0
        assert parse_collapsed(capsys.readouterr().out) == parsed

    def test_flame_empty_trace_exits(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(SystemExit, match="no closed spans"):
            main(["trace", "flame", str(empty)])

    def test_critical_reports_chain(self, campaign_trace, capsys):
        assert main(["trace", "critical", str(campaign_trace)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "runner.campaign" in out
        assert "wall" in out

    def test_critical_missing_anchor_message(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(SystemExit, match="trace critical"):
            main(["trace", "critical", str(empty)])

    def test_campaign_progress_writes_status_line(self, tmp_path, capsys):
        assert main(
            ["campaign", "--study", "pop", "--seeds", "0",
             "--scale", "25", "--days", "0.25",
             "--cache-dir", str(tmp_path / "cache"), "--progress"]
        ) == 0
        err = capsys.readouterr().err
        assert "campaign 1/1 (100%)" in err


class TestErrorBoundary:
    """Library errors leave ``repro-bgp`` as one line and exit status 1."""

    @pytest.mark.parametrize("damage", ["missing", "garbled"])
    @pytest.mark.parametrize("verb", ["summarize", "profile", "flame", "critical"])
    def test_bad_trace_file_is_one_line(self, verb, damage, tmp_path):
        trace = tmp_path / "trace.jsonl"
        if damage == "garbled":
            trace.write_text("not json {{{\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        child = subprocess.run(
            [sys.executable, "-m", "repro.cli", "trace", verb, str(trace)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert child.returncode == 1
        assert "Traceback" not in child.stderr
        assert child.stderr.startswith(f"trace {verb}: ")
