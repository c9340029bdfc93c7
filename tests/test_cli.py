"""The ``python -m repro`` command-line interface.

Error contract under test throughout: bad arguments put a message on
stderr and return exit code 2, while stdout stays reserved for results.
"""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class Reached(Exception):
    """Raised by a stand-in for the run a handler starts once it has
    accepted its arguments."""


def reached(*args, **kwargs):
    raise Reached


def never_built(*args, **kwargs):
    raise AssertionError("a rejected run was started")


class TestList:
    def test_lists_all_ids(self):
        code, text, _ = run_cli("list")
        assert code == 0
        ids = text.split()
        assert "fig15" in ids
        assert "headline" in ids
        assert len(ids) >= 14


class TestRun:
    def test_single_experiment(self):
        code, text, err = run_cli("run", "fig04")
        assert code == 0
        assert "PSER" in text
        assert err == ""

    def test_multiple_experiments(self):
        code, text, _ = run_cli("run", "fig04", "table2-direct")
        assert code == 0
        assert "fig04" in text
        assert "table2-direct" in text

    def test_unknown_id_fails_on_stderr(self):
        code, text, err = run_cli("run", "fig99")
        assert code == 2
        assert "fig99" in err
        assert text == ""

    def test_csv_export(self, tmp_path):
        code, text, _ = run_cli("run", "fig04", "--csv", str(tmp_path))
        assert code == 0
        assert (tmp_path / "fig04.csv").exists()
        assert "[csv]" in text

    def test_json_export(self, tmp_path):
        code, _, _ = run_cli("run", "table2-direct", "--json", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "table2-direct.json").read_text())
        assert payload["kind"] == "table"

    def test_export_writes_manifest_sidecar(self, tmp_path):
        code, text, _ = run_cli("run", "fig04", "--csv", str(tmp_path))
        assert code == 0
        sidecar = tmp_path / "fig04.manifest.json"
        assert sidecar.exists()
        assert "[manifest]" in text
        payload = json.loads(sidecar.read_text())
        assert payload["kind"] == "manifest"
        assert payload["experiment_id"] == "fig04"
        assert len(payload["config_digest"]) == 64

    def test_manifest_does_not_perturb_csv(self, tmp_path):
        run_cli("run", "fig04", "--csv", str(tmp_path / "a"))
        run_cli("run", "fig04", "--csv", str(tmp_path / "b"))
        assert ((tmp_path / "a" / "fig04.csv").read_bytes()
                == (tmp_path / "b" / "fig04.csv").read_bytes())

    def test_jobs_flag_matches_serial(self):
        code_serial, text_serial, _ = run_cli("run", "ext-burst")
        code_jobs, text_jobs, _ = run_cli("run", "ext-burst", "--jobs", "2")
        assert code_serial == code_jobs == 0
        # The seeding contract: worker count must not change results.
        assert text_jobs == text_serial

    def test_jobs_accepted_by_non_sweep_experiments(self):
        code, text, _ = run_cli("run", "fig04", "--jobs", "2")
        assert code == 0
        assert "PSER" in text

    def test_jobs_must_be_positive(self):
        code, _, err = run_cli("run", "fig04", "--jobs", "0")
        assert code == 2
        assert "--jobs" in err


class TestTelemetry:
    def test_run_writes_a_jsonl_dump(self, tmp_path):
        target = tmp_path / "telemetry.jsonl"
        code, text, _ = run_cli("run", "fig04", "--telemetry", str(target))
        assert code == 0
        assert "[telemetry]" in text
        rows = [json.loads(line)
                for line in target.read_text().splitlines()]
        kinds = {row["type"] for row in rows}
        assert "span" in kinds
        assert "manifest" in kinds
        (manifest,) = [r for r in rows if r["type"] == "manifest"]
        assert manifest["experiment_id"] == "fig04"

    def test_stats_renders_the_dump(self, tmp_path):
        target = tmp_path / "telemetry.jsonl"
        run_cli("run", "fig04", "--telemetry", str(target))
        code, text, err = run_cli("stats", str(target))
        assert code == 0
        assert err == ""
        assert text.startswith("telemetry:")
        assert "experiment.fig04" in text
        assert "manifests:" in text

    def test_stats_prometheus_format(self, tmp_path):
        target = tmp_path / "telemetry.jsonl"
        run_cli("run", "ext-burst", "--telemetry", str(target))
        code, text, _ = run_cli("stats", str(target), "--prometheus")
        assert code == 0
        assert "# TYPE repro_sweep_points_total counter" in text

    def test_telemetry_does_not_change_results(self, tmp_path):
        _, plain, _ = run_cli("run", "ext-burst")
        _, traced, _ = run_cli("run", "ext-burst", "--telemetry",
                               str(tmp_path / "t.jsonl"))
        # Identical stdout apart from the trailing [telemetry] line.
        assert traced.startswith(plain)
        extra = traced[len(plain):].strip().splitlines()
        assert len(extra) == 1 and extra[0].startswith("[telemetry]")

    def test_stats_missing_file(self, tmp_path):
        code, text, err = run_cli("stats", str(tmp_path / "nope.jsonl"))
        assert code == 2
        assert "no such telemetry file" in err
        assert text == ""

    def test_stats_rejects_non_telemetry_file(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        code, _, err = run_cli("stats", str(bad))
        assert code == 2
        assert "not a telemetry JSONL file" in err


class TestJournal:
    def test_prints_metrics_and_trace(self):
        code, text, _ = run_cli("journal", "--grid", "1x2", "--nodes", "2",
                                "--duration", "8", "--tail", "4")
        assert code == 0
        assert "aggregate goodput" in text
        assert "journal digest" in text
        assert "event journal:" in text

    def test_jsonl_export(self, tmp_path):
        target = tmp_path / "trace.jsonl"
        code, text, _ = run_cli("journal", "--grid", "1x1", "--nodes", "1",
                                "--duration", "5", "--jsonl", str(target))
        assert code == 0
        assert target.exists()
        rows = [json.loads(line)
                for line in target.read_text().splitlines()]
        assert rows
        assert {"seq", "time", "kind"} <= set(rows[0])

    def test_sharded_run_reports_its_shards(self):
        code, text, _ = run_cli("journal", "--grid", "2x2", "--nodes", "2",
                                "--regions", "2", "--duration", "4")
        assert code == 0
        assert "2 regions (2 shards)" in text

    def test_same_seed_same_digest(self):
        _, first, _ = run_cli("journal", "--grid", "1x2", "--nodes", "2",
                              "--duration", "6", "--seed", "9")
        _, second, _ = run_cli("journal", "--grid", "1x2", "--nodes", "2",
                               "--duration", "6", "--seed", "9")
        assert first == second

    def test_bad_grid_rejected(self):
        code, text, err = run_cli("journal", "--grid", "2by2")
        assert code == 2
        assert "--grid" in err
        assert text == ""

    def test_non_positive_dimensions_rejected(self):
        code, _, err = run_cli("journal", "--grid", "0x2")
        assert code == 2
        assert "positive" in err

    def test_negative_tail_rejected(self):
        code, _, err = run_cli("journal", "--grid", "1x1", "--tail", "-1")
        assert code == 2
        assert "--tail" in err

    def test_negative_seed_rejected(self):
        code, text, err = run_cli("journal", "--grid", "1x1", "--seed", "-1")
        assert code == 2
        assert "--seed" in err
        assert text == ""

    @pytest.mark.parametrize("duration", ["nan", "inf"])
    def test_non_finite_duration_rejected(self, monkeypatch, duration):
        from repro.des import EventScheduler

        def never(*args, **kwargs):
            raise AssertionError("a non-finite run reached the kernel")

        monkeypatch.setattr(EventScheduler, "run", never)
        code, text, err = run_cli("journal", "--grid", "1x1",
                                  "--duration", duration)
        assert code == 2
        assert "--duration" in err
        assert text == ""

    def test_run_past_the_device_tick_cap_exits_2_at_once(self,
                                                           monkeypatch):
        import repro.net.multicell as multicell

        monkeypatch.setattr(multicell, "default_network", never_built)
        code, text, err = run_cli("journal", "--grid", "2000x2000",
                                  "--nodes", "2", "--duration", "1")
        assert code == 2
        assert "--grid" in err and "Traceback" not in err
        assert text == ""

    @pytest.mark.parametrize("nodes, duration, code",
                             [("2", "3", 0), ("2", "3.5", 2), ("3", "3", 2)])
    def test_a_run_at_the_cap_passes_and_one_past_it_does_not(
            self, monkeypatch, nodes, duration, code):
        import repro.scenarios.dsl as dsl

        # (1x2 luminaires + 2 nodes) x 3 ticks is exactly the cap.
        monkeypatch.setattr(dsl, "MAX_DEVICE_TICKS", 12)
        got, _, err = run_cli("journal", "--grid", "1x2", "--nodes", nodes,
                              "--duration", duration)
        assert got == code
        assert ("--duration" in err) == (code == 2)

    @pytest.mark.parametrize("args", [
        (),
        ("--grid", "8x8", "--nodes", "32", "--regions", "4",
         "--duration", "120"),
        ("--grid", "4x4", "--nodes", "8", "--duration", "20")])
    def test_default_and_pinned_sizes_are_accepted(self, monkeypatch, args):
        import repro.net.multicell as multicell

        monkeypatch.setattr(multicell, "default_network", reached)
        with pytest.raises(Reached):
            run_cli("journal", *args)


class TestChaos:
    def test_prints_the_resilience_report(self):
        code, text, _ = run_cli("chaos", "--schedule", "blinding",
                                "--duration", "20", "--seed", "7")
        assert code == 0
        assert "chaos schedule 'blinding'" in text
        assert "resilience report (supervised" in text
        assert "journal digest" in text

    def test_unsupervised_baseline_flag(self):
        code, text, _ = run_cli("chaos", "--schedule", "blinding",
                                "--duration", "20", "--unsupervised")
        assert code == 0
        assert "resilience report (unsupervised" in text

    def test_same_seed_same_output(self):
        args = ("chaos", "--schedule", "mixed", "--duration", "20",
                "--seed", "13")
        _, first, _ = run_cli(*args)
        _, second, _ = run_cli(*args)
        assert first == second

    def test_random_schedule_is_seeded(self):
        args = ("chaos", "--schedule", "random", "--duration", "15",
                "--seed", "5", "--intensity", "0.8")
        code, first, _ = run_cli(*args)
        assert code == 0
        _, second, _ = run_cli(*args)
        assert first == second

    def test_unknown_schedule_rejected(self):
        code, text, err = run_cli("chaos", "--schedule", "nope")
        assert code == 2
        assert "'nope'" in err
        assert text == ""

    def test_bad_duration_rejected(self):
        code, _, err = run_cli("chaos", "--duration", "0")
        assert code == 2
        assert "--duration" in err

    @pytest.mark.parametrize("duration", ["nan", "inf"])
    def test_non_finite_duration_rejected(self, monkeypatch, duration):
        from repro.des import EventScheduler

        def never(*args, **kwargs):
            raise AssertionError("a non-finite run reached the kernel")

        monkeypatch.setattr(EventScheduler, "run", never)
        code, text, err = run_cli("chaos", "--duration", duration)
        assert code == 2
        assert "--duration" in err
        assert text == ""

    @pytest.mark.parametrize("schedule", ["mixed", "random"])
    def test_run_past_the_duration_cap_exits_2_at_once(self, monkeypatch,
                                                       schedule):
        from repro.des import EventScheduler

        monkeypatch.setattr(EventScheduler, "run", never_built)
        code, text, err = run_cli("chaos", "--schedule", schedule,
                                  "--duration", "1e9")
        assert code == 2
        assert "--duration" in err and "Traceback" not in err
        assert text == ""

    @pytest.mark.parametrize("duration, code", [("5", 0), ("5.001", 2)])
    def test_a_run_at_the_cap_passes_and_one_past_it_does_not(
            self, monkeypatch, duration, code):
        import repro.resilience.chaos as chaos

        monkeypatch.setattr(chaos, "MAX_DURATION_S", 5.0)
        got, _, err = run_cli("chaos", "--duration", duration)
        assert got == code
        assert ("--duration" in err) == (code == 2)

    @pytest.mark.parametrize("args", [(), ("--duration", "10000"),
                                      ("--schedule", "blinding")])
    def test_default_and_pinned_sizes_are_accepted(self, monkeypatch, args):
        from repro.resilience import ChaosScenario

        monkeypatch.setattr(ChaosScenario, "run", reached)
        with pytest.raises(Reached):
            run_cli("chaos", *args)

    def test_bad_intensity_rejected(self):
        code, _, err = run_cli("chaos", "--schedule", "random",
                               "--intensity", "1.5")
        assert code == 2
        assert "--intensity" in err

    @pytest.mark.parametrize("schedule", ["mixed", "random"])
    def test_negative_seed_rejected(self, schedule):
        code, text, err = run_cli("chaos", "--schedule", schedule,
                                  "--seed", "-1")
        assert code == 2
        assert "--seed" in err
        assert text == ""


class TestScenario:
    """The trace-driven scenario engine behind ``repro scenario``."""

    @staticmethod
    def _tiny_doc(**slo):
        return {
            "version": 1,
            "name": "tiny",
            "duration_s": 40.0,
            "tick_s": 2.0,
            "report_window_s": 20.0,
            "rooms": [{
                "id": "a", "rows": 1, "cols": 1,
                "occupancy": {"population": 1, "depart_lo_s": 30.0,
                              "depart_hi_s": 30.0},
            }],
            "slo": slo,
        }

    def test_list_names_the_shipped_set(self):
        code, text, err = run_cli("scenario", "list")
        assert code == 0
        assert err == ""
        assert "huddle-smoke" in text
        assert "occupants" in text

    def test_show_prints_the_versioned_document(self):
        code, text, _ = run_cli("scenario", "show", "huddle-smoke")
        assert code == 0
        payload = json.loads(text)
        assert payload["version"] == 1
        assert payload["name"] == "huddle-smoke"

    def test_show_round_trips_through_a_file(self, tmp_path):
        _, shown, _ = run_cli("scenario", "show", "huddle-smoke")
        path = tmp_path / "day.json"
        path.write_text(shown)
        code, text, _ = run_cli("scenario", "show", str(path), "--file")
        assert code == 0
        assert json.loads(text) == json.loads(shown)

    def test_unknown_name_lists_known_on_stderr(self):
        code, text, err = run_cli("scenario", "run", "nope")
        assert code == 2
        assert text == ""
        assert "nope" in err
        assert "huddle-smoke" in err

    def test_missing_file_rejected(self, tmp_path):
        code, _, err = run_cli("scenario", "run",
                               str(tmp_path / "ghost.json"), "--file")
        assert code == 2
        assert "no such scenario file" in err

    def test_invalid_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        doc = self._tiny_doc()
        doc["version"] = 99
        bad.write_text(json.dumps(doc))
        code, _, err = run_cli("scenario", "show", str(bad), "--file")
        assert code == 2
        assert "invalid scenario file" in err

    @pytest.mark.parametrize("path, value", [
        (("seed",), -5),
        (("rooms", 0, "rows"), math.inf),
        (("rooms", 0, "rows"), 2.7),
        (("duration_s",), math.inf),
        (("rooms", 0, "occupancy", "pause_s"), math.inf),
        (("slo", "min_goodput_bps"), math.nan),
        (("slo", "max_illumination_error"), math.nan),
        (("duration_s",), "1800"),
        (("rooms", 0, "spacing_m"), True),
        pytest.param(("duration_s",), 10 ** 400, id="duration_s-10**400"),
        (("tick_s",), 1e-4),
        (("rooms", 0, "daylight", "cloud_time_scale_s"), 1e-6),
        (("rooms", 0, "occupancy", "population"), 1_000_000),
        (("rooms", 0, "rows"), 3000),
    ], ids=lambda case: case[-1] if isinstance(case, tuple) else repr(case))
    def test_unrunnable_file_exits_2(self, tmp_path, path, value):
        # One field of a shipped scenario's own document, made
        # unrunnable: each would crash, run something else, pass its
        # SLO vacuously, or ask for a run that does not finish or
        # exhausts memory.
        _, shown, _ = run_cli("scenario", "show", "huddle-smoke")
        doc = json.loads(shown)
        *parents, key = path
        row = doc
        for step in parents:
            row = row[step]
        row[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, text, err = run_cli("scenario", "run", str(bad), "--file")
        assert code == 2
        assert text == ""
        assert "invalid scenario file" in err
        assert path[-1] in err

    def test_run_reports_passes_and_writes_the_artifact(self, tmp_path):
        target = tmp_path / "report.json"
        code, text, err = run_cli("scenario", "run", "huddle-smoke",
                                  "--report", str(target))
        assert code == 0
        assert err == ""
        assert "journal digest" in text
        assert "SLO: PASS" in text
        payload = json.loads(target.read_text())
        assert payload["kind"] == "scenario-report"
        assert payload["passed"] is True
        assert payload["manifest"]["experiment_id"] == \
            "scenario/huddle-smoke"
        assert payload["journal_digest"] == \
            payload["manifest"]["journal_digest"]

    def test_reruns_print_identical_reports(self, tmp_path):
        doc = self._tiny_doc()
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        _, first, _ = run_cli("scenario", "run", str(path), "--file")
        _, second, _ = run_cli("scenario", "run", str(path), "--file")
        assert first == second

    def test_slo_miss_exits_1(self, tmp_path):
        doc = self._tiny_doc(min_goodput_bps=1e12)
        path = tmp_path / "strict.json"
        path.write_text(json.dumps(doc))
        code, text, _ = run_cli("scenario", "run", str(path), "--file")
        assert code == 1
        assert "SLO: FAIL" in text

    def test_bad_regions_rejected(self):
        for regions in ("0", "99"):
            code, text, err = run_cli("scenario", "run", "huddle-smoke",
                                      "--regions", regions)
            assert code == 2
            assert text == ""
            assert "--regions" in err


class TestServe:
    def test_load_mode_runs_a_fleet_and_reports(self):
        code, text, err = run_cli("serve", "--load", "--clients", "12",
                                  "--requests", "3", "--seed", "5")
        assert code == 0
        assert err == ""
        assert "listening on 127.0.0.1:" in text
        assert "12 sent" not in text          # totals, not per-client
        assert "36 sent, 36 ok, 0 shed, 0 errors, 0 dropped" in text
        assert "serve: 36 adapt requests, 0 shed" in text

    def test_load_mode_writes_telemetry(self, tmp_path):
        target = tmp_path / "serve.jsonl"
        code, text, _ = run_cli("serve", "--load", "--clients", "4",
                                "--requests", "2",
                                "--telemetry", str(target))
        assert code == 0
        assert "[telemetry]" in text
        rows = [json.loads(line) for line in target.read_text().splitlines()]
        assert any(r.get("name") == "repro_serve_adapt_requests_total"
                   for r in rows)
        # And repro stats renders the dump.
        code, text, _ = run_cli("stats", str(target))
        assert code == 0
        assert "repro_serve_adapt_requests_total" in text

    def test_bad_window_rejected(self, capsys):
        # Adapt requests are answered on arrival: the window flag is
        # gone, and argparse refuses it as a usage error.
        for window in ("-1", "0", "2.0"):
            with pytest.raises(SystemExit) as exc:
                run_cli("serve", "--coalesce-window", window, "--load")
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert "unrecognized arguments: --coalesce-window" in \
                captured.err
            assert captured.out == ""

    def test_bad_drain_grace_rejected(self):
        for grace in ("nan", "inf", "-1"):
            code, text, err = run_cli("serve", "--drain-grace", grace,
                                      "--load")
            assert code == 2
            assert "drain_grace_s" in err
            assert text == ""

    def test_bad_queue_limit_rejected(self):
        code, _, err = run_cli("serve", "--queue-limit", "0", "--load")
        assert code == 2
        assert "queue_limit" in err

    def test_out_of_range_port_rejected(self):
        for port in ("70000", "-1"):
            code, text, err = run_cli("serve", "--port", port, "--load")
            assert code == 2
            assert "port" in err
            assert text == ""

    def test_bad_clients_rejected(self):
        code, _, err = run_cli("serve", "--load", "--clients", "0")
        assert code == 2
        assert "clients" in err


class TestDesign:
    def test_valid_level(self):
        code, text, _ = run_cli("design", "0.35")
        assert code == 0
        assert "super-symbol" in text
        assert "kbps" in text

    def test_out_of_range(self):
        code, text, err = run_cli("design", "0.001")
        assert code == 2
        assert "supported range" in err
        assert text == ""


class TestInfo:
    def test_shows_configuration(self):
        code, text, _ = run_cli("info")
        assert code == 0
        assert "125 kHz" in text
        assert "candidates" in text


class TestTraceAndProfile:
    def test_run_trace_exports_valid_chrome_trace(self, tmp_path):
        from repro.obs import validate_trace

        target = tmp_path / "trace.json"
        code, text, _ = run_cli("run", "fig04", "--trace", str(target))
        assert code == 0
        assert "[trace]" in text
        payload = json.loads(target.read_text())
        validate_trace(payload)
        names = {e["name"] for e in payload["traceEvents"]
                 if e["ph"] == "X"}
        assert "experiment.fig04" in names

    def test_parallel_run_trace_carries_shard_pids_and_flows(self, tmp_path):
        target = tmp_path / "trace.json"
        code, _, _ = run_cli("run", "fig15", "--jobs", "2",
                             "--trace", str(target))
        assert code == 0
        payload = json.loads(target.read_text())
        pids = {e["pid"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert 1 in pids and len(pids) > 1  # parent + sweep shards
        assert any(e["ph"] == "s" for e in payload["traceEvents"])
        assert any(e["ph"] == "f" for e in payload["traceEvents"])

    def test_run_profile_prints_hot_path_table(self):
        code, text, err = run_cli("run", "fig04", "--profile")
        assert code == 0
        assert err == ""
        assert "profile:" in text
        assert "excl %" in text
        assert "experiment.fig04" in text

    def test_profile_does_not_change_results(self):
        _, plain, _ = run_cli("run", "fig04")
        _, profiled, _ = run_cli("run", "fig04", "--profile")
        assert profiled.startswith(plain)

    def test_stats_profile_renders_from_dump(self, tmp_path):
        target = tmp_path / "telemetry.jsonl"
        run_cli("run", "fig04", "--telemetry", str(target))
        code, text, err = run_cli("stats", str(target), "--profile")
        assert code == 0
        assert err == ""
        assert text.startswith("profile:")
        assert "experiment.fig04" in text


def run_with_closed_stdout(args, cwd, unbuffered=False):
    """Run ``python *args`` with a stdout pipe whose reader is gone.

    The read end is closed before the child starts, so its first write
    to stdout fails, whatever the timing: at a print when unbuffered,
    else at the flush before exit.
    """
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        return subprocess.run([sys.executable, *args], stdout=write_end,
                              stderr=subprocess.PIPE, cwd=cwd, env=env,
                              timeout=120)
    finally:
        os.close(write_end)


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_exits_141_without_a_traceback(self, tmp_path, unbuffered):
        done = run_with_closed_stdout(
            ("-m", "repro", "journal", "--grid", "1x1", "--nodes", "1",
             "--duration", "2"), tmp_path, unbuffered)
        assert done.returncode == 141
        assert b"Traceback" not in done.stderr
        assert b"Exception ignored" not in done.stderr

    def test_the_cli_module_is_not_a_second_entry_point(self, tmp_path):
        # ``python -m repro`` is the one entry point: running the module
        # behind it must not start a run that skips its pipe handling.
        done = run_with_closed_stdout(("-m", "repro.cli", "list"), tmp_path)
        assert b"Traceback" not in done.stderr


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "bench" in err
