"""Unit tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.io import DataStore
from repro.io.csvio import write_dst_csv
from repro.spaceweather import DstIndex
from repro.spaceweather.wdc import format_wdc
from repro.time import Epoch
from repro.tle import SatelliteCatalog

from tests.core.helpers import record


@pytest.fixture
def dst_csv(tmp_path):
    hours = np.arange(24 * 90)
    values = -10.0 + 3.0 * np.sin(0.7 * hours)
    values[1000:1005] = -150.0
    dst = DstIndex.from_hourly(Epoch.from_calendar(2023, 1, 1), values)
    path = tmp_path / "dst.csv"
    with path.open("w") as handle:
        write_dst_csv(dst, handle)
    return path


@pytest.fixture
def cache(tmp_path, dst_csv):
    store = DataStore(tmp_path / "cache")
    from repro.io.csvio import read_dst_csv

    store.save_dst(read_dst_csv(dst_csv.read_text()))
    catalog = SatelliteCatalog()
    for day in range(90):
        catalog.add(record(44713, float(day), 550.0))
    # One decaying satellite for the analyze report.
    for day in range(40):
        catalog.add(record(44800, float(day), 550.0))
    for day in range(40, 90):
        catalog.add(record(44800, float(day), 550.0 - (day - 40) * 1.5))
    store.save_catalog(catalog)
    return store.root


class TestStormsCommand:
    def test_csv_input(self, dst_csv, capsys):
        assert main(["storms", "--dst", str(dst_csv)]) == 0
        out = capsys.readouterr().out
        assert "Storm episodes" in out
        assert "-150" in out

    def test_wdc_input(self, tmp_path, capsys):
        dst = DstIndex.from_hourly(
            Epoch.from_calendar(2023, 1, 1), [-10.0] * 30 + [-120.0] * 4 + [-10.0] * 14
        )
        path = tmp_path / "dst.wdc"
        path.write_text(format_wdc(dst))
        assert main(["storms", "--dst", str(path), "--threshold", "-100"]) == 0
        out = capsys.readouterr().out
        assert "MODERATE" in out

    def test_explicit_threshold(self, dst_csv, capsys):
        assert main(["storms", "--dst", str(dst_csv), "--threshold", "-100"]) == 0
        out = capsys.readouterr().out
        assert out.count("MODERATE") == 1

    def test_missing_file(self, tmp_path, capsys):
        assert main(["storms", "--dst", str(tmp_path / "nope.csv")]) == 1
        assert "error" in capsys.readouterr().err

    def test_percentile_and_threshold_are_mutually_exclusive(self, dst_csv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["storms", "--dst", str(dst_csv),
                 "--percentile", "99", "--threshold", "-100"]
            )
        assert excinfo.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_explicit_percentile(self, dst_csv, capsys):
        assert main(["storms", "--dst", str(dst_csv), "--percentile", "95"]) == 0
        assert "Storm episodes" in capsys.readouterr().out


class TestCleanCommand:
    def test_clean_from_cache(self, cache, capsys):
        assert main(["clean", "--cache", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "Cleaning report" in out
        assert "satellites kept" in out

    def test_clean_requires_input(self, capsys):
        assert main(["clean"]) == 1
        assert "no TLEs" in capsys.readouterr().err


class TestAnalyzeCommand:
    def test_analyze_from_cache(self, cache, capsys):
        assert main(["analyze", "--cache", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "Storm episodes" in out
        assert "Permanent decays" in out
        assert "44800" in out

    def test_analyze_requires_data(self, capsys):
        assert main(["analyze"]) == 1
        assert "no data" in capsys.readouterr().err

    def test_healthy_run_reports_health(self, cache, capsys):
        assert main(["analyze", "--cache", str(cache)]) == 0
        assert "run health: healthy" in capsys.readouterr().out


class TestExecutionFlags:
    def test_analyze_with_workers(self, cache, monkeypatch, capsys):
        import io

        # The fleet stage has no process pool: --workers is a usage
        # error on the analysis commands, while serve keeps it as its
        # request-thread count.
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--cache", str(cache), "--workers", "2"])
        assert excinfo.value.code == 2
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["serve", "--workers", "2"]) == 0

    def test_stage_cache_persists_between_invocations(self, cache, capsys):
        assert main(["analyze", "--cache", str(cache)]) == 0
        first = capsys.readouterr().out
        assert "miss(es)" in first
        assert "0 hit(s)" in first
        assert main(["analyze", "--cache", str(cache)]) == 0
        second = capsys.readouterr().out
        assert "0 miss(es)" in second
        assert (cache / "stage_cache").is_dir()

    def test_no_stage_cache_disables_memoization(self, cache, capsys):
        assert main(["analyze", "--cache", str(cache), "--no-stage-cache"]) == 0
        out = capsys.readouterr().out
        assert "stage cache" not in out
        assert not (cache / "stage_cache").exists()


class TestDegradedCache:
    def corrupt_one_history(self, cache):
        path = cache / "tles" / "44713.tle"
        text = path.read_text()
        path.write_text(text[:-2] + "9\n")  # break the final checksum

    def test_analyze_survives_corrupt_history(self, cache, capsys):
        self.corrupt_one_history(cache)
        assert main(["analyze", "--cache", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "run health: degraded" in out
        assert "Quarantine ledger" in out
        assert "44800" in out  # the healthy satellite still analyzed

    def test_report_includes_health_section(self, cache, capsys):
        self.corrupt_one_history(cache)
        assert main(["report", "--cache", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "Run health" in out
        assert "Quarantine ledger" in out

    def test_quarantined_stage_cache_entry_is_reported(self, cache, capsys):
        assert main(["analyze", "--cache", str(cache)]) == 0
        capsys.readouterr()
        entry = sorted((cache / "stage_cache").iterdir())[0]
        entry.write_text("garbage")
        assert main(["analyze", "--cache", str(cache)]) == 0
        out = capsys.readouterr().out
        assert (
            "run health: healthy: nothing quarantined "
            "(stage cache: 1 hit(s), 1 miss(es), 1 quarantined)"
        ) in out
        assert (cache / "quarantine" / entry.name).exists()
        # Counted per run: the recomputed entry is a plain hit next time.
        assert main(["analyze", "--cache", str(cache)]) == 0
        assert "(stage cache: 2 hit(s), 0 miss(es))\n" in capsys.readouterr().out

    def test_strict_flag_fails_fast(self, cache, capsys):
        self.corrupt_one_history(cache)
        assert main(["analyze", "--cache", str(cache), "--strict"]) == 1
        assert "corrupt TLE cache" in capsys.readouterr().err

    def test_non_utf8_history_is_salvaged(self, cache, capsys):
        with open(cache / "tles" / "44713.tle", "ab") as handle:
            handle.write(b"\xff\xfe")
        assert main(["analyze", "--cache", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "run health: degraded" in out
        assert "satellite 44713: salvaged" in out
        assert (cache / "quarantine" / "44713.tle").exists()
        assert main(["analyze", "--cache", str(cache), "--strict"]) == 0
        assert "run health: healthy" in capsys.readouterr().out

    def test_non_utf8_history_fails_strict_with_a_typed_error(self, cache, capsys):
        with open(cache / "tles" / "44713.tle", "ab") as handle:
            handle.write(b"\xff\xfe")
        assert main(["analyze", "--cache", str(cache), "--strict"]) == 1
        assert "corrupt TLE cache for 44713: not UTF-8 text" in capsys.readouterr().err

    def test_non_utf8_catalog_numbers_line_is_skipped(self, cache, capsys):
        with open(cache / "catalog_numbers.txt", "ab") as handle:
            handle.write(b"\xff\xfe\n")
        assert main(["analyze", "--cache", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "skipped 1 corrupt catalog-number line(s)" in out
        assert "44800" in out


class TestSimulateCommand:
    def test_simulate_quickstart(self, tmp_path, capsys):
        out_dir = tmp_path / "generated"
        assert main(["simulate", "--scenario", "quickstart", "--out", str(out_dir)]) == 0
        assert (out_dir / "dst.csv").exists()
        assert (out_dir / "catalog_numbers.txt").exists()
        assert "quickstart" in capsys.readouterr().out

    def test_simulated_cache_analyzes(self, tmp_path, capsys):
        out_dir = tmp_path / "generated"
        main(["simulate", "--scenario", "quickstart", "--out", str(out_dir)])
        capsys.readouterr()
        assert main(["analyze", "--cache", str(out_dir)]) == 0
        assert "closely after" in capsys.readouterr().out


class TestLifetimeCommand:
    def test_staging_altitude(self, capsys):
        assert main(["lifetime", "--altitude", "350"]) == 0
        out = capsys.readouterr().out
        assert "re-entry in" in out

    def test_storm_multiplier_shortens(self, capsys):
        main(["lifetime", "--altitude", "450"])
        quiet_out = capsys.readouterr().out
        main(["lifetime", "--altitude", "450", "--density-multiplier", "5"])
        storm_out = capsys.readouterr().out
        quiet_days = float(quiet_out.split("re-entry in ")[1].split(" days")[0])
        storm_days = float(storm_out.split("re-entry in ")[1].split(" days")[0])
        assert storm_days < quiet_days

    def test_truncation_reported(self, capsys):
        assert main(["lifetime", "--altitude", "550", "--max-days", "10"]) == 0
        assert "no re-entry within" in capsys.readouterr().out


class TestTriggersCommand:
    def test_campaigns_listed(self, dst_csv, capsys):
        assert main(["triggers", "--dst", str(dst_csv)]) == 0
        out = capsys.readouterr().out
        assert "Measurement campaigns" in out
        assert "-150" in out

    def test_threshold_override(self, dst_csv, capsys):
        assert main(["triggers", "--dst", str(dst_csv), "--threshold", "-100"]) == 0
        assert "-100.0 nT" in capsys.readouterr().out


def _contract_argv(name, dst_csv, cache, tmp_path):
    """A known-good argv for each subcommand (setup included)."""
    if name == "trace-report":
        # A trace artifact must exist before it can be rendered.
        assert main(["analyze", "--cache", str(cache), "--trace"]) == 0
        return ["trace-report", "--cache", str(cache)]
    return {
        "simulate": ["simulate", "--out", str(tmp_path / "sim")],
        "storms": ["storms", "--dst", str(dst_csv)],
        "clean": ["clean", "--cache", str(cache)],
        "analyze": ["analyze", "--cache", str(cache)],
        "report": ["report", "--cache", str(cache)],
        "lifetime": ["lifetime", "--altitude", "400"],
        "triggers": ["triggers", "--dst", str(dst_csv)],
        "replay": ["replay", "--cache", str(cache)],
        "watch": ["watch", "--max-chunks", "3"],
    }[name]


JSON_COMMANDS = (
    "simulate", "storms", "clean", "analyze", "report",
    "lifetime", "triggers", "trace-report", "replay", "watch",
)


class TestJsonContract:
    """Every subcommand honours --json: exactly one machine-readable
    object on stdout, nothing else."""

    import json as _json

    @pytest.mark.parametrize("name", JSON_COMMANDS)
    def test_json_is_one_object_on_stdout(
        self, name, dst_csv, cache, tmp_path, capsys
    ):
        argv = _contract_argv(name, dst_csv, cache, tmp_path)
        capsys.readouterr()  # discard any setup output
        assert main(argv + ["--json"]) == 0
        out = capsys.readouterr().out
        payload = self._json.loads(out)  # whole stream parses as one doc
        assert payload["command"] == name

    @pytest.mark.parametrize("name", JSON_COMMANDS)
    def test_human_mode_is_unchanged_by_the_flag(
        self, name, dst_csv, cache, tmp_path, capsys
    ):
        argv = _contract_argv(name, dst_csv, cache, tmp_path)
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        with pytest.raises(ValueError):
            self._json.loads(out)  # tables, not JSON


class TestExitCodes:
    """The exit-code contract: 0 ok, 1 pipeline error, 2 usage."""

    def test_pipeline_error_is_exit_1(self, capsys):
        assert main(["analyze"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_pipeline_error_under_json_is_a_typed_envelope(self, capsys):
        import json

        assert main(["analyze", "--json"]) == 1
        out, err = capsys.readouterr()
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["error"]["type"] == "ReproError"
        assert "error:" in err

    def test_missing_file_is_exit_1(self, tmp_path, capsys):
        assert main(["storms", "--dst", str(tmp_path / "nope.csv")]) == 1

    def test_usage_error_is_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--bogus-flag"])
        assert excinfo.value.code == 2

    def test_bad_host_port_is_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--http", "not-a-hostport"])
        assert excinfo.value.code == 2

    def test_unknown_command_is_exit_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["conquer"])
        assert excinfo.value.code == 2


class TestServeCommand:
    def test_stdio_round_trip(self, monkeypatch, capsys):
        import io
        import json

        requests = "\n".join(
            json.dumps(r)
            for r in ({"op": "health"}, {"op": "shutdown"})
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(requests + "\n"))
        assert main(["serve"]) == 0
        out, err = capsys.readouterr()
        lines = [json.loads(line) for line in out.splitlines() if line]
        assert len(lines) == 2
        assert all(line["ok"] for line in lines)
        assert lines[0]["result"]["status"] == "ok"
        assert "served 2 request(s)" in err

    def test_stdio_summary_is_json_on_stderr_under_json(
        self, monkeypatch, capsys
    ):
        import io
        import json

        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["serve", "--json"]) == 0
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"answered": 0, "command": "serve"}
