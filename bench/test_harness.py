"""Tests of the benchmark harness itself.

Run from the repository root with ``PYTHONPATH=src python -m pytest bench -q``.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import threading

import pytest

import data
import run as bench
import spans
import workloads
from spans import Recorder, Span


# --- self time -----------------------------------------------------------------
def test_self_time_subtracts_nested_and_cross_thread_children():
    tree = [
        Span(1, "op:heavy", 0.0, 10.0, None, "r1", "main"),
        Span(2, "a", 1.0, 3.0, 1, "r1", "main"),
        Span(3, "a.inner", 1.5, 2.0, 2, "r1", "main"),
        # Runs on another thread and overlaps its sibling: the parent is
        # covered by the union [1, 6], not by the sum of the children.
        Span(4, "b", 2.0, 6.0, 1, "r1", "worker"),
        # A child reaching past its parent only covers the overlap.
        Span(5, "c", 9.0, 12.0, 1, "r1", "worker"),
    ]
    own = spans.self_times(tree)
    assert own["op:heavy"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own["a"] == pytest.approx(1.5)
    assert own["a.inner"] == pytest.approx(0.5)
    assert own["b"] == pytest.approx(4.0)
    assert own["c"] == pytest.approx(3.0)


def test_op_breakdown_attributes_spans_to_their_operation_kind():
    tree = [
        Span(1, "op:heavy", 0.0, 4.0, None, None, "main"),
        Span(2, "a", 0.0, 2.0, 1, None, "main"),
        Span(3, "op:heavy", 4.0, 8.0, None, None, "main"),
        Span(4, "a", 4.0, 8.0, 3, None, "main"),
        Span(5, "op:light", 8.0, 9.0, None, None, "main"),
        Span(6, "a", 8.0, 8.5, 5, None, "main"),
    ]
    per_op = spans.op_breakdown(tree)
    assert per_op["heavy"]["a"] == pytest.approx(3.0)
    assert per_op["heavy"]["op:heavy"] == pytest.approx(1.0)
    assert per_op["light"]["a"] == pytest.approx(0.5)


def test_recorder_links_a_worker_thread_span_to_its_caller():
    recorder = Recorder()
    with recorder.op("heavy"), recorder.adopt(recorder.context()[0], "r7"):
        parent, request = recorder.context()

        def work():
            with recorder.adopt(parent, request), recorder.span("serve.execute"):
                pass

        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    op, = [s for s in recorder.spans if s.name == "op:heavy"]
    child, = [s for s in recorder.spans if s.name == "serve.execute"]
    assert child.parent == op.id
    assert child.request == "r7"
    assert child.thread != op.thread


def test_no_spans_outside_timed_operations():
    recorder = Recorder()
    patch = spans.install(recorder)
    try:
        from repro.exec import history_digest

        history_digest([])
        assert recorder.spans == []
        with recorder.op("light"):
            history_digest([])
    finally:
        patch.restore()
    assert [s.name for s in recorder.spans] == ["exec.history_digest", "op:light"]
    assert recorder.counts["exec.history_digest.calls"] == 1


# --- wrappers ------------------------------------------------------------------
def test_wrappers_are_installed_then_fully_restored():
    import types

    import repro.core.pipeline as pipeline
    import repro.core.relations as relations
    import repro.exec as exec_pkg
    from repro.core.ingest import IngestState
    from repro.serve.broker import RequestBroker

    originals = {
        "spikes": relations.detect_drag_spikes,
        "digest": exec_pkg.result_digest,
        "add_dst": vars(IngestState)["add_dst"],
        "submit": vars(RequestBroker)["submit"],
    }
    patch = spans.install(Recorder())
    try:
        # Every binding is replaced: the defining module, the importing
        # module, the package re-export, and class dicts.
        assert relations.detect_drag_spikes is not originals["spikes"]
        assert pipeline.detect_drag_spikes is relations.detect_drag_spikes
        assert exec_pkg.result_digest is not originals["digest"]
        assert vars(IngestState)["add_dst"] is not originals["add_dst"]
        assert vars(RequestBroker)["submit"] is not originals["submit"]
        # A module imported after install copies the wrapper.
        late = types.ModuleType("late_importer")
        late.result_digest = exec_pkg.result_digest
        sys.modules[late.__name__] = late
        patch.restore()
        assert late.result_digest is originals["digest"]
    finally:
        sys.modules.pop("late_importer", None)
    assert relations.detect_drag_spikes is originals["spikes"]
    assert pipeline.detect_drag_spikes is originals["spikes"]
    assert exec_pkg.result_digest is originals["digest"]
    assert vars(IngestState)["add_dst"] is originals["add_dst"]
    assert vars(RequestBroker)["submit"] is originals["submit"]


# --- statistics ------------------------------------------------------------------
def test_tail_percentile_needs_ten_samples_beyond_it():
    assert bench.tail_percentile(99) is None
    assert bench.tail_percentile(100) == 90.0
    assert bench.tail_percentile(999) == 90.0
    assert bench.tail_percentile(1000) == 99.0
    assert bench.tail_percentile(10000) == 99.9
    values = [float(v) for v in range(1, 101)]
    assert bench.percentile(values, 90.0) == 90.0  # ten samples beyond it
    assert bench.percentile(values, 50.0) == 50.0


def test_bound_check_uses_relative_bound_and_absolute_floor():
    assert bench.regressed(100.0, 110.5, "lower", 0.1)
    assert not bench.regressed(100.0, 109.5, "lower", 0.1)
    assert bench.regressed(100.0, 89.5, "higher", 0.1)
    assert not bench.regressed(100.0, 150.0, "higher", 0.1)
    # 40% worse, but under the absolute floor.
    assert not bench.regressed(0.2, 0.28, "lower", 0.1, floor=0.1)
    assert bench.regressed(0.2, 0.31, "lower", 0.1, floor=0.1)


# --- the command -------------------------------------------------------------------
def test_metric_names_match_benchmark_json():
    spec = json.loads(bench.SPEC.read_text())
    run = workloads.Run(1.0, 0.0, None, Recorder())
    run.samples["heavy"] = [0.2]
    run.samples["light"] = [0.1]
    run.throughput, run.measured, run.first_op = (2, 0.3), 0.3, 0.5
    assert set(bench.end_to_end(run)) == {m["name"] for m in spec["end_to_end"]}
    assert set(bench.per_layer(run)) == {m["name"] for m in spec["per_layer"]}
    assert set(bench.OP_KINDS) <= {m["name"] for m in spec["end_to_end"]}


@pytest.fixture
def sandbox(tmp_path, monkeypatch):
    """Outputs under *tmp_path* and a tiny stand-in for the inputs."""
    inputs = tmp_path / "inputs" / "24-0-test"
    inputs.mkdir(parents=True)
    monkeypatch.setattr(bench, "OUT", tmp_path / "out")
    monkeypatch.setattr(data, "OUT", tmp_path / "out")
    monkeypatch.setattr(data, "inputs_dir", lambda seed: inputs)
    return inputs


def _quick_workload(run, inputs, seed):
    while run.more():
        with run.measuring():
            with run.op("heavy"):
                pass
            with run.op("light"):
                pass
    run.throughput = (2, run.measured)
    run.reference = "digest-of-this-run"


def test_digest_mismatch_across_workloads_exits_1(sandbox, monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "batch", _quick_workload)
    data.record_digest(sandbox, "cli-cache", "a-different-digest")
    code = bench.main(["--workload", "batch", "--seconds", "0.01"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1
    assert any("digest == cli-cache digest" in line for line in lines)
    assert set(result["metrics"]) == {
        m["name"] for m in json.loads(bench.SPEC.read_text())["end_to_end"]
    }


def test_matching_digests_exit_0(sandbox, monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "batch", _quick_workload)
    data.record_digest(sandbox, "cli-cache", "digest-of-this-run")
    assert bench.main(["--workload", "batch", "--seconds", "0.01"]) == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["correct"]


def test_without_program_sources_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(bench.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(bench.SPEC, tmp_path / "BENCHMARK.json")
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "batch", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode != 0
    assert not any(line.startswith("{") for line in child.stdout.splitlines())


def test_source_hash_tracks_generator_sources(tmp_path):
    (tmp_path / "gen").mkdir()
    (tmp_path / "gen" / "a.py").write_text("x = 1\n")
    before = data.source_hash(["gen"], root=tmp_path)
    assert before == data.source_hash(["gen"], root=tmp_path)
    (tmp_path / "gen" / "a.py").write_text("x = 2\n")
    assert data.source_hash(["gen"], root=tmp_path) != before


def test_workload_names_match_benchmark_json():
    spec = json.loads(pathlib.Path(bench.SPEC).read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
