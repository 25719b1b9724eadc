#!/usr/bin/env bash
# Pre-PR gate: byte-compile everything, run the tier-1 suite (with any
# DeprecationWarning raised from repro's own code escalated to an
# error), the benchmark harness's own tests, the robustness suite, the
# streaming suite, the chaos (fault-injection) suite, an end-to-end
# stage-cache smoke run (the second run is warm, the entries hold at
# most 64 KB), the batch-vs-replay parity gate and the analysis-service
# smoke.  All of it must pass before a change ships (see README.md,
# "Tests").
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== compileall =="
python -m compileall -q src

echo "== tier-1 suite (repro DeprecationWarnings are errors) =="
python -m pytest -x -q -W "error::DeprecationWarning:repro"

echo "== bench harness tests =="
# The traced bench wraps functions by module path and name (TARGETS in
# bench/spans.py); these tests resolve every one, so renaming or
# inlining a wrapped function fails here, not only in a traced run.
python -m pytest -q bench

echo "== robustness suite =="
python -m pytest -x -q tests/robustness

echo "== streaming suite =="
python -m pytest -x -q tests/stream

echo "== chaos suite =="
python -m pytest -x -q -m chaos tests/robustness

echo "== coverage gate =="
# pytest-cov is optional (the container may not ship it); when present,
# hold line coverage of the repro package at or above the floor.
if python -c "import pytest_cov" 2>/dev/null; then
  python -m pytest -x -q --cov=repro --cov-fail-under=85
else
  echo "pytest-cov not installed; skipping coverage gate"
fi

echo "== stage-cache smoke run =="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
python -m repro.cli simulate --scenario quickstart --out "$SMOKE_DIR" >/dev/null
python -m repro.cli analyze --cache "$SMOKE_DIR" >/dev/null
# Second invocation must start warm from the persisted stage cache.
python -m repro.cli analyze --cache "$SMOKE_DIR" \
  | grep -q "0 miss(es)" \
  || { echo "stage-cache smoke run: stage cache did not warm" >&2; exit 1; }
# Entries point into the live history (kept positions), they do not copy
# it: the 30 quickstart entries take about 15 KB, element copies took 4 MB.
CACHE_BYTES="$(python -c 'import pathlib, sys
print(sum(p.stat().st_size for p in pathlib.Path(sys.argv[1]).iterdir()))' \
  "$SMOKE_DIR/stage_cache")"
[ "$CACHE_BYTES" -le 65536 ] \
  || { echo "stage-cache smoke run: stage_cache/ holds $CACHE_BYTES bytes (gate 64 KB)" >&2; exit 1; }

echo "== batch-vs-replay parity gate =="
# Streaming the same dataset chunk-by-chunk must land on the exact
# batch result digest (see docs/STREAMING.md).
python -m repro.cli replay --cache "$SMOKE_DIR" --chunk-hours 168 \
  --run-every 10 --verify-parity \
  | grep -q "parity OK" \
  || { echo "replay digest diverged from the batch run" >&2; exit 1; }

echo "== analysis-service smoke (stdio) =="
# Drive the long-lived service over its JSON-lines stdio front end
# with the same dataset: the warm refresh digest must be byte-
# identical to the one-shot batch digest (see docs/API.md).
BATCH_DIGEST="$(python -m repro.cli analyze --cache "$SMOKE_DIR" --json \
  | python -c "import json,sys; print(json.load(sys.stdin)['result_digest'])")"
SERVE_DIGEST="$(
  python - "$SMOKE_DIR" <<'PYEOF' | python -m repro.cli serve 2>/dev/null | python -c '
import json, sys
for line in sys.stdin:
    response = json.loads(line)
    if not response["ok"]:
        sys.exit("service error: %s" % response["error"])
    if response["op"] == "refresh":
        print(response["result"]["result_digest"])
'
import json, pathlib, sys
root = pathlib.Path(sys.argv[1])
dst = (root / "dst.csv").read_text()
tle = "".join(p.read_text() for p in sorted((root / "tles").glob("*.tle")))
print(json.dumps({"op": "ingest-delta", "payload": {"dst_text": dst, "tle_text": tle}}))
print(json.dumps({"op": "refresh"}))
print(json.dumps({"op": "shutdown"}))
PYEOF
)"
[ -n "$SERVE_DIGEST" ] && [ "$SERVE_DIGEST" = "$BATCH_DIGEST" ] \
  || { echo "service refresh digest diverged from the batch run" >&2; exit 1; }

echo "All checks passed."
