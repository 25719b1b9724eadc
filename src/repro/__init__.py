"""CosmicDance: measuring low Earth orbital shifts due to solar radiations.

A reproduction of the IMC 2024 paper's measurement pipeline plus every
substrate it stands on: TLE handling, an SGP4-class propagator, Dst
index tooling, a storm-driven thermosphere/drag model, and simulators
standing in for the public datasets (see DESIGN.md).

Quick start — the one-shot facade::

    from repro import analyze
    from repro.simulation import quickstart_scenario

    scenario = quickstart_scenario()
    result = analyze(scenario.dst, scenario.catalog)
    print(len(result.storm_episodes), "storm episodes")
    print(len(result.associations), "trajectory shifts closely after them")

Hold a :class:`CosmicDance` instead for the incremental fetch → re-run
loop and the post-run analysis delegates.  For a long-lived
multi-consumer server, start the analysis service with
:func:`repro.serve` — see ``docs/API.md`` for the full public surface.
"""

# The repro.serve *package* must be imported before the serve()
# *function* is bound below: Python setattr's a submodule onto its
# package at first import, and doing that import here (while the name
# still refers to the module) means later `import repro.serve.x`
# statements resolve from sys.modules and never clobber the function.
import repro.serve  # noqa: F401  (binds the submodule attribute first)

from repro.api import analyze, replay, serve
from repro.core.cleaning import CleanedHistory, CleaningReport
from repro.core.config import CosmicDanceConfig
from repro.core.decay import DecayAssessment, DecayState
from repro.core.pipeline import CosmicDance, PipelineResult
from repro.core.relations import Association, TrajectoryEvent, TrajectoryEventKind
from repro.exec import StageMemo, result_digest
from repro.obs import MetricsRegistry, Tracer
from repro.inputs import coerce_dst, coerce_elements
from repro.robustness.health import QuarantineLedger, RunHealth
from repro.robustness.retry import RetryPolicy
from repro.serve.protocol import ServeRequest, ServeResponse
from repro.serve.service import AnalysisService
from repro.spaceweather.dst import DstIndex
from repro.spaceweather.scales import StormLevel, classify_dst
from repro.spaceweather.storms import StormEpisode, detect_episodes
from repro.stream import (
    Alert,
    AlertEngine,
    FeedChunk,
    OnlineStormDetector,
    StreamMonitor,
    split_feed,
)
from repro.time import Epoch
from repro.timeseries import TimeSeries
from repro.tle.catalog import SatelliteCatalog
from repro.tle.elements import MeanElements
from repro.tle.format import format_tle
from repro.tle.parse import parse_tle, parse_tle_file

__version__ = "4.2.0"

__all__ = [
    "Alert",
    "AlertEngine",
    "AnalysisService",
    "Association",
    "CleanedHistory",
    "CleaningReport",
    "CosmicDance",
    "CosmicDanceConfig",
    "DecayAssessment",
    "DecayState",
    "DstIndex",
    "Epoch",
    "FeedChunk",
    "MeanElements",
    "MetricsRegistry",
    "OnlineStormDetector",
    "PipelineResult",
    "QuarantineLedger",
    "RetryPolicy",
    "RunHealth",
    "SatelliteCatalog",
    "ServeRequest",
    "ServeResponse",
    "StageMemo",
    "StormEpisode",
    "StormLevel",
    "StreamMonitor",
    "TimeSeries",
    "Tracer",
    "TrajectoryEvent",
    "TrajectoryEventKind",
    "__version__",
    "analyze",
    "classify_dst",
    "coerce_dst",
    "coerce_elements",
    "detect_episodes",
    "format_tle",
    "parse_tle",
    "parse_tle_file",
    "replay",
    "result_digest",
    "serve",
    "split_feed",
]
