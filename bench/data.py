"""Benchmark inputs: one generated scenario per seed, cached on disk.

Every workload reads the same inputs: the paper scenario generated for
a pool of ``POOL`` satellites, of which the ``SATELLITES`` with the
longest TLE histories are kept, written in the DataStore layout
(``dst.csv``, ``catalog_numbers.txt``, ``tles/<n>.tle``) with the public
``DataStore.save_dst`` and ``DataStore.save_catalog`` -- what
``cosmicdance simulate`` writes.  The program under test only ever sees
these files.

Keeping the longest histories holds the input size steady across seeds
(56.3k to 58.0k records for seeds 0-10, against 43k to 57.5k for a plain
24-satellite scenario, where early failures shorten some fleets), so the
seed varies what the data says, not how much of it there is.

A scenario is cached under ``out/inputs/<S>-<seed>-<hash>/``.  The hash
covers the sources that decide the bytes written (the simulator, the TLE
formatter, the Dst CSV writer and this file), so two commits that share
them read byte-identical inputs, and a commit that changes them gets
fresh ones.

Result digests are recorded per (inputs, program source) pair under
``out/digests/`` so that workloads run in separate processes can check
that they reached the same analysis result.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import shutil
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"

#: Satellites kept (57.6k TLE records and 39,576 Dst hours at seed 0).
SATELLITES = 24
#: Satellites generated to choose them from.
POOL = 36

#: Sources whose bytes decide what the generator writes.
GENERATOR_SOURCES = (
    "src/repro/simulation",
    "src/repro/tle/format.py",
    "src/repro/io/csvio.py",
    "bench/data.py",
)


def source_hash(paths: tuple[str, ...] | list[str], root: pathlib.Path = ROOT) -> str:
    """Short SHA-256 over the ``*.py`` files under *paths* (name + bytes)."""
    digest = hashlib.sha256()
    for entry in paths:
        base = root / entry
        files = sorted(base.rglob("*.py")) if base.is_dir() else [base]
        for path in files:
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()[:16]


def inputs_dir(seed: int) -> pathlib.Path:
    """The cached DataStore directory for *seed*, generated on first use.

    Generation writes into a temporary sibling and renames it into place,
    so a reader never sees a half-written scenario.
    """
    final = OUT / "inputs" / f"{SATELLITES}-{seed}-{source_hash(GENERATOR_SOURCES)}"
    if (final / "catalog_numbers.txt").exists():
        return final
    from repro.io.store import DataStore
    from repro.simulation import paper_scenario
    from repro.tle.catalog import SatelliteCatalog

    final.parent.mkdir(parents=True, exist_ok=True)
    staging = pathlib.Path(tempfile.mkdtemp(dir=final.parent, prefix=".gen-"))
    try:
        scenario = paper_scenario(total_satellites=POOL, seed=seed)
        longest = sorted(scenario.catalog, key=lambda h: (-len(h), h.catalog_number))
        catalog = SatelliteCatalog()
        for history in longest[:SATELLITES]:
            catalog.add_many(history)
        store = DataStore(staging)
        store.save_dst(scenario.dst)
        store.save_catalog(catalog)
        try:
            os.rename(staging, final)
        except OSError:
            if not (final / "catalog_numbers.txt").exists():
                raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return final


def load_parsed(path: pathlib.Path):
    """``(DstIndex, SatelliteCatalog)`` read through the public DataStore."""
    from repro.io.store import DataStore

    store = DataStore(path)
    return store.load_dst(), store.load_catalog()


def load_text(path: pathlib.Path) -> tuple[str, str]:
    """``(dst_csv_text, tle_text)``: the cached files as a client would
    send them, with every satellite's history concatenated."""
    numbers = (path / "catalog_numbers.txt").read_text().split()
    tle_text = "".join(
        (path / "tles" / f"{number}.tle").read_text() for number in numbers
    )
    return (path / "dst.csv").read_text(), tle_text


def record_digest(inputs: pathlib.Path, workload: str, digest: str) -> dict[str, str]:
    """Record *workload*'s reference digest on *inputs*; return every
    other workload's digest recorded for the same inputs and program."""
    key = f"{inputs.name}-{source_hash(['src/repro'])}"
    folder = OUT / "digests" / key
    folder.mkdir(parents=True, exist_ok=True)
    (folder / f"{workload}.txt").write_text(digest + "\n")
    return {
        path.stem: path.read_text().strip()
        for path in sorted(folder.glob("*.txt"))
        if path.stem != workload
    }
