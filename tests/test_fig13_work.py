"""The work every Figure-13 statement does, pinned counter by counter.

For each of the 22 statements, on the test survey's column-store server
and on a 4-shard column-store server, ``tests/data/fig13_work.json``
holds every :class:`~repro.engine.operators.ExecutionStatistics` counter
that does not measure time.  A refactor of the batch engine or of the
shard executor must leave them all as they are: the same rows and bytes
scanned, the same index entries read, the same batches, segments,
runtime-filter pruning, row-view fallbacks and compiled expressions.

Regenerate the file (only for a change meant to alter the work) with::

    PYTHONPATH=src python tests/test_fig13_work.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.loader import load_release_database
from repro.skyserver import QueryLimits, SkyServer

WORK_FILE = Path(__file__).parent / "data" / "fig13_work.json"

#: The counters that count work (none of them measures time).
COUNTERS = (
    "rows_scanned", "bytes_scanned", "index_entries_read", "random_lookups",
    "batches_processed", "batch_rows", "segments_scanned", "segments_skipped",
    "runtime_filter_segments_pruned", "runtime_filter_rows_pruned",
    "vector_fallbacks", "exprs_compiled", "rows_returned",
)

#: Server name -> shard count.
SERVERS = {"columnar": 1, "shards4": 4}


def server_work(survey_output, shards: int) -> dict[str, dict[str, int]]:
    """Query id -> counter -> value over one pass of the suite on a
    freshly loaded column-store server."""
    database, report = load_release_database(survey_output, columnar=True,
                                             shards=shards)
    server = SkyServer(database, limits=QueryLimits.private(),
                       cluster=report.cluster)
    return {run.query_id: {name: getattr(run.result.statistics, name)
                           for name in COUNTERS}
            for run in server.run_all_data_mining_queries()}


def work(survey_output) -> dict[str, dict[str, dict[str, int]]]:
    return {name: server_work(survey_output, shards)
            for name, shards in SERVERS.items()}


def differences(expected, actual) -> list[str]:
    """One line per statement whose counters moved."""
    lines = []
    for server in sorted(set(expected) | set(actual)):
        want, got = expected.get(server, {}), actual.get(server, {})
        for query_id in sorted(set(want) | set(got)):
            before, after = want.get(query_id, {}), got.get(query_id, {})
            moved = [f"{name} {before.get(name)} -> {after.get(name)}"
                     for name in COUNTERS if before.get(name) != after.get(name)]
            if moved:
                lines.append(f"{server} {query_id}: {', '.join(moved)}")
    return lines


@pytest.fixture(scope="module")
def fig13_work(survey_output):
    return work(survey_output)


@pytest.mark.parametrize("server", sorted(SERVERS))
def test_fig13_work_is_pinned(fig13_work, server):
    expected = json.loads(WORK_FILE.read_text())
    assert len(expected[server]) == 22
    diff = differences({server: expected[server]}, {server: fig13_work[server]})
    assert not diff, "\n".join(diff)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_fig13_work.py --write")
    sys.path.insert(0, str(Path(__file__).parent))
    from conftest import TEST_DENSITY, TEST_SEED
    from repro.pipeline import PlantedPopulations, SurveyConfig, SyntheticSurvey

    survey = SyntheticSurvey(SurveyConfig(
        scale=0.0005, seed=TEST_SEED, density_per_sq_deg=TEST_DENSITY,
        planted=PlantedPopulations())).run()
    WORK_FILE.parent.mkdir(exist_ok=True)
    WORK_FILE.write_text(json.dumps(work(survey), indent=1, sort_keys=True) + "\n")
    print(f"wrote {WORK_FILE}")
