"""The work every Figure-13 statement does, pinned counter by counter.

For each of the 22 statements, on the test survey's default (row-store)
server, its column-store server and a 4-shard column-store server,
``tests/data/fig13_work.json`` holds every
:class:`~repro.engine.operators.ExecutionStatistics` counter that does
not measure time.  A refactor of the batch engine or of the
shard executor must leave them all as they are: the same rows and bytes
scanned, the same index entries read, the same batches, segments,
runtime-filter pruning, row-view fallbacks and compiled expressions.

Regenerate the file (only for a change meant to alter the work) with::

    PYTHONPATH=src python tests/test_fig13_work.py --write [--server NAME]

``--server NAME`` regenerates one server's half and keeps the others.
"""

from __future__ import annotations

import argparse
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

#: Server name -> (column store?, shard count).
SERVERS = {"default": (False, 1), "columnar": (True, 1), "shards4": (True, 4)}


def server_work(survey_output, columnar: bool,
                shards: int) -> dict[str, dict[str, int]]:
    """Query id -> counter -> value over one pass of the suite on a
    freshly loaded server."""
    database, report = load_release_database(survey_output, columnar=columnar,
                                             shards=shards)
    server = SkyServer(database, limits=QueryLimits.private(),
                       cluster=report.cluster)
    return {run.query_id: {name: getattr(run.result.statistics, name)
                           for name in COUNTERS}
            for run in server.run_all_data_mining_queries()}


def work(survey_output, names=tuple(SERVERS)
         ) -> dict[str, dict[str, dict[str, int]]]:
    return {name: server_work(survey_output, *SERVERS[name]) for name in names}


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
    parser = argparse.ArgumentParser(description="Regenerate the fig13 work snapshot.")
    parser.add_argument("--write", action="store_true", required=True)
    parser.add_argument("--server", choices=list(SERVERS),
                        help="regenerate this server's half only")
    arguments = parser.parse_args()
    names = (arguments.server,) if arguments.server else tuple(SERVERS)
    sys.path.insert(0, str(Path(__file__).parent))
    from conftest import TEST_DENSITY, TEST_SEED
    from repro.pipeline import PlantedPopulations, SurveyConfig, SyntheticSurvey

    survey = SyntheticSurvey(SurveyConfig(
        scale=0.0005, seed=TEST_SEED, density_per_sq_deg=TEST_DENSITY,
        planted=PlantedPopulations())).run()
    snapshot = json.loads(WORK_FILE.read_text()) if WORK_FILE.exists() else {}
    snapshot.update(work(survey, names))
    WORK_FILE.parent.mkdir(exist_ok=True)
    WORK_FILE.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    print(f"wrote {WORK_FILE}")
