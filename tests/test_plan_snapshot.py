"""The EXPLAIN text of the Figure-13 statements and the pool templates,
pinned against a committed snapshot.

``tests/data/fig13_explain.json`` holds the plain EXPLAIN (planned, not
executed) of each of the 22 Figure-13 statements and of one instance of
each of the six web/ingest request templates, on a freshly loaded
row-store and a freshly loaded column-store server over the test survey.
A refactor of the planner must leave every plan, estimate and cost as it
is.

Regenerate the file (only for a change meant to alter plans) with::

    PYTHONPATH=src python tests/test_plan_snapshot.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest
from request_templates import pool_templates

from repro.loader import load_release_database
from repro.skyserver import QueryLimits, SkyServer
from repro.skyserver.queries import DATA_MINING_QUERIES

EXPLAIN_FILE = Path(__file__).parent / "data" / "fig13_explain.json"

#: Server name -> whether its tables are column stores.
LAYOUTS = {"row": False, "columnar": True}


def template_statements(server: SkyServer) -> dict[str, str]:
    """The six pool request templates on the first loaded object."""
    target = server._first_row("PhotoObj")
    return pool_templates(target["ra"], target["dec"], target["objid"], 19.24)


def layout_plans(survey_output, columnar: bool) -> dict[str, str]:
    """Statement name -> EXPLAIN text on a freshly loaded server."""
    database, _report = load_release_database(survey_output, columnar=columnar)
    server = SkyServer(database, limits=QueryLimits.private())
    statements = {query.query_id: server._resolve_placeholders(query)
                  for query in DATA_MINING_QUERIES}
    statements.update(template_statements(server))
    return {name: server.explain(sql) for name, sql in statements.items()}


def plans(survey_output) -> dict[str, dict[str, str]]:
    return {name: layout_plans(survey_output, columnar)
            for name, columnar in LAYOUTS.items()}


@pytest.fixture(scope="module")
def fig13_plans(survey_output):
    return plans(survey_output)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_explain_text_is_pinned(fig13_plans, layout):
    expected = json.loads(EXPLAIN_FILE.read_text())[layout]
    assert len(expected) == 22 + 6
    moved = [name for name in expected if fig13_plans[layout].get(name) != expected[name]]
    assert not moved, "\n\n".join(
        f"{name}:\n{expected[name]}\n-- now --\n{fig13_plans[layout].get(name)}"
        for name in moved)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_plan_snapshot.py --write")
    from conftest import TEST_DENSITY, TEST_SEED
    from repro.pipeline import PlantedPopulations, SurveyConfig, SyntheticSurvey

    survey = SyntheticSurvey(SurveyConfig(
        scale=0.0005, seed=TEST_SEED, density_per_sq_deg=TEST_DENSITY,
        planted=PlantedPopulations())).run()
    EXPLAIN_FILE.parent.mkdir(exist_ok=True)
    EXPLAIN_FILE.write_text(json.dumps(plans(survey), indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPLAIN_FILE}")
