"""Shared fixtures.

The expensive fixtures (synthetic survey, loaded database, running
SkyServer) are session-scoped: the survey is generated and loaded once
and the integration tests all read from it.  The generation uses a
reduced sky density so the whole suite stays fast; the planted
populations (the Query 1 cluster, the NEO pairs, the asteroids) do not
depend on the density, so every worked example still returns rows.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.engine import Database, PrimaryKey, bigint, floating, integer, text
from repro.loader import SkyServerLoader
from repro.pipeline import PlantedPopulations, SurveyConfig, SyntheticSurvey
from repro.schema import create_skyserver_database
from repro.skyserver import QueryLimits, SkyServer

try:
    from hypothesis import settings
except ImportError:  # the property suites skip themselves
    pass
else:
    # One profile for the whole run: no deadline, and a fixed example
    # sequence, so every run covers the same inputs.  Each property test
    # sets its own ``max_examples``.
    settings.register_profile("repro", deadline=None, derandomize=True)
    settings.load_profile("repro")

#: Reduced sky density used by the test fixtures (objects per square degree).
TEST_DENSITY = 6000.0
TEST_SEED = 20020603       # SIGMOD 2002, June 3rd


@pytest.fixture(scope="session")
def survey_config() -> SurveyConfig:
    return SurveyConfig(scale=0.0005, seed=TEST_SEED,
                        density_per_sq_deg=TEST_DENSITY,
                        planted=PlantedPopulations())


@pytest.fixture(scope="session")
def survey_output(survey_config):
    """One synthetic survey generation, shared by the whole session."""
    return SyntheticSurvey(survey_config).run()


@pytest.fixture(scope="session")
def loaded_database(survey_output):
    """A SkyServer database with the survey loaded, indexed and validated."""
    database = create_skyserver_database(with_indices=False)
    loader = SkyServerLoader(database)
    report = loader.load_pipeline_output(survey_output)
    assert report.succeeded, report.summary()
    return database


@pytest.fixture(scope="session")
def skyserver(loaded_database):
    """A private (unlimited) SkyServer over the loaded database."""
    return SkyServer(loaded_database, limits=QueryLimits.private())


@pytest.fixture()
def empty_database():
    """A fresh, empty engine database for unit tests."""
    return Database("unit-test")


@pytest.fixture()
def toy_photo_database():
    """A tiny hand-built PhotoObj-like table for planner/executor unit tests."""
    database = Database("toy")
    table = database.create_table("PhotoObj", [
        bigint("objID"),
        integer("run"),
        integer("camcol"),
        integer("field"),
        text("type"),
        bigint("flags"),
        floating("ra"),
        floating("dec"),
        floating("rowv"),
        floating("colv"),
        floating("modelMag_r"),
    ], primary_key=PrimaryKey(["objID"]))
    rng = random.Random(7)
    rows = []
    for index in range(500):
        rows.append({
            "objID": index + 1,
            "run": 756 if index % 2 == 0 else 745,
            "camcol": index % 6 + 1,
            "field": 100 + index % 10,
            "type": "galaxy" if index % 3 == 0 else "star",
            "flags": rng.choice([0, 1, 2, 3, 7]),
            "ra": 180.0 + rng.random() * 10.0,
            "dec": -1.0 + rng.random() * 2.0,
            "rowv": rng.random() * 30.0,
            "colv": rng.random() * 30.0,
            "modelMag_r": 14.0 + rng.random() * 8.0,
        })
    table.insert_many(rows, database=database)
    table.create_index("ix_type", ["type"], included_columns=["modelMag_r"])
    table.create_index("ix_field", ["run", "camcol", "field"])
    return database


#: CPU seconds the :func:`busy_neighbour` thread burns.
NEIGHBOUR_CPU_SECONDS = 0.3


def _burn() -> None:
    started = time.thread_time()
    while time.thread_time() - started < NEIGHBOUR_CPU_SECONDS:
        pass


@pytest.fixture()
def busy_neighbour():
    """A function that starts a thread burning :data:`NEIGHBOUR_CPU_SECONDS`
    of its own CPU and returns True once that thread is done.  Code that
    calls it waits while the CPU is spent elsewhere: a per-thread clock
    must not charge it."""

    def run() -> bool:
        thread = threading.Thread(target=_burn, name="busy-neighbour")
        thread.start()
        thread.join(timeout=30)
        if thread.is_alive():
            raise RuntimeError("the busy neighbour did not finish in 30 s")
        return True

    return run
