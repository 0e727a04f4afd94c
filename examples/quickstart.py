"""Quickstart: generate a synthetic sky, load it, and query it like the SkyServer.

Run with::

    python examples/quickstart.py

The script walks the full path of the reproduction: the survey pipeline
produces the catalog, the loader builds the database (schema, indices,
Neighbors), and the SkyServer layer answers SQL — including the paper's
own Query 1 — and renders results in the public output formats.
"""

from __future__ import annotations

from repro.pipeline import SurveyConfig
from repro.skyserver import ServerConfig, SkyServer, render_grid
from repro.skyserver.queries import QUERY_1_SQL


def main() -> None:
    print("Generating and loading a synthetic SDSS data release "
          "(about 1/2000 of the real Early Data Release)...")
    server = SkyServer.create(ServerConfig(
        survey=SurveyConfig(scale=0.0005, seed=1, density_per_sq_deg=8000.0)))
    summary = server.survey_output.summary()
    print(f"  fields: {summary['fields']}, photo objects: {summary['photo_objects']}, "
          f"spectra: {summary['spectra']}, primary fraction: {summary['primary_fraction']:.1%}")

    print("\nTable sizes (the reproduction's Table 1):")
    for entry in server.database.size_report():
        if entry["records"]:
            print(f"  {entry['table']:<14s} {entry['records']:>9,d} rows "
                  f"{entry['total_bytes'] / 1e6:>8.1f} MB")

    print("\nThe paper's Query 1 — galaxies within 1' of (185, -0.5) without saturated pixels:")
    result = server.query(QUERY_1_SQL)
    print(render_grid(result))

    print("\nIts query plan (Figure 10's shape — the spatial function drives an "
          "index nested-loop join):")
    print(result.plan.explain())

    print("\nA cone search through the HTM index:")
    for row in server.cone_search(185.0, -0.5, 0.5)[:5]:
        print(f"  objID {row['objID']}  distance {row['distance']:.3f}'  type {row['type']}")

    print("\nAn aggregate over the whole catalog:")
    print(render_grid(server.query(
        "select type, count(*) as n, avg(modelMag_r) as meanMag "
        "from PhotoObj group by type order by n desc")))

    print("Done.  See examples/data_mining_queries.py for the full 20-query suite.")


if __name__ == "__main__":
    main()
