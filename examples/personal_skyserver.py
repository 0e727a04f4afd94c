"""The Personal SkyServer: carve out a laptop-sized subset and query it (paper §10).

Run with::

    python examples/personal_skyserver.py
"""

from __future__ import annotations

from repro.pipeline import SurveyConfig
from repro.skyserver import (ServerConfig, SkyServer, extract_personal_skyserver,
                             render_grid)


def main() -> None:
    print("Building the full (reproduction-scale) public SkyServer ...")
    public = SkyServer.create(ServerConfig(
        survey=SurveyConfig(scale=0.0006, seed=4, density_per_sq_deg=9000.0)))
    full_stats = public.site_statistics()
    print(f"  total size: {full_stats['total_bytes'] / 1e6:.1f} MB")

    print("\nExtracting the Personal SkyServer: everything inside a small square "
          "around (185, -0.5) ...")
    personal, summary = extract_personal_skyserver(
        public.database, center_ra=185.0, center_dec=-0.5, size_degrees=0.15)
    print(f"  PhotoObj subset: {summary.row_counts['PhotoObj']} of "
          f"{summary.source_row_counts['PhotoObj']} rows "
          f"({summary.subset_fraction('PhotoObj'):.1%})")
    print(f"  personal database size: {summary.bytes_total / 1e6:.1f} MB "
          "(the paper's subset fits on a CD)")
    for table, count in sorted(summary.row_counts.items()):
        print(f"    {table:<14s} {count:>7d} rows")

    print("\nThe personal copy answers the same queries as the public server:")
    laptop = SkyServer(personal)
    result = laptop.query("""
        select top 5 objID, modelMag_r, petroRad_r
        from Galaxy
        order by modelMag_r
    """)
    print(render_grid(result))

    print("A cone search on the laptop copy:")
    for row in laptop.cone_search(185.0, -0.5, 0.5)[:5]:
        print(f"  objID {row['objID']}  distance {row['distance']:.3f}'")

    print("\nEvery classroom can have a mini-SkyServer per student.")


if __name__ == "__main__":
    main()
