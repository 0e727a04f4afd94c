"""The education projects: the student Hubble diagram and Old-Time Astronomy (paper §6).

Run with::

    python examples/education_hubble_diagram.py
"""

from __future__ import annotations

from repro.pipeline import SurveyConfig
from repro.skyserver import (ServerConfig, SkyServer, hubble_diagram,
                             old_time_astronomy_targets, project_catalog)


def main() -> None:
    print("Building the classroom SkyServer ...")
    server = SkyServer.create(ServerConfig(
        survey=SurveyConfig(scale=0.0006, seed=6, density_per_sq_deg=9000.0)))

    print("\nThe education project catalog (audience ladder of §6):")
    for entry in project_catalog():
        teacher = "teacher site" if entry.teacher_site else "no teacher site"
        print(f"  [{entry.level:<22s}] {entry.name:<22s} ({teacher})")
        print(f"      {entry.description}")

    print("\nThe student Hubble diagram (Figure 4, right): redshift vs magnitude "
          "for nine galaxies with spectra")
    diagram = hubble_diagram(server, count=9)
    print(f"  {'objID':>16s} {'redshift':>9s} {'magnitude':>10s} {'velocity km/s':>14s}")
    for point in diagram.points:
        print(f"  {point.obj_id:16d} {point.redshift:9.4f} {point.magnitude:10.2f} "
              f"{point.velocity_km_s:14.0f}")
    slope = diagram.slope_mag_per_dex()
    print(f"\n  least-squares slope: {slope:.2f} magnitudes per decade of redshift")
    print("  fainter galaxies recede faster -> the universe is expanding: "
          f"{'yes' if diagram.is_expanding() else 'not detected'}")

    print("\nOld-Time Astronomy sketching targets (bright, extended galaxies):")
    for target in old_time_astronomy_targets(server, count=5):
        print(f"  objID {target.obj_id}  r={target.magnitude:.2f}  "
              f"radius={target.petro_radius:.1f}\"  {target.explorer_url}")

    print("\nStudents examine exactly the same data as professional astronomers.")


if __name__ == "__main__":
    main()
