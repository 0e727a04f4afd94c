"""The pool request templates shared by the tests.

Not a test module: the lexer and plan snapshots and the shared-parse
tests import it (``tests/`` is on ``sys.path`` under pytest, and is the
script directory when a snapshot test runs with ``--write``).
"""

from __future__ import annotations


def pool_templates(ra: float, dec: float, obj_id: int,
                   magnitude: float) -> dict[str, str]:
    """One instance of each of the six web/ingest request templates
    (``benchmarks/e2e/workloads.py`` ``make_requests``), by kind."""
    return {
        "cone": (f"select N.objID, N.distance "
                 f"from fGetNearbyObjEq({ra:.5f}, {dec:.5f}, 1.0) as N"),
        "explore": f"select * from PhotoObj where objID = {obj_id}",
        "colour": (f"select count(*) as n from Galaxy "
                   f"where modelMag_g - modelMag_r > 0.7 and modelMag_r < {magnitude:.2f}"),
        "topn": (f"select top 50 objID, psfMag_r from Star "
                 f"where psfMag_r < {magnitude:.2f} order by psfMag_r"),
        "rect": (f"select count(*) as n from PhotoObj "
                 f"where ra between {ra - 0.1:.4f} and {ra + 0.1:.4f} "
                 f"and dec between {dec - 0.1:.4f} and {dec + 0.1:.4f}"),
        "bytype": "select type, count(*) as n from PhotoObj group by type",
    }
