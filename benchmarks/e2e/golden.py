"""Regenerate ``golden_fig13.json``: sha256 of ``repr(result.rows)`` per
Figure-13 statement, from the default row server; a statement whose
answer legitimately differs on another layout at this commit gets a
per-workload override (README lists them).

    python3 benchmarks/e2e/golden.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))

from repro.skyserver import SkyServer  # noqa: E402
from repro.skyserver.queries import DATA_MINING_QUERIES  # noqa: E402

from harness import fingerprint  # noqa: E402
from workloads import GOLDEN_PATH, SPECS, golden_data_key, survey_config  # noqa: E402


def answers(workload: str) -> dict[str, str]:
    server = SkyServer.create(SPECS[workload].config(survey_config(smoke=False), None))
    try:
        return {query.query_id: fingerprint(server.query(query.sql).rows)
                for query in DATA_MINING_QUERIES}
    finally:
        server.close()


def main() -> None:
    reference = answers("fig13_default")
    overrides = {}
    for workload in ("fig13_columnar", "fig13_shards4"):
        differing = {qid: digest for qid, digest in answers(workload).items()
                     if digest != reference[qid]}
        if differing:
            overrides[workload] = differing
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump({"data": golden_data_key(), "answers": reference,
                   "overrides": overrides}, handle, indent=1)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}; overrides: "
          f"{ {name: sorted(ids) for name, ids in overrides.items()} }")


if __name__ == "__main__":
    main()
