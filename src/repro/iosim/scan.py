"""Sequential-scan bandwidth prediction and engine measurement (Figure 15).

``predict_bandwidth`` runs the analytic component model for one disk
configuration: the offered bandwidth is disks × per-disk rate, clipped
by each controller, by the PCI buses the controllers sit on, by the
file system, and finally by SQL's record-processing CPU ceiling; the
first clip encountered is reported as the bottleneck — the annotations
of Figure 15.

``measure_engine_scan`` times a real sequential scan of a table in the
reproduction's engine and converts it into the same units (MB/s and
records/s) so paper-vs-measured tables can show both the model at
paper-hardware scale and the Python engine's own throughput.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from ..engine import Database
from .components import (NTFS_MAX_MBPS, PCI_64_33_MBPS, PCI_64_66_MBPS,
                         ServerHardware)
from .config import DiskConfiguration, figure15_configurations


@dataclass
class BandwidthPrediction:
    """Predicted throughput of one configuration, with the limiting resource."""

    configuration: DiskConfiguration
    disk_mbps: float
    controller_mbps: float
    bus_mbps: float
    filesystem_mbps: float
    sql_mbps: float
    bottleneck: str
    cpu_utilisation: float

    @property
    def achieved_mbps(self) -> float:
        return self.sql_mbps


def predict_bandwidth(hardware: ServerHardware, configuration: DiskConfiguration, *,
                      predicate_scan: bool = False) -> BandwidthPrediction:
    """Predict the sequential-scan bandwidth of one disk configuration."""
    disk_mbps = configuration.disks * hardware.disk.bandwidth()

    controller_mbps = 0.0
    per_controller_offered: list[float] = []
    for attached in configuration.disks_per_controller():
        limited = hardware.controller.bandwidth(attached, hardware.disk)
        per_controller_offered.append(limited)
        controller_mbps += limited

    # The ML530 has a 2-slot 64-bit/66MHz bus and a 5-slot 64-bit/33MHz bus;
    # the first two controllers sit on the fast bus, later ones on the slow one.
    fast_bus_offered = sum(per_controller_offered[:2])
    slow_bus_offered = sum(per_controller_offered[2:])
    bus_mbps = min(fast_bus_offered, PCI_64_66_MBPS) + min(slow_bus_offered, PCI_64_33_MBPS)

    filesystem_mbps = min(bus_mbps, NTFS_MAX_MBPS)
    sql_ceiling = hardware.cpu.max_mbps(predicate=predicate_scan)
    sql_mbps = min(filesystem_mbps, sql_ceiling)

    if sql_mbps < filesystem_mbps - 1e-9:
        bottleneck = "cpu"
    elif filesystem_mbps < bus_mbps - 1e-9:
        bottleneck = "filesystem"
    elif bus_mbps < controller_mbps - 1e-9:
        bottleneck = "pci bus"
    elif controller_mbps < disk_mbps - 1e-9:
        bottleneck = "controller"
    else:
        bottleneck = "disks"

    return BandwidthPrediction(
        configuration=configuration,
        disk_mbps=disk_mbps,
        controller_mbps=controller_mbps,
        bus_mbps=bus_mbps,
        filesystem_mbps=filesystem_mbps,
        sql_mbps=sql_mbps,
        bottleneck=bottleneck,
        cpu_utilisation=hardware.cpu.utilisation(sql_mbps, predicate=predicate_scan),
    )


def sweep_figure15(hardware: Optional[ServerHardware] = None, *,
                   predicate_scan: bool = False) -> list[BandwidthPrediction]:
    """The full Figure 15 sweep (1..12 disks plus the two-volume point)."""
    hardware = hardware or ServerHardware.paper_database_server()
    return [predict_bandwidth(hardware, configuration, predicate_scan=predicate_scan)
            for configuration in figure15_configurations()]


@dataclass
class EngineScanMeasurement:
    """Measured sequential-scan throughput of the reproduction's engine."""

    table: str
    rows: int
    bytes_scanned: int
    elapsed_seconds: float
    rows_per_second: float
    mbps: float
    warm: bool


def measure_engine_scan(database: Database, table_name: str = "PhotoObj", *,
                        predicate_sql: str = "modelMag_r > 0",
                        warm: bool = True) -> EngineScanMeasurement:
    """Time a full sequential scan of a table through the SQL layer.

    ``warm`` is bookkeeping only (all engine data is memory-resident, the
    paper's "warm" case); the cold case is modelled, not measured, since
    the reproduction has no real disks to read from.
    """
    from ..engine import SqlSession

    session = SqlSession(database)
    started = time.perf_counter()
    result = session.query(f"select count(*) as n from {table_name} where {predicate_sql}")
    elapsed = max(1.0e-9, time.perf_counter() - started)
    statistics = result.statistics
    rows = statistics.rows_scanned
    return EngineScanMeasurement(
        table=table_name,
        rows=rows,
        bytes_scanned=statistics.bytes_scanned,
        elapsed_seconds=elapsed,
        rows_per_second=rows / elapsed,
        mbps=statistics.bytes_scanned / 1.0e6 / elapsed,
        warm=warm,
    )


def figure15_table(predictions: Sequence[BandwidthPrediction]) -> str:
    """Render the sweep as the text table the benchmark prints."""
    lines = [f"{'config':>12s} {'disks':>5s} {'ctlrs':>5s} {'MB/s':>7s} {'bottleneck':>12s} {'cpu':>5s}"]
    for prediction in predictions:
        configuration = prediction.configuration
        lines.append(
            f"{configuration.label:>12s} {configuration.disks:5d} {configuration.controllers:5d} "
            f"{prediction.achieved_mbps:7.0f} {prediction.bottleneck:>12s} "
            f"{prediction.cpu_utilisation:5.0%}")
    return "\n".join(lines)
