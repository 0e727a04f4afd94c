"""Hardware component models for the sequential-scan throughput analysis.

Section 12 and Figure 15 of the paper measure where sequential-scan
bandwidth saturates as disks and controllers are added to the database
server:

* a single disk delivers about 40 MB/s (37–51 MB/s measured);
* three disks saturate one Ultra3 SCSI controller at about 119 MB/s;
* a 64-bit/33 MHz PCI bus saturates at about 220 MB/s;
* the raw NTFS file system reaches 430 MB/s on 12 disks / 4 controllers;
* SQL Server's record processing becomes CPU-bound near 320 MB/s
  (≈2.6 million 128-byte records per second, ~10 clocks per byte on two
  1 GHz processors for ``select count(*)``, ~19 clocks per byte for the
  ``count(*) where (r-g) > 1`` predicate);
* memory copy bandwidth is about 600 MB/s single-threaded.

The component classes below encode exactly those published figures so
the Figure 15 benchmark can sweep configurations analytically; the
measured scan rate of the reproduction's Python engine is converted to
the same units in :mod:`repro.iosim.scan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Published component figures (all bandwidths in MB/s).
DISK_MBPS = 40.0
DISK_MBPS_MIN = 37.0
DISK_MBPS_MAX = 51.0
CONTROLLER_MBPS = 119.0
DISKS_PER_CONTROLLER = 3
PCI_64_33_MBPS = 220.0
PCI_64_66_MBPS = 420.0
NTFS_MAX_MBPS = 430.0
MEMORY_SINGLE_THREAD_MBPS = 600.0
MEMORY_MULTI_THREAD_READ_MBPS = 849.0

#: CPU cost of the SQL record pipeline (section 12's micro-measurements).
#: The paper quotes 10 clocks/byte (1300 clocks/record) for ``count(*)`` at
#: 75% CPU and 19 clocks/byte for the predicate scan; the ceilings below are
#: the throughputs those scans were measured to saturate at (331 MB/s and
#: ~140 MB/s), which is what the Figure 15 model needs.
CPU_CLOCKS_PER_BYTE_COUNT = 10.0         # select count(*) (as quoted)
CPU_CLOCKS_PER_BYTE_PREDICATE = 19.0     # count(*) where (r-g) > 1 (as quoted)
CPU_CLOCKS_PER_RECORD = 1300.0
SQL_COUNT_MAX_MBPS = 331.0               # measured ceiling of the count(*) scan
SQL_PREDICATE_MAX_MBPS = 140.0           # measured ceiling of the predicate scan
SQL_CPU_UTILISATION_AT_CEILING = 0.75
TAG_RECORD_BYTES = 128
CPU_GHZ = 1.0
CPU_COUNT = 2
IN_MEMORY_RECORDS_PER_SECOND = 5.0e6     # "SQL scans at 5 mrps when data is in memory"


@dataclass(frozen=True)
class Disk:
    """One 10k-rpm Ultra160 SCSI data disk."""

    sequential_mbps: float = DISK_MBPS

    def bandwidth(self) -> float:
        return self.sequential_mbps


@dataclass(frozen=True)
class ScsiController:
    """One Ultra3 SCSI channel; saturates at about three disks."""

    max_mbps: float = CONTROLLER_MBPS
    max_disks: int = DISKS_PER_CONTROLLER * 2   # channels hold 5-6 disks physically

    def bandwidth(self, attached_disks: int, disk: Disk = Disk()) -> float:
        return min(self.max_mbps, attached_disks * disk.bandwidth())


@dataclass(frozen=True)
class PciBus:
    """A PCI bus shared by one or more SCSI controllers."""

    max_mbps: float = PCI_64_33_MBPS


@dataclass(frozen=True)
class CpuModel:
    """The SQL record-processing cost model.

    ``count_max_mbps`` / ``predicate_max_mbps`` are the measured ceilings at
    which SQL Server's record pipeline saturated the two 1 GHz processors for
    the trivial ``count(*)`` and the ``(r-g) > 1`` predicate scan.
    """

    count_max_mbps: float = SQL_COUNT_MAX_MBPS
    predicate_max_mbps: float = SQL_PREDICATE_MAX_MBPS
    ghz: float = CPU_GHZ
    processors: int = CPU_COUNT
    utilisation_at_ceiling: float = SQL_CPU_UTILISATION_AT_CEILING

    def max_mbps(self, *, predicate: bool = False) -> float:
        """Bandwidth at which record processing saturates the processors."""
        return self.predicate_max_mbps if predicate else self.count_max_mbps

    def records_per_second(self, record_bytes: float = TAG_RECORD_BYTES, *,
                           predicate: bool = False) -> float:
        return self.max_mbps(predicate=predicate) * 1.0e6 / record_bytes

    def utilisation(self, achieved_mbps: float, *, predicate: bool = False) -> float:
        """CPU fraction consumed while scanning at ``achieved_mbps``."""
        ceiling = self.max_mbps(predicate=predicate)
        return min(1.0, achieved_mbps / ceiling * self.utilisation_at_ceiling)


@dataclass(frozen=True)
class Memory:
    """Main-memory bandwidth ceiling."""

    single_thread_mbps: float = MEMORY_SINGLE_THREAD_MBPS
    multi_thread_read_mbps: float = MEMORY_MULTI_THREAD_READ_MBPS


@dataclass(frozen=True)
class ServerHardware:
    """The Figure 14 database server: the component set Figure 15 sweeps."""

    disk: Disk = field(default_factory=Disk)
    controller: ScsiController = field(default_factory=ScsiController)
    bus: PciBus = field(default_factory=PciBus)
    cpu: CpuModel = field(default_factory=CpuModel)
    memory: Memory = field(default_factory=Memory)

    @classmethod
    def paper_database_server(cls) -> "ServerHardware":
        """The Compaq ML530 configuration of Figure 14."""
        return cls()
