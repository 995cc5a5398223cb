"""Experiment and system configuration.

The dataclasses here mirror Table 1 of the paper (evaluation parameters) plus
the platform constants reported in Section 4 (block rate, block size, element
and proof lengths).  All sizes are in bytes, rates in elements per second,
times in (simulated) seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar, Sequence

from .errors import ConfigurationError, check_name
from .faults.budget import fault_tolerance, validate_fault_budget
from .faults.events import Join
from .faults.schedule import FaultScheduleConfig
from .topology.regions import RegionSpec, TopologyConfig  # noqa: F401  (re-export)

# -- Paper constants (Section 4, "Experiment Scenarios") ---------------------

#: Average Arbitrum transaction size used as a Setchain element (bytes).
DEFAULT_ELEMENT_SIZE_MEAN = 438.0
#: Standard deviation of the Arbitrum transaction size (bytes).
DEFAULT_ELEMENT_SIZE_STD = 753.5
#: Length of an epoch-proof on the wire (bytes).
EPOCH_PROOF_SIZE = 139
#: Length of a hash-batch (hash + signature + server id) on the wire (bytes).
HASH_BATCH_SIZE = 139
#: Default CometBFT block size cap used in the evaluation (bytes): 0.5 MB.
#: The paper's analytical numbers (Appendix D.1) are consistent with binary
#: megabytes, i.e. 0.5 MB = 512 KiB = 524,288 bytes.
DEFAULT_BLOCK_SIZE = 524_288
#: Default CometBFT block production rate (blocks per second): one every 1.25s.
DEFAULT_BLOCK_RATE = 0.8
#: Paper's mempool cap after tuning: 10M transactions or 2 GB.
DEFAULT_MEMPOOL_MAX_TXS = 10_000_000
DEFAULT_MEMPOOL_MAX_BYTES = 2 * 1024**3
#: Clients add elements for 50 simulated seconds in every experiment.
DEFAULT_INJECTION_DURATION = 50.0

#: Compression ratios measured by the paper for Brotli at the two collector sizes.
PAPER_COMPRESSION_RATIO = {100: 2.7, 500: 3.5}

#: Table 1 parameter grid.
TABLE1_SENDING_RATES: tuple[int, ...] = (10_000, 5_000, 1_000, 500)
TABLE1_COLLECTOR_LIMITS: tuple[int, ...] = (100, 500)
TABLE1_SERVER_COUNTS: tuple[int, ...] = (4, 7, 10)
TABLE1_NETWORK_DELAYS_MS: tuple[int, ...] = (0, 30, 100)


@dataclass(frozen=True)
class LedgerConfig:
    """Parameters of the underlying block-based ledger (CometBFT stand-in)."""

    block_size_bytes: int = DEFAULT_BLOCK_SIZE
    block_rate: float = DEFAULT_BLOCK_RATE
    mempool_max_txs: int = DEFAULT_MEMPOOL_MAX_TXS
    mempool_max_bytes: int = DEFAULT_MEMPOOL_MAX_BYTES
    #: Base one-way message latency between consensus nodes (seconds).
    base_latency: float = 0.001
    #: Additional artificial latency added to every message (seconds) —
    #: the ``network_delay`` parameter of Table 1.
    network_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.block_size_bytes <= 0:
            raise ConfigurationError("block_size_bytes must be positive")
        if self.block_rate <= 0:
            raise ConfigurationError("block_rate must be positive")
        if self.mempool_max_txs <= 0 or self.mempool_max_bytes <= 0:
            raise ConfigurationError("mempool caps must be positive")
        if self.base_latency < 0 or self.network_delay < 0:
            raise ConfigurationError("latencies cannot be negative")

    @property
    def block_interval(self) -> float:
        """Seconds between consecutive blocks."""
        return 1.0 / self.block_rate


@dataclass(frozen=True)
class WorkloadConfig:
    """Client-side element injection parameters."""

    #: Total element injection rate across all clients (el/s).
    sending_rate: float = 10_000.0
    #: How long clients keep adding elements (simulated seconds).
    injection_duration: float = DEFAULT_INJECTION_DURATION
    element_size_mean: float = DEFAULT_ELEMENT_SIZE_MEAN
    element_size_std: float = DEFAULT_ELEMENT_SIZE_STD
    #: Random seed for the workload generator.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sending_rate <= 0:
            raise ConfigurationError("sending_rate must be positive")
        if self.injection_duration <= 0:
            raise ConfigurationError("injection_duration must be positive")
        if self.element_size_mean <= 0 or self.element_size_std < 0:
            raise ConfigurationError("element size parameters out of range")


@dataclass(frozen=True)
class SetchainConfig:
    """Setchain-layer parameters shared by the three algorithms."""

    #: Number of Setchain servers (``server_count`` in Table 1).
    n_servers: int = 10
    #: Maximum number of Byzantine servers tolerated.  The paper requires
    #: f < n/2 at the Setchain layer; the CometBFT substrate needs f < n/3.
    f: int | None = None
    #: Collector size in elements (``collector_limit`` in Table 1).
    collector_limit: int = 100
    #: Collector flush timeout: a non-empty batch is flushed after this many
    #: seconds even if the collector limit has not been reached.
    collector_timeout: float = 1.0
    #: Timeout waiting for a Request_batch reply in Hashchain (seconds).
    batch_request_timeout: float = 1.0
    #: Name of the signature scheme.  "simulated" (HMAC-SHA512 tags, see
    #: ``repro.crypto.signatures``) is the one legal value; the field stays
    #: because every artifact's config echo carries it.
    signature_scheme: str = "simulated"
    #: Name of the compressor ("zlib" or "model").
    compressor: str = "model"
    #: Serial per-element deserialisation/validation cost (seconds) paid by a
    #: server when processing batches it did not build itself (Compresschain
    #: decompression+validation, Hashchain hash-reversal).  Calibrated so the
    #: Hashchain hash-reversal ceiling sits near the paper's ~20,000 el/s.
    element_validation_time: float = 5e-5
    #: Fixed per-ledger-transaction processing overhead (seconds).
    tx_processing_overhead: float = 1e-4

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise ConfigurationError("n_servers must be at least 1")
        if self.collector_limit < 1:
            raise ConfigurationError("collector_limit must be at least 1")
        if self.collector_timeout <= 0 or self.batch_request_timeout <= 0:
            raise ConfigurationError("timeouts must be positive")
        if self.element_validation_time < 0 or self.tx_processing_overhead < 0:
            raise ConfigurationError("processing costs cannot be negative")
        if self.signature_scheme != "simulated":
            raise ConfigurationError(
                f"signature_scheme must be 'simulated', got "
                f"{self.signature_scheme!r} ('ed25519' was removed: it produced "
                "identical artifacts)")
        f = self.f
        if f is not None:
            if f < 0:
                raise ConfigurationError("f cannot be negative")
            if f >= self.n_servers / 2:
                raise ConfigurationError(
                    f"Setchain requires f < n/2 (got f={f}, n={self.n_servers})"
                )

    @property
    def max_faulty(self) -> int:
        """Resolved ``f``: explicit value, or the largest f with f < n/2."""
        return fault_tolerance(self.n_servers, self.f)

    @property
    def quorum(self) -> int:
        """Signers/proofs needed to trust an epoch: ``f + 1``."""
        return self.max_faulty + 1


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to run one evaluation scenario end to end."""

    algorithm: str = "hashchain"
    setchain: SetchainConfig = field(default_factory=SetchainConfig)
    ledger: LedgerConfig = field(default_factory=LedgerConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    #: Which ledger implementation backs the run: "cometbft" (full consensus
    #: simulation), "ideal" (centralized sequencer, fast sweeps) or "sqlite"
    #: (the ideal sequencer on a durable database, for service mode).
    ledger_backend: str = "cometbft"
    #: Multi-region/heterogeneous deployment description.  ``None`` (the
    #: default) is the paper's homogeneous single-site cluster.
    topology: TopologyConfig | None = None
    #: Declarative fault timeline executed by :mod:`repro.faults`.  ``None``
    #: (the default) is a fault-free run — no injector is built and artifacts
    #: stay byte-identical to the pre-faults schema.
    faults: FaultScheduleConfig | None = None
    #: Lifecycle-tracing sample rate in (0, 1].  ``None`` (the default)
    #: disables tracing entirely — no :class:`~repro.obs.trace.Tracer` is
    #: built, hot paths pay a single ``is None`` check, and artifacts stay
    #: byte-identical to the pre-tracing schema.
    trace_sample: float | None = None
    #: Number of independent Setchain instances (shards) the element space is
    #: hash-partitioned across.  ``setchain.n_servers`` stays *per shard*, so
    #: a sharded deployment runs ``shards * n_servers`` servers with the
    #: per-shard ``f + 1`` commit quorum.  ``None`` (the default) is the
    #: unsharded single-instance layout — no router is built and artifacts
    #: stay byte-identical to the pre-sharding schema.
    shards: int | None = None
    #: Total simulated time to run after injection stops (seconds).
    drain_duration: float = 100.0
    #: Label used by reports.
    label: str = ""

    #: The fields a run's config echo omits when ``None`` (see
    #: :func:`repro.api.results.config_echo`).
    OPTIONAL_FIELDS: ClassVar[tuple[str, ...]] = (
        "topology", "faults", "trace_sample", "shards")

    def __post_init__(self) -> None:
        # Imported lazily: the component tables and the membership actuator
        # import the core/ledger layers (and, transitively, this module).
        from .topology.components import ALGORITHMS, LATENCY_PROFILES, LEDGER_BACKENDS
        from .core.membership import check_joiner, check_leavers
        check_name("algorithm", self.algorithm, ALGORITHMS)
        check_name("ledger backend", self.ledger_backend, LEDGER_BACKENDS)
        if self.drain_duration < 0:
            raise ConfigurationError("drain_duration cannot be negative")
        if self.trace_sample is not None and not 0.0 < self.trace_sample <= 1.0:
            raise ConfigurationError(
                f"trace_sample must be within (0, 1] (or None to disable "
                f"tracing), got {self.trace_sample!r}")
        if self.faults is not None:
            if not isinstance(self.faults, FaultScheduleConfig):
                raise ConfigurationError(
                    f"faults must be a FaultScheduleConfig, got "
                    f"{type(self.faults).__name__}")
            last = self.faults.last_time
            if self.faults.events and last > self.total_duration:
                raise ConfigurationError(
                    f"fault schedule extends to t={last:g}s but the run "
                    f"ends at t={self.total_duration:g}s (injection + "
                    "drain): timers past the horizon would never fire, "
                    "leaving nodes crashed or cuts unhealed — extend "
                    "drain_duration or move the events earlier")
            for event in self.faults.events:
                if isinstance(event, Join):
                    check_joiner(self, event.algorithm, event.region)
            check_leavers(self.faults.events)
        if self.shards is not None:
            if self.shards < 1:
                raise ConfigurationError("shards must be at least 1")
            if self.topology is not None:
                raise ConfigurationError(
                    "shards cannot be combined with a multi-region topology: "
                    "shard placement owns the server layout")
        topology = self.topology
        if topology is not None:
            if topology.n_servers != self.setchain.n_servers:
                raise ConfigurationError(
                    f"topology places {topology.n_servers} server(s) but "
                    f"setchain.n_servers is {self.setchain.n_servers}")
            check_name("latency profile", topology.intra_profile,
                       LATENCY_PROFILES)
            for region in topology.regions:
                if region.algorithm is not None:
                    check_name("algorithm", region.algorithm, ALGORITHMS)
        # Schedules that turn servers Byzantine must stay within the declared
        # tolerance at every instant — this is also where a static
        # `.byzantine(f=...)` and scheduled `BecomeByzantine` events are
        # checked against each other.
        validate_fault_budget(self)

    @property
    def total_duration(self) -> float:
        return self.workload.injection_duration + self.drain_duration

    @property
    def is_heterogeneous(self) -> bool:
        """True when regions run more than one algorithm."""
        return (self.topology is not None
                and self.topology.is_heterogeneous(self.algorithm))

    @property
    def total_servers(self) -> int:
        """Deployment-wide server count (``shards * n_servers`` when sharded)."""
        if self.shards is None:
            return self.setchain.n_servers
        return self.shards * self.setchain.n_servers

    @property
    def pinned_f(self) -> int | None:
        """The f the membership keeps as servers join and leave: ``setchain.f``,
        or the per-shard resolved f when sharded (``None``: derived from n)."""
        return self.setchain.max_faulty if self.shards is not None else self.setchain.f

    def server_assignments(self) -> list[tuple[str | None, str]]:
        """Per-server ``(region-or-None, algorithm)`` in deployment order."""
        if self.topology is None:
            return [(None, self.algorithm)] * self.total_servers
        return list(self.topology.assignments(self.algorithm))

    def with_overrides(self, **kwargs: object) -> "ExperimentConfig":
        """Return a copy with top-level fields replaced."""
        return replace(self, **kwargs)  # type: ignore[arg-type]


def table1_grid() -> Sequence[ExperimentConfig]:
    """Every combination of the Table 1 parameters for every algorithm.

    Returned lazily as a list; callers typically filter before running since a
    full sweep is large.
    """
    from .api.builder import Scenario

    grid: list[ExperimentConfig] = []
    for algorithm in ("vanilla", "compresschain", "hashchain"):
        for rate in TABLE1_SENDING_RATES:
            for servers in TABLE1_SERVER_COUNTS:
                for delay in TABLE1_NETWORK_DELAYS_MS:
                    point = (Scenario(algorithm).rate(rate).servers(servers)
                             .delay_ms(delay))
                    if algorithm == "vanilla":  # no collector to vary
                        grid.append(point.build())
                        continue
                    grid.extend(point.collector(collector).build()
                                for collector in TABLE1_COLLECTOR_LIMITS)
    return grid
