"""Typed, fluent scenario construction.

:class:`ScenarioBuilder` (exported as :data:`Scenario`) is the one way a
scenario is assembled — a discoverable, validated builder::

    from repro.api import Scenario

    config = (Scenario.hashchain()
              .rate(10_000).servers(10).collector(100)
              .delay_ms(30).byzantine(f=2)
              .build())

Builders are immutable: every setter returns a *new* builder, so a partially
configured scenario can be forked into variants without aliasing surprises
(the same frozen-spec discipline as the ``ExperimentConfig`` dataclasses it
produces).  Unknown per-layer override names fail fast with a did-you-mean
hint instead of silently constructing the wrong experiment.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Mapping

from ..config import (
    ExperimentConfig,
    FaultScheduleConfig,
    LedgerConfig,
    RegionSpec,
    SetchainConfig,
    TopologyConfig,
    WorkloadConfig,
)
from ..errors import ConfigurationError, check_name, did_you_mean
from ..faults.events import (
    BecomeByzantine,
    Churn,
    Crash,
    DelaySpike,
    Duplicate,
    FaultEvent,
    Join,
    Leave,
    MessageLoss,
    Partition,
    Targets,
)
from ..topology.components import ALGORITHMS, LATENCY_PROFILES, LEDGER_BACKENDS

_LAYER_FIELDS: dict[str, tuple[str, ...]] = {
    "setchain": tuple(f.name for f in fields(SetchainConfig)),
    "ledger": tuple(f.name for f in fields(LedgerConfig)),
    "workload": tuple(f.name for f in fields(WorkloadConfig)),
}

_TOP_FIELDS = ("ledger_backend", "drain_duration", "label", "trace_sample",
               "shards")


_did_you_mean = did_you_mean


def default_label(algorithm: str, sending_rate: float, collector_limit: int,
                  n_servers: int) -> str:
    """The auto-derived label used when a scenario is not labelled explicitly."""
    return f"{algorithm} rate={sending_rate:g} c={collector_limit} n={n_servers}"


def _check_layer_overrides(layer: str, overrides: Mapping[str, Any]) -> None:
    valid = _LAYER_FIELDS[layer]
    for name in overrides:
        if name not in valid:
            raise ConfigurationError(
                f"unknown {layer} override {name!r}"
                + _did_you_mean(name, list(valid)))


class ScenarioBuilder:
    """Fluent, validated construction of :class:`~repro.config.ExperimentConfig`.

    Use the per-algorithm classmethods (:meth:`hashchain`, :meth:`vanilla`, …)
    or pass the algorithm name directly.  Every setter returns a new builder.
    """

    __slots__ = ("_algorithm", "_setchain", "_ledger", "_workload", "_top",
                 "_topology", "_faults", "_fault_window")

    def __init__(self, algorithm: str = "hashchain") -> None:
        check_name("algorithm", algorithm, ALGORITHMS)
        self._algorithm = algorithm
        self._setchain: dict[str, Any] = {}
        self._ledger: dict[str, Any] = {}
        self._workload: dict[str, Any] = {}
        self._top: dict[str, Any] = {}
        #: Topology declaration: regions + link-quality knobs (see .region()).
        self._topology: dict[str, Any] = {}
        #: Chaos timeline: FaultEvent instances in schedule order (see .faults()).
        self._faults: list[FaultEvent] = []
        self._fault_window: float | None = None

    # -- construction entry points --------------------------------------------

    @classmethod
    def vanilla(cls) -> "ScenarioBuilder":
        """The paper's Vanilla Setchain (one ledger append per element)."""
        return cls("vanilla")

    @classmethod
    def compresschain(cls) -> "ScenarioBuilder":
        """Compresschain: collector batches compressed before appending."""
        return cls("compresschain")

    @classmethod
    def hashchain(cls) -> "ScenarioBuilder":
        """Hashchain: only batch hashes go to the ledger (with hash-reversal)."""
        return cls("hashchain")

    @classmethod
    def compresschain_light(cls) -> "ScenarioBuilder":
        """Compresschain without decompression/validation costs."""
        return cls("compresschain-light")

    @classmethod
    def hashchain_light(cls) -> "ScenarioBuilder":
        """Hashchain without hash-reversal/validation costs."""
        return cls("hashchain-light")

    @classmethod
    def from_config(cls, config: ExperimentConfig) -> "ScenarioBuilder":
        """A builder whose :meth:`build` reproduces ``config`` exactly."""
        builder = cls(config.algorithm)
        defaults = (SetchainConfig(), LedgerConfig(), WorkloadConfig())
        layers = (config.setchain, config.ledger, config.workload)
        targets = (builder._setchain, builder._ledger, builder._workload)
        for default, layer, target in zip(defaults, layers, targets):
            for f in fields(layer):
                value = getattr(layer, f.name)
                if value != getattr(default, f.name):
                    target[f.name] = value
        builder._top = {"ledger_backend": config.ledger_backend,
                        "drain_duration": config.drain_duration,
                        "label": config.label}
        if config.trace_sample is not None:
            builder._top["trace_sample"] = config.trace_sample
        if config.shards is not None:
            builder._top["shards"] = config.shards
        if config.topology is not None:
            topology = config.topology
            builder._topology = {
                "regions": [(r.name, r.servers, r.algorithm)
                            for r in topology.regions],
                "intra_profile": topology.intra_profile,
                "inter_delay": topology.inter_delay,
                "inter_jitter": topology.inter_jitter,
                "links": [tuple(link) for link in topology.links],
            }
        if config.faults is not None:
            builder._faults = list(config.faults.events)
            builder._fault_window = config.faults.availability_window
        return builder

    # -- internals -------------------------------------------------------------

    def _fork(self, layer: str | None = None, **overrides: Any) -> "ScenarioBuilder":
        """Copy of this builder with ``overrides`` merged into one layer."""
        clone = type(self)(self._algorithm)
        clone._setchain = dict(self._setchain)
        clone._ledger = dict(self._ledger)
        clone._workload = dict(self._workload)
        clone._top = dict(self._top)
        clone._topology = {key: list(value) if isinstance(value, list) else value
                           for key, value in self._topology.items()}
        clone._faults = list(self._faults)
        clone._fault_window = self._fault_window
        if layer is not None:
            getattr(clone, f"_{layer}").update(overrides)
        return clone

    def __getattr__(self, name: str) -> Any:
        methods = [m for m in dir(type(self)) if not m.startswith("_")]
        raise AttributeError(
            f"ScenarioBuilder has no method {name!r}"
            + _did_you_mean(name, methods))

    def __repr__(self) -> str:
        parts = [f"algorithm={self._algorithm!r}"]
        for layer in ("setchain", "ledger", "workload", "top", "topology",
                      "faults"):
            overrides = getattr(self, f"_{layer}")
            if overrides:
                parts.append(f"{layer}={overrides!r}")
        return f"Scenario({', '.join(parts)})"

    # -- Table 1 knobs ---------------------------------------------------------

    def rate(self, elements_per_second: float) -> "ScenarioBuilder":
        """Total client sending rate in elements per second (Table 1)."""
        return self._fork("workload", sending_rate=float(elements_per_second))

    def servers(self, n: int) -> "ScenarioBuilder":
        """Number of Setchain servers (Table 1's ``server_count``)."""
        return self._fork("setchain", n_servers=int(n))

    def collector(self, limit: int, timeout: float | None = None) -> "ScenarioBuilder":
        """Collector size in elements (Table 1), optionally with flush timeout."""
        overrides: dict[str, Any] = {"collector_limit": int(limit)}
        if timeout is not None:
            overrides["collector_timeout"] = float(timeout)
        return self._fork("setchain", **overrides)

    def delay_ms(self, milliseconds: float) -> "ScenarioBuilder":
        """Artificial network delay in milliseconds (Table 1's ``network_delay``)."""
        if milliseconds < 0:
            raise ConfigurationError("network delay cannot be negative")
        return self._fork("ledger", network_delay=float(milliseconds) / 1000.0)

    # -- fault tolerance -------------------------------------------------------

    def byzantine(self, f: int) -> "ScenarioBuilder":
        """Tolerate up to ``f`` Byzantine servers (requires ``f < n/2``)."""
        return self._fork("setchain", f=int(f))

    # -- topology: regions, link quality, heterogeneous clusters ----------------

    def region(self, name: str, servers: int,
               algorithm: str | None = None) -> "ScenarioBuilder":
        """Declare a named region holding ``servers`` servers.

        ``algorithm`` overrides the scenario algorithm for this region's
        servers (heterogeneous cluster); any key of ``ALGORITHMS`` is
        accepted.  Declaring regions fixes the total server count to the sum
        of the region sizes.
        """
        if algorithm is not None:
            check_name("algorithm", algorithm, ALGORITHMS)
        clone = self._fork()
        regions = clone._topology.setdefault("regions", [])
        regions.append((str(name), int(servers), algorithm))
        return clone

    def wan(self, inter_ms: float = 50.0, jitter_ms: float = 10.0,
            intra: str | None = None) -> "ScenarioBuilder":
        """Wide-area link quality between regions.

        ``inter_ms`` is the base one-way cross-region delay, ``jitter_ms``
        the uniform extra-delay width on cross-region messages; ``intra``
        optionally selects a latency profile ("lan" or "wan") for intra-region
        links ("lan" by default).  Requires :meth:`region` declarations (or
        :meth:`mixed`) by build time.
        """
        if intra is not None:
            check_name("latency profile", intra, LATENCY_PROFILES)
        clone = self._fork()
        clone._topology["inter_delay"] = float(inter_ms) / 1000.0
        clone._topology["inter_jitter"] = float(jitter_ms) / 1000.0
        if intra is not None:
            clone._topology["intra_profile"] = intra
        return clone

    def link(self, region_a: str, region_b: str, ms: float) -> "ScenarioBuilder":
        """Override the one-way delay of one region pair (geo delay matrix)."""
        clone = self._fork()
        links = clone._topology.setdefault("links", [])
        links.append((str(region_a), str(region_b), float(ms) / 1000.0))
        return clone

    def mixed(self, **servers_by_algorithm: int) -> "ScenarioBuilder":
        """Heterogeneous co-located cluster: one region per algorithm.

        ``Scenario.hashchain().mixed(vanilla=2, hashchain=2)`` builds a
        4-server cluster where two servers run Vanilla and two run Hashchain
        over the same ledger.  Keyword names are algorithm names with ``-``
        spelled ``_``; combine with :meth:`wan` to spread the
        groups across a wide-area network.
        """
        if not servers_by_algorithm:
            raise ConfigurationError(
                "mixed() needs at least one algorithm=count argument")
        clone = self._fork()
        regions = clone._topology.setdefault("regions", [])
        for keyword, count in servers_by_algorithm.items():
            algorithm = keyword.replace("_", "-")
            check_name("algorithm", algorithm, ALGORITHMS)
            regions.append((algorithm, int(count), algorithm))
        return clone

    # -- fault injection: declarative chaos timelines (repro.faults) -------------

    def faults(self, *events: "FaultEvent | FaultScheduleConfig",
               window: float | None = None) -> "ScenarioBuilder":
        """Append fault events to the scenario's chaos timeline.

        Accepts :class:`~repro.faults.events.FaultEvent` instances (any
        kind in ``FAULT_KINDS``) or a whole
        :class:`FaultScheduleConfig` (which *replaces* the timeline built so
        far).  ``window`` sets the availability-window width used by the
        resilience report.  The convenience methods (:meth:`partition`,
        :meth:`crash`, :meth:`churn`, :meth:`loss`, ...) cover the common
        shapes.
        """
        clone = self._fork()
        for event in events:
            if isinstance(event, FaultScheduleConfig):
                clone._faults = list(event.events)
                clone._fault_window = event.availability_window
            elif isinstance(event, FaultEvent):
                clone._faults.append(event)
            else:
                raise ConfigurationError(
                    f"faults() takes FaultEvent or FaultScheduleConfig "
                    f"instances, got {type(event).__name__}")
        if window is not None:
            if window <= 0:
                raise ConfigurationError("availability window must be positive")
            clone._fault_window = float(window)
        return clone

    def _fault_targets(self, nodes: tuple[str, ...], region: str | None,
                       role: str, count: int | None) -> Targets:
        return Targets(nodes=tuple(str(node) for node in nodes),
                       region=region, role=role, count=count)

    def partition(self, at: float, *, until: float | None = None,
                  nodes: tuple[str, ...] = (), region: str | None = None,
                  role: str = "all", count: int | None = None,
                  period: float | None = None) -> "ScenarioBuilder":
        """Partition a node group from the rest of the network at ``at``.

        The group is explicit ``nodes``, everything in ``region``, or a random
        ``count``-subset of ``role``; ``until`` heals the cut, ``period``
        re-rolls it (a flapping partition).  Regions cut consensus traffic
        too: the default role ``"all"`` includes co-located ledger nodes.
        """
        group = self._fault_targets(nodes, region, role, count)
        return self.faults(Partition(at=at, until=until, group=group,
                                     period=period))

    def crash(self, at: float, *nodes: str, until: float | None = None,
              region: str | None = None, role: str = "servers",
              count: int | None = None) -> "ScenarioBuilder":
        """Crash-fault nodes at ``at`` (auto-recover at ``until`` if given).

        ``crash(10.0, "server-3", until=30.0)`` restarts one named server;
        ``crash(10.0, count=2)`` picks two random servers;
        ``role="validators"`` targets the consensus layer instead.
        """
        if not nodes and count is None and region is None:
            count = 1
        targets = self._fault_targets(nodes, region, role, count)
        return self.faults(Crash(at=at, until=until, targets=targets))

    def become_byzantine(self, at: float, *nodes: str,
                         behaviour: str = "silent",
                         until: float | None = None,
                         region: str | None = None,
                         count: int | None = None) -> "ScenarioBuilder":
        """Turn servers Byzantine at ``at`` (revert at ``until`` if given).

        ``become_byzantine(10.0, "server-3", behaviour="withhold", until=30.0)``
        makes one named server withhold ``Request_batch`` replies for 20 s;
        ``become_byzantine(10.0, count=2)`` silences two random servers.  The
        behaviours (``repro.core.byzantine.BEHAVIOURS``) are withhold /
        wrong-hash / invalid-element / equivocate / silent.  Build-time
        validation rejects schedules whose Byzantine + crashed servers could
        reach the quorum of any algorithm group.
        """
        if not nodes and count is None and region is None:
            count = 1
        targets = self._fault_targets(nodes, region, "servers", count)
        return self.faults(BecomeByzantine(at=at, until=until, targets=targets,
                                           behaviour=behaviour))

    def churn(self, at: float, until: float, period: float, count: int = 1,
              *, role: str = "servers",
              region: str | None = None) -> "ScenarioBuilder":
        """Rolling restarts: every ``period`` seconds recover the previous
        victims and crash a fresh random ``count`` from the pool."""
        pool = self._fault_targets((), region, role, None)
        return self.faults(Churn(at=at, until=until, period=period,
                                 count=count, targets=pool))

    def join(self, at: float, node: str | None = None, *,
             role: str = "servers", region: str | None = None,
             algorithm: str | None = None) -> "ScenarioBuilder":
        """Admit a new node at ``at`` (dynamic membership).

        ``join(10.0)`` adds one server along the deterministic
        ``server-<i>`` naming sequence; it bootstraps via state transfer and
        counts toward quorums only once caught up.  ``role="validators"``
        grows the consensus layer instead (CometBFT backend);
        ``algorithm``/``region`` place the newcomer explicitly.
        """
        return self.faults(Join(at=at, node=node, role=role, region=region,
                                algorithm=algorithm))

    def leave(self, at: float, *nodes: str, region: str | None = None,
              count: int | None = None,
              drain: bool = True) -> "ScenarioBuilder":
        """Retire servers cleanly at ``at`` — a departure, not a crash.

        ``leave(20.0, "server-1")`` drains one named server (flush, hand off
        obligations, then retire); ``leave(20.0, count=1)`` picks a random
        one; ``drain=False`` retires immediately.  Quorums shrink at the
        next membership epoch.
        """
        if not nodes and count is None and region is None:
            count = 1
        targets = self._fault_targets(nodes, region, "servers", count)
        return self.faults(Leave(at=at, targets=targets, drain=drain))

    def loss(self, rate: float, at: float = 0.0, *,
             until: float | None = None, region: str | None = None,
             nodes: tuple[str, ...] = (),
             role: str = "all") -> "ScenarioBuilder":
        """Drop each message with probability ``rate`` while active;
        ``nodes``/``region``/``role`` restrict the loss to traffic touching
        the selected hosts (the default hits every message)."""
        targets = (self._fault_targets(nodes, region, role, None)
                   if nodes or region is not None or role != "all" else None)
        return self.faults(MessageLoss(at=at, until=until, rate=rate,
                                       targets=targets))

    def duplicates(self, rate: float, at: float = 0.0, *,
                   until: float | None = None) -> "ScenarioBuilder":
        """Deliver each message twice with probability ``rate`` while active."""
        return self.faults(Duplicate(at=at, until=until, rate=rate))

    def delay_spike(self, extra_ms: float, at: float = 0.0, *,
                    until: float | None = None, jitter_ms: float = 0.0,
                    region: str | None = None) -> "ScenarioBuilder":
        """Add ``extra_ms`` (+ uniform jitter) to message latency while active."""
        targets = (self._fault_targets((), region, "all", None)
                   if region is not None else None)
        return self.faults(DelaySpike(at=at, until=until, extra_ms=extra_ms,
                                      jitter_ms=jitter_ms, targets=targets))

    # -- ledger knobs ----------------------------------------------------------

    def block_size(self, size_bytes: int) -> "ScenarioBuilder":
        """Ledger block size cap in bytes."""
        return self._fork("ledger", block_size_bytes=int(size_bytes))

    def block_rate(self, blocks_per_second: float) -> "ScenarioBuilder":
        """Ledger block production rate (blocks per second)."""
        return self._fork("ledger", block_rate=float(blocks_per_second))

    def backend(self, name: str) -> "ScenarioBuilder":
        """Ledger backend: ``"cometbft"`` (full consensus), ``"ideal"``
        (centralized sequencer) or ``"sqlite"`` (durable sequencer)."""
        check_name("ledger backend", name, LEDGER_BACKENDS)
        return self._fork_top(ledger_backend=name)

    # -- workload knobs --------------------------------------------------------

    def inject_for(self, seconds: float) -> "ScenarioBuilder":
        """How long clients keep adding elements (simulated seconds)."""
        return self._fork("workload", injection_duration=float(seconds))

    def drain(self, seconds: float) -> "ScenarioBuilder":
        """Extra simulated time after injection stops."""
        return self._fork_top(drain_duration=float(seconds))

    def seed(self, value: int) -> "ScenarioBuilder":
        """Deterministic seed for the workload generator and simulator."""
        return self._fork("workload", seed=int(value))

    def label(self, text: str) -> "ScenarioBuilder":
        """Label used by reports (auto-derived when not set)."""
        return self._fork_top(label=str(text))

    # -- observability -----------------------------------------------------------

    def trace(self, sample: float = 1.0) -> "ScenarioBuilder":
        """Enable deterministic lifecycle tracing (see :mod:`repro.obs`).

        ``sample`` is the per-element sampling rate in (0, 1]; the sampling
        stream is derived from the run seed (never ``sim.rng``), so a traced
        run commits exactly what the untraced run commits.  The run's
        :class:`RunResult` gains a ``telemetry`` section, and trace files can
        be exported via ``repro trace`` or
        :func:`repro.obs.export.write_trace`.
        """
        sample = float(sample)
        if not 0.0 < sample <= 1.0:
            raise ConfigurationError(
                f"trace sample must be within (0, 1], got {sample!r}")
        return self._fork_top(trace_sample=sample)

    # -- sharding ----------------------------------------------------------------

    def shards(self, n: int) -> "ScenarioBuilder":
        """Hash-partition element ids across ``n`` independent Setchain
        instances (see :mod:`repro.shard`).

        ``servers(k)`` stays *per shard*: ``.servers(3).shards(4)`` deploys
        12 servers in four isolated groups over one shared ledger, with a
        deterministic router spreading client adds by element id.  The run's
        :class:`RunResult` gains a ``shards`` section (per-shard commit
        tallies, router admission counters, skew), and
        :meth:`Session.logical_view` merges the shard views into one logical
        set for property checking.  Incompatible with :meth:`region` /
        :meth:`mixed` topologies.
        """
        n = int(n)
        if n < 1:
            raise ConfigurationError("shards must be at least 1")
        return self._fork_top(shards=n)

    # -- escape hatches: validated per-layer overrides ---------------------------

    def setchain(self, **overrides: Any) -> "ScenarioBuilder":
        """Override any :class:`SetchainConfig` field by name (validated)."""
        _check_layer_overrides("setchain", overrides)
        return self._fork("setchain", **overrides)

    def ledger(self, **overrides: Any) -> "ScenarioBuilder":
        """Override any :class:`LedgerConfig` field by name (validated).

        ``network_delay`` is rejected here: :meth:`delay_ms` is the one
        spelling of the network delay, in Table 1's milliseconds.
        """
        if "network_delay" in overrides:
            raise ConfigurationError(
                "set the network delay via delay_ms(milliseconds), the one "
                "spelling of Table 1's network_delay")
        _check_layer_overrides("ledger", overrides)
        return self._fork("ledger", **overrides)

    def workload(self, **overrides: Any) -> "ScenarioBuilder":
        """Override any :class:`WorkloadConfig` field by name (validated)."""
        _check_layer_overrides("workload", overrides)
        return self._fork("workload", **overrides)

    def _fork_top(self, **overrides: Any) -> "ScenarioBuilder":
        for name in overrides:
            if name not in _TOP_FIELDS:  # pragma: no cover - internal misuse
                raise ConfigurationError(f"unknown experiment field {name!r}")
        clone = self._fork()
        clone._top.update(overrides)
        return clone

    # -- terminal operations ---------------------------------------------------

    def _build_topology(self) -> TopologyConfig | None:
        spec = self._topology
        if not spec:
            return None
        regions = spec.get("regions")
        if not regions:
            raise ConfigurationError(
                "wan()/link() describe inter-region links; declare regions "
                "first with region(name, servers) or mixed(algo=count)")
        return TopologyConfig(
            regions=tuple(RegionSpec(name, servers, algorithm)
                          for name, servers, algorithm in regions),
            intra_profile=spec.get("intra_profile", "lan"),
            inter_delay=spec.get("inter_delay", 0.0),
            inter_jitter=spec.get("inter_jitter", 0.0),
            links=tuple(spec.get("links", ())),
        )

    def _build_faults(self) -> FaultScheduleConfig | None:
        if not self._faults and self._fault_window is None:
            return None
        if self._fault_window is None:
            return FaultScheduleConfig(events=tuple(self._faults))
        return FaultScheduleConfig(events=tuple(self._faults),
                                   availability_window=self._fault_window)

    def build(self) -> ExperimentConfig:
        """Materialise the validated, frozen :class:`ExperimentConfig`."""
        topology = self._build_topology()
        setchain_overrides = dict(self._setchain)
        if topology is not None:
            declared = setchain_overrides.get("n_servers")
            if declared is not None and declared != topology.n_servers:
                raise ConfigurationError(
                    f"servers({declared}) conflicts with the "
                    f"{topology.n_servers} server(s) declared by the regions; "
                    "drop servers() — regions fix the cluster size")
            setchain_overrides["n_servers"] = topology.n_servers
        setchain = SetchainConfig(**setchain_overrides)
        ledger = LedgerConfig(**self._ledger)
        workload = WorkloadConfig(**self._workload)
        top = dict(self._top)
        label = top.pop("label", "") or default_label(
            self._algorithm, workload.sending_rate,
            setchain.collector_limit, setchain.n_servers)
        return ExperimentConfig(algorithm=self._algorithm, setchain=setchain,
                                ledger=ledger, workload=workload, label=label,
                                topology=topology, faults=self._build_faults(),
                                **top)

    def run(self, scale: float = 1.0, *, seed: int | None = None,
            to_completion: bool = False):
        """Build and run this scenario; returns a serialisable :class:`RunResult`."""
        from . import run
        return run(self.build(), scale=scale, seed=seed,
                   to_completion=to_completion)

    def session(self, scale: float = 1.0, *, seed: int | None = None):
        """Build a :class:`~repro.api.session.Session` for interactive use."""
        from .session import Session
        return Session(self.build(), scale=scale, seed=seed)


#: The public spelling used in docs and examples: ``Scenario.hashchain()...``.
Scenario = ScenarioBuilder
