"""Serialisable run results.

The experiment runner's :class:`~repro.experiments.runner.ExperimentResult`
holds live objects (the deployment, the metrics collector) and therefore only
exists in memory.  :class:`RunResult` is the persistable projection: a frozen
record of everything the figures and tables need — config echo, throughput
series, efficiency, commit-time quantiles — that round-trips exactly through
``to_dict()``/``from_dict()`` and JSON, so benchmark trajectories can be
stored, diffed, and re-rendered without re-running the simulation.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, ClassVar, Mapping

from ..config import (
    ExperimentConfig,
    FaultScheduleConfig,
    LedgerConfig,
    SetchainConfig,
    TopologyConfig,
    WorkloadConfig,
)
from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.runner import ExperimentResult

#: Bumped whenever the serialised layout changes incompatibly.
SCHEMA_VERSION = 1

#: Header row matching :func:`summary_row` (used by ``python -m repro report``).
SUMMARY_HEADERS = ("algorithm", "rate (el/s)", "collector",
                   "avg thpt 50s", "eff@50s", "eff@100s")


def summary_row(algorithm: str, sending_rate: float, collector_limit: int,
                avg_throughput_50s: float, efficiency_50: float,
                efficiency_100: float) -> list[object]:
    """One summary-table row — the single source of the table schema."""
    return [algorithm, f"{sending_rate:g}", collector_limit,
            round(avg_throughput_50s, 1), round(efficiency_50, 3),
            round(efficiency_100, 3)]


def config_echo(config: ExperimentConfig) -> dict[str, Any]:
    """The nested config dict stored in artifacts.

    Every :data:`ExperimentConfig.OPTIONAL_FIELDS` key is *omitted entirely*
    when unset, so artifacts of legacy homogeneous, fault-free, untraced,
    unsharded configs are byte-identical to those written before the field
    existed; ``topology`` and ``faults`` are serialised through their own
    ``to_dict`` methods.
    """
    echo = dataclasses.asdict(config)
    for name in ExperimentConfig.OPTIONAL_FIELDS:
        value = getattr(config, name)
        if value is None:
            del echo[name]
        elif hasattr(value, "to_dict"):
            echo[name] = value.to_dict()
    return echo


@dataclass(frozen=True)
class RunResult:
    """The persistable outcome of one scenario run."""

    label: str
    algorithm: str
    scale: float
    #: Full nested echo of the (scaled) ``ExperimentConfig`` that ran.
    config: dict[str, Any]
    injected: int
    committed: int
    avg_throughput_50s: float
    analytical_throughput: float
    #: Efficiency at the paper's three instants: ``{"50s": .., "75s": .., "100s": ..}``.
    efficiency: dict[str, float]
    #: Commit time of the first element (``None`` if nothing committed).
    first_commit: float | None
    #: ``(fraction, time-or-None)`` pairs for the Fig. 5 commit fractions.
    commit_fractions: tuple[tuple[float, float | None], ...]
    #: Rolling-throughput series (el/s, paper's 9 s window).
    throughput_times: tuple[float, ...]
    throughput_values: tuple[float, ...]
    #: Per-region breakdown (servers/added/committed/first_commit), present
    #: only for multi-region topologies; ``None`` — and absent from the JSON
    #: artifact — for legacy homogeneous runs.
    regions: dict[str, dict[str, Any]] | None = None
    #: Resilience report (applied chaos timeline, availability windows,
    #: commit latency during/outside faults, recovery times, drop/duplicate
    #: counters); ``None`` — and absent from the JSON artifact — for
    #: fault-free runs, keeping their artifacts byte-identical.
    faults: dict[str, Any] | None = None
    #: Membership timeline (epochs with per-epoch f/quorum, joins with
    #: catch-up and join-to-first-commit times, leaves with drain outcomes);
    #: ``None`` — and absent from the JSON artifact — for runs whose
    #: membership never changed, keeping their artifacts byte-identical.
    membership: dict[str, Any] | None = None
    #: Tracing telemetry (sampled-span counts, per-phase latency percentiles,
    #: cache counters, flush-size histogram); ``None`` — and absent from the
    #: JSON artifact — when tracing is disabled, keeping untraced artifacts
    #: byte-identical.
    telemetry: dict[str, Any] | None = None
    #: Cross-shard report (per-shard added/committed/throughput, router
    #: defer/reject admissions, skew ratio); ``None`` — and absent from the
    #: JSON artifact — for unsharded runs, keeping their artifacts
    #: byte-identical.
    shards: dict[str, Any] | None = None
    schema_version: int = SCHEMA_VERSION

    #: The sections a run may lack, each with the shape :meth:`from_dict`
    #: expects of it.  :meth:`to_dict` omits the ones that are ``None``.
    OPTIONAL_SECTIONS: ClassVar[tuple[tuple[str, str], ...]] = (
        ("regions", "an object of per-region stat objects"),
        ("faults", "a resilience-report object"),
        ("membership", "a membership-timeline object"),
        ("telemetry", "a telemetry-report object"),
        ("shards", "a cross-shard report object"),
    )

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_experiment(cls, result: "ExperimentResult") -> "RunResult":
        """Project an in-memory :class:`ExperimentResult` to its persistable form."""
        summary = result.commit_times
        fractions = tuple(sorted(summary.fraction_times.items()))
        return cls(
            label=result.config.label,
            algorithm=result.config.algorithm,
            scale=float(result.scale),
            config=config_echo(result.config),
            injected=len(result.deployment.injected_elements),
            committed=result.metrics.committed_count,
            avg_throughput_50s=float(result.avg_throughput_50s),
            analytical_throughput=float(result.analytical_throughput),
            efficiency=result.efficiency.as_dict(),
            first_commit=summary.first_element,
            commit_fractions=fractions,
            throughput_times=result.throughput.times,
            throughput_values=result.throughput.values,
            regions=result.metrics.region_summary(),
            faults=result.faults,
            membership=result.membership,
            telemetry=result.telemetry,
            shards=result.shards,
        )

    # -- derived views ---------------------------------------------------------

    @property
    def committed_fraction(self) -> float:
        """Committed/injected ratio over the whole run."""
        return self.committed / self.injected if self.injected else 0.0

    @property
    def throughput(self):
        """The rolling-throughput series as a :class:`ThroughputSeries`."""
        from ..analysis.throughput import ThroughputSeries
        return ThroughputSeries(times=self.throughput_times,
                                values=self.throughput_values)

    def experiment_config(self) -> ExperimentConfig:
        """Rebuild the validated :class:`ExperimentConfig` from the echo."""
        echo = dict(self.config)
        topology = echo.get("topology")
        faults = echo.get("faults")
        return ExperimentConfig(
            algorithm=echo["algorithm"],
            setchain=SetchainConfig(**echo["setchain"]),
            ledger=LedgerConfig(**echo["ledger"]),
            workload=WorkloadConfig(**echo["workload"]),
            ledger_backend=echo["ledger_backend"],
            topology=(None if topology is None
                      else TopologyConfig.from_dict(topology)),
            faults=(None if faults is None
                    else FaultScheduleConfig.from_dict(faults)),
            drain_duration=echo["drain_duration"],
            trace_sample=echo.get("trace_sample"),
            shards=echo.get("shards"),
            label=echo["label"],
        )

    def summary_row(self) -> list[object]:
        """One row for the report tables (see :data:`SUMMARY_HEADERS`)."""
        return summary_row(self.algorithm,
                           self.config["workload"]["sending_rate"],
                           self.config["setchain"]["collector_limit"],
                           self.avg_throughput_50s,
                           self.efficiency["50s"],
                           self.efficiency["100s"])

    # -- serialisation ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A pure-JSON-types dict that :meth:`from_dict` inverts exactly."""
        data = dataclasses.asdict(self)
        data["commit_fractions"] = [list(pair) for pair in self.commit_fractions]
        data["throughput_times"] = list(self.throughput_times)
        data["throughput_values"] = list(self.throughput_values)
        for name, _ in self.OPTIONAL_SECTIONS:
            if data[name] is None:
                # The key only appears for runs that have the section, so the
                # others stay byte-identical to the schema that preceded it.
                del data[name]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        """Invert :meth:`to_dict` (also accepts freshly-parsed JSON)."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"RunResult data must be a JSON object, got {type(data).__name__}")
        payload = dict(data)
        version = payload.pop("schema_version", SCHEMA_VERSION)
        if not isinstance(version, int):
            raise ConfigurationError(
                f"RunResult schema_version must be an integer, got {version!r}")
        if version > SCHEMA_VERSION:
            raise ConfigurationError(
                f"RunResult schema version {version} is newer than this "
                f"library understands ({SCHEMA_VERSION})")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(f"unknown RunResult fields: {unknown}")
        optional = dict(cls.OPTIONAL_SECTIONS)
        missing = sorted(known - {"schema_version", *optional} - set(payload))
        if missing:
            raise ConfigurationError(f"missing RunResult fields: {missing}")
        for name, shape in optional.items():
            section = payload.get(name)
            if section is None:
                continue
            nested = name == "regions"  # the one section of per-key objects
            if not isinstance(section, Mapping) or (nested and not all(
                    isinstance(stats, Mapping) for stats in section.values())):
                raise ConfigurationError(
                    f"malformed RunResult {name}: expected {shape}")
            payload[name] = ({str(region): dict(stats)
                              for region, stats in section.items()}
                             if nested else dict(section))
        config = payload["config"]
        config_keys = {"algorithm", "setchain", "ledger", "workload",
                       "ledger_backend", "drain_duration", "label"}
        if (not isinstance(config, Mapping)
                or not config_keys <= set(config)
                or not all(isinstance(config[layer], Mapping)
                           for layer in ("setchain", "ledger", "workload"))):
            raise ConfigurationError(
                "malformed RunResult config echo: expected an object with "
                f"keys {sorted(config_keys)} and nested layer objects")
        efficiency = payload["efficiency"]
        if (not isinstance(efficiency, Mapping)
                or not {"50s", "75s", "100s"} <= set(efficiency)):
            raise ConfigurationError(
                "malformed RunResult efficiency: need 50s/75s/100s keys")
        try:
            payload["label"] = str(payload["label"])
            payload["algorithm"] = str(payload["algorithm"])
            payload["scale"] = float(payload["scale"])
            payload["injected"] = int(payload["injected"])
            payload["committed"] = int(payload["committed"])
            payload["avg_throughput_50s"] = float(payload["avg_throughput_50s"])
            payload["analytical_throughput"] = float(payload["analytical_throughput"])
            payload["efficiency"] = {str(instant): float(value)
                                     for instant, value in efficiency.items()}
            payload["commit_fractions"] = tuple(
                (float(fraction), None if time is None else float(time))
                for fraction, time in payload["commit_fractions"])
            payload["throughput_times"] = tuple(
                float(t) for t in payload["throughput_times"])
            payload["throughput_values"] = tuple(
                float(v) for v in payload["throughput_values"])
            payload["first_commit"] = (None if payload["first_commit"] is None
                                       else float(payload["first_commit"]))
        except (TypeError, ValueError) as error:
            raise ConfigurationError(
                f"malformed RunResult field values: {error}") from error
        return cls(schema_version=version, **payload)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"invalid RunResult JSON: {error}") from error
        return cls.from_dict(data)

    def save(self, path: str | Path) -> Path:
        """Write the JSON artifact (creating parent directories) and return its path."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json() + "\n")
        return target

    @classmethod
    def load(cls, path: str | Path) -> "RunResult":
        return cls.from_json(Path(path).read_text())
