"""Heterogeneous multi-region deployment topologies.

The paper's evaluation platform is a homogeneous LAN cluster: ``n`` identical
(client, server, ledger-node) triples behind one latency profile.  A
:class:`TopologyConfig` generalises that to named *regions*, each holding a
slice of the servers and optionally running a different algorithm, with
intra-region links drawn from one of the latency profiles and
inter-region links modelled by a per-pair delay matrix plus jitter (following
the heterogeneous communication-quality-class modelling of arXiv:2404.04894).

A config with ``topology=None`` is exactly the legacy homogeneous deployment;
everything here is additive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..errors import ConfigurationError


def server_name(index: int) -> str:
    """The deployment's ``index``-th server: build order first, then one
    index per join, named or not."""
    return f"server-{index}"


@dataclass(frozen=True)
class RegionSpec:
    """One named region: a server count and an optional algorithm override."""

    name: str
    servers: int
    #: Algorithm run by this region's servers; ``None`` inherits the
    #: experiment-level algorithm.  Must be a key of ``ALGORITHMS``.
    algorithm: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("region name cannot be empty")
        if self.servers < 1:
            raise ConfigurationError(
                f"region {self.name!r} needs at least one server")


@dataclass(frozen=True)
class TopologyConfig:
    """Named regions plus the link-quality model between and within them."""

    regions: tuple[RegionSpec, ...]
    #: Registered latency profile drawn for intra-region links.
    intra_profile: str = "lan"
    #: Base one-way delay added on inter-region links (seconds).
    inter_delay: float = 0.0
    #: Uniform jitter width added on inter-region links (seconds): each
    #: cross-region message draws an extra delay in ``[0, inter_jitter]``.
    inter_jitter: float = 0.0
    #: Per-pair one-way delay overrides ``(region_a, region_b, seconds)``,
    #: symmetric; pairs not listed fall back to ``inter_delay``.
    links: tuple[tuple[str, str, float], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        regions = tuple(self.regions)
        object.__setattr__(self, "regions", tuple(
            r if isinstance(r, RegionSpec) else RegionSpec(**r)
            for r in regions))
        object.__setattr__(self, "links", tuple(
            (str(a), str(b), float(d)) for a, b, d in self.links))
        if not self.regions:
            raise ConfigurationError("a topology needs at least one region")
        names = [region.name for region in self.regions]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate region names: {names}")
        if self.inter_delay < 0 or self.inter_jitter < 0:
            raise ConfigurationError(
                "inter-region delay and jitter cannot be negative")
        known = set(names)
        seen_pairs: set[frozenset[str]] = set()
        for a, b, delay in self.links:
            if a not in known or b not in known:
                raise ConfigurationError(
                    f"link ({a!r}, {b!r}) references an unknown region; "
                    f"regions are {sorted(known)}")
            if a == b:
                raise ConfigurationError(
                    f"link ({a!r}, {b!r}) must connect two distinct regions")
            if delay < 0:
                raise ConfigurationError("link delays cannot be negative")
            pair = frozenset((a, b))
            if pair in seen_pairs:
                raise ConfigurationError(
                    f"duplicate link for regions {sorted(pair)}: links are "
                    "symmetric, declare each pair once")
            seen_pairs.add(pair)

    # -- derived views ---------------------------------------------------------

    @property
    def n_servers(self) -> int:
        """Total servers across all regions."""
        return sum(region.servers for region in self.regions)

    @property
    def region_names(self) -> tuple[str, ...]:
        return tuple(region.name for region in self.regions)

    def assignments(self, default_algorithm: str) -> list[tuple[str, str]]:
        """Per-server ``(region, algorithm)`` in deployment index order."""
        out: list[tuple[str, str]] = []
        for region in self.regions:
            algorithm = region.algorithm or default_algorithm
            out.extend((region.name, algorithm) for _ in range(region.servers))
        return out

    def algorithms(self, default_algorithm: str) -> list[str]:
        """Distinct algorithms in play, in first-appearance order."""
        seen: list[str] = []
        for region in self.regions:
            algorithm = region.algorithm or default_algorithm
            if algorithm not in seen:
                seen.append(algorithm)
        return seen

    def is_heterogeneous(self, default_algorithm: str) -> bool:
        return len(self.algorithms(default_algorithm)) > 1

    # -- serialisation (the RunResult config echo) -----------------------------

    def to_dict(self) -> dict[str, Any]:
        """Pure-JSON-types projection that :meth:`from_dict` inverts."""
        return {
            "regions": [{"name": r.name, "servers": r.servers,
                         "algorithm": r.algorithm} for r in self.regions],
            "intra_profile": self.intra_profile,
            "inter_delay": self.inter_delay,
            "inter_jitter": self.inter_jitter,
            "links": [list(link) for link in self.links],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TopologyConfig":
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"topology must be an object, got {type(data).__name__}")
        try:
            regions = tuple(
                RegionSpec(name=str(r["name"]), servers=int(r["servers"]),
                           algorithm=(None if r.get("algorithm") is None
                                      else str(r["algorithm"])))
                for r in data["regions"])
            links = tuple((str(a), str(b), float(d))
                          for a, b, d in data.get("links", ()))
            return cls(regions=regions,
                       intra_profile=str(data.get("intra_profile", "lan")),
                       inter_delay=float(data.get("inter_delay", 0.0)),
                       inter_jitter=float(data.get("inter_jitter", 0.0)),
                       links=links)
        except (KeyError, TypeError, ValueError) as error:
            raise ConfigurationError(
                f"malformed topology echo: {error}") from error
