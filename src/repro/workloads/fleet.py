"""Synthetic fleet demographics (Figures 2, 4–9, 15, 16).

The paper's §2.2 demographics come from a months-long survey of every
sharded application at Facebook.  We encode the published marginal
distributions and sample a synthetic population of applications from
them; the demographics experiments then *re-measure* the marginals from
the sample — validating the generator that the other experiments use for
fleet composition.

All constants below are the paper's published percentages.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..core.spec import (
    DeploymentMode,
    DrainPolicy,
    LoadBalancePolicy,
    ReplicationStrategy,
)

# Figure 4 — sharding schemes, fractions by application count.
SHARDING_SCHEME_BY_APP = {
    "sm": 0.54,
    "static": 0.35,
    "consistent_hashing": 0.10,
    "custom": 0.01,
}

# Figure 5 — SM applications: deployment mode by application count.
GEO_DISTRIBUTED_BY_APP = 0.67

# Figure 6 — replication strategy by application count.
REPLICATION_BY_APP = {
    ReplicationStrategy.PRIMARY_ONLY: 0.68,
    ReplicationStrategy.PRIMARY_SECONDARY: 0.24,
    ReplicationStrategy.SECONDARY_ONLY: 0.08,
}

# Figure 7 — load-balancing policy by application count.
LB_POLICY_BY_APP = {
    LoadBalancePolicy.SHARD_COUNT: 0.55,
    LoadBalancePolicy.SINGLE_SYNTHETIC: 0.10,
    LoadBalancePolicy.SINGLE_RESOURCE: 0.10,
    LoadBalancePolicy.MULTI_METRIC: 0.25,
}

# Figure 8 — drain policies.
DRAIN_PRIMARIES_BY_APP = 0.94
DRAIN_SECONDARIES_BY_APP = 0.22

# Figure 9 — storage vs non-storage machines.
STORAGE_BY_APP = 0.18

# Figure 15 — application-scale extremes.
MAX_SERVERS_PER_APP = 19_000
MAX_SHARDS_PER_APP = 2_600_000


@dataclass(frozen=True)
class SyntheticApp:
    """One application in the synthetic population."""

    name: str
    scheme: str                        # sm / static / consistent_hashing / custom
    servers: int
    shards: int
    mode: DeploymentMode
    replication: ReplicationStrategy
    lb_policy: LoadBalancePolicy
    drain_policy: DrainPolicy
    uses_storage: bool

    @property
    def is_sm(self) -> bool:
        return self.scheme == "sm"


def _weighted(rng: random.Random, table: Dict) -> object:
    choices = list(table)
    weights = [table[c] for c in choices]
    return rng.choices(choices, weights=weights, k=1)[0]


def _server_count(rng: random.Random, scheme: str) -> int:
    """Log-normal sizes tuned so ~14% of deployments use >= 1000 servers
    and the maximum stays near the paper's 19K.  Custom-sharding apps are
    few but huge (1% of apps, 27% of servers)."""
    if scheme == "custom":
        size = int(rng.lognormvariate(math.log(60_000), 0.8))
        return max(5_000, min(size, 200_000))
    sigma = 2.0
    mu = math.log(160)
    size = int(rng.lognormvariate(mu, sigma))
    return max(1, min(size, MAX_SERVERS_PER_APP))


def _shard_count(rng: random.Random, servers: int) -> int:
    """Shards per server ratio is log-normal around ~60 (Fig 15's biggest
    app has ≈137 shards/server; mini-SMs run ≈26)."""
    ratio = rng.lognormvariate(math.log(40), 1.0)
    ratio = max(1.0, min(ratio, 500.0))
    return max(1, min(int(servers * ratio), MAX_SHARDS_PER_APP))


# Size-conditioned attribute sampling.  Big apps (>= 1000 servers, ~14%
# of deployments) are far more likely to use storage and multi-metric LB;
# the conditional probabilities below are chosen so the *marginal* stays
# at the published by-app number while the by-server share skews upward:
#     P(attr) = P(attr|big) P(big) + P(attr|small) P(small).
_BIG_APP_FRACTION = 0.14
_STORAGE_GIVEN_BIG = 0.50
_STORAGE_GIVEN_SMALL = (STORAGE_BY_APP
                        - _STORAGE_GIVEN_BIG * _BIG_APP_FRACTION) / (
                            1.0 - _BIG_APP_FRACTION)
_MULTI_GIVEN_BIG = 0.70
_MULTI_GIVEN_SMALL = (LB_POLICY_BY_APP[LoadBalancePolicy.MULTI_METRIC]
                      - _MULTI_GIVEN_BIG * _BIG_APP_FRACTION) / (
                          1.0 - _BIG_APP_FRACTION)


def _storage_usage(rng: random.Random, servers: int) -> bool:
    probability = (_STORAGE_GIVEN_BIG if servers >= 1000
                   else _STORAGE_GIVEN_SMALL)
    return rng.random() < probability


def _lb_policy(rng: random.Random, servers: int) -> LoadBalancePolicy:
    multi_probability = (_MULTI_GIVEN_BIG if servers >= 1000
                         else _MULTI_GIVEN_SMALL)
    if rng.random() < multi_probability:
        return LoadBalancePolicy.MULTI_METRIC
    others = {policy: weight for policy, weight in LB_POLICY_BY_APP.items()
              if policy is not LoadBalancePolicy.MULTI_METRIC}
    return _weighted(rng, others)


def generate_fleet(app_count: int = 500,
                   seed: int = 0) -> List[SyntheticApp]:
    """Sample a population of sharded applications."""
    if app_count < 1:
        raise ValueError("app_count must be >= 1")
    rng = random.Random(seed)
    apps: List[SyntheticApp] = []
    for index in range(app_count):
        scheme = _weighted(rng, SHARDING_SCHEME_BY_APP)
        servers = _server_count(rng, scheme)
        shards = _shard_count(rng, servers)
        geo = rng.random() < GEO_DISTRIBUTED_BY_APP
        # Geo-distributed deployments skew smaller by server count
        # (Figure 5: 42% of servers vs 67% of apps): damp size for geo apps.
        if geo and servers > 2000 and rng.random() < 0.5:
            servers = servers // 4
            shards = max(1, shards // 4)
        replication = _weighted(rng, REPLICATION_BY_APP)
        lb_policy = _lb_policy(rng, servers)
        drain_policy = DrainPolicy(
            drain_primaries=rng.random() < DRAIN_PRIMARIES_BY_APP,
            drain_secondaries=rng.random() < DRAIN_SECONDARIES_BY_APP,
        )
        apps.append(SyntheticApp(
            name=f"app{index:04d}",
            scheme=scheme,
            servers=servers,
            shards=shards,
            mode=(DeploymentMode.GEO_DISTRIBUTED if geo
                  else DeploymentMode.REGIONAL),
            replication=replication,
            lb_policy=lb_policy,
            drain_policy=drain_policy,
            uses_storage=_storage_usage(rng, servers),
        ))
    return apps


@dataclass
class Breakdown:
    """A Fig 4–9 style two-way breakdown."""

    by_app: Dict[str, float]
    by_server: Dict[str, float]


def _two_way(apps: Sequence[SyntheticApp], key_fn) -> Breakdown:
    app_counts: Dict[str, int] = {}
    server_counts: Dict[str, int] = {}
    total_servers = 0
    for app in apps:
        key = key_fn(app)
        app_counts[key] = app_counts.get(key, 0) + 1
        server_counts[key] = server_counts.get(key, 0) + app.servers
        total_servers += app.servers
    return Breakdown(
        by_app={k: v / len(apps) for k, v in app_counts.items()},
        by_server={k: v / total_servers for k, v in server_counts.items()},
    )


def scheme_breakdown(apps: Sequence[SyntheticApp]) -> Breakdown:
    """Figure 4."""
    return _two_way(apps, lambda a: a.scheme)


def deployment_breakdown(apps: Sequence[SyntheticApp]) -> Breakdown:
    """Figure 5 (SM applications only)."""
    return _two_way([a for a in apps if a.is_sm], lambda a: a.mode.value)


def replication_breakdown(apps: Sequence[SyntheticApp]) -> Breakdown:
    """Figure 6 (SM applications only)."""
    return _two_way([a for a in apps if a.is_sm],
                    lambda a: a.replication.value)


def lb_policy_breakdown(apps: Sequence[SyntheticApp]) -> Breakdown:
    """Figure 7 (SM applications only)."""
    return _two_way([a for a in apps if a.is_sm], lambda a: a.lb_policy.value)


def drain_breakdown(apps: Sequence[SyntheticApp]) -> Dict[str, Breakdown]:
    """Figure 8 (SM applications only): drain usage for each role."""
    sm_apps = [a for a in apps if a.is_sm]
    return {
        "primaries": _two_way(
            sm_apps,
            lambda a: "drain" if a.drain_policy.drain_primaries else "no_drain"),
        "secondaries": _two_way(
            sm_apps,
            lambda a: "drain" if a.drain_policy.drain_secondaries else "no_drain"),
    }


def storage_breakdown(apps: Sequence[SyntheticApp]) -> Breakdown:
    """Figure 9 (SM applications only)."""
    return _two_way([a for a in apps if a.is_sm],
                    lambda a: "storage" if a.uses_storage else "non_storage")


def scale_scatter(apps: Sequence[SyntheticApp]) -> List[Tuple[int, int]]:
    """Figure 15: (servers, shards) per SM application deployment."""
    return [(a.servers, a.shards) for a in apps if a.is_sm]


#: Figure 2's logistic adoption model: its plateau (~1.1M machines), the
#: year it is half-way there, and how steeply it climbs.
FINAL_MACHINES = 1_100_000
MIDPOINT_YEAR = 2018.0
STEEPNESS = 0.75


def adoption_curve(years: Sequence[int]) -> List[Tuple[int, float]]:
    """Figure 2: logistic growth of machines running SM applications,
    2012 → 2021 reaching ~1.1M machines."""
    curve = []
    for year in years:
        machines = FINAL_MACHINES / (1.0 + math.exp(
            -STEEPNESS * (year - MIDPOINT_YEAR)))
        curve.append((year, machines))
    return curve
