"""Synthetic counterparts of the paper's five measurement data sets.

The real NLANR, GNP, AGNP, P2PSim and PL-RTT matrices are not available
offline, so each generator here rebuilds a data set with the same
dimensions, collection methodology and statistical pathologies from the
library's own substrates:

1. a transit-stub router topology (:mod:`repro.topology`),
2. shortest-path delays with policy inflation and optional asymmetry
   (:mod:`repro.routing`),
3. host populations attached to sites with access delays, and
4. a simulated measurement campaign — min-of-N pings for the directly
   measured sets, the King method for P2PSim
   (:mod:`repro.measurement`).

Every generator is deterministic given its seed; calling with
``seed=None`` uses a fixed canonical seed so that figures and tables
are exactly reproducible run to run. See "The data sets" in
docs/paper-mapping.md for the substitution rationale per data set.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .._validation import as_rng
from ..exceptions import ValidationError
from ..measurement import (
    CompositeNoise,
    GaussianJitter,
    KingConfig,
    KingEstimator,
    Pinger,
    QueueingSpikes,
)
from ..routing import (
    PolicyInflationConfig,
    apply_asymmetry,
    apply_policy_inflation,
    compose_host_rtt,
    pairwise_site_delays,
)
from ..topology import (
    AccessDelayModel,
    TransitStubConfig,
    assign_hosts,
    place_sites,
    transit_stub_topology,
)
from .base import DistanceDataset

__all__ = [
    "DEFAULT_SEED",
    "SyntheticWorld",
    "WorldConfig",
    "build_world",
    "nlanr_like",
    "plrtt_like",
    "p2psim_like",
    "GNPFamily",
    "gnp_family",
    "gnp_like",
    "agnp_like",
]

#: Canonical base seed (the paper's ACM DOI suffix, 10.1145/1028788.1028827).
DEFAULT_SEED = 1028827


@dataclass(frozen=True)
class WorldConfig:
    """Parameters of a synthetic measured-Internet world.

    Attributes:
        n_hosts: number of end hosts.
        n_sites: number of sites hosts attach to; fewer sites means
            stronger clustering and lower matrix rank.
        topology: transit-stub generator parameters (the stub count is
            scaled automatically to fit ``n_sites``).
        site_concentration: Dirichlet concentration of host-to-site
            assignment (small = skewed P2P-like populations).
        access: host access-delay distribution.
        policy: inter-domain path-inflation parameters.
        asymmetry_level: log-sigma of directional asymmetry (0 = RTT
            symmetric world).
        intra_site_ms: one-way delay between co-located hosts.
    """

    n_hosts: int
    n_sites: int
    topology: TransitStubConfig = field(default_factory=TransitStubConfig)
    site_concentration: float = 1.0
    access: AccessDelayModel = field(default_factory=AccessDelayModel)
    policy: PolicyInflationConfig = field(default_factory=PolicyInflationConfig)
    asymmetry_level: float = 0.0
    intra_site_ms: float = 0.2


@dataclass(frozen=True)
class SyntheticWorld:
    """Ground truth of a synthetic world, before measurement error.

    Attributes:
        true_rtt: ``(n_hosts, n_hosts)`` true RTT matrix in ms.
        host_sites: site index of each host.
        site_domains: domain label of each site.
        config: the generating configuration.
    """

    true_rtt: np.ndarray
    host_sites: np.ndarray
    site_domains: np.ndarray
    config: WorldConfig


def _topology_config_for_sites(
    base: TransitStubConfig, n_sites: int
) -> TransitStubConfig:
    """Scale stub-domain count so the topology offers >= n_sites stubs."""
    per_stub_domain = base.stub_domain_size
    transit_routers = base.n_transit_domains * base.transit_domain_size
    needed_domains = int(np.ceil(n_sites / per_stub_domain))
    per_transit_node = int(np.ceil(needed_domains / transit_routers))
    per_transit_node = max(per_transit_node, base.stub_domains_per_transit_node)
    return replace(base, stub_domains_per_transit_node=per_transit_node)


def build_world(
    config: WorldConfig, seed: int | np.random.Generator | None = None
) -> SyntheticWorld:
    """Construct the ground-truth RTT matrix of a synthetic world.

    Runs the full substrate pipeline: topology generation, site
    placement, shortest-path routing, policy inflation, host
    attachment, RTT composition, and optional directional asymmetry.
    """
    if config.n_hosts < 2:
        raise ValidationError(f"n_hosts must be >= 2, got {config.n_hosts}")
    if config.n_sites < 1:
        raise ValidationError(f"n_sites must be >= 1, got {config.n_sites}")
    rng = as_rng(seed)

    topology_config = _topology_config_for_sites(config.topology, config.n_sites)
    topology = transit_stub_topology(topology_config, seed=rng)

    sites = place_sites(topology, config.n_sites, seed=rng)
    site_delays = pairwise_site_delays(topology, sites.site_indices)
    site_delays = apply_policy_inflation(
        site_delays, sites.site_domains, config.policy, seed=rng
    )

    host_sites, host_access = assign_hosts(
        config.n_hosts,
        config.n_sites,
        seed=rng,
        concentration=config.site_concentration,
        access_model=config.access,
    )
    true_rtt = compose_host_rtt(
        site_delays,
        host_sites,
        host_access,
        intra_site_ms=config.intra_site_ms,
    )
    if config.asymmetry_level > 0:
        true_rtt = apply_asymmetry(true_rtt, config.asymmetry_level, seed=rng)

    return SyntheticWorld(
        true_rtt=true_rtt,
        host_sites=host_sites,
        site_domains=sites.site_domains,
        config=config,
    )


def _min_rtt_campaign(
    true_rtt: np.ndarray,
    samples: int,
    jitter_ms: float,
    spike_probability: float,
    spike_mean_ms: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Min-of-N ping campaign over a truth matrix (complete result)."""
    noise = CompositeNoise(
        stages=(
            GaussianJitter(sigma_ms=jitter_ms),
            QueueingSpikes(probability=spike_probability, mean_ms=spike_mean_ms),
        )
    )
    pinger = Pinger(true_rtt, noise=noise, samples=samples, seed=rng)
    return pinger.measure_matrix()


def _seed_or_default(seed: int | np.random.Generator | None, offset: int) -> object:
    """Resolve ``None`` to the canonical per-data-set seed."""
    if seed is None:
        return DEFAULT_SEED + offset
    return seed


def nlanr_like(
    seed: int | np.random.Generator | None = None,
    n_hosts: int = 110,
) -> DistanceDataset:
    """NLANR-AMP-like data set: 110 HPC sites, minimum-of-day RTTs.

    The AMP mesh is clean and mostly North American: one host per site,
    tiny access delays, modest policy detours, and min-of-many-samples
    probing that strips nearly all transient noise — the best-behaved
    data set in the paper's Figure 2 after tiny GNP.
    """
    rng = as_rng(_seed_or_default(seed, offset=0))
    config = WorldConfig(
        n_hosts=n_hosts,
        n_sites=n_hosts,  # one AMP monitor per HPC site
        topology=TransitStubConfig(
            n_transit_domains=1,  # a single research backbone (Abilene-like)
            transit_domain_size=6,
            stub_domain_size=3,
            region_km=5500.0,  # continental-US scale, ~10% abroad
            multihoming_probability=0.05,
        ),
        site_concentration=5.0,  # managed testbed: even spread
        access=AccessDelayModel(median_ms=0.2, sigma=0.2),
        policy=PolicyInflationConfig(
            detour_probability=0.08,
            inflation_sigma=0.2,
            pair_detour_probability=0.01,
            pair_inflation_sigma=0.25,
        ),
        asymmetry_level=0.0,
        intra_site_ms=0.1,
    )
    world = build_world(config, seed=rng)
    measured = _min_rtt_campaign(
        world.true_rtt,
        samples=40,
        jitter_ms=0.3,
        spike_probability=0.1,
        spike_mean_ms=10.0,
        rng=rng,
    )
    return DistanceDataset(
        name="nlanr",
        matrix=measured,
        metadata={
            "methodology": "min-of-day ping mesh (NLANR AMP, Jan 30 2003)",
            "host_sites": world.host_sites,
            "n_sites": config.n_sites,
        },
    )


def plrtt_like(
    seed: int | np.random.Generator | None = None,
    n_hosts: int = 169,
) -> DistanceDataset:
    """PL-RTT-like data set: 169 PlanetLab hosts, all-pairs min ping.

    PlanetLab hosts cluster two-to-a-site on academic networks whose
    GREN/commodity dual-homing produces frequent path detours — noisier
    than NLANR, cleaner than King-derived P2PSim.
    """
    rng = as_rng(_seed_or_default(seed, offset=1))
    config = WorldConfig(
        n_hosts=n_hosts,
        n_sites=max(n_hosts // 2, 1),  # ~2 PlanetLab nodes per site
        topology=TransitStubConfig(
            n_transit_domains=4,
            transit_domain_size=4,
            stub_domain_size=3,
            region_km=9000.0,  # global
            multihoming_probability=0.25,
        ),
        site_concentration=3.0,
        access=AccessDelayModel(median_ms=0.4, sigma=0.3),
        policy=PolicyInflationConfig(
            detour_probability=0.45,
            inflation_sigma=0.5,
            pair_detour_probability=0.05,
            pair_inflation_sigma=0.3,
        ),
        asymmetry_level=0.0,
        intra_site_ms=0.15,
    )
    world = build_world(config, seed=rng)
    measured = _min_rtt_campaign(
        world.true_rtt,
        samples=15,
        jitter_ms=0.8,
        spike_probability=0.25,
        spike_mean_ms=25.0,
        rng=rng,
    )
    return DistanceDataset(
        name="plrtt",
        matrix=measured,
        metadata={
            "methodology": "all-pairs ping, min RTT (PlanetLab 2004-03-23)",
            "host_sites": world.host_sites,
            "n_sites": config.n_sites,
        },
    )


def p2psim_like(
    seed: int | np.random.Generator | None = None,
    n_hosts: int = 1740,
) -> DistanceDataset:
    """P2PSim-like data set: DNS servers measured with the King method.

    The hardest data set in the paper: a large, globally skewed
    population measured *indirectly* through nearby DNS servers, whose
    proxy gaps and recursion overheads leave structured error that no
    amount of min-filtering removes.
    """
    rng = as_rng(_seed_or_default(seed, offset=2))
    config = WorldConfig(
        n_hosts=n_hosts,
        n_sites=max(n_hosts // 5, 1),
        topology=TransitStubConfig(
            n_transit_domains=5,
            transit_domain_size=4,
            stub_domain_size=4,
            region_km=10000.0,
            multihoming_probability=0.3,
        ),
        site_concentration=0.6,  # Gnutella-crawl skew
        access=AccessDelayModel(median_ms=1.0, sigma=0.7),
        policy=PolicyInflationConfig(
            detour_probability=0.5,
            inflation_sigma=0.6,
            pair_detour_probability=0.08,
            pair_inflation_sigma=0.4,
        ),
        asymmetry_level=0.0,
        intra_site_ms=0.3,
    )
    world = build_world(config, seed=rng)
    king = KingEstimator(
        KingConfig(
            proxy_gap_ms=3.0,
            recursion_overhead_ms=2.0,
            relative_noise=0.12,
            failure_probability=0.0,
        ),
        seed=rng,
    )
    measured = king.estimate_matrix(world.true_rtt)
    return DistanceDataset(
        name="p2psim",
        matrix=measured,
        metadata={
            "methodology": "King indirect RTT between DNS servers (P2PSim)",
            "host_sites": world.host_sites,
            "n_sites": config.n_sites,
        },
    )


@dataclass(frozen=True)
class GNPFamily:
    """The linked GNP / AGNP data sets.

    Attributes:
        gnp: 19 x 19 symmetric probe-measured matrix among the GNP
            nodes.
        agnp: 869 x 19 asymmetric matrix from the wider host population
            to the GNP nodes; ``metadata["reverse"]`` holds the 19 x 869
            reverse-direction measurements needed to place hosts with
            both outgoing and incoming vectors.
        world_truth: the full (19+869)-host ground-truth matrix, GNP
            nodes first — used only for held-out evaluation.
    """

    gnp: DistanceDataset
    agnp: DistanceDataset
    world_truth: DistanceDataset


def gnp_family(
    seed: int | np.random.Generator | None = None,
    n_gnp: int = 19,
    n_agnp: int = 869,
) -> GNPFamily:
    """Build the consistent GNP (19 x 19) + AGNP (869 x 19) pair.

    Both data sets are slices of one 888-host asymmetric world, so that
    the Figure 6(a) protocol — 15 GNP landmarks, 4 GNP + 869 AGNP
    ordinary hosts, evaluation on the 869 x 4 held-out block — is
    internally consistent, exactly as with the original data.
    """
    rng = as_rng(_seed_or_default(seed, offset=3))
    n_total = n_gnp + n_agnp
    config = WorldConfig(
        n_hosts=n_total,
        n_sites=max(n_total // 6, n_gnp),
        topology=TransitStubConfig(
            n_transit_domains=4,
            transit_domain_size=4,
            stub_domain_size=3,
            region_km=9000.0,
            multihoming_probability=0.2,
        ),
        site_concentration=1.0,
        access=AccessDelayModel(median_ms=0.5, sigma=0.5),
        policy=PolicyInflationConfig(
            detour_probability=0.25,
            inflation_sigma=0.35,
            pair_detour_probability=0.015,
            pair_inflation_sigma=0.25,
        ),
        # The paper's RTT data is symmetric; "asymmetric" for AGNP means
        # rectangular (869 x 19). A small residual level models probes
        # of the two directions happening at different times.
        asymmetry_level=0.03,
        intra_site_ms=0.2,
    )
    world = build_world(config, seed=rng)
    truth = world.true_rtt

    # The GNP nodes are hosts at n_gnp distinct sites: well-positioned
    # infrastructure nodes, as in the original deployment.
    gnp_indices = []
    seen_sites: set[int] = set()
    for host, site in enumerate(world.host_sites):
        if site not in seen_sites:
            gnp_indices.append(host)
            seen_sites.add(int(site))
        if len(gnp_indices) == n_gnp:
            break
    gnp_idx = np.asarray(gnp_indices)
    agnp_idx = np.setdiff1d(np.arange(n_total), gnp_idx)[:n_agnp]

    # Reorder the world truth so GNP nodes occupy the first rows.
    order = np.concatenate([gnp_idx, agnp_idx])
    truth_ordered = truth[np.ix_(order, order)]

    gnp_truth = truth_ordered[:n_gnp, :n_gnp]
    gnp_symmetric = 0.5 * (gnp_truth + gnp_truth.T)  # ping RTT is symmetric
    gnp_measured = _min_rtt_campaign(
        gnp_symmetric,
        samples=30,
        jitter_ms=0.4,
        spike_probability=0.15,
        spike_mean_ms=15.0,
        rng=rng,
    )
    # A ping mesh keeps the per-pair minimum over both probe directions,
    # so the published matrix is exactly symmetric.
    gnp_measured = np.minimum(gnp_measured, gnp_measured.T)

    agnp_forward = _min_rtt_campaign(
        truth_ordered[n_gnp:, :n_gnp],
        samples=10,
        jitter_ms=0.6,
        spike_probability=0.2,
        spike_mean_ms=20.0,
        rng=rng,
    )
    agnp_reverse = _min_rtt_campaign(
        truth_ordered[:n_gnp, n_gnp:],
        samples=10,
        jitter_ms=0.6,
        spike_probability=0.2,
        spike_mean_ms=20.0,
        rng=rng,
    )

    gnp_dataset = DistanceDataset(
        name="gnp",
        matrix=gnp_measured,
        metadata={"methodology": "min RTT among 19 GNP probes (May 2001)"},
    )
    agnp_dataset = DistanceDataset(
        name="agnp",
        matrix=agnp_forward,
        metadata={
            "methodology": "asymmetric host-to-GNP-node RTT (AGNP)",
            "reverse": agnp_reverse,
        },
    )
    world_dataset = DistanceDataset(
        name="gnp-world-truth",
        matrix=truth_ordered,
        metadata={"n_gnp": n_gnp, "n_agnp": n_agnp},
    )
    return GNPFamily(gnp=gnp_dataset, agnp=agnp_dataset, world_truth=world_dataset)


def gnp_like(seed: int | np.random.Generator | None = None) -> DistanceDataset:
    """The 19 x 19 symmetric GNP-like data set (see :func:`gnp_family`)."""
    return gnp_family(seed).gnp


def agnp_like(seed: int | np.random.Generator | None = None) -> DistanceDataset:
    """The 869 x 19 asymmetric AGNP-like data set (see :func:`gnp_family`)."""
    return gnp_family(seed).agnp
