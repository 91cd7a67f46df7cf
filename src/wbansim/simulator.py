"""Star-topology experiment harness on a virtual clock.

One hub, up to 64 nodes.  Every node first joins via the management
handshake, then offers saturated stop-and-wait traffic: one outstanding
packet per node, next packet generated the moment the previous one resolves,
until the simulated duration runs out.  A heap-ordered event queue
interleaves the per-link exchanges in virtual time; links never interact,
and each link draws noise from its own channel substream, so results are
reproducible bit for bit from the seed and unaffected by adding nodes.

Frame accounting per link (uplink data frames only):

- s_frm: transmission attempts at the node
- r_frm: frames that arrived at the hub with a valid checksum
  (duplicates included; a retransmission is a frame like any other)
- s_pkt: distinct packets handed to the ARQ sender
- r_pkt: distinct packets the hub accepted

Missing and checksum-failed frames are indistinguishable in these counters,
exactly as a real rig that logs send/receive tallies would see them.

Each node's join first tries ``mac.join_clean`` and falls back to
``mac.establish_connection`` when the twin declines.  Each time a node
comes off the heap it first tries ``mac.send_clean`` (its docstring gives
the rule for the packets it decides) and falls back to
``mac.send_with_arq`` for the one packet it leaves.  A run with a trace
always joins and sends through the frame path, so every primitive is
recorded, each device's in virtual-time order, though lines of different
devices interleave out of order (ROADMAP item 5: the hub clock); untraced,
only the hub clock, which no outcome reads, may run ahead of the other
links while one link takes a long run.
"""

import heapq
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

from . import analytics
from .channel import (PRESET_FER_TARGETS, ChannelModel, ber_for_distance,
                      check_distance_map, key_digest, preset)
from .errors import ConfigError, RangeError
from .frames import ACK_FRAME_BYTES, MAX_PAYLOAD, OVERHEAD_BYTES
from .mac import (JOIN_MAX_ROUNDS, MAX_NODES, Device, Role, establish_connection,
                  join_clean, make_link, send_clean, send_with_arq)

PRESETS = (*PRESET_FER_TARGETS, "explicit")
DEFAULT_DATA_RATE_BPS = 121_400
MAX_EXCHANGES_PER_NODE = 10**8   # one node's exchanges in duration_s; one packet's retries


@dataclass
class ExperimentConfig:
    node_count: int = 6
    distance_m: Union[float, Sequence[float]] = 2.0
    payload_len: int = 10
    max_retries: int = 3
    data_rate_bps: float = DEFAULT_DATA_RATE_BPS
    duration_s: float = 5.0
    seed: int = 1234
    preset: str = "wireless"
    ber: Optional[float] = None                 # explicit flat BER override
    distance_map: Optional[tuple] = None        # explicit preset's calibration table

    def distances(self) -> list[float]:
        if isinstance(self.distance_m, (int, float)):
            return [float(self.distance_m)] * self.node_count
        return [float(d) for d in self.distance_m]

    def validate(self) -> None:
        if not 1 <= self.node_count <= MAX_NODES:
            raise ConfigError(f"node_count={self.node_count} outside 1..{MAX_NODES}")
        if not 0 <= self.payload_len <= MAX_PAYLOAD:
            raise ConfigError(f"payload_len={self.payload_len} outside 0..{MAX_PAYLOAD}")
        if not 0 <= self.max_retries <= MAX_EXCHANGES_PER_NODE:
            raise ConfigError(f"max_retries={self.max_retries} outside "
                              f"0..{MAX_EXCHANGES_PER_NODE:.0e}")
        for key in ("data_rate_bps", "duration_s"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{key}={value} must be positive and finite")
        exchange_bits = 8 * (self.payload_len + OVERHEAD_BYTES + ACK_FRAME_BYTES)
        exchanges = self.duration_s * self.data_rate_bps / exchange_bits
        if exchanges > MAX_EXCHANGES_PER_NODE:
            raise ConfigError(
                f"data_rate_bps={self.data_rate_bps} over duration_s={self.duration_s} "
                f"implies {exchanges:.3g} exchanges per node, more than "
                f"{MAX_EXCHANGES_PER_NODE:.0e}")
        if self.seed < 0:
            raise ConfigError(f"seed={self.seed} must be >= 0")
        if self.preset not in PRESETS:
            raise ConfigError(f"preset={self.preset!r} not one of {PRESETS}")
        distances = self.distances()
        if len(distances) != self.node_count:
            raise ConfigError(
                f"distance_m gives {len(distances)} distances for node_count={self.node_count}")
        for d in distances:
            if not (math.isfinite(d) and d > 0):
                raise ConfigError(f"distance_m={d} must be positive and finite")
        table = self.distance_map
        if table is not None:
            if self.preset != "explicit":
                raise ConfigError(f"distance_map needs preset='explicit'; "
                                  f"preset={self.preset!r} brings its own table")
            if self.ber is not None:
                raise ConfigError(f"ber={self.ber} and distance_map are mutually "
                                  f"exclusive: give one of them")
            if not table:
                raise ConfigError(f"distance_map={table} is empty")
            try:   # the table checks ChannelModel applies
                check_distance_map(table)
            except RangeError as exc:
                raise ConfigError(f"distance_map={table}: {exc}") from None
        if self.ber is not None and not 0.0 <= self.ber <= 1.0:
            raise ConfigError(f"ber={self.ber} is not a probability")
        if self.preset == "explicit" and self.ber is None and self.distance_map is None:
            raise ConfigError("explicit preset needs `ber` or `distance_map`")


@dataclass
class LinkCounters:
    s_frm: int = 0
    r_frm: int = 0
    s_pkt: int = 0
    r_pkt: int = 0

    def __post_init__(self):
        for received, sent in (("r_frm", "s_frm"), ("r_pkt", "s_pkt")):
            r, s = getattr(self, received), getattr(self, sent)
            if not 0 <= r <= s:
                raise ConfigError(f"{received}={r} outside 0..{sent}={s}")

    def __add__(self, other: "LinkCounters") -> "LinkCounters":
        return LinkCounters(self.s_frm + other.s_frm, self.r_frm + other.r_frm,
                            self.s_pkt + other.s_pkt, self.r_pkt + other.r_pkt)

    @property
    def fer(self) -> float:
        return analytics.fer(self.s_frm, self.r_frm) if self.s_frm else 0.0

    @property
    def per(self) -> float:
        return analytics.per(self.s_pkt, self.r_pkt) if self.s_pkt else 0.0


@dataclass
class LinkResult:
    node_id: int
    distance_m: float
    ber: float
    counters: LinkCounters
    delivered: int
    lost: int
    busy_s: float       # link-local virtual time consumed


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    links: list[LinkResult]

    @property
    def totals(self) -> LinkCounters:
        total = LinkCounters()
        for link in self.links:
            total = total + link.counters
        return total

    @property
    def fer(self) -> float:
        return self.totals.fer

    @property
    def per(self) -> float:
        return self.totals.per

    @property
    def attempt_failure_rate(self) -> float:
        total = self.totals
        delivered = sum(link.delivered for link in self.links)
        if total.s_frm == 0:
            return 0.0
        return (total.s_frm - delivered) / total.s_frm


def run_experiment(config: ExperimentConfig,
                   trace: Optional[list] = None) -> ExperimentResult:
    """Execute one timed experiment; fully reproducible from config.seed.

    `trace` receives one ``(tick, device_id, family, kind)`` per primitive."""
    config.validate()
    if config.preset == "explicit":
        model = ChannelModel(rng_seed=config.seed, distance_map=config.distance_map)
    else:
        model = preset(config.preset, rng_seed=config.seed)
    distances = config.distances()

    hub = Device(Role.HUB, 0, trace=trace)
    nodes = []
    links = []
    bers = []
    for i in range(config.node_count):
        node = Device(Role.NODE, i + 1, max_retries=config.max_retries, trace=trace)
        # without `ber`, a calibrated preset or the explicit `distance_map` gives a table
        ber = config.ber if config.ber is not None else ber_for_distance(distances[i], model)
        link = make_link(node, hub, model, ber)
        if not (join_clean(node, link) or establish_connection(node, link)):
            source = (f"ber={config.ber}" if config.ber is not None
                      else f"distance_m={distances[i]}")
            raise ConfigError(
                f"node {node.device_id} failed to join the hub within "
                f"{JOIN_MAX_ROUNDS} handshake rounds at link ber={ber:.3g} (from {source})")
        nodes.append(node)
        links.append(link)
        bers.append(ber)

    # an exchange starts in the run when it starts before tick `until`
    until = math.ceil(config.duration_s * config.data_rate_bps)
    # event queue entries: (next send tick, node index)
    queue = [(node.now, i) for i, node in enumerate(nodes)]
    heapq.heapify(queue)
    while queue:
        t, i = heapq.heappop(queue)
        if t >= until:
            continue
        node = nodes[i]
        if not send_clean(node, links[i], config.payload_len, until):
            send_with_arq(node, links[i], config.payload_len)
        heapq.heappush(queue, (node.now, i))

    results = []
    for i, node in enumerate(nodes):
        counters = LinkCounters(
            s_frm=node.frames_sent,
            r_frm=hub.rx_frames[node.device_id],
            s_pkt=node.packets_sent,
            r_pkt=hub.rx_packets[node.device_id],
        )
        results.append(LinkResult(
            node_id=node.device_id, distance_m=distances[i], ber=bers[i],
            counters=counters, delivered=node.packets_delivered,
            lost=node.packets_lost, busy_s=node.now / config.data_rate_bps))
    return ExperimentResult(config=config, links=results)


SWEEP_AXES = {
    "distance": "distance_m",
    "max_retries": "max_retries",
    "payload_len": "payload_len",
}


@dataclass
class SweepRow:
    axis: str
    value: float
    counters: LinkCounters

    @property
    def fer(self) -> float:
        return self.counters.fer

    @property
    def per(self) -> float:
        return self.counters.per


def derive_seed(base_seed: int, index: int) -> int:
    """Stable per-run seed; independent streams for each sweep point."""
    return int.from_bytes(key_digest(int(base_seed), index)[:8], "big")


def sweep(base: ExperimentConfig, axis: str, values: Sequence) -> list[SweepRow]:
    """Run one experiment per value of `axis`, with per-value derived seeds."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"axis={axis!r} not one of {sorted(SWEEP_AXES)}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    field_name = SWEEP_AXES[axis]
    rows = []
    for index, value in enumerate(values):
        cfg = replace(base, **{field_name: value},
                      seed=derive_seed(base.seed, index))
        result = run_experiment(cfg)
        rows.append(SweepRow(axis=axis, value=value, counters=result.totals))
    return rows
