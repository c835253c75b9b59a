"""Latency models for the simulated network.

The paper's prototype ran Jeode-JVM iPAQs over an 11 Mb/s wireless LAN
talking to wired servers. We model one-way message delay as

    delay = base + size_bytes / bandwidth + jitter

with parameters per device-class pair. Numbers are representative of
2003-era hardware (milliseconds, expressed in simulated seconds); the
*relative* costs (PDA wireless hop >> wired hop) are what experiments
depend on, per the substitution note in DESIGN.md.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod

from repro.net.address import DeviceClass, NodeAddress
from repro.net.message import Message


class LatencyModel(ABC):
    """Computes the one-way delay of a message between two nodes."""

    @abstractmethod
    def delay(self, src: NodeAddress, dst: NodeAddress, message: Message) -> float:
        """One-way delay in simulated seconds (must be >= 0)."""


class ZeroLatency(LatencyModel):
    """No delay at all — for logic-only unit tests."""

    def delay(self, src: NodeAddress, dst: NodeAddress, message: Message) -> float:
        return 0.0


class ConstantLatency(LatencyModel):
    """Fixed per-message delay regardless of endpoints or size."""

    def __init__(self, seconds: float = 0.001):
        if seconds < 0:
            raise ValueError("latency cannot be negative")
        self.seconds = seconds

    def delay(self, src: NodeAddress, dst: NodeAddress, message: Message) -> float:
        return self.seconds


class UniformLatency(LatencyModel):
    """Delay drawn uniformly from ``[low, high]`` with a seeded RNG."""

    def __init__(self, low: float, high: float, rng: random.Random | None = None):
        if not 0 <= low <= high:
            raise ValueError(f"invalid range [{low}, {high}]")
        self.low = low
        self.high = high
        self.rng = rng or random.Random(0)

    def delay(self, src: NodeAddress, dst: NodeAddress, message: Message) -> float:
        return self.rng.uniform(self.low, self.high)


#: (base seconds, bandwidth bytes/sec) per device class, representative of
#: the paper's 2003 deployment: 802.11b PDAs, 100 Mb/s wired LAN servers.
_CLASS_PROFILE: dict[DeviceClass, tuple[float, float]] = {
    DeviceClass.PDA: (0.008, 700_000.0),          # wireless hop ~8 ms base
    DeviceClass.WORKSTATION: (0.002, 6_000_000.0),
    DeviceClass.SERVER: (0.001, 12_000_000.0),
}


class CampusNetworkLatency(LatencyModel):
    """The default model: per-endpoint base + transmission + jitter.

    The slower endpoint dominates bandwidth (a PDA talking to a server is
    limited by the wireless hop). Jitter is a seeded uniform fraction of
    the deterministic part, so runs remain reproducible.
    """

    def __init__(self, jitter_fraction: float = 0.1, rng: random.Random | None = None):
        if not 0 <= jitter_fraction < 1:
            raise ValueError("jitter_fraction must be in [0, 1)")
        self.jitter_fraction = jitter_fraction
        self.rng = rng or random.Random(0)
        #: (src class, dst class) -> (base, bandwidth), memoized — the
        #: per-pair parameters never change, only size and jitter do
        self._pair_params: dict[tuple[DeviceClass, DeviceClass], tuple[float, float]] = {}

    def delay(self, src: NodeAddress, dst: NodeAddress, message: Message) -> float:
        pair = (src.device_class, dst.device_class)
        params = self._pair_params.get(pair)
        if params is None:
            src_base, src_bw = _CLASS_PROFILE[pair[0]]
            dst_base, dst_bw = _CLASS_PROFILE[pair[1]]
            params = self._pair_params[pair] = (src_base + dst_base, min(src_bw, dst_bw))
        base, bandwidth = params
        deterministic = base + message.size_bytes / bandwidth
        if self.jitter_fraction == 0:
            return deterministic
        jitter = deterministic * self.jitter_fraction * self.rng.random()
        return deterministic + jitter
