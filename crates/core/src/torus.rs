//! Torus link model.
//!
//! Each of the six external link blocks is a serializing channel. The
//! figure captions give the signalling rate: "Link 28Gbps" for the
//! bandwidth/latency benchmarks, "Link 20Gbps" for the HSG runs (the
//! torus transceivers were clocked lower on that setup).

use crate::coord::{Coord, LinkDir};
use crate::packet::ApePacket;
use apenet_sim::{Bandwidth, SimDuration, SimTime};

/// Number of link-layer ports per card: six torus directions plus the
/// internal loop-back path.
pub const NUM_PORTS: usize = 7;

/// One ingress/egress port of a card's link layer.
///
/// The go-back-N machinery treats the internal loop-back path as a
/// seventh port so that fault injection (and recovery) covers it too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Port {
    /// A torus cable direction.
    Link(LinkDir),
    /// The internal switch loop-back path.
    Loopback,
}

impl Port {
    /// All seven ports, torus directions first.
    pub const ALL: [Port; NUM_PORTS] = [
        Port::Link(LinkDir::Xp),
        Port::Link(LinkDir::Xm),
        Port::Link(LinkDir::Yp),
        Port::Link(LinkDir::Ym),
        Port::Link(LinkDir::Zp),
        Port::Link(LinkDir::Zm),
        Port::Loopback,
    ];

    /// Dense index: 0–5 for the torus directions, 6 for loop-back.
    pub fn index(self) -> usize {
        match self {
            Port::Link(d) => d.index(),
            Port::Loopback => 6,
        }
    }

    /// The port a peer receives on when we transmit on this one (the
    /// opposite direction; loop-back is its own reverse).
    pub fn reverse(self) -> Port {
        match self {
            Port::Link(d) => Port::Link(d.opposite()),
            Port::Loopback => Port::Loopback,
        }
    }
}

/// A sequenced data frame: one packet plus its per-(card, port) link
/// sequence number. The number rides inside the existing 32-byte packet
/// overhead, so framing adds no wire bytes.
#[derive(Debug, Clone)]
pub struct LinkFrame {
    /// Link-level sequence number (per sender, per port).
    pub seq: u64,
    /// The packet.
    pub packet: ApePacket,
}

/// What travels on a link: data frames in the data channel, ACK/NAK
/// credits as out-of-band control symbols (the APElink control channel),
/// which pay cable latency but occupy no data wire slots.
#[derive(Debug, Clone)]
pub enum LinkMsg {
    /// A sequenced data frame.
    Data(LinkFrame),
    /// Cumulative acknowledgement: all frames below `upto` received.
    Ack {
        /// First unacknowledged sequence number.
        upto: u64,
    },
    /// Negative acknowledgement: receiver is still waiting for `expect`
    /// (CRC failure or sequence gap); go-back-N from there.
    Nak {
        /// The sequence number the receiver expects next.
        expect: u64,
    },
    /// Keepalive probe: sent on barren retransmit timeouts to tell a live
    /// neighbour stuck in go-back-N recovery from a dead cable. Any frame
    /// is proof of life, so the probe carries only a nonce to pair with
    /// its echo.
    Ping {
        /// Echoed back verbatim in the matching [`LinkMsg::Pong`].
        nonce: u64,
    },
    /// Keepalive echo: the neighbour is alive (its receive side, at
    /// least — which is the direction the prober's frames travel).
    Pong {
        /// The nonce of the probe being answered.
        nonce: u64,
    },
    /// Link-state notification, flooded over live links when a card
    /// declares one of its ports dead so the whole mesh converges on the
    /// same fault map (the LSA of a link-state protocol, reduced to
    /// "this cable is gone").
    LinkDown {
        /// The card that owns the dead port.
        origin: Coord,
        /// The dead port's direction, from `origin`'s point of view.
        dir: LinkDir,
    },
}

/// One direction of one torus cable between two adjacent cards.
#[derive(Debug, Clone)]
pub struct TorusLink {
    rate: Bandwidth,
    latency: SimDuration,
    busy_until: SimTime,
    carried: u64,
}

/// Timing of one packet transmission on a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSlot {
    /// Serialization start.
    pub start: SimTime,
    /// Last byte leaves the transmitter.
    pub depart_end: SimTime,
    /// Packet fully received at the neighbour.
    pub arrive: SimTime,
}

impl TorusLink {
    /// A link with the given signalling rate in Gbps and cable+SerDes
    /// latency.
    pub fn new_gbps(gbps: u64, latency: SimDuration) -> Self {
        TorusLink {
            rate: Bandwidth::from_gbit_per_sec(gbps),
            latency,
            busy_until: SimTime::ZERO,
            carried: 0,
        }
    }

    /// The paper's benchmark setup: 28 Gbps, ~500 ns cable+SerDes latency.
    pub fn paper_28g() -> Self {
        Self::new_gbps(28, SimDuration::from_ns(500))
    }

    /// The HSG setup: 20 Gbps links.
    pub fn paper_20g() -> Self {
        Self::new_gbps(20, SimDuration::from_ns(500))
    }

    /// Data rate.
    pub fn rate(&self) -> Bandwidth {
        self.rate
    }

    /// Reserve transmission of `wire_bytes` starting no earlier than
    /// `ready`; transmissions are strictly serialized.
    pub fn reserve(&mut self, ready: SimTime, wire_bytes: u64) -> LinkSlot {
        let start = ready.max(self.busy_until);
        let depart_end = start + self.rate.time_for(wire_bytes);
        self.busy_until = depart_end;
        self.carried += wire_bytes;
        LinkSlot {
            start,
            depart_end,
            arrive: depart_end + self.latency,
        }
    }

    /// When the link next becomes free.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Total wire bytes carried.
    pub fn carried(&self) -> u64 {
        self.carried
    }

    /// Forget occupancy.
    pub fn reset(&mut self) {
        self.busy_until = SimTime::ZERO;
        self.carried = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_28gbps_is_3_5_gbs() {
        let l = TorusLink::paper_28g();
        assert_eq!(l.rate().bytes_per_sec(), 3_500_000_000);
    }

    #[test]
    fn serialization_and_latency() {
        let mut l = TorusLink::new_gbps(28, SimDuration::from_ns(500));
        // 4128 wire bytes at 3.5 GB/s ≈ 1.18 us
        let a = l.reserve(SimTime::ZERO, 4128);
        let b = l.reserve(SimTime::ZERO, 4128);
        assert_eq!(b.start, a.depart_end);
        assert_eq!(a.arrive, a.depart_end + SimDuration::from_ns(500));
        assert_eq!(l.carried(), 2 * 4128);
    }

    #[test]
    fn hsg_link_is_slower() {
        let fast = TorusLink::paper_28g();
        let slow = TorusLink::paper_20g();
        assert!(slow.rate() < fast.rate());
    }

    #[test]
    fn port_indices_are_dense_and_reversible() {
        for (i, p) in Port::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert_eq!(p.reverse().reverse(), *p);
        }
        assert_eq!(Port::Loopback.reverse(), Port::Loopback);
        assert_eq!(
            Port::Link(LinkDir::Xp).reverse(),
            Port::Link(LinkDir::Xm),
            "reverse of a torus port is the opposite direction"
        );
    }

    #[test]
    fn reset_clears() {
        let mut l = TorusLink::paper_28g();
        l.reserve(SimTime::ZERO, 1000);
        l.reset();
        assert_eq!(l.carried(), 0);
        assert_eq!(l.busy_until(), SimTime::ZERO);
    }
}
