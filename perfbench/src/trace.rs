//! The traced run's instruments, all outside the simulator: a frame tap
//! that samples wire traffic and counts RIP entries, and replays that
//! time single layers on what the run left behind — the scheduler op
//! trace, the post-run routing tables, the captured frames.

use catenet_core::{Network, NodeId};
use catenet_routing::{RipEntry, RipMessage, RIP_PORT};
use catenet_sim::diffsched::replay_trace;
use catenet_sim::{SchedulerKind, TraceOp};
use catenet_wire::{
    ArpPacket, ArpRepr, EtherType, EthernetFrame, IpProtocol, Ipv4Address, Ipv4Packet, Ipv4Repr,
    TcpPacket, TcpRepr, UdpPacket, UdpRepr,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Keep every this-many-th frame for the decode replay...
const FRAME_STRIDE: u64 = 16;
/// ...up to this many frames.
const FRAME_SAMPLE_CAP: usize = 16_384;
/// Keep every this-many-th RIP message for the decode replay...
const RIP_STRIDE: u64 = 8;
/// ...up to this many messages.
const RIP_SAMPLE_CAP: usize = 4_096;
/// Gateways whose inbound advertisements the update replay covers
/// (the first ones by node id; every one of their neighbors).
const UPDATE_RECEIVERS: usize = 48;
/// Fewest passes any replay makes, whatever its time budget.
const MIN_PASSES: usize = 3;

/// What the tap saw.
#[derive(Default)]
pub struct Capture {
    /// Frames offered to any link.
    pub frames: u64,
    /// Every [`FRAME_STRIDE`]-th frame.
    pub sample: Vec<Vec<u8>>,
    /// RIP messages on the wire.
    pub rip_messages: u64,
    /// Route entries in those messages.
    pub rip_entries: u64,
    /// Every [`RIP_STRIDE`]-th RIP payload.
    pub rip_sample: Vec<Vec<u8>>,
}

impl Capture {
    /// Observe one frame (the tap body).
    pub fn observe(&mut self, frame: &[u8]) {
        self.frames += 1;
        if self.frames.is_multiple_of(FRAME_STRIDE) && self.sample.len() < FRAME_SAMPLE_CAP {
            self.sample.push(frame.to_vec());
        }
        let Some(payload) = rip_payload(frame) else {
            return;
        };
        self.rip_messages += 1;
        if let Ok(message) = RipMessage::decode(payload) {
            self.rip_entries += message.entries.len() as u64;
        }
        if self.rip_messages.is_multiple_of(RIP_STRIDE) && self.rip_sample.len() < RIP_SAMPLE_CAP {
            self.rip_sample.push(payload.to_vec());
        }
    }
}

/// The IPv4 datagram inside a tapped frame. Point-to-point trunks carry
/// bare datagrams (first octet 0x45: version 4, no options, which is
/// all the stack emits); LAN frames are Ethernet II, whose first octet
/// is a locally administered or broadcast address, never 0x45.
fn ip_datagram(frame: &[u8]) -> Option<&[u8]> {
    match frame.first()? {
        0x45 => Some(frame),
        _ if frame.len() >= 14 && frame[12..14] == [0x08, 0x00] => Some(&frame[14..]),
        _ => None,
    }
}

/// The UDP payload of a RIP datagram, located without verifying
/// anything (the replay times verification separately).
fn rip_payload(frame: &[u8]) -> Option<&[u8]> {
    let ip = ip_datagram(frame)?;
    let ihl = usize::from(ip.first()? & 0x0f) * 4;
    if *ip.get(9)? != 17 || ip.len() < ihl + 8 {
        return None;
    }
    let udp = &ip[ihl..];
    (u16::from_be_bytes([udp[2], udp[3]]) == RIP_PORT).then(|| &udp[8..])
}

/// Decode one frame the way a receiving node does: link header, IPv4
/// header checksum, transport checksum over the pseudo-header. Returns
/// a value that depends on every check so none can be elided.
pub fn decode_frame(frame: &[u8]) -> u64 {
    if frame.first() != Some(&0x45) {
        let Ok(eth) = EthernetFrame::new_checked(frame) else {
            return 1;
        };
        if eth.ethertype() == EtherType::Arp {
            let ok = ArpPacket::new_checked(eth.payload()).and_then(|p| ArpRepr::parse(&p));
            return 2 + u64::from(ok.is_ok());
        }
    }
    let Some(ip) = ip_datagram(frame) else {
        return 3;
    };
    let Ok(packet) = Ipv4Packet::new_checked(ip) else {
        return 4;
    };
    let Ok(repr) = Ipv4Repr::parse(&packet) else {
        return 5;
    };
    let (src, dst) = (repr.src_addr, repr.dst_addr);
    let body = packet.payload();
    let ok = match repr.protocol {
        IpProtocol::Udp => UdpPacket::new_checked(body)
            .and_then(|p| UdpRepr::parse(&p, src, dst))
            .is_ok(),
        IpProtocol::Tcp => TcpPacket::new_checked(body)
            .and_then(|p| TcpRepr::parse(&p, src, dst))
            .is_ok(),
        _ => true,
    };
    6 + u64::from(ok)
}

/// Run `pass` (which returns how many operations it did) until
/// `budget` is spent, at least [`MIN_PASSES`] times, and return the
/// median nanoseconds per operation over the passes.
fn ns_per_op(budget: Duration, mut pass: impl FnMut() -> (u64, Duration)) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_PASSES || start.elapsed() < budget {
        let (ops, spent) = pass();
        if ops == 0 {
            return 0.0;
        }
        samples.push(spent.as_nanos() as f64 / ops as f64);
    }
    crate::median(&mut samples)
}

/// One timed pass over a closure.
fn timed(f: impl FnOnce() -> u64) -> (u64, Duration) {
    let t = Instant::now();
    let ops = f();
    (ops, t.elapsed())
}

/// Scheduler self-time: the run's op trace replayed through the wheel
/// it ran on (median of [`MIN_PASSES`] replays), in seconds.
pub fn sched_replay_s(trace: &[TraceOp]) -> f64 {
    let mut samples: Vec<f64> = (0..MIN_PASSES)
        .map(|_| {
            let t = Instant::now();
            black_box(replay_trace(SchedulerKind::Wheel, black_box(trace)));
            t.elapsed().as_secs_f64()
        })
        .collect();
    crate::median(&mut samples)
}

/// `Node::route` on every gateway for every destination host.
pub fn route_ns(
    net: &Network,
    gateways: &[NodeId],
    dests: &[Ipv4Address],
    budget: Duration,
) -> f64 {
    ns_per_op(budget, || {
        timed(|| {
            for &g in gateways {
                let node = net.node(g);
                for &d in dests {
                    black_box(node.route(black_box(d)));
                }
            }
            (gateways.len() * dests.len()) as u64
        })
    })
}

/// Link, IPv4 and transport decoding with checksum verification over
/// the sampled frames.
pub fn decode_ns(frames: &[Vec<u8>], budget: Duration) -> f64 {
    ns_per_op(budget, || {
        timed(|| {
            black_box(
                frames
                    .iter()
                    .map(|f| decode_frame(black_box(f)))
                    .sum::<u64>(),
            );
            frames.len() as u64
        })
    })
}

/// `RipMessage::decode` over the sampled RIP payloads.
pub fn rip_decode_ns(payloads: &[Vec<u8>], budget: Duration) -> f64 {
    ns_per_op(budget, || {
        timed(|| {
            for p in payloads {
                let _ = black_box(RipMessage::decode(black_box(p)));
            }
            payloads.len() as u64
        })
    })
}

/// One full advertisement as the receiving gateway hears it.
struct Advert {
    receiver: NodeId,
    iface: usize,
    from: Ipv4Address,
    entries: Vec<RipEntry>,
}

/// Full-table advertisements from every routing neighbor of the first
/// [`UPDATE_RECEIVERS`] gateways, as each neighbor would send them now.
fn adverts(net: &Network, gateways: &[NodeId]) -> Vec<Advert> {
    let mut owner: HashMap<Ipv4Address, (NodeId, usize)> = HashMap::new();
    for &g in gateways {
        for (i, iface) in net.node(g).ifaces.iter().enumerate() {
            owner.insert(iface.addr, (g, i));
        }
    }
    let mut out = Vec::new();
    for &receiver in gateways.iter().take(UPDATE_RECEIVERS) {
        for (iface, link) in net.node(receiver).ifaces.iter().enumerate() {
            let Some(&(peer, peer_iface)) = owner.get(&link.peer) else {
                continue;
            };
            let node = net.node(peer);
            let dv = node.dv.as_ref().expect("gateways run RIP");
            let entries = dv.advertisement_for(peer_iface, &node.dv_policies[peer_iface], true);
            out.push(Advert {
                receiver,
                iface,
                from: link.peer,
                entries,
            });
        }
    }
    out
}

/// `DvEngine::handle_update` per advertised entry: each advertisement
/// is applied to a fresh clone of the receiver's converged engine (the
/// clone is not timed).
pub fn update_ns_per_entry(net: &Network, gateways: &[NodeId], budget: Duration) -> f64 {
    let adverts = adverts(net, gateways);
    let per_pass: u64 = adverts.iter().map(|a| a.entries.len() as u64).sum();
    let now = net.now();
    ns_per_op(budget, || {
        let mut spent = Duration::ZERO;
        for advert in &adverts {
            let mut engine = net
                .node(advert.receiver)
                .dv
                .clone()
                .expect("gateways run RIP");
            let t = Instant::now();
            black_box(engine.handle_update(
                advert.from,
                advert.iface,
                black_box(&advert.entries),
                now,
            ));
            spent += t.elapsed();
        }
        (per_pass, spent)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use catenet_wire::{Ipv4Cidr, UdpRepr};

    fn rip_datagram(entries: usize) -> Vec<u8> {
        let message = RipMessage {
            entries: (0..entries)
                .map(|i| RipEntry::new(Ipv4Cidr::new(Ipv4Address::new(10, 1, i as u8, 0), 24), 2))
                .collect(),
        };
        let payload = message.encode();
        let (src, dst) = (Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 0, 2));
        let udp = UdpRepr {
            src_port: RIP_PORT,
            dst_port: RIP_PORT,
            payload_len: payload.len(),
        };
        let mut segment = vec![0u8; udp.buffer_len()];
        let mut packet = UdpPacket::new_unchecked(&mut segment[..]);
        udp.emit(&mut packet);
        packet.payload_mut().copy_from_slice(&payload);
        packet.fill_checksum(src, dst);
        let ip = Ipv4Repr {
            src_addr: src,
            dst_addr: dst,
            protocol: IpProtocol::Udp,
            payload_len: segment.len(),
            hop_limit: 16,
            tos: Default::default(),
        };
        catenet_ip::build_ipv4(&ip, 7, false, &segment)
    }

    #[test]
    fn the_tap_counts_rip_entries_and_decodes_the_frames_it_keeps() {
        let datagram = rip_datagram(5);
        let mut framed = vec![0x02, 0, 0, 1, 0, 0, 0x02, 0, 0, 2, 0, 0, 0x08, 0x00];
        framed.extend_from_slice(&datagram);
        let mut capture = Capture::default();
        for _ in 0..FRAME_STRIDE {
            capture.observe(&datagram);
            capture.observe(&framed);
        }
        assert_eq!(capture.frames, 2 * FRAME_STRIDE);
        assert_eq!(capture.rip_messages, 2 * FRAME_STRIDE);
        assert_eq!(capture.rip_entries, 10 * FRAME_STRIDE);
        assert_eq!(capture.sample.len(), 2);
        // Both framings decode cleanly; a flipped checksum bit does not.
        assert_eq!(decode_frame(&datagram), 7);
        assert_eq!(decode_frame(&framed), 7);
        let mut corrupt = datagram.clone();
        corrupt[30] ^= 0x40;
        assert_eq!(decode_frame(&corrupt), 6);
    }
}
