//! Point-to-point link model: bandwidth, propagation delay, random loss and
//! a drop-tail queue, per direction.

use std::time::Duration;

use crate::time::SimTime;

/// Parameters of one direction of a link.
#[derive(Clone, Copy, Debug)]
pub struct LinkParams {
    /// Capacity in bytes per second.
    pub bandwidth_bps: f64,
    /// One-way propagation delay.
    pub delay: Duration,
    /// Independent per-packet loss probability in `[0, 1)`.
    pub loss: f64,
    /// Drop-tail queue capacity in bytes (bytes admitted but not yet
    /// serialized onto the wire).
    pub queue_bytes: u32,
}

impl LinkParams {
    /// A convenient symmetric WAN/LAN link description.
    pub fn new(bandwidth_bps: f64, delay: Duration) -> LinkParams {
        LinkParams {
            bandwidth_bps,
            delay,
            loss: 0.0,
            queue_bytes: 256 * 1024,
        }
    }

    /// Builder-style loss probability.
    pub fn with_loss(mut self, loss: f64) -> LinkParams {
        assert!((0.0..1.0).contains(&loss), "loss must be in [0,1)");
        self.loss = loss;
        self
    }

    /// Builder-style queue capacity.
    pub fn with_queue(mut self, queue_bytes: u32) -> LinkParams {
        self.queue_bytes = queue_bytes;
        self
    }

    /// Helper: capacity given in megabytes per second (the unit the paper
    /// uses throughout its evaluation).
    pub fn mbps(megabytes_per_sec: f64, delay: Duration) -> LinkParams {
        LinkParams::new(megabytes_per_sec * 1e6, delay)
    }

    /// Time to serialize `len` bytes onto the wire.
    fn tx_time(&self, len: u32) -> Duration {
        Duration::from_secs_f64(len as f64 / self.bandwidth_bps)
    }
}

/// Counters for one link direction.
#[derive(Clone, Copy, Debug, Default)]
pub struct LinkStats {
    pub tx_packets: u64,
    pub tx_bytes: u64,
    pub lost_packets: u64,
    pub queue_drops: u64,
}

/// Identifier of one link *direction* in the world's link table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LinkDirId(pub usize);

/// Runtime state of one link direction.
#[derive(Debug)]
pub struct LinkDir {
    pub params: LinkParams,
    /// Node and interface index that receives packets from this direction.
    pub to_node: crate::world::NodeId,
    pub to_iface: usize,
    /// Time at which the wire becomes free.
    pub busy_until: SimTime,
    /// Administrative state: a downed link drops every packet offered to
    /// it (fault injection). Packets already propagating still arrive.
    pub up: bool,
    pub stats: LinkStats,
}

impl LinkDir {
    /// Admit a packet to the queue. Returns `Some(delivery_time)` if the
    /// packet is accepted (and occupies the wire), `None` if the drop-tail
    /// queue is full.
    pub fn admit(&mut self, now: SimTime, wire_len: u32) -> Option<SimTime> {
        let backlog_secs = self.busy_until.since(now).as_secs_f64();
        let backlog_bytes = backlog_secs * self.params.bandwidth_bps;
        if backlog_bytes + wire_len as f64 > self.params.queue_bytes as f64 {
            self.stats.queue_drops += 1;
            return None;
        }
        let start = self.busy_until.max(now);
        let done = start + self.params.tx_time(wire_len);
        self.busy_until = done;
        self.stats.tx_packets += 1;
        self.stats.tx_bytes += wire_len as u64;
        Some(done + self.params.delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::NodeId;

    fn dir(params: LinkParams) -> LinkDir {
        LinkDir {
            params,
            to_node: NodeId(0),
            to_iface: 0,
            busy_until: SimTime::ZERO,
            up: true,
            stats: LinkStats::default(),
        }
    }

    #[test]
    fn serialization_and_propagation_delay() {
        // 1 MB/s, 10 ms delay: a 1000-byte packet takes 1 ms + 10 ms.
        let mut d = dir(LinkParams::mbps(1.0, Duration::from_millis(10)));
        let at = d.admit(SimTime::ZERO, 1000).unwrap();
        assert_eq!(at.as_nanos(), 11_000_000);
        // Second packet queues behind the first.
        let at2 = d.admit(SimTime::ZERO, 1000).unwrap();
        assert_eq!(at2.as_nanos(), 12_000_000);
    }

    #[test]
    fn drop_tail_queue_overflows() {
        let mut d = dir(LinkParams::mbps(1.0, Duration::ZERO).with_queue(2500));
        assert!(d.admit(SimTime::ZERO, 1000).is_some());
        assert!(d.admit(SimTime::ZERO, 1000).is_some());
        // 2000 bytes already backlogged; a third 1000-byte packet exceeds 2500.
        assert!(d.admit(SimTime::ZERO, 1000).is_none());
        assert_eq!(d.stats.queue_drops, 1);
        assert_eq!(d.stats.tx_packets, 2);
        // After the wire drains, packets are admitted again.
        let later = SimTime::ZERO + Duration::from_millis(2);
        assert!(d.admit(later, 1000).is_some());
    }

    #[test]
    fn bandwidth_fully_utilized_back_to_back() {
        let mut d = dir(LinkParams::mbps(2.0, Duration::from_millis(5)).with_queue(1 << 20));
        let mut last = SimTime::ZERO;
        for _ in 0..100 {
            last = d.admit(SimTime::ZERO, 2000).unwrap();
        }
        // 100 * 2000 bytes at 2 MB/s = 100 ms serialization + 5 ms delay.
        assert_eq!(last.as_nanos(), 105_000_000);
        assert_eq!(d.stats.tx_bytes, 200_000);
    }
}
