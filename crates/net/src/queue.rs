//! Router egress queues.
//!
//! Per-link FIFO queues with a byte-capacity drop-tail policy, tracking
//! occupancy. Queue depth is also what the photonic
//! comparator reads in the load-balancing use case, so depth is exposed
//! as a normalized value.

use crate::packet::Packet;
use std::collections::VecDeque;

/// Drop-tail FIFO with a byte capacity.
#[derive(Debug, Clone)]
pub(crate) struct DropTailQueue {
    queue: VecDeque<Packet>,
    bytes_queued: usize,
    pub(crate) capacity_bytes: usize,
}

impl DropTailQueue {
    pub(crate) fn new(capacity_bytes: usize) -> Self {
        assert!(capacity_bytes > 0, "queue capacity must be positive");
        DropTailQueue {
            queue: VecDeque::new(),
            bytes_queued: 0,
            capacity_bytes,
        }
    }

    /// Enqueue a packet; returns `false` when the packet does not fit
    /// (the caller attributes the drop).
    pub(crate) fn push(&mut self, packet: Packet) -> bool {
        let size = packet.wire_bytes();
        if self.bytes_queued + size > self.capacity_bytes {
            return false;
        }
        self.bytes_queued += size;
        self.queue.push_back(packet);
        true
    }

    /// Dequeue the head packet.
    pub(crate) fn pop(&mut self) -> Option<Packet> {
        let p = self.queue.pop_front()?;
        self.bytes_queued -= p.wire_bytes();
        Some(p)
    }

    /// Occupancy as a fraction of capacity in `[0, 1]` — the analog
    /// value a photonic comparator reads for load balancing.
    pub(crate) fn occupancy(&self) -> f64 {
        self.bytes_queued as f64 / self.capacity_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;

    fn pkt(id: u32, payload_len: usize) -> Packet {
        Packet::data(
            Addr::new(10, 0, 0, 1),
            Addr::new(10, 0, 0, 2),
            id,
            vec![0u8; payload_len],
        )
    }

    #[test]
    fn fifo_order() {
        let mut q = DropTailQueue::new(10_000);
        q.push(pkt(1, 10));
        q.push(pkt(2, 10));
        q.push(pkt(3, 10));
        assert_eq!(q.pop().unwrap().id, 1);
        assert_eq!(q.pop().unwrap().id, 2);
        assert_eq!(q.pop().unwrap().id, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn byte_accounting() {
        let mut q = DropTailQueue::new(10_000);
        let p = pkt(1, 100);
        let size = p.wire_bytes();
        q.push(p);
        assert_eq!(q.bytes_queued, size);
        q.pop();
        assert_eq!(q.bytes_queued, 0);
    }

    #[test]
    fn drop_tail_when_full() {
        // Capacity fits exactly two 16+84=100-byte packets.
        let p = pkt(0, 84);
        let cap = p.wire_bytes() * 2;
        let mut q = DropTailQueue::new(cap);
        assert!(q.push(pkt(1, 84)));
        assert!(q.push(pkt(2, 84)));
        assert!(!q.push(pkt(3, 84)));
        assert_eq!(q.queue.len(), 2);
        // Draining frees space again.
        q.pop();
        assert!(q.push(pkt(4, 84)));
    }

    #[test]
    fn occupancy_and_peak() {
        let p = pkt(0, 84);
        let cap = p.wire_bytes() * 4;
        let mut q = DropTailQueue::new(cap);
        q.push(pkt(1, 84));
        q.push(pkt(2, 84));
        assert!((q.occupancy() - 0.5).abs() < 1e-12);
        q.pop();
        assert!((q.occupancy() - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_capacity() {
        DropTailQueue::new(0);
    }
}
