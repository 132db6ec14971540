//! The discrete-event core.
//!
//! A deterministic event queue over integer-picosecond timestamps. Ties
//! break on insertion order (a monotone sequence number), so two runs of
//! the same scenario pop events in exactly the same order — the property
//! the replay tests pin down.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A scheduled event: fires at `at_ps`, carrying a payload `E`.
#[derive(Debug)]
struct Scheduled<E> {
    at_ps: u64,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at_ps == other.at_ps && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at_ps, self.seq).cmp(&(other.at_ps, other.seq))
    }
}

/// A deterministic discrete-event queue.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    now_ps: u64,
    next_seq: u64,
    pub events_processed: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now_ps: 0,
            next_seq: 0,
            events_processed: 0,
        }
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Current simulation time, ps.
    pub(crate) fn now_ps(&self) -> u64 {
        self.now_ps
    }

    /// Schedule `payload` at absolute time `at_ps`. Scheduling in the
    /// past is a logic error.
    pub fn schedule_at(&mut self, at_ps: u64, payload: E) {
        assert!(
            at_ps >= self.now_ps,
            "cannot schedule into the past ({at_ps} < {})",
            self.now_ps
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Scheduled {
            at_ps,
            seq,
            payload,
        }));
    }

    /// Schedule `payload` after a relative delay.
    pub(crate) fn schedule_in(&mut self, delay_ps: u64, payload: E) {
        self.schedule_at(self.now_ps.saturating_add(delay_ps), payload);
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        let Reverse(ev) = self.heap.pop()?;
        self.now_ps = ev.at_ps;
        self.events_processed += 1;
        Some((ev.at_ps, ev.payload))
    }

    /// Peek at the next event time without popping.
    pub fn peek_time_ps(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(ev)| ev.at_ps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(30, "c");
        q.schedule_at(10, "a");
        q.schedule_at(20, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now_ps(), 30);
        assert_eq!(q.events_processed, 3);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule_at(5, "first");
        q.schedule_at(5, "second");
        q.schedule_at(5, "third");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn relative_scheduling_uses_current_time() {
        let mut q = EventQueue::new();
        q.schedule_at(100, "x");
        q.pop();
        q.schedule_in(50, "y");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, 150);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule_at(10, 1);
        q.schedule_at(10, 2);
        q.schedule_at(11, 3);
        let mut last = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(100, "x");
        q.pop();
        q.schedule_at(50, "y");
    }

    #[test]
    fn empty_queue_behavior() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time_ps(), None);
    }
}
