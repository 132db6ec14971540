//! The in-flight work ledger: deterministic arbitration of redundancy
//! sets.
//!
//! Every protected batch expands into a *redundancy set* of member
//! batches (two replica copies, or k data groups + 1 parity group).
//! The ledger is the single state machine that decides, for each
//! delivery and each loss, what the serving runtime must do:
//!
//! * replica: first delivery **completes** the set and cancels the
//!   still-pending sibling; a late sibling delivery is a suppressed
//!   **duplicate**; one loss is **absorbed**; losing both copies
//!   requeues the work.
//! * parity: each delivery **records** its own sub-batch; when exactly
//!   one data group was lost and every other member has delivered, the
//!   final delivery triggers digital **reconstruction** of the lost
//!   group; a second loss kills the set and requeues the lost data
//!   groups (work that already delivered stays delivered).
//!
//! Every transition is a pure function of (set state, event), with all
//! member sets ordered — no wall clock, no hash iteration — so the same
//! event sequence produces byte-identical decisions on any worker
//! count. The requeue path never drops or double-counts a request:
//! each lost member's stashed requests are requeued at most once
//! (`SetState::requeued` guards deaths discovered across multiple
//! loss events).

use std::collections::{BTreeMap, BTreeSet};

/// What kind of redundancy a set uses.
#[derive(Debug, Clone, Copy)]
pub enum SetKind {
    /// Two identical copies; members 0 and 1.
    Replica,
    /// `data_members` data groups (members `0..k`) plus one parity
    /// group (member `k`).
    Parity {
        /// Number of data groups k.
        data_members: u8,
    },
}

impl SetKind {
    /// Total members in a set of this kind.
    pub(crate) fn members(&self) -> u8 {
        match self {
            SetKind::Replica => 2,
            SetKind::Parity { data_members } => data_members + 1,
        }
    }
}

/// What the runtime must do after a member delivers.
#[derive(Debug, Clone, PartialEq)]
pub enum DoneAction {
    /// First replica copy home: complete its requests and cancel the
    /// listed still-pending members (pre-launch cancels cost nothing;
    /// in-flight cancels only the already-spent energy).
    Complete {
        /// Members to cancel, ascending.
        cancel: Vec<u8>,
    },
    /// Late replica copy: outcomes already recorded, suppress.
    Duplicate,
    /// Parity member home: complete its own sub-batch (the parity
    /// group itself carries no requests).
    Record,
    /// Final surviving member home and exactly one data group was lost:
    /// complete this member's sub-batch and digitally reconstruct the
    /// lost member's from parity.
    RecordAndReconstruct {
        /// The lost data member whose stash is now recoverable.
        member: u8,
    },
}

/// What the runtime must do after a member is lost to a fault.
#[derive(Debug, Clone, PartialEq)]
pub enum LostAction {
    /// Redundancy absorbs the loss: stash the member's requests (a
    /// parity sibling may reconstruct them) and carry on.
    Absorbed,
    /// The lost data group was the *last* outstanding member — every
    /// sibling already delivered, so the k surviving groups suffice:
    /// reconstruct the stashed requests right now (no future delivery
    /// event will ever fire for this set).
    Reconstruct {
        /// The lost data member to reconstruct from parity.
        member: u8,
    },
    /// The set can no longer self-heal: requeue the stashed requests of
    /// the listed members (ascending), then drop the set's stashes.
    Requeue {
        /// Lost members whose stashed requests must re-enter admission.
        members: Vec<u8>,
    },
    /// The set already completed (or the member carries no requests):
    /// drop the stash, nothing to recover.
    AlreadyResolved,
}

#[derive(Debug, Clone)]
struct SetState {
    kind: SetKind,
    delivered: BTreeSet<u8>,
    lost: BTreeSet<u8>,
    cancelled: BTreeSet<u8>,
    /// Lost members whose stashes were already requeued (guards double
    /// requeue when a dead set keeps losing members).
    requeued: BTreeSet<u8>,
    /// Replica only: a copy delivered, all work complete.
    complete: bool,
    /// Too many losses, the set cannot self-heal.
    dead: bool,
}

/// Deterministic ledger over all live redundancy sets.
#[derive(Debug, Clone, Default)]
pub struct WorkLedger {
    sets: BTreeMap<u64, SetState>,
}

impl WorkLedger {
    /// Fresh, empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new redundancy set before its members dispatch.
    pub fn register(&mut self, set: u64, kind: SetKind) {
        let prev = self.sets.insert(
            set,
            SetState {
                kind,
                delivered: BTreeSet::new(),
                lost: BTreeSet::new(),
                cancelled: BTreeSet::new(),
                requeued: BTreeSet::new(),
                complete: false,
                dead: false,
            },
        );
        debug_assert!(prev.is_none(), "set {set} registered twice");
    }

    /// A member batch delivered its results.
    pub fn on_member_done(&mut self, set: u64, member: u8) -> DoneAction {
        let st = self.sets.get_mut(&set).expect("delivery for unknown set");
        match st.kind {
            SetKind::Replica => {
                if st.complete || st.cancelled.contains(&member) || st.dead {
                    st.delivered.insert(member);
                    return DoneAction::Duplicate;
                }
                st.complete = true;
                st.delivered.insert(member);
                let cancel: Vec<u8> = (0..st.kind.members())
                    .filter(|m| {
                        !st.delivered.contains(m)
                            && !st.lost.contains(m)
                            && !st.cancelled.contains(m)
                    })
                    .collect();
                st.cancelled.extend(cancel.iter().copied());
                DoneAction::Complete { cancel }
            }
            SetKind::Parity { data_members } => {
                st.delivered.insert(member);
                let lost_data: Vec<u8> = st
                    .lost
                    .iter()
                    .copied()
                    .filter(|&m| m < data_members)
                    .collect();
                let all_others_home =
                    st.delivered.len() + st.lost.len() == st.kind.members() as usize;
                if !st.dead && lost_data.len() == 1 && st.lost.len() == 1 && all_others_home {
                    st.complete = true;
                    DoneAction::RecordAndReconstruct {
                        member: lost_data[0],
                    }
                } else {
                    DoneAction::Record
                }
            }
        }
    }

    /// A member batch was lost (fiber cut or engine fault mid-flight).
    pub fn on_member_lost(&mut self, set: u64, member: u8) -> LostAction {
        let st = self.sets.get_mut(&set).expect("loss for unknown set");
        st.lost.insert(member);
        if st.complete {
            return LostAction::AlreadyResolved;
        }
        match st.kind {
            SetKind::Replica => {
                if st.lost.len() >= 2 {
                    st.dead = true;
                    // Both copies carry the same requests: requeue the
                    // lowest-id lost member's stash once, drop the rest.
                    let first = *st.lost.iter().next().expect("lost nonempty");
                    if st.requeued.insert(first) {
                        LostAction::Requeue {
                            members: vec![first],
                        }
                    } else {
                        LostAction::AlreadyResolved
                    }
                } else {
                    LostAction::Absorbed
                }
            }
            SetKind::Parity { data_members } => {
                if st.lost.len() == 1
                    && member < data_members
                    && st.delivered.len() == st.kind.members() as usize - 1
                {
                    // Every sibling already delivered: parity plus the
                    // surviving data groups reconstruct this one now.
                    st.complete = true;
                    return LostAction::Reconstruct { member };
                }
                if st.lost.len() >= 2 {
                    st.dead = true;
                    let members: Vec<u8> = st
                        .lost
                        .iter()
                        .copied()
                        .filter(|&m| m < data_members && !st.requeued.contains(&m))
                        .collect();
                    st.requeued.extend(members.iter().copied());
                    if members.is_empty() {
                        // Only the parity group (requestless) was newly
                        // lost — nothing to requeue.
                        LostAction::AlreadyResolved
                    } else {
                        LostAction::Requeue { members }
                    }
                } else {
                    LostAction::Absorbed
                }
            }
        }
    }

    /// The kind of a registered set, if any.
    pub fn kind(&self, set: u64) -> Option<SetKind> {
        self.sets.get(&set).map(|s| s.kind)
    }

    /// True when every member of `set` has a terminal disposition
    /// (delivered, lost, or cancelled).
    pub(crate) fn is_settled(&self, set: u64) -> bool {
        self.sets.get(&set).is_some_and(|st| {
            let mut seen = st.delivered.clone();
            seen.extend(st.lost.iter().copied());
            seen.extend(st.cancelled.iter().copied());
            seen.len() == st.kind.members() as usize
        })
    }

    /// Sets not yet settled, ascending — the end-of-run invariant
    /// (`unsettled_sets().is_empty()`) says no member batch vanished
    /// without a delivery, loss, or cancellation.
    pub fn unsettled_sets(&self) -> Vec<u64> {
        self.sets
            .keys()
            .copied()
            .filter(|&s| !self.is_settled(s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_first_home_wins_and_cancels_the_sibling() {
        let mut led = WorkLedger::new();
        led.register(7, SetKind::Replica);
        assert_eq!(
            led.on_member_done(7, 1),
            DoneAction::Complete { cancel: vec![0] }
        );
        // A stale delivery of the cancelled copy is suppressed.
        assert_eq!(led.on_member_done(7, 0), DoneAction::Duplicate);
        assert!(led.is_settled(7));
    }

    #[test]
    fn replica_absorbs_one_loss_and_requeues_on_two() {
        let mut led = WorkLedger::new();
        led.register(1, SetKind::Replica);
        assert_eq!(led.on_member_lost(1, 0), LostAction::Absorbed);
        assert_eq!(
            led.on_member_lost(1, 1),
            LostAction::Requeue { members: vec![0] }
        );
        assert!(led.is_settled(1));
    }

    #[test]
    fn replica_loss_after_completion_is_moot() {
        let mut led = WorkLedger::new();
        led.register(2, SetKind::Replica);
        led.on_member_done(2, 0);
        assert_eq!(led.on_member_lost(2, 1), LostAction::AlreadyResolved);
    }

    #[test]
    fn replica_survivor_completes_after_sibling_loss() {
        let mut led = WorkLedger::new();
        led.register(3, SetKind::Replica);
        assert_eq!(led.on_member_lost(3, 1), LostAction::Absorbed);
        // The surviving copy completes; nothing left to cancel.
        assert_eq!(
            led.on_member_done(3, 0),
            DoneAction::Complete { cancel: vec![] }
        );
        assert!(led.is_settled(3));
    }

    #[test]
    fn parity_reconstructs_a_single_lost_data_group() {
        let mut led = WorkLedger::new();
        led.register(4, SetKind::Parity { data_members: 3 });
        assert_eq!(led.on_member_done(4, 0), DoneAction::Record);
        assert_eq!(led.on_member_lost(4, 1), LostAction::Absorbed);
        assert_eq!(led.on_member_done(4, 2), DoneAction::Record);
        // Parity group is the last one home: reconstruction fires.
        assert_eq!(
            led.on_member_done(4, 3),
            DoneAction::RecordAndReconstruct { member: 1 }
        );
        assert!(led.is_settled(4));
    }

    #[test]
    fn parity_member_loss_alone_needs_no_recovery() {
        let mut led = WorkLedger::new();
        led.register(5, SetKind::Parity { data_members: 2 });
        assert_eq!(led.on_member_lost(5, 2), LostAction::Absorbed);
        assert_eq!(led.on_member_done(5, 0), DoneAction::Record);
        assert_eq!(led.on_member_done(5, 1), DoneAction::Record);
        assert!(led.is_settled(5));
    }

    #[test]
    fn parity_double_loss_requeues_only_lost_data() {
        let mut led = WorkLedger::new();
        led.register(6, SetKind::Parity { data_members: 3 });
        assert_eq!(led.on_member_lost(6, 3), LostAction::Absorbed); // parity
        assert_eq!(
            led.on_member_lost(6, 0),
            LostAction::Requeue { members: vec![0] }
        );
        // Surviving data groups still deliver and count.
        assert_eq!(led.on_member_done(6, 1), DoneAction::Record);
        // A third loss requeues only the newly lost member.
        assert_eq!(
            led.on_member_lost(6, 2),
            LostAction::Requeue { members: vec![2] }
        );
        assert!(led.is_settled(6));
    }

    #[test]
    fn parity_two_data_losses_requeue_both_once() {
        let mut led = WorkLedger::new();
        led.register(8, SetKind::Parity { data_members: 2 });
        assert_eq!(led.on_member_lost(8, 0), LostAction::Absorbed);
        assert_eq!(
            led.on_member_lost(8, 1),
            LostAction::Requeue {
                members: vec![0, 1]
            }
        );
        // Parity delivering afterwards records nothing harmful.
        assert_eq!(led.on_member_done(8, 2), DoneAction::Record);
        assert!(led.is_settled(8));
    }

    #[test]
    fn parity_loss_after_all_others_delivered_reconstructs_immediately() {
        let mut led = WorkLedger::new();
        led.register(9, SetKind::Parity { data_members: 2 });
        assert_eq!(led.on_member_done(9, 0), DoneAction::Record);
        assert_eq!(led.on_member_done(9, 2), DoneAction::Record); // parity home
                                                                  // The last outstanding member dies in flight: no delivery event
                                                                  // remains to trigger recovery, so the loss itself must.
        assert_eq!(
            led.on_member_lost(9, 1),
            LostAction::Reconstruct { member: 1 }
        );
        assert!(led.is_settled(9));
        assert_eq!(led.on_member_lost(9, 1), LostAction::AlreadyResolved);
    }

    #[test]
    fn parity_member_lost_last_needs_no_reconstruction() {
        let mut led = WorkLedger::new();
        led.register(12, SetKind::Parity { data_members: 2 });
        assert_eq!(led.on_member_done(12, 0), DoneAction::Record);
        assert_eq!(led.on_member_done(12, 1), DoneAction::Record);
        // The parity group carries no requests: its loss is absorbed
        // even as the final member.
        assert_eq!(led.on_member_lost(12, 2), LostAction::Absorbed);
        assert!(led.is_settled(12));
    }

    #[test]
    fn unsettled_sets_flag_members_in_flight() {
        let mut led = WorkLedger::new();
        led.register(10, SetKind::Replica);
        led.register(11, SetKind::Replica);
        led.on_member_done(10, 0);
        assert_eq!(led.unsettled_sets(), vec![11]);
        led.on_member_lost(11, 0);
        led.on_member_lost(11, 1);
        assert!(led.unsettled_sets().is_empty());
    }
}
