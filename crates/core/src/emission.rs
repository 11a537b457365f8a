//! Incremental, amendable packet emission — the sender half of a *live*
//! adaptive loop.
//!
//! [`TxModel::schedule`](fec_sched::TxModel::schedule) orders a whole
//! schedule up front, which is the right shape for offline study but not
//! for a sender that keeps listening while it transmits:
//! reception reports arrive *mid-object*, and each re-plan should move
//! the stopping point of the transmission already in flight.
//! [`PlannedEmission`] holds the schedule as a cursor instead:
//!
//! * [`next_ref`](PlannedEmission::next_ref) hands out the next scheduled
//!   packet reference until the current plan target is reached;
//! * [`amend`](PlannedEmission::amend) retargets the emission to a new
//!   [`TransmissionPlan`] at any time — the new target is clamped to
//!   what has already been sent (emitted packets cannot be unsent) and to
//!   the schedule length (a plan can never send more than exists);
//! * the schedule order itself never changes, so an amended emission is
//!   always a prefix of the same `tx`-model ordering the plan's
//!   inefficiency assumptions were measured under.

use std::collections::{BTreeSet, VecDeque};

use fec_sched::PacketRef;

use crate::TransmissionPlan;

/// What an [`amend`](PlannedEmission::amend) call did to the target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Amendment {
    /// The target did not move (same plan, or a clamp made it a no-op).
    Unchanged,
    /// The stopping point moved earlier: fewer packets will be sent.
    Truncated {
        /// Packets cut from the previous target.
        saved: u64,
    },
    /// The stopping point moved later (e.g. the channel degraded, or a
    /// failure backoff reverted to the full schedule).
    Extended {
        /// Packets added over the previous target.
        added: u64,
    },
}

/// A schedule cursor with a movable stopping point.
///
/// Create one via [`Sender::emission`](crate::Sender::emission); drive it
/// with [`next_ref`](PlannedEmission::next_ref) and re-target it with
/// [`amend`](PlannedEmission::amend) whenever a fresh
/// [`TransmissionPlan`] arrives from the control loop.
#[derive(Debug, Clone)]
pub struct PlannedEmission {
    schedule: Vec<PacketRef>,
    cursor: usize,
    target: usize,
    /// NACK-driven targeted repair: served before the schedule, deduped
    /// while in queue, re-queueable once emitted (a repair can be lost
    /// too and re-NACKed).
    repair_queue: VecDeque<PacketRef>,
    repair_pending: BTreeSet<PacketRef>,
    repairs_sent: u64,
}

impl PlannedEmission {
    /// An emission of the full schedule (no plan yet: send everything).
    pub fn full(schedule: Vec<PacketRef>) -> PlannedEmission {
        let target = schedule.len();
        PlannedEmission {
            schedule,
            cursor: 0,
            target,
            repair_queue: VecDeque::new(),
            repair_pending: BTreeSet::new(),
            repairs_sent: 0,
        }
    }

    /// The next packet to transmit, or `None` once the current target is
    /// reached and no repair is queued. Queued repair packets go first —
    /// they answer receivers that are already waiting — then the schedule
    /// cursor resumes. A later [`amend`](Self::amend) that extends the
    /// target makes `next_ref` productive again.
    pub fn next_ref(&mut self) -> Option<PacketRef> {
        if let Some(r) = self.repair_queue.pop_front() {
            self.repair_pending.remove(&r);
            self.repairs_sent += 1;
            return Some(r);
        }
        if self.cursor >= self.target {
            return None;
        }
        let r = self.schedule[self.cursor];
        self.cursor += 1;
        Some(r)
    }

    /// The packet [`next_ref`](Self::next_ref) would return, without
    /// advancing the cursor or the repair queue. A bonded sender peeks
    /// first to classify the packet (source vs repair symbol) and pick a
    /// path, then consumes it with [`next_ref`](Self::next_ref).
    pub fn peek_ref(&self) -> Option<PacketRef> {
        if let Some(&r) = self.repair_queue.front() {
            return Some(r);
        }
        if self.cursor >= self.target {
            return None;
        }
        Some(self.schedule[self.cursor])
    }

    /// Queues targeted repair packets (from NACK digests) ahead of the
    /// schedule. Packets already waiting in the queue are deduped;
    /// packets previously *emitted* may be queued again — the repair
    /// itself travels the same lossy channel. Returns how many were
    /// actually enqueued.
    pub fn queue_repair(&mut self, refs: impl IntoIterator<Item = PacketRef>) -> u64 {
        let mut queued = 0;
        for r in refs {
            if self.repair_pending.insert(r) {
                self.repair_queue.push_back(r);
                queued += 1;
            }
        }
        queued
    }

    /// Targeted repair packets emitted so far.
    pub fn repairs_sent(&self) -> u64 {
        self.repairs_sent
    }

    /// Re-targets the emission. `Some(plan)` moves the stopping point to
    /// `plan.n_sent`; `None` reverts to the full schedule (the controller's
    /// "send everything" answer during failure backoff or estimator
    /// blackout). The target is clamped to `[sent, schedule_len]`.
    pub fn amend(&mut self, plan: Option<&TransmissionPlan>) -> Amendment {
        let requested = match plan {
            Some(p) => p.n_sent as usize,
            None => self.schedule.len(),
        };
        let new_target = requested.clamp(self.cursor, self.schedule.len());
        let old_target = self.target;
        self.target = new_target;
        debug_assert!(
            self.cursor <= self.target && self.target <= self.schedule.len(),
            "truncation invariant: cursor <= target <= schedule_len"
        );
        match new_target.cmp(&old_target) {
            core::cmp::Ordering::Equal => Amendment::Unchanged,
            core::cmp::Ordering::Less => Amendment::Truncated {
                saved: (old_target - new_target) as u64,
            },
            core::cmp::Ordering::Greater => Amendment::Extended {
                added: (new_target - old_target) as u64,
            },
        }
    }

    /// Stops the emission where it stands (target = already sent): the
    /// receiver has what it needs, nothing more goes out — including any
    /// queued repair. A later [`amend`](Self::amend) can still extend
    /// it. Idempotent.
    pub fn stop(&mut self) -> Amendment {
        self.repair_queue.clear();
        self.repair_pending.clear();
        let old_target = self.target;
        self.target = self.cursor;
        debug_assert!(
            self.target <= self.schedule.len(),
            "truncation invariant: target <= schedule_len"
        );
        if self.target == old_target {
            Amendment::Unchanged
        } else {
            Amendment::Truncated {
                saved: (old_target - self.target) as u64,
            }
        }
    }

    /// Packets emitted so far (scheduled and targeted repair).
    pub fn sent(&self) -> u64 {
        self.cursor as u64 + self.repairs_sent
    }

    /// Packets still to emit under the current target, including queued
    /// repair.
    pub fn remaining(&self) -> u64 {
        (self.target - self.cursor) as u64 + self.repair_queue.len() as u64
    }

    /// The current stopping point (`<= schedule_len`).
    pub fn target(&self) -> u64 {
        self.target as u64
    }

    /// Length of the underlying schedule (`n`, the full transmission).
    pub fn schedule_len(&self) -> u64 {
        self.schedule.len() as u64
    }

    /// True once the emission reached its current target and no repair
    /// is queued.
    pub fn is_done(&self) -> bool {
        self.cursor >= self.target && self.repair_queue.is_empty()
    }

    /// True when exactly one packet remains under the current target.
    pub fn is_last(&self) -> bool {
        self.remaining() == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CodeSpec, Sender};
    use fec_channel::GilbertParams;
    use fec_sched::TxModel;
    use fec_sim::ExpansionRatio;

    fn object(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    fn sender(k: usize) -> Sender {
        let spec = CodeSpec::ldgm_staircase(k, ExpansionRatio::R2_5);
        Sender::new(spec, &object(k * 8), 8).unwrap()
    }

    fn plan(k: usize, n_total: u64, p: f64, tolerance: u64) -> TransmissionPlan {
        TransmissionPlan::new(
            k,
            n_total,
            1.1,
            GilbertParams::bernoulli(p).unwrap(),
            tolerance,
        )
    }

    #[test]
    fn full_emission_is_the_whole_schedule() {
        let s = sender(40);
        let mut e = s.emission(TxModel::Random, 7);
        let mut refs = Vec::new();
        while let Some(r) = e.next_ref() {
            refs.push(r);
        }
        assert_eq!(refs.len() as u64, s.packet_count());
        assert_eq!(refs, TxModel::Random.schedule(s.layout(), 7));
        assert!(e.is_done());
        assert_eq!(e.target(), e.schedule_len());
    }

    #[test]
    fn amended_emission_is_a_schedule_prefix() {
        let s = sender(100);
        let p = plan(100, s.packet_count(), 0.02, 4);
        assert!(p.n_sent < s.packet_count());
        let mut e = s.emission(TxModel::Random, 3);
        let saved = e.schedule_len() - p.n_sent;
        assert_eq!(e.amend(Some(&p)), Amendment::Truncated { saved });
        let mut refs = Vec::new();
        while let Some(r) = e.next_ref() {
            refs.push(r);
        }
        assert_eq!(refs.len() as u64, p.n_sent);
        let full = TxModel::Random.schedule(s.layout(), 3);
        assert_eq!(refs, full[..refs.len()]);
    }

    #[test]
    fn mid_flight_truncation_cannot_unsend() {
        let s = sender(100);
        let mut e = s.emission(TxModel::Random, 3);
        for _ in 0..50 {
            e.next_ref().unwrap();
        }
        // A plan demanding fewer packets than already went out clamps to
        // "stop now".
        let tiny = plan(100, s.packet_count(), 0.0, 0); // n_sent ≈ 110
        assert!(
            tiny.n_sent < 120,
            "plan of {} wants fewer than sent",
            tiny.n_sent
        );
        let mut e2 = e.clone();
        for _ in 0..70 {
            e2.next_ref().unwrap();
        }
        assert!(matches!(e2.amend(Some(&tiny)), Amendment::Truncated { .. }));
        assert_eq!(e2.target(), 120, "clamped to the 120 already sent");
        assert!(e2.is_done());
        assert_eq!(e2.next_ref(), None);
    }

    #[test]
    fn extension_resumes_a_finished_emission() {
        let s = sender(100);
        let p = plan(100, s.packet_count(), 0.02, 0);
        let mut e = s.emission(TxModel::Interleaved, 9);
        e.amend(Some(&p));
        while e.next_ref().is_some() {}
        assert!(e.is_done());
        // The channel degraded: revert to the full schedule.
        assert_eq!(
            e.amend(None),
            Amendment::Extended {
                added: s.packet_count() - p.n_sent
            }
        );
        assert!(!e.is_done());
        let mut extra = 0;
        while e.next_ref().is_some() {
            extra += 1;
        }
        assert_eq!(extra, s.packet_count() - p.n_sent);
        // The union is still exactly the full schedule, in order.
        assert_eq!(e.sent(), s.packet_count());
    }

    #[test]
    fn stop_freezes_at_the_cursor_and_can_be_extended() {
        let s = sender(50);
        let mut e = s.emission(TxModel::Random, 1);
        for _ in 0..20 {
            e.next_ref().unwrap();
        }
        assert_eq!(
            e.stop(),
            Amendment::Truncated {
                saved: s.packet_count() - 20
            }
        );
        assert!(e.is_done());
        assert_eq!(e.stop(), Amendment::Unchanged, "idempotent");
        assert_eq!(e.next_ref(), None);
        // A stop is not final: the full schedule can still be restored.
        assert!(matches!(e.amend(None), Amendment::Extended { .. }));
        assert!(!e.is_done());
    }

    #[test]
    fn repair_queue_preempts_the_schedule_and_dedups() {
        let s = sender(40);
        let mut e = s.emission(TxModel::Random, 7);
        let full = TxModel::Random.schedule(s.layout(), 7);
        let first_scheduled = full[0];
        let fix_a = PacketRef { block: 0, esi: 1 };
        let fix_b = PacketRef { block: 1, esi: 2 };
        assert_eq!(e.queue_repair([fix_a, fix_b, fix_a]), 2, "in-queue dedup");
        assert_eq!(e.remaining(), e.schedule_len() + 2);
        // Repairs go out first, then the untouched schedule resumes.
        assert_eq!(e.next_ref(), Some(fix_a));
        assert_eq!(e.next_ref(), Some(fix_b));
        assert_eq!(e.next_ref(), Some(first_scheduled));
        assert_eq!(e.repairs_sent(), 2);
        assert_eq!(e.sent(), 3);
        // An emitted repair may be re-NACKed and re-queued.
        assert_eq!(e.queue_repair([fix_a]), 1);
    }

    #[test]
    fn repair_queue_keeps_a_done_emission_productive() {
        let s = sender(40);
        let mut e = s.emission(TxModel::Random, 7);
        while e.next_ref().is_some() {}
        assert!(e.is_done());
        let fix = PacketRef { block: 0, esi: 3 };
        e.queue_repair([fix]);
        assert!(!e.is_done(), "queued repair reopens the emission");
        assert_eq!(e.remaining(), 1);
        assert_eq!(e.next_ref(), Some(fix));
        assert_eq!(e.next_ref(), None);
        assert!(e.is_done());
    }

    #[test]
    fn stop_discards_queued_repair() {
        let s = sender(40);
        let mut e = s.emission(TxModel::Random, 7);
        e.next_ref().unwrap();
        e.queue_repair([PacketRef { block: 0, esi: 9 }]);
        assert!(matches!(e.stop(), Amendment::Truncated { .. }));
        assert_eq!(e.remaining(), 0);
        assert_eq!(e.next_ref(), None, "completion outranks repair");
    }

    #[test]
    fn peek_matches_next_and_does_not_advance() {
        let s = sender(40);
        let mut e = s.emission(TxModel::Random, 5);
        e.queue_repair([PacketRef { block: 0, esi: 2 }]);
        for _ in 0..10 {
            let peeked = e.peek_ref();
            assert_eq!(peeked, e.peek_ref(), "peek is idempotent");
            assert_eq!(peeked, e.next_ref());
        }
        while e.next_ref().is_some() {}
        assert_eq!(e.peek_ref(), None);
    }

    #[test]
    fn truncation_clamps_the_target_to_the_cursor() {
        let s = sender(100);
        let mut e = s.emission(TxModel::Random, 3);
        for _ in 0..150 {
            e.next_ref().unwrap();
        }
        // Demand fewer packets than the 150 already sent: the target
        // clamps to the cursor, and the sent count cannot move backwards.
        let tiny = plan(100, s.packet_count(), 0.0, 0);
        assert!(tiny.n_sent < 150);
        e.amend(Some(&tiny));
        assert_eq!(e.target(), 150, "clamped to what was already sent");
        assert_eq!(e.sent(), 150);
        assert!(e.is_done());
    }

    #[test]
    fn amend_counts_only_real_moves() {
        let s = sender(50);
        let p = plan(50, s.packet_count(), 0.02, 0);
        let mut e = s.emission(TxModel::Random, 1);
        assert!(matches!(e.amend(Some(&p)), Amendment::Truncated { .. }));
        assert_eq!(
            e.amend(Some(&p)),
            Amendment::Unchanged,
            "same target: no-op"
        );
    }
}
