//! The reply path: one mailbox per client connection, settled by the
//! shard workers once per drained batch.
//!
//! A [`Mailbox`] is a slab of reply slots behind one mutex and one
//! condition variable — the serving layer's single piece of shared
//! mutable state. The life of a slot:
//!
//! 1. `submit` **reserves** it (vacant → awaiting) and sends the worker a
//!    [`ReplyTo`], the only handle that can answer it.
//! 2. The worker **settles** it with the reply (awaiting → ready) through
//!    [`Outbox::deliver`], which takes each mailbox's lock once for a batch
//!    and wakes the client only if a thread is parked on one of the slots
//!    just answered. A `ReplyTo` dropped unanswered — its worker died, or
//!    the job was still queued when the queue was torn down — settles its
//!    slot as **lost** instead, so no waiter hangs.
//! 3. The client **takes** the outcome (ready / lost → vacant), parking
//!    until the slot is settled, or **abandons** the slot when its
//!    `Pending` is dropped; an abandoned slot is vacated by whoever comes
//!    second, client or worker.
//!
//! The slab grows to the connection's high-water mark of requests in
//! flight and is reused from then on: a request in steady state allocates
//! nothing here.

use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::task::Poll;

use temporal_importance::protocol::Response;

/// Where one reserved reply stands.
enum Slot<T> {
    /// On the free list.
    Vacant,
    /// Reserved, unanswered; `parked` once a thread sleeps on it.
    Awaiting { parked: bool },
    /// Answered, not yet collected.
    Ready(T),
    /// The client gave up before the answer came.
    Abandoned,
    /// The answer will never come: its `ReplyTo` was dropped unanswered.
    Lost,
}

/// The slot state machine, free of locking so that it can be checked
/// against a model.
struct Slab<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    fn reserve(&mut self) -> u32 {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot::Vacant);
            u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 requests in flight")
        });
        self.slots[slot as usize] = Slot::Awaiting { parked: false };
        slot
    }

    fn vacate(&mut self, slot: u32) {
        self.slots[slot as usize] = Slot::Vacant;
        self.free.push(slot);
    }

    /// The worker's half: answers `slot` (`None`: it is lost). Returns
    /// whether a thread is parked on it.
    fn settle(&mut self, slot: u32, outcome: Option<T>) -> bool {
        match self.slots[slot as usize] {
            Slot::Awaiting { parked } => {
                self.slots[slot as usize] = outcome.map_or(Slot::Lost, Slot::Ready);
                parked
            }
            Slot::Abandoned => {
                self.vacate(slot);
                false
            }
            Slot::Vacant | Slot::Ready(_) | Slot::Lost => {
                unreachable!("a reserved slot is settled once, by its one ReplyTo")
            }
        }
    }

    /// The client's half: collects `slot`'s outcome (`None`: lost) if it
    /// has been settled, and otherwise marks the slot as slept on.
    fn poll_take(&mut self, slot: u32) -> Poll<Option<T>> {
        match std::mem::replace(&mut self.slots[slot as usize], Slot::Vacant) {
            Slot::Ready(reply) => {
                self.free.push(slot);
                Poll::Ready(Some(reply))
            }
            Slot::Lost => {
                self.free.push(slot);
                Poll::Ready(None)
            }
            Slot::Awaiting { .. } => {
                self.slots[slot as usize] = Slot::Awaiting { parked: true };
                Poll::Pending
            }
            Slot::Vacant | Slot::Abandoned => {
                unreachable!("a slot is collected or abandoned once, by its one Pending")
            }
        }
    }

    /// The client gives `slot` up: vacated now if already settled, by the
    /// worker's `settle` otherwise.
    fn abandon(&mut self, slot: u32) {
        match self.slots[slot as usize] {
            Slot::Awaiting { .. } => self.slots[slot as usize] = Slot::Abandoned,
            Slot::Ready(_) | Slot::Lost => self.vacate(slot),
            Slot::Vacant | Slot::Abandoned => {
                unreachable!("a slot is collected or abandoned once, by its one Pending")
            }
        }
    }
}

/// One client connection's reply slots.
pub(crate) struct Mailbox {
    slab: Mutex<Slab<Response>>,
    settled: Condvar,
}

impl fmt::Debug for Mailbox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let slab = self.lock();
        f.debug_struct("Mailbox")
            .field("slots", &slab.slots.len())
            .field("free", &slab.free.len())
            .finish()
    }
}

impl Mailbox {
    pub(crate) fn new() -> Arc<Mailbox> {
        Arc::new(Mailbox {
            slab: Mutex::new(Slab::default()),
            settled: Condvar::new(),
        })
    }

    /// A thread that panicked holding the lock was inside one of the
    /// `Slab` methods above, each of which leaves every slot in a valid
    /// state at every step; keep serving the other slots.
    fn lock(&self) -> MutexGuard<'_, Slab<Response>> {
        self.slab.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Reserves a slot and returns the worker's handle to it; the caller
    /// keeps [`ReplyTo::slot`] to collect the answer with.
    pub(crate) fn reserve(self: &Arc<Self>) -> ReplyTo {
        ReplyTo {
            slot: self.lock().reserve(),
            mailbox: Arc::clone(self),
        }
    }

    /// Blocks until `slot` is settled and returns its reply, or `None`
    /// if it was lost.
    pub(crate) fn take(&self, slot: u32) -> Option<Response> {
        let mut slab = self.lock();
        loop {
            if let Poll::Ready(outcome) = slab.poll_take(slot) {
                return outcome;
            }
            slab = self
                .settled
                .wait(slab)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Gives up on every slot in `slots`.
    pub(crate) fn abandon(&self, slots: &[u32]) {
        if slots.is_empty() {
            return;
        }
        let mut slab = self.lock();
        for &slot in slots {
            slab.abandon(slot);
        }
    }

    /// How many slots the slab has ever held at once.
    #[cfg(test)]
    pub(crate) fn high_water(&self) -> usize {
        self.lock().slots.len()
    }

    /// How many slots are reserved right now.
    #[cfg(test)]
    pub(crate) fn in_flight(&self) -> usize {
        let slab = self.lock();
        slab.slots.len() - slab.free.len()
    }
}

/// [`ReplyTo::slot`] of a handle whose slot has been settled or released.
const SPENT: u32 = u32::MAX;

/// The worker's handle to one reserved slot. Dropped without having been
/// through [`Outbox::deliver`], it settles the slot as lost.
pub(crate) struct ReplyTo {
    mailbox: Arc<Mailbox>,
    slot: u32,
}

impl ReplyTo {
    /// The slot number the client collects the answer with.
    pub(crate) fn slot(&self) -> u32 {
        self.slot
    }

    /// Returns the slot of a job that never reached a worker to the free
    /// list: nobody is going to collect it.
    pub(crate) fn release(mut self) {
        self.mailbox.lock().vacate(self.slot);
        self.slot = SPENT;
    }
}

impl Drop for ReplyTo {
    fn drop(&mut self) {
        if self.slot != SPENT && self.mailbox.lock().settle(self.slot, None) {
            self.mailbox.settled.notify_all();
        }
    }
}

/// A worker's answers to the batch it is applying, held back until the
/// whole batch has been applied. Dropped undelivered — the worker is
/// unwinding — every answer in it is lost.
pub(crate) struct Outbox {
    /// The reply is taken, and its handle spent, once settled.
    entries: Vec<(ReplyTo, Option<Response>)>,
}

impl Outbox {
    pub(crate) fn with_capacity(capacity: usize) -> Outbox {
        Outbox {
            entries: Vec::with_capacity(capacity),
        }
    }

    pub(crate) fn push(&mut self, to: ReplyTo, reply: Response) {
        self.entries.push((to, Some(reply)));
    }

    /// Settles every reply pushed since the last delivery: one lock per
    /// mailbox addressed, and at most one wake-up per mailbox, sent only
    /// if a thread is parked on a slot settled here.
    pub(crate) fn deliver(&mut self) {
        let mut rest = self.entries.as_mut_slice();
        // Each pass settles the first outstanding entry and everything
        // behind it addressed to the same mailbox. A batch rarely names
        // more than a few mailboxes, so the rescans are short runs of
        // pointer comparisons.
        while let Some(((to, reply), behind)) = rest.split_first_mut() {
            if to.slot != SPENT {
                let mut wake = false;
                {
                    let mut slab = to.mailbox.lock();
                    wake |= slab.settle(to.slot, reply.take());
                    to.slot = SPENT;
                    for (other, reply) in behind.iter_mut() {
                        if other.slot != SPENT && Arc::ptr_eq(&other.mailbox, &to.mailbox) {
                            wake |= slab.settle(other.slot, reply.take());
                            other.slot = SPENT;
                        }
                    }
                }
                if wake {
                    to.mailbox.settled.notify_all();
                }
            }
            rest = behind;
        }
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// What the model knows of one reservation. It is live until both
    /// sides are done with it.
    #[derive(Debug)]
    struct Reservation {
        slot: u32,
        tag: u64,
        /// `None` while the worker still owes the answer, then what it
        /// settled the slot with (`None` inside: lost).
        settled: Option<Option<u64>>,
        /// The client has collected or abandoned it.
        client_done: bool,
    }

    impl Reservation {
        fn live(&self) -> bool {
            !(self.client_done && self.settled.is_some())
        }
    }

    fn check_accounting(
        slab: &Slab<u64>,
        model: &[Reservation],
        max_in_flight: usize,
    ) -> Result<(), TestCaseError> {
        let live: Vec<u32> = model.iter().filter(|r| r.live()).map(|r| r.slot).collect();
        prop_assert!(
            slab.slots.len() <= max_in_flight,
            "slab outgrew the most in flight"
        );
        prop_assert_eq!(slab.free.len() + live.len(), slab.slots.len());
        let mut seen = vec![false; slab.slots.len()];
        for &slot in slab.free.iter().chain(&live) {
            prop_assert!(!seen[slot as usize], "slot {slot} is held twice");
            seen[slot as usize] = true;
        }
        for &slot in &slab.free {
            prop_assert!(matches!(slab.slots[slot as usize], Slot::Vacant));
        }
        for &slot in &live {
            prop_assert!(!matches!(slab.slots[slot as usize], Slot::Vacant));
        }
        Ok(())
    }

    /// The client collects `model[index]`: pending while the worker owes
    /// the answer, otherwise exactly what the worker settled it with.
    fn collect(slab: &mut Slab<u64>, entry: &mut Reservation) -> Result<(), TestCaseError> {
        match (slab.poll_take(entry.slot), entry.settled) {
            (Poll::Pending, None) => {}
            (Poll::Ready(outcome), Some(settled)) => {
                prop_assert_eq!(outcome, settled, "slot {} got another's reply", entry.slot);
                entry.client_done = true;
            }
            (polled, settled) => prop_assert!(false, "polled {polled:?}, model {settled:?}"),
        }
        Ok(())
    }

    fn get_miss() -> Response {
        Response::Get(Ok(None))
    }

    #[test]
    fn a_handle_dropped_unanswered_loses_its_slot_and_wakes_the_waiter() {
        let mailbox = Mailbox::new();
        let to = mailbox.reserve();
        let slot = to.slot();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| mailbox.take(slot));
            // Dropped only once the waiter is parked on the slot, so the
            // wake-up is what lets it return.
            while !matches!(
                mailbox.lock().slots[slot as usize],
                Slot::Awaiting { parked: true }
            ) {
                std::thread::yield_now();
            }
            drop(to);
            assert!(waiter.join().expect("waiter").is_none());
        });
        assert_eq!(mailbox.in_flight(), 0);
    }

    #[test]
    fn a_poisoned_lock_keeps_serving() {
        let mailbox = Mailbox::new();
        let to = mailbox.reserve();
        let slot = to.slot();
        let poisoner = mailbox.clone();
        std::thread::spawn(move || {
            let _guard = poisoner.slab.lock().expect("first to lock");
            panic!("poisoning the mailbox on purpose");
        })
        .join()
        .expect_err("the poisoner panics");
        assert!(mailbox.slab.is_poisoned());

        let mut outbox = Outbox::with_capacity(1);
        outbox.push(to, get_miss());
        outbox.deliver();
        assert!(mailbox.take(slot).is_some());
        let again = mailbox.reserve();
        assert_eq!(again.slot(), slot, "the slot is reused");
        again.release();
        assert_eq!((mailbox.in_flight(), mailbox.high_water()), (0, 1));
    }

    #[test]
    fn delivery_settles_interleaved_mailboxes_and_frees_abandoned_slots() {
        let (a, b) = (Mailbox::new(), Mailbox::new());
        let mut outbox = Outbox::with_capacity(6);
        let mut kept = Vec::new();
        for i in 0..6 {
            let mailbox = if i % 2 == 0 { &a } else { &b };
            let to = mailbox.reserve();
            if i < 2 {
                // The first slot of each mailbox is given up before the
                // answer comes.
                mailbox.abandon(&[to.slot()]);
            } else {
                kept.push((mailbox, to.slot()));
            }
            outbox.push(to, get_miss());
        }
        outbox.deliver();
        assert!(outbox.entries.is_empty());
        assert_eq!((a.in_flight(), b.in_flight()), (2, 2));
        for (mailbox, slot) in kept {
            assert!(mailbox.take(slot).is_some());
        }
        assert_eq!((a.in_flight(), b.in_flight()), (0, 0));
    }

    proptest! {
        /// Any interleaving of reserve / settle / lose / take / abandon /
        /// release keeps the slab equal to a model: every reservation
        /// resolves exactly once and with its own reply, the slab never
        /// outgrows the most requests ever in flight, and free list plus
        /// live slots always account for every slot.
        #[test]
        fn slab_matches_its_model_under_any_interleaving(
            ops in proptest::collection::vec((0u8..6, 0usize..64), 1..400)
        ) {
            let mut slab: Slab<u64> = Slab::default();
            let mut model: Vec<Reservation> = Vec::new();
            let mut max_in_flight = 0;
            for (tag, (op, pick)) in ops.into_iter().enumerate() {
                // The `pick`-th reservation that `wanted` holds for.
                let nth = |model: &[Reservation], wanted: fn(&Reservation) -> bool| {
                    let eligible: Vec<usize> =
                        (0..model.len()).filter(|&i| wanted(&model[i])).collect();
                    (!eligible.is_empty()).then(|| eligible[pick % eligible.len()])
                };
                match op {
                    0 => {
                        let slot = slab.reserve();
                        prop_assert!(
                            model.iter().all(|r| !r.live() || r.slot != slot),
                            "slot {slot} reserved while live"
                        );
                        model.push(Reservation {
                            slot,
                            tag: tag as u64,
                            settled: None,
                            client_done: false,
                        });
                        let in_flight = model.iter().filter(|r| r.live()).count();
                        max_in_flight = max_in_flight.max(in_flight);
                    }
                    1 | 2 => {
                        if let Some(i) = nth(&model, |r| r.settled.is_none()) {
                            let outcome = (op == 1).then_some(model[i].tag);
                            let parked = slab.settle(model[i].slot, outcome);
                            prop_assert!(!parked || !model[i].client_done);
                            model[i].settled = Some(outcome);
                        }
                    }
                    3 => {
                        if let Some(i) = nth(&model, |r| !r.client_done) {
                            collect(&mut slab, &mut model[i])?;
                        }
                    }
                    4 => {
                        if let Some(i) = nth(&model, |r| !r.client_done) {
                            slab.abandon(model[i].slot);
                            model[i].client_done = true;
                        }
                    }
                    _ => {
                        // A refused enqueue: neither side ever saw it.
                        if let Some(i) = nth(&model, |r| !r.client_done && r.settled.is_none()) {
                            slab.vacate(model[i].slot);
                            model[i].client_done = true;
                            model[i].settled = Some(None);
                        }
                    }
                }
                check_accounting(&slab, &model, max_in_flight)?;
            }
            // Wind down: the worker answers what it owes, the client
            // collects what it holds, and the whole slab is free again.
            for entry in &mut model {
                if entry.settled.is_none() {
                    slab.settle(entry.slot, Some(entry.tag));
                    entry.settled = Some(Some(entry.tag));
                }
                if !entry.client_done {
                    collect(&mut slab, entry)?;
                    prop_assert!(entry.client_done);
                }
            }
            check_accounting(&slab, &model, max_in_flight)?;
            prop_assert_eq!(slab.free.len(), slab.slots.len());
        }
    }
}
