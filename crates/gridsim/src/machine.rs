//! Machine pool with dynamic membership.
//!
//! Machine ids are dense, monotone and never recycled, so the pool is a
//! **slab**: a flat vector indexed directly by id (`O(1)` access on the
//! event hot path, no tree walks), plus a sorted vector of alive ids
//! for deterministic id-order iteration and snapshots. Joins are O(1);
//! departures are O(alive) for the id-list splice — churn events are
//! orders of magnitude rarer than job events, so the hot loop never
//! pays for it.

use std::collections::VecDeque;

use crate::event::EventToken;
use crate::workload::MachineSpec;

/// The job a machine is currently executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunningJob {
    /// Job identifier.
    pub job: u64,
    /// When the current attempt's scheduled event fires, in ticks: the
    /// planned completion, or an earlier transient-failure instant if
    /// the fault layer drew one inside the attempt.
    pub finish: i64,
    /// Planned completion time absent failure, in ticks. Ready-time
    /// snapshots use this so schedulers plan against intended work, and
    /// checkpoint salvage measures attempt progress against it. Equal
    /// to `finish` when the attempt will not fail.
    pub planned: i64,
    /// Token of the scheduled `JobFinish`/`JobFail` event, so a
    /// departure or crash can cancel it instead of leaving a stale
    /// event for the handler to re-validate.
    pub finish_event: EventToken,
}

/// Execution state of one grid machine.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Static characteristics.
    pub spec: MachineSpec,
    /// Job ids queued on this machine, executed front-to-back (the
    /// dispatcher enqueues each batch in SPT order). A deque: starts
    /// pop the front in O(1) whatever the backlog depth.
    pub queue: VecDeque<u64>,
    /// The running job, if any.
    pub running: Option<RunningJob>,
    /// Sum of busy time accumulated so far (for utilisation).
    pub busy_time: f64,
    /// Time the machine joined the grid.
    pub joined_at: f64,
    /// Crash/repair draws taken so far: indexes the machine's dedicated
    /// reliability stream so every MTBF/MTTR gap is a fresh draw.
    pub crash_seq: u32,
    /// Token of the machine's armed `MachineCrash` event, if the
    /// failure model schedules crashes; cancelled on departure and at
    /// drain quiescence.
    pub next_crash: Option<EventToken>,
    /// Consecutive failed attempts on this machine (crashes and
    /// transient failures); a success resets it. Feeds the blacklist.
    pub consecutive_failures: u32,
    /// The machine is quarantined from new assignments until this tick
    /// (blacklist probation); zero means never blacklisted.
    pub blacklisted_until: i64,
    /// Memoized [`ready_time`](Self::ready_time): the exact left-fold
    /// value of the last recompute, extended in place by
    /// [`enqueue`](Self::enqueue) and dropped by
    /// [`invalidate_ready`](Self::invalidate_ready) on any structural
    /// change left of the queue tail (start/finish/fail/crash). Only
    /// populated while a job is running — an idle machine's ready time
    /// is the activation's `now`, which changes between queries.
    ready_cache: Option<f64>,
}

impl Machine {
    /// Creates an idle machine.
    #[must_use]
    pub fn new(spec: MachineSpec, now: f64) -> Self {
        Self {
            spec,
            queue: VecDeque::new(),
            running: None,
            busy_time: 0.0,
            joined_at: now,
            crash_seq: 0,
            next_crash: None,
            consecutive_failures: 0,
            blacklisted_until: 0,
            ready_cache: None,
        }
    }

    /// When the machine will have finished everything currently committed
    /// to it (running job + queue), given a closure mapping job id to its
    /// ETC on this machine. This is the machine's **ready time** for the
    /// next scheduler activation (paper §2). `finish_time` converts the
    /// running job's tick finish to seconds (the simulation clock's
    /// conversion, so snapshots agree with the event times).
    ///
    /// Memoized: the full queue fold runs only when the cache is cold
    /// (the machine's commitments changed since the last activation);
    /// an untouched machine answers in O(1) instead of rescanning its
    /// whole backlog every activation. The cached value is the *exact*
    /// fold — [`enqueue`](Self::enqueue) extends it bit-identically and
    /// every structural change invalidates it — so snapshots are
    /// bit-identical with and without the cache (debug builds assert
    /// coherence against [`ready_time_recomputed`](Self::ready_time_recomputed)
    /// at every chaos-harness invariant check).
    #[must_use]
    pub fn ready_time(&mut self, now: f64, etc_of: impl Fn(u64) -> f64) -> f64 {
        if let Some(cached) = self.ready_cache {
            debug_assert_eq!(
                cached.to_bits(),
                self.ready_time_recomputed(now, &etc_of).to_bits(),
                "stale ready-time cache on machine {}",
                self.spec.id
            );
            return cached;
        }
        let ready = self.ready_time_recomputed(now, etc_of);
        if self.running.is_some() {
            // Only a busy machine's ready time is a function of its own
            // state alone (planned completion + queue); an idle one
            // starts the fold at the caller's `now`.
            self.ready_cache = Some(ready);
        }
        ready
    }

    /// The uncached ready-time fold: the reference the memo in
    /// [`ready_time`](Self::ready_time) is pinned against.
    #[must_use]
    pub fn ready_time_recomputed(&self, now: f64, etc_of: impl Fn(u64) -> f64) -> f64 {
        let mut ready = match self.running {
            // Plan against the intended completion: an attempt that
            // will fail early still owes the machine the planned work
            // (the retry lands somewhere, usually here).
            Some(running) => crate::sim::ticks_to_time(running.planned),
            None => now,
        };
        for &job in &self.queue {
            ready += etc_of(job);
        }
        ready
    }

    /// Appends a job to the machine's queue, extending the memoized
    /// ready time by the job's ETC — the exact operation the full fold
    /// would perform on its last element, so the cache stays
    /// bit-identical to a recompute.
    pub fn enqueue(&mut self, job: u64, etc: f64) {
        self.queue.push_back(job);
        if let Some(cached) = &mut self.ready_cache {
            *cached += etc;
        }
    }

    /// Drops the memoized ready time. Must be called whenever the
    /// running job or the queue changes anywhere left of the tail
    /// (job start, finish, transient failure, crash, recovery,
    /// resubmission) — appends go through [`enqueue`](Self::enqueue)
    /// instead.
    pub fn invalidate_ready(&mut self) {
        self.ready_cache = None;
    }

    /// The memoized ready time, if valid — exposed for the
    /// chaos-harness coherence check.
    #[must_use]
    pub fn ready_cache(&self) -> Option<f64> {
        self.ready_cache
    }

    /// Whether the machine has nothing to do.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.running.is_none() && self.queue.is_empty()
    }
}

/// The set of alive machines: a slab indexed by id, with a sorted
/// alive-id list for deterministic iteration. Crashed machines move to
/// a disjoint sorted `down` list — quarantined but not departed: their
/// slot (identity, accumulated busy time, reliability stream cursor)
/// survives until [`recover`](Self::recover) re-admits them.
#[derive(Debug, Default)]
pub struct MachinePool {
    /// Slot per ever-issued id; `None` for departed or reserved ids.
    /// Crashed machines keep their slot.
    slots: Vec<Option<Machine>>,
    /// Alive (schedulable) ids, ascending.
    alive: Vec<u64>,
    /// Crashed (quarantined, under repair) ids, ascending.
    down: Vec<u64>,
}

impl MachinePool {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty pool with room for `machines` machines before
    /// its slot and alive lists first grow.
    #[must_use]
    pub(crate) fn with_capacity(machines: usize) -> Self {
        Self {
            slots: Vec::with_capacity(machines),
            alive: Vec::with_capacity(machines),
            down: Vec::new(),
        }
    }

    /// Reserves the next machine id without bringing the machine up.
    /// Used to stamp `MachineJoin` events with their real identity at
    /// schedule time; the reservation is filled by
    /// [`join_reserved`](Self::join_reserved) when the event fires.
    pub fn reserve_id(&mut self) -> u64 {
        let id = self.slots.len() as u64;
        self.slots.push(None);
        id
    }

    /// Adds a machine with the given spec characteristics, returning its
    /// id.
    pub fn join(&mut self, slowness: f64, now: f64) -> u64 {
        let id = self.reserve_id();
        self.join_reserved(id, slowness, now);
        id
    }

    /// Brings up a machine on an id previously returned by
    /// [`reserve_id`](Self::reserve_id).
    ///
    /// # Panics
    ///
    /// Panics if the id was never reserved or is already alive.
    pub fn join_reserved(&mut self, id: u64, slowness: f64, now: f64) {
        let slot = self
            .slots
            .get_mut(id as usize)
            .expect("join of an unreserved machine id");
        assert!(slot.is_none(), "machine {id} is already alive");
        *slot = Some(Machine::new(MachineSpec { id, slowness }, now));
        // Ids are issued in increasing order and a reserved id joins
        // before the next reservation is made, so pushing keeps the
        // alive list sorted.
        debug_assert!(self.alive.last().is_none_or(|&last| last < id));
        self.alive.push(id);
    }

    /// Removes a machine, returning it (with any queued/running work) if
    /// it was alive.
    pub fn leave(&mut self, id: u64) -> Option<Machine> {
        let machine = self.slots.get_mut(id as usize)?.take()?;
        let pos = self
            .alive
            .binary_search(&id)
            .expect("alive list out of sync");
        self.alive.remove(pos);
        Some(machine)
    }

    /// Immutable access to a machine.
    #[inline]
    #[must_use]
    pub fn get(&self, id: u64) -> Option<&Machine> {
        self.slots.get(id as usize)?.as_ref()
    }

    /// Mutable access to a machine.
    #[inline]
    pub fn get_mut(&mut self, id: u64) -> Option<&mut Machine> {
        self.slots.get_mut(id as usize)?.as_mut()
    }

    /// Alive machines in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Machine> {
        self.alive
            .iter()
            .map(|&id| self.slots[id as usize].as_ref().expect("alive machine"))
    }

    /// Number of alive machines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.alive.len()
    }

    /// Whether no machines are alive.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.alive.is_empty()
    }

    /// Ids of alive machines, ascending — a borrow, so the hot path
    /// copies it into reusable scratch instead of allocating.
    #[must_use]
    pub fn ids(&self) -> &[u64] {
        &self.alive
    }

    /// Quarantines a crashed machine: removed from the alive list (so
    /// schedulers and departures no longer see it) but its slot
    /// survives. Returns the work it was holding — the queued job ids
    /// and the running job, both stripped from the machine — or `None`
    /// if the id is not alive.
    pub fn crash(&mut self, id: u64) -> Option<(VecDeque<u64>, Option<RunningJob>)> {
        let pos = self.alive.binary_search(&id).ok()?;
        self.alive.remove(pos);
        let down_pos = self
            .down
            .binary_search(&id)
            .expect_err("machine both alive and down");
        self.down.insert(down_pos, id);
        let machine = self.slots[id as usize]
            .as_mut()
            .expect("crashed machine has a slot");
        machine.invalidate_ready();
        Some((std::mem::take(&mut machine.queue), machine.running.take()))
    }

    /// Re-admits a repaired machine to the alive list under its
    /// original identity.
    ///
    /// # Panics
    ///
    /// Panics if the machine is not currently down.
    pub fn recover(&mut self, id: u64) {
        let pos = self
            .down
            .binary_search(&id)
            .expect("recover of an up machine");
        self.down.remove(pos);
        let alive_pos = self
            .alive
            .binary_search(&id)
            .expect_err("machine both alive and down");
        self.alive.insert(alive_pos, id);
    }

    /// Whether the machine is crashed and under repair.
    #[must_use]
    pub fn is_down(&self, id: u64) -> bool {
        self.down.binary_search(&id).is_ok()
    }

    /// Ids of crashed machines, ascending.
    #[must_use]
    pub fn down_ids(&self) -> &[u64] {
        &self.down
    }

    /// Structural invariants of the pool, checked allocation-free (the
    /// chaos harness runs this every scheduler activation inside the
    /// hot loop's allocation budget): both id lists strictly ascending,
    /// disjoint, every listed id backed by a populated slot, and no
    /// down machine holding work (a crash strips its queue and running
    /// job).
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    pub fn check_consistency(&self) {
        for list in [&self.alive, &self.down] {
            for pair in list.windows(2) {
                assert!(pair[0] < pair[1], "machine id list out of order");
            }
            for &id in list {
                assert!(
                    self.slots.get(id as usize).is_some_and(Option::is_some),
                    "listed machine {id} has no slot"
                );
            }
        }
        // Disjointness by a two-pointer walk over the sorted lists.
        let (mut a, mut d) = (0, 0);
        while a < self.alive.len() && d < self.down.len() {
            match self.alive[a].cmp(&self.down[d]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => d += 1,
                std::cmp::Ordering::Equal => {
                    panic!("machine {} both alive and down", self.alive[a])
                }
            }
        }
        for &id in &self.down {
            let machine = self.slots[id as usize].as_ref().expect("checked above");
            assert!(machine.is_idle(), "down machine {id} still holds work");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_assigns_increasing_ids() {
        let mut pool = MachinePool::new();
        let a = pool.join(2.0, 0.0);
        let b = pool.join(3.0, 1.0);
        assert_eq!((a, b), (0, 1));
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.ids(), &[0, 1]);
    }

    #[test]
    fn leave_returns_machine_with_work() {
        let mut pool = MachinePool::new();
        let id = pool.join(1.0, 0.0);
        pool.get_mut(id).unwrap().queue.push_back(42);
        let gone = pool.leave(id).unwrap();
        assert_eq!(gone.queue, vec![42]);
        assert!(pool.is_empty());
        assert!(pool.leave(id).is_none());
    }

    #[test]
    fn ready_time_accounts_running_and_queue() {
        let mut machine = Machine::new(
            MachineSpec {
                id: 0,
                slowness: 1.0,
            },
            0.0,
        );
        // Idle: ready now.
        assert_eq!(machine.ready_time(5.0, |_| 1.0), 5.0);
        // Running until t=10 plus two queued jobs of ETC 3 each.
        machine.running = Some(RunningJob {
            job: 1,
            finish: crate::sim::time_to_ticks(10.0),
            planned: crate::sim::time_to_ticks(10.0),
            finish_event: 0,
        });
        machine.queue = VecDeque::from([2, 3]);
        assert_eq!(machine.ready_time(5.0, |_| 3.0), 16.0);
    }

    #[test]
    fn ready_time_uses_the_planned_completion_under_failure() {
        // An attempt that will fail at t=4 still owes the machine its
        // planned work until t=10: snapshots plan against intent.
        let mut machine = Machine::new(
            MachineSpec {
                id: 0,
                slowness: 1.0,
            },
            0.0,
        );
        machine.running = Some(RunningJob {
            job: 1,
            finish: crate::sim::time_to_ticks(4.0),
            planned: crate::sim::time_to_ticks(10.0),
            finish_event: 0,
        });
        assert_eq!(machine.ready_time(0.0, |_| 0.0), 10.0);
    }

    #[test]
    fn ready_cache_extends_and_invalidates_bit_identically() {
        let mut machine = Machine::new(
            MachineSpec {
                id: 3,
                slowness: 2.0,
            },
            0.0,
        );
        let etc_of = |job: u64| 0.1 * (job as f64 + 1.0);
        // Idle machines never cache: the fold starts at `now`.
        assert_eq!(machine.ready_time(5.0, etc_of), 5.0);
        assert!(machine.ready_cache().is_none());
        machine.running = Some(RunningJob {
            job: 0,
            finish: crate::sim::time_to_ticks(7.0),
            planned: crate::sim::time_to_ticks(7.0),
            finish_event: 0,
        });
        // First busy query populates the memo.
        let first = machine.ready_time(0.0, etc_of);
        assert_eq!(machine.ready_cache(), Some(first));
        // Appends extend the memo exactly as a recompute would fold.
        for job in 1..=9 {
            machine.enqueue(job, etc_of(job));
            assert_eq!(
                machine.ready_cache().unwrap().to_bits(),
                machine.ready_time_recomputed(0.0, etc_of).to_bits(),
                "cache must stay the exact left-fold after enqueue {job}"
            );
        }
        // Structural change: drop and re-derive.
        machine.queue.pop_front();
        machine.invalidate_ready();
        assert!(machine.ready_cache().is_none());
        let again = machine.ready_time(0.0, etc_of);
        assert_eq!(
            again.to_bits(),
            machine.ready_time_recomputed(0.0, etc_of).to_bits()
        );
    }

    #[test]
    fn crash_invalidates_ready_cache() {
        let mut pool = MachinePool::new();
        let a = pool.join(1.0, 0.0);
        pool.join(1.0, 0.0);
        let machine = pool.get_mut(a).unwrap();
        machine.running = Some(RunningJob {
            job: 1,
            finish: crate::sim::time_to_ticks(4.0),
            planned: crate::sim::time_to_ticks(4.0),
            finish_event: 0,
        });
        let _ = machine.ready_time(0.0, |_| 1.0);
        assert!(pool.get(a).unwrap().ready_cache().is_some());
        pool.crash(a);
        assert!(pool.get(a).unwrap().ready_cache().is_none());
    }

    #[test]
    fn ids_do_not_recycle() {
        let mut pool = MachinePool::new();
        let a = pool.join(1.0, 0.0);
        pool.leave(a);
        let b = pool.join(1.0, 1.0);
        assert_ne!(a, b, "machine ids must stay unique across churn");
    }

    #[test]
    fn crash_quarantines_without_departing() {
        let mut pool = MachinePool::new();
        let a = pool.join(1.0, 0.0);
        let b = pool.join(2.0, 0.0);
        pool.get_mut(a).unwrap().queue.push_back(5);
        pool.get_mut(a).unwrap().busy_time = 7.5;
        let (orphans, running) = pool.crash(a).unwrap();
        assert_eq!(orphans, vec![5]);
        assert!(running.is_none());
        assert_eq!(pool.ids(), &[b], "crashed machine leaves the alive list");
        assert_eq!(pool.down_ids(), &[a]);
        assert!(pool.is_down(a));
        assert!(pool.crash(a).is_none(), "a down machine cannot re-crash");
        pool.check_consistency();
        pool.recover(a);
        assert_eq!(pool.ids(), &[a, b], "recovery restores id order");
        assert!(pool.down_ids().is_empty());
        // Identity survives the crash: accumulated state is intact.
        assert_eq!(pool.get(a).unwrap().busy_time, 7.5);
        pool.check_consistency();
    }

    #[test]
    #[should_panic(expected = "still holds work")]
    fn consistency_rejects_a_down_machine_with_work() {
        let mut pool = MachinePool::new();
        let a = pool.join(1.0, 0.0);
        pool.join(2.0, 0.0);
        pool.crash(a);
        pool.get_mut(a).unwrap().queue.push_back(9);
        pool.check_consistency();
    }

    #[test]
    fn reserved_ids_join_later() {
        let mut pool = MachinePool::new();
        pool.join(1.0, 0.0);
        let reserved = pool.reserve_id();
        assert_eq!(reserved, 1);
        assert_eq!(pool.len(), 1, "a reservation is not alive yet");
        assert!(pool.get(reserved).is_none());
        pool.join_reserved(reserved, 4.0, 2.0);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.get(reserved).unwrap().spec.slowness, 4.0);
        assert_eq!(pool.ids(), &[0, 1]);
    }
}
