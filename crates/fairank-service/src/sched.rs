//! Per-key fair queueing.
//!
//! [`FairQueue`] is the scheduling core of the [`WorkerPool`]: items are
//! held in one FIFO *per key* (the session), and consumers drain the keys
//! round-robin — one item from the next key with pending work, then that
//! key rotates to the back. A session that enqueues a 64-cell grid no
//! longer makes every other session wait behind all 64 cells;
//! interleaved sessions observe latency proportional to *their own*
//! backlog plus one item per busy peer.
//!
//! Items are either plain or **metered** (compute work), and consumers
//! either may run metered items or may not ([`FairQueue::pop_for`]). A
//! consumer that may not skips a key whose head item is metered (the key
//! keeps its place in the rotation), so plain items of other keys are
//! never queued behind compute waiting for a consumer that may run it. A
//! consumer that may looks for a metered head first, so compute does not
//! wait while such consumers serve plain items.
//!
//! Two caps bound memory and queueing delay at admission:
//!
//! * a **global cap** on items across all keys (a memory bound), and
//! * a **per-key cap** (`serve --session-queue-cap`) so one key cannot
//!   consume the whole global budget before round-robin even matters.
//!
//! The compute budget (`serve --queue-depth`) counts queued *and* running
//! compute, so it lives in the [`WorkerPool`], which sees both.
//!
//! Producers never block: [`FairQueue::try_push`] and
//! [`FairQueue::try_push_metered`] get a refused item back with a reason, which the dispatch layer turns into a
//! structured `overloaded` reply. Follow-up work of an already admitted
//! request ([`FairQueue::push_metered_uncapped`]) is never refused.
//!
//! [`WorkerPool`]: crate::pool::WorkerPool

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};

/// Why a non-blocking push refused an item (the item rides back).
#[derive(Debug)]
pub enum TryPushError<T> {
    /// The global cap or the key's cap is exhausted.
    Full(T),
    /// The queue was closed; no consumer will ever take the item.
    Closed(T),
}

/// The queue was closed: [`FairQueue::push_metered_uncapped`] refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed;

#[derive(Debug)]
struct State<T> {
    /// Pending items with their metered flag, one FIFO per key.
    /// Invariant: a key is present here iff its deque is non-empty, and
    /// iff it appears exactly once in `order`.
    queues: HashMap<String, VecDeque<(T, bool)>>,
    /// Round-robin rotation of keys with pending work.
    order: VecDeque<String>,
    /// Total pending items across all keys.
    len: usize,
    /// Pending metered items.
    metered: usize,
    /// Consumers that may not run metered items, waiting in
    /// [`FairQueue::pop_for`].
    idle_plain: usize,
    closed: bool,
}

/// A bounded multi-key queue drained fairly (round-robin over keys).
#[derive(Debug)]
pub struct FairQueue<T> {
    state: Mutex<State<T>>,
    /// Signals consumers that may run metered items: an item arrived or
    /// the queue closed.
    ready: Condvar,
    /// Signals consumers that may not: a plain item arrived or the queue
    /// closed.
    plain_ready: Condvar,
    global_cap: usize,
    per_key_cap: usize,
}

impl<T> FairQueue<T> {
    /// A queue holding at most `global_cap` items total and `per_key_cap`
    /// items per key (either 0 = unbounded on that axis).
    pub fn new(global_cap: usize, per_key_cap: usize) -> Self {
        FairQueue {
            state: Mutex::new(State {
                queues: HashMap::new(),
                order: VecDeque::new(),
                len: 0,
                metered: 0,
                idle_plain: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            plain_ready: Condvar::new(),
            global_cap,
            per_key_cap,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        // Consumers run items *outside* the lock, so a panicking item
        // cannot poison queue state; recover the guard regardless.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn has_space(&self, state: &State<T>, key: &str) -> bool {
        if self.global_cap != 0 && state.len >= self.global_cap {
            return false;
        }
        if self.per_key_cap != 0 {
            if let Some(queue) = state.queues.get(key) {
                if queue.len() >= self.per_key_cap {
                    return false;
                }
            }
        }
        true
    }

    fn enqueue(&self, state: &mut State<T>, key: &str, item: T, metered: bool) {
        match state.queues.get_mut(key) {
            Some(queue) => queue.push_back((item, metered)),
            None => {
                state
                    .queues
                    .insert(key.to_string(), VecDeque::from([(item, metered)]));
                state.order.push_back(key.to_string());
            }
        }
        state.len += 1;
        state.metered += usize::from(metered);
        // Wake a consumer that can take the item, a plain-only one first
        // for a plain item.
        if !metered && state.idle_plain > 0 {
            self.plain_ready.notify_one();
        } else {
            self.ready.notify_one();
        }
    }

    /// Enqueues under `key`, or refuses (with the item back) when at
    /// capacity or closed.
    pub fn try_push(&self, key: &str, item: T) -> Result<(), TryPushError<T>> {
        self.try_enqueue(key, item, false)
    }

    /// [`FairQueue::try_push`] for a metered item.
    pub fn try_push_metered(&self, key: &str, item: T) -> Result<(), TryPushError<T>> {
        self.try_enqueue(key, item, true)
    }

    fn try_enqueue(&self, key: &str, item: T, metered: bool) -> Result<(), TryPushError<T>> {
        let mut state = self.lock();
        if state.closed {
            return Err(TryPushError::Closed(item));
        }
        if !self.has_space(&state, key) {
            return Err(TryPushError::Full(item));
        }
        self.enqueue(&mut state, key, item, metered);
        Ok(())
    }

    /// Enqueues a metered item past every cap, failing only once closed:
    /// for follow-up work of a request that was already admitted (a
    /// scenario plan's cells), which must be neither refused nor blocked.
    pub fn push_metered_uncapped(&self, key: &str, item: T) -> Result<(), Closed> {
        let mut state = self.lock();
        if state.closed {
            return Err(Closed);
        }
        self.enqueue(&mut state, key, item, true);
        Ok(())
    }

    /// [`FairQueue::pop_for`] a consumer that may run every item.
    pub fn pop(&self) -> Option<T> {
        self.pop_for(true)
    }

    /// Takes the next item, round-robin over keys: one item from the
    /// first key in the rotation whose head item this consumer takes,
    /// which then moves to the back (or leaves the rotation once empty).
    /// A consumer that may run metered items takes the first metered head
    /// if there is one, else the first head; one that may not takes the
    /// first plain head. Blocks while nothing can be taken; returns `None`
    /// only when the queue is closed *and* drained, so close is graceful —
    /// already-accepted items still run.
    pub fn pop_for(&self, may_run_metered: bool) -> Option<T> {
        let mut state = self.lock();
        loop {
            let State {
                queues,
                order,
                metered,
                ..
            } = &mut *state;
            let head_metered = |key: &String| {
                let (_, metered) = queues[key]
                    .front()
                    .expect("order invariant: queue non-empty");
                *metered
            };
            let next = if *metered == 0 {
                // Nothing metered pending: plain round-robin, no scan.
                (!order.is_empty()).then_some(0)
            } else if may_run_metered {
                order
                    .iter()
                    .position(head_metered)
                    .or((!order.is_empty()).then_some(0))
            } else {
                order.iter().position(|key| !head_metered(key))
            };
            if let Some(position) = next {
                let key = order.remove(position).expect("position is in range");
                let queue = queues
                    .get_mut(&key)
                    .expect("order invariant: listed key has a queue");
                let (item, metered) = queue.pop_front().expect("order invariant: queue non-empty");
                if queue.is_empty() {
                    queues.remove(&key);
                } else {
                    order.push_back(key);
                }
                state.len -= 1;
                state.metered -= usize::from(metered);
                if state.closed && state.len == 0 {
                    // Plain-only consumers that went back to waiting after
                    // close, on metered items, may exit now.
                    self.plain_ready.notify_all();
                }
                return Some(item);
            }
            if state.closed && state.len == 0 {
                return None;
            }
            state = if may_run_metered {
                self.ready
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
            } else {
                state.idle_plain += 1;
                let mut state = self
                    .plain_ready
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                state.idle_plain -= 1;
                state
            };
        }
    }

    /// Closes the queue: producers fail fast, consumers drain what was
    /// accepted and then see `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
        self.plain_ready.notify_all();
    }

    /// Total pending items.
    pub fn len(&self) -> usize {
        self.lock().len
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn drains_round_robin_across_keys() {
        let queue: FairQueue<i32> = FairQueue::new(0, 0);
        for i in 0..3 {
            queue.try_push("a", i).unwrap();
        }
        for i in 10..12 {
            queue.try_push("b", i).unwrap();
        }
        queue.try_push("c", 20).unwrap();
        // Arrival order a,a,a,b,b,c; fair order interleaves keys in
        // first-seen rotation: a,b,c,a,b,a.
        let drained: Vec<i32> = (0..6).map(|_| queue.pop().unwrap()).collect();
        assert_eq!(drained, vec![0, 10, 20, 1, 11, 2]);
    }

    #[test]
    fn fifo_within_one_key() {
        let queue: FairQueue<i32> = FairQueue::new(0, 0);
        for i in 0..5 {
            queue.try_push("only", i).unwrap();
        }
        let drained: Vec<i32> = (0..5).map(|_| queue.pop().unwrap()).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn per_key_cap_refuses_only_the_greedy_key() {
        let queue: FairQueue<i32> = FairQueue::new(0, 2);
        queue.try_push("greedy", 1).unwrap();
        queue.try_push("greedy", 2).unwrap();
        assert!(matches!(
            queue.try_push("greedy", 3),
            Err(TryPushError::Full(3))
        ));
        // Other keys still have room.
        queue.try_push("modest", 9).unwrap();
        // Draining one greedy item reopens that key.
        assert_eq!(queue.pop(), Some(1));
        queue.try_push("greedy", 3).unwrap();
        assert_eq!(queue.len(), 3);
    }

    #[test]
    fn global_cap_bounds_the_total() {
        let queue: FairQueue<i32> = FairQueue::new(2, 0);
        queue.try_push("a", 1).unwrap();
        queue.try_push("b", 2).unwrap();
        assert!(matches!(queue.try_push("c", 3), Err(TryPushError::Full(3))));
        assert_eq!(queue.pop(), Some(1));
        queue.try_push("c", 3).unwrap();
    }

    #[test]
    fn pop_waits_for_items() {
        let queue: Arc<FairQueue<i32>> = Arc::new(FairQueue::new(1, 0));
        // A blocked consumer wakes when an item arrives.
        let consumer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.pop())
        };
        std::thread::sleep(Duration::from_millis(20));
        queue.try_push("k", 3).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(3));
    }

    #[test]
    fn close_drains_accepted_items_then_stops() {
        let queue: Arc<FairQueue<i32>> = Arc::new(FairQueue::new(0, 0));
        queue.try_push("a", 1).unwrap();
        queue.try_push("b", 2).unwrap();
        queue.close();
        // Producers fail fast after close...
        assert!(matches!(
            queue.try_push("a", 9),
            Err(TryPushError::Closed(9))
        ));
        assert_eq!(queue.push_metered_uncapped("a", 9), Err(Closed));
        // ...consumers still drain what was accepted, then see None.
        assert_eq!(queue.pop(), Some(1));
        assert_eq!(queue.pop(), Some(2));
        assert_eq!(queue.pop(), None);
        // And a consumer blocked at close time unblocks with None.
        let blocked = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.pop())
        };
        assert_eq!(blocked.join().unwrap(), None);
    }

    #[test]
    fn plain_consumers_skip_metered_heads_and_metering_consumers_prefer_them() {
        let queue: FairQueue<i32> = FairQueue::new(0, 0);
        queue.try_push_metered("a", 1).unwrap();
        queue.try_push_metered("a", 2).unwrap();
        queue.try_push("b", 10).unwrap();
        queue.try_push("b", 11).unwrap();
        // A plain-only consumer skips key "a", whose head is metered.
        assert_eq!(queue.pop_for(false), Some(10));
        // A metering consumer takes metered heads first, round-robin...
        assert_eq!(queue.pop_for(true), Some(1));
        assert_eq!(queue.pop_for(true), Some(2));
        // ...and plain heads once none is left.
        assert_eq!(queue.pop_for(true), Some(11));
    }

    #[test]
    fn close_wakes_plain_consumers_parked_behind_metered_items() {
        // Regression: after close, plain-only consumers that found only
        // metered items went back to waiting, and nothing woke them once
        // those items drained — dropping the pool hung on the join.
        let queue: Arc<FairQueue<i32>> = Arc::new(FairQueue::new(0, 0));
        queue.try_push_metered("k", 1).unwrap();
        let (taken_tx, taken_rx) = std::sync::mpsc::channel();
        for _ in 0..2 {
            let (queue, taken_tx) = (Arc::clone(&queue), taken_tx.clone());
            std::thread::spawn(move || taken_tx.send(queue.pop_for(false)));
        }
        std::thread::sleep(Duration::from_millis(20));
        queue.close();
        std::thread::sleep(Duration::from_millis(20));
        // A metering consumer drains the last item; both parked plain
        // consumers must then see the drained queue and exit.
        assert_eq!(queue.pop_for(true), Some(1));
        for _ in 0..2 {
            let taken = taken_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("a consumer stayed parked on a closed, drained queue");
            assert_eq!(taken, None);
        }
    }
}
