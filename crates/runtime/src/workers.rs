//! The one persistent worker driver: work-stealing threads over a
//! runtime's shards (see [`Runtime::with_workers`](crate::Runtime::with_workers)).
//!
//! Each worker parks on its own mailbox between batches and owns a
//! deque holding a contiguous region of shard indices. A batch command
//! refills every deque; each worker drains its own deque from the front
//! and, when that runs dry, steals shards from the backs of the other
//! workers' deques. Uneven shards therefore balance automatically, and
//! a machine with fewer cores than shards is not oversubscribed.
//!
//! Every shard sits behind its own mutex and is claimed by exactly one
//! worker per batch, and shards never share session state, so results
//! are bit-identical to stepping the shards in order on one thread,
//! whichever worker ends up running which shard.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use stategen_core::MessageId;

use crate::runtime::Shard;

/// What the workers should do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    /// Park until the first real command arrives.
    Park,
    /// Deliver a message to every session in the shard.
    Deliver(MessageId),
    /// Return every session in the shard to the start state.
    Reset,
    /// Count the shard's live finished sessions. Asked for on demand,
    /// not after every batch, so the finished sets stay lazy: a batch
    /// never pays the rebuild a count costs.
    CountFinished,
    /// Count the transitions the shard has taken.
    CountSteps,
    /// Exit the worker loop.
    Shutdown,
}

impl Command {
    /// Runs the command against one shard; returns the shard's share of
    /// the command's total (transitions, finished sessions or steps).
    fn apply(self, shard: &mut Shard) -> u64 {
        match self {
            Command::Deliver(message) => shard.deliver_all(message),
            Command::Reset => {
                shard.reset_all();
                0
            }
            Command::CountFinished => shard.finished_count() as u64,
            Command::CountSteps => shard.steps(),
            Command::Park | Command::Shutdown => 0,
        }
    }
}

/// Per-worker mailbox: the driver publishes commands under the mutex
/// and the worker publishes completions, both signalling the condvar.
#[derive(Debug)]
struct Mailbox {
    /// Sequence number of the latest published command; the worker runs
    /// whenever it exceeds the last sequence it completed.
    seq: u64,
    command: Command,
    /// Last sequence the worker finished executing.
    done: u64,
    /// Set when the worker dies abnormally (a shard panicked), so the
    /// driver fails fast instead of waiting forever.
    dead: bool,
    /// The worker's total over the shards it ran for its last command,
    /// so the driver can aggregate without touching the shards.
    total: u64,
}

#[derive(Debug)]
struct WorkerCell {
    mailbox: Mutex<Mailbox>,
    signal: Condvar,
}

impl WorkerCell {
    fn new() -> Self {
        WorkerCell {
            mailbox: Mutex::new(Mailbox {
                seq: 0,
                command: Command::Park,
                done: 0,
                dead: false,
                total: 0,
            }),
            signal: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Mailbox> {
        self.mailbox.lock().expect("worker mailbox poisoned")
    }

    /// Publishes `command` under sequence number `seq` and wakes the
    /// worker. Tolerates a poisoned mailbox, so shutdown still reaches
    /// the surviving workers while a panic unwinds.
    fn publish(&self, command: Command, seq: u64) {
        if let Ok(mut mailbox) = self.mailbox.lock() {
            mailbox.command = command;
            mailbox.seq = seq;
        }
        self.signal.notify_all();
    }
}

/// Marks the worker's mailbox dead if the worker unwinds (a shard
/// panicked mid-command), waking the driver so it fails fast instead of
/// waiting on a completion that will never come.
struct WorkerDeathNotice<'a> {
    cell: &'a WorkerCell,
    clean_exit: bool,
}

impl Drop for WorkerDeathNotice<'_> {
    fn drop(&mut self) {
        if !self.clean_exit {
            if let Ok(mut mailbox) = self.cell.mailbox.lock() {
                mailbox.dead = true;
            }
            self.cell.signal.notify_all();
        }
    }
}

/// One worker's deque of shard indices: the owner drains its
/// contiguous region from the front, idle workers steal from the back.
/// Refilled by the driver before each batch command; the `VecDeque`
/// keeps its capacity across refills, so the steady-state batch path
/// never allocates.
#[derive(Debug)]
struct ShardDeque {
    /// The contiguous shard-index region this deque is refilled with.
    start: usize,
    end: usize,
    items: Mutex<VecDeque<usize>>,
}

impl ShardDeque {
    fn new(start: usize, end: usize) -> Self {
        ShardDeque {
            start,
            end,
            items: Mutex::new(VecDeque::with_capacity(end - start)),
        }
    }

    /// Refills the deque with its shard region (driver side, while the
    /// workers wait for the next sequence number).
    fn refill(&self) {
        let mut items = self.items.lock().expect("shard deque poisoned");
        items.clear();
        items.extend(self.start..self.end);
    }

    /// Owner pop: next shard from the front of the deque.
    fn pop_own(&self) -> Option<usize> {
        self.items.lock().expect("shard deque poisoned").pop_front()
    }

    /// Thief pop: a shard from the back of the deque.
    fn steal(&self) -> Option<usize> {
        self.items.lock().expect("shard deque poisoned").pop_back()
    }
}

/// The loop run by each worker: park until a new command sequence
/// appears, drain the own deque front-to-back, steal from the other
/// deques' backs until every deque is dry, publish the total, repeat
/// until shutdown.
fn stealing_loop(
    index: usize,
    slots: &[Mutex<&mut Shard>],
    queues: &[ShardDeque],
    cell: &WorkerCell,
) {
    let mut notice = WorkerDeathNotice {
        cell,
        clean_exit: false,
    };
    let mut seen = 0u64;
    loop {
        let command = {
            let mut mailbox = cell.lock();
            while mailbox.seq == seen {
                mailbox = cell.signal.wait(mailbox).expect("worker mailbox poisoned");
            }
            seen = mailbox.seq;
            mailbox.command
        };
        if command == Command::Shutdown {
            notice.clean_exit = true;
            return;
        }
        let mut total = 0;
        while let Some(shard) = queues[index]
            .pop_own()
            .or_else(|| (1..queues.len()).find_map(|k| queues[(index + k) % queues.len()].steal()))
        {
            let mut shard = slots[shard].lock().expect("shard slot poisoned");
            total += command.apply(&mut shard);
        }
        {
            let mut mailbox = cell.lock();
            mailbox.total = total;
            mailbox.done = seen;
        }
        cell.signal.notify_all();
    }
}

/// How a [`Workers`] driver reaches its shards: parked worker threads,
/// or (one worker) the shard slice itself.
#[derive(Debug)]
enum Inner<'a> {
    Threads {
        cells: &'a [WorkerCell],
        queues: &'a [ShardDeque],
        seq: u64,
    },
    Inline(&'a mut [Shard]),
}

/// Driver handle for a runtime's persistent work-stealing workers (see
/// [`Runtime::with_workers`](crate::Runtime::with_workers)). Each batch
/// operation publishes one command to every worker and waits for all of
/// them; with one worker the driver steps the shards inline instead.
#[derive(Debug)]
pub struct Workers<'a> {
    inner: Inner<'a>,
}

impl Workers<'_> {
    /// Runs `f` with `workers` persistent worker threads over `shards`
    /// (clamped to the shard count; 1 steps inline with no thread).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub(crate) fn run<R>(
        shards: &mut [Shard],
        workers: usize,
        f: impl FnOnce(&mut Workers<'_>) -> R,
    ) -> R {
        assert!(workers > 0, "need at least one worker");
        let workers = workers.min(shards.len());
        if workers == 1 {
            return f(&mut Workers {
                inner: Inner::Inline(shards),
            });
        }
        // Contiguous shard regions per worker, earlier workers taking
        // the remainder.
        let base = shards.len() / workers;
        let extra = shards.len() % workers;
        let mut next = 0;
        let queues: Vec<ShardDeque> = (0..workers)
            .map(|w| {
                let start = next;
                next += base + usize::from(w < extra);
                ShardDeque::new(start, next)
            })
            .collect();
        let slots: Vec<Mutex<&mut Shard>> = shards.iter_mut().map(Mutex::new).collect();
        let cells: Vec<WorkerCell> = (0..workers).map(|_| WorkerCell::new()).collect();
        std::thread::scope(|scope| {
            let (slots, queues) = (&slots, &queues);
            for (index, cell) in cells.iter().enumerate() {
                scope.spawn(move || stealing_loop(index, slots, queues, cell));
            }
            let mut workers = Workers {
                inner: Inner::Threads {
                    cells: &cells,
                    queues,
                    seq: 0,
                },
            };
            // Shutdown is published by `Workers`'s `Drop`, so it reaches
            // the workers even when `f` unwinds — otherwise the scope
            // would join workers parked forever on their condvars.
            f(&mut workers)
        })
    }

    /// Refills every deque, publishes `command` to every worker and
    /// waits for completion; returns the sum of the per-shard totals.
    ///
    /// # Panics
    ///
    /// Panics if a worker died (a shard panicked mid-command). The
    /// panic unwinds through [`Workers::run`], whose shutdown-on-drop
    /// releases the remaining workers.
    fn broadcast(&mut self, command: Command) -> u64 {
        let (cells, queues, seq) = match &mut self.inner {
            Inner::Inline(shards) => {
                return shards.iter_mut().map(|shard| command.apply(shard)).sum();
            }
            Inner::Threads { cells, queues, seq } => (*cells, *queues, seq),
        };
        // Refill the deques before the command becomes visible: workers
        // only touch them after observing the new sequence number.
        for queue in queues {
            queue.refill();
        }
        *seq += 1;
        for cell in cells {
            cell.publish(command, *seq);
        }
        let mut total = 0;
        for cell in cells {
            let mut mailbox = cell.lock();
            while mailbox.done < *seq {
                assert!(!mailbox.dead, "shard worker panicked");
                mailbox = cell.signal.wait(mailbox).expect("worker mailbox poisoned");
            }
            total += mailbox.total;
        }
        total
    }

    /// Number of worker threads (1 means the inline path, with no
    /// thread behind it).
    pub fn worker_count(&self) -> usize {
        match &self.inner {
            Inner::Threads { cells, .. } => cells.len(),
            Inner::Inline(_) => 1,
        }
    }

    /// Delivers a message to every live session across all shards;
    /// returns the total number of transitions taken. Bit-identical to
    /// [`Runtime::deliver_all`](crate::Runtime::deliver_all), whichever
    /// worker steps which shard.
    pub fn deliver_all(&mut self, message: MessageId) -> u64 {
        self.broadcast(Command::Deliver(message))
    }

    /// Returns every live session in every shard to the start state.
    pub fn reset_all(&mut self) {
        self.broadcast(Command::Reset);
    }

    /// Number of live finished sessions across all shards, counted by
    /// the workers on demand. Like
    /// [`Runtime::finished_count`](crate::Runtime::finished_count), the
    /// first count after a batch rebuilds each stale shard's finished
    /// set at O(sessions).
    pub fn finished_count(&mut self) -> usize {
        self.broadcast(Command::CountFinished) as usize
    }

    /// Total transitions taken across all shards.
    pub fn steps(&mut self) -> u64 {
        self.broadcast(Command::CountSteps)
    }
}

impl Drop for Workers<'_> {
    /// Publishes shutdown to every worker without waiting (the thread
    /// scope does the joining). Running this from `Drop`, rather than
    /// on the return path of `with_workers`, means an unwinding
    /// closure still releases the parked workers instead of
    /// deadlocking the scope's implicit join.
    fn drop(&mut self) {
        if let Inner::Threads { cells, seq, .. } = &mut self.inner {
            *seq += 1;
            for cell in *cells {
                cell.publish(Command::Shutdown, *seq);
            }
        }
    }
}
