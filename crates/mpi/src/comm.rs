//! The communicator: point-to-point messaging and collectives.
//!
//! Every message is a `Vec<f64>`; index data (pivot rows, max-loc
//! owners) travels as exact `f64`s. Semantics follow MPI where it matters
//! for the algorithms built on top:
//!
//! * `recv` matches on (source, tag) and buffers other arrivals;
//! * messages are non-overtaking (MPI-4.0 §3.5): of the messages from one
//!   source that match a `recv`, the one sent first is received first,
//!   whether it was buffered or not;
//! * a collective runs over a rank group (the world is `0..size`), and
//!   every member calls it in the same order, with the group listed
//!   identically and the same generation. Collectives that may be
//!   outstanding at once need disjoint groups or distinct generations.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

#[derive(Debug)]
struct Envelope {
    src: usize,
    tag: u64,
    data: Vec<f64>,
}

/// One rank's endpoint in the world.
pub struct Communicator {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Envelope>>,
    inbox: Receiver<Envelope>,
    /// Arrivals waiting for a matching `recv`, in arrival order.
    pending: Vec<Envelope>,
    /// The first rank whose program panicked, or `NO_PANIC`; shared by
    /// the world so [`World::run`] can re-raise the cause, not an echo.
    first_panic: Arc<AtomicUsize>,
}

/// Reserved tag space for internal collective plumbing.
const INTERNAL: u64 = 1 << 62;

/// The tag of the envelope a panicking rank sends every peer, so no peer
/// blocks forever in `recv` on a rank that will never send.
const ABORT: u64 = u64::MAX;

/// `first_panic` while every rank is still running normally.
const NO_PANIC: usize = usize::MAX;

/// Collective operations, in the low byte of an internal tag. A fold's
/// fan-out uses `FOLD | 1`.
const BROADCAST: u64 = 2;
const FOLD: u64 = 6;
const EXCHANGE: u64 = 8;

/// The internal tag of operation `op` in collective `generation`.
fn internal_tag(generation: u64, op: u64) -> u64 {
    INTERNAL | (generation << 8) | op
}

impl Communicator {
    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Sends a copy of `data` to `dst` with a user tag.
    ///
    /// # Panics
    /// Panics if `dst` is out of range, if the tag intrudes on the internal
    /// tag space, or if the destination has already exited.
    pub fn send(&self, dst: usize, tag: u64, data: &[f64]) {
        assert!(dst < self.size, "destination rank {dst} out of range");
        assert!(tag < INTERNAL, "tag {tag} collides with internal tag space");
        self.send_raw(dst, tag, data.to_vec());
    }

    fn send_raw(&self, dst: usize, tag: u64, data: Vec<f64>) {
        self.senders[dst]
            .send(Envelope { src: self.rank, tag, data })
            .expect("destination rank exited before receiving");
    }

    /// Receives the next message from `src` with `tag`, blocking.
    pub fn recv(&mut self, src: usize, tag: u64) -> Vec<f64> {
        assert!(tag < INTERNAL, "tag {tag} collides with internal tag space");
        self.recv_raw(src, tag)
    }

    fn recv_raw(&mut self, src: usize, tag: u64) -> Vec<f64> {
        if let Some(pos) = self.pending.iter().position(|e| e.src == src && e.tag == tag) {
            // `remove` keeps the rest in arrival order, so a later match
            // on the same (source, tag) still gets the earliest message.
            return self.pending.remove(pos).data;
        }
        loop {
            let env = self.inbox.recv().expect("world torn down while a rank was still receiving");
            if env.tag == ABORT {
                panic!("rank {} panicked while rank {} waited on rank {src}", env.src, self.rank);
            }
            if env.src == src && env.tag == tag {
                return env.data;
            }
            self.pending.push(env);
        }
    }

    fn assert_member(&self, group: &[usize]) {
        assert!(group.contains(&self.rank), "rank {} is not in the group {group:?}", self.rank);
    }

    /// Synchronizes `group`: no member leaves before every member has
    /// entered.
    pub fn barrier(&mut self, group: &[usize], generation: u64) {
        self.fold(group, generation, Vec::new(), |_, _| {});
    }

    /// Broadcasts the root's data to every member of `group` and returns
    /// it. Only `root` passes `Some`, and it gets its own buffer back.
    ///
    /// # Panics
    /// Panics if `root` is not in `group` (every member would otherwise
    /// wait forever on a root that never sends), if the caller is not in
    /// it, or if the root passes `None`.
    pub fn broadcast(
        &mut self,
        group: &[usize],
        root: usize,
        generation: u64,
        data: Option<Vec<f64>>,
    ) -> Vec<f64> {
        assert!(group.contains(&root), "broadcast root {root} is not in the group {group:?}");
        self.assert_member(group);
        let tag = internal_tag(generation, BROADCAST);
        if self.rank != root {
            return self.recv_raw(root, tag);
        }
        let data = data.expect("root must supply the broadcast data");
        for &dst in group.iter().filter(|&&dst| dst != root) {
            self.send_raw(dst, tag, data.clone());
        }
        data
    }

    /// Element-wise sum over `group`, added up in group order; every member
    /// gets the result.
    pub fn allreduce_sum(&mut self, group: &[usize], generation: u64, local: &[f64]) -> Vec<f64> {
        self.fold(group, generation, local.to_vec(), |acc, contribution| {
            assert_eq!(contribution.len(), acc.len(), "allreduce length mismatch");
            for (a, b) in acc.iter_mut().zip(contribution) {
                *a += b;
            }
        })
    }

    /// Max-with-location reduction over `group`: every member gets
    /// `(max value, world rank holding it, index the holder reported)`.
    /// Ties break to the earlier group member, which keeps the result
    /// deterministic.
    pub fn allreduce_max_loc(
        &mut self,
        group: &[usize],
        generation: u64,
        value: f64,
        index: usize,
    ) -> (f64, usize, usize) {
        let mine = vec![value, self.rank as f64, index as f64];
        let best = self.fold(group, generation, mine, |best, contribution| {
            if contribution[0] > best[0] {
                *best = contribution;
            }
        });
        (best[0], best[1] as usize, best[2] as usize)
    }

    /// The shape of every reduction: `group[0]` folds each other member's
    /// contribution into its own, in group order, and sends every member
    /// the result. A linear fan-in and fan-out is fine in-process.
    fn fold(
        &mut self,
        group: &[usize],
        generation: u64,
        mine: Vec<f64>,
        mut combine: impl FnMut(&mut Vec<f64>, Vec<f64>),
    ) -> Vec<f64> {
        self.assert_member(group);
        let tag = internal_tag(generation, FOLD);
        let head = group[0];
        if self.rank != head {
            self.send_raw(head, tag, mine);
            return self.recv_raw(head, tag | 1);
        }
        let mut acc = mine;
        for &src in &group[1..] {
            let contribution = self.recv_raw(src, tag);
            combine(&mut acc, contribution);
        }
        for &dst in &group[1..] {
            self.send_raw(dst, tag | 1, acc.clone());
        }
        acc
    }

    /// Pairwise exchange: both ranks send and receive one buffer. Both
    /// sides must use the same generation; a rank may exchange with itself
    /// (returns its own data).
    pub fn exchange(&mut self, peer: usize, generation: u64, data: &[f64]) -> Vec<f64> {
        if peer == self.rank {
            return data.to_vec();
        }
        let tag = internal_tag(generation, EXCHANGE);
        self.send_raw(peer, tag, data.to_vec());
        self.recv_raw(peer, tag)
    }
}

impl Drop for Communicator {
    /// A rank unwinding from a panic tells every peer, so a peer blocked in
    /// `recv` panics instead of waiting forever: each rank's inbox also has
    /// its own sender, so it never disconnects.
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.first_panic.compare_exchange(
                NO_PANIC,
                self.rank,
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
            for (dst, sender) in self.senders.iter().enumerate() {
                if dst != self.rank {
                    // A peer that already exited has nothing to abandon.
                    let _ = sender.send(Envelope { src: self.rank, tag: ABORT, data: Vec::new() });
                }
            }
        }
    }
}

/// The world: spawns `size` ranks, runs the program, joins the threads.
pub struct World;

impl World {
    /// Runs `program` on `size` ranks; returns each rank's result in rank
    /// order.
    ///
    /// # Panics
    /// Panics if `size` is zero or any rank panics. A rank's panic aborts
    /// every peer's pending and later `recv`, and the panic re-raised here
    /// is the first rank's, with its original payload.
    pub fn run<F, T>(size: usize, program: F) -> Vec<T>
    where
        F: Fn(&mut Communicator) -> T + Send + Sync,
        T: Send,
    {
        assert!(size > 0, "world needs at least one rank");
        let mut senders = Vec::with_capacity(size);
        let mut inboxes = Vec::with_capacity(size);
        for _ in 0..size {
            let (tx, rx) = channel::<Envelope>();
            senders.push(tx);
            inboxes.push(rx);
        }
        let first_panic = Arc::new(AtomicUsize::new(NO_PANIC));
        let program = &program;
        let senders = &senders;
        let first_panic = &first_panic;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(size);
            for (rank, inbox) in inboxes.into_iter().enumerate() {
                handles.push(scope.spawn(move || {
                    let mut comm = Communicator {
                        rank,
                        size,
                        senders: senders.clone(),
                        inbox,
                        pending: Vec::new(),
                        first_panic: Arc::clone(first_panic),
                    };
                    program(&mut comm)
                }));
            }
            let mut joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            // Re-raise the first panicking rank's payload so the failure
            // message points at the real cause, not a peer's abort. Every
            // rank that panicked unwound through its communicator's `Drop`.
            let first = first_panic.load(Ordering::SeqCst);
            if first != NO_PANIC {
                let cause = joined.swap_remove(first).err();
                std::panic::resume_unwind(cause.expect("the first panicking rank failed its join"));
            }
            joined.into_iter().map(|r| r.unwrap_or_else(|e| std::panic::resume_unwind(e))).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn world(comm: &Communicator) -> Vec<usize> {
        (0..comm.size()).collect()
    }

    /// Runs `program` on `size` ranks in a watchdog thread and returns the
    /// message the world panicked with. Fails if the world returns
    /// normally, or has not finished 30 s later.
    fn panic_within_deadline<F>(size: usize, program: F) -> String
    where
        F: Fn(&mut Communicator) + Send + Sync + 'static,
    {
        const DEADLINE: Duration = Duration::from_secs(30);
        let (done_tx, done_rx) = channel();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                World::run(size, &program)
            }));
            let _ = done_tx.send(outcome.map_err(|payload| {
                let text = payload.downcast_ref::<&str>().map(|s| s.to_string());
                text.or_else(|| payload.downcast_ref::<String>().cloned()).unwrap_or_default()
            }));
        });
        match done_rx.recv_timeout(DEADLINE) {
            Ok(Err(message)) => message,
            Ok(Ok(_)) => panic!("the world returned although a rank panicked"),
            Err(_) => panic!("a rank was still blocked {DEADLINE:?} after the run began"),
        }
    }

    #[test]
    fn single_rank_world() {
        let out = World::run(1, |comm| {
            assert_eq!(comm.rank(), 0);
            assert_eq!(comm.size(), 1);
            comm.allreduce_sum(&[0], 0, &[5.0])[0]
        });
        assert_eq!(out, vec![5.0]);
    }

    #[test]
    fn point_to_point_ring() {
        let out = World::run(4, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 7, &[comm.rank() as f64]);
            comm.recv(prev, 7)[0]
        });
        assert_eq!(out, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn two_rank_ring_works() {
        // On two ranks each rank's right and left neighbour are the same
        // peer, so every step's send and receive cross on one pair.
        let out = World::run(2, |comm| {
            let peer = 1 - comm.rank();
            let mut received = Vec::new();
            for step in 0..8u64 {
                let stamp = (step * 2 + comm.rank() as u64) as f64;
                comm.send(peer, step, &vec![stamp; 1000]);
                let got = comm.recv(peer, step);
                assert_eq!(got.len(), 1000);
                assert!(got.iter().all(|&x| x == got[0]));
                received.push(got[0]);
            }
            received
        });
        for (rank, received) in out.iter().enumerate() {
            let expected: Vec<f64> = (0..8).map(|step| (step * 2 + 1 - rank) as f64).collect();
            assert_eq!(received, &expected);
        }
    }

    #[test]
    fn recv_matches_by_tag_out_of_order() {
        let out = World::run(2, |comm| {
            if comm.rank() == 0 {
                // Send tag 2 first, then tag 1.
                comm.send(1, 2, &[2.0]);
                comm.send(1, 1, &[1.0]);
                0.0
            } else {
                // Receive tag 1 first: the tag-2 message must be buffered.
                let a = comm.recv(0, 1)[0];
                let b = comm.recv(0, 2)[0];
                a * 10.0 + b
            }
        });
        assert_eq!(out[1], 12.0);
    }

    #[test]
    fn buffered_matches_keep_send_order() {
        // Receiving tag 9 first buffers everything sent before it; the
        // buffered tag-3 messages must still come out in send order.
        let out = World::run(2, |comm| {
            if comm.rank() == 0 {
                for (tag, value) in [(3, 0.0), (3, 1.0), (4, 9.0), (3, 2.0), (9, 7.0)] {
                    comm.send(1, tag, &[value]);
                }
                Vec::new()
            } else {
                assert_eq!(comm.recv(0, 9), vec![7.0]);
                (0..3).map(|_| comm.recv(0, 3)[0]).collect()
            }
        });
        assert_eq!(out[1], vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn fifo_between_same_pair_and_tag() {
        let out = World::run(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..16 {
                    comm.send(1, 3, &[i as f64]);
                }
                Vec::new()
            } else {
                (0..16).map(|_| comm.recv(0, 3)[0]).collect::<Vec<f64>>()
            }
        });
        let expected: Vec<f64> = (0..16).map(|i| i as f64).collect();
        assert_eq!(out[1], expected);
    }

    #[test]
    fn allreduce_sum_vector() {
        let out = World::run(5, |comm| {
            let local = vec![comm.rank() as f64, 1.0];
            comm.allreduce_sum(&world(comm), 0, &local)
        });
        for r in out {
            assert_eq!(r, vec![10.0, 5.0]);
        }
    }

    #[test]
    fn allreduce_max_loc_finds_owner() {
        let out = World::run(6, |comm| {
            // Rank 4 holds the largest value, at local index rank*10.
            let value = if comm.rank() == 4 { 100.0 } else { comm.rank() as f64 };
            comm.allreduce_max_loc(&world(comm), 0, value, comm.rank() * 10)
        });
        for (v, owner, idx) in out {
            assert_eq!(v, 100.0);
            assert_eq!(owner, 4);
            assert_eq!(idx, 40);
        }
    }

    #[test]
    fn allreduce_max_loc_ties_break_low_rank() {
        let out = World::run(4, |comm| comm.allreduce_max_loc(&world(comm), 0, 1.0, comm.rank()));
        for (_, owner, idx) in out {
            assert_eq!(owner, 0);
            assert_eq!(idx, 0);
        }
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let out = World::run(4, |comm| {
            let data = if comm.rank() == 2 { Some(vec![9.0, 8.0]) } else { None };
            comm.broadcast(&world(comm), 2, 0, data)
        });
        for r in out {
            assert_eq!(r, vec![9.0, 8.0]);
        }
    }

    #[test]
    fn broadcast_pivots_round_trip() {
        // Pivot rows travel as f64s and come back as the same indices.
        let pivots = [1usize, 2, 3, (1 << 53) - 1];
        let out = World::run(3, |comm| {
            let data = (comm.rank() == 0).then(|| pivots.iter().map(|&p| p as f64).collect());
            let got = comm.broadcast(&world(comm), 0, 1, data);
            got.into_iter().map(|p| p as usize).collect::<Vec<usize>>()
        });
        for r in out {
            assert_eq!(r, pivots);
        }
    }

    #[test]
    fn a_broadcast_root_outside_its_group_fails_closed() {
        // Ranks 0 and 1 name rank 2, which is not in their group and never
        // sends, as the root. They must fail at once, not wait on it.
        let message = panic_within_deadline(3, |comm| {
            if comm.rank() < 2 {
                comm.broadcast(&[0, 1], 2, 0, None);
            }
        });
        assert_eq!(message, "broadcast root 2 is not in the group [0, 1]");
    }

    #[test]
    fn group_broadcast_stays_within_group() {
        // Two disjoint groups broadcast concurrently with the same generation.
        let out = World::run(4, |comm| {
            let group: Vec<usize> = if comm.rank() < 2 { vec![0, 1] } else { vec![2, 3] };
            let root = group[0];
            let data = if comm.rank() == root { Some(vec![root as f64 * 10.0]) } else { None };
            comm.broadcast(&group, root, 0, data)
        });
        assert_eq!(out[0], vec![0.0]);
        assert_eq!(out[1], vec![0.0]);
        assert_eq!(out[2], vec![20.0]);
        assert_eq!(out[3], vec![20.0]);
    }

    #[test]
    fn group_maxloc_stays_within_group() {
        let out = World::run(6, |comm| {
            // Groups by parity: {0,2,4} and {1,3,5}.
            let group: Vec<usize> = (0..6).filter(|r| r % 2 == comm.rank() % 2).collect();
            comm.allreduce_max_loc(&group, 0, comm.rank() as f64, 7)
        });
        // Even group max is rank 4; odd group max is rank 5.
        assert_eq!(out[0], (4.0, 4, 7));
        assert_eq!(out[2], (4.0, 4, 7));
        assert_eq!(out[1], (5.0, 5, 7));
    }

    #[test]
    fn exchange_swaps_buffers() {
        let out = World::run(2, |comm| {
            let mine = vec![comm.rank() as f64; 3];
            comm.exchange(1 - comm.rank(), 0, &mine)
        });
        assert_eq!(out[0], vec![1.0, 1.0, 1.0]);
        assert_eq!(out[1], vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn exchange_with_self_is_identity() {
        let out = World::run(1, |comm| comm.exchange(0, 0, &[42.0]));
        assert_eq!(out[0], vec![42.0]);
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        World::run(8, |comm| {
            let world = world(comm);
            counter.fetch_add(1, Ordering::SeqCst);
            comm.barrier(&world, 0);
            // After the barrier, every rank must observe all 8 increments.
            assert_eq!(counter.load(Ordering::SeqCst), 8);
            comm.barrier(&world, 1);
        });
    }

    #[test]
    fn a_panicking_rank_aborts_a_peer_blocked_on_it() {
        // Rank 1 waits on a message rank 0 never sends. The run must end
        // with rank 0's own panic well within the deadline, not hang.
        let message = panic_within_deadline(2, |comm| {
            if comm.rank() == 0 {
                panic!("rank 0 fails first");
            }
            comm.recv(0, 1);
        });
        assert_eq!(message, "rank 0 fails first");
    }

    #[test]
    #[should_panic(expected = "rank 2 fails alone")]
    fn one_rank_panics() {
        // Only rank 2 panics; its peers never wait on it and return
        // normally. The run must still fail with rank 2's own panic.
        World::run(4, |comm| {
            if comm.rank() == 2 {
                panic!("rank 2 fails alone");
            }
            comm.rank()
        });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn send_to_invalid_rank_panics() {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(5, 0, &[1.0]);
            }
        });
    }

    #[test]
    #[should_panic(expected = "internal tag space")]
    fn reserved_tag_rejected() {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, u64::MAX, &[1.0]);
            } else {
                let _ = comm.recv(0, u64::MAX);
            }
        });
    }
}
