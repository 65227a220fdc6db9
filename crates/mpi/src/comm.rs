//! The communicator: point-to-point messaging and collectives.
//!
//! Semantics follow MPI where it matters for the algorithms built on top:
//!
//! * messages between a fixed (source, destination) pair are
//!   non-overtaking (channel FIFO order);
//! * `recv` matches on (source, tag), buffering out-of-order arrivals;
//! * collectives are "called by every rank" operations; each call site
//!   must use a tag distinct from concurrently outstanding traffic.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

/// Message payloads: the two element types the distributed kernels need.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Double-precision data (matrix panels, vectors).
    F64(Vec<f64>),
    /// Index data (pivot vectors, counts).
    Usize(Vec<usize>),
}

#[derive(Debug)]
struct Envelope {
    src: usize,
    tag: u64,
    payload: Payload,
}

/// One rank's endpoint in the world.
pub struct Communicator {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Envelope>>,
    inbox: Receiver<Envelope>,
    /// Out-of-order arrivals waiting for a matching `recv`.
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

impl Communicator {
    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Sends `payload` to `dst` with a user tag.
    ///
    /// # Panics
    /// Panics if `dst` is out of range, if the tag intrudes on the internal
    /// tag space, or if the destination has already exited.
    pub fn send(&self, dst: usize, tag: u64, payload: Payload) {
        assert!(dst < self.size, "destination rank {dst} out of range");
        assert!(tag < INTERNAL, "tag {tag} collides with internal tag space");
        self.send_raw(dst, tag, payload);
    }

    fn send_raw(&self, dst: usize, tag: u64, payload: Payload) {
        self.senders[dst]
            .send(Envelope { src: self.rank, tag, payload })
            .expect("destination rank exited before receiving");
    }

    /// Receives the next message from `src` with `tag`, blocking.
    pub fn recv(&mut self, src: usize, tag: u64) -> Payload {
        assert!(tag < INTERNAL, "tag {tag} collides with internal tag space");
        self.recv_raw(src, tag)
    }

    fn recv_raw(&mut self, src: usize, tag: u64) -> Payload {
        if let Some(pos) = self.pending.iter().position(|e| e.src == src && e.tag == tag) {
            return self.pending.swap_remove(pos).payload;
        }
        loop {
            let env = self.inbox.recv().expect("world torn down while a rank was still receiving");
            if env.tag == ABORT {
                panic!("rank {} panicked while rank {} waited on rank {src}", env.src, self.rank);
            }
            if env.src == src && env.tag == tag {
                return env.payload;
            }
            self.pending.push(env);
        }
    }

    /// `send` for `f64` slices.
    pub fn send_f64(&self, dst: usize, tag: u64, data: &[f64]) {
        self.send(dst, tag, Payload::F64(data.to_vec()));
    }

    /// `recv` for `f64` data.
    ///
    /// # Panics
    /// Panics if the matching message carries index data instead.
    pub fn recv_f64(&mut self, src: usize, tag: u64) -> Vec<f64> {
        match self.recv(src, tag) {
            Payload::F64(v) => v,
            other => panic!("expected F64 payload from {src} tag {tag}, got {other:?}"),
        }
    }

    // --- Collectives. Each call consumes one internal tag generation.    ---
    // All ranks must call collectives in the same order (MPI's rule).

    /// Synchronizes all ranks: no rank leaves before every rank has entered.
    pub fn barrier(&mut self, generation: u64) {
        let tag = INTERNAL | (generation << 8);
        // Gather-to-0 then broadcast: linear fan-in/out is fine in-process.
        if self.rank == 0 {
            for src in 1..self.size {
                let _ = self.recv_raw(src, tag);
            }
            for dst in 1..self.size {
                self.send_raw(dst, tag | 1, Payload::Usize(vec![]));
            }
        } else {
            self.send_raw(0, tag, Payload::Usize(vec![]));
            let _ = self.recv_raw(0, tag | 1);
        }
    }

    /// Broadcasts `data` from `root` to every rank; returns the data.
    pub fn broadcast_f64(
        &mut self,
        root: usize,
        generation: u64,
        data: Option<&[f64]>,
    ) -> Vec<f64> {
        let tag = INTERNAL | (generation << 8) | 2;
        if self.rank == root {
            let data = data.expect("root must supply the broadcast data");
            for dst in 0..self.size {
                if dst != root {
                    self.send_raw(dst, tag, Payload::F64(data.to_vec()));
                }
            }
            data.to_vec()
        } else {
            match self.recv_raw(root, tag) {
                Payload::F64(v) => v,
                other => panic!("broadcast payload mismatch: {other:?}"),
            }
        }
    }

    /// Broadcasts index data from `root`.
    pub fn broadcast_usize(
        &mut self,
        root: usize,
        generation: u64,
        data: Option<&[usize]>,
    ) -> Vec<usize> {
        let tag = INTERNAL | (generation << 8) | 3;
        if self.rank == root {
            let data = data.expect("root must supply the broadcast data");
            for dst in 0..self.size {
                if dst != root {
                    self.send_raw(dst, tag, Payload::Usize(data.to_vec()));
                }
            }
            data.to_vec()
        } else {
            match self.recv_raw(root, tag) {
                Payload::Usize(v) => v,
                other => panic!("broadcast payload mismatch: {other:?}"),
            }
        }
    }

    /// Element-wise sum across all ranks; every rank gets the result.
    pub fn allreduce_sum(&mut self, local: &[f64]) -> Vec<f64> {
        let tag = INTERNAL | (1 << 40);
        if self.rank == 0 {
            let mut acc = local.to_vec();
            for src in 1..self.size {
                match self.recv_raw(src, tag) {
                    Payload::F64(v) => {
                        assert_eq!(v.len(), acc.len(), "allreduce length mismatch");
                        for (a, b) in acc.iter_mut().zip(v) {
                            *a += b;
                        }
                    }
                    other => panic!("allreduce payload mismatch: {other:?}"),
                }
            }
            for dst in 1..self.size {
                self.send_raw(dst, tag | 1, Payload::F64(acc.clone()));
            }
            acc
        } else {
            self.send_raw(0, tag, Payload::F64(local.to_vec()));
            match self.recv_raw(0, tag | 1) {
                Payload::F64(v) => v,
                other => panic!("allreduce payload mismatch: {other:?}"),
            }
        }
    }

    /// Max-with-location reduction: every rank gets `(max value, rank that
    /// held it, index the holder reported)`. Ties break to the lower rank,
    /// which keeps the result deterministic.
    pub fn allreduce_max_loc(&mut self, value: f64, index: usize) -> (f64, usize, usize) {
        let tag = INTERNAL | (1 << 41);
        if self.rank == 0 {
            let mut best = (value, 0usize, index);
            for src in 1..self.size {
                match self.recv_raw(src, tag) {
                    Payload::F64(v) => {
                        let (val, idx) = (v[0], v[1] as usize);
                        if val > best.0 {
                            best = (val, src, idx);
                        }
                    }
                    other => panic!("maxloc payload mismatch: {other:?}"),
                }
            }
            let msg = vec![best.0, best.1 as f64, best.2 as f64];
            for dst in 1..self.size {
                self.send_raw(dst, tag | 1, Payload::F64(msg.clone()));
            }
            best
        } else {
            self.send_raw(0, tag, Payload::F64(vec![value, index as f64]));
            match self.recv_raw(0, tag | 1) {
                Payload::F64(v) => (v[0], v[1] as usize, v[2] as usize),
                other => panic!("maxloc payload mismatch: {other:?}"),
            }
        }
    }

    // --- Group collectives: the same operations over a subset of ranks. ---
    // `group` must list the participating ranks identically (same order) on
    // every participant, and every member must call the operation with the
    // same generation. Groups operating concurrently must be disjoint.

    fn group_pos(&self, group: &[usize]) -> usize {
        group.iter().position(|&r| r == self.rank).expect("caller must be a member of the group")
    }

    /// Broadcast within a group from `root` (a world rank inside `group`).
    pub fn broadcast_f64_among(
        &mut self,
        group: &[usize],
        root: usize,
        generation: u64,
        data: Option<&[f64]>,
    ) -> Vec<f64> {
        debug_assert!(group.contains(&root), "root must be in the group");
        let _ = self.group_pos(group);
        let tag = INTERNAL | (generation << 8) | 5;
        if self.rank == root {
            let data = data.expect("root must supply the broadcast data");
            for &dst in group {
                if dst != root {
                    self.send_raw(dst, tag, Payload::F64(data.to_vec()));
                }
            }
            data.to_vec()
        } else {
            match self.recv_raw(root, tag) {
                Payload::F64(v) => v,
                other => panic!("group broadcast payload mismatch: {other:?}"),
            }
        }
    }

    /// Max-with-location reduction within a group; every member gets
    /// `(max value, world rank holding it, holder's index)`.
    pub fn allreduce_max_loc_among(
        &mut self,
        group: &[usize],
        generation: u64,
        value: f64,
        index: usize,
    ) -> (f64, usize, usize) {
        let _ = self.group_pos(group);
        let tag = INTERNAL | (generation << 8) | 6;
        let head = group[0];
        if self.rank == head {
            let mut best = (value, self.rank, index);
            for &src in &group[1..] {
                match self.recv_raw(src, tag) {
                    Payload::F64(v) => {
                        let (val, idx) = (v[0], v[1] as usize);
                        // Tie-break to the lower *group position* for
                        // determinism; positions are processed in order.
                        if val > best.0 {
                            best = (val, src, idx);
                        }
                    }
                    other => panic!("group maxloc payload mismatch: {other:?}"),
                }
            }
            let msg = vec![best.0, best.1 as f64, best.2 as f64];
            for &dst in &group[1..] {
                self.send_raw(dst, tag | 1, Payload::F64(msg.clone()));
            }
            best
        } else {
            self.send_raw(head, tag, Payload::F64(vec![value, index as f64]));
            match self.recv_raw(head, tag | 1) {
                Payload::F64(v) => (v[0], v[1] as usize, v[2] as usize),
                other => panic!("group maxloc payload mismatch: {other:?}"),
            }
        }
    }

    /// Pairwise exchange: both ranks send and receive one `f64` buffer.
    /// Both sides must use the same generation; a rank may exchange with
    /// itself (returns its own data).
    pub fn exchange_f64(&mut self, peer: usize, generation: u64, data: &[f64]) -> Vec<f64> {
        if peer == self.rank {
            return data.to_vec();
        }
        let tag = INTERNAL | (generation << 8) | 8;
        self.send_raw(peer, tag, Payload::F64(data.to_vec()));
        match self.recv_raw(peer, tag) {
            Payload::F64(v) => v,
            other => panic!("exchange payload mismatch: {other:?}"),
        }
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
                    let _ = sender.send(Envelope {
                        src: self.rank,
                        tag: ABORT,
                        payload: Payload::Usize(vec![]),
                    });
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

    #[test]
    fn single_rank_world() {
        let out = World::run(1, |comm| {
            assert_eq!(comm.rank(), 0);
            assert_eq!(comm.size(), 1);
            comm.allreduce_sum(&[5.0])[0]
        });
        assert_eq!(out, vec![5.0]);
    }

    #[test]
    fn point_to_point_ring() {
        let out = World::run(4, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send_f64(next, 7, &[comm.rank() as f64]);
            comm.recv_f64(prev, 7)[0]
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
                comm.send_f64(peer, step, &vec![stamp; 1000]);
                let got = comm.recv_f64(peer, step);
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
                comm.send_f64(1, 2, &[2.0]);
                comm.send_f64(1, 1, &[1.0]);
                0.0
            } else {
                // Receive tag 1 first: the tag-2 message must be buffered.
                let a = comm.recv_f64(0, 1)[0];
                let b = comm.recv_f64(0, 2)[0];
                a * 10.0 + b
            }
        });
        assert_eq!(out[1], 12.0);
    }

    #[test]
    fn fifo_between_same_pair_and_tag() {
        let out = World::run(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..16 {
                    comm.send_f64(1, 3, &[i as f64]);
                }
                Vec::new()
            } else {
                (0..16).map(|_| comm.recv_f64(0, 3)[0]).collect::<Vec<f64>>()
            }
        });
        let expected: Vec<f64> = (0..16).map(|i| i as f64).collect();
        assert_eq!(out[1], expected);
    }

    #[test]
    fn allreduce_sum_vector() {
        let out = World::run(5, |comm| {
            let local = vec![comm.rank() as f64, 1.0];
            comm.allreduce_sum(&local)
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
            comm.allreduce_max_loc(value, comm.rank() * 10)
        });
        for (v, owner, idx) in out {
            assert_eq!(v, 100.0);
            assert_eq!(owner, 4);
            assert_eq!(idx, 40);
        }
    }

    #[test]
    fn allreduce_max_loc_ties_break_low_rank() {
        let out = World::run(4, |comm| comm.allreduce_max_loc(1.0, comm.rank()));
        for (_, owner, idx) in out {
            assert_eq!(owner, 0);
            assert_eq!(idx, 0);
        }
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let out = World::run(4, |comm| {
            let data = if comm.rank() == 2 { Some(&[9.0, 8.0][..]) } else { None };
            comm.broadcast_f64(2, 0, data)
        });
        for r in out {
            assert_eq!(r, vec![9.0, 8.0]);
        }
    }

    #[test]
    fn broadcast_usize_round_trip() {
        let out = World::run(3, |comm| {
            let data = if comm.rank() == 0 { Some(&[1usize, 2, 3][..]) } else { None };
            comm.broadcast_usize(0, 1, data)
        });
        for r in out {
            assert_eq!(r, vec![1, 2, 3]);
        }
    }

    #[test]
    fn group_broadcast_stays_within_group() {
        // Two disjoint groups broadcast concurrently with the same generation.
        let out = World::run(4, |comm| {
            let group: Vec<usize> = if comm.rank() < 2 { vec![0, 1] } else { vec![2, 3] };
            let root = group[0];
            let data = if comm.rank() == root { Some(vec![root as f64 * 10.0]) } else { None };
            comm.broadcast_f64_among(&group, root, 0, data.as_deref())
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
            comm.allreduce_max_loc_among(&group, 0, comm.rank() as f64, 7)
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
            comm.exchange_f64(1 - comm.rank(), 0, &mine)
        });
        assert_eq!(out[0], vec![1.0, 1.0, 1.0]);
        assert_eq!(out[1], vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn exchange_with_self_is_identity() {
        let out = World::run(1, |comm| comm.exchange_f64(0, 0, &[42.0]));
        assert_eq!(out[0], vec![42.0]);
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        World::run(8, |comm| {
            counter.fetch_add(1, Ordering::SeqCst);
            comm.barrier(0);
            // After the barrier, every rank must observe all 8 increments.
            assert_eq!(counter.load(Ordering::SeqCst), 8);
            comm.barrier(1);
        });
    }

    #[test]
    fn a_panicking_rank_aborts_a_peer_blocked_on_it() {
        // Rank 1 waits on a message rank 0 never sends. The run must end
        // with rank 0's own panic well within the deadline, not hang.
        const DEADLINE: Duration = Duration::from_secs(30);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(|| {
                World::run(2, |comm| {
                    if comm.rank() == 0 {
                        panic!("rank 0 fails first");
                    }
                    comm.recv_f64(0, 1);
                })
            });
            let _ = done_tx.send(outcome.map_err(|payload| {
                payload.downcast_ref::<&str>().map(|s| s.to_string()).unwrap_or_default()
            }));
        });
        match done_rx.recv_timeout(DEADLINE) {
            Ok(Err(message)) => assert_eq!(message, "rank 0 fails first"),
            Ok(Ok(_)) => panic!("the world returned although rank 0 panicked"),
            Err(_) => panic!("rank 1 still blocked {DEADLINE:?} after rank 0 panicked"),
        }
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
                comm.send_f64(5, 0, &[1.0]);
            }
        });
    }

    #[test]
    #[should_panic(expected = "internal tag space")]
    fn reserved_tag_rejected() {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send_f64(1, u64::MAX, &[1.0]);
            } else {
                let _ = comm.recv_f64(0, u64::MAX);
            }
        });
    }
}
