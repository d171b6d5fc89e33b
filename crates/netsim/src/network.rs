//! The network fabric: node registry, link table, fault plan, statistics.

use crate::fault::{FaultAction, FaultPlan, FaultScript, Partition};
use crate::link::LinkModel;
use crate::message::{Message, NodeId};
use crate::node::NetHandle;
use crate::rng::SplitMix64;
use crate::stats::NetworkStats;
use crate::time::{VirtualClock, VirtualDuration, VirtualInstant};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Error returned by [`NetHandle::send`](crate::NetHandle::send).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The destination node id was never attached to this network.
    UnknownNode(NodeId),
    /// The sending node has been crashed by fault injection.
    SenderCrashed(NodeId),
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::UnknownNode(n) => write!(f, "unknown destination node {n}"),
            SendError::SenderCrashed(n) => write!(f, "sending node {n} is crashed"),
        }
    }
}

impl std::error::Error for SendError {}

struct NodeEntry {
    sender: Sender<Message>,
}

struct LinkState {
    model: LinkModel,
    busy_until: VirtualInstant,
    next_seq: u64,
}

/// Callback invoked after each applied fault action with the fault-clock
/// time (µs) and a short description ([`FaultAction::describe`]). Runs
/// with the network state locked: observers must record and return, never
/// call back into the network.
pub type FaultObserver = Arc<dyn Fn(u64, &str) + Send + Sync>;

struct State {
    nodes: HashMap<NodeId, NodeEntry>,
    links: HashMap<(NodeId, NodeId), LinkState>,
    default_link: LinkModel,
    faults: FaultPlan,
    stats: NetworkStats,
    rng: SplitMix64,
    next_id: u32,
    /// The fault clock: the high-water mark of virtual send times seen on
    /// the fabric, plus explicit [`Network::tick`] advances. Scheduled
    /// [`FaultScript`] entries fire against this clock.
    fault_clock: VirtualInstant,
    /// Fault observers, notified per applied action (flight recorders).
    observers: Vec<FaultObserver>,
}

impl State {
    /// Advance the fault clock to at least `now` and apply every scheduled
    /// fault action that has become due.
    fn run_faults_until(&mut self, now: VirtualInstant) {
        self.fault_clock = self.fault_clock.max(now);
        for action in self.faults.take_due(self.fault_clock) {
            if !self.observers.is_empty() {
                let desc = action.describe();
                for obs in &self.observers {
                    obs(self.fault_clock.0, &desc);
                }
            }
            match action {
                FaultAction::Crash(n) => self.faults.crash(n),
                FaultAction::Revive(n) => self.faults.revive(n),
                FaultAction::Partition(p) => self.faults.partition(p),
                FaultAction::Heal => self.faults.heal(),
                FaultAction::SetLink(a, b, model) => {
                    self.set_link_directed(a, b, model.clone());
                    self.set_link_directed(b, a, model);
                }
                FaultAction::SetLinkDirected(src, dst, model) => {
                    self.set_link_directed(src, dst, model);
                }
            }
        }
    }

    fn set_link_directed(&mut self, src: NodeId, dst: NodeId, model: LinkModel) {
        self.links
            .insert((src, dst), LinkState { model, busy_until: VirtualInstant::ZERO, next_seq: 0 });
    }
}

/// Shared interior of a [`Network`]; not part of the public API.
pub struct NetworkInner {
    state: Mutex<State>,
}

impl NetworkInner {
    pub(crate) fn send(
        &self,
        src: NodeId,
        dst: NodeId,
        payload: Bytes,
        clock: &VirtualClock,
    ) -> Result<(), SendError> {
        let mut st = self.state.lock();
        let now = clock.now();
        st.run_faults_until(now);
        if st.faults.is_crashed(src) {
            return Err(SendError::SenderCrashed(src));
        }
        if !st.nodes.contains_key(&dst) {
            return Err(SendError::UnknownNode(dst));
        }
        if !st.faults.deliverable(src, dst) {
            st.stats.record_blocked(src, dst);
            return Ok(());
        }
        // Resolve link model (clone to appease the borrow checker cheaply:
        // models are a handful of words).
        let model = st
            .links
            .get(&(src, dst))
            .map(|l| l.model.clone())
            .unwrap_or_else(|| st.default_link.clone());
        if model.sample_loss(&mut st.rng) {
            st.stats.record_lost(src, dst);
            return Ok(());
        }
        let send_vt = clock.now();
        let link = st
            .links
            .entry((src, dst))
            .or_insert_with(|| LinkState { model: model.clone(), busy_until: VirtualInstant::ZERO, next_seq: 0 });
        let busy = link.busy_until;
        let seq = link.next_seq;
        link.next_seq += 1;
        let (deliver_vt, new_busy) = model.schedule(send_vt, busy, payload.len(), &mut st.rng);
        if let Some(link) = st.links.get_mut(&(src, dst)) {
            link.busy_until = new_busy;
        }
        st.stats.record_delivered(src, dst, payload.len(), deliver_vt.saturating_since(send_vt));
        let msg = Message { src, dst, seq, send_vt, deliver_vt, payload };
        // Receiver may have dropped its handle; that is equivalent to a
        // crashed node from the sender's perspective.
        let _ = st.nodes[&dst].sender.send(msg);
        Ok(())
    }

    /// Deliver an empty wakeup message to `dst`'s own inbox, bypassing
    /// faults, loss, and link scheduling (see [`NetHandle::poke`]).
    pub(crate) fn poke(&self, dst: NodeId, clock: &VirtualClock) {
        let st = self.state.lock();
        if let Some(node) = st.nodes.get(&dst) {
            let now = clock.now();
            let _ = node.sender.send(Message {
                src: dst,
                dst,
                seq: 0,
                send_vt: now,
                deliver_vt: now,
                payload: Bytes::new(),
            });
        }
    }
}

/// A simulated network that nodes attach to.
///
/// Cloning shares the same fabric. See the [crate docs](crate) for an
/// end-to-end example.
#[derive(Clone)]
pub struct Network {
    inner: Arc<NetworkInner>,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.inner.state.lock();
        f.debug_struct("Network")
            .field("nodes", &st.nodes.len())
            .field("links", &st.links.len())
            .finish()
    }
}

impl Network {
    /// Create a network. All randomness (loss, jitter) derives from `seed`,
    /// so runs with equal seeds and equal send orders are identical.
    pub fn new(seed: u64) -> Network {
        Network {
            inner: Arc::new(NetworkInner {
                state: Mutex::new(State {
                    nodes: HashMap::new(),
                    links: HashMap::new(),
                    default_link: LinkModel::perfect(),
                    faults: FaultPlan::new(),
                    stats: NetworkStats::default(),
                    rng: SplitMix64::new(seed),
                    next_id: 0,
                    fault_clock: VirtualInstant::ZERO,
                    observers: Vec::new(),
                }),
            }),
        }
    }

    /// Attach a new node and return its handle.
    pub fn attach(&self, name: &str) -> NetHandle {
        let (tx, rx) = unbounded();
        let mut st = self.inner.state.lock();
        let id = NodeId(st.next_id);
        st.next_id += 1;
        st.nodes.insert(id, NodeEntry { sender: tx });
        NetHandle {
            id,
            name: Arc::from(name),
            inbox: rx,
            clock: VirtualClock::new(),
            net: Arc::clone(&self.inner),
        }
    }

    /// Set the link model in **both** directions between `a` and `b`.
    pub fn set_link(&self, a: NodeId, b: NodeId, model: LinkModel) {
        self.set_link_directed(a, b, model.clone());
        self.set_link_directed(b, a, model);
    }

    /// Set the link model for the directed link `src -> dst` only.
    pub fn set_link_directed(&self, src: NodeId, dst: NodeId, model: LinkModel) {
        self.inner.state.lock().set_link_directed(src, dst, model);
    }

    /// Set the model used for node pairs without an explicit link.
    pub fn set_default_link(&self, model: LinkModel) {
        self.inner.state.lock().default_link = model;
    }

    /// Crash a node: it can no longer send or receive.
    pub fn crash(&self, node: NodeId) {
        self.inner.state.lock().faults.crash(node);
    }

    /// Revive a crashed node.
    pub fn revive(&self, node: NodeId) {
        self.inner.state.lock().faults.revive(node);
    }

    /// Whether a node is currently crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.inner.state.lock().faults.is_crashed(node)
    }

    /// Install a partition.
    pub fn partition(&self, p: Partition) {
        self.inner.state.lock().faults.partition(p);
    }

    /// Remove any partition.
    pub fn heal(&self) {
        self.inner.state.lock().faults.heal();
    }

    /// A snapshot of the traffic statistics.
    pub fn stats(&self) -> NetworkStats {
        self.inner.state.lock().stats.clone()
    }

    /// Schedule a deterministic [`FaultScript`] against the fault clock.
    ///
    /// Entries fire as the clock passes their instants — implicitly, as
    /// virtual send times flow through the fabric, or explicitly via
    /// [`tick`](Network::tick). Entries already due fire immediately.
    pub fn schedule(&self, script: FaultScript) {
        let mut st = self.inner.state.lock();
        st.faults.schedule(script);
        let now = st.fault_clock;
        st.run_faults_until(now);
    }

    /// Advance the fault clock by `d` and apply every scheduled fault that
    /// becomes due, returning the new fault-clock time.
    ///
    /// This is the deterministic driver for chaos tests: no wall-clock
    /// sleeps, just explicit virtual-time ticks.
    pub fn tick(&self, d: VirtualDuration) -> VirtualInstant {
        let mut st = self.inner.state.lock();
        let target = st.fault_clock + d;
        st.run_faults_until(target);
        st.fault_clock
    }

    /// The current fault-clock time.
    pub fn fault_now(&self) -> VirtualInstant {
        self.inner.state.lock().fault_clock
    }

    /// Number of scheduled fault actions not yet applied.
    pub fn pending_faults(&self) -> usize {
        self.inner.state.lock().faults.pending()
    }

    /// Register an observer notified for every applied fault action with
    /// the fault-clock time (µs) and [`FaultAction::describe`]'s text.
    /// Observers run with the network locked; they must not call back
    /// into the network. Used by ORBs to land fault-script ticks in their
    /// flight recorders.
    pub fn add_fault_observer(&self, observer: FaultObserver) {
        self.inner.state.lock().observers.push(observer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::VirtualDuration;
    use std::time::Duration;

    const T: Duration = Duration::from_secs(2);

    #[test]
    fn roundtrip_delivers_payload() {
        let net = Network::new(1);
        let a = net.attach("a");
        let b = net.attach("b");
        a.send(b.id(), vec![1, 2, 3]).unwrap();
        let m = b.recv_timeout(T).unwrap();
        assert_eq!(m.payload, vec![1, 2, 3]);
        assert_eq!(m.src, a.id());
        assert_eq!(m.dst, b.id());
        assert_eq!(m.seq, 0);
    }

    #[test]
    fn virtual_time_advances_with_latency() {
        let net = Network::new(1);
        let a = net.attach("a");
        let b = net.attach("b");
        net.set_link(a.id(), b.id(), LinkModel::perfect().with_latency(VirtualDuration::from_millis(10)));
        a.send(b.id(), vec![0; 8]).unwrap();
        let m = b.recv_timeout(T).unwrap();
        assert_eq!(m.transit(), VirtualDuration::from_millis(10));
        assert_eq!(b.now(), m.deliver_vt);
    }

    #[test]
    fn bandwidth_limits_serialization() {
        let net = Network::new(1);
        let a = net.attach("a");
        let b = net.attach("b");
        // 8 kbit/s = 1000 bytes/s
        net.set_link(a.id(), b.id(), LinkModel::narrowband(8).with_latency(VirtualDuration::ZERO));
        a.send(b.id(), vec![0; 500]).unwrap();
        let m = b.recv_timeout(T).unwrap();
        assert_eq!(m.transit(), VirtualDuration::from_millis(500));
    }

    #[test]
    fn fifo_per_link() {
        let net = Network::new(1);
        let a = net.attach("a");
        let b = net.attach("b");
        for i in 0..100u8 {
            a.send(b.id(), vec![i]).unwrap();
        }
        for i in 0..100u8 {
            let m = b.recv_timeout(T).unwrap();
            assert_eq!(m.payload, vec![i]);
            assert_eq!(m.seq, i as u64);
        }
    }

    #[test]
    fn crash_blocks_traffic_and_send_from_crashed_errors() {
        let net = Network::new(1);
        let a = net.attach("a");
        let b = net.attach("b");
        net.crash(b.id());
        a.send(b.id(), vec![1]).unwrap(); // silently dropped
        assert_eq!(b.try_recv(), Err(crate::RecvError::Empty));
        assert_eq!(b.send(a.id(), vec![1]), Err(SendError::SenderCrashed(b.id())));
        net.revive(b.id());
        a.send(b.id(), vec![2]).unwrap();
        assert_eq!(b.recv_timeout(T).unwrap().payload, vec![2]);
        assert_eq!(net.stats().link(a.id(), b.id()).msgs_blocked, 1);
    }

    #[test]
    fn partition_blocks_cross_group_traffic() {
        let net = Network::new(1);
        let a = net.attach("a");
        let b = net.attach("b");
        let c = net.attach("c");
        net.partition(Partition::new([vec![a.id(), b.id()], vec![c.id()]]));
        a.send(b.id(), vec![1]).unwrap();
        a.send(c.id(), vec![2]).unwrap();
        assert_eq!(b.recv_timeout(T).unwrap().payload, vec![1]);
        assert_eq!(c.try_recv(), Err(crate::RecvError::Empty));
        net.heal();
        a.send(c.id(), vec![3]).unwrap();
        assert_eq!(c.recv_timeout(T).unwrap().payload, vec![3]);
    }

    #[test]
    fn unknown_destination_is_an_error() {
        let net = Network::new(1);
        let a = net.attach("a");
        assert_eq!(a.send(NodeId(99), vec![]), Err(SendError::UnknownNode(NodeId(99))));
    }

    #[test]
    fn loss_is_counted() {
        let net = Network::new(7);
        let a = net.attach("a");
        let b = net.attach("b");
        net.set_link_directed(a.id(), b.id(), LinkModel::perfect().with_loss(1.0));
        for _ in 0..10 {
            a.send(b.id(), vec![0]).unwrap();
        }
        assert_eq!(b.try_recv(), Err(crate::RecvError::Empty));
        assert_eq!(net.stats().link(a.id(), b.id()).msgs_lost, 10);
    }

    #[test]
    fn stats_count_bytes() {
        let net = Network::new(1);
        let a = net.attach("a");
        let b = net.attach("b");
        a.send(b.id(), vec![0; 64]).unwrap();
        a.send(b.id(), vec![0; 36]).unwrap();
        assert_eq!(net.stats().link(a.id(), b.id()).bytes_delivered, 100);
        assert_eq!(net.stats().total_bytes(), 100);
    }

    #[test]
    fn scheduled_script_fires_on_tick_without_sleeps() {
        let ms = VirtualDuration::from_millis;
        let net = Network::new(1);
        let a = net.attach("a");
        let b = net.attach("b");
        net.schedule(crate::FaultScript::new().restart_after(ms(100), ms(400), b.id()));
        assert_eq!(net.pending_faults(), 2);
        // Before the crash instant the node is up.
        net.tick(ms(50));
        assert!(!net.is_crashed(b.id()));
        // Crossing 100ms crashes it; messages are silently dropped.
        net.tick(ms(100));
        assert!(net.is_crashed(b.id()));
        a.send(b.id(), vec![1]).unwrap();
        assert_eq!(b.try_recv(), Err(crate::RecvError::Empty));
        // Crossing 500ms revives it.
        net.tick(ms(400));
        assert!(!net.is_crashed(b.id()));
        a.send(b.id(), vec![2]).unwrap();
        assert_eq!(b.recv_timeout(T).unwrap().payload, vec![2]);
        assert_eq!(net.pending_faults(), 0);
    }

    #[test]
    fn send_virtual_time_drives_the_fault_clock() {
        let ms = VirtualDuration::from_millis;
        let net = Network::new(1);
        let a = net.attach("a");
        let b = net.attach("b");
        let c = net.attach("c");
        net.set_link(a.id(), b.id(), LinkModel::perfect().with_latency(ms(10)));
        net.schedule(crate::FaultScript::new().crash_at(ms(25), c.id()));
        // Round-trip hops between a and b advance virtual time past 25ms;
        // the scheduled crash of c fires from the send path alone, with no
        // explicit tick.
        for _ in 0..3 {
            a.send(b.id(), vec![0]).unwrap();
            let m = b.recv_timeout(T).unwrap();
            b.send(a.id(), m.payload).unwrap();
            let m = a.recv_timeout(T).unwrap();
            a.clock().advance_to(m.deliver_vt);
        }
        assert!(a.now() >= VirtualInstant::ZERO + ms(25));
        assert!(net.is_crashed(c.id()));
        assert!(net.fault_now() >= VirtualInstant::ZERO + ms(25));
    }

    #[test]
    fn scheduled_latency_spike_window_applies_and_restores() {
        let ms = VirtualDuration::from_millis;
        let net = Network::new(1);
        let a = net.attach("a");
        let b = net.attach("b");
        let normal = LinkModel::perfect().with_latency(ms(1));
        net.set_link(a.id(), b.id(), normal.clone());
        net.schedule(crate::FaultScript::new().latency_spike(
            ms(10),
            ms(30),
            a.id(),
            b.id(),
            LinkModel::perfect().with_latency(ms(150)),
            normal,
        ));
        net.tick(ms(10));
        a.send(b.id(), vec![1]).unwrap();
        assert_eq!(b.recv_timeout(T).unwrap().transit(), ms(150));
        net.tick(ms(30));
        a.send(b.id(), vec![2]).unwrap();
        assert_eq!(b.recv_timeout(T).unwrap().transit(), ms(1));
    }

    #[test]
    fn identical_seeds_give_identical_schedules() {
        let run = |seed| {
            let net = Network::new(seed);
            let a = net.attach("a");
            let b = net.attach("b");
            net.set_link(a.id(), b.id(), LinkModel::lan());
            let mut times = Vec::new();
            for _ in 0..20 {
                a.send(b.id(), vec![0; 100]).unwrap();
                times.push(b.recv_timeout(T).unwrap().deliver_vt);
            }
            times
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6)); // jitter differs across seeds
    }

    #[test]
    fn poke_wakes_even_crashed_and_lossy_nodes() {
        let net = Network::new(1);
        let a = net.attach("a");
        // Loss and crash must not eat wakeups: poke bypasses both.
        net.set_link(a.id(), a.id(), LinkModel::perfect().with_loss(1.0));
        net.crash(a.id());
        a.poke();
        let m = a.recv_timeout(T).unwrap();
        assert!(m.is_empty());
        assert_eq!(m.src, a.id());
        assert_eq!(m.dst, a.id());
        assert_eq!(net.stats().total_bytes(), 0, "pokes are not traffic");
    }

    #[test]
    fn concurrent_senders_all_deliver() {
        let net = Network::new(1);
        let recv = net.attach("server");
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let h = net.attach(&format!("c{i}"));
                let dst = recv.id();
                std::thread::spawn(move || {
                    for _ in 0..250 {
                        h.send(dst, vec![i as u8]).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut got = 0;
        while recv.try_recv().is_ok() {
            got += 1;
        }
        assert_eq!(got, 1000);
    }
}
