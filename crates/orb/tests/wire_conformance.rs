//! Backend-agnostic conformance suite for the [`WireTransport`]
//! contract (see `orb::wire` module docs):
//!
//! * per-peer frame ordering while a connection lasts,
//! * `poke()` wakes a blocked `recv()` with an empty frame,
//! * `shutdown()` is idempotent and wakes *every* blocked `recv()`,
//! * multi-megabyte frames round-trip whole,
//! * socket backends reconnect after a peer restart,
//! * the **fault matrix**: every scripted [`WireFault`] × every backend
//!   × both [`BackpressurePolicy`]s yields a typed error or recovery —
//!   never a hung caller or a misdelivered frame,
//! * **failover**: a peer registered with an ordered endpoint list
//!   survives its primary endpoint dying mid-load,
//! * garbage on the stream (oversize/torn length prefixes) kills only
//!   the offending connection,
//! * a stalled-reader peer cannot grow the bounded outbox past its caps,
//! * **simultaneous open**: first frames racing the dial/accept
//!   handshake (both sides at once, three clients on one server, or
//!   three threads of one client) are delivered exactly once.
//!
//! Every property runs against the netsim wrapper and both socket
//! backends (TCP, Unix-domain), so a new backend can be dropped into
//! the battery and inherit it whole. The chaos cases take their seed
//! from `MAQS_CHAOS_SEED` (default 7) and are deterministic per seed.

use netsim::{Network, NodeId};
use orb::wire::fault::{FaultyTransport, WireFault, WireFaultScript};
use orb::wire::{
    BackpressurePolicy, Endpoint, NetSimTransport, TcpTransport, UdsTransport, WireConfig,
    WireError, WireTransport,
};
use orb::{Any, FlightEventKind, Orb, OrbConfig, OrbError, Servant};
use std::io::{Read, Write};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// The seed the chaos cases script their faults from (`MAQS_CHAOS_SEED`,
/// default 7): same seed, same run.
fn chaos_seed() -> u64 {
    std::env::var("MAQS_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(7)
}

/// A connected pair of transports: `a` can reach `b` by node id (and,
/// over sockets, `b` learns the way back from `a`'s hello).
struct Pair {
    a: Arc<dyn WireTransport>,
    b: Arc<dyn WireTransport>,
    // The simulator must outlive netsim-backed handles.
    _net: Option<Network>,
}

fn netsim_pair() -> Pair {
    let net = Network::new(1);
    let a = Arc::new(NetSimTransport::new(net.attach("a")));
    let b = Arc::new(NetSimTransport::new(net.attach("b")));
    Pair { a, b, _net: Some(net) }
}

fn tcp_pair() -> Pair {
    let a = Arc::new(TcpTransport::bind(NodeId(1), "127.0.0.1:0").unwrap());
    let b = Arc::new(TcpTransport::bind(NodeId(2), "127.0.0.1:0").unwrap());
    a.register_peer(b.node(), &[b.local_endpoint()]).unwrap();
    b.register_peer(a.node(), &[WireTransport::local_endpoint(&*a)]).unwrap();
    Pair { a, b, _net: None }
}

fn uds_path(tag: &str) -> String {
    format!("/tmp/maqs-wireconf-{}-{tag}.sock", std::process::id())
}

fn uds_pair(tag: &str) -> Pair {
    let a = Arc::new(UdsTransport::bind(NodeId(1), &uds_path(&format!("{tag}-a"))).unwrap());
    let b = Arc::new(UdsTransport::bind(NodeId(2), &uds_path(&format!("{tag}-b"))).unwrap());
    a.register_peer(b.node(), &[b.local_endpoint()]).unwrap();
    b.register_peer(a.node(), &[WireTransport::local_endpoint(&*a)]).unwrap();
    Pair { a, b, _net: None }
}

// ---------------------------------------------------------------------
// the contract checks, written once
// ---------------------------------------------------------------------

/// 100 numbered frames arrive in send order (pokes filtered out — an
/// empty payload is a wakeup, not traffic).
fn check_ordering(pair: &Pair) {
    for i in 0..100u32 {
        pair.a.send(pair.b.node(), i.to_le_bytes().to_vec()).unwrap();
    }
    let mut got = Vec::with_capacity(100);
    while got.len() < 100 {
        let frame = pair.b.recv().unwrap();
        if frame.payload.is_empty() {
            continue;
        }
        assert_eq!(frame.src, pair.a.node());
        got.push(u32::from_le_bytes(frame.payload[..4].try_into().unwrap()));
    }
    assert_eq!(got, (0..100).collect::<Vec<u32>>());
}

/// `poke()` wakes a blocked `recv()` with an empty frame.
fn check_poke_wakes_blocked_recv(pair: &Pair) {
    let b = Arc::clone(&pair.b);
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(b.recv());
    });
    // Give the receiver a moment to block, then wake it.
    std::thread::sleep(Duration::from_millis(30));
    pair.b.poke();
    let frame = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("poke must wake a blocked recv")
        .unwrap();
    assert!(frame.payload.is_empty(), "a poke is an empty frame");
}

/// `shutdown()` wakes every blocked `recv()` with `Closed`, later
/// `recv()` calls keep failing, and calling it again is harmless.
fn check_shutdown_wakes_all(pair: &Pair) {
    let (tx, rx) = mpsc::channel();
    for _ in 0..3 {
        let b = Arc::clone(&pair.b);
        let tx = tx.clone();
        std::thread::spawn(move || {
            let _ = tx.send(b.recv());
        });
    }
    std::thread::sleep(Duration::from_millis(30));
    pair.b.shutdown();
    for _ in 0..3 {
        let res = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("shutdown must wake every blocked recv");
        assert_eq!(res.unwrap_err(), WireError::Closed);
    }
    assert_eq!(pair.b.recv().unwrap_err(), WireError::Closed);
    assert!(matches!(pair.b.send(pair.a.node(), vec![1]), Err(_) | Ok(_)));
    pair.b.shutdown(); // idempotent
    pair.a.shutdown();
}

/// A multi-megabyte frame arrives whole and byte-identical, both ways.
fn check_large_frame_roundtrip(pair: &Pair) {
    let big: Vec<u8> = (0..4 * 1024 * 1024u32).map(|i| (i % 251) as u8).collect();
    pair.a.send(pair.b.node(), big.clone()).unwrap();
    let frame = pair.b.recv().unwrap();
    assert_eq!(frame.payload.len(), big.len());
    assert_eq!(&frame.payload[..], &big[..]);
    // And back over the reply direction.
    pair.b.send(pair.a.node(), big.clone()).unwrap();
    assert_eq!(&pair.a.recv().unwrap().payload[..], &big[..]);
}

// ---------------------------------------------------------------------
// the battery, per backend
// ---------------------------------------------------------------------

#[test]
fn netsim_backend_meets_contract() {
    check_ordering(&netsim_pair());
    check_poke_wakes_blocked_recv(&netsim_pair());
    check_shutdown_wakes_all(&netsim_pair());
    check_large_frame_roundtrip(&netsim_pair());
}

#[test]
fn tcp_backend_meets_contract() {
    check_ordering(&tcp_pair());
    check_poke_wakes_blocked_recv(&tcp_pair());
    check_shutdown_wakes_all(&tcp_pair());
    check_large_frame_roundtrip(&tcp_pair());
}

#[test]
fn uds_backend_meets_contract() {
    check_ordering(&uds_pair("order"));
    check_poke_wakes_blocked_recv(&uds_pair("poke"));
    check_shutdown_wakes_all(&uds_pair("shut"));
    check_large_frame_roundtrip(&uds_pair("large"));
}

// ---------------------------------------------------------------------
// reconnect after a peer restart (socket backends)
// ---------------------------------------------------------------------

/// Wait (bounded) until one non-poke frame lands on `t`, retrying the
/// send: right after a peer restart the sender may still hold a pooled
/// connection to the dead incarnation, and the first write's failure is
/// what triggers the redial.
fn pump_until_delivered(sender: &Arc<dyn WireTransport>, receiver: &Arc<dyn WireTransport>) -> Vec<u8> {
    let (tx, rx) = mpsc::channel();
    let receiver = Arc::clone(receiver);
    std::thread::spawn(move || loop {
        match receiver.recv() {
            Ok(f) if f.payload.is_empty() => continue,
            other => {
                let _ = tx.send(other);
                break;
            }
        }
    });
    for _ in 0..100 {
        let _ = sender.send(NodeId(2), b"after-restart".to_vec());
        if let Ok(res) = rx.recv_timeout(Duration::from_millis(50)) {
            return res.unwrap().payload.to_vec();
        }
    }
    panic!("frame never delivered after peer restart");
}

#[test]
fn tcp_reconnects_after_peer_restart() {
    // A restarted TCP peer comes back on a fresh port (no SO_REUSEADDR
    // in std); re-registering the new endpoint drops the stale pooled
    // connection, so the next send redials.
    let pair = tcp_pair();
    pair.a.send(pair.b.node(), vec![1]).unwrap();
    assert_eq!(&pair.b.recv().unwrap().payload[..], &[1]);
    pair.b.shutdown();
    let b2: Arc<dyn WireTransport> =
        Arc::new(TcpTransport::bind(NodeId(2), "127.0.0.1:0").unwrap());
    pair.a.register_peer(NodeId(2), &[b2.local_endpoint()]).unwrap();
    assert_eq!(pump_until_delivered(&pair.a, &b2), b"after-restart");
    pair.a.shutdown();
    b2.shutdown();
}

#[test]
fn uds_reconnects_after_peer_restart_same_path() {
    // A Unix-socket peer restarts on the *same* path (bind reaps the
    // stale file); no re-registration needed — the failed write on the
    // dead pooled connection triggers the redial to the new listener.
    let path_b = uds_path("restart-b");
    let a: Arc<dyn WireTransport> =
        Arc::new(UdsTransport::bind(NodeId(1), &uds_path("restart-a")).unwrap());
    let b: Arc<dyn WireTransport> = Arc::new(UdsTransport::bind(NodeId(2), &path_b).unwrap());
    a.register_peer(NodeId(2), &[b.local_endpoint()]).unwrap();
    a.send(NodeId(2), vec![1]).unwrap();
    assert_eq!(&b.recv().unwrap().payload[..], &[1]);
    b.shutdown();
    let b2: Arc<dyn WireTransport> = Arc::new(UdsTransport::bind(NodeId(2), &path_b).unwrap());
    assert_eq!(pump_until_delivered(&a, &b2), b"after-restart");
    a.shutdown();
    b2.shutdown();
}

// ---------------------------------------------------------------------
// a full ORB invocation over real sockets
// ---------------------------------------------------------------------

struct Echo;
impl Servant for Echo {
    fn interface_id(&self) -> &str {
        "IDL:Echo:1.0"
    }
    fn dispatch(&self, op: &str, args: &[Any]) -> Result<Any, OrbError> {
        match op {
            "echo" => Ok(args[0].clone()),
            _ => Err(OrbError::BadOperation(op.to_string())),
        }
    }
}

#[test]
fn socket_backed_orbs_invoke_end_to_end() {
    let wire_s: Arc<dyn WireTransport> =
        Arc::new(TcpTransport::bind(NodeId(10), "127.0.0.1:0").unwrap());
    let wire_c: Arc<dyn WireTransport> =
        Arc::new(TcpTransport::bind(NodeId(11), "127.0.0.1:0").unwrap());
    let server = Orb::start_wire(wire_s, "tcp-server", OrbConfig::default());
    let client = Orb::start_wire(wire_c, "tcp-client", OrbConfig::default());
    assert!(!server.is_sim_backed());

    // The IOR carries the server's listener as a tagged profile; the
    // client's invoke registers it automatically, so no out-of-band
    // address book is needed.
    let ior = server.activate("echo", Box::new(Echo));
    assert!(matches!(ior.endpoint(), Some(Endpoint::Tcp(_))));

    let reply = client.invoke(&ior, "echo", &[Any::from("over real tcp")]).unwrap();
    assert_eq!(reply.as_str(), Some("over real tcp"));

    // A second call reuses the pooled connection.
    let reply = client.invoke(&ior, "echo", &[Any::LongLong(7)]).unwrap();
    assert_eq!(reply.as_i64(), Some(7));

    server.shutdown();
    client.shutdown();
}

// ---------------------------------------------------------------------
// the fault matrix: every fault × every backend × both policies
// ---------------------------------------------------------------------

fn tcp_pair_with(config: WireConfig) -> Pair {
    let a = Arc::new(TcpTransport::bind_with(NodeId(1), "127.0.0.1:0", config.clone()).unwrap());
    let b = Arc::new(TcpTransport::bind_with(NodeId(2), "127.0.0.1:0", config).unwrap());
    a.register_peer(b.node(), &[b.local_endpoint()]).unwrap();
    b.register_peer(a.node(), &[WireTransport::local_endpoint(&*a)]).unwrap();
    Pair { a, b, _net: None }
}

fn uds_pair_with(tag: &str, config: WireConfig) -> Pair {
    let a = Arc::new(
        UdsTransport::bind_with(NodeId(1), &uds_path(&format!("{tag}-a")), config.clone()).unwrap(),
    );
    let b =
        Arc::new(UdsTransport::bind_with(NodeId(2), &uds_path(&format!("{tag}-b")), config).unwrap());
    a.register_peer(b.node(), &[b.local_endpoint()]).unwrap();
    b.register_peer(a.node(), &[WireTransport::local_endpoint(&*a)]).unwrap();
    Pair { a, b, _net: None }
}

/// Drain `t` into a channel from a background thread, poke frames
/// filtered out; the thread exits when the transport closes.
fn spawn_collector(t: &Arc<dyn WireTransport>) -> mpsc::Receiver<Vec<u8>> {
    let (tx, rx) = mpsc::channel();
    let t = Arc::clone(t);
    std::thread::spawn(move || loop {
        match t.recv() {
            Ok(f) if f.payload.is_empty() => continue,
            Ok(f) => {
                if tx.send(f.payload.to_vec()).is_err() {
                    break;
                }
            }
            Err(_) => break,
        }
    });
    rx
}

/// One cell of the fault matrix: wrap `pair.a` in a [`FaultyTransport`]
/// scripted to inject `fault` on exactly send #2, push five frames
/// through, and check the contract — every send returns promptly with
/// `Ok` or a *typed* error, the delivered sequence is exactly what the
/// fault semantics predict (no misdelivery, no reorder, no phantom
/// frames), and the transport still works afterwards.
fn check_fault_cell(pair: Pair, fault: WireFault) {
    let dst = pair.b.node();
    let script = WireFaultScript::seeded(chaos_seed()).on_send(2, fault);
    let faulty = FaultyTransport::new(Arc::clone(&pair.a), script);
    let inbox = spawn_collector(&pair.b);

    let sent: Vec<Vec<u8>> = (1..=5u8).map(|i| vec![i; 8]).collect();
    let mut typed_errors = 0;
    for frame in &sent {
        let started = Instant::now();
        let res = faulty.send(dst, frame.clone());
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "send hung under {fault:?} ({:?} elapsed)",
            started.elapsed()
        );
        match res {
            Ok(()) => {}
            Err(
                WireError::Unreachable(_)
                | WireError::Io(_)
                | WireError::Backpressure(_)
                | WireError::Frame(_),
            ) => typed_errors += 1,
            Err(other) => panic!("untyped failure under {fault:?}: {other}"),
        }
    }
    assert_eq!(faulty.injected(), 1, "exactly one fault must fire");

    // What the receiver must see, exactly, in order.
    let expect: Vec<Vec<u8>> = match fault {
        // The faulted send never reaches the backend.
        WireFault::DialRefused | WireFault::ConnReset | WireFault::DropFrame => {
            vec![sent[0].clone(), sent[1].clone(), sent[3].clone(), sent[4].clone()]
        }
        // The faulted frame arrives torn in half, detectably short.
        WireFault::TornFrame => vec![
            sent[0].clone(),
            sent[1].clone(),
            sent[2][..4].to_vec(),
            sent[3].clone(),
            sent[4].clone(),
        ],
        // Delayed, not lost.
        WireFault::SlowDrip(_) => sent.clone(),
    };
    let expect_errors =
        matches!(fault, WireFault::DialRefused | WireFault::ConnReset) as usize;
    assert_eq!(typed_errors, expect_errors, "wrong error count under {fault:?}");

    let mut got = Vec::new();
    while got.len() < expect.len() {
        match inbox.recv_timeout(Duration::from_secs(3)) {
            Ok(frame) => got.push(frame),
            Err(_) => panic!("only {}/{} frames arrived under {fault:?}", got.len(), expect.len()),
        }
    }
    assert_eq!(got, expect, "delivered sequence wrong under {fault:?}");

    // Recovery: the transport must still carry traffic after the fault.
    faulty.send(dst, b"recovery".to_vec()).unwrap();
    assert_eq!(
        inbox.recv_timeout(Duration::from_secs(3)).expect("no recovery frame after fault"),
        b"recovery".to_vec()
    );

    faulty.shutdown();
    pair.b.shutdown();
}

/// All faults × both backpressure policies against one backend family.
fn run_fault_matrix(make: &dyn Fn(BackpressurePolicy, &str) -> Pair) {
    let policies = [
        ("block", BackpressurePolicy::Block { deadline: Duration::from_millis(500) }),
        ("shed", BackpressurePolicy::Shed),
    ];
    let faults = [
        ("refuse", WireFault::DialRefused),
        ("reset", WireFault::ConnReset),
        ("torn", WireFault::TornFrame),
        ("drop", WireFault::DropFrame),
        ("drip", WireFault::SlowDrip(Duration::from_millis(25))),
    ];
    for (pname, policy) in policies {
        for (fname, fault) in faults {
            check_fault_cell(make(policy, &format!("{pname}-{fname}")), fault);
        }
    }
}

#[test]
fn fault_matrix_netsim() {
    // The simulator backend has no outbox config; the policy dimension
    // degenerates but the fault semantics must hold identically.
    run_fault_matrix(&|_policy, _tag| netsim_pair());
}

#[test]
fn fault_matrix_tcp() {
    run_fault_matrix(&|policy, _tag| {
        tcp_pair_with(WireConfig { backpressure: policy, ..WireConfig::default() })
    });
}

#[test]
fn fault_matrix_uds() {
    run_fault_matrix(&|policy, tag| {
        uds_pair_with(&format!("fm-{tag}"), WireConfig {
            backpressure: policy,
            ..WireConfig::default()
        })
    });
}

/// Seeded probabilistic chaos: under `MAQS_CHAOS_SEED`, random silent
/// drops are injected; exactly the non-dropped frames arrive, in order.
#[test]
fn fault_chaos_probabilistic_drops_are_seed_deterministic() {
    let pair = netsim_pair();
    let dst = pair.b.node();
    let script =
        WireFaultScript::seeded(chaos_seed()).with_probability(300, WireFault::DropFrame);
    let faulty = FaultyTransport::new(Arc::clone(&pair.a), script);
    let inbox = spawn_collector(&pair.b);
    for i in 0..50u32 {
        faulty.send(dst, i.to_le_bytes().to_vec()).unwrap();
    }
    let survivors = 50 - faulty.injected() as usize;
    assert!(faulty.injected() > 0, "p=0.3 over 50 sends must drop something");
    assert!(survivors > 0, "p=0.3 over 50 sends must deliver something");
    let mut got = Vec::new();
    while got.len() < survivors {
        got.push(
            u32::from_le_bytes(
                inbox
                    .recv_timeout(Duration::from_secs(3))
                    .expect("surviving frame missing")[..4]
                    .try_into()
                    .unwrap(),
            ),
        );
    }
    let mut sorted = got.clone();
    sorted.sort_unstable();
    assert_eq!(got, sorted, "survivors must keep send order");
    faulty.shutdown();
    pair.b.shutdown();
}

// ---------------------------------------------------------------------
// multi-endpoint failover
// ---------------------------------------------------------------------

/// A client with an ordered two-endpoint route survives the primary
/// endpoint dying mid-load: the writer's redial walks to the secondary,
/// queued frames follow it, and nothing is misdelivered — every frame
/// that arrives anywhere is one we sent, at most twice (the documented
/// at-most-once retry window for the single in-flight frame).
#[test]
fn fault_tcp_failover_survives_primary_death_mid_load() {
    let a = Arc::new(TcpTransport::bind(NodeId(1), "127.0.0.1:0").unwrap());
    let b1: Arc<dyn WireTransport> =
        Arc::new(TcpTransport::bind(NodeId(2), "127.0.0.1:0").unwrap());
    let b2: Arc<dyn WireTransport> =
        Arc::new(TcpTransport::bind(NodeId(2), "127.0.0.1:0").unwrap());
    a.register_peer(NodeId(2), &[b1.local_endpoint(), b2.local_endpoint()]).unwrap();
    let inbox1 = spawn_collector(&b1);
    let inbox2 = spawn_collector(&b2);

    // Block-policy sends may surface Backpressure or Io while the
    // writer is mid-redial; both are typed, retryable outcomes — retry.
    let send_one = |i: u32| {
        let frame = i.to_le_bytes().to_vec();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match a.send(NodeId(2), frame.clone()) {
                Ok(()) => return,
                Err(WireError::Backpressure(_)) | Err(WireError::Io(_))
                    if Instant::now() < deadline =>
                {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(other) => panic!("send {i} failed hard: {other}"),
            }
        }
    };

    // Burst some load, killing the primary mid-stream. Tiny frames can
    // all land in the dead socket's kernel buffer before its RST comes
    // back, so the burst alone may not trip the writer — that is why
    // the trickle phase below keeps talking, like a real client would.
    let mut next: u32 = 0;
    while next < 120 {
        if next == 40 {
            b1.shutdown(); // primary dies mid-load
        }
        send_one(next);
        next += 1;
    }

    // Keep a trickle going until the failover lands traffic on the
    // secondary; every write into the dead socket brings the RST (and
    // with it the redial walk) closer.
    let mut seen: Vec<u32> = Vec::new();
    let mut on_secondary = 0usize;
    let deadline = Instant::now() + Duration::from_secs(15);
    while on_secondary == 0 {
        assert!(
            Instant::now() < deadline,
            "no frame ever reached the secondary endpoint ({} delivered to the primary)",
            seen.len()
        );
        send_one(next);
        next += 1;
        while let Ok(f) = inbox1.recv_timeout(Duration::from_millis(5)) {
            seen.push(u32::from_le_bytes(f[..4].try_into().unwrap()));
        }
        while let Ok(f) = inbox2.recv_timeout(Duration::from_millis(5)) {
            on_secondary += 1;
            seen.push(u32::from_le_bytes(f[..4].try_into().unwrap()));
        }
    }

    // Zero misdelivery: everything seen is something we sent, at most
    // twice (the one ambiguous in-flight frame may be retried).
    for &v in &seen {
        assert!(v < next, "phantom frame {v}");
        let copies = seen.iter().filter(|&&x| x == v).count();
        assert!(copies <= 2, "frame {v} delivered {copies} times");
    }
    a.shutdown();
    b2.shutdown();
}

/// The same failover at full ORB level: two server ORBs share a node
/// identity and servant, the client's IOR lists both endpoints, and the
/// primary dies mid-run. Every reply that comes back must match its own
/// request (zero misdelivered replies), and calls keep succeeding after
/// the death.
#[test]
fn fault_orb_failover_survives_primary_death_mid_load() {
    let wire1: Arc<dyn WireTransport> =
        Arc::new(TcpTransport::bind(NodeId(20), "127.0.0.1:0").unwrap());
    let wire2: Arc<dyn WireTransport> =
        Arc::new(TcpTransport::bind(NodeId(20), "127.0.0.1:0").unwrap());
    let wire_c: Arc<dyn WireTransport> =
        Arc::new(TcpTransport::bind(NodeId(21), "127.0.0.1:0").unwrap());
    let server1 = Orb::start_wire(wire1, "primary", OrbConfig::default());
    let server2 = Orb::start_wire(wire2, "secondary", OrbConfig::default());
    let client = Orb::start_wire(
        wire_c,
        "failover-client",
        OrbConfig { request_timeout: Duration::from_millis(1500), ..OrbConfig::default() },
    );

    let ior1 = server1.activate("echo", Box::new(Echo));
    let ior2 = server2.activate("echo", Box::new(Echo));
    // One reference, both endpoints, primary first.
    let ior = ior1.clone().with_endpoints(ior2.endpoints.iter().cloned());
    assert_eq!(ior.endpoints.len(), 2);

    let mut ok_after_death = 0;
    for i in 0..30i64 {
        if i == 10 {
            server1.shutdown();
        }
        match client.invoke(&ior, "echo", &[Any::LongLong(i)]) {
            // Zero misdelivery: a reply must answer its own request.
            Ok(reply) => {
                assert_eq!(reply.as_i64(), Some(i), "reply for call {i} answered something else");
                if i >= 10 {
                    ok_after_death += 1;
                }
            }
            // The transition window may time out or surface a comm
            // failure; both are typed and retryable, never wrong data.
            Err(OrbError::Timeout(_) | OrbError::CommFailure(_) | OrbError::Transient(_)) => {}
            Err(other) => panic!("call {i} failed with untyped error: {other}"),
        }
    }
    assert!(ok_after_death > 0, "no call ever succeeded after the primary died");

    client.shutdown();
    server2.shutdown();
}

/// A dialer whose hello arrives after `shutdown()` is hung up on. The
/// hello is read off the accept thread and can finish after shutdown
/// drained the pool; pooling the stream then left a connection nobody
/// ever closes, and the dialer kept writing into a dead transport
/// instead of failing over (the failover case above failed that way
/// about once in fifty runs on a loaded box).
#[test]
fn fault_hello_after_shutdown_is_hung_up_on() {
    let dying = TcpTransport::bind(NodeId(2), "127.0.0.1:0").unwrap();
    let Endpoint::Tcp(addr) = WireTransport::local_endpoint(&dying) else { panic!("tcp endpoint") };
    let mut dialer = std::net::TcpStream::connect(&addr).unwrap();
    // Let the accept thread hand the silent stream to its hello reader
    // (if it has not yet, shutdown drops the stream: same outcome).
    std::thread::sleep(Duration::from_millis(50));
    dying.shutdown();
    dialer.write_all(b"MAQW\x01\x01\0\0\0").unwrap();
    dialer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    match dialer.read(&mut [0u8; 1]) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("stream still open after shutdown: {other:?}"),
    }
}

// ---------------------------------------------------------------------
// garbage on the stream: typed frame errors kill only one connection
// ---------------------------------------------------------------------

/// A peer speaking a valid hello and then garbage — an oversize length
/// prefix, or a frame torn mid-body — triggers a typed frame error
/// that kills *that* connection only; the transport keeps serving and
/// counts the violation.
#[test]
fn fault_garbage_frames_kill_only_their_connection() {
    let victim = Arc::new(TcpTransport::bind(NodeId(1), "127.0.0.1:0").unwrap());
    let addr = match WireTransport::local_endpoint(&*victim) {
        Endpoint::Tcp(addr) => addr,
        other => panic!("expected tcp endpoint, got {other}"),
    };
    let hello = |node: u32| {
        let mut h = Vec::with_capacity(9);
        h.extend_from_slice(b"MAQW");
        h.push(1);
        h.extend_from_slice(&node.to_le_bytes());
        h
    };

    // Oversize length prefix: 4 GiB-1 is far over the 64 MiB frame cap.
    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    s.write_all(&hello(99)).unwrap();
    s.write_all(&u32::MAX.to_le_bytes()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while victim.frame_errors() < 1 {
        assert!(Instant::now() < deadline, "oversize prefix never became a frame error");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Torn frame: a 100-byte body promised, 10 delivered, then EOF.
    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    s.write_all(&hello(98)).unwrap();
    s.write_all(&100u32.to_le_bytes()).unwrap();
    s.write_all(&[0u8; 10]).unwrap();
    drop(s);
    let deadline = Instant::now() + Duration::from_secs(5);
    while victim.frame_errors() < 2 {
        assert!(Instant::now() < deadline, "torn body never became a frame error");
        std::thread::sleep(Duration::from_millis(10));
    }

    // The transport survives both: a healthy peer still gets through.
    let peer: Arc<dyn WireTransport> =
        Arc::new(TcpTransport::bind(NodeId(2), "127.0.0.1:0").unwrap());
    peer.register_peer(NodeId(1), &[WireTransport::local_endpoint(&*victim)]).unwrap();
    peer.send(NodeId(1), b"still alive".to_vec()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        assert!(Instant::now() < deadline, "healthy peer blocked after garbage");
        let f = victim.recv().unwrap();
        if &f.payload[..] == b"still alive" {
            break;
        }
    }
    victim.shutdown();
    peer.shutdown();
}

// ---------------------------------------------------------------------
// bounded outbox vs a stalled reader
// ---------------------------------------------------------------------

/// A peer that accepts the connection and never reads cannot grow the
/// sender's memory: once the socket buffer and the bounded outbox fill,
/// Block-policy sends fail the deadline with a typed error and the
/// outbox stays at its caps.
#[test]
fn fault_stalled_reader_holds_outbox_memory_flat() {
    let config = WireConfig {
        outbox_frames: 4,
        outbox_bytes: 256 * 1024,
        backpressure: BackpressurePolicy::Block { deadline: Duration::from_millis(200) },
    };
    let a = Arc::new(TcpTransport::bind_with(NodeId(1), "127.0.0.1:0", config).unwrap());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let stalled = std::thread::spawn(move || {
        // Accept, then sit on the stream without reading a byte.
        let conn = listener.accept().map(|(s, _)| s);
        std::thread::sleep(Duration::from_secs(6));
        drop(conn);
    });
    a.register_peer(NodeId(2), &[Endpoint::Tcp(addr)]).unwrap();

    // Loopback kernel buffers can absorb several megabytes before the
    // writer stalls; push enough 64 KiB frames to fill them AND the
    // 4-frame outbox. Only blocked sends cost wall time (200 ms each).
    let mut backpressured = 0;
    let overall = Instant::now() + Duration::from_secs(8);
    for _ in 0..4096 {
        let started = Instant::now();
        match a.send(NodeId(2), vec![0u8; 64 * 1024]) {
            Ok(()) => {}
            Err(WireError::Backpressure(_)) => {
                backpressured += 1;
                // The block deadline bounds the stall; give scheduling
                // slack but not much.
                assert!(
                    started.elapsed() < Duration::from_secs(2),
                    "blocked send overshot its deadline"
                );
                if backpressured >= 3 {
                    break;
                }
            }
            Err(other) => panic!("expected backpressure, got {other}"),
        }
        let (frames, bytes) = a.outbox_depth(NodeId(2));
        assert!(frames <= 4, "outbox frames past cap: {frames}");
        assert!(bytes <= 256 * 1024, "outbox bytes past cap: {bytes}");
        assert!(Instant::now() < overall, "stalled-reader loop ran away");
    }
    assert!(backpressured >= 3, "stalled reader never triggered backpressure");
    let (frames, bytes) = a.outbox_depth(NodeId(2));
    assert!(frames <= 4 && bytes <= 256 * 1024, "outbox grew past its caps");
    a.shutdown();
    let _ = stalled.join();
}

// ---------------------------------------------------------------------
// wire lifecycle events land in the flight recorder
// ---------------------------------------------------------------------

/// Starting an ORB attaches its flight recorder to the wire; after an
/// injected fault and a peer death, `flight_tail` shows the wire's own
/// story: the dial, the injected fault tick, the reset and the redial
/// attempts.
#[test]
fn fault_wire_lifecycle_events_reach_flight_tail() {
    let wire_s: Arc<dyn WireTransport> =
        Arc::new(TcpTransport::bind(NodeId(30), "127.0.0.1:0").unwrap());
    let server = Orb::start_wire(wire_s, "flight-server", OrbConfig::default());
    let ior = server.activate("echo", Box::new(Echo));

    let inner = Arc::new(TcpTransport::bind(NodeId(31), "127.0.0.1:0").unwrap());
    let script = WireFaultScript::seeded(chaos_seed()).on_send(1, WireFault::ConnReset);
    let faulty: Arc<dyn WireTransport> = Arc::new(FaultyTransport::new(inner, script));
    let client = Orb::start_wire(
        faulty,
        "flight-client",
        OrbConfig { request_timeout: Duration::from_millis(800), ..OrbConfig::default() },
    );

    // Call 1 dials; call 2 hits the injected mid-frame reset.
    assert!(client.invoke(&ior, "echo", &[Any::LongLong(1)]).is_ok());
    assert!(client.invoke(&ior, "echo", &[Any::LongLong(2)]).is_err());

    let flight = client.flight();
    assert!(flight.count(FlightEventKind::WireDial) > 0, "dial not recorded");
    assert!(flight.count(FlightEventKind::FaultTick) > 0, "injected fault not recorded");

    // Kill the server; the writer's failed send must leave a conn-reset
    // and backoff-annotated redial attempts in the ring.
    server.shutdown();
    let deadline = Instant::now() + Duration::from_secs(15);
    while flight.count(FlightEventKind::WireConnReset) == 0
        || flight.count(FlightEventKind::WireRedial) == 0
    {
        assert!(
            Instant::now() < deadline,
            "conn-reset/redial never reached the flight ring (resets {}, redials {})",
            flight.count(FlightEventKind::WireConnReset),
            flight.count(FlightEventKind::WireRedial),
        );
        let _ = client.invoke(&ior, "echo", &[Any::LongLong(9)]);
    }

    // And the events carry the wire layer tag in the visible tail.
    let tail = flight.tail(256);
    assert!(
        tail.iter().any(|e| matches!(
            e.kind,
            FlightEventKind::WireDial
                | FlightEventKind::WireRedial
                | FlightEventKind::WireConnReset
        )),
        "no wire lifecycle event in the tail"
    );
    client.shutdown();
}

// ---------------------------------------------------------------------
// simultaneous open: first frames race the connection setup
// ---------------------------------------------------------------------

/// Rounds per simultaneous-open case; every round binds fresh
/// transports, so each one replays the dial/accept race from scratch.
const OPEN_ROUNDS: u8 = 100;

/// A fresh socket transport for `node` in simultaneous-open round `round`.
fn open_transport(tcp: bool, case: &str, round: u8, node: u32) -> Arc<dyn WireTransport> {
    if tcp {
        Arc::new(TcpTransport::bind(NodeId(node), "127.0.0.1:0").unwrap())
    } else {
        let path = uds_path(&format!("open-{case}-{round}-{node}"));
        Arc::new(UdsTransport::bind(NodeId(node), &path).unwrap())
    }
}

/// Every frame of `want` arrives on `rx` (bounded wait, any order — the
/// racing frames may ride different connections) and nothing else does.
fn expect_frames(rx: &mpsc::Receiver<Vec<u8>>, mut want: Vec<Vec<u8>>, what: &str) {
    while !want.is_empty() {
        let got = rx
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("{what}: frames lost: {want:?}"));
        let at = want
            .iter()
            .position(|w| *w == got)
            .unwrap_or_else(|| panic!("{what}: duplicate or foreign frame {got:?}"));
        want.swap_remove(at);
    }
}

/// After shutdown the collector thread exits and closes `rx`; whatever
/// is still queued was delivered beyond the expected set.
fn expect_no_extras(rx: mpsc::Receiver<Vec<u8>>, what: &str) {
    let extras: Vec<Vec<u8>> = rx.iter().collect();
    assert!(extras.is_empty(), "{what}: delivered more than once: {extras:?}");
}

/// Case (a): A and B know each other and both send their first frames
/// at the same instant, so each side's dial races the other's hello.
/// Every frame sent is received exactly once.
fn check_simultaneous_open_pair(tcp: bool) {
    for round in 0..OPEN_ROUNDS {
        let a = open_transport(tcp, "pair", round, 1);
        let b = open_transport(tcp, "pair", round, 2);
        a.register_peer(b.node(), &[b.local_endpoint()]).unwrap();
        b.register_peer(a.node(), &[a.local_endpoint()]).unwrap();
        let (rx_a, rx_b) = (spawn_collector(&a), spawn_collector(&b));
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            for (from, to, tag) in [(&a, &b, b'a'), (&b, &a, b'b')] {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    for seq in 0..3u8 {
                        from.send(to.node(), vec![tag, round, seq]).unwrap();
                    }
                });
            }
        });
        let sent_by = |tag: u8| (0..3u8).map(|seq| vec![tag, round, seq]).collect::<Vec<_>>();
        expect_frames(&rx_b, sent_by(b'a'), &format!("round {round}, a -> b"));
        expect_frames(&rx_a, sent_by(b'b'), &format!("round {round}, b -> a"));
        a.shutdown();
        b.shutdown();
        expect_no_extras(rx_a, &format!("round {round}, at a"));
        expect_no_extras(rx_b, &format!("round {round}, at b"));
    }
}

/// Case (b): three callers send their first frame to one server at the
/// same instant and each receives the server's answer over whichever
/// connection the server pooled last (it registers nobody). Either each
/// caller is a client transport of its own, or — `shared`, the shape the
/// benchmark's warm-up runs — all three are threads of **one** client,
/// so three dials race for one pool slot.
fn check_simultaneous_open_fan_in(tcp: bool, shared: bool) {
    let case = if shared { "shared" } else { "fanin" };
    for round in 0..OPEN_ROUNDS {
        let server = open_transport(tcp, case, round, 9);
        let clients: Vec<Arc<dyn WireTransport>> = (1..=if shared { 1 } else { 3 })
            .map(|node| open_transport(tcp, case, round, node))
            .collect();
        let client_of = |caller: u8| &clients[usize::from(caller) % clients.len()];
        for client in &clients {
            client.register_peer(server.node(), &[server.local_endpoint()]).unwrap();
        }
        let rx_server = spawn_collector(&server);
        let rx_clients: Vec<_> = clients.iter().map(spawn_collector).collect();
        let barrier = Barrier::new(3);
        std::thread::scope(|s| {
            for caller in 0..3u8 {
                let (barrier, server, client) = (&barrier, &server, client_of(caller));
                s.spawn(move || {
                    barrier.wait();
                    client.send(server.node(), vec![caller, round]).unwrap();
                });
            }
        });
        for _ in 0..3 {
            let first = rx_server
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("round {round}: a caller's first frame was lost"));
            assert_eq!(first[1], round);
            server.send(client_of(first[0]).node(), vec![b'!', first[0], round]).unwrap();
        }
        for (at, rx) in rx_clients.iter().enumerate() {
            let answers = (0..3u8)
                .filter(|caller| usize::from(*caller) % clients.len() == at)
                .map(|caller| vec![b'!', caller, round])
                .collect();
            expect_frames(rx, answers, &format!("round {round}, answers at client {at}"));
        }
        server.shutdown();
        clients.iter().for_each(|c| c.shutdown());
        expect_no_extras(rx_server, &format!("round {round}, at the server"));
        for rx in rx_clients {
            expect_no_extras(rx, &format!("round {round}, at a client"));
        }
    }
}

#[test]
fn tcp_simultaneous_open_pair_loses_no_frame() {
    check_simultaneous_open_pair(true);
}

#[test]
fn uds_simultaneous_open_pair_loses_no_frame() {
    check_simultaneous_open_pair(false);
}

#[test]
fn tcp_simultaneous_open_fan_in_loses_no_frame() {
    check_simultaneous_open_fan_in(true, false);
    check_simultaneous_open_fan_in(true, true);
}

#[test]
fn uds_simultaneous_open_fan_in_loses_no_frame() {
    check_simultaneous_open_fan_in(false, false);
    check_simultaneous_open_fan_in(false, true);
}
