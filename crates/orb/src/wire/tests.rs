use super::*;
use std::net::{TcpListener, TcpStream};

#[test]
fn endpoint_display_parse_roundtrip() {
    for ep in [
        Endpoint::Sim(NodeId(3)),
        Endpoint::Tcp("127.0.0.1:9443".to_string()),
        Endpoint::Uds("/tmp/maqs.sock".to_string()),
    ] {
        assert_eq!(Endpoint::parse(&ep.to_string()).unwrap(), ep);
    }
    assert!(Endpoint::parse("ftp:nope").is_err());
    assert!(Endpoint::parse("sim:notanum").is_err());
    assert!(Endpoint::parse("tcp:").is_err());
}

#[test]
fn endpoint_cdr_roundtrip() {
    let eps = vec![
        Endpoint::Sim(NodeId(7)),
        Endpoint::Tcp("localhost:1".to_string()),
        Endpoint::Uds("/x".to_string()),
    ];
    let mut enc = CdrEncoder::new();
    for e in &eps {
        e.encode(&mut enc);
    }
    let bytes = enc.into_bytes();
    let mut dec = CdrDecoder::new(&bytes);
    for e in &eps {
        assert_eq!(&Endpoint::decode(&mut dec).unwrap(), e);
    }
}

#[test]
fn wire_error_maps_to_orb_error() {
    assert_eq!(OrbError::from(WireError::Closed), OrbError::Shutdown);
    assert!(matches!(
        OrbError::from(WireError::Unreachable("x".into())),
        OrbError::CommFailure(_)
    ));
    assert!(matches!(
        OrbError::from(WireError::Backpressure("full".into())),
        OrbError::Transient(_)
    ));
    assert!(matches!(OrbError::from(WireError::Frame("torn".into())), OrbError::CommFailure(_)));
}

#[test]
fn netsim_transport_roundtrip_and_poke() {
    let net = ::netsim::Network::new(1);
    let a = NetSimTransport::new(net.attach("a"));
    let b = NetSimTransport::new(net.attach("b"));
    a.send(b.node(), vec![1, 2, 3]).unwrap();
    let f = b.recv().unwrap();
    assert_eq!(f.src, a.node());
    assert_eq!(&f.payload[..], &[1, 2, 3]);
    b.poke();
    assert!(b.recv().unwrap().payload.is_empty());
    b.shutdown();
    assert_eq!(b.recv().unwrap_err(), WireError::Closed);
}

#[test]
fn tcp_transport_roundtrip() {
    let a = TcpTransport::bind(NodeId(1), "127.0.0.1:0").unwrap();
    let b = TcpTransport::bind(NodeId(2), "127.0.0.1:0").unwrap();
    a.register_peer(NodeId(2), &[b.local_endpoint()]).unwrap();
    a.send(NodeId(2), vec![9, 9, 9]).unwrap();
    let f = b.recv().unwrap();
    assert_eq!(f.src, NodeId(1));
    assert_eq!(&f.payload[..], &[9, 9, 9]);
    // The reply direction reuses the pooled hello'd connection —
    // b never registered a for this to work.
    b.send(NodeId(1), vec![7]).unwrap();
    assert_eq!(&a.recv().unwrap().payload[..], &[7]);
    a.shutdown();
    b.shutdown();
}

#[test]
fn send_to_unregistered_peer_is_unreachable() {
    let a = TcpTransport::bind(NodeId(1), "127.0.0.1:0").unwrap();
    assert!(matches!(a.send(NodeId(99), vec![1]), Err(WireError::Unreachable(_))));
    a.shutdown();
}

#[test]
fn register_keeps_conn_for_same_endpoints_but_evicts_on_change() {
    let a = TcpTransport::bind(NodeId(1), "127.0.0.1:0").unwrap();
    let b = TcpTransport::bind(NodeId(2), "127.0.0.1:0").unwrap();
    let eps = [b.local_endpoint()];
    a.register_peer(NodeId(2), &eps).unwrap();
    a.send(NodeId(2), vec![1]).unwrap();
    assert_eq!(&b.recv().unwrap().payload[..], &[1]);
    // Same list again: the pooled connection must survive (this is
    // the per-invoke path — evicting here would kill pooling).
    a.register_peer(NodeId(2), &eps).unwrap();
    assert_eq!(a.peer_health(), vec![(NodeId(2), ConnHealth::Up)]);
    // A different list evicts.
    let c = TcpTransport::bind(NodeId(2), "127.0.0.1:0").unwrap();
    a.register_peer(NodeId(2), &[c.local_endpoint()]).unwrap();
    a.send(NodeId(2), vec![2]).unwrap();
    assert_eq!(&c.recv().unwrap().payload[..], &[2]);
    a.shutdown();
    b.shutdown();
    c.shutdown();
}

#[test]
fn health_reports_up_after_dial() {
    let a = TcpTransport::bind(NodeId(1), "127.0.0.1:0").unwrap();
    let b = TcpTransport::bind(NodeId(2), "127.0.0.1:0").unwrap();
    assert!(a.peer_health().is_empty());
    a.register_peer(NodeId(2), &[b.local_endpoint()]).unwrap();
    a.send(NodeId(2), vec![1]).unwrap();
    assert_eq!(a.peer_health(), vec![(NodeId(2), ConnHealth::Up)]);
    a.shutdown();
    b.shutdown();
}

#[test]
fn shed_policy_rejects_when_outbox_full() {
    // One-frame outbox against a peer that never drains: the first
    // send occupies the queue (the writer may also move it into the
    // kernel buffer), later sends shed once the queue holds a frame.
    let cfg = WireConfig {
        outbox_frames: 1,
        outbox_bytes: 64,
        backpressure: BackpressurePolicy::Shed,
    };
    let a = TcpTransport::bind_with(NodeId(1), "127.0.0.1:0", cfg).unwrap();
    // A raw listener that accepts and never reads: the stalled peer.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let _stalled = std::thread::spawn(move || {
        let conns: Vec<TcpStream> = listener.incoming().take(1).flatten().collect();
        std::thread::sleep(Duration::from_secs(4));
        drop(conns);
    });
    a.register_peer(NodeId(2), &[Endpoint::Tcp(addr)]).unwrap();
    // Push until the socket buffer and the 1-frame outbox are both
    // full; with a stalled reader this happens in well under the
    // frame budget.
    let mut shed = 0;
    for _ in 0..10_000 {
        match a.send(NodeId(2), vec![0u8; 16 * 1024]) {
            Ok(()) => {}
            Err(WireError::Backpressure(_)) => {
                shed += 1;
                if shed > 3 {
                    break;
                }
            }
            Err(other) => panic!("expected backpressure, got {other}"),
        }
    }
    assert!(shed > 0, "a stalled peer must trigger Backpressure under Shed");
    let (frames, bytes) = a.outbox_depth(NodeId(2));
    assert!(frames <= 1, "outbox must stay bounded, had {frames} frames");
    assert!(bytes <= 16 * 1024, "outbox bytes must stay bounded, had {bytes}");
    a.shutdown();
}
