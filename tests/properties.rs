//! Seeded property tests on the stack's core invariants.
//!
//! Every property loops `netsim::rng::cases` from `MAQS_CHAOS_SEED`
//! (default 7): 256 cases for the round-trip and invariant properties,
//! 10 000 for the totality properties at the end of the file. A failing
//! case prints its seed and index.

use netsim::rng::{cases, SplitMix64};
use orb::cdr::{CdrDecoder, CdrEncoder};
use orb::giop::{GiopMessage, RequestKind, RequestMessage};
use orb::{Any, Ior};

const CASES: usize = 256;

fn seed() -> u64 {
    std::env::var("MAQS_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(7)
}

// ---------------------------------------------------------------------
// Seeded inputs.
// ---------------------------------------------------------------------

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
const UPPER: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZ";
const ALNUM: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";

/// `min..=max` characters drawn from the ASCII `alphabet`.
fn text(rng: &mut SplitMix64, alphabet: &str, min: usize, max: usize) -> String {
    let pick = |rng: &mut SplitMix64| char::from(alphabet.as_bytes()[rng.below(alphabet.len())]);
    (0..min + rng.below(max - min + 1)).map(|_| pick(rng)).collect()
}

/// One character from `first`, then up to `max_rest` from `rest`.
fn ident(rng: &mut SplitMix64, first: &str, rest: &str, max_rest: usize) -> String {
    text(rng, first, 1, 1) + &text(rng, rest, 0, max_rest)
}

/// `min..max` random bytes.
fn bytes(rng: &mut SplitMix64, min: usize, max: usize) -> Vec<u8> {
    let mut out = vec![0; min + rng.below(max - min)];
    rng.fill(&mut out);
    out
}

/// `0..max` items.
fn some<T>(rng: &mut SplitMix64, max: usize, mut item: impl FnMut(&mut SplitMix64) -> T) -> Vec<T> {
    (0..rng.below(max)).map(|_| item(rng)).collect()
}

/// An arbitrary `Any` nested at most `depth` containers deep.
fn arb_any(rng: &mut SplitMix64, depth: usize) -> Any {
    match rng.below(if depth == 0 { 10 } else { 12 }) {
        0 => Any::Void,
        1 => Any::Bool(rng.chance(0.5)),
        2 => Any::Octet(rng.next_u64() as u8),
        3 => Any::Long(rng.next_u64() as i32),
        4 => Any::ULong(rng.next_u64() as u32),
        5 => Any::LongLong(rng.next_u64() as i64),
        6 => Any::ULongLong(rng.next_u64()),
        // Never NaN: the round trip is checked with PartialEq.
        7 => Any::Double((rng.next_u64() as i64 >> 11) as f64 / 1024.0),
        8 => Any::Str(text(rng, &format!("{ALNUM} _:/.-"), 0, 24)),
        9 => Any::Bytes(bytes(rng, 0, 64)),
        10 => Any::Sequence(some(rng, 4, |rng| arb_any(rng, depth - 1))),
        _ => Any::Struct(
            ident(rng, &format!("{LOWER}{UPPER}"), ALNUM, 8),
            some(rng, 4, |rng| (ident(rng, LOWER, ALNUM, 6), arb_any(rng, depth - 1))),
        ),
    }
}

fn arb_request(rng: &mut SplitMix64) -> RequestMessage {
    RequestMessage {
        request_id: rng.next_u64(),
        reply_to: netsim::NodeId(rng.below(100) as u32),
        object_key: orb::ObjectKey(text(rng, LOWER, 1, 12)),
        operation: text(rng, &format!("{LOWER}_"), 1, 16),
        args: some(rng, 8, |rng| Any::LongLong(rng.next_u64() as i64)),
        response_expected: rng.chance(0.5),
        kind: RequestKind::ServiceRequest,
        qos: None,
        contexts: Vec::new(),
    }
}

fn arb_ior(rng: &mut SplitMix64) -> Ior {
    let key = text(rng, &format!("{ALNUM}_-"), 1, 16);
    let mut ior = Ior::new("IDL:X:1.0", netsim::NodeId(rng.below(1000) as u32), key.as_str());
    for tag in some(rng, 4, |rng| ident(rng, UPPER, LOWER, 8)) {
        ior = ior.with_qos_tag(tag);
    }
    ior
}

// ---------------------------------------------------------------------
// CDR / GIOP / IOR round trips.
// ---------------------------------------------------------------------

#[test]
fn any_cdr_roundtrip() {
    cases(seed(), CASES, |rng| {
        let value = arb_any(rng, 3);
        assert_eq!(Any::from_bytes(&value.to_bytes()).unwrap(), value);
    });
}

#[test]
fn any_decoding_never_panics_on_garbage() {
    cases(seed(), CASES, |rng| {
        let _ = Any::from_bytes(&bytes(rng, 0, 256)); // must not panic
    });
}

#[test]
fn giop_and_packet_decoding_never_panics() {
    cases(seed(), CASES, |rng| {
        let garbage = bytes(rng, 0, 512);
        let _ = GiopMessage::from_bytes(&garbage);
        let _ = orb::giop::Packet::from_bytes(&garbage);
    });
}

#[test]
fn giop_request_roundtrip() {
    cases(seed(), CASES, |rng| {
        let msg = GiopMessage::Request(arb_request(rng));
        assert_eq!(GiopMessage::from_bytes(&msg.to_bytes()).unwrap(), msg);
    });
}

#[test]
fn cdr_primitive_sequences_roundtrip() {
    cases(seed(), CASES, |rng| {
        let bools = some(rng, 8, |rng| rng.chance(0.5));
        let longs = some(rng, 8, |rng| rng.next_u64() as i64);
        let strings = some(rng, 8, |rng| text(rng, LOWER, 0, 12));
        let mut enc = CdrEncoder::new();
        bools.iter().for_each(|b| enc.put_bool(*b));
        longs.iter().for_each(|l| enc.put_i64(*l));
        strings.iter().for_each(|s| enc.put_string(s));
        let buf = enc.into_bytes();
        let mut dec = CdrDecoder::new(&buf);
        bools.iter().for_each(|b| assert_eq!(dec.get_bool().unwrap(), *b));
        longs.iter().for_each(|l| assert_eq!(dec.get_i64().unwrap(), *l));
        strings.iter().for_each(|s| assert_eq!(&dec.get_string().unwrap(), s));
    });
}

#[test]
fn ior_uri_roundtrip() {
    cases(seed(), CASES, |rng| {
        let ior = arb_ior(rng);
        assert_eq!(Ior::from_uri(&ior.to_uri()).unwrap(), ior);
    });
}

// ---------------------------------------------------------------------
// Codec invariants.
// ---------------------------------------------------------------------

use qosmech::compress::codec::{compress, decompress};
use qosmech::crypt::{keyex, open, seal};

#[test]
fn lz_codec_roundtrip() {
    cases(seed(), CASES, |rng| {
        let data = bytes(rng, 0, 4096);
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
    });
}

#[test]
fn lz_codec_roundtrip_repetitive() {
    cases(seed(), CASES, |rng| {
        let unit = bytes(rng, 1, 16);
        let reps = 1 + rng.below(255);
        let data: Vec<u8> = unit.iter().copied().cycle().take(unit.len() * reps).collect();
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
    });
}

#[test]
fn lz_decompress_never_panics() {
    cases(seed(), CASES, |rng| {
        let _ = decompress(&bytes(rng, 0, 512));
    });
}

#[test]
fn cipher_roundtrip() {
    cases(seed(), CASES, |rng| {
        let (key, nonce) = (rng.next_u64(), rng.next_u64());
        let data = bytes(rng, 0, 1024);
        assert_eq!(open(key, &seal(key, nonce, &data)).unwrap(), data);
    });
}

#[test]
fn cipher_rejects_wrong_key() {
    cases(seed(), CASES, |rng| {
        let (key, other) = (rng.next_u64(), rng.next_u64());
        let data = bytes(rng, 1, 256);
        if key == other {
            return;
        }
        // Wrong key must never silently yield the plaintext.
        if let Ok(recovered) = open(other, &seal(key, 1, &data)) {
            assert_ne!(recovered, data);
        }
    });
}

#[test]
fn key_exchange_always_agrees() {
    cases(seed(), CASES, |rng| {
        let (a, b) = (1 + rng.below_inclusive(u64::MAX - 2), 1 + rng.below_inclusive(u64::MAX - 2));
        assert_eq!(keyex::shared(a, keyex::public(b)), keyex::shared(b, keyex::public(a)));
    });
}

// ---------------------------------------------------------------------
// QIDL pipeline invariants.
// ---------------------------------------------------------------------

#[test]
fn qidl_lexer_never_panics() {
    cases(seed(), CASES, |rng| {
        // Any printable character: half ASCII, half anywhere in Unicode.
        let src: String = some(rng, 129, |rng| {
            let code = if rng.chance(0.5) { 0x20 + rng.below(0x5F) } else { rng.below(0x11_0000) };
            char::from_u32(code as u32).filter(|c| !c.is_control()).unwrap_or(' ')
        })
        .into_iter()
        .collect();
        let _ = qidl::lexer::lex(&src);
    });
}

#[test]
fn qidl_parser_never_panics() {
    cases(seed(), CASES, |rng| {
        let src = text(rng, &format!("{LOWER}{{}}();,<> "), 0, 128);
        if let Ok(tokens) = qidl::lexer::lex(&src) {
            let _ = qidl::parser::parse(&tokens);
        }
    });
}

#[test]
fn qidl_pretty_print_roundtrip() {
    cases(seed(), CASES, |rng| {
        // Build a small spec programmatically through source text.
        let iface = ident(rng, UPPER, &format!("{LOWER}{UPPER}"), 8);
        let ops = some(rng, 4, |rng| {
            (ident(rng, LOWER, &format!("{LOWER}0123456789_"), 8), rng.below(3))
        });
        let mut src = format!("interface {iface} {{\n");
        let mut seen = std::collections::HashSet::new();
        for (name, arity) in &ops {
            if !seen.insert(name.clone()) || qidl_keyword(name) {
                continue;
            }
            let params: Vec<String> = (0..*arity).map(|i| format!("in long p{i}")).collect();
            src.push_str(&format!("    long {name}({});\n", params.join(", ")));
        }
        src.push_str("};\n");
        if let Ok(spec) = qidl::compile(&src) {
            let printed = qidl::pretty::pretty(&spec);
            assert_eq!(qidl::compile(&printed).unwrap(), spec);
        }
    });
}

#[rustfmt::skip]
fn qidl_keyword(s: &str) -> bool {
    matches!(
        s,
        "struct" | "qos" | "interface" | "with" | "category" | "param" | "management"
            | "peer" | "integration" | "oneway" | "raises" | "readonly" | "attribute"
            | "in" | "out" | "inout" | "void" | "boolean" | "octet" | "long" | "unsigned"
            | "double" | "string" | "any" | "sequence"
    )
}

// ---------------------------------------------------------------------
// Group view, majority vote and contract resolution invariants.
// ---------------------------------------------------------------------

#[test]
fn view_tracker_invariants() {
    cases(seed(), CASES, |rng| {
        let mut tracker = groupcomm::ViewTracker::new("g");
        let mut last_view = tracker.view().view_id;
        for (join, node) in
            some(rng, 64, |rng| (rng.chance(0.5), netsim::NodeId(rng.below(16) as u32)))
        {
            let changed = if join { tracker.join(node) } else { tracker.leave(node) };
            let view = tracker.view();
            // View ids are monotone and bump exactly on change.
            assert_eq!(view.view_id, last_view + u64::from(changed));
            last_view = view.view_id;
            // Membership stays sorted and unique.
            let mut sorted = view.members.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(&sorted, &view.members);
            // Quorum is a majority.
            if !view.is_empty() {
                assert!(view.quorum() * 2 > view.len());
                assert!((view.quorum() - 1) * 2 <= view.len());
            }
        }
    });
}

#[test]
fn majority_vote_winner_really_has_quorum() {
    cases(seed(), CASES, |rng| {
        let values: Vec<i64> = (0..1 + rng.below(11)).map(|_| rng.below(4) as i64).collect();
        let replies: Vec<(netsim::NodeId, Result<Any, orb::OrbError>)> = values
            .iter()
            .enumerate()
            .map(|(i, v)| (netsim::NodeId(i as u32), Ok(Any::LongLong(*v))))
            .collect();
        let quorum = values.len() / 2 + 1;
        let votes = |v: i64| values.iter().filter(|x| **x == v).count();
        match qosmech::replication::majority_vote(&replies, quorum) {
            Ok(winner) => assert!(votes(winner.as_i64().unwrap()) >= quorum),
            // No value may actually hold a quorum.
            Err(_) => assert!((0..4).all(|v| votes(v) < quorum)),
        }
    });
}

#[test]
fn contract_resolution_respects_feasibility() {
    cases(seed(), CASES, |rng| {
        let (depth, branching) = (1 + rng.below(3), 1 + rng.below(3));
        let mask = rng.next_u64() as u32;
        let h = services::contract::synthetic_hierarchy(depth, branching);
        let feasible = move |o: &services::contract::Offer| {
            let idx: u32 = o.characteristic[4..].parse().unwrap_or(0);
            mask & (1 << (idx % 32)) != 0
        };
        if let Some((offers, utility)) = h.resolve(&feasible) {
            assert!(!offers.is_empty());
            for o in &offers {
                assert!(feasible(o), "infeasible offer accepted: {}", o.characteristic);
            }
            let sum: f64 = offers.iter().map(|o| o.utility).sum();
            assert!((sum - utility).abs() < 1e-9);
        }
    });
}

// ---------------------------------------------------------------------
// Totality: whatever arrives, a decoder returns — a value or a typed
// error — without panicking and without asking the allocator for more
// than one wire frame.
// ---------------------------------------------------------------------

use orb::wire::MAX_WIRE_FRAME;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Records the largest single request each thread makes, delegating to
/// the system allocator (the pattern of qosmech's `decompress_bomb.rs`,
/// per thread because this binary's tests run concurrently).
struct LargestRequest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note_request(size: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// writes one thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_request(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: LargestRequest = LargestRequest;

const TOTALITY_CASES: usize = 10_000;

/// What a hostile or broken peer sends instead of `valid`: noise, every
/// truncation, flipped bits, or the adversarial shapes — huge counts, and
/// container headers nested far past any honest value.
fn hostile(rng: &mut SplitMix64, valid: &[u8]) -> Vec<Vec<u8>> {
    let mut frame = valid.to_vec();
    match rng.below(6) {
        0 => frame = bytes(rng, 0, 512),
        1 => return (0..valid.len()).map(|len| valid[..len].to_vec()).collect(),
        2 => {
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(frame.len());
                frame[at] ^= 1 << rng.below(8);
            }
        }
        // A huge length where some aligned word was.
        3 => {
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(frame.len().div_ceil(4)) * 4;
                let huge = [u32::MAX, orb::cdr::MAX_LEN, orb::cdr::MAX_LEN - 1, i32::MAX as u32];
                frame.resize(frame.len().max(at + 4), 0);
                frame[at..at + 4].copy_from_slice(&huge[rng.below(4)].to_le_bytes());
            }
        }
        // Up to 20 000 one-element sequences (tag, count), or one-field
        // structs (tag, name "", count, field name "abc"), at an aligned
        // offset: both headers keep the next one 4-aligned.
        shape => {
            let sequence: &[u8] = &[10, 0, 0, 0, 1, 0, 0, 0];
            let structure: &[u8] =
                &[11, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 4, 0, 0, 0, b'a', b'b', b'c', 0];
            let header = if shape == 4 { sequence } else { structure };
            let at = rng.below(frame.len().div_ceil(8) + 1) * 8;
            frame.resize(frame.len().max(at), 0);
            frame.splice(at..at, header.repeat(1 + rng.below(160_000 / header.len())));
        }
    }
    vec![frame]
}

/// Feed `decode` 10 000 hostile variations of seeded valid encodings.
fn total<T>(valid: impl Fn(&mut SplitMix64) -> Vec<u8>, decode: impl Fn(&[u8]) -> T) {
    cases(seed(), TOTALITY_CASES, |rng| {
        let good = valid(rng);
        for input in hostile(rng, &good).iter().chain([&good]) {
            LARGEST.with(|l| l.set(0));
            let _ = decode(input);
            let largest = LARGEST.with(Cell::get);
            assert!(
                largest <= MAX_WIRE_FRAME,
                "a {}-byte input asked for {largest} bytes",
                input.len()
            );
        }
    });
}

fn arb_giop(rng: &mut SplitMix64) -> Vec<u8> {
    let mut request = arb_request(rng);
    request.args = some(rng, 4, |rng| arb_any(rng, 3));
    if rng.chance(0.3) {
        request.qos = Some(
            orb::giop::QosContext::new("Actuality").with_param("validity_ms", arb_any(rng, 1)),
        );
    }
    if rng.chance(0.3) {
        request.set_context(orb::trace::TRACE_CONTEXT_ID, arb_trace(rng));
    }
    if rng.chance(0.3) {
        let reply = orb::giop::ReplyMessage::from_result(
            request.request_id,
            request.reply_to,
            Ok(arb_any(rng, 3)),
        );
        return GiopMessage::Reply(reply).to_bytes();
    }
    GiopMessage::Request(request).to_bytes()
}

fn arb_trace(rng: &mut SplitMix64) -> Vec<u8> {
    let mut ctx = orb::TraceContext::with_id(rng.next_u64());
    for _ in 0..rng.below(6) {
        ctx.push(text(rng, &format!("{LOWER}.:"), 1, 16), text(rng, LOWER, 1, 8), rng.next_u64());
    }
    ctx.to_bytes()
}

#[test]
fn any_decode_is_total() {
    total(|rng| arb_any(rng, 3).to_bytes(), Any::from_bytes);
}

#[test]
fn giop_decode_and_peek_are_total() {
    total(arb_giop, |input| (orb::giop::peek(input), GiopMessage::from_bytes(input)));
}

/// `Packet::from_bytes` is `Packet::decode_view` over a copy of the input.
#[test]
fn packet_decode_view_is_total() {
    let valid = |rng: &mut SplitMix64| {
        let body = arb_giop(rng);
        if rng.chance(0.5) {
            orb::giop::frame_qos(&text(rng, LOWER, 1, 12), &body)
        } else {
            orb::giop::Packet::Plain(body.into()).to_bytes()
        }
    };
    total(valid, orb::giop::Packet::from_bytes);
}

#[test]
fn trace_context_decode_is_total() {
    total(arb_trace, orb::TraceContext::from_bytes);
}

fn arb_profiled_ior(rng: &mut SplitMix64) -> Ior {
    let endpoints = some(rng, 3, |rng| match rng.below(3) {
        0 => orb::Endpoint::Sim(netsim::NodeId(rng.below(64) as u32)),
        1 => orb::Endpoint::Tcp(format!("127.0.0.1:{}", 1024 + rng.below(60_000))),
        _ => orb::Endpoint::Uds(format!("/tmp/{}.sock", text(rng, LOWER, 1, 8))),
    });
    arb_ior(rng).with_endpoints(endpoints)
}

#[test]
fn ior_tagged_profile_decode_is_total() {
    let valid = |rng: &mut SplitMix64| {
        let mut enc = CdrEncoder::new();
        arb_profiled_ior(rng).encode(&mut enc);
        enc.into_bytes()
    };
    total(valid, |input| Ior::decode(&mut CdrDecoder::new(input)));
}

/// The URI arrives as text (a file, a command line): damaged bytes are
/// read the way `read_to_string` callers would see them.
#[test]
fn ior_uri_parse_is_total() {
    total(
        |rng| arb_profiled_ior(rng).to_uri().into_bytes(),
        |input| Ior::from_uri(&String::from_utf8_lossy(input)),
    );
}
