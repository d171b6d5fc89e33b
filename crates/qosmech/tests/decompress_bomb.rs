//! A decompression bomb is refused before it is allocated for.
//!
//! A 4-byte `MLZ1` match token expands to 255 bytes, so a frame the wire
//! accepts (up to `MAX_WIRE_FRAME` = 64 MiB) could ask the decoder for
//! ~4 GiB. The decoder sizes its output from the token headers and must
//! reject anything past `MAX_WIRE_FRAME` without reserving memory for
//! it.
//!
//! This file holds exactly one test so no concurrent test pollutes the
//! global allocation high-water mark.

use netsim::NodeId;
use orb::qos_binding::QosModule;
use orb::wire::MAX_WIRE_FRAME;
use orb::OrbError;
use qosmech::compress::{codec, CompressionModule};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Records the largest single request made while `ENABLED`, delegating
/// to the system allocator.
struct LargestRequest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);
static ENABLED: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            LARGEST.fetch_max(new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: LargestRequest = LargestRequest;

/// `MLZ1`, one literal byte, then `matches` tokens that each repeat it
/// 255 more times.
fn run_frame(matches: usize) -> Vec<u8> {
    let mut frame = b"MLZ1\x00\x01\x00A".to_vec();
    for _ in 0..matches {
        frame.extend_from_slice(&[0x01, 0x01, 0x00, 0xFF]);
    }
    frame
}

fn largest_request_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    let out = f();
    ENABLED.store(false, Ordering::SeqCst);
    (out, LARGEST.load(Ordering::SeqCst))
}

#[test]
fn bomb_is_rejected_without_allocating_for_it() {
    // The longest run that still fits decodes, in one allocation of
    // exactly its size.
    let fits = (MAX_WIRE_FRAME - 1) / 255;
    let frame = run_frame(fits);
    let (out, largest) = largest_request_during(|| codec::decompress(&frame));
    let out = out.expect("a frame that decodes to at most the cap is accepted");
    assert_eq!(out.len(), 1 + fits * 255);
    assert!(out.iter().all(|&b| b == b'A'));
    assert_eq!(largest, out.len());
    drop(out);

    // One more token crosses the cap: a ~1 MiB frame claiming > 64 MiB.
    let bomb = run_frame(fits + 1);
    let (result, largest) = largest_request_during(|| codec::decompress(&bomb));
    let why = result.expect_err("output past MAX_WIRE_FRAME is refused");
    assert!(why.contains("exceeds"), "{why}");
    assert!(largest < 4096, "rejection allocated {largest} bytes");

    // Through the module a bomb (4 MiB claiming 255 MiB) is a
    // marshalling error like any other corrupt frame.
    let bomb = run_frame(1 << 20);
    let module = CompressionModule::new();
    let (result, largest) = largest_request_during(|| module.inbound(NodeId(1), &bomb).map(drop));
    assert!(matches!(result, Err(OrbError::Marshal(_))), "{result:?}");
    assert!(largest < 4096, "rejection allocated {largest} bytes");
}
