//! Seeded properties of the `MLZ1` codec: round trips, the edges of the
//! single-probe encoder, agreement with the reference implementation,
//! and totality of the decoder on damaged frames.

use crate::reference;
use crate::rng::{bytes, damaged, mixed, SplitMix64};
use crate::{MAX_MATCH, MIN_MATCH, WINDOW};
use qosmech::compress::codec::{compress, decompress, MAGIC};

const MAX_LITERAL_RUN: usize = u16::MAX as usize;

/// The `maqs_bench::payload` pattern.
const PATTERN: &[u8] = b"MAQS-frame-metadata;codec=sim;";

/// `(dist, len)` of every match token and the length of every literal
/// token in `frame`, in stream order, parsed from the documented format.
fn tokens(frame: &[u8]) -> (Vec<(usize, usize)>, Vec<usize>) {
    let (mut matches, mut literals) = (Vec::new(), Vec::new());
    let mut rest = frame.strip_prefix(MAGIC.as_slice()).expect("magic");
    loop {
        rest = match rest {
            [] => return (matches, literals),
            [0x00, lo, hi, rest @ ..] => {
                let len = u16::from_le_bytes([*lo, *hi]) as usize;
                literals.push(len);
                &rest[len..]
            }
            [0x01, lo, hi, len, rest @ ..] => {
                matches.push((u16::from_le_bytes([*lo, *hi]) as usize, *len as usize));
                rest
            }
            other => panic!("malformed token at {:02x?}", &other[..other.len().min(4)]),
        };
    }
}

fn roundtrip(data: &[u8]) -> Vec<u8> {
    let frame = compress(data);
    assert_eq!(decompress(&frame).expect("own output decodes"), data, "len={}", data.len());
    frame
}

/// A seeded input: mostly short, sometimes up to 70 000 bytes; any
/// redundancy; the repeated chunk has a period of 1 to 64 bytes.
fn seeded_input(rng: &mut SplitMix64) -> Vec<u8> {
    let len = if rng.below(4) == 0 { rng.below(70_001) } else { rng.below(4_097) };
    let period = 1 + rng.below(64);
    let pattern = bytes(rng, period);
    let redundancy = match rng.below(8) {
        0 => 0.0,
        1 => 1.0,
        _ => rng.below(1_000) as f64 / 1_000.0,
    };
    mixed(rng, len, redundancy, &pattern)
}

#[test]
fn seeded_inputs_roundtrip() {
    let mut rng = SplitMix64::new(0x51C0_DEC1);
    for _ in 0..1_200 {
        roundtrip(&seeded_input(&mut rng));
    }
}

#[test]
fn match_at_window_is_emitted_and_one_past_is_not() {
    // The gap is one long zero run, which the encoder steps over in a
    // single match: no position inside it can evict the marker's slot.
    let marker = bytes(&mut SplitMix64::new(7), 8);
    for (gap, expect) in [(WINDOW, vec![(WINDOW, 8)]), (WINDOW + 1, vec![])] {
        let mut data = marker.clone();
        data.resize(gap, 0);
        data.extend_from_slice(&marker);
        let (mut matches, _) = tokens(&roundtrip(&data));
        matches.retain(|&(dist, _)| dist != 1);
        assert_eq!(matches, expect, "gap {gap}");
    }
}

#[test]
fn long_runs_continue_at_the_same_distance() {
    // 9 999 bytes at distance 1: 39 full tokens and a 54-byte one.
    let (matches, literals) = tokens(&roundtrip(&[0u8; 10_000]));
    assert_eq!(literals, [1]);
    assert_eq!(matches.len(), 40);
    assert!(matches.iter().all(|&(dist, len)| dist == 1 && len <= MAX_MATCH));
    assert_eq!(matches.iter().map(|&(_, len)| len).sum::<usize>(), 9_999);

    // A run that leaves 1 to 3 bytes after its last full token keeps
    // them as literals instead of spending a token on them.
    for tail in 1..MIN_MATCH {
        let (matches, literals) = tokens(&roundtrip(&vec![9u8; 1 + MAX_MATCH + tail]));
        assert_eq!(matches, [(1, MAX_MATCH)], "tail {tail}");
        assert_eq!(literals, [1, tail], "tail {tail}");
    }
}

#[test]
fn literal_runs_past_u16_split() {
    let data = bytes(&mut SplitMix64::new(2), 70_000);
    let frame = roundtrip(&data);
    let (matches, literals) = tokens(&frame);
    assert_eq!(literals.iter().sum::<usize>() + matches.iter().map(|m| m.1).sum::<usize>(), 70_000);
    assert_eq!(literals[0], MAX_LITERAL_RUN);
    assert!(frame.len() <= data.len() + 16);
}

#[test]
fn inputs_shorter_than_a_match_are_one_literal() {
    assert_eq!(roundtrip(b""), MAGIC);
    for len in 1..MIN_MATCH {
        let (matches, literals) = tokens(&roundtrip(&b"aaa"[..len]));
        assert!(matches.is_empty());
        assert_eq!(literals, [len]);
    }
}

#[test]
fn match_may_end_in_the_last_three_bytes() {
    let head = bytes(&mut SplitMix64::new(3), 32);
    for repeated in MIN_MATCH..=12 {
        for trailing in 0..MIN_MATCH {
            let mut data = head.clone();
            data.extend_from_slice(&head[..repeated]);
            data.extend_from_slice(&b"\xF0\xF1\xF2"[..trailing]);
            let (matches, _) = tokens(&roundtrip(&data));
            assert_eq!(matches, [(32, repeated)], "repeated {repeated} trailing {trailing}");
        }
    }
}

#[test]
fn agrees_with_the_reference_codec_both_ways() {
    let mut rng = SplitMix64::new(0xD1FF);
    for _ in 0..300 {
        let mut data = seeded_input(&mut rng);
        data.truncate(8_192); // the reference is slow unoptimised
        assert_eq!(reference::decompress(&compress(&data)).expect("reference decodes new"), data);
        assert_eq!(decompress(&reference::compress(&data)).expect("new decodes reference"), data);
    }
}

/// `reference::compress` output for [`fixture_plain`], captured from the
/// encoder as it was before the rewrite. A frame already on a wire or in
/// a log must keep decoding.
const FIXTURE_HEX: &str = concat!(
    "4d4c5a310005004d415153200105000a00010000010100ff0101002c01310104002200",
    "2d6672616d652d6d657461646174613b636f6465633d73696d3b47c16b10f0d3923b01",
    "26001e011e003c0008002bef9906138cd7820162005a011e001e00030078797a",
);

fn fixture_plain() -> Vec<u8> {
    let mut plain = b"MAQS ".repeat(3);
    plain.extend_from_slice(&[0u8; 300]);
    // The fixture was captured from a generator whose state started at
    // the seed itself, one increment behind `SplitMix64::new`.
    let mut rng = SplitMix64::new(5u64.wrapping_sub(0x9E37_79B9_7F4A_7C15));
    plain.extend_from_slice(&mixed(&mut rng, 256, 0.7, PATTERN));
    plain.extend_from_slice(b"xyz");
    plain
}

#[test]
fn frame_from_the_old_encoder_still_decodes() {
    let frame: Vec<u8> = (0..FIXTURE_HEX.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&FIXTURE_HEX[i..i + 2], 16).expect("hex"))
        .collect();
    assert_eq!(reference::compress(&fixture_plain()), frame, "the reference drifted");
    assert_eq!(decompress(&frame).expect("old frame decodes"), fixture_plain());
}

#[test]
fn ratio_stays_within_15_percent_of_the_reference() {
    for redundancy in [0.05, 0.5, 0.9, 0.95] {
        for seed in 1..=3 {
            let data = mixed(&mut SplitMix64::new(seed), 16 * 1024, redundancy, PATTERN);
            let (new, old) = (compress(&data).len(), reference::compress(&data).len());
            assert!(
                new as f64 <= old as f64 * 1.15,
                "redundancy {redundancy} seed {seed}: {new} bytes vs reference {old}"
            );
        }
    }
}

#[test]
fn damaged_frames_never_panic() {
    let mut rng = SplitMix64::new(0xBAD);
    for _ in 0..10_000 {
        let valid = compress(&mixed(&mut rng, 512, 0.8, PATTERN));
        let frame = damaged(&mut rng, &valid, MAGIC);
        // Reaching the asserts is the property: no input panics.
        let result = decompress(&frame);
        assert!(result.is_err() || frame.starts_with(MAGIC));
        assert!(result.is_ok() || frame != valid);
    }
}
