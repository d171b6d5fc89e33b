//! Seeded properties of the `MENC` cipher: the word loop's tails, the
//! unchanged keystream, the tag's coverage, and rejection of damaged
//! frames.

use crate::reference;
use crate::rng::{bytes, damaged, SplitMix64};
use orb::qos_binding::QosModule;
use orb::Any;
use qosmech::crypt::{open, seal, EncryptionModule, MAGIC};

/// `MAGIC | nonce(8) | tag(8)`, then the ciphertext.
const HEADER_LEN: usize = 20;

fn tag_of(plain: &[u8]) -> [u8; 8] {
    seal(1, 1, plain)[12..HEADER_LEN].try_into().expect("tag field")
}

#[test]
fn every_word_loop_tail_roundtrips() {
    let mut rng = SplitMix64::new(0x5EA1);
    for len in (0..=64).chain([16_383, 16_384, 16_385]) {
        let data = bytes(&mut rng, len);
        let (key, nonce) = (rng.next_u64(), rng.next_u64());
        let frame = seal(key, nonce, &data);
        assert_eq!(frame.len(), HEADER_LEN + len);
        assert_eq!(&frame[..4], MAGIC);
        assert_eq!(frame[4..12], nonce.to_le_bytes());
        assert_eq!(open(key, &frame).unwrap(), data, "len {len}");
    }
}

#[test]
fn ciphertext_is_that_of_the_bytewise_cipher() {
    let mut rng = SplitMix64::new(0xC1F);
    for len in (0..=64).chain([1_000, 16_385]) {
        let plain = bytes(&mut rng, len);
        let (key, nonce) = (rng.next_u64(), rng.next_u64());
        let mut want = plain.clone();
        reference::apply_keystream(key, nonce, &mut want);
        assert_eq!(&seal(key, nonce, &plain)[HEADER_LEN..], want, "len {len}");
    }
}

#[test]
fn tag_covers_every_bit_and_the_length() {
    // Three blocks and a tail: every lane, the padding, and a lane's
    // high bits meeting again one block later.
    let data = bytes(&mut SplitMix64::new(0x7A6), 100);
    let want = tag_of(&data);
    let flip = |data: &mut [u8], bit: usize| data[bit / 8] ^= 1 << (bit % 8);
    for a in 0..data.len() * 8 {
        let mut flipped = data.clone();
        flip(&mut flipped, a);
        assert_ne!(tag_of(&flipped), want, "bit {a}");
        for b in (a + 1..data.len() * 8).step_by(7) {
            flip(&mut flipped, b);
            assert_ne!(tag_of(&flipped), want, "bits {a} and {b}");
            flip(&mut flipped, b);
        }
    }
    // Zero padding of the tail must not make lengths collide.
    for len in 0..=64 {
        assert_ne!(tag_of(&vec![0u8; len]), tag_of(&vec![0u8; len + 1]), "len {len}");
    }
}

#[test]
fn damaged_frames_never_open_to_other_plaintext() {
    let mut rng = SplitMix64::new(0xBAD);
    for _ in 0..10_000 {
        let len = rng.below(200);
        let plain = bytes(&mut rng, len);
        let valid = seal(11, rng.next_u64(), &plain);
        let frame = damaged(&mut rng, &valid, MAGIC);
        // The nonce is covered only through the keystream, so a damaged
        // nonce that decrypts to the same bytes is not an error;
        // anything else must be.
        if let Ok(opened) = open(11, &frame) {
            assert_eq!(opened, plain);
        }
        if frame.len() != valid.len() || frame[12..] != valid[12..] {
            assert!(open(11, &frame).is_err(), "accepted {frame:02x?}");
        }
    }
}

#[test]
fn key_id_is_the_fnv1a_of_the_key() {
    // Peers compare key ids across versions; the value is pinned.
    let id = EncryptionModule::new(5).command("key_id", &[]).unwrap();
    assert_eq!(id, Any::ULongLong(0x0de2_1504_f16d_c720));
}
