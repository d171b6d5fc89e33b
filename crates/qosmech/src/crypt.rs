//! Privacy through encryption.
//!
//! The paper's privacy-category characteristic: requests and replies are
//! encrypted on the wire, with "on the fly change of encryption keys" as
//! the canonical QoS-to-QoS communication example (§3.2). The cipher is
//! a from-scratch xorshift-keystream stream cipher with a per-message
//! nonce and an integrity tag, both applied a 64-bit word at a time so
//! that a sealed frame costs one allocation and two passes over the
//! payload (tag, keystream).
//!
//! **This cipher is a simulation artifact, not cryptography.** It
//! exercises the exact code path (transform on send, inverse on receive,
//! key agreement over the middleware) with realistic per-byte cost; do
//! not use it to protect anything.

use orb::sync::{LockRank, OrderedRwLock};
use netsim::NodeId;
use orb::qos_binding::{Outbound, QosModule};
use orb::{Any, OrbError};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};

/// The module name encryption binds under.
pub const ENCRYPTION_MODULE: &str = "encryption";

/// Wire magic of encrypted frames.
pub const MAGIC: &[u8; 4] = b"MENC";

/// `MAGIC | nonce(8) | tag(8)`.
const HEADER_LEN: usize = 20;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn xorshift64(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

fn word(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"))
}

/// A keystream generator seeded from key and nonce.
#[derive(Debug, Clone)]
pub struct KeyStream {
    state: u64,
}

impl KeyStream {
    /// A stream for `key`/`nonce`.
    pub fn new(key: u64, nonce: u64) -> KeyStream {
        // Mix key and nonce; avoid the all-zero fixed point.
        let mixed = key ^ nonce.rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15;
        KeyStream { state: if mixed == 0 { 1 } else { mixed } }
    }

    /// XOR `data` in place with the keystream: one generator step per
    /// little-endian 64-bit word, the last step truncated to the tail.
    pub fn apply(&mut self, data: &mut [u8]) {
        let mut words = data.chunks_exact_mut(8);
        for w in &mut words {
            self.state = xorshift64(self.state);
            w.copy_from_slice(&(word(w) ^ self.state).to_le_bytes());
        }
        let tail = words.into_remainder();
        if !tail.is_empty() {
            self.state = xorshift64(self.state);
            for (b, k) in tail.iter_mut().zip(self.state.to_le_bytes()) {
                *b ^= k;
            }
        }
    }
}

/// FNV-1a checksum (the `key_id` of a key).
pub fn checksum(data: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for b in data {
        h ^= *b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The integrity tag of an encrypted frame's plaintext.
///
/// FNV-style xor-multiply over little-endian 64-bit words (the tail
/// zero-padded) in four independent lanes, so the multiplies of one
/// 32-byte block overlap instead of forming one serial chain; the lanes
/// are then folded together with the length. The rotate brings a word's
/// high bits, which a multiply alone barely spreads, under the next
/// multiply. Every step is a bijection of its lane, so changing any
/// single word always changes the tag.
fn tag(data: &[u8]) -> u64 {
    fn absorb(lanes: &mut [u64; 4], block: &[u8]) {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = (*lane ^ word(w)).wrapping_mul(FNV_PRIME).rotate_left(29);
        }
    }
    let mut lanes = [FNV_OFFSET, FNV_OFFSET ^ 1, FNV_OFFSET ^ 2, FNV_OFFSET ^ 3];
    let mut blocks = data.chunks_exact(32);
    for block in &mut blocks {
        absorb(&mut lanes, block);
    }
    let tail = blocks.remainder();
    let mut last = [0u8; 32];
    last[..tail.len()].copy_from_slice(tail);
    absorb(&mut lanes, &last);
    lanes
        .iter()
        .fold(data.len() as u64, |h, lane| (h ^ lane).wrapping_mul(FNV_PRIME).rotate_left(29))
}

/// Encrypt `plain` under `key` with the given `nonce`.
///
/// Frame: `MAGIC | nonce(8) | tag-of-plain(8) | ciphertext`.
pub fn seal(key: u64, nonce: u64, plain: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + plain.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&nonce.to_le_bytes());
    out.extend_from_slice(&tag(plain).to_le_bytes());
    out.extend_from_slice(plain);
    KeyStream::new(key, nonce).apply(&mut out[HEADER_LEN..]);
    out
}

/// Decrypt a frame produced by [`seal`].
///
/// # Errors
///
/// Returns a description on bad magic, truncation or tag mismatch
/// (wrong key or tampering).
pub fn open(key: u64, frame: &[u8]) -> Result<Vec<u8>, String> {
    let body = frame.strip_prefix(MAGIC.as_slice()).ok_or("missing MENC magic")?;
    if body.len() < 16 {
        return Err("truncated encrypted frame".to_string());
    }
    let nonce = word(&body[0..8]);
    let want = word(&body[8..16]);
    let mut plain = body[16..].to_vec();
    KeyStream::new(key, nonce).apply(&mut plain);
    if tag(&plain) != want {
        return Err("checksum mismatch (wrong key or tampered frame)".to_string());
    }
    Ok(plain)
}

/// Toy Diffie-Hellman-style key agreement over `u64` (modexp modulo a
/// 61-bit Mersenne prime). Same caveat as the cipher: shape, not
/// security.
pub mod keyex {
    /// The group modulus (2^61 - 1).
    pub const P: u128 = (1 << 61) - 1;
    /// The generator.
    pub const G: u128 = 5;

    fn modpow(mut base: u128, mut exp: u64, modulus: u128) -> u128 {
        let mut acc: u128 = 1;
        base %= modulus;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc * base % modulus;
            }
            base = base * base % modulus;
            exp >>= 1;
        }
        acc
    }

    /// Public half for a secret.
    pub fn public(secret: u64) -> u64 {
        modpow(G, secret, P) as u64
    }

    /// Shared key from our secret and the peer's public half.
    pub fn shared(secret: u64, peer_public: u64) -> u64 {
        modpow(peer_public as u128, secret, P) as u64
    }
}

/// Transport-level encryption QoS module.
///
/// Dynamic interface: `rekey(key: ulonglong)` (install a new key — the
/// QoS-to-QoS rekeying path), `key_id()` → checksum of the current key,
/// `frames()` → frames processed.
pub struct EncryptionModule {
    key: OrderedRwLock<u64>,
    nonce: AtomicU64,
    frames: AtomicU64,
}

impl EncryptionModule {
    /// A module using `key` until rekeyed.
    pub fn new(key: u64) -> EncryptionModule {
        EncryptionModule {
            key: OrderedRwLock::new(LockRank::QosMechConfig, key),
            nonce: AtomicU64::new(1),
            frames: AtomicU64::new(0),
        }
    }

    /// Install a new key (affects subsequent frames only).
    pub fn rekey(&self, key: u64) {
        *self.key.write() = key;
    }

    /// Frames processed (both directions).
    pub fn frames(&self) -> u64 {
        self.frames.load(Ordering::Relaxed)
    }
}

impl QosModule for EncryptionModule {
    fn name(&self) -> &str {
        ENCRYPTION_MODULE
    }

    fn command(&self, op: &str, args: &[Any]) -> Result<Any, OrbError> {
        match op {
            "rekey" => {
                let key = args
                    .first()
                    .and_then(Any::as_i64)
                    .map(|v| v as u64)
                    .or_else(|| match args.first() {
                        Some(Any::ULongLong(v)) => Some(*v),
                        _ => None,
                    })
                    .ok_or_else(|| OrbError::BadParam("rekey(key)".to_string()))?;
                self.rekey(key);
                Ok(Any::Void)
            }
            "key_id" => Ok(Any::ULongLong(checksum(&self.key.read().to_le_bytes()))),
            "frames" => Ok(Any::ULongLong(self.frames())),
            other => Err(OrbError::BadOperation(format!("encryption command {other}"))),
        }
    }

    fn outbound(&self, dst: NodeId, bytes: Vec<u8>) -> Result<Outbound, OrbError> {
        self.frames.fetch_add(1, Ordering::Relaxed);
        let nonce = self.nonce.fetch_add(1, Ordering::Relaxed);
        Ok(vec![(dst, seal(*self.key.read(), nonce, &bytes))])
    }

    fn inbound<'a>(
        &self,
        _src: NodeId,
        bytes: &'a [u8],
    ) -> Result<Option<Cow<'a, [u8]>>, OrbError> {
        self.frames.fetch_add(1, Ordering::Relaxed);
        open(*self.key.read(), bytes)
            .map(|v| Some(Cow::Owned(v)))
            .map_err(|e| OrbError::NoPermission(format!("decryption failed: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_roundtrip() {
        for data in [&b""[..], b"x", b"hello world", &[0u8; 4096]] {
            let frame = seal(42, 7, data);
            assert_eq!(open(42, &frame).unwrap(), data);
        }
    }

    #[test]
    fn ciphertext_differs_from_plaintext_and_varies_with_nonce() {
        let frame1 = seal(42, 1, b"secret message!!");
        let frame2 = seal(42, 2, b"secret message!!");
        assert_ne!(&frame1[20..], b"secret message!!");
        assert_ne!(frame1[20..], frame2[20..]);
    }

    #[test]
    fn wrong_key_fails_checksum() {
        let frame = seal(42, 7, b"secret");
        assert!(open(43, &frame).is_err());
    }

    #[test]
    fn tampering_detected() {
        let mut frame = seal(42, 7, b"secret money transfer");
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        assert!(open(42, &frame).is_err());
    }

    #[test]
    fn malformed_frames_rejected() {
        assert!(open(42, b"junk").is_err());
        assert!(open(42, b"MENC\x01\x02").is_err());
    }

    #[test]
    fn key_exchange_agrees() {
        let (a, b) = (123_456_789u64, 987_654_321u64);
        let shared_a = keyex::shared(a, keyex::public(b));
        let shared_b = keyex::shared(b, keyex::public(a));
        assert_eq!(shared_a, shared_b);
        assert_ne!(shared_a, 0);
        // Different secrets agree on different keys.
        let other = keyex::shared(a, keyex::public(b + 1));
        assert_ne!(shared_a, other);
    }

    #[test]
    fn module_roundtrip_and_rekey() {
        let tx = EncryptionModule::new(5);
        let rx = EncryptionModule::new(5);
        let out = tx.outbound(NodeId(1), b"payload".to_vec()).unwrap();
        assert_eq!(rx.inbound(NodeId(0), &out[0].1).unwrap().unwrap(), &b"payload"[..]);
        // Rekey only one side: traffic fails until the other side follows.
        tx.rekey(6);
        let out = tx.outbound(NodeId(1), b"payload".to_vec()).unwrap();
        assert!(rx.inbound(NodeId(0), &out[0].1).is_err());
        rx.command("rekey", &[Any::ULongLong(6)]).unwrap();
        let out = tx.outbound(NodeId(1), b"payload".to_vec()).unwrap();
        assert_eq!(rx.inbound(NodeId(0), &out[0].1).unwrap().unwrap(), &b"payload"[..]);
        assert!(tx.frames() >= 3);
    }

    #[test]
    fn module_commands() {
        let m = EncryptionModule::new(5);
        let id1 = m.command("key_id", &[]).unwrap();
        m.command("rekey", &[Any::ULongLong(9)]).unwrap();
        let id2 = m.command("key_id", &[]).unwrap();
        assert_ne!(id1, id2);
        assert!(m.command("rekey", &[Any::from("nope")]).is_err());
        assert!(m.command("sign", &[]).is_err());
    }

    #[test]
    fn keystream_is_deterministic_per_key_nonce() {
        let mut a = [1u8, 2, 3, 4, 5, 6, 7, 8, 9];
        let mut b = a;
        KeyStream::new(7, 9).apply(&mut a);
        KeyStream::new(7, 9).apply(&mut b);
        assert_eq!(a, b);
        let mut c = [1u8, 2, 3, 4, 5, 6, 7, 8, 9];
        KeyStream::new(7, 10).apply(&mut c);
        assert_ne!(a, c);
    }
}
