//! The byte-at-a-time transforms `qosmech` shipped before the
//! single-probe encoder and the word-wide cipher: an `MLZ1` codec with
//! 16-deep hash chains, per-byte match extension and per-byte match
//! copy, and the xorshift keystream applied a byte at a time. Kept
//! verbatim as the reference the differential tests compare against —
//! they define what "the wire format did not change" means. Test-only;
//! never compiled into the library.

use crate::{MAX_MATCH, MIN_MATCH, WINDOW};
use qosmech::compress::codec::MAGIC;

pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    out.extend_from_slice(MAGIC);
    // Chained hash table over 4-byte prefixes for match finding.
    let mut head = vec![usize::MAX; 1 << 13];
    let mut prev = vec![usize::MAX; input.len().max(1)];
    let hash = |w: &[u8]| -> usize {
        let v = u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        (v.wrapping_mul(2654435761) >> 19) as usize & ((1 << 13) - 1)
    };
    let mut literals: Vec<u8> = Vec::new();
    let flush_literals = |out: &mut Vec<u8>, lits: &mut Vec<u8>| {
        let mut start = 0;
        while start < lits.len() {
            let run = (lits.len() - start).min(u16::MAX as usize);
            out.push(0x00);
            out.extend_from_slice(&(run as u16).to_le_bytes());
            out.extend_from_slice(&lits[start..start + run]);
            start += run;
        }
        lits.clear();
    };
    let mut i = 0;
    while i < input.len() {
        let mut best_len = 0;
        let mut best_dist = 0;
        if i + MIN_MATCH <= input.len() {
            let h = hash(&input[i..i + 4]);
            let mut cand = head[h];
            let mut chain = 0;
            while cand != usize::MAX && i - cand <= WINDOW && chain < 16 {
                let mut l = 0;
                let max = (input.len() - i).min(MAX_MATCH);
                while l < max && input[cand + l] == input[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = i - cand;
                }
                cand = prev[cand];
                chain += 1;
            }
            prev[i] = head[h];
            head[h] = i;
        }
        if best_len >= MIN_MATCH {
            flush_literals(&mut out, &mut literals);
            out.push(0x01);
            out.extend_from_slice(&(best_dist as u16).to_le_bytes());
            out.push(best_len as u8);
            // Insert hash entries for the matched region (cheap, coarse).
            let end = i + best_len;
            let mut j = i + 1;
            while j + 4 <= input.len() && j < end {
                let h = hash(&input[j..j + 4]);
                prev[j] = head[h];
                head[h] = j;
                j += 1;
            }
            i = end;
        } else {
            literals.push(input[i]);
            i += 1;
        }
    }
    flush_literals(&mut out, &mut literals);
    out
}

pub fn decompress(input: &[u8]) -> Result<Vec<u8>, String> {
    let body =
        input.strip_prefix(MAGIC.as_slice()).ok_or_else(|| "missing MLZ1 magic".to_string())?;
    let mut out = Vec::with_capacity(body.len() * 2);
    let mut i = 0;
    while i < body.len() {
        match body[i] {
            0x00 => {
                if i + 3 > body.len() {
                    return Err("truncated literal header".to_string());
                }
                let len = u16::from_le_bytes([body[i + 1], body[i + 2]]) as usize;
                i += 3;
                if i + len > body.len() {
                    return Err("truncated literal run".to_string());
                }
                out.extend_from_slice(&body[i..i + len]);
                i += len;
            }
            0x01 => {
                if i + 4 > body.len() {
                    return Err("truncated match token".to_string());
                }
                let dist = u16::from_le_bytes([body[i + 1], body[i + 2]]) as usize;
                let len = body[i + 3] as usize;
                i += 4;
                if dist == 0 || dist > out.len() {
                    return Err(format!("bad match distance {dist}"));
                }
                let start = out.len() - dist;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
            t => return Err(format!("bad token {t}")),
        }
    }
    Ok(out)
}

/// XOR `data` with the keystream for `key`/`nonce`.
pub fn apply_keystream(key: u64, nonce: u64, data: &mut [u8]) {
    fn xorshift64(mut x: u64) -> u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
    let mixed = key ^ nonce.rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15;
    let mut state = if mixed == 0 { 1 } else { mixed };
    let mut chunk = [0u8; 8];
    for block in data.chunks_mut(8) {
        state = xorshift64(state);
        chunk.copy_from_slice(&state.to_le_bytes());
        for (b, k) in block.iter_mut().zip(chunk.iter()) {
            *b ^= k;
        }
    }
}
