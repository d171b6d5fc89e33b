//! The byte layout of a socket connection: the 9-byte hello that opens
//! it and the `u32` little-endian length prefix around every frame. The
//! frame body is exactly the buffer the ORB's `giop::frame_*` path
//! produced — the single-allocation frame *is* the wire payload, no
//! re-encode.

use super::WireError;
use netsim::NodeId;
use std::io::{Read, Write};

/// Magic prefix of the socket-backend hello (`b"MAQW"`).
pub const WIRE_MAGIC: [u8; 4] = *b"MAQW";
/// Version byte of the socket-backend hello.
pub const WIRE_VERSION: u8 = 1;
/// Upper bound accepted for one length-prefixed frame, a defence
/// against corrupt or hostile prefixes (matches [`crate::cdr::MAX_LEN`]).
pub const MAX_WIRE_FRAME: usize = 64 * 1024 * 1024;

/// Open a dialed stream: `MAQW`, version, the dialer's `NodeId`, so the
/// acceptor learns which identity the stream speaks for and can route
/// replies back over it.
pub(super) fn write_hello(stream: &mut impl Write, node: NodeId) -> std::io::Result<()> {
    let mut hello = [0u8; 9];
    hello[0..4].copy_from_slice(&WIRE_MAGIC);
    hello[4] = WIRE_VERSION;
    hello[5..9].copy_from_slice(&node.0.to_le_bytes());
    stream.write_all(&hello)
}

/// The dialer's identity from the hello opening an accepted stream;
/// `None` if the stream ends early or speaks something else.
pub(super) fn read_hello(stream: &mut impl Read) -> Option<NodeId> {
    let mut hello = [0u8; 9];
    stream.read_exact(&mut hello).ok()?;
    if hello[0..4] != WIRE_MAGIC || hello[4] != WIRE_VERSION {
        return None;
    }
    Some(NodeId(u32::from_le_bytes([hello[5], hello[6], hello[7], hello[8]])))
}

pub(super) fn write_frame(stream: &mut impl Write, frame: &[u8]) -> std::io::Result<()> {
    let len = frame.len() as u32;
    stream.write_all(&len.to_le_bytes())?;
    stream.write_all(frame)?;
    stream.flush()
}

/// Read one length-prefixed frame sent by `peer`. `Ok(None)` is the
/// peer closing or resetting between frames — no protocol violation,
/// just the end of this stream.
///
/// # Errors
///
/// [`WireError::Frame`] on a zero or oversize length prefix, or a
/// stream that ends inside a frame body.
pub(super) fn read_frame(stream: &mut impl Read, peer: NodeId) -> Result<Option<Vec<u8>>, WireError> {
    let mut len_buf = [0u8; 4];
    if stream.read_exact(&mut len_buf).is_err() {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 || len > MAX_WIRE_FRAME {
        return Err(WireError::Frame(format!(
            "bad length prefix {len} from node {} (cap {MAX_WIRE_FRAME})",
            peer.0
        )));
    }
    let mut body = vec![0u8; len];
    if stream.read_exact(&mut body).is_err() {
        return Err(WireError::Frame(format!(
            "torn frame from node {}: stream ended inside a {len}-byte body",
            peer.0
        )));
    }
    Ok(Some(body))
}
