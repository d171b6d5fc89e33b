//! The GIOP-like wire protocol.
//!
//! Messages mirror GIOP's Request/Reply pair, with the MAQS extensions
//! from §4 of the paper:
//!
//! * A request is **dual-use**: either a *service request* addressed to an
//!   object, or a *command* addressed to the QoS transport itself or to a
//!   named QoS module ([`RequestKind`], Fig. 3).
//! * A request may carry a **QoS context** naming the negotiated
//!   characteristic and its parameters — the "tag" that routes it through
//!   the QoS transport instead of plain GIOP/IIOP.
//! * The outer [`Packet`] envelope records whether the GIOP body was
//!   transformed by a transport-level QoS module (and by which), so the
//!   receiving ORB can run the inverse transform before dispatch.

use crate::any::Any;
use crate::cdr::{CdrDecoder, CdrEncoder};
use crate::error::OrbError;
use crate::ior::ObjectKey;
use bytes::Bytes;
use netsim::NodeId;
use std::cell::Cell;

/// Protocol magic, first four octets of every packet.
pub const MAGIC: &[u8; 4] = b"MAQ1";

/// Who a *command* request is addressed to (Fig. 3 dispatch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommandTarget {
    /// The QoS transport itself (load/unload/list modules, bind…).
    Transport,
    /// A named, loaded QoS module.
    Module(String),
}

/// Whether a request is a plain service request or a QoS command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestKind {
    /// An ordinary invocation on an application object.
    ServiceRequest,
    /// A command interpreted by the QoS transport or one of its modules.
    Command(CommandTarget),
    /// A liveness probe (failure detection). Dispatched like a service
    /// request, but counted under the `orb.probe.*` metric family so
    /// availability math over `orb.requests_*` excludes detector traffic.
    Probe,
}

/// The negotiated-QoS annotation a request may carry.
#[derive(Debug, Clone, PartialEq)]
pub struct QosContext {
    /// Name of the negotiated QoS characteristic (e.g. `"compression"`).
    pub characteristic: String,
    /// Characteristic-specific parameters.
    pub params: Vec<(String, Any)>,
}

impl QosContext {
    /// A context with no parameters.
    pub fn new(characteristic: impl Into<String>) -> QosContext {
        QosContext { characteristic: characteristic.into(), params: Vec::new() }
    }

    /// A context carrying `params` in order — the wire form of a
    /// characteristic plus its agreed parameter values.
    pub fn with_params(characteristic: impl Into<String>, params: &[(String, Any)]) -> QosContext {
        QosContext { characteristic: characteristic.into(), params: params.to_vec() }
    }

    /// Builder-style parameter.
    pub fn with_param(mut self, name: impl Into<String>, value: Any) -> QosContext {
        self.params.push((name.into(), value));
        self
    }

    /// Look up a parameter by name.
    pub fn param(&self, name: &str) -> Option<&Any> {
        self.params.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }
}

/// One GIOP service-context slot: out-of-band data riding along with a
/// request or reply (CORBA's `ServiceContext`). MAQS uses slot id
/// [`crate::trace::TRACE_CONTEXT_ID`] to propagate trace contexts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceContext {
    /// Slot identifier, e.g. `"maqs.trace"`.
    pub id: String,
    /// Opaque slot payload.
    pub data: Vec<u8>,
}

/// Find slot `id` in a context list.
fn find_context<'a>(contexts: &'a [ServiceContext], id: &str) -> Option<&'a [u8]> {
    contexts.iter().find(|c| c.id == id).map(|c| c.data.as_slice())
}

/// Insert-or-replace slot `id` in a context list.
fn set_context(contexts: &mut Vec<ServiceContext>, id: &str, data: Vec<u8>) {
    match contexts.iter_mut().find(|c| c.id == id) {
        Some(c) => c.data = data,
        None => contexts.push(ServiceContext { id: id.to_string(), data }),
    }
}

fn encode_contexts(enc: &mut CdrEncoder, contexts: &[ServiceContext]) {
    enc.put_len(contexts.len());
    for c in contexts {
        enc.put_string(&c.id);
        enc.put_bytes(&c.data);
    }
}

fn decode_contexts(dec: &mut CdrDecoder<'_>) -> Result<Vec<ServiceContext>, OrbError> {
    let n = dec.get_len()?;
    let mut contexts = Vec::with_capacity(n.min(16));
    for _ in 0..n {
        let id = dec.get_string()?;
        let data = dec.get_bytes()?;
        contexts.push(ServiceContext { id, data });
    }
    Ok(contexts)
}

/// A request message.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestMessage {
    /// Correlation id, unique per sending ORB.
    pub request_id: u64,
    /// Node the reply should be sent to.
    pub reply_to: NodeId,
    /// Target object within the receiving adapter.
    pub object_key: ObjectKey,
    /// Operation name.
    pub operation: String,
    /// Operation arguments.
    pub args: Vec<Any>,
    /// Whether the caller waits for a reply (`false` = oneway).
    pub response_expected: bool,
    /// Service request vs command (Fig. 3).
    pub kind: RequestKind,
    /// Negotiated-QoS annotation, if any.
    pub qos: Option<QosContext>,
    /// Service-context slots (trace propagation etc.).
    pub contexts: Vec<ServiceContext>,
}

impl RequestMessage {
    /// Payload of service-context slot `id`, if present.
    pub fn context(&self, id: &str) -> Option<&[u8]> {
        find_context(&self.contexts, id)
    }

    /// Set (insert or replace) service-context slot `id`.
    pub fn set_context(&mut self, id: &str, data: Vec<u8>) {
        set_context(&mut self.contexts, id, data);
    }
}

/// Outcome carried by a reply.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplyStatus {
    /// Success, with the operation result.
    Ok(Any),
    /// A system or user exception.
    Exception {
        /// Exception kind (see [`OrbError::kind`]).
        kind: String,
        /// Human-readable detail.
        detail: String,
    },
}

/// A reply message.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplyMessage {
    /// Correlation id matching the request.
    pub request_id: u64,
    /// Node that produced the reply (useful after group fan-out).
    pub from: NodeId,
    /// Outcome.
    pub status: ReplyStatus,
    /// Service-context slots (trace propagation etc.).
    pub contexts: Vec<ServiceContext>,
}

impl ReplyMessage {
    /// Payload of service-context slot `id`, if present.
    pub fn context(&self, id: &str) -> Option<&[u8]> {
        find_context(&self.contexts, id)
    }

    /// Set (insert or replace) service-context slot `id`.
    pub fn set_context(&mut self, id: &str, data: Vec<u8>) {
        set_context(&mut self.contexts, id, data);
    }

    /// Convert the wire status into the client-visible `Result`.
    pub fn into_result(self) -> Result<Any, OrbError> {
        match self.status {
            ReplyStatus::Ok(v) => Ok(v),
            ReplyStatus::Exception { kind, detail } => Err(OrbError::from_wire(&kind, detail)),
        }
    }

    /// Build a reply from a dispatch result.
    pub fn from_result(request_id: u64, from: NodeId, result: Result<Any, OrbError>) -> ReplyMessage {
        let status = match result {
            Ok(v) => ReplyStatus::Ok(v),
            Err(e) => ReplyStatus::Exception { kind: e.kind().to_string(), detail: e.detail().to_string() },
        };
        ReplyMessage { request_id, from, status, contexts: Vec::new() }
    }
}

/// Any GIOP-level message.
#[derive(Debug, Clone, PartialEq)]
pub enum GiopMessage {
    /// A request.
    Request(RequestMessage),
    /// A reply.
    Reply(ReplyMessage),
}

/// Encode a request into `enc` at its current position.
///
/// The caller must ensure the position is 8-aligned (offset 0 of a fresh
/// buffer, or an [`CdrEncoder::align_to`]`(8)` boundary inside a framing
/// buffer) so embedded and standalone encodings are byte-identical.
fn encode_request_into(enc: &mut CdrEncoder, r: &RequestMessage) {
    enc.put_u8(0);
    enc.put_u64(r.request_id);
    enc.put_u32(r.reply_to.0);
    enc.put_string(&r.object_key.0);
    enc.put_string(&r.operation);
    enc.put_bool(r.response_expected);
    match &r.kind {
        RequestKind::ServiceRequest => enc.put_u8(0),
        RequestKind::Command(CommandTarget::Transport) => enc.put_u8(1),
        RequestKind::Command(CommandTarget::Module(m)) => {
            enc.put_u8(2);
            enc.put_string(m);
        }
        RequestKind::Probe => enc.put_u8(3),
    }
    match &r.qos {
        None => enc.put_bool(false),
        Some(q) => {
            enc.put_bool(true);
            enc.put_string(&q.characteristic);
            enc.put_len(q.params.len());
            for (n, v) in &q.params {
                enc.put_string(n);
                v.encode(enc);
            }
        }
    }
    enc.put_len(r.args.len());
    for a in &r.args {
        a.encode(enc);
    }
    encode_contexts(enc, &r.contexts);
}

/// Encode a reply into `enc` at its current (8-aligned) position; see
/// [`encode_request_into`].
fn encode_reply_into(enc: &mut CdrEncoder, r: &ReplyMessage) {
    enc.put_u8(1);
    enc.put_u64(r.request_id);
    enc.put_u32(r.from.0);
    match &r.status {
        ReplyStatus::Ok(v) => {
            enc.put_u8(0);
            v.encode(enc);
        }
        ReplyStatus::Exception { kind, detail } => {
            enc.put_u8(1);
            enc.put_string(kind);
            enc.put_string(detail);
        }
    }
    encode_contexts(enc, &r.contexts);
}

// Per-thread capacity hints so steady-state encodes allocate their final
// buffer once. A hint only grows (to the next power of two above the
// largest message this thread has seen), so a burst of big messages can
// never flip later small ones back into reallocating.
thread_local! {
    static GIOP_CAP: Cell<usize> = const { Cell::new(128) };
    static FRAME_CAP: Cell<usize> = const { Cell::new(160) };
}

fn encode_with_hint(hint: &'static std::thread::LocalKey<Cell<usize>>, f: impl FnOnce(&mut CdrEncoder)) -> Vec<u8> {
    let cap = hint.with(Cell::get);
    let mut enc = CdrEncoder::with_capacity(cap);
    f(&mut enc);
    let out = enc.into_bytes();
    if out.len() > cap {
        hint.with(|h| h.set(out.len().next_power_of_two()));
    }
    out
}

impl GiopMessage {
    /// Encode to wire bytes (without the outer [`Packet`] envelope).
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            GiopMessage::Request(r) => GiopMessage::encode_request(r),
            GiopMessage::Reply(r) => GiopMessage::encode_reply(r),
        }
    }

    /// Borrowing request encoder: wire bytes without cloning the message
    /// or wrapping it in a [`GiopMessage`].
    pub fn encode_request(r: &RequestMessage) -> Vec<u8> {
        encode_with_hint(&GIOP_CAP, |enc| encode_request_into(enc, r))
    }

    /// Borrowing reply encoder; see [`GiopMessage::encode_request`].
    pub fn encode_reply(r: &ReplyMessage) -> Vec<u8> {
        encode_with_hint(&GIOP_CAP, |enc| encode_reply_into(enc, r))
    }

    /// Decode from wire bytes.
    ///
    /// # Errors
    ///
    /// [`OrbError::Marshal`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<GiopMessage, OrbError> {
        let mut dec = CdrDecoder::new(bytes);
        match dec.get_u8()? {
            0 => {
                let request_id = dec.get_u64()?;
                let reply_to = NodeId(dec.get_u32()?);
                let object_key = ObjectKey(dec.get_string()?);
                let operation = dec.get_string()?;
                let response_expected = dec.get_bool()?;
                let kind = match dec.get_u8()? {
                    0 => RequestKind::ServiceRequest,
                    1 => RequestKind::Command(CommandTarget::Transport),
                    2 => RequestKind::Command(CommandTarget::Module(dec.get_string()?)),
                    3 => RequestKind::Probe,
                    k => return Err(OrbError::Marshal(format!("bad request kind {k}"))),
                };
                let qos = if dec.get_bool()? {
                    let characteristic = dec.get_string()?;
                    let n = dec.get_len()?;
                    let mut params = Vec::with_capacity(n.min(64));
                    for _ in 0..n {
                        let name = dec.get_string()?;
                        let val = Any::decode(&mut dec)?;
                        params.push((name, val));
                    }
                    Some(QosContext { characteristic, params })
                } else {
                    None
                };
                let n = dec.get_len()?;
                let mut args = Vec::with_capacity(n.min(256));
                for _ in 0..n {
                    args.push(Any::decode(&mut dec)?);
                }
                let contexts = decode_contexts(&mut dec)?;
                Ok(GiopMessage::Request(RequestMessage {
                    request_id,
                    reply_to,
                    object_key,
                    operation,
                    args,
                    response_expected,
                    kind,
                    qos,
                    contexts,
                }))
            }
            1 => {
                let request_id = dec.get_u64()?;
                let from = NodeId(dec.get_u32()?);
                let status = match dec.get_u8()? {
                    0 => ReplyStatus::Ok(Any::decode(&mut dec)?),
                    1 => {
                        let kind = dec.get_string()?;
                        let detail = dec.get_string()?;
                        ReplyStatus::Exception { kind, detail }
                    }
                    s => return Err(OrbError::Marshal(format!("bad reply status {s}"))),
                };
                let contexts = decode_contexts(&mut dec)?;
                Ok(GiopMessage::Reply(ReplyMessage { request_id, from, status, contexts }))
            }
            t => Err(OrbError::Marshal(format!("bad GIOP message tag {t}"))),
        }
    }
}

/// Just enough of a GIOP body to route it — see [`peek`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GiopPeek {
    /// A request, routed by object key.
    Request {
        /// Stable FNV-1a hash of the object-key bytes; the receive loop
        /// picks the dispatcher shard from it.
        key_hash: u64,
    },
    /// A reply; the receive loop decodes it in full for matching.
    Reply,
}

/// Decode only the routing prefix of a GIOP body: the message tag
/// (request vs reply) and, for requests, a hash of the object key.
///
/// The ORB's receive loop calls this instead of
/// [`GiopMessage::from_bytes`] so the expensive part of request
/// decoding (args, QoS params, service contexts) happens on a
/// dispatcher thread, off the single receive loop. No allocation: the
/// key bytes are hashed straight out of the borrowed buffer. The
/// prefix mirrored here — tag `u8`, request id `u64`, reply-to `u32`,
/// object-key string — must stay in lockstep with `from_bytes`;
/// `peek_agrees_with_full_decode` pins that.
///
/// # Errors
///
/// [`OrbError::Marshal`] on a truncated prefix or unknown tag.
pub fn peek(bytes: &[u8]) -> Result<GiopPeek, OrbError> {
    let mut dec = CdrDecoder::new(bytes);
    match dec.get_u8()? {
        0 => {
            dec.get_u64()?; // request_id
            dec.get_u32()?; // reply_to
            let len = dec.get_u32()? as usize; // object_key string header
            if len == 0 {
                return Err(OrbError::Marshal("bad string length 0".to_string()));
            }
            let raw = dec.get_raw(len)?; // key bytes + NUL
            Ok(GiopPeek::Request { key_hash: fnv1a(&raw[..len - 1]) })
        }
        1 => Ok(GiopPeek::Reply),
        t => Err(OrbError::Marshal(format!("bad GIOP message tag {t}"))),
    }
}

/// FNV-1a over `bytes`: allocation-free and stable across processes and
/// runs — dispatch routing must not depend on `DefaultHasher`'s
/// per-process random seed, or a key's dispatcher would move between
/// restarts and per-key ordering claims would be untestable.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The outer transport envelope.
///
/// Records whether the GIOP body travelled over the plain GIOP/IIOP path
/// or through a transport-level QoS module; in the latter case the body
/// bytes are whatever the module's outbound transform produced, and the
/// receiving ORB applies the module's inverse transform before dispatch.
///
/// Bodies are [`Bytes`]: decoding slices them out of the received wire
/// buffer without copying, and clones share the same backing storage.
///
/// # Wire layout
///
/// The envelope is written *around* the body in one buffer (the
/// reserve-header trick — see [`frame_plain_request`]), with the body
/// placed on an 8-byte boundary so an embedded CDR encoding is
/// byte-identical to a standalone one:
///
/// ```text
/// Plain: MAGIC(4) kind=0(1) pad(3) body_len:u32 pad(4) body @16
/// Qos:   MAGIC(4) kind=1(1) pad(3) module:string body_len:u32 pad* body
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Packet {
    /// Untransformed GIOP bytes, the GIOP/IIOP path of Fig. 3.
    Plain(Bytes),
    /// GIOP bytes transformed by the named QoS module.
    Qos {
        /// Name of the module whose inverse transform must be applied.
        module: String,
        /// Transformed bytes.
        body: Bytes,
    },
}

/// Write the shared packet prologue and the reserved body-length slot,
/// leaving the encoder 8-aligned at the body start.
fn frame_prologue(enc: &mut CdrEncoder, kind: u8, module: Option<&str>) -> usize {
    enc.put_raw(MAGIC);
    enc.put_u8(kind);
    if let Some(m) = module {
        enc.put_string(m);
    }
    let len_at = enc.reserve_u32();
    enc.align_to(8);
    len_at
}

/// Frame a request as a [`Packet::Plain`] wire buffer in **one**
/// encode: the envelope is written first with a reserved length slot,
/// the GIOP body is encoded directly behind it, and the slot is patched
/// — no intermediate body buffer, no copy. With a warm per-thread
/// capacity hint this is exactly one owned-buffer allocation.
pub fn frame_plain_request(r: &RequestMessage) -> Vec<u8> {
    frame_plain_with(|enc| encode_request_into(enc, r))
}

/// Frame a reply as a [`Packet::Plain`] wire buffer in one encode; see
/// [`frame_plain_request`].
pub fn frame_plain_reply(r: &ReplyMessage) -> Vec<u8> {
    frame_plain_with(|enc| encode_reply_into(enc, r))
}

fn frame_plain_with(encode_body: impl FnOnce(&mut CdrEncoder)) -> Vec<u8> {
    encode_with_hint(&FRAME_CAP, |enc| {
        let len_at = frame_prologue(enc, 0, None);
        let body_start = enc.len();
        encode_body(enc);
        enc.patch_u32(len_at, (enc.len() - body_start) as u32);
    })
}

/// Frame an already-transformed module body as a [`Packet::Qos`] wire
/// buffer. The capacity is computed exactly, so this is always one
/// allocation.
pub fn frame_qos(module: &str, body: &[u8]) -> Vec<u8> {
    // MAGIC + kind, 4-align, string (len + bytes + NUL), 4-align,
    // body_len, 8-align, body.
    let mut cap = 5usize;
    cap += 3 + 4 + module.len() + 1;
    cap = (cap + 3) & !3;
    cap += 4;
    cap = (cap + 7) & !7;
    cap += body.len();
    let mut enc = CdrEncoder::with_capacity(cap);
    let len_at = frame_prologue(&mut enc, 1, Some(module));
    enc.put_raw(body);
    enc.patch_u32(len_at, body.len() as u32);
    enc.into_bytes()
}

/// A decoded packet whose module name borrows straight out of the
/// payload: the hot receive path sees one of these per frame and must
/// not allocate. The body is still a zero-copy [`Bytes`] slice; only
/// callers that need to *keep* the name (the server dispatch queue)
/// pay for an owned `String`.
#[derive(Debug, PartialEq, Eq)]
pub enum PacketView<'a> {
    /// Untransformed GIOP bytes, the GIOP/IIOP path of Fig. 3.
    Plain(Bytes),
    /// GIOP bytes transformed by the named QoS module.
    Qos {
        /// Name of the module whose inverse transform must be applied.
        module: &'a str,
        /// Transformed bytes.
        body: Bytes,
    },
}

impl Packet {
    /// Encode with magic and kind byte (single-buffer framing).
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            Packet::Plain(body) => frame_plain_with(|enc| enc.put_raw(body)),
            Packet::Qos { module, body } => frame_qos(module, body),
        }
    }

    /// Decode a packet without allocating: the body is sliced out of
    /// `payload` zero-copy and the module name borrows from it.
    ///
    /// # Errors
    ///
    /// [`OrbError::Marshal`] on bad magic or malformed framing.
    pub fn decode_view(payload: &Bytes) -> Result<PacketView<'_>, OrbError> {
        let mut dec = CdrDecoder::new(payload);
        if dec.get_raw(4)? != MAGIC {
            return Err(OrbError::Marshal("bad packet magic".to_string()));
        }
        let kind = dec.get_u8()?;
        let module = match kind {
            0 => None,
            1 => Some(dec.get_str()?),
            k => return Err(OrbError::Marshal(format!("bad packet kind {k}"))),
        };
        let len = dec.get_len()?;
        dec.align_to(8);
        let start = dec.position();
        dec.get_raw(len)?; // bounds check against the real buffer
        let body = payload.slice(start..start + len);
        Ok(match module {
            None => PacketView::Plain(body),
            Some(module) => PacketView::Qos { module, body },
        })
    }

    /// Decode a packet, slicing the body out of `payload` zero-copy
    /// (the module name, if any, is owned; the hot receive path uses
    /// [`Packet::decode_view`] instead).
    ///
    /// # Errors
    ///
    /// [`OrbError::Marshal`] on bad magic or malformed framing.
    pub fn decode(payload: &Bytes) -> Result<Packet, OrbError> {
        Ok(match Packet::decode_view(payload)? {
            PacketView::Plain(body) => Packet::Plain(body),
            PacketView::Qos { module, body } => {
                Packet::Qos { module: module.to_owned(), body }
            }
        })
    }

    /// Decode a packet from a plain slice (copies the body; the hot
    /// receive path uses [`Packet::decode`] instead).
    ///
    /// # Errors
    ///
    /// As [`Packet::decode`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Packet, OrbError> {
        Packet::decode(&Bytes::copy_from_slice(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> RequestMessage {
        RequestMessage {
            request_id: 42,
            reply_to: NodeId(1),
            object_key: ObjectKey("bank-1".into()),
            operation: "deposit".into(),
            args: vec![Any::Long(100), Any::Str("acct".into())],
            response_expected: true,
            kind: RequestKind::ServiceRequest,
            qos: Some(
                QosContext::new("compression").with_param("level", Any::Octet(3)),
            ),
            contexts: vec![ServiceContext { id: "maqs.trace".into(), data: vec![9, 8, 7] }],
        }
    }

    #[test]
    fn request_roundtrip() {
        let m = GiopMessage::Request(sample_request());
        assert_eq!(GiopMessage::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn command_roundtrip() {
        for target in [CommandTarget::Transport, CommandTarget::Module("mcast".into())] {
            let mut r = sample_request();
            r.kind = RequestKind::Command(target);
            r.qos = None;
            let m = GiopMessage::Request(r);
            assert_eq!(GiopMessage::from_bytes(&m.to_bytes()).unwrap(), m);
        }
    }

    #[test]
    fn probe_roundtrip() {
        let mut r = sample_request();
        r.kind = RequestKind::Probe;
        r.qos = None;
        let m = GiopMessage::Request(r);
        assert_eq!(GiopMessage::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn reply_roundtrip_ok_and_exception() {
        let ok = GiopMessage::Reply(ReplyMessage {
            request_id: 7,
            from: NodeId(2),
            status: ReplyStatus::Ok(Any::Str("done".into())),
            contexts: vec![ServiceContext { id: "maqs.trace".into(), data: vec![1] }],
        });
        assert_eq!(GiopMessage::from_bytes(&ok.to_bytes()).unwrap(), ok);

        let exc = GiopMessage::Reply(ReplyMessage {
            request_id: 8,
            from: NodeId(2),
            status: ReplyStatus::Exception { kind: "BAD_OPERATION".into(), detail: "nope".into() },
            contexts: Vec::new(),
        });
        assert_eq!(GiopMessage::from_bytes(&exc.to_bytes()).unwrap(), exc);
    }

    #[test]
    fn reply_into_result() {
        let ok = ReplyMessage {
            request_id: 1,
            from: NodeId(0),
            status: ReplyStatus::Ok(Any::Long(5)),
            contexts: Vec::new(),
        };
        assert_eq!(ok.into_result().unwrap(), Any::Long(5));
        let err = ReplyMessage::from_result(1, NodeId(0), Err(OrbError::BadOperation("f".into())));
        assert_eq!(err.into_result(), Err(OrbError::BadOperation("f".into())));
    }

    #[test]
    fn packet_roundtrip() {
        let giop = GiopMessage::Request(sample_request()).to_bytes();
        let plain = Packet::Plain(giop.clone().into());
        assert_eq!(Packet::from_bytes(&plain.to_bytes()).unwrap(), plain);
        let qos = Packet::Qos { module: "compress".into(), body: giop.into() };
        assert_eq!(Packet::from_bytes(&qos.to_bytes()).unwrap(), qos);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = Packet::Plain(vec![1].into()).to_bytes();
        bytes[0] = b'X';
        assert!(Packet::from_bytes(&bytes).is_err());
    }

    #[test]
    fn borrowing_encoders_match_to_bytes() {
        let req = sample_request();
        assert_eq!(GiopMessage::encode_request(&req), GiopMessage::Request(req.clone()).to_bytes());
        let reply = ReplyMessage {
            request_id: 9,
            from: NodeId(3),
            status: ReplyStatus::Ok(Any::Long(1)),
            contexts: vec![ServiceContext { id: "maqs.trace".into(), data: vec![4, 5] }],
        };
        assert_eq!(GiopMessage::encode_reply(&reply), GiopMessage::Reply(reply.clone()).to_bytes());
    }

    #[test]
    fn single_buffer_framing_matches_two_step_encoding() {
        // The reserve-header frame must be byte-identical to wrapping a
        // standalone GIOP encode in a Packet, for every message shape.
        let req = sample_request();
        let two_step = Packet::Plain(GiopMessage::encode_request(&req).into()).to_bytes();
        assert_eq!(frame_plain_request(&req), two_step);

        let reply = ReplyMessage::from_result(7, NodeId(2), Ok(Any::Str("x".into())));
        let two_step = Packet::Plain(GiopMessage::encode_reply(&reply).into()).to_bytes();
        assert_eq!(frame_plain_reply(&reply), two_step);
    }

    #[test]
    fn framed_request_decodes_back() {
        let req = sample_request();
        let wire: Bytes = frame_plain_request(&req).into();
        let Packet::Plain(body) = Packet::decode(&wire).unwrap() else {
            panic!("expected plain packet");
        };
        assert_eq!(GiopMessage::from_bytes(&body).unwrap(), GiopMessage::Request(req));
    }

    #[test]
    fn qos_frame_roundtrips_arbitrary_bodies() {
        for body in [&b""[..], &b"z"[..], &[0xFFu8; 37][..]] {
            let wire: Bytes = frame_qos("compress", body).into();
            let got = Packet::decode(&wire).unwrap();
            assert_eq!(got, Packet::Qos { module: "compress".into(), body: Bytes::copy_from_slice(body) });
        }
    }

    #[test]
    fn decode_slices_body_zero_copy() {
        let wire: Bytes = frame_plain_request(&sample_request()).into();
        let Packet::Plain(body) = Packet::decode(&wire).unwrap() else {
            panic!("expected plain packet");
        };
        let wire_range = wire.as_ptr() as usize..wire.as_ptr() as usize + wire.len();
        assert!(
            wire_range.contains(&(body.as_ptr() as usize)),
            "decoded body must alias the wire buffer, not copy it"
        );
    }

    #[test]
    fn qos_context_param_lookup() {
        let q = QosContext::new("enc").with_param("key", Any::ULong(9));
        assert_eq!(q.param("key"), Some(&Any::ULong(9)));
        assert_eq!(q.param("nope"), None);
    }

    #[test]
    fn service_context_set_and_lookup() {
        let mut r = sample_request();
        assert_eq!(r.context("maqs.trace"), Some(&[9u8, 8, 7][..]));
        assert_eq!(r.context("absent"), None);
        r.set_context("maqs.trace", vec![1]);
        r.set_context("other", vec![2]);
        assert_eq!(r.context("maqs.trace"), Some(&[1u8][..]));
        assert_eq!(r.contexts.len(), 2);
        let mut reply = ReplyMessage::from_result(1, NodeId(0), Ok(Any::Void));
        assert_eq!(reply.context("maqs.trace"), None);
        reply.set_context("maqs.trace", vec![3]);
        assert_eq!(reply.context("maqs.trace"), Some(&[3u8][..]));
    }

    #[test]
    fn truncated_message_rejected() {
        let bytes = GiopMessage::Request(sample_request()).to_bytes();
        assert!(GiopMessage::from_bytes(&bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn peek_agrees_with_full_decode() {
        // Requests peek as Request, with a key hash that depends only on
        // the object key — the routing contract.
        let r1 = sample_request();
        let h1 = match peek(&GiopMessage::Request(r1.clone()).to_bytes()).unwrap() {
            GiopPeek::Request { key_hash } => key_hash,
            other => panic!("request peeked as {other:?}"),
        };
        let mut r2 = sample_request();
        r2.request_id = 999;
        r2.operation = "withdraw".into();
        r2.args.clear();
        match peek(&GiopMessage::Request(r2).to_bytes()).unwrap() {
            GiopPeek::Request { key_hash } => {
                assert_eq!(key_hash, h1, "hash must depend only on the object key");
            }
            other => panic!("request peeked as {other:?}"),
        }
        let mut r3 = sample_request();
        r3.object_key = ObjectKey("bank-2".into());
        match peek(&GiopMessage::Request(r3).to_bytes()).unwrap() {
            GiopPeek::Request { key_hash } => {
                assert_ne!(key_hash, h1, "distinct keys must (here) hash apart");
            }
            other => panic!("request peeked as {other:?}"),
        }
        // Replies peek as Reply; garbage and truncation are errors.
        let reply = GiopMessage::Reply(ReplyMessage::from_result(7, NodeId(2), Ok(Any::Void)));
        assert_eq!(peek(&reply.to_bytes()).unwrap(), GiopPeek::Reply);
        assert!(peek(&[9, 9, 9]).is_err());
        assert!(peek(&GiopMessage::Request(sample_request()).to_bytes()[..6]).is_err());
    }
}
