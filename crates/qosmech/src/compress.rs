//! Compression for small-bandwidth channels.
//!
//! The paper's performance-category example for transport-level QoS:
//! trade CPU for bytes on the wire. The codec is a from-scratch
//! LZ77-style compressor (the offline dependency set has no compression
//! crate) built so that binding it is a policy question, not a
//! performance one: an LZ4-style single-probe encoder that runs at
//! memory speed on redundant payloads, and a decoder that refuses to
//! expand a frame past [`orb::wire::MAX_WIRE_FRAME`].

use orb::sync::{LockRank, OrderedRwLock};
use orb::qos_binding::{Outbound, QosModule};
use orb::{Any, MetricsRegistry, OrbError};
use netsim::NodeId;
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};

/// The `MLZ1` codec.
///
/// **Format.** `MAGIC`, then a token stream. Token first byte: `0x00,
/// len(u16 le), bytes` = literal run; `0x01, dist(u16 le), len(u8)` =
/// copy `len` bytes starting `dist` bytes back in the output (the copy
/// may overlap its own output, which is how runs are expressed).
///
/// **Encoder.** One probe per position: a table of the most recent
/// position of each hashed 4-byte prefix, no chains. A candidate within
/// `WINDOW` whose 4 bytes match is extended 8 bytes at a time to the end
/// of the common run, however long; runs past the 255-byte token limit
/// are continued at the same distance rather than searched for again.
/// Literals are sliced straight from the input. The table is
/// thread-local (16 KiB per compressing thread, cleared per call), so a
/// call allocates nothing but its output.
///
/// **Decoder.** Walks the token headers once to validate them and size
/// the output exactly, rejecting anything that would decode to more than
/// [`orb::wire::MAX_WIRE_FRAME`] bytes before allocating, then copies.
pub mod codec {
    use std::cell::RefCell;

    /// Magic prefix of compressed buffers.
    pub const MAGIC: &[u8; 4] = b"MLZ1";

    const WINDOW: usize = 4096;
    const MIN_MATCH: usize = 4;
    const MAX_MATCH: usize = 255;
    const MAX_LITERAL_RUN: usize = u16::MAX as usize;
    const HASH_BITS: u32 = 12;

    /// Largest output [`decompress`] will produce: no frame the ORB can
    /// carry is bigger, so a larger claim is corruption or a bomb.
    const MAX_OUTPUT: usize = orb::wire::MAX_WIRE_FRAME;

    thread_local! {
        /// Most recent input position of each hashed 4-byte prefix.
        /// Entries are only ever candidates: the encoder checks distance
        /// and bytes before trusting one, so the cleared value 0 needs
        /// no sentinel.
        static POSITIONS: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    }

    fn hash(prefix: u32) -> usize {
        (prefix.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
    }

    fn prefix_at(input: &[u8], at: usize) -> u32 {
        u32::from_le_bytes(input[at..at + 4].try_into().expect("4-byte slice"))
    }

    /// Length of the common prefix of `a` and `b`, compared a word at a
    /// time.
    fn common_prefix(a: &[u8], b: &[u8]) -> usize {
        let mut n = 0;
        for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
            let diff = u64::from_le_bytes(x.try_into().expect("8-byte chunk"))
                ^ u64::from_le_bytes(y.try_into().expect("8-byte chunk"));
            if diff != 0 {
                return n + (diff.trailing_zeros() / 8) as usize;
            }
            n += 8;
        }
        n + a[n..].iter().zip(&b[n..]).take_while(|(x, y)| x == y).count()
    }

    fn push_literals(out: &mut Vec<u8>, literals: &[u8]) {
        for run in literals.chunks(MAX_LITERAL_RUN) {
            out.push(0x00);
            out.extend_from_slice(&(run.len() as u16).to_le_bytes());
            out.extend_from_slice(run);
        }
    }

    /// Compress `input`.
    ///
    /// Incompressible inputs grow by at most 3 bytes per 64 KiB literal
    /// run plus the 4-byte magic.
    pub fn compress(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        out.extend_from_slice(MAGIC);
        POSITIONS.with(|cell| {
            let mut positions = cell.borrow_mut();
            positions.clear();
            positions.resize(1 << HASH_BITS, 0);
            encode(input, &mut positions, &mut out);
        });
        out
    }

    fn encode(input: &[u8], positions: &mut [u32], out: &mut Vec<u8>) {
        let mut anchor = 0; // start of the literals not yet emitted
        let mut i = 0;
        while i + MIN_MATCH <= input.len() {
            let prefix = prefix_at(input, i);
            let slot = &mut positions[hash(prefix)];
            let cand = *slot as usize;
            // Truncation past 4 GiB only makes the entry look too far away.
            *slot = i as u32;
            if cand >= i || i - cand > WINDOW || prefix_at(input, cand) != prefix {
                i += 1;
                continue;
            }
            let len =
                MIN_MATCH + common_prefix(&input[cand + MIN_MATCH..], &input[i + MIN_MATCH..]);
            push_literals(out, &input[anchor..i]);
            let dist = ((i - cand) as u16).to_le_bytes();
            let mut left = len;
            while left >= MIN_MATCH {
                let n = left.min(MAX_MATCH);
                out.extend_from_slice(&[0x01, dist[0], dist[1], n as u8]);
                left -= n;
            }
            // A tail too short to be worth a token stays literal.
            i += len - left;
            anchor = i;
        }
        push_literals(out, &input[anchor..]);
    }

    enum Token<'a> {
        Literals(&'a [u8]),
        Match { dist: usize, len: usize },
    }

    /// The tokens of a frame body, ending at the first malformed one.
    struct Tokens<'a>(&'a [u8]);

    impl<'a> Iterator for Tokens<'a> {
        type Item = Result<Token<'a>, String>;

        fn next(&mut self) -> Option<Self::Item> {
            let (item, rest) = match self.0 {
                [] => return None,
                [0x00, lo, hi, rest @ ..] => {
                    let len = u16::from_le_bytes([*lo, *hi]) as usize;
                    match rest.split_at_checked(len) {
                        Some((run, rest)) => (Ok(Token::Literals(run)), rest),
                        None => (Err("truncated literal run".to_string()), &[][..]),
                    }
                }
                [0x00, ..] => (Err("truncated literal header".to_string()), &[][..]),
                [0x01, lo, hi, len, rest @ ..] => {
                    let dist = u16::from_le_bytes([*lo, *hi]) as usize;
                    (Ok(Token::Match { dist, len: *len as usize }), rest)
                }
                [0x01, ..] => (Err("truncated match token".to_string()), &[][..]),
                [t, ..] => (Err(format!("bad token {t}")), &[][..]),
            };
            self.0 = rest;
            Some(item)
        }
    }

    /// Decompress a buffer produced by [`compress`].
    ///
    /// # Errors
    ///
    /// Returns a description of the corruption on malformed input, and
    /// refuses — before allocating — input that would decode to more
    /// than `orb::wire::MAX_WIRE_FRAME` bytes.
    pub fn decompress(input: &[u8]) -> Result<Vec<u8>, String> {
        let body = input
            .strip_prefix(MAGIC.as_slice())
            .ok_or_else(|| "missing MLZ1 magic".to_string())?;
        // Pass 1: every token is well-formed and every match reaches
        // back into output that exists; the total is the output size.
        let mut total = 0usize;
        for token in Tokens(body) {
            total += match token? {
                Token::Literals(run) => run.len(),
                Token::Match { dist, .. } if dist == 0 || dist > total => {
                    return Err(format!("bad match distance {dist}"));
                }
                Token::Match { len, .. } => len,
            };
            if total > MAX_OUTPUT {
                return Err(format!("decompressed size exceeds {MAX_OUTPUT} bytes"));
            }
        }
        // Pass 2: copy. Nothing below fails or reallocates.
        let mut out = Vec::with_capacity(total);
        for token in Tokens(body) {
            match token? {
                Token::Literals(run) => out.extend_from_slice(run),
                Token::Match { dist, len } => {
                    // `out[start..]` is periodic in `dist`; appending a
                    // prefix of it keeps it so, and each round doubles
                    // what the next may copy. A non-overlapping match is
                    // one round.
                    let start = out.len() - dist;
                    let mut left = len;
                    while left > 0 {
                        let n = left.min(out.len() - start);
                        out.extend_from_within(start..start + n);
                        left -= n;
                    }
                }
            }
        }
        Ok(out)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn roundtrip(data: &[u8]) {
            let c = compress(data);
            assert_eq!(decompress(&c).unwrap(), data, "len={}", data.len());
        }

        #[test]
        fn roundtrips() {
            roundtrip(b"");
            roundtrip(b"a");
            roundtrip(b"hello world hello world hello world");
            roundtrip(&[0u8; 10_000]);
            roundtrip("the quick brown fox ".repeat(500).as_bytes());
            let noisy: Vec<u8> = (0..5_000u32).map(|i| (i.wrapping_mul(2654435761)) as u8).collect();
            roundtrip(&noisy);
        }

        #[test]
        fn repetitive_data_compresses_well() {
            let data = b"abcdefgh".repeat(1000);
            let c = compress(&data);
            assert!(c.len() < data.len() / 5, "got {} of {}", c.len(), data.len());
        }

        #[test]
        fn random_data_grows_only_slightly() {
            let mut data = vec![0u8; 64 * 1024];
            netsim::rng::SplitMix64::new(1).fill(&mut data);
            let c = compress(&data);
            assert!(c.len() <= data.len() + 16, "got {} of {}", c.len(), data.len());
            assert_eq!(decompress(&c).unwrap(), data);
        }

        #[test]
        fn long_literal_runs_split_correctly() {
            let mut data = vec![0u8; 70_000]; // > u16::MAX literal run
            netsim::rng::SplitMix64::new(2).fill(&mut data);
            roundtrip(&data);
        }

        #[test]
        fn corrupt_input_rejected() {
            assert!(decompress(b"nope").is_err());
            assert!(decompress(b"MLZ1\x00\xff\xff").is_err()); // truncated run
            assert!(decompress(b"MLZ1\x01\x01\x00\x05").is_err()); // dist > output
            assert!(decompress(b"MLZ1\x07").is_err()); // bad token
        }
    }
}

/// Transport-level compression QoS module.
///
/// Compresses every outbound GIOP body and decompresses inbound ones.
/// Dynamic interface: `stats()` → `[bytes_in, bytes_out]` (as
/// `ulonglong`s), `reset_stats()`.
#[derive(Debug)]
pub struct CompressionModule {
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    metrics: OrderedRwLock<Option<MetricsRegistry>>,
}

impl Default for CompressionModule {
    fn default() -> CompressionModule {
        CompressionModule {
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            metrics: OrderedRwLock::new(LockRank::QosMechMetrics, None),
        }
    }
}

/// The module name compression binds under.
pub const COMPRESSION_MODULE: &str = "compression";

impl CompressionModule {
    /// A fresh module with zeroed statistics.
    pub fn new() -> CompressionModule {
        CompressionModule::default()
    }

    /// Mirror byte counts into `registry` as counters
    /// `qos.compression.bytes_in` (uncompressed) and
    /// `qos.compression.bytes_out` (on the wire), so the wire savings
    /// show up next to the request-path metrics.
    pub fn set_metrics(&self, registry: Option<MetricsRegistry>) {
        *self.metrics.write() = registry;
    }

    /// Uncompressed bytes seen on the outbound path.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in.load(Ordering::Relaxed)
    }

    /// Compressed bytes emitted on the outbound path.
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out.load(Ordering::Relaxed)
    }

    /// Output/input ratio (1.0 when nothing was seen).
    pub fn ratio(&self) -> f64 {
        let i = self.bytes_in();
        if i == 0 {
            1.0
        } else {
            self.bytes_out() as f64 / i as f64
        }
    }
}

impl QosModule for CompressionModule {
    fn name(&self) -> &str {
        COMPRESSION_MODULE
    }

    fn command(&self, op: &str, _args: &[Any]) -> Result<Any, OrbError> {
        match op {
            "stats" => Ok(Any::Sequence(vec![
                Any::ULongLong(self.bytes_in()),
                Any::ULongLong(self.bytes_out()),
            ])),
            "reset_stats" => {
                self.bytes_in.store(0, Ordering::Relaxed);
                self.bytes_out.store(0, Ordering::Relaxed);
                Ok(Any::Void)
            }
            other => Err(OrbError::BadOperation(format!("compression command {other}"))),
        }
    }

    fn outbound(&self, dst: NodeId, bytes: Vec<u8>) -> Result<Outbound, OrbError> {
        self.bytes_in.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        let compressed = codec::compress(&bytes);
        self.bytes_out.fetch_add(compressed.len() as u64, Ordering::Relaxed);
        if let Some(m) = self.metrics.read().as_ref() {
            m.add("qos.compression.bytes_in", bytes.len() as u64);
            m.add("qos.compression.bytes_out", compressed.len() as u64);
        }
        Ok(vec![(dst, compressed)])
    }

    fn inbound<'a>(
        &self,
        _src: NodeId,
        bytes: &'a [u8],
    ) -> Result<Option<Cow<'a, [u8]>>, OrbError> {
        codec::decompress(bytes)
            .map(|v| Some(Cow::Owned(v)))
            .map_err(|e| OrbError::Marshal(format!("decompression failed: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{LinkModel, Network};
    use orb::qos_binding::BindingKey;
    use orb::giop::QosContext;
    use orb::{Orb, Servant};
    use std::sync::Arc;

    struct Blob;
    impl Servant for Blob {
        fn interface_id(&self) -> &str {
            "IDL:Blob:1.0"
        }
        fn dispatch(&self, op: &str, args: &[Any]) -> Result<Any, OrbError> {
            match op {
                "echo" => Ok(args[0].clone()),
                _ => Err(OrbError::BadOperation(op.to_string())),
            }
        }
    }

    #[test]
    fn module_transforms_roundtrip() {
        let m = CompressionModule::new();
        let data = b"payload payload payload payload".to_vec();
        let out = m.outbound(NodeId(1), data.clone()).unwrap();
        assert_eq!(out.len(), 1);
        assert_ne!(out[0].1, data);
        let back = m.inbound(NodeId(1), &out[0].1).unwrap().unwrap();
        assert_eq!(back, data);
        assert!(m.bytes_out() < m.bytes_in());
        assert!(m.ratio() < 1.0);
    }

    #[test]
    fn byte_counters_mirror_into_metrics() {
        let m = CompressionModule::new();
        let registry = MetricsRegistry::new();
        m.set_metrics(Some(registry.clone()));
        m.outbound(NodeId(1), b"data ".repeat(100)).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("qos.compression.bytes_in"), 500);
        let out = snap.counter("qos.compression.bytes_out");
        assert!(out > 0 && out < 500);
        m.set_metrics(None);
        m.outbound(NodeId(1), vec![7; 64]).unwrap();
        assert_eq!(registry.snapshot().counter("qos.compression.bytes_in"), 500);
    }

    #[test]
    fn corrupt_inbound_is_marshal_error() {
        let m = CompressionModule::new();
        assert!(matches!(
            m.inbound(NodeId(1), &[1, 2, 3]),
            Err(OrbError::Marshal(_))
        ));
    }

    #[test]
    fn stats_command() {
        let m = CompressionModule::new();
        m.outbound(NodeId(1), vec![7; 100]).unwrap();
        let stats = m.command("stats", &[]).unwrap();
        let items = stats.as_sequence().unwrap();
        assert_eq!(items[0], Any::ULongLong(100));
        assert!(items[1].as_i64().unwrap() < 100);
        m.command("reset_stats", &[]).unwrap();
        assert_eq!(m.bytes_in(), 0);
        assert!(m.command("zip", &[]).is_err());
    }

    #[test]
    fn end_to_end_compressed_channel_saves_wire_bytes() {
        let net = Network::new(1);
        let server = Orb::start(&net, "server");
        let client = Orb::start(&net, "client");
        net.set_link(client.node(), server.node(), LinkModel::narrowband(64));
        let ior = server.activate_with_tags("blob", Box::new(Blob), &["compression"]);

        // First: uncompressed baseline.
        let payload = Any::Bytes(b"data ".repeat(2000)); // highly compressible
        client.invoke(&ior, "echo", &[payload.clone()]).unwrap();
        let plain_bytes = net.stats().link(client.node(), server.node()).bytes_delivered;

        // Now bind the compression module on both sides.
        client.qos_transport().install(Arc::new(CompressionModule::new()));
        server.qos_transport().install(Arc::new(CompressionModule::new()));
        client
            .qos_transport()
            .bind(BindingKey { peer: None, key: ior.key.clone() }, COMPRESSION_MODULE)
            .unwrap();
        let qos = Some(QosContext::new("compression"));
        let reply = client.invoke_qos(&ior, "echo", &[payload.clone()], qos).unwrap();
        assert_eq!(reply, payload);
        let total = net.stats().link(client.node(), server.node()).bytes_delivered;
        let compressed_bytes = total - plain_bytes;
        assert!(
            compressed_bytes * 4 < plain_bytes,
            "compressed {compressed_bytes} vs plain {plain_bytes}"
        );
        server.shutdown();
        client.shutdown();
    }
}
