//! Interoperable object references (IORs).
//!
//! An [`Ior`] names a remote object: the interface repository id, the
//! network node hosting it, and the object key within that node's object
//! adapter. Following Fig. 3 of the paper, an IOR additionally carries
//! **QoS tags**: the names of the QoS characteristics the server offers
//! for this object. A request is "QoS aware" exactly when its target IOR
//! is tagged, which is what lets the invocation interface decide between
//! the plain GIOP path and the QoS transport.

use crate::cdr::{CdrDecoder, CdrEncoder};
use crate::error::OrbError;
use crate::wire::Endpoint;
use netsim::NodeId;
use std::fmt;

/// Opaque object identity within one object adapter.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectKey(pub String);

impl ObjectKey {
    /// The key's string form.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<&str> for ObjectKey {
    fn from(s: &str) -> ObjectKey {
        ObjectKey(s.to_string())
    }
}

impl From<String> for ObjectKey {
    fn from(s: String) -> ObjectKey {
        ObjectKey(s)
    }
}

impl fmt::Display for ObjectKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// An interoperable object reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ior {
    /// Repository id of the object's interface, e.g. `IDL:Bank:1.0`.
    pub type_id: String,
    /// The network node hosting the object.
    pub node: NodeId,
    /// Object key within the hosting adapter.
    pub key: ObjectKey,
    /// QoS characteristics offered for this object (empty = QoS-unaware).
    pub qos_tags: Vec<String>,
    /// Tagged endpoint profiles: how the hosting node's wire transport
    /// can be reached. Empty for simulator-backed references (the
    /// simulator routes by [`NodeId`] alone); socket-backed ORBs attach
    /// their listener endpoint on `activate`, which is what lets a
    /// reference cross a process boundary.
    pub endpoints: Vec<Endpoint>,
}

impl Ior {
    /// A QoS-unaware reference.
    pub fn new(type_id: impl Into<String>, node: NodeId, key: impl Into<ObjectKey>) -> Ior {
        Ior {
            type_id: type_id.into(),
            node,
            key: key.into(),
            qos_tags: Vec::new(),
            endpoints: Vec::new(),
        }
    }

    /// Builder-style: add a QoS tag (idempotent).
    pub fn with_qos_tag(mut self, tag: impl Into<String>) -> Ior {
        let tag = tag.into();
        if !self.qos_tags.contains(&tag) {
            self.qos_tags.push(tag);
        }
        self
    }

    /// Builder-style: attach an endpoint profile (idempotent).
    pub fn with_endpoint(mut self, endpoint: Endpoint) -> Ior {
        if !self.endpoints.contains(&endpoint) {
            self.endpoints.push(endpoint);
        }
        self
    }

    /// Builder-style: attach several endpoint profiles in order
    /// (idempotent per endpoint). Order matters: socket transports
    /// prefer earlier endpoints and fail over down the list.
    pub fn with_endpoints(mut self, endpoints: impl IntoIterator<Item = Endpoint>) -> Ior {
        for endpoint in endpoints {
            if !self.endpoints.contains(&endpoint) {
                self.endpoints.push(endpoint);
            }
        }
        self
    }

    /// The first endpoint profile, if any.
    pub fn endpoint(&self) -> Option<&Endpoint> {
        self.endpoints.first()
    }

    /// Whether this reference is QoS-aware (Fig. 3's "With QoS?" test).
    pub fn is_qos_aware(&self) -> bool {
        !self.qos_tags.is_empty()
    }

    /// Whether a particular characteristic is offered.
    pub fn offers(&self, characteristic: &str) -> bool {
        self.qos_tags.iter().any(|t| t == characteristic)
    }

    /// Encode onto a CDR stream.
    pub fn encode(&self, enc: &mut CdrEncoder) {
        enc.put_string(&self.type_id);
        enc.put_u32(self.node.0);
        enc.put_string(&self.key.0);
        enc.put_len(self.qos_tags.len());
        for t in &self.qos_tags {
            enc.put_string(t);
        }
        enc.put_len(self.endpoints.len());
        for e in &self.endpoints {
            e.encode(enc);
        }
    }

    /// Decode from a CDR stream.
    ///
    /// # Errors
    ///
    /// [`OrbError::Marshal`] on malformed input.
    pub fn decode(dec: &mut CdrDecoder<'_>) -> Result<Ior, OrbError> {
        let type_id = dec.get_string()?;
        let node = NodeId(dec.get_u32()?);
        let key = ObjectKey(dec.get_string()?);
        let n = dec.get_len()?;
        let mut qos_tags = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            qos_tags.push(dec.get_string()?);
        }
        // Endpoint profiles were added after the original encoding; a
        // reference encoded without them still decodes (empty profile
        // list) so pre-profile URIs keep working.
        let mut endpoints = Vec::new();
        if !dec.is_at_end() {
            let n = dec.get_len()?;
            endpoints.reserve(n.min(8));
            for _ in 0..n {
                endpoints.push(Endpoint::decode(dec)?);
            }
        }
        Ok(Ior { type_id, node, key, qos_tags, endpoints })
    }

    /// Stringified form, `maqs-ior:<hex of CDR encoding>`, the analogue of
    /// CORBA's `IOR:...` URIs for passing references out of band.
    pub fn to_uri(&self) -> String {
        let mut enc = CdrEncoder::new();
        self.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut s = String::with_capacity(9 + bytes.len() * 2);
        s.push_str("maqs-ior:");
        for b in bytes {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Parse a `maqs-ior:` URI.
    ///
    /// # Errors
    ///
    /// [`OrbError::Marshal`] if the scheme, hex or payload is malformed.
    pub fn from_uri(uri: &str) -> Result<Ior, OrbError> {
        let hex = uri
            .strip_prefix("maqs-ior:")
            .ok_or_else(|| OrbError::Marshal("missing maqs-ior: scheme".to_string()))?;
        if hex.len() % 2 != 0 {
            return Err(OrbError::Marshal("odd-length IOR hex".to_string()));
        }
        // Digit by digit over the bytes: slicing the `str` two bytes at
        // a time would panic inside a multi-byte character.
        let nibble = |digit: u8| {
            char::from(digit).to_digit(16).ok_or_else(|| {
                OrbError::Marshal(format!("bad IOR hex digit {:?}", char::from(digit)))
            })
        };
        let mut bytes = Vec::with_capacity(hex.len() / 2);
        for pair in hex.as_bytes().chunks_exact(2) {
            bytes.push((nibble(pair[0])? << 4 | nibble(pair[1])?) as u8);
        }
        Ior::decode(&mut CdrDecoder::new(&bytes))
    }
}

impl fmt::Display for Ior {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}/{}", self.type_id, self.node, self.key)?;
        if self.is_qos_aware() {
            write!(f, " [qos: {}]", self.qos_tags.join(","))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ior {
        Ior::new("IDL:Bank:1.0", NodeId(3), "bank-1")
            .with_qos_tag("replication")
            .with_qos_tag("encryption")
    }

    #[test]
    fn cdr_roundtrip() {
        let ior = sample();
        let mut enc = CdrEncoder::new();
        ior.encode(&mut enc);
        let bytes = enc.into_bytes();
        assert_eq!(Ior::decode(&mut CdrDecoder::new(&bytes)).unwrap(), ior);
    }

    #[test]
    fn uri_roundtrip() {
        let ior = sample();
        let uri = ior.to_uri();
        assert!(uri.starts_with("maqs-ior:"));
        assert_eq!(Ior::from_uri(&uri).unwrap(), ior);
    }

    #[test]
    fn qos_awareness() {
        let plain = Ior::new("IDL:X:1.0", NodeId(0), "x");
        assert!(!plain.is_qos_aware());
        let tagged = plain.clone().with_qos_tag("compression");
        assert!(tagged.is_qos_aware());
        assert!(tagged.offers("compression"));
        assert!(!tagged.offers("replication"));
    }

    #[test]
    fn tags_are_idempotent() {
        let ior = Ior::new("IDL:X:1.0", NodeId(0), "x")
            .with_qos_tag("a")
            .with_qos_tag("a");
        assert_eq!(ior.qos_tags, vec!["a"]);
    }

    #[test]
    fn bad_uris_are_rejected() {
        assert!(Ior::from_uri("ior:abcd").is_err());
        assert!(Ior::from_uri("maqs-ior:abc").is_err()); // odd length
        assert!(Ior::from_uri("maqs-ior:zz").is_err()); // bad hex
        assert!(Ior::from_uri("maqs-ior:00").is_err()); // truncated payload
        assert!(Ior::from_uri("maqs-ior:0é0").is_err()); // a pair splits a character
        assert!(Ior::from_uri("maqs-ior:+f").is_err()); // a sign is not a digit
    }

    #[test]
    fn endpoint_profiles_roundtrip_cdr_and_uri() {
        let ior = sample()
            .with_endpoint(Endpoint::Tcp("127.0.0.1:9443".to_string()))
            .with_endpoint(Endpoint::Uds("/tmp/maqs.sock".to_string()))
            .with_endpoint(Endpoint::Tcp("127.0.0.1:9443".to_string())); // idempotent
        assert_eq!(ior.endpoints.len(), 2);
        assert_eq!(ior.endpoint(), Some(&Endpoint::Tcp("127.0.0.1:9443".to_string())));
        let uri = ior.to_uri();
        assert_eq!(Ior::from_uri(&uri).unwrap(), ior);
    }

    #[test]
    fn pre_profile_encoding_still_decodes() {
        // An IOR encoded without the trailing endpoint-profile list (the
        // pre-wire-boundary format) must still parse, with no profiles.
        let ior = sample();
        let mut enc = CdrEncoder::new();
        enc.put_string(&ior.type_id);
        enc.put_u32(ior.node.0);
        enc.put_string(&ior.key.0);
        enc.put_len(ior.qos_tags.len());
        for t in &ior.qos_tags {
            enc.put_string(t);
        }
        let bytes = enc.into_bytes();
        let decoded = Ior::decode(&mut CdrDecoder::new(&bytes)).unwrap();
        assert_eq!(decoded, ior);
        assert!(decoded.endpoints.is_empty());
    }

    #[test]
    fn display_shows_tags() {
        let s = sample().to_string();
        assert!(s.contains("IDL:Bank:1.0") && s.contains("replication"));
        assert!(!Ior::new("IDL:X:1.0", NodeId(0), "x").to_string().contains("qos"));
    }
}
