//! `TypeCode` and `Any`: self-describing values.
//!
//! CORBA's `Any` carries a value together with its type description. MAQS
//! relies on it in two places: the dynamic invocation interface (DII),
//! which the paper uses to reach the module-specific *dynamic* interface
//! of QoS transport modules (§4), and the generic mediator/skeleton
//! dispatch of the weaving layer (all operation arguments travel as
//! `Any`s).

use crate::cdr::{CdrDecoder, CdrEncoder};
use crate::error::OrbError;
use std::fmt;

/// Deepest sequence/struct nesting [`Any::decode`] and
/// [`TypeCode::decode`] accept. Both recurse once per level, and a frame
/// costs only a few bytes per level, so without a bound a small hostile
/// frame overflows the decoding thread's stack.
pub const MAX_ANY_DEPTH: usize = 64;

/// Refuse nesting past [`MAX_ANY_DEPTH`].
fn check_depth(depth: usize) -> Result<(), OrbError> {
    if depth > MAX_ANY_DEPTH {
        return Err(OrbError::Marshal(format!("nesting deeper than {MAX_ANY_DEPTH}")));
    }
    Ok(())
}

/// Room to reserve for `n` announced elements: every element is at
/// least one byte, so a length prefix cannot reserve more than the rest
/// of the buffer could hold.
fn reservation(n: usize, dec: &CdrDecoder<'_>) -> usize {
    n.min(1024).min(dec.remaining().len())
}

/// The type of an [`Any`] value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TypeCode {
    /// No value.
    Void,
    /// Boolean.
    Bool,
    /// Unsigned 8-bit integer (CORBA octet).
    Octet,
    /// Signed 32-bit integer (CORBA long).
    Long,
    /// Unsigned 32-bit integer.
    ULong,
    /// Signed 64-bit integer (CORBA long long).
    LongLong,
    /// Unsigned 64-bit integer.
    ULongLong,
    /// IEEE-754 double.
    Double,
    /// UTF-8 string.
    Str,
    /// Raw byte sequence.
    Bytes,
    /// Homogeneous-or-not sequence of values.
    Sequence(Box<TypeCode>),
    /// Named structure with named, typed fields.
    Struct(String, Vec<(String, TypeCode)>),
}

impl TypeCode {
    fn tag(&self) -> u8 {
        match self {
            TypeCode::Void => 0,
            TypeCode::Bool => 1,
            TypeCode::Octet => 2,
            TypeCode::Long => 3,
            TypeCode::ULong => 4,
            TypeCode::LongLong => 5,
            TypeCode::ULongLong => 6,
            TypeCode::Double => 7,
            TypeCode::Str => 8,
            TypeCode::Bytes => 9,
            TypeCode::Sequence(_) => 10,
            TypeCode::Struct(..) => 11,
        }
    }

    /// Encode this type code.
    pub fn encode(&self, enc: &mut CdrEncoder) {
        enc.put_u8(self.tag());
        match self {
            TypeCode::Sequence(elem) => elem.encode(enc),
            TypeCode::Struct(name, fields) => {
                enc.put_string(name);
                enc.put_len(fields.len());
                for (fname, ftc) in fields {
                    enc.put_string(fname);
                    ftc.encode(enc);
                }
            }
            _ => {}
        }
    }

    /// Decode a type code.
    ///
    /// # Errors
    ///
    /// [`OrbError::Marshal`] on malformed input or nesting past
    /// [`MAX_ANY_DEPTH`].
    pub fn decode(dec: &mut CdrDecoder<'_>) -> Result<TypeCode, OrbError> {
        TypeCode::decode_at(dec, 0)
    }

    fn decode_at(dec: &mut CdrDecoder<'_>, depth: usize) -> Result<TypeCode, OrbError> {
        check_depth(depth)?;
        Ok(match dec.get_u8()? {
            0 => TypeCode::Void,
            1 => TypeCode::Bool,
            2 => TypeCode::Octet,
            3 => TypeCode::Long,
            4 => TypeCode::ULong,
            5 => TypeCode::LongLong,
            6 => TypeCode::ULongLong,
            7 => TypeCode::Double,
            8 => TypeCode::Str,
            9 => TypeCode::Bytes,
            10 => TypeCode::Sequence(Box::new(TypeCode::decode_at(dec, depth + 1)?)),
            11 => {
                let name = dec.get_string()?;
                let n = dec.get_len()?;
                let mut fields = Vec::with_capacity(reservation(n, dec));
                for _ in 0..n {
                    let fname = dec.get_string()?;
                    let ftc = TypeCode::decode_at(dec, depth + 1)?;
                    fields.push((fname, ftc));
                }
                TypeCode::Struct(name, fields)
            }
            t => return Err(OrbError::Marshal(format!("unknown TypeCode tag {t}"))),
        })
    }
}

impl fmt::Display for TypeCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeCode::Void => write!(f, "void"),
            TypeCode::Bool => write!(f, "boolean"),
            TypeCode::Octet => write!(f, "octet"),
            TypeCode::Long => write!(f, "long"),
            TypeCode::ULong => write!(f, "unsigned long"),
            TypeCode::LongLong => write!(f, "long long"),
            TypeCode::ULongLong => write!(f, "unsigned long long"),
            TypeCode::Double => write!(f, "double"),
            TypeCode::Str => write!(f, "string"),
            TypeCode::Bytes => write!(f, "sequence<octet>"),
            TypeCode::Sequence(e) => write!(f, "sequence<{e}>"),
            TypeCode::Struct(name, _) => write!(f, "struct {name}"),
        }
    }
}

/// A self-describing value.
#[derive(Debug, Clone, PartialEq)]
pub enum Any {
    /// No value (operation results of `void` operations).
    Void,
    /// Boolean.
    Bool(bool),
    /// Octet.
    Octet(u8),
    /// Signed 32-bit integer.
    Long(i32),
    /// Unsigned 32-bit integer.
    ULong(u32),
    /// Signed 64-bit integer.
    LongLong(i64),
    /// Unsigned 64-bit integer.
    ULongLong(u64),
    /// IEEE-754 double.
    Double(f64),
    /// UTF-8 string.
    Str(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
    /// Sequence of values.
    Sequence(Vec<Any>),
    /// Named struct: type name and `(field name, value)` pairs.
    Struct(String, Vec<(String, Any)>),
}

impl Any {
    /// The [`TypeCode`] describing this value.
    pub fn type_code(&self) -> TypeCode {
        match self {
            Any::Void => TypeCode::Void,
            Any::Bool(_) => TypeCode::Bool,
            Any::Octet(_) => TypeCode::Octet,
            Any::Long(_) => TypeCode::Long,
            Any::ULong(_) => TypeCode::ULong,
            Any::LongLong(_) => TypeCode::LongLong,
            Any::ULongLong(_) => TypeCode::ULongLong,
            Any::Double(_) => TypeCode::Double,
            Any::Str(_) => TypeCode::Str,
            Any::Bytes(_) => TypeCode::Bytes,
            Any::Sequence(items) => TypeCode::Sequence(Box::new(
                items.first().map(Any::type_code).unwrap_or(TypeCode::Void),
            )),
            Any::Struct(name, fields) => TypeCode::Struct(
                name.clone(),
                fields.iter().map(|(n, v)| (n.clone(), v.type_code())).collect(),
            ),
        }
    }

    /// Encode type code + value.
    pub fn encode(&self, enc: &mut CdrEncoder) {
        enc.put_u8(self.type_code().tag_of_any());
        match self {
            Any::Void => {}
            Any::Bool(v) => enc.put_bool(*v),
            Any::Octet(v) => enc.put_u8(*v),
            Any::Long(v) => enc.put_i32(*v),
            Any::ULong(v) => enc.put_u32(*v),
            Any::LongLong(v) => enc.put_i64(*v),
            Any::ULongLong(v) => enc.put_u64(*v),
            Any::Double(v) => enc.put_f64(*v),
            Any::Str(v) => enc.put_string(v),
            Any::Bytes(v) => enc.put_bytes(v),
            Any::Sequence(items) => {
                enc.put_len(items.len());
                for item in items {
                    item.encode(enc);
                }
            }
            Any::Struct(name, fields) => {
                enc.put_string(name);
                enc.put_len(fields.len());
                for (fname, fval) in fields {
                    enc.put_string(fname);
                    fval.encode(enc);
                }
            }
        }
    }

    /// Decode type code + value.
    ///
    /// # Errors
    ///
    /// [`OrbError::Marshal`] on malformed input or nesting past
    /// [`MAX_ANY_DEPTH`].
    pub fn decode(dec: &mut CdrDecoder<'_>) -> Result<Any, OrbError> {
        Any::decode_at(dec, 0)
    }

    fn decode_at(dec: &mut CdrDecoder<'_>, depth: usize) -> Result<Any, OrbError> {
        check_depth(depth)?;
        Ok(match dec.get_u8()? {
            0 => Any::Void,
            1 => Any::Bool(dec.get_bool()?),
            2 => Any::Octet(dec.get_u8()?),
            3 => Any::Long(dec.get_i32()?),
            4 => Any::ULong(dec.get_u32()?),
            5 => Any::LongLong(dec.get_i64()?),
            6 => Any::ULongLong(dec.get_u64()?),
            7 => Any::Double(dec.get_f64()?),
            8 => Any::Str(dec.get_string()?),
            9 => Any::Bytes(dec.get_bytes()?),
            10 => {
                let n = dec.get_len()?;
                let mut items = Vec::with_capacity(reservation(n, dec));
                for _ in 0..n {
                    items.push(Any::decode_at(dec, depth + 1)?);
                }
                Any::Sequence(items)
            }
            11 => {
                let name = dec.get_string()?;
                let n = dec.get_len()?;
                let mut fields = Vec::with_capacity(reservation(n, dec));
                for _ in 0..n {
                    let fname = dec.get_string()?;
                    let fval = Any::decode_at(dec, depth + 1)?;
                    fields.push((fname, fval));
                }
                Any::Struct(name, fields)
            }
            t => return Err(OrbError::Marshal(format!("unknown Any tag {t}"))),
        })
    }

    /// Serialize to a standalone byte buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = CdrEncoder::new();
        self.encode(&mut enc);
        enc.into_bytes()
    }

    /// Deserialize from a standalone byte buffer.
    ///
    /// # Errors
    ///
    /// [`OrbError::Marshal`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Any, OrbError> {
        Any::decode(&mut CdrDecoder::new(bytes))
    }

    /// View as `bool`, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Any::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// View as `i32`, if this is a `Long`.
    pub fn as_long(&self) -> Option<i32> {
        match self {
            Any::Long(v) => Some(*v),
            _ => None,
        }
    }

    /// View as `i64`, accepting any integer variant that fits.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Any::Octet(v) => Some(*v as i64),
            Any::Long(v) => Some(*v as i64),
            Any::ULong(v) => Some(*v as i64),
            Any::LongLong(v) => Some(*v),
            Any::ULongLong(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// View as `f64`, if this is a `Double`.
    pub fn as_double(&self) -> Option<f64> {
        match self {
            Any::Double(v) => Some(*v),
            _ => None,
        }
    }

    /// View as `&str`, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Any::Str(v) => Some(v),
            _ => None,
        }
    }

    /// View as `&[u8]`, if this is `Bytes`.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Any::Bytes(v) => Some(v),
            _ => None,
        }
    }

    /// View as a sequence slice, if this is a `Sequence`.
    pub fn as_sequence(&self) -> Option<&[Any]> {
        match self {
            Any::Sequence(v) => Some(v),
            _ => None,
        }
    }

    /// Look up a struct field by name, if this is a `Struct`.
    pub fn field(&self, name: &str) -> Option<&Any> {
        match self {
            Any::Struct(_, fields) => fields.iter().find(|(n, _)| n == name).map(|(_, v)| v),
            _ => None,
        }
    }
}

impl Default for Any {
    fn default() -> Any {
        Any::Void
    }
}

impl fmt::Display for Any {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Any::Void => write!(f, "void"),
            Any::Bool(v) => write!(f, "{v}"),
            Any::Octet(v) => write!(f, "{v}"),
            Any::Long(v) => write!(f, "{v}"),
            Any::ULong(v) => write!(f, "{v}"),
            Any::LongLong(v) => write!(f, "{v}"),
            Any::ULongLong(v) => write!(f, "{v}"),
            Any::Double(v) => write!(f, "{v}"),
            Any::Str(v) => write!(f, "{v:?}"),
            Any::Bytes(v) => write!(f, "<{} bytes>", v.len()),
            Any::Sequence(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Any::Struct(name, fields) => {
                write!(f, "{name}{{")?;
                for (i, (fname, fval)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{fname}: {fval}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl TypeCode {
    // The wire tag used by Any (same numbering as TypeCode::tag, but kept
    // separate so the two encodings can evolve independently).
    fn tag_of_any(&self) -> u8 {
        self.tag()
    }
}

impl From<bool> for Any {
    fn from(v: bool) -> Any {
        Any::Bool(v)
    }
}
impl From<u8> for Any {
    fn from(v: u8) -> Any {
        Any::Octet(v)
    }
}
impl From<i32> for Any {
    fn from(v: i32) -> Any {
        Any::Long(v)
    }
}
impl From<u32> for Any {
    fn from(v: u32) -> Any {
        Any::ULong(v)
    }
}
impl From<i64> for Any {
    fn from(v: i64) -> Any {
        Any::LongLong(v)
    }
}
impl From<u64> for Any {
    fn from(v: u64) -> Any {
        Any::ULongLong(v)
    }
}
impl From<f64> for Any {
    fn from(v: f64) -> Any {
        Any::Double(v)
    }
}
impl From<&str> for Any {
    fn from(v: &str) -> Any {
        Any::Str(v.to_string())
    }
}
impl From<String> for Any {
    fn from(v: String) -> Any {
        Any::Str(v)
    }
}
impl From<Vec<u8>> for Any {
    fn from(v: Vec<u8>) -> Any {
        Any::Bytes(v)
    }
}
impl From<Vec<Any>> for Any {
    fn from(v: Vec<Any>) -> Any {
        Any::Sequence(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Any) {
        let bytes = v.to_bytes();
        assert_eq!(&Any::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(&Any::Void);
        roundtrip(&Any::Bool(true));
        roundtrip(&Any::Octet(255));
        roundtrip(&Any::Long(-42));
        roundtrip(&Any::ULong(7));
        roundtrip(&Any::LongLong(i64::MIN));
        roundtrip(&Any::ULongLong(u64::MAX));
        roundtrip(&Any::Double(3.125));
        roundtrip(&Any::Str("hello".into()));
        roundtrip(&Any::Bytes(vec![1, 2, 3]));
        roundtrip(&Any::Sequence(vec![Any::Long(1), Any::Str("two".into())]));
        roundtrip(&Any::Struct(
            "Point".into(),
            vec![("x".into(), Any::Double(1.0)), ("y".into(), Any::Double(2.0))],
        ));
    }

    #[test]
    fn nested_structures_roundtrip() {
        let v = Any::Struct(
            "Outer".into(),
            vec![
                ("items".into(), Any::Sequence(vec![Any::Sequence(vec![Any::Octet(9)])])),
                (
                    "inner".into(),
                    Any::Struct("Inner".into(), vec![("flag".into(), Any::Bool(false))]),
                ),
            ],
        );
        roundtrip(&v);
    }

    #[test]
    fn typecode_roundtrip() {
        let tcs = vec![
            TypeCode::Void,
            TypeCode::Str,
            TypeCode::Sequence(Box::new(TypeCode::Double)),
            TypeCode::Struct(
                "S".into(),
                vec![("a".into(), TypeCode::Long), ("b".into(), TypeCode::Bytes)],
            ),
        ];
        for tc in tcs {
            let mut enc = CdrEncoder::new();
            tc.encode(&mut enc);
            let bytes = enc.into_bytes();
            assert_eq!(TypeCode::decode(&mut CdrDecoder::new(&bytes)).unwrap(), tc);
        }
    }

    #[test]
    fn accessors() {
        assert_eq!(Any::from("x").as_str(), Some("x"));
        assert_eq!(Any::from(5i32).as_long(), Some(5));
        assert_eq!(Any::from(5i32).as_i64(), Some(5));
        assert_eq!(Any::from(5u64).as_i64(), Some(5));
        assert_eq!(Any::ULongLong(u64::MAX).as_i64(), None);
        assert_eq!(Any::from(true).as_bool(), Some(true));
        assert_eq!(Any::from(2.5).as_double(), Some(2.5));
        assert_eq!(Any::from(vec![9u8]).as_bytes(), Some(&[9u8][..]));
        let s = Any::Struct("S".into(), vec![("k".into(), Any::Long(1))]);
        assert_eq!(s.field("k"), Some(&Any::Long(1)));
        assert_eq!(s.field("missing"), None);
        assert_eq!(Any::Void.as_str(), None);
    }

    #[test]
    fn display_is_informative() {
        let s = Any::Struct("P".into(), vec![("x".into(), Any::Long(1))]);
        assert_eq!(s.to_string(), "P{x: 1}");
        assert_eq!(Any::Sequence(vec![Any::Long(1), Any::Long(2)]).to_string(), "[1, 2]");
        assert_eq!(Any::Bytes(vec![0; 10]).to_string(), "<10 bytes>");
    }

    #[test]
    fn garbage_tag_is_rejected() {
        assert!(Any::from_bytes(&[200]).is_err());
    }

    /// `levels` one-element sequence headers (tag, padding, count: 8 bytes
    /// each from a 4-aligned offset) around a `Void`, as bytes: building,
    /// encoding or dropping a value this deep would itself recurse.
    fn nested_bytes(levels: usize) -> Vec<u8> {
        let mut bytes = [10, 0, 0, 0, 1, 0, 0, 0].repeat(levels);
        bytes.push(0);
        bytes
    }

    fn nested(levels: usize) -> Any {
        (0..levels).fold(Any::Void, |inner, _| Any::Sequence(vec![inner]))
    }

    /// 80 KB of nested headers used to abort the process (stack overflow
    /// on the dispatcher thread); the small stack makes unbounded
    /// recursion fail here in any build profile.
    #[test]
    fn hostile_nesting_is_a_marshal_error_not_a_stack_overflow() {
        use crate::giop::{GiopMessage, RequestKind, RequestMessage};
        let on_small_stack = std::thread::Builder::new().stack_size(256 * 1024).spawn(|| {
            assert!(matches!(Any::from_bytes(&nested_bytes(100_000)), Err(OrbError::Marshal(_))));
            assert_eq!(nested(3).to_bytes(), nested_bytes(3));
            roundtrip(&nested(MAX_ANY_DEPTH));
            assert!(Any::from_bytes(&nested_bytes(MAX_ANY_DEPTH + 1)).is_err());
            let type_code = TypeCode::decode(&mut CdrDecoder::new(&[10; 100_000]));
            assert!(matches!(type_code, Err(OrbError::Marshal(_))));

            // A whole request frame carrying the deep argument: a request
            // without arguments, its two trailing empty counts (arguments,
            // service contexts) replaced by one argument and no contexts.
            let request = |args| {
                GiopMessage::Request(RequestMessage {
                    request_id: 9,
                    reply_to: netsim::NodeId(1),
                    object_key: crate::ior::ObjectKey("key".into()),
                    operation: "op".into(),
                    args,
                    response_expected: true,
                    kind: RequestKind::ServiceRequest,
                    qos: None,
                    contexts: Vec::new(),
                })
                .to_bytes()
            };
            let frame = |levels| {
                let mut frame = request(Vec::new());
                frame.truncate(frame.len() - 8);
                frame.extend_from_slice(&[1, 0, 0, 0]);
                frame.extend_from_slice(&nested_bytes(levels));
                frame.extend_from_slice(&[0, 0, 0, 0, 0, 0, 0]);
                frame
            };
            assert_eq!(frame(3), request(vec![nested(3)]));
            assert!(GiopMessage::from_bytes(&frame(100_000)).is_err());
        });
        on_small_stack.expect("spawn").join().expect("no panic, no overflow");
    }

    /// A header announcing 64 Mi elements reserves for what the rest of
    /// the buffer could hold, not for 1024 elements per nesting level.
    #[test]
    fn length_prefix_cannot_reserve_past_the_buffer() {
        let bytes = [&[10, 0, 0, 0][..], &crate::cdr::MAX_LEN.to_le_bytes(), &[0; 5]].concat();
        let mut dec = CdrDecoder::new(&bytes);
        dec.get_u8().unwrap();
        assert_eq!(reservation(dec.get_len().unwrap(), &dec), 5);
        assert!(Any::from_bytes(&bytes).is_err());
    }
}
