//! A minimal hand-rolled JSON emitter and bounded parser.
//!
//! The workspace is hermetic — no external crates — so machine-readable
//! output (traces, synthesis reports, experiment tables) goes through
//! this tiny value tree instead of a serialization framework. The serve
//! protocol and its disk cache also *read* JSON from untrusted sources,
//! so parsing has the same contract as the text ingestion layer: never
//! panics, depth-capped, and every failure maps to a stable
//! [`JsonParseError::fingerprint`].
//!
//! There is one grammar, and it writes a flat [`Document`]: a single
//! vector of fixed-size nodes in document order, where each container
//! node holds its item count and the index just past its last
//! descendant, and every decoded string sits in one side buffer.
//! Readers that want a few fields of a large text — the certificate
//! parser, the request protocol, the cache's well-formedness checks —
//! walk it through the borrowed [`ValueRef`] view and allocate nothing
//! per value. [`parse`] builds the owned [`JsonValue`] tree from that
//! same document.
//!
//! ```
//! use nocsyn_model::json::{parse, JsonValue};
//! let v = JsonValue::object([
//!     ("name", JsonValue::from("cg")),
//!     ("procs", JsonValue::from(16u64)),
//! ]);
//! assert_eq!(v.to_string(), r#"{"name":"cg","procs":16}"#);
//! let back = parse(&v.to_string()).expect("round trip");
//! assert_eq!(back.get("procs").and_then(|p| p.as_u64()), Some(16));
//! ```

use std::error::Error;
use std::fmt;

#[cfg(test)]
pub(crate) mod reference;

/// A JSON value, built in memory and rendered with [`fmt::Display`].
///
/// Numbers are kept in three lossless flavors; non-finite floats render
/// as `null` (JSON has no representation for them).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer.
    UInt(u64),
    /// Signed integer.
    Int(i64),
    /// Floating point; NaN and infinities render as `null`.
    Float(f64),
    /// String (escaped on output).
    Str(String),
    /// Ordered array.
    Array(Vec<JsonValue>),
    /// Object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn object<K: Into<String>, I: IntoIterator<Item = (K, JsonValue)>>(pairs: I) -> Self {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn array<I: IntoIterator<Item = JsonValue>>(items: I) -> Self {
        JsonValue::Array(items.into_iter().collect())
    }

    /// The value under `key` if this is an object with that key (first
    /// occurrence wins, matching insertion order).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// An unsigned integer view: `UInt` directly, or a non-negative
    /// `Int`. Floats never coerce (the writer keeps the flavors apart).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(n) => Some(*n),
            JsonValue::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// A signed integer view: `Int` directly, or a `UInt` that fits.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(n) => Some(*n),
            JsonValue::UInt(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// A float view of any numeric flavor.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Float(x) => Some(*x),
            JsonValue::UInt(n) => Some(*n as f64),
            JsonValue::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The `(key, value)` pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(pairs) => Some(pairs),
            _ => None,
        }
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}
impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::UInt(v)
    }
}
impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::UInt(u64::from(v))
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::UInt(v as u64)
    }
}
impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::Int(v)
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Float(v)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

/// Writes `s` as a JSON string literal (with surrounding quotes). Runs
/// of bytes that need no escape go out in one `write_str`.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x00..=0x1f => None,
            _ => continue,
        };
        // Escaped bytes are ASCII, so `run..i` ends on a char boundary.
        f.write_str(&s[run..i])?;
        match escape {
            Some(escape) => f.write_str(escape)?,
            None => write!(f, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    f.write_str(&s[run..])?;
    f.write_str("\"")
}

/// The decimal digits of `n`, rendered into the tail of `buf` (the
/// formatting machinery is slow for the millions of small integers a
/// large certificate holds).
pub(crate) fn decimal(mut n: u64, buf: &mut [u8; 20]) -> &str {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    // Only ASCII digits were written.
    std::str::from_utf8(&buf[at..]).unwrap_or_default()
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            JsonValue::UInt(n) => f.write_str(decimal(*n, &mut [0; 20])),
            JsonValue::Int(n) => write!(f, "{n}"),
            JsonValue::Float(x) if !x.is_finite() => f.write_str("null"),
            JsonValue::Float(x) => {
                // Keep integral floats distinguishable from ints so the
                // field type is stable across rows.
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            JsonValue::Str(s) => write_escaped(f, s),
            JsonValue::Array(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    v.fmt(f)?;
                }
                f.write_str("]")
            }
            JsonValue::Object(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    v.fmt(f)?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Maximum nesting depth [`parse`] accepts before bailing out with
/// `json-too-deep`. Deep enough for any protocol frame this workspace
/// emits, shallow enough that hostile input cannot blow the stack.
pub const MAX_JSON_DEPTH: usize = 64;

/// What went wrong while parsing (see [`JsonParseError`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// Input ended inside a value, string, or escape.
    UnexpectedEnd,
    /// A byte that no JSON production allows at this position.
    UnexpectedChar,
    /// Nesting exceeded [`MAX_JSON_DEPTH`].
    TooDeep,
    /// A malformed number token.
    BadNumber,
    /// A malformed `\` escape or invalid `\u` surrogate sequence.
    BadEscape,
    /// Well-formed value followed by trailing non-whitespace bytes.
    TrailingData,
}

impl JsonErrorKind {
    /// Stable kebab-case identifier, value-free, for log aggregation and
    /// fuzz-oracle dedup (same convention as
    /// [`ParseErrorKind::fingerprint`](crate::ParseErrorKind::fingerprint)).
    pub fn fingerprint(&self) -> &'static str {
        match self {
            JsonErrorKind::UnexpectedEnd => "json-unexpected-end",
            JsonErrorKind::UnexpectedChar => "json-unexpected-char",
            JsonErrorKind::TooDeep => "json-too-deep",
            JsonErrorKind::BadNumber => "json-bad-number",
            JsonErrorKind::BadEscape => "json-bad-escape",
            JsonErrorKind::TrailingData => "json-trailing-data",
        }
    }
}

/// Error from [`parse`]: the failure kind plus the byte offset where
/// parsing stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input where the problem was detected.
    pub offset: usize,
    /// What went wrong.
    pub kind: JsonErrorKind,
}

impl JsonParseError {
    /// Stable kebab-case identifier for the failure kind.
    pub fn fingerprint(&self) -> &'static str {
        self.kind.fingerprint()
    }
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset,
            self.fingerprint()
        )
    }
}

impl Error for JsonParseError {}

/// Parses one complete JSON value from `input` into an owned tree.
///
/// Bounded and total: never panics on any byte sequence, refuses nesting
/// past [`MAX_JSON_DEPTH`], and rejects trailing non-whitespace after the
/// value. Numbers keep the emitter's flavors — unsigned integers parse
/// as `UInt`, negative integers as `Int`, anything with a fraction or
/// exponent as `Float` — so `parse(v.to_string()) == v` for values the
/// emitter produces (modulo non-finite floats, which render as `null`).
/// The tree is built from the [`Document`] the one grammar produces, so
/// it accepts and rejects exactly what [`Document::parse`] does.
///
/// # Errors
///
/// [`JsonParseError`] with a stable fingerprint on any malformed input.
pub fn parse(input: &str) -> Result<JsonValue, JsonParseError> {
    Document::parse(input).map(|doc| doc.root().to_value())
}

/// One node of a [`Document`]: a scalar, a string's span in the side
/// buffer, or a container's item count and end index.
#[derive(Debug, Clone, Copy)]
enum Node {
    Null,
    Bool(bool),
    UInt(u64),
    Int(i64),
    Float(f64),
    /// A decoded string, at `start..end` in the side buffer.
    Str {
        start: usize,
        end: usize,
    },
    /// `len` items follow; `end` is the index just past the last
    /// descendant.
    Array {
        len: usize,
        end: usize,
    },
    /// `len` pairs follow, each a `Str` key node and then the value's
    /// nodes; `end` is the index just past the last descendant.
    Object {
        len: usize,
        end: usize,
    },
}

/// A parsed JSON text as a flat document: one vector of fixed-size nodes
/// in document order, plus one side buffer holding every decoded string.
///
/// Reading it through [`Document::root`] allocates nothing, so a reader
/// that only needs some fields of a large text (a certificate, a protocol
/// frame) or only its well-formedness pays one pass and two vectors
/// instead of an allocation per container and string.
///
/// ```
/// use nocsyn_model::json::{Document, ValueRef};
/// let doc = Document::parse(r#"{"xs":[[0,1],[2,3]],"k":"v","k":"w"}"#).expect("valid");
/// let xs = doc.root().get("xs").and_then(ValueRef::as_array).expect("array");
/// assert_eq!(xs.len(), 2);
/// // Repeated keys stay in the document; `get` returns the first.
/// assert_eq!(doc.root().get("k").and_then(ValueRef::as_str), Some("v"));
/// assert_eq!(doc.root().as_object().map(|o| o.len()), Some(3));
/// ```
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<Node>,
    strings: String,
}

impl Document {
    /// Parses one complete JSON value from `input`, under the same
    /// contract as [`parse`]: bounded, total, depth-capped, trailing data
    /// rejected, and the same error kind and offset on every input.
    ///
    /// # Errors
    ///
    /// [`JsonParseError`] with a stable fingerprint on any malformed input.
    pub fn parse(input: &str) -> Result<Document, JsonParseError> {
        let mut p = Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            doc: Document {
                nodes: Vec::new(),
                strings: String::new(),
            },
        };
        p.skip_ws();
        p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err(JsonErrorKind::TrailingData));
        }
        Ok(p.doc)
    }

    /// The top-level value.
    pub fn root(&self) -> ValueRef<'_> {
        ValueRef { doc: self, at: 0 }
    }

    /// The index just past node `at` and its descendants.
    fn skip(&self, at: usize) -> usize {
        match self.nodes[at] {
            Node::Array { end, .. } | Node::Object { end, .. } => end,
            _ => at + 1,
        }
    }

    fn str_at(&self, start: usize, end: usize) -> &str {
        &self.strings[start..end]
    }
}

/// A borrowed view of one value in a [`Document`]. The accessors read
/// like [`JsonValue`]'s and return `None` on a flavor mismatch.
#[derive(Debug, Clone, Copy)]
pub struct ValueRef<'d> {
    doc: &'d Document,
    at: usize,
}

impl<'d> ValueRef<'d> {
    /// The value under `key` if this is an object with that key; the
    /// first occurrence wins, as with [`JsonValue::get`].
    pub fn get(self, key: &str) -> Option<ValueRef<'d>> {
        self.as_object()?
            .find(|&(k, _)| k == key)
            .map(|(_, value)| value)
    }

    /// The string payload, if this is a string.
    pub fn as_str(self) -> Option<&'d str> {
        match self.doc.nodes[self.at] {
            Node::Str { start, end } => Some(self.doc.str_at(start, end)),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(self) -> Option<bool> {
        match self.doc.nodes[self.at] {
            Node::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// An unsigned integer view, as [`JsonValue::as_u64`]: `UInt`
    /// directly, or a non-negative `Int`.
    pub fn as_u64(self) -> Option<u64> {
        match self.doc.nodes[self.at] {
            Node::UInt(n) => Some(n),
            Node::Int(n) => u64::try_from(n).ok(),
            _ => None,
        }
    }

    /// The items, if this is an array. The iterator knows its length
    /// before any item is read.
    pub fn as_array(self) -> Option<Items<'d>> {
        match self.doc.nodes[self.at] {
            Node::Array { len, .. } => Some(Items {
                doc: self.doc,
                at: self.at + 1,
                left: len,
            }),
            _ => None,
        }
    }

    /// The `(key, value)` pairs in document order, repeated keys
    /// included, if this is an object.
    pub fn as_object(self) -> Option<Entries<'d>> {
        match self.doc.nodes[self.at] {
            Node::Object { len, .. } => Some(Entries {
                doc: self.doc,
                at: self.at + 1,
                left: len,
            }),
            _ => None,
        }
    }

    /// This value as an owned tree.
    fn to_value(self) -> JsonValue {
        match self.doc.nodes[self.at] {
            Node::Null => JsonValue::Null,
            Node::Bool(b) => JsonValue::Bool(b),
            Node::UInt(n) => JsonValue::UInt(n),
            Node::Int(n) => JsonValue::Int(n),
            Node::Float(x) => JsonValue::Float(x),
            Node::Str { start, end } => JsonValue::Str(self.doc.str_at(start, end).to_string()),
            Node::Array { .. } => JsonValue::Array(
                self.as_array()
                    .into_iter()
                    .flatten()
                    .map(Self::to_value)
                    .collect(),
            ),
            Node::Object { .. } => JsonValue::Object(
                self.as_object()
                    .into_iter()
                    .flatten()
                    .map(|(k, v)| (k.to_string(), v.to_value()))
                    .collect(),
            ),
        }
    }
}

/// The items of an array in a [`Document`] (see [`ValueRef::as_array`]).
#[derive(Debug, Clone)]
pub struct Items<'d> {
    doc: &'d Document,
    at: usize,
    left: usize,
}

impl<'d> Iterator for Items<'d> {
    type Item = ValueRef<'d>;

    fn next(&mut self) -> Option<ValueRef<'d>> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let item = ValueRef {
            doc: self.doc,
            at: self.at,
        };
        self.at = self.doc.skip(self.at);
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Items<'_> {}

/// The pairs of an object in a [`Document`] (see [`ValueRef::as_object`]).
#[derive(Debug, Clone)]
pub struct Entries<'d> {
    doc: &'d Document,
    at: usize,
    left: usize,
}

impl<'d> Iterator for Entries<'d> {
    type Item = (&'d str, ValueRef<'d>);

    fn next(&mut self) -> Option<(&'d str, ValueRef<'d>)> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        // Every key node is a string: the grammar only reads keys as
        // strings.
        let key = match self.doc.nodes[self.at] {
            Node::Str { start, end } => self.doc.str_at(start, end),
            _ => "",
        };
        let value = ValueRef {
            doc: self.doc,
            at: self.at + 1,
        };
        self.at = self.doc.skip(self.at + 1);
        Some((key, value))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Entries<'_> {}

/// The one JSON grammar: recursive descent that appends nodes to a
/// [`Document`] in document order.
struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    doc: Document,
}

impl Parser<'_> {
    fn err(&self, kind: JsonErrorKind) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            kind,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        match self.peek() {
            Some(c) if c == b => {
                self.pos += 1;
                Ok(())
            }
            Some(_) => Err(self.err(JsonErrorKind::UnexpectedChar)),
            None => Err(self.err(JsonErrorKind::UnexpectedEnd)),
        }
    }

    fn literal(&mut self, word: &[u8], node: Node) -> Result<(), JsonParseError> {
        if self.bytes[self.pos..].starts_with(word) {
            self.pos += word.len();
            self.doc.nodes.push(node);
            Ok(())
        } else if self.bytes.len() - self.pos < word.len() {
            Err(self.err(JsonErrorKind::UnexpectedEnd))
        } else {
            Err(self.err(JsonErrorKind::UnexpectedChar))
        }
    }

    fn value(&mut self, depth: usize) -> Result<(), JsonParseError> {
        if depth > MAX_JSON_DEPTH {
            return Err(self.err(JsonErrorKind::TooDeep));
        }
        match self.peek() {
            None => Err(self.err(JsonErrorKind::UnexpectedEnd)),
            Some(b'n') => self.literal(b"null", Node::Null),
            Some(b't') => self.literal(b"true", Node::Bool(true)),
            Some(b'f') => self.literal(b"false", Node::Bool(false)),
            Some(b'"') => self.string(),
            Some(b'[') => self.container(depth, b']'),
            Some(b'{') => self.container(depth, b'}'),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err(JsonErrorKind::UnexpectedChar)),
        }
    }

    /// An array (`close == b']'`) or an object (`close == b'}'`): a
    /// placeholder node, the items, then the placeholder filled in with
    /// the item count and the end index.
    fn container(&mut self, depth: usize, close: u8) -> Result<(), JsonParseError> {
        let object = close == b'}';
        self.pos += 1; // the opening bracket `value` dispatched on
        let at = self.doc.nodes.len();
        self.doc.nodes.push(Node::Null);
        let mut len = 0;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
        } else {
            loop {
                self.skip_ws();
                if object {
                    self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                }
                self.value(depth + 1)?;
                len += 1;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => {
                        self.pos += 1;
                        break;
                    }
                    Some(_) => return Err(self.err(JsonErrorKind::UnexpectedChar)),
                    None => return Err(self.err(JsonErrorKind::UnexpectedEnd)),
                }
            }
        }
        let end = self.doc.nodes.len();
        self.doc.nodes[at] = if object {
            Node::Object { len, end }
        } else {
            Node::Array { len, end }
        };
        Ok(())
    }

    /// A string literal, decoded onto the side buffer.
    fn string(&mut self) -> Result<(), JsonParseError> {
        self.expect(b'"')?;
        let start = self.doc.strings.len();
        loop {
            let run = self.pos;
            // Copy a run of plain bytes in one slice op. The delimiters
            // are ASCII, so the run is whole characters of the &str input.
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            if self.pos > run {
                match self.input.get(run..self.pos) {
                    Some(chunk) => self.doc.strings.push_str(chunk),
                    // Unreachable for &str input; kept total anyway.
                    None => return Err(self.err(JsonErrorKind::UnexpectedChar)),
                }
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    let end = self.doc.strings.len();
                    self.doc.nodes.push(Node::Str { start, end });
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape()?;
                }
                Some(_) => return Err(self.err(JsonErrorKind::UnexpectedChar)),
                None => return Err(self.err(JsonErrorKind::UnexpectedEnd)),
            }
        }
    }

    fn escape(&mut self) -> Result<(), JsonParseError> {
        let c = self
            .peek()
            .ok_or_else(|| self.err(JsonErrorKind::UnexpectedEnd))?;
        self.pos += 1;
        let ch = match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: require a low-surrogate partner.
                    if self.peek() != Some(b'\\') {
                        return Err(self.err(JsonErrorKind::BadEscape));
                    }
                    self.pos += 1;
                    if self.peek() != Some(b'u') {
                        return Err(self.err(JsonErrorKind::BadEscape));
                    }
                    self.pos += 1;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err(JsonErrorKind::BadEscape));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else if (0xDC00..0xE000).contains(&hi) {
                    // Lone low surrogate.
                    return Err(self.err(JsonErrorKind::BadEscape));
                } else {
                    hi
                };
                char::from_u32(code).ok_or_else(|| self.err(JsonErrorKind::BadEscape))?
            }
            _ => return Err(self.err(JsonErrorKind::BadEscape)),
        };
        self.doc.strings.push(ch);
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut code: u32 = 0;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err(JsonErrorKind::UnexpectedEnd))?;
            let digit = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err(JsonErrorKind::BadEscape))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    /// Fast path for the common number: a plain unsigned integer that
    /// fits in `u64`, accumulated while it is scanned. `None` (with the
    /// position unspecified) sends the caller to the general path.
    fn plain_uint(&mut self) -> Option<u64> {
        let mut n: u64 = 0;
        match self.peek()? {
            b'0' => self.pos += 1,
            b'1'..=b'9' => {
                while let Some(d @ b'0'..=b'9') = self.peek() {
                    n = n.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
                    self.pos += 1;
                }
            }
            _ => return None,
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return None;
        }
        Some(n)
    }

    fn number(&mut self) -> Result<(), JsonParseError> {
        let start = self.pos;
        if let Some(n) = self.plain_uint() {
            self.doc.nodes.push(Node::UInt(n));
            return Ok(());
        }
        self.pos = start;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // Integer part: one zero, or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            Some(_) => return Err(self.err(JsonErrorKind::BadNumber)),
            None => return Err(self.err(JsonErrorKind::UnexpectedEnd)),
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err(JsonErrorKind::BadNumber));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err(JsonErrorKind::BadNumber));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // The token was scanned over ASCII digits/signs only, so the
        // slice is whole characters; fall back to an error rather than
        // panic.
        let token = self
            .input
            .get(start..self.pos)
            .ok_or_else(|| self.err(JsonErrorKind::BadNumber))?;
        // Non-negative integers that fit in `u64` took the fast path, so
        // an integral token here is negative or overflowed; overflow falls
        // through to the float flavor.
        if integral && negative {
            if let Ok(n) = token.parse::<i64>() {
                self.doc.nodes.push(Node::Int(n));
                return Ok(());
            }
        }
        let x = token
            .parse::<f64>()
            .map_err(|_| self.err(JsonErrorKind::BadNumber))?;
        self.doc.nodes.push(Node::Float(x));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocsyn_rng::Rng;

    #[test]
    fn scalars_render() {
        assert_eq!(JsonValue::Null.to_string(), "null");
        assert_eq!(JsonValue::from(true).to_string(), "true");
        assert_eq!(JsonValue::from(42u64).to_string(), "42");
        assert_eq!(JsonValue::from(-7i64).to_string(), "-7");
        assert_eq!(JsonValue::from(1.5f64).to_string(), "1.5");
        assert_eq!(JsonValue::from(2.0f64).to_string(), "2.0");
        assert_eq!(JsonValue::from(f64::NAN).to_string(), "null");
        assert_eq!(JsonValue::from(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn strings_escape_specials() {
        let s = JsonValue::from("a\"b\\c\nd\te\u{1}");
        assert_eq!(s.to_string(), r#""a\"b\\c\nd\te\u0001""#);
    }

    #[test]
    fn arrays_and_objects_nest() {
        let v = JsonValue::object([
            ("xs", JsonValue::array([1u64.into(), 2u64.into()])),
            ("nested", JsonValue::object([("k", JsonValue::Null)])),
            ("s", "hi".into()),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"xs":[1,2],"nested":{"k":null},"s":"hi"}"#
        );
    }

    #[test]
    fn empty_containers() {
        assert_eq!(JsonValue::array([]).to_string(), "[]");
        assert_eq!(
            JsonValue::object(Vec::<(String, JsonValue)>::new()).to_string(),
            "{}"
        );
    }

    #[test]
    fn key_order_is_insertion_order() {
        let v = JsonValue::object([("z", JsonValue::Null), ("a", JsonValue::Null)]);
        assert_eq!(v.to_string(), r#"{"z":null,"a":null}"#);
    }

    #[test]
    fn parse_round_trips_emitter_output() {
        let v = JsonValue::object([
            ("name", JsonValue::from("cg\n\"x\"")),
            ("procs", JsonValue::from(16u64)),
            ("delta", JsonValue::from(-3i64)),
            ("ratio", JsonValue::from(2.5f64)),
            ("whole", JsonValue::from(4.0f64)),
            ("ok", JsonValue::from(true)),
            ("none", JsonValue::Null),
            ("xs", JsonValue::array([1u64.into(), JsonValue::array([])])),
            ("obj", JsonValue::object([("k", JsonValue::from("v"))])),
        ]);
        let text = v.to_string();
        let back = parse(&text).expect("round trip");
        assert_eq!(back, v);
        // Render of the reparse is byte-identical too.
        assert_eq!(back.to_string(), text);
    }

    #[test]
    fn parse_accepts_whitespace_and_escapes() {
        let v = parse(" { \"a\" : [ 1 , 2 ] , \"b\" : \"\\u0041\\u00e9\\t\" } ").expect("valid");
        assert_eq!(v.get("b").and_then(JsonValue::as_str), Some("Aé\t"));
        assert_eq!(
            v.get("a").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(2)
        );
        // Surrogate pair via \u escapes, and a literal emoji.
        let v = parse("\"\\ud83d\\ude00 😀\"").expect("valid");
        assert_eq!(v.as_str(), Some("\u{1F600} \u{1F600}"));
    }

    #[test]
    fn parse_rejects_with_stable_fingerprints() {
        let cases: &[(&str, &str)] = &[
            ("", "json-unexpected-end"),
            ("{", "json-unexpected-end"),
            ("\"abc", "json-unexpected-end"),
            ("tru", "json-unexpected-end"),
            ("truX", "json-unexpected-char"),
            ("{]", "json-unexpected-char"),
            ("[1,]", "json-unexpected-char"),
            ("{\"a\":1,}", "json-unexpected-char"),
            ("x", "json-unexpected-char"),
            ("1 2", "json-trailing-data"),
            ("01", "json-trailing-data"),
            ("-", "json-unexpected-end"),
            ("1.", "json-bad-number"),
            ("1e", "json-bad-number"),
            ("-x", "json-bad-number"),
            (r#""\q""#, "json-bad-escape"),
            (r#""\u12g4""#, "json-bad-escape"),
            (r#""\ud800x""#, "json-bad-escape"),
            (r#""\udc00""#, "json-bad-escape"),
        ];
        for (input, want) in cases {
            let err = parse(input).expect_err(input);
            assert_eq!(err.fingerprint(), *want, "input {input:?}");
            // Display mentions both offset and fingerprint.
            assert!(err.to_string().contains(want));
        }
    }

    #[test]
    fn parse_depth_is_bounded() {
        let deep_ok = format!(
            "{}0{}",
            "[".repeat(MAX_JSON_DEPTH),
            "]".repeat(MAX_JSON_DEPTH)
        );
        assert!(parse(&deep_ok).is_ok());
        let too_deep = format!(
            "{}0{}",
            "[".repeat(MAX_JSON_DEPTH + 1),
            "]".repeat(MAX_JSON_DEPTH + 1)
        );
        assert_eq!(
            parse(&too_deep).expect_err("too deep").fingerprint(),
            "json-too-deep"
        );
        // Hostile: many opens, never closed — must not blow the stack.
        let hostile = "[".repeat(100_000);
        assert!(parse(&hostile).is_err());
    }

    #[test]
    fn parse_number_flavors() {
        assert_eq!(parse("42").expect("u"), JsonValue::UInt(42));
        assert_eq!(parse("-7").expect("i"), JsonValue::Int(-7));
        assert_eq!(parse("2.5").expect("f"), JsonValue::Float(2.5));
        assert_eq!(parse("1e3").expect("f"), JsonValue::Float(1000.0));
        assert_eq!(parse("-0").expect("i"), JsonValue::Int(0));
        // u64::MAX round-trips as UInt; one past it falls back to float.
        assert_eq!(
            parse("18446744073709551615").expect("max"),
            JsonValue::UInt(u64::MAX)
        );
        assert!(matches!(
            parse("18446744073709551616").expect("overflow"),
            JsonValue::Float(_)
        ));
    }

    #[test]
    fn accessors_view_the_right_flavors() {
        let v = parse(r#"{"u":5,"i":-5,"s":"x","b":false,"f":1.5,"a":[],"o":{}}"#).expect("valid");
        assert_eq!(v.get("u").and_then(JsonValue::as_u64), Some(5));
        assert_eq!(v.get("u").and_then(JsonValue::as_i64), Some(5));
        assert_eq!(v.get("i").and_then(JsonValue::as_i64), Some(-5));
        assert_eq!(v.get("i").and_then(JsonValue::as_u64), None);
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(v.get("f").and_then(JsonValue::as_f64), Some(1.5));
        assert_eq!(v.get("u").and_then(JsonValue::as_f64), Some(5.0));
        assert!(v.get("a").and_then(JsonValue::as_array).is_some());
        assert!(v.get("o").and_then(JsonValue::as_object).is_some());
        assert_eq!(v.get("missing"), None);
        assert_eq!(JsonValue::Null.get("k"), None);
        assert_eq!(v.get("s").and_then(JsonValue::as_u64), None);
    }
    /// A random value: nested containers, repeated and escaped keys,
    /// every number flavor.
    fn random_value(rng: &mut Rng, depth: usize) -> JsonValue {
        let leaf = depth >= 4 || rng.gen_bool(0.4);
        match rng.gen_range(0..if leaf { 6 } else { 8u32 }) {
            0 => JsonValue::Null,
            1 => JsonValue::Bool(rng.gen_bool(0.5)),
            2 => JsonValue::UInt(rng.next_u64() >> rng.gen_range(0..64u32)),
            3 => JsonValue::Int(-((rng.next_u64() >> rng.gen_range(1..64u32)) as i64)),
            4 => JsonValue::Float(rng.gen_f64() * 1e3 - 5e2),
            5 => JsonValue::Str(random_key(rng)),
            6 => JsonValue::array(
                (0..rng.gen_range(0..5usize)).map(|_| random_value(rng, depth + 1)),
            ),
            _ => JsonValue::object(
                (0..rng.gen_range(0..5usize))
                    .map(|_| (random_key(rng), random_value(rng, depth + 1)))
                    .collect::<Vec<_>>(),
            ),
        }
    }

    /// Short keys from a tiny pool, so objects repeat them; some need
    /// escapes or are not ASCII.
    fn random_key(rng: &mut Rng) -> String {
        ["a", "b", "op", "k\"q", "tab\t", "é", "\u{1F600}", ""][rng.gen_range(0..8usize)]
            .to_string()
    }

    /// Bytes the mutations draw from: JSON punctuation, digits, number
    /// and literal letters, escapes.
    const ALPHABET: &[u8] = br#"{}[],:" \/0123456789-+.eEnulltrufasbu"#;

    #[test]
    fn parse_matches_the_reference_parser() {
        let edges = [
            String::new(),
            " \t\r\n ".to_string(),
            "-0".to_string(),
            "18446744073709551615".to_string(),
            "18446744073709551616".to_string(),
            "-9223372036854775808".to_string(),
            "-9223372036854775809".to_string(),
            "1e999".to_string(),
            r#""\ud83d\ude00 \ud83d""#.to_string(),
            format!(
                "{}0{}",
                "[".repeat(MAX_JSON_DEPTH),
                "]".repeat(MAX_JSON_DEPTH)
            ),
            format!(
                "{}0{}",
                "[".repeat(MAX_JSON_DEPTH + 1),
                "]".repeat(MAX_JSON_DEPTH + 1)
            ),
            "{\"a\":".repeat(MAX_JSON_DEPTH + 2),
            "[".repeat(100_000),
        ];
        for text in &edges {
            assert_eq!(parse(text), reference::parse(text), "input {text:?}");
        }
        let mut rng = Rng::seed_from_u64(0x0d0c);
        for case in 0..20_000 {
            let text = match case % 3 {
                0 => random_value(&mut rng, 0).to_string(),
                1 => {
                    let base = random_value(&mut rng, 0).to_string();
                    reference::mutate(&mut rng, &base, ALPHABET)
                }
                _ => reference::mutate(&mut rng, "", ALPHABET),
            };
            assert_eq!(parse(&text), reference::parse(&text), "input {text:?}");
        }
    }

    /// Checks every accessor of `view` against the tree `value`.
    fn assert_view_reads_like(view: ValueRef<'_>, value: &JsonValue) {
        assert_eq!(view.as_str(), value.as_str());
        assert_eq!(view.as_bool(), value.as_bool());
        assert_eq!(view.as_u64(), value.as_u64());
        assert_eq!(
            view.as_array().map(|a| a.len()),
            value.as_array().map(<[_]>::len)
        );
        assert_eq!(
            view.as_object().map(|o| o.len()),
            value.as_object().map(<[_]>::len)
        );
        for (item, want) in view
            .as_array()
            .into_iter()
            .flatten()
            .zip(value.as_array().unwrap_or(&[]))
        {
            assert_view_reads_like(item, want);
        }
        for ((key, item), (want_key, want)) in view
            .as_object()
            .into_iter()
            .flatten()
            .zip(value.as_object().unwrap_or(&[]))
        {
            assert_eq!(key, want_key);
            assert_view_reads_like(item, want);
            let first = view.get(key).map(|v| v.to_value());
            assert_eq!(first.as_ref(), value.get(key));
        }
        assert!(view.get("missing").is_none());
    }

    #[test]
    fn document_view_reads_like_the_tree() {
        let mut rng = Rng::seed_from_u64(0x71e3);
        for _ in 0..2_000 {
            let text = random_value(&mut rng, 0).to_string();
            let doc = Document::parse(&text).expect("rendered values parse");
            let tree = parse(&text).expect("rendered values parse");
            assert_view_reads_like(doc.root(), &tree);
        }
    }
}
