//! Content-addressed fingerprints: canonical serialization plus an
//! in-repo cryptographic-quality hash.
//!
//! The whole synthesis flow is a pure function of
//! `(pattern, config, seed)` — the same purity that makes same-seed runs
//! byte-identical also makes results *content-addressable*: a canonical
//! serialization of the inputs, hashed, is a key under which the
//! deterministic output can be cached and later byte-verified against a
//! fresh run. This module provides the two halves of that key:
//!
//! * [`Sha256`] / [`sha256`] — a hand-rolled FIPS 180-4 SHA-256, keeping
//!   the workspace hermetic (no external crates, same policy as the
//!   in-repo PRNG and property-test harness). Collision resistance is
//!   what lets a 32-byte [`Digest`] stand in for the full request.
//! * [`CanonicalForm`] — a named-field builder whose digest is invariant
//!   under field *ordering*: fields are sorted by `(name, value)` and
//!   length-framed before hashing, so two callers assembling the same
//!   logical request in different orders produce the same key, while
//!   `("ab", "c")` and `("a", "bc")` stay distinct.
//!
//! The canonical serialization of a schedule or trace is its rendered
//! text form ([`canonical_schedule`] / [`canonical_trace`]): the
//! renderers emit one fixed layout per parsed value, so any two input
//! texts that parse to the same pattern — different comments,
//! whitespace, `repeat` folding — canonicalize to identical bytes.
//!
//! ```
//! use nocsyn_model::{CanonicalForm, sha256};
//!
//! let a = CanonicalForm::new().field("seed", 7u64).field("restarts", 8u64);
//! let b = CanonicalForm::new().field("restarts", 8u64).field("seed", 7u64);
//! assert_eq!(a.digest(), b.digest());
//! assert_ne!(a.digest(), sha256(b"something else"));
//! ```

use std::fmt;

use crate::{PhaseSchedule, Trace};

/// Initial hash state: the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

/// Round constants: the first 32 bits of the fractional parts of the
/// cube roots of the first 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];

/// A 256-bit digest, displayed as 64 lowercase hex characters.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest([u8; 32]);

impl Digest {
    /// The raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lowercase hex rendering (64 characters).
    pub fn to_hex(&self) -> String {
        let mut out = String::with_capacity(64);
        for b in self.0 {
            let _ = fmt::Write::write_fmt(&mut out, format_args!("{b:02x}"));
        }
        out
    }

    /// Parses a 64-character hex string back into a digest. Returns
    /// `None` on any length or character problem — never panics, so it
    /// is safe on untrusted input (e.g. cache file names).
    pub fn from_hex(hex: &str) -> Option<Digest> {
        if hex.len() != 64 || !hex.is_ascii() {
            return None;
        }
        let mut out = [0u8; 32];
        for (i, chunk) in hex.as_bytes().chunks_exact(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(Digest(out))
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({self})")
    }
}

/// Streaming SHA-256 (FIPS 180-4).
///
/// ```
/// use nocsyn_model::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(
///     h.finalize().to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                compress(&mut self.state, &block);
                self.buf_len = 0;
            }
            // Fully absorbed into the partial buffer: stop here, or the
            // tail copy below would clobber `buf_len`.
            if rest.is_empty() {
                return;
            }
        }
        let mut chunks = rest.chunks_exact(64);
        for chunk in &mut chunks {
            let mut block = [0u8; 64];
            block.copy_from_slice(chunk);
            compress(&mut self.state, &block);
        }
        let tail = chunks.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Pads, finishes, and returns the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0x00]);
        }
        // Manual final block: the 8 length bytes complete exactly one
        // block, which update() compresses for us.
        self.update(&bit_len.to_be_bytes());
        debug_assert_eq!(self.buf_len, 0);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// One SHA-256 compression round over a 64-byte block.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Domain-separation tag hashed ahead of every [`CanonicalForm`], so
/// canonical-form digests can never collide with plain [`sha256`] calls
/// over the same bytes (and a future v2 framing can coexist).
const CANONICAL_TAG: &[u8] = b"nocsyn-canonical-v1";

/// A named-field canonical form whose digest is order-invariant.
///
/// Fields are `(name, value)` string pairs. [`CanonicalForm::digest`]
/// sorts them by `(name, value)` and hashes each with a length frame
/// (`len(name) ‖ name ‖ len(value) ‖ value`, lengths as 8-byte
/// little-endian), which makes the digest:
///
/// * **order-invariant** — any permutation of the same fields hashes
///   identically (the cache-key property: builders may assemble fields
///   in any order);
/// * **unambiguous** — the length framing separates
///   `("ab", "c")` from `("a", "bc")`, and values containing `=` or
///   newlines cannot smuggle extra fields.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CanonicalForm {
    fields: Vec<(String, String)>,
}

impl CanonicalForm {
    /// An empty form.
    pub fn new() -> Self {
        CanonicalForm::default()
    }

    /// Adds a field (builder style). The value is captured via its
    /// `Display` rendering.
    #[must_use]
    pub fn field(mut self, name: impl Into<String>, value: impl fmt::Display) -> Self {
        self.push_field(name, value);
        self
    }

    /// Adds a field in place (loop style).
    pub fn push_field(&mut self, name: impl Into<String>, value: impl fmt::Display) {
        self.fields.push((name.into(), value.to_string()));
    }

    /// Adds a field whose value is already rendered, moving the bytes in
    /// rather than copying them through `Display` (builder style).
    #[must_use]
    pub fn rendered_field(mut self, name: impl Into<String>, value: String) -> Self {
        self.fields.push((name.into(), value));
        self
    }

    /// Number of fields added so far.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether no fields were added.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// The order-invariant digest of the form (see the type docs for the
    /// framing).
    pub fn digest(&self) -> Digest {
        let mut sorted: Vec<&(String, String)> = self.fields.iter().collect();
        sorted.sort();
        let mut h = Sha256::new();
        h.update(CANONICAL_TAG);
        h.update(&(sorted.len() as u64).to_le_bytes());
        for (name, value) in sorted {
            h.update(&(name.len() as u64).to_le_bytes());
            h.update(name.as_bytes());
            h.update(&(value.len() as u64).to_le_bytes());
            h.update(value.as_bytes());
        }
        h.finalize()
    }

    /// Sorted human-readable rendering (`name=value` lines, with
    /// backslash and newline escaped) — for diagnostics only; the digest
    /// hashes the length-framed fields, not this text.
    pub fn render(&self) -> String {
        let mut sorted: Vec<&(String, String)> = self.fields.iter().collect();
        sorted.sort();
        let mut out = String::new();
        for (name, value) in sorted {
            out.push_str(name);
            out.push('=');
            for c in value.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out.push('\n');
        }
        out
    }
}

/// The canonical text form of a schedule: its rendered layout
/// ([`crate::format_schedule`]), one fixed byte sequence per parsed
/// value. Comments, blank lines, flow ordering quirks and `repeat`
/// folding in the original input all normalize away.
pub fn canonical_schedule(schedule: &PhaseSchedule) -> String {
    crate::text::format_schedule(schedule)
}

/// The canonical text form of a trace ([`crate::format_trace`]); the
/// trace keeps its messages sorted, so the rendering is canonical for
/// the same reason as [`canonical_schedule`].
pub fn canonical_trace(trace: &Trace) -> String {
    crate::text::format_trace(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIPS 180-4 / NIST CAVP known-answer vectors.
    #[test]
    fn sha256_known_answers() {
        assert_eq!(
            sha256(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // One million 'a's — exercises many blocks and the length wrap.
        let mut h = Sha256::new();
        for _ in 0..1000 {
            h.update(&[b'a'; 1000]);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_one_shot_at_every_split() {
        let data: Vec<u8> = (0..200u8).collect();
        let whole = sha256(&data);
        for split in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 199, 200] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), whole, "split at {split}");
        }
    }

    #[test]
    fn digest_hex_round_trips() {
        let d = sha256(b"round trip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(d.to_hex().len(), 64);
        assert_eq!(d.to_string(), d.to_hex());
        assert!(format!("{d:?}").starts_with("Digest("));
        assert_eq!(Digest::from_hex("xyz"), None);
        assert_eq!(Digest::from_hex(&"g".repeat(64)), None);
        // Non-ASCII of the right byte length must not panic.
        assert_eq!(Digest::from_hex(&"é".repeat(32)), None);
    }

    #[test]
    fn canonical_form_is_order_invariant() {
        let a = CanonicalForm::new()
            .field("pattern", "procs 4\nphase\n  0 -> 1\n")
            .field("seed", 7u64)
            .field("restarts", 8u64);
        let b = CanonicalForm::new()
            .field("restarts", 8u64)
            .field("pattern", "procs 4\nphase\n  0 -> 1\n")
            .field("seed", 7u64);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn canonical_form_framing_is_unambiguous() {
        // Same concatenated bytes, different field boundaries.
        let ab_c = CanonicalForm::new().field("ab", "c");
        let a_bc = CanonicalForm::new().field("a", "bc");
        assert_ne!(ab_c.digest(), a_bc.digest());
        // A value containing separators cannot smuggle a field.
        let smuggle = CanonicalForm::new().field("k", "v\nseed=9");
        let two = CanonicalForm::new().field("k", "v").field("seed", 9u64);
        assert_ne!(smuggle.digest(), two.digest());
        // Field count is framed: one empty field != zero fields.
        assert_ne!(
            CanonicalForm::new().field("", "").digest(),
            CanonicalForm::new().digest()
        );
        // Domain separation from plain sha256.
        assert_ne!(CanonicalForm::new().digest(), sha256(b""));
    }

    #[test]
    fn canonical_form_tracks_len_and_renders_escapes() {
        let mut form = CanonicalForm::new();
        assert!(form.is_empty());
        form.push_field("z", "line1\nline2\\end");
        form.push_field("a", 1u64);
        assert_eq!(form.len(), 2);
        assert_eq!(form.render(), "a=1\nz=line1\\nline2\\\\end\n");
    }

    #[test]
    fn canonical_schedule_normalizes_equivalent_inputs() {
        let a = crate::parse_schedule("procs 4\nphase\n  0 -> 1\n# comment\n  2 -> 3\n")
            .expect("valid");
        let b = crate::parse_schedule("procs 4\n\n\nphase bytes=4096\n  0->1\n  2->3\n")
            .expect("valid");
        assert_eq!(canonical_schedule(&a), canonical_schedule(&b));
        let t = crate::parse_trace("procs 2\nmsg 0 -> 1 start=0 finish=5\n").expect("valid");
        assert!(canonical_trace(&t).starts_with("procs 2\n"));
    }
}
