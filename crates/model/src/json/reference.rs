//! The recursive tree-building parser that [`Document::parse`] replaced
//! (minus its unsigned-integer fast path), kept only as the
//! differential-test reference: on every input the production [`parse`]
//! must return exactly what this returns, values or error kind and
//! offset. The byte-mutation generator those tests share lives here too.
//!
//! [`Document::parse`]: super::Document::parse
//! [`parse`]: super::parse

use nocsyn_rng::Rng;

use super::{JsonErrorKind, JsonParseError, JsonValue, MAX_JSON_DEPTH};

/// The differential tests' input generator: up to three byte edits —
/// insert, delete, replace, truncate — with bytes drawn from `alphabet`.
pub(crate) fn mutate(rng: &mut Rng, text: &str, alphabet: &[u8]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..=3usize) {
        let at = rng.gen_range(0..=bytes.len());
        let byte = alphabet[rng.gen_range(0..alphabet.len())];
        match rng.gen_range(0..4u32) {
            0 => bytes.insert(at, byte),
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            2 if at < bytes.len() => bytes[at] = byte,
            3 => bytes.truncate(at),
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Parses one complete JSON value from `input` into a tree.
pub(crate) fn parse(input: &str) -> Result<JsonValue, JsonParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err(JsonErrorKind::TrailingData));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
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

    fn literal(&mut self, word: &[u8], value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else if self.bytes.len() - self.pos < word.len() {
            Err(self.err(JsonErrorKind::UnexpectedEnd))
        } else {
            Err(self.err(JsonErrorKind::UnexpectedChar))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        if depth > MAX_JSON_DEPTH {
            return Err(self.err(JsonErrorKind::TooDeep));
        }
        match self.peek() {
            None => Err(self.err(JsonErrorKind::UnexpectedEnd)),
            Some(b'n') => self.literal(b"null", JsonValue::Null),
            Some(b't') => self.literal(b"true", JsonValue::Bool(true)),
            Some(b'f') => self.literal(b"false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.array_value(depth),
            Some(b'{') => self.object_value(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err(JsonErrorKind::UnexpectedChar)),
        }
    }

    fn array_value(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                Some(_) => return Err(self.err(JsonErrorKind::UnexpectedChar)),
                None => return Err(self.err(JsonErrorKind::UnexpectedEnd)),
            }
        }
    }

    fn object_value(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                Some(_) => return Err(self.err(JsonErrorKind::UnexpectedChar)),
                None => return Err(self.err(JsonErrorKind::UnexpectedEnd)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            if self.pos > start {
                if let Ok(chunk) = std::str::from_utf8(&self.bytes[start..self.pos]) {
                    out.push_str(chunk);
                } else {
                    return Err(self.err(JsonErrorKind::UnexpectedChar));
                }
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err(JsonErrorKind::UnexpectedChar)),
                None => return Err(self.err(JsonErrorKind::UnexpectedEnd)),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonParseError> {
        let c = self
            .peek()
            .ok_or_else(|| self.err(JsonErrorKind::UnexpectedEnd))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
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
                    return Err(self.err(JsonErrorKind::BadEscape));
                } else {
                    hi
                };
                match char::from_u32(code) {
                    Some(ch) => out.push(ch),
                    None => return Err(self.err(JsonErrorKind::BadEscape)),
                }
            }
            _ => return Err(self.err(JsonErrorKind::BadEscape)),
        }
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

    /// The number grammar without the unsigned fast path: scan the whole
    /// token, then pick the flavor.
    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
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
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err(JsonErrorKind::BadNumber))?;
        if integral {
            if !negative {
                if let Ok(n) = token.parse::<u64>() {
                    return Ok(JsonValue::UInt(n));
                }
            } else if let Ok(n) = token.parse::<i64>() {
                return Ok(JsonValue::Int(n));
            }
        }
        token
            .parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| self.err(JsonErrorKind::BadNumber))
    }
}
