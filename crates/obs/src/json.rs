//! Minimal JSON writer and parser (std-only; no external dependencies).
//!
//! Supports exactly the subset `dumplog --json` and the benchmark's report
//! emit: objects, arrays, strings, non-negative numbers, and floats. The
//! parser exists so that output is readable back in-tree without serde.

/// Incremental JSON object writer.
pub struct Object {
    buf: String,
    first: bool,
}

impl Default for Object {
    fn default() -> Self {
        Object::new()
    }
}

impl Object {
    pub fn new() -> Object {
        Object {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        escape_into(&mut self.buf, k);
        self.buf.push_str("\":");
    }

    pub fn field_u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    pub fn field_f64(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        if v.is_finite() {
            self.buf.push_str(&format!("{v}"));
        } else {
            self.buf.push_str("null");
        }
        self
    }

    pub fn field_str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.buf.push('"');
        escape_into(&mut self.buf, v);
        self.buf.push('"');
        self
    }

    pub fn field_bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Insert a pre-rendered JSON value (object, array, …) verbatim.
    pub fn field_raw(&mut self, k: &str, json: &str) -> &mut Self {
        self.key(k);
        self.buf.push_str(json);
        self
    }

    pub fn finish(&mut self) -> String {
        let mut out = std::mem::replace(&mut self.buf, String::from("{"));
        self.first = true;
        out.push('}');
        out
    }
}

fn escape_into(buf: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => buf.push_str(&format!("\\u{:04x}", c as u32)),
            c => buf.push(c),
        }
    }
}

/// Parsed JSON value. Non-negative integer literals parse as [`Uint`]
/// (exact — `u64` hashes exceed f64's 53-bit mantissa); everything else
/// numeric parses as [`Number`].
///
/// [`Uint`]: JsonValue::Uint
/// [`Number`]: JsonValue::Number
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Uint(u64),
    Number(f64),
    String(String),
    Array(Vec<JsonValue>),
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Look up a field of an object by name.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => {
                fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Uint(n) => Some(*n),
            JsonValue::Number(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }
}

/// Parse one JSON document. Returns `None` on any syntax error or
/// trailing garbage.
pub fn parse(input: &str) -> Option<JsonValue> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos == p.bytes.len() {
        Some(v)
    } else {
        None
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Option<()> {
        if self.bump()? == b {
            Some(())
        } else {
            None
        }
    }

    fn literal(&mut self, s: &str) -> Option<()> {
        if self.bytes[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            Some(())
        } else {
            None
        }
    }

    fn value(&mut self) -> Option<JsonValue> {
        self.skip_ws();
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Some(JsonValue::String(self.string()?)),
            b't' => self.literal("true").map(|_| JsonValue::Bool(true)),
            b'f' => self.literal("false").map(|_| JsonValue::Bool(false)),
            b'n' => self.literal("null").map(|_| JsonValue::Null),
            b'-' | b'0'..=b'9' => self.number(),
            _ => None,
        }
    }

    fn object(&mut self) -> Option<JsonValue> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Some(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b'}' => return Some(JsonValue::Object(fields)),
                _ => return None,
            }
        }
    }

    fn array(&mut self) -> Option<JsonValue> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Some(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b']' => return Some(JsonValue::Array(items)),
                _ => return None,
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.bump()? {
                b'"' => return Some(s),
                b'\\' => match self.bump()? {
                    b'"' => s.push('"'),
                    b'\\' => s.push('\\'),
                    b'/' => s.push('/'),
                    b'n' => s.push('\n'),
                    b'r' => s.push('\r'),
                    b't' => s.push('\t'),
                    b'b' => s.push('\u{8}'),
                    b'f' => s.push('\u{c}'),
                    b'u' => {
                        if self.pos + 4 > self.bytes.len() {
                            return None;
                        }
                        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4]).ok()?;
                        self.pos += 4;
                        let code = u32::from_str_radix(hex, 16).ok()?;
                        s.push(char::from_u32(code)?);
                    }
                    _ => return None,
                },
                b => {
                    // Re-decode multi-byte UTF-8 starting at this byte.
                    if b < 0x80 {
                        s.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let width = match b {
                            0xc0..=0xdf => 2,
                            0xe0..=0xef => 3,
                            0xf0..=0xf7 => 4,
                            _ => return None,
                        };
                        if start + width > self.bytes.len() {
                            return None;
                        }
                        let chunk = std::str::from_utf8(&self.bytes[start..start + width]).ok()?;
                        s.push_str(chunk);
                        self.pos = start + width;
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Option<JsonValue> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        if let Ok(n) = text.parse::<u64>() {
            return Some(JsonValue::Uint(n));
        }
        text.parse::<f64>().ok().map(JsonValue::Number)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_writer_roundtrips() {
        let mut o = Object::new();
        o.field_u64("n", 42);
        o.field_str("s", "a \"b\"\n");
        o.field_bool("ok", true);
        let text = o.finish();
        let v = parse(&text).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("s").unwrap().as_str(), Some("a \"b\"\n"));
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn arrays_and_nesting() {
        let v = parse(r#"{"a":[1,2,3],"b":{"c":null}}"#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&JsonValue::Array(vec![
                JsonValue::Uint(1),
                JsonValue::Uint(2),
                JsonValue::Uint(3)
            ]))
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&JsonValue::Null));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_none());
        assert!(parse("{}x").is_none());
        assert!(parse(r#"{"a":}"#).is_none());
    }

    #[test]
    fn large_u64_survives() {
        // Integer literals must round-trip exactly even above f64's 53-bit
        // mantissa — nanosecond sums and LSNs use the full 64 bits.
        let mut o = Object::new();
        o.field_u64("aux", u64::MAX - 3);
        let v = parse(&o.finish()).unwrap();
        assert_eq!(v.get("aux").unwrap().as_u64(), Some(u64::MAX - 3));
        // Floats still parse as floats.
        assert_eq!(parse("1.5"), Some(JsonValue::Number(1.5)));
        assert_eq!(parse("-2"), Some(JsonValue::Number(-2.0)));
    }
}
