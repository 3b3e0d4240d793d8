//! Minimal JSON support: an escaper for the JSONL writer and a
//! recursive-descent parser for the trace-query CLI.
//!
//! The crate is deliberately dependency-free (the telemetry layer sits
//! below everything else, including the vendored shims), so it carries its
//! own ~150-line parser rather than pulling one in. Numbers keep their raw
//! token text: simulated timestamps are `u64` nanoseconds and must not be
//! round-tripped through `f64`.

use std::borrow::Cow;
use std::collections::BTreeMap;

/// Escape a string for embedding in a JSON document. A string with
/// nothing to escape (every registered name, every ordinary host) is
/// handed back borrowed.
pub fn escape(s: &str) -> Cow<'_, str> {
    let needs = |c: char| matches!(c, '"' | '\\') || (c as u32) < 0x20;
    if !s.contains(needs) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    Cow::Owned(out)
}

/// A parsed JSON value. Numbers are kept as their raw source text so
/// integer timestamps survive exactly.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }
}

/// Parse a single JSON document. Returns `None` on any syntax error —
/// the CLI treats a malformed line as "not a trace record" and skips it.
pub fn parse(src: &str) -> Option<Value> {
    let bytes = src.as_bytes();
    let mut p = Parser { b: bytes, i: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i == bytes.len() {
        Some(v)
    } else {
        None
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.b.get(self.i).is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Option<()> {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Some(())
        } else {
            None
        }
    }

    fn lit(&mut self, s: &str) -> Option<()> {
        if self.b[self.i..].starts_with(s.as_bytes()) {
            self.i += s.len();
            Some(())
        } else {
            None
        }
    }

    fn value(&mut self) -> Option<Value> {
        match *self.b.get(self.i)? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string().map(Value::Str),
            b't' => self.lit("true").map(|()| Value::Bool(true)),
            b'f' => self.lit("false").map(|()| Value::Bool(false)),
            b'n' => self.lit("null").map(|()| Value::Null),
            _ => self.number(),
        }
    }

    fn object(&mut self) -> Option<Value> {
        self.eat(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.eat(b'}').is_some() {
            return Some(Value::Obj(m));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value()?;
            m.insert(k, v);
            self.skip_ws();
            if self.eat(b',').is_some() {
                continue;
            }
            self.eat(b'}')?;
            return Some(Value::Obj(m));
        }
    }

    fn array(&mut self) -> Option<Value> {
        self.eat(b'[')?;
        let mut xs = Vec::new();
        self.skip_ws();
        if self.eat(b']').is_some() {
            return Some(Value::Arr(xs));
        }
        loop {
            self.skip_ws();
            xs.push(self.value()?);
            self.skip_ws();
            if self.eat(b',').is_some() {
                continue;
            }
            self.eat(b']')?;
            return Some(Value::Arr(xs));
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match *self.b.get(self.i)? {
                b'"' => {
                    self.i += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.i += 1;
                    match *self.b.get(self.i)? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self.b.get(self.i + 1..self.i + 5)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            self.i += 4;
                        }
                        _ => return None,
                    }
                    self.i += 1;
                }
                _ => {
                    // Consume one UTF-8 scalar (the input came from a &str,
                    // so boundaries are valid).
                    let rest = std::str::from_utf8(&self.b[self.i..]).ok()?;
                    let c = rest.chars().next()?;
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Option<Value> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        if self.i == start {
            return None;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).ok()?;
        // Validate it parses as a number at all.
        text.parse::<f64>().ok()?;
        Some(Value::Num(text.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_trace_line() {
        let line = r#"{"t":"event","seq":3,"ns":1500000000,"name":"fault-injected","host":"helene","attrs":{"kind":"host-crash"}}"#;
        let v = parse(line).unwrap();
        assert_eq!(v.get("t").unwrap().as_str(), Some("event"));
        assert_eq!(v.get("ns").unwrap().as_u64(), Some(1_500_000_000));
        assert_eq!(v.get("attrs").unwrap().get("kind").unwrap().as_str(), Some("host-crash"));
    }

    #[test]
    fn big_u64_timestamps_survive_exactly() {
        let n = u64::MAX - 3;
        let v = parse(&format!("{{\"ns\":{n}}}")).unwrap();
        assert_eq!(v.get("ns").unwrap().as_u64(), Some(n));
    }

    #[test]
    fn escapes_round_trip() {
        let raw = "a\"b\\c\nd\te\u{1}";
        let v = parse(&format!("{{\"s\":\"{}\"}}", escape(raw))).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some(raw));
        // The exact bytes the JSONL writer and `rollup --json` emit.
        assert_eq!(escape(raw), "a\\\"b\\\\c\\nd\\te\\u0001");
    }

    #[test]
    fn arrays_nulls_and_bools() {
        let v = parse(r#"[1, true, null, false, ["x"]]"#).unwrap();
        match v {
            Value::Arr(xs) => {
                assert_eq!(xs.len(), 5);
                assert_eq!(xs[1], Value::Bool(true));
                assert_eq!(xs[2], Value::Null);
            }
            _ => panic!("expected array"),
        }
    }

    #[test]
    fn garbage_is_rejected() {
        assert_eq!(parse("{"), None);
        assert_eq!(parse("{\"a\":}"), None);
        assert_eq!(parse("tru"), None);
        assert_eq!(parse("1 2"), None);
        assert_eq!(parse(""), None);
    }
}
