//! A small JSON value: enough to pass results from a repetition's process
//! to the runner, to write result files, and to read them back for
//! `--compare`. Objects keep insertion order so output is stable.

use std::fmt::Write as _;

#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn obj() -> Value {
        Value::Obj(Vec::new())
    }

    /// Append a field (builder style).
    pub fn with(mut self, key: &str, v: impl Into<Value>) -> Value {
        self.set(key, v);
        self
    }

    pub fn set(&mut self, key: &str, v: impl Into<Value>) {
        let Value::Obj(fields) = self else {
            panic!("set on a non-object");
        };
        fields.push((key.to_string(), v.into()));
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn arr(&self) -> &[Value] {
        match self {
            Value::Arr(a) => a,
            _ => &[],
        }
    }

    pub fn fields(&self) -> &[(String, Value)] {
        match self {
            Value::Obj(f) => f,
            _ => &[],
        }
    }

    /// `get(key)` as a number, with the path in the error.
    pub fn need_num(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(Value::num)
            .ok_or_else(|| format!("missing number `{key}`"))
    }

    pub fn need_str(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .and_then(Value::str)
            .ok_or_else(|| format!("missing string `{key}`"))
    }

    /// Compact one-line encoding.
    pub fn encode(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, None, 0);
        s
    }

    /// Indented encoding for files people read.
    pub fn pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, Some(2), 0);
        s.push('\n');
        s
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let nl = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * depth));
            }
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_num(out, *n),
            Value::Str(s) => write_str(out, s),
            Value::Arr(a) => {
                // Arrays of scalars stay on one line even when indenting.
                let flat = a
                    .iter()
                    .all(|v| !matches!(v, Value::Arr(_) | Value::Obj(_)));
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if flat && indent.is_some() { ", " } else { "," });
                    }
                    if !flat {
                        nl(out, depth + 1);
                    }
                    v.write(out, indent, depth + 1);
                }
                if !flat && !a.is_empty() {
                    nl(out, depth);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    nl(out, depth + 1);
                    write_str(out, k);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    nl(out, depth);
                }
                out.push('}');
            }
        }
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.pos != p.s.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// Rust's `{}` for `f64` prints the shortest text that reads back to the
/// same bits, so a measured value keeps all its digits. JSON has no NaN
/// or infinity; they become `null` (and fail any later `need_num`).
fn write_num(out: &mut String, n: f64) {
    if n.is_finite() {
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Num(n)
    }
}
impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Num(n as f64)
    }
}
impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Num(n as f64)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}
impl From<Vec<Value>> for Value {
    fn from(a: Vec<Value>) -> Value {
        Value::Arr(a)
    }
}

struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
}

/// Nesting limit: result files are four or five levels deep; a file that
/// nests deeper is not one of ours, and recursion must stay bounded.
const MAX_DEPTH: usize = 64;

impl Parser<'_> {
    fn ws(&mut self) {
        while self.pos < self.s.len() && self.s[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.value_at(0)
    }

    fn value_at(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        self.ws();
        let Some(&c) = self.s.get(self.pos) else {
            return Err("unexpected end of input".into());
        };
        match c {
            b'n' if self.eat("null") => Ok(Value::Null),
            b't' if self.eat("true") => Ok(Value::Bool(true)),
            b'f' if self.eat("false") => Ok(Value::Bool(false)),
            b'"' => self.string().map(Value::Str),
            b'[' => {
                self.pos += 1;
                let mut a = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Ok(Value::Arr(a));
                }
                loop {
                    a.push(self.value_at(depth + 1)?);
                    self.ws();
                    if self.eat("]") {
                        return Ok(Value::Arr(a));
                    }
                    if !self.eat(",") {
                        return Err(format!("expected `,` or `]` at byte {}", self.pos));
                    }
                }
            }
            b'{' => {
                self.pos += 1;
                let mut f = Vec::new();
                self.ws();
                if self.eat("}") {
                    return Ok(Value::Obj(f));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.ws();
                    if !self.eat(":") {
                        return Err(format!("expected `:` at byte {}", self.pos));
                    }
                    f.push((k, self.value_at(depth + 1)?));
                    self.ws();
                    if self.eat("}") {
                        return Ok(Value::Obj(f));
                    }
                    if !self.eat(",") {
                        return Err(format!("expected `,` or `}}` at byte {}", self.pos));
                    }
                }
            }
            b'-' | b'0'..=b'9' => {
                let start = self.pos;
                while self.pos < self.s.len()
                    && matches!(
                        self.s[self.pos],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.pos]).expect("ascii digits");
                text.parse::<f64>()
                    .map(Value::Num)
                    .map_err(|_| format!("bad number `{text}` at byte {start}"))
            }
            _ => Err(format!("unexpected byte `{}` at {}", c as char, self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected string at byte {}", self.pos));
        }
        let mut out = Vec::new();
        loop {
            let Some(&c) = self.s.get(self.pos) else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match c {
                b'"' => break,
                b'\\' => {
                    let Some(&e) = self.s.get(self.pos) else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    match e {
                        b'"' | b'\\' | b'/' => out.push(e),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            // Surrogate pairs never occur in our files;
                            // a lone surrogate becomes U+FFFD.
                            let ch = char::from_u32(hex).unwrap_or('\u{fffd}');
                            out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(format!("bad escape `\\{}`", e as char)),
                    }
                }
                c => out.push(c),
            }
        }
        String::from_utf8(out).map_err(|_| "string is not UTF-8".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        Value::obj()
            .with("correct", true)
            .with("attempted", 1000u64)
            .with("name", "a \"quoted\"\\ line\nbreak")
            .with(
                "metrics",
                Value::obj().with(
                    "host_mbps",
                    Value::obj()
                        .with("value", 323.045_678_912_345_6)
                        .with("unit", "MB/cpu-s"),
                ),
            )
            .with(
                "reps",
                vec![Value::Num(1.5), Value::Num(-2e-7), Value::Null],
            )
            .with("empty", Value::obj())
            .with("none", Vec::<Value>::new())
    }

    #[test]
    fn round_trips_compact_and_pretty() {
        let v = sample();
        assert_eq!(Value::parse(&v.encode()).unwrap(), v);
        assert_eq!(Value::parse(&v.pretty()).unwrap(), v);
        assert!(!v.encode().contains('\n'), "compact form is one line");
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        for n in [0.1 + 0.2, 1.0 / 3.0, 1e-9, 123_456_789.123_456_79, 2048.0] {
            let text = Value::Num(n).encode();
            assert_eq!(
                text.parse::<f64>().unwrap().to_bits(),
                n.to_bits(),
                "{text}"
            );
        }
        assert_eq!(Value::Num(2048.0).encode(), "2048");
        assert_eq!(Value::Num(f64::NAN).encode(), "null");
    }

    #[test]
    fn accessors_and_errors() {
        let v = sample();
        assert_eq!(v.need_num("attempted"), Ok(1000.0));
        assert!(v.need_num("name").is_err());
        assert_eq!(v.get("metrics").unwrap().fields().len(), 1);
        assert_eq!(v.get("reps").unwrap().arr().len(), 3);
        assert!(v.get("absent").is_none());
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "{\"a\"}",
            "[1,]",
            "{\"a\":1,}",
            "\"open",
            "\"bad \\x\"",
            "\"\\u12\"",
            "1 2",
            "nul",
            "--",
            "{\"a\":1}}",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} should not parse");
        }
        let deep = "[".repeat(10_000);
        assert!(Value::parse(&deep).is_err());
    }
}
