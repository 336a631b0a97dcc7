//! The harness's one JSON reader. The vendored `serde` only writes, and everything the
//! harness reads back — `perf_baseline.json`, `BENCHMARK.json`, the benchmark's result
//! line, `BENCH_history.json` entries — is looked up by a handful of known paths, so a
//! document is parsed into its scalar leaves keyed by `/`-joined path
//! (`metrics/latency_s/value`, `workloads/0/name`; `/` because metric names contain
//! dots). Malformed or truncated input is an `Err`, never a panic.

/// A scalar leaf of a JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    Num(f64),
    Str(String),
    Bool(bool),
    Null,
}

/// Every scalar leaf of one JSON document, in document order.
pub struct Flat(Vec<(String, Scalar)>);

/// Containers nested deeper than this are rejected instead of recursed into.
const MAX_DEPTH: usize = 32;

impl Flat {
    /// Parse one JSON document.
    pub fn parse(text: &str) -> Result<Flat, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            leaves: Vec::new(),
        };
        parser.value(&mut String::new(), 0)?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters"));
        }
        Ok(Flat(parser.leaves))
    }

    /// The leaf at `path`, if the document has one.
    pub fn get(&self, path: &str) -> Option<&Scalar> {
        self.0.iter().find(|(p, _)| p == path).map(|(_, v)| v)
    }

    /// The number at `path`.
    pub fn num(&self, path: &str) -> Option<f64> {
        match self.get(path) {
            Some(Scalar::Num(x)) => Some(*x),
            _ => None,
        }
    }

    /// The string at `path`.
    pub fn str(&self, path: &str) -> Option<&str> {
        match self.get(path) {
            Some(Scalar::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// The distinct path segments directly below `prefix` (object keys or array
    /// indices), in document order.
    pub fn children(&self, prefix: &str) -> Vec<&str> {
        let below = format!("{prefix}/");
        let mut out: Vec<&str> = Vec::new();
        for (path, _) in &self.0 {
            if let Some(rest) = path.strip_prefix(&below) {
                let segment = rest.split('/').next().unwrap_or(rest);
                if !out.contains(&segment) {
                    out.push(segment);
                }
            }
        }
        out
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    leaves: Vec<(String, Scalar)>,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("invalid JSON at byte {}: {what}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    /// Parse the value at the cursor, recording its leaves under `path`.
    fn value(&mut self, path: &mut String, depth: usize) -> Result<(), String> {
        self.skip_ws();
        let scalar = match self.bytes.get(self.pos) {
            Some(b'{') | Some(b'[') if depth >= MAX_DEPTH => {
                return Err(self.error("nested too deeply"))
            }
            Some(b'{') => return self.container(path, depth, b'}'),
            Some(b'[') => return self.container(path, depth, b']'),
            Some(b'"') => Scalar::Str(self.string()?),
            Some(b't') => self.literal("true", Scalar::Bool(true))?,
            Some(b'f') => self.literal("false", Scalar::Bool(false))?,
            Some(b'n') => self.literal("null", Scalar::Null)?,
            Some(_) => self.number()?,
            None => return Err(self.error("unexpected end of input")),
        };
        self.leaves.push((path.clone(), scalar));
        Ok(())
    }

    /// An object (`close == b'}'`, members keyed by name) or an array (keyed by index).
    fn container(&mut self, path: &mut String, depth: usize, close: u8) -> Result<(), String> {
        self.pos += 1;
        let base = path.len();
        let mut index = 0usize;
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let segment = if close == b'}' {
                let key = self.string()?;
                if key.contains('/') {
                    return Err(self.error("object key contains '/'"));
                }
                self.eat(b':')?;
                key
            } else {
                index.to_string()
            };
            if base > 0 {
                path.push('/');
            }
            path.push_str(&segment);
            self.value(path, depth + 1)?;
            path.truncate(base);
            index += 1;
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(&b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected ',' or the closing bracket")),
            }
        }
    }

    fn literal(&mut self, word: &str, scalar: Scalar) -> Result<Scalar, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(scalar)
        } else {
            Err(self.error("unknown literal"))
        }
    }

    fn number(&mut self) -> Result<Scalar, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|x| x.is_finite())
            .map(Scalar::Num)
            .ok_or_else(|| self.error("not a number"))
    }

    /// A string literal at the cursor, unescaped (the inverse of `serde::write_json_str`).
    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            let Some(&byte) = self.bytes.get(self.pos) else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match byte {
                b'"' => break,
                b'\\' => {
                    let Some(&escape) = self.bytes.get(self.pos) else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.pos += 1;
                    let c = match escape {
                        b'"' | b'\\' | b'/' => escape as char,
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => self
                            .bytes
                            .get(self.pos..self.pos + 4)
                            .and_then(|hex| std::str::from_utf8(hex).ok())
                            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                            .and_then(char::from_u32)
                            .inspect(|_| self.pos += 4)
                            .ok_or_else(|| self.error("bad \\u escape"))?,
                        _ => return Err(self.error("unknown escape")),
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                _ => out.push(byte),
            }
        }
        String::from_utf8(out).map_err(|_| self.error("string is not UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_committed_perf_baseline() {
        let text = include_str!("../perf_baseline.json");
        let flat = Flat::parse(text).expect("the baseline parses");
        assert_eq!(flat.num("cold_frontier_sweeps"), Some(78.0));
        // Every key agrees with a plain scan of the `"key": value` lines.
        for line in text.lines().filter(|l| l.contains(':')) {
            let (key, value) = line.trim().trim_end_matches(',').split_once(':').unwrap();
            let value: f64 = value.trim().parse().unwrap();
            assert_eq!(flat.num(key.trim_matches('"')), Some(value), "{key}");
        }
    }

    #[test]
    fn flattens_nested_documents_by_path() {
        let flat = Flat::parse(
            r#"{"failed":0,"ok":true,"metrics":{"core.init_s":{"value":1.5e-3,"unit":"s"}},
                "list":[{"name":"a\"b\\\u0041"},null,[]]}"#,
        )
        .unwrap();
        assert_eq!(flat.num("metrics/core.init_s/value"), Some(0.0015));
        assert_eq!(flat.str("metrics/core.init_s/unit"), Some("s"));
        assert_eq!(flat.str("list/0/name"), Some("a\"b\\A"));
        assert_eq!(flat.get("list/1"), Some(&Scalar::Null));
        assert_eq!(flat.get("ok"), Some(&Scalar::Bool(true)));
        assert_eq!(flat.children("metrics"), vec!["core.init_s"]);
        assert_eq!(flat.children("list"), vec!["0", "1"]);
        assert_eq!(flat.num("metrics"), None);
    }

    #[test]
    fn malformed_and_truncated_input_is_an_error() {
        let whole = r#"{"a":{"b":[1,2,{"c":"d\n"}]},"e":-1.5}"#;
        assert!(Flat::parse(whole).is_ok());
        for cut in 0..whole.len() {
            assert!(Flat::parse(&whole[..cut]).is_err(), "prefix {cut} parsed");
        }
        for bad in [
            "{\"a\":1}x",
            "{\"a\" 1}",
            "{\"a\":tru}",
            "{\"a\":1e999}",
            "{\"a/b\":1}",
            "{\"a\":\"\\q\"}",
            "{\"a\":\"\\u12\"}",
        ] {
            assert!(Flat::parse(bad).is_err(), "{bad}");
        }
        assert!(Flat::parse(&"[".repeat(1000)).is_err());
    }
}
