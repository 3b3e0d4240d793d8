//! Phase 1 of the two-phase analyzer: extract a *workspace model* from the
//! lexed sources. Phase 2 (`rules::check_model`) runs cross-file rules over
//! this model; `analyze model` dumps it (`Debug`) for inspection.
//!
//! The model records, per workspace:
//!
//! * **Codec pairs** — `encode*`/`decode*` functions paired by enclosing
//!   `impl` type and name suffix, each reduced to its *collapsed op
//!   sequence*: every `put_*`/`get_*`/slice call mapped to a width symbol
//!   (`u8`, `u32`, `f64`, `bytes`, …) with consecutive repeats collapsed, so
//!   a loop that writes N records compares equal to an unrolled reader.
//! * **Endianness call sites** — big- or native-endian byte calls, each
//!   tagged with crate and test-ness so phase 2 can scope them.

use std::collections::BTreeMap;

use crate::lexer::{Lexed, Tok, TokKind};

/// One file as the extractor sees it: lexed, with its test ranges.
pub struct SourceUnit<'a> {
    /// Workspace-relative display path.
    pub rel: &'a str,
    /// Crate short name (`proto`, `wire`, …) or `suite`.
    pub krate: &'a str,
    /// True for files under `tests/` or `examples/`.
    pub file_is_test: bool,
    pub lexed: &'a Lexed,
    /// Token-index ranges covered by `#[cfg(test)]` / `#[test]` items.
    pub test_ranges: &'a [(usize, usize)],
}

impl SourceUnit<'_> {
    fn in_test_code(&self, tok_idx: usize) -> bool {
        self.file_is_test || self.test_ranges.iter().any(|&(s, e)| tok_idx >= s && tok_idx < e)
    }
}

/// A `file:line` location in the workspace.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Site {
    pub file: String,
    pub line: u32,
}

/// One `encode*` or `decode*` function reduced to its collapsed op sequence.
#[derive(Debug, Clone)]
pub struct CodecFn {
    pub name: String,
    pub line: u32,
    /// Collapsed width symbols, e.g. `["u32", "u16", "bytes"]`.
    pub ops: Vec<String>,
}

/// An `encode*`/`decode*` pair from the same `impl` block.
#[derive(Debug, Clone)]
pub struct CodecPair {
    pub file: String,
    pub krate: String,
    /// The enclosing `impl` type (`Frame`, `ServerStatusReport`, …).
    pub owner: String,
    pub encode: CodecFn,
    pub decode: CodecFn,
}

/// A big- or native-endian byte-order call site.
#[derive(Debug, Clone)]
pub struct EndianSite {
    pub call: String,
    pub krate: String,
    pub in_test: bool,
    pub site: Site,
}

/// The phase-1 output: everything phase 2 needs.
#[derive(Debug, Default)]
pub struct WorkspaceModel {
    pub codec_pairs: Vec<CodecPair>,
    pub big_endian: Vec<EndianSite>,
}

/// Extract the full model from a set of lexed files.
pub fn extract(units: &[SourceUnit<'_>]) -> WorkspaceModel {
    let mut model = WorkspaceModel::default();
    extract_codec_pairs(units, &mut model);
    extract_call_sites(units, &mut model);
    model
}

fn site(unit: &SourceUnit<'_>, line: u32) -> Site {
    Site { file: unit.rel.to_owned(), line }
}

/// Index just past the matching close bracket for the opener at `open`.
fn skip_balanced(toks: &[Tok], open: usize, open_t: &str, close_t: &str) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < toks.len() {
        if toks[j].text == open_t {
            depth += 1;
        } else if toks[j].text == close_t {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    toks.len()
}

// ---------------------------------------------------------------------------
// Function and impl ranges
// ---------------------------------------------------------------------------

/// A function's name and the token range of its body (exclusive of braces'
/// outside).
pub struct FnRange {
    pub name: String,
    pub line: u32,
    /// Body token range, `[start, end)`, including the outer braces.
    pub start: usize,
    pub end: usize,
}

/// Every `fn name … { body }` in the stream, including nested functions.
pub fn fn_ranges(toks: &[Tok]) -> Vec<FnRange> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].text != "fn" || toks[i].kind != TokKind::Ident {
            continue;
        }
        let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            continue;
        };
        // Scan to the body `{`, skipping the parameter list; a `;` first
        // means a bodyless trait/extern declaration.
        let mut j = i + 2;
        let mut found = None;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" => j = skip_balanced(toks, j, "(", ")"),
                "{" => {
                    found = Some(j);
                    break;
                }
                ";" => break,
                _ => j += 1,
            }
        }
        if let Some(open) = found {
            out.push(FnRange {
                name: name_tok.text.clone(),
                line: name_tok.line,
                start: open,
                end: skip_balanced(toks, open, "{", "}"),
            });
        }
    }
    out
}

/// Every `impl [Trait for] Type { … }` block: `(type name, body range)`.
fn impl_ranges(toks: &[Tok]) -> Vec<(String, usize, usize)> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].text != "impl" || toks[i].kind != TokKind::Ident {
            continue;
        }
        // Item position only: `impl Trait` in argument/return position
        // (`&mut impl BufMut`) is preceded by expression punctuation, a real
        // impl block by an item boundary (file start, `}`, `;`, `{`, or the
        // `]` closing an attribute).
        if i > 0 && !matches!(toks[i - 1].text.as_str(), "}" | ";" | "{" | "]") {
            continue;
        }
        // Walk to the body `{`, remembering the last identifier seen at
        // angle-depth 0 — that is the implemented-on type (`for` target when
        // present, the head type otherwise).
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut owner = None;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "{" if angle <= 0 => break,
                "where" if angle <= 0 => break,
                _ => {
                    if angle <= 0 && toks[j].kind == TokKind::Ident && toks[j].text != "for" {
                        owner = Some(toks[j].text.clone());
                    }
                }
            }
            j += 1;
        }
        // Advance to the actual `{` (past any where-clause).
        while j < toks.len() && toks[j].text != "{" {
            j += 1;
        }
        if let (Some(owner), true) = (owner, j < toks.len()) {
            out.push((owner, j, skip_balanced(toks, j, "{", "}")));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Codec pairs (SS-PROTO-002)
// ---------------------------------------------------------------------------

/// Map a `.method(` name to a width symbol, if it is a buffer op.
fn op_symbol(name: &str) -> Option<&'static str> {
    const WIDTHS: &[&str] =
        &["u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128", "f32", "f64"];
    if let Some(rest) = name.strip_prefix("put_").or_else(|| name.strip_prefix("get_")) {
        let base = rest.strip_suffix("_le").or_else(|| rest.strip_suffix("_ne")).unwrap_or(rest);
        if let Some(w) = WIDTHS.iter().find(|w| **w == base) {
            return Some(w);
        }
        if rest == "slice" {
            return Some("bytes");
        }
    }
    match name {
        "copy_to_slice" | "split_to" | "advance" | "extend_from_slice" => Some("bytes"),
        _ => None,
    }
}

/// Collapse consecutive repeats so loops and unrolled bodies compare equal.
fn collapse(ops: Vec<&'static str>) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for op in ops {
        if out.last().map(|l| l != op).unwrap_or(true) {
            out.push(op.to_owned());
        }
    }
    out
}

fn extract_codec_pairs(units: &[SourceUnit<'_>], model: &mut WorkspaceModel) {
    for unit in units {
        if unit.file_is_test || !crate::rules::CODEC_CRATES.contains(&unit.krate) {
            continue;
        }
        let toks = &unit.lexed.toks;
        let impls = impl_ranges(toks);
        // (owner, suffix) → per-direction function.
        let mut encoders: BTreeMap<(String, String), CodecFn> = BTreeMap::new();
        let mut decoders: BTreeMap<(String, String), CodecFn> = BTreeMap::new();
        for f in fn_ranges(toks) {
            if unit.in_test_code(f.start) {
                continue;
            }
            let (map, suffix) = if let Some(s) = f.name.strip_prefix("encode") {
                (&mut encoders, s.to_owned())
            } else if let Some(s) = f.name.strip_prefix("decode") {
                (&mut decoders, s.to_owned())
            } else {
                continue;
            };
            // Innermost enclosing impl owns the method.
            let owner = impls
                .iter()
                .filter(|(_, s, e)| f.start >= *s && f.end <= *e)
                .min_by_key(|(_, s, e)| e - s)
                .map(|(o, _, _)| o.clone())
                .unwrap_or_default();
            let mut ops = Vec::new();
            for k in f.start..f.end.min(toks.len()) {
                if toks[k].kind == TokKind::Ident
                    && k > 0
                    && toks[k - 1].text == "."
                    && toks.get(k + 1).map(|t| t.text == "(").unwrap_or(false)
                {
                    if let Some(sym) = op_symbol(&toks[k].text) {
                        ops.push(sym);
                    }
                }
            }
            let codec = CodecFn { name: f.name.clone(), line: f.line, ops: collapse(ops) };
            // First definition wins; a same-named helper nested inside
            // another fn would otherwise shadow the method.
            map.entry((owner, suffix)).or_insert(codec);
        }
        for (key, enc) in encoders {
            if let Some(dec) = decoders.get(&key) {
                model.codec_pairs.push(CodecPair {
                    file: unit.rel.to_owned(),
                    krate: unit.krate.to_owned(),
                    owner: key.0,
                    encode: enc,
                    decode: dec.clone(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Endianness call sites
// ---------------------------------------------------------------------------

/// Big- or native-endian byte calls: bare-width `put_*`/`get_*` (the bytes
/// API is big-endian without a suffix), explicit `_be`/`_ne` variants, and
/// the primitive `to_be*`/`from_be*` conversions.
fn endian_call(name: &str) -> bool {
    if let Some(rest) = name.strip_prefix("put_").or_else(|| name.strip_prefix("get_")) {
        const WIDTHS: &[&str] =
            &["u16", "u32", "u64", "u128", "i16", "i32", "i64", "i128", "f32", "f64"];
        return WIDTHS.contains(&rest)
            || WIDTHS
                .iter()
                .any(|w| rest.strip_suffix("_be").or_else(|| rest.strip_suffix("_ne")) == Some(w));
    }
    matches!(
        name,
        "to_be_bytes" | "from_be_bytes" | "to_be" | "from_be" | "to_ne_bytes" | "from_ne_bytes"
    )
}

fn extract_call_sites(units: &[SourceUnit<'_>], model: &mut WorkspaceModel) {
    for unit in units {
        let toks = &unit.lexed.toks;
        for i in 0..toks.len() {
            let t = &toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            let called = toks.get(i + 1).map(|t| t.text == "(").unwrap_or(false);
            let after_path = i >= 2 && toks[i - 1].text == ":" && toks[i - 2].text == ":";
            let after_dot = i >= 1 && toks[i - 1].text == ".";

            // Endianness calls.
            if called && (after_dot || after_path) && endian_call(&t.text) {
                model.big_endian.push(EndianSite {
                    call: t.text.clone(),
                    krate: unit.krate.to_owned(),
                    in_test: unit.in_test_code(i),
                    site: site(unit, t.line),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::test_ranges;

    fn unit<'a>(
        rel: &'a str,
        krate: &'a str,
        lexed: &'a Lexed,
        ranges: &'a [(usize, usize)],
    ) -> SourceUnit<'a> {
        SourceUnit { rel, krate, file_is_test: false, lexed, test_ranges: ranges }
    }

    fn model_of(krate: &str, src: &str) -> (WorkspaceModel, Lexed) {
        let lexed = lex(src);
        let ranges = test_ranges(&lexed.toks);
        let m = extract(&[unit("m.rs", krate, &lexed, &ranges)]);
        (m, lex(src))
    }

    #[test]
    fn fn_ranges_find_nested_and_skip_declarations() {
        let lexed = lex("trait T { fn decl(&self); }\n\
                         fn outer() { fn inner() { x(); } inner(); }");
        let names: Vec<String> = fn_ranges(&lexed.toks).into_iter().map(|f| f.name).collect();
        assert_eq!(names, ["outer", "inner"]);
    }

    #[test]
    fn collapsed_ops_equate_loops_and_unrolled_bodies() {
        let src = "impl R {\n\
                   fn encode(&self, b: &mut BytesMut) { b.put_u32_le(self.n); \
                   for v in &self.vs { b.put_u16_le(*v); } }\n\
                   fn decode(b: &mut Bytes) -> R { let n = b.get_u32_le(); \
                   let a = b.get_u16_le(); let c = b.get_u16_le(); R }\n\
                   }";
        let (m, _) = model_of("proto", src);
        assert_eq!(m.codec_pairs.len(), 1);
        let p = &m.codec_pairs[0];
        assert_eq!(p.owner, "R");
        assert_eq!(p.encode.ops, ["u32", "u16"]);
        assert_eq!(p.decode.ops, ["u32", "u16"]);
    }

    #[test]
    fn endian_sites_carry_testness() {
        let src = "fn g(b: &mut B) { b.put_u32(1); b.put_u32_le(2); b.put_u8(3); }\n\
                   #[cfg(test)] mod t { fn h(b: &mut B) { b.put_u16(1); } }";
        let (m, _) = model_of("core", src);
        let calls: Vec<(&str, bool)> =
            m.big_endian.iter().map(|e| (e.call.as_str(), e.in_test)).collect();
        assert_eq!(calls, [("put_u32", false), ("put_u16", true)], "bare-width calls only");
    }
}
