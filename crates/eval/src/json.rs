//! The one JSON writer behind every report the workspace emits.
//!
//! The vendored `serde` stand-in does not serialise at runtime (see
//! `vendor/README.md`), so [`EvalReport`](crate::EvalReport),
//! [`SoakReport`](crate::SoakReport) and the serving benchmark's
//! `BENCH_serve.json` are written here: one string escaper, one
//! fixed-decimal number format that writes `null` for NaN and ±∞, and
//! objects and arrays laid out on one line or one member per line. Members
//! come out in the order they are written, so a document is deterministic
//! byte for byte.
//!
//! ```
//! use uw_eval::json::{document, Layout};
//!
//! let json = document(|o| {
//!     o.key("schema").str("demo-v1");
//!     o.key("cdf").array(Layout::Line, |cdf| {
//!         cdf.item().fixed(0.5, 2);
//!         cdf.item().fixed(f64::NAN, 2);
//!     });
//! });
//! assert_eq!(json, "{\n  \"schema\": \"demo-v1\",\n  \"cdf\": [0.50, null]\n}\n");
//! ```

use std::fmt::{Display, Write};

/// How an object or array places its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// All members on one line: `{"a": 1, "b": 2}`.
    Line,
    /// One line with a space inside each bracket: `{ "a": 1, "b": 2 }`.
    Padded,
    /// One member per line, two spaces deeper than the line the value
    /// opens on. The closing bracket gets its own line, also when there
    /// are no members.
    Lines,
}

/// Writes a document: a [`Layout::Lines`] object followed by a newline.
pub fn document(members: impl FnOnce(&mut Seq<'_>)) -> String {
    let mut out = String::new();
    Value(&mut out, 0).object(Layout::Lines, members);
    out.push('\n');
    out
}

/// The place of one value, an object member after its key or an array
/// item: the document and the indent of the line the value opens on.
pub struct Value<'a>(&'a mut String, usize);

impl Value<'_> {
    /// Writes `s` as a string literal, escaping `"`, `\` and control
    /// characters.
    pub fn str(self, s: &str) {
        let out = self.0;
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\0'..='\x1f' => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Writes `v` with `decimals` digits after the point, or `null` when it
    /// is NaN or ±∞ (JSON has no literal for them). `-0.0` keeps its sign.
    pub fn fixed(self, v: f64, decimals: usize) {
        if v.is_finite() {
            self.raw(format_args!("{v:.decimals$}"));
        } else {
            self.raw("null");
        }
    }

    /// Writes `v`'s `Display` form as it is: for integers, booleans and
    /// `null`.
    pub fn raw(self, v: impl Display) {
        write!(self.0, "{v}").expect("a String takes every write");
    }

    /// Writes an object whose members `members` adds with [`Seq::key`].
    pub fn object(self, layout: Layout, members: impl FnOnce(&mut Seq<'_>)) {
        self.seq(layout, ['{', '}'], members);
    }

    /// Writes an array whose items `items` adds with [`Seq::item`].
    pub fn array(self, layout: Layout, items: impl FnOnce(&mut Seq<'_>)) {
        self.seq(layout, ['[', ']'], items);
    }

    fn seq(self, layout: Layout, [open, close]: [char; 2], fill: impl FnOnce(&mut Seq<'_>)) {
        let Value(out, indent) = self;
        out.push(open);
        let mut seq = Seq {
            out,
            layout,
            indent,
            first: true,
        };
        fill(&mut seq);
        seq.mark(true);
        seq.out.push(close);
    }
}

/// The members of an open object or the items of an open array.
pub struct Seq<'a> {
    out: &'a mut String,
    layout: Layout,
    /// Indent of the line the object or array opens on.
    indent: usize,
    first: bool,
}

impl Seq<'_> {
    /// Starts the next object member: writes its key.
    pub fn key(&mut self, key: &str) -> Value<'_> {
        let Value(out, indent) = self.item();
        Value(&mut *out, indent).str(key);
        out.push_str(": ");
        Value(out, indent)
    }

    /// Starts the next array item.
    pub fn item(&mut self) -> Value<'_> {
        self.mark(false);
        let deeper = if self.layout == Layout::Lines { 2 } else { 0 };
        Value(&mut *self.out, self.indent + deeper)
    }

    /// Writes what goes before the next member, or before the closing
    /// bracket when `closing`: a comma between members, then a space or
    /// a line break and the indent the layout asks for.
    fn mark(&mut self, closing: bool) {
        let first = std::mem::replace(&mut self.first, false);
        if !first && !closing {
            self.out.push(',');
        }
        match self.layout {
            Layout::Line if first || closing => {}
            Layout::Line | Layout::Padded => self.out.push(' '),
            Layout::Lines => {
                let indent = self.indent + if closing { 0 } else { 2 };
                write!(self.out, "\n{:indent$}", "").expect("a String takes every write");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(write: impl FnOnce(Value<'_>)) -> String {
        let mut out = String::new();
        write(Value(&mut out, 0));
        out
    }

    #[test]
    fn string_escaping() {
        assert_eq!(one(|v| v.str("a\"b")), "\"a\\\"b\"");
        assert_eq!(one(|v| v.str("a\\b")), "\"a\\\\b\"");
        assert_eq!(one(|v| v.str("a\nb")), "\"a\\nb\"");
        assert_eq!(one(|v| v.str("a\tb\u{1}\u{1f}")), "\"a\\tb\\u0001\\u001f\"");
        assert_eq!(one(|v| v.str("π ")), "\"π \"");
    }

    #[test]
    fn numbers_are_fixed_and_non_finite_ones_are_null() {
        assert_eq!(one(|v| v.fixed(0.6, 6)), "0.600000");
        assert_eq!(one(|v| v.fixed(1.23456, 3)), "1.235");
        assert_eq!(one(|v| v.fixed(-0.0, 6)), "-0.000000");
        assert_eq!(one(|v| v.fixed(f64::NAN, 6)), "null");
        assert_eq!(one(|v| v.fixed(f64::INFINITY, 3)), "null");
        assert_eq!(one(|v| v.fixed(f64::NEG_INFINITY, 3)), "null");
    }

    #[test]
    fn layouts_place_separators_and_brackets() {
        let json = document(|o| {
            o.key("line").object(Layout::Line, |l| {
                l.key("a").raw(1);
                l.key("b").raw(true);
            });
            o.key("padded").object(Layout::Padded, |p| {
                p.key("c").str("d");
                p.key("e").raw(2);
            });
            o.key("rows").array(Layout::Lines, |rows| {
                rows.item().array(Layout::Line, |_| {});
                rows.item()
                    .object(Layout::Lines, |r| r.key("f").raw("null"));
            });
            o.key("none").array(Layout::Lines, |_| {});
        });
        assert_eq!(
            json,
            "{\n  \"line\": {\"a\": 1, \"b\": true},\n  \"padded\": { \"c\": \"d\", \"e\": 2 },\n  \
             \"rows\": [\n    [],\n    {\n      \"f\": null\n    }\n  ],\n  \
             \"none\": [\n  ]\n}\n"
        );
    }
}
