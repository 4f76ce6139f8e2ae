//! The one report path from experiment to table, JSON and gate.
//!
//! An experiment's result implements [`Report`]: it lists every field once,
//! in JSON order, as a `(key, typed value)` [`Field`] — derived fields and
//! nested rows included — and [`render_table`] / [`render_json`] walk that
//! list. A report with invariants worth failing a run over also implements
//! [`Report::gate`]; the `figures` binary evaluates it after every run.

use ckpt_telemetry::JsonWriter;
use std::fmt;

/// A typed report value. The type fixes the JSON encoding (integer, float,
/// string, bool, object, array) and the human formatting.
#[derive(Debug)]
pub enum Value {
    Count(u64),
    Bytes(u64),
    Seconds(f64),
    /// A dimensionless float: speedup, reduction, percentage.
    Ratio(f64),
    /// Bytes per second.
    Rate(f64),
    /// A 128-bit Murmur3 digest, 32 hex digits in JSON.
    Digest((u64, u64)),
    Text(String),
    Bool(bool),
    Obj(Row),
    Rows(Vec<Row>),
}

/// Which renderer shows a field. JSON schemas are frozen, so a column the
/// human table wants on top (a throughput, say) is `Table`-only, and a
/// machine-only subtree (Fig. 4's stage breakdown) is `Json`-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Show {
    Both,
    Table,
    Json,
}

#[derive(Debug)]
pub struct Field {
    pub key: &'static str,
    pub value: Value,
    pub show: Show,
}

/// One object's fields, in JSON order.
pub type Row = Vec<Field>;

pub fn f(key: &'static str, value: Value) -> Field {
    let show = Show::Both;
    Field { key, value, show }
}

pub fn table_only(key: &'static str, value: Value) -> Field {
    let show = Show::Table;
    Field { key, value, show }
}

pub fn json_only(key: &'static str, value: Value) -> Field {
    let show = Show::Json;
    Field { key, value, show }
}

/// An array of objects, one per item.
pub fn rows<T>(items: &[T], row: impl Fn(&T) -> Row) -> Value {
    Value::Rows(items.iter().map(row).collect())
}

/// What every experiment result provides; see the module docs.
pub trait Report {
    fn title(&self) -> &'static str;
    /// The report's root: an [`Value::Obj`] or [`Value::Rows`].
    fn body(&self) -> Value;
    /// Invariant violations; a report without invariants has none.
    fn gate(&self) -> Vec<Violation> {
        Vec::new()
    }
}

/// A row type whose fields need no context: a `Vec` of them is a [`Report`].
pub trait Fields {
    const TITLE: &'static str;
    fn fields(&self) -> Row;
}

impl<T: Fields> Report for Vec<T> {
    fn title(&self) -> &'static str {
        T::TITLE
    }
    fn body(&self) -> Value {
        rows(self, T::fields)
    }
}

/// The kind of invariant a [`Violation`] broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// The sweep does not cover the cells the other rules read.
    Shape,
    /// Restored or recorded bytes differ where they must be identical.
    DigestDrift,
    /// A lost rank came back from the wrong place.
    RestoreSource,
    /// A stored-byte total is out of order against its reference.
    StoredBytes,
    /// Claims or references published with the index off, or none with it on.
    Claims,
    /// The restart engine visited or copied more than the chain holds.
    RestoreWork,
    /// A gated figure crossed its named constant.
    Threshold,
}

#[derive(Debug)]
pub struct Violation {
    pub rule: Rule,
    /// The cell it was found in and what was wrong there.
    pub what: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(out, "{:?}: {}", self.rule, self.what)
    }
}

/// Accumulates a gate's violations.
#[derive(Default)]
pub struct Gate {
    /// The cell the next checks look at; prefixed to their messages.
    pub at: String,
    pub found: Vec<Violation>,
}

impl Gate {
    /// Record a violation of `rule` unless `ok`.
    pub fn check(&mut self, rule: Rule, ok: bool, what: &str) {
        if !ok {
            let what = format!("{}: {what}", self.at);
            self.found.push(Violation { rule, what });
        }
    }
}

/// Human-friendly byte formatting.
pub fn fmt_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b} B")
    } else {
        format!("{v:.2} {}", UNITS[u])
    }
}

pub fn fmt_digest(d: (u64, u64)) -> String {
    format!("{:016x}{:016x}", d.0, d.1)
}

/// `{"<name>": <body>}` on one line.
pub fn render_json(name: &str, body: &Value) -> String {
    fn value(w: &mut JsonWriter, v: &Value) {
        match v {
            Value::Count(n) | Value::Bytes(n) => w.u64(*n),
            Value::Seconds(x) | Value::Ratio(x) | Value::Rate(x) => w.f64(*x),
            Value::Digest(d) => w.string(&fmt_digest(*d)),
            Value::Text(s) => w.string(s),
            Value::Bool(b) => w.bool(*b),
            Value::Obj(row) => object(w, row),
            Value::Rows(rows) => {
                w.begin_array();
                rows.iter().for_each(|row| {
                    object(w, row);
                });
                w.end_array()
            }
        };
    }
    fn object<'w>(w: &'w mut JsonWriter, row: &Row) -> &'w mut JsonWriter {
        w.begin_object();
        for field in row.iter().filter(|field| field.show != Show::Table) {
            w.key(field.key);
            value(w, &field.value);
        }
        w.end_object()
    }
    let mut w = JsonWriter::new();
    w.begin_object().key(name);
    value(&mut w, body);
    w.end_object();
    w.finish()
}

/// The human rendering: an object prints its scalars on one `key value`
/// line and each nested field indented below it; an array of objects prints
/// one aligned table of its rows' scalars, each row followed by its own
/// nested fields.
pub fn render_table(title: &str, body: &Value) -> String {
    fn scalar(v: &Value) -> Option<String> {
        Some(match v {
            Value::Count(n) => n.to_string(),
            Value::Bytes(b) => fmt_bytes(*b),
            Value::Seconds(s) => format!("{:.3} ms", s * 1e3),
            Value::Ratio(r) => format!("{r:.2}"),
            Value::Rate(bps) => format!("{:.2} GB/s", bps / 1e9),
            Value::Digest(d) => fmt_digest(*d),
            Value::Text(s) => s.clone(),
            Value::Bool(b) => b.to_string(),
            Value::Obj(_) | Value::Rows(_) => return None,
        })
    }
    /// The row's table-visible fields, scalars formatted.
    fn shown(row: &Row) -> impl Iterator<Item = (&Field, Option<String>)> {
        let visible = row.iter().filter(|field| field.show != Show::Json);
        visible.map(|field| (field, scalar(&field.value)))
    }
    fn nested(out: &mut String, row: &Row, indent: usize) {
        for (field, _) in shown(row).filter(|(_, scalar)| scalar.is_none()) {
            out.push_str(&format!("{:indent$}{}:\n", "", field.key));
            walk(out, &field.value, indent + 2);
        }
    }
    fn walk(out: &mut String, v: &Value, indent: usize) {
        match v {
            Value::Obj(row) => {
                let line: Vec<String> = shown(row)
                    .filter_map(|(field, scalar)| Some(format!("{} {}", field.key, scalar?)))
                    .collect();
                out.push_str(&format!("{:indent$}{}\n", "", line.join(", ")));
                nested(out, row, indent);
            }
            Value::Rows(rows) => {
                let header = rows.first().into_iter().flat_map(shown);
                let header: Vec<String> = header
                    .filter_map(|(field, scalar)| scalar.map(|_| field.key.to_string()))
                    .collect();
                let cells: Vec<Vec<String>> = rows
                    .iter()
                    .map(|row| shown(row).filter_map(|(_, scalar)| scalar).collect())
                    .collect();
                let mut widths: Vec<usize> = header.iter().map(String::len).collect();
                for cols in &cells {
                    let grow =
                        |(width, col): (&mut usize, &String)| *width = (*width).max(col.len());
                    widths.iter_mut().zip(cols).for_each(grow);
                }
                let line = |cols: &[String]| {
                    let cols = cols.iter().zip(&widths);
                    let text: String = cols.map(|(col, w)| format!(" {col:>w$}")).collect();
                    " ".repeat(indent) + &text + "\n"
                };
                out.push_str(&line(&header));
                for (row, cols) in rows.iter().zip(&cells) {
                    out.push_str(&line(cols));
                    nested(out, row, indent + 4);
                }
            }
            other => out.extend(scalar(other).map(|s| format!("{:indent$}{s}\n", ""))),
        }
    }
    let mut out = format!("{title}\n");
    walk(&mut out, body, 0);
    out
}

#[cfg(test)]
mod tests {
    use super::Value::*;
    use super::*;

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.00 KiB");
        assert_eq!(fmt_bytes(5 * 1024 * 1024), "5.00 MiB");
        assert_eq!(fmt_bytes((4.33 * (1u64 << 40) as f64) as u64), "4.33 TiB");
    }

    #[test]
    fn one_field_list_drives_both_renderers() {
        let body = Obj(vec![
            f("n", Count(2)),
            f(
                "rows",
                Rows(vec![vec![
                    f("size", Bytes(2048)),
                    table_only("tp", Rate(2.5e9)),
                    f("digest", Digest((0xdead, 0xbeef))),
                    json_only("inner", Rows(vec![vec![f("sec", Seconds(0.5))]])),
                ]]),
            ),
            f("ok", Bool(true)),
        ]);
        assert_eq!(
            render_json("x", &body),
            r#"{"x":{"n":2,"rows":[{"size":2048,"digest":"000000000000dead000000000000beef","inner":[{"sec":0.5}]}],"ok":true}}"#
        );
        let text = render_table("T", &body);
        assert!(text.starts_with("T\nn 2, ok true\nrows:\n"), "{text}");
        assert!(text.contains("2.00 KiB 2.50 GB/s 000000000000dead000000000000beef"));
        assert!(!text.contains("inner") && !text.contains("sec"));
    }
}
