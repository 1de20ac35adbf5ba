//! The report core `bench-solve` and `bench-admm` share.
//!
//! A bench run is a [`Report`]: header pairs (`version`, `quick`, …) plus
//! one [`Row`] of `(key, value)` per case. One static [`Column`] list per
//! bench names each key once — with its table heading, width and format,
//! or as JSON-only — and both the human tables and the one-case-per-line
//! JSON document are derived from it. A row must set exactly the listed
//! keys: one the list does not know is an error, not a silent omission.
//!
//! [`median_us`] and [`timed`] are the only clock reads in this crate. A
//! [`Gate`] is a named check over the finished rows; [`finish`] renders,
//! writes and gates a report the same way for both benches. Gates read
//! counts and same-process ratios only — what repeats on every machine.
//! Absolute times are the repo benchmark's job (`benchmark/`, parent
//! against change on one box).

use std::time::{Duration, Instant};

use paradigm_serve::Json;

use crate::commands::{CliError, CmdOutput};

/// How a column's value is shown in the human table.
#[derive(Clone, Copy)]
pub enum Cell {
    /// Not shown: a field of the JSON document only.
    JsonOnly,
    /// Left-aligned text (the case name).
    Text,
    /// Right-aligned integer.
    Int,
    /// Fixed-point with this many decimals.
    Fixed(usize),
    /// A ratio: fixed-point with a trailing `x`.
    Times(usize),
    /// Scientific notation with this many decimals.
    Sci(usize),
    /// `yes` / `NO`.
    YesNo,
    /// A nested value the bench renders itself.
    With(fn(&Json) -> String),
}

/// One reported field: its key in every row and in the JSON document,
/// then its heading, width and format in the human table.
pub type Column = (&'static str, &'static str, usize, Cell);

/// A field of the JSON document only.
pub const fn json_only(key: &'static str) -> Column {
    (key, "", 0, Cell::JsonOnly)
}

/// A titled group of columns: one human table. The JSON document lists
/// every group's fields in order; a table after the first repeats the
/// first group's first column (the case name).
pub type Table = (&'static str, &'static [Column]);

/// One case's measurements.
pub struct Row {
    pub(crate) fields: Vec<(&'static str, Json)>,
    /// A line printed under the row in the first table (`bench-admm`'s
    /// `faults:` line).
    pub note: Option<String>,
}

impl Row {
    /// A row for the case `name`.
    pub fn new(name: &str) -> Row {
        Row { fields: vec![("name", Json::str(name))], note: None }
    }

    /// Record a number under `key`.
    pub fn set(&mut self, key: &'static str, value: f64) {
        self.fields.push((key, Json::Num(value)));
    }

    /// Record a flag or a nested value under `key`.
    pub fn set_json(&mut self, key: &'static str, value: Json) {
        self.fields.push((key, value));
    }

    /// The value recorded under `key`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// The case name.
    pub fn name(&self) -> &str {
        self.get("name").and_then(Json::as_str).unwrap_or("?")
    }

    /// The number recorded under `key`; NaN when there is none (no gate
    /// sees that: [`finish`] refuses a row with a listed key missing).
    pub fn num(&self, key: &str) -> f64 {
        self.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
    }
}

/// A finished bench run.
pub struct Report {
    /// First line of the human output.
    pub title: String,
    /// Document-level pairs, written before `cases`.
    pub header: Vec<(&'static str, Json)>,
    /// The bench's column list.
    pub tables: &'static [Table],
    /// One row per case.
    pub rows: Vec<Row>,
    /// Lines printed after the tables (`bench-admm`'s per-worker lines).
    pub footer: String,
}

impl Report {
    /// The document-level number under `key` (NaN when there is none).
    pub fn header_num(&self, key: &str) -> f64 {
        let found = self.header.iter().find(|(k, _)| *k == key);
        found.and_then(|(_, v)| v.as_f64()).unwrap_or(f64::NAN)
    }

    fn columns(&self) -> impl Iterator<Item = &'static Column> {
        self.tables.iter().flat_map(|(_, cols)| cols.iter())
    }

    /// The human tables.
    pub fn render_tables(&self) -> Result<String, String> {
        let name = self.columns().next().ok_or("a report needs a column")?;
        let mut out = format!("{}\n", self.title);
        for (t, (title, cols)) in self.tables.iter().enumerate() {
            if t > 0 {
                out.push_str(&format!("\n{title}\n"));
            }
            let lead = (t > 0).then_some(name);
            let shown: Vec<&Column> = lead
                .into_iter()
                .chain(cols.iter())
                .filter(|c| !matches!(c.3, Cell::JsonOnly))
                .collect();
            push_line(&mut out, &shown, shown.iter().map(|c| c.1.to_string()));
            for row in &self.rows {
                let cells: Result<Vec<String>, String> =
                    shown.iter().map(|c| Ok(render_cell(value(row, c.0)?, c.3))).collect();
                push_line(&mut out, &shown, cells?.into_iter());
                if let Some(note) = row.note.as_deref().filter(|_| t == 0) {
                    out.push_str(note);
                    out.push('\n');
                }
            }
        }
        out.push_str(&self.footer);
        Ok(out)
    }

    /// The JSON document: header pairs, then one case per line so diffs
    /// between two runs stay readable. Counts are written exactly;
    /// measurements keep six significant digits — diff-stable in size,
    /// and enough for a residual of 1e-5 and a wall clock of minutes alike.
    pub fn render_json(&self) -> Result<String, String> {
        let mut out = String::from("{\n");
        for (key, value) in &self.header {
            out.push_str(&format!("  \"{key}\": {},\n", value.render()));
        }
        out.push_str("  \"cases\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let mut members = Vec::new();
            for (key, ..) in self.columns() {
                members.push((key.to_string(), six_digits(value(row, key)?)));
            }
            let listed = |k: &str| self.columns().any(|c| c.0 == k);
            if let Some((key, _)) = row.fields.iter().find(|(k, _)| !listed(k)) {
                return Err(format!("case `{}` sets `{key}`, which no column lists", row.name()));
            }
            if row.fields.len() != members.len() {
                return Err(format!("case `{}` sets a key twice", row.name()));
            }
            out.push_str("    ");
            out.push_str(&Json::Obj(members).render());
            out.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        Ok(out)
    }
}

/// What `row` recorded under `key`, or the error naming what is missing.
fn value<'r>(row: &'r Row, key: &str) -> Result<&'r Json, String> {
    row.get(key).ok_or_else(|| format!("case `{}` has no `{key}`", row.name()))
}

/// One table line: `cells` under the widths and alignment of `shown`.
fn push_line(out: &mut String, shown: &[&Column], cells: impl Iterator<Item = String>) {
    for (i, (text, &&(_, _, width, cell))) in cells.zip(shown).enumerate() {
        if i > 0 {
            out.push(' ');
        }
        match cell {
            Cell::Text => out.push_str(&format!("{text:<width$}")),
            _ => out.push_str(&format!("{text:>width$}")),
        }
    }
    out.push('\n');
}

fn render_cell(value: &Json, cell: Cell) -> String {
    let v = value.as_f64().unwrap_or(f64::NAN);
    match cell {
        Cell::JsonOnly => String::new(),
        Cell::Text => value.as_str().unwrap_or("?").to_string(),
        Cell::Int => format!("{v:.0}"),
        Cell::Fixed(d) => format!("{v:.d$}"),
        Cell::Times(d) => format!("{v:.d$}x"),
        Cell::Sci(d) => format!("{v:.d$e}"),
        Cell::YesNo => if value.as_bool() == Some(true) { "yes" } else { "NO" }.to_string(),
        Cell::With(f) => f(value),
    }
}

/// `value` with every non-integer in it rounded to six significant digits.
fn six_digits(value: &Json) -> Json {
    match value {
        Json::Num(v) if v.is_finite() && v.fract() != 0.0 => {
            Json::Num(format!("{v:.5e}").parse().unwrap_or(*v))
        }
        Json::Obj(members) => {
            Json::Obj(members.iter().map(|(k, v)| (k.clone(), six_digits(v))).collect())
        }
        other => other.clone(),
    }
}

/// Median wall time of one call of `f`, in microseconds, over `reps`
/// samples of `inner` back-to-back calls each (`inner > 1` resolves
/// sub-microsecond work; whole descent stages time unlooped).
pub fn median_us(reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..inner {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e6 / inner as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Run `f` once; its result and wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// A named check over a finished report. `check` yields the detail of
/// the `name: ok — …` line, or of the `name: REGRESSION — …` line that
/// fails the run (exit code 1); a regression names its case.
pub struct Gate {
    /// Name at the start of the gate's line.
    pub name: &'static str,
    /// The check.
    pub check: fn(&Report) -> Result<String, String>,
}

/// The form most checks take: the `complaint` about the first case that
/// has one, after that case's name; else `ok`.
pub fn every_case(
    report: &Report,
    ok: &str,
    complaint: impl Fn(&Row) -> Option<String>,
) -> Result<String, String> {
    let first = |row: &Row| Some(format!("{} {}", row.name(), complaint(row)?));
    report.rows.iter().find_map(first).map_or(Ok(ok.to_string()), Err)
}

/// Render `report` (tables, then the JSON document — to `out` when given,
/// else after the tables), run `gates`, and turn any regression into
/// [`CmdOutput::failed`].
pub fn finish(report: &Report, gates: &[Gate], out: Option<&str>) -> Result<CmdOutput, CliError> {
    let bug = |e: String| CliError::Config(format!("bench report: {e}"));
    let mut text = report.render_tables().map_err(bug)?;
    let json = report.render_json().map_err(bug)?;
    match out {
        Some(path) => {
            std::fs::write(path, &json).map_err(CliError::Io)?;
            text.push_str(&format!("\nwrote {path}\n"));
        }
        None => {
            text.push('\n');
            text.push_str(&json);
        }
    }
    let mut failed = false;
    for gate in gates {
        let verdict = (gate.check)(report);
        failed |= verdict.is_err();
        let (word, detail) = match &verdict {
            Ok(detail) => ("ok", detail),
            Err(detail) => ("REGRESSION", detail),
        };
        text.push_str(&format!("{}: {word} — {detail}\n", gate.name));
    }
    Ok(CmdOutput { text, failed })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLES: &[Table] = &[
        (
            "",
            &[("name", "case", 6, Cell::Text), ("iters", "it", 4, Cell::Int), json_only("wall_ms")],
        ),
        ("ratios", &[("speedup", "speed", 6, Cell::Times(1)), ("ok", "ok", 3, Cell::YesNo)]),
    ];

    fn row(name: &str, speedup: f64) -> Row {
        let mut row = Row::new(name);
        row.set("iters", 1_234_567.0);
        row.set("wall_ms", 1234.56789);
        row.set("speedup", speedup);
        row.set_json("ok", Json::Bool(speedup >= 1.0));
        row
    }

    fn report(rows: Vec<Row>) -> Report {
        Report {
            title: "bench (test)".into(),
            header: vec![("version", Json::num(1.0)), ("crossover", Json::Null)],
            tables: TABLES,
            rows,
            footer: "done\n".into(),
        }
    }

    const SPEED: Gate = Gate {
        name: "speed",
        check: |report| {
            every_case(report, "every case is faster", |row| {
                let speedup = row.num("speedup");
                (speedup < 1.0).then(|| format!("runs at {speedup:.2}x"))
            })
        },
    };

    #[test]
    fn table_and_json_come_out_of_one_column_list() {
        let mut noted = row("b", 0.5);
        noted.note = Some("  note under b".into());
        let rep = report(vec![row("a", 2.0), noted]);
        let text = rep.render_tables().expect("every key is listed");
        let expect = "bench (test)\n\
                      case     it\n\
                      a      1234567\n\
                      b      1234567\n  note under b\n\
                      \nratios\n\
                      case    speed  ok\n\
                      a        2.0x yes\n\
                      b        0.5x  NO\n\
                      done\n";
        assert_eq!(text, expect);

        let json = rep.render_json().expect("every key is listed");
        let doc = paradigm_serve::parse_json(&json).expect("valid JSON");
        assert_eq!(doc.get("version").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("crossover"), Some(&Json::Null), "a null header value keeps its key");
        let cases = doc.get("cases").and_then(Json::as_arr).expect("cases array");
        let Json::Obj(members) = &cases[0] else { panic!("a case is an object") };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["name", "iters", "wall_ms", "speedup", "ok"], "column order, hidden too");
        assert_eq!(cases[0].get("iters").and_then(Json::as_u64), Some(1_234_567), "counts exact");
        assert_eq!(cases[0].get("wall_ms").and_then(Json::as_f64), Some(1234.57), "six digits");
        assert_eq!(json.lines().filter(|l| l.starts_with("    {")).count(), 2, "a case per line");
    }

    #[test]
    fn a_key_no_column_lists_is_an_error_and_so_is_a_missing_one() {
        let mut extra = row("a", 2.0);
        extra.set("surprise", 1.0);
        let err = report(vec![extra]).render_json().expect_err("unknown key");
        assert!(err.contains("`a`") && err.contains("`surprise`"), "{err}");
        let mut short = Row::new("b");
        short.set("iters", 1.0);
        let err = report(vec![short]).render_tables().expect_err("missing key");
        assert!(err.contains("`b`") && err.contains("`speedup`"), "{err}");
        let mut twice = row("c", 2.0);
        twice.set("iters", 2.0);
        assert!(report(vec![twice]).render_json().is_err(), "a key set twice");
        let out = finish(&report(vec![Row::new("d")]), &[], None);
        assert!(matches!(out, Err(CliError::Config(_))), "a malformed report is exit code 2");
    }

    #[test]
    fn a_failing_gate_fails_the_run_and_names_its_case() {
        let out = finish(&report(vec![row("a", 2.0)]), &[SPEED], None).expect("renders");
        assert!(!out.failed);
        assert!(out.text.ends_with("speed: ok — every case is faster\n"), "{}", out.text);
        assert!(out.text.contains("\"cases\": ["), "no --out: the document follows the tables");

        let path =
            std::env::temp_dir().join(format!("paradigm-harness-{}.json", std::process::id()));
        let p = path.to_string_lossy().into_owned();
        let out = finish(&report(vec![row("a", 2.0), row("b", 0.5)]), &[SPEED], Some(&p)).unwrap();
        assert!(out.failed, "one slow case fails the run");
        assert!(out.text.ends_with("speed: REGRESSION — b runs at 0.50x\n"), "{}", out.text);
        assert!(!out.text.contains("\"cases\""), "--out: the document goes to the file");
        let written = std::fs::read_to_string(&path).expect("document written");
        assert!(paradigm_serve::parse_json(&written).is_ok());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn median_is_per_call_and_timed_returns_the_result() {
        let mut calls = 0;
        let us = median_us(5, 4, || calls += 1);
        assert_eq!(calls, 20, "reps x inner calls");
        assert!(us >= 0.0);
        let (out, wall) = timed(|| 7);
        assert_eq!(out, 7);
        assert!(wall < Duration::from_secs(1));
    }
}
