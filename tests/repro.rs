//! Every printed paper number, checked. `paradigm_core::experiments::all()`
//! regenerates each table, figure and ablation block, and `EXPERIMENTS.md`
//! holds each one verbatim in a `text` fence between `<!-- repro:NAME -->`
//! and `<!-- /repro -->`. The names must match one to one, in order, and
//! every block byte for byte.
//!
//! On a mismatch the failure prints each fresh block with its markers.
//! Once a change is meant to move a block, paste the fresh one over the
//! old and update the prose around it that cites its numbers.

const OPEN: &str = "<!-- repro:";
const CLOSE: &str = "<!-- /repro -->";

/// The `(name, text)` blocks of `doc`, in document order.
fn documented(doc: &str) -> Vec<(&str, &str)> {
    let mut blocks = Vec::new();
    let mut rest = doc;
    while let Some(at) = rest.find(OPEN) {
        let (name, body) = rest[at + OPEN.len()..]
            .split_once(" -->\n```text\n")
            .expect("every repro marker opens a ```text fence on its next line");
        let (text, tail) = body
            .split_once(&format!("```\n{CLOSE}"))
            .unwrap_or_else(|| panic!("block `{name}` is not closed by ``` and {CLOSE}"));
        blocks.push((name, text));
        rest = tail;
    }
    blocks
}

#[test]
fn experiments_md_holds_every_block_verbatim() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md");
    let doc = std::fs::read_to_string(path).expect("EXPERIMENTS.md is readable");
    let documented = documented(&doc);
    let fresh = paradigm_core::experiments::all();

    let doc_names: Vec<&str> = documented.iter().map(|&(name, _)| name).collect();
    let fresh_names: Vec<&str> = fresh.iter().map(|&(name, _)| name).collect();
    let stale: Vec<String> = fresh
        .iter()
        .filter(|(name, text)| !documented.contains(&(*name, text.as_str())))
        .map(|(name, text)| format!("{OPEN}{name} -->\n```text\n{text}```\n{CLOSE}\n"))
        .collect();
    assert!(
        doc_names == fresh_names && stale.is_empty(),
        "EXPERIMENTS.md is out of date.\n  documented blocks: {doc_names:?}\n  \
         generated blocks:  {fresh_names:?}\n{} block(s) differ; the fresh text:\n\n{}",
        stale.len(),
        stale.join("\n")
    );
}
