//! A plain-text MDG interchange format, so graphs can be authored by
//! hand, checked into repositories, or produced by front-ends (the
//! PARADIGM compiler's own MDGs for the paper were "hand generated after
//! studying the programs" — this is the file format for doing that).
//!
//! ```text
//! mdg complex-matmul
//! # comments and blank lines are ignored
//! node 0 "init Ar" alpha=0.05 tau=0.002 class=init rows=64 cols=64
//! node 1 "M1 = Ar*Br" alpha=0.121 tau=0.29847 class=mul rows=64 cols=64
//! edge 0 1 xfer 32768 1d xfer 32768 2d
//! edge 0 1                      # pure precedence (no transfers)
//! ```
//!
//! Node ids are dense 0-based *compute node* indices (START/STOP are
//! implicit and re-created on load). `class` is optional; without it the
//! node is synthetic.
//!
//! A `#` starts a comment unless it sits inside double quotes, where it
//! is part of the name. Quoted strings have no escape syntax: a name
//! holding `"` or a line break cannot be written in this format.

use crate::graph::{Mdg, MdgBuilder, NodeId};
use crate::node::{AmdahlParams, ArrayTransfer, LoopClass, LoopMeta, NodeKind, TransferKind};
use std::borrow::Cow;
use std::fmt::Write as _;

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Line where parsing failed.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError { line, message: message.into() }
}

/// Serialize an MDG to the text format (compute nodes only; START/STOP
/// are implicit).
pub fn to_text(g: &Mdg) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "mdg {}", g.name());
    // Dense compute-node numbering.
    let mut file_id = vec![usize::MAX; g.node_count()];
    let mut next = 0usize;
    for (id, node) in g.nodes() {
        if node.kind == NodeKind::Compute {
            file_id[id.0] = next;
            next += 1;
            let mut line = format!(
                "node {} \"{}\" alpha={} tau={}",
                file_id[id.0], node.name, node.cost.alpha, node.cost.tau
            );
            let class_tag = match &node.meta.class {
                LoopClass::MatrixInit => Some("init"),
                LoopClass::MatrixAdd => Some("add"),
                LoopClass::MatrixMultiply => Some("mul"),
                // Custom classes serialize too when they carry real
                // dimensions (e.g. derived by a lint autofix) and the tag
                // survives tokenization — otherwise `--fix --write` would
                // silently drop the derived extents on the next load.
                LoopClass::Custom(s) => {
                    let clean = !s.is_empty()
                        && !s.contains(|c: char| c.is_whitespace() || c == '"' || c == '#');
                    if clean && node.meta.rows > 0 && node.meta.cols > 0 {
                        Some(s.as_str())
                    } else {
                        None
                    }
                }
            };
            if let Some(tag) = class_tag {
                let _ =
                    write!(line, " class={tag} rows={} cols={}", node.meta.rows, node.meta.cols);
            }
            let _ = writeln!(out, "{line}");
        }
    }
    for (_, e) in g.edges() {
        let (su, sv) = (file_id[e.src], file_id[e.dst]);
        if su == usize::MAX || sv == usize::MAX {
            continue; // START/STOP wiring is implicit
        }
        let mut line = format!("edge {su} {sv}");
        for t in &e.transfers {
            let k = match t.kind {
                TransferKind::OneD => "1d",
                TransferKind::TwoD => "2d",
            };
            let _ = write!(line, " xfer {} {k}", t.bytes);
        }
        let _ = writeln!(out, "{line}");
    }
    out
}

/// Parse the text format back into an MDG.
pub fn from_text(text: &str) -> Result<Mdg, ParseError> {
    let mut builder: Option<MdgBuilder> = None;
    let mut nodes: Vec<NodeId> = Vec::new();
    // One token vector for the whole file; tokens borrow from `text`.
    let mut tokens: Vec<Cow<'_, str>> = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let lineno = ln + 1;
        tokenize(line, lineno, &mut tokens)?;
        let Some((head, args)) = tokens.split_first() else {
            continue; // blank or comment-only line
        };
        match head.as_ref() {
            "mdg" => {
                if builder.is_some() {
                    return Err(err(lineno, "duplicate `mdg` header"));
                }
                let [name] = args else {
                    return Err(err(lineno, "usage: mdg <name>"));
                };
                builder = Some(MdgBuilder::new(name.to_string()));
            }
            "node" => {
                let b = builder.as_mut().ok_or(err(lineno, "`node` before `mdg` header"))?;
                if args.len() < 4 {
                    return Err(err(lineno, "usage: node <id> <name> alpha=A tau=T [class=..]"));
                }
                let id: usize = args[0]
                    .parse()
                    .map_err(|_| err(lineno, format!("bad node id `{}`", args[0])))?;
                if id != nodes.len() {
                    return Err(err(
                        lineno,
                        format!("node ids must be dense; expected {}, got {id}", nodes.len()),
                    ));
                }
                let mut alpha = None;
                let mut tau = None;
                let mut class: Option<LoopClass> = None;
                let mut rows = 0usize;
                let mut cols = 0usize;
                for t in &args[2..] {
                    let (k, v) = t
                        .split_once('=')
                        .ok_or(err(lineno, format!("expected key=value, got `{t}`")))?;
                    match k {
                        "alpha" => {
                            alpha = Some(v.parse::<f64>().map_err(|_| err(lineno, "bad alpha"))?)
                        }
                        "tau" => tau = Some(v.parse::<f64>().map_err(|_| err(lineno, "bad tau"))?),
                        "class" => {
                            class = Some(match v {
                                "init" => LoopClass::MatrixInit,
                                "add" => LoopClass::MatrixAdd,
                                "mul" => LoopClass::MatrixMultiply,
                                other => LoopClass::Custom(other.to_string()),
                            })
                        }
                        "rows" => rows = v.parse().map_err(|_| err(lineno, "bad rows"))?,
                        "cols" => cols = v.parse().map_err(|_| err(lineno, "bad cols"))?,
                        other => return Err(err(lineno, format!("unknown key `{other}`"))),
                    }
                }
                let alpha = alpha.ok_or(err(lineno, "missing alpha="))?;
                let tau = tau.ok_or(err(lineno, "missing tau="))?;
                if !(0.0..=1.0).contains(&alpha) {
                    return Err(err(lineno, format!("alpha {alpha} outside [0,1]")));
                }
                if !tau.is_finite() || tau < 0.0 {
                    return Err(err(lineno, format!("tau {tau} invalid")));
                }
                let meta = match class {
                    Some(c) => LoopMeta { class: c, rows, cols },
                    None => LoopMeta::synthetic(),
                };
                let node_name = args[1].to_string();
                nodes.push(b.compute_with_meta(node_name, AmdahlParams::new(alpha, tau), meta));
            }
            "edge" => {
                let b = builder.as_mut().ok_or(err(lineno, "`edge` before `mdg` header"))?;
                if args.len() < 2 {
                    return Err(err(lineno, "usage: edge <src> <dst> [xfer <bytes> 1d|2d]*"));
                }
                let src: usize = args[0].parse().map_err(|_| err(lineno, "bad edge source id"))?;
                let dst: usize =
                    args[1].parse().map_err(|_| err(lineno, "bad edge destination id"))?;
                let su = *nodes.get(src).ok_or(err(lineno, format!("unknown node {src}")))?;
                let sv = *nodes.get(dst).ok_or(err(lineno, format!("unknown node {dst}")))?;
                let mut transfers = Vec::new();
                let mut rest = &args[2..];
                while !rest.is_empty() {
                    if rest[0] != "xfer" || rest.len() < 3 {
                        return Err(err(lineno, "expected: xfer <bytes> 1d|2d"));
                    }
                    let bytes: u64 =
                        rest[1].parse().map_err(|_| err(lineno, "bad transfer size"))?;
                    let kind = match rest[2].as_ref() {
                        "1d" => TransferKind::OneD,
                        "2d" => TransferKind::TwoD,
                        other => return Err(err(lineno, format!("unknown kind `{other}`"))),
                    };
                    transfers.push(ArrayTransfer::new(bytes, kind));
                    rest = &rest[3..];
                }
                b.edge(su, sv, transfers);
            }
            other => return Err(err(lineno, format!("unknown directive `{other}`"))),
        }
    }
    let b = builder.ok_or(err(0, "missing `mdg` header"))?;
    b.finish().map_err(|e| err(0, format!("graph construction failed: {e}")))
}

/// Split one line into `out` (cleared first) on whitespace, honouring
/// double-quoted strings; an unquoted `#` starts a comment that runs to
/// the end of the line, a `#` inside quotes is part of the token. There
/// is no escape syntax, so a token can hold neither `"` nor a newline.
///
/// Tokens are slices of `line`. The one shape that is not a slice — a
/// quote opening right after bare characters, `class="my loop"` — is
/// joined into an owned `class=my loop`, as this format always read it.
fn tokenize<'a>(
    line: &'a str,
    lineno: usize,
    out: &mut Vec<Cow<'a, str>>,
) -> Result<(), ParseError> {
    out.clear();
    let mut rest = line;
    loop {
        rest = rest.trim_start();
        if rest.is_empty() || rest.starts_with('#') {
            return Ok(());
        }
        let bare_len =
            rest.find(|c: char| c.is_whitespace() || c == '"' || c == '#').unwrap_or(rest.len());
        let (bare, after) = rest.split_at(bare_len);
        let Some(quoted) = after.strip_prefix('"') else {
            out.push(Cow::Borrowed(bare));
            rest = after;
            continue;
        };
        let close = quoted.find('"').ok_or(err(lineno, "unterminated string"))?;
        let body = &quoted[..close];
        out.push(if bare.is_empty() {
            Cow::Borrowed(body)
        } else {
            Cow::Owned([bare, body].concat())
        });
        rest = &quoted[close + 1..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{complex_matmul_mdg, strassen_mdg, KernelCostTable};
    use crate::random::{random_layered_mdg, RandomMdgConfig};
    use crate::validate::assert_invariants;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn roundtrip(g: &Mdg) -> Mdg {
        let text = to_text(g);
        from_text(&text).unwrap_or_else(|e| panic!("reparse of {}: {e}\n{text}", g.name()))
    }

    fn assert_same(a: &Mdg, b: &Mdg) {
        assert_eq!(a.name(), b.name());
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        for (id, na) in a.nodes() {
            let nb = b.node(id);
            assert_eq!(na.name, nb.name);
            assert_eq!(na.kind, nb.kind);
            assert!((na.cost.alpha - nb.cost.alpha).abs() < 1e-15);
            assert!((na.cost.tau - nb.cost.tau).abs() < 1e-15);
        }
        let mut ea: Vec<_> = a.edges().map(|(_, e)| (e.src, e.dst, e.transfers.clone())).collect();
        let mut eb: Vec<_> = b.edges().map(|(_, e)| (e.src, e.dst, e.transfers.clone())).collect();
        let key = |t: &(usize, usize, Vec<ArrayTransfer>)| (t.0, t.1);
        ea.sort_by_key(key);
        eb.sort_by_key(key);
        for (x, y) in ea.iter().zip(&eb) {
            assert_eq!((x.0, x.1), (y.0, y.1));
            assert_eq!(x.2.len(), y.2.len());
        }
    }

    #[test]
    fn paper_graphs_roundtrip() {
        let t = KernelCostTable::cm5();
        for g in [complex_matmul_mdg(64, &t), strassen_mdg(128, &t)] {
            let back = roundtrip(&g);
            assert_invariants(&back);
            assert_same(&g, &back);
            // Kernel metadata survives.
            for (id, n) in g.nodes() {
                assert_eq!(n.meta.class, back.node(id).meta.class);
                assert_eq!(n.meta.rows, back.node(id).meta.rows);
            }
        }
    }

    #[test]
    fn random_graphs_roundtrip() {
        for seed in 0..8 {
            let g = random_layered_mdg(&RandomMdgConfig::default(), seed);
            let back = roundtrip(&g);
            assert_same(&g, &back);
        }
    }

    #[test]
    fn hand_written_file_parses() {
        let text = r#"
mdg demo
# two nodes and a transfer
node 0 "producer" alpha=0.05 tau=1.5 class=mul rows=64 cols=64
node 1 "consumer loop" alpha=0.1 tau=0.5
edge 0 1 xfer 32768 1d xfer 4096 2d
"#;
        let g = from_text(text).unwrap();
        assert_eq!(g.name(), "demo");
        assert_eq!(g.compute_node_count(), 2);
        let e = g.edges().find(|(_, e)| !e.transfers.is_empty()).unwrap().1;
        assert_eq!(e.transfers.len(), 2);
        assert_eq!(e.transfers[0].bytes, 32768);
        assert_eq!(e.transfers[1].kind, TransferKind::TwoD);
        let names: Vec<_> = g.nodes().map(|(_, n)| n.name.clone()).collect();
        assert!(names.contains(&"consumer loop".to_string()));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "mdg x\nnode 0 \"a\" alpha=2.0 tau=1.0\n";
        let e = from_text(bad).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("alpha"));

        let bad2 = "mdg x\nnode 1 \"a\" alpha=0.1 tau=1.0\n";
        let e2 = from_text(bad2).unwrap_err();
        assert!(e2.message.contains("dense"));

        let bad3 = "node 0 \"a\" alpha=0.1 tau=1.0\n";
        assert!(from_text(bad3).unwrap_err().message.contains("before `mdg`"));

        let bad4 = "mdg x\nnode 0 \"a\" alpha=0.1 tau=1.0\nedge 0 5\n";
        assert!(from_text(bad4).unwrap_err().message.contains("unknown node"));
    }

    #[test]
    fn cycle_in_file_rejected() {
        let text =
            "mdg c\nnode 0 \"a\" alpha=0 tau=1\nnode 1 \"b\" alpha=0 tau=1\nedge 0 1\nedge 1 0\n";
        let e = from_text(text).unwrap_err();
        assert!(e.message.contains("cycle"), "{e}");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# header comment\nmdg t\n\nnode 0 \"x\" alpha=0 tau=1 # trailing\n";
        let g = from_text(text).unwrap();
        assert_eq!(g.compute_node_count(), 1);
    }

    #[test]
    fn unterminated_string_rejected() {
        let text = "mdg t\nnode 0 \"oops alpha=0 tau=1\n";
        assert!(from_text(text).is_err());
    }

    #[test]
    fn hostile_node_names_roundtrip() {
        // Everything a quoted token can hold: `"` and line breaks are the
        // two things the format cannot represent (module docs).
        let alphabet = ['#', '=', '\t', ' ', '\\', 'a', 'Φ', '→', '𝛼', '\u{a0}', '\'', '0'];
        let mut names = vec![
            "phase #2".to_string(),
            "#".into(),
            "a=b".into(),
            " lead and trail ".into(),
            String::new(),
        ];
        let mut rng = StdRng::seed_from_u64(1994);
        for len in 1..=24 {
            names.push((0..len).map(|_| alphabet[rng.random_range(0..alphabet.len())]).collect());
        }
        let mut b = MdgBuilder::new("hostile");
        let ids: Vec<NodeId> =
            names.iter().map(|n| b.compute(n.clone(), AmdahlParams::new(0.1, 1.0))).collect();
        for w in ids.windows(2) {
            b.edge(w[0], w[1], vec![ArrayTransfer::new(64, TransferKind::OneD)]);
        }
        let g = b.finish().unwrap();
        let back = roundtrip(&g);
        assert_same(&g, &back);
        // A comment after the closing quote is still a comment.
        let g = from_text("mdg t\nnode 0 \"a # b\" alpha=0 tau=1 # trailing \" quote\n").unwrap();
        assert!(g.nodes().any(|(_, n)| n.name == "a # b"));
    }

    /// The tokenizer this module had before tokens borrowed from the
    /// line, kept as the oracle for `tokenizer_matches_the_owned_reference`.
    /// `from_text` cut the line at the first `#` before calling it.
    fn tokenize_owned(raw: &str, lineno: usize) -> Result<Vec<String>, ParseError> {
        let line = raw.split('#').next().unwrap_or("").trim();
        let mut out = Vec::new();
        let mut cur = String::new();
        let mut in_quote = false;
        for c in line.chars() {
            match (c, in_quote) {
                ('"', false) => in_quote = true,
                ('"', true) => {
                    in_quote = false;
                    out.push(std::mem::take(&mut cur));
                }
                (c, false) if c.is_whitespace() => {
                    if !cur.is_empty() {
                        out.push(std::mem::take(&mut cur));
                    }
                }
                (c, _) => cur.push(c),
            }
        }
        if in_quote {
            return Err(err(lineno, "unterminated string"));
        }
        if !cur.is_empty() {
            out.push(cur);
        }
        Ok(out)
    }

    #[test]
    fn tokenizer_matches_the_owned_reference() {
        let t = KernelCostTable::cm5();
        let gallery = [
            crate::builders::example_fig1_mdg(),
            complex_matmul_mdg(64, &t),
            strassen_mdg(128, &t),
            crate::gallery::fft_2d_mdg(64, 4, &t),
            crate::gallery::block_lu_mdg(4, 32, &t),
            crate::gallery::stencil_mdg(64, 2, 3, &t),
            random_layered_mdg(&RandomMdgConfig::default(), 3),
        ];
        let mut corpus: Vec<String> = gallery.iter().map(to_text).collect();
        // Truncation at every byte of the two paper graphs.
        for text in [corpus[0].clone(), corpus[1].clone()] {
            corpus.extend(
                (0..text.len())
                    .filter(|&i| text.is_char_boundary(i))
                    .map(|i| text[..i].to_string()),
            );
        }
        corpus.push(corpus[0].replace('\n', "\r\n"));
        corpus.push(
            [
                "mdg m # header",
                "a\"b c\"d",
                "\"a\"\"b\"c \"\" x\"\"",
                "node 0 \"n\" alpha= tau=",
                "node 0 n alpha=\"0.5\" tau=1 class=\"my loop\" rows=1 cols=1",
                "key= =value = \"=\"",
                "edge 0 1 xfer 8 1d#glued comment",
                "#",
                "   # only a comment",
                "trailing #",
                "tab\tseparated\u{a0}nbsp\u{3000}wide",
                "stray\" quote",
                "\"",
                "Φ\"λ μ\"ν",
            ]
            .join("\n"),
        );
        let mut tokens = Vec::new();
        let mut lines = 0;
        for text in &corpus {
            for (ln, line) in text.lines().enumerate() {
                // A `#` inside quotes is the one intended difference
                // (`hostile_node_names_roundtrip`); none of these has one.
                let new = tokenize(line, ln + 1, &mut tokens)
                    .map(|()| tokens.iter().map(|t| t.to_string()).collect::<Vec<_>>());
                assert_eq!(new, tokenize_owned(line, ln + 1), "line {line:?}");
                lines += 1;
            }
            let _ = from_text(text); // any answer but a panic
        }
        assert!(lines > 10_000, "corpus shrank to {lines} lines");
        // The joined token is the only owned one.
        tokenize("class=\"my loop\" plain \"quoted\"", 1, &mut tokens).unwrap();
        assert_eq!(tokens, ["class=my loop", "plain", "quoted"]);
        assert!(matches!(tokens[..], [Cow::Owned(_), Cow::Borrowed(_), Cow::Borrowed(_)]));
    }
}
