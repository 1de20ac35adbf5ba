//! A minimal unified-diff renderer for `analyze --fix`.
//!
//! The fix pipeline rebuilds a repaired graph and shows the operator
//! what `--fix --write` would change by diffing the `.mdg` text
//! renderings of the original and repaired graphs. Graphs are small
//! (tens of lines), so a quadratic LCS table is the simplest correct
//! choice; hunks carry the standard three lines of context.

/// One edit-script step over lines of the two inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Line present in both (index into `a`).
    Keep(usize),
    /// Line removed from `a` (index into `a`).
    Del(usize),
    /// Line added from `b` (index into `b`).
    Add(usize),
}

fn edit_script(a: &[&str], b: &[&str]) -> Vec<Op> {
    // lcs[i][j] = LCS length of a[i..] and b[j..].
    let (n, m) = (a.len(), b.len());
    let mut lcs = vec![vec![0usize; m + 1]; n + 1];
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            lcs[i][j] =
                if a[i] == b[j] { lcs[i + 1][j + 1] + 1 } else { lcs[i + 1][j].max(lcs[i][j + 1]) };
        }
    }
    let mut ops = Vec::with_capacity(n.max(m));
    let (mut i, mut j) = (0, 0);
    while i < n && j < m {
        if a[i] == b[j] {
            ops.push(Op::Keep(i));
            i += 1;
            j += 1;
        } else if lcs[i + 1][j] >= lcs[i][j + 1] {
            ops.push(Op::Del(i));
            i += 1;
        } else {
            ops.push(Op::Add(j));
            j += 1;
        }
    }
    ops.extend((i..n).map(Op::Del));
    ops.extend((j..m).map(Op::Add));
    ops
}

/// Render a unified diff (`---`/`+++` headers, `@@` hunks, 3 context
/// lines) between two texts. Returns the empty string when the texts
/// are identical.
pub fn unified_diff(a_label: &str, a: &str, b_label: &str, b: &str) -> String {
    if a == b {
        return String::new();
    }
    let a_lines: Vec<&str> = a.lines().collect();
    let b_lines: Vec<&str> = b.lines().collect();
    let ops = edit_script(&a_lines, &b_lines);

    const CTX: usize = 3;
    // Group ops into hunks: runs of changes padded by CTX keeps.
    let change_idx: Vec<usize> = ops
        .iter()
        .enumerate()
        .filter(|(_, op)| !matches!(op, Op::Keep(_)))
        .map(|(k, _)| k)
        .collect();

    let mut out = format!("--- {a_label}\n+++ {b_label}\n");
    let mut hunk_start = 0usize;
    while hunk_start < change_idx.len() {
        // Extend the hunk while consecutive changes are within 2*CTX.
        let mut hunk_end = hunk_start;
        while hunk_end + 1 < change_idx.len()
            && change_idx[hunk_end + 1] - change_idx[hunk_end] <= 2 * CTX
        {
            hunk_end += 1;
        }
        let lo = change_idx[hunk_start].saturating_sub(CTX);
        let hi = (change_idx[hunk_end] + CTX + 1).min(ops.len());

        // Hunk header positions are 1-based: one past the number of
        // lines each side consumed before the hunk.
        let a_start =
            1 + ops[..lo].iter().filter(|op| matches!(op, Op::Keep(_) | Op::Del(_))).count();
        let b_start =
            1 + ops[..lo].iter().filter(|op| matches!(op, Op::Keep(_) | Op::Add(_))).count();
        let a_count =
            ops[lo..hi].iter().filter(|op| matches!(op, Op::Keep(_) | Op::Del(_))).count();
        let b_count =
            ops[lo..hi].iter().filter(|op| matches!(op, Op::Keep(_) | Op::Add(_))).count();

        out.push_str(&format!("@@ -{a_start},{a_count} +{b_start},{b_count} @@\n"));
        for op in &ops[lo..hi] {
            match op {
                Op::Keep(i) => {
                    out.push(' ');
                    out.push_str(a_lines[*i]);
                }
                Op::Del(i) => {
                    out.push('-');
                    out.push_str(a_lines[*i]);
                }
                Op::Add(j) => {
                    out.push('+');
                    out.push_str(b_lines[*j]);
                }
            }
            out.push('\n');
        }
        hunk_start = hunk_end + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_texts_diff_to_nothing() {
        assert_eq!(unified_diff("a", "x\ny\n", "b", "x\ny\n"), "");
    }

    #[test]
    fn single_line_change_renders_one_hunk() {
        let a = "one\ntwo\nthree\nfour\nfive\nsix\nseven\n";
        let b = "one\ntwo\nthree\nFOUR\nfive\nsix\nseven\n";
        let d = unified_diff("old", a, "new", b);
        assert!(d.starts_with("--- old\n+++ new\n"), "{d}");
        assert!(d.contains("-four\n"), "{d}");
        assert!(d.contains("+FOUR\n"), "{d}");
        assert!(d.contains("@@ -1,7 +1,7 @@"), "{d}");
        assert_eq!(d.matches("@@").count(), 2, "one hunk: {d}");
    }

    #[test]
    fn distant_changes_split_into_hunks() {
        let mid = (0..20).map(|i| format!("line{i}\n")).collect::<String>();
        let a = format!("alpha\n{mid}omega\n");
        let b = format!("ALPHA\n{mid}OMEGA\n");
        let d = unified_diff("old", &a, "new", &b);
        assert_eq!(d.matches("@@").count(), 4, "two hunks: {d}");
        assert!(d.contains("-alpha\n+ALPHA\n"), "{d}");
        assert!(d.contains("-omega\n+OMEGA\n"), "{d}");
    }

    #[test]
    fn pure_insertion_and_deletion() {
        let d = unified_diff("old", "a\nb\n", "new", "a\nx\nb\n");
        assert!(d.contains("+x\n"), "{d}");
        let d2 = unified_diff("old", "a\nx\nb\n", "new", "a\nb\n");
        assert!(d2.contains("-x\n"), "{d2}");
    }

    #[test]
    fn mdg_text_round_trip_diff_is_plausible() {
        use paradigm_mdg::{to_text, AmdahlParams, ArrayTransfer, MdgBuilder, TransferKind};
        // The `DropEmptyTransfers` repair: one edge loses its zero-byte array.
        let graph = |bytes: &[u64]| {
            let mut b = MdgBuilder::new("g");
            let u = b.compute("u", AmdahlParams::new(0.5, 1.0));
            let v = b.compute("v", AmdahlParams::new(0.5, 1.0));
            b.edge(
                u,
                v,
                bytes.iter().map(|&n| ArrayTransfer::new(n, TransferKind::OneD)).collect(),
            );
            to_text(&b.finish().unwrap())
        };
        let d = unified_diff("g.mdg", &graph(&[0, 64]), "g.mdg (fixed)", &graph(&[64]));
        assert!(d.contains("-edge 0 1 xfer 0 1d xfer 64 1d\n+edge 0 1 xfer 64 1d\n"), "{d}");
    }
}
