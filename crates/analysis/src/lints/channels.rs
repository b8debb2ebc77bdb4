//! `channels`: no unbounded channels in server-facing code.
//!
//! An unbounded queue turns a slow or hostile peer into unbounded
//! memory growth — overload must surface as explicit backpressure
//! (a sender that blocks, a severed connection), never as silent
//! buffering. The TCP request path has no channel at all: a connection
//! has one request in service and TCP's own flow control holds back the
//! rest. Where server-facing code does construct a channel, it uses
//! `crossbeam::channel::bounded(cap)` and decides what happens on
//! `Full`; `unbounded()` and `std::sync::mpsc::channel()` (unbounded
//! by construction) are denied.

use crate::lexer::SourceFile;
use crate::report::Finding;

/// Stable lint name, as taken by `// esr-lint: allow(...)`.
pub const NAME: &str = "channels";

/// Flag `unbounded(...)` calls and `mpsc::channel(...)` outside test
/// code.
pub fn check(file: &SourceFile, findings: &mut Vec<Finding>) {
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        let hit = if t.is_ident("unbounded") {
            // A call, not a definition (`fn unbounded(`) or import
            // (`use …::unbounded;`).
            toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                && !toks
                    .get(i.wrapping_sub(1))
                    .is_some_and(|p| p.is_ident("fn"))
                && i > 0
        } else if t.is_ident("mpsc") {
            toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
                && toks.get(i + 3).is_some_and(|n| n.is_ident("channel"))
                && toks.get(i + 4).is_some_and(|n| n.is_punct('('))
        } else {
            false
        };
        if !hit {
            continue;
        }
        if file.is_test_line(t.line) || file.is_allowed(t.line, NAME) {
            continue;
        }
        findings.push(Finding {
            file: file.path.clone(),
            line: t.line,
            col: t.col,
            lint: NAME,
            message: "unbounded channel in server-facing code; use \
                      crossbeam::channel::bounded(cap) and handle Full \
                      explicitly (reject busy, sever the connection, …)"
                .into(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn run(src: &str) -> Vec<Finding> {
        let f = SourceFile::parse(PathBuf::from("x.rs"), src);
        let mut v = Vec::new();
        check(&f, &mut v);
        v
    }

    #[test]
    fn flags_unbounded_and_mpsc() {
        let v = run("let (tx, rx) = unbounded();\nlet (a, b) = std::sync::mpsc::channel();");
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].line, 1);
        assert_eq!(v[1].line, 2);
    }

    #[test]
    fn bounded_imports_and_definitions_pass() {
        let v = run("use crossbeam::channel::unbounded;\n\
             fn unbounded() {}\n\
             let (tx, rx) = bounded(64);");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn allow_and_test_code_pass() {
        let v = run("let q = unbounded(); // esr-lint: allow(channels)\n\
             #[cfg(test)]\nmod tests { fn t() { let q = unbounded(); } }");
        assert!(v.is_empty(), "{v:?}");
    }
}
