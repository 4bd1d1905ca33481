//! `// pdb-lint: allow(<LINT>, reason = "…")` suppression comments.
//!
//! A suppression silences findings of the named lint on the comment's own
//! line or on the line directly below it (so it can sit at the end of the
//! offending line or on its own line just above). The reason is mandatory:
//! a suppression without one is itself reported (lint `S0`), because an
//! unexplained waiver is how audited invariants rot.

use crate::lexer::Lexed;

/// One parsed suppression comment.
#[derive(Clone, Debug, PartialEq)]
pub struct Suppression {
    /// The lint code being allowed (`U1`, `P1`, `A1`, `B1`, `F1`).
    pub code: String,
    /// The mandatory free-text justification.
    pub reason: String,
    /// The line the comment *ends* on; it covers this line and the next.
    pub line: u32,
}

/// A malformed suppression (reported as an `S0` finding by the driver).
#[derive(Clone, Debug, PartialEq)]
pub struct BadSuppression {
    /// The line the comment ends on.
    pub line: u32,
    /// What is wrong with it.
    pub problem: String,
}

/// Extracts every suppression (and malformed attempt) from a file's
/// comments.
pub fn collect(lexed: &Lexed) -> (Vec<Suppression>, Vec<BadSuppression>) {
    let mut good = Vec::new();
    let mut bad = Vec::new();
    for c in &lexed.comments {
        // Doc comments describe code (including, recursively, this very
        // syntax); only plain comments carry live suppressions.
        if c.text.starts_with("///")
            || c.text.starts_with("//!")
            || c.text.starts_with("/**")
            || c.text.starts_with("/*!")
        {
            continue;
        }
        let Some(pos) = c.text.find("pdb-lint:") else {
            continue;
        };
        let rest = c.text[pos + "pdb-lint:".len()..].trim_start();
        match parse_allow(rest) {
            Ok((code, reason)) => good.push(Suppression {
                code,
                reason,
                line: c.end_line,
            }),
            Err(problem) => bad.push(BadSuppression {
                line: c.end_line,
                problem,
            }),
        }
    }
    (good, bad)
}

/// Parses `allow(<CODE>, reason = "…")`.
fn parse_allow(rest: &str) -> Result<(String, String), String> {
    let Some(args) = rest.strip_prefix("allow(") else {
        return Err(format!(
            "expected `allow(<lint>, reason = \"…\")` after `pdb-lint:`, got {rest:?}"
        ));
    };
    let code: String = args
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric())
        .collect();
    if code.is_empty() {
        return Err("missing lint code in `allow(...)`".into());
    }
    let after_code = &args[code.len()..];
    let after_code = after_code.trim_start();
    let Some(after_comma) = after_code.strip_prefix(',') else {
        return Err(format!(
            "suppression of {code} is missing the mandatory `, reason = \"…\"`"
        ));
    };
    let after_comma = after_comma.trim_start();
    let Some(after_kw) = after_comma.strip_prefix("reason") else {
        return Err(format!(
            "suppression of {code} is missing the mandatory `reason = \"…\"`"
        ));
    };
    let after_kw = after_kw.trim_start();
    let Some(after_eq) = after_kw.strip_prefix('=') else {
        return Err(format!(
            "suppression of {code}: expected `=` after `reason`"
        ));
    };
    let after_eq = after_eq.trim_start();
    let Some(quoted) = after_eq.strip_prefix('"') else {
        return Err(format!(
            "suppression of {code}: reason must be a double-quoted string"
        ));
    };
    let Some(endq) = quoted.find('"') else {
        return Err(format!("suppression of {code}: unterminated reason string"));
    };
    let reason = &quoted[..endq];
    if reason.trim().is_empty() {
        return Err(format!("suppression of {code}: reason must not be empty"));
    }
    let tail = quoted[endq + 1..].trim_start();
    if !tail.starts_with(')') {
        return Err(format!("suppression of {code}: expected `)` after reason"));
    }
    Ok((code, reason.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn parses_well_formed_suppressions() {
        let lx = lex("// pdb-lint: allow(F1, reason = \"sorted three lines below\")\nlet x = 1;");
        let (good, bad) = collect(&lx);
        assert!(bad.is_empty());
        assert_eq!(
            good,
            vec![Suppression {
                code: "F1".into(),
                reason: "sorted three lines below".into(),
                line: 1
            }]
        );
    }

    #[test]
    fn reason_is_mandatory() {
        for text in [
            "// pdb-lint: allow(P1)",
            "// pdb-lint: allow(P1, reason = \"\")",
            "// pdb-lint: allow(P1, reason = )",
            "// pdb-lint: deny(P1)",
            "// pdb-lint: allow(, reason = \"x\")",
        ] {
            let (good, bad) = collect(&lex(text));
            assert!(good.is_empty(), "{text}");
            assert_eq!(bad.len(), 1, "{text}");
        }
    }

    #[test]
    fn ordinary_comments_are_ignored() {
        let (good, bad) = collect(&lex("// a note mentioning lints in passing\nlet x = 1;"));
        assert!(good.is_empty() && bad.is_empty());
    }
}
