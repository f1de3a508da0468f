//! A positioned tokenizer over the blanked token stream.
//!
//! [`crate::scan`] gives the lints a per-line *code channel* with
//! comments and literal contents blanked to spaces; that is enough for
//! the line-shaped lints (HW001–HW005). The semantic passes (HW006,
//! HW007, HW009) need tokens with positions, string literals resolved
//! back to their values, and lifetimes told apart from char literals.
//! This module supplies them, still with zero external dependencies.
//!
//! Like the scanner, the tokenizer is forgiving: any input yields some
//! token stream, never a panic. A property test in
//! `tests/tokenizer_properties.rs` drives arbitrary text through it to
//! hold that line.

use crate::scan::SourceFile;

/// What a token is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Numeric literal (integers/floats, suffixes kept).
    Num(String),
    /// String literal; the value is the raw literal text recovered
    /// from [`SourceFile::strings`].
    Str(String),
    /// Lifetime (`'a`, `'static`), without the quote.
    Lifetime(String),
    /// Any other single non-space character.
    Punct(char),
}

/// One positioned token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token itself.
    pub tok: Tok,
    /// 1-based source line.
    pub line: usize,
    /// 1-based byte column.
    pub col: usize,
}

impl Token {
    /// The identifier text, when this token is one.
    #[must_use]
    pub fn ident(&self) -> Option<&str> {
        match &self.tok {
            Tok::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// `true` for `Punct(c)`.
    #[must_use]
    pub fn is_punct(&self, c: char) -> bool {
        self.tok == Tok::Punct(c)
    }
}

/// Tokenizes the blanked code channel of `sf`, resolving string
/// literals back to their captured values.
///
/// String literals appear in the code channel as `"` + blanks + `"`;
/// they are emitted as single [`Tok::Str`] tokens whose value comes
/// from [`SourceFile::strings`] (paired in source order). Char
/// literals are dropped (nothing semantic reads them); lifetimes are
/// kept so signatures normalize faithfully.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn tokenize(sf: &SourceFile) -> Vec<Token> {
    let mut out = Vec::new();
    let mut strs = sf.strings.iter();
    // One explicit (line, column) cursor: multi-line constructs
    // (blanked string bodies) advance `li` mid-line, so the line's
    // bytes are re-fetched on every step.
    let mut li = 0;
    let mut ci = 0;
    // Advances the cursor past the next `delim` byte (the closing quote
    // of a blanked literal), crossing lines; returns false at EOF.
    let skip_past = |li: &mut usize, ci: &mut usize, delim: u8| -> bool {
        loop {
            if *li >= sf.lines.len() {
                return false;
            }
            let lb = sf.lines[*li].code.as_bytes();
            match lb
                .get(*ci..)
                .and_then(|s| s.iter().position(|&c| c == delim))
            {
                Some(rel) => {
                    *ci += rel + 1;
                    return true;
                }
                None => {
                    *li += 1;
                    *ci = 0;
                }
            }
        }
    };
    while li < sf.lines.len() {
        let code = &sf.lines[li].code;
        let bytes = code.as_bytes();
        if ci >= bytes.len() {
            li += 1;
            ci = 0;
            continue;
        }
        let b = bytes[ci];
        if b == b' ' || b == b'\t' || b == b'\r' {
            ci += 1;
            continue;
        }
        if b.is_ascii_alphabetic() || b == b'_' {
            let start = ci;
            while ci < bytes.len() && (bytes[ci].is_ascii_alphanumeric() || bytes[ci] == b'_') {
                ci += 1;
            }
            out.push(Token {
                tok: Tok::Ident(code[start..ci].to_owned()),
                line: li + 1,
                col: start + 1,
            });
            continue;
        }
        if b.is_ascii_digit() {
            let start = ci;
            while ci < bytes.len() && (bytes[ci].is_ascii_alphanumeric() || bytes[ci] == b'_') {
                ci += 1;
            }
            // A fractional part: `1.5` but not `0..n` or `1.method()`.
            if ci + 1 < bytes.len() && bytes[ci] == b'.' && bytes[ci + 1].is_ascii_digit() {
                ci += 1;
                while ci < bytes.len() && (bytes[ci].is_ascii_alphanumeric() || bytes[ci] == b'_') {
                    ci += 1;
                }
            }
            out.push(Token {
                tok: Tok::Num(code[start..ci].to_owned()),
                line: li + 1,
                col: start + 1,
            });
            continue;
        }
        if b == b'"' {
            // Pair with the next captured literal; skip the blanked
            // body to the closing quote (possibly on a later line).
            let value = strs.next().map(|s| s.value.clone()).unwrap_or_default();
            out.push(Token {
                tok: Tok::Str(value),
                line: li + 1,
                col: ci + 1,
            });
            ci += 1;
            if !skip_past(&mut li, &mut ci, b'"') {
                return out;
            }
            continue;
        }
        if b == b'\'' {
            let next = bytes.get(ci + 1).copied();
            if matches!(next, Some(c) if c.is_ascii_alphabetic() || c == b'_') {
                // Lifetime: quote + identifier, no closing quote.
                let start = ci + 1;
                let mut end = start;
                while end < bytes.len()
                    && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_')
                {
                    end += 1;
                }
                out.push(Token {
                    tok: Tok::Lifetime(code[start..end].to_owned()),
                    line: li + 1,
                    col: ci + 1,
                });
                ci = end;
                continue;
            }
            // Blanked char literal: `'` + blanks + `'`. Skip it.
            ci += 1;
            if !skip_past(&mut li, &mut ci, b'\'') {
                return out;
            }
            continue;
        }
        out.push(Token {
            tok: Tok::Punct(b as char),
            line: li + 1,
            col: ci + 1,
        });
        ci += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    #[test]
    fn tokenizer_resolves_strings_and_skips_chars() {
        let sf = scan("let a = \"solver.factor\"; let c = 'x'; let l: &'a str;\n");
        let toks = tokenize(&sf);
        assert!(toks
            .iter()
            .any(|t| t.tok == Tok::Str("solver.factor".to_owned())));
        assert!(toks.iter().any(|t| t.tok == Tok::Lifetime("a".to_owned())));
        // The char literal vanished.
        assert!(!toks.iter().any(|t| t.is_punct('\'')));
    }

    #[test]
    fn multi_line_strings_do_not_derail_the_cursor() {
        // Regression: the body of a literal spanning lines used to leave
        // the tokenizer reading a stale line's bytes (out-of-range panic)
        // — tokens after the closing quote must still come through, on
        // their own lines.
        let src = "let msg = \"first line\n  second line\n  third\"; let after = done;\n\
                   pub fn tail() {}\n";
        let toks = tokenize(&scan(src));
        let line_of = |name: &str| {
            toks.iter()
                .find(|t| t.ident() == Some(name))
                .map(|t| t.line)
        };
        assert_eq!(line_of("after"), Some(3));
        assert_eq!(line_of("tail"), Some(4));
    }

    #[test]
    fn garbage_never_panics_and_terminates() {
        for src in [
            "}}}}",
            "pub pub pub",
            "fn",
            "#[",
            "#[cfg(",
            "impl {",
            "mod m { fn",
            "\"unterminated",
            "pub fn f(",
            "'",
        ] {
            let _ = tokenize(&scan(src));
        }
    }
}
