//! Depth-limited, iterative s-expression parser.
//!
//! EDIF 2.0.0 is one big s-expression; this module turns source text
//! into a [`Sexpr`] tree whose leaves are interned [`Atom`]s. Two
//! hardening properties hold against arbitrary input:
//!
//! * **No panics** — every malformed input maps to a structured
//!   [`ConvertError`] with a 1-based source position.
//! * **No unbounded recursion** — the parser keeps an explicit stack
//!   and enforces [`Limits::max_depth`], so `((((((…` returns
//!   [`ConvertError::TooDeep`] instead of blowing the call stack (and
//!   the bounded tree depth keeps the drop glue shallow too).

use crate::atom::{Atom, Interner};
use crate::error::ConvertError;

/// One node of the parse tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Sexpr {
    /// A bare token (identifier, keyword, or number), interned.
    Atom(Atom),
    /// A quoted `"string"`, interned without its quotes.
    Str(Atom),
    /// A parenthesized list of child expressions.
    List(Vec<Sexpr>),
}

impl Sexpr {
    /// The children when this node is a list.
    pub fn as_list(&self) -> Option<&[Sexpr]> {
        match self {
            Sexpr::List(items) => Some(items),
            _ => None,
        }
    }

    /// The interned atom when this node is a bare token.
    pub fn as_atom(&self) -> Option<Atom> {
        match self {
            Sexpr::Atom(a) => Some(*a),
            _ => None,
        }
    }
}

/// Parser hardening limits.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum list nesting depth; deeper input is rejected with
    /// [`ConvertError::TooDeep`]. EDIF uses ~10 levels; the default of
    /// 64 leaves generous headroom.
    pub max_depth: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits { max_depth: 64 }
    }
}

/// Parses all top-level forms of `src` with default [`Limits`].
///
/// # Errors
/// Returns a structured [`ConvertError`] on any malformed input.
pub fn parse(src: &str, interner: &mut Interner) -> Result<Vec<Sexpr>, ConvertError> {
    parse_with_limits(src, interner, Limits::default())
}

/// [`parse`] with explicit limits (the hostile-input tests shrink the
/// depth bound to exercise [`ConvertError::TooDeep`] cheaply).
///
/// # Errors
/// Returns a structured [`ConvertError`] on any malformed input.
pub fn parse_with_limits(
    src: &str,
    interner: &mut Interner,
    limits: Limits,
) -> Result<Vec<Sexpr>, ConvertError> {
    // Every token and string literal starts and ends next to an ASCII
    // delimiter (or at an end of `src`), and a UTF-8 continuation byte is
    // never ASCII, so slicing `src` at those bounds cannot split a char.
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let mut line = 1usize;
    let mut col = 1usize;
    // Explicit stack of open lists: `items` holds the finished children
    // of every open list (and the finished top-level forms), innermost
    // last; `opens` holds where each open list's children start. A list
    // moves its children out in one exact-size allocation when it closes.
    let mut items: Vec<Sexpr> = Vec::new();
    let mut opens: Vec<usize> = Vec::new();

    while pos < bytes.len() {
        let b = bytes[pos];
        match b {
            b' ' | b'\t' | b'\r' => {
                pos += 1;
                col += 1;
            }
            b'\n' => {
                pos += 1;
                line += 1;
                col = 1;
            }
            b'(' => {
                if opens.len() >= limits.max_depth {
                    return Err(ConvertError::TooDeep {
                        limit: limits.max_depth,
                        line,
                    });
                }
                opens.push(items.len());
                pos += 1;
                col += 1;
            }
            b')' => {
                let Some(start) = opens.pop() else {
                    return Err(ConvertError::UnexpectedClose { line, col });
                };
                let list = items.drain(start..).collect();
                items.push(Sexpr::List(list));
                pos += 1;
                col += 1;
            }
            b'"' => {
                let start = pos + 1;
                let mut end = start;
                while end < bytes.len() && bytes[end] != b'"' && bytes[end] != b'\n' {
                    end += 1;
                }
                if end >= bytes.len() || bytes[end] == b'\n' {
                    return Err(ConvertError::Syntax {
                        line,
                        col,
                        message: "unterminated string literal".into(),
                    });
                }
                items.push(Sexpr::Str(interner.intern(&src[start..end])));
                col += end + 1 - pos;
                pos = end + 1;
            }
            _ => {
                let start = pos;
                let mut end = pos;
                while end < bytes.len() && !is_delimiter(bytes[end]) {
                    end += 1;
                }
                items.push(Sexpr::Atom(interner.intern(&src[start..end])));
                col += end - pos;
                pos = end;
            }
        }
    }

    if !opens.is_empty() {
        return Err(ConvertError::Truncated {
            open: opens.len(),
            line,
        });
    }
    Ok(items)
}

fn is_delimiter(b: u8) -> bool {
    matches!(b, b'(' | b')' | b'"' | b' ' | b'\t' | b'\r' | b'\n')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> (Vec<Sexpr>, Interner) {
        let mut t = Interner::new();
        let forms = parse(src, &mut t).unwrap();
        (forms, t)
    }

    #[test]
    fn parses_nested_forms_and_strings() {
        let (forms, t) = parse_ok("(edif top (status (written (program \"retime\"))))");
        assert_eq!(forms.len(), 1);
        let top = forms[0].as_list().unwrap();
        assert_eq!(t.resolve(top[0].as_atom().unwrap()), "edif");
        assert_eq!(t.resolve(top[1].as_atom().unwrap()), "top");
        let status = top[2].as_list().unwrap();
        let written = status[1].as_list().unwrap();
        let program = written[1].as_list().unwrap();
        assert!(matches!(program[1], Sexpr::Str(_)));
    }

    #[test]
    fn interning_dedups_repeated_tokens() {
        let (_, t) = parse_ok("(a (a a) a (b a))");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn truncated_input_is_structured() {
        let mut t = Interner::new();
        assert_eq!(
            parse("(a (b (c", &mut t),
            Err(ConvertError::Truncated { open: 3, line: 1 })
        );
    }

    #[test]
    fn stray_close_is_structured() {
        let mut t = Interner::new();
        assert_eq!(
            parse("(a)\n )", &mut t),
            Err(ConvertError::UnexpectedClose { line: 2, col: 2 })
        );
    }

    #[test]
    fn deep_nesting_hits_the_limit_not_the_stack() {
        let mut t = Interner::new();
        let hostile = "(".repeat(200_000);
        let err = parse(&hostile, &mut t).unwrap_err();
        assert!(matches!(err, ConvertError::TooDeep { limit: 64, .. }));
    }

    #[test]
    fn depth_limit_is_configurable() {
        let mut t = Interner::new();
        let src = "(((x)))";
        assert!(parse_with_limits(src, &mut t, Limits { max_depth: 3 }).is_ok());
        assert!(matches!(
            parse_with_limits(src, &mut t, Limits { max_depth: 2 }),
            Err(ConvertError::TooDeep { limit: 2, .. })
        ));
    }

    #[test]
    fn unterminated_string_is_structured() {
        let mut t = Interner::new();
        let err = parse("(name \"oops", &mut t).unwrap_err();
        assert!(matches!(err, ConvertError::Syntax { .. }));
        let err = parse("(name \"oops\n\")", &mut t).unwrap_err();
        assert!(matches!(err, ConvertError::Syntax { line: 1, .. }));
    }

    #[test]
    fn empty_input_is_no_forms() {
        let (forms, _) = parse_ok("  \n\t ");
        assert!(forms.is_empty());
    }
}
