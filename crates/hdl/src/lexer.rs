//! Hand-written lexer for the HDL.

use crate::error::{HdlError, HdlErrorKind};

/// The kind (and payload) of a lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (keywords are distinguished by the parser).
    Ident(String),
    /// Integer literal: decimal, `0x...` hex or `0b...` binary.
    Int(u64),
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Colon,
    Semi,
    Comma,
    Dot,
    FatArrow,
    EqEq,
    NotEq,
    LessEq,
    GreaterEq,
    Less,
    Greater,
    Shl,
    Shr,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,
    Pipe,
    Caret,
    Tilde,
    Bang,
    Assign,
    /// End of input (always the final token).
    Eof,
}

impl TokenKind {
    /// A short printable description used in error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::Int(v) => format!("integer `{v}`"),
            TokenKind::Eof => "end of input".to_owned(),
            other => format!("`{}`", other.symbol()),
        }
    }

    fn symbol(&self) -> &'static str {
        match self {
            TokenKind::LBrace => "{",
            TokenKind::RBrace => "}",
            TokenKind::LParen => "(",
            TokenKind::RParen => ")",
            TokenKind::LBracket => "[",
            TokenKind::RBracket => "]",
            TokenKind::Colon => ":",
            TokenKind::Semi => ";",
            TokenKind::Comma => ",",
            TokenKind::Dot => ".",
            TokenKind::FatArrow => "=>",
            TokenKind::EqEq => "==",
            TokenKind::NotEq => "!=",
            TokenKind::LessEq => "<=",
            TokenKind::GreaterEq => ">=",
            TokenKind::Less => "<",
            TokenKind::Greater => ">",
            TokenKind::Shl => "<<",
            TokenKind::Shr => ">>",
            TokenKind::Plus => "+",
            TokenKind::Minus => "-",
            TokenKind::Star => "*",
            TokenKind::Slash => "/",
            TokenKind::Percent => "%",
            TokenKind::Amp => "&",
            TokenKind::Pipe => "|",
            TokenKind::Caret => "^",
            TokenKind::Tilde => "~",
            TokenKind::Bang => "!",
            TokenKind::Assign => "=",
            TokenKind::Ident(_) | TokenKind::Int(_) | TokenKind::Eof => unreachable!(),
        }
    }
}

/// A token with its 1-based source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub line: u32,
    pub col: u32,
}

/// Converts HDL source text into a token stream.
///
/// Comments run from `--` or `//` to end of line.
#[derive(Debug)]
pub struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `source`.
    pub fn new(source: &'a str) -> Self {
        Lexer {
            src: source,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    /// Lexes the entire input, ending with a single [`TokenKind::Eof`].
    ///
    /// # Errors
    ///
    /// Returns a [`HdlError`] on any character that cannot start a token or
    /// on malformed integer literals.
    pub fn tokenize(mut self) -> Result<Vec<Token>, HdlError> {
        let mut out = Vec::new();
        loop {
            self.skip_trivia();
            let (line, col) = (self.line, self.col);
            let Some(c) = self.peek() else {
                out.push(Token {
                    kind: TokenKind::Eof,
                    line,
                    col,
                });
                return Ok(out);
            };
            let kind = if c.is_ascii_alphabetic() || c == b'_' {
                self.lex_ident()
            } else if c.is_ascii_digit() {
                self.lex_number(line, col)?
            } else {
                self.lex_punct(line, col)?
            };
            out.push(Token { kind, line, col });
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'-') if self.peek2() == Some(b'-') => self.skip_line(),
                Some(b'/') if self.peek2() == Some(b'/') => self.skip_line(),
                _ => return,
            }
        }
    }

    fn skip_line(&mut self) {
        while let Some(c) = self.peek() {
            if c == b'\n' {
                return;
            }
            self.bump();
        }
    }

    fn lex_ident(&mut self) -> TokenKind {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.bump();
            } else {
                break;
            }
        }
        TokenKind::Ident(self.src[start..self.pos].to_owned())
    }

    fn lex_number(&mut self, line: u32, col: u32) -> Result<TokenKind, HdlError> {
        let radix = if self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'x') | Some(b'X'))
        {
            self.bump();
            self.bump();
            16
        } else if self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'b') | Some(b'B')) {
            self.bump();
            self.bump();
            2
        } else {
            10
        };
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.bump();
            } else {
                break;
            }
        }
        let text: String = self.src[start..self.pos]
            .chars()
            .filter(|&c| c != '_')
            .collect();
        if text.is_empty() {
            return Err(HdlError::new(
                HdlErrorKind::Lex,
                line,
                col,
                "integer literal has no digits",
            ));
        }
        u64::from_str_radix(&text, radix)
            .map(TokenKind::Int)
            .map_err(|_| {
                HdlError::new(
                    HdlErrorKind::Lex,
                    line,
                    col,
                    format!("invalid integer literal `{text}`"),
                )
            })
    }

    fn lex_punct(&mut self, line: u32, col: u32) -> Result<TokenKind, HdlError> {
        let c = self.bump().expect("caller checked non-empty");
        let two = |l: &mut Self, kind: TokenKind| {
            l.bump();
            kind
        };
        let kind = match c {
            b'{' => TokenKind::LBrace,
            b'}' => TokenKind::RBrace,
            b'(' => TokenKind::LParen,
            b')' => TokenKind::RParen,
            b'[' => TokenKind::LBracket,
            b']' => TokenKind::RBracket,
            b':' => TokenKind::Colon,
            b';' => TokenKind::Semi,
            b',' => TokenKind::Comma,
            b'.' => TokenKind::Dot,
            b'+' => TokenKind::Plus,
            b'-' => TokenKind::Minus,
            b'*' => TokenKind::Star,
            b'/' => TokenKind::Slash,
            b'%' => TokenKind::Percent,
            b'&' => TokenKind::Amp,
            b'|' => TokenKind::Pipe,
            b'^' => TokenKind::Caret,
            b'~' => TokenKind::Tilde,
            b'=' => match self.peek() {
                Some(b'=') => two(self, TokenKind::EqEq),
                Some(b'>') => two(self, TokenKind::FatArrow),
                _ => TokenKind::Assign,
            },
            b'!' => match self.peek() {
                Some(b'=') => two(self, TokenKind::NotEq),
                _ => TokenKind::Bang,
            },
            b'<' => match self.peek() {
                Some(b'=') => two(self, TokenKind::LessEq),
                Some(b'<') => two(self, TokenKind::Shl),
                _ => TokenKind::Less,
            },
            b'>' => match self.peek() {
                Some(b'=') => two(self, TokenKind::GreaterEq),
                Some(b'>') => two(self, TokenKind::Shr),
                _ => TokenKind::Greater,
            },
            _ => {
                let other = self.src[self.pos - 1..]
                    .chars()
                    .next()
                    .expect("the rejected byte is inside `src`");
                return Err(HdlError::new(
                    HdlErrorKind::Lex,
                    line,
                    col,
                    format!("unexpected character `{other}`"),
                ));
            }
        };
        Ok(kind)
    }
}
