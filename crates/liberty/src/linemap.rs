//! Lazy byte-offset → line/column conversion for diagnostics.
//!
//! The zero-copy lexer ([`crate::fastlex`]) tracks token positions as plain
//! byte offsets: maintaining 1-based line/column counters per character is
//! pure overhead on the hot path, since positions are only ever *shown* when
//! a diagnostic is emitted — and clean industrial libraries emit none. A
//! [`LineMap`] is built once, only when at least one diagnostic exists, and
//! converts offsets to 1-based `(line, column)` pairs.
//!
//! Columns count **characters** from the line start (1-based) — multi-byte
//! UTF-8 sequences therefore occupy one column, not several — and only
//! `\n` starts a new line.

/// Byte-offset → `(line, column)` converter for one source text.
pub struct LineMap<'a> {
    src: &'a str,
    /// Byte offset of the first byte of each line, ascending; `starts[0] == 0`.
    starts: Vec<usize>,
}

impl<'a> LineMap<'a> {
    /// Indexes the newlines of `src`. O(len), done once per parse *with
    /// diagnostics*; never on the clean path.
    pub fn new(src: &'a str) -> Self {
        let mut starts = vec![0];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                starts.push(i + 1);
            }
        }
        Self { src, starts }
    }

    /// Converts a byte offset to a 1-based `(line, column)` pair.
    ///
    /// Offsets past the end of the text resolve to one past the final
    /// character — the position reported for end-of-input problems
    /// (unterminated strings and comments).
    pub fn line_col(&self, offset: usize) -> (usize, usize) {
        let offset = offset.min(self.src.len());
        let line = match self.starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let col = 1 + self.src[self.starts[line]..offset].chars().count();
        (line + 1, col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_line_first_column() {
        let m = LineMap::new("abc");
        assert_eq!(m.line_col(0), (1, 1));
        assert_eq!(m.line_col(2), (1, 3));
    }

    #[test]
    fn newlines_advance_lines() {
        let m = LineMap::new("a\nbb\nccc");
        assert_eq!(m.line_col(0), (1, 1));
        assert_eq!(m.line_col(2), (2, 1));
        assert_eq!(m.line_col(3), (2, 2));
        assert_eq!(m.line_col(5), (3, 1));
        assert_eq!(m.line_col(7), (3, 3));
    }

    #[test]
    fn offset_on_the_newline_itself() {
        let m = LineMap::new("ab\ncd");
        // The `\n` byte belongs to line 1, one past `b`.
        assert_eq!(m.line_col(2), (1, 3));
    }

    #[test]
    fn end_of_input_position() {
        let m = LineMap::new("ab\ncd");
        assert_eq!(m.line_col(5), (2, 3)); // one past `d`
        assert_eq!(m.line_col(999), (2, 3));
    }

    #[test]
    fn multibyte_chars_count_one_column() {
        let src = "é é x";
        let m = LineMap::new(src);
        // 'é' is 2 bytes; byte offset of 'x' is 6 but it is the 5th char.
        let x_off = src.find('x').unwrap_or(0);
        assert_eq!(m.line_col(x_off), (1, 5));
    }

    #[test]
    fn crlf_line_endings() {
        let m = LineMap::new("ab\r\ncd");
        assert_eq!(m.line_col(4), (2, 1));
        // The `\r` sits one past `b` on line 1: only `\n` resets the
        // column.
        assert_eq!(m.line_col(2), (1, 3));
    }
}
