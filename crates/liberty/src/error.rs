//! Error types for parsing and LUT evaluation.

use std::error::Error;
use std::fmt;

/// Error produced while parsing Liberty text.
///
/// Carries the 1-based line and column of the offending token together with a
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLibertyError {
    /// 1-based line of the error.
    pub line: usize,
    /// 1-based column of the error.
    pub column: usize,
    /// Description of what went wrong.
    pub message: String,
}

impl ParseLibertyError {
    /// Creates a new error at the given source position.
    pub fn new(line: usize, column: usize, message: impl Into<String>) -> Self {
        Self {
            line,
            column,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseLibertyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "liberty parse error at {}:{}: {}",
            self.line, self.column, self.message
        )
    }
}

impl Error for ParseLibertyError {}

/// Error produced when serializing a library whose text would not re-parse.
///
/// The writer refuses non-finite values: `inf`/`NaN` literals are rejected
/// by the parser, so emitting them would break the round-trip property
/// (anything written must parse back).
#[derive(Debug, Clone, PartialEq)]
pub struct WriteLibertyError {
    /// Slash-separated path to the offending value, e.g.
    /// `library/cell(INV_1)/pin(Z)/timing/cell_rise`.
    pub context: String,
    /// The non-finite value that cannot be serialized.
    pub value: f64,
}

impl fmt::Display for WriteLibertyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot write non-finite value {} at {}: the emitted Liberty text would not re-parse",
            self.value, self.context
        )
    }
}

impl Error for WriteLibertyError {}

/// Error produced when a LUT cannot be evaluated at a requested point.
#[derive(Debug, Clone, PartialEq)]
pub enum InterpolateError {
    /// The LUT has no rows or no columns.
    EmptyTable,
    /// An index axis is not strictly increasing, so interpolation is ill-defined.
    NonMonotonicAxis {
        /// Name of the offending axis (`"slew"` or `"load"`).
        axis: &'static str,
    },
    /// A query coordinate was not finite.
    NonFiniteQuery {
        /// The offending coordinate value.
        value: f64,
    },
    /// The table body is not `rows` rows of `cols` entries, as its axes
    /// require.
    ShapeMismatch {
        /// Length of the slew axis.
        rows: usize,
        /// Length of the load axis.
        cols: usize,
    },
}

impl fmt::Display for InterpolateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpolateError::EmptyTable => write!(f, "look-up table has no entries"),
            InterpolateError::NonMonotonicAxis { axis } => {
                write!(f, "{axis} axis is not strictly increasing")
            }
            InterpolateError::NonFiniteQuery { value } => {
                write!(f, "query coordinate {value} is not finite")
            }
            InterpolateError::ShapeMismatch { rows, cols } => {
                write!(f, "table body does not fit its {rows}x{cols} axes")
            }
        }
    }
}

impl Error for InterpolateError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_error_display_includes_position() {
        let e = ParseLibertyError::new(3, 14, "unexpected token");
        let s = e.to_string();
        assert!(s.contains("3:14"), "{s}");
        assert!(s.contains("unexpected token"), "{s}");
    }

    #[test]
    fn interpolate_error_display_is_nonempty() {
        for e in [
            InterpolateError::EmptyTable,
            InterpolateError::NonMonotonicAxis { axis: "slew" },
            InterpolateError::NonFiniteQuery { value: f64::NAN },
            InterpolateError::ShapeMismatch { rows: 7, cols: 7 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ParseLibertyError>();
        assert_send_sync::<InterpolateError>();
        assert_send_sync::<WriteLibertyError>();
    }

    #[test]
    fn write_error_display_names_context_and_value() {
        let e = WriteLibertyError {
            context: "library/cell(INV_1)/pin(Z)/timing/cell_rise".to_string(),
            value: f64::NAN,
        };
        let s = e.to_string();
        assert!(s.contains("cell(INV_1)"), "{s}");
        assert!(s.contains("NaN"), "{s}");
    }
}
