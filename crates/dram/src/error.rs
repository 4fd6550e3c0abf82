//! Error types for DRAM model configuration and command processing.

use std::error::Error;
use std::fmt;

/// Errors produced by the DRAM model.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DramError {
    /// A timing parameter set failed validation.
    InvalidTiming {
        /// Human-readable explanation.
        reason: String,
    },
    /// A geometry failed validation.
    InvalidGeometry {
        /// Human-readable explanation.
        reason: String,
    },
    /// A Row Hammer fault model (threshold or distance coefficients) failed
    /// validation.
    InvalidFaultModel {
        /// Human-readable explanation.
        reason: String,
    },
    /// A command referenced a row outside the bank.
    RowOutOfRange {
        /// The offending row.
        row: u32,
        /// Rows in the bank.
        rows_per_bank: u32,
    },
    /// A command was issued with a timestamp earlier than a previous command.
    NonMonotonicTime {
        /// Timestamp of the previous command (ps).
        last: u64,
        /// Timestamp of the offending command (ps).
        now: u64,
    },
}

impl fmt::Display for DramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DramError::InvalidTiming { reason } => write!(f, "invalid DRAM timing: {reason}"),
            DramError::InvalidGeometry { reason } => write!(f, "invalid DRAM geometry: {reason}"),
            DramError::InvalidFaultModel { reason } => write!(f, "invalid fault model: {reason}"),
            DramError::RowOutOfRange { row, rows_per_bank } => {
                write!(f, "row {row} out of range for bank with {rows_per_bank} rows")
            }
            DramError::NonMonotonicTime { last, now } => {
                write!(f, "command time {now} ps precedes previous command at {last} ps")
            }
        }
    }
}

impl Error for DramError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let e = DramError::RowOutOfRange { row: 9, rows_per_bank: 4 };
        let s = e.to_string();
        assert!(s.contains("row 9"));
        assert!(s.chars().next().unwrap().is_lowercase());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DramError>();
    }
}
