//! Error type for fabric construction and queries.

use core::fmt;

/// Errors raised while building or querying a device fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricError {
    /// Device construction was given zero rows or zero columns.
    EmptyFabric,
    /// Device construction was given more rows or columns than a frame
    /// address can encode ([`crate::MAX_ROWS`], [`crate::MAX_COLUMNS`]).
    Unaddressable {
        /// Rows requested.
        rows: u32,
        /// Columns requested.
        columns: usize,
    },
    /// A named device was not found in the database.
    UnknownDevice(String),
    /// A column index was out of range for the device.
    ColumnOutOfRange {
        /// Offending index.
        index: usize,
        /// Number of columns in the device.
        width: usize,
    },
    /// A row index/span was out of range for the device (rows are 1-based,
    /// following the paper's `r + H - 1 <= R` convention).
    RowOutOfRange {
        /// First row of the span (1-based).
        row: u32,
        /// Height of the span.
        height: u32,
        /// Number of fabric rows in the device.
        rows: u32,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::EmptyFabric => write!(f, "device fabric must have >=1 row and >=1 column"),
            FabricError::Unaddressable { rows, columns } => write!(
                f,
                "a {rows}-row, {columns}-column fabric exceeds the frame address \
                 (at most {} rows and {} columns)",
                crate::MAX_ROWS,
                crate::MAX_COLUMNS
            ),
            FabricError::UnknownDevice(name) => write!(f, "unknown device `{name}`"),
            FabricError::ColumnOutOfRange { index, width } => {
                write!(
                    f,
                    "column index {index} out of range (device has {width} columns)"
                )
            }
            FabricError::RowOutOfRange { row, height, rows } => write!(
                f,
                // Saturate: adversarial row/height near u32::MAX must not
                // overflow while formatting the very error they triggered.
                "row span [{row}, {}] out of range (device has {rows} rows)",
                row.saturating_add(height.saturating_sub(1))
            ),
        }
    }
}

impl std::error::Error for FabricError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_specific() {
        let e = FabricError::RowOutOfRange {
            row: 7,
            height: 3,
            rows: 8,
        };
        assert_eq!(
            e.to_string(),
            "row span [7, 9] out of range (device has 8 rows)"
        );
        assert!(FabricError::UnknownDevice("xc9k".into())
            .to_string()
            .contains("xc9k"));
    }

    #[test]
    fn row_out_of_range_display_saturates() {
        let e = FabricError::RowOutOfRange {
            row: u32::MAX,
            height: u32::MAX,
            rows: 8,
        };
        // Must not overflow while formatting; saturates at u32::MAX.
        assert_eq!(
            e.to_string(),
            format!(
                "row span [{0}, {0}] out of range (device has 8 rows)",
                u32::MAX
            )
        );
    }
}
