//! CSV export of experiment data.
//!
//! Every figure runner can emit its series as plain CSV so downstream users
//! can plot the reproduction against the paper's figures without scraping
//! stdout. No external dependency: the writer handles quoting for the small
//! value space we emit (numbers and simple names).

use std::fmt::Write as _;

/// An in-memory CSV table built from rows of `(column, value)` pairs, so
/// every value sits next to its column name. The first row's names are the
/// header; every later row must name the same columns in the same order.
/// A table with no rows therefore has no header either.
///
/// # Example
///
/// ```
/// use rh_analysis::export::Csv;
///
/// let csv: Csv = [(1, 108), (2, 81)]
///     .iter()
///     .map(|(k, n)| vec![("k", k.to_string()), ("entries", n.to_string())])
///     .collect();
/// assert_eq!(csv.render(), "k,entries\n1,108\n2,81\n");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csv {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Csv {
    /// Appends a data row of `(column, value)` pairs; the first row fixes
    /// the header.
    ///
    /// # Panics
    ///
    /// Panics if the row's column names, or their order, differ from the
    /// header's — a missing or swapped column silently corrupts downstream
    /// plots, so it is rejected here.
    fn push_row(&mut self, cells: Vec<(&str, String)>) {
        if self.rows.is_empty() {
            self.header = cells.iter().map(|&(name, _)| name.to_owned()).collect();
        } else {
            let names: Vec<&str> = cells.iter().map(|&(name, _)| name).collect();
            assert_eq!(names, self.header, "row columns differ from the header");
        }
        self.rows.push(cells.into_iter().map(|(_, value)| value).collect());
    }

    /// Renders RFC-4180-style CSV (quoting cells containing commas, quotes
    /// or newlines); an empty table renders as the empty string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if cell.contains([',', '"', '\n']) {
                    let escaped = cell.replace('"', "\"\"");
                    let _ = write!(out, "\"{escaped}\"");
                } else {
                    out.push_str(cell);
                }
            }
            out.push('\n');
        };
        if self.rows.is_empty() {
            return out;
        }
        write_row(&mut out, &self.header);
        for r in &self.rows {
            write_row(&mut out, r);
        }
        out
    }
}

impl<'a> FromIterator<Vec<(&'a str, String)>> for Csv {
    fn from_iter<I: IntoIterator<Item = Vec<(&'a str, String)>>>(rows: I) -> Self {
        let mut csv = Csv { header: Vec::new(), rows: Vec::new() };
        for row in rows {
            csv.push_row(row);
        }
        csv
    }
}

/// Resolves the experiment output directory: `$RH_OUT` or `./experiment-data`.
pub fn output_dir() -> std::path::PathBuf {
    std::env::var_os("RH_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("experiment-data"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_simple_table() {
        let c: Csv = [("1", "2"), ("3", "4")]
            .iter()
            .map(|&(a, b)| vec![("a", a.to_owned()), ("b", b.to_owned())])
            .collect();
        assert_eq!(c.render(), "a,b\n1,2\n3,4\n");
        let empty: Csv = std::iter::empty::<Vec<(&str, String)>>().collect();
        assert_eq!(empty.render(), "", "no rows, no header");
    }

    #[test]
    fn quotes_special_cells() {
        let c: Csv = ["mix[a+b],2", "say \"hi\""]
            .iter()
            .map(|&name| vec![("name", name.to_owned())])
            .collect();
        assert_eq!(c.render(), "name\n\"mix[a+b],2\"\n\"say \"\"hi\"\"\"\n");
    }

    #[test]
    #[should_panic(expected = "row columns differ from the header")]
    fn ragged_rows_rejected() {
        let _: Csv = [vec![("a", "1".into()), ("b", "2".into())], vec![("a", "only-one".into())]]
            .into_iter()
            .collect();
    }

    #[test]
    #[should_panic(expected = "row columns differ from the header")]
    fn swapped_columns_rejected() {
        let _: Csv = [
            vec![("a", "1".into()), ("b", "2".into())],
            vec![("b", "2".into()), ("a", "1".into())],
        ]
        .into_iter()
        .collect();
    }

    #[test]
    fn output_dir_default() {
        // Do not mutate the environment (tests run in parallel); just check
        // the default when RH_OUT is absent in this test environment.
        if std::env::var_os("RH_OUT").is_none() {
            assert_eq!(output_dir(), std::path::PathBuf::from("experiment-data"));
        }
    }
}
