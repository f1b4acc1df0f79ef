//! Plain-text table formatting for the report renderers.

/// A table column: its header and how one row renders in it.
pub type Column<R> = (&'static str, fn(&R) -> String);

/// Renders `rows` as a fixed-width, right-aligned table with one column
/// per `(header, cell)`.
pub fn render_table<R>(rows: &[R], columns: &[Column<R>]) -> String {
    let header: Vec<String> = columns.iter().map(|(h, _)| h.to_string()).collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| columns.iter().map(|(_, cell)| cell(r)).collect())
        .collect();
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in &body {
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        padded.join("  ") + "\n"
    };
    let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1));
    let mut out = fmt_row(&header) + &rule + "\n";
    for row in &body {
        out += &fmt_row(row);
    }
    out
}

/// Formats a float to 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a float as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let columns: [Column<(&str, f64)>; 2] =
            [("name", |r| r.0.to_string()), ("value", |r| f2(r.1))];
        let t = render_table(&[("a", 1.0), ("longer", 12.34)], &columns);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "  name  value");
        assert_eq!(lines[1], "-------------");
        assert_eq!(lines[2], "     a   1.00");
        assert_eq!(lines[3], "longer  12.34");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(pct(0.63), "63.0%");
    }
}
