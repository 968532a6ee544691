//! Result tables: the shape the paper reports in, rendered as text, CSV,
//! and (for the figures) ASCII speedup plots.

/// One reproduced table: headers plus rows of labelled values, with the
/// paper's published value carried alongside the model's for every cell
/// that has one.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table identifier ("Table 5").
    pub id: String,
    /// Caption, as in the paper.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<Cell>>,
}

/// One table cell.
#[derive(Debug, Clone)]
pub enum Cell {
    /// A label (platform name, chunk count...).
    Text(String),
    /// A modeled value with the paper's published value for comparison.
    Value {
        /// The model's prediction (or reproduction).
        model: f64,
        /// The paper's measurement, when published.
        paper: Option<f64>,
    },
}

impl Cell {
    /// Text cell.
    pub fn text(s: impl Into<String>) -> Self {
        Cell::Text(s.into())
    }

    /// Modeled value with a paper reference.
    pub fn val(model: f64, paper: f64) -> Self {
        Cell::Value {
            model,
            paper: Some(paper),
        }
    }

    /// Modeled value without a published reference.
    pub fn bare(model: f64) -> Self {
        Cell::Value { model, paper: None }
    }
}

impl Table {
    /// Render as aligned text, showing `model (paper)` for referenced
    /// cells.
    pub fn render(&self) -> String {
        let mut grid: Vec<Vec<String>> = vec![self.headers.clone()];
        for row in &self.rows {
            grid.push(
                row.iter()
                    .map(|c| match c {
                        Cell::Text(s) => s.clone(),
                        Cell::Value {
                            model,
                            paper: Some(p),
                        } => {
                            format!("{model:.1} (paper {p:.1})")
                        }
                        Cell::Value { model, paper: None } => format!("{model:.1}"),
                    })
                    .collect(),
            );
        }
        let cols = grid.iter().map(Vec::len).max().unwrap_or(0);
        let mut widths = vec![0usize; cols];
        for row in &grid {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = format!("{}: {}\n", self.id, self.title);
        for (ri, row) in grid.iter().enumerate() {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, cell)| format!("{cell:<width$}", width = widths[i]))
                .collect();
            out.push_str("  ");
            out.push_str(line.join("  ").trim_end());
            out.push('\n');
            if ri == 0 {
                out.push_str("  ");
                out.push_str(
                    &widths
                        .iter()
                        .map(|w| "-".repeat(*w))
                        .collect::<Vec<_>>()
                        .join("  "),
                );
                out.push('\n');
            }
        }
        out
    }

    /// Render as CSV (`model` and `paper` in separate columns).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let mut header_cells = Vec::new();
        for h in &self.headers {
            header_cells.push(h.clone());
            header_cells.push(format!("{h} (paper)"));
        }
        out.push_str(&header_cells.join(","));
        out.push('\n');
        for row in &self.rows {
            let mut cells = Vec::new();
            for c in row {
                match c {
                    Cell::Text(s) => {
                        cells.push(s.clone());
                        cells.push(String::new());
                    }
                    Cell::Value { model, paper } => {
                        cells.push(format!("{model:.3}"));
                        cells.push(paper.map(|p| format!("{p:.3}")).unwrap_or_default());
                    }
                }
            }
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// Extract `(model, paper)` pairs from every referenced value cell.
    pub fn referenced_values(&self) -> Vec<(f64, f64)> {
        self.rows
            .iter()
            .flatten()
            .filter_map(|c| match c {
                Cell::Value {
                    model,
                    paper: Some(p),
                } => Some((*model, *p)),
                _ => None,
            })
            .collect()
    }
}

/// An ASCII rendition of a speedup figure: processor count on x, speedup
/// on y, model curve drawn with `*`, the paper's points with `o`.
pub fn ascii_speedup_figure(
    id: &str,
    title: &str,
    model: &[(usize, f64)],
    paper: &[(usize, f64)],
) -> String {
    let max_x = model
        .iter()
        .chain(paper)
        .map(|&(x, _)| x)
        .max()
        .unwrap_or(1);
    let max_y = model
        .iter()
        .chain(paper)
        .map(|&(_, y)| y)
        .fold(1.0f64, f64::max)
        .ceil();
    let height = 16usize;
    let width = max_x.max(2);
    let mut canvas = vec![vec![' '; width + 1]; height + 1];
    let plot = |canvas: &mut Vec<Vec<char>>, pts: &[(usize, f64)], ch: char| {
        for &(x, y) in pts {
            let row = height - ((y / max_y) * height as f64).round().min(height as f64) as usize;
            if x <= width {
                let cell = &mut canvas[row][x];
                *cell = if *cell == ' ' || *cell == ch { ch } else { '#' };
            }
        }
    };
    plot(&mut canvas, model, '*');
    plot(&mut canvas, paper, 'o');
    let mut out = format!("{id}: {title}  (*=model, o=paper, #=both)\n");
    for (i, row) in canvas.iter().enumerate() {
        let yval = max_y * (height - i) as f64 / height as f64;
        out.push_str(&format!("{yval:5.1} |"));
        out.push_str(&row.iter().collect::<String>());
        out.push('\n');
    }
    out.push_str("      +");
    out.push_str(&"-".repeat(width + 1));
    out.push('\n');
    out.push_str(&format!("       processors 1..{max_x}\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        Table {
            id: "Table 0".into(),
            title: "test".into(),
            headers: vec!["Platform".into(), "Time (s)".into()],
            rows: vec![
                vec![Cell::text("Alpha"), Cell::val(185.0, 187.0)],
                vec![Cell::text("Tera"), Cell::bare(99.5)],
            ],
        }
    }

    #[test]
    fn render_contains_model_and_paper_values() {
        let s = sample().render();
        assert!(s.contains("Table 0"));
        assert!(s.contains("185.0 (paper 187.0)"));
        assert!(s.contains("99.5"));
        assert!(s.contains("Platform"));
    }

    #[test]
    fn csv_has_paired_columns() {
        let csv = sample().to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "Platform,Platform (paper),Time (s),Time (s) (paper)"
        );
        assert!(lines.next().unwrap().starts_with("Alpha,,185.000,187.000"));
    }

    #[test]
    fn referenced_values_extracts_pairs() {
        assert_eq!(sample().referenced_values(), vec![(185.0, 187.0)]);
    }

    #[test]
    fn ascii_figure_draws_both_series() {
        let fig = ascii_speedup_figure(
            "Figure 1",
            "speedup",
            &[(1, 1.0), (2, 2.0), (4, 3.9)],
            &[(1, 1.0), (2, 2.0), (4, 3.9)],
        );
        assert!(fig.contains("Figure 1"));
        assert!(fig.contains('#'), "coincident points should merge: {fig}");
    }

    #[test]
    fn ascii_figure_distinct_points_use_own_glyphs() {
        let fig = ascii_speedup_figure("F", "t", &[(1, 1.0), (4, 4.0)], &[(1, 1.0), (4, 2.0)]);
        assert!(fig.contains('*'));
        assert!(fig.contains('o'));
    }
}
