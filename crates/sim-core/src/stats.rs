//! Statistics and reporting helpers for the benchmark harness.
//!
//! The paper reports latency curves (figures) and small tables; the harness
//! binaries in `charm-bench` build [`Series`] objects and print them in a
//! uniform aligned-column format so `EXPERIMENTS.md` can quote them directly.

/// One named curve for a figure: x values with one y per x.
#[derive(Debug, Clone)]
pub struct Series {
    pub(crate) name: String,
    pub points: Vec<(f64, f64)>,
}

impl Series {
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            points: Vec::new(),
        }
    }

    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }
}

/// A figure: several series over a common x-axis, rendered as a text table.
#[derive(Debug, Clone)]
pub struct Figure {
    pub(crate) title: String,
    pub(crate) x_label: String,
    pub(crate) y_label: String,
    pub series: Vec<Series>,
}

impl Figure {
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Self {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    pub fn add(&mut self, s: Series) {
        self.series.push(s);
    }

    /// Render as an aligned markdown-ish table, one row per distinct x.
    pub fn render(&self) -> String {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.0))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs.dedup();

        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        out.push_str(&format!(
            "{} vs {} ({} series)\n",
            self.y_label,
            self.x_label,
            self.series.len()
        ));
        let mut header = format!("{:>12}", self.x_label);
        for s in &self.series {
            header.push_str(&format!("  {:>18}", s.name));
        }
        out.push_str(&header);
        out.push('\n');
        for &x in &xs {
            let mut row = format!("{:>12}", fmt_x(x));
            for s in &self.series {
                let y = s.points.iter().find(|p| p.0 == x).map(|p| p.1);
                match y {
                    Some(v) => row.push_str(&format!("  {:>18.3}", v)),
                    None => row.push_str(&format!("  {:>18}", "-")),
                }
            }
            out.push_str(&row);
            out.push('\n');
        }
        out
    }
}

fn fmt_x(x: f64) -> String {
    if x >= 1024.0 * 1024.0 && (x as u64).is_multiple_of(1024 * 1024) {
        format!("{}M", x as u64 / (1024 * 1024))
    } else if x >= 1024.0 && (x as u64).is_multiple_of(1024) {
        format!("{}K", x as u64 / 1024)
    } else {
        format!("{}", x)
    }
}

/// Geometric sweep of message sizes `lo..=hi`, doubling each step —
/// the x-axes the paper uses.
pub fn pow2_sizes(lo: u64, hi: u64) -> Vec<u64> {
    assert!(lo > 0 && lo <= hi);
    let mut v = Vec::new();
    let mut x = lo;
    while x <= hi {
        v.push(x);
        if x > hi / 2 {
            break;
        }
        x *= 2;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_sweep() {
        assert_eq!(pow2_sizes(8, 64), vec![8, 16, 32, 64]);
        assert_eq!(pow2_sizes(8, 100), vec![8, 16, 32, 64]);
        assert_eq!(pow2_sizes(1, 1), vec![1]);
    }

    #[test]
    fn figure_renders_all_series() {
        let mut f = Figure::new("Test", "bytes", "us");
        let mut s1 = Series::new("a");
        s1.push(8.0, 1.5);
        s1.push(16.0, 2.0);
        let mut s2 = Series::new("b");
        s2.push(8.0, 3.0);
        f.add(s1);
        f.add(s2);
        let r = f.render();
        assert!(r.contains("Test"));
        assert!(r.contains('a') && r.contains('b'));
        assert!(r.contains("1.500"));
        assert!(r.contains('-'), "missing point shown as dash");
    }
}
