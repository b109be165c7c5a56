//! Plain-text report formatting.

use std::fmt::Write;

use npr_check::json::Value;

use crate::exp_tables::PaperVsMeasured;

fn titled(title: &str) -> String {
    format!("\n== {title} ==\n")
}

/// Formats a paper-vs-measured table with a header line.
pub fn rows(title: &str, rows: &[PaperVsMeasured]) -> String {
    let mut s = titled(title);
    let _ = writeln!(
        s,
        "{:<48} {:>10} {:>10} {:>8}",
        "row", "paper", "measured", "dev%"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<48} {:>7.2} {:<2} {:>7.2} {:<2} {:>+7.1}%",
            r.label,
            r.paper,
            r.unit,
            r.measured,
            r.unit,
            r.deviation_pct()
        );
    }
    s
}

/// Formats an x/y series.
pub fn series(title: &str, xlabel: &str, pts: &[(f64, f64)], unit: &str) -> String {
    let mut s = titled(title);
    let _ = writeln!(s, "{xlabel:>10} {unit:>12}");
    for &(x, y) in pts {
        let _ = writeln!(s, "{x:>10.0} {y:>12.3}");
    }
    s
}

/// Formats a BENCH file's value under `title`: each scalar member as
/// `key: value`, an array of flat objects as a table headed by their
/// keys, and an array of other objects one object after another.
pub fn value(title: &str, v: &Value) -> String {
    let mut s = titled(title);
    object(&mut s, "", v);
    s
}

fn object(s: &mut String, pad: &str, v: &Value) {
    let Value::Obj(fields) = v else {
        unreachable!("a BENCH value is an object")
    };
    let inner = [pad, "  "].concat();
    for (key, v) in fields {
        match v {
            Value::Arr(rows) if !rows.is_empty() && rows.iter().all(is_flat_object) => {
                let _ = writeln!(s, "{pad}{key}:");
                table(s, &inner, rows);
            }
            Value::Arr(rows) if rows.iter().any(|r| matches!(r, Value::Obj(_))) => {
                for (i, row) in rows.iter().enumerate() {
                    let _ = writeln!(s, "{pad}{key}[{i}]:");
                    object(s, &inner, row);
                }
            }
            _ => {
                let _ = writeln!(s, "{pad}{key}: {}", cell(v));
            }
        }
    }
}

/// Right-aligned columns headed by the first row's keys.
fn table(s: &mut String, pad: &str, rows: &[Value]) {
    let Value::Obj(first) = &rows[0] else {
        unreachable!("rows are objects")
    };
    let keys: Vec<&str> = first.iter().map(|(k, _)| k.as_str()).collect();
    let mut lines = vec![keys.iter().map(|k| k.to_string()).collect::<Vec<_>>()];
    lines.extend(
        rows.iter()
            .map(|r| keys.iter().map(|&k| cell(&r[k])).collect()),
    );
    let width = |c: usize| lines.iter().map(|l| l[c].len()).max().unwrap_or(0);
    let widths: Vec<usize> = (0..keys.len()).map(width).collect();
    for line in &lines {
        let _ = write!(s, "{pad}");
        for (text, w) in line.iter().zip(&widths) {
            let _ = write!(s, "{text:>w$}  ");
        }
        s.truncate(s.trim_end().len());
        s.push('\n');
    }
}

fn is_flat_object(v: &Value) -> bool {
    let container = |v: &Value| matches!(v, Value::Arr(_) | Value::Obj(_));
    matches!(v, Value::Obj(fields) if !fields.iter().any(|(_, v)| container(v)))
}

fn cell(v: &Value) -> String {
    match v {
        Value::Str(text) => text.clone(),
        _ => v.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npr_check::json::fixed;
    use npr_check::obj;

    #[test]
    fn formats_without_panic() {
        let r = PaperVsMeasured {
            label: "x".into(),
            paper: 1.0,
            measured: 1.1,
            unit: "Mpps",
        };
        let out = rows("t", &[r]);
        assert!(out.contains("+10.0%"));
        let out = series("s", "n", &[(1.0, 2.0)], "Mpps");
        assert!(out.contains("2.000"));
    }

    #[test]
    fn value_renders_scalars_tables_and_nesting() {
        let row = |aqm, p99| obj! {"aqm" => aqm, "p99_us" => fixed(p99, 2)};
        let rows: Value = [row("drop_tail", 738.2), row("codel", 46.1)]
            .into_iter()
            .collect();
        let nested: Value = [obj! {"class" => "MemStall", "points" => rows.clone()}]
            .into_iter()
            .collect();
        let v = obj! {"schema" => 1, "sojourn" => rows, "curves" => nested};
        let expected = "
== t ==
schema: 1
sojourn:
        aqm  p99_us
  drop_tail  738.20
      codel   46.10
curves[0]:
  class: MemStall
  points:
          aqm  p99_us
    drop_tail  738.20
        codel   46.10
";
        assert_eq!(value("t", &v), expected);
    }
}
