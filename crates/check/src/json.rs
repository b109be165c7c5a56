//! The one writer behind every `BENCH_*.json` file.
//!
//! Std-only, like the rest of the crate: the workspace takes no serde
//! (the hermetic-build policy). A [`Value`] is built where the numbers
//! are known, each float with the decimals it is published at
//! ([`fixed`]), and [`Value::document`] writes it under one layout
//! rule: the root, and any container holding a container, goes one
//! member per line with two-space indents; every other container goes
//! on one line (`{"k": v, "k2": w}`, `[a, b]`). Nothing parses a BENCH
//! file back: every gate on its numbers runs in the binary that
//! computed them, on the values as printed ([`Value::as_f64`]).

use std::fmt::{self, Write};
use std::ops::Index;

/// A JSON value; object members keep their insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Bool(bool),
    /// Any integer: `i128` holds every `u64` and `i64` exactly.
    Int(i128),
    /// A finite float and the decimals it prints at (build with [`fixed`]).
    Fixed(f64, usize),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

/// `v` published at `decimals` places. Panics on NaN or an infinity:
/// JSON has no number for them, and a BENCH figure that is not finite
/// is a bug in the experiment, not a value to record.
pub fn fixed(v: f64, decimals: usize) -> Value {
    assert!(v.is_finite(), "json: {v} has no JSON number");
    Value::Fixed(v, decimals)
}

/// An object from `key => value` pairs, in order; each value goes
/// through `Value::from`.
#[macro_export]
macro_rules! obj {
    ($($k:expr => $v:expr),* $(,)?) => {
        $crate::json::Value::Obj(vec![$((($k).to_string(), $crate::json::Value::from($v))),*])
    };
}

impl Value {
    /// A number as the file prints it, so a threshold compared here
    /// cannot disagree with the figure a reader sees.
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::Int(i) => *i as f64,
            Value::Fixed(..) => self.to_string().parse().expect("a fixed prints a number"),
            _ => panic!("json: {self} is not a number"),
        }
    }

    /// The file form: the layout rule from the root, then a newline.
    pub fn document(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, 0, true).expect("writing to a String");
        s + "\n"
    }

    fn write(&self, w: &mut impl Write, depth: usize, root: bool) -> fmt::Result {
        let members: Vec<(Option<&str>, &Value)> = match self {
            Value::Bool(b) => return write!(w, "{b}"),
            Value::Int(i) => return write!(w, "{i}"),
            Value::Fixed(x, d) => return write!(w, "{x:.*}", *d),
            Value::Str(s) => return write_str(w, s),
            Value::Arr(items) => items.iter().map(|v| (None, v)).collect(),
            Value::Obj(members) => members.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
        };
        let (open, close) = if matches!(self, Value::Arr(_)) {
            ('[', ']')
        } else {
            ('{', '}')
        };
        let nested = members
            .iter()
            .any(|(_, v)| matches!(v, Value::Arr(_) | Value::Obj(_)));
        let spread = !members.is_empty() && (root || nested);
        w.write_char(open)?;
        for (i, (key, v)) in members.into_iter().enumerate() {
            w.write_str(if i == 0 { "" } else { "," })?;
            if spread {
                write!(w, "\n{}", "  ".repeat(depth + 1))?;
            } else if i > 0 {
                w.write_char(' ')?;
            }
            if let Some(k) = key {
                write_str(w, k)?;
                w.write_str(": ")?;
            }
            v.write(w, depth + 1, false)?;
        }
        if spread {
            write!(w, "\n{}", "  ".repeat(depth))?;
        }
        w.write_char(close)
    }
}

fn write_str(w: &mut impl Write, s: &str) -> fmt::Result {
    w.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => w.write_str("\\\"")?,
            '\\' => w.write_str("\\\\")?,
            '\n' => w.write_str("\\n")?,
            '\r' => w.write_str("\\r")?,
            '\t' => w.write_str("\\t")?,
            c if c < ' ' => write!(w, "\\u{:04x}", u32::from(c))?,
            c => w.write_char(c)?,
        }
    }
    w.write_char('"')
}

/// A member's form: a container goes on one line unless it holds a
/// container (the root rule belongs to [`Value::document`] alone).
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0, false)
    }
}

/// Member `key` of an object; panics when absent.
impl Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        let Value::Obj(members) = self else {
            panic!("json: [{key:?}] of a non-object")
        };
        let found = members.iter().find(|(k, _)| k == key);
        found
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("json: no member {key:?}"))
    }
}

/// Element `i` of an array; panics when out of range.
impl Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        let Value::Arr(items) = self else {
            panic!("json: [{i}] of a non-array")
        };
        &items[i]
    }
}

macro_rules! from {
    ($($t:ty => |$x:ident| $e:expr),*) => {
        $(impl From<$t> for Value { fn from($x: $t) -> Self { $e } })*
    };
}
from!(bool => |b| Value::Bool(b), i32 => |i| Value::Int(i.into()), i64 => |i| Value::Int(i.into()),
      u32 => |u| Value::Int(u.into()), u64 => |u| Value::Int(u.into()),
      usize => |u| Value::Int(u as i128), &str => |s| Value::Str(s.into()), String => |s| Value::Str(s));

/// Collects into an array.
impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        let v = obj! {"k\"ey" => "a\"b\\c\nd\re\tf\u{1}g\u{1f}é"};
        assert_eq!(
            v.to_string(),
            r#"{"k\"ey": "a\"b\\c\nd\re\tf\u0001g\u001fé"}"#
        );
    }

    /// The whole layout rule on one fixture: a spread root, a spread
    /// array of one-line objects, a spread object holding a one-line
    /// array, and one-line containers everywhere else.
    #[test]
    fn layout_spreads_the_root_and_containers_of_containers_only() {
        let rows: Value = [1, 2].into_iter().map(|n| obj! {"n" => n}).collect();
        let v = obj! {
            "schema" => 1, "flat" => obj! {"a" => 1, "b" => true}, "rows" => rows,
            "nested" => obj! {"xs" => [1, 2, 3].into_iter().collect::<Value>()},
            "tags" => ["x", "y"].into_iter().collect::<Value>(),
        };
        let expected = r#"{
  "schema": 1,
  "flat": {"a": 1, "b": true},
  "rows": [
    {"n": 1},
    {"n": 2}
  ],
  "nested": {
    "xs": [1, 2, 3]
  },
  "tags": ["x", "y"]
}
"#;
        assert_eq!(v.document(), expected);
        // A flat root still spreads; the same value as a member does not.
        let flat = obj! {"a" => 1, "b" => 2};
        assert_eq!(flat.document(), "{\n  \"a\": 1,\n  \"b\": 2\n}\n");
        assert_eq!(flat.to_string(), r#"{"a": 1, "b": 2}"#);
    }

    #[test]
    fn fixed_prints_exactly_its_decimals_and_as_f64_reads_them() {
        let printed = |v: f64, d| fixed(v, d).to_string();
        assert_eq!(printed(1.23456, 2), "1.23");
        assert_eq!(printed(0.5, 4), "0.5000");
        assert_eq!(printed(3.7, 0), "4");
        assert_eq!(printed(12_173_523.4, 0), "12173523");
        assert_eq!(printed(-3.7, 0), "-4");
        assert_eq!(printed(-7.65432, 3), "-7.654");
        assert_eq!(fixed(0.49996, 4).as_f64(), 0.5);
        assert_eq!(fixed(0.49994, 4).as_f64(), 0.4999);
    }

    #[test]
    fn integers_print_exactly_beyond_f64_precision() {
        assert_eq!(
            Value::from((1u64 << 53) + 1).to_string(),
            "9007199254740993"
        );
        assert_eq!(Value::from(u64::MAX).to_string(), "18446744073709551615");
        assert_eq!(Value::from(i64::MIN).to_string(), "-9223372036854775808");
    }

    #[test]
    fn empty_containers_print_closed() {
        assert_eq!(obj! {}.document(), "{}\n");
        let v = obj! {"a" => Value::Arr(Vec::new()), "o" => obj! {}};
        assert_eq!(v.document(), "{\n  \"a\": [],\n  \"o\": {}\n}\n");
    }

    #[test]
    #[should_panic(expected = "has no JSON number")]
    fn nan_is_refused_where_it_is_built() {
        fixed(f64::NAN, 2);
    }

    #[test]
    #[should_panic(expected = "has no JSON number")]
    fn infinity_is_refused_where_it_is_built() {
        fixed(f64::NEG_INFINITY, 0);
    }
}
