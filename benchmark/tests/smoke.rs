//! Smoke test: `--quick` emits every metric `BENCHMARK.json` lists,
//! exactly once per workload, and the file agrees with the tables the
//! program is built from.

use std::collections::BTreeMap;
use std::process::Command;

use npr_benchmark::report::{benchmark_json, metric_table};
use npr_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};

/// Just enough JSON for the two documents this test reads.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Keys in document order; a repeated key stays repeated.
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "at byte {}", self.i);
        self.i += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.i;
        while self.s[self.i] != b'"' {
            assert_ne!(self.s[self.i], b'\\', "escapes are not used here");
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap()
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                while self.s[self.i] != b'}' {
                    let k = self.string();
                    self.eat(b':');
                    fields.push((k, self.value()));
                    self.ws();
                    if self.s[self.i] == b',' {
                        self.i += 1;
                        self.ws();
                    }
                }
                self.i += 1;
                Json::Obj(fields)
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                while self.s[self.i] != b']' {
                    items.push(self.value());
                    self.ws();
                    if self.s[self.i] == b',' {
                        self.i += 1;
                        self.ws();
                    }
                }
                self.i += 1;
                Json::Arr(items)
            }
            b'"' => Json::Str(self.string()),
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(text.parse().unwrap_or_else(|_| panic!("number {text:?}")))
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, text.len(), "trailing bytes");
    v
}

impl Json {
    fn fields(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(f) => f,
            other => panic!("not an object: {other:?}"),
        }
    }

    fn get(&self, key: &str) -> &Json {
        let hits: Vec<&Json> = self
            .fields()
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v)
            .collect();
        assert_eq!(hits.len(), 1, "key {key} appears {} times", hits.len());
        hits[0]
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        self.fields().iter().map(|(k, _)| k.as_str()).collect()
    }
}

fn valid_name(n: &str) -> bool {
    !n.is_empty()
        && n.len() <= 64
        && n.bytes().next().is_some_and(|b| b.is_ascii_alphanumeric())
        && n.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn valid_unit(u: &str) -> bool {
    !u.is_empty()
        && u.len() <= 16
        && u.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

#[test]
fn benchmark_json_is_the_code_tables_and_inside_the_limits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(text, benchmark_json(), "regenerate with --emit-spec");
    assert!(text.len() <= 64 * 1024);

    let doc = parse(&text);
    assert_eq!(
        doc.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads = doc.get("workloads").items();
    let e2e = doc.get("end_to_end").items();
    let layers = doc.get("per_layer").items();
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layers.len()));
    assert_eq!(workloads.len(), WORKLOADS.len());
    assert_eq!(e2e.len(), END_TO_END.len());
    assert_eq!(layers.len(), PER_LAYER.len());

    let mut seen = BTreeMap::new();
    for w in workloads {
        assert_eq!(w.keys(), ["name", "why"]);
        let why = w.get("why").str();
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        *seen.entry(w.get("name").str()).or_insert(0) += 1;
    }
    for m in e2e {
        assert_eq!(m.keys(), ["name", "unit", "better", "bound"]);
        let Json::Num(bound) = m.get("bound") else {
            panic!("bound is a number")
        };
        assert!(*bound > 0.0 && *bound <= 0.25);
    }
    for m in layers {
        assert_eq!(m.keys(), ["name", "unit", "better"]);
    }
    for m in e2e.iter().chain(layers) {
        assert!(valid_unit(m.get("unit").str()), "{m:?}");
        assert!(matches!(m.get("better").str(), "higher" | "lower"));
        *seen.entry(m.get("name").str()).or_insert(0) += 1;
    }
    for (name, n) in &seen {
        assert!(valid_name(name), "{name}");
        assert_eq!(*n, 1, "{name} is used {n} times");
    }
    let setup = e2e
        .iter()
        .find(|m| m.get("name").str() == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").str(), "s");
    assert_eq!(setup.get("better").str(), "lower");
    let Json::Num(secs) = doc.get("run_seconds") else {
        panic!("run_seconds is a number")
    };
    assert!((1.0..=60.0).contains(secs) && secs.fract() == 0.0);
}

#[test]
fn quick_emits_every_listed_metric_once_per_workload() {
    for w in &WORKLOADS {
        for trace in [false, true] {
            let out = Command::new(env!("CARGO_BIN_EXE_npr-benchmark"))
                .args(["--workload", w.name, "--quick", "--seed", "7"])
                .args(["--trace", if trace { "1" } else { "0" }])
                .output()
                .expect("the benchmark binary runs");
            assert!(
                out.status.success(),
                "{} --trace {}: {}",
                w.name,
                u8::from(trace),
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8(out.stdout).unwrap();
            assert!(stdout.contains("comparable: no"), "--quick is labelled");
            let last = stdout.lines().last().expect("a result line");
            let doc = parse(last);
            assert_eq!(doc.keys(), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct"), &Json::Bool(true));
            let Json::Num(attempted) = doc.get("attempted") else {
                panic!("attempted is a number")
            };
            assert!(*attempted >= 1.0 && attempted.fract() == 0.0);
            let want: Vec<&str> = metric_table(trace).iter().map(|m| m.0).collect();
            // `keys` keeps repeats, so equality is "exactly once each".
            assert_eq!(doc.get("metrics").keys(), want, "{}", w.name);
            for (name, m) in doc.get("metrics").fields() {
                assert_eq!(m.keys(), ["value", "unit"], "{name}");
                assert!(
                    matches!(m.get("value"), Json::Num(v) if v.is_finite()),
                    "{name}"
                );
            }
        }
    }
}
