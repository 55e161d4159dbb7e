//! Perf regression gating: structural diff of two benchmark JSON documents
//! (`BENCH_parallel.json`, `BENCH_kernels.json`, or any file of the same
//! shape) backing the `snapea-tool perf-diff` subcommand and the check
//! script's regression gate.
//!
//! A benchmark document is an object whose array-valued top-level keys hold
//! rows of measurements; rows are identified by their string-valued fields
//! (`name`, `detail`, `shape`, …) and compared on their timing fields —
//! every numeric field ending in `_ms`, plus histogram quantiles named
//! `p50`/`p90`/`p99`. Lower is better; a row regresses when a timing field
//! grows by more than the caller's threshold percentage.
//!
//! Rows may nest one level: a field holding an array of objects (the
//! schema-2 `curve` arrays of per-thread-count points) is diffed the same
//! way, with section `benches.curve` and the parent row's identity prefixed
//! onto each point's (`conv_forward | n8 … | t4`). Deeper nesting is
//! ignored.
//!
//! Two top-level header fields say what machine state a document's
//! timings measure, and [`diff`] refuses outright — `passed()` is `false`
//! and the reports say why — instead of producing rows when they differ:
//!
//! * `"degraded"`: `true` on a machine without real parallelism (see
//!   perfbench), whose curves measure oversubscription noise, not scaling;
//! * `"lane_isa"`: which instantiation of the lane kernels ran (`avx2` or
//!   `baseline`), so kernel timings of one ISA are never gated against the
//!   other.

use crate::json::Json;

/// One compared timing cell.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Array the row came from: a top-level section (`benches`, `kernels`,
    /// `gemm`, …) or a nested one (`benches.curve`).
    pub section: String,
    /// Identity of the row: its string fields joined with `" | "`, prefixed
    /// with the parent row's identity for nested rows.
    pub key: String,
    /// The timing field compared (e.g. `kernel_ms`).
    pub field: String,
    /// Old (baseline) value.
    pub old: f64,
    /// New (candidate) value.
    pub new: f64,
}

impl DiffRow {
    /// Percentage change, positive = slower (`(new - old) / old * 100`).
    pub fn delta_pct(&self) -> f64 {
        if self.old <= 0.0 {
            0.0
        } else {
            (self.new - self.old) / self.old * 100.0
        }
    }
}

/// The result of diffing two benchmark documents.
#[derive(Debug, Clone, Default)]
pub struct PerfDiff {
    /// Every timing cell present in both documents.
    pub rows: Vec<DiffRow>,
    /// Row identities present only in the old document.
    pub removed: Vec<String>,
    /// Row identities present only in the new document.
    pub added: Vec<String>,
    /// When set, the documents cannot be meaningfully compared (their
    /// header fields differ); no rows were produced and the gate fails.
    pub incompatible: Option<String>,
}

/// `true` for fields compared as timings (lower is better).
fn is_timing_field(name: &str) -> bool {
    name.ends_with("_ms") || matches!(name, "ms" | "p50" | "p90" | "p99")
}

/// A row's identity: its string-valued fields, in document order.
fn row_key(row: &Json) -> String {
    let mut parts: Vec<&str> = Vec::new();
    if let Some(pairs) = row.as_object() {
        for (_, v) in pairs {
            if let Some(s) = v.as_str() {
                parts.push(s);
            }
        }
    }
    parts.join(" | ")
}

/// `Some(rows)` when `v` is an array of objects — a nested row table like a
/// schema-2 `curve` — and not a plain value array.
fn as_row_array(v: &Json) -> Option<&[Json]> {
    let rows = v.as_array()?;
    rows.iter().all(|r| r.as_object().is_some()).then_some(rows)
}

/// Diffs one array of rows, keyed by [`row_key`] under `key_prefix`, into
/// `out`. `nest` allows one further level of array-of-object fields.
fn diff_rows(
    out: &mut PerfDiff,
    section: &str,
    key_prefix: &str,
    old_rows: &[Json],
    new_rows: &[Json],
    nest: bool,
) {
    let full_key = |key: &str| {
        if key_prefix.is_empty() {
            key.to_string()
        } else {
            format!("{key_prefix} | {key}")
        }
    };
    for old_row in old_rows {
        let key = full_key(&row_key(old_row));
        let Some(new_row) = new_rows.iter().find(|r| full_key(&row_key(r)) == key) else {
            out.removed.push(format!("{section}: {key}"));
            continue;
        };
        let Some(fields) = old_row.as_object() else {
            continue;
        };
        for (field, v) in fields {
            if is_timing_field(field) {
                let (Some(old_ms), Some(new_ms)) =
                    (v.as_f64(), new_row.get(field).and_then(Json::as_f64))
                else {
                    continue;
                };
                out.rows.push(DiffRow {
                    section: section.to_string(),
                    key: key.clone(),
                    field: field.clone(),
                    old: old_ms,
                    new: new_ms,
                });
            } else if nest {
                let (Some(old_sub), Some(new_sub)) =
                    (as_row_array(v), new_row.get(field).and_then(as_row_array))
                else {
                    continue;
                };
                diff_rows(
                    out,
                    &format!("{section}.{field}"),
                    &key,
                    old_sub,
                    new_sub,
                    false,
                );
            }
        }
    }
    for new_row in new_rows {
        let key = full_key(&row_key(new_row));
        if !old_rows.iter().any(|r| full_key(&row_key(r)) == key) {
            out.added.push(format!("{section}: {key}"));
        }
    }
}

/// Header fields that must agree for two documents to be compared: the
/// field, the value an absent field stands for, and what a mismatch means.
/// Documents without `degraded` predate the flag; documents without
/// `lane_isa` predate the AVX2 dispatch and so ran the baseline kernels.
const HEADERS: [(&str, &str, &str); 2] = [
    (
        "degraded",
        "false",
        "one machine had available_parallelism == 1 — its curves measure \
         oversubscription overhead, not scaling",
    ),
    (
        "lane_isa",
        "baseline",
        "the lane kernels ran different instruction-set instantiations",
    ),
];

/// A header field's value as text, or `absent` when the document lacks it.
fn header(doc: &Json, field: &str, absent: &str) -> String {
    match doc.get(field) {
        None => absent.to_string(),
        Some(Json::Str(v)) => v.clone(),
        Some(v) => v.to_string(),
    }
}

/// Diffs two benchmark documents (see the module docs for the shape).
pub fn diff(old: &Json, new: &Json) -> PerfDiff {
    let mut out = PerfDiff::default();
    for (field, absent, why) in HEADERS {
        let (o, n) = (header(old, field, absent), header(new, field, absent));
        if o != n {
            out.incompatible = Some(format!(
                "refusing to compare: old recorded with {field}={o}, new with \
                 {field}={n} ({why}); re-record both on comparable machines"
            ));
            return out;
        }
    }
    let empty: &[(String, Json)] = &[];
    let old_pairs = old.as_object().unwrap_or(empty);
    for (section, old_val) in old_pairs {
        let Some(old_rows) = old_val.as_array() else {
            continue;
        };
        let new_rows = new
            .get(section)
            .and_then(Json::as_array)
            .unwrap_or(&[] as &[Json]);
        diff_rows(&mut out, section, "", old_rows, new_rows, true);
    }
    out
}

impl PerfDiff {
    /// Rows slower by more than `max_regress_pct` percent.
    pub fn regressions(&self, max_regress_pct: f64) -> Vec<&DiffRow> {
        self.rows
            .iter()
            .filter(|r| r.delta_pct() > max_regress_pct)
            .collect()
    }

    /// `true` when the documents were comparable and no timing regressed
    /// past the threshold.
    pub fn passed(&self, max_regress_pct: f64) -> bool {
        self.incompatible.is_none() && self.regressions(max_regress_pct).is_empty()
    }

    /// JSON form: every compared cell with its delta, plus the verdict.
    pub fn to_json(&self, max_regress_pct: f64) -> Json {
        let rows = Json::Arr(
            self.rows
                .iter()
                .map(|r| {
                    Json::obj(vec![
                        ("section", Json::from(r.section.as_str())),
                        ("key", Json::from(r.key.as_str())),
                        ("field", Json::from(r.field.as_str())),
                        ("old", Json::F64(r.old)),
                        ("new", Json::F64(r.new)),
                        ("delta_pct", Json::F64(r.delta_pct())),
                        ("regressed", Json::Bool(r.delta_pct() > max_regress_pct)),
                    ])
                })
                .collect(),
        );
        Json::obj(vec![
            ("max_regress_pct", Json::F64(max_regress_pct)),
            ("compared", Json::U64(self.rows.len() as u64)),
            (
                "regressions",
                Json::U64(self.regressions(max_regress_pct).len() as u64),
            ),
            (
                "incompatible",
                self.incompatible
                    .as_deref()
                    .map(Json::from)
                    .unwrap_or(Json::Null),
            ),
            (
                "removed",
                Json::Arr(
                    self.removed
                        .iter()
                        .map(|s| Json::from(s.as_str()))
                        .collect(),
                ),
            ),
            (
                "added",
                Json::Arr(self.added.iter().map(|s| Json::from(s.as_str())).collect()),
            ),
            ("passed", Json::Bool(self.passed(max_regress_pct))),
            ("rows", rows),
        ])
    }

    /// Human-readable table, worst regression first.
    pub fn render_text(&self, max_regress_pct: f64) -> String {
        if let Some(why) = &self.incompatible {
            return format!("incompatible documents: {why}\n0 cell(s) compared: FAIL\n");
        }
        let mut out = String::new();
        let mut rows: Vec<&DiffRow> = self.rows.iter().collect();
        rows.sort_by(|a, b| {
            b.delta_pct()
                .partial_cmp(&a.delta_pct())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        out.push_str(&format!(
            "{:<10} {:<44} {:<14} {:>10} {:>10} {:>8}\n",
            "section", "row", "field", "old ms", "new ms", "delta"
        ));
        for r in &rows {
            let mark = if r.delta_pct() > max_regress_pct {
                "  << REGRESSION"
            } else {
                ""
            };
            out.push_str(&format!(
                "{:<10} {:<44} {:<14} {:>10.3} {:>10.3} {:>+7.1}%{}\n",
                r.section,
                r.key,
                r.field,
                r.old,
                r.new,
                r.delta_pct(),
                mark
            ));
        }
        for k in &self.removed {
            out.push_str(&format!("removed: {k}\n"));
        }
        for k in &self.added {
            out.push_str(&format!("added:   {k}\n"));
        }
        let n = self.regressions(max_regress_pct).len();
        out.push_str(&format!(
            "{} cell(s) compared, {} regression(s) above {:.1}%: {}\n",
            self.rows.len(),
            n,
            max_regress_pct,
            if n == 0 { "PASS" } else { "FAIL" }
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn bench_doc(kernel_ms: f64) -> Json {
        parse(&format!(
            r#"{{"generated_by":"perfbench","reps":5,
                "kernels":[
                  {{"name":"executor_exact","detail":"n8","kernel_ms":{kernel_ms},"dense_ms":24.0,"vs_dense_x":1.5,"bit_identical":true}},
                  {{"name":"optimizer_profiling","detail":"n2","kernel_ms":60.0,"dense_ms":1.0,"vs_dense_x":60.0,"bit_identical":true}}
                ]}}"#
        ))
        .unwrap()
    }

    /// Schema-2 shaped document: a bench row with a nested scaling curve.
    fn curve_doc(degraded: bool, t4_ms: f64) -> Json {
        parse(&format!(
            r#"{{"generated_by":"perfbench","schema":2,"degraded":{degraded},
                "benches":[
                  {{"name":"conv_forward","detail":"n8 k3","serial_ms":40.0,"curve":[
                    {{"label":"t1","threads":1,"ms":40.0,"speedup":1.0,"bit_identical":true}},
                    {{"label":"t4","threads":4,"ms":{t4_ms},"speedup":3.3,"bit_identical":true}}
                  ]}}
                ]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_documents_pass() {
        let d = diff(&bench_doc(37.0), &bench_doc(37.0));
        assert!(d.passed(10.0));
        assert!(d.regressions(0.0).is_empty(), "zero delta everywhere");
        // kernel_ms + dense_ms on both rows = 4 compared cells.
        assert_eq!(d.rows.len(), 4);
        assert!(d.removed.is_empty() && d.added.is_empty());
    }

    #[test]
    fn planted_regression_fails_the_gate() {
        let d = diff(&bench_doc(37.0), &bench_doc(37.0 * 1.2));
        assert!(!d.passed(10.0), "20% slower must fail a 10% gate");
        let regs = d.regressions(10.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].field, "kernel_ms");
        assert!((regs[0].delta_pct() - 20.0).abs() < 1e-9);
        // A looser gate tolerates it.
        assert!(d.passed(25.0));
        let text = d.render_text(10.0);
        assert!(text.contains("REGRESSION"), "{text}");
        assert!(text.contains("FAIL"), "{text}");
    }

    #[test]
    fn speedups_never_fail() {
        let d = diff(&bench_doc(37.0), &bench_doc(20.0));
        assert!(d.passed(10.0));
        assert!(d.render_text(10.0).contains("PASS"));
    }

    #[test]
    fn added_and_removed_rows_are_reported() {
        let old = bench_doc(37.0);
        let new = parse(
            r#"{"kernels":[
                {"name":"executor_exact","detail":"n8","kernel_ms":37.0,"dense_ms":24.0},
                {"name":"brand_new","detail":"x","kernel_ms":1.0}
            ]}"#,
        )
        .unwrap();
        let d = diff(&old, &new);
        assert_eq!(
            d.removed,
            vec!["kernels: optimizer_profiling | n2".to_string()]
        );
        assert_eq!(d.added, vec!["kernels: brand_new | x".to_string()]);
        // Missing rows do not crash the gate; they are surfaced instead.
        assert!(d.passed(10.0));
    }

    #[test]
    fn quantile_fields_are_compared() {
        let old = parse(r#"{"hist":[{"name":"k","p50":1.0,"p99":2.0,"count":10}]}"#).unwrap();
        let new = parse(r#"{"hist":[{"name":"k","p50":1.0,"p99":3.0,"count":12}]}"#).unwrap();
        let d = diff(&old, &new);
        assert_eq!(d.rows.len(), 2, "p50 and p99 compared, count ignored");
        assert!(!d.passed(10.0), "p99 rose 50%");
    }

    #[test]
    fn nested_curve_points_are_compared() {
        let d = diff(&curve_doc(false, 12.0), &curve_doc(false, 12.0));
        // serial_ms on the parent + ms on each of the two curve points.
        assert_eq!(d.rows.len(), 3);
        let t4 = d
            .rows
            .iter()
            .find(|r| r.key.ends_with("| t4"))
            .expect("t4 point compared");
        assert_eq!(t4.section, "benches.curve");
        assert_eq!(t4.key, "conv_forward | n8 k3 | t4");
        assert_eq!(t4.field, "ms");
        assert!(d.passed(10.0));
    }

    #[test]
    fn regression_in_a_curve_point_fails_the_gate() {
        let d = diff(&curve_doc(false, 12.0), &curve_doc(false, 18.0));
        assert!(!d.passed(10.0), "t4 point 50% slower must fail");
        let regs = d.regressions(10.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].section, "benches.curve");
        assert_eq!(regs[0].key, "conv_forward | n8 k3 | t4");
    }

    #[test]
    fn degraded_mismatch_is_refused() {
        for (old_deg, new_deg) in [(true, false), (false, true)] {
            let d = diff(&curve_doc(old_deg, 12.0), &curve_doc(new_deg, 12.0));
            assert!(d.incompatible.is_some(), "mismatch must refuse");
            assert!(d.rows.is_empty(), "no cells compared on refusal");
            assert!(!d.passed(1e9), "refusal fails regardless of threshold");
            let text = d.render_text(10.0);
            assert!(text.contains("refusing to compare"), "{text}");
            assert!(text.contains("FAIL"), "{text}");
            let j = d.to_json(10.0);
            assert_eq!(j.get("passed").and_then(Json::as_bool), Some(false));
            assert!(j.get("incompatible").and_then(Json::as_str).is_some());
        }
        // Matching flags — even both degraded — compare normally.
        let d = diff(&curve_doc(true, 12.0), &curve_doc(true, 12.0));
        assert!(d.incompatible.is_none());
        assert!(d.passed(10.0));
    }

    /// The refusal is document-level, so the kernels report
    /// (`BENCH_kernels.json`) is covered too: its single-thread timings are
    /// just as machine-bound as the curves.
    #[test]
    fn degraded_mismatch_is_refused_for_kernels_documents() {
        let kernels_doc = |degraded: bool| {
            parse(&format!(
                r#"{{"generated_by":"perfbench --kernels","schema":2,"degraded":{degraded},
                    "kernels":[
                      {{"name":"executor_exact","detail":"n8","kernel_ms":1.5,"dense_ms":0.7,"vs_dense_x":2.1,"bit_identical":true}}
                    ]}}"#
            ))
            .unwrap()
        };
        let d = diff(&kernels_doc(true), &kernels_doc(false));
        assert!(
            d.incompatible.is_some(),
            "kernels-shaped mismatch must refuse"
        );
        assert!(d.rows.is_empty());
        assert!(!d.passed(1e9));
        // Matching flags compare the kernel cells normally.
        let d = diff(&kernels_doc(true), &kernels_doc(true));
        assert!(d.incompatible.is_none());
        assert_eq!(d.rows.len(), 2, "kernel_ms + dense_ms compared");
        assert!(d.passed(10.0));
    }

    /// Kernel timings of the AVX2 and baseline instantiations are not
    /// comparable either; an absent `lane_isa` stands for `baseline`.
    #[test]
    fn lane_isa_mismatch_is_refused() {
        let doc = |isa: &str| {
            parse(&format!(
                r#"{{"generated_by":"perfbench --kernels","schema":2,"degraded":false,{isa}
                    "kernels":[{{"name":"lane_dot","detail":"512 windows","kernel_ms":1.5,"bit_identical":true}}]}}"#
            ))
            .unwrap()
        };
        let (avx2, baseline, absent) = (
            doc(r#""lane_isa":"avx2","#),
            doc(r#""lane_isa":"baseline","#),
            doc(""),
        );
        for (old, new) in [(&avx2, &baseline), (&baseline, &avx2), (&absent, &avx2)] {
            let d = diff(old, new);
            let why = d.incompatible.as_deref().expect("ISA mismatch must refuse");
            assert!(why.contains("lane_isa="), "{why}");
            assert!(d.rows.is_empty());
            assert!(!d.passed(1e9));
        }
        for (old, new) in [(&avx2, &avx2), (&absent, &baseline)] {
            let d = diff(old, new);
            assert!(d.incompatible.is_none());
            assert_eq!(d.rows.len(), 1, "kernel_ms compared");
            assert!(d.passed(10.0));
        }
    }

    #[test]
    fn json_report_round_trips() {
        let d = diff(&bench_doc(10.0), &bench_doc(12.0));
        let j = d.to_json(10.0);
        assert_eq!(j.get("passed").and_then(Json::as_bool), Some(false));
        let back = parse(&j.to_string()).unwrap();
        assert_eq!(back.get("compared").and_then(Json::as_u64), Some(4));
        assert!(back.get("incompatible").is_some());
    }
}
