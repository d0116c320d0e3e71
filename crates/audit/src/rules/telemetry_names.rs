//! `telemetry-names`: instrumentation ↔ schema drift detection.
//!
//! Cross-checks span-path and metric-name string literals in the
//! configured crates against the `rbx.telemetry.v1` registry
//! ([`rbx_telemetry::names`]). Two extraction mechanisms:
//!
//! * **call-site args** — a literal (or `&format!("literal…")`) passed
//!   directly to `span_abs`/`span_at`/`seconds`/`calls` (span paths) or
//!   `counter_add`/`gauge_set`/`histogram_observe` (metrics, with the
//!   expected kind);
//! * **pattern literals** — any production string literal shaped like a
//!   span path (`a/b…`) or a metric name (`rbx_…`), catching names that
//!   flow through helper functions (e.g. `Phase::span_path`).
//!
//! Unregistered names and kind mismatches are errors; registered names
//! never seen anywhere are reported once as notes so the registry cannot
//! rot either.

use std::collections::BTreeSet;

use rbx_telemetry::names::{self, MetricKind};

use crate::config::AuditConfig;
use crate::lexer::{Token, TokenKind};
use crate::report::Finding;
use crate::rules::TELEMETRY;
use crate::workspace::SourceFile;

/// Functions whose first literal argument is an absolute span path.
const SPAN_FNS: &[&str] = &["span_abs", "span_at", "seconds", "calls"];

fn metric_fn_kind(name: &str) -> Option<MetricKind> {
    match name {
        "counter_add" => Some(MetricKind::Counter),
        "gauge_set" => Some(MetricKind::Gauge),
        "histogram_observe" => Some(MetricKind::Histogram),
        _ => None,
    }
}

fn kind_name(k: MetricKind) -> &'static str {
    match k {
        MetricKind::Counter => "counter",
        MetricKind::Gauge => "gauge",
        MetricKind::Histogram => "histogram",
    }
}

/// Does `s` look like an absolute span path? (`step/pressure`, …)
fn span_shaped(s: &str) -> bool {
    s.contains('/')
        && !s.starts_with('/')
        && !s.ends_with('/')
        && !s.contains("//")
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '/')
}

/// Does `s` look like a metric name (possibly with a label suffix)?
fn metric_shaped(s: &str) -> bool {
    let base = names::metric_base(s);
    base.starts_with("rbx_")
        && base
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// The first string literal reachable as the call's first argument:
/// `("lit"…`, `(&"lit"…` or `(&format!("lit…"`.
fn first_literal_arg(toks: &[Token], open_paren: usize) -> Option<(String, usize)> {
    let mut i = open_paren + 1;
    if toks.get(i).is_some_and(|t| t.is_punct('&')) {
        i += 1;
    }
    match toks.get(i).map(|t| &t.kind) {
        Some(TokenKind::Str(s)) => Some((s.clone(), toks[i].line)),
        Some(TokenKind::Ident(f)) if f == "format" => {
            if toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
            {
                match toks.get(i + 3).map(|t| &t.kind) {
                    Some(TokenKind::Str(s)) => Some((s.clone(), toks[i + 3].line)),
                    _ => None,
                }
            } else {
                None
            }
        }
        _ => None,
    }
}

pub fn check(
    file: &SourceFile,
    cfg: &AuditConfig,
    out: &mut Vec<Finding>,
    seen: &mut BTreeSet<String>,
) {
    // Reference *collection* is workspace-wide so coverage sees users in
    // every crate (e.g. the flight recorder bumping its own counter via a
    // `names::` const); drift *errors* stay scoped to the configured
    // crates. The registry file itself never counts as a reference —
    // otherwise every definition would vacuously cover itself.
    if file.path.ends_with("telemetry/src/names.rs") {
        return;
    }
    let in_scope = cfg
        .telemetry_crates
        .iter()
        .any(|c| file.path.starts_with(&format!("{c}/")));
    let toks = file.prod_tokens();
    // (line, message) dedup: a literal can be found by both mechanisms.
    let mut emitted: BTreeSet<(usize, String)> = BTreeSet::new();
    let mut push = |out: &mut Vec<Finding>, line: usize, msg: String| {
        if in_scope && emitted.insert((line, msg.clone())) {
            out.push(Finding::error(TELEMETRY, &file.path, line, msg));
        }
    };

    // Const-style references: the registry exports each metric as a
    // SCREAMING_CASE const (`names::FLIGHT_DUMPS_TOTAL` ↔
    // "rbx_flight_dumps_total"); count such idents as references.
    for t in toks {
        let TokenKind::Ident(id) = &t.kind else {
            continue;
        };
        if id.len() > 3
            && id
                .chars()
                .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
        {
            let candidate = format!("rbx_{}", id.to_ascii_lowercase());
            if names::find_metric(&candidate).is_some() {
                seen.insert(format!("metric:{candidate}"));
            }
        }
    }

    // Call-site extraction (kind-aware).
    for (i, t) in toks.iter().enumerate() {
        let TokenKind::Ident(fname) = &t.kind else {
            continue;
        };
        if !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        let Some((lit, line)) = first_literal_arg(toks, i + 1) else {
            continue;
        };
        if SPAN_FNS.contains(&fname.as_str()) {
            if !span_shaped(&lit) {
                // Relative span names ("krylov") nest dynamically and
                // cannot be resolved statically — out of scope.
                continue;
            }
            seen.insert(format!("span:{lit}"));
            if names::find_span(&lit).is_none() {
                push(
                    out,
                    line,
                    format!("span path \"{lit}\" is not in the rbx.telemetry.v1 registry"),
                );
            }
        } else if let Some(kind) = metric_fn_kind(fname) {
            let base = names::metric_base(&lit).to_string();
            seen.insert(format!("metric:{base}"));
            match names::find_metric(&lit) {
                None => push(
                    out,
                    line,
                    format!("metric \"{base}\" is not in the rbx.telemetry.v1 registry"),
                ),
                Some(def) if def.kind != kind => push(
                    out,
                    line,
                    format!(
                        "metric \"{base}\" is registered as a {} but fed via {fname} (a {})",
                        kind_name(def.kind),
                        kind_name(kind)
                    ),
                ),
                Some(_) => {}
            }
        }
    }

    // Pattern-literal extraction (kind-blind), catching names that reach
    // the telemetry API through helpers.
    for t in toks {
        let TokenKind::Str(s) = &t.kind else { continue };
        if span_shaped(s) {
            seen.insert(format!("span:{s}"));
            if names::find_span(s).is_none() {
                push(
                    out,
                    t.line,
                    format!("span path \"{s}\" is not in the rbx.telemetry.v1 registry"),
                );
            }
        } else if metric_shaped(s) {
            let base = names::metric_base(s).to_string();
            seen.insert(format!("metric:{base}"));
            if names::find_metric(s).is_none() {
                push(
                    out,
                    t.line,
                    format!("metric \"{base}\" is not in the rbx.telemetry.v1 registry"),
                );
            }
        }
    }
}

/// After all files are scanned: registered names nobody references are
/// notes (the registry must not rot into fiction).
pub fn coverage(cfg: &AuditConfig, seen: &BTreeSet<String>, out: &mut Vec<Finding>) {
    if cfg.telemetry_crates.is_empty() {
        return;
    }
    for s in names::SPANS {
        if !seen.contains(&format!("span:{}", s.path)) {
            out.push(Finding::note(
                TELEMETRY,
                "crates/telemetry/src/names.rs",
                0,
                format!(
                    "registered span \"{}\" is never referenced in audited crates",
                    s.path
                ),
            ));
        }
    }
    for m in names::METRICS {
        if !seen.contains(&format!("metric:{}", m.name)) {
            out.push(Finding::note(
                TELEMETRY,
                "crates/telemetry/src/names.rs",
                0,
                format!(
                    "registered metric \"{}\" is never referenced in audited crates",
                    m.name
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> (Vec<Finding>, BTreeSet<String>) {
        let cfg = AuditConfig {
            telemetry_crates: vec!["crates/core".into()],
            ..Default::default()
        };
        let (file, _) = SourceFile::from_source("crates/core/src/sim.rs", src);
        let mut out = Vec::new();
        let mut seen = BTreeSet::new();
        check(&file, &cfg, &mut out, &mut seen);
        (out, seen)
    }

    #[test]
    fn registered_names_pass_unregistered_fail() {
        let src = concat!(
            "fn f(tel: &Telemetry) {\n",
            "  tel.counter_add(\"rbx_steps_total\", 1);\n",
            "  tel.gauge_set(\"rbx_bogus_gauge\", 0.0);\n",
            "  let _g = tel.tracer().span_abs(\"schwarz/coarse\");\n",
            "  let _h = tel.tracer().span_abs(\"schwarz/bogus\");\n",
            "}\n",
        );
        let (out, _) = run(src);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().any(|f| f.message.contains("rbx_bogus_gauge")));
        assert!(out.iter().any(|f| f.message.contains("schwarz/bogus")));
    }

    #[test]
    fn format_built_names_are_resolved_and_label_stripped() {
        let src = concat!(
            "fn f(tel: &Telemetry) {\n",
            "  tel.counter_add(&format!(\"rbx_step_verdict_total{{{{verdict={v}}}}}\"), 1);\n",
            "}\n",
        );
        let (out, seen) = run(src);
        assert!(out.is_empty(), "{out:?}");
        assert!(seen.contains("metric:rbx_step_verdict_total"));
    }

    #[test]
    fn kind_mismatch_is_flagged() {
        let src = "fn f(tel: &Telemetry) { tel.gauge_set(\"rbx_steps_total\", 1.0); }\n";
        let (out, _) = run(src);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("registered as a counter"));
    }

    #[test]
    fn helper_returned_paths_are_caught_by_pattern_literals() {
        let src = concat!(
            "fn span_path(self) -> &'static str {\n",
            "  match self { Phase::Pressure => \"step/pressure\", _ => \"step/bogus\" }\n",
            "}\n",
        );
        let (out, seen) = run(src);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("step/bogus"));
        assert!(seen.contains("span:step/pressure"));
    }

    #[test]
    fn relative_span_names_are_out_of_scope() {
        let src = "fn f(tel: &Telemetry) { let _g = tel.span(\"krylov\"); }\n";
        let (out, _) = run(src);
        assert!(out.is_empty());
    }

    #[test]
    fn coverage_notes_unseen_registry_entries() {
        let cfg = AuditConfig {
            telemetry_crates: vec!["crates/core".into()],
            ..Default::default()
        };
        let mut seen = BTreeSet::new();
        for s in rbx_telemetry::names::SPANS {
            seen.insert(format!("span:{}", s.path));
        }
        for m in rbx_telemetry::names::METRICS {
            seen.insert(format!("metric:{}", m.name));
        }
        let mut out = Vec::new();
        coverage(&cfg, &seen, &mut out);
        assert!(out.is_empty());
        seen.remove("span:gs/shared");
        coverage(&cfg, &seen, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].severity, crate::report::Severity::Note);
    }
}
