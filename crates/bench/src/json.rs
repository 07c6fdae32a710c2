//! Minimal machine-readable results serialization: one JSON document per
//! experiment, written by `repro --json DIR` as `BENCH_<id>.json`.
//!
//! The document carries the full rendered dataset (title, headers, sweep
//! rows, footnotes — everything the text table shows, cell for cell), the
//! engine parameterisation, and the wall-clock time of the run, so the
//! perf trajectory of the workspace can finally be tracked by tooling
//! instead of eyeballs. Hand-rolled writer: the workspace builds offline
//! and vendors no serde.

use crate::engine::TrialRunner;
use crate::table::Table;
use amac_obs::json::escape;
use std::fmt::Write as _;

fn string_array(items: impl IntoIterator<Item = impl AsRef<str>>) -> String {
    let body: Vec<String> = items
        .into_iter()
        .map(|s| format!("\"{}\"", escape(s.as_ref())))
        .collect();
    format!("[{}]", body.join(", "))
}

/// Serializes one experiment's results: the rendered table plus engine
/// parameters and wall-clock seconds. The output is a single pretty-ish
/// JSON object terminated by a newline.
pub fn experiment_json(
    id: &str,
    table: &Table,
    runner: &TrialRunner,
    smoke: bool,
    wall_clock_seconds: f64,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"experiment\": \"{}\",", escape(id));
    let _ = writeln!(out, "  \"title\": \"{}\",", escape(table.title()));
    let _ = writeln!(
        out,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(out, "  \"headers\": {},", string_array(table.headers()));
    out.push_str("  \"rows\": [\n");
    for (i, row) in table.rows().iter().enumerate() {
        let comma = if i + 1 < table.rows().len() { "," } else { "" };
        let _ = writeln!(out, "    {}{comma}", string_array(row));
    }
    out.push_str("  ],\n");
    let _ = writeln!(out, "  \"notes\": {},", string_array(table.notes()));
    out.push_str("  \"engine\": {\n");
    let _ = writeln!(out, "    \"trials\": {},", runner.trials());
    let _ = writeln!(out, "    \"max_trials\": {},", runner.max_trials());
    let _ = writeln!(out, "    \"jobs\": {},", runner.jobs());
    let _ = writeln!(
        out,
        "    \"target_ci\": {},",
        runner
            .target_ci()
            .map_or("null".to_string(), |f| format!("{f}"))
    );
    let _ = writeln!(out, "    \"trace_capture\": {}", runner.captures_traces());
    out.push_str("  },\n");
    let _ = writeln!(out, "  \"wall_clock_seconds\": {wall_clock_seconds:.6}");
    out.push_str("}\n");
    out
}

/// Serializes a trace summary — written as `TRACE_<id>.json` by
/// `repro <experiment> --record DIR --json OUT` (the live run's summary)
/// and as `REPLAY_<stem>.json` by `repro replay FILE --json OUT` (the
/// summary rebuilt from the file alone). For the same trace the two
/// documents differ only in `role` and `wall_clock_seconds`.
pub fn trace_json(
    role: &str,
    path: &str,
    summary: &amac_store::TraceSummary,
    wall_clock_seconds: f64,
) -> String {
    let h = &summary.header;
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"role\": \"{}\",", escape(role));
    let _ = writeln!(out, "  \"file\": \"{}\",", escape(path));
    out.push_str("  \"header\": {\n");
    let _ = writeln!(out, "    \"version\": {},", h.version);
    let _ = writeln!(out, "    \"variant\": \"{}\",", h.variant);
    let _ = writeln!(out, "    \"seed\": {},", h.seed);
    let _ = writeln!(out, "    \"f_prog\": {},", h.f_prog);
    let _ = writeln!(out, "    \"f_ack\": {},", h.f_ack);
    let _ = writeln!(out, "    \"nodes\": {},", h.nodes);
    let _ = writeln!(
        out,
        "    \"topology_digest\": \"0x{:016x}\",",
        h.topology_digest
    );
    let _ = writeln!(
        out,
        "    \"fault_plan_digest\": \"0x{:016x}\"",
        h.fault_plan_digest
    );
    out.push_str("  },\n");
    let _ = writeln!(out, "  \"events\": {},", summary.events);
    let _ = writeln!(out, "  \"faults\": {},", summary.faults);
    let _ = writeln!(out, "  \"quiescent\": {},", summary.quiescent);
    out.push_str("  \"stats\": {\n");
    let _ = writeln!(out, "    \"peak_live\": {},", summary.stats.peak_live);
    let _ = writeln!(out, "    \"peak_tracked\": {},", summary.stats.peak_tracked);
    let _ = writeln!(out, "    \"events\": {}", summary.stats.events);
    out.push_str("  },\n");
    out.push_str("  \"validation\": {\n");
    let _ = writeln!(out, "    \"ok\": {},", summary.validation.is_ok());
    let _ = writeln!(
        out,
        "    \"violations\": {}",
        string_array(
            summary
                .validation
                .violations()
                .iter()
                .map(std::string::ToString::to_string)
        )
    );
    out.push_str("  },\n");
    let _ = writeln!(out, "  \"wall_clock_seconds\": {wall_clock_seconds:.6}");
    out.push_str("}\n");
    out
}

/// Serializes one `repro check` exploration — written as
/// `CHECK_<scenario>.json` by `repro check ... --json DIR`. Carries the
/// full statistics block, the exhaustion flag, and the minimized
/// counterexample (or `null` for a clean space).
pub fn check_json(
    report: &amac_check::CheckReport,
    opts: &crate::check::CheckOptions,
    wall_clock_seconds: f64,
) -> String {
    let s = &report.stats;
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"scenario\": \"{}\",", escape(&report.scenario));
    let _ = writeln!(out, "  \"nodes\": {},", opts.nodes);
    let _ = writeln!(out, "  \"broken\": {},", opts.broken);
    let _ = writeln!(
        out,
        "  \"depth\": {},",
        opts.depth.map_or("null".to_string(), |d| d.to_string())
    );
    let _ = writeln!(out, "  \"max_schedules\": {},", opts.max_schedules);
    out.push_str("  \"stats\": {\n");
    let _ = writeln!(out, "    \"schedules\": {},", s.schedules);
    let _ = writeln!(out, "    \"distinct\": {},", s.distinct);
    let _ = writeln!(out, "    \"duplicates\": {},", s.duplicates);
    let _ = writeln!(out, "    \"events\": {},", s.events);
    let _ = writeln!(out, "    \"max_schedule_len\": {},", s.max_schedule_len);
    let _ = writeln!(out, "    \"depth_pinned\": {},", s.depth_pinned);
    let _ = writeln!(out, "    \"violations\": {}", s.violations);
    out.push_str("  },\n");
    let _ = writeln!(out, "  \"exhausted\": {},", report.exhausted);
    let _ = writeln!(out, "  \"clean\": {},", report.is_clean());
    match &report.counterexample {
        None => out.push_str("  \"counterexample\": null,\n"),
        Some(cx) => {
            out.push_str("  \"counterexample\": {\n");
            let _ = writeln!(out, "    \"property\": \"{}\",", escape(cx.property));
            let _ = writeln!(out, "    \"detail\": \"{}\",", escape(&cx.detail));
            let schedule: Vec<String> = cx.schedule.iter().map(u64::to_string).collect();
            let _ = writeln!(out, "    \"schedule\": [{}],", schedule.join(", "));
            let _ = writeln!(out, "    \"original_len\": {},", cx.original_len);
            let _ = writeln!(out, "    \"shrink_runs\": {},", cx.shrink_runs);
            let _ = writeln!(
                out,
                "    \"fixture\": {}",
                cx.fixture.as_ref().map_or("null".to_string(), |p| format!(
                    "\"{}\"",
                    escape(&p.display().to_string())
                ))
            );
            out.push_str("  },\n");
        }
    }
    let _ = writeln!(out, "  \"wall_clock_seconds\": {wall_clock_seconds:.6}");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_document_shape_is_valid_enough() {
        let opts = crate::check::CheckOptions {
            broken: true,
            max_schedules: 100_000,
            ..crate::check::CheckOptions::default()
        };
        let report = crate::check::run("consensus", &opts, None).unwrap();
        let doc = check_json(&report, &opts, 0.75);
        assert!(doc.starts_with("{\n") && doc.ends_with("}\n"));
        assert!(doc.contains("\"scenario\": \"consensus\","));
        assert!(doc.contains("\"broken\": true,"));
        assert!(doc.contains("\"depth\": null,"));
        assert!(doc.contains("\"clean\": false,"));
        assert!(doc.contains("\"property\": \"consensus\","));
        assert!(doc.contains("\"fixture\": null"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count(), "{doc}");
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn document_shape_is_valid_enough() {
        let mut t = Table::new("demo \"quoted\"", &["x", "y"]);
        t.row(["1", "2"]);
        t.row(["3", "4"]);
        t.note("a note");
        let runner = TrialRunner::new(3, 2)
            .with_max_trials(12)
            .with_target_ci(0.1);
        let doc = experiment_json("demo", &t, &runner, true, 0.25);
        assert!(doc.starts_with("{\n"));
        assert!(doc.ends_with("}\n"));
        assert!(doc.contains("\"experiment\": \"demo\""));
        assert!(doc.contains("\"title\": \"demo \\\"quoted\\\"\""));
        assert!(doc.contains("[\"1\", \"2\"],"));
        assert!(doc.contains("[\"3\", \"4\"]\n"));
        assert!(doc.contains("\"target_ci\": 0.1"));
        assert!(doc.contains("\"wall_clock_seconds\": 0.250000"));
        // Balanced braces/brackets (cheap well-formedness proxy).
        assert_eq!(doc.matches('{').count(), doc.matches('}').count(), "{doc}");
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn fixed_mode_serializes_null_target() {
        let t = Table::new("t", &["a"]);
        let doc = experiment_json("x", &t, &TrialRunner::single(), false, 1.0);
        assert!(doc.contains("\"target_ci\": null"));
        assert!(doc.contains("\"mode\": \"full\""));
        assert!(doc.contains("\"rows\": [\n  ],"));
    }

    #[test]
    fn trace_document_shape_is_valid_enough() {
        let dir = std::env::temp_dir().join("amac-bench-json-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let recorded = crate::record::consensus_crash(&dir, true);
        let doc = trace_json("recorded", "traces/x.amactrace", &recorded.summary, 0.5);
        assert!(doc.starts_with("{\n"));
        assert!(doc.ends_with("}\n"));
        assert!(doc.contains("\"role\": \"recorded\","));
        assert!(doc.contains("\"file\": \"traces/x.amactrace\","));
        assert!(doc.contains("\"version\": 1,"));
        assert!(doc.contains("\"variant\": \"enhanced\","));
        // Digests render as fixed-width hex strings, not JSON numbers
        // (u64 values overflow a double's integer range).
        let h = &recorded.summary.header;
        assert!(doc.contains(&format!(
            "\"topology_digest\": \"0x{:016x}\",",
            h.topology_digest
        )));
        assert!(doc.contains("\"ok\": true,"));
        assert!(doc.contains("\"violations\": []"));
        assert!(doc.contains("\"wall_clock_seconds\": 0.500000"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count(), "{doc}");
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
        std::fs::remove_file(&recorded.path).ok();
    }
}
