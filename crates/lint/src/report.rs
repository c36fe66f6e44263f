//! Findings and the machine-readable report.

use crate::policy::Rule;

/// One rule violation at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Policy-root-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// Convenience constructor.
    pub fn new(file: &str, line: u32, col: u32, rule: Rule, message: String) -> Finding {
        Finding {
            file: file.to_string(),
            line,
            col,
            rule,
            message,
        }
    }

    /// `file:line:col rule message` — the CI-greppable form.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// Analyzer self-stats — parser/resolver coverage counters surfaced in
/// the JSON report so a syntax-layer regression (fns silently dropped,
/// calls going unresolved) is visible in CI diffs, not just in weaker
/// findings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Files run through the syntax layer.
    pub files_parsed: usize,
    /// Function items recovered.
    pub fns_parsed: usize,
    /// Call sites considered by the call graph.
    pub calls_total: usize,
    /// Calls with a unique workspace target.
    pub calls_resolved: usize,
    /// Calls with several same-name candidates (not followed).
    pub calls_ambiguous: usize,
    /// Calls with no workspace definition.
    pub calls_unresolved: usize,
    /// Policy-seeded secret values.
    pub taint_seeds: usize,
    /// Functions carrying taint at fixpoint.
    pub tainted_fns: usize,
    /// Files inside the lock-analysis scope.
    pub lock_files: usize,
    /// Mutex/channel events replayed.
    pub lock_events: usize,
    /// Acquisition edges in the global lock graph.
    pub lock_edges: usize,
    /// Wall-clock time of the analyses, milliseconds.
    pub elapsed_ms: u64,
}

/// A whole lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by file then position.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Self-stats of the interprocedural analyses.
    pub analysis: AnalysisStats,
}

impl Report {
    /// Did the run find nothing?
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Serializes the report as JSON (hand-rolled; the workspace is
    /// dependency-free by policy).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str("  \"tool\": \"shs-lint\",\n");
        s.push_str("  \"version\": 1,\n");
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str(&format!("  \"finding_count\": {},\n", self.findings.len()));
        let a = &self.analysis;
        s.push_str("  \"analysis\": {\n");
        s.push_str(&format!("    \"files_parsed\": {},\n", a.files_parsed));
        s.push_str(&format!("    \"fns_parsed\": {},\n", a.fns_parsed));
        s.push_str(&format!("    \"calls_total\": {},\n", a.calls_total));
        s.push_str(&format!("    \"calls_resolved\": {},\n", a.calls_resolved));
        s.push_str(&format!(
            "    \"calls_ambiguous\": {},\n",
            a.calls_ambiguous
        ));
        s.push_str(&format!(
            "    \"calls_unresolved\": {},\n",
            a.calls_unresolved
        ));
        s.push_str(&format!("    \"taint_seeds\": {},\n", a.taint_seeds));
        s.push_str(&format!("    \"tainted_fns\": {},\n", a.tainted_fns));
        s.push_str(&format!("    \"lock_files\": {},\n", a.lock_files));
        s.push_str(&format!("    \"lock_events\": {},\n", a.lock_events));
        s.push_str(&format!("    \"lock_edges\": {},\n", a.lock_edges));
        s.push_str(&format!("    \"elapsed_ms\": {}\n", a.elapsed_ms));
        s.push_str("  },\n");
        s.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {");
            s.push_str(&format!("\"file\": \"{}\", ", json_escape(&f.file)));
            s.push_str(&format!("\"line\": {}, ", f.line));
            s.push_str(&format!("\"col\": {}, ", f.col));
            s.push_str(&format!("\"rule\": \"{}\", ", f.rule));
            s.push_str(&format!("\"message\": \"{}\"", json_escape(&f.message)));
            s.push('}');
        }
        if !self.findings.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape() {
        let r = Report {
            files_scanned: 2,
            findings: vec![Finding::new(
                "a.rs",
                3,
                7,
                Rule::SecretCmp,
                "`==` with \"quotes\"".to_string(),
            )],
            ..Report::default()
        };
        let j = r.to_json();
        assert!(j.contains("\"files_scanned\": 2"));
        assert!(j.contains("\"rule\": \"secret-cmp\""));
        assert!(j.contains("\\\"quotes\\\""));
        // Every run executes the analyses, so the stats are always there.
        assert!(j.contains("\"analysis\": {"));
    }

    #[test]
    fn analysis_stats_serialized() {
        let r = Report {
            files_scanned: 1,
            findings: Vec::new(),
            analysis: AnalysisStats {
                files_parsed: 60,
                fns_parsed: 400,
                calls_total: 900,
                calls_resolved: 700,
                calls_ambiguous: 50,
                calls_unresolved: 150,
                ..AnalysisStats::default()
            },
        };
        let j = r.to_json();
        assert!(j.contains("\"fns_parsed\": 400"));
        assert!(j.contains("\"calls_unresolved\": 150"));
    }

    #[test]
    fn render_is_greppable() {
        let f = Finding::new("x/y.rs", 10, 4, Rule::PanicPath, "boom".to_string());
        assert_eq!(f.render(), "x/y.rs:10:4: [panic-path] boom");
    }
}
