//! What a workload run produces, and how it is printed and recorded.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;

use crate::catalog;
use crate::sys;
use crate::trace::{self, Span};
use crate::RunCfg;

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Whether every correctness gate held.
    pub correct: bool,
    /// Messages of the gates that did not hold.
    pub gate_failures: Vec<String>,
    /// Operations attempted in the timed region.
    pub attempted: u64,
    /// Operations that failed, were shed or lagged.
    pub failed: u64,
    /// Metric values by catalog name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The workload's own end-to-end figures under the names the
    /// workload description uses (`harvest_docs_per_s`, ...).
    pub named: Vec<(String, f64, &'static str)>,
    /// Environment and input description.
    pub env: Vec<(&'static str, String)>,
    /// Spans of the traced run.
    pub spans: Vec<Span>,
    /// Set by a `--setup-only` run: set-up seconds and input digest.
    pub probe: Option<(f64, u64)>,
}

impl Outcome {
    /// An outcome with the environment every run records.
    pub fn new(cfg: &RunCfg) -> Self {
        let env = vec![
            ("workload", cfg.workload.clone()),
            ("seed", cfg.seed.to_string()),
            ("seconds", cfg.seconds.to_string()),
            ("trace", u8::from(cfg.trace).to_string()),
            ("nproc", sys::nproc().to_string()),
            ("rustc", sys::rustc_version()),
            ("profile", sys::profile().to_string()),
            ("git_rev", sys::git_rev()),
        ];
        Self { correct: true, env, ..Default::default() }
    }

    /// Records a correctness gate.
    pub fn gate(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.correct = false;
            self.gate_failures.push(what());
        }
    }

    /// Sets a catalog metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(catalog::unit(name).is_some(), "{name} is not in the catalog");
        self.metrics.insert(name, value);
    }

    /// Adds an environment entry.
    pub fn env(&mut self, key: &'static str, value: impl ToString) {
        self.env.push((key, value.to_string()));
    }

    /// Records a workload figure under its descriptive name.
    pub fn named(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.named.push((name.into(), value, unit));
    }

    /// The metrics of this mode, in catalog order. End-to-end metrics
    /// must all be measured and positive; a per-layer metric the
    /// workload did not touch reads 0.
    fn mode_metrics(&self, cfg: &RunCfg) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        let list = if cfg.trace { catalog::PER_LAYER } else { catalog::END_TO_END };
        list.iter()
            .map(|&(name, unit)| {
                let v = match (self.metrics.get(name), cfg.trace) {
                    (Some(&v), _) => v,
                    (None, true) => 0.0,
                    (None, false) => {
                        return Err(format!("end-to-end metric {name} was not measured"))
                    }
                };
                if !v.is_finite() || (!cfg.trace && v <= 0.0) {
                    return Err(format!("metric {name} = {v} is not a positive finite number"));
                }
                Ok((name, v, unit))
            })
            .collect()
    }

    /// Prints the environment, every metric by name and the final JSON
    /// line, and writes the run record (and, traced, the spans) under
    /// `cfg.out_dir`.
    pub fn emit(&self, cfg: &RunCfg) -> Result<(), String> {
        let metrics = self.mode_metrics(cfg)?;
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        let mut head = String::new();
        for (k, v) in &self.env {
            writeln!(head, "# env {k} = {v}").ok();
        }
        for (name, v, unit) in &self.named {
            writeln!(head, "# {name} {v} {unit}").ok();
        }
        writeln!(head, "# fail_ratio {} ratio", self.failed as f64 / self.attempted.max(1) as f64)
            .ok();
        for (name, v, unit) in &metrics {
            writeln!(head, "# metric {name} {v} {unit}").ok();
        }
        if cfg.trace {
            for (layer, ns) in trace::layer_self_ns(&self.spans) {
                writeln!(head, "# self_time {layer} {} ms", ns as f64 / 1e6).ok();
            }
        }
        for g in &self.gate_failures {
            writeln!(head, "# GATE FAILED: {g}").ok();
        }
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, v, unit)) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(line, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}").ok();
        }
        line.push_str("}}");
        self.write_record(cfg, &head, &line)?;
        let mut out = std::io::stdout().lock();
        writeln!(out, "{head}{line}").and_then(|()| out.flush()).map_err(|e| format!("stdout: {e}"))
    }

    fn write_record(&self, cfg: &RunCfg, head: &str, line: &str) -> Result<(), String> {
        std::fs::create_dir_all(&cfg.out_dir)
            .map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;
        let stem = format!("{}-seed{}-trace{}", cfg.workload, cfg.seed, u8::from(cfg.trace));
        let record = cfg.out_dir.join(format!("{stem}.txt"));
        std::fs::write(&record, format!("{head}{line}\n"))
            .map_err(|e| format!("{}: {e}", record.display()))?;
        if cfg.trace {
            let mut text = String::new();
            for s in &self.spans {
                writeln!(
                    text,
                    "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op\": {}, \"thread\": {}}}",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.op,
                    s.thread
                )
                .ok();
            }
            let path = cfg.out_dir.join(format!("{stem}.spans.jsonl"));
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        Ok(())
    }
}
