//! Metric assembly and output.

use crate::stats;
use crate::work::{Iteration, Leg, Spec};
use std::collections::BTreeMap;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count and provenance, printed beside the value.
    pub note: String,
}

/// Ordered metric list.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Append a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note,
        });
    }

    /// Append the median of `xs`.
    pub fn median(&mut self, name: &str, xs: &[f64], unit: &'static str) -> Result<(), String> {
        let s = stats::summarize(xs).ok_or_else(|| format!("{name}: no samples"))?;
        let note = match s.tail {
            Some((p, v)) => format!("median, n={}, p{p}={v}", s.n),
            None => format!("median, n={}", s.n),
        };
        self.push(name, s.median, unit, note);
        Ok(())
    }

    /// Append percentile `pct` of `xs`, refusing an unsupported one.
    pub fn pct(
        &mut self,
        name: &str,
        xs: &[f64],
        pct: f64,
        unit: &'static str,
    ) -> Result<(), String> {
        let v = stats::percentile(xs, pct).map_err(|e| format!("{name}: {e}"))?;
        self.push(name, v, unit, format!("p{pct}, n={}", xs.len()));
        Ok(())
    }

    /// Mark the last metric as read from the program's report structs
    /// rather than timed from outside.
    pub fn program_reported(&mut self) {
        if let Some(m) = self.0.last_mut() {
            m.note.push_str(", program-reported");
        }
    }

    /// Human-readable lines, grouped by the name's layer prefix.
    pub fn print(&self) {
        let mut group = "";
        for m in &self.0 {
            let g = m.name.rsplit_once('.').map_or("", |(g, _)| g);
            if g != group && !g.is_empty() {
                println!("[{g}]");
                group = g;
            }
            println!("{} = {} {} ({})", m.name, m.value, m.unit, m.note);
        }
    }

    /// The result line.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .filter(|m| m.value.is_finite())
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

/// Checkpoint stalls of the legs, in ms, and each round's latency: first
/// rank's stall start to last rank's stall end.
pub fn stalls_and_rounds<'a>(legs: impl Iterator<Item = &'a Leg>) -> (Vec<f64>, Vec<f64>) {
    let mut stalls = Vec::new();
    let mut rounds = Vec::new();
    for leg in legs {
        let mut by_round = BTreeMap::new();
        for s in leg.logs.iter().flat_map(|l| &l.stalls) {
            stalls.push((s.end - s.start).as_secs_f64() * 1e3);
            let e = by_round.entry(s.round).or_insert((s.start, s.end));
            e.0 = e.0.min(s.start);
            e.1 = e.1.max(s.end);
        }
        rounds.extend(
            by_round
                .values()
                .map(|(a, b)| (*b - *a).as_secs_f64() * 1e3),
        );
    }
    (stalls, rounds)
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(spec: &Spec, iters: &[Iteration]) -> Result<Metrics, String> {
    let steps = spec.md.steps as f64;
    let mut m = Metrics::default();
    let setup: Vec<f64> = iters.iter().map(|it| it.ckpt.setup()).collect();
    m.median("setup_s", &setup, "s")?;
    let sps: Vec<f64> = iters.iter().map(|it| steps / it.measured_wall()).collect();
    m.median("steps_per_s", &sps, "steps/s")?;
    let ratio: Vec<f64> = iters
        .iter()
        .map(|it| it.measured_wall() / it.native.wall())
        .collect();
    m.median("overhead_x", &ratio, "ratio")?;
    let (stalls, rounds) = stalls_and_rounds(iters.iter().flat_map(|it| [&it.ckpt, &it.restart]));
    // The p99 is printed in this line's note (the run measures until it
    // is supported) but is not a gated metric: one slow round sets it.
    m.median("ckpt_stall_ms_p50", &stalls, "ms")?;
    m.median("round_ms_p50", &rounds, "ms")?;
    let restart: Vec<f64> = iters.iter().map(|it| it.restart.setup()).collect();
    m.median("restart_s", &restart, "s")?;
    let restart_leg: Vec<f64> = iters.iter().map(|it| it.restart.wall()).collect();
    m.median("restart_leg_s", &restart_leg, "s")?;
    let image: Vec<f64> = iters
        .iter()
        .flat_map(|it| [&it.ckpt, &it.restart])
        .filter_map(|l| l.mana.as_ref())
        .flat_map(|f| &f.rounds)
        .map(|r| r.total_image_bytes as f64 / spec.ranks as f64)
        .collect();
    m.median("image_bytes_per_rank", &image, "B")?;
    m.push("peak_rss_mb", peak_rss_mb()?, "MiB", "VmHWM".into());
    Ok(m)
}
