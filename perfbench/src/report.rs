//! Metric summaries and the result line.

/// The `q`-quantile of `samples`, interpolating linearly between
/// neighbours (NaN when there are none).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Peak resident memory of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// One run's result: metrics that go into the result line, and
/// informational figures that are only printed.
pub struct Report {
    traced: bool,
    /// Operations the run attempted, and how many failed or were refused.
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<Metric>,
    info: Vec<Metric>,
}

impl Report {
    pub fn new(traced: bool) -> Report {
        Report {
            traced,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            info: Vec::new(),
        }
    }

    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    pub fn info(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.info.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Metrics that could not be computed.
    pub fn missing(&self) -> Vec<String> {
        self.metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| format!("metric {} could not be computed ({})", m.name, m.value))
            .collect()
    }

    /// Prints every figure by name with unit and sample count, then the
    /// result line.
    pub fn print(&self) {
        let kind = if self.traced { "layer" } else { "e2e" };
        for m in &self.metrics {
            println!(
                "{kind} {} = {} {} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        for m in &self.info {
            println!("info {} = {} {} (n={})", m.name, m.value, m.unit, m.samples);
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }
}
