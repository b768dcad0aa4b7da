//! In-memory span and counter totals for the traced run.  Spans are
//! recorded by the benchmark around calls into the program's public
//! functions; nothing is recorded inside the program.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Default)]
pub struct Spans {
    /// name → (total µs, spans)
    times: BTreeMap<&'static str, (f64, u64)>,
    counters: BTreeMap<&'static str, f64>,
}

impl Spans {
    /// Closes a span opened at `started`.
    pub fn add(&mut self, name: &'static str, started: Instant) {
        let entry = self.times.entry(name).or_default();
        entry.0 += started.elapsed().as_secs_f64() * 1e6;
        entry.1 += 1;
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        *self.counters.entry(name).or_default() += value;
    }

    pub fn total_us(&self, name: &str) -> f64 {
        self.times.get(name).map_or(0.0, |t| t.0)
    }

    pub fn mean_us(&self, name: &str) -> f64 {
        match self.times.get(name) {
            Some(&(total, n)) if n > 0 => total / n as f64,
            _ => 0.0,
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }
}
