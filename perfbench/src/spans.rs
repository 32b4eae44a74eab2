//! Named figures recorded from the benchmark's own side of each call.

use std::time::Instant;

/// An ordered list of `(name, value)` figures; a name recorded twice keeps
/// its last value.
#[derive(Default)]
pub struct Spans {
    values: Vec<(String, f64)>,
}

impl Spans {
    /// Runs `f` and records its wall time in milliseconds under `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start.elapsed().as_secs_f64() * 1e3);
        out
    }

    /// Records one figure.
    pub fn record(&mut self, name: &str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name.to_string(), value)),
        }
    }

    /// The figure recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Every figure in recording order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(n, v)| (n.as_str(), *v))
    }
}
