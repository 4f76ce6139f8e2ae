//! Scalar metrics: monotonic counters and signed gauges.

use crate::registry::Registry;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn new() -> Self {
        Counter::default()
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A [`Counter`] that registers under its name on the first event, so a
/// registry that never sees the event keeps its key set. Without a registry
/// it counts nothing.
pub struct LazyCounter {
    registry: Option<Arc<Registry>>,
    name: &'static str,
    counter: OnceLock<Arc<Counter>>,
}

impl LazyCounter {
    pub fn new(registry: Option<&Arc<Registry>>, name: &'static str) -> Self {
        LazyCounter {
            registry: registry.cloned(),
            name,
            counter: OnceLock::new(),
        }
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        if let Some(registry) = &self.registry {
            self.counter
                .get_or_init(|| registry.counter(self.name))
                .add(n);
        }
    }

    /// Events counted so far (0 before the first one, and when detached).
    pub fn get(&self) -> u64 {
        self.counter.get().map_or(0, |c| c.get())
    }
}

/// An instantaneous level; signed so "lag" metrics can dip below zero
/// transiently without saturating.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub fn new() -> Self {
        Gauge::default()
    }

    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Raise the gauge to `v` if it is below it (high-water marks).
    pub fn max_of(&self, v: i64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_resets() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn lazy_counter_registers_on_first_event_only() {
        let registry = Arc::new(Registry::new());
        let before = registry.snapshot_json();
        let c = LazyCounter::new(Some(&registry), "x/events");
        assert_eq!(c.get(), 0);
        assert_eq!(registry.snapshot_json(), before);
        c.inc();
        c.add(2);
        assert_eq!(c.get(), 3);
        assert_eq!(registry.counter("x/events").get(), 3);

        let detached = LazyCounter::new(None, "x/events");
        detached.add(5);
        assert_eq!(detached.get(), 0);
        assert_eq!(registry.counter("x/events").get(), 3);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.add(5);
        g.sub(8);
        assert_eq!(g.get(), -3);
        g.set(7);
        g.max_of(3);
        assert_eq!(g.get(), 7);
        g.max_of(11);
        assert_eq!(g.get(), 11);
    }
}
