//! Scoped span timers: measure a region's wall time and record the
//! elapsed nanoseconds into a histogram on drop.

use crate::hist::Histogram;
use std::time::Instant;

/// RAII guard that records elapsed nanoseconds into its histogram when
/// dropped. Obtain one via [`Histogram::span`] or [`span`].
#[derive(Debug)]
pub struct Span<'a> {
    hist: &'a Histogram,
    start: Instant,
    armed: bool,
}

impl<'a> Span<'a> {
    /// Start timing against `hist`.
    pub fn new(hist: &'a Histogram) -> Self {
        Self {
            hist,
            start: Instant::now(),
            armed: true,
        }
    }

    /// Nanoseconds elapsed so far.
    fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Record now and consume the span (instead of waiting for scope
    /// exit). Returns the recorded nanoseconds.
    pub fn finish(mut self) -> u64 {
        let ns = self.elapsed_ns();
        self.hist.record(ns);
        self.armed = false;
        ns
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.hist.record(self.start.elapsed().as_nanos() as u64);
        }
    }
}

/// Start a span against `hist`; elapsed nanoseconds are recorded when
/// the returned guard drops.
pub fn span(hist: &Histogram) -> Span<'_> {
    Span::new(hist)
}

impl Histogram {
    /// Start a scoped timer recording into this histogram on drop.
    pub fn span(&self) -> Span<'_> {
        Span::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_on_drop() {
        let h = Histogram::new();
        {
            let _s = h.span();
            std::hint::black_box(1 + 1);
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn finish_records_once() {
        let h = Histogram::new();
        let s = h.span();
        let ns = s.finish();
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), ns);
    }
}
