//! Trace windowing for sampled simulation.
//!
//! The paper runs benchmarks to completion (100M+ instructions); at that
//! scale, trace-driven cycle simulation is usually *sampled*: the timing
//! model runs over periodic windows and the results are extrapolated.
//! [`Trace::windows`] provides the slicing, keeping each window aligned
//! with its slice of per-load annotations via
//! [`TraceWindow::load_offset`].

use crate::{Iter, PredOutcome, Trace};

/// One sampling window of a trace.
#[derive(Debug, Clone)]
pub struct TraceWindow {
    /// Index of the window's first instruction in the parent trace.
    pub start: usize,
    /// Number of dynamic loads preceding the window in the parent trace;
    /// index into the parent's per-load annotation vector.
    pub load_offset: usize,
    /// The window itself, as an owned trace.
    pub trace: Trace,
}

impl TraceWindow {
    /// Slices a parent annotation vector down to this window's loads.
    ///
    /// # Panics
    ///
    /// Panics if `outcomes` is shorter than the parent trace requires.
    pub fn outcomes<'a>(&self, outcomes: &'a [PredOutcome]) -> &'a [PredOutcome] {
        let n = self.trace.stats().loads as usize;
        &outcomes[self.load_offset..self.load_offset + n]
    }
}

/// Iterator over periodic sampling windows; see [`Trace::windows`].
#[derive(Debug)]
pub struct Windows<'a> {
    /// Cursor at entry `scanned_until` of the parent trace.
    cursor: Iter<'a>,
    len: usize,
    window: usize,
    stride: usize,
    next_start: usize,
    loads_seen: usize,
    scanned_until: usize,
}

impl Iterator for Windows<'_> {
    type Item = TraceWindow;

    fn next(&mut self) -> Option<TraceWindow> {
        if self.next_start >= self.len {
            return None;
        }
        // Advance the load prefix count to the window start.
        while self.scanned_until < self.next_start {
            if self.cursor.next().is_some_and(|e| e.is_load()) {
                self.loads_seen += 1;
            }
            self.scanned_until += 1;
        }
        let start = self.next_start;
        // The window is read through a clone: the cursor itself stays at
        // the window's start, where the load count for the next window
        // (which may overlap this one) resumes.
        let trace: Trace = self.cursor.clone().take(self.window).collect();
        self.next_start = start + self.stride;
        Some(TraceWindow {
            start,
            load_offset: self.loads_seen,
            trace,
        })
    }
}

impl Trace {
    /// Returns periodic windows of `window` instructions, one every
    /// `stride` instructions (set `stride == window` for back-to-back
    /// coverage; larger strides sample). The final window may be short.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `stride` is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use lvp_trace::{OpKind, Trace, TraceEntry};
    /// let t: Trace = (0..100)
    ///     .map(|i| TraceEntry::simple(0x1000 + 4 * i, OpKind::IntSimple))
    ///     .collect();
    /// let windows: Vec<_> = t.windows(10, 50).collect();
    /// assert_eq!(windows.len(), 2);
    /// assert_eq!(windows[1].start, 50);
    /// ```
    pub fn windows(&self, window: usize, stride: usize) -> Windows<'_> {
        assert!(window > 0, "window length must be positive");
        assert!(stride > 0, "stride must be positive");
        Windows {
            cursor: self.iter(),
            len: self.len(),
            window,
            stride,
            next_start: 0,
            loads_seen: 0,
            scanned_until: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{MemAccess, OpKind, TraceEntry};

    fn mixed_trace(n: usize) -> Trace {
        (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    let mut e = TraceEntry::simple(0x1000 + 4 * i as u64, OpKind::Load);
                    e.mem = Some(MemAccess {
                        addr: 0x10_0000 + 8 * (i as u64 % 8),
                        width: 8,
                        value: i as u64,
                        fp: false,
                    });
                    e
                } else {
                    TraceEntry::simple(0x1000 + 4 * i as u64, OpKind::IntSimple)
                }
            })
            .collect()
    }

    #[test]
    fn back_to_back_windows_cover_everything() {
        let t = mixed_trace(95);
        let windows: Vec<_> = t.windows(10, 10).collect();
        assert_eq!(windows.len(), 10);
        let total: u64 = windows.iter().map(|w| w.trace.stats().instructions).sum();
        assert_eq!(total, 95);
        assert_eq!(windows[9].trace.len(), 5, "final window is short");
    }

    #[test]
    fn load_offsets_align_with_annotations() {
        let t = mixed_trace(60);
        let outcomes: Vec<PredOutcome> = (0..t.stats().loads)
            .map(|i| {
                if i % 2 == 0 {
                    PredOutcome::Correct
                } else {
                    PredOutcome::NotPredicted
                }
            })
            .collect();
        let mut reconstructed = Vec::new();
        for w in t.windows(15, 15) {
            reconstructed.extend_from_slice(w.outcomes(&outcomes));
        }
        assert_eq!(
            reconstructed, outcomes,
            "window slices must tile the annotation vector"
        );
    }

    #[test]
    fn sampling_skips_between_windows() {
        let t = mixed_trace(100);
        let windows: Vec<_> = t.windows(10, 40).collect();
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].start, 0);
        assert_eq!(windows[1].start, 40);
        assert_eq!(windows[2].start, 80);
        // load_offset counts loads in the skipped regions too.
        let loads_before_80 = t.iter().take(80).filter(|e| e.is_load()).count();
        assert_eq!(windows[2].load_offset, loads_before_80);
    }

    #[test]
    #[should_panic(expected = "window length")]
    fn zero_window_panics() {
        let t = mixed_trace(10);
        let _ = t.windows(0, 5);
    }
}
