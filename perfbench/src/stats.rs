//! Order statistics over a run's samples and the in-memory span log of
//! traced runs.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Linear-interpolated quantile `q` (`0.0..=1.0`) of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = at.floor() as usize;
    let high = at.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (at - low as f64)
}

/// The median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The median over consecutive groups of `group` values of each group's
/// quantile `q`: a tail that one disturbed stretch of a run cannot set. A
/// shorter last group counts only when there is no full one.
pub fn grouped_quantile(values: &[f64], group: usize, q: f64) -> f64 {
    let mut tails: Vec<f64> = values
        .chunks_exact(group)
        .map(|chunk| quantile(chunk, q))
        .collect();
    if tails.is_empty() {
        tails.push(quantile(values, q));
    }
    median(&tails)
}

/// Completed items per second in consecutive `slice`-long windows of a
/// closed loop, given each operation's completion offset from `start` and
/// its item count. Only whole slices count, so a run's tail does not skew
/// the median.
pub fn slice_rates(completions: &[(Duration, u64)], slice: Duration, wall: Duration) -> Vec<f64> {
    let slices = (wall.as_secs_f64() / slice.as_secs_f64()).floor() as usize;
    let mut items = vec![0u64; slices];
    for (at, count) in completions {
        let index = (at.as_secs_f64() / slice.as_secs_f64()) as usize;
        if let Some(bucket) = items.get_mut(index) {
            *bucket += count;
        }
    }
    items
        .into_iter()
        .map(|count| count as f64 / slice.as_secs_f64())
        .collect()
}

/// One named measurement of a run, as printed in its result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// One recorded span: a named interval, the span that caused it, and how
/// many calls into the layer it covers.
#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    pub name: String,
    pub start: Duration,
    pub duration: Duration,
    pub calls: u64,
}

/// Spans kept in memory during a traced run and written out at its end.
/// Span IDs are indices into the log, so a parent always precedes its
/// children.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Open a span; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            parent,
            name: name.into(),
            start: self.origin.elapsed(),
            duration: Duration::ZERO,
            calls: 0,
        });
        self.spans.len() - 1
    }

    /// Close span `id`, recording how many layer calls it covered.
    pub fn close(&mut self, id: usize, calls: u64) -> Duration {
        let now = self.origin.elapsed();
        let span = &mut self.spans[id];
        span.duration = now - span.start;
        span.calls = calls;
        span.duration
    }

    /// Record an already-timed interval that ended now.
    pub fn record(&mut self, name: &str, parent: Option<usize>, duration: Duration, calls: u64) {
        let end = self.origin.elapsed();
        self.spans.push(Span {
            parent,
            name: name.to_string(),
            start: end.saturating_sub(duration),
            duration,
            calls,
        });
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_time(&self, id: usize) -> Duration {
        let children: Duration = self
            .spans
            .iter()
            .filter(|span| span.parent == Some(id))
            .map(|span| span.duration)
            .sum();
        self.spans[id].duration.saturating_sub(children)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The log as JSON lines: `id`, `parent`, `name`, `start_us`,
    /// `duration_us`, `self_us`, `calls`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":{:?},\"start_us\":{:.3},\"duration_us\":{:.3},\"self_us\":{:.3},\"calls\":{}}}",
                span.name,
                span.start.as_secs_f64() * 1e6,
                span.duration.as_secs_f64() * 1e6,
                self.self_time(id).as_secs_f64() * 1e6,
                span.calls
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0], 1.0), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn grouped_quantiles_take_the_median_group() {
        let values: Vec<f64> = (0..30).map(|i| (i % 10) as f64).collect();
        assert_eq!(grouped_quantile(&values, 10, 1.0), 9.0);
        let mut disturbed = values.clone();
        disturbed[25] = 100.0;
        assert_eq!(grouped_quantile(&disturbed, 10, 1.0), 9.0);
        assert_eq!(grouped_quantile(&values[..5], 10, 1.0), 4.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new();
        let root = log.open("root", None);
        log.record("child", Some(root), Duration::from_micros(1), 1);
        std::thread::sleep(Duration::from_millis(2));
        let total = log.close(root, 1);
        assert_eq!(log.self_time(root), total - Duration::from_micros(1));
        assert!(log.to_jsonl().lines().count() == 2);
    }

    #[test]
    fn slice_rates_drop_the_partial_tail() {
        let ms = Duration::from_millis;
        let rates = slice_rates(&[(ms(10), 2), (ms(150), 3), (ms(260), 5)], ms(100), ms(250));
        assert_eq!(rates, vec![20.0, 30.0]);
    }
}
