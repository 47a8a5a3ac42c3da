//! In-memory spans recorded around calls into each layer.
//!
//! A [`Tracer`] holds the spans of one unit of work — a study job, a
//! fault-sweep shard, one request — which share its id. Each span has a
//! name, start, end and parent; a layer's self time is its span's
//! duration minus the part its direct children cover. Spans stay in
//! memory until the run ends, when [`write`] dumps them as JSON.

use og_json::Json;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One timed interval, in nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The spans of one unit of work.
pub struct Tracer {
    epoch: Instant,
    pub id: u64,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(epoch: Instant, id: u64) -> Tracer {
        Tracer { epoch, id, spans: Vec::new(), stack: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per unit");
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent, start_ns, end_ns: start_ns });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx as usize].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p as usize] = own[p as usize].saturating_sub(span.dur_ns());
            }
        }
        own
    }

    /// Total nanoseconds inside spans named `name` (self time).
    pub fn self_of(&self, name: &str) -> u64 {
        self.self_ns()
            .iter()
            .zip(&self.spans)
            .filter(|(_, s)| s.name == name)
            .map(|(ns, _)| *ns)
            .sum()
    }

    /// Duration of the unit's root spans.
    pub fn root_ns(&self) -> u64 {
        self.spans.iter().filter(|s| s.parent.is_none()).map(Span::dur_ns).sum()
    }
}

/// All traced units of one workload.
pub struct Trace {
    pub workload: &'static str,
    pub units: Vec<Tracer>,
}

impl Trace {
    pub fn new(workload: &'static str, mut units: Vec<Tracer>) -> Trace {
        units.sort_by_key(|t| t.id);
        Trace { workload, units }
    }

    /// Σ self time and occurrence count of spans named `name`.
    pub fn self_total(&self, name: &str) -> (u64, u64) {
        let mut total = 0;
        let mut count = 0;
        for unit in &self.units {
            for (ns, span) in unit.self_ns().iter().zip(unit.spans()) {
                if span.name == name {
                    total += ns;
                    count += 1;
                }
            }
        }
        (total, count)
    }

    /// Σ self time of spans named `name`, seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_total(name).0 as f64 / 1e9
    }

    /// Mean self time per occurrence of spans named `name`, microseconds.
    pub fn mean_self_us(&self, name: &str) -> f64 {
        let (total, count) = self.self_total(name);
        total as f64 / 1e3 / count.max(1) as f64
    }

    /// Share of the units' root time that no layer span covers.
    pub fn unattributed_frac(&self) -> f64 {
        let mut root = 0u64;
        let mut loose = 0u64;
        for unit in &self.units {
            let own = unit.self_ns();
            for (ns, span) in own.iter().zip(unit.spans()) {
                if span.parent.is_none() {
                    root += span.dur_ns();
                    loose += ns;
                }
            }
        }
        loose as f64 / root.max(1) as f64
    }

    /// The longest unit (root duration), seconds.
    pub fn critical_unit_s(&self) -> f64 {
        self.units.iter().map(Tracer::root_ns).max().unwrap_or(0) as f64 / 1e9
    }

    /// Σ root durations of the units, seconds — busy time of whatever
    /// ran them.
    pub fn busy_s(&self) -> f64 {
        self.units.iter().map(Tracer::root_ns).sum::<u64>() as f64 / 1e9
    }

    fn to_json(&self) -> Json {
        let units = self
            .units
            .iter()
            .map(|unit| {
                let spans = unit
                    .spans()
                    .iter()
                    .map(|s| {
                        Json::Arr(vec![
                            Json::Str(s.name.into()),
                            Json::Num(s.parent.map_or(-1.0, f64::from)),
                            Json::Num(s.start_ns as f64),
                            Json::Num(s.end_ns as f64),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    ("id".into(), Json::Num(unit.id as f64)),
                    ("spans".into(), Json::Arr(spans)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.into())),
            ("span_fields".into(), Json::Str("name, parent index, start_ns, end_ns".into())),
            ("units".into(), Json::Arr(units)),
        ])
    }
}

/// Write every trace to `<dir>/trace-seed<seed>.json`; returns the path.
pub fn write(dir: &Path, seed: u64, traces: &[Trace]) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-seed{seed}.json"));
    let json = Json::Arr(traces.iter().map(Trace::to_json).collect());
    let text = og_json::render(&json).map_err(|e| format!("render trace: {e}"))?;
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(Instant::now(), 0);
        t.span("root", |t| {
            t.span("a", |t| {
                t.span("b", |_| std::thread::sleep(std::time::Duration::from_millis(2)))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        let own = t.self_ns();
        assert_eq!(own[0] + own[1] + own[2], spans[0].dur_ns());
        assert!(own[2] >= 2_000_000);
        let trace = Trace::new("x", vec![t]);
        assert!(trace.unattributed_frac() < 0.5);
        assert_eq!(trace.self_total("b").1, 1);
    }
}
