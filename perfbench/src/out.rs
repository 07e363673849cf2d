//! The one JSON line a benchmark process prints.

use spider_core::report::json_string;

/// Everything one process measured, counted and checked.
pub struct Report {
    /// CPU time from fork to the first timed call.
    pub setup_s: f64,
    /// First timed call to the end of the traced workload.
    pub timed_s: f64,
    /// Trace-only work inside `timed_s` (see `Spans::probe`).
    pub probe_s: f64,
    /// `(experiment or output id, digest of its rendered tables)`.
    digests: Vec<(String, String)>,
    /// Deterministic work counters.
    counters: Vec<(String, u64)>,
    /// Per-layer measurements (trace mode).
    layers: Vec<(String, f64)>,
    /// Output checks made here (operations attempted).
    pub checks: u64,
    /// Descriptions of the checks that failed.
    failures: Vec<String>,
}

impl Report {
    pub fn new(setup_s: f64) -> Self {
        Report {
            setup_s,
            timed_s: 0.0,
            probe_s: 0.0,
            digests: Vec::new(),
            counters: Vec::new(),
            layers: Vec::new(),
            checks: 0,
            failures: Vec::new(),
        }
    }

    pub fn digest(&mut self, id: &str, text: &str) {
        self.digests.push((id.to_owned(), crate::digest(text)));
    }

    pub fn counter(&mut self, name: &str, v: u64) {
        self.counters.push((name.to_owned(), v));
    }

    pub fn layer(&mut self, name: &str, v: f64) {
        self.layers.push((name.to_owned(), v));
    }

    /// Record one output check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"setup_s\":{:e},\"timed_s\":{:e},\"probe_s\":{:e},\"checks\":{}",
            self.setup_s, self.timed_s, self.probe_s, self.checks
        );
        s.push_str(",\"digests\":{");
        for (i, (k, v)) in self.digests.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            json_string(&mut s, k);
            s.push(':');
            json_string(&mut s, v);
        }
        s.push_str("},\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            json_string(&mut s, k);
            s.push_str(&format!(":{v}"));
        }
        s.push_str("},\"layers\":{");
        for (i, (k, v)) in self.layers.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            json_string(&mut s, k);
            // NaN/inf are not JSON; a non-finite layer value is a bug the
            // parent reports as a failure.
            if v.is_finite() {
                s.push_str(&format!(":{v:e}"));
            } else {
                s.push_str(":null");
            }
        }
        s.push_str("},\"failures\":[");
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            json_string(&mut s, f);
        }
        s.push_str("]}");
        s
    }
}
