//! `paper_rest`: every registry driver except E5 and E7, in registry order,
//! with their tables rendered.

use spider_core::config::Scale;
use spider_core::experiments::e08_namespaces::run_federation;
use spider_core::experiments::{registry, ExperimentEntry};
use spider_core::Table;

use crate::out::Report;
use crate::{render, Spans, Workload};

/// Experiments timed as their own layer; the rest share `exp.other_s`.
fn span_name(id: &str) -> &'static str {
    match id {
        "E1" => "exp.E1_s",
        "E4" => "exp.E4_s",
        "E6" => "exp.E6_s",
        "E8" => "exp.E8_s",
        "E12" => "exp.E12_s",
        "E16" => "exp.E16_s",
        "E17" => "exp.E17_s",
        "E20" => "exp.E20_s",
        _ => "exp.other_s",
    }
}

/// E8d's federation storm: namespaces, ops per namespace, remote shares and
/// seed, as the E8 driver runs it at paper scale.
const FEDERATION: (usize, u32, [f64; 3], u64) = (8, 4_000, [0.0, 0.1, 0.3], 0xE8D);

pub struct PaperRest {
    drivers: Vec<ExperimentEntry>,
}

impl PaperRest {
    pub fn new() -> Self {
        PaperRest {
            drivers: registry()
                .into_iter()
                .filter(|e| e.id != "E5" && e.id != "E7")
                .collect(),
        }
    }
}

/// Sum a column of the E8d federation table (the driver's own PDES counts).
fn e8d_column(tables: &[Table], header: &str) -> u64 {
    tables
        .iter()
        .filter(|t| t.title.starts_with("E8d"))
        .flat_map(|t| {
            let c = t.headers.iter().position(|h| h == header);
            t.rows
                .iter()
                .filter_map(move |r| c.and_then(|c| r[c].parse::<u64>().ok()))
        })
        .sum()
}

/// Record E8d's epoch and cross-message totals; returns them.
fn pdes_counters(rep: &mut Report, tables: &[Table]) -> (u64, u64) {
    let counts = (
        e8d_column(tables, "epoch barriers"),
        e8d_column(tables, "cross-ns msgs"),
    );
    rep.counter("simkit.pdes.epochs", counts.0);
    rep.counter("simkit.pdes.cross_messages", counts.1);
    counts
}

impl Workload for PaperRest {
    fn run(&mut self, rep: &mut Report) {
        for e in &self.drivers {
            let tables = (e.run)(Scale::Paper);
            rep.digest(e.id, &render(&tables));
            if e.id == "E8" {
                pdes_counters(rep, &tables);
            }
        }
        rep.counter("experiments_run", self.drivers.len() as u64);
    }

    fn trace(&mut self, spans: &mut Spans, rep: &mut Report) {
        let mut printed = (0, 0);
        for e in &self.drivers {
            let tables = spans.span(span_name(e.id), || (e.run)(Scale::Paper));
            let text = spans.span("core.report.render_s", || render(&tables));
            rep.digest(e.id, &text);
            if e.id == "E8" {
                printed = pdes_counters(rep, &tables);
            }
        }
        rep.counter("experiments_run", self.drivers.len() as u64);

        // The PDES layer alone: E8d's three federation storms, called
        // directly. They must count what E8's table printed.
        let (namespaces, ops, shares, seed) = FEDERATION;
        let probed = spans.probe("simkit.pdes.federation_s", || {
            shares.iter().fold((0, 0), |(ep, msg), &share| {
                let (_, stats) = run_federation(namespaces, ops, share, seed);
                (ep + stats.epochs, msg + stats.cross_messages)
            })
        });
        rep.check(probed == printed, || {
            format!("federation probe counted {probed:?}, E8d printed {printed:?}")
        });
    }
}
