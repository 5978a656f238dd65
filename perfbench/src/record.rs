//! What one measured phase observed from the client side: latency samples
//! per action class, failure counts, and the per-action timings the
//! program itself returns.

use crate::stats::{Percentile, Samples};
use crate::workload::Answer;
use std::time::Duration;

/// Action classes the end-to-end percentiles are taken over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Edge addition (the paper's `New` step), re-adds included.
    Step,
    /// Edge deletion or node relabel (`Modify`).
    Modify,
    /// `Run`.
    Run,
    /// Node drops, similarity switches, session open/close.
    Other,
}

#[derive(Debug, Default, Clone)]
pub struct Record {
    /// Every action, whatever its class (`frame_*`).
    pub all: Samples,
    pub step: Samples,
    pub modify: Samples,
    pub run: Samples,
    /// Actions sent (or called).
    pub attempted: u64,
    /// Actions that returned an error or a non-ok frame.
    pub errors: u64,
    /// Runs whose result differed from the reference answer.
    pub wrong: u64,
    /// Client-observed step minus `StepOutcome::total_time` (in-process).
    pub session_overhead: Samples,
    /// `ModifyOutcome::modify_time` (in-process) or the delete frame's
    /// `elapsed_ns` (serve).
    pub modify_time: Samples,
    /// Client latency minus the server-reported processing time (serve).
    pub transport: Samples,
    /// `parse_request` on each frame sent (serve).
    pub parse: Samples,
    /// The program's own step time: `StepOutcome::total_time`, or the
    /// edge frame's `elapsed_ns` (serve).
    pub reported_step: Samples,
    /// The program's own Run time: `RunOutcome::srt`, or the run frame's
    /// `srt_ns` (serve).
    pub reported_run: Samples,
    /// Wall-clock length of the phase.
    pub wall: Duration,
}

impl Record {
    pub fn action(&mut self, class: Class, latency: Duration) {
        self.attempted += 1;
        self.all.push(latency);
        match class {
            Class::Step => self.step.push(latency),
            Class::Modify => self.modify.push(latency),
            Class::Run => self.run.push(latency),
            Class::Other => {}
        }
    }

    /// Compare a Run result against the reference answer.
    pub fn check(&mut self, got: &Answer, want: &Answer) {
        if got != want {
            self.wrong += 1;
        }
    }

    pub fn failed(&self) -> u64 {
        self.errors + self.wrong
    }

    pub fn actions_per_s(&self) -> f64 {
        self.all.len() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Fold another record into this one (concurrent client threads: the
    /// walls overlap, so the longest is kept).
    pub fn merge(&mut self, o: &Record) {
        self.all.extend(&o.all);
        self.step.extend(&o.step);
        self.modify.extend(&o.modify);
        self.run.extend(&o.run);
        self.attempted += o.attempted;
        self.errors += o.errors;
        self.wrong += o.wrong;
        self.session_overhead.extend(&o.session_overhead);
        self.modify_time.extend(&o.modify_time);
        self.transport.extend(&o.transport);
        self.parse.extend(&o.parse);
        self.reported_step.extend(&o.reported_step);
        self.reported_run.extend(&o.reported_run);
        self.wall = self.wall.max(o.wall);
    }
}

/// A measured phase: the record of the whole phase and, in process, one
/// record per complete pass over the script pool.
///
/// Every pass replays each script once, so passes all do the same work,
/// and each metric is read per pass and summarised by the quartile on the
/// fast side: the upper quartile of the per-pass rates, the lower quartile
/// of the per-pass latency percentiles. On a shared host the speed of a
/// vCPU swings by a third over tens of seconds; the fast quartile of a
/// run's passes moved about half as much between runs as the median pass.
/// A time slice would not do instead of a pass: on `verify` a few seconds
/// cover two or three passes, and which scripts fall into the slice moved
/// its median Run by half. Over TCP one run covers less than a pass, so
/// `serve` reads the whole phase.
#[derive(Debug, Default)]
pub struct Phase {
    pub total: Record,
    pub passes: Vec<Record>,
}

impl Phase {
    /// `f` per pass, summarised by the fast quartile (or `f` of the whole
    /// phase when no pass completed). `higher_is_faster` tells which side
    /// is fast.
    fn fast_quartile(&self, higher_is_faster: bool, f: impl Fn(&Record) -> f64) -> f64 {
        if self.passes.is_empty() {
            return f(&self.total);
        }
        let mut xs: Vec<f64> = self.passes.iter().map(f).collect();
        xs.sort_by(f64::total_cmp);
        if higher_is_faster {
            xs.reverse();
        }
        xs[(xs.len() - 1) / 4]
    }

    pub fn actions_per_s(&self) -> f64 {
        self.fast_quartile(true, Record::actions_per_s)
    }

    /// Fast-quartile latency percentile `p` of `series` (ms).
    pub fn latency_ms(&self, p: f64, series: fn(&Record) -> &Samples) -> f64 {
        self.fast_quartile(false, |r| series(r).percentile(p).ms)
    }

    /// The readings the sample-count rule applies to: each pass's, or the
    /// whole phase's when no pass completed.
    pub fn readings(&self, p: f64, series: fn(&Record) -> &Samples) -> Vec<Percentile> {
        if self.passes.is_empty() {
            vec![series(&self.total).percentile(p)]
        } else {
            self.passes
                .iter()
                .map(|r| series(r).percentile(p))
                .collect()
        }
    }
}
