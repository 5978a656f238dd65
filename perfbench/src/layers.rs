//! Per-layer metrics of the traced run: benchmark-side timings around the
//! set-up calls, the timings the program returns per action, and the obs
//! registry of the traced phase (a fresh registry, so its totals are the
//! phase's delta).

use crate::record::Record;
use crate::stats::{median, ratio, Metrics};
use crate::workload::SetupTimes;
use prague_obs::{names, Snapshot};

/// Everything the per-layer view is computed from.
pub struct Inputs<'a> {
    pub setups: &'a [SetupTimes],
    /// `actions_per_s` of the untraced and the traced phase.
    pub untraced_rate: f64,
    pub traced_rate: f64,
    pub traced: &'a Record,
    pub snap: &'a Snapshot,
    pub pool_workers: usize,
}

pub fn metrics(i: &Inputs<'_>) -> Metrics {
    let mut m = Metrics::default();
    let s = i.snap;
    let c = |name: &str| s.counter(name).unwrap_or(0) as f64;
    let span_ms = |name: &str| s.span_total_ns_by_name(name) as f64 / 1e6;
    let span_n = |name: &str| s.span_count_by_name(name) as f64;
    let per_entry_ms = |name: &str| ratio(span_ms(name), span_n(name));
    let setup = |f: fn(&SetupTimes) -> f64| median(&i.setups.iter().map(f).collect::<Vec<_>>());

    // mining / index (set-up)
    m.set("mining.mine_s", setup(|t| t.mine.as_secs_f64()), "s");
    m.set("mining.frequent", setup(|t| t.frequent as f64), "count");
    m.set("mining.difs", setup(|t| t.difs as f64), "count");
    m.set("index.build_s", setup(|t| t.build.as_secs_f64()), "s");
    m.set("index.warm_s", setup(|t| t.warm.as_secs_f64()), "s");
    m.set("index.footprint_mb", setup(|t| t.footprint_mb), "MB");

    // spig (CAM included)
    let constructs = span_n(names::SPIG_CONSTRUCT);
    m.set("spig.constructs", constructs, "count");
    m.set(
        "spig.construct_ms",
        per_entry_ms(names::SPIG_CONSTRUCT),
        "ms",
    );
    m.set(
        "spig.cam_ms",
        ratio(span_ms(names::SPIG_CAM), constructs),
        "ms",
    );
    m.set(
        "spig.vertices_per_step",
        ratio(c(names::SPIG_VERTICES), constructs),
        "count",
    );
    m.set("spig.delete_ms", per_entry_ms(names::SPIG_DELETE), "ms");

    // candidates, memo, index lookups
    m.set(
        "candidates.step_ms",
        per_entry_ms(names::CANDIDATES_EXACT),
        "ms",
    );
    m.set(
        "candidates.similar_ms",
        per_entry_ms(names::CANDIDATES_SIMILAR),
        "ms",
    );
    let memo = c(names::CAND_MEMO_HITS) + c(names::CAND_MEMO_MISSES);
    m.set("cand.memo_lookups", memo, "count");
    m.set(
        "cand.memo_hit_ratio",
        ratio(c(names::CAND_MEMO_HITS), memo),
        "ratio",
    );
    let a2f = c(names::A2F_HITS) + c(names::A2F_MISSES);
    m.set("index.a2f_lookups", a2f, "count");
    m.set(
        "index.a2f_hit_ratio",
        ratio(c(names::A2F_HITS), a2f),
        "ratio",
    );
    let store = c(names::STORE_CACHE_HITS) + c(names::STORE_CACHE_MISSES);
    m.set("index.store_reads", store, "count");
    m.set(
        "index.store_hit_ratio",
        ratio(c(names::STORE_CACHE_HITS), store),
        "ratio",
    );

    // modify
    m.set("modify.ms", i.traced.modify_time.mean_ms(), "ms");
    m.set(
        "modify.suggest_ms",
        per_entry_ms(names::MODIFY_SUGGEST),
        "ms",
    );

    // session bookkeeping: in process, client step minus the step's own
    // phase timings; behind the server, the add_edge span minus its
    // children.
    let overhead = if i.traced.session_overhead.len() > 0 {
        i.traced.session_overhead.mean_ms()
    } else {
        let self_ns: u64 = s
            .spans()
            .iter()
            .filter(|sp| sp.name == names::SESSION_ADD_EDGE)
            .map(|sp| sp.total_ns.saturating_sub(sp.children_total_ns()))
            .sum();
        ratio(self_ns as f64 / 1e6, span_n(names::SESSION_ADD_EDGE))
    };
    m.set("session.overhead_ms", overhead, "ms");

    // verify / results
    let runs = span_n(names::SESSION_RUN);
    m.set("verify.runs", runs, "count");
    m.set(
        "verify.exact_ms",
        ratio(span_ms(names::VERIFY_EXACT), runs),
        "ms",
    );
    m.set(
        "results.similar_ms",
        per_entry_ms(names::RESULTS_SIMILAR),
        "ms",
    );
    m.set(
        "verify.vf2_states_per_run",
        ratio(c(names::VERIFY_VF2_STATES), runs),
        "count",
    );
    let exact = c(names::VERIFY_EXACT_CANDIDATES);
    let free = c(names::VERIFY_EXACT_FREE);
    let sim = c(names::VERIFY_SIM_CANDIDATES);
    m.set(
        "verify.candidates_per_run",
        ratio(exact + sim, runs),
        "count",
    );
    m.set("verify.exact_candidates", exact, "count");
    m.set("verify.free_ratio", ratio(free, exact), "ratio");
    let checked = exact - free + sim;
    let matched = c(names::VERIFY_EXACT_EMBEDDINGS) - free + c(names::VERIFY_SIM_EMBEDDINGS);
    m.set("verify.checked", checked, "count");
    m.set("verify.match_ratio", ratio(matched, checked), "ratio");

    // verification pool
    let jobs = c(names::PAR_JOBS);
    let busy_ms = c(names::PAR_BUSY_NS) / 1e6;
    let wall_ms = i.traced.wall.as_secs_f64() * 1e3;
    m.set("par.jobs", jobs, "count");
    m.set("par.busy_ms", busy_ms, "ms");
    m.set(
        "par.utilization",
        ratio(busy_ms, i.pool_workers as f64 * wall_ms),
        "ratio",
    );
    m.set(
        "par.cancel_ratio",
        ratio(c(names::PAR_CANCELLATIONS), jobs),
        "ratio",
    );
    m.set("par.steals", c(names::PAR_STEALS), "count");
    m.set("par.parks", c(names::PAR_PARKS), "count");
    m.set("par.seq_fallbacks", c(names::PAR_SEQ_FALLBACKS), "count");
    // Inline batches over all verification work units (inline batches
    // plus pool jobs).
    let fallbacks = c(names::PAR_SEQ_FALLBACKS);
    m.set(
        "par.seq_fallback_ratio",
        ratio(fallbacks, fallbacks + jobs),
        "ratio",
    );

    // server
    let t = i.traced;
    m.set("server.transport_ms", t.transport.mean_ms(), "ms");
    m.set("server.parse_us", t.parse.mean_ms() * 1e3, "us");
    let (qw_sum, qw_n) = s
        .histogram(names::SRV_QUEUE_WAIT_NS)
        .map_or((0.0, 0.0), |h| (h.sum as f64, h.count as f64));
    m.set("server.queue_wait_ms", ratio(qw_sum / 1e6, qw_n), "ms");
    m.set("server.frames", c(names::SRV_FRAMES), "count");
    m.set("server.frame_errors", c(names::SRV_FRAME_ERRORS), "count");
    m.set(
        "server.edge_p50_ms",
        t.reported_step.percentile(50.0).ms,
        "ms",
    );
    m.set(
        "server.run_p50_ms",
        t.reported_run.percentile(50.0).ms,
        "ms",
    );

    // tracing overhead
    let (on, off) = (i.traced_rate, i.untraced_rate);
    m.set("obs.traced_actions_per_s", on, "1/s");
    m.set("obs.untraced_actions_per_s", off, "1/s");
    m.set("obs.overhead_ratio", ratio(on, off), "ratio");
    m
}
