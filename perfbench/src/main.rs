//! PRAGUE benchmark: `formulate` and `serve` workloads.
//!
//! ```text
//! perfbench --workload <formulate|serve> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Generates the workload's corpus and query pool, times the index
//! set-up, computes brute-force reference answers (untimed), replays the
//! pool closed-loop in the seed's order for `--seconds`, and prints one
//! JSON result line last on stdout. `--trace 0` reports the end-to-end metrics
//! with observability off; `--trace 1` splits the time between an
//! untraced and a traced phase and reports the per-layer metrics.
//! See `perfbench/README.md`.

mod inproc;
mod layers;
mod record;
mod serve;
mod stats;
mod workload;

use prague::PragueSystem;
use prague_obs::{Obs, Snapshot};
use prague_server::{Server, ServerConfig, SessionManager, SystemClock};
use record::{Phase, Record};
use stats::{median, num, Metrics, Percentile, Samples};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Config, Script, SetupTimes, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: bad {what} '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad("length"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
    })
}

fn main() {
    let outcome = parse_args().and_then(|args| run(&args));
    match outcome {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
        }
        Err(e) => {
            eprintln!("[perfbench] error: {e}");
            std::process::exit(1);
        }
    }
}

/// A system ready to serve the measured phases, with its set-up timings.
struct Prepared {
    system: PragueSystem,
    scripts: Vec<Script>,
    setups: Vec<SetupTimes>,
    /// Per set-up: mining + build + warm (+ server bind for `serve`).
    setup_s: Vec<f64>,
    warm_up: Record,
}

fn prepare(cfg: &Config, seed: u64) -> Result<Prepared, String> {
    let t = Instant::now();
    let ds = workload::dataset(cfg);
    eprintln!(
        "[perfbench] corpus generated in {:.2}s",
        t.elapsed().as_secs_f64()
    );
    let mut setups = Vec::new();
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..cfg.setups {
        // Drop the previous build first, so peak memory reflects one system.
        drop(kept.take());
        let (system, frequent, times) = workload::build_system(&ds, cfg)?;
        let mut total = times.total();
        let system = if cfg.workload == Workload::Serve {
            let t = Instant::now();
            let server = start_server(system)?;
            total += t.elapsed();
            stop_server(server)?
        } else {
            system
        };
        setups.push(times);
        setup_s.push(total.as_secs_f64());
        kept = Some((system, frequent));
    }
    let (system, frequent) = kept.ok_or("at least one set-up")?;
    eprintln!(
        "[perfbench] {}: {} graphs, {} frequent, {} DIFs, set-up {:.3}s (median of {})",
        cfg.workload.name(),
        system.db().len(),
        setups[0].frequent,
        setups[0].difs,
        median(&setup_s),
        setup_s.len()
    );

    let t = Instant::now();
    let specs = workload::queries(system.db(), &frequent, cfg, available_cores());
    eprintln!(
        "[perfbench] queries derived in {:.2}s",
        t.elapsed().as_secs_f64()
    );
    let t = Instant::now();
    let answers = workload::references(system.db(), &specs, workload::SIGMA, available_cores());
    eprintln!(
        "[perfbench] {} scripts, reference answers in {:.2}s",
        specs.len(),
        t.elapsed().as_secs_f64()
    );
    let mut scripts: Vec<Script> = specs
        .iter()
        .zip(answers)
        .map(|(spec, answer)| Script {
            ops: workload::plan(spec),
            answer,
        })
        .collect();
    workload::shuffle(&mut scripts, seed);

    // One unrecorded in-process pass over every script: warms the caches
    // and checks each script's answer once before timing starts.
    let t = Instant::now();
    let warm_up = inproc::warm_up(&system, &scripts);
    eprintln!(
        "[perfbench] warm-up pass in {:.2}s",
        t.elapsed().as_secs_f64()
    );
    Ok(Prepared {
        system,
        scripts,
        setups,
        setup_s,
        warm_up,
    })
}

/// Run one measured phase with `obs` attached; returns the system back
/// with the phase's record and (when tracing) its registry snapshot.
fn phase(
    mut system: PragueSystem,
    scripts: &[Script],
    cfg: &Config,
    length: Duration,
    obs: Obs,
    trace: bool,
) -> Result<(PragueSystem, Phase, Option<Snapshot>), String> {
    system.set_obs(obs);
    if cfg.workload != Workload::Serve {
        let rec = inproc::drive(&system, scripts, length);
        let snap = system.obs().snapshot();
        return Ok((system, rec, snap));
    }
    let server = start_server(system)?;
    let rec = serve::drive(server.1.local_addr(), scripts, length, trace);
    let snap = server.0.system().obs().snapshot();
    let system = stop_server(server)?;
    Ok((
        system,
        Phase {
            total: rec?,
            passes: Vec::new(),
        },
        snap,
    ))
}

type Running = (Arc<SessionManager>, Server);

fn start_server(system: PragueSystem) -> Result<Running, String> {
    let mgr = Arc::new(SessionManager::new(
        Arc::new(system),
        ServerConfig::default(),
        Arc::new(SystemClock::new()),
    ));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&mgr)).map_err(|e| format!("bind: {e}"))?;
    Ok((mgr, server))
}

fn stop_server((mgr, server): Running) -> Result<PragueSystem, String> {
    server.shutdown();
    let system = Arc::clone(mgr.system());
    drop(mgr);
    Arc::try_unwrap(system).map_err(|_| "server still holds the system after shutdown".to_owned())
}

fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run(args: &Args) -> Result<Vec<String>, String> {
    let cfg = Config::new(args.workload, args.tiny);
    let length = Duration::from_secs_f64(args.seconds.max(0.1));
    let prepared = prepare(&cfg, args.seed)?;
    let Prepared {
        system,
        scripts,
        setups,
        setup_s,
        warm_up,
    } = prepared;

    let (metrics, measured, samples, passes) = if args.trace {
        let half = length / 2;
        let (system, untraced, _) = phase(system, &scripts, &cfg, half, Obs::disabled(), true)?;
        let (_system, traced, snap) = phase(system, &scripts, &cfg, half, Obs::enabled(), true)?;
        let snap = snap.ok_or("traced phase produced no snapshot")?;
        let m = layers::metrics(&layers::Inputs {
            setups: &setups,
            untraced_rate: untraced.actions_per_s(),
            traced_rate: traced.actions_per_s(),
            traced: &traced.total,
            snap: &snap,
            pool_workers: cfg.threads,
        });
        let samples = vec![
            (
                "server.edge_p50_ms",
                traced.total.reported_step.percentile(50.0),
            ),
            (
                "server.run_p50_ms",
                traced.total.reported_run.percentile(50.0),
            ),
        ];
        let passes = traced.passes.len();
        let mut measured = untraced.total;
        measured.merge(&traced.total);
        (m, measured, samples, passes)
    } else {
        let (_system, rec, _) = phase(system, &scripts, &cfg, length, Obs::disabled(), false)?;
        let (m, samples) = end_to_end(&rec, &setup_s, !args.tiny)?;
        let passes = rec.passes.len();
        (m, rec.total, samples, passes)
    };

    let attempted = measured.attempted + warm_up.attempted;
    let failed = measured.failed() + warm_up.failed();
    eprintln!(
        "[perfbench] {}: {} actions in {:.2}s, {} errors, {} wrong results",
        cfg.workload.name(),
        measured.attempted,
        measured.wall.as_secs_f64(),
        measured.errors + warm_up.errors,
        measured.wrong + warm_up.wrong
    );
    let env = env_line(args, &cfg, passes, &samples);
    let result = format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        failed == 0,
        metrics.to_json()
    );
    Ok(vec![env, result])
}

/// Named percentile readings, for the sample-count block.
type Readings = Vec<(&'static str, Percentile)>;
/// Picks one latency series out of a record.
type Series = fn(&Record) -> &Samples;

/// The end-to-end metrics of an untraced phase (see [`Phase`] for how
/// passes are summarised), with the whole-phase percentile readings behind
/// them. `strict` enforces the sample-count rule on every reading a
/// metric is taken from.
fn end_to_end(phase: &Phase, setup_s: &[f64], strict: bool) -> Result<(Metrics, Readings), String> {
    let series: [(&'static str, f64, Series); 4] = [
        ("frame_p50_ms", 50.0, |r| &r.all),
        ("frame_p99_ms", 99.0, |r| &r.all),
        ("step_p50_ms", 50.0, |r| &r.step),
        ("run_p50_ms", 50.0, |r| &r.run),
    ];
    let mut m = Metrics::default();
    m.set("setup_s", median(setup_s), "s");
    m.set("actions_per_s", phase.actions_per_s(), "1/s");
    m.set("rss_mb", peak_rss_mb(), "MB");
    let mut pooled = Vec::new();
    for (name, p, pick) in series {
        if strict {
            for reading in phase.readings(p, pick) {
                reading.check(name)?;
            }
        }
        m.set(name, phase.latency_ms(p, pick), "ms");
        pooled.push((name, pick(&phase.total).percentile(p)));
    }
    Ok((m, pooled))
}

/// Peak resident set size of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checkout's git revision, read from `.git` without running git;
/// "unknown" outside a repository.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => read(&format!(".git/{r}"))
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_owned))
            })
            .unwrap_or_else(|| "unknown".to_owned()),
    }
}

/// Environment and sample-count block, printed before the result line.
fn env_line(
    args: &Args,
    cfg: &Config,
    passes: usize,
    samples: &[(&'static str, Percentile)],
) -> String {
    let clients = if cfg.workload == Workload::Serve {
        format!(
            "{{\"connections\":{},\"sessions_per_connection\":{}}}",
            serve::CONNECTIONS,
            serve::SESSIONS_PER_CONN
        )
    } else {
        "{\"threads\":1}".to_owned()
    };
    let counts: Vec<String> = samples
        .iter()
        .map(|(name, p)| {
            format!(
                "\"{name}\":{{\"p\":{},\"samples\":{},\"beyond\":{}}}",
                num(p.p),
                p.samples,
                p.beyond
            )
        })
        .collect();
    format!(
        concat!(
            "{{\"env\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},",
            "\"nproc\":{},\"pool_workers\":{},\"shards\":1,\"git_revision\":\"{}\",",
            "\"graphs\":{},\"scripts\":{},\"max_fragment_edges\":{},\"setups\":{},\"clients\":{},",
            "\"passes\":{}}},",
            "\"samples\":{{{}}}}}"
        ),
        cfg.workload.name(),
        args.seed,
        num(args.seconds),
        args.trace,
        available_cores(),
        cfg.threads,
        git_revision(),
        cfg.graphs,
        cfg.scripts,
        cfg.max_fragment_edges,
        cfg.setups,
        clients,
        passes,
        counts.join(",")
    )
}
