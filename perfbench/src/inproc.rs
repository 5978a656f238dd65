//! In-process load generator (`formulate`): one closed-loop client replaying the
//! scripts through the `Session` API, a fresh session per script.

use crate::record::{Class, Phase, Record};
use crate::workload::{Answer, Op, Script, SIGMA};
use prague::{PragueSystem, QueryResults, Session, SessionError};
use std::time::{Duration, Instant};

/// Replay the scripts in order, pass after pass, until `length` has
/// elapsed (the script in progress at the deadline is finished; the
/// unfinished pass counts in the total only).
pub fn drive(system: &PragueSystem, scripts: &[Script], length: Duration) -> Phase {
    let mut phase = Phase::default();
    let t0 = Instant::now();
    'passes: loop {
        let mut pass = Record::default();
        let tp = Instant::now();
        for (i, script) in scripts.iter().enumerate() {
            if t0.elapsed() >= length {
                phase.total.merge(&pass);
                break 'passes;
            }
            let mut session = system.session(SIGMA);
            if let Err(e) = replay(&mut session, script, &mut pass) {
                pass.errors += 1;
                eprintln!("[perfbench] session error on script {i}: {e}");
            }
        }
        pass.wall = tp.elapsed();
        phase.total.merge(&pass);
        phase.passes.push(pass);
    }
    phase.total.wall = t0.elapsed();
    phase
}

/// Replay every script once, unrecorded (cache warm-up and a first
/// correctness pass).
pub fn warm_up(system: &PragueSystem, scripts: &[Script]) -> Record {
    let mut rec = Record::default();
    for script in scripts {
        let mut session = system.session(SIGMA);
        if replay(&mut session, script, &mut rec).is_err() {
            rec.errors += 1;
        }
    }
    rec
}

fn replay(
    session: &mut Session<'_>,
    script: &Script,
    rec: &mut Record,
) -> Result<(), SessionError> {
    let mut nodes: Vec<u32> = Vec::new();
    let mut last_edge = None;
    let mut similar = false;
    for &op in &script.ops {
        let t = Instant::now();
        match op {
            Op::Node(label) => {
                nodes.push(session.add_node(label));
                rec.action(Class::Other, t.elapsed());
            }
            Op::Edge(u, v) => {
                let out = session.add_edge(nodes[u as usize], nodes[v as usize])?;
                let d = t.elapsed();
                rec.action(Class::Step, d);
                rec.session_overhead
                    .push(d.saturating_sub(out.total_time()));
                rec.reported_step.push(out.total_time());
                last_edge = Some(out.edge);
                if !similar && out.candidate_count == 0 {
                    let t = Instant::now();
                    session.choose_similarity()?;
                    rec.action(Class::Other, t.elapsed());
                    similar = true;
                }
            }
            Op::DeleteLast => {
                let edge = last_edge.expect("a delete follows an edge");
                let out = session.delete_edge(edge)?;
                rec.action(Class::Modify, t.elapsed());
                rec.modify_time.push(out.modify_time);
            }
            Op::Relabel(node, label) => {
                session.relabel_node(nodes[node as usize], label)?;
                rec.action(Class::Modify, t.elapsed());
            }
            Op::Run => {
                let out = session.run()?;
                rec.action(Class::Run, t.elapsed());
                rec.reported_run.push(out.srt);
                let got = match out.results {
                    QueryResults::Exact(ids) => Answer::Exact(ids),
                    QueryResults::Similar(sim) => {
                        let mut ids = sim.ids();
                        ids.sort_unstable();
                        Answer::Similar(ids)
                    }
                };
                rec.check(&got, &script.answer);
            }
        }
    }
    Ok(())
}
