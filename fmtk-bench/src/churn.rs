//! The churn workload: a `DatalogRuntime` taking seeded episodes of
//! update batches in-process (`fmtk --incremental` would re-materialise
//! in every process, so the CLI cannot serve it).

use crate::calib::{self, Samples};
use crate::gen::{ChurnStream, Graph, Update, CHURN_LOOKUPS, TC_LEFT};
use crate::measure::cpu_times;
use crate::oracle;
use crate::run::{traced_passes, write_spans, Outcome};
use crate::trace::{Tracer, REQUEST, SETUP};
use fmt_core::queries::datalog::Program;
use fmt_core::queries::incremental::DatalogRuntime;
use fmt_core::structures::{parse as sparse, RelId, Structure};
use std::path::Path;
use std::time::{Duration, Instant};

/// DAGs per seed. A run cycles over all of them, so its figures average
/// over several graphs instead of hanging on one.
pub const GRAPHS: usize = 16;
/// Requests per episode. Every episode replays the same requests on a
/// runtime set up afresh from its DAG, so a run samples one fixed
/// request set however many cycles the machine fits in, and a runtime
/// never ages past the end of an episode.
pub const EPISODE: usize = 32;

/// One DAG as a structure, the requests replayed on it and what the
/// oracle expects of them.
struct Episode {
    structure: Structure,
    updates: Vec<Update>,
    expected: Expected,
}

/// The workload's inputs: [`GRAPHS`] episodes and the program.
pub struct Churn {
    episodes: Vec<Episode>,
    program: Program,
    edge: RelId,
    tc: usize,
}

impl Churn {
    pub fn new(seed: u64) -> Result<Churn, String> {
        let mut episodes = Vec::with_capacity(GRAPHS);
        for graph in 0..GRAPHS {
            let (g, mut stream) = ChurnStream::new(seed, graph);
            let updates: Vec<Update> = (0..EPISODE).map(|_| stream.next_update()).collect();
            episodes.push(Episode {
                structure: sparse::parse(&g.to_text()).map_err(|e| e.to_string())?,
                expected: Expected::new(&g, &updates),
                updates,
            });
        }
        let signature = episodes[0].structure.signature();
        let program = Program::parse_spanned(signature, TC_LEFT)
            .map_err(|e| e.message)?
            .program;
        let edge = signature.relation("E").ok_or("no E relation")?;
        let tc = program.idb("tc").ok_or("no tc predicate")?;
        Ok(Churn {
            episodes,
            program,
            edge,
            tc,
        })
    }

    fn build(&self, e: &Episode) -> DatalogRuntime {
        let mut rt = DatalogRuntime::from_structure(self.program.clone(), &e.structure)
            .expect("tc has no negation");
        rt.set_threads(1);
        rt
    }

    fn apply(&self, rt: &mut DatalogRuntime, u: &Update) {
        for (&(a, b), &(c, d)) in u.retract.iter().zip(&u.insert) {
            rt.retract(self.edge, &[a, b]);
            rt.insert(self.edge, &[c, d]);
        }
    }

    fn lookups(&self, rt: &DatalogRuntime, u: &Update) -> [bool; CHURN_LOOKUPS] {
        let tcs = rt.query(self.tc);
        u.lookups.map(|(a, b)| tcs.contains(&[a, b]))
    }

    fn extent(&self, rt: &DatalogRuntime) -> Vec<(u32, u32)> {
        let mut v: Vec<(u32, u32)> = rt.query(self.tc).iter().map(|t| (t[0], t[1])).collect();
        v.sort_unstable();
        v
    }

    /// Counts one attempt for the set-up of `e` and one per request: a
    /// request fails if its lookups are wrong, the last one also if the
    /// extent the runtime ends with is.
    fn check(
        &self,
        e: &Episode,
        first: &[(u32, u32)],
        rt: &DatalogRuntime,
        answers: &[[bool; CHURN_LOOKUPS]],
        out: &mut Outcome,
    ) {
        let want = &e.expected;
        let mut ok: Vec<bool> = answers
            .iter()
            .zip(&want.lookups)
            .map(|(a, w)| a == w)
            .collect();
        if let Some(last) = ok.last_mut() {
            *last &= self.extent(rt) == want.last;
        }
        out.attempted += 1 + ok.len() as u64;
        out.failed += u64::from(first != want.first) + ok.iter().filter(|&&o| !o).count() as u64;
    }
}

/// What the oracle expects of an episode, worked out once by search
/// over out-neighbour lists it updates itself.
struct Expected {
    /// The closure of the start state.
    first: Vec<(u32, u32)>,
    /// Each request's lookup answers.
    lookups: Vec<[bool; CHURN_LOOKUPS]>,
    /// The closure after the last request.
    last: Vec<(u32, u32)>,
}

impl Expected {
    fn new(g: &Graph, updates: &[Update]) -> Expected {
        let mut adj = g.adjacency();
        let first = oracle::closure(&adj);
        let lookups = updates
            .iter()
            .map(|u| {
                for (&(a, b), &(c, d)) in u.retract.iter().zip(&u.insert) {
                    adj[a as usize].retain(|&x| x != b);
                    adj[c as usize].push(d);
                }
                u.lookups
                    .map(|(a, b)| oracle::reach_from(&adj, a).binary_search(&b).is_ok())
            })
            .collect();
        Expected {
            first,
            lookups,
            last: oracle::closure(&adj),
        }
    }
}

/// Host-speed kernel calls after each episode.
const KERNEL_CALLS: usize = 3;

/// The untraced end-to-end run: whole cycles over the episodes until
/// `seconds` have passed. Each episode's set-up (build and first poll)
/// is a `setup_s` sample; then its requests are timed, with the CPU
/// time read around them. After each episode the host-speed kernel
/// runs [`KERNEL_CALLS`] times.
pub fn end_to_end(seed: u64, seconds: Duration) -> Result<Outcome, String> {
    let churn = Churn::new(seed)?;
    let mut out = Outcome::default();
    let mut run = Samples::new(calib::REFERENCE_MS);
    let began = Instant::now();
    while run.requests() == 0 || began.elapsed() < seconds {
        for e in &churn.episodes {
            let t = Instant::now();
            let mut rt = churn.build(e);
            rt.poll();
            run.setup(t.elapsed().as_secs_f64());
            let first = churn.extent(&rt);
            let mut answers = Vec::with_capacity(EPISODE);
            let cpu0 = cpu_times().map_err(|e| e.to_string())?.own_ms;
            for u in &e.updates {
                let t = Instant::now();
                churn.apply(&mut rt, u);
                rt.poll();
                answers.push(churn.lookups(&rt, u));
                run.request(t.elapsed().as_secs_f64() * 1e3);
            }
            run.cpu(cpu_times().map_err(|e| e.to_string())?.own_ms - cpu0);
            churn.check(e, &first, &rt, &answers, &mut out);
            drop(rt);
            for _ in 0..KERNEL_CALLS {
                run.kernel(calib::sample_ms());
            }
        }
    }
    out.set_end_to_end(&run);
    Ok(out)
}

/// Request ids one traced cycle uses: a set-up and the requests per
/// episode.
const CYCLE_IDS: usize = GRAPHS * (EPISODE + 1);

/// One traced cycle over the episodes, each a set-up (build, first
/// poll) and then the requests. Returns per-request times in ms.
fn pass(churn: &Churn, tr: &mut Tracer, first_id: usize, out: &mut Outcome) -> Vec<f64> {
    let mut times = Vec::with_capacity(GRAPHS * EPISODE);
    for (g, e) in churn.episodes.iter().enumerate() {
        let id = first_id + g * (EPISODE + 1);
        tr.begin(id + EPISODE, SETUP);
        let mut rt = tr.layer("incr.build_ms", || churn.build(e));
        tr.layer("incr.first_poll_ms", || rt.poll());
        tr.end();
        let first = churn.extent(&rt);
        let mut answers = Vec::with_capacity(EPISODE);
        for (i, u) in e.updates.iter().enumerate() {
            tr.begin(id + i, REQUEST);
            tr.layer("incr.apply_ms", || churn.apply(&mut rt, u));
            let stats = tr.layer("incr.poll_ms", || rt.poll());
            tr.note("incr.derived", stats.derived);
            tr.note("incr.overdeleted", stats.overdeleted);
            tr.note("incr.rederived", stats.rederived);
            tr.note("incr.rounds", stats.rounds);
            answers.push(tr.layer("incr.lookup_ms", || churn.lookups(&rt, u)));
            times.push(tr.end());
        }
        churn.check(e, &first, &rt, &answers, out);
    }
    times
}

/// The traced run: [`traced_passes`] over cycles of the episodes.
pub fn traced(seed: u64, seconds: Duration, dir: &Path) -> Result<Outcome, String> {
    let churn = Churn::new(seed)?;
    let mut out = Outcome::default();
    let passes = traced_passes(CYCLE_IDS, seconds, &mut out, |tr, first_id, out| {
        Ok(pass(&churn, tr, first_id, out))
    })?;
    write_spans(dir, &passes.counted, &mut out).map_err(|e| e.to_string())?;
    out.set_per_layer(&passes.values);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_oracle_accepts_the_runtime_and_rejects_wrong_answers() {
        let churn = Churn::new(6).unwrap();
        let e = &churn.episodes[0];
        let mut rt = churn.build(e);
        rt.poll();
        let first = churn.extent(&rt);
        let mut answers: Vec<_> = e
            .updates
            .iter()
            .map(|u| {
                churn.apply(&mut rt, u);
                rt.poll();
                churn.lookups(&rt, u)
            })
            .collect();
        let failed = |first: &[(u32, u32)], answers: &[[bool; CHURN_LOOKUPS]], rt: &_| {
            let mut out = Outcome::default();
            churn.check(e, first, rt, answers, &mut out);
            assert_eq!(out.attempted, 1 + EPISODE as u64);
            out.failed
        };
        assert_eq!(failed(&first, &answers, &rt), 0);
        assert_eq!(failed(&first[1..], &answers, &rt), 1);
        answers[3][0] ^= true;
        assert_eq!(failed(&first, &answers, &rt), 1);
        answers[3][0] ^= true;
        // The runtime's end state is checked with the last request.
        let (a, b) = e.updates[EPISODE - 1].insert[0];
        rt.retract(churn.edge, &[a, b]);
        rt.poll();
        assert_eq!(failed(&first, &answers, &rt), 1);
    }
}
