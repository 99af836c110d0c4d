//! Layer replays: the responses a traced run recorded are re-run
//! through each layer's public functions with a timer around every
//! call. `Backend::default()` and the campaign grid are used throughout,
//! so the replay times the path production takes.
//!
//! A replay is only trusted when it reproduces the run it replays: the
//! per-attempt verdicts of the decomposed layer path must equal those of
//! `Evaluator::evaluate_response`, the feedback structure must match
//! (every non-final attempt failed functionally), and the final-attempt
//! tallies must equal the recorded run's per-cell tallies.

use crate::trace::{Attempt, CellKey};
use picbench_core::{
    CampaignReport, EvalCache, EvalReport, Evaluator, ProblemTally, DEFAULT_FUNCTIONAL_TOLERANCE,
};
use picbench_netlist::Netlist;
use picbench_problems::Problem;
use picbench_sim::{
    sweep_planned, Backend, Circuit, FrequencyResponse, ScheduleCache, SolveWorkspace, SweepPlan,
    WavelengthGrid,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Per-layer work and time of one replay.
#[derive(Debug, Default, Clone)]
pub struct LayerTotals {
    pub parse_calls: u64,
    pub parse_failed: u64,
    pub parse_ns: u64,
    pub hash_ns: u64,
    pub canon_ns: u64,
    pub elaborate_calls: u64,
    pub elaborate_failed: u64,
    pub elaborate_ns: u64,
    pub plan_ns: u64,
    pub sweeps: u64,
    pub sweep_ns: u64,
    pub compare_ns: u64,
    pub golden_ns: u64,
    pub system_prompt_calls: u64,
    pub system_prompt_ns: u64,
    pub feedback_calls: u64,
    pub feedback_ns: u64,
    pub eval_hits: u64,
    pub eval_hit_ns: u64,
    pub eval_misses: u64,
    pub eval_miss_ns: u64,
}

/// The verdict of one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    pub syntax: bool,
    pub functional: bool,
}

impl From<&EvalReport> for Verdict {
    fn from(report: &EvalReport) -> Self {
        Verdict {
            syntax: report.syntax_pass(),
            functional: report.functional_pass(),
        }
    }
}

fn timed<R>(acc: &mut u64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *acc += t.elapsed().as_nanos() as u64;
    r
}

/// What a replay needs to know about the run it replays.
pub struct ReplayInput<'a> {
    pub problems: &'a [Problem],
    pub attempts: &'a [Attempt],
    pub restrictions: bool,
    /// Whether the replayed run had the evaluation cache on: repeated
    /// responses (and repeated valid netlists) then skip the layers.
    pub cached: bool,
    /// System prompts the run rendered (one per worker evaluator).
    pub system_prompts: usize,
}

/// Replays every layer and checks the replay against itself and the
/// recorded tallies. Returns the totals and the per-cell tallies the
/// replay derived, or a description of the first mismatch.
pub fn replay(
    input: &ReplayInput<'_>,
) -> Result<(LayerTotals, BTreeMap<CellKey, ProblemTally>), String> {
    let mut t = LayerTotals::default();
    // The campaign default, which every workload runs on.
    let grid = WavelengthGrid::paper_fast();
    let by_id: HashMap<&str, &Problem> =
        input.problems.iter().map(|p| (p.id.as_str(), p)).collect();
    let problem_of = |a: &Attempt| {
        by_id
            .get(a.cell.problem.as_str())
            .copied()
            .ok_or_else(|| format!("recorded unknown problem {}", a.cell.problem))
    };

    // Goldens, exactly as a campaign's golden table computes them.
    let mut golden_evaluator = Evaluator::new(grid, Backend::default());
    let goldens: HashMap<&str, Arc<FrequencyResponse>> = input
        .problems
        .iter()
        .map(|p| {
            (
                p.id.as_str(),
                timed(&mut t.golden_ns, || golden_evaluator.golden_response_arc(p)),
            )
        })
        .collect();

    // core: the whole evaluator against a primed cache, split into hits
    // and misses by the stats delta of each call.
    let cache = Arc::new(EvalCache::new());
    let mut evaluator = Evaluator::new(grid, Backend::default())
        .with_cache(Arc::clone(&cache))
        .with_sweep_threads(1);
    for p in input.problems {
        evaluator.prime_golden(p);
    }
    let mut reports = Vec::with_capacity(input.attempts.len());
    for a in input.attempts {
        let problem = problem_of(a)?;
        let before = cache.stats();
        let start = Instant::now();
        let report = evaluator.evaluate_response(problem, &a.response);
        let ns = start.elapsed().as_nanos() as u64;
        let after = cache.stats();
        let hits = |s: &picbench_core::EvalCacheStats| {
            s.response_hits + s.report_hits + s.sim_hits + s.disk_hits
        };
        if hits(&after) > hits(&before) {
            t.eval_hits += 1;
            t.eval_hit_ns += ns;
        } else {
            t.eval_misses += 1;
            t.eval_miss_ns += ns;
        }
        reports.push(report);
    }

    // netlist + simulator: the decomposed evaluation path.
    let registry = Evaluator::new(grid, Backend::default());
    let mut schedules = ScheduleCache::new();
    let mut workspace = SolveWorkspace::new();
    let mut seen_response: HashMap<(&str, &str), Verdict> = HashMap::new();
    let mut seen_netlist: HashMap<(&str, u64), Verdict> = HashMap::new();
    if input.cached {
        for p in input.problems {
            let pass = Verdict {
                syntax: true,
                functional: true,
            };
            seen_netlist.insert((p.id.as_str(), p.golden.content_hash()), pass);
        }
    }
    for (a, report) in input.attempts.iter().zip(&reports) {
        let problem = problem_of(a)?;
        let key = (problem.id.as_str(), a.response.as_str());
        let verdict = match seen_response.get(&key) {
            Some(v) if input.cached => *v,
            _ => {
                let v = evaluate_layers(
                    &mut t,
                    &registry,
                    &mut schedules,
                    &mut workspace,
                    &grid,
                    problem,
                    &goldens[problem.id.as_str()],
                    &a.response,
                    input.cached.then_some(&mut seen_netlist),
                );
                seen_response.insert(key, v);
                v
            }
        };
        if verdict != Verdict::from(report) {
            return Err(format!(
                "layer replay verdict {verdict:?} differs from the evaluator's {:?} on {:?} sample {} attempt {}",
                Verdict::from(report),
                a.cell,
                a.sample,
                a.attempt
            ));
        }
    }

    // promptkit: the system prompts the run's evaluators rendered, and
    // the feedback turn that follows every non-final attempt.
    for _ in 0..input.system_prompts {
        let mut fresh = Evaluator::new(grid, Backend::default());
        timed(&mut t.system_prompt_ns, || {
            fresh.system_prompt(input.restrictions)
        });
        t.system_prompt_calls += 1;
    }

    // Samples in recorded order; check the loop structure and tally.
    let mut samples: BTreeMap<(CellKey, u64, u64), Vec<usize>> = BTreeMap::new();
    for (i, a) in input.attempts.iter().enumerate() {
        samples
            .entry((a.cell.clone(), a.seed, a.sample))
            .or_default()
            .push(i);
    }
    let mut tallies: BTreeMap<CellKey, ProblemTally> = BTreeMap::new();
    for ((cell, _seed, sample), indices) in &samples {
        let (last, earlier) = indices.split_last().expect("a sample has attempts");
        for (n, &i) in indices.iter().enumerate() {
            if input.attempts[i].attempt != n {
                return Err(format!("{cell:?} sample {sample}: attempts out of order"));
            }
        }
        for &i in earlier {
            let report = &reports[i];
            if report.functional_pass() {
                return Err(format!(
                    "{cell:?} sample {sample}: the loop continued after a pass"
                ));
            }
            let feedback = timed(&mut t.feedback_ns, || {
                if report.syntax_pass() {
                    picbench_prompt::functional_feedback()
                } else {
                    picbench_prompt::syntax_feedback(&cell.problem, report.issues())
                }
            });
            std::hint::black_box(feedback);
            t.feedback_calls += 1;
        }
        if !reports[*last].functional_pass() && indices.len() != cell.feedback + 1 {
            return Err(format!("{cell:?} sample {sample}: the loop stopped early"));
        }
        let tally = tallies.entry(cell.clone()).or_insert(ProblemTally {
            n: 0,
            syntax_passes: 0,
            functional_passes: 0,
        });
        tally.n += 1;
        tally.syntax_passes += usize::from(reports[*last].syntax_pass());
        tally.functional_passes += usize::from(reports[*last].functional_pass());
    }
    Ok((t, tallies))
}

/// Checks the replay's per-cell tallies against the recorded runs'
/// reports; a cell present in several reports (one submission per seed)
/// is summed, as the replay sums it.
pub fn check_tallies(
    reports: &[CampaignReport],
    tallies: &BTreeMap<CellKey, ProblemTally>,
) -> Result<(), String> {
    let mut expected: BTreeMap<CellKey, ProblemTally> = BTreeMap::new();
    for condition in reports.iter().flat_map(|r| &r.conditions) {
        for (problem, t) in &condition.tallies {
            let key = CellKey {
                problem: problem.clone(),
                model: condition.model.clone(),
                feedback: condition.feedback_iters,
            };
            let e = expected.entry(key).or_insert(ProblemTally {
                n: 0,
                syntax_passes: 0,
                functional_passes: 0,
            });
            e.n += t.n;
            e.syntax_passes += t.syntax_passes;
            e.functional_passes += t.functional_passes;
        }
    }
    match expected
        .iter()
        .find(|(key, t)| tallies.get(*key) != Some(*t))
    {
        Some((key, t)) => Err(format!(
            "replay tally {:?} differs from the recorded run's {t:?} for {key:?}",
            tallies.get(key)
        )),
        None if expected.len() != tallies.len() => Err(format!(
            "replay saw {} cells, the run {}",
            tallies.len(),
            expected.len()
        )),
        None => Ok(()),
    }
}

/// One response through extract/JSON/schema → hash → validate →
/// canonicalize → elaborate → plan → sweep → compare, each timed.
#[allow(clippy::too_many_arguments)]
fn evaluate_layers<'p>(
    t: &mut LayerTotals,
    evaluator: &Evaluator,
    schedules: &mut ScheduleCache,
    workspace: &mut SolveWorkspace,
    grid: &WavelengthGrid,
    problem: &'p Problem,
    golden: &FrequencyResponse,
    response: &str,
    memo: Option<&mut HashMap<(&'p str, u64), Verdict>>,
) -> Verdict {
    const FAIL: Verdict = Verdict {
        syntax: false,
        functional: false,
    };
    t.parse_calls += 1;
    let (netlist, issues) = timed(&mut t.parse_ns, || evaluator.parse_response(response));
    let netlist: Netlist = match netlist {
        Some(n) if issues.is_empty() => n,
        _ => {
            t.parse_failed += 1;
            return FAIL;
        }
    };
    let hash = timed(&mut t.hash_ns, || netlist.content_hash());
    let key = (problem.id.as_str(), hash);
    if let Some(v) = memo.as_ref().and_then(|m| m.get(&key)) {
        return *v;
    }
    let registry = evaluator.registry();
    let elaborate = |n: &Netlist, t: &mut LayerTotals| {
        t.elaborate_calls += 1;
        let circuit = timed(&mut t.elaborate_ns, || {
            Circuit::elaborate(n, registry, Some(&problem.spec))
        });
        if circuit.is_err() {
            t.elaborate_failed += 1;
        }
        circuit.ok()
    };
    // Validate the document as written, then simulate its canonical form.
    if elaborate(&netlist, t).is_none() {
        return FAIL;
    }
    let canonical = timed(&mut t.canon_ns, || netlist.canonicalize());
    let Some(circuit) = elaborate(&canonical, t) else {
        return FAIL;
    };
    let plan = timed(&mut t.plan_ns, || {
        let schedule = schedules.get_or_build(&circuit);
        SweepPlan::with_schedule(&circuit, Backend::default(), schedule)
            .map(|plan| plan.with_constant_fold(true))
    });
    let verdict = match plan {
        Err(_) => FAIL,
        Ok(plan) => {
            t.sweeps += 1;
            match timed(&mut t.sweep_ns, || sweep_planned(&plan, grid, workspace)) {
                Err(_) => FAIL,
                Ok(response) => {
                    let cmp = timed(&mut t.compare_ns, || response.compare(golden));
                    Verdict {
                        syntax: true,
                        functional: cmp.is_equivalent(DEFAULT_FUNCTIONAL_TOLERANCE),
                    }
                }
            }
        }
    };
    if let Some(memo) = memo {
        memo.insert(key, verdict);
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{CellObserver, IoCounters, Recording, TracedIo, TracedProvider, Tracer};
    use picbench_core::{Campaign, EvalStore};
    use picbench_synthllm::{ModelProfile, ModelProvider};

    fn problems() -> Vec<Problem> {
        ["mzi-ps", "clements-4x4"]
            .iter()
            .map(|id| picbench_problems::find(id).expect("builtin problem"))
            .collect()
    }

    fn run(
        provider: Arc<dyn ModelProvider>,
        observer: Arc<CellObserver>,
        store: Option<Arc<EvalStore>>,
        cache: bool,
    ) -> CampaignReport {
        let mut builder = Campaign::builder()
            .problems(problems())
            .provider(provider)
            .samples_per_problem(5)
            .k_values([1, 5])
            .feedback_iters([0, 1, 3])
            .threads(2)
            .cache(cache)
            .observer(observer);
        if let Some(store) = store {
            builder = builder.store(store);
        }
        builder.build().expect("valid campaign").run()
    }

    #[test]
    fn wrappers_are_transparent_and_the_replay_is_faithful() {
        let profile: Arc<dyn ModelProvider> = Arc::new(ModelProfile::gpt4o());
        let plain = run(Arc::clone(&profile), CellObserver::new(None), None, true);

        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("replay-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tracer = Tracer::new();
        let counters = Arc::new(IoCounters::default());
        let io = TracedIo::new(
            Box::new(picbench_store::FileIo::new(&dir).expect("scratch dir")),
            Arc::clone(&counters),
            Arc::clone(&tracer),
        );
        let store = Arc::new(EvalStore::open_with_io(Box::new(io)).expect("open store"));
        let recording = Arc::new(Recording::default());
        let traced_provider = Arc::new(TracedProvider::new(
            profile,
            Arc::clone(&tracer),
            Some(Arc::clone(&recording)),
        ));
        for cache in [true, false] {
            let traced = run(
                traced_provider.clone(),
                CellObserver::new(Some(Arc::clone(&tracer))),
                cache.then(|| Arc::clone(&store)),
                cache,
            );
            assert!(
                traced.same_results(&plain),
                "tracing changed the report (cache {cache})"
            );
            let attempts = std::mem::take(&mut *recording.attempts.lock().unwrap());
            assert!(!attempts.is_empty());
            let (totals, tallies) = replay(&ReplayInput {
                problems: &problems(),
                attempts: &attempts,
                restrictions: false,
                cached: cache,
                system_prompts: 2,
            })
            .expect("replay agrees with the evaluator");
            check_tallies(std::slice::from_ref(&traced), &tallies)
                .expect("replay tallies equal the run's");
            assert_eq!(totals.parse_calls == attempts.len() as u64, !cache);
        }
        let _ = std::fs::remove_dir_all(&dir);
        use std::sync::atomic::Ordering;
        assert!(
            counters.appends.load(Ordering::Relaxed) > 0
                && counters.syncs.load(Ordering::Relaxed) > 0
        );
        let names: std::collections::BTreeSet<&str> =
            tracer.spans().iter().map(|s| s.name).collect();
        for name in [
            "core.cell",
            "synthllm.respond",
            "store.append",
            "store.sync",
        ] {
            assert!(names.contains(name), "no {name} span");
        }
    }
}
