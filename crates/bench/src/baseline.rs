//! The baseline engine `campaign_bench` measures the campaign engine
//! against: the original pre-cache design, rebuilt here from the public
//! building blocks ([`Evaluator`] and [`run_sample`]) so that the
//! production engine carries no configuration that exists only to
//! reproduce it.
//!
//! * one work unit per problem — a worker runs every model × feedback
//!   setting of its problem, so useful workers are capped at the problem
//!   count;
//! * no evaluation cache — every candidate response is simulated;
//! * every grid point solved ([`Evaluator::with_constant_fold`] off), each
//!   sweep with the simulator's default internal parallelism
//!   ([`Evaluator::with_sweep_threads`] `0`).
//!
//! Goldens are simulated once up front and shared, as in the production
//! engine. The report must be bit-identical to the production engine's —
//! `campaign_bench` asserts it before it compares wall clocks, so its
//! speedup gate measures the cache, the per-cell queue and the
//! constant-response fold together, on the same solver.

use picbench_core::{
    aggregate_pass_at_k, run_sample, CampaignConfig, CampaignReport, CellScore, ConditionTallies,
    Evaluator, LoopConfig, ProblemTally,
};
use picbench_problems::Problem;
use picbench_sim::{Backend, FrequencyResponse};
use picbench_synthllm::{ModelProfile, ModelProvider};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Runs the campaign matrix of `config` on the baseline engine (see the
/// module docs). `config.cache` and `config.retry` are ignored: the
/// baseline never caches and drives the synthetic profiles directly.
///
/// # Panics
///
/// Panics if `problems`, `profiles` or `config.k_values` is empty.
pub fn run_baseline_campaign(
    profiles: &[ModelProfile],
    problems: &[Problem],
    config: &CampaignConfig,
) -> CampaignReport {
    assert!(!problems.is_empty(), "campaign needs problems");
    assert!(!profiles.is_empty(), "campaign needs model profiles");
    assert!(!config.k_values.is_empty(), "campaign needs k values");

    let goldens: Arc<HashMap<String, Arc<FrequencyResponse>>> = {
        let mut evaluator = Evaluator::new(config.grid, Backend::default());
        Arc::new(
            problems
                .iter()
                .map(|problem| (problem.id.clone(), evaluator.prime_golden(problem)))
                .collect(),
        )
    };

    let settings = config.feedback_iters.len();
    let cell_index = |problem: usize, profile: usize, ef_idx: usize| {
        (problem * profiles.len() + profile) * settings + ef_idx
    };
    let workers = if config.threads > 0 {
        config.threads
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
    .min(problems.len());
    let next_problem = AtomicUsize::new(0);
    let by_cell = Mutex::new(vec![None; problems.len() * profiles.len() * settings]);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut evaluator = Evaluator::new(config.grid, Backend::default())
                    .with_shared_goldens(Arc::clone(&goldens))
                    .with_sweep_threads(0)
                    .with_constant_fold(false);
                loop {
                    let p = next_problem.fetch_add(1, Ordering::Relaxed);
                    let Some(problem) = problems.get(p) else {
                        break;
                    };
                    for (m, profile) in profiles.iter().enumerate() {
                        for (e, &feedback_iters) in config.feedback_iters.iter().enumerate() {
                            let tally = evaluate_cell(
                                profile,
                                problem,
                                feedback_iters,
                                config,
                                &mut evaluator,
                            );
                            by_cell.lock().expect("tallies poisoned")[cell_index(p, m, e)] =
                                Some(tally);
                        }
                    }
                }
            });
        }
    });
    let by_cell: Vec<ProblemTally> = by_cell
        .into_inner()
        .expect("tallies poisoned")
        .into_iter()
        .map(|tally| tally.expect("every cell was computed"))
        .collect();

    let mut cells = Vec::new();
    let mut conditions = Vec::new();
    for (m, profile) in profiles.iter().enumerate() {
        for (e, &feedback_iters) in config.feedback_iters.iter().enumerate() {
            let tallies: Vec<ProblemTally> = (0..problems.len())
                .map(|p| by_cell[cell_index(p, m, e)])
                .collect();
            for &k in &config.k_values {
                let (syntax, functional) = aggregate_pass_at_k(&tallies, k);
                cells.push(CellScore {
                    model: profile.name().to_string(),
                    feedback_iters,
                    k,
                    syntax,
                    functional,
                });
            }
            conditions.push(ConditionTallies {
                model: profile.name().to_string(),
                feedback_iters,
                tallies: problems
                    .iter()
                    .map(|problem| problem.id.clone())
                    .zip(tallies)
                    .collect(),
            });
        }
    }
    CampaignReport {
        restrictions: config.restrictions,
        samples_per_problem: config.samples_per_problem,
        cells,
        conditions,
        cache_stats: None,
    }
}

/// One `(problem × model × feedback)` cell: a model instance seeded with
/// the campaign seed, `samples_per_problem` runs through the feedback
/// loop, tallied.
fn evaluate_cell(
    profile: &ModelProfile,
    problem: &Problem,
    feedback_iters: usize,
    config: &CampaignConfig,
    evaluator: &mut Evaluator,
) -> ProblemTally {
    let mut llm = profile.spawn_seeded(config.seed);
    let loop_config = LoopConfig {
        max_feedback_iters: feedback_iters,
        restrictions: config.restrictions,
    };
    let mut tally = ProblemTally {
        n: config.samples_per_problem,
        syntax_passes: 0,
        functional_passes: 0,
    };
    for sample in 0..config.samples_per_problem as u64 {
        let result = run_sample(llm.as_mut(), problem, evaluator, loop_config, sample);
        tally.syntax_passes += usize::from(result.syntax_pass());
        tally.functional_passes += usize::from(result.functional_pass());
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use picbench_core::run_campaign;

    #[test]
    fn baseline_engine_reproduces_the_campaign_engine() {
        let problems: Vec<Problem> = ["mzi-ps", "mzm", "umatrix"]
            .iter()
            .map(|id| picbench_problems::find(id).expect("builtin problem"))
            .collect();
        let profiles = vec![ModelProfile::gpt4(), ModelProfile::claude35_sonnet()];
        let config = CampaignConfig {
            samples_per_problem: 3,
            k_values: vec![1, 3],
            feedback_iters: vec![0, 1],
            threads: 2,
            ..CampaignConfig::default()
        };
        let baseline = run_baseline_campaign(&profiles, &problems, &config);
        let engine = run_campaign(&profiles, &problems, &config);
        assert!(baseline.same_results(&engine));
        assert!(baseline.cache_stats.is_none());
    }
}
