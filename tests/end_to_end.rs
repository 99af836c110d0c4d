//! Cross-crate integration: golden designs against both simulator
//! backends, the oracle model through the full framework, and campaign
//! determinism.

use picbench::core::{pass_at_k, run_campaign, run_sample, CampaignConfig, Evaluator, LoopConfig};
use picbench::sim::{evaluate, Backend, Circuit, ModelRegistry, WavelengthGrid};
use picbench::synthllm::{ModelProfile, ModelProvider, PerfectLlm, PAPER_SEED};

#[test]
fn both_backends_agree_on_every_golden_design() {
    let registry = ModelRegistry::with_builtins();
    for problem in picbench::problems::suite() {
        let circuit = Circuit::elaborate(&problem.golden, &registry, Some(&problem.spec))
            .unwrap_or_else(|e| panic!("{} failed to elaborate: {e}", problem.id));
        for wl in [1.51, 1.54, 1.55, 1.57, 1.59] {
            let a = evaluate(&circuit, wl, Backend::PortElimination)
                .unwrap_or_else(|e| panic!("{}: elimination failed: {e}", problem.id));
            let b = evaluate(&circuit, wl, Backend::Dense)
                .unwrap_or_else(|e| panic!("{}: dense failed: {e}", problem.id));
            let diff = a.max_abs_diff(&b);
            assert!(
                diff < 1e-8,
                "{} at {wl} um: backends disagree by {diff:.2e}",
                problem.id
            );
        }
    }
}

#[test]
fn golden_designs_are_passive_and_finite() {
    let registry = ModelRegistry::with_builtins();
    for problem in picbench::problems::suite() {
        let circuit = Circuit::elaborate(&problem.golden, &registry, None).unwrap();
        for wl in [1.52, 1.55, 1.58] {
            let s = evaluate(&circuit, wl, Backend::default()).unwrap();
            assert!(
                s.is_passive(1e-6),
                "{} has gain at {wl} um — unphysical",
                problem.id
            );
        }
    }
}

#[test]
fn oracle_achieves_perfect_pass_at_k() {
    let mut oracle = PerfectLlm::new();
    let mut evaluator = Evaluator::default();
    let mut syntax = 0usize;
    let mut func = 0usize;
    let problems = picbench::problems::suite();
    for problem in &problems {
        let result = run_sample(
            &mut oracle,
            problem,
            &mut evaluator,
            LoopConfig::default(),
            0,
        );
        syntax += usize::from(result.syntax_pass());
        func += usize::from(result.functional_pass());
    }
    assert_eq!(syntax, problems.len());
    assert_eq!(func, problems.len());
    assert_eq!(pass_at_k(problems.len(), func, 1), 1.0);
}

#[test]
fn campaigns_are_reproducible_across_thread_counts() {
    let profiles = vec![ModelProfile::gpt4o()];
    let problems: Vec<_> = picbench::problems::suite()
        .into_iter()
        .filter(|p| {
            matches!(
                p.id.as_str(),
                "mzi-ps" | "umatrix" | "benes-4x4" | "wdm-mux"
            )
        })
        .collect();
    let base = CampaignConfig {
        samples_per_problem: 4,
        k_values: vec![1, 4],
        feedback_iters: vec![0, 1],
        restrictions: true,
        seed: 321,
        grid: WavelengthGrid::paper_fast(),
        threads: 1,
        ..CampaignConfig::default()
    };
    let single = run_campaign(&profiles, &problems, &base);
    let multi = run_campaign(
        &profiles,
        &problems,
        &CampaignConfig {
            threads: 4,
            ..base.clone()
        },
    );
    for cell in &single.cells {
        let other = multi
            .cell(&cell.model, cell.feedback_iters, cell.k)
            .expect("cell exists");
        assert_eq!(cell.syntax, other.syntax, "thread count changed results");
        assert_eq!(cell.functional, other.functional);
    }
}

#[test]
fn restrictions_improve_restricted_models() {
    // Gemini-profile is the restriction-sensitive one in the paper; its
    // syntax Pass@1 must improve markedly when restrictions are added.
    let profiles = vec![ModelProfile::gemini15_pro()];
    let problems: Vec<_> = picbench::problems::suite()
        .into_iter()
        .filter(|p| {
            matches!(
                p.id.as_str(),
                "mzi-ps" | "mzm" | "os-2x2" | "umatrix" | "direct-modulator" | "wdm-demux"
            )
        })
        .collect();
    let mut scores = [0.0f64; 2];
    for (slot, restrictions) in [(0usize, false), (1, true)] {
        let config = CampaignConfig {
            samples_per_problem: 10,
            k_values: vec![1],
            feedback_iters: vec![0],
            restrictions,
            seed: 11,
            grid: WavelengthGrid::paper_fast(),
            threads: 0,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&profiles, &problems, &config);
        scores[slot] = report.cell("Gemini 1.5 pro", 0, 1).unwrap().syntax;
    }
    assert!(
        scores[1] > scores[0] + 15.0,
        "restrictions should lift Gemini-profile sharply: {:.1} -> {:.1}",
        scores[0],
        scores[1]
    );
}

/// Pins every synthetic-model response of a small fixed campaign (three
/// problems × the five paper models × feedback 3 × two samples) by the
/// FNV-1a digest of their concatenated text, so a change to response
/// rendering or corruption sampling can never move a response silently.
#[test]
fn synthetic_responses_match_their_recorded_digest() {
    let mut evaluator = Evaluator::default();
    let config = LoopConfig {
        max_feedback_iters: 3,
        restrictions: false,
    };
    let mut transcript = Vec::new();
    let mut responses = 0usize;
    for id in ["mzi-ps", "clements-8x8", "crossbar-8x8"] {
        let problem = picbench::problems::find(id).unwrap();
        for profile in ModelProfile::all_paper_models() {
            let mut llm = profile.spawn_seeded(PAPER_SEED);
            for sample in 0..2 {
                let result = run_sample(llm.as_mut(), &problem, &mut evaluator, config, sample);
                for attempt in &result.attempts {
                    transcript.extend_from_slice(attempt.response.as_bytes());
                    transcript.push(0);
                    responses += 1;
                }
            }
        }
    }
    assert!(responses > 30, "campaign too small: {responses} responses");
    assert_eq!(
        (responses, picbench::store::fnv1a64(&transcript)),
        (116, 0xa042_4e2f_b8a8_5fd0),
        "a synthetic response moved"
    );
}
