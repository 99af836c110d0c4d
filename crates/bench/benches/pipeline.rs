//! Criterion benches for the evaluation pipeline: synthetic-model
//! generation, JSON parsing, netlist validation, response evaluation
//! (pass and fail paths) and Pass@k.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use picbench_core::{pass_at_k, Evaluator};
use picbench_netlist::{json, validate, Netlist, PortRef};
use picbench_prompt::{Conversation, Role};
use picbench_sim::ModelRegistry;
use picbench_synthllm::{LanguageModel, ModelProfile, SyntheticLlm, PAPER_SEED};

/// Mirrors the `synthllm.respond_*` stage: one first-turn `respond`
/// (after the `begin_sample` that resets it) on an attempt without
/// mistakes and on one with a structural mistake, plus the netlist
/// writer that renders the latter.
fn synthllm(c: &mut Criterion) {
    let mut group = c.benchmark_group("synthllm");
    let problem = picbench_problems::find("clements-8x8").expect("problem exists");
    let mut conversation =
        Conversation::with_system((*Evaluator::default().system_prompt(false)).clone());
    conversation.push(Role::User, problem.description.clone());
    // The first (model, sample) whose first attempt is clean, and the
    // first whose first attempt carries a corruption that edits the
    // netlist.
    let find = |clean: bool| {
        ModelProfile::all_paper_models()
            .into_iter()
            .find_map(|profile| {
                let mut llm = SyntheticLlm::new(profile, PAPER_SEED);
                let sample = (0..200u64).find(|&sample| {
                    llm.begin_sample(&problem, sample);
                    llm.respond(&conversation);
                    let corruptions = llm.active_corruptions();
                    if clean {
                        corruptions.is_empty()
                    } else {
                        corruptions.iter().any(|c| !c.is_text_level())
                    }
                })?;
                Some((llm, sample))
            })
            .expect("attempt found")
    };
    for (label, (mut llm, sample)) in [
        ("respond-clean", find(true)),
        ("respond-corrupted", find(false)),
    ] {
        group.bench_function(BenchmarkId::new(label, problem.id.as_str()), |b| {
            b.iter(|| {
                llm.begin_sample(&problem, sample);
                llm.respond(&conversation)
            });
        });
    }
    group.bench_function(
        BenchmarkId::new("to_json_string", problem.id.as_str()),
        |b| {
            b.iter(|| problem.golden.to_json_string());
        },
    );
    group.finish();
}

fn json_parsing(c: &mut Criterion) {
    let mut group = c.benchmark_group("json");
    for id in ["mzi-ps", "spanke-8x8"] {
        let problem = picbench_problems::find(id).expect("problem exists");
        let text = problem.golden.to_json_string();
        group.bench_with_input(
            BenchmarkId::new("parse", format!("{id}-{}B", text.len())),
            &text,
            |b, text| {
                b.iter(|| json::parse(text).unwrap());
            },
        );
        group.bench_with_input(BenchmarkId::new("netlist", id), &text, |b, text| {
            b.iter(|| Netlist::from_json_str(text).unwrap());
        });
    }
    group.finish();
}

fn validation(c: &mut Criterion) {
    let registry = ModelRegistry::with_builtins();
    let mut group = c.benchmark_group("validate");
    for id in ["mzi-ps", "clements-8x8", "spanke-8x8"] {
        let problem = picbench_problems::find(id).expect("problem exists");
        group.bench_with_input(
            BenchmarkId::new("table-ii-rules", id),
            &problem,
            |b, problem| {
                b.iter(|| validate(&problem.golden, &registry, Some(&problem.spec)));
            },
        );
    }
    group.finish();
}

fn response_evaluation(c: &mut Criterion) {
    let mut group = c.benchmark_group("evaluate-response");
    group.sample_size(20);
    let problem = picbench_problems::find("mzi-ps").expect("problem exists");

    // Pass path: full simulation + golden comparison.
    let pass_text = format!("<result>\n{}\n</result>", problem.golden.to_json_string());
    group.bench_function("mzi-ps-pass", |b| {
        let mut evaluator = Evaluator::default();
        evaluator.golden_response(&problem); // warm the cache
        b.iter(|| {
            let report = evaluator.evaluate_response(&problem, &pass_text);
            assert!(report.functional_pass());
        });
    });

    // Fail path: validation short-circuits before simulation.
    let mut broken = problem.golden.clone();
    broken.connections[1].b = PortRef::new("mmi2", "I2");
    let fail_text = format!("<result>\n{}\n</result>", broken.to_json_string());
    group.bench_function("mzi-ps-wrong-port", |b| {
        let mut evaluator = Evaluator::default();
        evaluator.golden_response(&problem);
        b.iter(|| {
            let report = evaluator.evaluate_response(&problem, &fail_text);
            assert!(!report.syntax_pass());
        });
    });
    group.finish();
}

fn pass_at_k_bench(c: &mut Criterion) {
    c.bench_function("pass-at-k-sweep", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for n in 1..=50usize {
                for c in 0..=n {
                    acc += pass_at_k(n, c, 1.max(n / 2));
                }
            }
            acc
        });
    });
}

criterion_group!(
    benches,
    synthllm,
    json_parsing,
    validation,
    response_evaluation,
    pass_at_k_bench
);
criterion_main!(benches);
