//! The synthetic language model.
//!
//! [`SyntheticLlm`] plays one of the five paper models: on the first query
//! of a sample it emits the golden design perturbed by mistakes drawn
//! from its profile; on each feedback turn it repairs the reported errors
//! with its profile's repair probability (and occasionally relapses).
//! The evaluation pipeline never sees any of this — only the rendered
//! chat responses, exactly as the paper's harness sees API output.

use crate::corrupt::{sample_functional_corruption, sample_syntax_corruption, Corruption};
use crate::knowledge::unused_ports;
use crate::profile::ModelProfile;
use crate::LanguageModel;
use picbench_netlist::{FailureType, Netlist};
use picbench_problems::Problem;
use picbench_prompt::{Conversation, Role, FUNCTIONAL_FEEDBACK};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// Marker used to recognize a syntax-feedback turn (a stable fragment of
/// the crafted correction request).
const CORRECTION_MARKER: &str = "fixing the errors in previous code";

fn mix_seed(parts: &[&str], numbers: &[u64]) -> u64 {
    // FNV-1a over the textual parts and numbers: deterministic, stable
    // across runs and platforms.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for b in part.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    for n in numbers {
        for b in n.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// Text of every response up to the problem name, and from the problem
/// name to the JSON body.
const ANALYSIS_HEAD: &str = "<analysis>\nStep 1: identify the required building blocks for the ";
const ANALYSIS_TAIL: &str = " design from the API document.\nStep 2: instantiate each component \
     with the specified parameters, using defaults elsewhere.\nStep 3: wire the components port \
     by port and expose the external I/O ports.\n</analysis>\n<result>\n";
const RESULT_TAIL: &str = "\n</result>";

/// What the model knows about one problem: everything that depends only
/// on the golden design, built once per problem and shared by all of
/// its samples.
#[derive(Debug)]
struct ProblemFacts {
    golden: Netlist,
    /// The golden design rendered to JSON — the response body of every
    /// attempt without a structural corruption.
    golden_json: String,
    /// The golden's unused ports, which corruption sampling draws from.
    free_ports: Vec<(String, String)>,
}

/// Per-sample generation state.
#[derive(Debug)]
struct SampleState {
    facts: Arc<ProblemFacts>,
    /// Effective syntax difficulty: √instances/2 times the persistent
    /// per-(model, problem) knowledge multiplier.
    difficulty: f64,
    /// Effective functional difficulty.
    functional_difficulty: f64,
    rng: StdRng,
    corruptions: Vec<Corruption>,
    problem_name: String,
    /// Feedback rounds consumed so far in this sample.
    feedback_rounds: usize,
}

impl SampleState {
    /// Stages a mistake of `category`, when the golden design allows one.
    fn add_syntax_corruption(&mut self, category: FailureType) {
        let facts = &self.facts;
        if let Some(c) =
            sample_syntax_corruption(&facts.golden, &facts.free_ports, category, &mut self.rng)
        {
            self.corruptions.push(c);
        }
    }
}

/// A standard normal draw from a dedicated seeded stream — used for the
/// persistent per-(model, problem) knowledge multipliers.
fn seeded_normal(seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A stochastic stand-in for one commercial LLM, driven by a calibrated
/// [`ModelProfile`].
#[derive(Debug)]
pub struct SyntheticLlm {
    profile: ModelProfile,
    global_seed: u64,
    state: Option<SampleState>,
    /// Per-problem facts keyed by problem id, shared across samples
    /// (begin_sample would otherwise clone, re-serialize and re-scan the
    /// golden for every sample — pure overhead in large campaigns).
    problem_cache: HashMap<String, Arc<ProblemFacts>>,
}

impl SyntheticLlm {
    /// Creates a synthetic model from a profile and a campaign seed.
    pub fn new(profile: ModelProfile, global_seed: u64) -> Self {
        SyntheticLlm {
            profile,
            global_seed,
            state: None,
            problem_cache: HashMap::new(),
        }
    }

    /// The behavioural profile.
    pub fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    /// The mistakes currently active (testing/diagnostics).
    pub fn active_corruptions(&self) -> &[Corruption] {
        self.state.as_ref().map_or(&[], |s| &s.corruptions)
    }

    /// Which Table II restrictions are actually present in the system
    /// prompt. A real model only benefits from guidance it was shown;
    /// detecting the texts individually is what makes the leave-one-out
    /// restriction ablation meaningful.
    fn restricted_categories(conversation: &Conversation) -> Vec<FailureType> {
        let Some(system) = conversation.last_from(Role::System) else {
            return Vec::new();
        };
        if !system.content.contains("Restrictions (strictly follow") {
            return Vec::new();
        }
        FailureType::ALL
            .into_iter()
            .filter(|f| !f.restriction().is_empty() && system.content.contains(f.restriction()))
            .collect()
    }

    fn initial_generation(&mut self, restricted: &[FailureType]) {
        let state = self.state.as_mut().expect("begin_sample not called");
        state.corruptions.clear();
        for category in FailureType::ALL {
            let p = self.profile.category_rate(
                category,
                state.difficulty,
                restricted.contains(&category),
            );
            if state.rng.gen_bool(p) {
                state.add_syntax_corruption(category);
            }
        }
        let pf = self
            .profile
            .functional_rate(state.functional_difficulty, !restricted.is_empty());
        if state.rng.gen_bool(pf) {
            if let Some(c) = sample_functional_corruption(&state.facts.golden, &mut state.rng) {
                state.corruptions.push(c);
            }
        }
    }

    fn repair_syntax(&mut self, feedback: &str) {
        let reported: Vec<FailureType> = FailureType::ALL
            .into_iter()
            .filter(|f| feedback.contains(&format!("{} error", f.label())))
            .collect();
        let relapse_rate = self.profile.relapse_rate;
        let state = self.state.as_mut().expect("begin_sample not called");
        // Errors that survive a rewrite are sticky: the first correction
        // round fixes the easy majority, later rounds grind on the rest.
        let repair_rate = (self.profile.repair_rate
            * self.profile.repair_decay.powi(state.feedback_rounds as i32))
        .min(0.97);
        state.feedback_rounds += 1;
        let mut kept = Vec::with_capacity(state.corruptions.len());
        for c in state.corruptions.drain(..) {
            let is_reported = c
                .category()
                .map(|cat| reported.contains(&cat))
                .unwrap_or(false);
            if is_reported && state.rng.gen_bool(repair_rate) {
                continue; // fixed
            }
            // The correction request demands a full rewrite ("write entire
            // code by fixing the errors"), so mistakes the tool has not
            // reported yet — e.g. structural errors masked by a parse
            // failure — also get fixed incidentally, at a reduced rate.
            if !is_reported && !c.is_functional() && state.rng.gen_bool(repair_rate * 0.6) {
                continue; // incidentally fixed during the rewrite
            }
            kept.push(c);
        }
        state.corruptions = kept;
        // Hallucination relapse: occasionally a "fix" breaks something new.
        if state.rng.gen_bool(relapse_rate) {
            let idx = state.rng.gen_range(0..FailureType::ALL.len());
            let category = FailureType::ALL[idx];
            state.add_syntax_corruption(category);
        }
    }

    fn repair_functional(&mut self) {
        let repair_rate = self.profile.functional_repair_rate;
        let relapse_rate = self.profile.relapse_rate;
        let state = self.state.as_mut().expect("begin_sample not called");
        state.feedback_rounds += 1;
        let mut kept = Vec::with_capacity(state.corruptions.len());
        for c in state.corruptions.drain(..) {
            if c.is_functional() && state.rng.gen_bool(repair_rate) {
                continue;
            }
            kept.push(c);
        }
        state.corruptions = kept;
        // The vague functional hint can also provoke a fresh syntax slip.
        if state.rng.gen_bool(relapse_rate * 0.5) {
            let idx = state.rng.gen_range(0..FailureType::ALL.len());
            let category = FailureType::ALL[idx];
            state.add_syntax_corruption(category);
        }
    }

    fn render_response(&self) -> String {
        let state = self.state.as_ref().expect("begin_sample not called");
        let facts = &state.facts;
        // Belief = golden + structural corruptions; text-level ones edit
        // the rendered JSON afterwards. Without a structural corruption
        // the body starts from the pre-rendered golden JSON.
        let belief = state
            .corruptions
            .iter()
            .any(|c| !c.is_text_level())
            .then(|| {
                let mut belief = facts.golden.clone();
                for c in &state.corruptions {
                    c.apply(&mut belief);
                }
                belief
            });
        let mut out = String::with_capacity(
            ANALYSIS_HEAD.len()
                + state.problem_name.len()
                + ANALYSIS_TAIL.len()
                + facts.golden_json.len()
                + RESULT_TAIL.len()
                + 128,
        );
        out.push_str(ANALYSIS_HEAD);
        out.push_str(&state.problem_name);
        out.push_str(ANALYSIS_TAIL);
        if state.corruptions.iter().any(Corruption::is_text_level) {
            let mut json = match &belief {
                Some(belief) => Cow::Owned(belief.to_json_string()),
                None => Cow::Borrowed(facts.golden_json.as_str()),
            };
            for c in state.corruptions.iter().filter(|c| c.is_text_level()) {
                json = Cow::Owned(c.apply_text(&json));
            }
            out.push_str(&json);
        } else if let Some(belief) = &belief {
            belief.write_json(&mut out);
        } else {
            out.push_str(&facts.golden_json);
        }
        out.push_str(RESULT_TAIL);
        out
    }
}

impl LanguageModel for SyntheticLlm {
    fn name(&self) -> &str {
        self.profile.name
    }

    fn begin_sample(&mut self, problem: &Problem, sample_index: u64) {
        let seed = mix_seed(
            &[self.profile.name, &problem.id],
            &[self.global_seed, sample_index],
        );
        // Persistent knowledge multipliers: seeded by (model, problem)
        // only, NOT by the sample index — a model that does not know a
        // design family fails it in every sample, which is what keeps
        // Pass@5 close to Pass@1 on hard problems (as in the paper).
        let base = ModelProfile::difficulty(problem.golden.instances.len());
        let k_syntax = mix_seed(
            &[self.profile.name, &problem.id, "syntax-knowledge"],
            &[self.global_seed],
        );
        let k_func = mix_seed(
            &[self.profile.name, &problem.id, "functional-knowledge"],
            &[self.global_seed],
        );
        let z_syntax = seeded_normal(k_syntax);
        // A model that struggles with a design family syntactically also
        // tends to get its function wrong: correlate the two draws.
        let z_func = 0.7 * z_syntax + (1.0f64 - 0.49).sqrt() * seeded_normal(k_func);
        let syntax_mult = (self.profile.knowledge_sigma * z_syntax).exp();
        let func_mult = (self.profile.functional_knowledge_sigma * z_func).exp();
        let facts = match self.problem_cache.get(&problem.id) {
            Some(facts) => Arc::clone(facts),
            None => {
                let facts = Arc::new(ProblemFacts {
                    golden: problem.golden.clone(),
                    golden_json: problem.golden.to_json_string(),
                    free_ports: unused_ports(&problem.golden),
                });
                self.problem_cache
                    .insert(problem.id.clone(), Arc::clone(&facts));
                facts
            }
        };
        self.state = Some(SampleState {
            facts,
            difficulty: base * syntax_mult,
            functional_difficulty: base * func_mult,
            rng: StdRng::seed_from_u64(seed),
            corruptions: Vec::new(),
            problem_name: problem.name.to_string(),
            feedback_rounds: 0,
        });
    }

    fn respond(&mut self, conversation: &Conversation) -> String {
        assert!(
            self.state.is_some(),
            "begin_sample must be called before respond"
        );
        let restricted = Self::restricted_categories(conversation);
        let last_user = conversation
            .last_from(Role::User)
            .map_or("", |t| t.content.as_str());

        if last_user.contains(CORRECTION_MARKER) {
            self.repair_syntax(last_user);
        } else if last_user.contains(FUNCTIONAL_FEEDBACK) {
            self.repair_functional();
        } else {
            self.initial_generation(&restricted);
        }
        self.render_response()
    }
}

/// An oracle model that always answers with the golden design — used to
/// validate that the evaluation harness itself accepts every problem.
#[derive(Debug, Default)]
pub struct PerfectLlm {
    golden: Option<Netlist>,
}

impl PerfectLlm {
    /// Creates the oracle.
    pub fn new() -> Self {
        PerfectLlm::default()
    }
}

impl LanguageModel for PerfectLlm {
    fn name(&self) -> &str {
        "Oracle"
    }

    fn begin_sample(&mut self, problem: &Problem, _sample_index: u64) {
        self.golden = Some(problem.golden.clone());
    }

    fn respond(&mut self, _conversation: &Conversation) -> String {
        let golden = self.golden.as_ref().expect("begin_sample not called");
        format!(
            "<analysis>\nReproduce the reference design exactly.\n</analysis>\n<result>\n{}\n</result>",
            golden.to_json_string()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picbench_prompt::{render_system_prompt, syntax_feedback, SystemPromptConfig};
    use picbench_sparams::builtin_models;

    fn mzi_ps() -> Problem {
        picbench_problems::find("mzi-ps").unwrap()
    }

    fn conversation(restricted: bool, problem: &Problem) -> Conversation {
        let models = builtin_models();
        let infos: Vec<_> = models.iter().map(|m| m.info().clone()).collect();
        let mut c = Conversation::with_system(render_system_prompt(
            infos.iter(),
            SystemPromptConfig {
                include_restrictions: restricted,
            },
        ));
        c.push(Role::User, problem.description.clone());
        c
    }

    #[test]
    fn deterministic_given_seed() {
        let problem = mzi_ps();
        let conv = conversation(false, &problem);
        let mut a = SyntheticLlm::new(ModelProfile::gpt4(), 7);
        let mut b = SyntheticLlm::new(ModelProfile::gpt4(), 7);
        a.begin_sample(&problem, 0);
        b.begin_sample(&problem, 0);
        assert_eq!(a.respond(&conv), b.respond(&conv));
    }

    #[test]
    fn different_samples_differ() {
        let problem = mzi_ps();
        let conv = conversation(false, &problem);
        let mut llm = SyntheticLlm::new(ModelProfile::gpt_o1_mini(), 7);
        let mut outputs = std::collections::HashSet::new();
        for sample in 0..8 {
            llm.begin_sample(&problem, sample);
            outputs.insert(llm.respond(&conv));
        }
        assert!(outputs.len() > 1, "samples should vary");
    }

    #[test]
    fn responses_have_analysis_and_result_sections() {
        let problem = mzi_ps();
        let conv = conversation(false, &problem);
        let mut llm = SyntheticLlm::new(ModelProfile::claude35_sonnet(), 1);
        llm.begin_sample(&problem, 0);
        let response = llm.respond(&conv);
        assert!(response.contains("<analysis>"));
        assert!(response.contains("<result>"));
    }

    #[test]
    fn restrictions_lower_error_frequency() {
        let problem = picbench_problems::find("benes-8x8").unwrap();
        let mut dirty_plain = 0;
        let mut dirty_restricted = 0;
        let trials = 200;
        for (restricted, counter) in [(false, &mut dirty_plain), (true, &mut dirty_restricted)] {
            let conv = conversation(restricted, &problem);
            let mut llm = SyntheticLlm::new(ModelProfile::gemini15_pro(), 42);
            for sample in 0..trials {
                llm.begin_sample(&problem, sample);
                let _ = llm.respond(&conv);
                // Count every syntax mistake rather than mistake-bearing
                // samples: on a hard problem almost every sample carries at
                // least one mistake, so the indicator saturates and cannot
                // show the restriction effect.
                *counter += llm
                    .active_corruptions()
                    .iter()
                    .filter(|c| !c.is_functional())
                    .count();
            }
        }
        assert!(
            dirty_restricted < dirty_plain,
            "restrictions should reduce mistakes: {dirty_restricted} vs {dirty_plain}"
        );
    }

    #[test]
    fn feedback_repairs_errors_over_rounds() {
        let problem = picbench_problems::find("clements-8x8").unwrap();
        let mut conv = conversation(false, &problem);
        let mut llm = SyntheticLlm::new(ModelProfile::claude35_sonnet(), 3);
        let mut total_before = 0usize;
        let mut total_after = 0usize;
        for sample in 0..50 {
            llm.begin_sample(&problem, sample);
            let _ = llm.respond(&conv);
            let before: Vec<FailureType> = llm
                .active_corruptions()
                .iter()
                .filter_map(Corruption::category)
                .collect();
            total_before += before.len();
            if before.is_empty() {
                continue;
            }
            // Build feedback naming every active category and send it.
            let issues: Vec<picbench_netlist::ValidationIssue> = before
                .iter()
                .map(|f| picbench_netlist::ValidationIssue::new(*f, "details"))
                .collect();
            conv.push(Role::User, syntax_feedback(&problem.id, &issues));
            let _ = llm.respond(&conv);
            total_after += llm
                .active_corruptions()
                .iter()
                .filter(|c| !c.is_functional())
                .count();
        }
        assert!(
            (total_after as f64) < 0.8 * total_before as f64,
            "repair should remove a healthy share of errors: {total_after} vs {total_before}"
        );
    }

    #[test]
    fn perfect_llm_emits_golden() {
        let problem = mzi_ps();
        let mut llm = PerfectLlm::new();
        llm.begin_sample(&problem, 0);
        let response = llm.respond(&conversation(false, &problem));
        let payload = picbench_netlist::extract::extract_payload(&response).unwrap();
        let parsed = Netlist::from_json_str(&payload.json).unwrap();
        assert_eq!(parsed, problem.golden);
    }

    #[test]
    fn harder_problems_fail_more() {
        let easy = mzi_ps();
        let hard = picbench_problems::find("spanke-8x8").unwrap();
        let mut easy_clean = 0;
        let mut hard_clean = 0;
        for (problem, counter) in [(easy, &mut easy_clean), (hard, &mut hard_clean)] {
            let conv = conversation(false, &problem);
            let mut llm = SyntheticLlm::new(ModelProfile::gpt4(), 9);
            for sample in 0..150 {
                llm.begin_sample(&problem, sample);
                let _ = llm.respond(&conv);
                if llm.active_corruptions().is_empty() {
                    *counter += 1;
                }
            }
        }
        assert!(
            easy_clean > hard_clean,
            "difficulty scaling broken: easy {easy_clean} vs hard {hard_clean}"
        );
    }
}
