//! The workload generator: everything the program under test receives
//! is derived here from the `--seed` argument — campaign seeds, problem
//! and model selections, and submission order.

/// The paper's campaign seed (its arXiv date), the default of every
/// entry point. Campaign workloads always include it, so the rendered
/// tables can be checked against fixed digests.
pub const DEFAULT_CAMPAIGN_SEED: u64 = 20_250_205;

/// Feedback settings of every campaign and session (the paper's).
pub const FEEDBACK_ITERS: [usize; 3] = [0, 1, 3];

/// Pass@k samples per problem (the paper's n).
pub const SAMPLES: usize = 5;

/// SplitMix64: a tiny, well-mixed generator whose whole state is one
/// `u64`, so every derived input is a pure function of the seed.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x5eed_ba5e_d00d_f00d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A campaign seed small enough to travel through JSON numbers exactly.
fn campaign_seed(rng: &mut SplitMix) -> u64 {
    rng.next_u64() % 1_000_000_000
}

/// The two campaign seeds a campaign workload alternates between: the
/// paper's default and one derived from the workload seed.
pub fn campaign_seeds(seed: u64) -> [u64; 2] {
    let mut rng = SplitMix::new(seed);
    let mut derived = campaign_seed(&mut rng);
    if derived == DEFAULT_CAMPAIGN_SEED {
        derived += 1;
    }
    [DEFAULT_CAMPAIGN_SEED, derived]
}

/// One `POST /v1/campaigns` submission of `serve_sessions`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Submission {
    pub problem: String,
    pub model: String,
    pub seed: u64,
}

impl Submission {
    /// The request body, exactly as the client posts it.
    pub fn body(&self) -> String {
        format!(
            r#"{{"problems": ["{}"], "models": ["{}"], "samples_per_problem": {SAMPLES}, "k_values": [1, {SAMPLES}], "feedback_iters": [0, 1, 3], "seed": {}, "restrictions": false}}"#,
            self.problem, self.model, self.seed
        )
    }
}

/// Sessions per round of a client: one fresh submission, then repeats.
pub const ROUND: usize = 4;

/// How many rounds back each repeat of a round reaches, by slot
/// (slot 0 is the fresh submission), and whose fresh submission it
/// repeats: odd slots the next tenant's, even slots the client's own.
const REPEAT_LAG: [usize; ROUND] = [0, 2, 4, 6];

/// The endless per-client submission sequences of `serve_sessions`.
///
/// Each client works in rounds of [`ROUND`] sessions: one fresh
/// submission (a `problem × model` pair in a seeded rotation with a
/// campaign seed no earlier submission used, so the shared cache
/// misses), then repeats of earlier fresh submissions — the next
/// tenant's two and six rounds back (cross-tenant hits) and the
/// client's own four rounds back. A quarter of every client's sessions
/// is therefore cold however many the run completes, so a slower or
/// faster run measures the same mix. The first rounds, which have
/// nothing that far back, repeat the round's own fresh submission.
#[derive(Debug, Clone)]
pub struct SessionPlan {
    seed: u64,
    pairs: Vec<(String, String)>,
    clients: usize,
}

impl SessionPlan {
    pub fn new(seed: u64, problems: &[String], models: &[String], clients: usize) -> Self {
        let mut pairs: Vec<(String, String)> = problems
            .iter()
            .flat_map(|p| models.iter().map(move |m| (p.clone(), m.clone())))
            .collect();
        let mut rng = SplitMix::new(seed ^ 0x5e55_1045);
        for i in (1..pairs.len()).rev() {
            let j = rng.below(i + 1);
            pairs.swap(i, j);
        }
        SessionPlan {
            seed,
            pairs,
            clients: clients.max(1),
        }
    }

    /// The `index`-th fresh submission over all clients.
    fn fresh(&self, index: usize) -> Submission {
        let (problem, model) = self.pairs[index % self.pairs.len()].clone();
        let mut rng = SplitMix::new(self.seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        Submission {
            problem,
            model,
            seed: campaign_seed(&mut rng),
        }
    }

    /// The submission `client` posts at its `step`-th session.
    pub fn submission(&self, client: usize, step: usize) -> Submission {
        let (round, slot) = (step / ROUND, step % ROUND);
        let lag = REPEAT_LAG[slot];
        if slot == 0 || round < lag {
            return self.fresh(round * self.clients + client);
        }
        let owner = if slot % 2 == 1 {
            (client + 1) % self.clients
        } else {
            client
        };
        self.fresh((round - lag) * self.clients + owner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(prefix: &str, n: usize) -> Vec<String> {
        (0..n).map(|i| format!("{prefix}{i}")).collect()
    }

    fn first_sessions(plan: &SessionPlan, client: usize, n: usize) -> Vec<Submission> {
        (0..n).map(|step| plan.submission(client, step)).collect()
    }

    #[test]
    fn same_seed_generates_identical_submissions() {
        let (p, m) = (ids("p", 24), ids("m", 5));
        let (a, b) = (
            SessionPlan::new(7, &p, &m, 2),
            SessionPlan::new(7, &p, &m, 2),
        );
        let c = SessionPlan::new(8, &p, &m, 2);
        for client in 0..2 {
            assert_eq!(
                first_sessions(&a, client, 400),
                first_sessions(&b, client, 400)
            );
            assert_ne!(
                first_sessions(&a, client, 400),
                first_sessions(&c, client, 400)
            );
        }
        assert_eq!(campaign_seeds(7), campaign_seeds(7));
        assert_ne!(campaign_seeds(7), campaign_seeds(8));
    }

    #[test]
    fn every_round_has_one_fresh_submission_and_repeats_earlier_ones() {
        let (p, m) = (ids("p", 24), ids("m", 5));
        let plan = SessionPlan::new(3, &p, &m, 2);
        let sessions = [
            first_sessions(&plan, 0, 4000),
            first_sessions(&plan, 1, 4000),
        ];
        let mut seen = std::collections::HashSet::new();
        for round in 0..1000 {
            for (client, own) in sessions.iter().enumerate() {
                let other = &sessions[1 - client];
                let step = round * ROUND;
                assert!(seen.insert(own[step].clone()), "fresh submission reused");
                for slot in 1..ROUND {
                    let lag = REPEAT_LAG[slot];
                    let want = match (round >= lag, slot % 2) {
                        (false, _) => &own[step],
                        (true, 1) => &other[step - lag * ROUND],
                        (true, _) => &own[step - lag * ROUND],
                    };
                    assert_eq!(&own[step + slot], want, "round {round} slot {slot}");
                }
            }
        }
        // The fresh rotation reaches every problem × model pair.
        let pairs: std::collections::HashSet<_> = seen
            .iter()
            .map(|s| (s.problem.clone(), s.model.clone()))
            .collect();
        assert_eq!(pairs.len(), 24 * 5);
    }

    #[test]
    fn campaign_seeds_start_with_the_paper_default() {
        for seed in 0..50 {
            let [a, b] = campaign_seeds(seed);
            assert_eq!(a, DEFAULT_CAMPAIGN_SEED);
            assert_ne!(a, b);
        }
    }
}
