//! The three campaign workloads, driven through `Campaign::builder` and
//! `EvalStore::open_with_io`:
//!
//! * `paper_tables` — Tables III and IV (restrictions off, then on) with
//!   the evaluation cache on, as `repro table3` / `table4` run them;
//! * `cold_eval` — the Table III matrix with the cache off, so every
//!   response runs the whole netlist → simulator pipeline;
//! * `store_roundtrip` — the Table III matrix journalled into a fresh
//!   store (cold half), then the store reopened and the same campaign run
//!   warm through its disk tier (warm half).
//!
//! Each alternates between the paper's default campaign seed and one
//! derived from the workload seed.

use crate::gen::{self, FEEDBACK_ITERS, SAMPLES};
use crate::replay::{self, LayerTotals, ReplayInput};
use crate::stats;
use crate::trace::{self, CellObserver, IoCounters, Recording, TracedIo, TracedProvider, Tracer};
use crate::{LayerMetrics, Op, Workload};
use picbench_core::{
    render_table, Campaign, CampaignReport, EvalStore, Evaluator, SharedEvalStore,
};
use picbench_problems::Problem;
use picbench_sim::{Backend, WavelengthGrid};
use picbench_store::{FileIo, StoreIo};
use picbench_synthllm::{ModelProfile, ModelProvider};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// FNV-1a digests of `render_table` for the default campaign seed, as
/// `repro table3` and `repro table4` print them.
const TABLE3_DIGEST: u64 = 0x8b0a_340e_cad8_f738;
const TABLE4_DIGEST: u64 = 0x0b27_89db_a91a_1842;
const TABLE3_TITLE: &str = "TABLE III: Syntax and Functionality evaluation (without restrictions)";
const TABLE4_TITLE: &str = "TABLE IV: Syntax and Functionality evaluation (with restrictions)";

/// One campaign of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Spec {
    pub restrictions: bool,
    pub seed: u64,
}

/// A campaign workload, set up and ready to run.
pub struct CampaignBench {
    workload: Workload,
    problems: Vec<Problem>,
    profiles: Vec<ModelProfile>,
    workers: usize,
    specs: Vec<Spec>,
    work_dir: PathBuf,
    references: HashMap<Spec, CampaignReport>,
    next_dir: usize,
}

/// The outcome of one operation plus what the traced run needs.
struct OpRun {
    op: Op,
    report: Option<CampaignReport>,
    io: Option<Arc<IoCounters>>,
    open_ms: f64,
}

impl CampaignBench {
    /// Builds the workload's inputs from `seed`, timing each of
    /// `reps` set-ups: the problem suite and model profiles, a validated
    /// campaign definition, the per-campaign golden table and, for
    /// `store_roundtrip`, a fresh store open.
    pub fn setup(
        workload: Workload,
        seed: u64,
        workers: usize,
        work_dir: &Path,
        reps: usize,
    ) -> (Self, Vec<f64>) {
        let seeds = gen::campaign_seeds(seed);
        let specs: Vec<Spec> = match workload {
            Workload::PaperTables => seeds
                .iter()
                .flat_map(|&seed| [false, true].map(|restrictions| Spec { restrictions, seed }))
                .collect(),
            _ => seeds
                .iter()
                .map(|&seed| Spec {
                    restrictions: false,
                    seed,
                })
                .collect(),
        };
        let mut times = Vec::with_capacity(reps);
        let mut bench = None;
        for rep in 0..reps {
            let start = Instant::now();
            let problems = picbench_problems::suite();
            let profiles = ModelProfile::all_paper_models();
            let mut b = CampaignBench {
                workload,
                problems,
                profiles,
                workers,
                specs: specs.clone(),
                work_dir: work_dir.to_path_buf(),
                references: HashMap::new(),
                next_dir: rep * 1000,
            };
            let campaign = b
                .builder(specs[0], b.providers(None, None), workers)
                .build()
                .expect("the workload's campaign is valid");
            std::hint::black_box(campaign);
            let mut evaluator = Evaluator::new(WavelengthGrid::paper_fast(), Backend::default());
            for problem in &b.problems {
                std::hint::black_box(evaluator.prime_golden(problem));
            }
            if workload == Workload::StoreRoundtrip {
                let dir = b.fresh_dir();
                let store = EvalStore::open(&dir).expect("open a fresh store");
                drop(store);
                let _ = std::fs::remove_dir_all(&dir);
            }
            times.push(start.elapsed().as_secs_f64());
            bench = Some(b);
        }
        (bench.expect("at least one set-up"), times)
    }

    fn fresh_dir(&mut self) -> PathBuf {
        self.next_dir += 1;
        let dir = self
            .work_dir
            .join(format!("store-{}-{}", std::process::id(), self.next_dir));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn providers(
        &self,
        tracer: Option<&Arc<Tracer>>,
        recording: Option<&Arc<Recording>>,
    ) -> Vec<Arc<dyn ModelProvider>> {
        self.profiles
            .iter()
            .map(|p| {
                let plain: Arc<dyn ModelProvider> = Arc::new(p.clone());
                match tracer {
                    Some(tracer) => Arc::new(TracedProvider::new(
                        plain,
                        Arc::clone(tracer),
                        recording.cloned(),
                    )) as Arc<dyn ModelProvider>,
                    None => plain,
                }
            })
            .collect()
    }

    fn builder(
        &self,
        spec: Spec,
        providers: Vec<Arc<dyn ModelProvider>>,
        threads: usize,
    ) -> picbench_core::CampaignBuilder {
        Campaign::builder()
            .problems(self.problems.clone())
            .providers(providers)
            .samples_per_problem(SAMPLES)
            .k_values([1, SAMPLES])
            .feedback_iters(FEEDBACK_ITERS)
            .restrictions(spec.restrictions)
            .seed(spec.seed)
            .threads(threads)
            .cache(self.workload != Workload::ColdEval)
    }

    /// Samples one operation completes.
    fn samples_per_op(&self) -> usize {
        let halves = if self.workload == Workload::StoreRoundtrip {
            2
        } else {
            1
        };
        halves * self.problems.len() * self.profiles.len() * FEEDBACK_ITERS.len() * SAMPLES
    }

    /// Reference reports: every spec run on one worker with the cache on,
    /// and the default seed's rendered tables checked against the
    /// recorded digests.
    pub fn prepare_references(&mut self) -> Result<(), String> {
        for spec in self.specs.clone() {
            let report = self
                .builder(spec, self.providers(None, None), 1)
                .cache(true)
                .build()
                .map_err(|e| e.to_string())?
                .execute()
                .report
                .ok_or("reference campaign was cancelled")?;
            check_digest(spec, &report)?;
            self.references.insert(spec, report);
        }
        Ok(())
    }

    fn check(&self, spec: Spec, report: &CampaignReport) -> Result<(), String> {
        let reference = &self.references[&spec];
        if !report.same_results(reference) {
            return Err(format!(
                "{spec:?}: report differs from the single-worker reference"
            ));
        }
        check_digest(spec, report)
    }

    fn open_store(
        &self,
        dir: &Path,
        io: Option<(&Arc<IoCounters>, &Arc<Tracer>)>,
    ) -> Result<SharedEvalStore, String> {
        let file_io = FileIo::new(dir).map_err(|e| e.to_string())?;
        let io: Box<dyn StoreIo> = match io {
            Some((counters, tracer)) => Box::new(TracedIo::new(
                Box::new(file_io),
                Arc::clone(counters),
                Arc::clone(tracer),
            )),
            None => Box::new(file_io),
        };
        EvalStore::open_with_io(io)
            .map(Arc::new)
            .map_err(|e| format!("open store at {}: {e}", dir.display()))
    }

    /// Runs one operation: one campaign, or for `store_roundtrip` one
    /// cold + warm pair. Correctness failures are returned as `Err`;
    /// operational failures (store degradation, cancellation) mark the
    /// op failed.
    fn run_op(
        &mut self,
        spec: Spec,
        tracer: Option<&Arc<Tracer>>,
        recording: Option<&Arc<Recording>>,
    ) -> Result<OpRun, String> {
        let start = Instant::now();
        let counters = tracer.map(|_| Arc::new(IoCounters::default()));
        let mut halves = Vec::new();
        let mut open_ms = 0.0;
        let mut failed = false;
        let store_dir = (self.workload == Workload::StoreRoundtrip).then(|| self.fresh_dir());
        let half_count = if store_dir.is_some() { 2 } else { 1 };
        for half in 0..half_count {
            let mut builder = self.builder(
                spec,
                self.providers(tracer, recording.filter(|_| half == 0)),
                self.workers,
            );
            let mut store = None;
            if let Some(dir) = &store_dir {
                let t = Instant::now();
                let s = self.open_store(dir, counters.as_ref().zip(tracer))?;
                open_ms += t.elapsed().as_secs_f64() * 1e3;
                builder = builder.store(Arc::clone(&s));
                store = Some(s);
            }
            // The first-event clock starts here, at the build; the store
            // open before it is timed on its own as `store.open_ms`.
            let observer = CellObserver::new(tracer.cloned());
            builder = builder.observer(observer.clone());
            let outcome = builder.build().map_err(|e| e.to_string())?.execute();
            if let Some(store) = &store {
                let stats = store.stats();
                failed |= stats.write_errors > 0 || stats.degraded;
            }
            failed |= outcome.cancelled || observer.degraded.load(Ordering::Relaxed);
            halves.push((outcome.report, observer));
        }
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        if let Some(dir) = &store_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let mut reports = Vec::new();
        for (report, _) in &halves {
            match report {
                Some(report) => {
                    self.check(spec, report)?;
                    reports.push(report.clone());
                }
                None => failed = true,
            }
        }
        if let [cold, warm] = &reports[..] {
            if !warm.same_results(cold) {
                return Err(format!(
                    "{spec:?}: the warm half does not reproduce the cold report"
                ));
            }
        }
        let cells_ms = halves.iter().flat_map(|(_, o)| o.cells_ms()).collect();
        let first_events_ms = halves
            .iter()
            .map(|(_, o)| o.first_result_ms().unwrap_or(wall_ms))
            .collect();
        Ok(OpRun {
            op: Op {
                wall_ms,
                ended_s: 0.0,
                first_events_ms,
                samples: if failed { 0 } else { self.samples_per_op() },
                cells_ms,
                failed,
            },
            report: reports.into_iter().next(),
            io: counters,
            open_ms,
        })
    }

    /// The measured loop: closed-loop operations until `seconds` pass.
    pub fn measure(&mut self, seconds: f64) -> Result<(Vec<Op>, f64), String> {
        let start = Instant::now();
        let mut ops = Vec::new();
        while ops.is_empty() || start.elapsed().as_secs_f64() < seconds {
            let spec = self.specs[ops.len() % self.specs.len()];
            let mut op = self.run_op(spec, None, None)?.op;
            op.ended_s = start.elapsed().as_secs_f64();
            ops.push(op);
        }
        Ok((ops, start.elapsed().as_secs_f64()))
    }

    /// The traced run: untraced and traced operations alternate for
    /// `seconds`; the first traced operation records its responses for
    /// the layer replays. Returns every operation, the total wall-clock
    /// and the per-layer metrics.
    pub fn measure_traced(
        &mut self,
        seconds: f64,
        tracer: &Arc<Tracer>,
        log: &mut Vec<String>,
    ) -> Result<(Vec<Op>, f64, LayerMetrics), String> {
        let start = Instant::now();
        let recording = Arc::new(Recording::default());
        let mut plain: Vec<Op> = Vec::new();
        let mut traced: Vec<(OpRun, u64, u64)> = Vec::new();
        let mut recorded: Option<(Spec, CampaignReport)> = None;
        let mut i = 0usize;
        while traced.is_empty() || start.elapsed().as_secs_f64() < seconds {
            let spec = self.specs[(i / 2) % self.specs.len()];
            if i.is_multiple_of(2) {
                let mut op = self.run_op(spec, None, None)?.op;
                op.ended_s = start.elapsed().as_secs_f64();
                plain.push(op);
            } else {
                let record = recorded.is_none().then_some(&recording);
                let t0 = tracer.now_ns();
                let mut run = self.run_op(spec, Some(tracer), record)?;
                let t1 = tracer.now_ns();
                run.op.ended_s = start.elapsed().as_secs_f64();
                if recorded.is_none() {
                    recorded = Some((spec, run.report.clone().ok_or("recorded op failed")?));
                }
                traced.push((run, t0, t1));
            }
            i += 1;
        }
        let wall_s = start.elapsed().as_secs_f64();

        // The untraced twin of a traced op ran the same spec just before it.
        let overhead: Vec<f64> = traced
            .iter()
            .zip(&plain)
            .map(|((run, _, _), op)| run.op.wall_ms / op.wall_ms)
            .collect();

        let spans = tracer.spans();
        let n = traced.len() as f64;
        let mut m = LayerMetrics::default();
        let mut unattributed = Vec::new();
        let mut cache_counts: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (run, t0, t1) in &traced {
            let window: Vec<trace::Span> = spans
                .iter()
                .filter(|s| s.start_ns >= *t0 && s.end_ns <= *t1)
                .cloned()
                .collect();
            let self_ns = trace::self_time_ns(&window);
            let ns = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64;
            let calls = window
                .iter()
                .filter(|s| s.name == "synthllm.respond")
                .count() as f64;
            let worker_ms = self.workers as f64 * run.op.wall_ms;
            m.add("synthllm.respond_calls", calls / n);
            m.add("synthllm.respond_ms", ns("synthllm.respond") / 1e6 / n);
            m.add(
                "synthllm.respond_share",
                ns("synthllm.respond") / 1e6 / worker_ms / n,
            );
            m.add(
                "core.attempts_per_sample",
                calls / run.op.samples.max(1) as f64 / n,
            );
            let covered: f64 = window
                .iter()
                .filter(|s| s.parent == 0)
                .map(|s| s.duration_ns() as f64 / 1e6)
                .sum();
            unattributed.push(1.0 - covered / worker_ms);
            if let Some(io) = &run.io {
                let load = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed) as f64 / n;
                m.add("store.appends", load(&io.appends));
                m.add("store.append_bytes", load(&io.append_bytes));
                m.add("store.append_ms", ns("store.append") / 1e6 / n);
                m.add("store.syncs", load(&io.syncs));
                m.add("store.sync_ms", ns("store.sync") / 1e6 / n);
                m.add("store.open_ms", run.open_ms / n);
                m.add("store.read_bytes", load(&io.read_bytes));
            }
            let stats = run
                .report
                .as_ref()
                .and_then(|r| r.cache_stats)
                .unwrap_or_default();
            for (name, value) in [
                ("core.cache.lookups", stats.lookups() as f64),
                ("core.cache.response_hits", stats.response_hits as f64),
                ("core.cache.report_hits", stats.report_hits as f64),
                ("core.cache.sim_hits", stats.sim_hits as f64),
                ("core.cache.disk_hits", stats.disk_hits as f64),
                ("core.cache.misses", stats.misses as f64),
                ("core.cache.hit_ratio", stats.hit_rate()),
            ] {
                cache_counts.entry(name).or_default().push(value);
            }
        }
        // Cache counters depend on worker races: report the median and
        // log the spread, never a single run's count as exact.
        for (name, values) in &cache_counts {
            m.set(name, stats::median(values));
            log.push(format!(
                "{name} over {} traced ops: spread {:?}",
                values.len(),
                stats::spread(values)
            ));
        }
        m.set("trace.overhead_ratio", stats::median(&overhead));
        m.set("trace.unattributed_ratio", stats::median(&unattributed));
        m.set(
            "core.worker_busy_ratio",
            stats::median(
                &plain
                    .iter()
                    .map(|op| op.cells_ms.iter().sum::<f64>() / (self.workers as f64 * op.wall_ms))
                    .collect::<Vec<_>>(),
            ),
        );
        log.push(format!(
            "{}: spans leave {:.1}% of worker wall-clock ({} workers x op wall) outside any cell or store span (median of {} traced ops)",
            self.workload.name(),
            100.0 * stats::median(&unattributed),
            self.workers,
            traced.len()
        ));

        // Layer replays of the recorded op.
        let (spec, report) = recorded.expect("at least one traced op");
        let attempts = recording
            .attempts
            .lock()
            .expect("recording poisoned")
            .clone();
        let (totals, tallies) = replay::replay(&ReplayInput {
            problems: &self.problems,
            attempts: &attempts,
            restrictions: spec.restrictions,
            cached: self.workload != Workload::ColdEval,
            system_prompts: self.workers,
        })?;
        replay::check_tallies(std::slice::from_ref(&report), &tallies)?;
        m.add_layers(&totals, 1.0);
        plain.extend(traced.into_iter().map(|(run, _, _)| run.op));
        Ok((plain, wall_s, m))
    }
}

fn check_digest(spec: Spec, report: &CampaignReport) -> Result<(), String> {
    if spec.seed != gen::DEFAULT_CAMPAIGN_SEED {
        return Ok(());
    }
    let (title, want) = if spec.restrictions {
        (TABLE4_TITLE, TABLE4_DIGEST)
    } else {
        (TABLE3_TITLE, TABLE3_DIGEST)
    };
    let got = picbench_store::fnv1a64(render_table(report, title).as_bytes());
    if got != want {
        return Err(format!(
            "{title}: rendered digest {got:#018x}, expected {want:#018x}"
        ));
    }
    Ok(())
}

impl LayerMetrics {
    /// Adds replay totals, each divided by `per` operations.
    pub fn add_layers(&mut self, t: &LayerTotals, per: f64) {
        let ms = |ns: u64| ns as f64 / 1e6 / per;
        let count = |c: u64| c as f64 / per;
        self.add(
            "promptkit.system_prompt_calls",
            count(t.system_prompt_calls),
        );
        self.add("promptkit.system_prompt_ms", ms(t.system_prompt_ns));
        self.add("promptkit.feedback_calls", count(t.feedback_calls));
        self.add("promptkit.feedback_ms", ms(t.feedback_ns));
        self.add("netlist.parse_calls", count(t.parse_calls));
        self.add("netlist.parse_failed", count(t.parse_failed));
        self.add("netlist.parse_ms", ms(t.parse_ns));
        self.add("netlist.hash_ms", ms(t.hash_ns));
        self.add("netlist.canon_ms", ms(t.canon_ns));
        self.add("simulator.elaborate_calls", count(t.elaborate_calls));
        self.add("simulator.elaborate_failed", count(t.elaborate_failed));
        self.add("simulator.elaborate_ms", ms(t.elaborate_ns));
        self.add("simulator.plan_ms", ms(t.plan_ns));
        self.add("simulator.sweeps", count(t.sweeps));
        self.add("simulator.sweep_ms", ms(t.sweep_ns));
        self.add("simulator.compare_ms", ms(t.compare_ns));
        self.add("simulator.golden_ms", ms(t.golden_ns));
        let mean = |ns: u64, calls: u64| {
            if calls == 0 {
                0.0
            } else {
                ns as f64 / calls as f64
            }
        };
        self.set("core.eval_hit_us", mean(t.eval_hit_ns, t.eval_hits) / 1e3);
        self.set(
            "core.eval_miss_ms",
            mean(t.eval_miss_ns, t.eval_misses) / 1e6,
        );
    }
}
