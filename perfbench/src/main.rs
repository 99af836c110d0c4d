//! `perfbench` — the PICBench-rs benchmark.
//!
//! ```text
//! perfbench --workload <paper_tables|cold_eval|store_roundtrip|serve_sessions>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the system only from outside, through the public APIs of
//! `core` (`Campaign::builder`), `server` (`PicbenchServer` + `ApiClient`
//! over loopback) and `store` (`EvalStore::open_with_io`). With
//! `--trace 0` it prints every end-to-end metric; with `--trace 1` it
//! adds the tracing wrappers and layer replays and prints every
//! per-layer metric. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The run exits 1 when
//! any correctness check fails and 2 on bad arguments. See `README.md`.

mod campaign;
mod gen;
mod replay;
mod serve;
mod stats;
mod trace;

use picbench_netlist::json::{self, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Processes an untraced run measures in, one after another, each for
/// an equal share of `--seconds`. On the sizing host the same code can
/// run a quarter faster in one process than in the next, so a run pools
/// the operations of several processes and one unlucky process cannot
/// move its medians.
const PROCESSES: usize = 4;

/// Set-ups timed per measuring process; `setup_s` reports the median of
/// all of a run's set-ups.
const SETUP_REPS: usize = 11;

/// The end-to-end metrics, printed by every `--trace 0` run.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("samples_per_s", "1/s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_tail", "ms"),
    ("sessions_per_s", "1/s"),
    ("session_ms_p50", "ms"),
    ("session_ms_tail", "ms"),
    ("first_event_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, printed by every `--trace 1` run. A layer a
/// workload never reaches reads 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("synthllm.respond_calls", "count"),
    ("synthllm.respond_ms", "ms"),
    ("synthllm.respond_share", "ratio"),
    ("promptkit.system_prompt_calls", "count"),
    ("promptkit.system_prompt_ms", "ms"),
    ("promptkit.feedback_calls", "count"),
    ("promptkit.feedback_ms", "ms"),
    ("netlist.parse_calls", "count"),
    ("netlist.parse_failed", "count"),
    ("netlist.parse_ms", "ms"),
    ("netlist.hash_ms", "ms"),
    ("netlist.canon_ms", "ms"),
    ("simulator.elaborate_calls", "count"),
    ("simulator.elaborate_failed", "count"),
    ("simulator.elaborate_ms", "ms"),
    ("simulator.plan_ms", "ms"),
    ("simulator.sweeps", "count"),
    ("simulator.sweep_ms", "ms"),
    ("simulator.compare_ms", "ms"),
    ("simulator.golden_ms", "ms"),
    ("core.cache.lookups", "count"),
    ("core.cache.response_hits", "count"),
    ("core.cache.report_hits", "count"),
    ("core.cache.sim_hits", "count"),
    ("core.cache.disk_hits", "count"),
    ("core.cache.misses", "count"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.eval_hit_us", "us"),
    ("core.eval_miss_ms", "ms"),
    ("core.worker_busy_ratio", "ratio"),
    ("core.attempts_per_sample", "count"),
    ("store.appends", "count"),
    ("store.append_bytes", "bytes"),
    ("store.append_ms", "ms"),
    ("store.syncs", "count"),
    ("store.sync_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.read_bytes", "bytes"),
    ("server.submit_ms_p50", "ms"),
    ("server.stream_drain_ms_p50", "ms"),
    ("server.events_per_session", "count"),
    ("server.stream_bytes", "bytes"),
    ("server.wire.decode_us", "us"),
    ("server.wire.encode_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_ratio", "ratio"),
];

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperTables,
    ColdEval,
    StoreRoundtrip,
    ServeSessions,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::PaperTables,
        Workload::ColdEval,
        Workload::StoreRoundtrip,
        Workload::ServeSessions,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperTables => "paper_tables",
            Workload::ColdEval => "cold_eval",
            Workload::StoreRoundtrip => "store_roundtrip",
            Workload::ServeSessions => "serve_sessions",
        }
    }

    /// Campaign workers on a host with `nproc` cores. `store_roundtrip`
    /// runs on one, so every operation appends and syncs the same
    /// records in the same order and a core stays free for the rest of
    /// the host; the others use every core, as production does.
    fn campaign_workers(self, nproc: usize) -> usize {
        match self {
            Workload::StoreRoundtrip => 1,
            _ => nproc,
        }
    }

    /// Operations and cells the sizing host completes per second, with
    /// margin: the `_tail` percentiles are fixed from these at the run
    /// length, so they do not jump between runs that finish a few more
    /// or fewer operations.
    fn sized_rates(self) -> (f64, f64) {
        match self {
            Workload::PaperTables => (0.9, 300.0),
            Workload::ColdEval => (0.6, 250.0),
            Workload::StoreRoundtrip => (0.35, 240.0),
            Workload::ServeSessions => (120.0, 350.0),
        }
    }
}

/// One operation — a campaign (or store round trip) or a served session.
#[derive(Debug, Clone)]
pub struct Op {
    pub wall_ms: f64,
    /// When the operation ended, in seconds from the start of the
    /// measured window.
    pub ended_s: f64,
    /// Time to the first event a user can act on: the first finished
    /// cell of each campaign (both halves of a store round trip), the
    /// first NDJSON line of a session.
    pub first_events_ms: Vec<f64>,
    /// Pass@k samples completed (0 when the op failed).
    pub samples: usize,
    pub cells_ms: Vec<f64>,
    pub failed: bool,
}

/// Per-layer metric values by name.
#[derive(Debug, Default)]
pub struct LayerMetrics(BTreeMap<&'static str, f64>);

impl LayerMetrics {
    fn key(name: &str) -> &'static str {
        PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(n, _)| *n)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
    }

    pub fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(Self::key(name)).or_insert(0.0) += value;
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(Self::key(name), value);
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Measure once in this process and print the raw window as JSON
    /// (how a run starts its measuring processes).
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = get("--seed")?
        .parse::<u64>()
        .map_err(|_| "--seed needs a whole number".to_string())?;
    let seconds = get("--seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or("--seconds needs a positive number")?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        child: argv.iter().any(|a| a == "--child"),
    })
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Everything a run reports besides the metric values.
struct Provenance {
    workers: usize,
    clients: usize,
    lines: Vec<String>,
    spreads: Vec<(&'static str, [f64; 5], usize)>,
    tails: Vec<(&'static str, f64, usize, usize)>,
}

/// The end-to-end metrics of a measured window.
fn end_to_end(
    workload: Workload,
    seconds: f64,
    window: &Window,
    prov: &mut Provenance,
) -> BTreeMap<&'static str, f64> {
    let Window {
        ops,
        wall_s,
        setup,
        peak_rss_mb,
    } = window;
    let ok: Vec<&Op> = ops.iter().filter(|op| !op.failed).collect();
    let cells: Vec<f64> = ok
        .iter()
        .flat_map(|op| op.cells_ms.iter().copied())
        .collect();
    let sessions: Vec<f64> = ok.iter().map(|op| op.wall_ms).collect();
    let first: Vec<f64> = ok
        .iter()
        .flat_map(|op| op.first_events_ms.iter().copied())
        .collect();
    // Rates are medians over batches of about one second of
    // completions, so a stall of a few seconds moves a rate no more
    // than it moves a median latency.
    let batch = ((ops.len() as f64 / wall_s).round() as usize).max(1);
    let rates = |amount: &dyn Fn(&Op) -> f64| {
        let done: Vec<(f64, f64)> = ops.iter().map(|op| (op.ended_s, amount(op))).collect();
        stats::batch_rates(&done, batch)
    };
    let sample_rates = rates(&|op| op.samples as f64);
    let session_rates = rates(&|op| if op.failed { 0.0 } else { 1.0 });

    let (op_rate, cell_rate) = workload.sized_rates();
    let mut tail = |name: &'static str, values: &[f64], rate: f64| {
        let p = stats::tail_percentile((seconds * rate) as usize);
        let sorted = stats::sorted(values);
        prov.tails
            .push((name, p, sorted.len(), stats::beyond(sorted.len(), p)));
        stats::percentile(&sorted, p)
    };
    let mut m = BTreeMap::new();
    m.insert("cell_ms_tail", tail("cell_ms_tail", &cells, cell_rate));
    m.insert(
        "session_ms_tail",
        tail("session_ms_tail", &sessions, op_rate),
    );
    m.insert("setup_s", stats::median(setup));
    m.insert("samples_per_s", stats::median(&sample_rates));
    m.insert("cell_ms_p50", stats::median(&cells));
    m.insert("sessions_per_s", stats::median(&session_rates));
    m.insert("session_ms_p50", stats::median(&sessions));
    m.insert("first_event_ms_p50", stats::median(&first));
    m.insert("peak_rss_mb", *peak_rss_mb);
    for (name, values) in [
        ("setup_s", setup.to_vec()),
        ("samples_per_s", sample_rates),
        ("cell_ms", cells),
        ("sessions_per_s", session_rates),
        ("session_ms", sessions),
        ("first_event_ms", first),
        ("peak_rss_mb", vec![m["peak_rss_mb"]]),
    ] {
        prov.spreads
            .push((name, stats::spread(&values), values.len()));
    }
    m
}

struct RunResult {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

/// What a measured window yields.
struct Window {
    ops: Vec<Op>,
    wall_s: f64,
    setup: Vec<f64>,
    peak_rss_mb: f64,
}

fn work_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Sets the workload up, checks it and measures it for `args.seconds`
/// in this process; with a tracer, also the per-layer metrics.
fn measure(
    args: &Args,
    prov: &mut Provenance,
    tracer: Option<&Arc<trace::Tracer>>,
) -> Result<(Window, LayerMetrics), String> {
    let mut layers = LayerMetrics::default();
    let (ops, wall_s, setup) = match args.workload {
        Workload::ServeSessions => {
            let (mut bench, setup) = serve::ServeBench::setup(args.seed, prov.clients, SETUP_REPS)?;
            let (sessions, wall_s) = bench.measure(args.seconds, None);
            let (wire, _) = bench.verify(&sessions, None)?;
            let mut ops = serve::ops(&sessions);
            if let Some(tracer) = tracer {
                bench.shutdown();
                let (traced, m) =
                    serve::traced_window(args.seed, prov.clients, args.seconds, &sessions, tracer)?;
                layers = m;
                ops.extend(serve::ops(&traced));
            }
            prov.lines
                .push(format!("wire lines checked: {}", wire.lines));
            bench.shutdown();
            (ops, wall_s, setup)
        }
        workload => {
            let (mut bench, setup) = campaign::CampaignBench::setup(
                workload,
                args.seed,
                prov.workers,
                &work_dir()?,
                SETUP_REPS,
            );
            bench.prepare_references()?;
            let (ops, wall_s) = match tracer {
                Some(tracer) => {
                    let (ops, wall_s, m) =
                        bench.measure_traced(args.seconds, tracer, &mut prov.lines)?;
                    layers = m;
                    (ops, wall_s)
                }
                None => bench.measure(args.seconds)?,
            };
            (ops, wall_s, setup)
        }
    };
    let window = Window {
        ops,
        wall_s,
        setup,
        peak_rss_mb: peak_rss_mb(),
    };
    Ok((window, layers))
}

/// The raw window a measuring process prints as its last stdout line.
fn window_json(w: &Window) -> Value {
    let numbers = |v: &[f64]| Value::Array(v.iter().map(|&x| number(x)).collect());
    let ops = w.ops.iter().map(|op| {
        Value::Array(vec![
            number(op.wall_ms),
            number(op.ended_s),
            numbers(&op.first_events_ms),
            count(op.samples),
            Value::Bool(op.failed),
            numbers(&op.cells_ms),
        ])
    });
    object([
        ("wall_s", number(w.wall_s)),
        ("peak_rss_mb", number(w.peak_rss_mb)),
        ("setup", numbers(&w.setup)),
        ("ops", Value::Array(ops.collect())),
    ])
}

fn window_from_json(v: &Value) -> Option<Window> {
    let numbers =
        |v: &Value| -> Option<Vec<f64>> { v.as_array()?.iter().map(Value::as_f64).collect() };
    let ops = v.get("ops")?.as_array()?.iter().map(|op| {
        let [wall_ms, ended_s, first_events_ms, samples, failed, cells_ms] = op.as_array()? else {
            return None;
        };
        Some(Op {
            wall_ms: wall_ms.as_f64()?,
            ended_s: ended_s.as_f64()?,
            first_events_ms: numbers(first_events_ms)?,
            samples: samples.as_f64()? as usize,
            failed: matches!(failed, Value::Bool(true)),
            cells_ms: numbers(cells_ms)?,
        })
    });
    Some(Window {
        ops: ops.collect::<Option<_>>()?,
        wall_s: v.get("wall_s")?.as_f64()?,
        peak_rss_mb: v.get("peak_rss_mb")?.as_f64()?,
        setup: numbers(v.get("setup")?)?,
    })
}

/// Measures in [`PROCESSES`] fresh processes, one after another, and
/// pools their windows end to end. Each process runs every correctness
/// check of its window; a process that fails fails the run.
fn measure_in_processes(args: &Args) -> Result<Window, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut pooled = Window {
        ops: Vec::new(),
        wall_s: 0.0,
        setup: Vec::new(),
        peak_rss_mb: 0.0,
    };
    for part in 0..PROCESSES {
        let output = std::process::Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &(args.seconds / PROCESSES as f64).to_string()])
            .args(["--trace", "0", "--child"])
            .stdin(std::process::Stdio::null())
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("start measuring process {part}: {e}"))?;
        if !output.status.success() {
            return Err(format!("measuring process {part} {}", output.status));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let window = stdout
            .lines()
            .last()
            .and_then(|line| json::parse(line).ok())
            .and_then(|v| window_from_json(&v))
            .ok_or_else(|| format!("measuring process {part} printed no window"))?;
        let offset = pooled.wall_s;
        pooled.ops.extend(window.ops.into_iter().map(|mut op| {
            op.ended_s += offset;
            op
        }));
        pooled.wall_s += window.wall_s;
        pooled.setup.extend(window.setup);
        pooled.peak_rss_mb = pooled.peak_rss_mb.max(window.peak_rss_mb);
    }
    Ok(pooled)
}

fn run(args: &Args, prov: &mut Provenance) -> Result<RunResult, String> {
    let tracer = args.trace.then(trace::Tracer::new);
    let (window, layers) = match &tracer {
        Some(tracer) => measure(args, prov, Some(tracer))?,
        None => (measure_in_processes(args)?, LayerMetrics::default()),
    };
    let attempted = window.ops.len();
    let failed = window.ops.iter().filter(|op| op.failed).count();
    prov.lines.push(format!(
        "failed_ratio: {} ({failed} of {attempted} operations)",
        stats::failed_ratio(failed, attempted)
    ));
    let metrics = match &tracer {
        None => {
            let e2e = end_to_end(args.workload, args.seconds, &window, prov);
            END_TO_END.iter().map(|&(n, u)| (n, u, e2e[n])).collect()
        }
        Some(tracer) => {
            let path = work_dir()?.join(format!(
                "spans-{}-seed{}.jsonl",
                args.workload.name(),
                args.seed
            ));
            tracer
                .write_jsonl(&path)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            prov.lines
                .push(format!("spans written to {}", path.display()));
            PER_LAYER
                .iter()
                .map(|&(n, u)| (n, u, layers.0.get(n).copied().unwrap_or(0.0)))
                .collect()
        }
    };
    Ok(RunResult {
        attempted,
        failed,
        metrics,
    })
}

/// A measuring process: one window, printed raw for the run that
/// started it; exits 1 when a check fails.
fn child_main(args: &Args, prov: &mut Provenance) -> ! {
    let result = measure(args, prov, None);
    for line in &prov.lines {
        eprintln!("perfbench: {line}");
    }
    match result {
        Ok((window, _)) => {
            println!("{}", json::to_string(&window_json(&window)));
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("perfbench: CHECK FAILED: {e}");
            std::process::exit(1);
        }
    }
}

/// A JSON object from `(key, value)` pairs, in order.
fn object<'a>(entries: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn number(n: impl Into<f64>) -> Value {
    Value::Number(n.into())
}

fn count(n: usize) -> Value {
    Value::Number(n as f64)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut prov = Provenance {
        workers: args.workload.campaign_workers(nproc),
        clients: nproc.min(2),
        lines: Vec::new(),
        spreads: Vec::new(),
        tails: Vec::new(),
    };
    if args.child {
        child_main(&args, &mut prov);
    }
    let started = Instant::now();
    let result = run(&args, &mut prov);
    for line in &prov.lines {
        eprintln!("perfbench: {line}");
    }

    let serve = args.workload == Workload::ServeSessions;
    let provenance = object([
        ("workload", Value::String(args.workload.name().into())),
        ("seed", Value::Uint(args.seed)),
        ("seconds", number(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("processes", count(if args.trace { 1 } else { PROCESSES })),
        ("nproc", count(nproc)),
        (
            "simd",
            Value::String(picbench_math::simd::active_level().token().into()),
        ),
        (
            "force_scalar",
            Value::Bool(std::env::var_os("PICBENCH_FORCE_SCALAR").is_some()),
        ),
        (
            "campaign_workers",
            count(if serve { 1 } else { prov.workers }),
        ),
        ("clients", count(if serve { prov.clients } else { 0 })),
        ("elapsed_s", number(started.elapsed().as_secs_f64())),
        (
            "tails",
            object(prov.tails.iter().map(|&(name, pct, n, beyond)| {
                (
                    name,
                    object([
                        ("percentile", number(pct)),
                        ("samples", count(n)),
                        ("beyond", count(beyond)),
                    ]),
                )
            })),
        ),
        (
            "spread",
            object(prov.spreads.iter().map(|&(name, s, n)| {
                (
                    name,
                    object([
                        ("min", number(s[0])),
                        ("q1", number(s[1])),
                        ("median", number(s[2])),
                        ("q3", number(s[3])),
                        ("max", number(s[4])),
                        ("samples", count(n)),
                    ]),
                )
            })),
        ),
    ]);
    println!("{}", json::to_string(&object([("provenance", provenance)])));

    let (correct, attempted, failed, metrics) = match result {
        Ok(r) => {
            let finite = r.metrics.iter().all(|(_, _, v)| v.is_finite());
            if !finite {
                eprintln!("perfbench: a metric is not finite");
            }
            (finite, r.attempted, r.failed, r.metrics)
        }
        Err(e) => {
            eprintln!("perfbench: CHECK FAILED: {e}");
            (false, 0, 0, Vec::new())
        }
    };
    let metrics = object(metrics.iter().map(|&(name, unit, value)| {
        let value = if value.is_finite() { value } else { 0.0 };
        (
            name,
            object([
                ("value", number(value)),
                ("unit", Value::String(unit.into())),
            ]),
        )
    }));
    let result = object([
        ("correct", Value::Bool(correct)),
        ("attempted", count(attempted.max(1))),
        ("failed", count(failed)),
        ("metrics", metrics),
    ]);
    println!("{}", json::to_string(&result));
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn a_measuring_process_window_survives_its_json_line() {
        let op = |ended_s: f64, failed: bool| Op {
            wall_ms: 2101.25,
            ended_s,
            first_events_ms: vec![0.1 + 0.2, 61.5],
            samples: if failed { 0 } else { 3600 },
            cells_ms: vec![0.044326, 1e-7, 115.491927],
            failed,
        };
        let window = Window {
            ops: vec![op(2.5, false), op(4.75, true)],
            wall_s: 10.000123,
            setup: vec![0.061, 0.058],
            peak_rss_mb: 53.7265625,
        };
        let line = json::to_string(&window_json(&window));
        let back = window_from_json(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(json::to_string(&window_json(&back)), line);
        assert_eq!(back.ops[0].first_events_ms, vec![0.1 + 0.2, 61.5]);
        assert_eq!(back.ops[1].cells_ms, window.ops[1].cells_ms);
        assert!(back.ops[1].failed && !back.ops[0].failed);
        assert_eq!(back.ops[0].samples, 3600);
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let distinct: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(distinct.len(), names.len());
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    #[test]
    fn benchmark_json_names_these_metrics_and_known_workloads() {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let value = picbench_netlist::json::parse(&manifest).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            value
                .get(key)
                .and_then(|v| v.as_array())
                .expect(key)
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(|n| n.as_str())
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        let layers: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names("end_to_end"), e2e);
        assert_eq!(names("per_layer"), layers);
        let listed = names("workloads");
        assert!(listed.len() >= 2);
        for name in &listed {
            assert!(Workload::ALL.iter().any(|w| w.name() == name), "{name}");
        }
    }
}
