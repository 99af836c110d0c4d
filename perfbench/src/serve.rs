//! `serve_sessions`: an in-process `PicbenchServer` driven over loopback
//! by tenant clients through `ApiClient`. Each client is a closed loop:
//! `POST /v1/campaigns`, then drain the NDJSON event stream to
//! `CampaignFinished`, then the next submission.

use crate::gen::{SessionPlan, Submission, FEEDBACK_ITERS, SAMPLES};
use crate::replay::{self, ReplayInput};
use crate::stats;
use crate::trace::{Recording, Span, TracedProvider, Tracer};
use crate::{LayerMetrics, Op};
use picbench_core::{Campaign, CampaignEvent, CampaignReport, EvalCache};
use picbench_netlist::json::Value;
use picbench_problems::Problem;
use picbench_server::client::ApiClient;
use picbench_server::server::{PicbenchServer, ServerConfig, ServerHandle};
use picbench_server::wire::{decode_event, encode_event};
use picbench_synthllm::{ModelProfile, ModelProvider};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One client session as the client saw it.
#[derive(Debug, Clone)]
pub struct Session {
    pub submission: Submission,
    pub status: u16,
    pub stream_status: u16,
    pub lines: Vec<String>,
    /// The stream broke before the server closed it.
    pub transport_error: bool,
    pub submit_ms: f64,
    pub drain_ms: f64,
    pub first_line_ms: f64,
    pub total_ms: f64,
    /// When the session ended, in seconds from the start of its window.
    pub ended_s: f64,
    /// Per cell, from the `POST` to the arrival of its `CellFinished`
    /// line. The stream coalesces sub-millisecond cells into one read,
    /// so the client cannot time `CellStarted → CellFinished` itself.
    pub cells_ms: Vec<f64>,
}

/// Whether a session failed: refused or unanswered submission, a stream
/// that did not open, broke off, or did not end in an uncancelled
/// `CampaignFinished`, or a store that degraded underneath it.
pub fn session_failed(s: &Session) -> bool {
    if s.status != 201 || s.stream_status != 200 || s.transport_error {
        return true;
    }
    let degraded = s
        .lines
        .iter()
        .any(|l| matches!(decode_event(l), Ok(CampaignEvent::StoreDegraded { .. })));
    let finished = matches!(
        s.lines.last().map(|l| decode_event(l)),
        Some(Ok(CampaignEvent::CampaignFinished {
            cancelled: false,
            ..
        }))
    );
    degraded || !finished
}

/// The server, its clients' submission plan and the reference data.
pub struct ServeBench {
    server: Option<ServerHandle>,
    plan: SessionPlan,
    problems: Vec<Problem>,
    clients: usize,
}

fn start_server(clients: usize) -> Result<ServerHandle, String> {
    PicbenchServer::start(ServerConfig {
        // Each session holds a worker for its stream while the POST of
        // the other client needs one more.
        workers: 2 * clients + 2,
        max_sessions: 2 * clients,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))
}

impl ServeBench {
    /// Generates the submission plan and starts the server `reps` times
    /// (keeping the last), timing each up to the return of
    /// `PicbenchServer::start`, which binds and spawns every thread. The
    /// first answer is checked untimed: it waits on the acceptor's 2 ms
    /// poll, which would dominate a millisecond of set-up.
    pub fn setup(seed: u64, clients: usize, reps: usize) -> Result<(Self, Vec<f64>), String> {
        let mut times = Vec::with_capacity(reps);
        let mut bench = None;
        for _ in 0..reps {
            let start = Instant::now();
            let problems = picbench_problems::suite();
            let ids: Vec<String> = problems.iter().map(|p| p.id.clone()).collect();
            let models: Vec<String> = ModelProfile::all_paper_models()
                .iter()
                .map(|m| m.name.to_string())
                .collect();
            let plan = SessionPlan::new(seed, &ids, &models, clients);
            let server = start_server(clients)?;
            times.push(start.elapsed().as_secs_f64());
            let ready = ApiClient::new(server.addr())
                .request("GET", "/v1/stats", None)
                .map_err(|e| format!("stats request: {e}"))?;
            if ready.status != 200 {
                return Err(format!("stats answered {}", ready.status));
            }
            if let Some(ServeBench {
                server: Some(old), ..
            }) = bench.replace(ServeBench {
                server: Some(server),
                plan,
                problems,
                clients,
            }) {
                old.shutdown();
            }
        }
        Ok((bench.expect("at least one set-up"), times))
    }

    fn addr(&self) -> std::net::SocketAddr {
        self.server.as_ref().expect("server running").addr()
    }

    /// The closed loop: every client submits and drains until `seconds`
    /// pass. With a tracer, each session records `server.session` with
    /// `server.submit` and `server.drain` children.
    pub fn measure(&self, seconds: f64, tracer: Option<&Arc<Tracer>>) -> (Vec<Session>, f64) {
        let addr = self.addr();
        let start = Instant::now();
        let sessions = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for client in 0..self.clients {
                let (sessions, plan) = (&sessions, &self.plan);
                scope.spawn(move || {
                    let api = ApiClient::new(addr).with_tenant(format!("tenant-{client}"));
                    let mut step = 0;
                    while start.elapsed().as_secs_f64() < seconds {
                        let mut s = run_session(&api, &plan.submission(client, step), tracer);
                        s.ended_s = start.elapsed().as_secs_f64();
                        sessions.lock().expect("session log poisoned").push(s);
                        step += 1;
                    }
                });
            }
        });
        let wall = start.elapsed().as_secs_f64();
        (sessions.into_inner().expect("session log poisoned"), wall)
    }

    /// Shared-cache counters from `GET /v1/stats`.
    pub fn cache_counters(&self) -> Result<Vec<(&'static str, f64)>, String> {
        let stats = ApiClient::new(self.addr())
            .request("GET", "/v1/stats", None)
            .map_err(|e| e.to_string())?
            .json()?;
        let cache = stats.get("cache").ok_or("stats without cache")?;
        let get = |key: &str| cache.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        let hits = get("response_hits") + get("report_hits") + get("sim_hits") + get("disk_hits");
        let lookups = hits + get("misses");
        Ok(vec![
            ("core.cache.lookups", lookups),
            ("core.cache.response_hits", get("response_hits")),
            ("core.cache.report_hits", get("report_hits")),
            ("core.cache.sim_hits", get("sim_hits")),
            ("core.cache.disk_hits", get("disk_hits")),
            ("core.cache.misses", get("misses")),
            (
                "core.cache.hit_ratio",
                if lookups > 0.0 { hits / lookups } else { 0.0 },
            ),
        ])
    }

    pub fn shutdown(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }

    /// Checks every completed session: each line decodes and re-encodes
    /// byte-identically, and the per-cell tallies equal an in-process run
    /// of the same submission. With a tracer, the in-process runs go
    /// through the model wrapper and their responses are replayed layer
    /// by layer; returns the wire timings and, when traced, the layer
    /// metrics per session.
    pub fn verify(
        &self,
        sessions: &[Session],
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<(WireTimes, Option<LayerMetrics>), String> {
        let mut wire = WireTimes::default();
        let mut streamed: HashMap<&Submission, Vec<CampaignEvent>> = HashMap::new();
        for s in sessions.iter().filter(|s| !session_failed(s)) {
            let mut finished = Vec::new();
            for line in &s.lines {
                let t = Instant::now();
                let event =
                    decode_event(line).map_err(|e| format!("undecodable line {line:?}: {e}"))?;
                wire.decode_ns += t.elapsed().as_nanos() as u64;
                let t = Instant::now();
                let again = encode_event(&event);
                wire.encode_ns += t.elapsed().as_nanos() as u64;
                wire.lines += 1;
                if again != *line {
                    return Err(format!(
                        "line does not re-encode byte-identically: {line:?}"
                    ));
                }
                if matches!(event, CampaignEvent::CellFinished { .. }) {
                    finished.push(event);
                }
            }
            let tallies = cell_tallies(&finished);
            if let Some(previous) = streamed.insert(&s.submission, finished) {
                if cell_tallies(&previous) != tallies {
                    return Err(format!(
                        "{:?}: two sessions streamed different tallies",
                        s.submission
                    ));
                }
            }
        }

        // In-process twins, in first-completion order, over one shared
        // cache as the server's sessions share one. Untraced, they run
        // on one thread per client, as the sessions did; traced, on one,
        // so the recorded responses keep their order for the replays.
        let mut seen = HashSet::new();
        let order: Vec<&Submission> = sessions
            .iter()
            .map(|s| &s.submission)
            .filter(|&sub| streamed.contains_key(sub) && seen.insert(sub))
            .collect();
        let cache = Arc::new(EvalCache::new());
        let recording = Arc::new(Recording::default());
        let twin = |submission: &Submission| {
            let (events, report) =
                in_process(&self.problems, submission, &cache, tracer, &recording)?;
            if cell_tallies(&events) != cell_tallies(&streamed[submission]) {
                return Err(format!(
                    "{submission:?}: streamed tallies differ from the in-process run"
                ));
            }
            Ok(report)
        };
        let threads = if tracer.is_some() { 1 } else { self.clients };
        let next = AtomicUsize::new(0);
        let done = Mutex::new(Vec::with_capacity(order.len()));
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(submission) = order.get(i) else {
                        break;
                    };
                    let result = twin(submission);
                    let failed = result.is_err();
                    done.lock()
                        .expect("twin results poisoned")
                        .push((i, result));
                    if failed {
                        next.store(order.len(), Ordering::Relaxed);
                    }
                });
            }
        });
        let mut done = done.into_inner().expect("twin results poisoned");
        done.sort_by_key(|(i, _)| *i);
        let reports = done
            .into_iter()
            .map(|(_, result)| result)
            .collect::<Result<Vec<_>, _>>()?;
        let Some(tracer) = tracer else {
            return Ok((wire, None));
        };
        let attempts = recording
            .attempts
            .lock()
            .expect("recording poisoned")
            .clone();
        let (totals, tallies) = replay::replay(&ReplayInput {
            problems: &self.problems,
            attempts: &attempts,
            restrictions: false,
            cached: true,
            system_prompts: order.len(),
        })?;
        replay::check_tallies(&reports, &tallies)?;
        let per = order.len().max(1) as f64;
        let mut m = LayerMetrics::default();
        m.add_layers(&totals, per);
        let spans = tracer.spans();
        let respond: Vec<&Span> = spans
            .iter()
            .filter(|s| s.name == "synthllm.respond")
            .collect();
        let respond_ms = respond.iter().map(|s| s.duration_ns() as f64).sum::<f64>() / 1e6;
        let inprocess_ms: f64 = spans
            .iter()
            .filter(|s| s.name == "core.inprocess_session")
            .map(|s| s.duration_ns() as f64 / 1e6)
            .sum();
        m.set("synthllm.respond_calls", respond.len() as f64 / per);
        m.set("synthllm.respond_ms", respond_ms / per);
        m.set(
            "synthllm.respond_share",
            respond_ms / inprocess_ms.max(1e-9),
        );
        m.set(
            "core.attempts_per_sample",
            respond.len() as f64 / (per * (FEEDBACK_ITERS.len() * SAMPLES) as f64),
        );
        Ok((wire, Some(m)))
    }

    pub fn clients(&self) -> usize {
        self.clients
    }
}

/// The same submission run in this process on one worker.
fn in_process(
    problems: &[Problem],
    submission: &Submission,
    cache: &Arc<EvalCache>,
    tracer: Option<&Arc<Tracer>>,
    recording: &Arc<Recording>,
) -> Result<(Vec<CampaignEvent>, CampaignReport), String> {
    let problem = problems
        .iter()
        .find(|p| p.id == submission.problem)
        .cloned()
        .ok_or("unknown problem")?;
    let profile = ModelProfile::by_name(&submission.model).ok_or("unknown model")?;
    let mut provider: Arc<dyn ModelProvider> = Arc::new(profile);
    if let Some(tracer) = tracer {
        provider = Arc::new(TracedProvider::new(
            provider,
            Arc::clone(tracer),
            Some(Arc::clone(recording)),
        ));
    }
    let events = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&events);
    // The cell observer publishes each cell to the model wrapper.
    let cells = crate::trace::CellObserver::new(tracer.cloned());
    let campaign = Campaign::builder()
        .problem(problem)
        .provider(provider)
        .samples_per_problem(SAMPLES)
        .k_values([1, SAMPLES])
        .feedback_iters(FEEDBACK_ITERS)
        .seed(submission.seed)
        .restrictions(false)
        .threads(1)
        .shared_cache(Arc::clone(cache))
        .observer(Arc::new(move |event: &CampaignEvent| {
            use picbench_core::CampaignObserver;
            cells.on_event(event);
            if matches!(event, CampaignEvent::CellFinished { .. }) {
                sink.lock()
                    .expect("event sink poisoned")
                    .push(event.clone());
            }
        }))
        .build()
        .map_err(|e| e.to_string())?;
    let report = match tracer {
        Some(tracer) => {
            tracer.open("core.inprocess_session", tracer.next_id());
            let outcome = campaign.execute();
            tracer.close();
            outcome.report
        }
        None => campaign.execute().report,
    }
    .ok_or("in-process run was cancelled")?;
    let events = events.lock().expect("event sink poisoned").clone();
    Ok((events, report))
}

/// Wire codec timings over every received line.
#[derive(Debug, Default)]
pub struct WireTimes {
    pub lines: u64,
    pub decode_ns: u64,
    pub encode_ns: u64,
}

/// `(problem, model, feedback) → tally` of every finished cell, in order.
fn cell_tallies(
    events: &[CampaignEvent],
) -> Vec<(String, String, usize, picbench_core::ProblemTally)> {
    events
        .iter()
        .filter_map(|e| match e {
            CampaignEvent::CellFinished {
                problem_id,
                model,
                feedback_iters,
                tally,
                ..
            } => Some((problem_id.clone(), model.clone(), *feedback_iters, *tally)),
            _ => None,
        })
        .collect()
}

fn run_session(api: &ApiClient, submission: &Submission, tracer: Option<&Arc<Tracer>>) -> Session {
    let start = Instant::now();
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let mut s = Session {
        submission: submission.clone(),
        status: 0,
        stream_status: 0,
        lines: Vec::new(),
        transport_error: false,
        submit_ms: 0.0,
        drain_ms: 0.0,
        first_line_ms: 0.0,
        total_ms: 0.0,
        ended_s: 0.0,
        cells_ms: Vec::new(),
    };
    let t0 = tracer.map(|t| t.now_ns());
    let response = api.request("POST", "/v1/campaigns", Some(&submission.body()));
    s.submit_ms = ms(start);
    let t1 = tracer.map(|t| t.now_ns());
    let id = match response {
        Ok(r) => {
            s.status = r.status;
            r.json()
                .ok()
                .and_then(|v| v.get("id").and_then(|id| id.as_str().map(String::from)))
        }
        Err(_) => None,
    };
    if let (201, Some(id)) = (s.status, id) {
        let drain_start = Instant::now();
        match api.open_stream(&format!("/v1/campaigns/{id}/events")) {
            Ok(mut stream) => {
                s.stream_status = stream.status;
                loop {
                    match stream.next_line() {
                        Ok(Some(line)) => {
                            if s.lines.is_empty() {
                                s.first_line_ms = ms(start);
                            }
                            if line.starts_with(r#"{"event":"cell_finished""#) {
                                s.cells_ms.push(ms(start));
                            }
                            s.lines.push(line);
                        }
                        Ok(None) => break,
                        Err(_) => {
                            s.transport_error = true;
                            break;
                        }
                    }
                }
            }
            Err(_) => s.transport_error = true,
        }
        s.drain_ms = ms(drain_start);
    }
    s.total_ms = ms(start);
    if let (Some(tracer), Some(t0), Some(t1)) = (tracer, t0, t1) {
        let group = tracer.next_id();
        let session_id = tracer.next_id();
        let end = tracer.now_ns();
        let span = |id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64| Span {
            id,
            parent,
            name,
            group,
            start_ns,
            end_ns,
        };
        tracer.push(span(session_id, 0, "server.session", t0, end));
        tracer.push(span(tracer.next_id(), session_id, "server.submit", t0, t1));
        tracer.push(span(tracer.next_id(), session_id, "server.drain", t1, end));
    }
    s
}

/// The traced window of `serve_sessions`: a fresh server (so it starts
/// from the same cold cache as the untraced window), traced client
/// sessions, traced in-process twins and their layer replays. Returns
/// the sessions and every per-layer metric of the workload.
pub fn traced_window(
    seed: u64,
    clients: usize,
    seconds: f64,
    untraced: &[Session],
    tracer: &Arc<Tracer>,
) -> Result<(Vec<Session>, LayerMetrics), String> {
    let (mut bench, _) = ServeBench::setup(seed, clients, 1)?;
    let (traced, wall_s) = bench.measure(seconds, Some(tracer));
    let cache = bench.cache_counters()?;
    bench.shutdown();
    let (wire, m) = bench.verify(&traced, Some(tracer))?;
    let mut m = m.expect("a traced verify yields layer metrics");
    server_metrics(&traced, &wire, &mut m);
    let ok = traced.iter().filter(|s| !session_failed(s)).count().max(1) as f64;
    for (name, value) in cache {
        let per_session = if name == "core.cache.hit_ratio" {
            value
        } else {
            value / ok
        };
        m.set(name, per_session);
    }
    let median_ms = |sessions: &[Session]| {
        stats::median(&sessions.iter().map(|s| s.total_ms).collect::<Vec<_>>())
    };
    m.set(
        "trace.overhead_ratio",
        median_ms(&traced) / median_ms(untraced),
    );
    // Sessions run one campaign worker each; it is busy from the first
    // streamed line to the last cell result.
    let client_ms = bench.clients() as f64 * wall_s * 1e3;
    let busy: f64 = traced
        .iter()
        .filter_map(|s| s.cells_ms.last().map(|last| last - s.first_line_ms))
        .sum();
    m.set("core.worker_busy_ratio", busy / client_ms);
    let covered: f64 = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "server.session")
        .map(|s| s.duration_ns() as f64 / 1e6)
        .sum();
    m.set("trace.unattributed_ratio", 1.0 - covered / client_ms);
    Ok((traced, m))
}

/// Converts sessions to the common operation records.
pub fn ops(sessions: &[Session]) -> Vec<Op> {
    sessions
        .iter()
        .map(|s| {
            let failed = session_failed(s);
            Op {
                wall_ms: s.total_ms,
                ended_s: s.ended_s,
                first_events_ms: vec![s.first_line_ms],
                samples: if failed {
                    0
                } else {
                    FEEDBACK_ITERS.len() * SAMPLES
                },
                cells_ms: s.cells_ms.clone(),
                failed,
            }
        })
        .collect()
}

/// The `server.*` layer metrics of a traced run.
pub fn server_metrics(sessions: &[Session], wire: &WireTimes, m: &mut LayerMetrics) {
    let ok: Vec<&Session> = sessions.iter().filter(|s| !session_failed(s)).collect();
    let n = ok.len().max(1) as f64;
    let lines = wire.lines.max(1) as f64;
    m.set(
        "server.submit_ms_p50",
        stats::median(&ok.iter().map(|s| s.submit_ms).collect::<Vec<_>>()),
    );
    m.set(
        "server.stream_drain_ms_p50",
        stats::median(&ok.iter().map(|s| s.drain_ms).collect::<Vec<_>>()),
    );
    m.set(
        "server.events_per_session",
        ok.iter().map(|s| s.lines.len()).sum::<usize>() as f64 / n,
    );
    m.set(
        "server.stream_bytes",
        ok.iter()
            .flat_map(|s| &s.lines)
            .map(|l| l.len() + 1)
            .sum::<usize>() as f64
            / n,
    );
    m.set("server.wire.decode_us", wire.decode_ns as f64 / lines / 1e3);
    m.set("server.wire.encode_us", wire.encode_ns as f64 / lines / 1e3);
}

#[cfg(test)]
mod tests {
    use super::*;
    use picbench_core::ProblemTally;

    fn session(status: u16, lines: Vec<String>) -> Session {
        Session {
            submission: Submission {
                problem: "mzi-ps".into(),
                model: "GPT-4".into(),
                seed: 1,
            },
            status,
            stream_status: if status == 201 { 200 } else { 0 },
            lines,
            transport_error: false,
            submit_ms: 1.0,
            drain_ms: 1.0,
            first_line_ms: 1.0,
            total_ms: 2.0,
            ended_s: 1.0,
            cells_ms: Vec::new(),
        }
    }

    fn complete_stream() -> Vec<String> {
        [
            CampaignEvent::CampaignStarted {
                problems: 1,
                providers: 1,
                cells: 1,
            },
            CampaignEvent::CellStarted {
                problem_id: "mzi-ps".into(),
                model: "GPT-4".into(),
                feedback_iters: 0,
            },
            CampaignEvent::CellFinished {
                problem_id: "mzi-ps".into(),
                model: "GPT-4".into(),
                feedback_iters: 0,
                tally: ProblemTally {
                    n: 5,
                    syntax_passes: 4,
                    functional_passes: 3,
                },
                completed: 1,
                total: 1,
            },
            CampaignEvent::CampaignFinished {
                cells_completed: 1,
                cells_total: 1,
                cancelled: false,
            },
        ]
        .iter()
        .map(encode_event)
        .collect()
    }

    #[test]
    fn failed_ratio_counts_refused_and_truncated_sessions() {
        let ok = session(201, complete_stream());
        let refused = session(429, Vec::new());
        let mut truncated_lines = complete_stream();
        truncated_lines.pop();
        let truncated = session(201, truncated_lines);
        let mut broken = session(201, complete_stream());
        broken.transport_error = true;
        let mut cancelled_lines = complete_stream();
        *cancelled_lines.last_mut().unwrap() = encode_event(&CampaignEvent::CampaignFinished {
            cells_completed: 1,
            cells_total: 1,
            cancelled: true,
        });
        let cancelled = session(201, cancelled_lines);
        assert!(!session_failed(&ok));
        for s in [&refused, &truncated, &broken, &cancelled] {
            assert!(session_failed(s), "{:?}", s.lines.last());
        }
        let all = [ok, refused, truncated, broken, cancelled];
        let failed = ops(&all).iter().filter(|op| op.failed).count();
        assert_eq!(stats::failed_ratio(failed, all.len()), 0.8);
        assert_eq!(ops(&all)[1].samples, 0);
    }
}
