//! Fault-tolerance contracts of sharded campaign execution:
//!
//! * a sharded campaign's merged report is **bit-identical** to the
//!   single-process engine for any shard count;
//! * a worker killed at any cell boundary of any shard is detected,
//!   its shard reassigned, and the merged report stays bit-identical;
//! * a *stalled* (not dead) worker loses its lease, its shard is
//!   reassigned, and when the stalled worker revives its journal writes
//!   are quarantined — fenced out of the merge — not merged;
//! * a supervisor that dies mid-reassignment can be replaced by a fresh
//!   supervisor over the same journal root, which resumes from the
//!   journalled generations and still produces the identical report;
//! * the merge is partition-independent: *any* assignment of cells to
//!   shard journals (not just the planner's contiguous ranges, any
//!   count 1..=8) merges to the same report bytes.

use picbench_core::supervisor::WorkerFault;
use picbench_core::{
    Campaign, CampaignBuildError, CampaignConfig, CampaignEvent, CampaignReport, CancelToken,
    EvalSnapshot, EvalStore, InProcessLauncher, LeaseConfig, ShardLossReason, ShardMergeError,
    TestClock,
};
use picbench_problems::Problem;
use picbench_sim::WavelengthGrid;
use picbench_synthllm::ModelProfile;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "picbench-shard-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn problems() -> Vec<Problem> {
    ["mzi-ps", "mzm"]
        .iter()
        .map(|id| picbench_problems::find(id).unwrap())
        .collect()
}

fn profiles() -> Vec<ModelProfile> {
    vec![ModelProfile::gpt4(), ModelProfile::claude35_sonnet()]
}

fn config() -> CampaignConfig {
    CampaignConfig {
        samples_per_problem: 2,
        k_values: vec![1, 2],
        feedback_iters: vec![0, 1],
        restrictions: false,
        seed: 77,
        grid: WavelengthGrid::paper_fast(),
        threads: 2,
        ..CampaignConfig::default()
    }
}

fn total_cells() -> usize {
    problems().len() * profiles().len() * config().feedback_iters.len()
}

fn builder() -> picbench_core::CampaignBuilder {
    Campaign::builder()
        .problems(problems())
        .profiles(&profiles())
        .config(config())
}

fn control_report() -> CampaignReport {
    builder().build().unwrap().run()
}

/// An observer that records every event for post-hoc assertions.
fn recording_observer() -> (
    Arc<Mutex<Vec<CampaignEvent>>>,
    Arc<dyn picbench_core::CampaignObserver>,
) {
    let events: Arc<Mutex<Vec<CampaignEvent>>> = Arc::new(Mutex::new(Vec::new()));
    let recorder = Arc::clone(&events);
    let observer = Arc::new(move |event: &CampaignEvent| {
        recorder.lock().unwrap().push(event.clone());
    });
    (events, observer)
}

#[test]
fn sharded_report_is_bit_identical_for_any_shard_count() {
    let control = control_report();
    for shards in [2u32, 3, 4, 8] {
        let dir = temp_dir(&format!("count-{shards}"));
        let outcome = builder()
            .shards(shards)
            .shard_dir(&dir)
            .build()
            .unwrap()
            .execute();
        assert!(!outcome.cancelled, "shards {shards}: cancelled");
        assert_eq!(outcome.cells_completed, total_cells());
        let report = outcome.report.expect("sharded run completes");
        assert!(
            report.same_results(&control),
            "shards {shards}: merged report differs from single-process engine"
        );
        assert!(
            report.cache_stats.is_none(),
            "merged reports carry no cache counters"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn worker_killed_at_every_shard_boundary_is_reassigned_bit_identically() {
    let control = control_report();
    let shards = 4u32;
    let cells_per_shard = total_cells() / shards as usize; // 8 cells / 4 shards = 2
    for victim in 0..shards {
        for boundary in 0..cells_per_shard {
            let dir = temp_dir(&format!("kill-{victim}-{boundary}"));
            let launcher = Arc::new(InProcessLauncher::new());
            launcher.inject(victim, 0, WorkerFault::DieAfterCells(boundary));
            let (events, observer) = recording_observer();
            let outcome = builder()
                .shards(shards)
                .shard_dir(&dir)
                .shard_launcher(launcher)
                .observer(observer)
                .build()
                .unwrap()
                .execute();
            let report = outcome.report.expect("campaign survives the kill");
            assert!(
                report.same_results(&control),
                "victim {victim} boundary {boundary}: report diverged"
            );
            let events = events.lock().unwrap();
            assert!(
                events.iter().any(|e| matches!(
                    e,
                    CampaignEvent::ShardLost {
                        shard,
                        generation: 0,
                        reason: ShardLossReason::WorkerExited { clean: false },
                        ..
                    } if *shard == victim
                )),
                "victim {victim} boundary {boundary}: no ShardLost for the dead worker"
            );
            assert!(
                events.iter().any(|e| matches!(
                    e,
                    CampaignEvent::ShardReassigned {
                        shard,
                        from_generation: 0,
                        to_generation: 1,
                    } if *shard == victim
                )),
                "victim {victim} boundary {boundary}: no ShardReassigned"
            );
            // The reassigned generation inherits the victim's journalled
            // cells instead of redoing them.
            let lost_cells = events
                .iter()
                .find_map(|e| match e {
                    CampaignEvent::ShardLost {
                        shard, cells_done, ..
                    } if *shard == victim => Some(*cells_done),
                    _ => None,
                })
                .unwrap();
            assert!(lost_cells >= boundary, "journal lost cells it had fsync'd");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// The double-claim race: a worker that *stalls* (lease expires, shard
/// reassigned) and then revives must not corrupt the campaign — its
/// post-fence journal writes are quarantined by the generation fence.
#[test]
fn revived_stalled_worker_is_fenced_and_its_writes_quarantined() {
    let control = control_report();
    let shards = 4u32;
    let stalled_shard = 1u32;
    let dir = temp_dir("revive");
    let clock = TestClock::new(1_000_000);
    let lease = LeaseConfig {
        ttl_ms: 4_000,
        poll_ms: 50,
        max_takeovers: 16,
    };
    let launcher = Arc::new(InProcessLauncher::new());
    let release = Arc::new(AtomicBool::new(false));
    launcher.inject(
        stalled_shard,
        0,
        WorkerFault::StallAfterCells {
            cells: 1,
            release: Arc::clone(&release),
        },
    );
    // The replacement generation holds before its first fresh cell until
    // the revived worker has journalled its stats. Otherwise the shard
    // could finish first, and the supervisor's orphan kill would race
    // the revived worker's last writes.
    let release_replacement = Arc::new(AtomicBool::new(false));
    launcher.inject(
        stalled_shard,
        1,
        WorkerFault::StallAfterCells {
            cells: 0,
            release: Arc::clone(&release_replacement),
        },
    );

    // Drive the drill from the event stream: once the victim's first
    // cell is journalled (it stalls right after), grant the supervisor
    // enough virtual time to expire the lease; once the replacement
    // generation has verifiably finished its restore pass (lease seq 2
    // comes after it), release the stalled worker so it revives and
    // keeps writing into its fenced generation. The virtual-time grant
    // is spent by then, so the held replacement's lease never expires.
    let events: Arc<Mutex<Vec<CampaignEvent>>> = Arc::new(Mutex::new(Vec::new()));
    let recorder = Arc::clone(&events);
    let clock_for_observer = Arc::clone(&clock);
    let release_for_observer = Arc::clone(&release);
    let granted = AtomicBool::new(false);
    let observer = Arc::new(move |event: &CampaignEvent| {
        recorder.lock().unwrap().push(event.clone());
        if let CampaignEvent::ShardHeartbeat {
            shard,
            generation,
            seq,
            cells_done,
        } = event
        {
            if *shard == stalled_shard
                && *generation == 0
                && *cells_done >= 1
                && !granted.swap(true, Ordering::AcqRel)
            {
                clock_for_observer.grant_auto_advance(4_000 + 500);
            }
            if *shard == stalled_shard && *generation == 1 && *seq >= 2 {
                release_for_observer.store(true, Ordering::Release);
            }
        }
    });

    let campaign = builder()
        .shards(shards)
        .shard_dir(&dir)
        .shard_launcher(launcher)
        .lease_config(lease)
        .clock(clock)
        .observer(observer)
        .build()
        .unwrap();
    let fingerprint = campaign.fingerprint();
    let gen0 = picbench_core::shard_journal_dir(&dir, stalled_shard, 0);
    let revived_stats_journalled = || {
        EvalSnapshot::load(&gen0)
            .ok()
            .is_some_and(|snap| snap.shard_stats(fingerprint, stalled_shard).is_some())
    };
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let outcome = std::thread::scope(|scope| {
        scope.spawn(|| {
            // Release the replacement once the revived worker's stats are
            // in its fenced journal (or at the deadline, so a broken
            // drill fails its assertions instead of hanging).
            while !revived_stats_journalled() && std::time::Instant::now() < deadline {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            release_replacement.store(true, Ordering::Release);
        });
        campaign.execute()
    });
    let report = outcome.report.expect("campaign survives the stall");
    assert!(
        report.same_results(&control),
        "revived worker's stale writes leaked into the merge"
    );
    {
        let events = events.lock().unwrap();
        assert!(
            events.iter().any(|e| matches!(
                e,
                CampaignEvent::ShardLost {
                    shard,
                    reason: ShardLossReason::LeaseExpired,
                    ..
                } if *shard == stalled_shard
            )),
            "the stalled worker's lease never expired"
        );
        assert!(
            events.iter().any(|e| matches!(
                e,
                CampaignEvent::ShardReassigned { shard, .. } if *shard == stalled_shard
            )),
            "the stalled shard was never reassigned"
        );
    }

    // The revived worker finished its (fenced) generation before the
    // replacement was released: it journalled its remaining cell and its
    // stats into gen-000. Re-merge: the stale writes must be
    // quarantined, the report unchanged.
    assert!(
        revived_stats_journalled(),
        "revived worker never finished its fenced generation"
    );
    let merged = campaign.merge_from_shards(&dir).expect("re-merge");
    assert!(merged.report.same_results(&control));
    let stalled_info = merged
        .shards
        .iter()
        .find(|info| info.shard == stalled_shard)
        .expect("stalled shard merged");
    assert!(
        stalled_info.generation >= 1,
        "merge must read the replacement generation"
    );
    assert!(
        stalled_info.quarantined >= 1,
        "the revived worker's post-fence write must be quarantined: {stalled_info:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fresh_supervisor_resumes_mid_reassignment_bit_identically() {
    let control = control_report();
    let shards = 4u32;
    let dir = temp_dir("restart");

    // First supervisor: shard 0's worker dies, and the supervisor is
    // cancelled the moment it starts the reassignment — leaving a
    // half-reassigned journal root behind, possibly with a freshly
    // launched (and promptly killed) generation-1 worker.
    let cancel = CancelToken::new();
    let cancel_on_reassign = cancel.clone();
    let launcher = Arc::new(InProcessLauncher::new());
    launcher.inject(0, 0, WorkerFault::DieAfterCells(1));
    let outcome = builder()
        .shards(shards)
        .shard_dir(&dir)
        .shard_launcher(launcher)
        .cancel_token(cancel.clone())
        .observer(Arc::new(move |event: &CampaignEvent| {
            if matches!(event, CampaignEvent::ShardReassigned { shard: 0, .. }) {
                cancel_on_reassign.cancel();
            }
        }))
        .build()
        .unwrap()
        .execute();
    assert!(outcome.cancelled, "first supervisor must die mid-flight");
    assert!(outcome.report.is_none());

    // Second supervisor, same root, fresh everything: it discovers the
    // generations its predecessor left, starts each shard one
    // generation above them (fencing any straggler), inherits their
    // journals, and completes bit-identically.
    let (events, observer) = recording_observer();
    let outcome = builder()
        .shards(shards)
        .shard_dir(&dir)
        .observer(observer)
        .build()
        .unwrap()
        .execute();
    assert!(!outcome.cancelled);
    let report = outcome.report.expect("restarted supervisor completes");
    assert!(
        report.same_results(&control),
        "supervisor restart changed the report"
    );
    let events = events.lock().unwrap();
    let shard0_start_gen = events
        .iter()
        .find_map(|e| match e {
            CampaignEvent::ShardStarted {
                shard: 0,
                generation,
                ..
            } => Some(*generation),
            _ => None,
        })
        .expect("shard 0 started");
    assert!(
        shard0_start_gen >= 1,
        "restarted supervisor must fence the interrupted generation, got gen {shard0_start_gen}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The merge is a union with a coverage check — it must not care how
/// cells were partitioned into shard journals. Journal the control
/// run's cells under every count 1..=8 with a deliberately
/// non-contiguous (round-robin) assignment and merge.
#[test]
fn merge_is_partition_independent_for_any_shard_count() {
    let control = control_report();
    let campaign = builder().build().unwrap();
    let fingerprint = campaign.fingerprint();

    // Harvest the per-cell tallies by journalling a single-process run.
    let journal_dir = temp_dir("harvest");
    let store = Arc::new(EvalStore::open(&journal_dir).unwrap());
    let journalled = builder().store(Arc::clone(&store)).build().unwrap().run();
    assert!(journalled.same_results(&control));
    let cells = store.completed_cells(fingerprint);
    assert_eq!(cells.len(), total_cells());

    for shards in 1..=8usize {
        let root = temp_dir(&format!("partition-{shards}"));
        for shard in 0..shards {
            let dir = picbench_core::shard_journal_dir(&root, shard as u32, 0);
            let shard_store = EvalStore::open(&dir).unwrap();
            for (index, (key, tally)) in cells.iter().enumerate() {
                if index % shards == shard {
                    shard_store.record_cell(fingerprint, *key, tally);
                }
            }
        }
        let merged = campaign
            .merge_from_shards(&root)
            .unwrap_or_else(|e| panic!("partition {shards}: merge failed: {e}"));
        assert!(
            merged.report.same_results(&control),
            "partition into {shards} round-robin shards changed the report"
        );
        assert_eq!(merged.shards.len(), shards);
        assert!(merged.shards.iter().all(|info| info.quarantined == 0));
        let _ = std::fs::remove_dir_all(&root);
    }

    // Coverage check: a journal set missing one cell must refuse to
    // merge rather than fabricate a report.
    let root = temp_dir("partition-missing");
    let dir = picbench_core::shard_journal_dir(&root, 0, 0);
    let shard_store = EvalStore::open(&dir).unwrap();
    for (key, tally) in cells.iter().skip(1) {
        shard_store.record_cell(fingerprint, *key, tally);
    }
    match campaign.merge_from_shards(&root) {
        Err(ShardMergeError::MissingCells { missing, total }) => {
            assert_eq!(missing, 1);
            assert_eq!(total, total_cells());
        }
        other => panic!("expected MissingCells, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&journal_dir);
}

#[test]
fn sharding_requires_a_journal_root() {
    let err = builder().shards(4).build().unwrap_err();
    assert_eq!(err, CampaignBuildError::ShardsWithoutDir);
    assert!(err.to_string().contains("shard_dir"));
    // Shard counts of 0 and 1 keep the in-process engine: no dir needed.
    assert!(builder().shards(1).build().is_ok());
}
