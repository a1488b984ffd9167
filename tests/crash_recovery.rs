//! Experiments E3/E7: process failure and recovery with stable storage
//! intact — the scenario that motivated extending virtual synchrony in the
//! first place (§1 of the paper) — plus safe-delivery behaviour around
//! crashes (Specs 7.1/7.2), self-delivery (Spec 3), and the durable-WAL
//! kill path: a process killed with no farewell callback must rebuild
//! from its on-disk write-ahead log alone.

// needless_update: the vendored ProptestConfig stub has only the fields the
// config block sets, but the `..default()` idiom is what real proptest needs.
#![allow(clippy::needless_update)]

use evs::core::persist::{self, LEASE_BLOCK, WAL_COMPACT_RECORDS};
use evs::core::{checker, EvsCluster, EvsEvent, EvsParams, EvsProcess, Payload, Service, Trace};
use evs::runtime::{Ectx, MemDriver, Worker};
use evs::sim::ProcessId;
use evs::store::{encode_record, scan_records, FileStorage, Replay, Storage, RECORD_HEADER};
use evs::telemetry::{Phase, Telemetry};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn texts(cluster: &EvsCluster<String>, at: ProcessId) -> Vec<String> {
    cluster
        .deliveries(at)
        .iter()
        .filter_map(|d| d.payload().cloned())
        .collect()
}

#[test]
fn crashed_process_is_excluded_and_group_continues() {
    let mut cluster = EvsCluster::<String>::builder(4).build();
    assert!(cluster.run_until_settled(300_000));
    cluster.crash(p(3));
    assert!(cluster.run_until_settled(400_000), "survivors reconfigure");
    for q in [p(0), p(1), p(2)] {
        assert_eq!(cluster.config(q).members, vec![p(0), p(1), p(2)]);
    }
    cluster.submit(p(0), Service::Safe, "without-p3".into());
    assert!(cluster.run_until_settled(200_000));
    for q in [p(0), p(1), p(2)] {
        assert!(texts(&cluster, q).contains(&"without-p3".to_string()));
    }
    checker::assert_evs(&cluster.trace());
}

#[test]
fn recovered_process_rejoins_under_same_identifier() {
    let mut cluster = EvsCluster::<String>::builder(3).build();
    assert!(cluster.run_until_settled(300_000));
    cluster.crash(p(2));
    assert!(cluster.run_until_settled(400_000));
    cluster.recover(p(2));
    assert!(cluster.run_until_settled(400_000), "rejoin must converge");
    // Same identifier, back in the full configuration.
    for q in cluster.processes() {
        assert_eq!(cluster.config(q).members, vec![p(0), p(1), p(2)]);
    }
    cluster.submit(p(2), Service::Safe, "i-am-back".into());
    assert!(cluster.run_until_settled(200_000));
    for q in cluster.processes() {
        assert!(texts(&cluster, q).contains(&"i-am-back".to_string()));
    }
    checker::assert_evs(&cluster.trace());
}

#[test]
fn message_counter_survives_crash() {
    // Spec 1.4 across recovery: messages sent before and after a crash must
    // have distinct identities. The checker's duplicate-send detection
    // would flag any reuse.
    let mut cluster = EvsCluster::<String>::builder(2).build();
    assert!(cluster.run_until_settled(300_000));
    for i in 0..5 {
        cluster.submit(p(1), Service::Safe, format!("pre-{i}"));
    }
    assert!(cluster.run_until_settled(200_000));
    cluster.crash(p(1));
    assert!(cluster.run_until_settled(400_000));
    cluster.recover(p(1));
    assert!(cluster.run_until_settled(400_000));
    for i in 0..5 {
        cluster.submit(p(1), Service::Safe, format!("post-{i}"));
    }
    assert!(cluster.run_until_settled(200_000));
    // 10 distinct messages delivered at p(0): 5 pre, 5 post.
    let seen = texts(&cluster, p(0));
    for i in 0..5 {
        assert!(seen.contains(&format!("pre-{i}")));
        assert!(seen.contains(&format!("post-{i}")));
    }
    checker::assert_evs(&cluster.trace());
}

#[test]
fn fail_event_is_recorded_in_current_configuration() {
    let mut cluster = EvsCluster::<String>::builder(3).build();
    assert!(cluster.run_until_settled(300_000));
    let cfg = cluster.config(p(2)).id;
    cluster.crash(p(2));
    let trace = cluster.trace();
    let failed = trace
        .of(p(2))
        .iter()
        .any(|(_, e)| matches!(e, evs::core::EvsEvent::Fail { config } if *config == cfg));
    assert!(failed, "fail_p(c) must be recorded in the current config");
}

#[test]
fn crash_during_recovery_restarts_membership() {
    // A second failure while the first reconfiguration is still in
    // progress: the recovery algorithm restarts at Step 2 (new proposal)
    // and still satisfies every specification.
    let mut cluster = EvsCluster::<String>::builder(5).seed(11).build();
    assert!(cluster.run_until_settled(300_000));
    for i in 0..6 {
        cluster.submit(p(i % 5), Service::Safe, format!("load-{i}"));
    }
    cluster.crash(p(4));
    // Crash another process shortly after — typically mid-recovery.
    cluster.run_for(300);
    cluster.crash(p(3));
    assert!(cluster.run_until_settled(600_000), "survivors settle");
    for q in [p(0), p(1), p(2)] {
        assert_eq!(cluster.config(q).members, vec![p(0), p(1), p(2)]);
    }
    checker::assert_evs(&cluster.trace());
}

#[test]
fn crash_storms_preserve_the_model() {
    // Repeated crash/recover cycles with concurrent traffic, multiple
    // seeds: the checker must stay green throughout.
    for seed in 0..6u64 {
        let mut cluster = EvsCluster::<String>::builder(4).seed(seed).build();
        assert!(cluster.run_until_settled(300_000), "seed {seed}");
        let mut n = 0;
        for round in 0..3 {
            let victim = p((seed as u32 + round) % 4);
            for q in cluster.processes() {
                if cluster.is_alive(q) {
                    n += 1;
                    cluster.submit(q, Service::Safe, format!("s{seed}-m{n}"));
                }
            }
            cluster.crash(victim);
            cluster.run_for(2_000);
            cluster.recover(victim);
            assert!(
                cluster.run_until_settled(600_000),
                "seed {seed} round {round}"
            );
        }
        checker::assert_evs(&cluster.trace());
    }
}

#[test]
fn self_delivery_for_isolated_sender() {
    // Spec 3 / E3: a process partitioned into a singleton still delivers
    // its own messages — in its transitional or next configuration.
    let mut cluster = EvsCluster::<String>::builder(3).build();
    assert!(cluster.run_until_settled(300_000));
    cluster.submit(p(2), Service::Safe, "mine".into());
    // Cut p(2) off immediately, before the message can flush.
    cluster.partition(&[&[p(0), p(1)], &[p(2)]]);
    assert!(cluster.run_until_settled(400_000));
    assert!(
        texts(&cluster, p(2)).contains(&"mine".to_string()),
        "isolated sender delivers its own message: {:?}",
        texts(&cluster, p(2))
    );
    checker::assert_evs(&cluster.trace());
}

#[test]
fn safe_message_never_half_delivered_across_survivors() {
    // Spec 7.1 stress: submit safe messages and crash the sender at many
    // offsets. Survivors must agree pairwise: a safe message delivered by
    // one in a configuration is delivered by the other or the other
    // failed. The checker verifies the full property; here we also assert
    // the survivors' delivered sets match exactly (they never fail).
    for offset in [0u64, 50, 120, 200, 400, 800] {
        let mut cluster = EvsCluster::<String>::builder(3).seed(offset).build();
        assert!(cluster.run_until_settled(300_000), "offset {offset}");
        for i in 0..4 {
            cluster.submit(p(0), Service::Safe, format!("safe-{i}"));
        }
        cluster.run_for(offset);
        cluster.crash(p(0));
        assert!(cluster.run_until_settled(500_000), "offset {offset}");
        let s1 = texts(&cluster, p(1));
        let s2 = texts(&cluster, p(2));
        assert_eq!(s1, s2, "offset {offset}: survivors diverged");
        checker::assert_evs(&cluster.trace());
    }
}

// ---------------------------------------------------------------------------
// Durable WAL: kill -9 semantics (no on_crash callback, object destroyed)
// ---------------------------------------------------------------------------

/// One `EvsProcess` on a one-member [`Worker`] stepped on virtual ticks —
/// the live loop itself, exercising `with_storage` the way a respawned OS
/// process would, without a simulator keeping the node object (and thus
/// its volatile state) alive across the "kill".
struct Solo {
    worker: Worker,
    now: u64,
}

impl Solo {
    /// Starts `node` at `start_tick`.
    fn new(node: EvsProcess<Payload>, start_tick: u64) -> Self {
        let addr = std::net::SocketAddr::from(([127, 0, 0, 1], 20_000));
        let driver = MemDriver::bind(&Default::default(), addr);
        let worker = Worker::new(
            p(0),
            node,
            Box::new(driver),
            vec![addr],
            Telemetry::disabled(),
        );
        let mut solo = Solo {
            worker,
            now: start_tick,
        };
        solo.worker.start(start_tick).expect("start");
        solo.settle();
        solo
    }

    /// Steps at the current tick until the loopback inbox stays empty.
    fn settle(&mut self) {
        let now = self.now;
        while self
            .worker
            .step(&|| now, None, &mut Vec::new())
            .expect("step")
            > 0
        {}
    }

    fn dispatch(&mut self, f: impl FnOnce(&mut EvsProcess<Payload>, &mut Ectx<'_>)) {
        self.worker
            .dispatch(self.now, Phase::Dispatch, f)
            .expect("dispatch");
        self.settle();
    }

    /// Fires timers in order for `budget` ticks of logical time.
    fn run(&mut self, budget: u64) {
        let deadline = self.now + budget;
        while let Some(due) = self.worker.next_deadline().filter(|due| *due <= deadline) {
            self.now = self.now.max(due);
            self.settle();
        }
        self.now = deadline;
    }

    fn node(&self) -> &EvsProcess<Payload> {
        self.worker.node()
    }

    fn delivered(&self, text: &str) -> bool {
        self.node()
            .deliveries()
            .iter()
            .filter_map(|d| d.payload())
            .any(|p| p.as_slice() == text.as_bytes())
    }
}

#[test]
fn wal_restart_rebuilds_from_disk_alone() {
    // Incarnation 1 journals to a real on-disk WAL, then is dropped with
    // no callback — the closest a test in one OS process gets to SIGKILL.
    // Incarnation 2 is a brand-new object pointed at the same directory:
    // everything it knows, it must learn from the log.
    let dir = std::env::temp_dir().join(format!("evs-walrt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let storage = Box::new(FileStorage::open(&dir).expect("open WAL"));
    let mut a = Solo::new(
        EvsProcess::with_storage(p(0), EvsParams::default(), storage),
        0,
    );
    a.run(300_000);
    assert!(a.node().is_settled(), "singleton forms a configuration");
    a.dispatch(|node, ctx| node.submit(ctx, Service::Safe, b"before-kill".into()));
    a.run(100_000);
    assert!(a.delivered("before-kill"));
    let killed_in = a.node().current_config().id;
    let max_counter_before = a
        .worker
        .trace()
        .iter()
        .filter_map(|(_, e)| match e {
            EvsEvent::Send { id, .. } => Some(id.counter),
            _ => None,
        })
        .max()
        .expect("incarnation 1 sent something");
    let (trace1, end1) = (a.worker.trace().to_vec(), a.now);
    drop(a); // kill: no on_crash, object gone, only the disk remains

    let storage = Box::new(FileStorage::open(&dir).expect("reopen WAL"));
    let mut b = Solo::new(
        EvsProcess::with_storage(p(0), EvsParams::default(), storage),
        end1 + 1,
    );
    b.run(300_000);
    assert!(b.node().is_settled(), "reincarnation settles");

    // The log supplied the fail_p(c) the kill swallowed…
    assert!(
        b.worker
            .trace()
            .iter()
            .any(|(_, e)| matches!(e, EvsEvent::Fail { config } if *config == killed_in)),
        "reincarnation must emit the synthetic fail for {killed_in:?}: {:?}",
        b.worker.trace()
    );
    // …a strictly newer configuration…
    assert!(b.node().current_config().id.epoch > killed_in.epoch);

    // …and a message-id lease that skips past everything possibly sent
    // (Spec 1.4: identifiers are never reused, even ones lost to the kill).
    b.dispatch(|node, ctx| node.submit(ctx, Service::Safe, b"after-restart".into()));
    b.run(100_000);
    let min_counter_after = b
        .worker
        .trace()
        .iter()
        .filter_map(|(_, e)| match e {
            EvsEvent::Send { id, .. } => Some(id.counter),
            _ => None,
        })
        .min()
        .expect("incarnation 2 sent something");
    assert!(min_counter_after >= LEASE_BLOCK);
    assert!(min_counter_after > max_counter_before);

    // The process's full life — both incarnations — satisfies the model.
    let mut life = trace1;
    life.extend(b.worker.into_trace());
    checker::assert_evs(&Trace::new(vec![life]));

    let _ = std::fs::remove_dir_all(&dir);
}

/// A [`FileStorage`] that counts the framed bytes appended since the last
/// durability point — what a machine is free to lose when the process is
/// killed before its next `sync`.
struct CountingUnsynced {
    inner: FileStorage,
    unsynced: Arc<AtomicU64>,
}

impl Storage for CountingUnsynced {
    fn append(&mut self, record: &[u8]) -> std::io::Result<()> {
        let framed = (RECORD_HEADER + record.len()) as u64;
        self.unsynced.fetch_add(framed, Relaxed);
        self.inner.append(record)
    }
    fn sync(&mut self) -> std::io::Result<()> {
        self.unsynced.store(0, Relaxed);
        self.inner.sync()
    }
    fn snapshot(&mut self, state: &[u8]) -> std::io::Result<()> {
        self.unsynced.store(0, Relaxed);
        self.inner.snapshot(state)
    }
    fn replay(&mut self) -> std::io::Result<Replay> {
        self.inner.replay()
    }
}

#[test]
fn steady_state_compaction_survives_a_kill_on_disk() {
    let dir = std::env::temp_dir().join(format!("evs-walcompact-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let unsynced = Arc::new(AtomicU64::new(0));
    let storage = Box::new(CountingUnsynced {
        inner: FileStorage::open(&dir).expect("open WAL"),
        unsynced: unsynced.clone(),
    });
    let mut a = Solo::new(
        EvsProcess::with_storage(p(0), EvsParams::default(), storage),
        0,
    );
    a.run(300_000);
    let installed = a.node().current_config().id;
    // A singleton journals a Sent and a Cut per message: well past the
    // compaction trigger, and some way into the next stretch of log.
    let sent = WAL_COMPACT_RECORDS / 2 + 300;
    for _ in 0..sent {
        a.dispatch(|node, ctx| node.submit(ctx, Service::Agreed, b"m".into()));
    }
    assert_eq!(a.node().current_config().id, installed);
    drop(a); // kill: no on_crash, only the disk remains...

    // ...minus the tail the machine never synced.
    let lost = unsynced.load(Relaxed);
    assert!(lost > 0, "an unsynced tail to lose");
    let segments: Vec<_> = std::fs::read_dir(&dir)
        .expect("wal dir")
        .map(|e| e.expect("entry").path())
        .filter(|f| f.extension().is_some_and(|x| x == "log"))
        .collect();
    let [segment] = &segments[..] else {
        panic!("the compaction retired every older segment: {segments:?}");
    };
    let len = std::fs::metadata(segment).expect("segment").len();
    assert!(lost < len, "something synced follows the checkpoint");
    std::fs::OpenOptions::new()
        .write(true)
        .open(segment)
        .and_then(|f| f.set_len(len - lost))
        .expect("drop the tail");

    // What is left is one checkpoint and a short stretch of records.
    let mut storage = FileStorage::open(&dir).expect("reopen WAL");
    let replay = storage.replay().expect("replay");
    let folded = persist::fold(replay.snapshot.as_deref(), &replay.records, &[]);
    assert!(replay.snapshot.is_some(), "the log was compacted mid-run");
    assert!(folded.records > 0 && folded.records < WAL_COMPACT_RECORDS);
    assert_eq!((folded.undead, folded.poisoned), (Some(installed), 0));

    let mut b = Solo::new(
        EvsProcess::with_storage(p(0), EvsParams::default(), Box::new(storage)),
        1_000_000,
    );
    b.run(300_000);
    let fails: Vec<_> = b
        .worker
        .trace()
        .iter()
        .filter_map(|(_, e)| match e {
            EvsEvent::Fail { config } => Some(*config),
            _ => None,
        })
        .collect();
    assert_eq!(
        fails,
        vec![installed],
        "one fail, naming what was installed"
    );
    assert!(b.node().current_config().id.epoch > installed.epoch);
    b.dispatch(|node, ctx| node.submit(ctx, Service::Agreed, b"after".into()));
    let resumed = b.worker.trace().iter().find_map(|(_, e)| match e {
        EvsEvent::Send { id, .. } => Some(id.counter),
        _ => None,
    });
    assert!(
        resumed.expect("incarnation 2 sent something") > sent,
        "ids resume above every id the dead incarnation used"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_on_disk_tail_truncates_to_clean_prefix() {
    // Cut the newest segment file mid-record, the way a kill mid-write
    // would: replay must hand back exactly the intact records, count the
    // damage, and never error.
    let dir = std::env::temp_dir().join(format!("evs-torn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut storage = FileStorage::open(&dir).expect("open");
    let records: Vec<Vec<u8>> = (0u8..5).map(|i| vec![i; 10 + i as usize]).collect();
    for r in &records {
        evs::store::Storage::append(&mut storage, r).expect("append");
    }
    drop(storage);

    let segment = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|q| {
            q.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("wal-"))
        })
        .max()
        .expect("segment file");
    let len = std::fs::metadata(&segment).unwrap().len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&segment)
        .unwrap();
    file.set_len(len - 3).unwrap(); // tear into the final record
    drop(file);

    let mut storage = FileStorage::open(&dir).expect("reopen");
    let replay = evs::store::Storage::replay(&mut storage).expect("replay never fails");
    assert_eq!(replay.records, records[..4].to_vec());
    assert!(replay.torn_bytes > 0);
    assert!(replay.wal_present);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// The acceptance property for torn writes: truncate a log at EVERY
    /// byte boundary; each cut yields exactly the records whose frames
    /// fit entirely inside it — a clean prefix, never an error, never a
    /// partial record.
    #[test]
    fn truncation_at_every_byte_yields_exact_clean_prefix(
        shapes in proptest::collection::vec((0usize..120, proptest::arbitrary::any::<u8>()), 1..6)
    ) {
        let mut log = Vec::new();
        let mut boundaries = vec![0usize]; // byte offsets of record ends
        for (len, fill) in &shapes {
            encode_record(&vec![*fill; *len], &mut log);
            boundaries.push(log.len());
        }
        for cut in 0..=log.len() {
            let scan = scan_records(&log[..cut]);
            let whole = boundaries.iter().filter(|b| **b <= cut).count() - 1;
            prop_assert_eq!(scan.clean_len, boundaries[whole], "cut at {}", cut);
            prop_assert_eq!(scan.records.len(), whole, "cut at {}", cut);
            for (k, rec) in scan.records.iter().enumerate() {
                let (len, fill) = shapes[k];
                prop_assert_eq!(rec, &vec![fill; len]);
            }
        }
    }

    /// Byte-rot acceptance: flip ONE random bit anywhere in the on-disk
    /// WAL between incarnations. CRC-32 framing turns every single-bit
    /// flip into a detected gap or torn tail, so the reincarnation must
    /// either rebuild legitimate state from the surviving prefix or
    /// report a typed replay poison — and the combined life of both
    /// incarnations must still satisfy every specification (no silent
    /// Spec 1.4 identifier reuse, no fail_p(c) in a configuration the
    /// process never installed).
    #[test]
    fn one_flipped_wal_bit_never_breaks_conformance(
        byte_pick in any::<u64>(),
        bit in 0u8..8,
        submits in 1usize..5,
    ) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "evs-bitrot-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);

        // Incarnation 1: form a configuration, journal some traffic, die
        // with no farewell (object dropped, only the disk remains).
        let storage = Box::new(FileStorage::open(&dir).expect("open WAL"));
        let mut a = Solo::new(
            EvsProcess::with_storage(p(0), EvsParams::default(), storage),
            0,
        );
        a.run(300_000);
        prop_assert!(a.node().is_settled(), "singleton forms a configuration");
        for i in 0..submits {
            let payload = Payload::from(format!("rot-{i}").into_bytes());
            a.dispatch(|node, ctx| node.submit(ctx, Service::Safe, payload));
            a.run(20_000);
        }
        a.run(100_000);
        let (trace1, end1) = (a.worker.trace().to_vec(), a.now);
        drop(a);

        // The rot: one bit, in one byte, of one durable file.
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|q| std::fs::metadata(q).is_ok_and(|m| m.len() > 0))
            .collect();
        files.sort();
        prop_assert!(!files.is_empty(), "incarnation 1 journaled something");
        let total: u64 = files
            .iter()
            .map(|q| std::fs::metadata(q).unwrap().len())
            .sum();
        let mut offset = byte_pick % total;
        let target = files
            .iter()
            .find(|q| {
                let len = std::fs::metadata(q).unwrap().len();
                if offset < len {
                    true
                } else {
                    offset -= len;
                    false
                }
            })
            .expect("offset lands in some file");
        let mut bytes = std::fs::read(target).unwrap();
        bytes[offset as usize] ^= 1 << bit;
        std::fs::write(target, &bytes).unwrap();

        // Incarnation 2: rebuild from the damaged log alone.
        let storage = Box::new(FileStorage::open(&dir).expect("reopen WAL"));
        let mut b = Solo::new(
            EvsProcess::with_storage(p(0), EvsParams::default(), storage),
            end1 + 1,
        );
        b.run(400_000);
        prop_assert!(
            b.node().is_settled(),
            "reincarnation settles even on rotten WAL (poison: {:?})",
            b.node().last_replay_poison()
        );

        // New identifiers after restart exercise Spec 1.4 in the checker.
        b.dispatch(|node, ctx| node.submit(ctx, Service::Safe, b"after-rot".into()));
        b.run(100_000);
        prop_assert!(b.delivered("after-rot"), "reincarnation makes progress");

        // The full life — both incarnations, damage between — conforms.
        let mut life = trace1;
        life.extend(b.worker.into_trace());
        checker::assert_evs(&Trace::new(vec![life]));

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn killed_process_in_simulation_recovers_via_wal() {
    // The simulator's kill: volatile state gone, no on_crash farewell.
    // Recovery must come from the (in-memory) storage log and still
    // produce a model-conformant trace with the synthetic fail event.
    let mut cluster = EvsCluster::<String>::builder(3).build();
    assert!(cluster.run_until_settled(300_000));
    cluster.submit(p(1), Service::Safe, "pre-kill".into());
    assert!(cluster.run_until_settled(200_000));
    let killed_in = cluster.config(p(1)).id;
    cluster.kill(p(1));
    assert!(cluster.run_until_settled(400_000), "survivors reconfigure");
    let fails_so_far = cluster
        .trace()
        .of(p(1))
        .iter()
        .filter(|(_, e)| matches!(e, EvsEvent::Fail { .. }))
        .count();
    assert_eq!(
        fails_so_far, 0,
        "a kill records nothing — that is the point"
    );
    cluster.recover(p(1));
    assert!(cluster.run_until_settled(400_000), "reincarnation rejoins");
    for q in cluster.processes() {
        assert_eq!(cluster.config(q).members, vec![p(0), p(1), p(2)]);
    }
    cluster.submit(p(1), Service::Safe, "post-kill".into());
    assert!(cluster.run_until_settled(200_000));
    for q in cluster.processes() {
        assert!(texts(&cluster, q).contains(&"post-kill".to_string()));
    }
    let trace = cluster.trace();
    assert!(
        trace
            .of(p(1))
            .iter()
            .any(|(_, e)| matches!(e, EvsEvent::Fail { config } if *config == killed_in)),
        "the WAL must supply fail_p({killed_in:?})"
    );
    checker::assert_evs(&trace);
}

#[test]
fn application_state_machine_stays_consistent_across_recovery() {
    // The §1 motivation: stable storage is affected by delivery order. A
    // replicated counter applies safe messages; after crash+recovery and
    // rejoin, new deliveries at every replica continue from a consistent
    // order (the transport never re-delivers or reorders within a config).
    let mut cluster = EvsCluster::<String>::builder(3).build();
    assert!(cluster.run_until_settled(300_000));
    for i in 0..6 {
        cluster.submit(p(i % 3), Service::Safe, format!("op-{i}"));
    }
    assert!(cluster.run_until_settled(200_000));
    cluster.crash(p(1));
    assert!(cluster.run_until_settled(400_000));
    cluster.recover(p(1));
    assert!(cluster.run_until_settled(400_000));
    for i in 6..10 {
        cluster.submit(p(i % 3), Service::Safe, format!("op-{i}"));
    }
    assert!(cluster.run_until_settled(200_000));
    // p0 and p2 never failed: they saw all 10 operations in one order.
    let s0 = texts(&cluster, p(0));
    assert_eq!(s0.len(), 10);
    assert_eq!(s0, texts(&cluster, p(2)));
    // p1 saw a prefix-consistent subset: ops delivered before its crash
    // plus the post-rejoin ops, in orders consistent with s0 (the checker
    // verifies the formal properties; sanity-check the tail here).
    let s1 = texts(&cluster, p(1));
    for w in ["op-6", "op-7", "op-8", "op-9"] {
        assert!(s1.contains(&w.to_string()), "p1 missing {w}: {s1:?}");
    }
    checker::assert_evs(&cluster.trace());
}
