//! The per-process extended virtual synchrony engine.
//!
//! [`EvsProcess`] composes the substrate layers — membership (`evs-membership`)
//! and token-ring total order (`evs-order`) — and implements the paper's
//! extended virtual synchrony algorithm (§3):
//!
//! * **Step 1** (regular operation): messages are submitted to the ring,
//!   delivered in agreed or safe order, and the obligation set is empty.
//! * **Step 2**: when the membership algorithm proposes a new
//!   configuration, new application messages are buffered and ring traffic
//!   for the proposed configuration is buffered.
//! * **Step 3**: the process broadcasts a frozen [`ExchangeState`] report.
//! * **Steps 4–5**: it computes its transitional configuration and the
//!   rebroadcast duties, rebroadcasts, and acknowledges once it holds every
//!   message any transitional member holds; acknowledging extends its
//!   obligation set (Step 5.c).
//! * **Step 6**: once all transitional members acknowledged, the recovery
//!   plan (see [`crate::recovery`]) is executed atomically: deliveries in
//!   the old regular configuration, the transitional configuration change,
//!   transitional deliveries, and the new regular configuration change.
//!
//! If the membership algorithm proposes a different configuration while a
//! recovery is in progress, the recovery restarts at Step 2 with the same
//! frozen old-configuration snapshot, exactly as the paper prescribes.
//!
//! Durability follows §2's failure model ("a process may fail and recover
//! with stable storage intact"): the engine journals a [`WalRecord`] to its
//! [`Storage`] backend at every §3 step boundary — message-id leases and
//! sends, configuration deliveries, the Step 5.c obligation set, the
//! delivered/stable cut, proposal epochs, and the `fail_p(c)` mark of a
//! clean crash. A recovered (or respawned) process folds the log back into
//! the counters it needs (see [`crate::persist`]), emits the failure the
//! dead incarnation never got to record if it was killed outright, and
//! rejoins as a singleton regular configuration under its old identity,
//! the shape §2 of the paper requires. The default backend is the
//! allocation-only [`NullStorage`]; drivers that survive real `kill -9`
//! hand in an `evs_store::FileStorage` via [`EvsProcess::with_storage`].

use crate::persist::{Checkpoint, WalRecord, LEASE_BLOCK, WAL_COMPACT_RECORDS};
use crate::recovery::{
    extended_obligations, needed_set, rebroadcast_set, transitional_members, ExchangeState,
};
use crate::{Configuration, Delivery, EvsEvent, EvsParams};
use evs_membership::{ConfigId, MembMsg, MembOut, Membership, ProposedConfig};
use evs_order::{MessageId, OrderedMsg, Ring, RingMsg, RingOut, RingSnapshot, Service};
use evs_sim::{Ctx, Node, ProcessId, SimTime, TimerId, TimerKind};
use evs_store::{NullStorage, Replay, ReplayError, Storage};
use evs_telemetry::{names, Counter, LogHistogram, Telemetry, TelemetryEvent};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;

/// Stable per-service counter name for a delivery.
fn delivered_counter(service: Service) -> &'static str {
    match service {
        Service::Causal => names::DELIVERED_CAUSAL,
        Service::Agreed => names::DELIVERED_AGREED,
        Service::Safe => names::DELIVERED_SAFE,
    }
}

/// Stable service-level label used in telemetry events.
fn service_name(service: Service) -> &'static str {
    match service {
        Service::Causal => "causal",
        Service::Agreed => "agreed",
        Service::Safe => "safe",
    }
}

/// The engine's maintenance timer.
const TICK: TimerKind = TimerKind(1);

/// Fires when a paced token is due to be forwarded to the successor.
const TOKEN_SEND: TimerKind = TimerKind(2);

/// Label of the [`TelemetryEvent::StableWrite`] a clean crash records for
/// its durable `FailMark`.
const STABLE_KEY: &str = "evs-engine";

/// Cap on buffered frames for configurations we have not installed yet.
const FUTURE_BUFFER_CAP: usize = 4096;

/// What the engine persists across crashes.
#[derive(Clone, Copy, Debug, Default)]
struct PersistentState {
    msg_counter: u64,
    max_epoch: u64,
}

/// One corruption-class fault, in the vocabulary of the
/// practically-self-stabilizing membership work (Dolev et al.): transient
/// state corruption (bit flips), counter exhaustion (wrap), cross-copy
/// divergence, and durable-medium rot. Injected by the chaos harness via
/// [`EvsProcess::inject_corruption`]; every kind is *detected* by the same
/// shadow/ceiling/cross-copy checks production always runs, and answered
/// by convergence (in-place repair that provably cannot violate a spec) or
/// excommunication (explicit `fail` + fresh-incarnation rejoin) — never by
/// silently running on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorruptionKind {
    /// Flip one bit of the ring's contiguous-receipt counter (`my_aru`).
    AruBit(u32),
    /// Flip one bit of the ring's highest-ordinal counter (`high_seen`).
    SeqBit(u32),
    /// Flip one bit of the persistent message-id counter.
    CounterBit(u32),
    /// Jump the ring's ordinal space to its ceiling (counter exhaustion).
    SeqWrap,
    /// Desynchronize the engine's installed-configuration id from the
    /// ring's copy.
    ConfDesync,
    /// Flip one byte of a WAL record in place (surfaces at next replay).
    WalByte {
        /// Which live record to damage (wraps over the record count).
        record: u64,
        /// Which payload byte to flip (wraps over the record length).
        offset: u64,
    },
    /// Tear bytes off the WAL tail (surfaces at next replay).
    WalTrunc {
        /// How many trailing bytes to destroy (at least one record's worth
        /// of damage on the in-memory backend).
        bytes: u64,
    },
}

/// Wire frames of the EVS layer.
#[derive(Clone, Debug)]
pub enum EvsMsg<P> {
    /// Membership protocol traffic.
    Memb(MembMsg),
    /// Total-order traffic of the current regular configuration.
    Ring(RingMsg<P>),
    /// Recovery Step 3: a frozen state report.
    Exchange(ExchangeState),
    /// Recovery Step 5.a: an old-configuration message rebroadcast for the
    /// members that missed it.
    Rebroadcast {
        /// The proposed configuration whose recovery this serves.
        proposal: ConfigId,
        /// The message (stamped in the old configuration's total order).
        msg: OrderedMsg<P>,
    },
    /// Recovery Step 5.b: "I hold every message any member of my
    /// transitional configuration holds."
    RecoveryAck {
        /// The proposed configuration whose recovery this serves.
        proposal: ConfigId,
    },
}

/// In-progress recovery state (Steps 2–5).
struct RecoveryState<P> {
    proposal: ProposedConfig,
    /// Frozen snapshot of the last regular configuration's ring; its store
    /// grows only by rebroadcast receipts during this recovery.
    old: RingSnapshot<P>,
    /// Our own frozen Step-3 report (re-broadcast verbatim on resend).
    my_exchange: ExchangeState,
    /// Reports received, one per sender (first copy wins; copies are
    /// identical because reports are frozen).
    exchanges: BTreeMap<ProcessId, ExchangeState>,
    /// Members of our transitional configuration and the needed message
    /// set, cached once all proposal members have reported.
    trans: Option<(Vec<ProcessId>, BTreeSet<u64>)>,
    /// Acknowledgments received (within the transitional membership).
    acks: BTreeSet<ProcessId>,
    my_ack_sent: bool,
    last_resend: SimTime,
    /// Last time a *new* exchange report or acknowledgment arrived; the
    /// recovery-stall timeout measures silence from here.
    last_progress: SimTime,
}

/// A live-observability snapshot of one engine, taken by
/// [`EvsProcess::obs`] and exposed by the `OBS?` scrape endpoint as
/// `info` keys (configuration id, ARU lag, membership, recovery state).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineObs {
    /// Epoch of the configuration most recently delivered.
    pub epoch: u64,
    /// Representative of that configuration.
    pub rep: ProcessId,
    /// True for a transitional configuration.
    pub transitional: bool,
    /// Sorted membership of that configuration.
    pub members: Vec<ProcessId>,
    /// True while the §3 recovery algorithm is running.
    pub in_recovery: bool,
    /// [`EvsProcess::is_settled`] at snapshot time.
    pub settled: bool,
    /// Contiguous receipt prefix of the current ring (0 in recovery).
    pub my_aru: u64,
    /// Highest ordinal known to exist in the ring (0 in recovery).
    pub high_seen: u64,
    /// `high_seen - my_aru`: how far this process trails the ring.
    pub aru_lag: u64,
    /// Completed token rotations on the current ring (0 in recovery).
    pub rotations: u64,
    /// Submissions not yet stamped into the order (0 in recovery).
    pub pending: usize,
    /// Application deliveries retained in the delivery log.
    pub deliveries: usize,
    /// Messages retained in the ring store — the received ordinals above
    /// `store_floor` (the frozen snapshot's while in recovery). A window,
    /// not a history: it must not grow with the configuration's age.
    pub store_len: usize,
    /// Ordinals at or below this were delivered, are held by every member
    /// and have been dropped from the store.
    pub store_floor: u64,
}

// The regular variant is the hot path and lives for the whole lifetime of a
// configuration; boxing it would add an indirection to every message. The
// size gap versus the boxed recovery variant is intentional.
#[allow(clippy::large_enum_variant)]
enum Mode<P> {
    Regular { ring: Ring<P> },
    Recovery(Box<RecoveryState<P>>),
}

/// A single process of the extended-virtual-synchrony stack, runnable under
/// the deterministic simulator (it implements [`evs_sim::Node`]).
///
/// Applications interact through [`EvsProcess::submit`] (from an
/// [`Action::Invoke`](evs_sim::Action) closure or test code) and by reading
/// [`EvsProcess::deliveries`]. Every model-relevant event is also emitted
/// into the simulator trace as an [`EvsEvent`] for the specification
/// checker.
pub struct EvsProcess<P> {
    me: ProcessId,
    params: EvsParams,
    persist: PersistentState,
    membership: Membership,
    mode: Mode<P>,
    /// Set between a gather starting and the next regular installation;
    /// application submissions are buffered while set.
    frozen: bool,
    app_buffer: VecDeque<(Service, P)>,
    /// Frames for configurations newer than the current one, replayed when
    /// that configuration is installed (§3 Step 2: "Buffer any messages
    /// received for the proposed new configuration").
    future_buffer: VecDeque<(ProcessId, ConfigId, RingMsg<P>)>,
    delivered: Vec<Delivery<P>>,
    obligations: BTreeSet<ProcessId>,
    current_config: Configuration,
    last_token_seen: SimTime,
    /// Highest own message-id counter whose `send_p(m)` was logged. Own
    /// ids are stamped in counter order (the ring's `pending` queue is
    /// FIFO, and a new configuration takes the old one's unsent
    /// submissions before the buffered ones), so anything at or below it
    /// is a retransmission.
    sent_upto: u64,
    /// A token waiting out its pacing delay before being forwarded
    /// (§3/Totem: the token is paced so an idle ring does not spin).
    pending_token: Option<(ProcessId, evs_order::Token)>,
    /// The armed maintenance timer: the deadline it fires at and its id.
    /// The engine re-arms it to the *earliest* pending protocol deadline
    /// (heartbeat, suspicion expiry, token retransmission, token loss,
    /// recovery resend/stall) after every callback, so an event-driven
    /// driver parks exactly until work is due instead of polling a fixed
    /// tick. An armed timer is only ever replaced by an earlier one;
    /// firing early is harmless ([`EvsProcess::settle_tick`] no-ops).
    tick_armed: Option<(SimTime, TimerId)>,
    /// Set when a replay refused to start this process (see
    /// [`EvsProcess::start_refused`]); every callback is inert while set.
    refused: Option<ReplayError>,
    /// Adopted from the driver's `Ctx` at `on_start`; detached until then.
    telemetry: Telemetry,
    /// Origination instants of this process's own in-flight messages, so
    /// their local delivery can be observed into the latency histograms.
    origin_times: HashMap<MessageId, SimTime>,
    lat_causal: LogHistogram,
    lat_agreed: LogHistogram,
    lat_safe: LogHistogram,
    /// Stable storage. [`NullStorage`] by default (simulator, benches);
    /// a file-backed WAL when the driver wants state to survive `kill -9`.
    storage: Box<dyn Storage>,
    /// Message ids up to this value are covered by a synced
    /// [`WalRecord::Lease`]; crossing it writes (and syncs) the next lease
    /// *before* the id is used, so a kill can never cause id reuse.
    lease_limit: u64,
    /// Complement shadow of `persist.msg_counter` (self-stabilization
    /// discipline: two copies that only agree when `shadow == !primary`).
    /// Checked *before* every id allocation; a mismatch is repaired in
    /// place by taking the maximum of all surviving bounds, which can skip
    /// ids but never reuse one (Spec 1.4).
    counter_shadow: u64,
    /// The classification of the most recent poisoned-WAL replay, if any
    /// (surfaced to tests and the chaos harness's coverage report).
    last_replay_poison: Option<ReplayError>,
    /// Complement shadow of `current_config.id` (epoch stored inverted),
    /// written at every installation. Checked before the id is recorded
    /// into an externally visible `fail_p(c)`: a fail in a configuration
    /// this process never installed would break Spec 2.2, so a damaged
    /// primary is replaced by the ring's independent copy (regular mode)
    /// or this shadow (mid-recovery) — see
    /// [`EvsProcess::installed_config_id`].
    config_shadow: ConfigId,
    /// Scratch buffer for WAL record encoding.
    wal_buf: Vec<u8>,
    /// Records appended since the log was last compacted into a
    /// [`Checkpoint`] (see [`WAL_COMPACT_RECORDS`]).
    wal_since_checkpoint: u64,
    wal_appends: Counter,
    wal_syncs: Counter,
    /// Wall-clock nanoseconds per durability barrier; the sync sits on
    /// the live hot path (§3 step boundaries), so the obs plane exposes
    /// its latency distribution.
    wal_sync_ns: LogHistogram,
}

impl<P> fmt::Debug for EvsProcess<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EvsProcess")
            .field("me", &self.me)
            .field("config", &self.current_config)
            .field("in_recovery", &matches!(self.mode, Mode::Recovery(_)))
            .field("frozen", &self.frozen)
            .finish()
    }
}

type ECtx<'a, P> = Ctx<'a, EvsMsg<P>, EvsEvent>;

/// The complement-shadow form of a configuration id: the epoch stored
/// inverted, so an accidentally zeroed or freshly mapped copy can never
/// agree with a zeroed primary (the self-stabilization discipline used
/// for the message counter too).
fn shadow_of(id: ConfigId) -> ConfigId {
    ConfigId {
        epoch: !id.epoch,
        ..id
    }
}

impl<P: Clone + fmt::Debug + 'static> EvsProcess<P> {
    /// Creates the engine for process `me`. Every process starts in a
    /// singleton regular configuration (epoch 0) and merges with its
    /// component through the normal membership/recovery path.
    pub fn new(me: ProcessId, params: EvsParams) -> Self {
        let initial = ProposedConfig::singleton(0, me);
        let initial_id = initial.id;
        let membership = Membership::new(
            me,
            initial.clone(),
            0,
            params.membership.clone(),
            SimTime::ZERO,
        );
        let mut ring = Ring::new(
            me,
            initial.id,
            initial.members.clone(),
            params.max_per_visit,
        );
        ring.set_retx_limit(params.token_retx_limit);
        EvsProcess {
            me,
            params,
            persist: PersistentState::default(),
            membership,
            mode: Mode::Regular { ring },
            frozen: false,
            app_buffer: VecDeque::new(),
            future_buffer: VecDeque::new(),
            delivered: Vec::new(),
            obligations: BTreeSet::new(),
            current_config: Configuration::from(initial),
            last_token_seen: SimTime::ZERO,
            sent_upto: 0,
            pending_token: None,
            tick_armed: None,
            refused: None,
            telemetry: Telemetry::disabled(),
            origin_times: HashMap::new(),
            lat_causal: LogHistogram::detached(),
            lat_agreed: LogHistogram::detached(),
            lat_safe: LogHistogram::detached(),
            storage: Box::new(NullStorage::new()),
            lease_limit: 0,
            counter_shadow: !0,
            last_replay_poison: None,
            config_shadow: shadow_of(initial_id),
            wal_buf: Vec::new(),
            wal_since_checkpoint: 0,
            wal_appends: Counter::detached(),
            wal_syncs: Counter::detached(),
            wal_sync_ns: LogHistogram::detached(),
        }
    }

    /// Creates the engine with an explicit stable-storage backend. State
    /// journaled to it is folded back on the next start of a process with
    /// the same backend — this is how a `kill -9`-ed process resumes its
    /// identity (see [`crate::persist`]).
    pub fn with_storage(me: ProcessId, params: EvsParams, storage: Box<dyn Storage>) -> Self {
        let mut node = Self::new(me, params);
        node.storage = storage;
        node
    }

    /// Direct access to the stable-storage backend (tests, drivers).
    pub fn storage_mut(&mut self) -> &mut dyn Storage {
        &mut *self.storage
    }

    /// How the most recent WAL replay classified its damage, if the log
    /// held records that were CRC-valid but semantically impossible (or an
    /// undecodable snapshot). `None` after a clean replay. Chaos and
    /// recovery tests read this to assert that injected rot was *rejected
    /// and classified*, never silently folded into state.
    pub fn last_replay_poison(&self) -> Option<ReplayError> {
        self.last_replay_poison
    }

    /// Why this process refused to start, if its stable-storage replay
    /// found damage that left *no* safe message-id bound: an undecodable
    /// snapshot with zero surviving post-snapshot leases. Every counter the
    /// dead incarnation leased may be hidden inside the unreadable
    /// snapshot, so no finite skip provably avoids id reuse (Spec 1.4) —
    /// the only safe answer is to stay down. A refused engine is inert:
    /// it emits nothing, joins nothing, allocates no ids, and ignores
    /// every message, timer and submission until an operator clears or
    /// replaces the damaged store.
    pub fn start_refused(&self) -> Option<ReplayError> {
        self.refused
    }

    /// Appends one record to the write-ahead log. Best effort: an I/O
    /// error here must not take down the protocol (the process degrades to
    /// the durability of a process without stable storage).
    fn wal_append(&mut self, rec: WalRecord) {
        rec.encode(&mut self.wal_buf);
        self.wal_since_checkpoint += 1;
        if self.storage.append(&self.wal_buf).is_ok() {
            self.wal_appends.inc();
        }
    }

    /// Replaces the log with one checkpoint. Best effort like every other
    /// write: on an I/O error the records stay and the next trigger tries
    /// again.
    fn write_checkpoint(&mut self, cp: Checkpoint) {
        cp.encode(&mut self.wal_buf);
        self.wal_since_checkpoint = 0;
        if self.storage.snapshot(&self.wal_buf).is_ok() {
            self.telemetry.counter(names::SNAPSHOT_WRITES).inc();
        }
    }

    /// Steady-state compaction, run at the end of every callback: once
    /// [`WAL_COMPACT_RECORDS`] records have piled up in a regular, unfrozen
    /// configuration, one checkpoint stands for all of them. It carries
    /// the lease ceiling (every id handed out lies at or below it), the
    /// largest epoch seen and the installed configuration, so a kill at
    /// any point after it still owes — and names — the right `fail_p(c)`.
    /// Outside a settled regular configuration the log is left alone: the
    /// obligation set and the Step 2–6 boundaries are live there.
    fn maybe_compact(&mut self) {
        if self.wal_since_checkpoint < WAL_COMPACT_RECORDS
            || self.frozen
            || !matches!(self.mode, Mode::Regular { .. })
        {
            return;
        }
        self.write_checkpoint(Checkpoint {
            msg_counter: self.lease_limit.max(self.persist.msg_counter),
            max_epoch: self.persist.max_epoch.max(self.membership.max_epoch()),
            installed: Some(self.installed_config_id()),
        });
    }

    /// Forces a durability barrier at a §3 step boundary.
    fn wal_sync(&mut self) {
        let begin = std::time::Instant::now();
        if self.storage.sync().is_ok() {
            self.wal_syncs.inc();
            self.wal_sync_ns.observe(begin.elapsed().as_nanos() as u64);
        }
    }

    /// Pushes the engine's telemetry handle into the ring and membership
    /// layers so they record through the same per-process registry.
    fn propagate_telemetry(&mut self) {
        self.membership.set_telemetry(self.telemetry.clone());
        if let Mode::Regular { ring } = &mut self.mode {
            ring.set_telemetry(self.telemetry.clone());
        }
        self.lat_causal = self.telemetry.log_histogram(names::DELIVERY_LATENCY_CAUSAL);
        self.lat_agreed = self.telemetry.log_histogram(names::DELIVERY_LATENCY_AGREED);
        self.lat_safe = self.telemetry.log_histogram(names::DELIVERY_LATENCY_SAFE);
        self.wal_appends = self.telemetry.counter(names::WAL_APPENDS);
        self.wal_syncs = self.telemetry.counter(names::WAL_SYNCS);
        self.wal_sync_ns = self.telemetry.log_histogram(names::WAL_SYNC_NS);
    }

    /// This process's identifier.
    pub fn id(&self) -> ProcessId {
        self.me
    }

    /// The parameters this process was constructed with. Transport layers
    /// (datagram packing) and front-ends (broker batch sizing) read shared
    /// tunables like [`EvsParams::max_datagram_bytes`] from here instead of
    /// keeping their own copies.
    pub fn params(&self) -> &EvsParams {
        &self.params
    }

    /// The configuration most recently delivered to the application.
    pub fn current_config(&self) -> &Configuration {
        &self.current_config
    }

    /// Everything delivered to the application so far, in delivery order.
    pub fn deliveries(&self) -> &[Delivery<P>] {
        &self.delivered
    }

    /// Drains the delivery log (for long-running benchmarks). The log
    /// left behind is presized to what was just taken, so a caller that
    /// drains every sweep does not regrow it from empty each time.
    pub fn take_deliveries(&mut self) -> Vec<Delivery<P>> {
        let len = self.delivered.len();
        std::mem::replace(&mut self.delivered, Vec::with_capacity(len))
    }

    /// True if the process is in a regular configuration with a stable
    /// membership view, no recovery in progress, no buffered application
    /// messages, every known message delivered, and no corruption awaiting
    /// the sweep's response. Used by test harnesses to detect convergence.
    pub fn is_settled(&self) -> bool {
        match &self.mode {
            Mode::Regular { ring } => {
                self.membership.is_stable()
                    && !self.frozen
                    && self.app_buffer.is_empty()
                    && ring.pending_len() == 0
                    && ring.delivered_upto() == ring.high_seen()
                    && !self.corruption_pending()
            }
            Mode::Recovery(_) => false,
        }
    }

    /// Read-only twin of the periodic corruption sweep: true when a
    /// shadow, ceiling or cross-copy check would fail right now, meaning
    /// the next sweep will excommunicate and reconfigure. A settle probe
    /// that ignored this could declare a cluster converged in the window
    /// between an injected fault and the engine's response, then watch the
    /// excommunication land after the verdict (a harness race the live
    /// driver actually hit under load). Message-counter damage is *not*
    /// pending by this definition: it is repaired in place at the next id
    /// hand-out without any trace event, so it cannot disturb a settled
    /// verdict — and an idle process would otherwise pend forever.
    pub fn corruption_pending(&self) -> bool {
        let ring_suspect = match &self.mode {
            Mode::Regular { ring } => ring.suspect() || ring.config() != self.current_config.id,
            Mode::Recovery(_) => false,
        };
        ring_suspect || self.current_config.id != shadow_of(self.config_shadow)
    }

    /// A live-observability snapshot of the engine: the current
    /// configuration, ring progress and the ARU lag the obs plane
    /// exposes via `OBS?` scrapes. Ring-progress fields are zero while
    /// the process is mid-recovery (the ring is being rebuilt); the store
    /// fields then describe the frozen snapshot recovery works from.
    pub fn obs(&self) -> EngineObs {
        let (my_aru, high_seen, rotations, pending, store_len, store_floor) = match &self.mode {
            Mode::Regular { ring } => (
                ring.my_aru(),
                ring.high_seen(),
                ring.rotations(),
                ring.pending_len(),
                ring.store_len(),
                ring.floor(),
            ),
            Mode::Recovery(rec) => (0, 0, 0, 0, rec.old.store.len(), rec.old.floor),
        };
        EngineObs {
            epoch: self.current_config.id.epoch,
            rep: self.current_config.id.rep,
            transitional: self.current_config.id.transitional,
            members: self.current_config.members.clone(),
            in_recovery: matches!(self.mode, Mode::Recovery(_)),
            settled: self.is_settled(),
            my_aru,
            high_seen,
            aru_lag: high_seen.saturating_sub(my_aru),
            rotations,
            pending,
            deliveries: self.delivered.len(),
            store_len,
            store_floor,
        }
    }

    /// Submits an application message for the given delivery service.
    ///
    /// During reconfiguration (from gather start until the next regular
    /// configuration is installed) submissions are buffered and entered
    /// into the new configuration's total order, per Step 2 of the
    /// recovery algorithm.
    pub fn submit(&mut self, ctx: &mut ECtx<'_, P>, service: Service, payload: P) {
        if self.refused.is_some() {
            // A refused engine has no safe message-id bound to allocate
            // from; submissions are dropped, not buffered.
            return;
        }
        if self.frozen || matches!(self.mode, Mode::Recovery(_)) {
            self.app_buffer.push_back((service, payload));
            return;
        }
        let id = self.originate(ctx, service);
        self.submit_to_ring(ctx, id, service, payload);
        // A singleton ring stamps on submit, so this is a counter-use
        // site: if the shadow check tripped, the message stayed pending
        // (never stamped, never sent) and the process excommunicates. The
        // unstamped submission is dropped with its incarnation — its id is
        // skipped, which Spec 1.4 permits; only reuse is forbidden.
        let poisoned = matches!(&self.mode, Mode::Regular { ring } if ring.is_poisoned());
        if poisoned {
            self.excommunicate(ctx);
        }
        self.maybe_compact();
    }

    /// Check-before-use on the persistent message counter. If the primary
    /// and its complement shadow disagree, one of them took a transient
    /// fault; we cannot tell which, so the repair takes the *maximum* of
    /// every surviving bound (primary, complemented shadow, synced lease
    /// ceiling). Whichever copy was hit, the true counter is ≤ that
    /// maximum, so the repaired counter can only skip ids — a legal
    /// outcome under Spec 1.4 — never reuse one. Returns true if a repair
    /// was applied (convergence, not excommunication: the damaged state is
    /// local and fully reconstructible).
    fn repair_counter(&mut self) -> bool {
        if self.persist.msg_counter == !self.counter_shadow {
            return false;
        }
        let safe = self
            .persist
            .msg_counter
            .max(!self.counter_shadow)
            .max(self.lease_limit);
        self.persist.msg_counter = safe;
        self.counter_shadow = !safe;
        self.telemetry.counter(names::CORRUPTION_REPAIRS).inc();
        true
    }

    fn next_message_id(&mut self) -> MessageId {
        self.repair_counter();
        self.persist.msg_counter += 1;
        self.counter_shadow = !self.persist.msg_counter;
        if self.persist.msg_counter > self.lease_limit {
            // Claim the next id block durably before using its first id
            // (Spec 1.4: a kill inside the lease skips ids, never reuses).
            self.lease_limit = self.persist.msg_counter + LEASE_BLOCK;
            self.wal_append(WalRecord::Lease(self.lease_limit));
            self.wal_sync();
        }
        MessageId::new(self.me, self.persist.msg_counter)
    }

    /// Allocates a message identity and records the origination instant —
    /// the start of the message's lifecycle span (it now waits for the
    /// token to stamp it into the total order).
    fn originate(&mut self, ctx: &mut ECtx<'_, P>, service: Service) -> MessageId {
        let id = self.next_message_id();
        self.origin_times.insert(id, ctx.now());
        self.telemetry.record(
            ctx.now().ticks(),
            TelemetryEvent::MessageOriginated {
                sender: id.sender.index(),
                counter: id.counter,
                service: service_name(service),
            },
        );
        id
    }

    fn submit_to_ring(
        &mut self,
        ctx: &mut ECtx<'_, P>,
        id: MessageId,
        service: Service,
        payload: P,
    ) {
        let Mode::Regular { ring } = &mut self.mode else {
            unreachable!("submit_to_ring requires regular mode");
        };
        if let Some(stamped) = ring.submit(id, service, payload) {
            // Singleton ring: stamped immediately.
            self.log_send(ctx, &stamped);
            self.drain_ring_deliveries(ctx);
        }
    }

    fn log_send(&mut self, ctx: &mut ECtx<'_, P>, msg: &OrderedMsg<P>) {
        if msg.id.sender == self.me && msg.id.counter > self.sent_upto {
            self.sent_upto = msg.id.counter;
            self.wal_append(WalRecord::Sent {
                counter: msg.id.counter,
                epoch: msg.config.epoch,
                rep: msg.config.rep.index(),
                seq: msg.seq,
            });
            ctx.emit(EvsEvent::Send {
                id: msg.id,
                config: msg.config,
                service: msg.service,
            });
            self.telemetry.record(
                ctx.now().ticks(),
                TelemetryEvent::MessageSent {
                    epoch: msg.config.epoch,
                    rep: msg.config.rep.index(),
                    sender: msg.id.sender.index(),
                    counter: msg.id.counter,
                    seq: msg.seq,
                    service: service_name(msg.service),
                },
            );
        }
    }

    fn deliver_conf(&mut self, ctx: &mut ECtx<'_, P>, cfg: Configuration) {
        // A configuration delivery is a §3 step boundary: journal it and
        // force the barrier, so a later kill knows which fail_p(c) it owes.
        self.wal_append(WalRecord::ConfDelivered {
            epoch: cfg.id.epoch,
            rep: cfg.id.rep.index(),
            transitional: cfg.id.transitional,
        });
        self.wal_sync();
        ctx.emit(EvsEvent::DeliverConf(cfg.clone()));
        self.telemetry.record(
            ctx.now().ticks(),
            TelemetryEvent::ConfigDelivered {
                epoch: cfg.id.epoch,
                rep: cfg.id.rep.index(),
                members: cfg.members.len() as u32,
                regular: cfg.is_regular(),
            },
        );
        self.current_config = cfg.clone();
        self.config_shadow = shadow_of(cfg.id);
        self.delivered.push(Delivery::Config(cfg));
    }

    fn deliver_msg(&mut self, ctx: &mut ECtx<'_, P>, msg: OrderedMsg<P>, config: ConfigId) {
        if msg.id.sender == self.me {
            if let Some(t0) = self.origin_times.remove(&msg.id) {
                let hist = match msg.service {
                    Service::Causal => &self.lat_causal,
                    Service::Agreed => &self.lat_agreed,
                    Service::Safe => &self.lat_safe,
                };
                hist.observe(ctx.now().since(t0));
            }
        }
        ctx.emit(EvsEvent::Deliver {
            id: msg.id,
            config,
            service: msg.service,
            seq: msg.seq,
        });
        self.telemetry.record(
            ctx.now().ticks(),
            TelemetryEvent::MessageDelivered {
                epoch: config.epoch,
                rep: config.rep.index(),
                sender: msg.id.sender.index(),
                counter: msg.id.counter,
                seq: msg.seq,
                service: service_name(msg.service),
                transitional: config.transitional,
            },
        );
        self.telemetry.counter(delivered_counter(msg.service)).inc();
        self.delivered.push(Delivery::Message {
            id: msg.id,
            seq: msg.seq,
            config,
            service: msg.service,
            payload: msg.payload,
        });
    }

    fn drain_ring_deliveries(&mut self, ctx: &mut ECtx<'_, P>) {
        let mut delivered_any = false;
        while let Mode::Regular { ring } = &mut self.mode {
            let Some((msg, _class)) = ring.pop_delivery() else {
                break;
            };
            let config = msg.config;
            self.deliver_msg(ctx, msg, config);
            delivered_any = true;
        }
        if delivered_any {
            // Journal the advanced delivered/stable cut (one record per
            // drain burst, not per message).
            let cut = match &self.mode {
                Mode::Regular { ring } => Some((ring.config(), ring.delivered_upto())),
                Mode::Recovery(_) => None,
            };
            if let Some((cfg, seq)) = cut {
                self.wal_append(WalRecord::Cut {
                    epoch: cfg.epoch,
                    rep: cfg.rep.index(),
                    transitional: cfg.transitional,
                    seq,
                });
            }
        }
    }

    /// Broadcasts an accumulated visit burst: a single message goes out as
    /// a plain `Data` frame, several go out as one `Batch` frame — one
    /// transmit per destination for the whole burst instead of one per
    /// message.
    fn flush_data_batch(&mut self, ctx: &mut ECtx<'_, P>, batch: &mut Vec<OrderedMsg<P>>) {
        match batch.len() {
            0 => {}
            1 => {
                let msg = batch.pop().expect("len checked");
                ctx.broadcast(EvsMsg::Ring(RingMsg::Data(msg)));
            }
            _ => ctx.broadcast(EvsMsg::Ring(RingMsg::Batch(std::mem::take(batch)))),
        }
    }

    fn process_ring_outs(&mut self, ctx: &mut ECtx<'_, P>, outs: Vec<RingOut<P>>) {
        // One token visit can emit a burst — up to `max_per_visit` freshly
        // stamped messages plus served retransmissions. Pack consecutive
        // data messages into one frame; the token (paced separately below)
        // still leaves after the data it refers to.
        let mut batch: Vec<OrderedMsg<P>> = Vec::with_capacity(outs.len());
        let mut sent_data = false;
        for out in outs {
            match out {
                RingOut::Data(msg) => {
                    self.log_send(ctx, &msg);
                    batch.push(msg);
                    sent_data = true;
                }
                RingOut::TokenTo(to, tok) => {
                    self.flush_data_batch(ctx, &mut batch);
                    // A loaded ring is rotation-bound: every pacing delay
                    // multiplies straight into delivery latency, so a visit
                    // that moved data (or left work queued) forwards the
                    // token right behind the data it refers to. Pacing is
                    // only what keeps an *idle* ring from spinning at CPU
                    // speed, so idle visits still hold the token briefly.
                    let busy = sent_data
                        || matches!(&self.mode, Mode::Regular { ring } if ring.pending_len() > 0);
                    if busy {
                        self.pending_token = None;
                        ctx.unicast(to, EvsMsg::Ring(RingMsg::Token(tok)));
                    } else {
                        // Pace the token: hold it briefly before forwarding.
                        self.pending_token = Some((to, tok));
                        ctx.set_timer(self.params.token_pace, TOKEN_SEND);
                    }
                }
            }
        }
        self.flush_data_batch(ctx, &mut batch);
        self.drain_ring_deliveries(ctx);
    }

    fn handle_memb_outs(&mut self, ctx: &mut ECtx<'_, P>, outs: Vec<MembOut>) {
        for out in outs {
            match out {
                MembOut::Broadcast(m) => ctx.broadcast(EvsMsg::Memb(m)),
                MembOut::Send(to, m) => ctx.unicast(to, EvsMsg::Memb(m)),
                MembOut::GatherStarted => self.frozen = true,
                MembOut::Propose(cfg) => self.start_recovery(ctx, cfg),
            }
        }
    }

    /// Step 2/3: freeze the old configuration and broadcast the exchange
    /// report. Re-entered (with the same frozen snapshot) if the membership
    /// proposes again mid-recovery.
    fn start_recovery(&mut self, ctx: &mut ECtx<'_, P>, proposal: ProposedConfig) {
        self.frozen = true;
        // The old configuration's token dies here. This is also the Step 2
        // boundary: the proposal epoch may already be acknowledged to
        // peers, so it must survive a kill (epoch monotonicity).
        self.pending_token = None;
        self.wal_append(WalRecord::Epoch(proposal.id.epoch));
        self.wal_sync();
        let placeholder = Mode::Regular {
            ring: Ring::new(
                self.me,
                ConfigId::regular(u64::MAX, self.me),
                vec![self.me],
                1,
            ),
        };
        let old = match std::mem::replace(&mut self.mode, placeholder) {
            Mode::Regular { ring } => {
                // Fresh entry into the recovery algorithm. A proposal that
                // arrives mid-recovery restarts at Step 2 with the same
                // frozen snapshot and is *not* a second entry, so the
                // entered/exited counters stay balanced.
                self.telemetry.record(
                    ctx.now().ticks(),
                    TelemetryEvent::RecoveryStepEntered {
                        step: 2,
                        epoch: proposal.id.epoch,
                    },
                );
                ring.into_snapshot()
            }
            Mode::Recovery(rec) => rec.old,
        };
        let my_exchange =
            ExchangeState::from_snapshot(proposal.id, self.me, &old, &self.obligations);
        let mut exchanges = BTreeMap::new();
        exchanges.insert(self.me, my_exchange.clone());
        ctx.broadcast(EvsMsg::Exchange(my_exchange.clone()));
        // Step 3: the exchange report is on the wire.
        self.telemetry.record(
            ctx.now().ticks(),
            TelemetryEvent::RecoveryStepReached {
                step: 3,
                epoch: proposal.id.epoch,
            },
        );
        self.mode = Mode::Recovery(Box::new(RecoveryState {
            proposal,
            old,
            my_exchange,
            exchanges,
            trans: None,
            acks: BTreeSet::new(),
            my_ack_sent: false,
            last_resend: ctx.now(),
            last_progress: ctx.now(),
        }));
        self.try_advance_recovery(ctx);
    }

    /// Steps 4–5: classify, rebroadcast, acknowledge; Step 6 when all
    /// transitional members have acknowledged.
    fn try_advance_recovery(&mut self, ctx: &mut ECtx<'_, P>) {
        let Mode::Recovery(rec) = &mut self.mode else {
            return;
        };
        // Step 4 runs once reports from every proposal member are in.
        if rec.trans.is_none() {
            if rec
                .proposal
                .members
                .iter()
                .all(|m| rec.exchanges.contains_key(m))
            {
                let trans = transitional_members(rec.old.config, &rec.exchanges);
                let needed = needed_set(&trans, &rec.exchanges);
                rec.trans = Some((trans, needed));
                // Step 4: the transitional configuration is determined.
                let epoch = rec.proposal.id.epoch;
                self.telemetry.record(
                    ctx.now().ticks(),
                    TelemetryEvent::RecoveryStepReached { step: 4, epoch },
                );
                self.do_rebroadcasts(ctx);
            } else {
                return;
            }
        }
        let Mode::Recovery(rec) = &mut self.mode else {
            return;
        };
        let (trans, needed) = rec.trans.as_ref().expect("classified above");
        // Step 5.b/5.c: acknowledge once we hold the needed set (what lies
        // at or below our floor we hold without storing it); extend the
        // obligation set at that moment.
        let old = &rec.old;
        let acked_now = !rec.my_ack_sent
            && needed
                .iter()
                .all(|s| *s <= old.floor || old.store.contains_key(s));
        if acked_now {
            rec.my_ack_sent = true;
            rec.acks.insert(self.me);
            self.obligations = extended_obligations(&self.obligations, trans, &rec.exchanges);
            self.telemetry.record(
                ctx.now().ticks(),
                TelemetryEvent::ObligationSetSize {
                    size: self.obligations.len() as u32,
                },
            );
            self.telemetry
                .gauge(names::OBLIGATION_SET_SIZE)
                .set(self.obligations.len() as i64);
            // Step 5: the needed set is held, the acknowledgement is out.
            self.telemetry.record(
                ctx.now().ticks(),
                TelemetryEvent::RecoveryStepReached {
                    step: 5,
                    epoch: rec.proposal.id.epoch,
                },
            );
            ctx.broadcast(EvsMsg::RecoveryAck {
                proposal: rec.proposal.id,
            });
        }
        let all_acked = rec.my_ack_sent && trans.iter().all(|q| rec.acks.contains(q));
        if acked_now {
            // Step 5.c boundary: the promise to deliver the obligation set
            // must survive a kill between the ack and Step 6.
            let members: Vec<u32> = self.obligations.iter().map(|p| p.index()).collect();
            self.wal_append(WalRecord::Obligations(members));
        }
        if all_acked {
            self.finish_recovery(ctx);
        }
    }

    /// Step 5.a: broadcast the messages we are responsible for.
    fn do_rebroadcasts(&mut self, ctx: &mut ECtx<'_, P>) {
        let Mode::Recovery(rec) = &self.mode else {
            return;
        };
        let Some((trans, _)) = &rec.trans else {
            return;
        };
        // A duty is an ordinal some transitional member lacks, and every
        // member holds everything up to anyone's floor: the store has it.
        let store = &rec.old.store;
        for s in rebroadcast_set(self.me, trans, &rec.exchanges, |s| store.contains_key(&s)) {
            debug_assert!(s > rec.old.floor, "rebroadcast duty {s} below the floor");
            ctx.broadcast(EvsMsg::Rebroadcast {
                proposal: rec.proposal.id,
                msg: store[&s].clone(),
            });
        }
    }

    /// Step 6 plus re-installation: executes the recovery plan atomically,
    /// installs the new regular configuration, restarts the ring and
    /// replays buffered traffic and submissions.
    fn finish_recovery(&mut self, ctx: &mut ECtx<'_, P>) {
        let Mode::Recovery(rec) = std::mem::replace(
            &mut self.mode,
            Mode::Regular {
                // Placeholder, replaced below.
                ring: Ring::new(
                    self.me,
                    ConfigId::regular(u64::MAX, self.me),
                    vec![self.me],
                    1,
                ),
            },
        ) else {
            unreachable!("finish_recovery requires recovery mode");
        };
        let rec = *rec;
        let plan = crate::recovery::compute_plan(
            self.me,
            &rec.old,
            &rec.proposal,
            &rec.exchanges,
            &self.obligations,
        );
        // 6.b — finish the old regular configuration.
        let old_config = rec.old.config;
        for m in plan.regular_deliveries {
            self.deliver_msg(ctx, m, old_config);
        }
        // 6.c — the transitional configuration.
        self.deliver_conf(ctx, plan.transitional.clone());
        // 6.d — transitional deliveries.
        let trans_id = plan.transitional.id;
        for m in plan.transitional_deliveries {
            self.deliver_msg(ctx, m, trans_id);
        }
        // 6.e — the new regular configuration.
        self.deliver_conf(ctx, plan.new_regular);

        // Step 1 of the next round: fresh ring, empty obligation set.
        self.telemetry.record(
            ctx.now().ticks(),
            TelemetryEvent::RecoveryStepExited {
                step: 6,
                epoch: rec.proposal.id.epoch,
            },
        );
        self.obligations.clear();
        self.wal_append(WalRecord::Obligations(Vec::new()));
        // Record the retirement, not just the gauge: inspect's
        // obligation-growth detector needs to see Step 5.c obligations
        // coming back down once a round completes.
        self.telemetry.record(
            ctx.now().ticks(),
            TelemetryEvent::ObligationSetSize { size: 0 },
        );
        self.telemetry.gauge(names::OBLIGATION_SET_SIZE).set(0);
        self.frozen = false;
        self.last_token_seen = ctx.now();
        let mut ring = Ring::new(
            self.me,
            rec.proposal.id,
            rec.proposal.members.clone(),
            self.params.max_per_visit,
        );
        ring.set_retx_limit(self.params.token_retx_limit);
        ring.set_telemetry(self.telemetry.clone());
        let boot = ring.bootstrap_token(ctx.now());
        self.mode = Mode::Regular { ring };
        self.process_ring_outs(ctx, boot);

        // Unsent submissions from the old configuration keep their ids and
        // enter the new configuration's order (their model-level send
        // happens now); then buffered application submissions follow.
        for (id, service, payload) in rec.old.pending {
            self.submit_to_ring(ctx, id, service, payload);
        }
        while let Some((service, payload)) = self.app_buffer.pop_front() {
            let id = self.originate(ctx, service);
            self.submit_to_ring(ctx, id, service, payload);
        }

        // Replay frames buffered for this configuration.
        let new_id = rec.proposal.id;
        let buffered: Vec<(ProcessId, ConfigId, RingMsg<P>)> =
            std::mem::take(&mut self.future_buffer).into();
        for (from, cfg, frame) in buffered {
            if cfg == new_id {
                self.handle_ring_frame(ctx, from, frame);
            } else if cfg.epoch >= new_id.epoch {
                self.future_buffer.push_back((from, cfg, frame));
            }
        }
    }

    fn buffer_future(&mut self, from: ProcessId, cfg: ConfigId, frame: RingMsg<P>) {
        if self.future_buffer.len() >= FUTURE_BUFFER_CAP {
            self.future_buffer.pop_front();
        }
        self.future_buffer.push_back((from, cfg, frame));
    }

    fn handle_ring_frame(&mut self, ctx: &mut ECtx<'_, P>, from: ProcessId, frame: RingMsg<P>) {
        let frame_config = match &frame {
            RingMsg::Data(m) => m.config,
            // A batch is homogeneous by construction; a hostile mixed batch
            // is still safe because the ring checks each message's
            // configuration again on acceptance.
            RingMsg::Batch(b) => match b.first() {
                Some(m) => m.config,
                None => return, // an empty batch carries nothing
            },
            RingMsg::Token(t) => t.config,
        };
        enum Disposition {
            Current,
            Future,
            Drop,
        }
        let disposition = match &self.mode {
            Mode::Regular { ring } => {
                let current = ring.config();
                if frame_config == current {
                    Disposition::Current
                } else if frame_config.epoch > current.epoch {
                    // Traffic of a configuration we have not installed yet.
                    Disposition::Future
                } else {
                    Disposition::Drop
                }
            }
            // Old-configuration data is deliberately dropped during a
            // recovery: the recovery works from frozen exchange reports,
            // and accepting stray late data would break the symmetry of
            // Step 6 across the transitional members (Spec 4). Rebroadcast
            // frames are the only way old messages enter during recovery.
            Mode::Recovery(rec) => {
                if frame_config == rec.proposal.id {
                    Disposition::Future
                } else {
                    Disposition::Drop
                }
            }
        };
        match disposition {
            Disposition::Drop => {}
            Disposition::Future => self.buffer_future(from, frame_config, frame),
            Disposition::Current => match frame {
                RingMsg::Data(m) => {
                    if let Mode::Regular { ring } = &mut self.mode {
                        ring.on_data(m);
                    }
                    self.drain_ring_deliveries(ctx);
                }
                RingMsg::Batch(batch) => {
                    // Exactly the same messages arriving back to back.
                    if let Mode::Regular { ring } = &mut self.mode {
                        for m in batch {
                            ring.on_data(m);
                        }
                    }
                    self.drain_ring_deliveries(ctx);
                }
                RingMsg::Token(t) => {
                    self.last_token_seen = ctx.now();
                    let now = ctx.now();
                    let outs = match &mut self.mode {
                        Mode::Regular { ring } => ring.on_token(now, t),
                        Mode::Recovery(_) => Vec::new(),
                    };
                    self.process_ring_outs(ctx, outs);
                }
            },
        }
        // Check-before-use already stopped a poisoned ring from stamping
        // or delivering anything this frame; now respond to the poison
        // without waiting for the next tick.
        let poisoned = matches!(&self.mode, Mode::Regular { ring } if ring.is_poisoned());
        if poisoned {
            self.excommunicate(ctx);
        }
    }

    /// Injects one corruption-class fault into this process's live state
    /// (chaos harness entry point). The damage is applied exactly as a
    /// cosmic-ray bit flip or medium rot would land it — no detection or
    /// response happens here; the engine's own shadow/ceiling/cross-copy
    /// checks must catch it on the next use.
    pub fn inject_corruption(&mut self, kind: CorruptionKind) {
        self.telemetry.counter(names::CORRUPTIONS_INJECTED).inc();
        match kind {
            CorruptionKind::AruBit(bit) => {
                if let Mode::Regular { ring } = &mut self.mode {
                    ring.corrupt_my_aru(bit);
                }
            }
            CorruptionKind::SeqBit(bit) => {
                if let Mode::Regular { ring } = &mut self.mode {
                    ring.corrupt_high_seen(bit);
                }
            }
            CorruptionKind::CounterBit(bit) => {
                // The shadow is deliberately left stale: that is what a
                // single-copy fault looks like.
                self.persist.msg_counter ^= 1 << (bit % 64);
            }
            CorruptionKind::SeqWrap => {
                if let Mode::Regular { ring } = &mut self.mode {
                    ring.wrap_seq();
                }
            }
            CorruptionKind::ConfDesync => {
                self.current_config.id.epoch ^= 1 << 9;
            }
            CorruptionKind::WalByte { record, offset } => {
                let _ = self.storage.corrupt_record_byte(record, offset);
            }
            CorruptionKind::WalTrunc { bytes } => {
                let _ = self.storage.truncate_tail(bytes.max(1));
            }
        }
    }

    /// The id of the configuration this process actually installed,
    /// validated against its complement shadow before use. On agreement
    /// the primary is returned. On mismatch the primary was damaged
    /// (the corruption vocabulary flips the engine copy, never both):
    /// in a regular configuration the ring's independent copy is
    /// authoritative — it is the id peers saw us operate under — and
    /// mid-recovery the shadow, written at installation time, is the
    /// only survivor. Every externally visible `fail_p(c)` goes through
    /// this check, so the failure is always recorded in a configuration
    /// that was really installed (Spec 2.2), even when the crash lands
    /// between a corruption and the sweep that would have caught it.
    fn installed_config_id(&self) -> ConfigId {
        let shadowed = shadow_of(self.config_shadow);
        if self.current_config.id == shadowed {
            return self.current_config.id;
        }
        match &self.mode {
            Mode::Regular { ring } => ring.config(),
            Mode::Recovery(_) => shadowed,
        }
    }

    /// The self-stabilizing response to corruption the engine cannot
    /// repair in place: leave the configuration with an explicit
    /// `fail_p(c)` and re-enter as a fresh singleton incarnation —
    /// exactly the event sequence of the proven-conformant crash path, so
    /// the trace stays a legal EVS history (Specs 5/6) and peers install
    /// a new configuration without the poisoned member.
    fn excommunicate(&mut self, ctx: &mut ECtx<'_, P>) {
        let config = self.installed_config_id();
        self.telemetry.counter(names::CORRUPTION_EXCOMMS).inc();
        if let Mode::Recovery(rec) = &self.mode {
            self.telemetry.record(
                ctx.now().ticks(),
                TelemetryEvent::RecoveryStepExited {
                    step: 0,
                    epoch: rec.proposal.id.epoch,
                },
            );
        }
        ctx.emit(EvsEvent::Fail { config });
        self.repair_counter();
        self.persist.max_epoch = self
            .persist
            .max_epoch
            .max(self.membership.max_epoch())
            .max(config.epoch);
        let persist = self.persist;
        self.wal_append(WalRecord::FailMark {
            epoch: config.epoch,
            rep: config.rep.index(),
            msg_counter: persist.msg_counter,
            max_epoch: persist.max_epoch,
        });
        self.wal_sync();
        let epoch = self.persist.max_epoch + 1;
        self.persist.max_epoch = epoch;
        self.reincarnate(ctx, epoch);
    }

    /// The periodic corruption sweep: a poisoned ring (shadow mismatch or
    /// ordinal at the ceiling) or a configuration-id desync between the
    /// engine's copy and the ring's copy both mean local state can no
    /// longer be trusted — excommunicate. Returns true if the process
    /// reincarnated (callers must not keep using the old mode).
    fn corruption_check(&mut self, ctx: &mut ECtx<'_, P>) -> bool {
        let poisoned = match &mut self.mode {
            Mode::Regular { ring } => ring.audit() || ring.config() != self.current_config.id,
            // Recovery state is rebuilt from frozen exchange reports and
            // carries no live counters to cross-check; damage there is
            // caught when the next regular configuration's ring runs.
            Mode::Recovery(_) => false,
        };
        if poisoned {
            self.excommunicate(ctx);
        }
        poisoned
    }

    /// The earliest instant at which [`EvsProcess::settle_tick`] has real
    /// work scheduled: the membership's next deadline (heartbeat, suspicion
    /// expiry, gather/commit timeouts), the ring's next token
    /// retransmission, Totem's token-loss timeout, and the recovery
    /// resend/stall timeouts. Clamped to at most one `token_loss` window as
    /// a backstop — a deadline source this function missed can cost one
    /// late window, never a wedge.
    fn next_tick_deadline(&self, now: SimTime) -> SimTime {
        let mut d = self.membership.next_deadline(now);
        match &self.mode {
            Mode::Regular { ring } => {
                if let Some(at) =
                    ring.next_retx_at(self.params.token_retx, self.params.token_retx_max)
                {
                    d = d.min(at);
                }
                if !ring.is_singleton() && self.membership.is_stable() {
                    d = d.min(self.last_token_seen + (self.params.token_loss + 1));
                }
            }
            Mode::Recovery(rec) => {
                d = d.min(rec.last_resend + self.params.recovery_resend);
                if self.membership.is_stable() {
                    d = d.min(rec.last_progress + (self.params.recovery_stall + 1));
                }
            }
        }
        d.clamp(now + 1, now + self.params.token_loss.max(1))
    }

    /// Re-arms the maintenance timer at the earliest pending deadline.
    /// Called at the end of every callback that can move a deadline. An
    /// armed timer is kept when it already fires at or before the new
    /// deadline (it fires early, `settle_tick` no-ops, and this re-arms);
    /// it is cancelled and replaced when a nearer deadline appeared.
    fn rearm_tick(&mut self, ctx: &mut ECtx<'_, P>) {
        let now = ctx.now();
        let want = self.next_tick_deadline(now);
        match self.tick_armed {
            Some((at, _)) if at <= want => {}
            prior => {
                if let Some((_, id)) = prior {
                    ctx.cancel_timer(id);
                }
                let id = ctx.set_timer(want.since(now), TICK);
                self.tick_armed = Some((want, id));
            }
        }
    }

    fn settle_tick(&mut self, ctx: &mut ECtx<'_, P>) {
        if self.corruption_check(ctx) {
            return;
        }
        let now = ctx.now();
        let outs = self.membership.tick(now);
        self.handle_memb_outs(ctx, outs);

        let retx = match &mut self.mode {
            Mode::Regular { ring } => {
                ring.maybe_retransmit(now, self.params.token_retx, self.params.token_retx_max)
            }
            Mode::Recovery(_) => None,
        };
        if let Some(out) = retx {
            self.process_ring_outs(ctx, vec![out]);
        }

        let token_lost = matches!(&self.mode, Mode::Regular { ring } if !ring.is_singleton())
            && self.membership.is_stable()
            && now.since(self.last_token_seen) > self.params.token_loss;
        if token_lost {
            // Totem's token-loss timeout: the ring has stalled in a way
            // heartbeats may not reveal; force a membership round.
            self.last_token_seen = now;
            let outs = self.membership.force_reconfigure(now);
            self.handle_memb_outs(ctx, outs);
        }

        // Recovery-stall timeout: sustained loss can starve Steps 3–5 of
        // the reports and acknowledgments they wait for even while the
        // periodic resends fire (a proposal member may have vanished
        // without the membership noticing). After a full stall window
        // with nothing new, force a fresh membership round rather than
        // wedge; the restarted recovery reuses the frozen snapshot.
        let stalled = self.membership.is_stable()
            && matches!(&self.mode, Mode::Recovery(rec)
                if now.since(rec.last_progress) > self.params.recovery_stall);
        if stalled {
            if let Mode::Recovery(rec) = &mut self.mode {
                rec.last_progress = now;
            }
            let outs = self.membership.force_reconfigure(now);
            self.handle_memb_outs(ctx, outs);
        }

        let resend = match &mut self.mode {
            Mode::Recovery(rec) if now.since(rec.last_resend) >= self.params.recovery_resend => {
                rec.last_resend = now;
                Some((
                    rec.my_exchange.clone(),
                    rec.my_ack_sent.then_some(rec.proposal.id),
                ))
            }
            _ => None,
        };
        if let Some((exchange, ack)) = resend {
            ctx.broadcast(EvsMsg::Exchange(exchange));
            self.do_rebroadcasts(ctx);
            if let Some(proposal) = ack {
                ctx.broadcast(EvsMsg::RecoveryAck { proposal });
            }
        }
    }

    /// Re-enters the system as a singleton regular configuration at
    /// `epoch` (§2: "may recover with a deliver_conf_p(c) event, where the
    /// membership of c is {p}"). Shared by crash recovery and
    /// restart-from-WAL.
    fn reincarnate(&mut self, ctx: &mut ECtx<'_, P>, epoch: u64) {
        let initial = ProposedConfig::singleton(epoch, self.me);
        self.membership = Membership::new(
            self.me,
            initial.clone(),
            epoch,
            self.params.membership.clone(),
            ctx.now(),
        );
        let mut ring = Ring::new(
            self.me,
            initial.id,
            initial.members.clone(),
            self.params.max_per_visit,
        );
        ring.set_retx_limit(self.params.token_retx_limit);
        self.mode = Mode::Regular { ring };
        self.propagate_telemetry();
        self.frozen = false;
        self.app_buffer.clear();
        self.future_buffer.clear();
        self.obligations.clear();
        self.telemetry.gauge(names::OBLIGATION_SET_SIZE).set(0);
        self.pending_token = None;
        self.origin_times.clear();
        let cfg = Configuration::from(initial);
        self.deliver_conf(ctx, cfg);
        self.last_token_seen = ctx.now();
        self.tick_armed = None;
        self.rearm_tick(ctx);
    }

    /// Rebuilds the engine from a non-empty stable-storage replay: the
    /// path a `kill -9`-ed (or cleanly crashed) process takes when its
    /// next incarnation starts over the same [`Storage`] backend.
    fn restart_from_wal(&mut self, ctx: &mut ECtx<'_, P>, replay: Replay) {
        let had_snapshot = replay.snapshot.is_some();
        let corrupt_gaps = replay.corrupt_gaps;
        let rec = crate::persist::fold(
            replay.snapshot.as_deref(),
            &replay.records,
            &replay.gap_positions,
        );
        self.last_replay_poison = rec.poison;
        self.telemetry
            .counter(names::WAL_REPLAY_RECORDS)
            .add(rec.records);
        self.telemetry.record(
            ctx.now().ticks(),
            TelemetryEvent::StorageRecovered {
                records: rec.records,
                snapshot: had_snapshot,
                wal: replay.wal_present,
            },
        );
        if rec.poison == Some(ReplayError::BadSnapshot) && !rec.counter_bounded {
            // An undecodable snapshot with zero surviving post-snapshot
            // leases: every id the dead incarnation ever leased may be
            // hidden inside the unreadable snapshot, so no skip distance is
            // provably past it. Reusing an id would break Spec 1.4, so the
            // process refuses to start instead (see
            // [`EvsProcess::start_refused`]).
            self.refused = Some(ReplayError::BadSnapshot);
            self.telemetry.counter(names::WAL_REFUSED_STARTS).inc();
            return;
        }
        if let Some(undead) = rec.undead {
            // The dead incarnation was killed without recording its
            // failure; emit the fail_p(c) it owes so the trace stays a
            // legal EVS history (Spec 5/6: a configuration a process left
            // without a failure would otherwise still claim it). But only
            // when the log vouches for it: damage positioned *after* the
            // last intact install — a poisoned record, a rot scar, or a
            // CRC gap whose scan position follows the install — may hide a
            // newer install or the retiring fail mark. Spec 2.2 forgives a
            // missing fail, never a fail naming the wrong configuration,
            // so a suspect undead is dropped; damage the positional fold
            // proved *precedes* the install no longer costs the fail.
            if rec.undead_suspect {
                self.telemetry.counter(names::WAL_SUPPRESSED_FAILS).inc();
            } else {
                ctx.emit(EvsEvent::Fail { config: undead });
            }
        }
        // Durable-medium rot: records lost to a CRC gap or rejected by the
        // semantic replay check may have included Leases. Consecutive
        // lease ceilings differ by at most LEASE_BLOCK + 1 (the next lease
        // is written at `counter + LEASE_BLOCK` with `counter` at most one
        // past the old ceiling), so skipping that much per lost record is
        // provably past any id the lost records could have leased — ids
        // skip, never reuse (Spec 1.4). Plain torn tails need no skip:
        // leases are synced before their first id is used, so a tail can
        // only lose the record that was mid-write.
        let poisoned_total = rec.poisoned + corrupt_gaps;
        let mut msg_counter = rec.msg_counter;
        let mut max_epoch = rec.max_epoch;
        if poisoned_total > 0 {
            self.telemetry
                .counter(names::WAL_POISONED_RECORDS)
                .add(poisoned_total);
            msg_counter =
                msg_counter.saturating_add((LEASE_BLOCK + 1).saturating_mul(poisoned_total));
            // Lost records also held epochs (Epoch, ConfDelivered, Cut and
            // FailMark all carry one), and every epoch this process ever
            // acknowledged was synced before the ack — so the largest
            // epoch it ever observed is exactly what the damage may have
            // swallowed. Skip the epoch space by the same conservative
            // block per lost record: a reincarnation must never re-mint a
            // configuration id the dead incarnation may have installed
            // (identifier uniqueness; epochs skip, never reuse).
            max_epoch = max_epoch.saturating_add((LEASE_BLOCK + 1).saturating_mul(poisoned_total));
        }
        self.persist.msg_counter = msg_counter;
        self.lease_limit = msg_counter;
        self.counter_shadow = !msg_counter;
        self.persist.max_epoch = max_epoch;
        let epoch = self.persist.max_epoch + 1;
        self.persist.max_epoch = epoch;
        // Compact: everything replayed folds into one checkpoint; the
        // singleton configuration delivery below re-seeds the fresh log.
        // Whatever failure the dead incarnation owed was settled above, so
        // the checkpoint names no installed configuration.
        self.write_checkpoint(Checkpoint {
            msg_counter: self.persist.msg_counter,
            max_epoch: epoch,
            installed: None,
        });
        self.reincarnate(ctx, epoch);
    }
}

impl<P: Clone + fmt::Debug + 'static> Node for EvsProcess<P> {
    type Msg = EvsMsg<P>;
    type Ev = EvsEvent;

    fn on_start(&mut self, ctx: &mut ECtx<'_, P>) {
        self.telemetry = ctx.telemetry().clone();
        self.propagate_telemetry();
        // A fresh incarnation over a non-empty stable store is a restarted
        // process (the udp orchestrator's `kill -9` + respawn path):
        // rebuild from the WAL instead of booting at epoch 0.
        if let Ok(replay) = self.storage.replay() {
            if !replay.is_empty() {
                self.restart_from_wal(ctx, replay);
                return;
            }
        }
        // Deliver the initial singleton configuration to the application.
        let initial = self.current_config.clone();
        self.deliver_conf(ctx, initial);
        self.tick_armed = None;
        self.rearm_tick(ctx);
    }

    fn on_message(&mut self, ctx: &mut ECtx<'_, P>, from: ProcessId, msg: EvsMsg<P>) {
        if self.refused.is_some() {
            return;
        }
        match msg {
            EvsMsg::Memb(m) => {
                let now = ctx.now();
                let outs = self.membership.on_message(now, from, m);
                self.handle_memb_outs(ctx, outs);
            }
            EvsMsg::Ring(frame) => self.handle_ring_frame(ctx, from, frame),
            EvsMsg::Exchange(es) => {
                if let Mode::Recovery(rec) = &mut self.mode {
                    if es.proposal == rec.proposal.id {
                        if let std::collections::btree_map::Entry::Vacant(slot) =
                            rec.exchanges.entry(es.sender)
                        {
                            slot.insert(es);
                            rec.last_progress = ctx.now();
                        }
                        self.try_advance_recovery(ctx);
                    }
                }
            }
            EvsMsg::Rebroadcast { proposal, msg } => {
                if let Mode::Recovery(rec) = &mut self.mode {
                    if proposal == rec.proposal.id
                        && msg.config == rec.old.config
                        && msg.seq > rec.old.floor
                    {
                        rec.old.store.entry(msg.seq).or_insert(msg);
                        self.try_advance_recovery(ctx);
                    }
                }
            }
            EvsMsg::RecoveryAck { proposal } => {
                if let Mode::Recovery(rec) = &mut self.mode {
                    if proposal == rec.proposal.id {
                        if rec.acks.insert(from) {
                            rec.last_progress = ctx.now();
                        }
                        self.try_advance_recovery(ctx);
                    }
                }
            }
        }
        // A message can move every deadline the maintenance timer waits on
        // (a token forward arms retransmission, a heartbeat reschedules
        // suspicion, recovery progress resets the stall window), so the
        // timer is re-armed at the new earliest one.
        self.maybe_compact();
        self.rearm_tick(ctx);
    }

    fn on_timer(&mut self, ctx: &mut ECtx<'_, P>, kind: TimerKind) {
        if self.refused.is_some() {
            return;
        }
        match kind {
            TOKEN_SEND => {
                if let Some((to, tok)) = self.pending_token.take() {
                    // Drop the token if the configuration moved on while it
                    // was being paced.
                    let still_current = matches!(
                        &self.mode,
                        Mode::Regular { ring } if ring.config() == tok.config
                    );
                    if still_current {
                        ctx.unicast(to, EvsMsg::Ring(RingMsg::Token(tok)));
                    }
                }
            }
            _ => {
                debug_assert_eq!(kind, TICK);
                self.tick_armed = None;
                self.settle_tick(ctx);
                self.maybe_compact();
                self.rearm_tick(ctx);
            }
        }
    }

    fn on_crash(&mut self, ctx: &mut ECtx<'_, P>) {
        // The driver discards every armed timer with the crash.
        self.tick_armed = None;
        if self.refused.is_some() {
            // A refused process never installed anything this incarnation,
            // so it owes no fail_p(c) and must not overwrite the damaged
            // log's counters with its own zeros.
            return;
        }
        // The paper's fail_p(c): record the failure in the configuration we
        // were a member of, and persist the crash-surviving counters. The
        // id goes through the shadow check — a crash can land between a
        // configuration-id corruption and the sweep that would have
        // excommunicated for it, and the fail must still name a
        // configuration that was really installed (Spec 2.2).
        let config = self.installed_config_id();
        ctx.emit(EvsEvent::Fail { config });
        self.persist.max_epoch = self.persist.max_epoch.max(self.membership.max_epoch());
        let persist = self.persist;
        // A clean crash marks the log with its exact counters, so replay
        // continues the id series without the lease gap and owes no
        // synthetic failure.
        self.wal_append(WalRecord::FailMark {
            epoch: config.epoch,
            rep: config.rep.index(),
            msg_counter: persist.msg_counter,
            max_epoch: persist.max_epoch,
        });
        self.wal_sync();
        self.telemetry.record(
            ctx.now().ticks(),
            TelemetryEvent::StableWrite { key: STABLE_KEY },
        );
    }

    fn on_recover(&mut self, ctx: &mut ECtx<'_, P>) {
        // Same identifier, stable counters back, everything else fresh: the
        // process re-enters the system as a singleton regular configuration
        // (§2: "may recover with a deliver_conf_p(c) event, where the
        // membership of c is {p}").
        self.telemetry = ctx.telemetry().clone();
        self.tick_armed = None;
        self.refused = None;
        if let Mode::Recovery(rec) = &self.mode {
            // A crash abandoned an in-progress recovery; balance the
            // entered counter with an abort exit (step 0).
            self.telemetry.record(
                ctx.now().ticks(),
                TelemetryEvent::RecoveryStepExited {
                    step: 0,
                    epoch: rec.proposal.id.epoch,
                },
            );
        }
        // The write-ahead log is the only durable record the engine reads
        // back — the same replay a restarted process takes in `on_start`.
        // It is never empty here (`on_start` journals the first
        // configuration delivery), and it knows whether a fail_p(c) is
        // owed: a kill bypasses `on_crash` entirely.
        let replay = self.storage.replay().unwrap_or_default();
        self.restart_from_wal(ctx, replay);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evs_sim::StableStore;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// A scratch environment owning the state a `Ctx` borrows.
    struct Env {
        stable: StableStore,
        trace: Vec<(SimTime, EvsEvent)>,
        next_timer: u64,
        now: SimTime,
    }

    impl Env {
        fn new() -> Self {
            Env {
                stable: StableStore::new(),
                trace: Vec::new(),
                next_timer: 0,
                now: SimTime::ZERO,
            }
        }

        fn with<R>(
            &mut self,
            f: impl FnOnce(&mut ECtx<'_, &'static str>) -> R,
        ) -> (R, Vec<EvsMsg<&'static str>>) {
            let mut ctx = Ctx::detached(
                p(0),
                self.now,
                &mut self.stable,
                &mut self.trace,
                &mut self.next_timer,
            );
            let r = f(&mut ctx);
            let effects = ctx.take_effects();
            let sent = effects
                .into_iter()
                .filter_map(|e| match e {
                    evs_sim::Effect::Broadcast(m) => Some(m),
                    evs_sim::Effect::Unicast(_, m) => Some(m),
                    _ => None,
                })
                .collect();
            (r, sent)
        }
    }

    fn started() -> (EvsProcess<&'static str>, Env) {
        let mut env = Env::new();
        let mut node = EvsProcess::new(p(0), EvsParams::default());
        env.with(|ctx| node.on_start(ctx));
        (node, env)
    }

    #[test]
    fn starts_in_singleton_regular_configuration() {
        let (node, env) = started();
        assert_eq!(node.current_config().members, vec![p(0)]);
        assert!(node.current_config().is_regular());
        assert_eq!(node.current_config().id.epoch, 0);
        // The initial configuration change is both traced and delivered.
        assert!(matches!(env.trace[0].1, EvsEvent::DeliverConf(_)));
        assert!(matches!(node.deliveries()[0], Delivery::Config(_)));
    }

    #[test]
    fn singleton_submission_delivers_immediately_with_events() {
        let (mut node, mut env) = started();
        env.with(|ctx| node.submit(ctx, Service::Safe, "solo"));
        let kinds: Vec<&EvsEvent> = env.trace.iter().map(|(_, e)| e).collect();
        assert!(matches!(kinds[1], EvsEvent::Send { .. }), "{kinds:?}");
        assert!(matches!(kinds[2], EvsEvent::Deliver { .. }), "{kinds:?}");
        assert_eq!(
            node.deliveries().iter().filter_map(|d| d.payload()).next(),
            Some(&"solo")
        );
        assert!(node.is_settled());
    }

    #[test]
    fn frozen_submissions_are_buffered() {
        let (mut node, mut env) = started();
        node.frozen = true;
        env.with(|ctx| node.submit(ctx, Service::Agreed, "later"));
        assert_eq!(node.app_buffer.len(), 1);
        assert!(
            !env.trace
                .iter()
                .any(|(_, e)| matches!(e, EvsEvent::Send { .. })),
            "no send event while buffered"
        );
        assert!(!node.is_settled(), "buffered work means not settled");
    }

    #[test]
    fn message_ids_are_monotone_and_unique() {
        let (mut node, mut env) = started();
        for _ in 0..5 {
            env.with(|ctx| node.submit(ctx, Service::Agreed, "x"));
        }
        let counters: Vec<u64> = env
            .trace
            .iter()
            .filter_map(|(_, e)| match e {
                EvsEvent::Send { id, .. } => Some(id.counter),
                _ => None,
            })
            .collect();
        assert_eq!(counters, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn crash_persists_and_recovery_reincarnates_configuration() {
        let (mut node, mut env) = started();
        env.with(|ctx| node.submit(ctx, Service::Safe, "pre"));
        env.with(|ctx| node.on_crash(ctx));
        assert!(
            env.trace
                .iter()
                .any(|(_, e)| matches!(e, EvsEvent::Fail { .. })),
            "fail event recorded"
        );
        let old_epoch = node.current_config().id.epoch;
        env.with(|ctx| node.on_recover(ctx));
        assert!(node.current_config().id.epoch > old_epoch);
        assert_eq!(node.current_config().members, vec![p(0)]);
        // The message counter survived: the next id continues the series.
        env.with(|ctx| node.submit(ctx, Service::Safe, "post"));
        let last_counter = env
            .trace
            .iter()
            .filter_map(|(_, e)| match e {
                EvsEvent::Send { id, .. } => Some(id.counter),
                _ => None,
            })
            .next_back()
            .unwrap();
        assert_eq!(last_counter, 2, "counter persisted across the crash");
    }

    #[test]
    fn future_buffer_is_bounded() {
        let (mut node, _env) = started();
        let foreign = ConfigId::regular(99, p(1));
        for seq in 0..(FUTURE_BUFFER_CAP + 10) as u64 {
            node.buffer_future(
                p(1),
                foreign,
                RingMsg::Data(OrderedMsg {
                    config: foreign,
                    seq,
                    id: MessageId::new(p(1), seq),
                    service: Service::Agreed,
                    payload: "spam",
                }),
            );
        }
        assert_eq!(node.future_buffer.len(), FUTURE_BUFFER_CAP);
    }

    #[test]
    fn stale_ring_frames_are_dropped() {
        let (mut node, mut env) = started();
        // A data frame from a long-gone epoch: silently ignored.
        let stale = ConfigId::regular(0, p(9));
        let ((), sent) = env.with(|ctx| {
            node.on_message(
                ctx,
                p(1),
                EvsMsg::Ring(RingMsg::Data(OrderedMsg {
                    config: stale,
                    seq: 1,
                    id: MessageId::new(p(9), 1),
                    service: Service::Agreed,
                    payload: "stale",
                })),
            )
        });
        assert!(sent.is_empty());
        assert!(node
            .deliveries()
            .iter()
            .all(|d| d.payload() != Some(&"stale")));
    }

    #[test]
    fn recovery_ignores_mismatched_proposals() {
        let (mut node, mut env) = started();
        // An exchange for a proposal we never heard of: dropped.
        let ghost = ConfigId::regular(77, p(3));
        env.with(|ctx| {
            node.on_message(
                ctx,
                p(3),
                EvsMsg::Exchange(crate::recovery::ExchangeState {
                    proposal: ghost,
                    sender: p(3),
                    last_regular: ghost,
                    floor: 0,
                    received: BTreeSet::new(),
                    high_seen: 0,
                    safe_line: 0,
                    obligations: BTreeSet::new(),
                }),
            )
        });
        assert!(matches!(node.mode, Mode::Regular { .. }));
        assert_eq!(node.current_config().members, vec![p(0)]);
    }

    /// All Send counters in trace order.
    fn sent_counters(env: &Env) -> Vec<u64> {
        env.trace
            .iter()
            .filter_map(|(_, e)| match e {
                EvsEvent::Send { id, .. } => Some(id.counter),
                _ => None,
            })
            .collect()
    }

    fn fail_count(env: &Env) -> usize {
        env.trace
            .iter()
            .filter(|(_, e)| matches!(e, EvsEvent::Fail { .. }))
            .count()
    }

    #[test]
    fn counter_bit_flip_is_repaired_without_id_reuse() {
        let (mut node, mut env) = started();
        for _ in 0..5 {
            env.with(|ctx| node.submit(ctx, Service::Agreed, "pre"));
        }
        // Flip a low bit so the primary goes *backwards* (5 -> 1): the
        // dangerous direction, where naive use would reuse ids 2..=5.
        node.inject_corruption(CorruptionKind::CounterBit(2));
        env.with(|ctx| node.submit(ctx, Service::Agreed, "post"));
        let counters = sent_counters(&env);
        assert_eq!(&counters[..5], &[1, 2, 3, 4, 5]);
        let repaired = counters[5];
        assert!(repaired > 5, "repaired counter skips, never reuses");
        // Repair is convergence, not excommunication: same incarnation.
        assert_eq!(fail_count(&env), 0);
        assert_eq!(node.current_config().id.epoch, 0);

        // An upward flip also repairs (the shadow bounds the true value).
        node.inject_corruption(CorruptionKind::CounterBit(40));
        env.with(|ctx| node.submit(ctx, Service::Agreed, "post2"));
        let counters = sent_counters(&env);
        let last = *counters.last().unwrap();
        assert!(last > repaired);
        let mut sorted = counters.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), counters.len(), "no id reused: {counters:?}");
    }

    #[test]
    fn aru_corruption_excommunicates_on_the_sweep() {
        let (mut node, mut env) = started();
        env.with(|ctx| node.submit(ctx, Service::Safe, "pre"));
        node.inject_corruption(CorruptionKind::AruBit(17));
        // The damage is dormant (idle ring); the periodic sweep audits.
        env.with(|ctx| node.settle_tick(ctx));
        assert_eq!(fail_count(&env), 1, "explicit fail, never silent");
        assert!(node.current_config().id.epoch >= 1, "fresh incarnation");
        assert!(node.current_config().is_regular());
        assert_eq!(node.current_config().members, vec![p(0)]);
        // The fresh incarnation orders and delivers again.
        env.with(|ctx| node.submit(ctx, Service::Safe, "post"));
        assert!(node
            .deliveries()
            .iter()
            .any(|d| d.payload() == Some(&"post")));
    }

    #[test]
    fn seq_wrap_excommunicates_at_the_counter_use() {
        let (mut node, mut env) = started();
        node.inject_corruption(CorruptionKind::SeqWrap);
        // The submit is the counter use: the ring refuses to stamp past
        // the ceiling and the engine excommunicates on the spot.
        env.with(|ctx| node.submit(ctx, Service::Agreed, "wrapped"));
        assert_eq!(fail_count(&env), 1);
        assert!(node.current_config().id.epoch >= 1);
        // Nothing was ever stamped with an ordinal at or past the ceiling.
        assert!(node.deliveries().iter().all(|d| d.payload().is_none()));
        env.with(|ctx| node.submit(ctx, Service::Agreed, "post"));
        assert!(node
            .deliveries()
            .iter()
            .any(|d| d.payload() == Some(&"post")));
    }

    #[test]
    fn conf_desync_fails_with_the_ring_copy_of_the_config() {
        let (mut node, mut env) = started();
        node.inject_corruption(CorruptionKind::ConfDesync);
        env.with(|ctx| node.settle_tick(ctx));
        // The fail_p(c) names the ring's (uncorrupted) configuration —
        // the one peers saw us in — not the flipped engine copy.
        let failed = env
            .trace
            .iter()
            .find_map(|(_, e)| match e {
                EvsEvent::Fail { config } => Some(*config),
                _ => None,
            })
            .expect("desync excommunicates");
        assert_eq!(failed.epoch, 0);
        assert!(node.current_config().id.epoch >= 1);
        assert_eq!(node.current_config().members, vec![p(0)]);
    }

    #[test]
    fn crash_after_conf_desync_records_the_fail_in_a_legitimate_config() {
        // The race the chaos factory found (seed 805778): a crash landing
        // between a configuration-id corruption and the sweep that would
        // have excommunicated for it. The fail_p(c) must name the
        // configuration that was really installed, not the flipped copy.
        let (mut node, mut env) = started();
        let installed = node.current_config().id;
        node.inject_corruption(CorruptionKind::ConfDesync);
        env.with(|ctx| node.on_crash(ctx));
        let failed = env
            .trace
            .iter()
            .find_map(|(_, e)| match e {
                EvsEvent::Fail { config } => Some(*config),
                _ => None,
            })
            .expect("crash records fail_p(c)");
        assert_eq!(failed, installed, "fail must name the installed config");
    }

    #[test]
    fn wal_rot_skips_the_counter_past_anything_lost() {
        let mut env = Env::new();
        let mut node =
            EvsProcess::with_storage(p(0), EvsParams::default(), Box::new(NullStorage::new()));
        env.with(|ctx| node.on_start(ctx));
        for _ in 0..4 {
            env.with(|ctx| node.submit(ctx, Service::Agreed, "pre"));
        }
        // Rot one journaled record in place, then kill -9 + restart over
        // the same storage.
        node.inject_corruption(CorruptionKind::WalByte {
            record: 2,
            offset: 0,
        });
        env.with(|ctx| node.on_recover(ctx));
        let poison = node.last_replay_poison();
        assert!(poison.is_some(), "rot was classified, not folded in");
        env.with(|ctx| node.submit(ctx, Service::Agreed, "post"));
        let counters = sent_counters(&env);
        let last = *counters.last().unwrap();
        assert!(
            last > 4 + LEASE_BLOCK,
            "counter skipped past any id the lost record could have \
             leased (got {last})"
        );
    }

    #[test]
    fn wal_truncation_recovers_without_counter_regression() {
        let mut env = Env::new();
        let mut node =
            EvsProcess::with_storage(p(0), EvsParams::default(), Box::new(NullStorage::new()));
        env.with(|ctx| node.on_start(ctx));
        for _ in 0..4 {
            env.with(|ctx| node.submit(ctx, Service::Agreed, "pre"));
        }
        node.inject_corruption(CorruptionKind::WalTrunc { bytes: 1 });
        env.with(|ctx| node.on_recover(ctx));
        env.with(|ctx| node.submit(ctx, Service::Agreed, "post"));
        let counters = sent_counters(&env);
        let last = *counters.last().unwrap();
        assert!(last > 4, "truncation can skip ids but never reuse one");
        let mut seen = std::collections::HashSet::new();
        assert!(
            counters.iter().all(|c| seen.insert(*c)),
            "no id reused: {counters:?}"
        );
    }

    /// Storage stub handing the engine a canned [`Replay`] — the harness
    /// for replay shapes only `FileStorage` media damage produces
    /// (undecodable snapshots, positioned CRC gaps).
    struct CannedStorage(Replay);

    impl Storage for CannedStorage {
        fn append(&mut self, _record: &[u8]) -> std::io::Result<()> {
            Ok(())
        }
        fn sync(&mut self) -> std::io::Result<()> {
            Ok(())
        }
        fn snapshot(&mut self, _state: &[u8]) -> std::io::Result<()> {
            Ok(())
        }
        fn replay(&mut self) -> std::io::Result<Replay> {
            Ok(self.0.clone())
        }
    }

    fn wal_records(recs: &[WalRecord]) -> Vec<Vec<u8>> {
        recs.iter()
            .map(|r| {
                let mut b = Vec::new();
                r.encode(&mut b);
                b
            })
            .collect()
    }

    /// Boots a process over `replay` with live telemetry, so tests can
    /// read the refusal/suppression counters.
    fn started_over(replay: Replay) -> (EvsProcess<&'static str>, Env, Telemetry) {
        let mut env = Env::new();
        let telemetry = Telemetry::enabled(0);
        let mut node =
            EvsProcess::with_storage(p(0), EvsParams::default(), Box::new(CannedStorage(replay)));
        let mut ctx = Ctx::detached_with_telemetry(
            p(0),
            env.now,
            &mut env.stable,
            &mut env.trace,
            &mut env.next_timer,
            telemetry.clone(),
        );
        node.on_start(&mut ctx);
        drop(ctx);
        (node, env, telemetry)
    }

    #[test]
    fn steady_state_compaction_survives_a_kill() {
        let (mut node, mut env) = started();
        let installed = node.current_config().id;
        // A singleton journals a Sent and a Cut per message.
        let sent = WAL_COMPACT_RECORDS / 2 + 300;
        for _ in 0..sent {
            env.with(|ctx| node.submit(ctx, Service::Agreed, "m"));
        }
        let mut replay = node.storage_mut().replay().expect("replay");
        let cp = replay.snapshot.as_deref().and_then(Checkpoint::decode);
        let cp = cp.expect("the log was compacted in steady state");
        assert_eq!(cp.installed, Some(installed));
        assert_eq!(cp.max_epoch, installed.epoch);
        assert!((replay.records.len() as u64) < WAL_COMPACT_RECORDS);

        // kill -9: the machine keeps what was synced — the checkpoint and
        // the records up to the last lease — and no fail_p(c) was written.
        let synced = replay
            .records
            .iter()
            .rposition(|r| matches!(WalRecord::decode(r), Some(WalRecord::Lease(_))))
            .expect("a lease was taken after the checkpoint");
        assert!(
            synced + 1 < replay.records.len(),
            "an unsynced tail to lose"
        );
        replay.records.truncate(synced + 1);
        replay.wal_present = true;
        let (mut next, mut env, _) = started_over(replay);
        let fails: Vec<ConfigId> = env
            .trace
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
        assert!(next.current_config().id.epoch > installed.epoch);
        env.with(|ctx| next.submit(ctx, Service::Agreed, "post"));
        assert!(
            sent_counters(&env)[0] > sent,
            "ids resume above every id the dead incarnation used"
        );
    }

    #[test]
    fn unbounded_bad_snapshot_refuses_to_start() {
        // An undecodable snapshot and no surviving Lease/Sent/FailMark:
        // every id the dead incarnation leased may hide inside the blob,
        // so no skip distance is provably safe (Spec 1.4).
        let (mut node, mut env, telemetry) = started_over(Replay {
            snapshot: Some(vec![0xAB, 0xCD]),
            records: wal_records(&[
                WalRecord::Epoch(3),
                WalRecord::ConfDelivered {
                    epoch: 3,
                    rep: 0,
                    transitional: false,
                },
            ]),
            wal_present: true,
            ..Replay::default()
        });
        assert_eq!(node.start_refused(), Some(ReplayError::BadSnapshot));
        assert_eq!(
            telemetry.counter(names::WAL_REFUSED_STARTS).get(),
            1,
            "the refusal is counted"
        );
        assert!(
            !env.trace
                .iter()
                .any(|(_, e)| matches!(e, EvsEvent::DeliverConf(_))),
            "a refused process never comes up"
        );
        // A refused engine is inert: no ids allocated, nothing delivered.
        let (_, sent) = env.with(|ctx| node.submit(ctx, Service::Agreed, "never"));
        assert!(sent.is_empty(), "refused engine sends nothing");
        assert!(sent_counters(&env).is_empty(), "no id was ever stamped");
        assert!(node.deliveries().is_empty());
    }

    #[test]
    fn bad_snapshot_with_a_surviving_lease_restarts_bounded() {
        // Same undecodable snapshot, but one post-snapshot lease survived:
        // its ceiling (plus the poison skip) provably clears anything the
        // snapshot could hide, so the process starts.
        let (mut node, mut env, telemetry) = started_over(Replay {
            snapshot: Some(vec![0xAB, 0xCD]),
            records: wal_records(&[WalRecord::Lease(1024)]),
            wal_present: true,
            ..Replay::default()
        });
        assert_eq!(node.start_refused(), None);
        assert_eq!(telemetry.counter(names::WAL_REFUSED_STARTS).get(), 0);
        env.with(|ctx| node.submit(ctx, Service::Agreed, "post"));
        let counters = sent_counters(&env);
        assert!(
            *counters.last().unwrap() > 1024,
            "restart continues past the lease ceiling: {counters:?}"
        );
    }

    #[test]
    fn a_gap_after_the_last_install_suppresses_the_undead_fail() {
        // The CRC gap sits *after* the only install — it may have
        // swallowed a newer install or the retiring fail mark, so the
        // synthetic fail_p(c) could name a superseded configuration.
        // Spec 2.2 forgives a missing fail, never a wrong one.
        let (node, env, telemetry) = started_over(Replay {
            records: wal_records(&[
                WalRecord::Lease(64),
                WalRecord::ConfDelivered {
                    epoch: 4,
                    rep: 0,
                    transitional: false,
                },
            ]),
            wal_present: true,
            corrupt_gaps: 1,
            gap_positions: vec![2],
            ..Replay::default()
        });
        assert_eq!(node.start_refused(), None, "suppression is not refusal");
        assert!(
            !env.trace
                .iter()
                .any(|(_, e)| matches!(e, EvsEvent::Fail { .. })),
            "no fail naming a possibly-stale configuration"
        );
        assert_eq!(telemetry.counter(names::WAL_SUPPRESSED_FAILS).get(), 1);
    }

    #[test]
    fn a_gap_before_the_last_intact_install_still_owes_the_fail() {
        // Positional evidence: the gap lies between the two installs, so
        // the later intact install is authoritative — nothing newer can
        // hide before it, and the owed fail_p(c) is emitted (and names
        // that last install).
        let (_, env, telemetry) = started_over(Replay {
            records: wal_records(&[
                WalRecord::ConfDelivered {
                    epoch: 1,
                    rep: 0,
                    transitional: false,
                },
                WalRecord::ConfDelivered {
                    epoch: 4,
                    rep: 0,
                    transitional: false,
                },
            ]),
            wal_present: true,
            corrupt_gaps: 1,
            gap_positions: vec![1],
            ..Replay::default()
        });
        let failed = env
            .trace
            .iter()
            .find_map(|(_, e)| match e {
                EvsEvent::Fail { config } => Some(*config),
                _ => None,
            })
            .expect("the kill still owes fail_p(c)");
        assert_eq!(failed.epoch, 4, "fail names the last intact install");
        assert_eq!(telemetry.counter(names::WAL_SUPPRESSED_FAILS).get(), 0);
    }
}
