//! The canonical metric and event names of the stack.
//!
//! Every counter bumped by [`TelemetryEvent::name`](crate::TelemetryEvent)
//! and every gauge/histogram resolved by an instrumented layer takes its
//! name from here, so a typo at a call site becomes a compile error instead
//! of silently forking a counter. Analysis code (`evs-inspect`, the bench
//! regression gate) keys on the same constants.

// ---- evs-order: the token ring ----

/// Token visits accepted by the ring ([`TokenReceived`](crate::TelemetryEvent::TokenReceived)).
pub const TOKENS_RECEIVED: &str = "tokens_received";
/// Tokens handed to the ring successor.
pub const TOKENS_FORWARDED: &str = "tokens_forwarded";
/// Locally-held tokens retransmitted after silence.
pub const TOKEN_RETRANSMISSIONS: &str = "token_retransmissions";
/// Completed full token rotations.
pub const TOKEN_ROTATIONS: &str = "token_rotations";
/// Data messages rebroadcast to service the token's rtr list.
pub const RETRANSMISSIONS_SERVED: &str = "retransmissions_served";
/// Missing ordinals requested via the token's rtr list.
pub const HOLES_REQUESTED: &str = "holes_requested";
/// Safe-line advances (two successive covered visits).
pub const SAFE_LINE_ADVANCES: &str = "safe_line_advances";
/// Histogram: messages stamped per token visit.
pub const STAMPED_PER_VISIT: &str = "stamped_per_visit";
/// Full token rotations that stamped nothing and carried no ring work
/// (no holes, no retransmissions, nothing pending) — the ring skips the
/// per-rotation bookkeeping for these instead of churning.
pub const IDLE_ROTATIONS: &str = "idle_rotations";

// ---- evs-membership ----

/// Membership state-machine transitions.
pub const MEMBERSHIP_TRANSITIONS: &str = "membership_transitions";
/// Proposed configurations committed by a representative.
pub const CONFIGS_COMMITTED: &str = "configs_committed";
/// Agreed configurations installed by the membership layer.
pub const CONFIGS_INSTALLED: &str = "configs_installed";

// ---- evs-core: the EVS engine ----

/// Messages handed to the engine by the application (awaiting stamp).
pub const MESSAGES_ORIGINATED: &str = "messages_originated";
/// Messages stamped into a total order and broadcast (`send_p(m)`).
pub const MESSAGES_SENT: &str = "messages_sent";
/// Messages delivered to the application (`deliver_p(m, c)`).
pub const MESSAGES_DELIVERED: &str = "messages_delivered";
/// Causal-service deliveries.
pub const DELIVERED_CAUSAL: &str = "delivered_causal";
/// Agreed-service deliveries.
pub const DELIVERED_AGREED: &str = "delivered_agreed";
/// Safe-service deliveries.
pub const DELIVERED_SAFE: &str = "delivered_safe";
/// Configuration changes delivered (`deliver_conf_p(c)`).
pub const CONFIGS_DELIVERED: &str = "configs_delivered";
/// Entries into the recovery algorithm (§3 Step 2).
pub const RECOVERY_STEPS_ENTERED: &str = "recovery_steps_entered";
/// Exits from the recovery algorithm (Step 6, or 0 on abort).
pub const RECOVERY_STEPS_EXITED: &str = "recovery_steps_exited";
/// Intermediate recovery step marks (Steps 3–5 reached).
pub const RECOVERY_STEP_MARKS: &str = "recovery_step_marks";
/// Obligation-set size samples (§3 Step 5.c).
pub const OBLIGATION_SET_SAMPLES: &str = "obligation_set_samples";
/// Gauge: current obligation-set size.
pub const OBLIGATION_SET_SIZE: &str = "obligation_set_size";
/// Crash-surviving stable-storage writes.
pub const STABLE_WRITES: &str = "stable_writes";
/// Histogram: ticks from origination to local delivery of a process's own
/// causal-service messages.
pub const DELIVERY_LATENCY_CAUSAL: &str = "delivery_latency_causal";
/// Histogram: ticks from origination to local delivery of a process's own
/// agreed-service messages.
pub const DELIVERY_LATENCY_AGREED: &str = "delivery_latency_agreed";
/// Histogram: ticks from origination to local delivery of a process's own
/// safe-service messages.
pub const DELIVERY_LATENCY_SAFE: &str = "delivery_latency_safe";

// ---- evs-store: durable stable storage (WAL + snapshots) ----

/// Records appended to the write-ahead log.
pub const WAL_APPENDS: &str = "wal_appends";
/// Durability barriers (`fdatasync`) forced on the write-ahead log.
pub const WAL_SYNCS: &str = "wal_syncs";
/// Records replayed from the write-ahead log during a recovery.
pub const WAL_REPLAY_RECORDS: &str = "wal_replay_records";
/// Snapshots written (each one compacts the log).
pub const SNAPSHOT_WRITES: &str = "snapshot_writes";
/// Recoveries that rebuilt engine state from stable storage
/// ([`StorageRecovered`](crate::TelemetryEvent::StorageRecovered)).
pub const STORAGE_RECOVERIES: &str = "storage_recoveries";

// ---- self-stabilization: corruption detection and response ----

/// Corruption faults injected into this process (chaos vocabulary).
pub const CORRUPTIONS_INJECTED: &str = "corruptions_injected";
/// Corruption detections answered by excommunication: explicit `fail`
/// plus a fresh-incarnation rejoin (shadow/ceiling/cross-copy checks).
pub const CORRUPTION_EXCOMMS: &str = "corruption_excomms";
/// Corruption detections repaired in place (message-id counter restored
/// from its complement shadow — provably safe, ids skip but never reuse).
pub const CORRUPTION_REPAIRS: &str = "corruption_repairs";
/// WAL records lost to in-place damage at replay: CRC gaps resynchronized
/// over plus CRC-valid records the persistence schema rejected. Each one
/// widens the recovered id-lease skip.
pub const WAL_POISONED_RECORDS: &str = "wal_poisoned_records";
/// Synthetic `fail_p(c)` emissions suppressed at restart because damage
/// after the last intact install made the owed configuration unknowable —
/// a fail naming the wrong configuration would break Spec 2.2, a missing
/// one never does.
pub const WAL_SUPPRESSED_FAILS: &str = "wal_suppressed_fails";
/// Starts refused at replay: an undecodable snapshot with zero surviving
/// post-snapshot leases leaves no provably-safe message-id bound, so the
/// process stays down rather than risk id reuse (Spec 1.4).
pub const WAL_REFUSED_STARTS: &str = "wal_refused_starts";

// ---- `OBS?` info keys: the ring store's retained window ----

/// Info key: messages an engine retains in its ring store — the received
/// ordinals above [`STORE_FLOOR`]. A window; growth with the
/// configuration's age means pruning at the safe line has stopped.
pub const STORE_LEN: &str = "store_len";
/// Info key: the ordinal at or below which the ring store was dropped
/// (`min(safe_line, delivered_upto)` at the last prune).
pub const STORE_FLOOR: &str = "store_floor";

// ---- evs-runtime: the live worker loop and its link-fault decorator ----

/// Outbound datagrams dropped before the push because they exceed what
/// the medium carries (`SocketDriver::max_datagram`) — a recovery frame
/// past UDP's 65,507 B is lost and counted, not fatal.
pub const OVERSIZED_DATAGRAMS_DROPPED: &str = "oversized_datagrams_dropped";
/// Parks of a live worker that ended at the `MAX_PARK` backstop with no
/// timer armed: a deadline the engine failed to arm. Must stay 0.
pub const PARK_BACKSTOP_FIRED: &str = "park_backstop_fired";
/// Packets dropped by a live link's fault policy.
pub const LINK_DROPS: &str = "link_drops";
/// Packets held back by a live link's latency/jitter or reordering policy.
pub const LINK_DELAYS: &str = "link_delays";
/// Duplicate deliveries scheduled by a live link's fault policy.
pub const LINK_DUPLICATES: &str = "link_duplicates";

// ---- evs-broker: the client-session front-end ----

/// Client sessions opened at a broker
/// ([`SessionOpened`](crate::TelemetryEvent::SessionOpened)).
pub const BROKER_SESSIONS: &str = "broker_sessions";
/// Client operations accepted into a broker's prepare-batch pipeline.
pub const BROKER_OPS_SUBMITTED: &str = "broker_ops_submitted";
/// Client operations applied by a daemon-side op ledger (first, and with
/// correct dedup only, application of each per-client sequence number).
pub const BROKER_OPS_APPLIED: &str = "broker_ops_applied";
/// Duplicate client operations discarded by a daemon-side op ledger —
/// redeliveries of ops a broker resubmitted across a reconnect.
pub const BROKER_OPS_DEDUPED: &str = "broker_ops_deduped";
/// Batched multicast frames flushed by a broker
/// ([`BatchFlushed`](crate::TelemetryEvent::BatchFlushed)).
pub const BROKER_BATCHES_FLUSHED: &str = "broker_batches_flushed";
/// Client submissions rejected because a bounded session or broker queue
/// was full ([`BackpressureSignaled`](crate::TelemetryEvent::BackpressureSignaled)).
pub const BROKER_BACKPRESSURE: &str = "broker_backpressure";
/// Replies routed back to client sessions off agreed/safe delivery.
pub const BROKER_REPLIES_ROUTED: &str = "broker_replies_routed";
/// Broker reattachments to a surviving daemon
/// ([`BrokerReattached`](crate::TelemetryEvent::BrokerReattached)).
pub const BROKER_RECONNECTS: &str = "broker_reconnects";
/// Histogram: client operations per flushed batch.
pub const BROKER_BATCH_OPS: &str = "broker_batch_ops";

// ---- the live observability plane: phase-time attribution ----
//
// The live worker loop chains a `PhaseClock` mark through every stage;
// each phase owns one nanosecond counter (total attributed time) and one
// log-bucketed histogram (per-stretch duration distribution). `evs-top`
// and the `OBS?` exposition compute phase fractions from the counters.

/// Nanoseconds blocked in socket/channel receive that yielded a packet.
pub const PHASE_NS_RECV: &str = "phase_ns_recv";
/// Nanoseconds decoding wire frames into protocol messages.
pub const PHASE_NS_DECODE: &str = "phase_ns_decode";
/// Nanoseconds in engine dispatch of non-token messages.
pub const PHASE_NS_DISPATCH: &str = "phase_ns_dispatch";
/// Nanoseconds in engine dispatch of token visits.
pub const PHASE_NS_TOKEN: &str = "phase_ns_token";
/// Nanoseconds appending to + syncing the write-ahead journal.
pub const PHASE_NS_WAL: &str = "phase_ns_wal";
/// Nanoseconds encoding and writing outbound datagrams/effects.
pub const PHASE_NS_SEND: &str = "phase_ns_send";
/// Nanoseconds firing due protocol timers.
pub const PHASE_NS_TIMERS: &str = "phase_ns_timers";
/// Nanoseconds handling control-plane work (commands, scrapes, inspects).
pub const PHASE_NS_CONTROL: &str = "phase_ns_control";
/// Nanoseconds parked on an event wait with a computed protocol deadline.
pub const PHASE_NS_PARK: &str = "phase_ns_park";
/// Nanoseconds submitting batched socket work (`sendmmsg`/`recvmmsg`
/// syscalls through a `SocketDriver`).
pub const PHASE_NS_SUBMIT: &str = "phase_ns_submit";

/// Log histogram: per-stretch receive durations (ns).
pub const PHASE_DUR_RECV: &str = "phase_dur_recv";
/// Log histogram: per-stretch decode durations (ns).
pub const PHASE_DUR_DECODE: &str = "phase_dur_decode";
/// Log histogram: per-stretch non-token dispatch durations (ns).
pub const PHASE_DUR_DISPATCH: &str = "phase_dur_dispatch";
/// Log histogram: per-stretch token-dispatch durations (ns).
pub const PHASE_DUR_TOKEN: &str = "phase_dur_token";
/// Log histogram: per-stretch WAL append+sync durations (ns).
pub const PHASE_DUR_WAL: &str = "phase_dur_wal";
/// Log histogram: per-stretch send durations (ns).
pub const PHASE_DUR_SEND: &str = "phase_dur_send";
/// Log histogram: per-stretch timer-firing durations (ns).
pub const PHASE_DUR_TIMERS: &str = "phase_dur_timers";
/// Log histogram: per-stretch control-plane durations (ns).
pub const PHASE_DUR_CONTROL: &str = "phase_dur_control";
/// Log histogram: per-stretch deadline-park durations (ns).
pub const PHASE_DUR_PARK: &str = "phase_dur_park";
/// Log histogram: per-stretch batched-submit durations (ns).
pub const PHASE_DUR_SUBMIT: &str = "phase_dur_submit";

/// Gauge: total nanoseconds of loop wall-clock since the clock started.
/// Phase fractions are per-phase ns over this.
pub const PHASE_LOOP_NS: &str = "phase_loop_ns";
/// Phase marks taken (overhead budget = marks × calibrated ns-per-mark).
pub const PHASE_MARKS: &str = "phase_marks";

/// Log histogram: wall-clock nanoseconds per WAL durability barrier.
pub const WAL_SYNC_NS: &str = "wal_sync_ns";

/// Gauge: broker operations submitted to the ring awaiting delivery.
pub const BROKER_INFLIGHT_OPS: &str = "broker_inflight_ops";
/// Gauge: broker operations buffered in the prepare-batch pipeline.
pub const BROKER_PENDING_OPS: &str = "broker_pending_ops";

// ---- evs-chaos: the fault-injection harness ----

/// Chaos fault plans executed.
pub const CHAOS_RUNS: &str = "chaos_runs";
/// Chaos runs that violated a specification.
pub const CHAOS_VIOLATIONS: &str = "chaos_violations";
/// Failing fault plans minimized by the shrinker.
pub const CHAOS_SHRINKS: &str = "chaos_shrinks";
/// Periodic campaign progress heartbeats.
pub const CHAOS_PROGRESS: &str = "chaos_progress";
/// Gauge: chaos-campaign plans completed so far.
pub const CHAOS_CAMPAIGN_DONE: &str = "chaos_campaign_done";
/// Gauge: total plans the running chaos campaign will execute.
pub const CHAOS_CAMPAIGN_TOTAL: &str = "chaos_campaign_total";
/// Gauge: failing plans found so far by the running chaos campaign.
pub const CHAOS_CAMPAIGN_FAILURES: &str = "chaos_campaign_failures";
