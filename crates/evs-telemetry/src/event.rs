//! The structured event vocabulary of the protocol stack.
//!
//! Every variant carries only primitives (`u64`, `u32`, `bool`,
//! `&'static str`) so this crate sits below every protocol crate with no
//! type dependencies. Each variant maps to a concept of the paper — see
//! the "Telemetry ↔ paper" table in `DESIGN.md` for the full mapping
//! (e.g. `ConfigDelivered` ↔ `deliver_conf_p(c)` giving `reg_p(c)` /
//! `trans_p(c)`, `ObligationSetSize` ↔ the obligation sets of §3).
//!
//! Events are **span-grade**: message events carry the message identity
//! (`sender`, `counter` — the paper's unique message id) and, once
//! stamped, the ordinal `seq` in its configuration's total order (the
//! paper's `ord`); configuration events carry the full identifier
//! (`epoch`, `rep`). `evs-inspect` merges the flight-recorder dumps of
//! every process on these keys into one causally-ordered timeline and
//! derives per-message and per-configuration lifecycle spans from it.

use crate::names;
use std::fmt;

/// One structured telemetry event, emitted by an instrumented layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TelemetryEvent {
    // ---- evs-order: the token ring ----
    /// The ring accepted a token visit (`Ring::on_token`).
    TokenReceived {
        /// Epoch of the configuration the ring orders.
        epoch: u64,
        /// The token's visit identifier.
        token_id: u64,
        /// The token's all-received-up-to value on arrival.
        aru: u64,
    },
    /// The ring handed the token to its successor.
    TokenForwarded {
        /// Epoch of the configuration the ring orders.
        epoch: u64,
        /// The forwarded token's visit identifier.
        token_id: u64,
        /// The successor process.
        to: u32,
    },
    /// A locally-held token was retransmitted after silence.
    TokenRetransmitted {
        /// Epoch of the configuration the ring orders.
        epoch: u64,
        /// The retransmitted token's visit identifier.
        token_id: u64,
    },
    /// The token completed a full rotation around the ring.
    TokenRotated {
        /// Epoch of the configuration the ring orders.
        epoch: u64,
        /// Total rotations observed by this process in this ring.
        rotations: u64,
    },
    /// Data messages were rebroadcast to service the token's
    /// retransmission-request list.
    RetransmissionsServed {
        /// Epoch of the configuration the ring orders.
        epoch: u64,
        /// How many messages were rebroadcast on this visit.
        count: u64,
    },
    /// The ring asked for missing ordinals via the token's rtr list.
    HolesRequested {
        /// Epoch of the configuration the ring orders.
        epoch: u64,
        /// How many ordinals were requested.
        count: u64,
    },
    /// The safe line advanced (two successive covered visits).
    SafeLineAdvanced {
        /// Epoch of the configuration the ring orders.
        epoch: u64,
        /// The new safe line.
        safe_line: u64,
    },

    // ---- evs-membership: the low-level membership algorithm ----
    /// The membership state machine moved between states.
    MembershipTransition {
        /// State left ("stable", "gather", "commit").
        from: &'static str,
        /// State entered.
        to: &'static str,
    },
    /// The representative committed a proposed configuration.
    ConfigCommitted {
        /// Epoch of the proposed configuration.
        epoch: u64,
        /// Representative (smallest member) of the proposal.
        rep: u32,
        /// Size of the proposed membership.
        members: u32,
    },
    /// The membership layer installed an agreed configuration.
    ConfigInstalled {
        /// Epoch of the installed configuration.
        epoch: u64,
        /// Representative (smallest member) of the configuration.
        rep: u32,
        /// Size of the installed membership.
        members: u32,
    },

    // ---- evs-core: the EVS engine ----
    /// The application handed a message to the engine; it now waits for
    /// the token to stamp it into the total order.
    MessageOriginated {
        /// Originating process of the message identity.
        sender: u32,
        /// Sender-local monotone counter of the message identity.
        counter: u64,
        /// Requested service level ("causal", "agreed", "safe").
        service: &'static str,
    },
    /// The engine originated a message (`send_p(m)`): the instant it is
    /// stamped with its ordinal in the configuration's total order.
    MessageSent {
        /// Epoch of the configuration of origination.
        epoch: u64,
        /// Representative of the configuration of origination.
        rep: u32,
        /// Originating process of the message identity.
        sender: u32,
        /// Sender-local monotone counter of the message identity.
        counter: u64,
        /// The message's ordinal (`ord`) in the configuration's total
        /// order.
        seq: u64,
        /// Requested service level ("causal", "agreed", "safe").
        service: &'static str,
    },
    /// The engine delivered a message to the application
    /// (`deliver_p(m, c)`).
    MessageDelivered {
        /// Epoch of the configuration of delivery.
        epoch: u64,
        /// Representative of the configuration of delivery.
        rep: u32,
        /// Originating process of the message identity.
        sender: u32,
        /// Sender-local monotone counter of the message identity.
        counter: u64,
        /// The message's ordinal (`ord`) in its regular configuration's
        /// total order.
        seq: u64,
        /// The message's service level.
        service: &'static str,
        /// True if delivered in a transitional configuration.
        transitional: bool,
    },
    /// The engine delivered a configuration change
    /// (`deliver_conf_p(c)`, establishing `reg_p(c)` or `trans_p(c)`).
    ConfigDelivered {
        /// Epoch of the delivered configuration.
        epoch: u64,
        /// Representative of the delivered configuration.
        rep: u32,
        /// Size of the delivered membership.
        members: u32,
        /// True for a regular configuration, false for transitional.
        regular: bool,
    },
    /// The engine entered the recovery algorithm (§3 Step 2).
    RecoveryStepEntered {
        /// The recovery step entered (2 on entry).
        step: u8,
        /// Epoch of the proposed configuration driving the recovery.
        epoch: u64,
    },
    /// The recovery algorithm reached an intermediate step (§3 Steps
    /// 3–5) for the proposal with the given epoch.
    RecoveryStepReached {
        /// The recovery step reached (3, 4 or 5).
        step: u8,
        /// Epoch of the proposed configuration driving the recovery.
        epoch: u64,
    },
    /// The engine left the recovery algorithm (§3 Step 6), or the
    /// recovery was abandoned by a crash/recovery cycle (step 0).
    RecoveryStepExited {
        /// The recovery step at exit (6 on completion, 0 on abort).
        step: u8,
        /// Epoch of the proposed configuration the recovery served.
        epoch: u64,
    },
    /// Size of the obligation set when it was extended (§3 Step 5.c).
    ObligationSetSize {
        /// Number of processes in the obligation set.
        size: u32,
    },
    /// A write to crash-surviving stable storage.
    StableWrite {
        /// The stable-storage key written.
        key: &'static str,
    },
    /// A recovering process rebuilt its engine state from durable stable
    /// storage (the write-ahead log and/or a snapshot). `records == 0`
    /// with `wal == true` and no snapshot means storage was present but
    /// nothing replayed — the silent-state-loss signature `evs-inspect`
    /// flags.
    StorageRecovered {
        /// Write-ahead-log records replayed into the engine.
        records: u64,
        /// True if a snapshot blob seeded the replay.
        snapshot: bool,
        /// True if the storage medium held any persisted state at all.
        wal: bool,
    },

    // ---- evs-runtime: the link-fault driver decorator ----
    /// The receiving delivery thread dropped a packet under the link's
    /// fault policy.
    LinkPacketDropped {
        /// Sending process of the faulted link.
        from: u32,
        /// Receiving process (the recorder of the event).
        to: u32,
    },
    /// The receiving delivery thread held a packet back under the link's
    /// latency/jitter (or reordering) policy.
    LinkPacketDelayed {
        /// Sending process of the faulted link.
        from: u32,
        /// Receiving process (the recorder of the event).
        to: u32,
        /// Holdback applied, in ticks.
        ticks: u64,
    },
    /// The link's fault policy scheduled a duplicate delivery of a packet.
    LinkPacketDuplicated {
        /// Sending process of the faulted link.
        from: u32,
        /// Receiving process (the recorder of the event).
        to: u32,
    },

    // ---- evs-broker: the client-session front-end ----
    /// A broker opened a session for a client. High-rate under a client
    /// load: a broker fronting 10⁵ clients records 10⁵ of these.
    SessionOpened {
        /// The broker that accepted the session.
        broker: u32,
        /// The client identifier.
        client: u64,
    },
    /// A broker flushed its prepare-batch pipeline as one multicast frame.
    BatchFlushed {
        /// The flushing broker.
        broker: u32,
        /// Client operations packed into the frame.
        ops: u32,
        /// Encoded frame size in bytes.
        bytes: u64,
    },
    /// A bounded session or broker queue rejected a client submission —
    /// backpressure instead of unbounded buffering.
    BackpressureSignaled {
        /// The broker that rejected the submission.
        broker: u32,
        /// The client whose operation was rejected.
        client: u64,
    },
    /// A broker reattached to a surviving daemon and resubmitted its
    /// unacknowledged operations. Rare and lifecycle-defining, like a
    /// configuration change.
    BrokerReattached {
        /// The reattaching broker.
        broker: u32,
        /// Daemon the broker now submits through.
        to: u32,
        /// Unacknowledged client operations resubmitted.
        resubmitted: u64,
    },

    // ---- evs-chaos: the fault-injection harness ----
    /// The chaos orchestrator finished executing one generated fault plan.
    ChaosRunExecuted {
        /// Seed the plan was generated from (or replayed with).
        seed: u64,
        /// Number of steps in the plan.
        steps: u32,
        /// True if the run violated a specification or failed to settle.
        failed: bool,
    },
    /// A chaos run produced a specification violation.
    ChaosViolationFound {
        /// Seed of the violating plan.
        seed: u64,
        /// Number of distinct specifications violated.
        specs: u32,
    },
    /// The shrinker minimized a failing fault plan.
    ChaosPlanShrunk {
        /// Steps in the original failing plan.
        from_steps: u32,
        /// Steps in the minimal plan.
        to_steps: u32,
        /// Oracle invocations the minimization spent.
        checks: u32,
    },
    /// Periodic heartbeat of a long chaos campaign (every N seeds).
    ChaosProgress {
        /// Plans executed so far.
        done: u64,
        /// Plans the campaign will execute in total.
        total: u64,
        /// Failures found so far.
        failures: u64,
    },
}

impl TelemetryEvent {
    /// Number of event kinds — the length of [`TelemetryEvent::KIND_NAMES`]
    /// and the exclusive upper bound of [`TelemetryEvent::kind`].
    pub const KINDS: usize = 31;

    /// Counter name per kind, indexed by [`TelemetryEvent::kind`]. Every
    /// name is a constant of [`crate::names`].
    pub const KIND_NAMES: [&'static str; Self::KINDS] = [
        names::TOKENS_RECEIVED,
        names::TOKENS_FORWARDED,
        names::TOKEN_RETRANSMISSIONS,
        names::TOKEN_ROTATIONS,
        names::RETRANSMISSIONS_SERVED,
        names::HOLES_REQUESTED,
        names::SAFE_LINE_ADVANCES,
        names::MEMBERSHIP_TRANSITIONS,
        names::CONFIGS_COMMITTED,
        names::CONFIGS_INSTALLED,
        names::MESSAGES_ORIGINATED,
        names::MESSAGES_SENT,
        names::MESSAGES_DELIVERED,
        names::CONFIGS_DELIVERED,
        names::RECOVERY_STEPS_ENTERED,
        names::RECOVERY_STEP_MARKS,
        names::RECOVERY_STEPS_EXITED,
        names::OBLIGATION_SET_SAMPLES,
        names::STABLE_WRITES,
        names::STORAGE_RECOVERIES,
        names::LINK_DROPS,
        names::LINK_DELAYS,
        names::LINK_DUPLICATES,
        names::BROKER_SESSIONS,
        names::BROKER_BATCHES_FLUSHED,
        names::BROKER_BACKPRESSURE,
        names::BROKER_RECONNECTS,
        names::CHAOS_RUNS,
        names::CHAOS_VIOLATIONS,
        names::CHAOS_SHRINKS,
        names::CHAOS_PROGRESS,
    ];

    /// A dense discriminant in `0..KINDS`, the index of this event's
    /// counter in [`TelemetryEvent::KIND_NAMES`]. [`Telemetry`] keys its
    /// per-kind counter cache on this, so the hot recording path never
    /// resolves a counter by name.
    ///
    /// [`Telemetry`]: crate::Telemetry
    pub fn kind(&self) -> usize {
        match self {
            TelemetryEvent::TokenReceived { .. } => 0,
            TelemetryEvent::TokenForwarded { .. } => 1,
            TelemetryEvent::TokenRetransmitted { .. } => 2,
            TelemetryEvent::TokenRotated { .. } => 3,
            TelemetryEvent::RetransmissionsServed { .. } => 4,
            TelemetryEvent::HolesRequested { .. } => 5,
            TelemetryEvent::SafeLineAdvanced { .. } => 6,
            TelemetryEvent::MembershipTransition { .. } => 7,
            TelemetryEvent::ConfigCommitted { .. } => 8,
            TelemetryEvent::ConfigInstalled { .. } => 9,
            TelemetryEvent::MessageOriginated { .. } => 10,
            TelemetryEvent::MessageSent { .. } => 11,
            TelemetryEvent::MessageDelivered { .. } => 12,
            TelemetryEvent::ConfigDelivered { .. } => 13,
            TelemetryEvent::RecoveryStepEntered { .. } => 14,
            TelemetryEvent::RecoveryStepReached { .. } => 15,
            TelemetryEvent::RecoveryStepExited { .. } => 16,
            TelemetryEvent::ObligationSetSize { .. } => 17,
            TelemetryEvent::StableWrite { .. } => 18,
            TelemetryEvent::StorageRecovered { .. } => 19,
            TelemetryEvent::LinkPacketDropped { .. } => 20,
            TelemetryEvent::LinkPacketDelayed { .. } => 21,
            TelemetryEvent::LinkPacketDuplicated { .. } => 22,
            TelemetryEvent::SessionOpened { .. } => 23,
            TelemetryEvent::BatchFlushed { .. } => 24,
            TelemetryEvent::BackpressureSignaled { .. } => 25,
            TelemetryEvent::BrokerReattached { .. } => 26,
            TelemetryEvent::ChaosRunExecuted { .. } => 27,
            TelemetryEvent::ChaosViolationFound { .. } => 28,
            TelemetryEvent::ChaosPlanShrunk { .. } => 29,
            TelemetryEvent::ChaosProgress { .. } => 30,
        }
    }

    /// The counter bumped when this event is recorded; also its stable
    /// identifier in reports and flight-recorder dumps.
    pub fn name(&self) -> &'static str {
        Self::KIND_NAMES[self.kind()]
    }

    /// The flight-recorder retention class of this event (see
    /// [`EventClass`]). Message-lifecycle and configuration/recovery spans
    /// are retained in separate rings so that a client-load burst of
    /// originations — which a broker front-end produces at the same rate
    /// as token circulation — can only evict other message events, never
    /// the configuration and recovery spans a post-mortem needs.
    pub fn class(&self) -> EventClass {
        match self {
            TelemetryEvent::MessageOriginated { .. }
            | TelemetryEvent::MessageSent { .. }
            | TelemetryEvent::MessageDelivered { .. } => EventClass::MessageSpan,
            TelemetryEvent::MembershipTransition { .. }
            | TelemetryEvent::ConfigCommitted { .. }
            | TelemetryEvent::ConfigInstalled { .. }
            | TelemetryEvent::ConfigDelivered { .. }
            | TelemetryEvent::RecoveryStepEntered { .. }
            | TelemetryEvent::RecoveryStepReached { .. }
            | TelemetryEvent::RecoveryStepExited { .. }
            | TelemetryEvent::ObligationSetSize { .. }
            | TelemetryEvent::StableWrite { .. }
            | TelemetryEvent::StorageRecovered { .. }
            | TelemetryEvent::BrokerReattached { .. } => EventClass::ConfigSpan,
            _ => EventClass::HighRate,
        }
    }

    /// True for the lifecycle events that `evs-inspect` derives message
    /// and configuration-change spans from — everything except the
    /// high-rate traffic class.
    pub fn is_span_grade(&self) -> bool {
        self.class() != EventClass::HighRate
    }
}

/// Flight-recorder retention class of a [`TelemetryEvent`]. Each class is
/// kept in its own bounded ring so one class's volume can never evict
/// another's history (see [`FlightRecorder`](crate::FlightRecorder)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventClass {
    /// Token circulation, link faults, per-session traffic — the volume
    /// class; any burst may evict only other high-rate events.
    HighRate,
    /// Message lifecycle spans (originated/sent/delivered). Moderate in a
    /// protocol-level run, burst-prone under a broker client load.
    MessageSpan,
    /// Configuration, membership, recovery and storage spans — the rare,
    /// run-defining events a post-mortem can least afford to lose.
    ConfigSpan,
}

impl fmt::Display for TelemetryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelemetryEvent::TokenReceived {
                epoch,
                token_id,
                aru,
            } => write!(
                f,
                "token received (epoch {epoch}, id {token_id}, aru {aru})"
            ),
            TelemetryEvent::TokenForwarded {
                epoch,
                token_id,
                to,
            } => write!(f, "token forwarded to P{to} (epoch {epoch}, id {token_id})"),
            TelemetryEvent::TokenRetransmitted { epoch, token_id } => {
                write!(f, "token retransmitted (epoch {epoch}, id {token_id})")
            }
            TelemetryEvent::TokenRotated { epoch, rotations } => {
                write!(f, "token rotation #{rotations} (epoch {epoch})")
            }
            TelemetryEvent::RetransmissionsServed { epoch, count } => {
                write!(f, "served {count} retransmission(s) (epoch {epoch})")
            }
            TelemetryEvent::HolesRequested { epoch, count } => {
                write!(f, "requested {count} missing ordinal(s) (epoch {epoch})")
            }
            TelemetryEvent::SafeLineAdvanced { epoch, safe_line } => {
                write!(f, "safe line -> {safe_line} (epoch {epoch})")
            }
            TelemetryEvent::MembershipTransition { from, to } => {
                write!(f, "membership {from} -> {to}")
            }
            TelemetryEvent::ConfigCommitted {
                epoch,
                rep,
                members,
            } => {
                write!(
                    f,
                    "committed configuration R{epoch}@P{rep} ({members} members)"
                )
            }
            TelemetryEvent::ConfigInstalled {
                epoch,
                rep,
                members,
            } => {
                write!(
                    f,
                    "installed configuration R{epoch}@P{rep} ({members} members)"
                )
            }
            TelemetryEvent::MessageOriginated {
                sender,
                counter,
                service,
            } => {
                write!(f, "originated {service} message P{sender}#{counter}")
            }
            TelemetryEvent::MessageSent {
                epoch,
                rep,
                sender,
                counter,
                seq,
                service,
            } => {
                write!(
                    f,
                    "sent {service} message P{sender}#{counter} (ord {seq} in R{epoch}@P{rep})"
                )
            }
            TelemetryEvent::MessageDelivered {
                epoch,
                rep,
                sender,
                counter,
                seq,
                service,
                transitional,
            } => {
                let kind = if *transitional { "T" } else { "R" };
                write!(
                    f,
                    "delivered {service} message P{sender}#{counter} \
                     (ord {seq}, {kind}{epoch}@P{rep})"
                )
            }
            TelemetryEvent::ConfigDelivered {
                epoch,
                rep,
                members,
                regular,
            } => {
                let kind = if *regular {
                    "regular R"
                } else {
                    "transitional T"
                };
                write!(
                    f,
                    "delivered {kind}{epoch}@P{rep} configuration ({members} members)"
                )
            }
            TelemetryEvent::RecoveryStepEntered { step, epoch } => {
                write!(
                    f,
                    "recovery entered at step {step} (proposal epoch {epoch})"
                )
            }
            TelemetryEvent::RecoveryStepReached { step, epoch } => {
                write!(f, "recovery reached step {step} (proposal epoch {epoch})")
            }
            TelemetryEvent::RecoveryStepExited { step, epoch } => match step {
                0 => write!(
                    f,
                    "recovery abandoned (crash/recovery cycle, proposal epoch {epoch})"
                ),
                s => write!(f, "recovery completed at step {s} (proposal epoch {epoch})"),
            },
            TelemetryEvent::ObligationSetSize { size } => {
                write!(f, "obligation set extended to {size} process(es)")
            }
            TelemetryEvent::StableWrite { key } => {
                write!(f, "stable-storage write ({key})")
            }
            TelemetryEvent::StorageRecovered {
                records,
                snapshot,
                wal,
            } => {
                let seed = if *snapshot { "snapshot + " } else { "" };
                let medium = if *wal { "" } else { " (no wal present)" };
                write!(
                    f,
                    "recovered from stable storage ({seed}{records} wal record(s)){medium}"
                )
            }
            TelemetryEvent::LinkPacketDropped { from, to } => {
                write!(f, "link fault dropped packet P{from} -> P{to}")
            }
            TelemetryEvent::LinkPacketDelayed { from, to, ticks } => {
                write!(
                    f,
                    "link fault delayed packet P{from} -> P{to} by {ticks} tick(s)"
                )
            }
            TelemetryEvent::LinkPacketDuplicated { from, to } => {
                write!(f, "link fault duplicated packet P{from} -> P{to}")
            }
            TelemetryEvent::SessionOpened { broker, client } => {
                write!(f, "broker {broker} opened session for client {client}")
            }
            TelemetryEvent::BatchFlushed { broker, ops, bytes } => {
                write!(
                    f,
                    "broker {broker} flushed batch of {ops} op(s) ({bytes} byte(s))"
                )
            }
            TelemetryEvent::BackpressureSignaled { broker, client } => {
                write!(f, "broker {broker} backpressured client {client}")
            }
            TelemetryEvent::BrokerReattached {
                broker,
                to,
                resubmitted,
            } => {
                write!(
                    f,
                    "broker {broker} reattached to P{to}, resubmitted {resubmitted} op(s)"
                )
            }
            TelemetryEvent::ChaosRunExecuted {
                seed,
                steps,
                failed,
            } => {
                let verdict = if *failed { "failed" } else { "passed" };
                write!(f, "chaos run {verdict} (seed {seed}, {steps} step(s))")
            }
            TelemetryEvent::ChaosViolationFound { seed, specs } => {
                write!(f, "chaos violation (seed {seed}, {specs} specification(s))")
            }
            TelemetryEvent::ChaosPlanShrunk {
                from_steps,
                to_steps,
                checks,
            } => {
                write!(
                    f,
                    "chaos plan shrunk {from_steps} -> {to_steps} step(s) ({checks} check(s))"
                )
            }
            TelemetryEvent::ChaosProgress {
                done,
                total,
                failures,
            } => {
                write!(
                    f,
                    "chaos progress: {done}/{total} plan(s), {failures} failure(s)"
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_identifiers() {
        let ev = TelemetryEvent::TokenRotated {
            epoch: 3,
            rotations: 17,
        };
        assert_eq!(ev.name(), "token_rotations");
        assert_eq!(ev.to_string(), "token rotation #17 (epoch 3)");
    }

    #[test]
    fn recovery_exit_displays_abort_distinctly() {
        let done = TelemetryEvent::RecoveryStepExited { step: 6, epoch: 4 };
        let aborted = TelemetryEvent::RecoveryStepExited { step: 0, epoch: 4 };
        assert!(done.to_string().contains("completed"));
        assert!(aborted.to_string().contains("abandoned"));
        assert_eq!(done.name(), aborted.name());
    }

    #[test]
    fn message_events_carry_identity_and_ord() {
        let sent = TelemetryEvent::MessageSent {
            epoch: 2,
            rep: 0,
            sender: 1,
            counter: 9,
            seq: 4,
            service: "safe",
        };
        assert_eq!(sent.name(), "messages_sent");
        assert_eq!(sent.to_string(), "sent safe message P1#9 (ord 4 in R2@P0)");
        let delivered = TelemetryEvent::MessageDelivered {
            epoch: 2,
            rep: 0,
            sender: 1,
            counter: 9,
            seq: 4,
            service: "safe",
            transitional: true,
        };
        assert!(delivered.to_string().contains("T2@P0"));
    }
}
