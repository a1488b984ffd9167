//! The token-ring ordering engine for one regular configuration.

use crate::{MessageId, OrderedMsg, Service, Token};
use evs_membership::ConfigId;
use evs_sim::{ProcessId, SimTime};
use evs_telemetry::{names, Counter, LogHistogram, Telemetry, TelemetryEvent};
use std::collections::{BTreeMap, VecDeque};

/// Ring ordinals at or beyond this value mark the configuration as
/// exhausted: the ring refuses to stamp past it and reports itself
/// poisoned, so the engine reconfigures (ordinals legitimately restart at
/// 1 in the next configuration) instead of silently wrapping `u64` and
/// violating total order. The 2^20 headroom below `u64::MAX` guarantees a
/// token visit can never overflow mid-stamp.
pub const SEQ_CEILING: u64 = u64::MAX - (1 << 20);

/// Largest believable gap between our contiguous-receipt prefix and the
/// ordinal of a token or data message. A legitimate gap is bounded by a
/// few flow-control windows of in-flight stamping; a corrupted `seq` can
/// claim a gap of 2^60, which would steer the hole-request loop into an
/// unbounded iteration, or size the store's window to match. Tokens and
/// data claiming a larger gap are dropped (a lost token forces
/// reconfiguration, which heals the ring; a lost message is requested
/// again once the prefix catches up).
pub const MAX_HOLE_GAP: u64 = 1 << 16;

/// Effects requested by the ring engine.
#[derive(Debug)]
pub enum RingOut<P> {
    /// Broadcast a data message to the component.
    Data(OrderedMsg<P>),
    /// Unicast the token to the ring successor.
    TokenTo(ProcessId, Token),
}

/// How a message became deliverable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryClass {
    /// All predecessors in the total order have been delivered.
    Agreed,
    /// Additionally, every member of the configuration has acknowledged
    /// receipt (the ordinal is at or below the safe line).
    Safe,
}

/// A frozen snapshot of a ring at the moment its configuration ends.
///
/// When the membership layer proposes a new configuration, the EVS engine
/// stops the ring and takes its snapshot: the message store, receipt state
/// and pending submissions are the raw material of the recovery algorithm
/// (§3 Steps 3–6 of the paper).
#[derive(Clone, Debug)]
pub struct RingSnapshot<P> {
    /// The configuration this ring ordered.
    pub config: ConfigId,
    /// Its sorted membership.
    pub members: Vec<ProcessId>,
    /// Every ordinal `1..=floor` was received, delivered here and is held
    /// by every member of `config`, so the messages themselves are gone:
    /// no step of the recovery algorithm can ask for them again.
    pub floor: u64,
    /// The ordered messages received above `floor`, by ordinal.
    pub store: BTreeMap<u64, OrderedMsg<P>>,
    /// Contiguous receipt prefix: all ordinals `1..=my_aru` were received
    /// (those above `floor` are in `store`).
    pub my_aru: u64,
    /// Highest ordinal known to exist (from data or token sightings).
    pub high_seen: u64,
    /// Highest ordinal known to be received by *every* member.
    pub safe_line: u64,
    /// Highest ordinal delivered to the application.
    pub delivered_upto: u64,
    /// Submissions that were never stamped into the total order; the engine
    /// re-submits them in the next regular configuration.
    pub pending: Vec<(MessageId, Service, P)>,
}

/// The per-process total-order engine for a single regular configuration —
/// a compact reimplementation of the ordering half of the Totem single-ring
/// protocol the paper builds on.
///
/// One token circulates around the sorted membership. The holder stamps its
/// pending messages with the next ordinals and broadcasts them, services
/// retransmission requests, and updates the token's `aru`. A message is
/// *agreed*-deliverable once all smaller ordinals have been received, and
/// *safe*-deliverable once its ordinal is at or below the **safe line** —
/// the token `aru` observed on two successive visits, which proves every
/// member had acknowledged receipt by the earlier visit.
///
/// The engine is sans-I/O: feed it tokens and data via [`Ring::on_token`] /
/// [`Ring::on_data`], drain deliverable messages via [`Ring::pop_delivery`],
/// and apply the returned [`RingOut`] effects.
#[derive(Debug)]
pub struct Ring<P> {
    me: ProcessId,
    config: ConfigId,
    members: Vec<ProcessId>,
    /// The received messages above `floor`, as a window: slot `i` holds
    /// ordinal `floor + 1 + i`, `None` while that ordinal is a hole. It
    /// spans at most `high_seen − floor` slots; a lookup is an index and
    /// a prune pops the front.
    window: VecDeque<Option<OrderedMsg<P>>>,
    /// Occupied slots of `window`.
    stored: usize,
    /// `min(safe_line, delivered_upto)` as of the last prune: every ordinal
    /// at or below it is held by every member and was delivered here, so
    /// nobody can request it on the token and no later recovery can owe it
    /// to anyone — the store drops it.
    floor: u64,
    my_aru: u64,
    /// Complement shadow of `my_aru` (self-stabilization): resynced at
    /// every legitimate mutation, checked *before* every use. A mismatch
    /// means the primary was rewritten underneath us.
    aru_shadow: u64,
    high_seen: u64,
    /// Complement shadow of `high_seen`, same discipline.
    seq_shadow: u64,
    /// Sticky corruption flag: once a shadow or ceiling check fails, the
    /// ring refuses to order, deliver or forward anything further — the
    /// engine observes this and excommunicates the process.
    poisoned: bool,
    safe_line: u64,
    prev_visit_aru: Option<u64>,
    delivered_upto: u64,
    pending: VecDeque<(MessageId, Service, P)>,
    last_token_id: u64,
    last_forwarded: Option<Token>,
    forwarded_at: SimTime,
    retx_left: u32,
    max_per_visit: usize,
    rotations: u64,
    telemetry: Telemetry,
    stamped_per_visit: LogHistogram,
    idle_rotations: Counter,
    held_token_stamps: Counter,
    /// The member that stamped the newest message accepted, the one at
    /// `high_seen` once it arrives, or the representative before any: the
    /// member a quiescent ring parks its token at (see
    /// [`Ring::idle_holder`]).
    top_stamper: ProcessId,
}

/// How many times one forwarded token is locally retransmitted before the
/// ring gives up and leaves the loss to the engine's token-loss timeout,
/// which hands recovery to the membership layer.
const TOKEN_RETX_LIMIT: u32 = 6;

const _: () = assert!(TOKEN_RETX_LIMIT >= 1);

impl<P: Clone> Ring<P> {
    /// Creates the ring engine for `me` within `members` (sorted, deduped).
    ///
    /// `max_per_visit` bounds how many new messages are stamped per token
    /// visit (Totem's flow-control window).
    ///
    /// # Panics
    ///
    /// Panics if `me` is not in `members`, `members` is empty, or
    /// `max_per_visit` is zero.
    pub fn new(
        me: ProcessId,
        config: ConfigId,
        mut members: Vec<ProcessId>,
        max_per_visit: usize,
    ) -> Self {
        members.sort_unstable();
        members.dedup();
        assert!(members.contains(&me), "{me} must be a ring member");
        assert!(max_per_visit > 0, "flow-control window must be positive");
        let representative = members[0];
        Ring {
            me,
            config,
            members,
            window: VecDeque::new(),
            stored: 0,
            floor: 0,
            my_aru: 0,
            aru_shadow: !0,
            high_seen: 0,
            seq_shadow: !0,
            poisoned: false,
            safe_line: 0,
            prev_visit_aru: None,
            delivered_upto: 0,
            pending: VecDeque::new(),
            last_token_id: 0,
            last_forwarded: None,
            forwarded_at: SimTime::ZERO,
            retx_left: 0,
            max_per_visit,
            rotations: 0,
            telemetry: Telemetry::disabled(),
            stamped_per_visit: LogHistogram::detached(),
            idle_rotations: Counter::detached(),
            held_token_stamps: Counter::detached(),
            top_stamper: representative,
        }
    }

    /// Attaches a telemetry handle. Instrument handles are resolved here
    /// once so token-visit recording stays off the name-lookup path.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.stamped_per_visit = telemetry.log_histogram(names::STAMPED_PER_VISIT);
        self.idle_rotations = telemetry.counter(names::IDLE_ROTATIONS);
        self.held_token_stamps = telemetry.counter(names::HELD_TOKEN_STAMPS);
        self.telemetry = telemetry;
    }

    /// The configuration this ring orders.
    pub fn config(&self) -> ConfigId {
        self.config
    }

    /// The sorted membership.
    pub fn members(&self) -> &[ProcessId] {
        &self.members
    }

    /// Contiguous receipt prefix.
    pub fn my_aru(&self) -> u64 {
        self.my_aru
    }

    /// Highest ordinal known to have been received by every member.
    pub fn safe_line(&self) -> u64 {
        self.safe_line
    }

    /// Highest ordinal delivered so far.
    pub fn delivered_upto(&self) -> u64 {
        self.delivered_upto
    }

    /// Highest ordinal known to exist in this configuration.
    pub fn high_seen(&self) -> u64 {
        self.high_seen
    }

    /// Completed token rotations (diagnostics).
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// True if the message with this ordinal has been received (everything
    /// at or below the floor was, before it was dropped).
    pub fn contains(&self, seq: u64) -> bool {
        seq <= self.floor || self.stored_msg(seq).is_some()
    }

    /// The stored message with this ordinal, if it is above the floor and
    /// was received.
    fn stored_msg(&self, seq: u64) -> Option<&OrderedMsg<P>> {
        let slot = seq.checked_sub(self.floor + 1)?;
        self.window.get(usize::try_from(slot).ok()?)?.as_ref()
    }

    /// Every ordinal at or below this was received, delivered and dropped
    /// from the store; see [`RingSnapshot::floor`].
    pub fn floor(&self) -> u64 {
        self.floor
    }

    /// Messages currently retained: the received ordinals above the floor.
    pub fn store_len(&self) -> usize {
        self.stored
    }

    /// Raises the floor to `min(safe_line, delivered_upto)` and drops the
    /// messages at or below it. The safe line trails every member's aru
    /// and receipt is monotone, so each of them holds these ordinals; they
    /// were delivered here; nothing reads them again. A window that drains
    /// empty gives its buffer back, so an idle ring holds no memory sized
    /// by its busiest moment.
    fn prune(&mut self) {
        let floor = self.safe_line.min(self.delivered_upto);
        let k = floor
            .saturating_sub(self.floor)
            .min(self.window.len() as u64) as usize;
        self.stored -= self.window.drain(..k).flatten().count();
        self.floor = self.floor.max(floor);
        if self.window.is_empty() {
            self.window = VecDeque::new();
        }
    }

    /// Number of submissions not yet stamped into the order.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Gives back the pending queue's allocation if it is empty and has
    /// room for more than `room` submissions, room a burst grew.
    pub fn trim_pending(&mut self, room: usize) {
        if self.pending.is_empty() && self.pending.capacity() > room {
            self.pending = VecDeque::new();
        }
    }

    /// True when the ring has nothing left to move once `tok` leaves
    /// this visit: no submission waits to be stamped and the safe line
    /// has reached the token's `seq`, so every message ordered so far is
    /// safe here. Until then each hop the token is held adds to the
    /// latency of a message still waiting to become safe.
    pub fn is_quiescent(&self, tok: &Token) -> bool {
        self.pending.is_empty() && self.safe_line >= tok.seq
    }

    /// The member a quiescent ring parks its token at: the one that
    /// stamped the highest ordinal this ring accepted, or the
    /// representative (the first member) if nothing was stamped yet. On a
    /// quiescent visit every member holds the token's `seq`, so every
    /// member names the same one.
    pub fn idle_holder(&self) -> ProcessId {
        self.top_stamper
    }

    /// True when this ring is a singleton (ordinals are assigned directly,
    /// no token circulates).
    pub fn is_singleton(&self) -> bool {
        self.members.len() == 1
    }

    /// True once any counter failed its shadow or ceiling check. A
    /// poisoned ring stops ordering, delivering and forwarding; the
    /// engine's response is to excommunicate the process (explicit `fail`
    /// plus a fresh-incarnation rejoin) — never to keep running on state
    /// it cannot trust.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Check-before-use: validates every counter the next step will read.
    /// This runs *before* any mutation — checking afterwards would launder
    /// corruption into the freshly-resynced shadows. The ceiling check
    /// also fires on legitimate exhaustion ([`SEQ_CEILING`]), which heals
    /// by reconfiguration rather than excommunication-with-data-loss, but
    /// the local response (stop and report) is identical.
    fn counters_intact(&mut self) -> bool {
        if self.my_aru != !self.aru_shadow
            || self.high_seen != !self.seq_shadow
            || self.high_seen >= SEQ_CEILING
        {
            self.poisoned = true;
        }
        !self.poisoned
    }

    /// Runs the shadow/ceiling audit outside any message path. An idle
    /// ring has no counter *uses* to trip the check-before-use guards, so
    /// the engine's periodic corruption sweep calls this to bound the
    /// detection latency of dormant damage. Returns true if the ring is
    /// (now) poisoned.
    pub fn audit(&mut self) -> bool {
        !self.counters_intact()
    }

    /// Read-only twin of [`Ring::audit`]: true if the shadow/ceiling
    /// checks would poison this ring right now. Settle probes use it to
    /// see dormant damage without mutating the ring they are inspecting.
    pub fn suspect(&self) -> bool {
        self.poisoned
            || self.my_aru != !self.aru_shadow
            || self.high_seen != !self.seq_shadow
            || self.high_seen >= SEQ_CEILING
    }

    /// Fault injection: flip one bit of the contiguous-receipt counter
    /// *without* resyncing its shadow — exactly what transient memory
    /// corruption does. The next check-before-use detects the mismatch.
    pub fn corrupt_my_aru(&mut self, bit: u32) {
        self.my_aru ^= 1 << (bit % 64);
    }

    /// Fault injection: flip one bit of the highest-ordinal counter,
    /// shadow left stale.
    pub fn corrupt_high_seen(&mut self, bit: u32) {
        self.high_seen ^= 1 << (bit % 64);
    }

    /// Fault injection: jump the ordinal space to its ceiling, modeling
    /// legitimate counter exhaustion after decades of uptime (the
    /// *practically-self-stabilizing* bounded-counter fault). The shadow
    /// is resynced — this is not bit rot, the counter really is exhausted
    /// — so detection comes from the ceiling check alone.
    pub fn wrap_seq(&mut self) {
        self.high_seen = SEQ_CEILING;
        self.seq_shadow = !self.high_seen;
    }

    fn successor(&self) -> ProcessId {
        let i = self
            .members
            .iter()
            .position(|&m| m == self.me)
            .expect("me is a member");
        self.members[(i + 1) % self.members.len()]
    }

    /// Called once by the representative to inject the token when the
    /// configuration starts. Returns the effects of the representative's
    /// first token visit. Non-representatives and singletons return no
    /// effects.
    #[must_use]
    pub fn bootstrap_token(&mut self, now: SimTime) -> Vec<RingOut<P>> {
        if self.is_singleton() || self.members[0] != self.me {
            return Vec::new();
        }
        let token = Token {
            config: self.config,
            token_id: 1,
            seq: 0,
            aru: 0,
            aru_id: None,
            rtr: Vec::new(),
            rotation: 0,
        };
        self.on_token(now, token)
    }

    /// Submits an application message for ordering. It will be stamped and
    /// broadcast at the next token visit — or immediately for singleton
    /// rings, in which case the stamped message is returned (there is
    /// nobody to broadcast it to, but the caller can log the send).
    pub fn submit(&mut self, id: MessageId, service: Service, payload: P) -> Option<OrderedMsg<P>>
    where
        P: Clone,
    {
        if self.is_singleton() {
            // Sole member: stamp directly; everything is trivially safe.
            // Check-before-use: the stamp reads `high_seen`, so a
            // corrupted or exhausted counter must stop the stamp here —
            // the submission parks in `pending` until the engine reacts.
            if !self.counters_intact() {
                self.pending.push_back((id, service, payload));
                return None;
            }
            let seq = self.high_seen + 1;
            let msg = OrderedMsg {
                config: self.config,
                seq,
                id,
                service,
                payload,
            };
            self.accept_data(msg.clone());
            self.safe_line = self.my_aru;
            Some(msg)
        } else {
            self.pending.push_back((id, service, payload));
            None
        }
    }

    /// Handles a received data message. Duplicates and messages from other
    /// configurations are ignored.
    pub fn on_data(&mut self, msg: OrderedMsg<P>) {
        if msg.config != self.config {
            return;
        }
        self.accept_data(msg);
    }

    fn accept_data(&mut self, msg: OrderedMsg<P>) {
        debug_assert!(msg.seq >= 1);
        if !self.counters_intact() {
            return;
        }
        if msg.seq >= SEQ_CEILING {
            // The *sender* is poisoned, not us: drop the absurd ordinal
            // instead of folding it into `high_seen`. The sender's own
            // engine excommunicates it.
            return;
        }
        if msg.seq <= self.floor {
            // A late duplicate of a message already delivered and dropped.
            return;
        }
        if msg.seq.saturating_sub(self.my_aru) > MAX_HOLE_GAP {
            // The bound the token gets: no legitimate stamping runs this
            // far ahead of our prefix, and folding the ordinal in would
            // lift `high_seen` out of reach of delivery for good.
            return;
        }
        if msg.seq >= self.high_seen {
            // A token may have raised `high_seen` ahead of its data; the
            // data at `high_seen` still names its stamper, since only a
            // message's sender stamps it into the order.
            self.high_seen = msg.seq;
            self.top_stamper = msg.id.sender;
        }
        self.seq_shadow = !self.high_seen;
        // `floor < seq ≤ my_aru + MAX_HOLE_GAP`: a bounded window index.
        let slot = (msg.seq - self.floor - 1) as usize;
        if slot >= self.window.len() {
            self.window.resize_with(slot + 1, || None);
        }
        if self.window[slot].is_none() {
            self.window[slot] = Some(msg);
            self.stored += 1;
        }
        while self.stored_msg(self.my_aru + 1).is_some() {
            self.my_aru += 1;
        }
        self.aru_shadow = !self.my_aru;
    }

    /// Handles a received token. Stale tokens (id not exceeding the last
    /// seen) are dropped, which makes hop retransmission idempotent.
    #[must_use]
    pub fn on_token(&mut self, now: SimTime, mut tok: Token) -> Vec<RingOut<P>> {
        if tok.config != self.config || tok.token_id <= self.last_token_id {
            return Vec::new();
        }
        // Self-stabilization guards, before any state mutation. A failed
        // local check poisons the ring; a poisoned *token* (absurd ordinal
        // or an impossible receipt gap that would steer the hole-request
        // loop into ~2^60 iterations) is simply dropped — the resulting
        // token loss forces reconfiguration, which heals the ring, while
        // the corrupt holder's own engine excommunicates it.
        if !self.counters_intact() {
            return Vec::new();
        }
        if tok.seq >= SEQ_CEILING || tok.seq.saturating_sub(self.my_aru) > MAX_HOLE_GAP {
            return Vec::new();
        }
        self.last_token_id = tok.token_id;
        self.high_seen = self.high_seen.max(tok.seq);
        self.seq_shadow = !self.high_seen;

        // Fast path for an idle visit: nothing to serve, request, stamp or
        // advance — every step below would be a no-op, so the visit reduces
        // to forwarding the token. An idle ring rotates its token an order
        // of magnitude more often than it stamps messages (pacing keeps the
        // rate bounded, not the count), so the per-visit bookkeeping of
        // doing nothing — the retransmission/hole scans, the aru and
        // safe-line updates, the `TokenRotated` event and the stamp
        // histogram sample, per process per rotation — dominated quiet
        // periods. The token itself still circulates identically (same
        // id/rotation/retx state). `TokenReceived`/`TokenForwarded` are
        // still recorded so inspection timelines stay gap-free (the
        // starvation and retransmission-storm detectors key off them); the
        // skipped visits are tallied in the `idle_rotations` counter.
        let idle = tok.rtr.is_empty()
            && self.pending.is_empty()
            && self.my_aru == tok.seq
            && tok.aru == tok.seq
            && tok.aru_id.is_none()
            && self.prev_visit_aru == Some(tok.aru)
            && self.safe_line == tok.aru;
        if idle {
            self.idle_rotations.inc();
            self.telemetry.record(
                now.ticks(),
                TelemetryEvent::TokenReceived {
                    epoch: self.config.epoch,
                    token_id: tok.token_id,
                    aru: tok.aru,
                },
            );
            let succ = self.successor();
            if succ == *self.members.first().expect("non-empty") {
                tok.rotation += 1;
            }
            self.rotations = tok.rotation;
            tok.token_id += 1;
            self.last_token_id = tok.token_id;
            self.forwarded_at = now;
            self.retx_left = TOKEN_RETX_LIMIT;
            self.last_forwarded = Some(tok.clone());
            self.telemetry.record(
                now.ticks(),
                TelemetryEvent::TokenForwarded {
                    epoch: self.config.epoch,
                    token_id: tok.token_id,
                    to: succ.index(),
                },
            );
            return vec![RingOut::TokenTo(succ, tok)];
        }

        // Served retransmissions, the stamped burst and the token.
        let mut out = Vec::with_capacity(self.max_per_visit + tok.rtr.len() + 1);
        self.telemetry.record(
            now.ticks(),
            TelemetryEvent::TokenReceived {
                epoch: self.config.epoch,
                token_id: tok.token_id,
                aru: tok.aru,
            },
        );

        // 1. Service retransmission requests we can satisfy.
        out.extend(
            tok.rtr
                .iter()
                .filter_map(|&seq| self.stored_msg(seq))
                .map(|msg| RingOut::Data(msg.clone())),
        );
        if !out.is_empty() {
            self.telemetry.record(
                now.ticks(),
                TelemetryEvent::RetransmissionsServed {
                    epoch: self.config.epoch,
                    count: out.len() as u64,
                },
            );
            tok.rtr.retain(|&seq| self.stored_msg(seq).is_none());
        }

        // 2. Request our own holes, merged into the ascending requests.
        let requested = tok.rtr.len();
        tok.rtr
            .extend(((self.my_aru + 1)..=tok.seq).filter(|&hole| self.stored_msg(hole).is_none()));
        let holes = (tok.rtr.len() - requested) as u64;
        if holes > 0 {
            tok.rtr.sort_unstable();
            tok.rtr.dedup();
            self.telemetry.record(
                now.ticks(),
                TelemetryEvent::HolesRequested {
                    epoch: self.config.epoch,
                    count: holes,
                },
            );
        }

        // 3–4. Stamp and broadcast pending messages, then update the aru.
        let stamped = self.stamp_pending(&mut tok, |msg| out.push(RingOut::Data(msg)));
        self.stamped_per_visit.observe(stamped);

        // 5. Advance the safe line: an ordinal covered by the aru on two
        //    successive visits was received by every member before the
        //    earlier visit completed its rotation.
        if let Some(prev) = self.prev_visit_aru {
            let advanced = self.safe_line.max(prev.min(tok.aru));
            if advanced > self.safe_line {
                self.telemetry.record(
                    now.ticks(),
                    TelemetryEvent::SafeLineAdvanced {
                        epoch: self.config.epoch,
                        safe_line: advanced,
                    },
                );
            }
            self.safe_line = advanced;
        }
        self.prev_visit_aru = Some(tok.aru);
        // Only a visit that moved the safe line has anything to drop: the
        // idle fast path above changes neither bound of the floor.
        self.prune();

        // 6. Forward to the successor.
        let succ = self.successor();
        if succ == *self.members.first().expect("non-empty") {
            tok.rotation += 1;
        }
        if tok.rotation > self.rotations {
            self.telemetry.record(
                now.ticks(),
                TelemetryEvent::TokenRotated {
                    epoch: self.config.epoch,
                    rotations: tok.rotation,
                },
            );
        }
        self.rotations = tok.rotation;
        tok.token_id += 1;
        self.last_token_id = tok.token_id;
        self.last_forwarded = Some(tok.clone());
        self.forwarded_at = now;
        self.retx_left = TOKEN_RETX_LIMIT;
        self.telemetry.record(
            now.ticks(),
            TelemetryEvent::TokenForwarded {
                epoch: self.config.epoch,
                token_id: tok.token_id,
                to: succ.index(),
            },
        );
        out.push(RingOut::TokenTo(succ, tok));
        out
    }

    /// Stamps the pending messages (flow-controlled) onto `tok`, handing
    /// each to `sent`, then applies Totem's aru rule: anyone behind
    /// lowers the aru and owns it until they catch up; the owner (or
    /// nobody) raises it. The caller has run the check-before-use.
    /// Returns how many were stamped.
    fn stamp_pending(&mut self, tok: &mut Token, mut sent: impl FnMut(OrderedMsg<P>)) -> u64 {
        let mut stamped = 0u64;
        for _ in 0..self.max_per_visit {
            let Some((id, service, payload)) = self.pending.pop_front() else {
                break;
            };
            tok.seq += 1;
            stamped += 1;
            let msg = OrderedMsg {
                config: self.config,
                seq: tok.seq,
                id,
                service,
                payload,
            };
            self.accept_data(msg.clone());
            sent(msg);
        }

        if self.my_aru < tok.aru {
            tok.aru = self.my_aru;
            tok.aru_id = Some(self.me);
        } else if tok.aru_id == Some(self.me) || tok.aru_id.is_none() {
            tok.aru = self.my_aru;
            tok.aru_id = if tok.aru == tok.seq {
                None
            } else {
                Some(self.me)
            };
        }
        stamped
    }

    /// Stamps the pending messages onto `tok`, the token this ring
    /// forwarded last and whose holder has not sent it yet — the engine
    /// holds a quiescent visit's token for its pace. The token has not
    /// left, so this is the visit stamping them late: `tok` ends as the
    /// visit would have left it had they been pending then, and a
    /// retransmission carries it. The stamped messages are returned for
    /// the caller to send before the token.
    ///
    /// Returns nothing and leaves `tok` alone unless it is this ring's
    /// current forward (same configuration, the last token id) and no
    /// retransmission of it has gone out yet, and the ring passes the
    /// check-before-use.
    #[must_use]
    pub fn stamp_held(&mut self, tok: &mut Token) -> Vec<OrderedMsg<P>> {
        let current = tok.config == self.config
            && tok.token_id == self.last_token_id
            && self.retx_left == TOKEN_RETX_LIMIT;
        if !current || self.pending.is_empty() || !self.counters_intact() || tok.seq >= SEQ_CEILING
        {
            return Vec::new();
        }
        let mut stamped = Vec::with_capacity(self.pending.len().min(self.max_per_visit));
        self.stamp_pending(tok, |msg| stamped.push(msg));
        self.prev_visit_aru = Some(tok.aru);
        self.last_forwarded = Some(tok.clone());
        self.held_token_stamps.inc();
        stamped
    }

    /// Retransmits the last forwarded token if it has been quiet for the
    /// adaptive timeout (up to `TOKEN_RETX_LIMIT` retries). Call
    /// periodically; duplicates are suppressed at the receiver by the
    /// token id.
    ///
    /// The timeout starts at `base_timeout` ticks and doubles with every
    /// consecutive retransmission of the same forward, capped at
    /// `max_timeout` — quick recovery from an isolated loss, without a
    /// fixed-interval retransmission storm under sustained loss.
    #[must_use]
    pub fn maybe_retransmit(
        &mut self,
        now: SimTime,
        base_timeout: u64,
        max_timeout: u64,
    ) -> Option<RingOut<P>> {
        let tok = self.last_forwarded.as_ref()?;
        if self.retx_left == 0 {
            return None;
        }
        let attempts = TOKEN_RETX_LIMIT - self.retx_left;
        let timeout = base_timeout
            .checked_shl(attempts)
            .unwrap_or(u64::MAX)
            .min(max_timeout.max(base_timeout));
        if now.since(self.forwarded_at) < timeout {
            return None;
        }
        self.retx_left -= 1;
        self.forwarded_at = now;
        self.telemetry.record(
            now.ticks(),
            TelemetryEvent::TokenRetransmitted {
                epoch: self.config.epoch,
                token_id: tok.token_id,
            },
        );
        Some(RingOut::TokenTo(self.successor(), tok.clone()))
    }

    /// The instant at which [`Ring::maybe_retransmit`] would next fire, or
    /// `None` when no retransmission is armed (nothing forwarded yet, or
    /// the retry budget for the current forward is spent). Event-driven
    /// drivers use this to park until the exact deadline instead of
    /// polling on a fixed tick.
    pub fn next_retx_at(&self, base_timeout: u64, max_timeout: u64) -> Option<SimTime> {
        self.last_forwarded.as_ref()?;
        if self.retx_left == 0 {
            return None;
        }
        let attempts = TOKEN_RETX_LIMIT - self.retx_left;
        let timeout = base_timeout
            .checked_shl(attempts)
            .unwrap_or(u64::MAX)
            .min(max_timeout.max(base_timeout));
        Some(self.forwarded_at + timeout)
    }

    /// Returns (and consumes) the next deliverable message in the total
    /// order, or `None` if the head of the order is missing or not yet
    /// deliverable at its service level.
    ///
    /// Delivery is strictly in ordinal order: a safe message at the head
    /// holds back everything behind it until its ordinal is covered by the
    /// safe line (total order may not be violated to skip it).
    pub fn pop_delivery(&mut self) -> Option<(OrderedMsg<P>, DeliveryClass)> {
        if self.poisoned {
            // Never deliver from bookkeeping we can't trust.
            return None;
        }
        let next = self.delivered_upto + 1;
        let ready = self.stored_msg(next).and_then(|msg| match msg.service {
            Service::Causal | Service::Agreed => Some((msg.clone(), DeliveryClass::Agreed)),
            Service::Safe if next <= self.safe_line => Some((msg.clone(), DeliveryClass::Safe)),
            Service::Safe => None,
        });
        if ready.is_some() {
            self.delivered_upto = next;
        } else {
            // Delivery has caught up with what is deliverable. On a ring
            // that delivers below its safe line (safe traffic, singletons)
            // this, not the token visit, is where the floor moves.
            self.prune();
        }
        ready
    }

    /// Freezes the ring into its recovery snapshot.
    pub fn into_snapshot(self) -> RingSnapshot<P> {
        let ordinals = self.floor + 1..;
        RingSnapshot {
            config: self.config,
            members: self.members,
            floor: self.floor,
            store: ordinals
                .zip(self.window)
                .filter_map(|(seq, slot)| Some((seq, slot?)))
                .collect(),
            my_aru: self.my_aru,
            high_seen: self.high_seen,
            safe_line: self.safe_line,
            delivered_upto: self.delivered_upto,
            pending: self.pending.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn cfg() -> ConfigId {
        ConfigId::regular(1, p(0))
    }

    fn mid(sender: u32, n: u64) -> MessageId {
        MessageId::new(p(sender), n)
    }

    /// A loss-free in-test ring network driving `n` Ring engines. Data
    /// frames are delivered instantly; token hops are queued and driven one
    /// at a time by [`TestRing::hop`].
    struct TestRing {
        rings: Vec<Ring<&'static str>>,
        now: SimTime,
        tokens: std::collections::VecDeque<(ProcessId, Token)>,
    }

    impl TestRing {
        fn new(n: u32) -> Self {
            let members: Vec<ProcessId> = (0..n).map(p).collect();
            let mut rings: Vec<Ring<&'static str>> = (0..n)
                .map(|i| Ring::new(p(i), cfg(), members.clone(), 8))
                .collect();
            let now = SimTime::from_ticks(1);
            let outs = rings[0].bootstrap_token(now);
            let mut tr = TestRing {
                rings,
                now,
                tokens: Default::default(),
            };
            tr.apply(0, outs);
            tr
        }

        /// Applies effects: data delivers instantly and reliably, token
        /// hops are queued.
        fn apply(&mut self, from: usize, outs: Vec<RingOut<&'static str>>) {
            for o in outs {
                match o {
                    RingOut::Data(msg) => {
                        for (i, r) in self.rings.iter_mut().enumerate() {
                            if i != from {
                                r.on_data(msg.clone());
                            }
                        }
                    }
                    RingOut::TokenTo(to, tok) => self.tokens.push_back((to, tok)),
                }
            }
        }

        /// Moves the token one hop.
        fn hop(&mut self) {
            let (to, tok) = self.tokens.pop_front().expect("token in flight");
            self.now += 1;
            let now = self.now;
            let outs = self.rings[to.as_usize()].on_token(now, tok);
            self.apply(to.as_usize(), outs);
        }

        fn submit(&mut self, at: usize, id: MessageId, service: Service, body: &'static str) {
            self.rings[at].submit(id, service, body);
        }

        fn deliveries(&mut self, at: usize) -> Vec<(u64, MessageId, DeliveryClass)> {
            let mut v = Vec::new();
            while let Some((m, c)) = self.rings[at].pop_delivery() {
                v.push((m.seq, m.id, c));
            }
            v
        }
    }

    /// Drives full token rotations.
    fn drive_rotations(net: &mut TestRing, rotations: u64) {
        let start = net.rings[0].rotations();
        let mut guard = 0;
        while net.rings[0].rotations() < start + rotations {
            guard += 1;
            assert!(guard < 10_000, "token stalled");
            net.hop();
        }
    }

    #[test]
    fn singleton_orders_and_safes_immediately() {
        let mut r: Ring<&str> = Ring::new(p(0), cfg(), vec![p(0)], 4);
        assert!(r.bootstrap_token(SimTime::ZERO).is_empty());
        r.submit(mid(0, 1), Service::Safe, "a");
        r.submit(mid(0, 2), Service::Agreed, "b");
        let (m1, c1) = r.pop_delivery().unwrap();
        let (m2, c2) = r.pop_delivery().unwrap();
        assert_eq!((m1.seq, c1), (1, DeliveryClass::Safe));
        assert_eq!((m2.seq, c2), (2, DeliveryClass::Agreed));
        assert!(r.pop_delivery().is_none());
    }

    #[test]
    fn token_stamps_messages_in_submission_order() {
        let mut net = TestRing::new(3);
        net.submit(1, mid(1, 1), Service::Agreed, "x");
        net.submit(1, mid(1, 2), Service::Agreed, "y");
        drive_rotations(&mut net, 4);
        let d0 = net.deliveries(0);
        let d2 = net.deliveries(2);
        assert_eq!(d0.len(), 2, "agreed messages deliver: {d0:?}");
        assert_eq!(d0[0].1, mid(1, 1));
        assert_eq!(d0[1].1, mid(1, 2));
        assert_eq!(d0, d2, "same order everywhere");
    }

    #[test]
    fn safe_needs_two_visits_agreed_does_not() {
        let mut net = TestRing::new(3);
        net.submit(0, mid(0, 1), Service::Safe, "s");
        net.submit(2, mid(2, 1), Service::Agreed, "a");
        drive_rotations(&mut net, 1);
        // After one-ish rotation the agreed message may deliver but the safe
        // one at the order head blocks everything until the safe line
        // covers it; run more rotations and everything flushes.
        drive_rotations(&mut net, 4);
        for i in 0..3 {
            let d = net.deliveries(i);
            assert_eq!(d.len(), 2, "P{i}: {d:?}");
            // Total order identical everywhere, safe delivered as safe.
            let safe = d.iter().find(|(_, id, _)| *id == mid(0, 1)).unwrap();
            assert_eq!(safe.2, DeliveryClass::Safe);
        }
    }

    #[test]
    fn total_order_is_identical_across_members() {
        let mut net = TestRing::new(4);
        for n in 1..=5 {
            net.submit(
                (n % 4) as usize,
                mid((n % 4) as u32, n),
                Service::Agreed,
                "m",
            );
        }
        drive_rotations(&mut net, 6);
        let orders: Vec<Vec<(u64, MessageId, DeliveryClass)>> =
            (0..4).map(|i| net.deliveries(i)).collect();
        assert_eq!(orders[0].len(), 5);
        for o in &orders[1..] {
            assert_eq!(*o, orders[0]);
        }
        // Ordinals are dense.
        let seqs: Vec<u64> = orders[0].iter().map(|(s, _, _)| *s).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn stale_token_is_ignored() {
        let mut r: Ring<&str> = Ring::new(p(0), cfg(), vec![p(0), p(1)], 4);
        let out = r.bootstrap_token(SimTime::ZERO);
        assert_eq!(out.len(), 1);
        let RingOut::TokenTo(_, tok) = &out[0] else {
            panic!("expected token")
        };
        // Replay an old token id: must be dropped.
        let stale = Token {
            token_id: tok.token_id - 1,
            ..tok.clone()
        };
        assert!(r.on_token(SimTime::from_ticks(2), stale).is_empty());
    }

    #[test]
    fn retransmission_heals_token_loss() {
        let mut a: Ring<&str> = Ring::new(p(0), cfg(), vec![p(0), p(1)], 4);
        let mut b: Ring<&str> = Ring::new(p(1), cfg(), vec![p(0), p(1)], 4);
        let out = a.bootstrap_token(SimTime::from_ticks(1));
        let RingOut::TokenTo(to, tok) = &out[0] else {
            panic!()
        };
        assert_eq!(*to, p(1));
        // First copy "lost". Retransmit after the timeout.
        let retx = a
            .maybe_retransmit(SimTime::from_ticks(500), 100, 800)
            .expect("retransmits");
        let RingOut::TokenTo(to2, tok2) = retx else {
            panic!()
        };
        assert_eq!(to2, p(1));
        assert_eq!(tok2.token_id, tok.token_id);
        // B accepts the retransmitted copy...
        let outs = b.on_token(SimTime::from_ticks(501), tok2);
        assert!(!outs.is_empty());
        // ...and drops the late original.
        assert!(b.on_token(SimTime::from_ticks(502), tok.clone()).is_empty());
    }

    #[test]
    fn retransmission_gives_up_after_limit() {
        let mut a: Ring<&str> = Ring::new(p(0), cfg(), vec![p(0), p(1)], 4);
        let _ = a.bootstrap_token(SimTime::from_ticks(1));
        let mut t = SimTime::from_ticks(1);
        let mut count = 0;
        loop {
            // Far past even the capped backoff: every eligible retry fires.
            t += 1_000_000;
            if a.maybe_retransmit(t, 100, 800).is_none() {
                break;
            }
            count += 1;
            assert!(count <= TOKEN_RETX_LIMIT);
        }
        assert_eq!(count, TOKEN_RETX_LIMIT);
    }

    #[test]
    fn retransmission_timeout_backs_off_exponentially_to_the_cap() {
        let mut a: Ring<&str> = Ring::new(p(0), cfg(), vec![p(0), p(1)], 4);
        let _ = a.bootstrap_token(SimTime::ZERO);
        // Attempt 0 waits the base timeout.
        assert!(a
            .maybe_retransmit(SimTime::from_ticks(99), 100, 300)
            .is_none());
        assert!(a
            .maybe_retransmit(SimTime::from_ticks(100), 100, 300)
            .is_some());
        // Attempt 1 doubles: quiet until 200 ticks after the retransmit.
        assert!(a
            .maybe_retransmit(SimTime::from_ticks(299), 100, 300)
            .is_none());
        assert!(a
            .maybe_retransmit(SimTime::from_ticks(300), 100, 300)
            .is_some());
        // Attempt 2 would be 400 but the cap holds it at 300.
        assert!(a
            .maybe_retransmit(SimTime::from_ticks(599), 100, 300)
            .is_none());
        assert!(a
            .maybe_retransmit(SimTime::from_ticks(600), 100, 300)
            .is_some());
        // Every later attempt stays at the cap until the limit is spent.
        let mut at = 600;
        for _ in 3..TOKEN_RETX_LIMIT {
            at += 300;
            assert!(a
                .maybe_retransmit(SimTime::from_ticks(at - 1), 100, 300)
                .is_none());
            assert!(a
                .maybe_retransmit(SimTime::from_ticks(at), 100, 300)
                .is_some());
        }
        assert!(a
            .maybe_retransmit(SimTime::from_ticks(10_000), 100, 300)
            .is_none());
    }

    #[test]
    fn holes_are_requested_and_refilled() {
        // Three members; P1 misses a data broadcast and recovers it via rtr.
        let members = vec![p(0), p(1), p(2)];
        let mut r0: Ring<&str> = Ring::new(p(0), cfg(), members.clone(), 4);
        let mut r1: Ring<&str> = Ring::new(p(1), cfg(), members.clone(), 4);
        let mut r2: Ring<&str> = Ring::new(p(2), cfg(), members, 4);
        let t1 = SimTime::from_ticks(1);

        r0.submit(mid(0, 1), Service::Agreed, "lost");
        let outs = r0.bootstrap_token(t1);
        // outs: Data(seq 1) + TokenTo(p1).
        let mut token = None;
        let mut data = None;
        for o in outs {
            match o {
                RingOut::Data(m) => data = Some(m),
                RingOut::TokenTo(to, t) => {
                    assert_eq!(to, p(1));
                    token = Some(t);
                }
            }
        }
        let data = data.unwrap();
        // P2 receives the data; P1 does not (simulated loss).
        r2.on_data(data.clone());

        // P1 takes the token, notices the hole, requests seq 1.
        let outs = r1.on_token(t1 + 1, token.unwrap());
        let RingOut::TokenTo(to, tok) = &outs[0] else {
            panic!()
        };
        assert_eq!(*to, p(2));
        assert!(tok.rtr.contains(&1));
        assert_eq!(tok.aru, 0, "P1 lowered the aru");

        // P2 services the request: rebroadcasts seq 1.
        let outs = r2.on_token(t1 + 2, tok.clone());
        let rebroadcast = outs
            .iter()
            .find_map(|o| match o {
                RingOut::Data(m) => Some(m.clone()),
                _ => None,
            })
            .expect("P2 rebroadcasts the missing message");
        assert_eq!(rebroadcast.seq, 1);
        r1.on_data(rebroadcast);
        assert_eq!(r1.my_aru(), 1);
        let (m, _) = r1.pop_delivery().unwrap();
        assert_eq!(m.payload, "lost");
    }

    #[test]
    fn safe_message_blocks_until_safe_line() {
        let mut r: Ring<&str> = Ring::new(p(0), cfg(), vec![p(0), p(1)], 4);
        // Receive a safe message at the head of the order.
        r.on_data(OrderedMsg {
            config: cfg(),
            seq: 1,
            id: mid(1, 1),
            service: Service::Safe,
            payload: "s",
        });
        assert!(r.pop_delivery().is_none(), "not safe yet");
        // And an agreed message behind it: still blocked (total order).
        r.on_data(OrderedMsg {
            config: cfg(),
            seq: 2,
            id: mid(1, 2),
            service: Service::Agreed,
            payload: "a",
        });
        assert!(r.pop_delivery().is_none(), "order head must not be skipped");
        r.safe_line = 1;
        assert_eq!(r.pop_delivery().unwrap().0.seq, 1);
        assert_eq!(r.pop_delivery().unwrap().0.seq, 2);
    }

    #[test]
    fn snapshot_carries_recovery_state() {
        let mut r: Ring<&str> = Ring::new(p(0), cfg(), vec![p(0), p(1)], 4);
        r.on_data(OrderedMsg {
            config: cfg(),
            seq: 1,
            id: mid(1, 1),
            service: Service::Agreed,
            payload: "m1",
        });
        r.on_data(OrderedMsg {
            config: cfg(),
            seq: 3,
            id: mid(1, 3),
            service: Service::Safe,
            payload: "m3",
        });
        r.submit(mid(0, 9), Service::Safe, "never-sent");
        let (m, _) = r.pop_delivery().unwrap();
        assert_eq!(m.seq, 1);
        let snap = r.into_snapshot();
        assert_eq!(snap.my_aru, 1);
        assert_eq!(snap.high_seen, 3);
        assert_eq!(snap.delivered_upto, 1);
        assert_eq!(snap.store.len(), 2);
        assert_eq!(snap.pending.len(), 1);
        assert_eq!(snap.pending[0].0, mid(0, 9));
    }

    #[test]
    fn store_is_pruned_at_the_floor_and_late_duplicates_are_ignored() {
        let mut net = TestRing::new(3);
        for n in 1..=20 {
            net.submit(0, mid(0, n), Service::Agreed, "a");
        }
        net.submit(1, mid(1, 1), Service::Safe, "s");
        let mut delivered = vec![Vec::new(); 3];
        for _ in 0..40 {
            net.hop();
            for (i, d) in delivered.iter_mut().enumerate() {
                d.extend(net.deliveries(i));
                let r = &net.rings[i];
                assert!(r.floor() <= r.safe_line().min(r.delivered_upto()));
                let held = (r.floor() + 1..=r.high_seen()).filter(|&s| r.contains(s));
                assert_eq!(held.count(), r.store_len());
                assert!(r.window.len() as u64 <= r.high_seen() - r.floor());
            }
        }
        for (i, d) in delivered.iter().enumerate() {
            assert_eq!(d.len(), 21, "P{i} delivered everything once: {d:?}");
            assert_eq!(d, &delivered[0], "same order everywhere");
            let r = &mut net.rings[i];
            assert_eq!(
                (r.floor(), r.store_len()),
                (21, 0),
                "idle ring keeps nothing"
            );
            assert!(r.contains(7), "held, though no longer stored");
            // A late duplicate of a dropped message changes nothing.
            r.on_data(OrderedMsg {
                config: cfg(),
                seq: 7,
                id: mid(0, 7),
                service: Service::Agreed,
                payload: "a",
            });
            assert_eq!(r.store_len(), 0);
            assert!(r.pop_delivery().is_none());
        }
        let snap = net.rings.remove(0).into_snapshot();
        assert_eq!((snap.floor, snap.my_aru, snap.delivered_upto), (21, 21, 21));
        assert!(snap.store.is_empty());
    }

    #[test]
    fn corrupted_aru_poisons_instead_of_delivering() {
        let mut r: Ring<&str> = Ring::new(p(0), cfg(), vec![p(0)], 4);
        r.submit(mid(0, 1), Service::Agreed, "ok");
        assert_eq!(r.pop_delivery().unwrap().0.seq, 1);
        r.corrupt_my_aru(17);
        assert!(!r.is_poisoned(), "corruption is latent until the next use");
        assert!(r.submit(mid(0, 2), Service::Agreed, "never").is_none());
        assert!(r.is_poisoned(), "check-before-use caught the flip");
        assert!(r.pop_delivery().is_none(), "poisoned ring stops delivering");
        assert_eq!(r.pending_len(), 1, "the refused submission parked");
    }

    #[test]
    fn corrupted_high_seen_poisons_on_next_use() {
        let mut r: Ring<&str> = Ring::new(p(0), cfg(), vec![p(0), p(1)], 4);
        r.corrupt_high_seen(40);
        r.on_data(OrderedMsg {
            config: cfg(),
            seq: 1,
            id: mid(1, 1),
            service: Service::Agreed,
            payload: "m",
        });
        assert!(r.is_poisoned());
        assert_eq!(r.my_aru(), 0, "nothing was folded in");
    }

    #[test]
    fn wrapped_seq_refuses_to_stamp_past_the_ceiling() {
        let mut r: Ring<&str> = Ring::new(p(0), cfg(), vec![p(0)], 4);
        r.wrap_seq();
        assert!(r.submit(mid(0, 1), Service::Agreed, "over").is_none());
        assert!(r.is_poisoned(), "exhaustion reported, never wrapped");
    }

    #[test]
    fn absurd_token_seq_is_dropped_without_iterating() {
        // A corrupted token claiming seq near u64::MAX once steered the
        // hole-request loop into ~2^60 iterations. It must be dropped
        // fast, and must NOT poison the healthy receiver.
        let mut r: Ring<&str> = Ring::new(p(0), cfg(), vec![p(0), p(1)], 4);
        let tok = Token {
            config: cfg(),
            token_id: 5,
            seq: u64::MAX / 2,
            aru: 0,
            aru_id: None,
            rtr: Vec::new(),
            rotation: 0,
        };
        assert!(r.on_token(SimTime::from_ticks(1), tok).is_empty());
        assert!(!r.is_poisoned(), "the token holder is poisoned, not us");
        // A sane token afterwards still works.
        let sane = Token {
            config: cfg(),
            token_id: 6,
            seq: 0,
            aru: 0,
            aru_id: None,
            rtr: Vec::new(),
            rotation: 0,
        };
        assert!(!r.on_token(SimTime::from_ticks(2), sane).is_empty());
    }

    #[test]
    fn absurd_data_seq_is_dropped_without_poisoning() {
        let mut r: Ring<&str> = Ring::new(p(0), cfg(), vec![p(0), p(1)], 4);
        r.on_data(OrderedMsg {
            config: cfg(),
            seq: SEQ_CEILING + 5,
            id: mid(1, 1),
            service: Service::Agreed,
            payload: "junk",
        });
        assert!(!r.is_poisoned());
        assert_eq!(r.high_seen(), 0, "absurd ordinal not folded in");
    }

    #[test]
    fn data_beyond_the_hole_gap_is_dropped() {
        let mut r: Ring<&str> = Ring::new(p(0), cfg(), vec![p(0), p(1)], 4);
        let data = |seq| OrderedMsg {
            config: cfg(),
            seq,
            id: mid(1, seq),
            service: Service::Agreed,
            payload: "m",
        };
        r.on_data(data(1));
        assert_eq!((r.my_aru(), r.high_seen(), r.store_len()), (1, 1, 1));
        // Far below the ceiling, far above any in-flight window: stored, it
        // would hold `high_seen` above anything deliverable for good.
        r.on_data(data(r.my_aru() + MAX_HOLE_GAP + 1));
        assert_eq!((r.high_seen(), r.store_len()), (1, 1), "dropped");
        assert!(!r.is_poisoned(), "the sender is at fault, not us");
        // The edge of the gap, and ordinary traffic, still go in.
        r.on_data(data(r.my_aru() + MAX_HOLE_GAP));
        r.on_data(data(2));
        assert_eq!(
            (r.my_aru(), r.high_seen(), r.store_len()),
            (2, 1 + MAX_HOLE_GAP, 3)
        );
    }

    #[test]
    fn every_member_names_the_stamper_of_the_newest_ordinal_as_idle_holder() {
        let mut net = TestRing::new(3);
        // Nothing stamped yet: the representative.
        assert!(net.rings.iter().all(|r| r.idle_holder() == p(0)));
        net.submit(2, mid(2, 1), Service::Agreed, "a");
        net.submit(1, mid(1, 1), Service::Agreed, "b");
        drive_rotations(&mut net, 2);
        // `p(1)` stamped 1 and `p(2)` stamped 2, the newest.
        assert!(net.rings.iter().all(|r| r.idle_holder() == p(2)));
        // A late or duplicate copy of an older ordinal changes nothing,
        // and neither does a message of another configuration.
        let older = net.rings[1].stored_msg(1).cloned().expect("held");
        net.rings[0].on_data(older);
        let foreign = OrderedMsg {
            config: ConfigId::regular(9, p(0)),
            seq: 7,
            id: mid(1, 9),
            service: Service::Agreed,
            payload: "x",
        };
        net.rings[0].on_data(foreign);
        assert_eq!(net.rings[0].idle_holder(), p(2));
        net.submit(0, mid(0, 1), Service::Agreed, "c");
        drive_rotations(&mut net, 2);
        assert!(net.rings.iter().all(|r| r.idle_holder() == p(0)));
    }

    #[test]
    fn foreign_config_data_ignored() {
        let mut r: Ring<&str> = Ring::new(p(0), cfg(), vec![p(0), p(1)], 4);
        r.on_data(OrderedMsg {
            config: ConfigId::regular(99, p(1)),
            seq: 1,
            id: mid(1, 1),
            service: Service::Agreed,
            payload: "other",
        });
        assert_eq!(r.my_aru(), 0);
        assert!(r.pop_delivery().is_none());
    }

    /// A ring of three where `p(1)` submitted two safe messages, driven
    /// `warmup` hops; then the member the token goes to next gets `k`
    /// submissions, stamped in its visit or, when `held`, onto the token
    /// that visit forwards. Returns that token and that member's ring.
    fn stamp_k(warmup: usize, k: u64, held: bool) -> (Token, Ring<&'static str>) {
        let mut net = TestRing::new(3);
        net.submit(1, mid(1, 1), Service::Safe, "a");
        net.submit(1, mid(1, 2), Service::Safe, "b");
        for _ in 0..warmup {
            net.hop();
        }
        let at = net.tokens[0].0.as_usize();
        let submit = |net: &mut TestRing| {
            for c in 1..=k {
                net.submit(at, mid(at as u32, c), Service::Safe, "k");
            }
        };
        if held {
            net.hop();
            let (to, mut tok) = net.tokens.pop_front().expect("forwarded");
            submit(&mut net);
            let stamped = net.rings[at].stamp_held(&mut tok);
            assert_eq!(stamped.len() as u64, k);
            net.apply(at, stamped.into_iter().map(RingOut::Data).collect());
            net.tokens.push_back((to, tok));
        } else {
            submit(&mut net);
            net.hop();
        }
        let tok = net.tokens.pop_front().expect("forwarded").1;
        (tok, net.rings.swap_remove(at))
    }

    #[test]
    fn a_stamp_on_a_held_token_leaves_what_the_visit_would() {
        for warmup in 0..12 {
            for k in 1..=3 {
                let (visit_tok, visit) = stamp_k(warmup, k, false);
                let (held_tok, held) = stamp_k(warmup, k, true);
                let fields = |t: &Token| (t.seq, t.aru, t.aru_id, t.rotation, t.token_id);
                let state = |r: &Ring<_>| {
                    (
                        r.prev_visit_aru,
                        r.safe_line(),
                        r.my_aru(),
                        r.high_seen(),
                        r.last_forwarded.clone(),
                    )
                };
                let at = format!("warmup {warmup}, k {k}");
                assert_eq!(fields(&held_tok), fields(&visit_tok), "{at}");
                assert_eq!(state(&held), state(&visit), "{at}");
                assert_eq!(held.last_forwarded.as_ref(), Some(&held_tok), "{at}");
            }
        }
    }

    /// `p(0)`'s ring of two after its bootstrap visit, with one message
    /// pending, and the token that visit forwarded.
    fn holding() -> (Ring<&'static str>, Token) {
        let mut r = Ring::new(p(0), cfg(), vec![p(0), p(1)], 4);
        let outs = r.bootstrap_token(SimTime::from_ticks(1));
        let Some(RingOut::TokenTo(_, tok)) = outs.into_iter().last() else {
            panic!("the bootstrap visit forwards the token");
        };
        r.submit(mid(0, 1), Service::Agreed, "m");
        (r, tok)
    }

    #[test]
    fn only_the_current_unsent_forward_takes_a_held_stamp() {
        let (mut r, tok) = holding();
        let mut foreign = tok.clone();
        foreign.config = ConfigId::regular(2, p(0));
        let mut stale = tok.clone();
        stale.token_id -= 1;
        for mut other in [foreign, stale] {
            let before = other.clone();
            assert!(r.stamp_held(&mut other).is_empty());
            assert_eq!(other, before, "left alone");
        }
        // Once a retransmission of the forward went out, the token the
        // successor holds is the one without the stamp.
        r.maybe_retransmit(SimTime::from_ticks(1_000), 100, 800)
            .expect("retransmitted");
        let mut sent = tok.clone();
        assert!(r.stamp_held(&mut sent).is_empty());
        assert_eq!((sent, r.pending_len()), (tok, 1));

        let (mut r, mut tok) = holding();
        let stamped = r.stamp_held(&mut tok);
        assert_eq!(stamped.iter().map(|m| m.seq).collect::<Vec<_>>(), vec![1]);
        assert_eq!((tok.seq, tok.aru, r.pending_len()), (1, 1, 0));
        // A retransmission carries the stamp.
        match r.maybe_retransmit(SimTime::from_ticks(1_000), 100, 800) {
            Some(RingOut::TokenTo(_, again)) => assert_eq!(again, tok),
            other => panic!("no retransmission: {other:?}"),
        }
    }

    #[test]
    fn a_poisoned_or_exhausted_ring_stamps_nothing_on_a_held_token() {
        let damage: [fn(&mut Ring<&'static str>); 2] = [|r| r.corrupt_my_aru(3), |r| r.wrap_seq()];
        for damage in damage {
            let (mut r, mut tok) = holding();
            damage(&mut r);
            let before = tok.clone();
            assert!(r.stamp_held(&mut tok).is_empty());
            assert_eq!((tok, r.pending_len()), (before, 1));
            assert!(r.is_poisoned());
        }
    }
}
