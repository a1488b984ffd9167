//! The low-level membership algorithm.
//!
//! The paper assumes "a low-level membership algorithm to determine the
//! processes that are members of its component" whose installed
//! configurations carry unique identifiers agreed by all members (§2), and
//! whose proposed configuration shrinks if it cannot be installed within a
//! bounded time (§3, Termination Property). This module implements such an
//! algorithm in the style of the Transis/Totem membership protocols the
//! paper cites:
//!
//! 1. **Failure/partition detection.** Every process periodically broadcasts
//!    a heartbeat carrying its current configuration id. A missing heartbeat
//!    from a member, or a *foreign* heartbeat (from a non-member, or a
//!    member whose configuration differs), triggers a reconfiguration.
//! 2. **Gather.** Processes broadcast `Join` messages carrying their
//!    candidate sets and merge the sets they receive. When a process's
//!    candidate set has been stable for a quiet period and every candidate
//!    has echoed exactly that set, consensus on the membership is reached.
//! 3. **Commit.** The representative (smallest candidate) assigns the new
//!    configuration identifier — `(max epoch seen by any candidate) + 1` —
//!    and runs a commit/ack/install round. Every member that receives the
//!    install learns an identical `(id, members)` pair.
//!
//! Termination follows the paper's required property: every waiting state
//! has a timeout whose expiry *removes* unresponsive processes from the
//! candidate set, so the proposed membership shrinks monotonically until it
//! can be installed (in the worst case, as a singleton).
//!
//! The state machine is sans-I/O: it consumes `on_message`/`tick` calls and
//! returns [`MembOut`] effects, so it can run under the deterministic
//! simulator or any real transport.

use crate::{ConfigId, ProposedConfig};
use evs_sim::{ProcessId, SimTime};
use evs_telemetry::{Telemetry, TelemetryEvent};
use std::collections::{BTreeMap, BTreeSet};

/// Wire messages of the membership protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MembMsg {
    /// Periodic liveness beacon, carrying the sender's current configuration.
    Heartbeat {
        /// The sender's currently installed configuration id.
        config: ConfigId,
    },
    /// Gather-stage proposal: "I believe these processes are my component."
    Join {
        /// The sender's current candidate set.
        candidates: BTreeSet<ProcessId>,
        /// The largest configuration epoch the sender has ever observed,
        /// used so the new configuration's epoch exceeds every member's
        /// history (including epochs recovered from stable storage).
        max_epoch: u64,
    },
    /// The representative proposes the agreed configuration.
    Commit {
        /// Identifier of the proposed configuration.
        config: ConfigId,
        /// Sorted membership of the proposed configuration.
        members: Vec<ProcessId>,
    },
    /// A member acknowledges a `Commit` back to the representative.
    Ack {
        /// Identifier being acknowledged.
        config: ConfigId,
    },
    /// The representative announces that all members acknowledged.
    Install {
        /// Identifier of the configuration to install.
        config: ConfigId,
    },
}

/// Effects requested by the membership state machine.
#[derive(Debug)]
pub enum MembOut {
    /// Broadcast a protocol message to the component.
    Broadcast(MembMsg),
    /// Send a protocol message to one process.
    Send(ProcessId, MembMsg),
    /// The process has left the stable state and is forming a new
    /// configuration; the upper layer should stop originating new messages
    /// (EVS recovery Step 2 starts when the proposal arrives).
    GatherStarted,
    /// Agreement reached: all members of the proposal install the same
    /// `(id, members)` pair. The upper layer now runs the EVS recovery
    /// algorithm among these members.
    Propose(ProposedConfig),
}

/// Timing parameters of the membership protocol, in simulator ticks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MembershipParams {
    /// Interval between heartbeats (and between Join rebroadcasts while
    /// gathering).
    pub hb_interval: u64,
    /// A member not heard from for this long is suspected and removed.
    pub suspect_timeout: u64,
    /// The candidate set must be unchanged for this long (and echoed by all
    /// candidates) before the representative commits.
    pub gather_stable: u64,
    /// How long to wait in the commit round before shrinking the candidate
    /// set and retrying.
    pub commit_timeout: u64,
}

impl Default for MembershipParams {
    fn default() -> Self {
        MembershipParams {
            hb_interval: 64,
            suspect_timeout: 300,
            gather_stable: 100,
            commit_timeout: 400,
        }
    }
}

#[derive(Debug)]
enum State {
    /// Operating in an installed configuration.
    Stable,
    /// Converging on a candidate set.
    Gather {
        candidates: BTreeSet<ProcessId>,
        /// Last candidate set echoed by each candidate (via `Join`).
        joins: BTreeMap<ProcessId, BTreeSet<ProcessId>>,
        /// Largest epoch reported by each candidate.
        epochs: BTreeMap<ProcessId, u64>,
        /// When the candidate set last changed.
        stable_since: SimTime,
        /// When we last broadcast our own `Join`.
        last_join_sent: Option<SimTime>,
        /// Set when we (as non-representative) observed stability and are
        /// waiting for the representative's `Commit`.
        awaiting_commit_since: Option<SimTime>,
    },
    /// Commit round in progress.
    Commit {
        proposal: ProposedConfig,
        /// Acks received so far (representative only).
        acks: BTreeSet<ProcessId>,
        started: SimTime,
        /// True at the representative.
        leading: bool,
    },
}

/// The per-process membership state machine.
///
/// Drive it with [`Membership::tick`] (periodically) and
/// [`Membership::on_message`] (for every [`MembMsg`] received), and apply
/// the returned [`MembOut`] effects. The upper layer may also call
/// [`Membership::force_reconfigure`] when it detects trouble the heartbeat
/// layer cannot see (e.g. total-order token loss).
#[derive(Debug)]
pub struct Membership {
    me: ProcessId,
    params: MembershipParams,
    /// Largest configuration epoch ever observed; the caller persists this
    /// across crashes (via `max_epoch`/`new`'s argument) so identifiers stay
    /// monotone for recovered processes.
    max_epoch: u64,
    /// Currently installed configuration (agreement-level view; the EVS
    /// layer's *delivered* configuration may lag during recovery).
    view: ProposedConfig,
    view_since: SimTime,
    state: State,
    /// Last time any protocol message was received from each process.
    last_heard: BTreeMap<ProcessId, SimTime>,
    last_hb_sent: Option<SimTime>,
    telemetry: Telemetry,
}

impl Membership {
    /// Creates a membership instance for process `me`, starting in the given
    /// installed view (normally [`ProposedConfig::singleton`]).
    ///
    /// `max_epoch` must be at least `view.id.epoch`; a recovered process
    /// passes the value it persisted to stable storage.
    ///
    /// # Panics
    ///
    /// Panics if `me` is not a member of `view` or `max_epoch` is less than
    /// the view's epoch.
    pub fn new(
        me: ProcessId,
        view: ProposedConfig,
        max_epoch: u64,
        params: MembershipParams,
        now: SimTime,
    ) -> Self {
        assert!(view.contains(me), "{me} must be in its own view");
        assert!(max_epoch >= view.id.epoch, "max_epoch below view epoch");
        Membership {
            me,
            params,
            max_epoch,
            view,
            view_since: now,
            state: State::Stable,
            last_heard: BTreeMap::new(),
            last_hb_sent: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle for state-transition and configuration
    /// events.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    fn state_name(&self) -> &'static str {
        match self.state {
            State::Stable => "stable",
            State::Gather { .. } => "gather",
            State::Commit { .. } => "commit",
        }
    }

    fn record_transition(&self, now: SimTime, to: &'static str) {
        self.telemetry.record(
            now.ticks(),
            TelemetryEvent::MembershipTransition {
                from: self.state_name(),
                to,
            },
        );
    }

    /// The currently installed (agreement-level) configuration.
    pub fn view(&self) -> &ProposedConfig {
        &self.view
    }

    /// The largest configuration epoch observed so far. Persist this to
    /// stable storage; feed it back into [`Membership::new`] on recovery.
    pub fn max_epoch(&self) -> u64 {
        self.max_epoch
    }

    /// Returns true if the process is in an installed configuration (not
    /// gathering or committing).
    pub fn is_stable(&self) -> bool {
        matches!(self.state, State::Stable)
    }

    /// Periodic driver; call at least every `hb_interval` ticks.
    #[must_use]
    pub fn tick(&mut self, now: SimTime) -> Vec<MembOut> {
        let mut out = Vec::new();
        self.heartbeat(now, &mut out);
        match &mut self.state {
            State::Stable => {
                let suspects = self.suspected_members(now);
                if !suspects.is_empty() {
                    self.start_gather(now, &mut out);
                }
            }
            State::Gather { .. } => self.gather_tick(now, &mut out),
            State::Commit {
                started, proposal, ..
            } => {
                if now.since(*started) > self.params.commit_timeout {
                    // Commit round failed: shrink to those we are sure of
                    // (ourselves) plus everyone recently heard, and retry.
                    // The paper's termination property only needs the set to
                    // shrink when the *same* processes stay silent, which
                    // `prune_candidates` enforces on the next rounds.
                    let _ = proposal;
                    self.start_gather(now, &mut out);
                }
            }
        }
        out
    }

    /// The earliest instant at which [`Membership::tick`] has scheduled
    /// work to do: the next heartbeat, the first suspicion expiry, a join
    /// rebroadcast, the gather quiet window closing, or a commit retry.
    /// Event-driven drivers park until this deadline instead of polling on
    /// a fixed cadence; calling `tick` earlier is harmless (it no-ops), so
    /// the value only needs to be a lower bound that is never *late*.
    pub fn next_deadline(&self, now: SimTime) -> SimTime {
        let mut d = match self.last_hb_sent {
            None => now,
            Some(t) => t + self.params.hb_interval,
        };
        let horizon = self.params.suspect_timeout;
        // A process stops being "heard recently" one tick after its
        // horizon closes (`since > horizon` in `heard_recently`).
        let expiry = |q: ProcessId| match self.last_heard.get(&q) {
            Some(&t) => t + (horizon + 1),
            None => self.view_since + (horizon + 1),
        };
        match &self.state {
            State::Stable => {
                for &q in &self.view.members {
                    if q != self.me {
                        d = d.min(expiry(q));
                    }
                }
            }
            State::Gather {
                candidates,
                stable_since,
                last_join_sent,
                awaiting_commit_since,
                ..
            } => {
                d = d.min(match last_join_sent {
                    None => now,
                    Some(t) => *t + self.params.hb_interval,
                });
                d = d.min(*stable_since + self.params.gather_stable);
                if let Some(t) = awaiting_commit_since {
                    d = d.min(*t + (self.params.commit_timeout + 1));
                }
                for &c in candidates {
                    if c != self.me {
                        d = d.min(expiry(c));
                    }
                }
            }
            State::Commit { started, .. } => {
                d = d.min(*started + (self.params.commit_timeout + 1));
            }
        }
        d.max(now)
    }

    /// Handles a received membership message.
    #[must_use]
    pub fn on_message(&mut self, now: SimTime, from: ProcessId, msg: MembMsg) -> Vec<MembOut> {
        let mut out = Vec::new();
        if from != self.me {
            self.last_heard.insert(from, now);
        }
        match msg {
            MembMsg::Heartbeat { config } => self.on_heartbeat(now, from, config, &mut out),
            MembMsg::Join {
                candidates,
                max_epoch,
            } => self.on_join(now, from, candidates, max_epoch, &mut out),
            MembMsg::Commit { config, members } => {
                self.on_commit(now, from, config, members, &mut out)
            }
            MembMsg::Ack { config } => self.on_ack(now, from, config, &mut out),
            MembMsg::Install { config } => self.on_install(now, from, config, &mut out),
        }
        out
    }

    /// Forces the process out of its installed view and into a gather round,
    /// e.g. because the total-order layer lost its token.
    #[must_use]
    pub fn force_reconfigure(&mut self, now: SimTime) -> Vec<MembOut> {
        let mut out = Vec::new();
        self.start_gather(now, &mut out);
        out
    }

    fn heartbeat(&mut self, now: SimTime, out: &mut Vec<MembOut>) {
        let due = match self.last_hb_sent {
            None => true,
            Some(t) => now.since(t) >= self.params.hb_interval,
        };
        if due {
            self.last_hb_sent = Some(now);
            out.push(MembOut::Broadcast(MembMsg::Heartbeat {
                config: self.view.id,
            }));
        }
    }

    fn heard_recently(&self, q: ProcessId, now: SimTime) -> bool {
        let horizon = self.params.suspect_timeout;
        match self.last_heard.get(&q) {
            Some(&t) => now.since(t) <= horizon,
            // Grace period from view installation for members we have not
            // heard from yet.
            None => now.since(self.view_since) <= horizon,
        }
    }

    fn suspected_members(&self, now: SimTime) -> Vec<ProcessId> {
        self.view
            .members
            .iter()
            .copied()
            .filter(|&q| q != self.me && !self.heard_recently(q, now))
            .collect()
    }

    fn start_gather(&mut self, now: SimTime, out: &mut Vec<MembOut>) {
        // Seed with ourselves plus every process heard from recently —
        // whether or not it is in the current view — so merges converge
        // quickly.
        let mut candidates: BTreeSet<ProcessId> = BTreeSet::new();
        candidates.insert(self.me);
        let horizon = self.params.suspect_timeout;
        for (&q, &t) in &self.last_heard {
            if now.since(t) <= horizon {
                candidates.insert(q);
            }
        }
        let mut epochs = BTreeMap::new();
        epochs.insert(self.me, self.max_epoch);
        self.record_transition(now, "gather");
        self.state = State::Gather {
            candidates,
            joins: BTreeMap::new(),
            epochs,
            stable_since: now,
            last_join_sent: None,
            awaiting_commit_since: None,
        };
        out.push(MembOut::GatherStarted);
        self.send_join(now, out);
    }

    fn send_join(&mut self, now: SimTime, out: &mut Vec<MembOut>) {
        if let State::Gather {
            candidates,
            joins,
            last_join_sent,
            ..
        } = &mut self.state
        {
            *last_join_sent = Some(now);
            joins.insert(self.me, candidates.clone());
            out.push(MembOut::Broadcast(MembMsg::Join {
                candidates: candidates.clone(),
                max_epoch: self.max_epoch,
            }));
        }
    }

    fn gather_tick(&mut self, now: SimTime, out: &mut Vec<MembOut>) {
        self.prune_candidates(now);
        let State::Gather {
            candidates,
            joins,
            epochs,
            stable_since,
            last_join_sent,
            awaiting_commit_since,
        } = &mut self.state
        else {
            return;
        };
        // Rebroadcast Join periodically so losses heal.
        let join_due = match *last_join_sent {
            None => true,
            Some(t) => now.since(t) >= self.params.hb_interval,
        };
        // Consensus test: set stable for the quiet period and echoed by all.
        let all_echo = candidates
            .iter()
            .all(|c| joins.get(c).is_some_and(|s| s == candidates));
        let quiet = now.since(*stable_since) >= self.params.gather_stable;
        if all_echo && quiet {
            let rep = *candidates.iter().next().expect("candidates include me");
            if rep == self.me {
                // We are the representative: assign the identifier and run
                // the commit round.
                let epoch = candidates
                    .iter()
                    .filter_map(|c| epochs.get(c))
                    .copied()
                    .max()
                    .unwrap_or(self.max_epoch)
                    .max(self.max_epoch)
                    + 1;
                self.max_epoch = epoch;
                let members: Vec<ProcessId> = candidates.iter().copied().collect();
                let proposal = ProposedConfig::new(ConfigId::regular(epoch, rep), members.clone());
                let mut acks = BTreeSet::new();
                acks.insert(self.me);
                let config = proposal.id;
                self.record_transition(now, "commit");
                self.telemetry.record(
                    now.ticks(),
                    TelemetryEvent::ConfigCommitted {
                        epoch: config.epoch,
                        rep: config.rep.index(),
                        members: members.len() as u32,
                    },
                );
                self.state = State::Commit {
                    proposal,
                    acks,
                    started: now,
                    leading: true,
                };
                out.push(MembOut::Broadcast(MembMsg::Commit { config, members }));
                // A solitary process needs no acks.
                self.try_finish_commit(now, out);
            } else {
                // Wait for the representative's Commit; if it never comes,
                // drop the representative and regather.
                match *awaiting_commit_since {
                    None => *awaiting_commit_since = Some(now),
                    Some(t) if now.since(t) > self.params.commit_timeout => {
                        let stale_rep = rep;
                        self.last_heard.remove(&stale_rep);
                        self.start_gather(now, out);
                        return;
                    }
                    Some(_) => {}
                }
                if join_due {
                    self.send_join(now, out);
                }
            }
        } else if join_due {
            self.send_join(now, out);
        }
    }

    fn prune_candidates(&mut self, now: SimTime) {
        let me = self.me;
        let horizon = self.params.suspect_timeout;
        let last_heard = &self.last_heard;
        if let State::Gather {
            candidates,
            joins,
            epochs,
            stable_since,
            awaiting_commit_since,
            ..
        } = &mut self.state
        {
            let before = candidates.len();
            candidates.retain(|&c| {
                c == me || last_heard.get(&c).is_some_and(|&t| now.since(t) <= horizon)
            });
            if candidates.len() != before {
                joins.retain(|c, _| candidates.contains(c));
                epochs.retain(|c, _| candidates.contains(c));
                *stable_since = now;
                *awaiting_commit_since = None;
            }
        }
    }

    fn on_heartbeat(
        &mut self,
        now: SimTime,
        from: ProcessId,
        config: ConfigId,
        out: &mut Vec<MembOut>,
    ) {
        if from == self.me {
            return;
        }
        self.max_epoch = self.max_epoch.max(config.epoch);
        if matches!(self.state, State::Stable) {
            let foreign = !self.view.contains(from) || config != self.view.id;
            if foreign {
                self.start_gather(now, out);
            }
        }
    }

    fn on_join(
        &mut self,
        now: SimTime,
        from: ProcessId,
        their_candidates: BTreeSet<ProcessId>,
        their_epoch: u64,
        out: &mut Vec<MembOut>,
    ) {
        if from == self.me {
            return;
        }
        self.max_epoch = self.max_epoch.max(their_epoch);
        if matches!(self.state, State::Stable) {
            self.start_gather(now, out);
        }
        let mut changed = false;
        let me = self.me;
        let horizon = self.params.suspect_timeout;
        let last_heard = &self.last_heard;
        if let State::Gather {
            candidates,
            joins,
            epochs,
            stable_since,
            awaiting_commit_since,
            ..
        } = &mut self.state
        {
            joins.insert(from, their_candidates.clone());
            epochs.insert(from, their_epoch);
            for q in their_candidates.into_iter().chain([from]) {
                // Admit a merged-in candidate only under the same liveness
                // rule `start_gather` and `prune_candidates` use: heard from
                // directly within the suspicion horizon. Without the filter,
                // two reachable processes can reinfect each other with an
                // unreachable third forever — each re-add triggers an instant
                // Join rebroadcast carrying the ghost, the other side prunes
                // it and re-adds it from that Join, and the candidate set
                // never stays still long enough to commit. (The sender itself
                // is always fresh: hearing this Join updated `last_heard`.)
                let fresh = q == me
                    || q == from
                    || last_heard.get(&q).is_some_and(|&t| now.since(t) <= horizon);
                if fresh {
                    changed |= candidates.insert(q);
                }
            }
            if changed {
                *stable_since = now;
                *awaiting_commit_since = None;
            }
        }
        if changed {
            self.send_join(now, out);
        }
    }

    fn on_commit(
        &mut self,
        now: SimTime,
        from: ProcessId,
        config: ConfigId,
        members: Vec<ProcessId>,
        out: &mut Vec<MembOut>,
    ) {
        // Accept a commit if we are included, it comes from its own
        // representative, and it is newer than what we have installed.
        let sorted = {
            let mut m = members;
            m.sort_unstable();
            m
        };
        let valid = sorted.first() == Some(&from)
            && config.rep == from
            && config.is_regular()
            && sorted.binary_search(&self.me).is_ok()
            && config.epoch > self.view.id.epoch;
        if !valid {
            return;
        }
        // If we are already waiting on a different commit, prefer the larger
        // identifier (deterministic tie-break; the loser's round times out).
        if let State::Commit {
            proposal, leading, ..
        } = &self.state
        {
            if *leading || proposal.id >= config {
                return;
            }
        }
        self.max_epoch = self.max_epoch.max(config.epoch);
        let proposal = ProposedConfig::new(config, sorted);
        self.record_transition(now, "commit");
        self.telemetry.record(
            now.ticks(),
            TelemetryEvent::ConfigCommitted {
                epoch: config.epoch,
                rep: config.rep.index(),
                members: proposal.members.len() as u32,
            },
        );
        self.state = State::Commit {
            proposal,
            acks: BTreeSet::new(),
            started: now,
            leading: false,
        };
        out.push(MembOut::Send(from, MembMsg::Ack { config }));
    }

    fn on_ack(&mut self, now: SimTime, from: ProcessId, config: ConfigId, out: &mut Vec<MembOut>) {
        if let State::Commit {
            proposal,
            acks,
            leading: true,
            ..
        } = &mut self.state
        {
            if proposal.id == config {
                acks.insert(from);
                self.try_finish_commit(now, out);
            }
        }
    }

    fn try_finish_commit(&mut self, now: SimTime, out: &mut Vec<MembOut>) {
        if let State::Commit {
            proposal,
            acks,
            leading: true,
            ..
        } = &self.state
        {
            if proposal.members.iter().all(|m| acks.contains(m)) {
                let config = proposal.id;
                out.push(MembOut::Broadcast(MembMsg::Install { config }));
                self.install(now, out);
            }
        }
    }

    fn on_install(
        &mut self,
        now: SimTime,
        from: ProcessId,
        config: ConfigId,
        out: &mut Vec<MembOut>,
    ) {
        if let State::Commit {
            proposal,
            leading: false,
            ..
        } = &self.state
        {
            if proposal.id == config && from == config.rep {
                self.install(now, out);
            }
        }
    }

    fn install(&mut self, now: SimTime, out: &mut Vec<MembOut>) {
        self.record_transition(now, "stable");
        let State::Commit { proposal, .. } = std::mem::replace(&mut self.state, State::Stable)
        else {
            unreachable!("install is only reached from the commit state");
        };
        self.telemetry.record(
            now.ticks(),
            TelemetryEvent::ConfigInstalled {
                epoch: proposal.id.epoch,
                rep: proposal.id.rep.index(),
                members: proposal.members.len() as u32,
            },
        );
        self.view = proposal.clone();
        self.view_since = now;
        // Members owe us no heartbeat before the new view's grace period.
        for &m in &proposal.members {
            self.last_heard.entry(m).or_insert(now);
        }
        out.push(MembOut::Propose(proposal));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// A tiny in-test harness: perfectly reliable instant delivery with a
    /// connectivity filter, driven tick by tick. (Full lossy-network testing
    /// happens in the EVS engine's integration tests on top of `evs-sim`.)
    struct Net {
        procs: Vec<Membership>,
        now: SimTime,
        /// component label per process
        comp: Vec<u32>,
        proposals: Vec<Vec<ProposedConfig>>,
    }

    impl Net {
        fn new(n: u32) -> Self {
            let now = SimTime::ZERO;
            Net {
                procs: (0..n)
                    .map(|i| {
                        Membership::new(
                            p(i),
                            ProposedConfig::singleton(0, p(i)),
                            0,
                            MembershipParams::default(),
                            now,
                        )
                    })
                    .collect(),
                now,
                comp: vec![0; n as usize],
                proposals: vec![Vec::new(); n as usize],
            }
        }

        fn step(&mut self, ticks: u64) {
            for _ in 0..ticks {
                self.now += 8;
                let mut inbox: Vec<(usize, ProcessId, MembMsg)> = Vec::new();
                for i in 0..self.procs.len() {
                    let outs = self.procs[i].tick(self.now);
                    self.route(i, outs, &mut inbox);
                }
                // Deliver until quiescent within this tick.
                while !inbox.is_empty() {
                    let batch = std::mem::take(&mut inbox);
                    for (to, from, msg) in batch {
                        let outs = self.procs[to].on_message(self.now, from, msg);
                        self.route(to, outs, &mut inbox);
                    }
                }
            }
        }

        fn route(
            &mut self,
            from: usize,
            outs: Vec<MembOut>,
            inbox: &mut Vec<(usize, ProcessId, MembMsg)>,
        ) {
            for o in outs {
                match o {
                    MembOut::Broadcast(msg) => {
                        for to in 0..self.procs.len() {
                            if to != from && self.comp[to] == self.comp[from] {
                                inbox.push((to, p(from as u32), msg.clone()));
                            }
                        }
                    }
                    MembOut::Send(to, msg) => {
                        if self.comp[to.as_usize()] == self.comp[from] {
                            inbox.push((to.as_usize(), p(from as u32), msg));
                        }
                    }
                    MembOut::GatherStarted => {}
                    MembOut::Propose(cfg) => self.proposals[from].push(cfg),
                }
            }
        }

        fn views(&self) -> Vec<&ProposedConfig> {
            self.procs.iter().map(|m| m.view()).collect()
        }
    }

    #[test]
    fn all_processes_converge_to_one_view() {
        let mut net = Net::new(4);
        net.step(400);
        let views = net.views();
        for v in &views {
            assert_eq!(v.members, vec![p(0), p(1), p(2), p(3)], "view {v}");
            assert_eq!(v.id, views[0].id);
        }
        assert!(net.procs.iter().all(|m| m.is_stable()));
    }

    #[test]
    fn singleton_stays_stable() {
        let mut net = Net::new(1);
        net.step(100);
        // A solitary process first installs a view of itself; it may have
        // re-gathered at startup but must end stable and alone.
        assert_eq!(net.views()[0].members, vec![p(0)]);
        assert!(net.procs[0].is_stable());
    }

    #[test]
    fn partition_splits_views() {
        let mut net = Net::new(4);
        net.step(400);
        net.comp = vec![0, 0, 1, 1];
        net.step(400);
        let views = net.views();
        assert_eq!(views[0].members, vec![p(0), p(1)]);
        assert_eq!(views[1].members, vec![p(0), p(1)]);
        assert_eq!(views[2].members, vec![p(2), p(3)]);
        assert_eq!(views[3].members, vec![p(2), p(3)]);
        assert_eq!(views[0].id, views[1].id);
        assert_eq!(views[2].id, views[3].id);
        assert_ne!(views[0].id, views[2].id, "concurrent configs differ");
    }

    #[test]
    fn merge_rejoins_views() {
        let mut net = Net::new(4);
        net.step(400);
        net.comp = vec![0, 0, 1, 1];
        net.step(400);
        net.comp = vec![0, 0, 0, 0];
        net.step(500);
        let views = net.views();
        for v in &views {
            assert_eq!(v.members, vec![p(0), p(1), p(2), p(3)]);
            assert_eq!(v.id, views[0].id);
        }
    }

    #[test]
    fn epochs_strictly_increase_per_process() {
        let mut net = Net::new(3);
        net.step(300);
        let e1 = net.views()[0].id.epoch;
        net.comp = vec![0, 1, 1];
        net.step(400);
        net.comp = vec![0, 0, 0];
        net.step(500);
        let e2 = net.views()[0].id.epoch;
        assert!(e2 > e1, "epoch must grow: {e1} -> {e2}");
    }

    #[test]
    fn proposal_history_agrees_on_membership_per_id() {
        // Across everything the processes ever proposed, a given ConfigId
        // always maps to the same membership (the paper's agreement
        // requirement).
        let mut net = Net::new(5);
        net.step(300);
        net.comp = vec![0, 0, 1, 1, 1];
        net.step(400);
        net.comp = vec![0, 0, 0, 0, 0];
        net.step(500);
        let mut by_id: BTreeMap<ConfigId, Vec<ProcessId>> = BTreeMap::new();
        for proposals in &net.proposals {
            for cfg in proposals {
                let prev = by_id.insert(cfg.id, cfg.members.clone());
                if let Some(prev) = prev {
                    assert_eq!(prev, cfg.members, "membership disagreement for {}", cfg.id);
                }
            }
        }
        assert!(!by_id.is_empty());
    }

    #[test]
    fn force_reconfigure_leaves_stable_state() {
        let mut net = Net::new(2);
        net.step(300);
        assert!(net.procs[0].is_stable());
        let outs = net.procs[0].force_reconfigure(net.now);
        assert!(matches!(outs[0], MembOut::GatherStarted));
        assert!(!net.procs[0].is_stable());
        // And it converges again.
        net.step(300);
        assert!(net.procs[0].is_stable());
        assert_eq!(net.views()[0].members, vec![p(0), p(1)]);
    }

    #[test]
    fn crashed_member_is_excluded() {
        let mut net = Net::new(3);
        net.step(300);
        // "Crash" p2 by disconnecting it and silencing it (its component is
        // unreachable and it never ticks again).
        net.comp = vec![0, 0, 9];
        // Only tick p0 and p1 from here on.
        for _ in 0..220 {
            net.now += 8;
            let mut inbox = Vec::new();
            for i in 0..2 {
                let outs = net.procs[i].tick(net.now);
                net.route(i, outs, &mut inbox);
            }
            while !inbox.is_empty() {
                let batch = std::mem::take(&mut inbox);
                for (to, from, msg) in batch {
                    if to < 2 {
                        let outs = net.procs[to].on_message(net.now, from, msg);
                        net.route(to, outs, &mut inbox);
                    }
                }
            }
        }
        assert_eq!(net.views()[0].members, vec![p(0), p(1)]);
        assert_eq!(net.views()[1].members, vec![p(0), p(1)]);
    }
}

#[cfg(test)]
mod state_machine_tests {
    //! Targeted tests of individual protocol paths, driving one state
    //! machine directly (no network).

    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn fresh(i: u32, now: SimTime) -> Membership {
        Membership::new(
            p(i),
            ProposedConfig::singleton(0, p(i)),
            0,
            MembershipParams::default(),
            now,
        )
    }

    fn t(n: u64) -> SimTime {
        SimTime::from_ticks(n)
    }

    /// Extracts the first broadcast message of a given shape.
    fn find_commit(outs: &[MembOut]) -> Option<(ConfigId, Vec<ProcessId>)> {
        outs.iter().find_map(|o| match o {
            MembOut::Broadcast(MembMsg::Commit { config, members }) => {
                Some((*config, members.clone()))
            }
            _ => None,
        })
    }

    #[test]
    fn lone_process_self_installs_after_foreign_silence() {
        let mut m = fresh(0, t(0));
        let mut outs = m.force_reconfigure(t(10));
        assert!(matches!(outs[0], MembOut::GatherStarted));
        // Gather alone: after the stability window the singleton commits to
        // itself immediately (no acks needed).
        let mut now = t(10);
        let mut proposed = None;
        for _ in 0..100 {
            now += 16;
            outs = m.tick(now);
            if let Some(cfg) = outs.iter().find_map(|o| match o {
                MembOut::Propose(c) => Some(c.clone()),
                _ => None,
            }) {
                proposed = Some(cfg);
                break;
            }
        }
        let cfg = proposed.expect("singleton re-installs by itself");
        assert_eq!(cfg.members, vec![p(0)]);
        assert!(cfg.id.epoch >= 1);
        assert!(m.is_stable());
    }

    #[test]
    fn commit_from_leader_is_acked_and_installed() {
        let mut m = fresh(1, t(0));
        let commit_cfg = ConfigId::regular(5, p(0));
        // A valid commit from the representative P0 including us.
        let outs = m.on_message(
            t(5),
            p(0),
            MembMsg::Commit {
                config: commit_cfg,
                members: vec![p(0), p(1)],
            },
        );
        assert!(
            outs.iter().any(|o| matches!(
                o,
                MembOut::Send(to, MembMsg::Ack { config }) if *to == p(0) && *config == commit_cfg
            )),
            "{outs:?}"
        );
        // Install completes it.
        let outs = m.on_message(t(6), p(0), MembMsg::Install { config: commit_cfg });
        assert!(outs
            .iter()
            .any(|o| matches!(o, MembOut::Propose(c) if c.id == commit_cfg)));
        assert_eq!(m.view().id, commit_cfg);
    }

    #[test]
    fn commit_not_from_representative_is_ignored() {
        let mut m = fresh(1, t(0));
        // P2 claims a config whose representative is P0: invalid.
        let outs = m.on_message(
            t(5),
            p(2),
            MembMsg::Commit {
                config: ConfigId::regular(5, p(0)),
                members: vec![p(0), p(1), p(2)],
            },
        );
        assert!(outs.is_empty(), "{outs:?}");
    }

    #[test]
    fn commit_excluding_us_is_ignored() {
        let mut m = fresh(1, t(0));
        let outs = m.on_message(
            t(5),
            p(0),
            MembMsg::Commit {
                config: ConfigId::regular(5, p(0)),
                members: vec![p(0), p(2)],
            },
        );
        assert!(outs.is_empty(), "{outs:?}");
    }

    #[test]
    fn stale_epoch_commit_is_ignored() {
        let mut m = fresh(1, t(0));
        // Install epoch 5 first.
        let cfg5 = ConfigId::regular(5, p(0));
        let _ = m.on_message(
            t(1),
            p(0),
            MembMsg::Commit {
                config: cfg5,
                members: vec![p(0), p(1)],
            },
        );
        let _ = m.on_message(t(2), p(0), MembMsg::Install { config: cfg5 });
        assert_eq!(m.view().id.epoch, 5);
        // An older commit (epoch 3) must be rejected.
        let outs = m.on_message(
            t(3),
            p(0),
            MembMsg::Commit {
                config: ConfigId::regular(3, p(0)),
                members: vec![p(0), p(1)],
            },
        );
        assert!(outs.is_empty(), "{outs:?}");
        assert_eq!(m.view().id.epoch, 5);
    }

    #[test]
    fn competing_commits_prefer_larger_identifier() {
        let mut m = fresh(2, t(0));
        let low = ConfigId::regular(5, p(0));
        let high = ConfigId::regular(5, p(1));
        let _ = m.on_message(
            t(1),
            p(0),
            MembMsg::Commit {
                config: low,
                members: vec![p(0), p(2)],
            },
        );
        // A competing commit with a larger id supersedes the pending one...
        let outs = m.on_message(
            t(2),
            p(1),
            MembMsg::Commit {
                config: high,
                members: vec![p(1), p(2)],
            },
        );
        assert!(
            outs.iter().any(|o| matches!(
                o,
                MembOut::Send(to, MembMsg::Ack { config }) if *to == p(1) && *config == high
            )),
            "{outs:?}"
        );
        // ...and the superseded install is now ignored.
        let outs = m.on_message(t(3), p(0), MembMsg::Install { config: low });
        assert!(outs.is_empty(), "{outs:?}");
        // The preferred one installs.
        let outs = m.on_message(t(4), p(1), MembMsg::Install { config: high });
        assert!(outs
            .iter()
            .any(|o| matches!(o, MembOut::Propose(c) if c.id == high)));
    }

    #[test]
    fn commit_timeout_regathers() {
        let mut m = fresh(1, t(0));
        let cfg = ConfigId::regular(5, p(0));
        let _ = m.on_message(
            t(1),
            p(0),
            MembMsg::Commit {
                config: cfg,
                members: vec![p(0), p(1)],
            },
        );
        assert!(!m.is_stable());
        // No install ever arrives: after the commit timeout the process
        // must start gathering again (termination property).
        let params = MembershipParams::default();
        let outs = m.tick(t(2 + params.commit_timeout + 1));
        assert!(
            outs.iter().any(|o| matches!(o, MembOut::GatherStarted)),
            "{outs:?}"
        );
    }

    #[test]
    fn heartbeats_are_periodic() {
        let mut m = fresh(0, t(0));
        let outs = m.tick(t(1));
        assert!(outs
            .iter()
            .any(|o| matches!(o, MembOut::Broadcast(MembMsg::Heartbeat { .. }))));
        // Immediately after: no duplicate heartbeat.
        let outs = m.tick(t(2));
        assert!(!outs
            .iter()
            .any(|o| matches!(o, MembOut::Broadcast(MembMsg::Heartbeat { .. }))));
        // After the interval: another one.
        let outs = m.tick(t(2 + MembershipParams::default().hb_interval));
        assert!(outs
            .iter()
            .any(|o| matches!(o, MembOut::Broadcast(MembMsg::Heartbeat { .. }))));
    }

    #[test]
    fn leader_commits_after_stable_gather() {
        // Drive P0 (the eventual leader) with Joins from P1 echoing the
        // same candidate set.
        let mut m = fresh(0, t(0));
        let set: BTreeSet<ProcessId> = [p(0), p(1)].into_iter().collect();
        let _ = m.force_reconfigure(t(1));
        let _ = m.on_message(
            t(2),
            p(1),
            MembMsg::Join {
                candidates: set.clone(),
                max_epoch: 7,
            },
        );
        // Wait out the stability window, ticking.
        let params = MembershipParams::default();
        let mut commit = None;
        let mut now = t(2);
        for _ in 0..60 {
            now += params.hb_interval / 2;
            let outs = m.tick(now);
            if let Some(c) = find_commit(&outs) {
                commit = Some(c);
                break;
            }
            // Keep P1's liveness fresh so it is not pruned.
            let _ = m.on_message(
                now,
                p(1),
                MembMsg::Join {
                    candidates: set.clone(),
                    max_epoch: 7,
                },
            );
        }
        let (config, members) = commit.expect("leader commits");
        assert_eq!(members, vec![p(0), p(1)]);
        assert_eq!(config.rep, p(0));
        assert!(
            config.epoch > 7,
            "epoch exceeds every epoch seen (got {})",
            config.epoch
        );
    }
}
