//! A sequencer-based total-order engine: the classic Isis-style `abcast`
//! baseline the token ring is usually compared against.
//!
//! One distinguished member (the lowest id) is the *sequencer*. Senders
//! broadcast their payloads unordered; the sequencer assigns ordinals and
//! broadcasts ordering announcements; members deliver in ordinal order once
//! they hold both the payload and its ordinal. For safe delivery, members
//! acknowledge their contiguous receipt prefix to the sequencer, which
//! aggregates the minimum and announces the safe line.
//!
//! This engine exists as a **baseline** for the benchmark harness (B10):
//! the paper builds on Totem's token ring [3], whose pitch is exactly that
//! it beats sequencer protocols under load (the sequencer is a throughput
//! and availability bottleneck). It is deliberately not wired into the EVS
//! engine — recovery is designed around the ring — but implements the same
//! sans-I/O surface so both substrates can be driven side by side.

use crate::{DeliveryClass, MessageId, OrderedMsg, Service};
use evs_membership::ConfigId;
use evs_sim::ProcessId;
use std::collections::{BTreeMap, HashMap};

/// Wire frames of the sequencer protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SeqMsg<P> {
    /// A sender publishes an unordered message to the group.
    Publish {
        /// The configuration this message belongs to.
        config: ConfigId,
        /// Message identity.
        id: MessageId,
        /// Requested service.
        service: Service,
        /// Payload.
        payload: P,
    },
    /// The sequencer announces ordinal assignments (batched) and the
    /// current safe line.
    Order {
        /// The configuration being ordered.
        config: ConfigId,
        /// `(ordinal, message)` pairs, in ordinal order.
        assignments: Vec<(u64, MessageId)>,
        /// Highest ordinal acknowledged by every member.
        safe_line: u64,
    },
    /// A member acknowledges its contiguous receipt prefix.
    Ack {
        /// The configuration being acknowledged.
        config: ConfigId,
        /// Every ordinal `1..=upto` is deliverable at the sender.
        upto: u64,
    },
}

/// Effects requested by the sequencer engine.
#[derive(Debug)]
pub enum SeqOut<P> {
    /// Broadcast a frame to the component.
    Broadcast(SeqMsg<P>),
    /// Send a frame to one process (acks go to the sequencer).
    Send(ProcessId, SeqMsg<P>),
}

/// The per-process sequencer-based ordering engine for one configuration.
///
/// Mirrors the [`Ring`](crate::Ring) surface: `submit`, `on_message`,
/// `pop_delivery`, plus a `tick` for acknowledgment resends.
#[derive(Debug)]
pub struct Sequencer<P> {
    me: ProcessId,
    config: ConfigId,
    members: Vec<ProcessId>,
    /// Payloads received, by message id (until ordered).
    published: HashMap<MessageId, (Service, P)>,
    /// Ordinal assignments received.
    order: BTreeMap<u64, MessageId>,
    /// Members' acknowledged prefixes (sequencer only).
    acks: BTreeMap<ProcessId, u64>,
    /// Next ordinal to assign (sequencer only).
    next_seq: u64,
    /// Highest contiguous ordinal for which payload + order are present.
    ready_upto: u64,
    /// Highest ordinal known safe (acked by all members).
    safe_line: u64,
    delivered_upto: u64,
    last_acked: u64,
}

impl<P: Clone> Sequencer<P> {
    /// Creates the engine for `me` within `members`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is not a member or `members` is empty.
    pub fn new(me: ProcessId, config: ConfigId, mut members: Vec<ProcessId>) -> Self {
        members.sort_unstable();
        members.dedup();
        assert!(members.contains(&me), "{me} must be a member");
        let acks = members.iter().map(|&m| (m, 0)).collect();
        Sequencer {
            me,
            config,
            members,
            published: HashMap::new(),
            order: BTreeMap::new(),
            acks,
            next_seq: 0,
            ready_upto: 0,
            safe_line: 0,
            delivered_upto: 0,
            last_acked: 0,
        }
    }

    /// The sequencer: the lowest member id.
    pub fn sequencer(&self) -> ProcessId {
        self.members[0]
    }

    /// True at the distinguished sequencer process.
    pub fn is_sequencer(&self) -> bool {
        self.me == self.sequencer()
    }

    /// Highest ordinal known to be received by every member.
    pub fn safe_line(&self) -> u64 {
        self.safe_line
    }

    /// Highest ordinal delivered.
    pub fn delivered_upto(&self) -> u64 {
        self.delivered_upto
    }

    /// Submits a message: broadcasts the payload; the sequencer (possibly
    /// this process) will order it.
    #[must_use]
    pub fn submit(&mut self, id: MessageId, service: Service, payload: P) -> Vec<SeqOut<P>> {
        let msg = SeqMsg::Publish {
            config: self.config,
            id,
            service,
            payload: payload.clone(),
        };
        let mut out = vec![SeqOut::Broadcast(msg)];
        // Local fast path (loopback also arrives, but handle duplicates).
        out.extend(self.accept_publish(id, service, payload));
        out
    }

    /// Handles a received frame.
    #[must_use]
    pub fn on_message(&mut self, from: ProcessId, msg: SeqMsg<P>) -> Vec<SeqOut<P>> {
        match msg {
            SeqMsg::Publish {
                config,
                id,
                service,
                payload,
            } => {
                if config != self.config {
                    return Vec::new();
                }
                self.accept_publish(id, service, payload)
            }
            SeqMsg::Order {
                config,
                assignments,
                safe_line,
            } => {
                if config != self.config {
                    return Vec::new();
                }
                for (seq, id) in assignments {
                    self.order.entry(seq).or_insert(id);
                }
                self.safe_line = self.safe_line.max(safe_line);
                self.advance_ready()
            }
            SeqMsg::Ack { config, upto } => {
                if config != self.config || !self.is_sequencer() {
                    return Vec::new();
                }
                let entry = self.acks.entry(from).or_insert(0);
                *entry = (*entry).max(upto);
                self.refresh_safe_line()
            }
        }
    }

    /// Periodic driver: re-acknowledge (heals lost acks).
    #[must_use]
    pub fn tick(&mut self) -> Vec<SeqOut<P>> {
        if self.is_sequencer() {
            self.acks.insert(self.me, self.ready_upto);
            self.refresh_safe_line()
        } else if self.ready_upto > 0 {
            vec![SeqOut::Send(
                self.sequencer(),
                SeqMsg::Ack {
                    config: self.config,
                    upto: self.ready_upto,
                },
            )]
        } else {
            Vec::new()
        }
    }

    fn accept_publish(&mut self, id: MessageId, service: Service, payload: P) -> Vec<SeqOut<P>> {
        let mut out = Vec::new();
        if let std::collections::hash_map::Entry::Vacant(e) = self.published.entry(id) {
            e.insert((service, payload));
            if self.is_sequencer() && !self.order.values().any(|m| *m == id) {
                self.next_seq += 1;
                self.order.insert(self.next_seq, id);
                // Announce immediately (real Isis batches; one-per-publish
                // keeps latency minimal and the comparison honest since the
                // ring also stamps at each token visit).
                out.push(SeqOut::Broadcast(SeqMsg::Order {
                    config: self.config,
                    assignments: vec![(self.next_seq, id)],
                    safe_line: self.safe_line,
                }));
            }
        }
        out.extend(self.advance_ready());
        out
    }

    /// Recomputes the contiguous ready prefix and acknowledges progress.
    fn advance_ready(&mut self) -> Vec<SeqOut<P>> {
        while let Some(id) = self.order.get(&(self.ready_upto + 1)) {
            if self.published.contains_key(id) {
                self.ready_upto += 1;
            } else {
                break;
            }
        }
        let mut out = Vec::new();
        if self.ready_upto > self.last_acked {
            self.last_acked = self.ready_upto;
            if self.is_sequencer() {
                self.acks.insert(self.me, self.ready_upto);
                out.extend(self.refresh_safe_line());
            } else {
                out.push(SeqOut::Send(
                    self.sequencer(),
                    SeqMsg::Ack {
                        config: self.config,
                        upto: self.ready_upto,
                    },
                ));
            }
        }
        out
    }

    /// Sequencer only: recompute the safe line and announce if it moved.
    fn refresh_safe_line(&mut self) -> Vec<SeqOut<P>> {
        let min = self
            .members
            .iter()
            .map(|m| self.acks.get(m).copied().unwrap_or(0))
            .min()
            .unwrap_or(0);
        if min > self.safe_line {
            self.safe_line = min;
            vec![SeqOut::Broadcast(SeqMsg::Order {
                config: self.config,
                assignments: Vec::new(),
                safe_line: min,
            })]
        } else {
            Vec::new()
        }
    }

    /// Pops the next deliverable message, in ordinal order, respecting the
    /// service level (same discipline as the ring).
    pub fn pop_delivery(&mut self) -> Option<(OrderedMsg<P>, DeliveryClass)> {
        let next = self.delivered_upto + 1;
        if next > self.ready_upto {
            return None;
        }
        let id = *self.order.get(&next)?;
        let (service, _) = *self.published.get(&id).as_ref()?;
        let class = match service {
            Service::Causal | Service::Agreed => DeliveryClass::Agreed,
            Service::Safe => {
                if next <= self.safe_line {
                    DeliveryClass::Safe
                } else {
                    return None;
                }
            }
        };
        let (service, payload) = self.published.get(&id).cloned()?;
        self.delivered_upto = next;
        Some((
            OrderedMsg {
                config: self.config,
                seq: next,
                id,
                service,
                payload,
            },
            class,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn cfg() -> ConfigId {
        ConfigId::regular(1, p(0))
    }

    /// Instant reliable delivery harness.
    struct Net {
        nodes: Vec<Sequencer<&'static str>>,
        queue: VecDeque<(usize, ProcessId, SeqMsg<&'static str>)>,
    }

    impl Net {
        fn new(n: u32) -> Self {
            let members: Vec<ProcessId> = (0..n).map(p).collect();
            Net {
                nodes: (0..n)
                    .map(|i| Sequencer::new(p(i), cfg(), members.clone()))
                    .collect(),
                queue: VecDeque::new(),
            }
        }

        fn route(&mut self, from: usize, outs: Vec<SeqOut<&'static str>>) {
            for o in outs {
                match o {
                    SeqOut::Broadcast(m) => {
                        for to in 0..self.nodes.len() {
                            if to != from {
                                self.queue.push_back((to, p(from as u32), m.clone()));
                            }
                        }
                    }
                    SeqOut::Send(to, m) => self.queue.push_back((to.as_usize(), p(from as u32), m)),
                }
            }
        }

        fn run(&mut self) {
            let mut guard = 0;
            while let Some((to, from, m)) = self.queue.pop_front() {
                guard += 1;
                assert!(guard < 100_000, "message storm");
                let outs = self.nodes[to].on_message(from, m);
                self.route(to, outs);
            }
        }

        fn deliveries(&mut self, at: usize) -> Vec<(u64, &'static str, DeliveryClass)> {
            let mut v = Vec::new();
            while let Some((m, c)) = self.nodes[at].pop_delivery() {
                v.push((m.seq, m.payload, c));
            }
            v
        }
    }

    #[test]
    fn sequencer_orders_and_all_agree() {
        let mut net = Net::new(3);
        let outs = net.nodes[1].submit(MessageId::new(p(1), 1), Service::Agreed, "a");
        net.route(1, outs);
        let outs = net.nodes[2].submit(MessageId::new(p(2), 1), Service::Agreed, "b");
        net.route(2, outs);
        net.run();
        let d0 = net.deliveries(0);
        assert_eq!(d0.len(), 2);
        assert_eq!(net.deliveries(1), d0);
        assert_eq!(net.deliveries(2), d0);
        let seqs: Vec<u64> = d0.iter().map(|(s, _, _)| *s).collect();
        assert_eq!(seqs, vec![1, 2]);
    }

    #[test]
    fn safe_needs_all_acks() {
        let mut net = Net::new(3);
        let outs = net.nodes[0].submit(MessageId::new(p(0), 1), Service::Safe, "s");
        net.route(0, outs);
        net.run();
        // After full propagation (publish + order + acks + safe line), the
        // message is safe-deliverable everywhere.
        for i in 0..3 {
            let d = net.deliveries(i);
            assert_eq!(d, vec![(1, "s", DeliveryClass::Safe)], "node {i}");
        }
    }

    #[test]
    fn safe_blocks_until_safe_line_announced() {
        // Manually withhold acks: a safe message must not deliver.
        let members = vec![p(0), p(1)];
        let mut seqr: Sequencer<&str> = Sequencer::new(p(0), cfg(), members.clone());
        let mut member: Sequencer<&str> = Sequencer::new(p(1), cfg(), members);
        let outs = seqr.submit(MessageId::new(p(0), 1), Service::Safe, "s");
        // Deliver publish + order to the member, but do not return its ack.
        for o in outs {
            match o {
                SeqOut::Broadcast(m) => {
                    let _ = member.on_message(p(0), m);
                }
                SeqOut::Send(_, _) => {}
            }
        }
        assert!(seqr.pop_delivery().is_none(), "no acks yet");
        assert!(member.pop_delivery().is_none());
        // Now the ack flows: the sequencer learns, announces, both deliver.
        let acks = member.tick();
        let mut announce = Vec::new();
        for o in acks {
            if let SeqOut::Send(to, m) = o {
                assert_eq!(to, p(0));
                announce.extend(seqr.on_message(p(1), m));
            }
        }
        assert_eq!(seqr.pop_delivery().unwrap().1, DeliveryClass::Safe);
        for o in announce {
            if let SeqOut::Broadcast(m) = o {
                let _ = member.on_message(p(0), m);
            }
        }
        assert_eq!(member.pop_delivery().unwrap().1, DeliveryClass::Safe);
    }

    #[test]
    fn duplicate_publishes_are_idempotent() {
        let mut net = Net::new(2);
        let id = MessageId::new(p(1), 1);
        let outs = net.nodes[1].submit(id, Service::Agreed, "x");
        net.route(1, outs);
        // Replay the publish.
        let outs = net.nodes[0].on_message(
            p(1),
            SeqMsg::Publish {
                config: cfg(),
                id,
                service: Service::Agreed,
                payload: "x",
            },
        );
        net.route(0, outs);
        net.run();
        assert_eq!(net.deliveries(0).len(), 1);
        assert_eq!(net.deliveries(1).len(), 1);
    }

    #[test]
    fn foreign_config_ignored() {
        let mut s: Sequencer<&str> = Sequencer::new(p(0), cfg(), vec![p(0), p(1)]);
        let outs = s.on_message(
            p(1),
            SeqMsg::Publish {
                config: ConfigId::regular(9, p(1)),
                id: MessageId::new(p(1), 1),
                service: Service::Agreed,
                payload: "other",
            },
        );
        assert!(outs.is_empty());
        assert!(s.pop_delivery().is_none());
    }
}
