//! Seeded, weighted random generation of fault plans.
//!
//! [`ScenarioGen`] is the search half of the chaos subsystem: it samples
//! the fault-schedule space with a tunable fault mix. Generation is
//! deterministic — the same seed always yields the same [`FaultPlan`] — so
//! a campaign is fully described by its base seed and iteration count.

use crate::plan::{BitTarget, FaultPlan, FaultStep};
use evs_order::Service;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Relative weights of the step kinds in generated plans. A weight of
/// zero removes the kind entirely.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultMix {
    /// Weight of [`FaultStep::Split`].
    pub split: u32,
    /// Weight of [`FaultStep::Merge`].
    pub merge: u32,
    /// Weight of [`FaultStep::Crash`].
    pub crash: u32,
    /// Weight of [`FaultStep::Kill`]. Zero by default: a kill without
    /// stable storage behind the engine forgets nothing it promised, so
    /// kill plans are opted into by kill-chaos campaigns.
    pub kill: u32,
    /// Weight of [`FaultStep::Recover`].
    pub recover: u32,
    /// Weight of [`FaultStep::Restart`]. Zero by default, paired with
    /// `kill`.
    pub restart: u32,
    /// Weight of [`FaultStep::DropPct`].
    pub drop: u32,
    /// Weight of [`FaultStep::Delay`].
    pub delay: u32,
    /// Weight of [`FaultStep::Mcast`].
    pub mcast: u32,
    /// Weight of [`FaultStep::Run`].
    pub run: u32,
    /// Weight of [`FaultStep::BrokerKill`]. Zero by default: broker steps
    /// switch execution onto the broker client path, so they are opted
    /// into by broker-chaos campaigns (and historical seeds keep
    /// reproducing the exact plans they always did).
    pub broker_kill: u32,
    /// Weight of [`FaultStep::BrokerReconnect`]. Zero by default, paired
    /// with `broker_kill`.
    pub broker_reconnect: u32,
    /// Weight of [`FaultStep::BitFlip`]. Zero by default: corruption
    /// steps are opted into by corruption campaigns, and (like every
    /// later addition to this mix) sit at the end of the sampling cascade
    /// so historical seeds keep reproducing byte-identical plans.
    pub bitflip: u32,
    /// Weight of [`FaultStep::SeqWrap`]. Zero by default.
    pub seqwrap: u32,
    /// Weight of [`FaultStep::ConfDesync`]. Zero by default.
    pub confdesync: u32,
    /// Weight of [`FaultStep::WalByte`]. Zero by default.
    pub walbyte: u32,
    /// Weight of [`FaultStep::WalTrunc`]. Zero by default.
    pub waltrunc: u32,
}

impl Default for FaultMix {
    /// A mix biased toward traffic and time (so faults have something to
    /// corrupt), with recoveries outweighing crashes (so clusters heal).
    fn default() -> Self {
        FaultMix {
            split: 3,
            merge: 3,
            crash: 2,
            kill: 0,
            recover: 3,
            restart: 0,
            drop: 2,
            delay: 1,
            mcast: 5,
            run: 6,
            broker_kill: 0,
            broker_reconnect: 0,
            bitflip: 0,
            seqwrap: 0,
            confdesync: 0,
            walbyte: 0,
            waltrunc: 0,
        }
    }
}

impl FaultMix {
    /// A mix tuned for bug hunting rather than steady state: heavy packet
    /// loss and crashes with constant traffic. This is what reliably
    /// creates recovery-time holes (an ordinal some member has seen but no
    /// surviving member holds) — the precondition for the obligation-set
    /// logic of recovery Steps 5.c/6.a, and the mix the `chaos-mutation`
    /// self-test hunts with.
    pub fn hunting() -> Self {
        FaultMix {
            split: 2,
            merge: 2,
            crash: 8,
            kill: 0,
            recover: 4,
            restart: 0,
            drop: 20,
            delay: 2,
            mcast: 12,
            run: 10,
            broker_kill: 0,
            broker_reconnect: 0,
            bitflip: 0,
            seqwrap: 0,
            confdesync: 0,
            walbyte: 0,
            waltrunc: 0,
        }
    }

    /// A mix tuned for durability hunting: processes are `kill -9`-ed and
    /// restarted from their write-ahead logs under constant traffic, with
    /// enough loss that restarts land mid-recovery.
    pub fn kill_chaos() -> Self {
        FaultMix {
            split: 2,
            merge: 3,
            crash: 0,
            kill: 8,
            recover: 0,
            restart: 10,
            drop: 6,
            delay: 1,
            mcast: 12,
            run: 10,
            broker_kill: 0,
            broker_reconnect: 0,
            bitflip: 0,
            seqwrap: 0,
            confdesync: 0,
            walbyte: 0,
            waltrunc: 0,
        }
    }

    /// A mix tuned for hunting client-path bugs: constant client traffic
    /// through the broker pipeline with broker kills and reconnects, plus
    /// enough packet loss and short runs that batches are often in flight
    /// (flushed, not yet delivered — or delivered, acks not yet consumed)
    /// when the broker dies. That is the precondition for reconnect
    /// resubmission, the replay the dedup ledgers must absorb — and the
    /// window the `broker-mutation` self-test hunts in.
    pub fn broker_chaos() -> Self {
        FaultMix {
            split: 1,
            merge: 2,
            crash: 2,
            kill: 0,
            recover: 3,
            restart: 0,
            drop: 8,
            delay: 1,
            mcast: 14,
            run: 12,
            broker_kill: 8,
            broker_reconnect: 6,
            bitflip: 0,
            seqwrap: 0,
            confdesync: 0,
            walbyte: 0,
            waltrunc: 0,
        }
    }

    /// A mix tuned for the self-stabilization gauntlet: corruption-class
    /// faults (bit flips, sequence wrap, configuration desync, WAL rot)
    /// layered over kill/restart and constant traffic. The kills matter:
    /// WAL damage is dormant until the victim restarts and replays, so a
    /// corruption mix without restarts would never execute the
    /// durable-rot half of its own vocabulary.
    pub fn corruption() -> Self {
        FaultMix {
            split: 1,
            merge: 2,
            crash: 0,
            kill: 4,
            recover: 0,
            restart: 6,
            drop: 2,
            delay: 1,
            mcast: 10,
            run: 10,
            broker_kill: 0,
            broker_reconnect: 0,
            bitflip: 6,
            seqwrap: 2,
            confdesync: 2,
            walbyte: 4,
            waltrunc: 3,
        }
    }

    /// The factory mix: every step kind in the vocabulary at nonzero
    /// weight, biased toward traffic and restarts so corruption and
    /// durability faults have state to damage and a replay to surface in.
    /// This is the widest mix the generator offers — the chaos factory's
    /// default, where the coverage report is expected to show every fault
    /// kind firing.
    pub fn factory() -> Self {
        FaultMix {
            split: 2,
            merge: 3,
            crash: 2,
            kill: 4,
            recover: 3,
            restart: 5,
            drop: 3,
            delay: 1,
            mcast: 12,
            run: 10,
            broker_kill: 2,
            broker_reconnect: 2,
            bitflip: 5,
            seqwrap: 1,
            confdesync: 1,
            walbyte: 3,
            waltrunc: 2,
        }
    }

    /// The canonical [`crate::STEP_KINDS`] names this mix can generate
    /// (nonzero weight). A `bitflip` weight enables all three bit-flip
    /// targets — the generator samples the target uniformly, so over any
    /// real campaign all three appear. This is the factory's coverage
    /// target: a kind listed here that never executed in a soak is a
    /// generation or execution bug worth failing on.
    pub fn generable_kinds(&self) -> Vec<&'static str> {
        let mut kinds = Vec::new();
        let mut add = |w: u32, names: &[&'static str]| {
            if w > 0 {
                kinds.extend_from_slice(names);
            }
        };
        add(self.split, &["split"]);
        add(self.merge, &["merge"]);
        add(self.crash, &["crash"]);
        add(self.kill, &["kill"]);
        add(self.recover, &["recover"]);
        add(self.restart, &["restart"]);
        add(self.drop, &["droppct"]);
        add(self.delay, &["delay"]);
        add(self.mcast, &["mcast"]);
        add(self.run, &["run"]);
        add(self.broker_kill, &["brokerkill"]);
        add(self.broker_reconnect, &["brokerreconnect"]);
        add(
            self.bitflip,
            &["bitflip-aru", "bitflip-seq", "bitflip-counter"],
        );
        add(self.seqwrap, &["seqwrap"]);
        add(self.confdesync, &["confdesync"]);
        add(self.walbyte, &["walbyte"]);
        add(self.waltrunc, &["waltrunc"]);
        kinds
    }

    /// Sets a weight by its flag name (`split`, `merge`, `crash`, `kill`,
    /// `recover`, `restart`, `drop`, `delay`, `mcast`, `run`,
    /// `brokerkill`, `brokerreconnect`, `bitflip`, `seqwrap`,
    /// `confdesync`, `walbyte`, `waltrunc`). Returns false for an unknown
    /// name — callers surface that as a usage error.
    pub fn set(&mut self, name: &str, weight: u32) -> bool {
        match name {
            "split" => self.split = weight,
            "merge" => self.merge = weight,
            "crash" => self.crash = weight,
            "kill" => self.kill = weight,
            "recover" => self.recover = weight,
            "restart" => self.restart = weight,
            "drop" => self.drop = weight,
            "delay" => self.delay = weight,
            "mcast" => self.mcast = weight,
            "run" => self.run = weight,
            "brokerkill" => self.broker_kill = weight,
            "brokerreconnect" => self.broker_reconnect = weight,
            "bitflip" => self.bitflip = weight,
            "seqwrap" => self.seqwrap = weight,
            "confdesync" => self.confdesync = weight,
            "walbyte" => self.walbyte = weight,
            "waltrunc" => self.waltrunc = weight,
            _ => return false,
        }
        true
    }

    fn total(&self) -> u32 {
        self.split
            + self.merge
            + self.crash
            + self.kill
            + self.recover
            + self.restart
            + self.drop
            + self.delay
            + self.mcast
            + self.run
            + self.broker_kill
            + self.broker_reconnect
            + self.bitflip
            + self.seqwrap
            + self.confdesync
            + self.walbyte
            + self.waltrunc
    }
}

/// Fewest steps in a generated plan.
const MIN_STEPS: u8 = 2;
/// Largest multicast burst.
const MAX_BURST: u8 = 4;
/// Shortest `Run` step, in ticks.
const MIN_RUN: u32 = 100;
/// Largest generated packet-loss percentage.
const MAX_DROP_PCT: u8 = 50;
/// Most partition groups a `Split` may create.
const MAX_GROUPS: u8 = 3;

const _: () = assert!(MIN_STEPS >= 1 && MIN_RUN >= 1);
const _: () = assert!(MAX_BURST >= 1, "bursts must carry a message");
const _: () = assert!(MAX_GROUPS >= 2, "splits need at least two groups");
const _: () = assert!(MAX_DROP_PCT <= 95, "drop beyond 95% stalls everything");

/// Tunables of the scenario generator: cluster size, schedule length and
/// fault mix. The per-step parameter ranges are constants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenConfig {
    /// Cluster size of generated plans.
    pub n: u8,
    /// Maximum number of steps (inclusive; at least 2, the minimum).
    pub max_steps: u8,
    /// Relative step-kind weights.
    pub mix: FaultMix,
    /// Longest `Run` step, in ticks (at least 100, the shortest).
    pub max_run: u32,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            n: 4,
            max_steps: 10,
            mix: FaultMix::default(),
            max_run: 2_000,
        }
    }
}

/// Deterministic generator of weighted random [`FaultPlan`]s.
///
/// ```
/// use evs_chaos::{GenConfig, ScenarioGen};
///
/// let g = ScenarioGen::new(GenConfig::default());
/// assert_eq!(g.plan(42), g.plan(42)); // same seed, same plan
/// assert_ne!(g.plan(42), g.plan(43));
/// ```
#[derive(Clone, Debug)]
pub struct ScenarioGen {
    cfg: GenConfig,
}

impl ScenarioGen {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no enabled step kinds,
    /// empty ranges, or a cluster of zero processes).
    pub fn new(cfg: GenConfig) -> Self {
        assert!(cfg.n >= 1, "cluster size must be at least 1");
        assert!(
            cfg.mix.total() > 0,
            "at least one step kind must be enabled"
        );
        assert!(MIN_STEPS <= cfg.max_steps, "invalid step-count range");
        assert!(MIN_RUN <= cfg.max_run, "invalid run-tick range");
        ScenarioGen { cfg }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &GenConfig {
        &self.cfg
    }

    /// Generates the plan for `seed`. Deterministic: the same generator
    /// configuration and seed always produce the same plan (the plan's
    /// simulation seed is `seed` too, so one number reproduces the whole
    /// execution).
    pub fn plan(&self, seed: u64) -> FaultPlan {
        let cfg = &self.cfg;
        let mut rng = SmallRng::seed_from_u64(seed);
        let count = rng.gen_range(MIN_STEPS..=cfg.max_steps);
        let steps = (0..count).map(|_| self.step(&mut rng)).collect();
        FaultPlan {
            n: cfg.n,
            seed,
            steps,
        }
    }

    fn step(&self, rng: &mut SmallRng) -> FaultStep {
        let cfg = &self.cfg;
        let mix = &cfg.mix;
        let mut pick = rng.gen_range(0..mix.total());
        let mut take = |w: u32| {
            if pick < w {
                true
            } else {
                pick -= w;
                false
            }
        };
        if take(mix.split) {
            let labels = (0..cfg.n).map(|_| rng.gen_range(0..MAX_GROUPS)).collect();
            FaultStep::Split(labels)
        } else if take(mix.merge) {
            FaultStep::Merge
        } else if take(mix.crash) {
            FaultStep::Crash(rng.gen_range(0..cfg.n))
        } else if take(mix.kill) {
            FaultStep::Kill(rng.gen_range(0..cfg.n))
        } else if take(mix.recover) {
            FaultStep::Recover(rng.gen_range(0..cfg.n))
        } else if take(mix.restart) {
            FaultStep::Restart(rng.gen_range(0..cfg.n))
        } else if take(mix.drop) {
            FaultStep::DropPct(rng.gen_range(1..=MAX_DROP_PCT))
        } else if take(mix.delay) {
            let lo = rng.gen_range(1..=5u64);
            let hi = lo + rng.gen_range(0..=10u64);
            FaultStep::Delay(lo, hi)
        } else if take(mix.mcast) {
            FaultStep::Mcast {
                from: rng.gen_range(0..cfg.n),
                count: rng.gen_range(1..=MAX_BURST),
                // Safe messages exercise the recovery algorithm hardest;
                // keep them half the load.
                service: if rng.gen_bool(0.5) {
                    Service::Safe
                } else {
                    Service::Agreed
                },
            }
        } else if take(mix.run) {
            FaultStep::Run(rng.gen_range(MIN_RUN..=cfg.max_run))
        } else if take(mix.broker_kill) {
            FaultStep::BrokerKill(rng.gen_range(0..cfg.n))
        } else if take(mix.broker_reconnect) {
            FaultStep::BrokerReconnect(rng.gen_range(0..cfg.n))
        } else if take(mix.bitflip) {
            let p = rng.gen_range(0..cfg.n);
            let target = match rng.gen_range(0..3u8) {
                0 => BitTarget::Aru,
                1 => BitTarget::Seq,
                _ => BitTarget::Counter,
            };
            FaultStep::BitFlip {
                p,
                target,
                bit: rng.gen_range(0..64),
            }
        } else if take(mix.seqwrap) {
            FaultStep::SeqWrap(rng.gen_range(0..cfg.n))
        } else if take(mix.confdesync) {
            FaultStep::ConfDesync(rng.gen_range(0..cfg.n))
        } else if take(mix.walbyte) {
            FaultStep::WalByte {
                p: rng.gen_range(0..cfg.n),
                record: rng.gen_range(0..16),
                offset: rng.gen_range(0..32),
            }
        } else {
            FaultStep::WalTrunc {
                p: rng.gen_range(0..cfg.n),
                // Deep enough to sometimes destroy a short log whole —
                // the only way a restart can see "storage existed,
                // nothing replayed" (the silent_state_loss anomaly).
                bytes: rng.gen_range(1..=255),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let g = ScenarioGen::new(GenConfig::default());
        for seed in 0..50 {
            assert_eq!(g.plan(seed), g.plan(seed));
        }
    }

    #[test]
    fn generated_plans_validate() {
        let g = ScenarioGen::new(GenConfig::default());
        for seed in 0..500 {
            g.plan(seed).validate().expect("generated plan is valid");
        }
    }

    #[test]
    fn zero_weight_disables_a_kind() {
        let mut cfg = GenConfig::default();
        cfg.mix.crash = 0;
        cfg.mix.drop = 0;
        let g = ScenarioGen::new(cfg);
        for seed in 0..200 {
            for step in g.plan(seed).steps {
                assert!(!matches!(step, FaultStep::Crash(_) | FaultStep::DropPct(_)));
            }
        }
    }

    #[test]
    fn mix_set_by_name() {
        let mut mix = FaultMix::default();
        assert!(mix.set("crash", 9));
        assert_eq!(mix.crash, 9);
        assert!(mix.set("kill", 5));
        assert_eq!(mix.kill, 5);
        assert!(mix.set("restart", 6));
        assert_eq!(mix.restart, 6);
        assert!(mix.set("brokerkill", 7));
        assert_eq!(mix.broker_kill, 7);
        assert!(mix.set("brokerreconnect", 4));
        assert_eq!(mix.broker_reconnect, 4);
        assert!(mix.set("bitflip", 3));
        assert_eq!(mix.bitflip, 3);
        assert!(mix.set("seqwrap", 2));
        assert_eq!(mix.seqwrap, 2);
        assert!(mix.set("confdesync", 2));
        assert_eq!(mix.confdesync, 2);
        assert!(mix.set("walbyte", 5));
        assert_eq!(mix.walbyte, 5);
        assert!(mix.set("waltrunc", 1));
        assert_eq!(mix.waltrunc, 1);
        assert!(!mix.set("nonsense", 1));
    }

    #[test]
    fn default_mix_never_generates_corruption() {
        // Corruption steps default to weight zero (and sit at the end of
        // the sampling cascade), so every historical seed keeps
        // reproducing the exact plan it always did.
        let g = ScenarioGen::new(GenConfig::default());
        for seed in 0..300 {
            for step in g.plan(seed).steps {
                assert!(!step.is_corruption(), "seed {seed}: {step}");
            }
        }
    }

    #[test]
    fn corruption_mix_covers_its_whole_vocabulary() {
        let cfg = GenConfig {
            mix: FaultMix::corruption(),
            ..GenConfig::default()
        };
        let g = ScenarioGen::new(cfg);
        let mut kinds = std::collections::BTreeSet::new();
        for seed in 0..600 {
            let plan = g.plan(seed);
            plan.validate().expect("corruption plans validate");
            for step in plan.steps {
                kinds.insert(step.kind_name());
            }
        }
        for want in [
            "bitflip-aru",
            "bitflip-seq",
            "bitflip-counter",
            "seqwrap",
            "confdesync",
            "walbyte",
            "waltrunc",
            "kill",
            "restart",
            "mcast",
        ] {
            assert!(kinds.contains(want), "{want} never generated: {kinds:?}");
        }
    }

    #[test]
    fn kill_chaos_mix_generates_kills_and_restarts() {
        let cfg = GenConfig {
            mix: FaultMix::kill_chaos(),
            ..GenConfig::default()
        };
        let g = ScenarioGen::new(cfg);
        let (mut kills, mut restarts) = (false, false);
        for seed in 0..300 {
            for step in g.plan(seed).steps {
                match step {
                    FaultStep::Kill(_) => kills = true,
                    FaultStep::Restart(_) => restarts = true,
                    _ => {}
                }
            }
        }
        assert!(
            kills && restarts,
            "kill-chaos mix must exercise kill/restart"
        );
    }

    #[test]
    fn default_mix_never_generates_kills() {
        // Kill/restart default to weight zero so every historical seed
        // reproduces the exact plan it always did.
        let g = ScenarioGen::new(GenConfig::default());
        for seed in 0..300 {
            for step in g.plan(seed).steps {
                assert!(!matches!(step, FaultStep::Kill(_) | FaultStep::Restart(_)));
            }
        }
    }

    #[test]
    fn default_mix_never_generates_broker_steps() {
        // Broker steps default to weight zero: they flip execution onto
        // the broker client path, which only broker campaigns opt into,
        // and historical seeds must keep reproducing byte-identical plans.
        let g = ScenarioGen::new(GenConfig::default());
        for seed in 0..300 {
            let plan = g.plan(seed);
            assert!(!plan.has_broker_steps(), "seed {seed}: {plan:?}");
        }
    }

    #[test]
    fn broker_chaos_mix_generates_broker_kills_and_reconnects() {
        let cfg = GenConfig {
            mix: FaultMix::broker_chaos(),
            ..GenConfig::default()
        };
        let g = ScenarioGen::new(cfg);
        let (mut kills, mut reconnects) = (false, false);
        for seed in 0..300 {
            for step in g.plan(seed).steps {
                match step {
                    FaultStep::BrokerKill(_) => kills = true,
                    FaultStep::BrokerReconnect(_) => reconnects = true,
                    _ => {}
                }
            }
        }
        assert!(
            kills && reconnects,
            "broker-chaos mix must exercise broker kill/reconnect"
        );
    }

    #[test]
    fn factory_mix_can_generate_every_step_kind() {
        // The factory mix is the coverage-complete one: its generable set
        // is exactly the canonical vocabulary, and a long enough seed
        // sweep actually produces every kind.
        let mix = FaultMix::factory();
        let mut generable = mix.generable_kinds();
        generable.sort_unstable();
        let mut all: Vec<&str> = crate::plan::STEP_KINDS.to_vec();
        all.sort_unstable();
        assert_eq!(generable, all);
        let cfg = GenConfig {
            mix,
            ..GenConfig::default()
        };
        let g = ScenarioGen::new(cfg);
        let mut kinds = std::collections::BTreeSet::new();
        for seed in 0..2_000 {
            for step in g.plan(seed).steps {
                kinds.insert(step.kind_name());
            }
        }
        for want in crate::plan::STEP_KINDS {
            assert!(kinds.contains(want), "{want} never generated: {kinds:?}");
        }
    }

    #[test]
    fn generable_kinds_track_the_weights() {
        let mut mix = FaultMix::default();
        assert!(!mix.generable_kinds().contains(&"bitflip-aru"));
        assert!(mix.generable_kinds().contains(&"split"));
        mix.set("bitflip", 1);
        mix.set("split", 0);
        let kinds = mix.generable_kinds();
        assert!(kinds.contains(&"bitflip-aru"));
        assert!(kinds.contains(&"bitflip-seq"));
        assert!(kinds.contains(&"bitflip-counter"));
        assert!(!kinds.contains(&"split"));
    }

    #[test]
    fn seeds_cover_the_vocabulary() {
        // Over a few hundred seeds every step kind should appear.
        let g = ScenarioGen::new(GenConfig::default());
        let mut seen = [false; 8];
        for seed in 0..300 {
            for step in g.plan(seed).steps {
                let k = match step {
                    FaultStep::Split(_) => 0,
                    FaultStep::Merge => 1,
                    FaultStep::Crash(_) => 2,
                    FaultStep::Recover(_) => 3,
                    FaultStep::DropPct(_) => 4,
                    FaultStep::Delay(_, _) => 5,
                    FaultStep::Mcast { .. } => 6,
                    FaultStep::Run(_) => 7,
                    FaultStep::Kill(_) | FaultStep::Restart(_) => {
                        unreachable!("default mix has kill/restart at weight 0")
                    }
                    FaultStep::BrokerKill(_) | FaultStep::BrokerReconnect(_) => {
                        unreachable!("default mix has broker steps at weight 0")
                    }
                    step if step.is_corruption() => {
                        unreachable!("default mix has corruption steps at weight 0")
                    }
                    _ => unreachable!("vocabulary test missed a step kind"),
                };
                seen[k] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "missing step kinds: {seen:?}");
    }
}
