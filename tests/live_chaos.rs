//! Chaos on the live driver: generated fault plans — including the
//! network knobs `droppct` and `delay`, which used to be simulator-only —
//! executed on an `evs::runtime::Cluster` with real threads, real time and
//! per-link fault injection, then checked against the full conformance
//! suite (Specifications 1.1–7.2, primary component, §5 VS reduction).
//!
//! The direct-driver tests below exercise the fault layer without the
//! plan vocabulary in between: a fully dead link that heals through token
//! retransmission, and the headline lossy-net scenario (30% drop plus
//! jitter on every link) that must deliver everything after the heal with
//! retransmissions in the telemetry and no anomaly flagged by
//! `evs-inspect`.

use evs::chaos::{FaultMix, FaultPlan, FaultStep, GenConfig, Orchestrator, ScenarioGen};
use evs::core::{checker, EvsProcess, Payload, Service, Trace};
use evs::inspect::InspectReport;
use evs::runtime::{Cluster, LinkFault};
use evs::sim::ProcessId;
use evs::telemetry::RunReport;
use std::time::Duration;

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn spawn(n: usize) -> Cluster {
    Cluster::in_memory(n, true)
}

fn settled_with(n: usize) -> impl Fn(&EvsProcess<Payload>) -> bool + Send + Clone {
    move |node: &EvsProcess<Payload>| node.is_settled() && node.current_config().members.len() == n
}

fn delivered(payload: &'static str) -> impl Fn(&EvsProcess<Payload>) -> bool + Send + Clone {
    move |node: &EvsProcess<Payload>| {
        node.deliveries().iter().any(|d| {
            d.payload()
                .is_some_and(|p| p.as_slice() == payload.as_bytes())
        })
    }
}

/// A link at 100% drop carries nothing; once the policy is lifted, hop
/// retransmission (now with exponential backoff) must repair the ring
/// without a membership change being necessary for the *message* to make
/// it — all we demand is that the group re-settles and the recorder shows
/// the drops and the retransmissions that healed them.
#[test]
fn fully_dead_link_heals_after_the_policy_lifts() {
    let net = spawn(3);
    let faults = net.faults();
    faults.set_seed(0xDEAD);
    assert!(
        net.wait_until(Duration::from_secs(20), settled_with(3)),
        "formation"
    );
    // Kill both directions between P0 and P1; the P2 paths stay up.
    faults.set_link(p(0), p(1), LinkFault::lossy(100));
    faults.set_link(p(1), p(0), LinkFault::lossy(100));
    net.invoke(p(2), |node, ctx| {
        node.submit(ctx, Service::Safe, b"through-the-outage".into())
    });
    std::thread::sleep(Duration::from_millis(60));
    // Lift the fault; retransmissions repair whatever the dead link ate.
    faults.set_all(LinkFault::default());
    faults.merge_all();
    for i in 0..3 {
        net.recover(p(i));
    }
    assert!(
        net.wait_until(Duration::from_secs(30), settled_with(3)),
        "group re-settles once the link heals"
    );
    assert!(
        net.wait_until(Duration::from_secs(30), delivered("through-the-outage")),
        "the safe message reaches every process after the heal"
    );
    let handles = net.telemetry_handles();
    let report = RunReport::collect(&handles);
    checker::assert_evs(&Trace::new(net.shutdown()));
    assert!(
        report.total("link_drops") > 0,
        "the dead link must actually have eaten packets"
    );
    assert!(
        report.total("token_retransmissions") > 0,
        "healing under loss must go through retransmission"
    );
}

/// The acceptance scenario: 30% drop and 1–2 ticks of jitter on *every*
/// link, traffic submitted under fire, then a heal. Every agreed and safe
/// message must be delivered everywhere, the telemetry must show the loss
/// being fought with retransmissions, and evs-inspect must not flag the
/// run — a lossy-but-live ring is not an anomaly.
#[test]
fn lossy_jittery_net_delivers_everything_after_heal() {
    let net = spawn(3);
    let faults = net.faults();
    faults.set_seed(42);
    assert!(
        net.wait_until(Duration::from_secs(20), settled_with(3)),
        "formation"
    );
    faults.set_all(LinkFault {
        drop_pct: 30,
        delay_lo: 1,
        delay_hi: 2,
        ..LinkFault::default()
    });
    for (i, payload) in [(0u32, "lossy-agreed"), (1, "lossy-safe"), (2, "lossy-tail")] {
        let service = if i == 1 {
            Service::Safe
        } else {
            Service::Agreed
        };
        net.invoke(p(i), move |node, ctx| {
            node.submit(ctx, service, payload.as_bytes().into())
        });
    }
    std::thread::sleep(Duration::from_millis(100));
    faults.set_all(LinkFault::default());
    faults.merge_all();
    for i in 0..3 {
        net.recover(p(i));
    }
    assert!(
        net.wait_until(Duration::from_secs(30), settled_with(3)),
        "settles after the heal"
    );
    for payload in ["lossy-agreed", "lossy-safe", "lossy-tail"] {
        assert!(
            net.wait_until(Duration::from_secs(30), delivered(payload)),
            "{payload} delivered everywhere after the heal"
        );
    }
    let handles = net.telemetry_handles();
    let report = RunReport::collect(&handles);
    let inspect = InspectReport::from_handles(&handles);
    checker::assert_evs(&Trace::new(net.shutdown()));
    assert!(
        report.total("link_drops") > 0,
        "links must actually be lossy"
    );
    assert!(
        report.total("token_retransmissions") > 0,
        "sustained loss must be answered by retransmission"
    );
    assert!(
        inspect.anomalies.is_empty(),
        "a lossy-but-live run is not anomalous: {:?}",
        inspect.anomalies
    );
}

/// Fixed-seed plans from the loss-heavy `hunting` mix — the generator
/// space that used to be rejected by the live driver because of its
/// `droppct`/`delay` steps — run on a live `Cluster` through full
/// conformance.
/// (CI's chaos smoke runs hundreds of these via `examples/chaos.rs
/// --live`; this keeps a handful in the plain test suite.)
#[test]
fn generated_hunting_plans_pass_conformance_on_the_live_driver() {
    let gen = ScenarioGen::new(GenConfig {
        n: 3,
        max_steps: 5,
        max_run: 1_200,
        mix: FaultMix::hunting(),
        ..GenConfig::default()
    });
    let orch = Orchestrator::default();
    let mut network_knobs_seen = false;
    for seed in 9_000..9_004u64 {
        let plan = gen.plan(seed);
        network_knobs_seen |= plan
            .steps
            .iter()
            .any(|s| matches!(s, FaultStep::DropPct(_) | FaultStep::Delay(..)));
        let outcome = orch
            .run_live(&plan)
            .expect("every generated step is live-supported now");
        assert!(outcome.settled, "seed {seed} failed to settle");
        assert!(
            !outcome.failed(),
            "seed {seed} violated conformance: {:?}",
            outcome.failure
        );
    }
    // The hunting mix is loss-heavy; this seed range must actually have
    // exercised the formerly simulator-only vocabulary.
    assert!(
        network_knobs_seen,
        "chosen seeds generated no droppct/delay step — pick a new range"
    );
}

/// A handwritten plan hitting both network knobs plus a crash/recover on
/// the live driver, replayable from its text artifact like any other
/// counterexample.
#[test]
fn handwritten_live_plan_with_every_knob_passes() {
    let text = "evs-chaos plan v1\n\
                n 3\n\
                seed 77\n\
                droppct 25\n\
                delay 1 2\n\
                mcast 0 2 safe\n\
                run 1500\n\
                crash 2\n\
                run 500\n\
                recover 2\n\
                droppct 0\n\
                run 1000\n";
    let plan = FaultPlan::from_text(text).expect("artifact parses");
    let outcome = Orchestrator::default()
        .run_live(&plan)
        .expect("plan validates");
    assert!(outcome.settled);
    assert!(!outcome.failed(), "{:?}", outcome.failure);
    assert!(outcome.report.total("messages_sent") >= 2);
}
