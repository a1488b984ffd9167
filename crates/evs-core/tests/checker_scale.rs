//! The checker's cost per event does not grow with the trace: `check_all`
//! on fixed-seed three-process cluster traces of ~2k, ~20k and ~200k
//! events, each with one partition and merge halfway, may cost at most
//! twice as much per event at 200k as at 2k, and the whole step must
//! finish in a minute. A pairwise step would grow a hundredfold over that
//! range; what remains is the memory hierarchy. A 2k check works within
//! the second-level cache and reuses heap pages the previous check freed,
//! while a 200k check streams tens of megabytes through the last-level
//! cache and first-touches most of its memory (the allocator returns
//! blocks that large to the kernel). On a 2-vCPU VM with 2 MiB of L2 per
//! core, where a first-touch page fault costs ~1.5 µs, the 200k figure is
//! 1.3–1.7 times the 2k one.
//!
//! Every sample checks the same volume of events — a hundred distinct 2k
//! traces, ten 20k ones, or one 200k one — so each reads its input from
//! memory alike. Samples of the three sizes alternate, and each figure is
//! the median of its samples, so a slow spell on a shared host lands on
//! all three sizes.
//!
//! Timing is only meaningful in release, so the test is ignored by
//! default; `./ci.sh checker-scale` runs it as
//! `cargo test --release -p evs-core --test checker_scale -- --ignored --nocapture`.

use evs_core::{checker, EvsCluster, Service, Trace};
use evs_sim::ProcessId;
use std::time::{Duration, Instant};

/// Events per sample, at about four events per message.
const VOLUME: u32 = 50_000;
/// Samples per size.
const ROUNDS: usize = 9;

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// A trace of about four events per message: one send, three deliveries.
fn trace_of(messages: u32, seed: u64) -> Trace {
    let mut cluster = EvsCluster::<u32>::builder(3).seed(seed).build();
    assert!(cluster.run_until_settled(400_000));
    for k in 0..messages {
        let service = if k % 4 == 0 {
            Service::Safe
        } else {
            Service::Agreed
        };
        cluster.submit(p(k % 3), service, k);
        if k % 64 == 63 {
            cluster.run_for(200);
        }
        if k == messages / 2 {
            assert!(cluster.run_until_settled(400_000));
            cluster.partition(&[&[p(0), p(1)], &[p(2)]]);
            assert!(cluster.run_until_settled(400_000));
            cluster.merge_all();
            assert!(cluster.run_until_settled(400_000));
        }
    }
    assert!(cluster.run_until_settled(400_000));
    cluster.trace()
}

#[test]
#[ignore = "timing: run in release through ./ci.sh checker-scale"]
fn checker_cost_per_event_is_flat_in_trace_size() {
    let step = Instant::now();
    let batches: Vec<Vec<Trace>> = [500, 5_000, 50_000]
        .iter()
        .map(|&messages| {
            (0..VOLUME / messages)
                .map(|s| trace_of(messages, 7 + u64::from(s)))
                .collect()
        })
        .collect();
    let mut samples = vec![Vec::new(); batches.len()];
    for _ in 0..ROUNDS {
        for (batch, times) in batches.iter().zip(&mut samples) {
            let start = Instant::now();
            for trace in batch {
                checker::check_all(trace).expect("a conformant trace");
            }
            times.push(start.elapsed());
        }
    }
    let mut per_event = Vec::new();
    for (batch, times) in batches.iter().zip(&mut samples) {
        times.sort();
        let median = times[ROUNDS / 2];
        let events: usize = batch.iter().map(Trace::len).sum();
        let us = median.as_secs_f64() * 1e6 / events as f64;
        println!(
            "checker-scale: {:>7} events x {:>3}  {:>7.1} ms  {us:.3} us/event (quartiles {:.1}-{:.1} ms)",
            batch[0].len(),
            batch.len(),
            median.as_secs_f64() * 1e3,
            times[ROUNDS / 4].as_secs_f64() * 1e3,
            times[ROUNDS * 3 / 4].as_secs_f64() * 1e3
        );
        per_event.push(us);
    }
    let growth = per_event[2] / per_event[0];
    println!(
        "checker-scale: 200k/2k per-event ratio {growth:.2}, step {:.1} s",
        step.elapsed().as_secs_f64()
    );
    assert!(
        growth <= 2.0,
        "per-event cost grew {growth:.2}x from 2k to 200k events"
    );
    assert!(
        step.elapsed() < Duration::from_secs(60),
        "checker-scale took over a minute"
    );
}
