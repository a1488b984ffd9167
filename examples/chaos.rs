//! Chaos campaign driver: seeded fault-schedule search with automatic
//! counterexample shrinking.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example chaos                       # 500 seeds
//! cargo run --release --example chaos -- --iters 10000      # bigger sweep
//! cargo run --release --example chaos -- --seed 99 --n 5    # other corner
//! cargo run --release --example chaos -- --n 5 --keep-going # the soak
//! cargo run --release --example chaos -- --mix crash=6 --mix drop=4
//! cargo run --release --example chaos -- --jobs 4           # parallel sweep
//! cargo run --release --example chaos -- --live --iters 50  # threaded driver
//! cargo run --release --example chaos -- --hunting --live   # lossy live sweep
//! cargo run --release --example chaos -- --corruption       # corruption mix
//! cargo run --release --example chaos -- --replay repro.txt # rerun a file
//! cargo run --release --example chaos -- --factory --iters 5000 --jobs 8
//! cargo run --release --features chaos-mutation --example chaos -- --self-test
//! ```
//!
//! Every iteration generates one fault plan (`--seed` + iteration index),
//! executes it under the deterministic simulator — or, with `--live`, on
//! the real multi-threaded driver with per-link fault injection (plans
//! with broker steps, which it cannot run, stay on the simulator) — and
//! checks the full conformance suite (Specifications 1.1–7.2, primary
//! component, §5 VS reduction). `--jobs N` stripes the seeds across N
//! worker threads; the merged stats and artifacts do not depend on N. On
//! failure the plan is delta-debugged down to a minimal counterexample
//! and written to `chaos-artifacts/chaos-repro-<seed>.txt`, beside the
//! original schedule in `chaos-full-<seed>.txt`; replay either later
//! with `--replay`, which also prints every process's exposition. `--kill-chaos` swaps in the durability mix
//! (process kills with no farewell callback plus WAL restarts);
//! `--corruption` the self-stabilization mix (counter bit flips, sequence
//! wrap, configuration desync and WAL rot layered over kill/restart).
//! `--factory` is the same campaign as a coverage-accounting soak: it
//! keeps going past failures, defaults to the full-vocabulary mix with
//! telemetry attached, runs every
//! `--live-every`-th plan on the live driver (every 64th with a bare
//! `--live`), and reports which fault kinds, plan shapes and inspect
//! anomaly detectors the soak exercised (`--strict-coverage` turns a
//! never-fired fault kind into a nonzero exit). `--self-test` (requires
//! the `chaos-mutation` feature) proves the pipeline end to end by
//! hunting a deliberately broken engine.

use evs::chaos::{
    Campaign, CampaignConfig, CampaignStats, CounterExample, FaultPlan, GenConfig, Orchestrator,
    ScenarioGen, Shrinker,
};

struct Args {
    seed: u64,
    iters: u64,
    n: u8,
    gen_cfg: GenConfig,
    mix_overridden: bool,
    replay: Option<String>,
    self_test: bool,
    keep_going: bool,
    jobs: usize,
    live: bool,
    obs: bool,
    factory: bool,
    live_every: u64,
    strict_coverage: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: chaos [--seed S] [--iters K] [--n N] [--mix KIND=WEIGHT]...\n\
         \x20            [--hunting] [--kill-chaos] [--broker-chaos] [--corruption]\n\
         \x20            [--jobs N] [--live] [--keep-going] [--obs] [--replay FILE]\n\
         \x20            [--self-test] [--factory] [--live-every N] [--strict-coverage]\n\
         \n\
         KIND is one of: split merge crash recover kill restart drop delay mcast run\n\
         \x20             brokerkill brokerreconnect bitflip seqwrap confdesync\n\
         \x20             walbyte waltrunc\n\
         --hunting selects the loss-heavy mix (overridden by later --mix flags)\n\
         --kill-chaos selects the durability mix (kill -9 / WAL-restart heavy)\n\
         --broker-chaos selects the client-path mix (broker kill/reconnect replays;\n\
         \x20             its plans run on the simulator even under --live)\n\
         --corruption selects the self-stabilization mix (bit flips, sequence wrap,\n\
         \x20             configuration desync, WAL rot over kill/restart)\n\
         --factory runs the campaign as a coverage-accounting soak: it keeps going,\n\
         \x20             and the report shows fault-kind / plan-shape / anomaly-detector\n\
         \x20             coverage (defaults to the full-vocabulary factory mix)\n\
         --live-every N runs every Nth plan on the live driver (--live alone: every\n\
         \x20             plan, or every 64th under --factory)\n\
         --strict-coverage exits nonzero if a generable fault kind never fired\n\
         --obs answers OBS? scrapes while the campaign runs (watch progress\n\
         \x20             live with `cargo run --release --example evs_top`)\n\
         --self-test requires building with --features chaos-mutation (engine bug)\n\
         \x20             or --features broker-mutation (dedup-ledger bug)"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 0xC4A05,
        iters: 500,
        n: 4,
        gen_cfg: GenConfig::default(),
        mix_overridden: false,
        replay: None,
        self_test: false,
        keep_going: false,
        jobs: 1,
        live: false,
        obs: false,
        factory: false,
        live_every: 0,
        strict_coverage: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--seed" => args.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--iters" => args.iters = value("--iters").parse().unwrap_or_else(|_| usage()),
            "--n" => args.n = value("--n").parse().unwrap_or_else(|_| usage()),
            "--mix" => {
                let spec = value("--mix");
                let Some((kind, weight)) = spec.split_once('=') else {
                    eprintln!("--mix wants KIND=WEIGHT, got {spec:?}");
                    usage()
                };
                let weight: u32 = weight.parse().unwrap_or_else(|_| usage());
                if !args.gen_cfg.mix.set(kind, weight) {
                    eprintln!("unknown fault kind {kind:?}");
                    usage()
                }
                args.mix_overridden = true;
            }
            "--hunting" => {
                args.gen_cfg.mix = evs::chaos::FaultMix::hunting();
                args.mix_overridden = true;
            }
            "--kill-chaos" => {
                args.gen_cfg.mix = evs::chaos::FaultMix::kill_chaos();
                args.mix_overridden = true;
            }
            "--broker-chaos" => {
                args.gen_cfg.mix = evs::chaos::FaultMix::broker_chaos();
                args.mix_overridden = true;
            }
            "--corruption" => {
                args.gen_cfg.mix = evs::chaos::FaultMix::corruption();
                args.mix_overridden = true;
            }
            "--jobs" => args.jobs = value("--jobs").parse().unwrap_or_else(|_| usage()),
            "--live" => args.live = true,
            "--factory" => args.factory = true,
            "--live-every" => {
                args.live_every = value("--live-every").parse().unwrap_or_else(|_| usage())
            }
            "--strict-coverage" => args.strict_coverage = true,
            "--obs" => args.obs = true,
            "--replay" => args.replay = Some(value("--replay")),
            "--self-test" => args.self_test = true,
            "--keep-going" => args.keep_going = true,
            _ => {
                eprintln!("unknown flag {flag:?}");
                usage()
            }
        }
    }
    args.gen_cfg.n = args.n;
    args
}

/// Keeps a counterexample: the shrunk plan as `chaos-repro-<seed>.txt`
/// and the original schedule as `chaos-full-<seed>.txt`.
fn write_artifact(ce: &CounterExample) {
    // Every on-disk artifact the chaos tooling produces — repro plans
    // here, telemetry dumps from the UDP kill harness — lands under one
    // directory, so a post-mortem has a single place to look.
    let dir = std::path::Path::new("chaos-artifacts");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("  could not create {}: {e}", dir.display());
        return;
    }
    for (kind, text) in [("repro", ce.artifact()), ("full", ce.original.to_text())] {
        let path = dir.join(format!("chaos-{kind}-{}.txt", ce.seed));
        match std::fs::write(&path, text) {
            Ok(()) => eprintln!("  {kind} artifact written to {}", path.display()),
            Err(e) => eprintln!("  could not write {}: {e}", path.display()),
        }
    }
}

fn report_counterexample(ce: &CounterExample) {
    eprintln!(
        "seed {}: VIOLATION of {} (shrunk {} -> {} steps in {} checks)",
        ce.seed,
        ce.failure.specs.join(", "),
        ce.original.steps.len(),
        ce.shrunk.steps.len(),
        ce.shrink_checks
    );
    eprintln!("--- minimal failing plan ---\n{}", ce.shrunk.to_text());
    write_artifact(ce);
}

fn replay(path: &str, live: bool) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2)
    });
    let plan = FaultPlan::from_text(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(2)
    });
    println!(
        "replaying {path} ({}): {} process(es), seed {}, {} step(s)",
        if live { "live driver" } else { "simulator" },
        plan.n,
        plan.seed,
        plan.steps.len()
    );
    let orch = Orchestrator::default();
    let outcome = if live {
        orch.run_live(&plan).unwrap_or_else(|e| {
            eprintln!("plan not runnable on the live driver: {e}");
            std::process::exit(2)
        })
    } else {
        orch.run_sim(&plan)
    };
    for expo in &outcome.snapshots {
        print!("{}", expo.to_text());
    }
    match outcome.failure {
        None => {
            println!("replay: all specifications hold ✓");
            std::process::exit(0)
        }
        Some(failure) => {
            eprintln!(
                "replay: VIOLATION of {}\n{}",
                failure.specs.join(", "),
                failure.details
            );
            std::process::exit(1)
        }
    }
}

fn self_test(args: &Args) -> ! {
    let broker = evs::chaos::broker_mutation_active();
    if !evs::chaos::mutation_active() && !broker {
        eprintln!(
            "--self-test needs a deliberately planted bug; rebuild with\n\
             \x20   cargo run --release --features chaos-mutation --example chaos -- --self-test\n\
             or, for the broker dedup-ledger bug,\n\
             \x20   cargo run --release --features broker-mutation --example chaos -- --self-test"
        );
        std::process::exit(2)
    }
    println!(
        "== chaos self-test: hunting the {} bug (base seed {:#x}) ==",
        if broker {
            "broker-mutation"
        } else {
            "chaos-mutation"
        },
        args.seed
    );
    let mut gen_cfg = args.gen_cfg.clone();
    if gen_cfg.mix == evs::chaos::FaultMix::default() {
        // Without explicit --mix flags, hunt with the mix that actually
        // reaches the mutated code path: heavy loss for the engine bug,
        // broker kill/reconnect replays for the ledger bug.
        gen_cfg.mix = if broker {
            evs::chaos::FaultMix::broker_chaos()
        } else {
            evs::chaos::FaultMix::hunting()
        };
    }
    let campaign = Campaign::new(
        ScenarioGen::new(gen_cfg),
        Orchestrator::default(),
        Shrinker::default(),
        CampaignConfig::default(),
    );
    let (stats, found) = campaign.run(args.seed, args.iters);
    println!("  {} run(s), {} failure(s)", stats.runs, stats.failures);
    let Some(ce) = found.first() else {
        eprintln!(
            "self-test FAILED: the mutated engine survived {} schedule(s); \
             widen --iters or adjust --mix",
            stats.runs
        );
        std::process::exit(1)
    };
    report_counterexample(ce);
    // Prove the artifact round-trips and still reproduces the violation.
    let replayed = FaultPlan::from_text(&ce.artifact()).expect("artifact parses");
    let outcome = Orchestrator::default().run_sim(&replayed);
    match outcome.failure {
        Some(f) if f.specs.contains(&ce.target_spec) => {
            println!(
                "self-test passed: pipeline caught the planted bug, shrank it to {} step(s), \
                 and the artifact replays to a violation of {} ✓",
                ce.shrunk.steps.len(),
                ce.target_spec
            );
            std::process::exit(0)
        }
        other => {
            eprintln!(
                "self-test FAILED: artifact replay did not reproduce {} (got {:?})",
                ce.target_spec,
                other.map(|f| f.specs)
            );
            std::process::exit(1)
        }
    }
}

/// Ends a `--factory` soak: the coverage report, every counterexample,
/// and the strict-coverage gate.
fn factory_report(args: &Args, stats: &CampaignStats, found: &[CounterExample]) -> ! {
    println!(
        "== chaos factory: {} run(s) ({} live), {} step(s), {} failure(s) ==",
        stats.runs, stats.live_runs, stats.steps, stats.failures
    );
    print!("{}", stats.coverage.to_text());
    for ce in found {
        report_counterexample(ce);
    }
    let mut bad = !found.is_empty();
    if args.strict_coverage {
        let never = stats.coverage.never_fired_kinds();
        if never.is_empty() {
            println!("strict coverage: every generable fault kind fired ✓");
        } else {
            eprintln!(
                "strict coverage FAILED: fault kind(s) never fired: {}",
                never.join(", ")
            );
            bad = true;
        }
    }
    std::process::exit(if bad { 1 } else { 0 })
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.replay {
        replay(path, args.live);
    }
    if args.self_test {
        self_test(&args);
    }
    if evs::chaos::mutation_active() || evs::chaos::broker_mutation_active() {
        // A campaign against a deliberately broken engine or ledger proves
        // nothing about the protocol; require the explicit self-test mode.
        eprintln!("built with a planted mutation: only --self-test and --replay make sense");
        std::process::exit(2)
    }

    let mut gen_cfg = args.gen_cfg.clone();
    if args.factory && !args.mix_overridden {
        // The factory's job is coverage; default to the one mix that can
        // generate the entire step vocabulary.
        gen_cfg.mix = evs::chaos::FaultMix::factory();
    }
    let live_every = match (args.live_every, args.live) {
        (0, true) if args.factory => 64, // sprinkle live runs into a soak
        (0, true) => 1,
        (n, _) => n,
    };
    let (mode, driver) = match (args.factory, live_every) {
        (true, 0) => ("factory", "live every never".to_string()),
        (true, n) => ("factory", format!("live every {n} plan(s)")),
        (false, _) if args.live => ("campaign", "live driver".to_string()),
        (false, _) => ("campaign", "simulator driver".to_string()),
    };
    println!(
        "== chaos {mode}: {} seed(s) from {:#x}, {} process(es), {} job(s), {driver} ==",
        args.iters,
        args.seed,
        args.n,
        args.jobs.max(1),
    );
    let campaign = Campaign::new(
        ScenarioGen::new(gen_cfg),
        // A soak keeps telemetry attached: detector coverage reads each
        // run's flight-recorder dumps.
        if args.factory {
            Orchestrator::default()
        } else {
            Orchestrator::detached()
        },
        Shrinker::default(),
        CampaignConfig {
            stop_on_failure: !args.keep_going && !args.factory,
            shrink: true,
            jobs: args.jobs,
            live_every,
            ..CampaignConfig::default()
        },
    );
    // Keep the responder (and its scrape socket) alive for the whole
    // campaign; dropping it at end of main stops the sidecar thread.
    let _responder = if args.obs {
        let responder = evs::obs::ObsResponder::spawn(campaign.telemetry().clone(), || {
            vec![
                ("role".to_string(), "chaos".to_string()),
                ("os_pid".to_string(), std::process::id().to_string()),
            ]
        })
        .expect("spawn obs responder");
        let path = std::path::Path::new("chaos-artifacts").join("obs-endpoints.txt");
        evs::obs::serve::write_endpoints(&path, &[responder.addr()]).expect("write endpoints");
        println!(
            "   answering OBS? scrapes on {} (endpoints file {}); watch with\n\
             \x20    cargo run --release --example evs_top",
            responder.addr(),
            path.display()
        );
        Some(responder)
    } else {
        None
    };
    let (stats, found) = campaign.run(args.seed, args.iters);
    if args.factory {
        factory_report(&args, &stats, &found);
    }
    println!(
        "  {} run(s), {} schedule step(s), {} failure(s)",
        stats.runs, stats.steps, stats.failures
    );
    print!("{}", campaign.snapshot().to_text());
    if found.is_empty() {
        println!("chaos campaign clean: every schedule conformant ✓");
    } else {
        for ce in &found {
            report_counterexample(ce);
        }
        std::process::exit(1)
    }
}
