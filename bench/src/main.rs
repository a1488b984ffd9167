//! `evs-e2e`: the repository's end-to-end benchmark (see `bench/README.md`).
//!
//! ```text
//! evs-e2e --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Prints human-readable `# ` lines, then as its last line one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`.

mod alloc;
mod edge;
mod epoch;
mod load;
mod probes;
mod reactor;
mod reference;
mod run;
mod trace;

use run::{Opts, RunOut, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str =
    "usage: evs-e2e --workload <ring_64b_agreed|ring_2k_safe|broker_udp_wal|fault_n5_safe> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse_args() -> Result<Opts, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, 1, 20.0, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value} is outside 0..600"));
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        traced,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn print_result(out: &RunOut) {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}

fn main() {
    alloc::keep_freed_pages();
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run::run(&opts) {
        Ok(out) => {
            print_result(&out);
            // A failed check fails the run; it is not a metric that moved.
            if !out.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("evs-e2e: {e}");
            std::process::exit(1);
        }
    }
}
