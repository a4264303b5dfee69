//! perfbench — wall time per deck through the CNFET deck simulator and
//! the simulation server, with a traced per-layer split.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tran_ring1k|op_ring2k|tran_adder2|serve_mix|all> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints every metric by name and unit, the run's answer fingerprint,
//! and as its last line one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer ones. See `perfbench/README.md` for what each workload
//! isolates.

mod decks;
mod inputs;
mod layers;
mod serve;
mod stats;

use decks::Outcome;
use inputs::Workload;
use stats::{failed_frac, median, peak_rss_mb, percentile, timed, Fingerprint, HostSpeed, Metrics};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: perfbench --workload <tran_ring1k|op_ring2k|tran_adder2|serve_mix|all> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|_| format!("bad value for {flag}: {value}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(format!("--seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }

    /// How long the traced run repeats each layer call.
    fn layer_budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * 0.02)
    }
}

/// Decks attempted, decks failed, and why.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            self.errors.push(e);
        }
    }
}

struct RunResult {
    tally: Tally,
    metrics: Metrics,
    fingerprint: Fingerprint,
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all();
    }
    let Some(workload) = Workload::from_name(&args.workload) else {
        eprintln!("perfbench: unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let result = match workload {
        Workload::ServeMix => serve_mix(&args),
        _ => deck_workload(workload, &args),
    };
    match result {
        Ok(result) => {
            print_result(workload, &args, result);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload, each in a process of its own so peak memory
/// stays per workload.
fn run_all() -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let at = args
        .iter()
        .position(|a| a == "--workload")
        .expect("parsed above")
        + 1;
    let mut status = ExitCode::SUCCESS;
    for w in Workload::ALL {
        args[at] = w.name().to_string();
        match std::process::Command::new(&exe).args(&args).status() {
            Ok(s) if s.success() => {}
            _ => status = ExitCode::FAILURE,
        }
    }
    status
}

/// The three deck workloads: an untimed first deck (set-up), then cold
/// decks for `--seconds`. A deck starts only when, at the median time
/// of the decks so far, it ends within `--seconds`, so a run does not
/// overshoot its time by most of a deck. The host speed is measured
/// before the set-up and between decks; times are reported at
/// reference-host speed (see [`HostSpeed`]).
fn deck_workload(workload: Workload, args: &Args) -> Result<RunResult, String> {
    let text = inputs::deck_text(workload, args.seed);
    let mut tally = Tally::default();
    let mut reference: Option<Outcome> = None;
    let mut judge = |result: Result<_, String>, tally: &mut Tally| {
        tally.record(result.and_then(|(run, outcome)| {
            decks::check(workload, &run)?;
            match &reference {
                None => reference = Some(outcome),
                Some(first) if *first == outcome => {}
                Some(_) => return Err("output differs from the run's first deck".to_string()),
            }
            Ok(())
        }));
    };

    let mut speed = HostSpeed::default();
    speed.measure(1);
    let (first, setup_s) = timed(|| decks::run_cold(&text));
    judge(first, &mut tally);
    let start = Instant::now();
    let mut deck_s = Vec::new();
    while median(&deck_s).is_none_or(|next| start.elapsed().as_secs_f64() + next <= args.seconds) {
        speed.measure(1);
        let (result, secs) = timed(|| decks::run_cold(&text));
        deck_s.push(secs);
        judge(result, &mut tally);
    }
    speed.measure(1);
    let reference = reference.ok_or_else(|| tally.errors.join("; "))?;
    let fingerprint = Fingerprint::new(
        reference.csv.iter().map(String::as_str),
        reference.counters.iter(),
    );

    let mut metrics = Metrics::default();
    let untraced_s = median(&deck_s).expect("at least one deck");
    if args.trace {
        let traced = layers::traced_deck(&text)?;
        tally.record(if reference.csv == [traced.csv.clone()] {
            Ok(())
        } else {
            Err("traced CSV differs from the untraced run".into())
        });
        layers::layer_metrics(&traced, untraced_s, args.layer_budget(), &mut metrics)?;
        metrics.push("host.calibration_s", speed.kernel_s(), "s");
        for name in SERVER_METRICS {
            metrics.push(
                name,
                0.0,
                if name == "server.submit_ms" {
                    "ms"
                } else {
                    "count"
                },
            );
        }
    } else {
        let scale = speed.scale();
        let ms: Vec<f64> = deck_s.iter().map(|s| s * scale * 1e3).collect();
        let busy_s: f64 = deck_s.iter().sum();
        metrics.push("setup_s", setup_s * scale, "s");
        metrics.push("deck_s", untraced_s * scale, "s");
        metrics.push("decks_per_s", deck_s.len() as f64 / (busy_s * scale), "1/s");
        push_latency_and_memory(&mut metrics, &ms, peak_rss_mb().unwrap_or(f64::NAN));
    }
    Ok(RunResult {
        tally,
        metrics,
        fingerprint,
    })
}

const SERVER_METRICS: [&str; 5] = [
    "server.submit_ms",
    "server.model_hits",
    "server.model_misses",
    "server.engine_hits",
    "server.engine_misses",
];

fn push_latency_and_memory(metrics: &mut Metrics, ms: &[f64], rss_mb: f64) {
    let p = |q| percentile(ms, q).expect("at least one sample");
    metrics.push("latency_p50_ms", p(50.0), "ms");
    metrics.push("latency_p95_ms", p(95.0), "ms");
    metrics.push("peak_rss_mb", rss_mb, "MB");
}

/// `serve_mix`: server set-up and priming, a closed loop for
/// `--seconds`, then every result checked against a cold run. Times
/// are reported at reference-host speed (see [`HostSpeed`]).
fn serve_mix(args: &Args) -> Result<RunResult, String> {
    let run = serve::run(args.seed, args.seconds)?;
    let mut tally = Tally {
        attempted: run.attempted,
        failed: run.failed,
        errors: run.errors,
    };
    let mut metrics = Metrics::default();
    if args.trace {
        let (cold, untraced_s) = timed(|| decks::run_cold(&run.representative));
        let (_, cold) = cold?;
        let traced = layers::traced_deck(&run.representative)?;
        tally.record(if cold.csv == [traced.csv.clone()] {
            Ok(())
        } else {
            Err("traced CSV differs from the untraced run".into())
        });
        layers::layer_metrics(&traced, untraced_s, args.layer_budget(), &mut metrics)?;
        metrics.push("host.calibration_s", run.speed.kernel_s(), "s");
        let submit = median(&run.submit_ms).unwrap_or(f64::NAN);
        metrics.push("server.submit_ms", submit, "ms");
        for (name, cache, field) in [
            ("server.model_hits", "models", "hits"),
            ("server.model_misses", "models", "misses"),
            ("server.engine_hits", "engines", "hits"),
            ("server.engine_misses", "engines", "misses"),
        ] {
            metrics.push(name, serve::cache_stat(&run.stats, cache, field), "count");
        }
    } else {
        let scale = run.speed.scale();
        let setup_s = median(&run.setup_s).expect("at least one set-up");
        let ms: Vec<f64> = run.latencies_ms.iter().map(|ms| ms * scale).collect();
        let p50 = median(&ms).ok_or("no request completed")?;
        metrics.push("setup_s", setup_s * scale, "s");
        metrics.push("deck_s", p50 / 1e3, "s");
        metrics.push(
            "decks_per_s",
            run.attempted as f64 / (run.elapsed_s * scale),
            "1/s",
        );
        push_latency_and_memory(&mut metrics, &ms, run.peak_rss_mb);
    }
    Ok(RunResult {
        tally,
        metrics,
        fingerprint: run.fingerprint,
    })
}

fn print_result(workload: Workload, args: &Args, mut result: RunResult) {
    let tally = &mut result.tally;
    if args.trace {
        result.metrics.push(
            "failed_frac",
            failed_frac(tally.failed, tally.attempted),
            "ratio",
        );
    }
    let mut correct = tally.failed == 0;
    let mut fields = Vec::new();
    for &(name, value, unit) in &result.metrics.0 {
        println!("{name:<30} {value:>18.6} {unit}");
        if !value.is_finite() {
            correct = false;
            tally.errors.push(format!("{name} is not a finite number"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{} seed {}: {} of {} decks failed, failed_frac {}",
        workload.name(),
        args.seed,
        tally.failed,
        tally.attempted,
        failed_frac(tally.failed, tally.attempted)
    );
    println!(
        "fingerprint {} seed {}: {}",
        workload.name(),
        args.seed,
        result.fingerprint
    );
    for e in tally.errors.iter().take(5) {
        eprintln!("perfbench: {}: {e}", workload.name());
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        fields.join(", ")
    );
}
