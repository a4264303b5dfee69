//! The `serve_mix` workload: an in-process `cntfet-serve` on a Unix
//! socket under a closed loop of client connections, checked against
//! cold in-process runs of the same deck text.

use crate::decks::run_cold;
use crate::inputs::{Request, ServeMix};
use crate::stats::{hash_parts, peak_rss_mb, Fingerprint, HostSpeed};
use cntfet_server::client::Client;
use cntfet_server::json::Json;
use cntfet_server::server::{RunningServer, Server, ServerConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Server worker threads, and client connections in the closed loop.
pub const WORKERS: usize = 2;
pub const CLIENTS: usize = 2;
/// Server set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// The timed phase runs in segments of at most this many seconds, with
/// the load paused between them while the host speed is measured.
const SEGMENT_S: f64 = 5.0;
/// `peak_rss_mb` is read when this stream request completes. The engine
/// pool keeps an engine for every new topology, so the peak grows with
/// the requests served; read at a fixed request, it does not depend on
/// how fast the host ran.
const RSS_AT_REQUEST: u64 = 600;
/// The answer fingerprint covers this many leading stream requests,
/// so it does not depend on how many requests a run completes.
const FINGERPRINT_REQUESTS: u64 = 20;

/// One completed request of the timed phase.
struct Record {
    request: Request,
    latency_ms: f64,
    submit_ms: f64,
    /// Hash of the result's reports as `cntfet-sim --csv` prints them.
    result: Result<u64, String>,
}

/// What a `serve_mix` run measured.
pub struct ServeRun {
    pub setup_s: Vec<f64>,
    /// Host speed, measured between set-ups and between load segments.
    pub speed: HostSpeed,
    pub latencies_ms: Vec<f64>,
    pub submit_ms: Vec<f64>,
    /// Peak resident memory when request [`RSS_AT_REQUEST`] completed
    /// (at the end of the timed phase, if the run ended before it).
    pub peak_rss_mb: f64,
    pub elapsed_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// The `stats` op response after the timed phase.
    pub stats: Json,
    pub fingerprint: Fingerprint,
    /// The deck the traced run takes apart: the stream's first new
    /// topology, which pays for symbolic analysis on the server.
    pub representative: String,
}

fn socket_path(i: usize) -> PathBuf {
    PathBuf::from(format!("perfbench-{}-{i}.sock", std::process::id()))
}

fn err(context: &str) -> impl Fn(cntfet_server::client::ClientError) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// Starts a server and primes it with one deck per repeat topology.
fn set_up(mix: &ServeMix, i: usize) -> Result<(RunningServer, Client), String> {
    let server = Server::start(ServerConfig::new(socket_path(i), WORKERS))
        .map_err(|e| format!("server start: {e}"))?;
    let mut client = Client::connect(server.socket()).map_err(err("connect"))?;
    for text in mix.priming() {
        let job = client.submit(text).map_err(err("priming submit"))?;
        client.wait_result(job).map_err(err("priming result"))?;
    }
    Ok((server, client))
}

/// Hash of a result's reports as `cntfet-sim --csv` prints them.
fn result_hash(result: &Json) -> Result<u64, String> {
    let reports = result
        .get("reports")
        .and_then(Json::as_arr)
        .ok_or("result lacks reports")?;
    let csv = reports
        .iter()
        .map(|r| {
            let label = r.get("label").and_then(Json::as_str);
            let csv = r.get("csv").and_then(Json::as_str);
            match (label, csv) {
                (Some(label), Some(csv)) => Ok(format!("* {label}\n{csv}")),
                _ => Err("report lacks a label or csv".to_string()),
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(hash_parts(csv.iter().map(String::as_str)))
}

/// Closed loop: each client submits its next request when the previous
/// result has arrived, until `seconds` have passed. Requests continue
/// the stream from `next`; `rss` takes the peak resident memory when
/// request [`RSS_AT_REQUEST`] completes.
fn closed_loop(
    mix: &ServeMix,
    socket: &std::path::Path,
    seconds: f64,
    next: &AtomicU64,
    rss: &OnceLock<f64>,
) -> Result<(Vec<Record>, f64), String> {
    let deadline = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let per_client = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| -> Result<Vec<Record>, String> {
                    let mut client = Client::connect(socket).map_err(err("connect"))?;
                    let mut records = Vec::new();
                    while start.elapsed() < deadline {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let request = mix.request(k);
                        let text = mix.text(request);
                        let t0 = Instant::now();
                        let mut submit_ms = f64::NAN;
                        let result = client
                            .submit(&text)
                            .and_then(|job| {
                                submit_ms = t0.elapsed().as_secs_f64() * 1e3;
                                client.wait_result(job)
                            })
                            .map_err(|e| e.to_string())
                            .and_then(|json| result_hash(&json));
                        records.push(Record {
                            request,
                            latency_ms: t0.elapsed().as_secs_f64() * 1e3,
                            submit_ms,
                            result,
                        });
                        if k == RSS_AT_REQUEST {
                            rss.get_or_init(|| peak_rss_mb().unwrap_or(f64::NAN));
                        }
                    }
                    Ok(records)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let elapsed = start.elapsed().as_secs_f64();
    Ok((per_client.into_iter().flatten().collect(), elapsed))
}

/// The CSV hash and counters of a cold run.
type Cold = Result<(u64, Vec<BTreeMap<String, u64>>), String>;

/// Cold `Deck::run` of every request text, on `WORKERS` threads.
fn cold_outcomes(mix: &ServeMix, requests: Vec<Request>) -> BTreeMap<Request, Cold> {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(BTreeMap::new());
    std::thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&request) = requests.get(i) else {
                    return;
                };
                let outcome = run_cold(&mix.text(request))
                    .map(|(_, o)| (hash_parts(o.csv.iter().map(String::as_str)), o.counters));
                done.lock()
                    .expect("a check thread panicked")
                    .insert(request, outcome);
            });
        }
    });
    done.into_inner().expect("a check thread panicked")
}

/// Runs `serve_mix` for `seed` with a timed phase of `seconds`.
///
/// # Errors
///
/// A server or connection failure, as text.
pub fn run(seed: u64, seconds: f64) -> Result<ServeRun, String> {
    let mix = ServeMix::new(seed);
    let mut setup_s = Vec::new();
    let mut speed = HostSpeed::default();
    let mut live = None;
    for i in 0..SETUPS {
        speed.measure(WORKERS);
        let start = Instant::now();
        let (server, mut client) = set_up(&mix, i)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            client.shutdown(false).map_err(err("shutdown"))?;
            server.wait();
        } else {
            live = Some((server, client));
        }
    }
    let (server, mut client) = live.expect("at least one set-up");

    let next = AtomicU64::new(0);
    let rss = OnceLock::new();
    let mut records = Vec::new();
    let mut elapsed_s = 0.0;
    let mut timed = Ok(());
    while timed.is_ok() && elapsed_s < seconds {
        speed.measure(WORKERS);
        let segment = SEGMENT_S.min(seconds - elapsed_s);
        timed = closed_loop(&mix, server.socket(), segment, &next, &rss).map(|(done, secs)| {
            records.extend(done);
            elapsed_s += secs;
        });
    }
    speed.measure(WORKERS);
    let peak_rss_mb = *rss.get_or_init(|| peak_rss_mb().unwrap_or(f64::NAN));
    let stats = client.stats().map_err(err("stats"));
    client.shutdown(false).map_err(err("shutdown"))?;
    server.wait();
    timed?;
    let stats = stats?;

    // Check every result against a cold run of the same text.
    let mut requests: Vec<Request> = records.iter().map(|r| r.request).collect();
    requests.extend((0..FINGERPRINT_REQUESTS).map(|k| mix.request(k)));
    requests.sort_unstable();
    requests.dedup();
    let cold = cold_outcomes(&mix, requests);
    let mut errors = Vec::new();
    let mut failed = 0;
    for r in &records {
        let verdict = match (&r.result, &cold[&r.request]) {
            (Err(e), _) => Err(format!("server: {e}")),
            (_, Err(e)) => Err(format!("cold run: {e}")),
            (Ok(warm), Ok((cold, _))) if warm != cold => {
                Err("warm result differs from the cold run".into())
            }
            _ => Ok(()),
        };
        if let Err(e) = verdict {
            failed += 1;
            errors.push(format!("{:?}: {e}", r.request));
        }
    }
    let mut leading = Vec::new();
    for k in 0..FINGERPRINT_REQUESTS {
        match &cold[&mix.request(k)] {
            Ok(outcome) => leading.push(outcome),
            Err(e) => return Err(format!("request {k}: {e}")),
        }
    }
    let csv: Vec<String> = leading.iter().map(|(h, _)| format!("{h:016x}")).collect();
    let fingerprint = Fingerprint::new(
        csv.iter().map(String::as_str),
        leading.iter().flat_map(|(_, counters)| counters.iter()),
    );
    Ok(ServeRun {
        setup_s,
        speed,
        latencies_ms: records.iter().map(|r| r.latency_ms).collect(),
        submit_ms: records
            .iter()
            .map(|r| r.submit_ms)
            .filter(|v| v.is_finite())
            .collect(),
        peak_rss_mb,
        elapsed_s,
        attempted: records.len() as u64,
        failed,
        errors,
        stats,
        fingerprint,
        representative: mix.text(Request::New { index: 0 }),
    })
}

/// A cache counter from the `stats` op response.
pub fn cache_stat(stats: &Json, cache: &str, field: &str) -> f64 {
    stats
        .get("caches")
        .and_then(|c| c.get(cache))
        .and_then(|c| c.get(field))
        .and_then(Json::as_u64)
        .unwrap_or(0) as f64
}
