//! `serve-mix`: a closed loop of one client against an in-process
//! server.
//!
//! One client connection waits for every reply before sending the next
//! request.  One connection, held for the whole run, keeps the load to
//! two busy threads (the client and one server worker) that hand each
//! request back and forth on the one CPU the process runs on (see
//! [`run::pin_to_one_cpu`]), so the figures measure the server rather
//! than the scheduler.  The mix comes in rounds, a seeded sequence of:
//!
//! * every one of the 31 short (model, kernel) pairs on `ref`,
//!   `tms320c25` and `bass_boost`, once, compiled by content key;
//! * [`INLINE_PER_ROUND`] of those addressed by inline HDL instead, which
//!   puts the `model_key` digest on a cache read;
//! * [`LISTINGS_PER_ROUND`] asking for the listing, compared byte for
//!   byte with the checked library compile;
//! * every [`ROUNDS_PER_RETARGET`]th round, a `retarget` of the next
//!   generated model.  The client cycles through a pool six times the
//!   cache capacity, so every such request misses, retargets and evicts.
//!   A round never holds more than one, so the three served models,
//!   touched every round, never fall out of the LRU cache.
//!
//! These proportions are chosen, not measured: the repository records
//! no production traffic to derive them from.  They give each kind of
//! request a share large enough to time.
//!
//! `/metrics` is scraped before and after the loop: the served count must
//! equal the requests completed, retargets the generated-model requests
//! (each a miss), and nothing may be rejected.

use crate::library::{self, Fingerprint};
use crate::metrics::{Spans, COMPILE_PHASES, RETARGET_PHASES};
use crate::oracle::{self, Checked, Kernel, IMAGES};
use crate::pace;
use crate::run::{self, Outcome, RunOptions};
use crate::stats::{Window, Windows};
use record_core::{CompileRequest, Record, RetargetOptions};
use record_fuzz::{ModelSpec, Rng};
use record_serve::{
    local_key, parse_request, Client, CompileSpec, Json, Model, ModelKey, ModelRef, Request,
    ServerConfig, ServerHandle, SessionPool, TargetCache,
};
use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The served models: every pair of these that compiles is in the mix.
const SERVED_MODELS: [&str; 3] = ["ref", "tms320c25", "bass_boost"];

/// Generated models behind the `retarget` requests: six times the
/// default cache capacity of 8.
const GENERATED_MODELS: usize = 48;

/// Seed of the generated model pool (fixed, as in `retarget-cold`).
const POOL_SEED: u64 = 0x5e7e;

/// Compiles per round addressed by inline HDL.
const INLINE_PER_ROUND: u64 = 4;

/// Compiles per round that ask for the listing.
const LISTINGS_PER_ROUND: u64 = 2;

/// One generated-model retarget per this many rounds.  A block of this
/// many rounds, starting with the retarget, is also the unit a traced run
/// alternates between two servers.
const ROUNDS_PER_RETARGET: u64 = 8;

/// Completed requests per measuring window.
const WINDOW: usize = 1_000;

/// Samples the client reserves room for up front.  Only the pages
/// written become resident, so peak memory grows smoothly with the
/// requests completed instead of jumping at each doubling of the sample
/// buffer.
const SAMPLES_RESERVED: usize = 1 << 21;

/// A (model, kernel) pair of the mix and its checked library compile.
struct Pair {
    model: usize,
    kernel: Kernel,
    checked: Checked,
}

/// A generated model and its library retarget's answer.
struct Generated {
    hdl: String,
    processor: String,
    expect: Fingerprint,
    op_cache_hit_rate: f64,
}

/// One request of a client's script.
#[derive(Debug, Clone, Copy)]
enum Req {
    Compile {
        pair: usize,
        inline: bool,
        listing: bool,
    },
    Retarget {
        generated: usize,
    },
}

/// Everything a run serves and checks against.
struct Setup {
    hdl: Vec<&'static str>,
    keys: Vec<String>,
    pairs: Vec<Pair>,
    generated: Vec<Generated>,
    /// The default-config server, and in traced runs a second one with
    /// the flight recorder disarmed.
    servers: Vec<ServerHandle>,
}

fn setup(opts: &RunOptions) -> Result<(Setup, Vec<String>), String> {
    let mut problems = Vec::new();
    let mut rng = run::rng(opts.seed, 10);
    let mut hdl = Vec::new();
    let mut pairs = Vec::new();
    let kernels = record_targets::kernels()
        .into_iter()
        .chain(record_targets::control_kernels());
    let kernels: Vec<Kernel> = kernels
        .map(|k| Kernel::parse(k.name, k.source, k.function))
        .collect::<Result<_, _>>()?;
    for (m, name) in SERVED_MODELS.iter().enumerate() {
        let model = record_targets::models::model(name).expect("served model exists");
        let target =
            Record::retarget(model.hdl, &RetargetOptions::default()).map_err(|e| e.to_string())?;
        for kernel in &kernels {
            if target.compile(&kernel.request()).is_err() {
                continue;
            }
            let images = oracle::images(&kernel.program, model.data_width, &mut rng, IMAGES);
            if m == 0 && pairs.is_empty() {
                if let Err(e) = oracle::self_test(&target, kernel, &images) {
                    problems.push(e);
                }
            }
            match oracle::verify(&target, kernel, &images) {
                Ok(checked) => pairs.push(Pair {
                    model: m,
                    kernel: kernel.clone(),
                    checked,
                }),
                Err(e) => problems.push(e),
            }
        }
        hdl.push(model.hdl);
    }

    let mut generated = Vec::new();
    let mut i = 0;
    while generated.len() < GENERATED_MODELS && i < 4 * GENERATED_MODELS as u64 {
        let spec = ModelSpec::generate(&mut run::rng(POOL_SEED, i));
        i += 1;
        let source = spec.render();
        if let Ok(target) = Record::retarget(&source, &RetargetOptions::default()) {
            generated.push(Generated {
                processor: target.report().processor.clone(),
                expect: Fingerprint::of(&target),
                op_cache_hit_rate: target.manager().op_cache_hit_rate(),
                hdl: source,
            });
        }
    }
    if generated.len() < GENERATED_MODELS {
        return Err(format!(
            "only {} generated models retarget",
            generated.len()
        ));
    }

    let mut servers = vec![start_server(ServerConfig::default().slow_threshold_ms)?];
    if opts.trace {
        servers.push(start_server(None)?);
    }
    // Warm each server with the served models, as a build tool would
    // before compiling against their keys.
    let mut keys = Vec::new();
    for server in &servers {
        let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
        keys.clear();
        for source in &hdl {
            let summary = client.retarget(source).map_err(|e| e.to_string())?;
            if summary.key != local_key(source) {
                problems.push(format!(
                    "retarget key {} is not the local digest",
                    summary.key
                ));
            }
            keys.push(summary.key);
        }
    }
    Ok((
        Setup {
            hdl,
            keys,
            pairs,
            generated,
            servers,
        },
        problems,
    ))
}

/// A server with the default configuration, the `/metrics` listener on,
/// and the given flight-recorder threshold.
fn start_server(slow_threshold_ms: Option<u64>) -> Result<ServerHandle, String> {
    record_serve::Server::start(
        "127.0.0.1:0",
        ServerConfig {
            metrics_addr: Some("127.0.0.1:0".to_owned()),
            slow_threshold_ms,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("starting the server: {e}"))
}

/// The generated model that `round` retargets, if it is the first of its
/// block.  Blocks go to `sides` servers (or traced and untraced replay
/// halves) in turn, and the `sides` blocks of one turn retarget the same
/// model, so every side is timed on the same models.
fn retarget_in(round: u64, sides: u64, setup: &Setup) -> Option<usize> {
    let block = round / ROUNDS_PER_RETARGET;
    round
        .is_multiple_of(ROUNDS_PER_RETARGET)
        .then(|| ((block / sides) % setup.generated.len() as u64) as usize)
}

/// One round of the script, with a retarget of `generated` if given.
fn script_round(rng: &mut Rng, generated: Option<usize>, setup: &Setup) -> Vec<Req> {
    let n = setup.pairs.len();
    let mut reqs: Vec<Req> = run::shuffled(n, rng)
        .into_iter()
        .map(|pair| Req::Compile {
            pair,
            inline: false,
            listing: false,
        })
        .collect();
    for _ in 0..INLINE_PER_ROUND {
        if let Req::Compile { inline, .. } = &mut reqs[rng.below(n as u64) as usize] {
            *inline = true;
        }
    }
    for _ in 0..LISTINGS_PER_ROUND {
        if let Req::Compile { listing, .. } = &mut reqs[rng.below(n as u64) as usize] {
            *listing = true;
        }
    }
    if let Some(generated) = generated {
        let at = rng.below(n as u64 + 1) as usize;
        reqs.insert(at, Req::Retarget { generated });
    }
    reqs
}

/// The per-input number of a request: its pair, or one past the pairs
/// for a retarget (kept out of the per-input geometric mean).
fn input_of(req: Req, pairs: usize) -> usize {
    match req {
        Req::Compile { pair, .. } => pair,
        Req::Retarget { .. } => pairs,
    }
}

/// What a served or replayed response says.
enum Answer<'a> {
    Compile {
        ops: u64,
        code_size: u64,
        listing: Option<&'a str>,
    },
    Retarget {
        processor: &'a str,
        rules: u64,
    },
}

/// Holds the answer to `req` to the library result.
fn check_answer(req: Req, answer: Answer<'_>, setup: &Setup) -> Result<(), String> {
    match (req, answer) {
        (
            Req::Compile { pair, listing, .. },
            Answer::Compile {
                ops,
                code_size,
                listing: got,
            },
        ) => {
            let p = &setup.pairs[pair];
            p.checked
                .matches_summary(ops as usize, code_size as usize)
                .map_err(|e| format!("served {}: {e}", p.kernel.name))?;
            if listing && got != Some(p.checked.listing.as_str()) {
                return Err(format!("served {}: listing differs", p.kernel.name));
            }
            Ok(())
        }
        (Req::Retarget { generated }, Answer::Retarget { processor, rules }) => {
            let g = &setup.generated[generated];
            let want = g.expect.rules as u64;
            if (processor, rules) != (g.processor.as_str(), want) {
                return Err(format!(
                    "served retarget: {processor} with {rules} rules, library {} with {want}",
                    g.processor
                ));
            }
            Ok(())
        }
        _ => Err("answer of the wrong kind".to_owned()),
    }
}

/// Sends `req` and checks the answer.
fn send(client: &mut Client, req: Req, setup: &Setup) -> Result<(), String> {
    match req {
        Req::Compile {
            pair,
            inline,
            listing,
        } => {
            let p = &setup.pairs[pair];
            let model = if inline {
                Model::Hdl(setup.hdl[p.model])
            } else {
                Model::Key(&setup.keys[p.model])
            };
            let spec = CompileSpec::new(&p.kernel.source, &p.kernel.function).listing(listing);
            let got = client
                .compile(&model, &spec)
                .map_err(|e| format!("{}: {e}", p.kernel.name))?;
            let answer = Answer::Compile {
                ops: got.ops,
                code_size: got.code_size,
                listing: got.listing.as_deref(),
            };
            check_answer(req, answer, setup)
        }
        Req::Retarget { generated } => {
            let got = client
                .retarget(&setup.generated[generated].hdl)
                .map_err(|e| e.to_string())?;
            let answer = Answer::Retarget {
                processor: &got.processor,
                rules: got.rules,
            };
            check_answer(req, answer, setup)
        }
    }
}

/// What the client saw.
#[derive(Default)]
struct ClientLog {
    /// `(server, completion time since the loop started, input, latency)`.
    samples: Vec<(usize, u64, usize, u64)>,
    /// `(completion time since the loop started, time)` of each reference
    /// sample.
    refs: Vec<(u64, u64)>,
    /// Requests and generated-model retargets sent, per server.
    sent: Vec<u64>,
    retargets: Vec<u64>,
    outcome: Outcome,
}

/// Runs the closed loop against every server of `setup` until `opts.seconds`
/// have elapsed, on one connection per server.  With several servers the
/// client alternates blocks of [`ROUNDS_PER_RETARGET`] rounds between
/// them.  A reference sample precedes every round.
fn client_loop(opts: &RunOptions, setup: &Setup) -> ClientLog {
    let servers = setup.servers.len();
    let mut log = ClientLog {
        samples: Vec::with_capacity(SAMPLES_RESERVED),
        sent: vec![0; servers],
        retargets: vec![0; servers],
        ..ClientLog::default()
    };
    let mut clients = Vec::new();
    for server in &setup.servers {
        match Client::connect(server.addr()) {
            Ok(client) => clients.push(client),
            Err(e) => {
                log.outcome.problems.push(format!("client: {e}"));
                return log;
            }
        }
    }
    let mut rng = run::rng(opts.seed, 20);
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(opts.seconds);
    let mut round = 0;
    loop {
        let ns = pace::sample();
        log.refs.push((start.elapsed().as_nanos() as u64, ns));
        let s = (round / ROUNDS_PER_RETARGET) as usize % servers;
        let generated = retarget_in(round, servers as u64, setup);
        for req in script_round(&mut rng, generated, setup) {
            if start.elapsed() >= deadline {
                return log;
            }
            let t = Instant::now();
            let verdict = send(&mut clients[s], req, setup);
            let ns = t.elapsed().as_nanos() as u64;
            log.sent[s] += 1;
            if let Req::Retarget { .. } = req {
                log.retargets[s] += 1;
            }
            if verdict.is_ok() {
                let end = start.elapsed().as_nanos() as u64;
                log.samples
                    .push((s, end, input_of(req, setup.pairs.len()), ns));
            }
            log.outcome.tally(verdict);
        }
        round += 1;
    }
}

/// A `/metrics` scrape: series name (labels included) to value.
type Scrape = BTreeMap<String, f64>;

fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("scrape: {e}"))?;
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .map_err(|e| format!("scrape: {e}"))?;
    let mut text = String::new();
    stream
        .read_to_string(&mut text)
        .map_err(|e| format!("scrape: {e}"))?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, body)| body)
        .ok_or("scrape: no HTTP body")?;
    Ok(body
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_owned(), value.parse().ok()?))
        })
        .collect())
}

/// How a series moved between two scrapes.
fn delta(before: &Scrape, after: &Scrape, series: &str) -> f64 {
    let read = |s: &Scrape| s.get(series).copied().unwrap_or(0.0);
    read(after) - read(before)
}

/// What the wire loop measured on one server.
struct ServerRun {
    before: Scrape,
    after: Scrape,
    sent: u64,
    retargets: u64,
}

impl ServerRun {
    fn delta(&self, series: &str) -> f64 {
        delta(&self.before, &self.after, series)
    }

    /// Mean server-side request time, in microseconds, from `/metrics`.
    fn server_request_us(&self) -> f64 {
        self.delta("record_request_latency_ns_sum")
            / self.delta("record_request_latency_ns_count").max(1.0)
            / 1e3
    }

    /// The `/metrics` cross-checks.
    fn check(&self, name: &str, problems: &mut Vec<String>) {
        let mut expect = |series: &str, want: u64| {
            let got = self.delta(series);
            if got != want as f64 {
                problems.push(format!(
                    "{name} server: {series} moved by {got}, expected {want}"
                ));
            }
        };
        expect("record_requests_served_total", self.sent);
        expect("record_requests_rejected_total", 0);
        expect("record_cache_retargets_total", self.retargets);
        expect("record_cache_misses_total", self.retargets);
    }
}

/// Runs the client against the setup's servers for the run's seconds.
fn wire_loop(
    opts: &RunOptions,
    setup: &Setup,
    outcome: &mut Outcome,
) -> Result<(ClientLog, Vec<ServerRun>), String> {
    let metrics_addr = |s: &ServerHandle| s.metrics_addr().expect("metrics listener configured");
    let before: Vec<Scrape> = setup
        .servers
        .iter()
        .map(|s| scrape(metrics_addr(s)))
        .collect::<Result<_, _>>()?;
    let log = client_loop(opts, setup);
    let mut runs = Vec::new();
    for (s, (server, before)) in setup.servers.iter().zip(before).enumerate() {
        runs.push(ServerRun {
            before,
            after: scrape(metrics_addr(server))?,
            sent: log.sent[s],
            retargets: log.retargets[s],
        });
    }
    let names = ["default", "recorder-disarmed"];
    for (run, name) in runs.iter().zip(names) {
        run.check(name, &mut outcome.problems);
    }
    Ok((log, runs))
}

/// The latencies seen on `server`, cut in completion order into windows
/// of [`WINDOW`] requests, each spanning the time since the previous
/// window's last completion less the reference samples taken in it (a
/// last, partial window is dropped).
fn windows(log: &ClientLog, server: usize, inputs: usize) -> Windows {
    let samples: Vec<(u64, usize, u64)> = log
        .samples
        .iter()
        .filter(|&&(s, ..)| s == server)
        .map(|&(_, at, input, ns)| (at, input, ns))
        .collect();
    let mut out = Windows::new(inputs);
    let mut last_end = 0;
    for chunk in samples.chunks_exact(WINDOW) {
        let end = chunk[WINDOW - 1].0;
        let refs: Vec<u64> = log
            .refs
            .iter()
            .filter(|&&(at, _)| last_end < at && at <= end)
            .map(|&(_, ns)| ns)
            .collect();
        out.push(Window {
            samples: chunk.iter().map(|&(_, input, ns)| (input, ns)).collect(),
            wall_ns: (end - last_end).saturating_sub(refs.iter().sum()),
            refs,
        });
        last_end = end;
    }
    out
}

/// `serve-mix`.
pub fn serve_mix(opts: &RunOptions) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let (result, setup_s) = run::repeated_setup(|| setup(opts));
    let (setup, problems) = result?;
    outcome.problems = problems;
    let wire_opts = RunOptions {
        seconds: if opts.trace {
            opts.seconds / 2.0
        } else {
            opts.seconds
        },
        ..*opts
    };
    let (log, runs) = wire_loop(&wire_opts, &setup, &mut outcome)?;
    outcome.attempted += log.outcome.attempted;
    outcome.failed += log.outcome.failed;
    outcome
        .problems
        .extend(log.outcome.problems.iter().cloned());
    let pairs = setup.pairs.len();
    let default = windows(&log, 0, pairs);
    let values = &mut outcome.values;
    if opts.trace {
        let armed = &runs[0];
        let server_us = armed.server_request_us();
        values.insert("serve.server-request_us", server_us);
        values.insert("serve.transport_us", default.mean_ns() / 1e3 - server_us);
        values.insert(
            "probe.recorder-cost_us",
            server_us - runs[1].server_request_us(),
        );
        let ratio = |a: f64, b: f64| a / (a + b).max(1.0);
        values.insert(
            "serve.cache-hit-ratio",
            ratio(
                armed.delta("record_cache_hits_total"),
                armed.delta("record_cache_misses_total"),
            ),
        );
        values.insert(
            "serve.pool-reuse-ratio",
            ratio(
                armed.delta("record_pool_sessions_reused_total"),
                armed.delta("record_pool_sessions_created_total"),
            ),
        );
        values.insert(
            "serve.retargets",
            armed.delta("record_cache_retargets_total"),
        );
        values.insert(
            "serve.evictions",
            armed.delta("record_cache_evictions_total"),
        );
        values.insert(
            "serve.rejected",
            armed.delta("record_requests_rejected_total"),
        );
        replay(opts, &setup, &mut outcome)?;
    } else {
        values.insert("setup_s", setup_s);
        run::write_latency_metrics(&default, values);
        library::write_code_metrics(setup.pairs.iter().map(|p| &p.checked), values);
    }
    for (i, median) in default.input_medians_ms() {
        let p = &setup.pairs[i];
        eprintln!(
            "serve-mix: {:>10}/{:<18} {median:>8.4} ms",
            SERVED_MODELS[p.model], p.kernel.name
        );
    }
    Ok(outcome)
}

/// The served path replayed in-process for its per-layer breakdown:
/// `parse_request`, the `TargetCache` lookup, the `SessionPool`
/// checkout, `CompileSession::compile` and the response rendering, as the
/// default server runs them, on the client's script.  Traced and untraced
/// blocks of [`ROUNDS_PER_RETARGET`] rounds (one retarget each)
/// alternate, a traced block retargeting the same model as the untraced
/// one before it; only traced rounds take a span around each call.
fn replay(opts: &RunOptions, setup: &Setup, outcome: &mut Outcome) -> Result<(), String> {
    let cache = TargetCache::new(
        ServerConfig::default().cache_capacity,
        RetargetOptions::default(),
    );
    let mut pools: HashMap<ModelKey, Arc<SessionPool>> = HashMap::new();
    let mut keys = Vec::new();
    for source in &setup.hdl {
        keys.push(cache.get_or_retarget(source).map_err(|e| e.to_string())?.0);
    }
    let lines = RequestLines::new(setup, &keys);
    let mut spans = Spans::default();
    let mut untraced = Windows::new(setup.pairs.len());
    let mut traced = Windows::new(setup.pairs.len());
    let mut rng = run::rng(opts.seed, 20);
    let start = Instant::now();
    let mut round = 0u64;
    while round < 2 * ROUNDS_PER_RETARGET || start.elapsed().as_secs_f64() < opts.seconds / 2.0 {
        let is_traced = (round / ROUNDS_PER_RETARGET) % 2 == 1;
        let mut window = Window::default();
        let round_start = Instant::now();
        for req in script_round(&mut rng, retarget_in(round, 2, setup), setup) {
            let line = lines.line(req);
            let t = Instant::now();
            let result = serve_one(&cache, &mut pools, line, is_traced.then_some(&mut spans));
            let ns = t.elapsed().as_nanos() as u64;
            let verdict = result.and_then(|response| check_response(&response, req, setup));
            if verdict.is_ok() {
                window.samples.push((input_of(req, setup.pairs.len()), ns));
            }
            outcome.tally(verdict);
        }
        window.wall_ns = round_start.elapsed().as_nanos() as u64;
        if is_traced {
            &mut traced
        } else {
            &mut untraced
        }
        .push(window);
        round += 1;
    }
    let values = &mut outcome.values;
    spans.write_means(values);
    library::write_compile_counts(setup.pairs.iter().map(|p| &p.checked), values);
    library::write_retarget_counts(
        setup
            .generated
            .iter()
            .map(|g| (&g.expect, g.op_cache_hit_rate)),
        values,
    );
    let passes = run::Passes { untraced, traced };
    run::write_probe_metrics(&passes, spans.total_ns(), values);
    Ok(())
}

/// Pre-rendered request lines, as a client would send them.
struct RequestLines {
    /// Per pair: by key, by key with listing, inline, inline with listing.
    compile: Vec<[String; 4]>,
    retarget: Vec<String>,
}

impl RequestLines {
    fn new(setup: &Setup, keys: &[ModelKey]) -> RequestLines {
        let compile = setup
            .pairs
            .iter()
            .map(|p| {
                let line = |inline: bool, listing: bool| {
                    let model = if inline {
                        ("hdl", Json::str(setup.hdl[p.model]))
                    } else {
                        ("key", Json::str(record_serve::render_key(keys[p.model])))
                    };
                    let mut fields = vec![("op", Json::str("compile")), model];
                    fields.push(("source", Json::str(p.kernel.source.clone())));
                    fields.push(("function", Json::str(p.kernel.function.clone())));
                    if listing {
                        fields.push(("listing", Json::Bool(true)));
                    }
                    Json::obj(fields).to_string()
                };
                [
                    line(false, false),
                    line(false, true),
                    line(true, false),
                    line(true, true),
                ]
            })
            .collect();
        let retarget = setup
            .generated
            .iter()
            .map(|g| {
                Json::obj(vec![
                    ("op", Json::str("retarget")),
                    ("hdl", Json::str(g.hdl.clone())),
                ])
                .to_string()
            })
            .collect();
        RequestLines { compile, retarget }
    }

    fn line(&self, req: Req) -> &str {
        match req {
            Req::Compile {
                pair,
                inline,
                listing,
            } => &self.compile[pair][usize::from(inline) * 2 + usize::from(listing)],
            Req::Retarget { generated } => &self.retarget[generated],
        }
    }
}

/// Times `f` into `spans` under `metric` when tracing.
fn span<T>(spans: &mut Option<&mut Spans>, metric: &'static str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(spans) => {
            let t = Instant::now();
            let out = f();
            spans.add(metric, t.elapsed().as_nanos() as u64);
            out
        }
        None => f(),
    }
}

/// Serves one request line the way the server's worker does and returns
/// the response line.
fn serve_one(
    cache: &TargetCache,
    pools: &mut HashMap<ModelKey, Arc<SessionPool>>,
    line: &str,
    mut spans: Option<&mut Spans>,
) -> Result<String, String> {
    let request = span(&mut spans, "serve.decode_us", || parse_request(line))?;
    match request {
        Request::Compile { model, item } => {
            let (key, target) = span(&mut spans, "serve.cache-lookup_us", || match model {
                ModelRef::Key(key) => cache
                    .get(key)
                    .map(|t| (key, t))
                    .ok_or_else(|| "unknown key".to_owned()),
                ModelRef::Hdl(hdl) => cache.get_or_retarget(&hdl).map_err(|e| e.to_string()),
            })?;
            let max_idle = ServerConfig::default().pool_max_idle;
            let pool = Arc::clone(
                pools
                    .entry(key)
                    .or_insert_with(|| Arc::new(SessionPool::new(target, max_idle))),
            );
            let mut session = span(&mut spans, "serve.pool-checkout_us", || pool.checkout());
            let request =
                CompileRequest::new(&item.source, &item.function).with_options(item.options);
            // The default server's flight recorder is armed, and an armed
            // server traces every compile and renders the trace of each
            // one over its threshold.
            let recorder_ms = ServerConfig::default().slow_threshold_ms;
            if recorder_ms.is_some() {
                session.install_collector(0);
            }
            let t = Instant::now();
            let kernel = session.compile(&request);
            let elapsed = t.elapsed();
            let trace = session.take_trace();
            if let (Some(ms), Some(trace)) = (recorder_ms, trace) {
                if elapsed >= Duration::from_millis(ms) {
                    std::hint::black_box(trace.to_chrome_json("record-serve"));
                }
            }
            let kernel = kernel.map_err(|e| e.to_string())?;
            if let Some(spans) = spans.as_deref_mut() {
                spans.add_report(&kernel.report, &COMPILE_PHASES);
            }
            Ok(span(&mut spans, "serve.encode_us", || {
                let mut fields = vec![
                    ("ok", Json::Bool(true)),
                    ("key", Json::str(record_serve::render_key(key))),
                    ("function", Json::str(item.function.clone())),
                    ("ops", Json::num(kernel.ops.len() as u64)),
                    ("code_size", Json::num(kernel.code_size() as u64)),
                ];
                if item.listing {
                    fields.push(("listing", Json::str(session.target().listing(&kernel))));
                }
                Json::obj(fields).to_string()
            }))
        }
        Request::Retarget { hdl } => {
            let (key, target) = cache.get_or_retarget(&hdl).map_err(|e| e.to_string())?;
            if let Some(spans) = spans.as_deref_mut() {
                spans.add_report(&target.report().report, &RETARGET_PHASES);
            }
            Ok(span(&mut spans, "serve.encode_us", || {
                Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("key", Json::str(record_serve::render_key(key))),
                    ("processor", Json::str(target.report().processor.clone())),
                    ("rules", Json::num(target.report().rules as u64)),
                ])
                .to_string()
            }))
        }
        _ => Err("unexpected request in the mix".to_owned()),
    }
}

/// Checks a replayed response line against the library result.
fn check_response(response: &str, req: Req, setup: &Setup) -> Result<(), String> {
    let r = record_serve::parse_json(response)?;
    let num = |k: &str| r.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
    let answer = match req {
        Req::Compile { .. } => Answer::Compile {
            ops: num("ops"),
            code_size: num("code_size"),
            listing: r.get("listing").and_then(Json::as_str),
        },
        Req::Retarget { .. } => Answer::Retarget {
            processor: r.get("processor").and_then(Json::as_str).unwrap_or(""),
            rules: num("rules"),
        },
    };
    check_answer(req, answer, setup)
}
