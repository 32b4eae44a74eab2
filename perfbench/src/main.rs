//! End-to-end and per-layer benchmark of `imre`.
//!
//! One run sets the workload up several times: train in-process, write the
//! bundle, start `imre serve` on it as a child process. Each set-up's
//! server serves a share of the pipelined `saturate` phase; the last one
//! stays up for `sync` (one request in flight), `check` (the kNN workload's
//! requests again with kNN off) and `live` (delta batches published through
//! the server's stream FIFO). Every reply is checked. The last line of
//! standard output is the result as one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1` (which
//! also times each layer in-process).
//!
//! `perfbench/run.py` builds this binary and `imre` and runs it; see
//! `perfbench/README.md`.

mod checks;
mod client;
mod layers;
mod live;
mod procfs;
mod server;
mod setup;
mod spans;
mod stats;
mod workload;

use checks::{check_votes, parse_scores, pr_auc, Request};
use client::{stats_field, Conn, SATURATE_WINDOW};
use procfs::{CpuSnapshot, THREAD_GROUPS};
use server::{Server, ServerSpec, KNN_K, KNN_LAMBDA};
use spans::Spans;
use stats::median;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::Workload;

/// Share of `--seconds` the `sync` phase runs for; `saturate` takes the
/// rest. Both serve whole passes, at least `MIN_PASSES` each.
const SYNC_SHARE: f64 = 0.6;
/// Fewest passes of `sync` and of `saturate` in a run.
const MIN_PASSES: usize = 2;

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sync_p50_ms", "ms"),
    ("cpu_us_per_req", "us"),
    ("served_auc", "AUC"),
];

/// Per-layer metrics (`--trace 1`), with units.
const PER_LAYER: [(&str, &str); 44] = [
    ("client.sync_p90_ms", "ms"),
    ("corpus.generate_ms", "ms"),
    ("graph.proximity_ms", "ms"),
    ("graph.line_ms", "ms"),
    ("core.prepare_ms", "ms"),
    ("core.skipgram_ms", "ms"),
    ("core.train_ms_per_epoch", "ms"),
    ("core.train_bags_per_s", "1/s"),
    ("ann.build_ms", "ms"),
    ("core.quantize_ms", "ms"),
    ("serve.bundle_save_ms", "ms"),
    ("serve.bundle_load_ms", "ms"),
    ("serve.bundle_mb", "MiB"),
    ("serve.parse_us", "us"),
    ("serve.featurize_us", "us"),
    ("serve.rank_format_us", "us"),
    ("core.forward_f32_us_per_bag.b1", "us"),
    ("core.forward_f32_us_per_bag.bmax", "us"),
    ("core.forward_int8_us_per_bag.b1", "us"),
    ("core.forward_int8_us_per_bag.bmax", "us"),
    ("ann.knn_us", "us"),
    ("engine.queue_wait_us.sync", "us"),
    ("engine.queue_wait_us.saturate", "us"),
    ("engine.inproc_p50_ms", "ms"),
    ("frontend.sync_overhead_us", "us"),
    ("engine.batch_size_mean", "count"),
    ("server.epoll_cpu_us_per_req.sync", "us"),
    ("server.epoll_cpu_us_per_req.saturate", "us"),
    ("server.worker_cpu_us_per_req.sync", "us"),
    ("server.worker_cpu_us_per_req.saturate", "us"),
    ("server.pool_cpu_us_per_req.sync", "us"),
    ("server.pool_cpu_us_per_req.saturate", "us"),
    ("stream.publish_visible_ms", "ms"),
    ("stream.apply_batch_us", "us"),
    ("stream.refresh_ms", "ms"),
    ("serve.validate_ms", "ms"),
    ("serve.registry_insert_us", "us"),
    ("trace.span_ns", "ns"),
    ("trace.overhead_pct", "%"),
    ("trace.request_path_us", "us"),
    ("trace.sync_p50_us", "us"),
    ("trace.covered_pct", "%"),
    ("trace.gap_us", "us"),
    ("run.steal_pct", "%"),
];

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    imre: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        let pos = args
            .iter()
            .position(|a| a == key)
            .ok_or_else(|| format!("missing {key}"))?;
        args.get(pos + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{key} needs a value"))
    };
    let num = |key: &str| -> Result<u64, String> {
        get(key)?
            .parse()
            .map_err(|_| format!("{key} must be a whole number"))
    };
    let name = get("--workload")?;
    Ok(Opts {
        workload: Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        imre: PathBuf::from(get("--imre")?),
        work_dir: PathBuf::from(get("--work-dir")?),
    })
}

/// Attempted and failed operations of one phase.
struct Phase {
    name: &'static str,
    attempted: u64,
    failed: u64,
}

/// Everything a run accumulates.
#[derive(Default)]
struct Run {
    metrics: Spans,
    layers: Spans,
    phases: Vec<Phase>,
    /// Check failures; any makes the run incorrect.
    errors: Vec<String>,
}

impl Run {
    /// Adds operations to the phase `name`.
    fn phase(&mut self, name: &'static str, attempted: u64, failed: u64) {
        match self.phases.iter_mut().find(|p| p.name == name) {
            Some(p) => {
                p.attempted += attempted;
                p.failed += failed;
            }
            None => self.phases.push(Phase {
                name,
                attempted,
                failed,
            }),
        }
    }

    fn error(&mut self, e: String) {
        if self.errors.len() < 20 {
            eprintln!("check failed: {e}");
        }
        self.errors.push(e);
    }
}

/// What each reply of the `sync` and `saturate` phases is checked
/// against.
enum Expected {
    /// f32 serving: the in-process `ServingModel::infer` reply, formatted
    /// as on the wire.
    Replies(Vec<String>),
    /// int8 + kNN serving: the in-process f32 scores (for the drift check
    /// of the `knn=0` replies) and the drift bound `imre quantize --check`
    /// computes, over the same requests.
    Int8 {
        f32_scores: Vec<Vec<f32>>,
        drift: f32,
    },
}

fn expected(w: Workload, serving: &imre_serve::ServingModel, lines: &[String]) -> Expected {
    let reqs = lines.iter().map(|l| checks::parse_line(l));
    if !w.int8() {
        return Expected::Replies(
            reqs.map(|r| {
                let ranked = serving.infer(&r).expect("in-process infer succeeds");
                imre_serve::protocol::format_response(&imre_serve::InferResponse {
                    model: r.model,
                    ranked,
                    queue_us: 0,
                    featurize_us: 0,
                    forward_us: 0,
                })
            })
            .collect(),
        );
    }
    let quant = serving.quant().expect("int8 bundle has a quant section");
    let types = serving.ctx().entity_types;
    let mut scratch = imre_core::QuantScratch::new();
    let mut drift = 0.0f32;
    let mut q = vec![0.0f32; serving.num_relations()];
    let f32_scores = reqs
        .map(|r| {
            let bag = serving.featurize_request(&r).expect("request featurizes");
            let f = serving.predict_prepared(&bag);
            quant.predict_quant_into(&bag, types, &mut scratch, &mut q, None);
            for (a, b) in f.iter().zip(&q) {
                drift = drift.max((a - b).abs());
            }
            f
        })
        .collect();
    Expected::Int8 { f32_scores, drift }
}

/// Checks one reply of the `warmup`, `sync` or `saturate` phase; returns
/// whether it was an `ok`.
fn check_reply(
    run: &mut Run,
    expected: &Expected,
    first: &mut [Option<String>],
    i: usize,
    reply: String,
) -> bool {
    if reply.starts_with("err") {
        return false;
    }
    match expected {
        Expected::Replies(want) => {
            if reply != want[i] {
                run.error(format!(
                    "request {i}: reply differs from in-process infer:\n  got  {reply:.160}\n  want {:.160}",
                    want[i]
                ));
            }
        }
        // The kNN replies are checked against the `knn=0` replies in the
        // `check` phase; every later reply must repeat the first one.
        Expected::Int8 { .. } => match &first[i] {
            Some(f) if *f != reply => {
                run.error(format!("request {i}: reply differs from its first reply"))
            }
            Some(_) => {}
            None => first[i] = Some(reply),
        },
    }
    true
}

/// The in-process reference every reply is checked against.
struct Reference {
    serving: imre_serve::ServingModel,
    relations: Vec<String>,
    requests: Vec<Request>,
    lines: Vec<String>,
    /// Whole passes of `lines` making one `saturate` round.
    round: Vec<String>,
    expected: Expected,
    /// Each request's first reply (the `nyt-int8-knn` consistency check).
    first: Vec<Option<String>>,
}

impl Reference {
    fn new(w: Workload, built: &setup::Built, seed: u64) -> Result<Reference, String> {
        let bundle =
            imre_serve::load_bundle(&built.bundle_path).map_err(|e| format!("bundle load: {e}"))?;
        let serving =
            imre_serve::ServingModel::new(bundle).map_err(|e| format!("bundle validation: {e}"))?;
        let requests = checks::requests(&built.pipeline.dataset, seed);
        let lines: Vec<String> = requests.iter().map(|r| r.line.clone()).collect();
        let expected = expected(w, &serving, &lines);
        let passes = ROUND_REQUESTS.div_ceil(lines.len());
        Ok(Reference {
            round: lines
                .iter()
                .cycle()
                .take(passes * lines.len())
                .cloned()
                .collect(),
            relations: serving.bundle().relations.clone(),
            first: vec![None; lines.len()],
            serving,
            requests,
            lines,
            expected,
        })
    }

    /// Serves the first `n` requests of a round through the pipelined
    /// window and checks every reply; returns how many were errors.
    fn pipelined(&mut self, conn: &mut Conn, run: &mut Run, n: usize) -> Result<u64, String> {
        let mut replies = Vec::with_capacity(n);
        conn.pipeline(&self.round[..n], SATURATE_WINDOW, |i, reply| {
            replies.push((i, reply))
        })
        .map_err(|e| format!("pipelined request: {e}"))?;
        let mut failed = 0;
        for (i, reply) in replies {
            let i = i % self.lines.len();
            if !check_reply(run, &self.expected, &mut self.first, i, reply) {
                failed += 1;
            }
        }
        Ok(failed)
    }
}

/// Requests per `saturate` round (rounded up to whole passes): long
/// enough for a precise CPU reading, short enough for many rounds a run.
const ROUND_REQUESTS: usize = 1000;
/// Untimed requests each server serves before its `saturate` share.
const WARMUP_REQUESTS: usize = 512;

/// One `saturate` round's server CPU per request: all threads, then each
/// [`THREAD_GROUPS`] entry.
struct Round {
    us_per_req: f64,
    group_us_per_req: Vec<f64>,
}

/// `warmup` then `saturate` on one server: whole rounds through the
/// pipelined window until `budget` has gone, at least `MIN_PASSES`. Returns
/// each round's CPU figures and the mean batch size over them.
fn saturate(
    conn: &mut Conn,
    pid: u32,
    reference: &mut Reference,
    run: &mut Run,
    budget: Duration,
) -> Result<(Vec<Round>, f64), String> {
    let n = reference.round.len() as u64;
    // Untimed requests first, so that no measured request pays for a first
    // touch (page faults in the mapped bundle, arena growth).
    let warm = WARMUP_REQUESTS.min(reference.round.len());
    let failed = reference.pipelined(conn, run, warm)?;
    run.phase("warmup", warm as u64, failed);
    let stats0 = conn.stats().map_err(|e| format!("stats: {e}"))?;
    let start = Instant::now();
    let mut rounds = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    while rounds.len() < MIN_PASSES || start.elapsed() < budget {
        let cpu0 = CpuSnapshot::take(pid);
        failed += reference.pipelined(conn, run, reference.round.len())?;
        let cpu1 = CpuSnapshot::take(pid);
        attempted += n;
        let per_req = |prefix: &str| cpu1.since(&cpu0, prefix) as f64 / 1e3 / n as f64;
        rounds.push(Round {
            us_per_req: per_req(""),
            group_us_per_req: THREAD_GROUPS.iter().map(|(_, p)| per_req(p)).collect(),
        });
    }
    let stats1 = conn.stats().map_err(|e| format!("stats: {e}"))?;
    run.phase("saturate", attempted, failed);
    let delta = |line: &str, key: &str| {
        stats_field(&stats1, line, key).unwrap_or(0.0)
            - stats_field(&stats0, line, key).unwrap_or(0.0)
    };
    Ok((
        rounds,
        delta("requests:", "completed") / delta("batches:", "count").max(1.0),
    ))
}

/// `sync`: whole passes, one request in flight, at least `MIN_PASSES`. A
/// request's latency is the fastest of its passes: a neighbour's burst of
/// CPU steal rarely hits the same request twice, while a slower request
/// path slows every pass. Returns the first pass's scores by test-split
/// bag.
fn sync(
    conn: &mut Conn,
    pid: u32,
    reference: &mut Reference,
    run: &mut Run,
    budget: Duration,
) -> Result<Vec<Vec<f32>>, String> {
    let n = reference.lines.len();
    let mut fastest_ms = vec![f64::INFINITY; n];
    let mut served = vec![Vec::new(); n];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    let cpu0 = CpuSnapshot::take(pid);
    for pass in 1.. {
        for i in 0..n {
            let (reply, took) = conn
                .timed_call(&reference.lines[i])
                .map_err(|e| format!("sync request: {e}"))?;
            fastest_ms[i] = fastest_ms[i].min(took.as_secs_f64() * 1e3);
            attempted += 1;
            if pass == 1 && !reply.starts_with("err") {
                match parse_scores(&reply, &reference.relations) {
                    Ok(s) => served[reference.requests[i].bag] = s,
                    Err(e) => run.error(format!("request {i}: {e}")),
                }
            }
            if !check_reply(run, &reference.expected, &mut reference.first, i, reply) {
                failed += 1;
            }
        }
        if pass >= MIN_PASSES && start.elapsed() >= budget {
            break;
        }
    }
    let cpu1 = CpuSnapshot::take(pid);
    for (group, prefix) in THREAD_GROUPS {
        run.layers.record(
            &format!("server.{group}_cpu_us_per_req.sync"),
            cpu1.since(&cpu0, prefix) as f64 / 1e3 / attempted as f64,
        );
    }
    run.phase("sync", attempted, failed);
    run.metrics
        .record("sync_p50_ms", stats::quantile(&fastest_ms, 0.5));
    run.layers
        .record("client.sync_p90_ms", stats::quantile(&fastest_ms, 0.9));
    Ok(served)
}

/// `served_auc` from the first `sync` pass, checked against its floor.
fn record_auc(run: &mut Run, reference: &Reference, served: &[Vec<f32>]) {
    let mut labels = vec![0; served.len()];
    for r in &reference.requests {
        labels[r.bag] = r.label;
    }
    if !served.iter().all(|s| s.len() == reference.relations.len()) {
        run.error("no complete first sync pass to compute the served AUC from".into());
        return;
    }
    let auc = pr_auc(served, &labels);
    let floor = checks::auc_floor(&labels, reference.relations.len());
    if auc < floor {
        run.error(format!("served AUC {auc:.4} below the floor {floor:.4}"));
    }
    run.metrics.record("served_auc", auc);
}

/// `check` (kNN workload): every request again with `knn=0`. The pure
/// int8 scores must stay within the quantization drift bound of the f32
/// scores, and the votes recovered from the blended first-pass reply must
/// be multiples of 1/k.
fn check_knn(
    conn: &mut Conn,
    reference: &Reference,
    served: &[Vec<f32>],
    run: &mut Run,
) -> Result<(), String> {
    let Expected::Int8 { f32_scores, drift } = &reference.expected else {
        return Ok(());
    };
    let pure_lines: Vec<String> = reference
        .lines
        .iter()
        .map(|l| l.replacen(" k=0 ", " k=0 knn=0 ", 1))
        .collect();
    let mut replies = Vec::with_capacity(pure_lines.len());
    conn.pipeline(&pure_lines, SATURATE_WINDOW, |i, reply| {
        replies.push((i, reply))
    })
    .map_err(|e| format!("check request: {e}"))?;
    let mut failed = 0;
    for (i, reply) in replies {
        if reply.starts_with("err") {
            failed += 1;
            continue;
        }
        let pure = match parse_scores(&reply, &reference.relations) {
            Ok(p) => p,
            Err(e) => {
                run.error(format!("knn=0 request {i}: {e}"));
                continue;
            }
        };
        let worst = pure
            .iter()
            .zip(&f32_scores[i])
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        if worst > drift + 1e-6 {
            run.error(format!(
                "knn=0 request {i}: int8 score drifts {worst:.6} from f32, bound {drift:.6}"
            ));
        }
        let blend = &served[reference.requests[i].bag];
        if let Err(e) = check_votes(blend, &pure, KNN_K, KNN_LAMBDA) {
            run.error(format!("request {i}: {e}"));
        }
    }
    run.phase("check", pure_lines.len() as u64, failed);
    Ok(())
}

fn run(opts: &Opts) -> Result<Run, String> {
    let w = opts.workload;
    let io = |what: &'static str| move |e: std::io::Error| format!("{what}: {e}");
    let ticks_start = procfs::cpu_ticks();
    let run_start = Instant::now();
    let progress = |what: &str| {
        eprintln!(
            "perfbench: {:6.1} s  {what}",
            run_start.elapsed().as_secs_f64()
        )
    };
    std::fs::create_dir_all(&opts.work_dir).map_err(io("work dir"))?;
    let work = &opts.work_dir;
    let fifo_path = server::make_fifo(&work.join("deltas.fifo"))?;
    let publish_out = work.join("published.imrb");
    let log = work.join("server.log");
    let mut run = Run::default();
    let budget = Duration::from_secs(opts.seconds);
    let repeats = w.setup_repeats();

    // --- set-up, several times. Each server then serves a share of the
    // `saturate` phase, so the CPU figures are medians over independent
    // server processes; the last server stays up for the other phases.
    let mut setup_s = Vec::new();
    let mut setup_spans = Vec::new();
    let mut rounds = Vec::new();
    let mut batch_sizes = Vec::new();
    let mut first_bundle: Option<Vec<u8>> = None;
    let mut reference: Option<Reference> = None;
    let mut kept = None;
    for rep in 0..repeats {
        progress("setup");
        let start = Instant::now();
        let mut spans = Spans::default();
        let built = setup::build(w, work, &mut spans);
        let server = Server::start(&ServerSpec {
            imre: &opts.imre,
            bundle: &built.bundle_path,
            int8_knn: w.int8(),
            stream: &fifo_path,
            publish_out: &publish_out,
            log: &log,
        })?;
        setup_s.push(start.elapsed().as_secs_f64());
        setup_spans.push(spans);
        // Set-up is deterministic: every repetition writes the same bytes.
        let bytes = std::fs::read(&built.bundle_path).map_err(io("bundle read"))?;
        match &first_bundle {
            None => first_bundle = Some(bytes),
            Some(b) if *b != bytes => run.error(format!("set-up {rep} wrote a different bundle")),
            Some(_) => {}
        }
        if reference.is_none() {
            progress("reference");
            reference = Some(Reference::new(w, &built, opts.seed)?);
        }
        let reference = reference.as_mut().expect("built above");
        progress("saturate");
        let mut conn = Conn::connect(server.addr).map_err(io("connect"))?;
        let share = budget.mul_f64(1.0 - SYNC_SHARE) / repeats as u32;
        let (server_rounds, batch_size) =
            saturate(&mut conn, server.pid(), reference, &mut run, share)?;
        let us: Vec<f64> = server_rounds.iter().map(|r| r.us_per_req).collect();
        eprintln!("perfbench: saturate CPU us/request by round {us:.1?}");
        rounds.extend(server_rounds);
        batch_sizes.push(batch_size);
        if rep + 1 == repeats {
            kept = Some((built, server, conn));
        }
    }
    let (built, server, mut conn) = kept.expect("at least one set-up");
    let mut reference = reference.expect("built with the first set-up");
    run.metrics.record("setup_s", median(&setup_s));

    for (name, _) in setup_spans[0].iter() {
        let values: Vec<f64> = setup_spans.iter().filter_map(|s| s.get(name)).collect();
        run.layers.record(name, median(&values));
    }
    // CPU speed here swings within seconds with the neighbours' load, and
    // a round now and then lands far below the rest; the lower quartile of
    // the rounds stays put.
    let low = |f: &dyn Fn(&Round) -> f64| {
        stats::quantile(&rounds.iter().map(f).collect::<Vec<_>>(), 0.25)
    };
    run.metrics.record("cpu_us_per_req", low(&|r| r.us_per_req));
    for (g, (group, _)) in THREAD_GROUPS.iter().enumerate() {
        run.layers.record(
            &format!("server.{group}_cpu_us_per_req.saturate"),
            low(&|r| r.group_us_per_req[g]),
        );
    }
    run.layers
        .record("engine.batch_size_mean", median(&batch_sizes));
    let pid = server.pid();
    let mut fifo = live::Fifo::open(&fifo_path)?;
    let mut prober = Conn::connect(server.addr).map_err(io("connect"))?;

    progress("sync");
    let served = sync(
        &mut conn,
        pid,
        &mut reference,
        &mut run,
        budget.mul_f64(SYNC_SHARE),
    )?;
    record_auc(&mut run, &reference, &served);
    progress("check");
    check_knn(&mut conn, &reference, &served, &mut run)?;

    // --- live: publish the delta batches while requests keep arriving.
    progress("live");
    let bundle = reference.serving.bundle();
    let base_names: Vec<String> = bundle.entities.iter().map(|(n, _)| n.clone()).collect();
    // After a publish, an int8 request naming an entity the publish
    // admitted indexes past the quantized entity table and panics the
    // engine worker, so the int8 stream names base entities only.
    let batches = live::delta_stream(&base_names, bundle.model.num_types(), opts.seed, !w.int8());
    let outcome = live::run(
        &batches,
        &mut fifo,
        &mut conn,
        &mut prober,
        &reference.lines,
        &reference.relations,
    )?;
    for e in outcome.errors {
        run.error(e);
    }
    run.phase("live.requests", outcome.requests, outcome.request_failures);
    run.phase(
        "live.publishes",
        outcome.publishes,
        outcome.publish_failures,
    );
    eprintln!(
        "perfbench: publish-to-visible ms {:.1?}",
        outcome.visible_ms
    );
    if outcome.visible_ms.is_empty() {
        run.error("no publish became visible".into());
    } else {
        run.layers.record(
            "stream.publish_visible_ms",
            stats::quantile(&outcome.visible_ms, 0.25),
        );
    }
    if let Err(e) = check_replay(opts, &built.bundle_path, &batches, &publish_out) {
        run.error(e);
    }
    run.metrics.record(
        "peak_rss_mb",
        procfs::peak_rss_mib(pid).ok_or("cannot read the server's VmHWM")?,
    );
    drop((fifo, prober, conn, server));

    // --- traced: each layer in-process.
    if opts.trace {
        progress("traced");
        traced(&mut run, w, &built, &reference.lines, &batches, opts.seed);
    }
    let steal = procfs::steal_share(ticks_start, procfs::cpu_ticks());
    run.layers.record("run.steal_pct", steal * 100.0);
    Ok(run)
}

/// The traced run's per-layer figures, its own overhead, and how much of
/// `sync_p50_ms` the request-path layers account for.
fn traced(
    run: &mut Run,
    w: Workload,
    built: &setup::Built,
    lines: &[String],
    batches: &[live::Batch],
    seed: u64,
) {
    let path_us = layers::measure(
        &layers::Inputs {
            workload: w,
            pipeline: &built.pipeline,
            bundle_path: &built.bundle_path,
            lines,
            batches,
            seed,
        },
        &mut run.layers,
    );
    let sync_us = run.metrics.get("sync_p50_ms").unwrap_or(f64::NAN) * 1e3;
    let inproc_us = run.layers.get("engine.inproc_p50_ms").unwrap_or(f64::NAN) * 1e3;
    let span_ns = layers::span_cost_ns();
    let spans_per_request = if w.knn() { 6.0 } else { 5.0 };
    run.layers
        .record("frontend.sync_overhead_us", sync_us - inproc_us);
    run.layers.record("trace.span_ns", span_ns);
    run.layers.record(
        "trace.overhead_pct",
        spans_per_request * span_ns / 1e3 / path_us * 100.0,
    );
    run.layers.record("trace.request_path_us", path_us);
    run.layers.record("trace.sync_p50_us", sync_us);
    run.layers
        .record("trace.covered_pct", path_us / sync_us * 100.0);
    run.layers.record("trace.gap_us", sync_us - path_us);
}

/// The final published bundle must be byte-equal to `imre stream-replay`
/// of the same delta batches on the same base bundle.
fn check_replay(
    opts: &Opts,
    base: &Path,
    batches: &[live::Batch],
    published: &Path,
) -> Result<(), String> {
    let deltas = opts.work_dir.join("deltas.txt");
    let text: String = batches.iter().map(|b| b.text.as_str()).collect();
    std::fs::write(&deltas, text).map_err(|e| format!("write deltas: {e}"))?;
    let replayed = opts.work_dir.join("replayed.imrb");
    let out = std::process::Command::new(&opts.imre)
        .arg("stream-replay")
        .arg("--bundle")
        .arg(base)
        .arg("--deltas")
        .arg(&deltas)
        .arg("--out")
        .arg(&replayed)
        .arg("--threads")
        .arg(server::POOL_THREADS.to_string())
        .output()
        .map_err(|e| format!("stream-replay: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "stream-replay failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let a = std::fs::read(published).map_err(|e| format!("read published bundle: {e}"))?;
    let b = std::fs::read(&replayed).map_err(|e| format!("read replayed bundle: {e}"))?;
    if a != b {
        return Err(format!(
            "published bundle ({} bytes) differs from stream-replay ({} bytes)",
            a.len(),
            b.len()
        ));
    }
    Ok(())
}

/// The result line: `correct`, `attempted`, `failed` and the metrics of
/// the mode, each with its unit.
fn result_json(run: &Run, trace: bool) -> Result<String, String> {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let source = if trace { &run.layers } else { &run.metrics };
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let value = source
            .get(name)
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let attempted: u64 = run.phases.iter().map(|p| p.attempted).sum();
    let failed: u64 = run.phases.iter().map(|p| p.failed).sum();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        run.errors.is_empty(),
        metrics.join(", ")
    ))
}

fn main() {
    // One compute thread in this process: training and the in-process
    // layer figures are single-thread CPU cost.
    let _ = imre_tensor::pool::init_global(1);
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = run(&opts);
    if outcome.is_err() {
        if let Ok(log) = std::fs::read_to_string(opts.work_dir.join("server.log")) {
            for line in log.lines().filter(|l| !l.starts_with(' ')).take(20) {
                eprintln!("server: {line}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    let run = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let phases: Vec<String> = run
        .phases
        .iter()
        .map(|p| {
            format!(
                "\"{}\": {{\"attempted\": {}, \"failed\": {}}}",
                p.name, p.attempted, p.failed
            )
        })
        .collect();
    println!(
        "conditions: {{\"workload\": \"{}\", \"seed\": {}, \"nproc\": {nproc}, \"simd\": \"{}\", \"steal_pct\": {:.2}, \"check_failures\": {}, \"phases\": {{{}}}}}",
        opts.workload.name(),
        opts.seed,
        imre_tensor::simd::backend().name(),
        run.layers.get("run.steal_pct").unwrap_or(0.0),
        run.errors.len(),
        phases.join(", ")
    );
    for (name, value) in run.metrics.iter().chain(run.layers.iter()) {
        println!("  {name:<40} {value:.4}");
    }
    match result_json(&run, opts.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
