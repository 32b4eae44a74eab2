//! The `live` phase: delta batches written into the server's `--stream`
//! FIFO, each naming one new entity, timed until a probe naming that
//! entity is first answered `ok`, while `sync` requests keep reading the
//! registry on the other connection.

use crate::checks::{infer_line, parse_scores};
use crate::client::{stats_field, Conn};
use imre_tensor::TensorRng;
use std::fs::File;
use std::io::Write;
use std::os::unix::fs::OpenOptionsExt;
use std::path::Path;
use std::time::{Duration, Instant};

/// Delta batches (and so publishes) per run.
pub const PUBLISHES: usize = 5;
/// Leading publishes left untimed: the first retrains LINE on a graph of a
/// single edge, far cheaper than every later publish.
const UNTIMED: usize = 1;
/// Sentence events per batch.
pub const EVENTS_PER_BATCH: usize = 8;
/// How long one publish may take before it counts as failed.
const PUBLISH_TIMEOUT: Duration = Duration::from_secs(20);
/// `O_NONBLOCK` on Linux.
const O_NONBLOCK: i32 = 0o4000;

/// One delta batch and, when it introduces one, its new entity.
pub struct Batch {
    /// The entity this batch introduces and a base entity it co-occurs
    /// with (twice, so the pair passes the admission threshold of 2).
    pub new_entity: Option<(String, String)>,
    /// The batch in the delta line format, ending with its blank line.
    pub text: String,
}

impl Batch {
    /// A request naming the new entity.
    fn probe(&self) -> Option<String> {
        let (e, p) = self.new_entity.as_ref()?;
        Some(infer_line(
            "",
            e,
            p,
            &format!("{e} was seen with {p} at the summit"),
        ))
    }
}

/// The seeded delta stream: `PUBLISHES` batches of `EVENTS_PER_BATCH`
/// events. Each batch opens with one pair mentioned twice, so it passes
/// the admission threshold of 2 and the batch publishes; with
/// `new_entities` that pair is a new entity (typed at first mention) and a
/// base partner. The other events are pairs and triples of base entities.
pub fn delta_stream(
    base: &[String],
    num_types: usize,
    seed: u64,
    new_entities: bool,
) -> Vec<Batch> {
    let mut rng = TensorRng::seed(seed ^ 0x6465_6c74_6173);
    let pick = |rng: &mut TensorRng| base[rng.below(base.len())].clone();
    let mut ts = 1_800_000_000u64;
    (0..PUBLISHES)
        .map(|b| {
            let mut text = String::new();
            let mut event = |names: &[String]| {
                ts += 1;
                text.push_str(&ts.to_string());
                for n in names {
                    text.push('\t');
                    text.push_str(n);
                }
                text.push('\n');
            };
            let partner = pick(&mut rng);
            let (head, first) = if new_entities {
                let e = format!("live{b}s{seed}");
                (
                    e.clone(),
                    format!("{e}:{}", (seed as usize + b) % num_types),
                )
            } else {
                let mut h = pick(&mut rng);
                while h == partner {
                    h = pick(&mut rng);
                }
                (h.clone(), h)
            };
            event(&[first, partner.clone()]);
            event(&[head.clone(), partner.clone()]);
            for i in 2..EVENTS_PER_BATCH {
                let mut names = vec![pick(&mut rng), pick(&mut rng)];
                if i % 2 == 1 {
                    names.push(pick(&mut rng));
                }
                names.dedup();
                event(&names);
            }
            text.push('\n');
            Batch {
                new_entity: new_entities.then_some((head, partner)),
                text,
            }
        })
        .collect()
}

/// The writing end of the server's delta FIFO.
pub struct Fifo(File);

impl Fifo {
    /// Opens the FIFO for writing once the server has opened it for
    /// reading (a non-blocking open fails until then).
    pub fn open(path: &Path) -> Result<Fifo, String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match std::fs::OpenOptions::new()
                .write(true)
                .custom_flags(O_NONBLOCK)
                .open(path)
            {
                Ok(f) => return Ok(Fifo(f)),
                Err(e) if Instant::now() > deadline => {
                    return Err(format!("server never opened {}: {e}", path.display()))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    /// Writes all of `bytes`, waiting while the pipe is full.
    pub fn write(&mut self, mut bytes: &[u8]) -> Result<(), String> {
        while !bytes.is_empty() {
            match self.0.write(bytes) {
                Ok(n) => bytes = &bytes[n..],
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                Err(e) => return Err(format!("delta FIFO write: {e}")),
            }
        }
        Ok(())
    }
}

/// What the live phase saw.
#[derive(Default)]
pub struct LiveOutcome {
    /// Publish-to-visible time of each timed publish that became visible,
    /// ms.
    pub visible_ms: Vec<f64>,
    /// Publishes attempted.
    pub publishes: u64,
    /// Publishes that never became visible.
    pub publish_failures: u64,
    /// `sync` requests sent on the other connection meanwhile.
    pub requests: u64,
    /// Those answered with an error.
    pub request_failures: u64,
    /// Check failures (wrong reply class or malformed reply).
    pub errors: Vec<String>,
}

/// Runs every batch through the FIFO. A publish is visible once the
/// server's `stats` report it (the counter moves right after the registry
/// swap); meanwhile `lines` are cycled on `reader` as `sync` requests. A
/// batch's new entity must be unknown before the batch and answered after
/// its publish.
pub fn run(
    batches: &[Batch],
    fifo: &mut Fifo,
    reader: &mut Conn,
    prober: &mut Conn,
    lines: &[String],
    relations: &[String],
) -> Result<LiveOutcome, String> {
    let io = |e: std::io::Error| format!("live phase I/O: {e}");
    let mut out = LiveOutcome::default();
    let mut next = 0;
    for (b, batch) in batches.iter().enumerate() {
        out.publishes += 1;
        if let Some(probe) = batch.probe() {
            let before = prober.call(&probe).map_err(io)?;
            if !before.starts_with("err unknown-entity") {
                out.errors.push(format!(
                    "new entity answered before its batch: {before:.80}"
                ));
            }
        }
        fifo.write(batch.text.as_bytes())?;
        let start = Instant::now();
        loop {
            let reply = reader.call(&lines[next % lines.len()]).map_err(io)?;
            next += 1;
            out.requests += 1;
            if reply.starts_with("err") {
                out.request_failures += 1;
            } else if let Err(e) = parse_scores(&reply, relations) {
                out.errors.push(format!("request during publish: {e}"));
            }
            let stats = prober.stats().map_err(io)?;
            if stats_field(&stats, "stream:", "publishes").unwrap_or(0.0) > b as f64 {
                if b >= UNTIMED {
                    out.visible_ms.push(start.elapsed().as_secs_f64() * 1e3);
                }
                break;
            }
            if start.elapsed() > PUBLISH_TIMEOUT {
                out.publish_failures += 1;
                break;
            }
        }
        if let Some(probe) = batch.probe() {
            let after = prober.call(&probe).map_err(io)?;
            if let Err(e) = parse_scores(&after, relations) {
                out.errors
                    .push(format!("new entity after its publish: {e}"));
            }
        }
    }
    Ok(out)
}
