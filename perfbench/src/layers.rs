//! The traced run's per-layer figures: each layer's public entry point is
//! called in-process, from this file, on the workload's own requests and
//! delta batches, and every call is wrapped in a span (a pair of clock
//! reads). The compute pool of this process has one thread, so the
//! forward figures are per-bag CPU cost.

use crate::checks::parse_line;
use crate::live::Batch;
use crate::server::{BATCH_MAX, KNN_K, KNN_LAMBDA, WORKERS};
use crate::spans::Spans;
use crate::stats::{mean, median};
use crate::workload::Workload;
use imre_ann::{blend_scores, AnnIndex, SearchScratch};
use imre_core::{PreparedBag, QuantModel, QuantScratch};
use imre_corpus::stream::{LineDeltaSource, StreamSource};
use imre_eval::Pipeline;
use imre_graph::LineConfig;
use imre_serve::protocol::format_response;
use imre_serve::{
    load_bundle, EngineConfig, InferRequest, InferResponse, Precision, Registry, ServeHandle,
    ServingModel,
};
use imre_stream::{RefreshMode, StreamBuild, StreamBuildConfig};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the traced run measures on.
pub struct Inputs<'a> {
    /// The workload.
    pub workload: Workload,
    /// The pipeline the served model was trained on.
    pub pipeline: &'a Pipeline,
    /// The served bundle.
    pub bundle_path: &'a Path,
    /// The workload's `infer` lines, in serving order.
    pub lines: &'a [String],
    /// The workload's delta batches.
    pub batches: &'a [Batch],
    /// The run's seed (seeds the in-process kNN index when the bundle has
    /// none).
    pub seed: u64,
}

/// Mean duration in µs of `f` over `items`, one span per call.
fn per_call<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let mut total = Duration::ZERO;
    for item in items {
        let start = Instant::now();
        f(item);
        total += start.elapsed();
    }
    total.as_secs_f64() * 1e6 / items.len() as f64
}

fn load_serving(path: &Path) -> ServingModel {
    ServingModel::new(load_bundle(path).expect("bundle loads")).expect("bundle validates")
}

/// Records every request-path and stream figure; returns the request-path
/// sum in µs (parse + featurize + batch-1 forward + kNN where served +
/// rank/format + sync queue wait).
pub fn measure(inp: &Inputs, spans: &mut Spans) -> f64 {
    let w = inp.workload;
    let serving = load_serving(inp.bundle_path);
    let reqs: Vec<InferRequest> = inp.lines.iter().map(|l| parse_line(l)).collect();
    let parse_us = per_call(inp.lines, |l| {
        black_box(parse_line(l));
    });
    spans.record("serve.parse_us", parse_us);
    let featurize_us = per_call(&reqs, |r| {
        black_box(serving.featurize_request(r).expect("featurizes"));
    });
    spans.record("serve.featurize_us", featurize_us);
    let bags: Vec<PreparedBag> = reqs
        .iter()
        .map(|r| serving.featurize_request(r).expect("featurizes"))
        .collect();
    let refs: Vec<&PreparedBag> = bags.iter().collect();

    // Forward passes at batch 1 and at the server's batch cap, exporting
    // the kNN representation exactly when the workload serves kNN.
    let want = w.knn();
    let mut arena = imre_tensor::BufferPool::new();
    let f32_b = |n: usize, arena: &mut imre_tensor::BufferPool| {
        // Warm the arena first: the server's workers are warm too.
        serving.predict_prepared_batch_pooled_with_repr(&refs[..n], arena, &vec![want; n]);
        let chunks: Vec<&[&PreparedBag]> = refs.chunks(n).collect();
        per_call(&chunks, |c| {
            black_box(serving.predict_prepared_batch_pooled_with_repr(
                c,
                arena,
                &vec![want; c.len()],
            ));
        }) * chunks.len() as f64
            / refs.len() as f64
    };
    let f32_b1 = f32_b(1, &mut arena);
    spans.record("core.forward_f32_us_per_bag.b1", f32_b1);
    spans.record(
        "core.forward_f32_us_per_bag.bmax",
        f32_b(BATCH_MAX, &mut arena),
    );

    let local_quant;
    let quant: &QuantModel = match serving.quant() {
        Some(q) => q,
        None => {
            local_quant = spans.time("core.quantize_ms", || {
                QuantModel::from_model(&serving.bundle().model, serving.bundle().embedding.as_ref())
                    .expect("model quantizes")
            });
            &local_quant
        }
    };
    let types = serving.ctx().entity_types;
    let mut scratch = QuantScratch::new();
    let mut int8_b = |n: usize| {
        quant.predict_batch_quant_with_repr(&refs[..n], types, &mut scratch, &vec![want; n]);
        let chunks: Vec<&[&PreparedBag]> = refs.chunks(n).collect();
        per_call(&chunks, |c| {
            black_box(quant.predict_batch_quant_with_repr(
                c,
                types,
                &mut scratch,
                &vec![want; c.len()],
            ));
        }) * chunks.len() as f64
            / refs.len() as f64
    };
    let int8_b1 = int8_b(1);
    spans.record("core.forward_int8_us_per_bag.b1", int8_b1);
    spans.record("core.forward_int8_us_per_bag.bmax", int8_b(BATCH_MAX));

    // kNN: search + votes + blend on each bag's representation.
    let local_ann;
    let ann: &AnnIndex = match serving.ann() {
        Some(a) => a,
        None => {
            local_ann = spans.time("ann.build_ms", || {
                imre_eval::build_index(inp.pipeline, &serving.bundle().model, inp.seed)
            });
            &local_ann
        }
    };
    let scored =
        serving.predict_prepared_batch_pooled_with_repr(&refs, &mut arena, &vec![true; refs.len()]);
    let mut search = SearchScratch::new();
    let mut votes = vec![0.0f32; serving.num_relations()];
    let knn_us = per_call(&scored, |(scores, repr)| {
        let repr = repr.as_ref().expect("representation requested");
        let neighbors = ann.search(repr, KNN_K.min(ann.len()), &mut search);
        ann.label_votes_into(neighbors, &mut votes);
        let mut s = scores.clone();
        blend_scores(&mut s, &votes, KNN_LAMBDA);
        black_box(s);
    });
    spans.record("ann.knn_us", knn_us);

    let rank_format_us = per_call(&scored, |(scores, _)| {
        let resp = InferResponse {
            model: "default".to_string(),
            ranked: serving.rank(scores, 0),
            queue_us: 0,
            featurize_us: 0,
            forward_us: 0,
        };
        black_box(format_response(&resp));
    });
    spans.record("serve.rank_format_us", rank_format_us);

    let queue_sync_us = engine(w, inp.bundle_path, &reqs, spans);
    stream(inp, spans);
    let forward_b1 = if w.int8() { int8_b1 } else { f32_b1 };
    let knn = if w.knn() { knn_us } else { 0.0 };
    parse_us + featurize_us + forward_b1 + knn + rank_format_us + queue_sync_us
}

/// The engine alone, through an in-process [`ServeHandle`] configured like
/// the server: `sync` (one request at a time) and `saturate` (the client's
/// pipelined window). Returns the `sync` median queue wait in µs.
fn engine(w: Workload, bundle: &Path, reqs: &[InferRequest], spans: &mut Spans) -> f64 {
    let registry = Arc::new(Registry::new());
    registry.insert("default", load_serving(bundle));
    let handle = ServeHandle::start(
        Arc::clone(&registry),
        EngineConfig {
            workers: WORKERS,
            batch_max: BATCH_MAX,
            batch_deadline: Duration::from_millis(2),
            queue_capacity: 256,
            default_deadline_ms: None,
            knn_k: if w.knn() { KNN_K } else { 0 },
            knn_lambda: KNN_LAMBDA,
            precision: if w.int8() {
                Precision::Int8
            } else {
                Precision::F32
            },
        },
    );
    let mut queue = Vec::with_capacity(reqs.len());
    let mut latency_ms = Vec::with_capacity(reqs.len());
    for r in reqs {
        let start = Instant::now();
        let resp = handle.infer(r.clone()).expect("in-process infer succeeds");
        latency_ms.push(start.elapsed().as_secs_f64() * 1e3);
        queue.push(resp.queue_us as f64);
    }
    let queue_sync = median(&queue);
    spans.record("engine.queue_wait_us.sync", queue_sync);
    spans.record("engine.inproc_p50_ms", median(&latency_ms));

    let mut queue = Vec::with_capacity(reqs.len());
    for chunk in reqs.chunks(crate::client::SATURATE_WINDOW) {
        let pending: Vec<_> = chunk
            .iter()
            .map(|r| handle.submit(r.clone()).expect("queue has room"))
            .collect();
        for p in pending {
            queue.push(p.wait().expect("in-process infer succeeds").queue_us as f64);
        }
    }
    spans.record("engine.queue_wait_us.saturate", mean(&queue));
    handle.shutdown();
    queue_sync
}

/// The updater's per-batch and per-publish steps over the workload's delta
/// batches: `apply_batch`, the canonical refresh, the bundle reload,
/// `ServingModel::new` and `Registry::insert`.
fn stream(inp: &Inputs, spans: &mut Spans) {
    let base = load_bundle(inp.bundle_path).expect("bundle loads");
    let config = StreamBuildConfig {
        threshold: 2,
        line: LineConfig {
            dim: base
                .embedding
                .as_ref()
                .expect("bundle has an embedding")
                .dim(),
            ..LineConfig::default()
        },
        threads: crate::server::POOL_THREADS,
        refresh: RefreshMode::Canonical,
    };
    let mut build = StreamBuild::new(&base.entities, base.model.num_types(), config);
    drop(base);
    let registry = Registry::new();
    registry.insert("default", load_serving(inp.bundle_path));
    let (mut apply, mut refresh, mut load, mut validate, mut insert) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for batch in inp.batches {
        let mut source = LineDeltaSource::new(batch.text.as_bytes());
        let delta = source
            .next_batch()
            .expect("batch parses")
            .expect("batch is not empty");
        let t = Instant::now();
        build.apply_batch(delta).expect("batch applies");
        apply.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let embedding = build.embedding().expect("graph has edges");
        refresh.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let mut bundle = load_bundle(inp.bundle_path).expect("bundle loads");
        load.push(t.elapsed().as_secs_f64() * 1e3);
        bundle.entities = build.catalog().entries().to_vec();
        bundle.embedding = Some(embedding);
        let t = Instant::now();
        let model = ServingModel::new(bundle).expect("published bundle validates");
        validate.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        registry.insert("default", model);
        insert.push(t.elapsed().as_secs_f64() * 1e6);
    }
    spans.record("stream.apply_batch_us", median(&apply));
    spans.record("stream.refresh_ms", median(&refresh));
    spans.record("serve.bundle_load_ms", median(&load));
    spans.record("serve.validate_ms", median(&validate));
    spans.record("serve.registry_insert_us", median(&insert));
}

/// The cost of one span (two clock reads and an add) in ns.
pub fn span_cost_ns() -> f64 {
    const N: u32 = 100_000;
    let mut total = Duration::ZERO;
    let outer = Instant::now();
    for _ in 0..N {
        let start = Instant::now();
        total += black_box(start.elapsed());
    }
    black_box(total);
    outer.elapsed().as_secs_f64() * 1e9 / N as f64
}
