//! Set-up: build a workload's model in-process, write its bundle, start
//! `imre serve` on it and wait for the first `ok`.
//!
//! Every stage is one call (or a short run of calls) into a crate's public
//! API, timed from here, so the per-layer set-up figures need no tracing
//! inside the program.

use crate::spans::Spans;
use crate::workload::{Workload, DATA_SEED};
use imre_core::{
    corpus_sentences, entity_type_table, prepare_bags, train_model, train_skipgram, HyperParams,
    ModelSpec, QuantModel, ReModel, SkipGramConfig, TrainConfig,
};
use imre_corpus::{generate_unlabeled, Dataset, UnlabeledConfig};
use imre_eval::Pipeline;
use imre_graph::{train_line, EntityEmbedding, LineConfig, ProximityGraph};
use imre_serve::{save_bundle, Bundle};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Everything the run needs after the server is up.
pub struct Built {
    /// The in-process pipeline (dataset, bags, embedding) the model was
    /// trained on.
    pub pipeline: Pipeline,
    /// The bundle file the server loaded.
    pub bundle_path: PathBuf,
}

/// Builds the pipeline the way `Pipeline::build` does, one timed stage at
/// a time.
fn build_pipeline(w: Workload, hp: HyperParams, spans: &mut Spans) -> Pipeline {
    let config = w.dataset_config();
    let (dataset, co) = spans.time("corpus.generate_ms", || {
        let dataset = Dataset::generate(&config);
        let co = generate_unlabeled(&dataset.world, &UnlabeledConfig::default());
        (dataset, co)
    });
    let graph = spans.time("graph.proximity_ms", || {
        ProximityGraph::from_counts(
            co.iter().map(|(&p, &c)| (p, c)),
            dataset.world.num_entities(),
            2,
        )
    });
    let line_cfg = LineConfig {
        dim: hp.entity_dim,
        ..LineConfig::default()
    };
    let embedding = spans.time("graph.line_ms", || train_line(&graph, &line_cfg));
    let (train_bags, test_bags, types) = spans.time("core.prepare_ms", || {
        (
            prepare_bags(&dataset.train, &hp),
            prepare_bags(&dataset.test, &hp),
            entity_type_table(&dataset.world),
        )
    });
    let word_vectors = spans.time("core.skipgram_ms", || {
        let raw = corpus_sentences(&[&dataset.train, &dataset.test]);
        let sg = SkipGramConfig {
            dim: hp.word_dim,
            ..Default::default()
        };
        train_skipgram(&raw, dataset.vocab.len(), &sg)
    });
    Pipeline {
        dataset,
        co,
        embedding,
        word_vectors,
        train_bags,
        test_bags,
        types,
        hp,
    }
}

/// Trains PA-TMR on the pipeline's training bags with the serial trainer
/// (`Pipeline::train_system` without the wrapper, so the call is timed
/// alone).
fn train(pipeline: &Pipeline, seed: u64, spans: &mut Spans) -> ReModel {
    let mut model = ReModel::new(
        ModelSpec::pa_tmr(),
        &pipeline.hp,
        pipeline.dataset.vocab.len(),
        pipeline.dataset.num_relations(),
        imre_corpus::NUM_COARSE_TYPES,
        pipeline.embedding.dim(),
        seed,
    );
    model.set_word_embeddings(pipeline.word_vectors.clone());
    let tc = TrainConfig::from_hp(&pipeline.hp, seed ^ 0xabcd);
    let start = Instant::now();
    train_model(&mut model, &pipeline.train_bags, &pipeline.ctx(), &tc);
    let secs = start.elapsed().as_secs_f64();
    spans.record("core.train_ms_per_epoch", secs * 1e3 / tc.epochs as f64);
    spans.record(
        "core.train_bags_per_s",
        (pipeline.train_bags.len() * tc.epochs) as f64 / secs,
    );
    model
}

/// Builds the model and writes the bundle the workload serves.
pub fn build(w: Workload, dir: &Path, spans: &mut Spans) -> Built {
    let seed = DATA_SEED;
    let pipeline = build_pipeline(w, w.hyper_params(), spans);
    let model = train(&pipeline, seed, spans);
    let ann = w.knn().then(|| {
        spans.time("ann.build_ms", || {
            imre_eval::build_index(&pipeline, &model, seed)
        })
    });
    let embedding = EntityEmbedding::from_matrix(pipeline.embedding.matrix().clone());
    let quant = w.int8().then(|| {
        spans.time("core.quantize_ms", || {
            QuantModel::from_model(&model, Some(&embedding)).expect("trained model quantizes")
        })
    });
    let mut bundle = Bundle::new(
        model,
        pipeline.dataset.vocab.clone(),
        &pipeline.dataset.world,
        Some(embedding),
    );
    if let Some(ann) = ann {
        bundle = bundle.with_ann(ann);
    }
    if let Some(quant) = quant {
        bundle = bundle.with_quant(quant);
    }
    let bundle_path = dir.join("model.imrb");
    spans.time("serve.bundle_save_ms", || {
        save_bundle(&bundle, &bundle_path).expect("bundle writes")
    });
    let bytes = std::fs::metadata(&bundle_path)
        .expect("bundle file exists")
        .len();
    spans.record("serve.bundle_mb", bytes as f64 / (1024.0 * 1024.0));
    Built {
        pipeline,
        bundle_path,
    }
}
