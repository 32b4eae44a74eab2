//! The three served workloads and what distinguishes them.

use imre_core::HyperParams;
use imre_corpus::DatasetConfig;

/// Training epochs of the NYT-sim model. Held-out AUC is ~0.03 after one
/// epoch and ~0.4 after three, so three is the fewest that leaves the
/// served-AUC floor meaningful.
pub const NYT_EPOCHS: usize = 3;

/// Training epochs of the smoke model: enough training work (~0.2 s) for
/// a steady training rate.
pub const SMOKE_EPOCHS: usize = 40;

/// Generator and training seed. The corpus and the model are the same in
/// every run, so the served AUC and the work per request do not move with
/// `--seed`; the seed draws the serving order and the delta stream.
pub const DATA_SEED: u64 = 1;

/// One served workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// NYT-sim PA-TMR served at f32, kNN off.
    NytF32,
    /// The same model served from a `.imrb` v3 mmap at int8 with kNN.
    NytInt8Knn,
    /// The smoke world with short requests while a delta stream publishes.
    SmokeLive,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "nyt-f32" => Some(Workload::NytF32),
            "nyt-int8-knn" => Some(Workload::NytInt8Knn),
            "smoke-live" => Some(Workload::SmokeLive),
            _ => None,
        }
    }

    /// The workload's name as passed on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NytF32 => "nyt-f32",
            Workload::NytInt8Knn => "nyt-int8-knn",
            Workload::SmokeLive => "smoke-live",
        }
    }

    /// Set-ups per run. `setup_s`, `train_bags_per_s`, the set-up stage
    /// figures and the `saturate` CPU figures are medians over them; the
    /// smoke set-up is cheap, so it runs more of them.
    pub fn setup_repeats(self) -> usize {
        if self.nyt() {
            3
        } else {
            5
        }
    }

    /// Whether the workload trains on NYT-sim.
    pub fn nyt(self) -> bool {
        self != Workload::SmokeLive
    }

    /// Whether the bundle carries a kNN index and requests use it.
    pub fn knn(self) -> bool {
        self == Workload::NytInt8Knn
    }

    /// Whether the bundle carries the int8 model and the server runs it.
    pub fn int8(self) -> bool {
        self == Workload::NytInt8Knn
    }

    /// The generator config.
    pub fn dataset_config(self) -> DatasetConfig {
        if self.nyt() {
            imre_corpus::nyt_sim(DATA_SEED)
        } else {
            imre_eval::smoke_config(DATA_SEED)
        }
    }

    /// Model dimensions and epoch count.
    pub fn hyper_params(self) -> HyperParams {
        if self.nyt() {
            HyperParams {
                epochs: NYT_EPOCHS,
                ..HyperParams::scaled()
            }
        } else {
            HyperParams {
                epochs: SMOKE_EPOCHS,
                ..HyperParams::tiny()
            }
        }
    }
}
