//! The request list and the output checks. Every check is computed from
//! the generator's labels, from the in-process library, or from a property
//! the method must have; none compares against stored output.

use imre_corpus::Dataset;
use imre_tensor::TensorRng;

/// One `infer` request built from a test-split bag.
pub struct Request {
    /// The wire line (without newline).
    pub line: String,
    /// The bag's index in the test split.
    pub bag: usize,
    /// The generator's relation label for the bag.
    pub label: usize,
}

/// The `infer` line for a bag given as head, tail and sentences.
pub fn infer_line(extra: &str, head: &str, tail: &str, text: &str) -> String {
    format!("infer model=default k=0{extra} head={head} tail={tail} text={text}")
}

/// The request an `infer` line carries, parsed as the server parses it.
pub fn parse_line(line: &str) -> imre_serve::InferRequest {
    imre_serve::protocol::parse_infer(line.strip_prefix("infer ").unwrap_or(line))
        .expect("workload lines parse")
}

/// Every test-split bag as a `k=0` request, in a seeded order: the same
/// bags in every run, served in an order drawn from `seed`.
pub fn requests(dataset: &Dataset, seed: u64) -> Vec<Request> {
    let vocab = &dataset.vocab;
    let world = &dataset.world;
    let mut order: Vec<usize> = (0..dataset.test.len()).collect();
    TensorRng::seed(seed ^ 0x7265_7175_6573_7473).shuffle(&mut order);
    order
        .into_iter()
        .map(|i| {
            let bag = &dataset.test[i];
            let text = bag
                .sentences
                .iter()
                .map(|s| {
                    s.tokens
                        .iter()
                        .map(|&t| vocab.word(t))
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .collect::<Vec<_>>()
                .join(" | ");
            Request {
                line: infer_line(
                    "",
                    &world.entities[bag.head.0].name,
                    &world.entities[bag.tail.0].name,
                    &text,
                ),
                bag: i,
                label: bag.label.0,
            }
        })
        .collect()
}

/// Parses an `ok` reply to a `k=0` request into a per-relation score
/// vector, checking what every such reply must satisfy: it is `ok`, lists
/// each of the bundle's relations exactly once, and its scores lie in
/// [0, 1] and do not increase.
pub fn parse_scores(reply: &str, relations: &[String]) -> Result<Vec<f32>, String> {
    let body = reply
        .strip_prefix("ok ")
        .ok_or_else(|| format!("not ok: {reply:.120}"))?;
    let mut scores = vec![f32::NAN; relations.len()];
    let mut prev = f32::INFINITY;
    let mut listed = 0;
    for pair in body.split(' ') {
        let (name, score) = pair
            .rsplit_once(':')
            .ok_or_else(|| format!("malformed pair {pair:?}"))?;
        let score: f32 = score
            .parse()
            .map_err(|_| format!("malformed score in {pair:?}"))?;
        let id = relations
            .iter()
            .position(|r| r == name)
            .ok_or_else(|| format!("unknown relation {name:?}"))?;
        if !scores[id].is_nan() {
            return Err(format!("relation {name:?} listed twice"));
        }
        if !(0.0..=1.0).contains(&score) {
            return Err(format!("score {score} of {name:?} outside [0, 1]"));
        }
        if score > prev {
            return Err(format!("scores increase at {name:?}"));
        }
        prev = score;
        scores[id] = score;
        listed += 1;
    }
    if listed != relations.len() {
        return Err(format!(
            "{listed} relations listed, the bundle has {}",
            relations.len()
        ));
    }
    Ok(scores)
}

/// Held-out PR-AUC: every (bag, non-NA relation) pair is one prediction,
/// correct when the bag's label is that relation; recall is over the
/// non-NA bags; the area is the trapezoid sum over recall. Ties keep bag
/// order, then relation order.
pub fn pr_auc(scores: &[Vec<f32>], labels: &[usize]) -> f64 {
    let mut preds: Vec<(f32, bool)> = Vec::new();
    for (s, &label) in scores.iter().zip(labels) {
        for (r, &score) in s.iter().enumerate().skip(1) {
            preds.push((score, label == r));
        }
    }
    let positives = labels.iter().filter(|&&l| l != 0).count();
    if positives == 0 {
        return 0.0;
    }
    preds.sort_by(|a, b| b.0.total_cmp(&a.0));
    let (mut tp, mut area, mut prev_recall) = (0usize, 0.0f64, 0.0f64);
    let mut prev_precision = None;
    for (rank, &(_, correct)) in preds.iter().enumerate() {
        tp += correct as usize;
        let precision = tp as f64 / (rank + 1) as f64;
        let recall = tp as f64 / positives as f64;
        let pp = prev_precision.unwrap_or(precision);
        if recall > prev_recall {
            area += (recall - prev_recall) * (precision + pp) / 2.0;
        }
        prev_recall = recall;
        prev_precision = Some(precision);
    }
    area
}

/// The lowest acceptable served AUC: a quarter of the way from the AUC a
/// random ranking gets (the share of predictions that are correct) to a
/// perfect one.
pub fn auc_floor(labels: &[usize], num_relations: usize) -> f64 {
    let positives = labels.iter().filter(|&&l| l != 0).count() as f64;
    let chance = positives / (labels.len() * (num_relations - 1)) as f64;
    chance + 0.25 * (1.0 - chance)
}

/// Recovers the kNN label votes from a blended reply and the pure
/// (`knn=0`) reply of the same request, `(blend − (1−λ)·pure)/λ`, and
/// checks that they are non-negative multiples of `1/k` summing to 1 —
/// which holds for any k neighbours, whatever their labels.
pub fn check_votes(blend: &[f32], pure: &[f32], k: usize, lambda: f32) -> Result<(), String> {
    // Each wire score carries up to 5e-7 rounding; dividing by λ scales it.
    let tol = 4e-6 / lambda as f64 + 1e-6;
    let mut sum = 0.0f64;
    for (r, (&b, &p)) in blend.iter().zip(pure).enumerate() {
        let v = (b as f64 - (1.0 - lambda as f64) * p as f64) / lambda as f64;
        let units = v * k as f64;
        if v < -tol || (units - units.round()).abs() > tol * k as f64 {
            return Err(format!(
                "relation {r}: recovered vote {v:.6} is not a multiple of 1/{k}"
            ));
        }
        sum += v;
    }
    if (sum - 1.0).abs() > tol * blend.len() as f64 {
        return Err(format!("recovered votes sum to {sum:.6}, not 1"));
    }
    Ok(())
}
