//! The offline path, CSV text → saved bundle → first answer, untraced and
//! traced.
//!
//! The traced variant records spans around calls into each layer's public
//! functions.  `XInsight::fit` offers no public hook between its phases, so
//! the traced fit makes the same calls `fit` makes, in the same order —
//! discretization, `detect_fds`, `XLearner::learn_with_fd_graph` — and
//! checks that the resulting model is byte-identical to the untraced one.
//! Phases that no public function reaches on its own are timed as separate
//! calls on the same inputs, recorded as `sep.*` spans.

use crate::inputs::ModelInput;
use crate::spans::Spans;
use crate::sys;
use std::path::Path;
use std::time::{Duration, Instant};
use xinsight_core::pipeline::{XInsight, XInsightOptions};
use xinsight_core::{ExplainRequest, FittedModel, XLearner};
use xinsight_data::{
    detect_fds, discretize_equal_frequency, discretize_equal_width, read_csv_str, CsvOptions,
    DatasetBuilder,
};
use xinsight_discovery::{fci_orient, fci_skeleton, FciOptions};
use xinsight_graph::metrics::PrecisionRecall;
use xinsight_graph::MixedGraph;
use xinsight_service::{save_bundle, ModelRegistry};
use xinsight_stats::{CachedCiTest, ChiSquareTest};

pub type Result<T> = std::result::Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// One untraced fit.
pub struct Fitted {
    pub wall: Duration,
    /// CPU time of this process over the fit, all threads: the fit's work,
    /// without the time the host gave to others.
    pub cpu: Duration,
    /// The fitted model's JSON, the determinism digest.
    pub digest: String,
    pub engine: XInsight,
}

/// CSV text → fitted engine → bundle in `dir`.  Nothing else may run in
/// this process meanwhile, or `cpu` counts it too.
pub fn fit_and_save(input: &ModelInput, dir: &Path) -> Result<Fitted> {
    let options = XInsightOptions::default();
    let started = Instant::now();
    let cpu_before = sys::process_cpu();
    let data = read_csv_str(&input.csv, &CsvOptions::default()).map_err(err)?;
    let engine = XInsight::fit(&data, &options).map_err(err)?;
    save_bundle(dir, input.id, &data, &engine, &input.queries).map_err(err)?;
    let cpu = sys::process_cpu().saturating_sub(cpu_before);
    let wall = started.elapsed();
    Ok(Fitted {
        wall,
        cpu,
        digest: engine.fitted_model().to_json(),
        engine,
    })
}

/// Bundles on disk → the first answer: `ModelRegistry::open`, then one
/// `execute` of `request` on `model`.
pub fn load_to_answer(
    dir: &Path,
    model: &str,
    request: &ExplainRequest,
) -> Result<(Duration, ModelRegistry)> {
    let started = Instant::now();
    let registry = ModelRegistry::open(dir, XInsightOptions::default()).map_err(err)?;
    let loaded = registry
        .get(model)
        .ok_or_else(|| format!("model {model} missing"))?;
    std::hint::black_box(loaded.engine.execute(request).map_err(err)?);
    Ok((started.elapsed(), registry))
}

/// `fit_and_save` with spans around each phase, plus the separate calls
/// that split the learner.  Returns the traced model's JSON.
pub fn traced_fit(input: &ModelInput, dir: &Path, spans: &mut Spans) -> Result<String> {
    let options = XInsightOptions::default();
    let t = Instant::now();
    let data = read_csv_str(&input.csv, &CsvOptions::default()).map_err(err)?;
    spans.add("csv.read", t);

    // The preprocessing `XInsight::fit` performs: binned companions for the
    // served store, and a discovery view where each binned measure carries
    // the measure's own name.
    let t = Instant::now();
    let clean = data.drop_null_rows();
    let mut augmented = clean.clone();
    let mut discovery = DatasetBuilder::new();
    for name in clean.schema().dimension_names() {
        discovery = discovery.dimension_column(name, clean.dimension(name).map_err(err)?.clone());
    }
    let mut discretizers = Vec::new();
    for name in clean.schema().measure_names() {
        let discretizer = discretize_equal_frequency(&clean, name, options.measure_bins)
            .or_else(|_| discretize_equal_width(&clean, name, options.measure_bins));
        if let Ok(disc) = discretizer {
            augmented = disc
                .apply(&augmented, Some(&format!("{name}_bin")))
                .map_err(err)?;
            let tmp = disc.apply(&clean, Some("__tmp_bin")).map_err(err)?;
            discovery =
                discovery.dimension_column(name, tmp.dimension("__tmp_bin").map_err(err)?.clone());
            discretizers.push(disc);
        }
    }
    let view = discovery.build().map_err(err)?;
    std::hint::black_box(&augmented);
    spans.add("discretize", t);

    let variables: Vec<&str> = view.schema().names();
    let mut learner_options = options.xlearner.clone();
    learner_options.fci.parallel = options.parallel && learner_options.fci.parallel;
    let fci_options = learner_options.fci.clone();
    let learner = XLearner::new(learner_options);

    let t = Instant::now();
    let projected = view.select_attributes(&variables).map_err(err)?;
    let (_, fd_graph) = detect_fds(&projected, &learner.options().fd_detection).map_err(err)?;
    spans.add("fd.detect", t);

    let t = Instant::now();
    let test = CachedCiTest::new(ChiSquareTest::new(options.ci_alpha));
    let learned = learner
        .learn_with_fd_graph(&view, &variables, &test, &fd_graph)
        .map_err(err)?;
    spans.add("learn", t);
    let cache = test.stats();
    spans.count("stats.ci_tests", learned.n_ci_tests as f64);
    spans.count("stats.ci_cache_hits", cache.hits as f64);
    spans.count("stats.ci_cache_lookups", (cache.hits + cache.misses) as f64);

    // Separate calls on the learner's own FCI variables: the adjacency
    // search without and with Possible-D-SEP, then orientation.
    let fci_vars: Vec<&str> = learned.fci_variables.iter().map(String::as_str).collect();
    let t = Instant::now();
    let without = fci_skeleton(
        &view,
        &fci_vars,
        &CachedCiTest::new(ChiSquareTest::new(options.ci_alpha)),
        &FciOptions {
            use_possible_dsep: false,
            ..fci_options.clone()
        },
    )
    .map_err(err)?;
    spans.add("sep.skeleton", t);
    let t = Instant::now();
    let with = fci_skeleton(
        &view,
        &fci_vars,
        &CachedCiTest::new(ChiSquareTest::new(options.ci_alpha)),
        &fci_options,
    )
    .map_err(err)?;
    spans.add("sep.skeleton_pdsep", t);
    spans.count("sep.ci_tests_pdsep", with.n_ci_tests as f64);
    let t = Instant::now();
    std::hint::black_box(fci_orient(&with.graph, &with.sepsets));
    spans.add("sep.orient", t);
    std::hint::black_box(without);

    let model = FittedModel {
        graph: learned.graph,
        fd_graph: learned.fd_graph,
        fci_variables: learned.fci_variables,
        dropped_redundant: learned.dropped_redundant,
        sepsets: learned.sepsets,
        n_ci_tests: learned.n_ci_tests,
        discretizers,
    };
    let digest = model.to_json();
    let t = Instant::now();
    let engine = XInsight::from_fitted(&data, model, &options).map_err(err)?;
    spans.add("sep.from_fitted", t);
    let t = Instant::now();
    save_bundle(dir, input.id, &data, &engine, &input.queries).map_err(err)?;
    spans.add("persist.save", t);
    Ok(digest)
}

/// Skeleton F1 of `estimated` against `truth`, over the adjacencies among
/// the truth's nodes (the served model also holds the synthetic measure,
/// which the ground truth does not).
pub fn skeleton_f1(estimated: &MixedGraph, truth: &MixedGraph) -> f64 {
    let mut predicted = 0usize;
    let mut hits = 0usize;
    for edge in estimated.edges() {
        let (a, b) = (estimated.name(edge.a), estimated.name(edge.b));
        if let (Some(ta), Some(tb)) = (truth.id(a), truth.id(b)) {
            predicted += 1;
            hits += usize::from(truth.adjacent(ta, tb));
        }
    }
    PrecisionRecall::from_counts(hits, predicted, truth.n_edges()).f1
}
