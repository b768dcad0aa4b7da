//! Everything a run feeds the program, made from fixed data seeds (part of
//! each workload's definition) and the run's `--seed` (arrival times, key
//! order, ingest rows).

use crate::loadgen::{self, Op};
use rand::rngs::StdRng;
use rand::Rng;
use std::time::Duration;
use xinsight_core::WhyQuery;
use xinsight_data::{write_csv_string, CsvOptions, Dataset, DatasetBuilder};
use xinsight_graph::MixedGraph;
use xinsight_synth::{flight, syn_a};

/// The dataset behind one bundle.
#[derive(Debug, Clone, Copy)]
pub enum ModelKind {
    /// A SYN-A instance plus a synthetic measure `M`.
    SynA {
        core: usize,
        rows: usize,
        fd_per_leaf: usize,
        /// How many leading dimensions `M` is computed from.
        measure_parents: usize,
        seed: u64,
    },
    /// The FLIGHT case-study simulator.
    Flight { rows: usize, seed: u64 },
}

/// One bundle's input: the CSV text the fit starts from, its example
/// queries, and (SYN-A) the ground-truth PAG.
pub struct ModelInput {
    pub id: &'static str,
    pub csv: String,
    pub queries: Vec<WhyQuery>,
    pub truth: Option<MixedGraph>,
}

pub fn model_input(id: &'static str, kind: ModelKind, query_limit: usize) -> ModelInput {
    let (data, truth) = match kind {
        ModelKind::SynA {
            core,
            rows,
            fd_per_leaf,
            measure_parents,
            seed,
        } => {
            let instance = syn_a::generate(&syn_a::SynAOptions {
                n_core_variables: core,
                n_rows: rows,
                seed,
                fd_nodes_per_leaf: fd_per_leaf,
                ..syn_a::SynAOptions::default()
            });
            (
                with_measure(&instance.data, measure_parents),
                Some(instance.ground_truth),
            )
        }
        ModelKind::Flight { rows, seed } => (flight::generate(rows, seed), None),
    };
    let csv = write_csv_string(&data, &CsvOptions::default());
    // Queries come from the data as the fit will read it back.
    let read_back =
        xinsight_data::read_csv_str(&csv, &CsvOptions::default()).expect("generated CSV parses");
    let mut queries = Vec::new();
    if matches!(kind, ModelKind::Flight { .. }) {
        queries.push(flight::why_query());
    }
    let rest = query_limit.saturating_sub(queries.len());
    queries.extend(xinsight_service::demo_queries(&read_back, rest).expect("demo queries"));
    ModelInput {
        id,
        csv,
        queries,
        truth,
    }
}

/// SYN-A data is purely categorical; a Why Query needs a measure.  `M` is
/// the weighted sum of category codes the serving demo uses, over the
/// first `parents` dimensions.
fn with_measure(data: &Dataset, parents: usize) -> Dataset {
    let dims: Vec<String> = data
        .schema()
        .dimension_names()
        .into_iter()
        .map(str::to_owned)
        .collect();
    let mut measure = vec![0.0f64; data.n_rows()];
    let mut builder = DatasetBuilder::new();
    for (i, name) in dims.iter().enumerate() {
        let column = data.dimension(name).expect("listed dimension");
        if i < parents {
            let weight = 1.0 / (i + 1) as f64;
            for (row, value) in measure.iter_mut().enumerate() {
                *value += column.code(row) as f64 * weight;
            }
        }
        builder = builder.dimension_column(name, column.clone());
    }
    builder
        .measure("M", measure)
        .build()
        .expect("valid dataset")
}

/// A read key: one model, one query, one options object.
#[derive(Debug, Clone)]
pub struct Key {
    pub model: &'static str,
    pub query: WhyQuery,
    pub options: String,
}

impl Key {
    pub fn body(&self) -> String {
        xinsight_service::explain_v2_body(self.model, &self.query.to_json(), Some(&self.options))
    }
}

/// Every model's queries crossed with the option pool.
pub fn keys<'a>(models: impl IntoIterator<Item = &'a ModelInput>) -> Vec<Key> {
    let options = xinsight_service::demo_v2_options(6);
    let mut keys = Vec::new();
    for model in models {
        for query in &model.queries {
            for o in &options {
                keys.push(Key {
                    model: model.id,
                    query: query.clone(),
                    options: o.clone(),
                });
            }
        }
    }
    keys
}

/// A Poisson arrival schedule at `rps` for `length`.  Each arrival is a
/// read of a uniformly drawn key (payloads `0..n_keys`) or an ingest
/// (payloads `n_keys..n_keys + n_writes`, taken in order so each batch is
/// sent at most once).  Ingests are every `1 / write_share`-th arrival
/// rather than drawn, so every run offers the same share of writes.
pub fn schedule(
    rng: &mut StdRng,
    rps: f64,
    length: Duration,
    n_keys: usize,
    write_share: f64,
    writes: &mut std::ops::Range<usize>,
) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut t = 0.0f64;
    let mut write_credit = 0.0f64;
    let end = length.as_secs_f64();
    loop {
        t += -(1.0 - rng.gen::<f64>()).ln() / rps;
        if t >= end {
            return ops;
        }
        write_credit += write_share;
        let write = write_credit >= 1.0;
        if write {
            write_credit -= 1.0;
        }
        let payload = match write.then(|| writes.next()).flatten() {
            Some(w) => n_keys + w,
            None => rng.gen_range(0..n_keys),
        };
        ops.push(Op {
            at: Duration::from_secs_f64(t),
            payload,
        });
    }
}

/// `n` ingest payloads of `rows_per_batch` rows each, for the models in
/// turn, drawn from their ingest templates (the rows `/models` advertises).
pub fn ingest_payloads(
    rng: &mut StdRng,
    templates: &[(&'static str, Vec<String>)],
    n: usize,
    rows_per_batch: usize,
) -> Vec<(&'static str, String)> {
    (0..n)
        .map(|i| {
            let (model, rows) = &templates[i % templates.len()];
            let picked: Vec<&str> = (0..rows_per_batch)
                .map(|_| rows[rng.gen_range(0..rows.len())].as_str())
                .collect();
            let body = xinsight_service::ingest_v2_body(model, &format!("[{}]", picked.join(",")));
            (*model, body)
        })
        .collect()
}

pub fn encode_reads(keys: &[Key]) -> Vec<Vec<u8>> {
    keys.iter()
        .map(|k| loadgen::post("/v2/explain", &k.body()))
        .collect()
}
