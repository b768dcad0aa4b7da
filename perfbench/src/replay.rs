//! The traced in-process replay of a serving stream.
//!
//! Each op goes through the public calls the server's `/v2/explain` and
//! `/v2/ingest` handlers make, in the same order: HTTP framing, wire
//! decode, result-cache lookup, `execute_with_cache`, wire encode; and
//! ingest decode, `ingest_with_report`, `compact`.  The stream runs once
//! untraced and once traced over fresh state; the difference is the
//! tracing overhead.  A result-cache entry covering an older segment set
//! is recomputed here rather than promoted or merged (that logic is the
//! server's own), so after ingests the replay executes somewhat more than
//! the server does.

use crate::spans::Spans;
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xinsight_core::json::Json;
use xinsight_core::pipeline::XInsightOptions;
use xinsight_core::{SearchStrategy, SelectionCache, XPlainer, XPlainerOptions};
use xinsight_data::AttributeKind;
use xinsight_graph::separation::m_separated;
use xinsight_service::http::{encode_response, RequestParser, Response};
use xinsight_service::wire::{self, ExplainV2, IngestV2, RequestOptions};
use xinsight_service::{CacheKey, Lookup, ModelRegistry, ResultCache};

/// One op of the stream: a read of `reads[i]` or an ingest of
/// `ingests[i]` (both pre-encoded HTTP requests).
#[derive(Debug, Clone, Copy)]
pub enum ReplayOp {
    Read(usize),
    Ingest(usize),
}

pub struct Stream<'a> {
    pub reads: &'a [Vec<u8>],
    pub ingests: &'a [Vec<u8>],
    pub ops: &'a [ReplayOp],
    pub cache_bytes: usize,
    pub compact_after: usize,
    /// Reads made before timing, as the server was warmed.
    pub warm: &'a [usize],
}

type Result<T> = std::result::Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Times `name` when tracing; free otherwise.
struct Tracer<'s> {
    spans: Option<&'s mut Spans>,
}

impl Tracer<'_> {
    fn start(&self) -> Option<Instant> {
        self.spans.as_ref().map(|_| Instant::now())
    }

    fn end(&mut self, name: &'static str, started: Option<Instant>) {
        if let (Some(spans), Some(t)) = (self.spans.as_deref_mut(), started) {
            spans.add(name, t);
        }
    }

    fn count(&mut self, name: &'static str, value: f64) {
        if let Some(spans) = self.spans.as_deref_mut() {
            spans.count(name, value);
        }
    }
}

/// Replays the stream once over fresh state (bundles re-opened from
/// `dir`); returns the wall time of the ops.
pub fn run(dir: &Path, stream: &Stream<'_>, spans: Option<&mut Spans>) -> Result<Duration> {
    let registry = ModelRegistry::open(dir, XInsightOptions::default()).map_err(err)?;
    let cache = ResultCache::new(stream.cache_bytes);
    let mut tracer = Tracer { spans: None };
    for &i in stream.warm {
        read(&registry, &cache, &stream.reads[i], &mut tracer)?;
    }
    tracer.spans = spans;
    let started = Instant::now();
    for op in stream.ops {
        match *op {
            ReplayOp::Read(i) => read(&registry, &cache, &stream.reads[i], &mut tracer)?,
            ReplayOp::Ingest(i) => ingest(
                &registry,
                &cache,
                &stream.ingests[i],
                stream.compact_after,
                &mut tracer,
            )?,
        }
    }
    let took = started.elapsed();
    // Compact whatever is left fragmented, so the compaction layer is
    // measured on every stream that ingested.
    for id in registry.ids() {
        compact(&registry, &cache, &id, &mut tracer)?;
    }
    Ok(took)
}

fn frame(bytes: &[u8], tracer: &mut Tracer<'_>) -> Result<Vec<u8>> {
    let t = tracer.start();
    let mut parser = RequestParser::new();
    parser.feed(bytes);
    let request = parser
        .try_parse()
        .map_err(err)?
        .ok_or("incomplete request")?;
    tracer.end("http.parse", t);
    Ok(request.body)
}

fn read(
    registry: &ModelRegistry,
    cache: &ResultCache,
    bytes: &[u8],
    tracer: &mut Tracer<'_>,
) -> Result<()> {
    let body = frame(bytes, tracer)?;
    let t = tracer.start();
    let request = ExplainV2::parse(&body).map_err(err)?;
    tracer.end("wire.decode", t);
    let model = registry.get(&request.model).ok_or("unknown model")?;
    let key = CacheKey {
        model: model.id.clone(),
        query: request.query.clone(),
        options: request.options.cache_key(),
    };
    let t = tracer.start();
    let lookup = cache.lookup(&key, &model.fingerprint, model.dict_len);
    tracer.end("lru.lookup", t);
    let response = if let Lookup::Hit(hit) = lookup {
        let t = tracer.start();
        let body = wire::explain_v2_response(&model.id, true, false, 0, None, &hit);
        let bytes = encode_response(&Response::json(200, body), false);
        tracer.end("wire.encode", t);
        bytes
    } else {
        let t = tracer.start();
        let engine_request = request.options.to_engine_request(request.query);
        let answer = model
            .engine
            .execute_with_cache(&engine_request, Arc::clone(&model.selection))
            .map_err(err)?;
        tracer.end("core.execute", t);
        tracer.count("core.executes", 1.0);
        let t = tracer.start();
        let result: Arc<str> = Arc::from(wire::v2_result_to_string(&answer).as_str());
        if !answer.deadline_hit {
            cache.insert(
                key,
                model.fingerprint.clone(),
                model.dict_len,
                Arc::clone(&result),
            );
        }
        let body = wire::explain_v2_response(
            &model.id,
            false,
            answer.deadline_hit,
            0,
            answer.provenance.as_ref(),
            &result,
        );
        let bytes = encode_response(&Response::json(200, body), false);
        tracer.end("wire.encode", t);
        bytes
    };
    std::hint::black_box(response);
    tracer.count("replay.reads", 1.0);
    Ok(())
}

fn ingest(
    registry: &ModelRegistry,
    cache: &ResultCache,
    bytes: &[u8],
    compact_after: usize,
    tracer: &mut Tracer<'_>,
) -> Result<()> {
    let body = frame(bytes, tracer)?;
    let t = tracer.start();
    let request = IngestV2::parse(&body).map_err(err)?;
    let model = registry.get(&request.model).ok_or("unknown model")?;
    let batch = wire::rows_to_dataset(model.engine.raw_schema(), &request.rows).map_err(err)?;
    tracer.end("wire.ingest_decode", t);
    let (loaded, report) = registry
        .ingest_with_report(&request.model, &batch)
        .map_err(err)?;
    tracer.count("registry.ingest_build_us", report.build_us as f64);
    tracer.count("registry.ingest_swap_us", report.swap_us as f64);
    tracer.count("registry.ingests", 1.0);
    if compact_after > 0 && loaded.engine.data().n_segments() >= compact_after {
        compact(registry, cache, &request.model, tracer)?;
    }
    Ok(())
}

fn compact(
    registry: &ModelRegistry,
    cache: &ResultCache,
    id: &str,
    tracer: &mut Tracer<'_>,
) -> Result<()> {
    if let Some(report) = registry.compact(id).map_err(err)? {
        cache.remap_model(id, &report.old_fingerprint, &report.new_fingerprint);
        tracer.count("registry.compact_rewrite_us", report.rewrite_us as f64);
        tracer.count("registry.compact_swap_us", report.swap_us as f64);
        tracer.count("registry.compactions", 1.0);
    }
    Ok(())
}

/// Splits `execute` for each read in `keys` (`(model, query JSON, options
/// JSON)`) into separate serial calls on the same inputs, each over a
/// fresh selection cache: the whole `execute` with `parallel: false`
/// (`sep.execute_serial`), `XInsight::translation`
/// (`xtranslator.translate`), and one `XPlainer::explain_attribute_cached`
/// per attribute `execute` would search (`xplainer.attribute`), choosing
/// the attributes and their homogeneity flags as `execute` does.
pub fn split_execute(dir: &Path, reads: &[Vec<u8>], spans: &mut Spans) -> Result<()> {
    let registry = ModelRegistry::open(dir, XInsightOptions::default()).map_err(err)?;
    let mut tracer = Tracer { spans: None };
    for bytes in reads {
        let body = frame(bytes, &mut tracer)?;
        let request = ExplainV2::parse(&body).map_err(err)?;
        let model = registry.get(&request.model).ok_or("unknown model")?;
        let engine = &model.engine;
        let serial = RequestOptions {
            parallel: Some(false),
            ..request.options.clone()
        }
        .to_engine_request(request.query.clone());
        let t = Instant::now();
        std::hint::black_box(
            engine
                .execute_with_cache(&serial, Arc::new(SelectionCache::new()))
                .map_err(err)?,
        );
        spans.add("sep.execute_serial", t);

        let t = Instant::now();
        let query = request.query.oriented_store(engine.data()).map_err(err)?;
        let translation = engine.translation(&query);
        spans.add("xtranslator.translate", t);

        let mut skip: HashSet<&str> = HashSet::new();
        skip.insert(query.measure());
        skip.insert(query.foreground());
        skip.extend(query.background());
        let graph = engine.graph();
        let schema = engine.data().schema();
        let xplainer = XPlainer::new(XPlainerOptions {
            parallel: false,
            ..XPlainerOptions::default()
        });
        let cache = Arc::new(SelectionCache::new());
        let mut evaluations = 0usize;
        for (variable, semantics) in translation.iter() {
            let allowed = match (serial.types(), semantics.explanation_type()) {
                (None, _) => true,
                (Some(allow), Some(t)) => allow.contains(&t),
                (Some(_), None) => false,
            };
            if skip.contains(variable) || !semantics.has_explainability() || !allowed {
                continue;
            }
            let binned = format!("{variable}_bin");
            let attribute = if schema.attribute_by_name(&binned).is_ok() {
                binned
            } else {
                variable.to_owned()
            };
            if schema.attribute_by_name(&attribute).map(|a| a.kind).ok()
                != Some(AttributeKind::Dimension)
            {
                continue;
            }
            let homogeneous = match (graph.id(variable), graph.id(query.foreground())) {
                (Some(x), Some(f)) => {
                    let cond: Vec<_> = query
                        .background()
                        .iter()
                        .filter_map(|b| graph.id(b))
                        .collect();
                    m_separated(graph, x, f, &cond)
                }
                _ => false,
            };
            let t = Instant::now();
            let candidate = xplainer
                .explain_attribute_cached(
                    engine.data(),
                    &query,
                    &attribute,
                    SearchStrategy::Optimized,
                    homogeneous,
                    Arc::clone(&cache),
                )
                .map_err(err)?;
            spans.add("xplainer.attribute", t);
            evaluations += candidate.map_or(0, |c| c.n_delta_evaluations);
        }
        spans.count("xplainer.delta_evals", evaluations as f64);
        spans.count("sep.requests", 1.0);
    }
    Ok(())
}

/// Parses an options object the way the server does.
pub fn options(json: &str) -> Result<RequestOptions> {
    let doc = Json::parse(json).map_err(err)?;
    RequestOptions::parse(Some(&doc)).map_err(err)
}
