//! Per-layer metrics, from two sources: deltas of the server's `/metrics`
//! counters around the nominal window, and a traced run in which the
//! benchmark records spans around its own calls into each layer's public
//! functions (a traced fit, and an in-process replay of the window's
//! stream).  No span is recorded inside the program.

use crate::inputs::ModelInput;
use crate::run::{Serving, Traffic, SUB_WINDOWS};
use crate::server::{delta, stage_mean_us};
use crate::spans::Spans;
use crate::{fit, ms, quantile, replay, Metric, Report, Workload};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use xinsight_service::ModelRegistry;

/// Cap on the ops the traced replay runs.
const REPLAY_OPS: usize = 3000;
/// Reads whose `execute` the traced run splits into separate calls.
const SPLIT_READS: usize = 24;

/// The per-layer metrics: `/metrics` deltas over the nominal window, a
/// traced fit, and a traced in-process replay of the window's stream.
pub(crate) fn per_layer(
    w: &Workload,
    work: &Path,
    inputs: &[ModelInput],
    traffic: &Traffic,
    serving: &Serving,
    digests: &BTreeMap<&'static str, String>,
    report: &mut Report,
) -> Result<BTreeMap<&'static str, Metric>, String> {
    let Serving {
        before,
        after,
        window: nominal,
    } = serving;
    let n_keys = traffic.keys.len();
    let mut out: BTreeMap<&'static str, Metric> = BTreeMap::new();
    let mut put = |name: &'static str, value: f64, unit: &'static str, samples: usize| {
        out.insert(
            name,
            Metric {
                value: if value.is_finite() { value } else { 0.0 },
                unit,
                samples,
            },
        );
    };
    let d = |series: &str| delta(before, after, series);
    let stage_count = |stage: &str| {
        d(&format!(
            "xinsight_stage_latency_seconds_count{{stage=\"{stage}\"}}"
        )) as usize
    };
    let stage_sum = |stage: &str| {
        d(&format!(
            "xinsight_stage_latency_seconds_sum{{stage=\"{stage}\"}}"
        ))
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    // Server layers, from /metrics deltas around the nominal window.
    for (name, stage) in [
        ("event.parse_us", "parse"),
        ("server.queue_wait_us", "queue_wait"),
        ("lru.lookup_us", "cache_lookup"),
        ("server.execute_us", "execute"),
        ("wire.serialize_us", "serialize"),
        ("event.write_us", "write"),
    ] {
        put(
            name,
            stage_mean_us(before, after, stage),
            "us",
            stage_count(stage),
        );
    }
    // The request-latency histogram runs from admission to the response
    // being computed; the stages inside that interval should tile it.
    let inside: f64 = ["queue_wait", "cache_lookup", "execute", "serialize"]
        .iter()
        .map(|s| stage_sum(s))
        .sum();
    let requests = d("xinsight_request_latency_seconds_count");
    let coverage = ratio(inside, d("xinsight_request_latency_seconds_sum"));
    if coverage < 0.95 {
        eprintln!(
            "perfbench: FLAG: server stage coverage {coverage:.3} < 0.95 in the nominal window"
        );
    }
    put(
        "server.stage_coverage",
        coverage,
        "ratio",
        requests as usize,
    );
    let lookups = d("xinsight_result_cache_lookups_total");
    put(
        "lru.hit_ratio",
        ratio(
            d("xinsight_result_cache_total{tier=\"hit\"}")
                + d("xinsight_result_cache_total{tier=\"prefix_hit\"}"),
            lookups,
        ),
        "ratio",
        lookups as usize,
    );
    put(
        "lru.evictions",
        d("xinsight_result_cache_evictions_total"),
        "count",
        1,
    );
    put(
        "lru.merged_per_kreq",
        ratio(
            d("xinsight_result_cache_total{tier=\"merged\"}") * 1e3,
            requests,
        ),
        "1/kreq",
        requests as usize,
    );
    let segments = after
        .iter()
        .filter(|(k, _)| k.starts_with("xinsight_model_segments{"))
        .map(|(_, v)| *v)
        .fold(0.0, f64::max);
    put("store.segments_max", segments, "count", 1);
    put(
        "registry.compactions",
        d("xinsight_compactions_total"),
        "count",
        1,
    );
    put(
        "registry.bytes_reclaimed",
        d("xinsight_compaction_bytes_reclaimed_total"),
        "bytes",
        1,
    );
    let sel_hits = d("xinsight_selection_cache_total{outcome=\"hit\"}");
    let sel_all = sel_hits + d("xinsight_selection_cache_total{outcome=\"miss\"}");
    put(
        "selection.hit_ratio",
        ratio(sel_hits, sel_all),
        "ratio",
        sel_all as usize,
    );
    put(
        "server.shed_503",
        d("xinsight_rejected_total") + d("xinsight_connections_shed_total"),
        "count",
        1,
    );
    let lags: Vec<f64> = nominal.outcomes.iter().map(|o| ms(o.lag)).collect();
    put("gen.lag_p99_ms", quantile(&lags, 0.99), "ms", lags.len());
    put(
        "gen.behind_windows",
        nominal.behind as f64,
        "count",
        SUB_WINDOWS,
    );
    put(
        "gen.cpu_us_per_req",
        nominal.gen_cpu.as_secs_f64() * 1e6 / nominal.ops.len().max(1) as f64,
        "us",
        nominal.ops.len(),
    );

    // Traced fit of every model, checked against the untraced fit.
    let mut fs = Spans::default();
    let traced_dir = work.join("traced");
    let mut untraced = 0.0;
    for input in inputs {
        untraced += fit::fit_and_save(input, &traced_dir)?.wall.as_secs_f64();
        let digest = fit::traced_fit(input, &traced_dir, &mut fs)?;
        report.attempted += 1;
        if digests.get(input.id) != Some(&digest) {
            report.failed += 1;
            report.problem(format!(
                "traced fit of {} differs from the untraced fit",
                input.id
            ));
        }
    }
    let t = Instant::now();
    std::hint::black_box(
        ModelRegistry::open(&traced_dir, Default::default()).map_err(|e| e.to_string())?,
    );
    let load_us = t.elapsed().as_secs_f64() * 1e6;
    let n_fits = inputs.len();
    put("csv.read_ms", fs.total_us("csv.read") / 1e3, "ms", n_fits);
    put(
        "discretize.ms",
        fs.total_us("discretize") / 1e3,
        "ms",
        n_fits,
    );
    put("fd.detect_ms", fs.total_us("fd.detect") / 1e3, "ms", n_fits);
    put(
        "discovery.learn_ms",
        fs.total_us("learn") / 1e3,
        "ms",
        n_fits,
    );
    put(
        "discovery.skeleton_ms",
        fs.total_us("sep.skeleton") / 1e3,
        "ms",
        n_fits,
    );
    put(
        "discovery.pdsep_ms",
        (fs.total_us("sep.skeleton_pdsep") - fs.total_us("sep.skeleton")) / 1e3,
        "ms",
        n_fits,
    );
    put(
        "discovery.orient_ms",
        fs.total_us("sep.orient") / 1e3,
        "ms",
        n_fits,
    );
    put(
        "stats.ci_tests",
        fs.counter("stats.ci_tests"),
        "count",
        n_fits,
    );
    put(
        "stats.ci_us_per_test",
        ratio(
            fs.total_us("sep.skeleton_pdsep"),
            fs.counter("sep.ci_tests_pdsep"),
        ),
        "us",
        fs.counter("sep.ci_tests_pdsep") as usize,
    );
    put(
        "stats.ci_cache_hit_ratio",
        ratio(
            fs.counter("stats.ci_cache_hits"),
            fs.counter("stats.ci_cache_lookups"),
        ),
        "ratio",
        fs.counter("stats.ci_cache_lookups") as usize,
    );
    put(
        "persist.save_ms",
        fs.total_us("persist.save") / 1e3,
        "ms",
        n_fits,
    );
    put("registry.load_ms", load_us / 1e3, "ms", 1);
    put(
        "core.from_fitted_ms",
        fs.total_us("sep.from_fitted") / 1e3,
        "ms",
        n_fits,
    );
    let children: f64 = [
        "csv.read",
        "discretize",
        "fd.detect",
        "learn",
        "persist.save",
    ]
    .iter()
    .map(|s| fs.total_us(s))
    .sum();
    let coverage = ratio(children, untraced * 1e6);
    if coverage < 0.95 {
        eprintln!("perfbench: FLAG: fit coverage {coverage:.3} < 0.95");
    }
    put("fit.coverage", coverage, "ratio", n_fits);

    // Traced replay of the nominal window's stream, untraced first.
    let ops: Vec<replay::ReplayOp> = nominal
        .ops
        .iter()
        .take(REPLAY_OPS)
        .map(|op| {
            if op.payload < n_keys {
                replay::ReplayOp::Read(op.payload)
            } else {
                replay::ReplayOp::Ingest(op.payload - n_keys)
            }
        })
        .collect();
    let bundles = work.join("models");
    let stream = replay::Stream {
        reads: &traffic.payloads[..n_keys],
        ingests: &traffic.payloads[n_keys..],
        ops: &ops,
        cache_bytes: w.cache_mb << 20,
        compact_after: w.compact_after,
        warm: &traffic.warm,
    };
    // A first, discarded pass pays the process's one-time costs, so the
    // untraced and traced passes compare like with like.
    replay::run(&bundles, &stream, None)?;
    let plain = replay::run(&bundles, &stream, None)?;
    let mut rs = Spans::default();
    let with_spans = replay::run(&bundles, &stream, Some(&mut rs))?;
    put(
        "trace.overhead_ratio",
        (with_spans.as_secs_f64() - plain.as_secs_f64()) / plain.as_secs_f64(),
        "ratio",
        ops.len(),
    );
    let reads = rs.counter("replay.reads") as usize;
    put("http.parse_us", rs.mean_us("http.parse"), "us", ops.len());
    put("wire.decode_us", rs.mean_us("wire.decode"), "us", reads);
    put(
        "lru.lookup_inproc_us",
        rs.mean_us("lru.lookup"),
        "us",
        reads,
    );
    put(
        "core.execute_us",
        rs.mean_us("core.execute"),
        "us",
        rs.counter("core.executes") as usize,
    );
    put("wire.encode_us", rs.mean_us("wire.encode"), "us", reads);
    let n_ingests = rs.counter("registry.ingests");
    put(
        "wire.ingest_decode_us",
        rs.mean_us("wire.ingest_decode"),
        "us",
        n_ingests as usize,
    );
    put(
        "registry.ingest_build_us",
        ratio(rs.counter("registry.ingest_build_us"), n_ingests),
        "us",
        n_ingests as usize,
    );
    put(
        "registry.ingest_swap_us",
        ratio(rs.counter("registry.ingest_swap_us"), n_ingests),
        "us",
        n_ingests as usize,
    );
    let n_compactions = rs.counter("registry.compactions");
    put(
        "registry.compact_rewrite_us",
        ratio(rs.counter("registry.compact_rewrite_us"), n_compactions),
        "us",
        n_compactions as usize,
    );
    put(
        "registry.compact_swap_us",
        ratio(rs.counter("registry.compact_swap_us"), n_compactions),
        "us",
        n_compactions as usize,
    );

    // `execute` split into separate calls, on the window's first distinct
    // reads.
    let mut split: Vec<usize> = Vec::new();
    for op in &nominal.ops {
        if op.payload < n_keys && !split.contains(&op.payload) && split.len() < SPLIT_READS {
            split.push(op.payload);
        }
    }
    let split_reads: Vec<Vec<u8>> = split.iter().map(|&i| traffic.payloads[i].clone()).collect();
    let mut ss = Spans::default();
    replay::split_execute(&bundles, &split_reads, &mut ss)?;
    let n_split = ss.counter("sep.requests");
    put(
        "core.execute_self_us",
        ratio(
            ss.total_us("sep.execute_serial")
                - ss.total_us("xtranslator.translate")
                - ss.total_us("xplainer.attribute"),
            n_split,
        ),
        "us",
        n_split as usize,
    );
    put(
        "xtranslator.translate_us",
        ss.mean_us("xtranslator.translate"),
        "us",
        n_split as usize,
    );
    put(
        "xplainer.attribute_us",
        ss.mean_us("xplainer.attribute"),
        "us",
        n_split as usize,
    );
    put(
        "xplainer.delta_evals_per_req",
        ratio(ss.counter("xplainer.delta_evals"), n_split),
        "count",
        n_split as usize,
    );
    Ok(out)
}
