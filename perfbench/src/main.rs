//! `perfbench` — the end-to-end and per-layer benchmark of XInsight.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --serve-bin PATH --work-dir DIR
//! ```
//!
//! Normally started by `run.py`, which builds this program and
//! `xinsight-serve` first.  Every workload runs the same stages; they
//! differ in data, key pool, result-cache budget and traffic mix (see
//! [`WORKLOADS`]):
//!
//! 1. **Set-up**, five times (`setup_s` is the median): CSV text → fit →
//!    saved bundles (`fit_s` wall, `fit_cpu_s` this process's CPU),
//!    bundles → `ModelRegistry::open` → first `execute` answer
//!    (`load_to_answer_ms`), then `xinsight-serve` started as its own
//!    process over those bundles and its first HTTP answer.  Warm-up reads
//!    follow, outside `setup_s`.
//! 2. **Nominal window**: open-loop Poisson traffic at the workload's fixed
//!    nominal rate, in 30 sub-windows → `p50_ms`/`p99_ms` of reads from
//!    their due time, `p99_slo_ratio` (the share of sub-windows whose p99
//!    meets `P99_LIMIT_MS`), `cpu_us_per_req` of the server process (its
//!    CPU clock, in ns, per sub-window), and the server's `/metrics`
//!    deltas.
//!    The `fit` workload interleaves more fits and loads with the
//!    sub-windows, `fit_share` of the run.
//! 3. **Ladder** (with `--trace 1`): fixed absolute rates `LADDER_FACTOR`
//!    apart, from above the nominal rate to well past the current
//!    capacity, climbed until a step fails; the highest step with no
//!    failure and p99 within `P99_LIMIT_MS` is `max_rate_rps`.
//! 4. **Ingests**: the writes of the mix, or sequential probe ingests after
//!    a read-only mix → `ingest_p50_ms`/`ingest_p99_ms`.
//! 5. **Checks**: every distinct key served in a read-only window against a
//!    direct `execute` on the same bundles; row counts against acknowledged
//!    ingests; answers after the run against an in-process replica built
//!    with `with_ingested` and `with_compacted`; every fit's model
//!    byte-identical.  Each mismatch is a failed operation (`ok_ratio`,
//!    `failed`).
//!
//! Timings that repeat within a run (sub-window medians, the server's CPU
//! per request in each sub-window, fits, loads, ingest chunks) are
//! reported as their 10th percentile, [`quiet`]: on a small shared
//! virtual machine, CPU steal and slow wake-ups come in bursts.  Which
//! metrics gate a change is `BENCHMARK.json`'s choice: there set-up time,
//! success, the share of sub-windows meeting the p99 limit and accuracy
//! are end-to-end, while latencies, server CPU per request, capacity and
//! fit times, which move with the host's load by more than a bound may
//! allow, are per-layer.
//!
//! With `--trace 1` the run also makes a traced fit and a traced in-process
//! replay of the nominal window's stream (see `layers`).  The metric names
//! printed come from `BENCHMARK.json`: its end-to-end list, or with
//! `--trace 1` its per-layer list.  The last line of standard output is the
//! JSON result; every metric with its unit and sample count, the stage
//! timings and any flags go to standard error.

mod fit;
mod inputs;
mod layers;
mod loadgen;
mod replay;
mod run;
mod server;
mod spans;
mod sys;

use inputs::ModelKind;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use xinsight_core::json::Json;

/// One workload's definition.  Data seeds are fixed here; `--seed` drives
/// arrivals, key order and ingest rows.
struct Workload {
    name: &'static str,
    models: &'static [(&'static str, ModelKind)],
    /// Example queries per model (each crossed with 6 option objects).
    queries: usize,
    /// Models whose keys the reads draw from.
    read_models: &'static [&'static str],
    /// Result-cache budget; with 0 every read runs XPlainer.
    cache_mb: usize,
    compact_after: usize,
    nominal_rps: f64,
    /// The ladder's last rate, well past the capacity measured on the
    /// current program (see [`Workload::ladder`]).
    ladder_top_rps: f64,
    /// Share of arrivals that are ingests.
    write_share: f64,
    /// Share of the run spent in repeated fits.
    fit_share: f64,
}

/// Ratio of consecutive ladder rates: steps 10% apart, so `max_rate_rps`
/// resolves a capacity change of a few tens of percent instead of reading
/// the spacing of a coarse ladder.
const LADDER_FACTOR: f64 = 1.1;

/// The read p99 a nominal sub-window should meet (`p99_slo_ratio` is the
/// share that do), and that a ladder step must meet to pass.  Latency
/// counts from each request's due time, so past capacity the backlog grows
/// through a step and its p99 climbs past any limit.  The limit is several
/// times the current program's p99 and above most of the host's
/// scheduling stalls, so it catches a tail that grows several-fold.
const P99_LIMIT_MS: f64 = 50.0;

impl Workload {
    /// The fixed absolute rate ladder: the nominal rate times
    /// `LADDER_FACTOR`, `LADDER_FACTOR`², … up to `ladder_top_rps`, in
    /// whole requests per second, so a parent and a change are offered
    /// the same loads.
    fn ladder(&self) -> Vec<f64> {
        std::iter::successors(Some(self.nominal_rps * LADDER_FACTOR), |r| {
            Some(r * LADDER_FACTOR)
        })
        .map(f64::round)
        .take_while(|&r| r <= self.ladder_top_rps)
        .collect()
    }
}

const SYN_A_SERVING: ModelKind = ModelKind::SynA {
    core: 7,
    rows: 1200,
    fd_per_leaf: 1,
    measure_parents: usize::MAX,
    seed: 7,
};

/// Every workload fits a SYN-A model, whose ground truth gives
/// `skeleton_f1`; `BENCHMARK.json` records why each was chosen.
const WORKLOADS: &[Workload] = &[
    // Every read runs XPlainer (result cache off): execute, the selection
    // cache and the rayon fan-out are on the blocking path.
    Workload {
        name: "explain_cold",
        models: &[
            ("syn_a", SYN_A_SERVING),
            (
                "flight",
                ModelKind::Flight {
                    rows: 100_000,
                    seed: 1,
                },
            ),
        ],
        queries: 1000,
        read_models: &["flight"],
        cache_mb: 0,
        compact_after: 0,
        nominal_rps: 200.0,
        ladder_top_rps: 2000.0,
        write_share: 0.0,
        fit_share: 0.0,
    },
    // Reads over a warm result cache while a tenth of the requests ingest:
    // each ingest seals a segment, turns hits into prefix promotions and
    // merges, and wakes the compactor.
    Workload {
        name: "ingest_mix",
        models: &[
            ("syn_a", SYN_A_SERVING),
            (
                "flight",
                ModelKind::Flight {
                    rows: 4000,
                    seed: 1,
                },
            ),
        ],
        queries: 8,
        read_models: &["syn_a", "flight"],
        cache_mb: 64,
        compact_after: 8,
        nominal_rps: 500.0,
        ladder_top_rps: 8000.0,
        write_share: 0.1,
        fit_share: 0.0,
    },
    // The offline path at paper scale (CSV parsing, CI tests, discovery,
    // graph, persistence) fills most of the run; the fitted bundle is then
    // served with the result cache off, so its reads run XPlainer over the
    // paper-scale model.
    Workload {
        name: "fit",
        models: &[(
            "syn_a",
            ModelKind::SynA {
                core: 32,
                rows: 5000,
                fd_per_leaf: 2,
                measure_parents: 1,
                seed: 7,
            },
        )],
        queries: 8,
        read_models: &["syn_a"],
        cache_mb: 0,
        compact_after: 0,
        nominal_rps: 2000.0,
        ladder_top_rps: 20000.0,
        write_share: 0.0,
        fit_share: 0.6,
    },
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    serve_bin: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        serve_bin: PathBuf::new(),
        work_dir: PathBuf::from(".bench_work"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => args.trace = value == "1",
            "--serve-bin" => args.serve_bin = PathBuf::from(&value),
            "--work-dir" => args.work_dir = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The metric names `BENCHMARK.json` (in the working directory, the
/// checkout's root) lists as end-to-end, or as per-layer.
fn listed_metrics(per_layer: bool) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| e.to_string())?;
    let list = doc
        .get(if per_layer { "per_layer" } else { "end_to_end" })
        .and_then(Json::as_arr)
        .map_err(|e| e.to_string())?;
    list.iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .map(str::to_owned)
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// One metric as printed: value, unit, samples behind it.
struct Metric {
    value: f64,
    unit: &'static str,
    samples: usize,
}

#[derive(Default)]
struct Report {
    metrics: BTreeMap<&'static str, Metric>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    /// Records a metric; an infinite latency (a failed request ranked
    /// last) is printed as the largest finite number, which JSON can carry,
    /// and an undefined ratio as 0.
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        let value = match value {
            v if v.is_infinite() => f64::MAX,
            v if v.is_nan() => 0.0,
            v => v,
        };
        self.metrics.insert(
            name,
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    fn problem(&mut self, what: String) {
        eprintln!("perfbench: CHECK FAILED: {what}");
        self.problems.push(what);
    }

    /// The result line, carrying exactly the metrics `names`.
    fn to_json(&self, names: &[String]) -> Result<String, String> {
        let metrics = names
            .iter()
            .map(|name| {
                let m = self
                    .metrics
                    .get(name.as_str())
                    .ok_or(format!("metric {name} was not measured"))?;
                Ok((
                    name.clone(),
                    Json::Obj(vec![
                        ("value".to_owned(), Json::Num(m.value)),
                        ("unit".to_owned(), Json::Str(m.unit.to_owned())),
                    ]),
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        // The counts are written as integers (`Json::Num` would print
        // `12.0`).
        let mut line = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":",
            self.problems.is_empty(),
            self.attempted,
            self.failed
        );
        Json::Obj(metrics).write(&mut line);
        line.push('}');
        Ok(line)
    }
}

/// The value of a run's quiet periods: the 10th percentile of repeated
/// measurements (sub-window medians, repeated fits).  On a small shared
/// virtual machine, CPU steal and wake-up delays come in bursts that slow
/// some repetitions by tens of percent; a slower program is slower in
/// every repetition, quiet ones included, so this still moves with it.
fn quiet(values: &[f64]) -> f64 {
    quantile(values, 0.1)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile (`q` in (0, 1]); infinities sort last.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {})",
            args.workload,
            WORKLOADS
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
                .join(", ")
        );
        return ExitCode::from(2);
    };
    let work = args.work_dir.join(format!(
        "{}-{}-{}",
        workload.name,
        args.seed,
        std::process::id()
    ));
    let outcome = listed_metrics(args.trace).and_then(|names| {
        let report = run::run(workload, &args, &work);
        let _ = std::fs::remove_dir_all(&work);
        let report = report?;
        for (name, m) in &report.metrics {
            eprintln!("{name:<28} {:>14.6} {:<6} n={}", m.value, m.unit, m.samples);
        }
        report.to_json(&names)
    });
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
