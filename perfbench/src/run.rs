//! One run of one workload: set-up, nominal window, ladder, ingests and
//! the checks (stages 1–5 of the crate docs).

use crate::fit;
use crate::inputs::{self, Key, ModelInput};
use crate::layers;
use crate::loadgen::{self, Capture, Op, Outcome};
use crate::server::{Scrape, Server};
use crate::sys;
use crate::{median, ms, quantile, quiet, Args, Report, Workload, P99_LIMIT_MS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xinsight_core::json::Json;
use xinsight_core::pipeline::XInsight;
use xinsight_core::{ExplainRequest, SelectionCache};
use xinsight_service::wire;
use xinsight_service::{HttpClient, ModelRegistry};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
const ROWS_PER_INGEST: usize = 8;
/// Sequential ingests after the run of a read-only mix.
const PROBE_INGESTS: usize = 200;
/// Ingests per chunk whose median feeds `ingest_p50_ms`.
const INGEST_CHUNK: usize = 20;
pub(crate) const SUB_WINDOWS: usize = 30;
/// Length of one try of a ladder step; the ladder runs after the nominal
/// window, outside `--seconds`.
const STEP_LEN: Duration = Duration::from_millis(1000);
/// Tries per ladder step.
const STEP_TRIES: usize = 3;
/// Generator lateness (p99 over a sub-window) above which a sub-window's
/// latencies are flagged as partly the generator's.
const LAG_LIMIT: Duration = Duration::from_millis(1);

type Result<T> = std::result::Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The reads and writes of one run, pre-encoded.
pub(crate) struct Traffic {
    pub keys: Vec<Key>,
    /// Reads (`0..keys.len()`), then ingests.
    pub payloads: Vec<Vec<u8>>,
    /// Ingest bodies, payload `keys.len() + i`.
    pub ingests: Vec<(&'static str, String)>,
    pub capture: Vec<Capture>,
    /// Reads made after start-up, before any timing.
    pub warm: Vec<usize>,
}

/// What a sent schedule produced.
pub(crate) struct Window {
    pub ops: Vec<Op>,
    pub outcomes: Vec<Outcome>,
    pub gen_cpu: Duration,
    /// Sub-windows in which the generator fell behind.
    pub behind: usize,
}

impl Window {
    fn empty() -> Self {
        Window {
            ops: Vec::new(),
            outcomes: Vec::new(),
            gen_cpu: Duration::ZERO,
            behind: 0,
        }
    }

    pub fn reads(&self, n_keys: usize) -> impl Iterator<Item = (&Op, &Outcome)> + '_ {
        self.ops
            .iter()
            .zip(&self.outcomes)
            .filter(move |(op, _)| op.payload < n_keys)
    }

    /// Read latencies in ms; a failed read counts as infinitely late.
    fn read_latencies(&self, n_keys: usize) -> Vec<f64> {
        self.reads(n_keys)
            .map(|(_, o)| {
                if o.status == 200 {
                    ms(o.latency)
                } else {
                    f64::INFINITY
                }
            })
            .collect()
    }

    fn failures(&self) -> usize {
        self.outcomes.iter().filter(|o| o.status != 200).count()
    }
}

/// The nominal window with the server's `/metrics` around it.
pub(crate) struct Serving {
    pub before: Scrape,
    pub after: Scrape,
    pub window: Window,
}

/// Wall time of each stage of a run, on standard error.
struct Phases(Instant);

impl Phases {
    fn done(&mut self, what: &str) {
        eprintln!("perfbench: {what}: {:.2} s", self.0.elapsed().as_secs_f64());
        self.0 = Instant::now();
    }
}

/// A run's state between stages.
struct Run<'a> {
    w: &'a Workload,
    args: &'a Args,
    work: &'a Path,
    inputs: Vec<ModelInput>,
    first_request: ExplainRequest,
    first_model: &'static str,
    report: Report,
    fits: Vec<f64>,
    fit_cpus: Vec<f64>,
    loads: Vec<f64>,
    fit_budget: Duration,
    fit_spent: Duration,
    digests: BTreeMap<&'static str, String>,
}

pub(crate) fn run(w: &Workload, args: &Args, work: &Path) -> Result<Report> {
    if !args.serve_bin.is_file() {
        return Err(format!(
            "server binary {} not found",
            args.serve_bin.display()
        ));
    }
    std::fs::create_dir_all(work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let mut phase = Phases(Instant::now());
    let inputs: Vec<ModelInput> = w
        .models
        .iter()
        .map(|(id, kind)| inputs::model_input(id, *kind, w.queries))
        .collect();
    let keys = inputs::keys(inputs.iter().filter(|i| w.read_models.contains(&i.id)));
    let first_request =
        crate::replay::options(&keys[0].options)?.to_engine_request(keys[0].query.clone());
    let mut run = Run {
        w,
        args,
        work,
        inputs,
        first_request,
        first_model: keys[0].model,
        report: Report::default(),
        fits: Vec::new(),
        fit_cpus: Vec::new(),
        loads: Vec::new(),
        fit_budget: Duration::from_secs_f64(args.seconds as f64 * w.fit_share),
        fit_spent: Duration::ZERO,
        digests: BTreeMap::new(),
    };

    let (server, registry, setups, f1) = run.set_up(&keys)?;
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut traffic = run.traffic(&server, &registry, keys, &mut rng)?;
    phase.done("set-up");

    let serve_seconds = args.seconds as f64 * (1.0 - w.fit_share);
    let n_keys = traffic.keys.len();
    let mut writes = 0..traffic.ingests.len() - PROBE_INGESTS;
    let drain = Duration::from_secs_f64((P99_LIMIT_MS * 4.0 / 1e3).max(1.0));
    let mut schedule = |rate: f64, length: Duration| {
        inputs::schedule(&mut rng, rate, length, n_keys, w.write_share, &mut writes)
    };

    // 2. Nominal window, as consecutive sub-windows: latencies and the
    // server's CPU per request are taken per sub-window, so a stall of the
    // shared host moves some sub-windows, not the run.  Latency counts
    // from each request's due time; a sub-window whose generator ran late
    // is flagged.
    let sub_len = Duration::from_secs_f64(serve_seconds / SUB_WINDOWS as f64);
    let before = server.scrape()?;
    let server_cpu = || sys::pid_cpu(server.pid()).ok_or("reading the server's CPU clock");
    let (mut p50s, mut p99s, mut cpus) = (Vec::new(), Vec::new(), Vec::new());
    let mut nominal = Window::empty();
    for i in 0..SUB_WINDOWS {
        let cpu_before = server_cpu()?;
        let sub = send(&server, &traffic, schedule(w.nominal_rps, sub_len), drain)?;
        let cpu = server_cpu()? - cpu_before;
        let completed = sub.outcomes.iter().filter(|o| o.status == 200).count();
        if completed > 0 {
            cpus.push(cpu.as_secs_f64() * 1e6 / completed as f64);
        }
        let latencies = sub.read_latencies(n_keys);
        p50s.push(median(&latencies));
        p99s.push(quantile(&latencies, 0.99));
        let lags: Vec<f64> = sub.outcomes.iter().map(|o| ms(o.lag)).collect();
        nominal.behind += usize::from(quantile(&lags, 0.99) > ms(LAG_LIMIT));
        run.refit_until((i + 1) as f64 / SUB_WINDOWS as f64)?;
        nominal.ops.extend(sub.ops);
        nominal.outcomes.extend(sub.outcomes);
        nominal.gen_cpu += sub.gen_cpu;
    }
    let after = server.scrape()?;
    let reads = nominal.read_latencies(n_keys).len();
    eprintln!(
        "perfbench: nominal window: {n_keys} keys, {} ops, write share {:.4}",
        nominal.ops.len(),
        1.0 - reads as f64 / nominal.ops.len().max(1) as f64
    );
    if nominal.behind > 0 {
        eprintln!(
            "perfbench: FLAG: the generator fell behind (lag p99 > {LAG_LIMIT:?}) in {} of \
             {SUB_WINDOWS} sub-windows: their latencies are partly the generator's",
            nominal.behind
        );
    }
    let report = &mut run.report;
    report.attempted += nominal.ops.len() as u64;
    report.failed += nominal.failures() as u64;
    let p99 = median(&p99s);
    report.put("p50_ms", quiet(&p50s), "ms", reads);
    report.put("p99_ms", p99, "ms", reads);
    let within = p99s.iter().filter(|&&p| p <= P99_LIMIT_MS).count();
    report.put(
        "p99_slo_ratio",
        within as f64 / SUB_WINDOWS as f64,
        "ratio",
        SUB_WINDOWS,
    );
    eprintln!("perfbench: read p99 by sub-window (ms): {p99s:.1?}");
    eprintln!("perfbench: server CPU per request by sub-window (us): {cpus:.0?}");
    report.put("cpu_us_per_req", quiet(&cpus), "us", cpus.len());
    let mut ingest_ms = Vec::new();
    let mut acked: Vec<(usize, Outcome)> = Vec::new();
    note_ingests(&nominal, n_keys, &mut ingest_ms, &mut acked);
    let checked = check_reads(&nominal, &traffic, &registry, report)?;
    phase.done("nominal window and read checks");

    // 3. Ladder (traced runs only: `max_rate_rps` is per-layer), climbed
    // until a step fails: a step passes with no failure and p99 within the
    // limit; one that misses is tried up to `STEP_TRIES` times, so a stall
    // of the shared host does not end the climb.
    let mut max_rate = if nominal.failures() == 0 && p99 <= P99_LIMIT_MS {
        w.nominal_rps
    } else {
        0.0
    };
    let mut steps = 0usize;
    traffic.capture[..n_keys].fill(Capture::Never);
    let ladder = if args.trace { w.ladder() } else { Vec::new() };
    'ladder: for rate in ladder {
        if max_rate < w.nominal_rps {
            break;
        }
        for _ in 0..STEP_TRIES {
            let step = send(&server, &traffic, schedule(rate, STEP_LEN), drain)?;
            steps += 1;
            note_ingests(&step, n_keys, &mut Vec::new(), &mut acked);
            let step_p99 = quantile(&step.read_latencies(n_keys), 0.99);
            eprintln!(
                "perfbench: ladder {rate} rps: {} ops, {} failed, p99 {step_p99:.3} ms",
                step.ops.len(),
                step.failures()
            );
            if step.failures() == 0 && step_p99 <= P99_LIMIT_MS {
                max_rate = rate;
                continue 'ladder;
            }
        }
        break;
    }
    let report = &mut run.report;
    if args.trace {
        report.put("max_rate_rps", max_rate, "1/s", steps + 1);
        phase.done("ladder");
    }

    // 4. Ingest latency: the mix's own writes, or sequential probes.
    if w.write_share == 0.0 {
        let probes = probe_ingests(&server, &traffic)?;
        report.attempted += probes.len() as u64;
        report.failed += probes.iter().filter(|(_, o)| o.status != 200).count() as u64;
        for (i, outcome) in probes {
            ingest_ms.push(if outcome.status == 200 {
                ms(outcome.latency)
            } else {
                f64::INFINITY
            });
            if outcome.status == 200 {
                acked.push((i, outcome));
            }
        }
    }
    let chunk_medians: Vec<f64> = ingest_ms.chunks(INGEST_CHUNK).map(median).collect();
    report.put(
        "ingest_p50_ms",
        quiet(&chunk_medians),
        "ms",
        ingest_ms.len(),
    );
    report.put(
        "ingest_p99_ms",
        quantile(&ingest_ms, 0.99),
        "ms",
        ingest_ms.len(),
    );

    // 5. Checks after the run: rows, then answers against an in-process
    // replica of the acknowledged ingests, compacted.
    let after_checks = check_after_run(&server, &registry, &traffic, &acked, report)?;
    report.attempted += (checked + after_checks) as u64;
    phase.done("ingests and checks after the run");

    let serving = Serving {
        before,
        after,
        window: nominal,
    };
    if args.trace {
        let per_layer = layers::per_layer(
            w,
            work,
            &run.inputs,
            &traffic,
            &serving,
            &run.digests,
            &mut run.report,
        )?;
        run.report.metrics.extend(per_layer);
    }
    if !server.stop() {
        run.report
            .problem("server did not exit cleanly after shutdown".into());
    }
    let report = &mut run.report;
    report.put("setup_s", median(&setups), "s", setups.len());
    report.put("fit_s", quiet(&run.fits), "s", run.fits.len());
    report.put("fit_cpu_s", quiet(&run.fit_cpus), "s", run.fit_cpus.len());
    report.put(
        "load_to_answer_ms",
        quiet(&run.loads),
        "ms",
        run.loads.len(),
    );
    report.put("skeleton_f1", median(&f1), "ratio", f1.len());
    let ok = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
    report.put("ok_ratio", ok, "ratio", report.attempted as usize);
    phase.done("traced run and stop");
    Ok(run.report)
}

impl Run<'_> {
    /// Stage 1, set-up, `SETUPS` times; the last server stays up.  Returns
    /// it, the in-process registry over the same bundles, the set-up times
    /// and the skeleton F1 of each SYN-A fit.
    fn set_up(&mut self, keys: &[Key]) -> Result<(Server, ModelRegistry, Vec<f64>, Vec<f64>)> {
        // One untimed fit first warms the process (allocator, page cache)
        // so the first timed set-up is like the others.
        for input in &self.inputs {
            fit::fit_and_save(input, &self.work.join("warm"))?;
        }
        let bundles = self.bundles();
        let mut setups = Vec::new();
        let mut f1 = Vec::new();
        let mut live: Option<(Server, ModelRegistry)> = None;
        for _ in 0..SETUPS {
            if let Some((server, _)) = live.take() {
                if !server.stop() {
                    self.report
                        .problem("server did not exit cleanly after shutdown".into());
                }
            }
            let started = Instant::now();
            let (mut wall, mut cpu) = (Duration::ZERO, Duration::ZERO);
            for input in &self.inputs {
                let fitted = fit::fit_and_save(input, &bundles)?;
                (wall, cpu) = (wall + fitted.wall, cpu + fitted.cpu);
                if let Some(truth) = &input.truth {
                    f1.push(fit::skeleton_f1(fitted.engine.graph(), truth));
                }
                check_digest(&mut self.report, &mut self.digests, input.id, fitted.digest);
            }
            let (load, registry) =
                fit::load_to_answer(&bundles, self.first_model, &self.first_request)?;
            let server = Server::spawn(
                &self.args.serve_bin,
                &bundles,
                self.w.cache_mb,
                self.w.compact_after,
            )?;
            xinsight_service::wait_healthy(server.addr, Duration::from_secs(30)).map_err(err)?;
            let (status, _) = server.post("/v2/explain", &keys[0].body())?;
            if status != 200 {
                return Err(format!("first read answered {status}"));
            }
            setups.push(started.elapsed().as_secs_f64());
            self.fits.push(wall.as_secs_f64());
            self.fit_cpus.push(cpu.as_secs_f64());
            self.loads.push(ms(load));
            live = Some((server, registry));
        }
        let (server, registry) = live.expect("SETUPS > 0");
        Ok((server, registry, setups, f1))
    }

    fn bundles(&self) -> PathBuf {
        self.work.join("models")
    }

    /// Pre-encodes the run's reads and ingest batches, and warms the server
    /// outside `setup_s`: every key once (result cache), or every query
    /// once (selection cache) when the result cache is off.
    fn traffic(
        &self,
        server: &Server,
        registry: &ModelRegistry,
        keys: Vec<Key>,
        rng: &mut StdRng,
    ) -> Result<Traffic> {
        let w = self.w;
        let warm: Vec<usize> = (0..keys.len())
            .filter(|&i| {
                w.cache_mb > 0
                    || i == 0
                    || keys[i - 1].query != keys[i].query
                    || keys[i - 1].model != keys[i].model
            })
            .collect();
        for &i in &warm {
            let (status, _) = server.post("/v2/explain", &keys[i].body())?;
            if status != 200 {
                return Err(format!("warm-up read answered {status}"));
            }
        }
        let templates: Vec<(&'static str, Vec<String>)> = w
            .read_models
            .iter()
            .map(|&id| {
                let rows = registry
                    .get(id)
                    .map(|m| m.example_rows.clone())
                    .unwrap_or_default();
                (id, rows)
            })
            .collect();
        // Enough for the whole ladder, with room for Poisson bursts.
        let offered = w.nominal_rps * self.args.seconds as f64 * (1.0 - w.fit_share)
            + w.ladder().iter().sum::<f64>() * (STEP_TRIES as f64 * STEP_LEN.as_secs_f64());
        let n_ingests = (w.write_share * offered * 1.5) as usize + PROBE_INGESTS;
        let ingests = inputs::ingest_payloads(rng, &templates, n_ingests, ROWS_PER_INGEST);
        let mut payloads = inputs::encode_reads(&keys);
        payloads.extend(
            ingests
                .iter()
                .map(|(_, body)| loadgen::post("/v2/ingest", body)),
        );
        // A window with writes answers reads on a changing store, so only
        // read-only windows are checked against the set-up snapshot.
        let read_capture = if w.write_share == 0.0 {
            Capture::First
        } else {
            Capture::Never
        };
        let mut capture = vec![read_capture; keys.len()];
        capture.extend(std::iter::repeat_n(Capture::Always, ingests.len()));
        Ok(Traffic {
            keys,
            payloads,
            ingests,
            capture,
            warm,
        })
    }

    /// Fits and loads until `share` of the run's fit budget is spent, so
    /// they interleave with the nominal window and sample the whole run
    /// (the `fit` workload; the others fit only in set-up).
    fn refit_until(&mut self, share: f64) -> Result<()> {
        let dir = self.work.join("refit");
        while self.fit_spent < self.fit_budget.mul_f64(share) {
            let started = Instant::now();
            let (mut wall, mut cpu) = (Duration::ZERO, Duration::ZERO);
            for input in &self.inputs {
                let fitted = fit::fit_and_save(input, &dir)?;
                (wall, cpu) = (wall + fitted.wall, cpu + fitted.cpu);
                check_digest(&mut self.report, &mut self.digests, input.id, fitted.digest);
            }
            let (load, _) = fit::load_to_answer(&dir, self.first_model, &self.first_request)?;
            self.fits.push(wall.as_secs_f64());
            self.fit_cpus.push(cpu.as_secs_f64());
            self.loads.push(ms(load));
            self.fit_spent += started.elapsed();
        }
        Ok(())
    }
}

fn send(server: &Server, traffic: &Traffic, ops: Vec<Op>, drain: Duration) -> Result<Window> {
    let result = loadgen::run(
        server.addr,
        &traffic.payloads,
        &traffic.capture,
        &ops,
        drain,
    )
    .map_err(|e| format!("load generator: {e}"))?;
    Ok(Window {
        ops,
        outcomes: result.outcomes,
        gen_cpu: result.cpu,
        behind: 0,
    })
}

/// Collects a window's ingest latencies and acknowledged ingests.
fn note_ingests(
    window: &Window,
    n_keys: usize,
    latencies: &mut Vec<f64>,
    acked: &mut Vec<(usize, Outcome)>,
) {
    for (op, outcome) in window.ops.iter().zip(&window.outcomes) {
        if op.payload < n_keys {
            continue;
        }
        if outcome.status == 200 {
            latencies.push(ms(outcome.latency));
            acked.push((op.payload - n_keys, outcome.clone()));
        } else {
            latencies.push(f64::INFINITY);
        }
    }
}

/// The probe ingests, sent one at a time on one connection.
fn probe_ingests(server: &Server, traffic: &Traffic) -> Result<Vec<(usize, Outcome)>> {
    let mut client = HttpClient::connect(server.addr).map_err(err)?;
    let first = traffic.ingests.len() - PROBE_INGESTS;
    Ok((first..traffic.ingests.len())
        .map(|i| {
            let started = Instant::now();
            let response = client.post("/v2/ingest", &traffic.ingests[i].1);
            let latency = started.elapsed();
            let (status, body) = match response {
                Ok(r) => (r.status, Some(r.body)),
                Err(_) => (0, None),
            };
            let outcome = Outcome {
                status,
                latency,
                lag: Duration::ZERO,
                body,
            };
            (i, outcome)
        })
        .collect())
}

/// The `result` member of a `/v2/explain` envelope (its last member).
fn result_of(body: &str) -> Option<&str> {
    let start = body.find("\"result\":")? + "\"result\":".len();
    body.get(start..body.len().checked_sub(1)?)
}

/// The `result` object a direct `execute` gives for `key`.  The selection
/// cache only replays building blocks; it never changes an answer.
fn engine_result(engine: &XInsight, key: &Key, cache: Arc<SelectionCache>) -> Result<String> {
    let request = crate::replay::options(&key.options)?.to_engine_request(key.query.clone());
    let response = engine.execute_with_cache(&request, cache).map_err(err)?;
    Ok(wire::v2_result_to_string(&response))
}

/// Every distinct key the window served (first answer kept), against a
/// direct `execute` on the same bundles.  Returns the number checked.
fn check_reads(
    window: &Window,
    traffic: &Traffic,
    registry: &ModelRegistry,
    report: &mut Report,
) -> Result<usize> {
    let mut checked = 0usize;
    for (op, outcome) in window.reads(traffic.keys.len()) {
        let Some(body) = outcome.body.as_deref() else {
            continue;
        };
        let key = &traffic.keys[op.payload];
        let model = registry.get(key.model).ok_or("model missing")?;
        let expected = engine_result(&model.engine, key, Arc::clone(&model.selection))?;
        checked += 1;
        if result_of(body) != Some(expected.as_str()) {
            report.failed += 1;
            report.problem(format!(
                "served answer differs from execute for {}",
                key.body()
            ));
        }
    }
    Ok(checked)
}

/// Every fit of a model after its first is checked against the first.
fn check_digest(
    report: &mut Report,
    digests: &mut BTreeMap<&'static str, String>,
    id: &'static str,
    digest: String,
) {
    match digests.get(id) {
        Some(previous) => {
            report.attempted += 1;
            if *previous != digest {
                report.failed += 1;
                report.problem(format!("fit of {id} is not deterministic"));
            }
        }
        None => {
            digests.insert(id, digest);
        }
    }
}

/// Row counts and post-run answers.  Returns the number of checks made.
fn check_after_run(
    server: &Server,
    registry: &ModelRegistry,
    traffic: &Traffic,
    acked: &[(usize, Outcome)],
    report: &mut Report,
) -> Result<usize> {
    // Acknowledged ingests per model, in the order the server applied
    // them (its generation counter): (generation, batch, rows sealed).
    let mut applied: BTreeMap<&str, Vec<(u64, usize, u64)>> = BTreeMap::new();
    for (i, outcome) in acked {
        let body = outcome.body.as_deref().ok_or("ingest answer not kept")?;
        let doc = Json::parse(body).map_err(err)?;
        let num = |name: &str| doc.get(name).and_then(Json::as_f64).unwrap_or(-1.0) as u64;
        applied.entry(traffic.ingests[*i].0).or_default().push((
            num("generation"),
            *i,
            num("ingested"),
        ));
    }
    let stats = Json::parse(&server.get("/stats")?).map_err(err)?;
    let mut models: Vec<&str> = traffic.keys.iter().map(|k| k.model).collect();
    models.dedup();
    let mut checks = 0usize;
    for model in models {
        let base = registry.get(model).ok_or("model missing")?;
        let mut batches = applied.remove(model).unwrap_or_default();
        batches.sort_unstable();
        let expected_rows = base.n_rows as u64 + batches.iter().map(|b| b.2).sum::<u64>();
        let served_rows = stats
            .get("models")
            .and_then(Json::as_arr)
            .ok()
            .and_then(|ms| {
                ms.iter()
                    .find(|m| m.get("id").and_then(Json::as_str).ok() == Some(model))
            })
            .and_then(|m| m.get("rows").and_then(Json::as_f64).ok())
            .unwrap_or(-1.0) as u64;
        checks += 1;
        if served_rows != expected_rows {
            report.failed += 1;
            report.problem(format!(
                "{model}: serves {served_rows} rows, expected {expected_rows}"
            ));
        }
        let mut replica: Option<XInsight> = None;
        for &(_, i, _) in &batches {
            let request = wire::IngestV2::parse(traffic.ingests[i].1.as_bytes()).map_err(err)?;
            let current = replica.as_ref().unwrap_or(&base.engine);
            let batch = wire::rows_to_dataset(current.raw_schema(), &request.rows).map_err(err)?;
            replica = Some(current.with_ingested(&batch).map_err(err)?);
        }
        let replica = replica
            .as_ref()
            .unwrap_or(&base.engine)
            .with_compacted()
            .map_err(err)?;
        // Up to 48 keys per model, spread over its pool.
        let keys: Vec<&Key> = traffic.keys.iter().filter(|k| k.model == model).collect();
        let cache = Arc::new(SelectionCache::new());
        let mut client = HttpClient::connect(server.addr).map_err(err)?;
        for key in keys.iter().step_by((keys.len() / 48).max(1)) {
            let response = client.post("/v2/explain", &key.body()).map_err(err)?;
            let expected = engine_result(&replica, key, Arc::clone(&cache))?;
            checks += 1;
            if response.status != 200 || result_of(&response.body) != Some(expected.as_str()) {
                report.failed += 1;
                report.problem(format!(
                    "{model}: answer after the run differs for {}",
                    key.body()
                ));
            }
        }
    }
    Ok(checks)
}
