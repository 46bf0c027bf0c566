//! The two batch workloads: `fig8-small` (the three real-world presets at
//! small scale, one staged alignment per pair, one thread) and `large-20k`
//! (one 20 000-node power-law pair under the Large tier, all cores).
//!
//! Each pair runs through the staged `AlignmentSession::begin` driver, and
//! the benchmark times every stage call itself, so the stage split needs no
//! instrumentation inside the program.

use crate::probe::{self, ProbeInputs};
use crate::stats::{fnv1a_words, median, mix_seed, percentile, sorted, Metrics};
use crate::trace::{self, Tracer, ROOT};
use crate::{Args, Outcome};
use htc_core::lisi::SweepStats;
use htc_core::pipeline::stages;
use htc_core::{AlignmentSession, HtcConfig, HtcError, HtcResult, ProgressObserver};
use htc_datasets::{generate_pair, DatasetPair, DatasetPreset, Scale, SyntheticPairConfig};
use htc_linalg::DenseMatrix;
use htc_metrics::alignment::precision_at_q;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Node count of the `large-20k` pair.
const LARGE_NODES: usize = 20_000;
/// Times the set-up is repeated to report a median `setup_s`.
const SETUP_REPEATS: usize = 31;
/// Stage names in pipeline order, as reported in metric names.
const STAGES: [&str; 5] = [
    "orbit_counting",
    "laplacian",
    "training",
    "finetune",
    "integration",
];

pub struct PairSpec {
    /// Metric prefix of this pair (`allmovie`, `douban`, `flickr`, `large`).
    label: &'static str,
    pair: DatasetPair,
    config: HtcConfig,
}

fn fig8_pairs(seed: u64) -> Vec<PairSpec> {
    let presets = [
        ("allmovie", DatasetPreset::AllmovieImdb),
        ("douban", DatasetPreset::Douban),
        ("flickr", DatasetPreset::FlickrMyspace),
    ];
    presets
        .iter()
        .enumerate()
        .map(|(i, &(label, preset))| PairSpec {
            label,
            pair: generate_pair(
                &preset
                    .config(Scale::Small)
                    .with_seed(mix_seed(seed, i as u64)),
            ),
            config: HtcConfig::small(),
        })
        .collect()
}

fn large_pairs(seed: u64) -> Vec<PairSpec> {
    vec![PairSpec {
        label: "large",
        pair: generate_pair(&SyntheticPairConfig::large_pair(
            LARGE_NODES,
            mix_seed(seed, 0),
        )),
        config: HtcConfig::large(),
    }]
}

/// Collects the observer callbacks of one pass: epoch and fine-tuning
/// iteration times and counts, and — in a traced pass — their spans, as
/// children of the stage span that is running.
struct StageObserver {
    tracer: Option<Arc<Tracer>>,
    /// Span ID and start of the stage call currently running.
    stage: Mutex<(u64, Instant)>,
    last_epoch: Mutex<Option<Instant>>,
    epoch_ms: Mutex<Vec<f64>>,
    /// Last iteration callback per orbit, to time the next iteration.
    last_iteration: Mutex<BTreeMap<usize, Instant>>,
    iteration_ms: Mutex<Vec<f64>>,
    iterations: AtomicUsize,
    sweep_blocks: AtomicUsize,
}

impl StageObserver {
    fn new(tracer: Option<Arc<Tracer>>) -> Self {
        Self {
            tracer,
            stage: Mutex::new((ROOT, Instant::now())),
            last_epoch: Mutex::new(None),
            epoch_ms: Mutex::new(Vec::new()),
            last_iteration: Mutex::new(BTreeMap::new()),
            iteration_ms: Mutex::new(Vec::new()),
            iterations: AtomicUsize::new(0),
            sweep_blocks: AtomicUsize::new(0),
        }
    }

    fn enter_stage(&self, id: u64, start: Instant) {
        *self.stage.lock().expect("observer lock") = (id, start);
        *self.last_epoch.lock().expect("observer lock") = None;
        self.last_iteration.lock().expect("observer lock").clear();
    }
}

impl ProgressObserver for StageObserver {
    fn on_epoch(&self, _epoch: usize, _total: usize, _loss: f64) -> bool {
        let now = Instant::now();
        let (parent, stage_start) = *self.stage.lock().expect("observer lock");
        let mut last = self.last_epoch.lock().expect("observer lock");
        let start = last.unwrap_or(stage_start);
        *last = Some(now);
        if let Some(tracer) = &self.tracer {
            tracer.record(tracer.id(), parent, ROOT, "epoch", start, now);
        }
        self.epoch_ms
            .lock()
            .expect("observer lock")
            .push(now.duration_since(start).as_secs_f64() * 1e3);
        true
    }

    fn on_finetune_iteration(&self, orbit: usize, _iteration: usize, _trusted: usize) -> bool {
        let now = Instant::now();
        self.iterations.fetch_add(1, Ordering::Relaxed);
        let previous = self
            .last_iteration
            .lock()
            .expect("observer lock")
            .insert(orbit, now);
        // An orbit's first iteration has no earlier callback to time it
        // from (orbits start on pool workers at unobserved instants).
        if let Some(start) = previous {
            if let Some(tracer) = &self.tracer {
                let parent = self.stage.lock().expect("observer lock").0;
                tracer.record(tracer.id(), parent, ROOT, "finetune_iteration", start, now);
            }
            self.iteration_ms
                .lock()
                .expect("observer lock")
                .push(now.duration_since(start).as_secs_f64() * 1e3);
        }
        true
    }

    fn on_sweep_block(&self, _done: usize, _total: usize) -> bool {
        self.sweep_blocks.fetch_add(1, Ordering::Relaxed);
        true
    }
}

/// What one staged pair alignment measured.
pub struct PairRun {
    label: &'static str,
    wall: f64,
    /// Seconds per entry of [`STAGES`].
    stages: [f64; 5],
    /// Wall time outside the five stage calls (the pair span's self time).
    other: f64,
    hash: u64,
    p1: f64,
    p10: f64,
    final_loss: f64,
    trusted_pairs: usize,
    /// Orbits × min(n_s, n_t): the most trusted pairs the refinement could find.
    trusted_capacity: usize,
    sweep: SweepStats,
    rss_finetune_mb: f64,
    epochs: usize,
}

/// Artifacts of one traced pair alignment, kept as kernel-probe inputs.
struct Captured {
    /// Prepared target attributes, the target's first propagator, and the
    /// trained encoder.
    training: (DenseMatrix, htc_linalg::CsrMatrix, htc_nn::GcnEncoder),
    /// First orbit's refined source and target embeddings.
    lisi: (DenseMatrix, DenseMatrix),
}

/// Runs `f` as a stage (a span under `parent` when tracing); returns its
/// output and seconds.
fn timed<T>(observer: &StageObserver, parent: u64, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let id = observer.tracer.as_ref().map_or(ROOT, |t| t.id());
    let start = Instant::now();
    observer.enter_stage(id, start);
    let out = f();
    let end = Instant::now();
    if let Some(tracer) = &observer.tracer {
        tracer.record(id, parent, ROOT, name, start, end);
    }
    (out, end.duration_since(start).as_secs_f64())
}

fn run_pair(
    spec: &PairSpec,
    observer: &Arc<StageObserver>,
) -> Result<(PairRun, Option<Captured>), HtcError> {
    let tracer = observer.tracer.as_ref();
    let pair_id = tracer.map_or(ROOT, |t| t.id());
    let wall_start = Instant::now();
    let mut session = AlignmentSession::new(spec.config.clone(), &spec.pair.source)?;
    session.set_observer(Some(observer.clone() as Arc<dyn ProgressObserver>));
    let capture = tracer.is_some();
    let mut pair = session.begin(&spec.pair.target)?;
    let mut stage_secs = [0.0; 5];
    let name = |i: usize| format!("stage.{}", STAGES[i]);

    let (views, secs) = timed(observer, pair_id, &name(0), || {
        pair.topology_views().map(|(s, _)| s.num_views())
    });
    stage_secs[0] = secs;
    let num_views = views?;
    let (laplacian, secs) = timed(observer, pair_id, &name(1), || {
        pair.propagators()
            .map(|(_, target)| capture.then(|| target.laplacians()[0].clone()))
    });
    stage_secs[1] = secs;
    let laplacian = laplacian?;
    let (encoder, secs) = timed(observer, pair_id, &name(2), || {
        pair.train()
            .map(|trained| capture.then(|| trained.encoder().clone()))
    });
    stage_secs[2] = secs;
    let encoder = encoder?;
    let features = capture.then(|| pair.target().attributes().clone());
    let (refined, secs) = timed(observer, pair_id, &name(3), || {
        pair.refine().map(|r| {
            let mut sweep = SweepStats::default();
            for refinement in r.refinements() {
                sweep.accumulate(&refinement.sweep_stats);
            }
            let first = &r.refinements()[0];
            let lisi = capture.then(|| {
                (
                    first.source_embedding.clone(),
                    first.target_embedding.clone(),
                )
            });
            (r.trusted_counts().iter().sum::<usize>(), sweep, lisi)
        })
    });
    stage_secs[3] = secs;
    let (trusted_pairs, sweep, lisi) = refined?;
    let (result, secs) = timed(observer, pair_id, &name(4), || pair.finish());
    stage_secs[4] = secs;
    let result = result?;
    let wall_end = Instant::now();
    drop(session);

    let wall = wall_end.duration_since(wall_start).as_secs_f64();
    if let Some(tracer) = tracer {
        tracer.record(
            pair_id,
            ROOT,
            ROOT,
            &format!("pair.{}", spec.label),
            wall_start,
            wall_end,
        );
    }
    let (p1, p10) = precision(&result, spec);
    let nodes = spec
        .pair
        .source
        .num_nodes()
        .min(spec.pair.target.num_nodes());
    let captured = match (features, laplacian, encoder, lisi) {
        (Some(f), Some(l), Some(e), Some(lisi)) => Some(Captured {
            training: (f, l, e),
            lisi,
        }),
        _ => None,
    };
    let run = PairRun {
        label: spec.label,
        wall,
        stages: stage_secs,
        other: (wall - stage_secs.iter().sum::<f64>()).max(0.0),
        hash: fnv1a_words(result.predicted_anchors().iter().map(|&t| t as u64)),
        p1,
        p10,
        final_loss: result.loss_history().last().copied().unwrap_or(f64::NAN),
        trusted_pairs,
        trusted_capacity: num_views * nodes,
        sweep,
        rss_finetune_mb: result.timer().peak_rss_bytes(stages::FINE_TUNING) as f64
            / (1024.0 * 1024.0),
        epochs: result.loss_history().len(),
    };
    Ok((run, captured))
}

/// P@1 and P@10 against the pair's ground truth.  The Large tier keeps only
/// top-k rows, so there P@10 is "the true target is among the retained
/// candidates" (`TopKRows::contains`).
fn precision(result: &HtcResult, spec: &PairSpec) -> (f64, f64) {
    let truth = &spec.pair.ground_truth;
    match result.top_k() {
        None => (
            precision_at_q(result.alignment(), truth, 1),
            precision_at_q(result.alignment(), truth, 10),
        ),
        Some(top_k) => {
            let anchors: Vec<(usize, usize)> = truth.anchors().collect();
            let share = |hit: &dyn Fn(usize, usize) -> bool| {
                anchors.iter().filter(|&&(s, t)| hit(s, t)).count() as f64
                    / anchors.len().max(1) as f64
            };
            (
                share(&|s, t| top_k.best(s) == Some(t)),
                share(&|s, t| top_k.contains(s, t)),
            )
        }
    }
}

/// End-to-end metrics of one pass over every pair.  A batch workload
/// serves no requests: its cold operation is a whole pair alignment, its
/// repeated warm step a training epoch.
fn pass_metrics(runs: &[PairRun], observer: &StageObserver) -> Metrics {
    let mut m = Metrics::default();
    let walls: Vec<f64> = runs.iter().map(|r| r.wall).collect();
    let cold = sorted(walls.iter().map(|w| w * 1e3).collect());
    let warm = sorted(observer.epoch_ms.lock().expect("observer lock").clone());
    m.set("wall_s", walls.iter().sum(), "s");
    m.set(
        "p_at_1",
        crate::stats::mean(&runs.iter().map(|r| r.p1).collect::<Vec<_>>()),
        "ratio",
    );
    m.set(
        "p_at_10",
        crate::stats::mean(&runs.iter().map(|r| r.p10).collect::<Vec<_>>()),
        "ratio",
    );
    m.set("cold_p50_ms", percentile(&cold, 0.5), "ms");
    m.set("tail.cold_p90_ms", percentile(&cold, 0.9), "ms");
    m.set("warm_p50_ms", percentile(&warm, 0.5), "ms");
    m.set("tail.warm_p95_ms", percentile(&warm, 0.95), "ms");
    // No request crosses the router in a batch workload: the routed
    // figures equal the direct ones (a zero-length hop).
    m.set("routed_warm_p50_ms", percentile(&warm, 0.5), "ms");
    m.set("tail.routed_warm_p95_ms", percentile(&warm, 0.95), "ms");
    m
}

/// Per-layer metrics of the traced pass.
fn layer_metrics(runs: &[PairRun], observer: &StageObserver) -> Metrics {
    let mut m = Metrics::default();
    for (i, stage) in STAGES.iter().enumerate() {
        m.set(
            format!("stage.{stage}_s"),
            runs.iter().map(|r| r.stages[i]).sum(),
            "s",
        );
    }
    m.set("stage.other_s", runs.iter().map(|r| r.other).sum(), "s");
    for label in ["allmovie", "douban", "flickr"] {
        let run = runs.iter().find(|r| r.label == label);
        for (i, stage) in STAGES.iter().enumerate() {
            m.set(
                format!("{label}.stage.{stage}_s"),
                run.map_or(0.0, |r| r.stages[i]),
                "s",
            );
        }
        m.set(
            format!("{label}.stage.other_s"),
            run.map_or(0.0, |r| r.other),
            "s",
        );
    }
    let epoch_ms = sorted(observer.epoch_ms.lock().expect("observer lock").clone());
    let iteration_ms = sorted(observer.iteration_ms.lock().expect("observer lock").clone());
    m.set(
        "train.epochs",
        runs.iter().map(|r| r.epochs).sum::<usize>() as f64,
        "count",
    );
    m.set("train.epoch_ms_p50", percentile(&epoch_ms, 0.5), "ms");
    m.set("train.epoch_ms_max", percentile(&epoch_ms, 1.0), "ms");
    m.set(
        "train.final_loss",
        crate::stats::mean(&runs.iter().map(|r| r.final_loss).collect::<Vec<_>>()),
        "loss",
    );
    let mut sweep = SweepStats::default();
    for run in runs {
        sweep.accumulate(&run.sweep);
    }
    let trusted: usize = runs.iter().map(|r| r.trusted_pairs).sum();
    let capacity: usize = runs.iter().map(|r| r.trusted_capacity).sum();
    m.set(
        "finetune.iterations",
        observer.iterations.load(Ordering::Relaxed) as f64,
        "count",
    );
    m.set(
        "finetune.iteration_ms_p50",
        if iteration_ms.is_empty() {
            0.0
        } else {
            percentile(&iteration_ms, 0.5)
        },
        "ms",
    );
    m.set("finetune.trusted_pairs", trusted as f64, "count");
    m.set(
        "finetune.trusted_ratio",
        trusted as f64 / capacity.max(1) as f64,
        "ratio",
    );
    m.set(
        "finetune.sweep_blocks",
        observer.sweep_blocks.load(Ordering::Relaxed) as f64,
        "count",
    );
    m.set(
        "finetune.cached_block_ratio",
        sweep.cached_blocks as f64 / sweep.blocks.max(1) as f64,
        "ratio",
    );
    m.set("finetune.gemm_cpu_s", sweep.gemm_seconds, "s");
    m.set("finetune.select_cpu_s", sweep.select_seconds, "s");
    m.set(
        "rss.finetune_mb",
        runs.iter().map(|r| r.rss_finetune_mb).fold(0.0, f64::max),
        "MiB",
    );
    m
}

/// One pass over every pair, with the observer that watched it.
type Pass = (Vec<PairRun>, Arc<StageObserver>);

/// Runs passes over `pairs` within `budget`: at least one, and another only
/// while one more pass as long as the last still fits.
fn untraced_passes(pairs: &[PairSpec], budget: Duration) -> Result<Vec<Pass>, HtcError> {
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut last = Duration::ZERO;
    while passes.is_empty() || start.elapsed() + last <= budget {
        let pass_start = Instant::now();
        let observer = Arc::new(StageObserver::new(None));
        let runs = pairs
            .iter()
            .map(|spec| run_pair(spec, &observer).map(|(run, _)| run))
            .collect::<Result<Vec<_>, _>>()?;
        passes.push((runs, observer));
        last = pass_start.elapsed();
    }
    Ok(passes)
}

fn pass_hash(runs: &[PairRun]) -> u64 {
    fnv1a_words(runs.iter().map(|r| r.hash))
}

pub fn run(args: &Args) -> Outcome {
    let fig8 = args.workload == "fig8-small";
    let make = if fig8 { fig8_pairs } else { large_pairs };
    let mut setup_secs = Vec::new();
    let mut pairs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        pairs = make(args.seed);
        setup_secs.push(start.elapsed().as_secs_f64());
    }
    let mut outcome = Outcome::default();
    outcome.e2e.set("setup_s", median(&setup_secs), "s");

    let passes = match untraced_passes(&pairs, Duration::from_secs_f64(args.seconds)) {
        Ok(passes) => passes,
        Err(e) => {
            outcome.fail(format!("alignment failed: {e}"));
            outcome.attempted = pairs.len();
            outcome.failed = pairs.len();
            return outcome;
        }
    };
    outcome.attempted = passes.len() * pairs.len();
    // Peak RSS of the measured passes, before any traced pass or probe.
    let peak_rss_mb = htc_metrics::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0);
    let per_pass: Vec<Metrics> = passes
        .iter()
        .map(|(runs, observer)| pass_metrics(runs, observer))
        .collect();
    for name in per_pass[0].names() {
        let (_, unit) = per_pass[0].get_with_unit(name).expect("listed name");
        let values: Vec<f64> = per_pass
            .iter()
            .map(|m| m.get(name).expect("every pass sets it"))
            .collect();
        outcome.e2e.set(name, median(&values), unit);
    }
    outcome.e2e.set("peak_rss_mb", peak_rss_mb, "MiB");
    outcome.e2e.set("ok_ratio", 1.0, "ratio");
    outcome.extra = outcome.e2e.take_prefix("tail.");

    let mut hashes: Vec<u64> = passes.iter().map(|(runs, _)| pass_hash(runs)).collect();
    for (pass, _) in &passes {
        for run in pass {
            eprintln!(
                "[perfbench] {}: wall {:.3}s, stages {:?}, P@1 {:.4}, P@10 {:.4}, anchors {:016x}",
                run.label, run.wall, run.stages, run.p1, run.p10, run.hash
            );
        }
    }

    if args.trace {
        let tracer = Arc::new(Tracer::new());
        let observer = Arc::new(StageObserver::new(Some(tracer.clone())));
        let traced: Result<Vec<(PairRun, Option<Captured>)>, HtcError> =
            pairs.iter().map(|spec| run_pair(spec, &observer)).collect();
        match traced {
            Ok(traced) => {
                let (runs, captured): (Vec<PairRun>, Vec<Option<Captured>>) =
                    traced.into_iter().unzip();
                hashes.push(pass_hash(&runs));
                let mut layers = layer_metrics(&runs, &observer);
                layers.extend(pass_metrics(&runs, &observer).take_prefix("tail."));
                let traced_wall: f64 = runs.iter().map(|r| r.wall).sum();
                let untraced_wall = outcome.e2e.get("wall_s").expect("set above");
                layers.set(
                    "trace.overhead_ratio",
                    traced_wall / untraced_wall - 1.0,
                    "ratio",
                );
                check_stage_sum(&tracer, traced_wall, &mut outcome);
                let captured = captured
                    .into_iter()
                    .map(|c| c.expect("traced runs capture probe inputs"))
                    .collect();
                let inputs = probe_inputs(&pairs, captured, fig8);
                layers.extend(probe::run(&inputs));
                outcome.layers = layers;
                outcome.tracer = Some(tracer);
            }
            Err(e) => outcome.fail(format!("traced alignment failed: {e}")),
        }
    }

    if args.inject.as_deref() == Some("anchor-hash") {
        let last = hashes.len() - 1;
        hashes[last] ^= 1;
    }
    if hashes.iter().any(|&h| h != hashes[0]) {
        outcome.fail(format!(
            "anchor hashes disagree between runs of one invocation: {hashes:016x?}"
        ));
    }
    outcome.anchor_hash = Some(hashes[0]);
    let mut p1 = outcome.e2e.get("p_at_1").expect("set above");
    if args.inject.as_deref() == Some("p1-floor") {
        p1 = 0.0;
    }
    if p1 < args.p1_floor {
        outcome.fail(format!(
            "P@1 {p1:.4} fell below the floor {}",
            args.p1_floor
        ));
    }
    outcome
}

/// The stage spans plus `stage.other_s` must add up to the traced wall: a
/// consistency check on the span bookkeeping itself.
fn check_stage_sum(tracer: &Tracer, traced_wall: f64, outcome: &mut Outcome) {
    let spans = tracer.spans();
    let self_secs = trace::self_times(&spans);
    let mut staged = 0.0;
    let mut other = 0.0;
    for span in &spans {
        if span.name.starts_with("stage.") {
            staged += span.seconds();
        } else if span.name.starts_with("pair.") {
            other += self_secs[&span.id];
        }
    }
    if ((staged + other) - traced_wall).abs() > 1e-6 * traced_wall.max(1.0) {
        outcome.fail(format!(
            "stage spans ({staged:.6}s) + other ({other:.6}s) != traced wall {traced_wall:.6}s"
        ));
    }
}

/// Probe inputs from a traced pass: on `fig8-small` training kernels at
/// Douban's shapes, orbit counting on Allmovie's source graph and LISI on
/// Flickr's refined embeddings; on `large-20k` everything at the mini-batch
/// shapes of the one pair.
fn probe_inputs(pairs: &[PairSpec], mut captured: Vec<Captured>, fig8: bool) -> ProbeInputs {
    let config = &pairs[0].config;
    if fig8 {
        let flickr = captured.pop().expect("three pairs");
        let douban = captured.pop().expect("three pairs");
        let (features, laplacian, encoder) = douban.training;
        let (lisi_source, lisi_target) = flickr.lisi;
        ProbeInputs {
            features,
            laplacian,
            encoder,
            graph: pairs[0].pair.source.graph().clone(),
            lisi_source,
            lisi_target,
            nearest: config.nearest_neighbors,
            top_k: config.top_k,
        }
    } else {
        let large = captured.pop().expect("one pair");
        let (features, laplacian, encoder) = large.training;
        let (lisi_source, lisi_target) = large.lisi;
        let batch: Vec<usize> = (0..config.batch_size.min(features.rows())).collect();
        let orbit_nodes: Vec<usize> = (0..probe::LARGE_ORBIT_NODES).collect();
        let (graph, _) = pairs[0]
            .pair
            .target
            .graph()
            .induced_subgraph(&orbit_nodes)
            .expect("node range is in bounds");
        ProbeInputs {
            features: features.select_rows(&batch),
            laplacian: laplacian.sub_matrix(&batch).expect("batch is sorted"),
            encoder,
            graph,
            lisi_source: lisi_source.select_rows(&batch),
            lisi_target: lisi_target.select_rows(&batch),
            nearest: config.nearest_neighbors,
            top_k: config.top_k,
        }
    }
}
