//! Trusted-pair based fine-tuning (Algorithm 2, Eq. 13–14).
//!
//! After training, each orbit's embeddings are refined independently:
//!
//! 1. compute the LISI alignment matrix for the current embeddings;
//! 2. identify trusted pairs (mutual LISI arg-maxes) and count them;
//! 3. multiply the reinforcement factor of both ends of every trusted pair by
//!    `β` (Eq. 13);
//! 4. re-encode both graphs with the reinforced propagator `R L̃ R` (Eq. 14);
//! 5. repeat until the trusted-pair count stops growing.
//!
//! Proposition 2 of the paper shows that boosting the aggregation
//! coefficients of trusted anchors pulls the embeddings of their undiscovered
//! neighbouring anchors closer together, which is why the count tends to grow
//! for a few rounds before saturating.

use crate::config::HtcConfig;
use crate::error::HtcError;
use crate::lisi::{
    default_block_rows, lisi_sweep, BlockedLisiScratch, RowSink, SweepControl, SweepStats,
};
use crate::session::ProgressObserver;
use crate::topk::TopKRows;
use crate::Result;
use htc_linalg::{CsrMatrix, DenseMatrix};
use htc_nn::{ForwardCache, GcnEncoder};
use std::sync::Arc;

/// The refined state of a single orbit after fine-tuning.
#[derive(Debug, Clone)]
pub struct OrbitRefinement {
    /// Refined source embeddings for this orbit.
    pub source_embedding: DenseMatrix,
    /// Refined target embeddings for this orbit.
    pub target_embedding: DenseMatrix,
    /// The maximal number of trusted pairs observed (the `Tm_k` of Alg. 2);
    /// this is the weight ingredient of the posterior importance assignment.
    pub trusted_count: usize,
    /// Number of refinement iterations actually executed.
    pub iterations: usize,
    /// `Large` tier only: the top-k LISI candidates of the best iteration,
    /// kept so weighted integration can consume them directly instead of
    /// re-running a blocked similarity sweep per orbit.  `None` in the dense
    /// tier (integration sweeps the refined embeddings once more there).
    pub topk: Option<TopKRows>,
    /// Accumulated GEMM-vs-selection breakdown over every blocked sweep this
    /// refinement ran.
    pub sweep_stats: SweepStats,
}

/// Runs Algorithm 2 for one orbit with no observer (orbit index 0).
///
/// `lap_source` / `lap_target` are the orbit's normalised Laplacians;
/// the encoder is the (already trained) shared encoder.  When
/// `config.fine_tune` is `false` the function still computes the initial LISI
/// matrix and trusted-pair count (needed for the posterior importance weights)
/// but performs no reinforcement.
pub fn refine_orbit(
    encoder: &GcnEncoder,
    lap_source: &CsrMatrix,
    lap_target: &CsrMatrix,
    source_attrs: &DenseMatrix,
    target_attrs: &DenseMatrix,
    config: &HtcConfig,
) -> Result<OrbitRefinement> {
    refine_orbit_observed(
        encoder,
        lap_source,
        lap_target,
        source_attrs,
        target_attrs,
        config,
        0,
        None,
    )
}

/// [`refine_orbit`] with progress reporting and cooperative cancellation.
///
/// The observer's [`on_finetune_iteration`](ProgressObserver::on_finetune_iteration)
/// fires once per refinement iteration with the orbit index and trusted-pair
/// count; [`on_sweep_block`](ProgressObserver::on_sweep_block) additionally
/// fires at row-block granularity inside each blocked LISI sweep, so
/// deadline observers can interrupt a multi-minute sweep mid-flight.  Both
/// cancel with [`HtcError::Cancelled`] when they return `false`.
///
/// The iteration loop is allocation-free after warm-up: forward passes reuse
/// two [`ForwardCache`]s, the Eq. 14 reinforcement boost rescales into
/// persistent boosted-Laplacian scratch (`scale_sym_into`), and the LISI
/// sweep buffers are shared across iterations.  Both tiers run the same
/// sweep; the tier only picks its row sink (top-k retention for `Large`,
/// arg-maxes only for the dense tier).
#[allow(clippy::too_many_arguments)]
pub fn refine_orbit_observed(
    encoder: &GcnEncoder,
    lap_source: &CsrMatrix,
    lap_target: &CsrMatrix,
    source_attrs: &DenseMatrix,
    target_attrs: &DenseMatrix,
    config: &HtcConfig,
    orbit: usize,
    observer: Option<&Arc<dyn ProgressObserver>>,
) -> Result<OrbitRefinement> {
    let mut reinforcement_source = vec![1.0; lap_source.rows()];
    let mut reinforcement_target = vec![1.0; lap_target.rows()];

    // Reusable forward caches (one warm-up allocation per side) and
    // boosted-Laplacian scratch for the Eq. 14 re-encoding.
    let mut source_cache = ForwardCache::new();
    let mut target_cache = ForwardCache::new();
    let mut boosted_source = CsrMatrix::zeros(0, 0);
    let mut boosted_target = CsrMatrix::zeros(0, 0);

    encoder.forward_into(lap_source, source_attrs, &mut source_cache)?;
    encoder.forward_into(lap_target, target_attrs, &mut target_cache)?;

    let mut best_source = source_cache.output().clone();
    let mut best_target = target_cache.output().clone();
    let mut best_count = 0usize;
    let mut iterations = 0usize;

    let max_iters = if config.fine_tune {
        config.max_finetune_iters.max(1)
    } else {
        1
    };

    // Sweep buffers reused across refinement iterations (every iteration
    // sweeps the same shapes).
    let mut scratch = BlockedLisiScratch::new();
    let mut best_topk: Option<TopKRows> = None;
    let mut sweep_stats = SweepStats::default();

    let sweep_progress = observer.map(|obs| {
        let obs = Arc::clone(obs);
        move |done: usize, total: usize| obs.on_sweep_block(done, total)
    });
    let control = SweepControl {
        corr_cache_bytes: config.sweep_cache_mb.saturating_mul(1 << 20),
        chunks: None,
        progress: sweep_progress
            .as_ref()
            .map(|f| f as &(dyn Fn(usize, usize) -> bool + Sync)),
    };

    for _ in 0..max_iters {
        iterations += 1;
        let sink = if config.scale.is_large() {
            RowSink::TopK(config.top_k)
        } else {
            RowSink::ArgMax
        };
        let sweep = lisi_sweep(
            source_cache.output(),
            target_cache.output(),
            config.nearest_neighbors,
            default_block_rows(target_cache.output().rows()),
            sink,
            &mut scratch,
            &control,
        )?;
        sweep_stats.accumulate(&sweep.stats);
        let pairs = sweep.trusted_pairs();
        let count = pairs.len();
        if let Some(obs) = observer {
            if !obs.on_finetune_iteration(orbit, iterations, count) {
                return Err(HtcError::Cancelled);
            }
        }
        if count <= best_count && iterations > 1 {
            break;
        }
        if count > best_count || iterations == 1 {
            best_count = count.max(best_count);
            best_source.copy_from(source_cache.output());
            best_target.copy_from(target_cache.output());
            best_topk = sweep.topk;
        }
        if !config.fine_tune {
            break;
        }
        // Eq. 13: boost the reinforcement factors of both ends of each pair.
        for &(s, t) in &pairs {
            reinforcement_source[s] *= config.reinforcement_rate;
            reinforcement_target[t] *= config.reinforcement_rate;
        }
        // Eq. 14: re-encode with R L̃ R.
        lap_source.scale_sym_into(
            &reinforcement_source,
            &reinforcement_source,
            &mut boosted_source,
        )?;
        lap_target.scale_sym_into(
            &reinforcement_target,
            &reinforcement_target,
            &mut boosted_target,
        )?;
        encoder.forward_into(&boosted_source, source_attrs, &mut source_cache)?;
        encoder.forward_into(&boosted_target, target_attrs, &mut target_cache)?;
    }

    Ok(OrbitRefinement {
        source_embedding: best_source,
        target_embedding: best_target,
        trusted_count: best_count,
        iterations,
        topk: best_topk,
        sweep_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laplacian::orbit_laplacians;
    use crate::training::train_multi_orbit;
    use htc_graph::Graph;
    use htc_orbits::{GomSet, GomWeighting};

    fn trained_setup() -> (
        GcnEncoder,
        Vec<CsrMatrix>,
        Vec<CsrMatrix>,
        DenseMatrix,
        DenseMatrix,
    ) {
        let g = Graph::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 4),
            ],
        )
        .unwrap();
        let goms = GomSet::build(&g, 4, GomWeighting::Weighted);
        let laps = orbit_laplacians(&goms);
        let xs = DenseMatrix::from_vec(
            8,
            2,
            vec![
                1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.2, 0.8, 0.9, 0.1, 0.4, 0.6, 0.7, 0.3, 0.1, 0.9,
            ],
        )
        .unwrap();
        let model = train_multi_orbit(&laps, &laps, &xs, &xs, &HtcConfig::fast()).unwrap();
        (model.encoder, laps.clone(), laps, xs.clone(), xs)
    }

    #[test]
    fn identical_graphs_yield_full_trusted_set() {
        let (encoder, ls, lt, xs, xt) = trained_setup();
        let config = HtcConfig::fast();
        let refinement = refine_orbit(&encoder, &ls[0], &lt[0], &xs, &xt, &config).unwrap();
        // Two identical graphs with identical attributes: the bulk of the
        // nodes should form trusted pairs straight away (graph automorphisms
        // can tie a few of them).
        assert!(
            refinement.trusted_count >= 6 && refinement.trusted_count <= 8,
            "trusted count {}",
            refinement.trusted_count
        );
        assert!(refinement.iterations >= 1);
        assert_eq!(
            refinement.source_embedding.shape(),
            refinement.target_embedding.shape()
        );
    }

    #[test]
    fn disabling_fine_tune_runs_single_iteration() {
        let (encoder, ls, lt, xs, xt) = trained_setup();
        let mut config = HtcConfig::fast();
        config.fine_tune = false;
        let refinement = refine_orbit(&encoder, &ls[1], &lt[1], &xs, &xt, &config).unwrap();
        assert_eq!(refinement.iterations, 1);
        assert!(refinement.trusted_count > 0);
    }

    #[test]
    fn fine_tuning_never_reduces_the_reported_count() {
        let (encoder, ls, lt, xs, xt) = trained_setup();
        let with_ft = refine_orbit(&encoder, &ls[0], &lt[0], &xs, &xt, &HtcConfig::fast()).unwrap();
        let mut no_ft_cfg = HtcConfig::fast();
        no_ft_cfg.fine_tune = false;
        let without_ft = refine_orbit(&encoder, &ls[0], &lt[0], &xs, &xt, &no_ft_cfg).unwrap();
        assert!(with_ft.trusted_count >= without_ft.trusted_count);
    }

    #[test]
    fn large_tier_refinement_matches_dense_counts_and_keeps_topk() {
        let (encoder, ls, lt, xs, xt) = trained_setup();
        let dense_cfg = HtcConfig::fast();
        // Same hyper-parameters, Large tier with k covering every target:
        // the blocked trusted-pair detection is exact, so counts and
        // embeddings must match the dense run.
        let large_cfg = dense_cfg
            .clone()
            .with_scale(crate::config::ScaleTier::Large)
            .with_top_k(8);
        let dense = refine_orbit(&encoder, &ls[0], &lt[0], &xs, &xt, &dense_cfg).unwrap();
        let large = refine_orbit(&encoder, &ls[0], &lt[0], &xs, &xt, &large_cfg).unwrap();
        assert_eq!(dense.trusted_count, large.trusted_count);
        assert_eq!(dense.iterations, large.iterations);
        assert!(dense
            .source_embedding
            .approx_eq(&large.source_embedding, 0.0));
        assert!(dense.topk.is_none());
        let topk = large
            .topk
            .expect("large tier keeps the best iteration's top-k");
        assert_eq!(topk.shape(), (8, 8));
    }

    /// Records every observer callback; cancels via `on_sweep_block` after a
    /// configurable number of blocks (`usize::MAX` = never).
    struct SweepRecorder {
        iterations: std::sync::Mutex<Vec<(usize, usize, usize)>>,
        blocks_seen: std::sync::atomic::AtomicUsize,
        cancel_after_blocks: usize,
    }

    impl SweepRecorder {
        fn new(cancel_after_blocks: usize) -> Self {
            Self {
                iterations: std::sync::Mutex::new(Vec::new()),
                blocks_seen: std::sync::atomic::AtomicUsize::new(0),
                cancel_after_blocks,
            }
        }
    }

    impl ProgressObserver for SweepRecorder {
        fn on_finetune_iteration(&self, orbit: usize, iteration: usize, trusted: usize) -> bool {
            self.iterations
                .lock()
                .unwrap()
                .push((orbit, iteration, trusted));
            true
        }

        fn on_sweep_block(&self, _done: usize, _total: usize) -> bool {
            let seen = self
                .blocks_seen
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                + 1;
            seen < self.cancel_after_blocks
        }
    }

    #[test]
    fn observer_receives_per_iteration_trusted_counts() {
        let (encoder, ls, lt, xs, xt) = trained_setup();
        let config = HtcConfig::fast();
        let recorder = Arc::new(SweepRecorder::new(usize::MAX));
        let observer: Arc<dyn ProgressObserver> = recorder.clone();
        let refinement = refine_orbit_observed(
            &encoder,
            &ls[0],
            &lt[0],
            &xs,
            &xt,
            &config,
            3,
            Some(&observer),
        )
        .unwrap();
        let events = recorder.iterations.lock().unwrap().clone();
        assert_eq!(events.len(), refinement.iterations);
        for (i, &(orbit, iteration, _trusted)) in events.iter().enumerate() {
            assert_eq!(orbit, 3);
            assert_eq!(iteration, i + 1);
        }
        // The best count the refinement reports was among the observed ones.
        assert!(events
            .iter()
            .any(|&(_, _, t)| t == refinement.trusted_count));
        // The dense tier runs the blocked sweep too: every block of both
        // passes of every iteration's sweep reports progress, and the
        // breakdown fills in, while no top-k artifact is kept.
        assert!(refinement.sweep_stats.blocks >= refinement.iterations);
        assert_eq!(
            recorder
                .blocks_seen
                .load(std::sync::atomic::Ordering::Relaxed),
            2 * refinement.sweep_stats.blocks
        );
        assert!(refinement.topk.is_none());
    }

    #[test]
    fn large_tier_reports_sweep_stats_and_cancels_mid_sweep() {
        let (encoder, ls, lt, xs, xt) = trained_setup();
        let config = HtcConfig::fast()
            .with_scale(crate::config::ScaleTier::Large)
            .with_top_k(8);
        // Uncancelled run: block events fire and stats accumulate.
        let recorder = Arc::new(SweepRecorder::new(usize::MAX));
        let observer: Arc<dyn ProgressObserver> = recorder.clone();
        let refinement = refine_orbit_observed(
            &encoder,
            &ls[0],
            &lt[0],
            &xs,
            &xt,
            &config,
            0,
            Some(&observer),
        )
        .unwrap();
        assert!(refinement.sweep_stats.blocks > 0);
        assert!(
            recorder
                .blocks_seen
                .load(std::sync::atomic::Ordering::Relaxed)
                >= 2 * refinement.sweep_stats.blocks
        );

        // Cancelling from the second block event aborts mid-sweep with
        // HtcError::Cancelled instead of waiting for an iteration boundary.
        let canceller = Arc::new(SweepRecorder::new(2));
        let observer: Arc<dyn ProgressObserver> = canceller.clone();
        let err = refine_orbit_observed(
            &encoder,
            &ls[0],
            &lt[0],
            &xs,
            &xt,
            &config,
            0,
            Some(&observer),
        )
        .unwrap_err();
        assert!(matches!(err, HtcError::Cancelled));
        // The cancel fired before any iteration completed.
        assert!(canceller.iterations.lock().unwrap().is_empty());
    }

    #[test]
    fn iteration_cap_is_respected() {
        let (encoder, ls, lt, xs, xt) = trained_setup();
        let mut config = HtcConfig::fast();
        config.max_finetune_iters = 2;
        let refinement = refine_orbit(&encoder, &ls[2], &lt[2], &xs, &xt, &config).unwrap();
        assert!(refinement.iterations <= 2);
    }
}
