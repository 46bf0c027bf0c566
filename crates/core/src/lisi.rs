//! The locally isolated similarity index (LISI, Eq. 9–11) and trusted pairs
//! (Eq. 12).
//!
//! Raw nearest-neighbour matching over embeddings suffers from the *hubness*
//! problem: a few target embeddings become the nearest neighbour of a large
//! fraction of source embeddings.  LISI corrects the Pearson correlation of a
//! pair by subtracting both nodes' mean similarity to their `m` nearest
//! cross-graph neighbours, preferring pairs that are similar to each other
//! *and* locally isolated:
//!
//! ```text
//! LISI(h_s, h_t) = 2·corr(h_s, h_t) − D_t(h_s) − D_s(h_t)
//! ```
//!
//! A *trusted pair* is a pair that are mutually each other's LISI arg-max.
//!
//! Both scale tiers run the one chunk-parallel blocked sweep,
//! [`lisi_sweep`], which never materialises the `n_s × n_t` matrix itself.
//! What happens to each finished LISI row is the caller's [`RowSink`]:
//! dense fine-tuning keeps only the tracked arg-maxes, the `Large` tier
//! retains the top-k candidates, and dense integration adds the row into
//! the weighted alignment matrix.

use crate::error::HtcError;
use crate::topk::{TopKRows, TopKRowsBuilder};
use htc_linalg::ops::{axpy, pearson_normalize_rows, top_k_gate, top_k_mean_finish, top_k_push};
use htc_linalg::parallel::parallel_scratch_map;
use htc_linalg::DenseMatrix;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// Reusable buffers for [`lisi_matrix_into`]: the sweep's own scratch.
pub type LisiScratch = BlockedLisiScratch;

/// Computes the full LISI score matrix (Eq. 11) from two embedding matrices.
///
/// `m` is the neighbourhood size used by the hubness terms (Eq. 10).
pub fn lisi_matrix(source: &DenseMatrix, target: &DenseMatrix, m: usize) -> DenseMatrix {
    let mut scratch = LisiScratch::new();
    let mut out = DenseMatrix::zeros(0, 0);
    lisi_matrix_into(source, target, m, &mut scratch, &mut out);
    out
}

/// Like [`lisi_matrix`], but reuses scratch buffers and writes the LISI
/// matrix into `out` (resized as needed): [`lisi_sweep`] with a
/// [`RowSink::Write`] sink.
pub fn lisi_matrix_into(
    source: &DenseMatrix,
    target: &DenseMatrix,
    m: usize,
    scratch: &mut LisiScratch,
    out: &mut DenseMatrix,
) {
    lisi_sweep(
        source,
        target,
        m,
        default_block_rows(target.rows()),
        RowSink::Write(out),
        scratch,
        &SweepControl::default(),
    )
    .expect("an uncancellable sweep cannot fail");
}

/// Where pass 2 of [`lisi_sweep`] sends each finished LISI row.
pub enum RowSink<'a> {
    /// Nowhere: the caller needs only the tracked arg-maxes (trusted pairs).
    ArgMax,
    /// Retain the best `k` candidates of every row in a [`TopKRows`].
    TopK(usize),
    /// Write every row into the matrix, resized to `n_s × n_t`.
    Write(&'a mut DenseMatrix),
    /// Add `w · row` into the matching row of the `n_s × n_t` matrix for
    /// each weight `w`, in slice order — the weighted integration of Eq. 15,
    /// where the weights are the γ of every orbit sharing these embeddings.
    Accumulate(&'a mut DenseMatrix, &'a [f64]),
}

/// Controls the chunk-parallel blocked sweep of [`lisi_sweep`]:
/// correlation-block caching budget, an explicit chunk-count override, and a
/// cooperative progress / cancellation callback.
#[derive(Default)]
pub struct SweepControl<'a> {
    /// Byte budget for caching pass-1 correlation blocks so pass 2 can skip
    /// their GEMMs (split evenly across chunks, filled greedily from each
    /// chunk's first block).  `0` disables the cache: pass 2 recomputes every
    /// block, keeping peak memory at one block per chunk.
    pub corr_cache_bytes: usize,
    /// Explicit number of parallel chunks.  `None` uses one chunk per worker
    /// thread ([`htc_linalg::parallel::num_threads`]).  Results are
    /// bit-identical for every chunk count — this override exists so tests
    /// can force multi-chunk merges on single-core machines.
    pub chunks: Option<usize>,
    /// Invoked after every processed block with `(blocks_done, total_blocks)`
    /// (both passes counted).  Returning `false` cancels the sweep
    /// cooperatively: in-flight blocks finish, no further blocks start, and
    /// [`lisi_sweep`] returns [`HtcError::Cancelled`].
    pub progress: Option<&'a (dyn Fn(usize, usize) -> bool + Sync)>,
}

/// Kernel-level breakdown of one blocked sweep.  Seconds are CPU-seconds
/// summed across chunks, so they exceed wall time when chunks run in
/// parallel.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SweepStats {
    /// Time spent in correlation GEMMs (including source-block staging).
    pub gemm_seconds: f64,
    /// Time spent in streaming selection (hubness, combine, arg-max, top-k).
    pub select_seconds: f64,
    /// Row blocks per pass.
    pub blocks: usize,
    /// Blocks whose pass-1 correlation was cached and reused by pass 2.
    pub cached_blocks: usize,
}

impl SweepStats {
    /// Adds another sweep's totals into this one (per-iteration
    /// accumulation in the fine-tuning loop).
    pub fn accumulate(&mut self, other: &SweepStats) {
        self.gemm_seconds += other.gemm_seconds;
        self.select_seconds += other.select_seconds;
        self.blocks += other.blocks;
        self.cached_blocks += other.cached_blocks;
    }
}

/// Result of a blocked LISI sweep: the *exact* full-width row/column
/// arg-maxes (tracked during the streaming pass, so trusted pairs need no
/// dense matrix), plus the retained top-k candidates for a
/// [`RowSink::TopK`] sink.
#[derive(Debug, Clone)]
pub struct BlockedLisi {
    /// Top-k retained LISI candidates per source row (`None` unless the
    /// sweep ran with a [`RowSink::TopK`] sink).
    pub topk: Option<TopKRows>,
    /// GEMM-vs-selection timing breakdown of the sweep that produced this.
    pub stats: SweepStats,
    /// Exact arg-max of every (conceptual) LISI row.
    row_best: Vec<usize>,
    /// Exact arg-max of every (conceptual) LISI column.
    col_best: Vec<usize>,
}

impl BlockedLisi {
    /// Trusted pairs (Eq. 12): mutual arg-maxes of the LISI matrix, in row
    /// order.  Exact, because the streaming pass tracks the full-width
    /// arg-maxes (not just the retained set).
    pub fn trusted_pairs(&self) -> Vec<(usize, usize)> {
        self.row_best
            .iter()
            .enumerate()
            .filter(|&(s, &t)| self.col_best.get(t) == Some(&s))
            .map(|(s, &t)| (s, t))
            .collect()
    }

    /// Exact arg-max per source row.
    pub fn row_best(&self) -> &[usize] {
        &self.row_best
    }
}

/// Per-chunk working state of the parallel blocked sweep.  Each chunk owns a
/// contiguous ascending range of row blocks and touches nothing outside this
/// struct (and its own rows of a matrix sink) while a pass runs, so chunks
/// need no locking; the partial column state is merged sequentially, in
/// ascending chunk order, between and after the passes.
#[derive(Debug, Clone, Default)]
struct ChunkScratch {
    /// Normalised source rows of each of the chunk's blocks, staged in pass 1
    /// and reused by pass 2 (sweep fusion: the copy happens once).
    source_blocks: Vec<DenseMatrix>,
    /// Pass-1 correlation blocks retained for pass 2 where the
    /// [`SweepControl::corr_cache_bytes`] budget allows.
    corr_blocks: Vec<DenseMatrix>,
    /// Which of the chunk's blocks have a cached correlation.
    corr_cached: Vec<bool>,
    /// Fallback `block_rows × n_t` correlation block for uncached blocks.
    corr_block: DenseMatrix,
    /// One fully materialised LISI row (the combine kernel's output).
    lisi_row: Vec<f64>,
    /// Candidate-index scratch for the vectorised threshold scans.
    idx: Vec<u32>,
    /// Selection buffer for the current row's `D_t(h_s)` (Eq. 10).
    row_top: Vec<f64>,
    /// Chunk-partial per-column selection buffers for `D_s(h_t)` (Eq. 10).
    col_top: Vec<Vec<f64>>,
    /// Running k-th value per column: the exact threshold below which
    /// `top_k_push` would reject, hoisted out so a vectorised scan can skip
    /// the heap machinery for entries that cannot enter.
    col_gate: Vec<f64>,
    /// `D_t(h_s)` for the chunk's own rows (chunk-local indexing).
    hub_rows: Vec<f64>,
    /// Chunk-partial per-column arg-max value / row while streaming pass 2.
    col_best_val: Vec<f64>,
    col_best_row: Vec<usize>,
}

/// Reusable buffers for the blocked LISI sweep: normalised embedding copies
/// plus one [`ChunkScratch`] per parallel chunk.
#[derive(Debug, Clone, Default)]
pub struct BlockedLisiScratch {
    norm_source: DenseMatrix,
    norm_target: DenseMatrix,
    chunks: Vec<ChunkScratch>,
    /// Merged `D_s(h_t)` (Eq. 10) over all chunks.
    hub_target: Vec<f64>,
    /// Selection buffer for the sequential per-column hubness merge.
    merge_buf: Vec<f64>,
}

impl BlockedLisiScratch {
    /// Creates empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Picks the row-block height for a blocked LISI evaluation: large enough to
/// keep the GEMM efficient, small enough that one `block × n_t` correlation
/// block stays around 8 MB.
pub fn default_block_rows(target_nodes: usize) -> usize {
    ((1 << 20) / target_nodes.max(1)).clamp(16, 4096)
}

/// Width of the slices the row-hubness scan compares against one gate.
const ROW_GATE_CHUNK: usize = 64;

/// [`htc_linalg::ops::top_k_mean`] of one correlation row, bit for bit,
/// with the tail threshold-gated.  The first `k` values fill the buffer;
/// the rest are scanned in [`ROW_GATE_CHUNK`] slices by `scan_above`
/// against the buffer's gate at the start of each slice, and only the
/// emitted values are offered to [`top_k_push`].  The gate only rises
/// within a slice, so every value the push would accept is emitted, and the
/// push re-checks each emitted one: the buffer goes through exactly the
/// ungated sequence of states.
fn gated_top_k_mean(values: &[f64], m: usize, top: &mut Vec<f64>, idx: &mut [u32]) -> f64 {
    if values.is_empty() || m == 0 {
        return 0.0;
    }
    let k = m.min(values.len());
    top.clear();
    for &v in &values[..k] {
        top_k_push(top, k, v);
    }
    let scan_above = htc_linalg::kernels::active().scan_above;
    for slice in values[k..].chunks(ROW_GATE_CHUNK) {
        let hits = scan_above(slice, top_k_gate(top, k), idx);
        for &i in &idx[..hits] {
            top_k_push(top, k, slice[i as usize]);
        }
    }
    top_k_mean_finish(top, k)
}

/// Blocked LISI sweep retaining the top `k` candidates per row:
/// [`lisi_sweep`] with a [`RowSink::TopK`] sink and default controls (no
/// correlation cache, chunk count from the thread pool, no cancellation).
pub fn lisi_topk(
    source: &DenseMatrix,
    target: &DenseMatrix,
    m: usize,
    k: usize,
    block_rows: usize,
    scratch: &mut BlockedLisiScratch,
) -> BlockedLisi {
    lisi_sweep(
        source,
        target,
        m,
        block_rows,
        RowSink::TopK(k),
        scratch,
        &SweepControl::default(),
    )
    .expect("an uncancellable sweep cannot fail")
}

/// Chunk-parallel blocked LISI sweep (Eq. 9–11), the one LISI
/// implementation of both tiers.  Never materialises the `n_s × n_t`
/// matrix itself: peak additional memory is one `block_rows × n_t`
/// correlation block per chunk (plus whatever the cache budget keeps) and
/// O(n_t · m) of per-column hubness state.
///
/// Two passes over the correlation blocks are required — the hubness terms
/// need global column statistics before any LISI value can be finalised.
/// The row blocks are partitioned into contiguous ascending chunks — one per
/// worker thread unless [`SweepControl::chunks`] overrides — and both passes
/// fan the chunks across the persistent thread pool.  Each chunk streams its
/// own blocks with purely chunk-local state:
///
/// * **pass 1** computes each row's `D_t(h_s)` with `gated_top_k_mean` and
///   accumulates chunk-partial per-column top-`m` buffers behind a running
///   k-th-value gate (`scan_gt` emits only candidates the buffer could
///   accept — the gate is exactly `top_k_push`'s own rejection test, so
///   gated-out values provably leave the buffer unchanged);
/// * the chunk buffers are then **merged sequentially in ascending chunk
///   order** by replaying them through [`top_k_push`]: the merged buffer
///   holds the global top-`col_k` multiset of each column sorted ascending,
///   so the summed mean equals `top_k_mean` of the full column bit for bit;
/// * **pass 2** recombines each block (reusing pass-1 correlations where the
///   cache budget allowed) with the fused `lisi_combine_argmax` kernel,
///   tracks chunk-partial row/column arg-maxes and hands every row to the
///   `sink`; top-k builders and column maxima are again merged in ascending
///   chunk order (strict `>`, so the lower row index wins ties), while a
///   matrix sink's rows are written by the chunk that owns them.
///
/// Chunk boundaries therefore never influence a result bit: the output is
/// identical across `HTC_NUM_THREADS`, chunk-count overrides and cache
/// budgets, and equal to the plain dense LISI computation — one
/// correlation GEMM, `top_k_mean` per row and per column, scalar combine —
/// bit for bit (test-enforced).
///
/// # Panics
/// Panics if a [`RowSink::Accumulate`] matrix is not `n_s × n_t`.
pub fn lisi_sweep(
    source: &DenseMatrix,
    target: &DenseMatrix,
    m: usize,
    block_rows: usize,
    sink: RowSink<'_>,
    scratch: &mut BlockedLisiScratch,
    control: &SweepControl<'_>,
) -> crate::Result<BlockedLisi> {
    let m = m.max(1);
    let block_rows = block_rows.max(1);
    let (n_s, n_t) = (source.rows(), target.rows());

    // Split the sink into what each chunk needs: a top-k retention, or an
    // output matrix (plus the weights to accumulate it with).
    let (top_k, out, weights) = match sink {
        RowSink::ArgMax => (None, None, None),
        RowSink::TopK(k) => (Some(k), None, None),
        RowSink::Write(out) => {
            out.resize_for_overwrite(n_s, n_t);
            (None, Some(out), None)
        }
        RowSink::Accumulate(out, weights) => {
            assert_eq!(
                out.shape(),
                (n_s, n_t),
                "the accumulated matrix must be n_s × n_t"
            );
            (None, Some(out), Some(weights))
        }
    };

    let BlockedLisiScratch {
        norm_source,
        norm_target,
        chunks,
        hub_target,
        merge_buf,
    } = scratch;

    norm_source.copy_from(source);
    norm_target.copy_from(target);
    pearson_normalize_rows(norm_source);
    pearson_normalize_rows(norm_target);
    let norm_source = &*norm_source;
    let norm_target = &*norm_target;

    let num_blocks = n_s.div_ceil(block_rows);
    let mut stats = SweepStats {
        blocks: num_blocks,
        ..SweepStats::default()
    };
    if num_blocks == 0 {
        return Ok(BlockedLisi {
            topk: top_k.map(|k| TopKRowsBuilder::new(n_t, k).finish()),
            stats,
            row_best: Vec::new(),
            col_best: vec![0; n_t],
        });
    }

    let num_chunks = control
        .chunks
        .unwrap_or_else(htc_linalg::parallel::num_threads)
        .clamp(1, num_blocks);
    chunks.resize_with(num_chunks, ChunkScratch::default);

    // Contiguous ascending row ranges, one per chunk: the merge order (and
    // with it every tie-break) is a function of the partition alone, never of
    // which thread finishes first.
    let mut plan = Vec::with_capacity(num_chunks);
    {
        let (base, rem) = (num_blocks / num_chunks, num_blocks % num_chunks);
        let mut b0 = 0;
        for i in 0..num_chunks {
            let b1 = b0 + base + usize::from(i < rem);
            plan.push((b0, b1, b0 * block_rows, (b1 * block_rows).min(n_s)));
            b0 = b1;
        }
    }

    let col_k = m.min(n_s.max(1));
    let chunk_cache_budget = control.corr_cache_bytes / num_chunks;
    let cancelled = AtomicBool::new(false);
    let blocks_done = AtomicUsize::new(0);
    let total_ticks = 2 * num_blocks;
    let tick = || {
        let done = blocks_done.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(progress) = control.progress {
            if !progress(done, total_ticks) {
                cancelled.store(true, Ordering::Relaxed);
            }
        }
    };

    // Pass 1: per-row hubness D_t(h_s) and chunk-partial per-column top-k
    // buffers for D_s(h_t), both threshold-gated.
    let pass1 = parallel_scratch_map(chunks.as_mut_slice(), |ci, cs: &mut ChunkScratch| {
        let (b_lo, b_hi, chunk_r0, chunk_r1) = plan[ci];
        let n_local = b_hi - b_lo;
        let ChunkScratch {
            source_blocks,
            corr_blocks,
            corr_cached,
            corr_block,
            idx,
            row_top,
            col_top,
            col_gate,
            hub_rows,
            ..
        } = cs;
        source_blocks.resize_with(n_local, DenseMatrix::default);
        corr_blocks.resize_with(n_local, DenseMatrix::default);
        corr_cached.clear();
        corr_cached.resize(n_local, false);
        col_top.resize_with(n_t, Vec::new);
        for buf in col_top.iter_mut() {
            buf.clear();
            buf.reserve(col_k + 1);
        }
        col_gate.clear();
        col_gate.resize(n_t, f64::NEG_INFINITY);
        hub_rows.clear();
        hub_rows.resize(chunk_r1 - chunk_r0, 0.0);
        idx.resize(n_t, 0);
        let scan_gt = htc_linalg::kernels::active().scan_gt;
        let d = norm_source.cols();
        let (mut gemm_s, mut select_s, mut cached) = (0.0f64, 0.0f64, 0usize);
        let mut cache_used = 0usize;
        for (local_b, b) in (b_lo..b_hi).enumerate() {
            if cancelled.load(Ordering::Relaxed) {
                break;
            }
            let r0 = b * block_rows;
            let r1 = (r0 + block_rows).min(n_s);
            let t0 = Instant::now();
            let src = &mut source_blocks[local_b];
            src.resize_for_overwrite(r1 - r0, d);
            for (i, r) in (r0..r1).enumerate() {
                src.row_mut(i).copy_from_slice(norm_source.row(r));
            }
            let block_bytes = (r1 - r0) * n_t * std::mem::size_of::<f64>();
            let out = if cache_used + block_bytes <= chunk_cache_budget {
                cache_used += block_bytes;
                cached += 1;
                corr_cached[local_b] = true;
                &mut corr_blocks[local_b]
            } else {
                &mut *corr_block
            };
            src.matmul_transpose_into(norm_target, out)
                .expect("embedding dimensions match because the encoder is shared");
            gemm_s += t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            for (i, r) in (r0..r1).enumerate() {
                let row = out.row(i);
                hub_rows[r - chunk_r0] = gated_top_k_mean(row, m, row_top, idx);
                // `row[c] > col_gate[c]` is exactly the rejection test
                // `top_k_push` itself applies once the buffer is full (and
                // `-inf` while filling), hoisted into one vectorised scan.
                let hits = scan_gt(row, col_gate, idx);
                for &c in &idx[..hits] {
                    let c = c as usize;
                    top_k_push(&mut col_top[c], col_k, row[c]);
                    col_gate[c] = top_k_gate(&col_top[c], col_k);
                }
            }
            select_s += t1.elapsed().as_secs_f64();
            tick();
        }
        (gemm_s, select_s, cached)
    });
    for (gemm_s, select_s, cached) in pass1 {
        stats.gemm_seconds += gemm_s;
        stats.select_seconds += select_s;
        stats.cached_blocks += cached;
    }
    if cancelled.load(Ordering::Relaxed) {
        return Err(HtcError::Cancelled);
    }

    // Sequential hubness merge: replay every chunk's column buffer through
    // `top_k_push` in ascending chunk order.  The merged buffer is the
    // column's global top-`col_k` multiset sorted ascending — the buffer
    // `top_k_mean` builds over the whole column — so the mean matches bit
    // for bit.
    hub_target.clear();
    if num_chunks == 1 {
        hub_target.extend(
            chunks[0]
                .col_top
                .iter()
                .map(|buf| top_k_mean_finish(buf, col_k)),
        );
    } else {
        hub_target.reserve(n_t);
        for c in 0..n_t {
            merge_buf.clear();
            for cs in chunks.iter() {
                for &v in &cs.col_top[c] {
                    top_k_push(merge_buf, col_k, v);
                }
            }
            hub_target.push(top_k_mean_finish(merge_buf, col_k));
        }
    }
    let hub_target: &[f64] = hub_target;

    // Each chunk's rows of a matrix sink, handed to the chunk that owns them.
    let mut row_slabs: Vec<Option<&mut [f64]>> = Vec::with_capacity(num_chunks);
    if let Some(out) = out {
        let mut rest = out.data_mut();
        for &(_, _, r0, r1) in &plan {
            let (slab, tail) = rest.split_at_mut((r1 - r0) * n_t);
            row_slabs.push(Some(slab));
            rest = tail;
        }
    } else {
        row_slabs.resize_with(num_chunks, || None);
    }
    let mut work: Vec<(&mut ChunkScratch, Option<&mut [f64]>)> =
        chunks.iter_mut().zip(row_slabs).collect();

    // Pass 2: recombine each block (cached correlations skip the GEMM),
    // track chunk-partial row/column arg-maxes, hand every row to the sink.
    let pass2 = parallel_scratch_map(work.as_mut_slice(), |ci, (cs, slab)| {
        let (b_lo, b_hi, chunk_r0, chunk_r1) = plan[ci];
        let ChunkScratch {
            source_blocks,
            corr_blocks,
            corr_cached,
            corr_block,
            lisi_row,
            idx,
            hub_rows,
            col_best_val,
            col_best_row,
            ..
        } = &mut **cs;
        lisi_row.resize(n_t, 0.0);
        idx.resize(n_t, 0);
        col_best_val.clear();
        col_best_val.resize(n_t, f64::NEG_INFINITY);
        col_best_row.clear();
        col_best_row.resize(n_t, 0);
        let kernels = htc_linalg::kernels::active();
        let mut row_best = vec![0usize; chunk_r1 - chunk_r0];
        let mut builder = top_k.map(|k| TopKRowsBuilder::new(n_t, k));
        let (mut gemm_s, mut select_s) = (0.0f64, 0.0f64);
        for (local_b, b) in (b_lo..b_hi).enumerate() {
            if cancelled.load(Ordering::Relaxed) {
                return None;
            }
            let r0 = b * block_rows;
            let r1 = (r0 + block_rows).min(n_s);
            let t0 = Instant::now();
            if !corr_cached[local_b] {
                source_blocks[local_b]
                    .matmul_transpose_into(norm_target, corr_block)
                    .expect("embedding dimensions match because the encoder is shared");
            }
            let corr: &DenseMatrix = if corr_cached[local_b] {
                &corr_blocks[local_b]
            } else {
                corr_block
            };
            gemm_s += t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            for (i, r) in (r0..r1).enumerate() {
                let local_r = r - chunk_r0;
                row_best[local_r] = (kernels.lisi_combine_argmax)(
                    corr.row(i),
                    hub_target,
                    hub_rows[local_r],
                    lisi_row,
                );
                // Column arg-max: strict `>` with ascending row order inside
                // the chunk replicates the dense tie-break (lower row wins).
                let hits = (kernels.scan_gt)(lisi_row, col_best_val, idx);
                for &c in &idx[..hits] {
                    let c = c as usize;
                    col_best_val[c] = lisi_row[c];
                    col_best_row[c] = r;
                }
                if let Some(builder) = builder.as_mut() {
                    builder.push_row(lisi_row);
                }
                if let Some(slab) = slab.as_deref_mut() {
                    let dst = &mut slab[local_r * n_t..(local_r + 1) * n_t];
                    match weights {
                        None => dst.copy_from_slice(lisi_row),
                        Some(weights) => {
                            for &w in weights {
                                axpy(w, lisi_row, dst);
                            }
                        }
                    }
                }
            }
            select_s += t1.elapsed().as_secs_f64();
            tick();
        }
        Some((row_best, builder, gemm_s, select_s))
    });
    drop(work);

    // Merge in ascending chunk order: row arg-maxes and builders concatenate;
    // column arg-maxes keep the earlier (lower-row) chunk on exact ties.
    let mut row_best = Vec::with_capacity(n_s);
    let mut topk = top_k.map(|k| TopKRowsBuilder::new(n_t, k));
    for slot in pass2 {
        let Some((chunk_best, chunk_builder, gemm_s, select_s)) = slot else {
            return Err(HtcError::Cancelled);
        };
        row_best.extend(chunk_best);
        if let (Some(topk), Some(chunk_builder)) = (topk.as_mut(), chunk_builder) {
            topk.append(&chunk_builder);
        }
        stats.gemm_seconds += gemm_s;
        stats.select_seconds += select_s;
    }
    if cancelled.load(Ordering::Relaxed) {
        return Err(HtcError::Cancelled);
    }
    let mut col_best = vec![0usize; n_t];
    let mut col_val = vec![f64::NEG_INFINITY; n_t];
    for cs in chunks.iter() {
        for c in 0..n_t {
            if cs.col_best_val[c] > col_val[c] {
                col_val[c] = cs.col_best_val[c];
                col_best[c] = cs.col_best_row[c];
            }
        }
    }

    Ok(BlockedLisi {
        topk: topk.map(TopKRowsBuilder::finish),
        stats,
        row_best,
        col_best,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lisi_oracle::{oracle_correlation, oracle_lisi, oracle_trusted_pairs};
    use htc_linalg::ops::{row_argmax, top_k_mean};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_embedding(n: usize, d: usize, seed: u64) -> DenseMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..n * d).map(|_| rng.gen_range(-1.0..1.0)).collect();
        DenseMatrix::from_vec(n, d, data).unwrap()
    }

    /// Trusted pairs of a default-control, arg-max-only sweep.
    fn sweep_trusted_pairs(hs: &DenseMatrix, ht: &DenseMatrix, m: usize) -> Vec<(usize, usize)> {
        let mut scratch = BlockedLisiScratch::new();
        lisi_sweep(
            hs,
            ht,
            m,
            default_block_rows(ht.rows()),
            RowSink::ArgMax,
            &mut scratch,
            &SweepControl::default(),
        )
        .unwrap()
        .trusted_pairs()
    }

    #[test]
    fn gated_row_mean_is_bit_identical_to_top_k_mean() {
        // Widths around the gate slice (not multiples of it), exact ties at
        // the gate, signed zeros, and m at, around and beyond the width.
        let mut rng = StdRng::seed_from_u64(9);
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for width in [
            1usize,
            2,
            7,
            ROW_GATE_CHUNK - 1,
            ROW_GATE_CHUNK + 3,
            3 * ROW_GATE_CHUNK + 17,
        ] {
            rows.push((0..width).map(|_| rng.gen_range(-1.0..1.0)).collect());
            // Few distinct values: ties at every gate.
            rows.push(
                (0..width)
                    .map(|_| f64::from(rng.gen_range(0..3u32)) * 0.25)
                    .collect(),
            );
            rows.push(
                (0..width)
                    .map(|i| if i % 2 == 0 { 0.0 } else { -0.0 })
                    .collect(),
            );
            rows.push(
                (0..width)
                    .map(|i| if i % 3 == 0 { -0.0 } else { 0.0 })
                    .collect(),
            );
            rows.push(vec![-0.0; width]);
            // Ascending: the gate rises on every value.
            rows.push((0..width).map(|i| i as f64 * 1e-3 - 0.1).collect());
        }
        let mut top = Vec::new();
        let mut idx = vec![0u32; 4 * ROW_GATE_CHUNK];
        for row in &rows {
            for m in [1usize, 2, 3, 10, row.len(), row.len() + 5] {
                let gated = gated_top_k_mean(row, m, &mut top, &mut idx);
                assert_eq!(
                    gated.to_bits(),
                    top_k_mean(row, m).to_bits(),
                    "width {} m {m}",
                    row.len()
                );
            }
        }
        assert_eq!(gated_top_k_mean(&[], 3, &mut top, &mut idx), 0.0);
    }

    #[test]
    fn correlation_of_identical_embeddings_is_one_on_diagonal() {
        let h = random_embedding(6, 5, 1);
        let corr = oracle_correlation(&h, &h);
        for i in 0..6 {
            assert!((corr.get(i, i) - 1.0).abs() < 1e-9);
        }
        // All correlations are bounded by 1 in magnitude.
        assert!(corr.max_abs() <= 1.0 + 1e-9);
    }

    #[test]
    fn identical_embeddings_recover_identity_pairs() {
        let h = random_embedding(8, 6, 2);
        let pairs = sweep_trusted_pairs(&h, &h, 3);
        // Every node should be matched to itself.
        assert_eq!(pairs.len(), 8);
        for (s, t) in pairs {
            assert_eq!(s, t);
        }
    }

    #[test]
    fn lisi_penalises_hubs() {
        // Build a target set where one embedding (the "hub") is close to every
        // source embedding while individual matches are slightly better.
        let source = DenseMatrix::from_rows(&[vec![1.0, 0.05, 0.0], vec![0.05, 1.0, 0.0]]).unwrap();
        let hubby_target = DenseMatrix::from_rows(&[
            vec![1.0, 0.1, 0.0], // good match for source 0
            vec![0.1, 1.0, 0.0], // good match for source 1
            vec![0.6, 0.6, 0.1], // hub: decently close to both
        ])
        .unwrap();
        // With LISI, the hub column is penalised relative to the true matches.
        let pairs = sweep_trusted_pairs(&source, &hubby_target, 2);
        assert!(pairs.contains(&(0, 0)));
        assert!(pairs.contains(&(1, 1)));
    }

    #[test]
    fn trusted_pairs_are_mutual() {
        let hs = random_embedding(10, 4, 3);
        let ht = random_embedding(12, 4, 4);
        let lisi = lisi_matrix(&hs, &ht, 3);
        for (s, t) in sweep_trusted_pairs(&hs, &ht, 3) {
            // t is the argmax of row s …
            let row = lisi.row(s);
            assert!(row.iter().all(|&v| v <= row[t] + 1e-12));
            // … and s is the argmax of column t.
            let col = lisi.column(t);
            assert!(col.iter().all(|&v| v <= col[s] + 1e-12));
        }
    }

    #[test]
    fn rectangular_shapes_are_supported() {
        let hs = random_embedding(5, 4, 5);
        let ht = random_embedding(9, 4, 6);
        let lisi = lisi_matrix(&hs, &ht, 4);
        assert_eq!(lisi.shape(), (5, 9));
        assert!(sweep_trusted_pairs(&hs, &ht, 4).len() <= 5);
    }

    #[test]
    fn blocked_lisi_matches_dense_bit_for_bit() {
        let hs = random_embedding(23, 5, 11);
        let ht = random_embedding(17, 5, 12);
        let m = 4;
        let dense = oracle_lisi(&hs, &ht, m);
        let mut scratch = BlockedLisiScratch::new();
        // k >= n_t: every candidate retained, so the blocked artifact must
        // reproduce the dense matrix exactly — including across an uneven
        // block split (7 does not divide 23).
        let blocked = lisi_topk(&hs, &ht, m, 17, 7, &mut scratch);
        let topk = blocked.topk.as_ref().unwrap();
        assert_eq!(topk.shape(), dense.shape());
        for r in 0..23 {
            for (c, v) in topk.row(r) {
                assert_eq!(
                    v.to_bits(),
                    dense.get(r, c).to_bits(),
                    "LISI({r},{c}) differs between blocked and dense"
                );
            }
        }
        assert_eq!(topk.best_per_row(), row_argmax(&dense));
        assert_eq!(blocked.trusted_pairs(), oracle_trusted_pairs(&dense));
        assert!(lisi_matrix(&hs, &ht, m).bit_eq(&dense));
    }

    #[test]
    fn blocked_lisi_small_k_retains_exact_scores_and_argmax() {
        let hs = random_embedding(15, 4, 21);
        let ht = random_embedding(40, 4, 22);
        let dense = oracle_lisi(&hs, &ht, 3);
        let mut scratch = BlockedLisiScratch::new();
        let blocked = lisi_topk(&hs, &ht, 3, 5, 4, &mut scratch);
        let topk = blocked.topk.as_ref().unwrap();
        // Retention truncates the candidate *set*, never perturbs a score,
        // and the tracked arg-maxes stay exact (full-width).
        for r in 0..15 {
            assert_eq!(topk.row(r).count(), 5);
            for (c, v) in topk.row(r) {
                assert_eq!(v.to_bits(), dense.get(r, c).to_bits());
            }
        }
        assert_eq!(topk.best_per_row(), row_argmax(&dense));
        assert_eq!(blocked.trusted_pairs(), oracle_trusted_pairs(&dense));
    }

    /// Retained candidates (scores as raw bits), row arg-maxes and trusted
    /// pairs of a blocked run, flattened for exact comparison across sweep
    /// configurations.
    type SweepFingerprint = (
        Vec<(usize, Vec<(usize, u64)>)>,
        Vec<usize>,
        Vec<(usize, usize)>,
    );

    fn sweep_fingerprint(b: &BlockedLisi) -> SweepFingerprint {
        let topk = b.topk.as_ref().unwrap();
        let rows = (0..topk.rows())
            .map(|r| (r, topk.row(r).map(|(c, v)| (c, v.to_bits())).collect()))
            .collect();
        (rows, b.row_best().to_vec(), b.trusted_pairs())
    }

    #[test]
    fn chunked_sweep_is_invariant_to_chunk_count_and_cache() {
        // The determinism contract of `lisi_sweep`: chunk partitioning and
        // correlation caching are pure execution strategies — every
        // combination must produce the same bits.  Block height 3 over 26
        // rows gives 9 blocks, so chunk counts 2/3/5 all split unevenly.
        let hs = random_embedding(26, 5, 31);
        let ht = random_embedding(19, 5, 32);
        let mut scratch = BlockedLisiScratch::new();
        let reference = lisi_topk(&hs, &ht, 3, 6, 3, &mut scratch);
        let reference = sweep_fingerprint(&reference);
        for chunks in [1usize, 2, 3, 5, 9] {
            for cache_bytes in [0usize, 4096, usize::MAX] {
                let control = SweepControl {
                    corr_cache_bytes: cache_bytes,
                    chunks: Some(chunks),
                    progress: None,
                };
                let got =
                    lisi_sweep(&hs, &ht, 3, 3, RowSink::TopK(6), &mut scratch, &control).unwrap();
                assert_eq!(
                    sweep_fingerprint(&got),
                    reference,
                    "chunks={chunks} cache={cache_bytes}"
                );
                if cache_bytes == usize::MAX {
                    assert_eq!(got.stats.cached_blocks, got.stats.blocks);
                }
            }
        }
    }

    #[test]
    fn sweep_progress_reports_blocks_and_cancellation_aborts() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let hs = random_embedding(20, 4, 41);
        let ht = random_embedding(10, 4, 42);
        let mut scratch = BlockedLisiScratch::new();
        // 20 rows / block height 4 = 5 blocks → 10 ticks over both passes.
        let ticks = AtomicUsize::new(0);
        let observe = |done: usize, total: usize| {
            assert_eq!(total, 10);
            assert!(done >= 1 && done <= total);
            ticks.fetch_add(1, Ordering::Relaxed);
            true
        };
        let control = SweepControl {
            corr_cache_bytes: 0,
            chunks: Some(2),
            progress: Some(&observe),
        };
        lisi_sweep(&hs, &ht, 2, 4, RowSink::TopK(5), &mut scratch, &control).unwrap();
        assert_eq!(ticks.load(Ordering::Relaxed), 10);

        // Cancelling after the third tick aborts with HtcError::Cancelled.
        let seen = AtomicUsize::new(0);
        let cancel_after_3 =
            |_done: usize, _total: usize| seen.fetch_add(1, Ordering::Relaxed) + 1 < 3;
        let control = SweepControl {
            corr_cache_bytes: 0,
            chunks: Some(2),
            progress: Some(&cancel_after_3),
        };
        let err = lisi_sweep(&hs, &ht, 2, 4, RowSink::ArgMax, &mut scratch, &control).unwrap_err();
        assert!(matches!(err, crate::error::HtcError::Cancelled));
        // Cancellation is cooperative at block granularity: no further
        // blocks start, so the observer fires at most once more per chunk.
        assert!(seen.load(Ordering::Relaxed) < 10);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Property (the blocked-equals-dense contract): for every sink,
        /// block height, chunk count and cache budget the sweep reproduces
        /// the dense oracle bit for bit — retained (k ≥ n_t) and written
        /// values, γ-weighted accumulation in weight order, per-row
        /// arg-maxes and trusted pairs.
        #[test]
        fn blocked_topk_equals_dense_argmax_path(
            seed in 0u64..500, ns in 1usize..12, nt in 1usize..12,
            d in 2usize..6, m in 1usize..6, block in 1usize..14,
            chunks in 1usize..5, cache_mb in 0usize..2
        ) {
            let hs = random_embedding(ns, d, seed);
            let ht = random_embedding(nt, d, seed.wrapping_add(13));
            let dense = oracle_lisi(&hs, &ht, m);
            let trusted = oracle_trusted_pairs(&dense);
            let mut scratch = BlockedLisiScratch::new();
            let control = SweepControl {
                corr_cache_bytes: cache_mb << 20,
                chunks: Some(chunks),
                progress: None,
            };
            let mut sweep = |sink: RowSink<'_>| {
                lisi_sweep(&hs, &ht, m, block, sink, &mut scratch, &control).unwrap()
            };

            let blocked = sweep(RowSink::TopK(nt));
            let topk = blocked.topk.as_ref().unwrap();
            prop_assert_eq!(topk.num_candidates(), ns * nt);
            for r in 0..ns {
                for (c, v) in topk.row(r) {
                    prop_assert_eq!(v.to_bits(), dense.get(r, c).to_bits());
                }
            }
            prop_assert_eq!(topk.best_per_row(), row_argmax(&dense));
            prop_assert_eq!(blocked.trusted_pairs(), trusted.clone());

            let blocked = sweep(RowSink::ArgMax);
            prop_assert!(blocked.topk.is_none());
            prop_assert_eq!(blocked.row_best().to_vec(), row_argmax(&dense));
            prop_assert_eq!(blocked.trusted_pairs(), trusted.clone());

            let mut written = DenseMatrix::zeros(0, 0);
            sweep(RowSink::Write(&mut written));
            prop_assert!(written.bit_eq(&dense));

            // Accumulate on top of existing contents, one weight at a time
            // in order, like integration does across orbits.
            let weights = [0.375, 1.5, 0.0625];
            let mut expected = DenseMatrix::filled(ns, nt, 0.5);
            let mut accumulated = expected.clone();
            for &w in &weights {
                expected.add_scaled_inplace(&dense, w).unwrap();
            }
            sweep(RowSink::Accumulate(&mut accumulated, &weights));
            prop_assert!(accumulated.bit_eq(&expected));
        }

        /// Property: the number of trusted pairs never exceeds min(n_s, n_t)
        /// and each node appears in at most one pair.
        #[test]
        fn trusted_pairs_form_partial_matching(seed in 0u64..500, ns in 2usize..10, nt in 2usize..10, d in 2usize..6) {
            let hs = random_embedding(ns, d, seed);
            let ht = random_embedding(nt, d, seed.wrapping_add(1));
            let pairs = sweep_trusted_pairs(&hs, &ht, 3);
            prop_assert!(pairs.len() <= ns.min(nt));
            let mut sources: Vec<usize> = pairs.iter().map(|p| p.0).collect();
            let mut targets: Vec<usize> = pairs.iter().map(|p| p.1).collect();
            sources.dedup();
            targets.sort_unstable();
            targets.dedup();
            prop_assert_eq!(sources.len(), pairs.len());
            prop_assert_eq!(targets.len(), pairs.len());
        }

        /// Property: LISI values stay within [-4, 4] for normalised inputs
        /// (correlations are in [-1, 1], so 2·corr − D_t − D_s ∈ [-4, 4]).
        #[test]
        fn lisi_values_are_bounded(seed in 0u64..500, n in 2usize..8, d in 2usize..5) {
            let hs = random_embedding(n, d, seed);
            let ht = random_embedding(n, d, seed.wrapping_add(7));
            let lisi = lisi_matrix(&hs, &ht, 2);
            prop_assert!(lisi.max_abs() <= 4.0 + 1e-9);
        }
    }
}
