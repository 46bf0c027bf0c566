//! The `serve-mixed` workload: one in-process `htc-serve` behind an
//! in-process `htc-fleet` router whose only shard is that same server,
//! driven by an open-loop schedule of warm and cold `/align` requests.
//!
//! The load generator uses two sender threads with one keep-alive
//! connection each: one sends every other request direct, the other the
//! rest through the router.  Latency is measured from each
//! request's scheduled send time, so a stall also charges the requests it
//! delayed.

use crate::probe::{self, ProbeInputs};
use crate::stats::{cpu_ticks, mean, median, mix_seed, percentile, sorted, Metrics};
use crate::trace::{Tracer, ROOT};
use crate::{Args, Outcome};
use htc_core::pipeline::stages;
use htc_core::{AlignmentSession, HtcConfig};
use htc_datasets::{generate_pair, DatasetPair, SyntheticPairConfig};
use htc_fleet::{Router, RouterConfig, RouterMetrics, ShardSet};
use htc_graph::generators::{random_permutation, seeded_rng};
use htc_graph::perturb::{permute_network, remove_edges, GroundTruth};
use htc_graph::AttributedNetwork;
use htc_metrics::alignment::precision_at_q;
use htc_serve::http::{read_response_head, Client};
use htc_serve::json::{self, network_spec, Json};
use htc_serve::{RuntimeMetrics, Server, ServerConfig};
use std::io::Read;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Warm sources, pre-warmed in set-up.
const SOURCES: usize = 4;
/// Fixed pool of seeded targets per warm source.
const TARGETS_PER_SOURCE: usize = 8;
/// Node count of every source and target.
const NODES: usize = 48;
/// Open-loop arrival rate in requests per second: about a third of the
/// closed-loop capacity of this mix (about 175/s on a 2-core machine).  At
/// half the capacity, the CPU steal of a shared host pushed the queue into
/// overload often enough to decide the tail figures.
pub const RATE: f64 = 60.0;
/// Share of requests that bring a never-seen source.
const COLD_SHARE: f64 = 0.10;
const SETUP_REPEATS: usize = 5;
/// Equal slices of the schedule.  The machine's CPU steal (time the
/// hypervisor gave to other guests) is sampled at every slice boundary, and
/// the latency figures pool the requests of the [`KEPT_SLICES`] least-stolen
/// slices: on a shared host, steal bursts otherwise decide the tail.
const SLICES: usize = 5;
const KEPT_SLICES: usize = 3;
/// Budget for one whole exchange before the client gives up.
const RESPONSE_DEADLINE: Duration = Duration::from_secs(30);

/// splitmix64 stream for the schedule's draws.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix_seed(self.0, 0x5e7d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// What a served warm response must equal: the reference alignment's
/// anchors and the bits of their scores.
struct Reference {
    anchors: Vec<usize>,
    score_bits: Vec<u64>,
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Warm(usize),
    Cold(usize),
}

#[derive(Clone, Copy)]
struct Planned {
    at: Duration,
    kind: Kind,
    routed: bool,
}

/// One finished request.  Times are seconds after its scheduled send time.
struct Sample {
    index: usize,
    kind: Kind,
    routed: bool,
    status: u16,
    late: f64,
    send: f64,
    head: f64,
    done: f64,
    /// The response body of a successful warm request, kept for checking.
    body: Option<Vec<u8>>,
}

impl Sample {
    fn ok(&self) -> bool {
        self.status == 200
    }

    /// Latency from the scheduled send time; a failure is a miss (+∞).
    fn latency_ms(&self) -> f64 {
        if self.ok() {
            self.done * 1e3
        } else {
            f64::INFINITY
        }
    }

    fn service_ms(&self) -> f64 {
        (self.done - self.late) * 1e3
    }
}

struct Setup {
    server: Server,
    router: Router,
    cache_dir: PathBuf,
    warm_bodies: Vec<String>,
    references: Vec<Reference>,
    /// Cold request bodies per window (a window never reuses a cold source).
    cold_bodies: [Vec<String>; 2],
    p1: f64,
    p10: f64,
    /// First warm pair, for the kernel probes.
    probe_pair: (AttributedNetwork, AttributedNetwork),
}

impl Setup {
    fn teardown(self) {
        self.router.shutdown();
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

fn align_body(source_spec: &str, target: &AttributedNetwork) -> String {
    format!(
        "{{\"preset\":\"fast\",\"source\":{source_spec},\"target\":{}}}",
        network_spec(target)
    )
}

/// A seeded perturbed, relabelled copy of `source` with its ground truth.
fn perturbed_target(source: &AttributedNetwork, seed: u64) -> (AttributedNetwork, GroundTruth) {
    let mut rng = seeded_rng(seed);
    let noisy = AttributedNetwork::new(
        remove_edges(source.graph(), 0.1, &mut rng),
        source.attributes().clone(),
    )
    .expect("node count unchanged");
    let perm = random_permutation(source.num_nodes(), &mut rng);
    (
        permute_network(&noisy, &perm),
        GroundTruth::from_permutation(&perm),
    )
}

fn tiny_pair(seed: u64) -> DatasetPair {
    generate_pair(&SyntheticPairConfig::tiny(NODES).with_seed(seed))
}

fn setup(args: &Args, cold_per_window: usize, round: usize) -> Setup {
    let config = HtcConfig::fast();
    let mut warm_bodies = Vec::new();
    let mut references = Vec::new();
    let (mut p1, mut p10) = (Vec::new(), Vec::new());
    let mut probe_pair = None;
    for s in 0..SOURCES {
        let base = tiny_pair(mix_seed(args.seed, 100 + s as u64));
        let source = base.source.clone();
        let mut targets = vec![(base.target, base.ground_truth)];
        for t in 1..TARGETS_PER_SOURCE {
            targets.push(perturbed_target(
                &source,
                mix_seed(args.seed, 1000 + (s * TARGETS_PER_SOURCE + t) as u64),
            ));
        }
        let networks: Vec<AttributedNetwork> = targets.iter().map(|(t, _)| t.clone()).collect();
        let results = AlignmentSession::new(config.clone(), &source)
            .and_then(|mut session| session.align_many(&networks))
            .expect("generated pairs satisfy the input contract");
        let source_spec = network_spec(&source);
        for ((target, truth), result) in targets.iter().zip(&results) {
            warm_bodies.push(align_body(&source_spec, target));
            let anchors = result.predicted_anchors();
            let score_bits = anchors
                .iter()
                .enumerate()
                .map(|(s, &t)| result.score(s, t).to_bits())
                .collect();
            references.push(Reference {
                anchors,
                score_bits,
            });
            p1.push(precision_at_q(result.alignment(), truth, 1));
            p10.push(precision_at_q(result.alignment(), truth, 10));
        }
        if probe_pair.is_none() {
            probe_pair = Some((source, networks[0].clone()));
        }
    }
    let cold_bodies = [0u64, 1].map(|window| {
        (0..cold_per_window)
            .map(|k| {
                let pair = tiny_pair(mix_seed(args.seed, 10_000 + window * 100_000 + k as u64));
                align_body(&network_spec(&pair.source), &pair.target)
            })
            .collect()
    });

    let cache_dir =
        Path::new(crate::OUT_DIR).join(format!("serve-cache-{}-{round}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    std::fs::create_dir_all(&cache_dir).expect("create the spill directory");
    let server = Server::start(ServerConfig {
        workers: args.nproc,
        cache_dir: Some(cache_dir.clone()),
        ..ServerConfig::default()
    })
    .expect("start htc-serve");
    let shards = Arc::new(ShardSet::new(1));
    shards.incarnate(0, server.addr(), None);
    let router = Router::start(
        RouterConfig {
            workers: args.nproc,
            ..RouterConfig::default()
        },
        shards,
    )
    .expect("start the htc-fleet router");
    // Warm every pool pair direct and routed: the sources train once, the
    // router's upstream pool opens its connection.
    for addr in [server.addr(), router.addr()] {
        let mut client = Client::connect(addr).expect("connect for warm-up");
        for body in &warm_bodies {
            let response = client
                .request("POST", "/align", body)
                .expect("warm-up exchange");
            assert_eq!(response.status, 200, "warm-up: {}", response.body_str());
        }
    }
    Setup {
        server,
        router,
        cache_dir,
        warm_bodies,
        references,
        cold_bodies,
        p1: mean(&p1),
        p10: mean(&p10),
        probe_pair: probe_pair.expect("at least one source"),
    }
}

/// The open-loop schedule: `RATE` requests per second for `seconds`,
/// exactly `COLD_SHARE` of them cold (seeded positions), warm ones drawing a
/// seeded pool target.  Requests alternate between the direct and the
/// routed connection, so each connection's arrivals stay evenly spaced: with
/// one connection per route, a per-request coin put consecutive requests on
/// one connection half a slot apart, and the measured tail was then the
/// generator's own head-of-line queueing behind cold requests.
fn schedule(seed: u64, seconds: f64, pool: usize) -> Vec<Planned> {
    let n = ((RATE * seconds).round() as usize).max(1);
    let mut draws = Draws(mix_seed(seed, 7));
    let cold = (n as f64 * COLD_SHARE).round() as usize;
    let mut is_cold: Vec<bool> = (0..n).map(|i| i < cold).collect();
    for i in (1..n).rev() {
        is_cold.swap(i, draws.below(i + 1));
    }
    let mut next_cold = 0;
    is_cold
        .iter()
        .enumerate()
        .map(|(i, &cold)| Planned {
            at: Duration::from_secs_f64(i as f64 / RATE),
            kind: if cold {
                next_cold += 1;
                Kind::Cold(next_cold - 1)
            } else {
                Kind::Warm(draws.below(pool))
            },
            routed: i % 2 == 1,
        })
        .collect()
}

/// Instants of one exchange, for the send/head/body spans.
struct Exchange {
    status: u16,
    sent: Instant,
    head: Instant,
    done: Instant,
    body: Vec<u8>,
    close: bool,
}

fn exchange(client: &mut Client, body: &str) -> Result<Exchange, String> {
    let deadline = Instant::now() + RESPONSE_DEADLINE;
    client
        .send("POST", "/align", body)
        .map_err(|e| format!("send: {e}"))?;
    let sent = Instant::now();
    let head = read_response_head(client.reader_mut(), deadline)?;
    let head_at = Instant::now();
    let length: usize = head
        .header("content-length")
        .and_then(|v| v.parse().ok())
        .ok_or("response without Content-Length")?;
    let mut bytes = vec![0u8; length];
    client
        .reader_mut()
        .read_exact(&mut bytes)
        .map_err(|e| format!("body: {e}"))?;
    Ok(Exchange {
        status: head.status,
        sent,
        head: head_at,
        done: Instant::now(),
        body: bytes,
        close: head
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close")),
    })
}

/// One sender thread: its share of the schedule over one keep-alive
/// connection, reconnecting after a failure.
fn send_loop(
    addr: SocketAddr,
    plan: Vec<(usize, Planned, String)>,
    start: Instant,
    tracer: Option<Arc<Tracer>>,
) -> Vec<Sample> {
    let mut client: Option<Client> = None;
    let mut samples = Vec::with_capacity(plan.len());
    for (index, planned, body) in plan {
        let due = start + planned.at;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let begin = Instant::now();
        if client.is_none() {
            client = Client::connect(addr).ok();
        }
        let result = match client.as_mut() {
            Some(c) => exchange(c, &body),
            None => Err("connect failed".into()),
        };
        let secs = |t: Instant| t.duration_since(due).as_secs_f64();
        let sample = match result {
            Ok(x) => {
                if let Some(tracer) = &tracer {
                    let request = index as u64 + 1;
                    let id = tracer.id();
                    tracer.record(id, ROOT, request, "request", due, x.done);
                    tracer.record(tracer.id(), id, request, "late", due, begin);
                    tracer.record(tracer.id(), id, request, "send", begin, x.sent);
                    tracer.record(tracer.id(), id, request, "head", x.sent, x.head);
                    tracer.record(tracer.id(), id, request, "body", x.head, x.done);
                }
                if x.close || x.status != 200 {
                    client = None;
                }
                let keep = x.status == 200 && matches!(planned.kind, Kind::Warm(_));
                Sample {
                    index,
                    kind: planned.kind,
                    routed: planned.routed,
                    status: x.status,
                    late: secs(begin),
                    send: x.sent.duration_since(begin).as_secs_f64(),
                    head: x.head.duration_since(x.sent).as_secs_f64(),
                    done: secs(x.done),
                    body: keep.then_some(x.body),
                }
            }
            Err(e) => {
                eprintln!("[perfbench] request {index} failed: {e}");
                client = None;
                Sample {
                    index,
                    kind: planned.kind,
                    routed: planned.routed,
                    status: 0,
                    late: secs(begin),
                    send: 0.0,
                    head: 0.0,
                    done: secs(Instant::now()),
                    body: None,
                }
            }
        };
        samples.push(sample);
    }
    samples
}

/// Counters read from `/stats`, the server's runtime metrics and the
/// router, at one instant.
struct Snapshot {
    stats: Json,
    runtime: [u64; 8],
    router: [u64; 3],
}

fn snapshot(setup: &Setup) -> Snapshot {
    let mut client = Client::connect(setup.server.addr()).expect("connect for /stats");
    let response = client.request("GET", "/stats", "").expect("scrape /stats");
    let stats = json::parse(response.body_str()).expect("/stats is JSON");
    let r: Arc<RuntimeMetrics> = setup.server.metrics();
    let f: Arc<RouterMetrics> = setup.router.metrics();
    Snapshot {
        stats,
        runtime: [
            r.total_requests.get(),
            r.total_connections.get(),
            r.reactor_wakeups.get(),
            r.shed_connections.get(),
            r.rate_limited.get(),
            r.degraded_responses.get(),
            r.deadline_expired.get(),
            r.worker_panics.get(),
        ],
        router: [f.proxied_ok.get(), f.failovers.get(), f.bad_gateway.get()],
    }
}

impl Snapshot {
    fn num(&self, section: &str, key: &str) -> f64 {
        self.stats
            .get(section)
            .and_then(|s| s.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }

    /// Seconds per stage name over both stage-timer views.
    fn stage_seconds(&self, stage: &str) -> f64 {
        ["request_stages", "shared_stages"]
            .iter()
            .filter_map(|view| self.stats.get(view).and_then(Json::as_arr))
            .flatten()
            .filter(|entry| entry.get("stage").and_then(Json::as_str) == Some(stage))
            .filter_map(|entry| entry.get("seconds").and_then(Json::as_f64))
            .sum()
    }

    fn request_stage_total(&self) -> f64 {
        self.stats
            .get("request_stages")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|entry| entry.get("seconds").and_then(Json::as_f64))
            .sum()
    }
}

/// One measured run of the schedule.
struct Measured {
    /// In schedule order.
    samples: Vec<Sample>,
    before: Snapshot,
    after: Snapshot,
    /// CPU steal share of each schedule slice.
    slice_steal: Vec<f64>,
}

impl Measured {
    /// The samples of the [`KEPT_SLICES`] least-stolen slices.
    fn kept(&self) -> Vec<&Sample> {
        let n = self.samples.len();
        let mut order: Vec<usize> = (0..self.slice_steal.len()).collect();
        order.sort_by(|&a, &b| self.slice_steal[a].total_cmp(&self.slice_steal[b]));
        let mut kept: Vec<usize> = order.into_iter().take(KEPT_SLICES).collect();
        kept.sort_unstable();
        kept.into_iter()
            .flat_map(|k| &self.samples[k * n / SLICES..(k + 1) * n / SLICES])
            .collect()
    }
}

/// Runs the schedule once (`round` picks its cold sources).
fn measure(setup: &Setup, plan: &[Planned], round: usize, tracer: Option<Arc<Tracer>>) -> Measured {
    let before = snapshot(setup);
    let mut direct = Vec::new();
    let mut routed = Vec::new();
    for (index, planned) in plan.iter().enumerate() {
        let body = match planned.kind {
            Kind::Warm(p) => setup.warm_bodies[p].clone(),
            Kind::Cold(c) => setup.cold_bodies[round][c].clone(),
        };
        let lane = if planned.routed {
            &mut routed
        } else {
            &mut direct
        };
        lane.push((index, *planned, body));
    }
    let start = Instant::now() + Duration::from_millis(20);
    let length = plan.len() as f64 / RATE;
    let mut ticks = Vec::with_capacity(SLICES + 1);
    let mut samples = std::thread::scope(|scope| {
        let lanes = [(setup.server.addr(), direct), (setup.router.addr(), routed)];
        let handles: Vec<_> = lanes
            .into_iter()
            .map(|(addr, lane)| {
                let tracer = tracer.clone();
                scope.spawn(move || send_loop(addr, lane, start, tracer))
            })
            .collect();
        for k in 0..=SLICES {
            let boundary = start + Duration::from_secs_f64(length * k as f64 / SLICES as f64);
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            ticks.push(cpu_ticks().unwrap_or((0, 0)));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sender thread panicked"))
            .collect::<Vec<Sample>>()
    });
    samples.sort_by_key(|s| s.index);
    let after = snapshot(setup);
    let slice_steal = ticks
        .windows(2)
        .map(|w| w[1].0.saturating_sub(w[0].0) as f64 / w[1].1.saturating_sub(w[0].1).max(1) as f64)
        .collect();
    Measured {
        samples,
        before,
        after,
        slice_steal,
    }
}

/// Checks every successful warm response against its reference, bit for
/// bit; returns the indices of mismatching samples.
fn verify(samples: &mut [Sample], plan: &[Planned], setup: &Setup, corrupt: bool) -> Vec<usize> {
    let mut bad = Vec::new();
    let mut corrupted = !corrupt;
    for sample in samples.iter_mut() {
        let (Some(body), Kind::Warm(p)) = (sample.body.take(), plan[sample.index].kind) else {
            continue;
        };
        let mut text = String::from_utf8(body).unwrap_or_default();
        if !corrupted {
            // Test hook: damage one served score the way a wrong kernel would.
            if let Some(pos) = text.find("\"anchors\":[[") {
                let digit = text[pos..].find(|c: char| c.is_ascii_digit() && c != '0');
                if let Some(offset) = digit.map(|d| pos + d) {
                    text.replace_range(offset..offset + 1, "0");
                    corrupted = true;
                }
            }
        }
        if !matches_reference(&text, &setup.references[p]) {
            bad.push(sample.index);
            sample.status = 0;
        }
    }
    bad
}

fn matches_reference(body: &str, reference: &Reference) -> bool {
    let Ok(parsed) = json::parse(body) else {
        return false;
    };
    let Some(rows) = parsed.get("anchors").and_then(Json::as_arr) else {
        return false;
    };
    rows.len() == reference.anchors.len()
        && rows.iter().enumerate().all(|(s, row)| {
            let row = row.as_arr().unwrap_or(&[]);
            row.len() == 3
                && row[0].as_usize() == Some(s)
                && row[1].as_usize() == Some(reference.anchors[s])
                && row[2].as_f64().map(f64::to_bits) == Some(reference.score_bits[s])
        })
}

fn class_name(kind: Kind, routed: bool) -> &'static str {
    match (kind, routed) {
        (Kind::Warm(_), false) => "warm_direct",
        (Kind::Warm(_), true) => "warm_routed",
        (Kind::Cold(_), false) => "cold_direct",
        (Kind::Cold(_), true) => "cold_routed",
    }
}

fn latencies(samples: &[&Sample], class: &str) -> Vec<f64> {
    sorted(
        samples
            .iter()
            .filter(|s| class_name(s.kind, s.routed) == class)
            .map(|s| s.latency_ms())
            .collect(),
    )
}

fn e2e_metrics(measured: &Measured, setup: &Setup, m: &mut Metrics) {
    let all = &measured.samples;
    let kept = measured.kept();
    let ok = all.iter().filter(|s| s.ok()).count();
    let kept_service: f64 = kept
        .iter()
        .filter(|s| s.ok())
        .map(|s| s.service_ms() / 1e3)
        .sum();
    // Scaled from the kept slices to the whole schedule.
    m.set(
        "wall_s",
        kept_service * all.len() as f64 / kept.len().max(1) as f64,
        "s",
    );
    m.set("p_at_1", setup.p1, "ratio");
    m.set("p_at_10", setup.p10, "ratio");
    m.set("ok_ratio", ok as f64 / all.len().max(1) as f64, "ratio");
    for (name, class, p) in [
        ("warm_p50_ms", "warm_direct", 0.5),
        ("tail.warm_p95_ms", "warm_direct", 0.95),
        ("cold_p50_ms", "cold_direct", 0.5),
        ("tail.cold_p90_ms", "cold_direct", 0.9),
        ("routed_warm_p50_ms", "warm_routed", 0.5),
        ("tail.routed_warm_p95_ms", "warm_routed", 0.95),
    ] {
        m.set(name, percentile(&latencies(&kept, class), p), "ms");
    }
}

/// Attempted/succeeded/failed per class, as metrics and a log line.
fn class_counts(samples: &[Sample], m: &mut Metrics) {
    for class in ["warm_direct", "warm_routed", "cold_direct", "cold_routed"] {
        let of: Vec<&Sample> = samples
            .iter()
            .filter(|s| class_name(s.kind, s.routed) == class)
            .collect();
        let failed = of.iter().filter(|s| !s.ok()).count();
        m.set(format!("serve.{class}.attempted"), of.len() as f64, "count");
        m.set(
            format!("serve.{class}.succeeded"),
            (of.len() - failed) as f64,
            "count",
        );
        m.set(format!("serve.{class}.failed"), failed as f64, "count");
        eprintln!(
            "[perfbench] {class}: attempted {}, succeeded {}, failed {failed}",
            of.len(),
            of.len() - failed
        );
    }
}

fn layer_metrics(measured: &Measured, m: &mut Metrics) {
    let Measured {
        samples,
        before,
        after,
        ..
    } = measured;
    let warm: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.ok() && class_name(s.kind, s.routed) == "warm_direct")
        .collect();
    let p50 = |f: &dyn Fn(&Sample) -> f64| {
        percentile(&sorted(warm.iter().map(|s| f(s) * 1e3).collect()), 0.5)
    };
    m.set("serve.send_ms_p50", p50(&|s| s.send), "ms");
    m.set("serve.head_ms_p50", p50(&|s| s.head), "ms");
    m.set(
        "serve.body_ms_p50",
        p50(&|s| s.done - s.late - s.send - s.head),
        "ms",
    );

    let delta = |section: &str, key: &str| after.num(section, key) - before.num(section, key);
    let align_ok = delta("requests", "align_ok").max(1.0);
    let pipeline_ms = (after.request_stage_total() - before.request_stage_total()) * 1e3 / align_ok;
    let ok: Vec<f64> = samples
        .iter()
        .filter(|s| s.ok())
        .map(Sample::service_ms)
        .collect();
    m.set("serve.pipeline_ms_mean", pipeline_ms, "ms");
    m.set("serve.unaccounted_ms_mean", mean(&ok) - pipeline_ms, "ms");
    m.set(
        "serve.batch_size_mean",
        delta("batching", "batched_requests") / delta("batching", "batches").max(1.0),
        "count",
    );
    let hits = delta("cache", "hits");
    m.set(
        "serve.cache_hit_rate",
        hits / (hits + delta("cache", "misses")).max(1.0),
        "ratio",
    );
    m.set("serve.evictions", delta("cache", "evictions"), "count");
    m.set("serve.spills", delta("cache", "spills"), "count");
    m.set(
        "serve.queue_high_water",
        after.num("runtime", "queue_high_water"),
        "count",
    );
    let d = |i: usize| after.runtime[i].saturating_sub(before.runtime[i]) as f64;
    m.set("serve.reuse_ratio", d(0) / d(1).max(1.0), "ratio");
    m.set(
        "serve.reactor_wakeups_per_req",
        d(2) / d(0).max(1.0),
        "ratio",
    );
    m.set("serve.shed", d(3), "count");
    m.set("serve.rate_limited", d(4), "count");
    m.set("serve.degraded", d(5), "count");
    m.set("serve.deadline_expired", d(6), "count");
    m.set("serve.worker_panics", d(7), "count");
    for (i, name) in ["proxied_ok", "failovers", "bad_gateway"]
        .iter()
        .enumerate()
    {
        m.set(
            format!("fleet.{name}"),
            after.router[i].saturating_sub(before.router[i]) as f64,
            "count",
        );
    }
    let late = sorted(samples.iter().map(|s| s.late * 1e3).collect());
    m.set("gen.late_p99_ms", percentile(&late, 0.99), "ms");

    let mut staged = 0.0;
    for (name, stage) in [
        ("orbit_counting", stages::ORBIT_COUNTING),
        ("laplacian", stages::LAPLACIAN),
        ("training", stages::TRAINING),
        ("finetune", stages::FINE_TUNING),
        ("integration", stages::INTEGRATION),
    ] {
        let secs = (after.stage_seconds(stage) - before.stage_seconds(stage)).max(0.0);
        staged += secs;
        m.set(format!("stage.{name}_s"), secs, "s");
    }
    let service: f64 = ok.iter().sum::<f64>() / 1e3;
    m.set("stage.other_s", (service - staged).max(0.0), "s");
}

pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    if args.nproc < 2 {
        outcome.fail("serve-mixed needs at least 2 CPUs (one sender thread per route)".into());
        return outcome;
    }
    let plans = [0u64, 1].map(|w| {
        schedule(
            mix_seed(args.seed, w),
            args.seconds,
            SOURCES * TARGETS_PER_SOURCE,
        )
    });
    let cold = plans
        .iter()
        .map(|p| p.iter().filter(|x| matches!(x.kind, Kind::Cold(_))).count())
        .max()
        .unwrap_or(0);
    let mut setup_secs = Vec::new();
    let mut ready = None;
    for round in 0..SETUP_REPEATS {
        let start = Instant::now();
        let built = setup(args, cold, round);
        setup_secs.push(start.elapsed().as_secs_f64());
        if let Some(previous) = ready.replace(built) {
            Setup::teardown(previous);
        }
    }
    let setup = ready.expect("at least one set-up");
    outcome.e2e.set("setup_s", median(&setup_secs), "s");

    let mut measured = measure(&setup, &plans[0], 0, None);
    let inject = args.inject.as_deref() == Some("served-anchor");
    let bad = verify(&mut measured.samples, &plans[0], &setup, inject);
    e2e_metrics(&measured, &setup, &mut outcome.e2e);
    let tails = outcome.e2e.take_prefix("tail.");
    outcome.e2e.set(
        "peak_rss_mb",
        htc_metrics::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0),
        "MiB",
    );
    eprintln!(
        "[perfbench] CPU steal per slice: {:.1?}% (latencies pool the {KEPT_SLICES} lowest)",
        measured
            .slice_steal
            .iter()
            .map(|s| s * 100.0)
            .collect::<Vec<_>>()
    );
    let mut counts = tails;
    class_counts(&measured.samples, &mut counts);
    layer_metrics(&measured, &mut counts);
    outcome.attempted = measured.samples.len();
    outcome.failed = measured.samples.iter().filter(|s| !s.ok()).count();
    if !bad.is_empty() {
        outcome.fail(format!(
            "{} served warm responses differ from the reference alignment (first: request {})",
            bad.len(),
            bad[0]
        ));
    }

    if args.trace {
        let tracer = Arc::new(Tracer::new());
        let mut traced = measure(&setup, &plans[1], 1, Some(tracer.clone()));
        let bad = verify(&mut traced.samples, &plans[1], &setup, false);
        if !bad.is_empty() {
            outcome.fail(format!(
                "{} traced warm responses differ from the reference",
                bad.len()
            ));
        }
        let mut layers = Metrics::default();
        class_counts(&traced.samples, &mut layers);
        layer_metrics(&traced, &mut layers);
        let mut traced_e2e = Metrics::default();
        e2e_metrics(&traced, &setup, &mut traced_e2e);
        let hop = |name: &str, direct: &str| {
            traced_e2e.get(name).unwrap_or(f64::NAN) - traced_e2e.get(direct).unwrap_or(f64::NAN)
        };
        layers.set(
            "fleet.hop_ms_p50",
            hop("routed_warm_p50_ms", "warm_p50_ms"),
            "ms",
        );
        layers.set(
            "fleet.hop_ms_p95",
            hop("tail.routed_warm_p95_ms", "tail.warm_p95_ms"),
            "ms",
        );
        let warm_service = |m: &Measured| {
            median(
                &m.kept()
                    .iter()
                    .filter(|x| x.ok() && class_name(x.kind, x.routed) == "warm_direct")
                    .map(|x| x.service_ms())
                    .collect::<Vec<_>>(),
            )
        };
        layers.set(
            "trace.overhead_ratio",
            warm_service(&traced) / warm_service(&measured) - 1.0,
            "ratio",
        );
        layers.extend(traced_e2e.take_prefix("tail."));
        let (source, target) = &setup.probe_pair;
        layers.extend(probe::run(&probe_inputs(source, target)));
        outcome.layers = layers;
        outcome.tracer = Some(tracer);
    } else {
        outcome.extra = counts;
    }
    Setup::teardown(setup);
    outcome
}

/// Probe inputs at the tiny pool shapes: a staged pairwise alignment of the
/// first warm pair under the `fast` preset, in process.
fn probe_inputs(source: &AttributedNetwork, target: &AttributedNetwork) -> ProbeInputs {
    let config = HtcConfig::fast();
    let mut session = AlignmentSession::new(config.clone(), source).expect("valid pair");
    let mut pair = session.begin(target).expect("valid pair");
    let laplacian = pair.propagators().expect("propagators").1.laplacians()[0].clone();
    let encoder = pair.train().expect("training").encoder().clone();
    let features = pair.target().attributes().clone();
    let refined = pair.refine().expect("refinement");
    let first = &refined.refinements()[0];
    ProbeInputs {
        features,
        laplacian,
        encoder,
        graph: target.graph().clone(),
        lisi_source: first.source_embedding.clone(),
        lisi_target: first.target_embedding.clone(),
        nearest: config.nearest_neighbors,
        top_k: config.top_k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_evenly_spaced_and_alternating() {
        let plan = schedule(5, 10.0, 32);
        assert_eq!(plan.len(), 600);
        let cold = plan
            .iter()
            .filter(|p| matches!(p.kind, Kind::Cold(_)))
            .count();
        assert_eq!(cold, 60);
        for (i, p) in plan.iter().enumerate() {
            assert_eq!(p.routed, i % 2 == 1);
            assert!((p.at.as_secs_f64() - i as f64 / RATE).abs() < 1e-9);
        }
        let kinds = |plan: &[Planned]| plan.iter().map(|p| p.kind).collect::<Vec<_>>();
        assert!(kinds(&plan) == kinds(&schedule(5, 10.0, 32)));
        assert!(kinds(&plan) != kinds(&schedule(6, 10.0, 32)));
    }

    #[test]
    fn served_anchors_must_match_the_reference_bit_for_bit() {
        let reference = Reference {
            anchors: vec![1, 0],
            score_bits: vec![0.1f64.to_bits(), 0.25f64.to_bits()],
        };
        assert!(matches_reference(
            "{\"anchors\":[[0,1,0.1],[1,0,0.25]]}",
            &reference
        ));
        // One ulp off, a swapped anchor, a missing row.
        let next_up = f64::from_bits(0.1f64.to_bits() + 1);
        let off = format!("{{\"anchors\":[[0,1,{next_up}],[1,0,0.25]]}}");
        assert!(!matches_reference(&off, &reference));
        assert!(!matches_reference(
            "{\"anchors\":[[0,0,0.1],[1,0,0.25]]}",
            &reference
        ));
        assert!(!matches_reference("{\"anchors\":[[0,1,0.1]]}", &reference));
    }
}
