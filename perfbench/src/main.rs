//! The repository benchmark: runs one workload, checks its outputs, and
//! prints its metrics as the last line of standard output.
//!
//! ```text
//! python3 perfbench/run.py --workload fig8-small --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `run.py` builds this binary and runs each workload in a process of its
//! own, which sets `HTC_NUM_THREADS` (1 for `fig8-small`, the CPU count
//! otherwise) before the thread pool's first use.  Metric names and
//! units are read from `BENCHMARK.json` in the working directory; with
//! `--trace 0` the printed metrics are exactly its `end_to_end` list, with
//! `--trace 1` exactly its `per_layer` list (a layer a workload never
//! exercises reads 0).

mod batch;
mod probe;
mod serve;
mod stats;
mod trace;

use stats::Metrics;
use std::path::Path;
use std::sync::Arc;
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["fig8-small", "large-20k", "serve-mixed"];
const USAGE: &str = "usage: perfbench --workload <fig8-small|large-20k|serve-mixed> --seed <n> \
--seconds <s> --trace <0|1> [--inject <anchor-hash|served-anchor|p1-floor>]";
/// Results, spans and the serving workload's spill directory, relative to
/// the checkout root.
pub const OUT_DIR: &str = ".bench_out";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Test hook: corrupt one output so a correctness gate must fire.
    pub inject: Option<String>,
    /// The workload's P@1 floor from `perfbench/gates.json` (0 if none).
    pub p1_floor: f64,
    pub nproc: usize,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub e2e: Metrics,
    pub layers: Metrics,
    /// Untraced-run extras kept in the results file (per-class counts).
    pub extra: Metrics,
    pub attempted: usize,
    pub failed: usize,
    /// Correctness-gate failures; any makes the run exit non-zero.
    pub failures: Vec<String>,
    pub tracer: Option<Arc<Tracer>>,
    pub anchor_hash: Option<u64>,
}

impl Outcome {
    pub fn fail(&mut self, message: String) {
        eprintln!("[perfbench] gate failed: {message}");
        self.failures.push(message);
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        inject: None,
        p1_floor: 0.0,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let mut seen = [false; 4];
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => {
                args.workload = value;
                seen[0] = true;
            }
            "--seed" => {
                args.seed = value.parse().map_err(|_| bad("expected an integer"))?;
                seen[1] = true;
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("expected a positive number"))?;
                seen[2] = true;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
                seen[3] = true;
            }
            "--inject"
                if ["anchor-hash", "served-anchor", "p1-floor"].contains(&value.as_str()) =>
            {
                args.inject = Some(value);
            }
            _ => return Err(bad("unknown flag or value")),
        }
    }
    if seen.contains(&false) {
        return Err("--workload, --seed, --seconds and --trace are required".into());
    }
    args.p1_floor = p1_floor(&args.workload)?;
    Ok(args)
}

fn read_json(path: &str) -> Result<htc_serve::json::Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    htc_serve::json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn p1_floor(workload: &str) -> Result<f64, String> {
    Ok(read_json("perfbench/gates.json")?
        .get("p1_floor")
        .and_then(|floors| floors.get(workload))
        .and_then(|floor| floor.as_f64())
        .unwrap_or(0.0))
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Result<Vec<(String, String)>, String> {
    let root = read_json("BENCHMARK.json")?;
    let entries = root
        .get(list)
        .and_then(|l| l.as_arr())
        .ok_or_else(|| format!("BENCHMARK.json has no {list} list"))?;
    entries
        .iter()
        .map(|e| {
            let field = |k: &str| e.get(k).and_then(|v| v.as_str()).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("malformed {list} entry"))
        })
        .collect()
}

/// The metrics to print: exactly the declared ones, with the declared
/// units.  A declared per-layer metric the workload never touched reads 0;
/// a missing end-to-end metric or an undeclared name is a benchmark bug.
fn conform(metrics: &Metrics, list: &str, fill_zero: bool) -> Result<Metrics, String> {
    let declared = declared(list)?;
    let mut out = Metrics::default();
    for (name, unit) in &declared {
        match metrics.get_with_unit(name) {
            Some((value, got)) if got == unit => out.set(name.clone(), value, unit.clone()),
            Some((_, got)) => return Err(format!("{name}: unit {got} but declared {unit}")),
            None if fill_zero => out.set(name.clone(), 0.0, unit.clone()),
            None => return Err(format!("workload did not measure {name}")),
        }
    }
    if let Some(name) = metrics
        .names()
        .find(|n| !declared.iter().any(|(d, _)| d == n))
    {
        return Err(format!("{name} is not declared in BENCHMARK.json ({list})"));
    }
    Ok(out)
}

fn env_header(args: &Args, threads: usize) -> String {
    format!(
        "{{\"workload\": \"{}\", \"nproc\": {}, \"threads\": {threads}, \"isa\": \"{}\", \
         \"commit\": \"{}\"}}",
        args.workload,
        args.nproc,
        htc_linalg::active_isa().name(),
        std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // The pool's size is fixed at its first use, so the thread count is set
    // here, before anything touches the pool.
    let threads = if args.workload == "fig8-small" {
        1
    } else {
        args.nproc
    };
    std::env::set_var("HTC_NUM_THREADS", threads.to_string());
    assert_eq!(htc_linalg::parallel::num_threads(), threads);
    let out_dir = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("error: create {OUT_DIR}: {e}");
        std::process::exit(2);
    }
    let env = env_header(&args, threads);
    println!("# env {env}");

    let cpu_before = stats::cpu_ticks();
    let outcome = match args.workload.as_str() {
        "serve-mixed" => serve::run(&args),
        _ => batch::run(&args),
    };
    // Share of the machine's CPU time the hypervisor gave to someone else
    // during the run: a run taken while it was high measured the neighbours.
    let steal = match (cpu_before, stats::cpu_ticks()) {
        (Some((steal0, total0)), Some((steal1, total1))) if total1 > total0 => {
            steal1.saturating_sub(steal0) as f64 / (total1 - total0) as f64
        }
        _ => 0.0,
    };
    eprintln!(
        "[perfbench] CPU steal during the run: {:.1}%",
        steal * 100.0
    );
    let printed = if args.trace {
        conform(&outcome.layers, "per_layer", true)
    } else {
        conform(&outcome.e2e, "end_to_end", false)
    };
    let printed = match printed {
        Ok(printed) => printed,
        Err(e) if outcome.failures.is_empty() => {
            eprintln!("error: {e}");
            std::process::exit(3);
        }
        // A failed gate already decides the exit code; print nothing partial.
        Err(_) => std::process::exit(1),
    };
    if let Some(tracer) = &outcome.tracer {
        let path = out_dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("warning: write {}: {e}", path.display());
        } else {
            eprintln!("[perfbench] spans written to {}", path.display());
        }
    }
    let record = format!(
        "{{\"env\": {env}, \"seed\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \
         \"failed\": {}, \"failures\": {:?}, \"anchor_hash\": \"{}\", \"steal_share\": {steal:.4}, \
         \"e2e\": {}, \"layers\": {}, \"extra\": {}}}\n",
        args.seed,
        u8::from(args.trace),
        outcome.failures.is_empty(),
        outcome.attempted,
        outcome.failed,
        outcome.failures,
        outcome
            .anchor_hash
            .map_or_else(String::new, |h| format!("{h:016x}")),
        outcome.e2e.to_json(),
        outcome.layers.to_json(),
        outcome.extra.to_json(),
    );
    let results = out_dir.join("results.jsonl");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&results)
        .and_then(|mut f| std::io::Write::write_all(&mut f, record.as_bytes()));
    if let Err(e) = appended {
        eprintln!("warning: append {}: {e}", results.display());
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failures.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        printed.to_json()
    );
    if !outcome.failures.is_empty() {
        std::process::exit(1);
    }
}
