//! One benchmark for the whole engine: four closed-loop Table I traffic
//! mixes against an in-process `presto_cluster::Cluster`.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dashboard --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs half the
//! time untraced and half traced, and prints the per-layer metrics, the
//! span table and the tracing overhead. The last line of standard output
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! Any wrong or failed query makes `correct` false and the exit code 1.
//! `--corrupt-reference` breaks one reference answer on purpose, to show
//! the checking works. See `perfbench/README.md` for the definitions.

mod metrics;
mod oracle;
mod procfs;
mod run;
mod workload;

use metrics::{Counters, Metrics, Summary};
use presto_common::json::Json;
use run::Mode;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{Fixture, Spec};

/// Set-ups per run, `setup_s` being their median: at least
/// `MIN_SETUPS`, and more while they total under `SETUP_BUDGET` (cheap
/// set-ups are short enough for timer and scheduler noise to matter).
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Quiet window after the load stops, for `cpu.idle_cores`.
const QUIET: Duration = Duration::from_secs(1);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    corrupt_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
        corrupt_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--corrupt-reference" => args.corrupt_reference = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

/// Run `f`, returning its result and how many seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64())
}

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn repo_root() -> PathBuf {
    bench_dir()
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

fn main() {
    match run_benchmark() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Returns whether every result was correct.
fn run_benchmark() -> Result<bool, String> {
    let args = parse_args()?;
    let manifest = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    metrics::check_manifest(&manifest)?;
    let spec = workload::spec(&args.workload).ok_or(format!(
        "unknown workload `{}` (one of {:?})",
        args.workload,
        workload::NAMES
    ))?;
    let work = bench_dir()
        .join("work")
        .join(format!("{}-{}", spec.name, std::process::id()));
    let result = measure(&spec, &args, &work);
    std::fs::remove_dir_all(&work).ok();
    result
}

fn measure(spec: &Spec, args: &Args, work: &Path) -> Result<bool, String> {
    // Set up several times; the last fixture is the one measured.
    let mut setup_times = Vec::new();
    let mut fixture: Option<Fixture> = None;
    while setup_times.len() < MIN_SETUPS
        || (setup_times.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64()
            && setup_times.len() < MAX_SETUPS)
    {
        let i = setup_times.len();
        drop(fixture.take());
        let (f, secs) = timed(|| Fixture::build(spec, work.join(format!("setup-{i}"))));
        fixture = Some(f?);
        setup_times.push(secs);
    }
    let mut fixture = fixture.ok_or("no set-up ran")?;
    let setup_s = metrics::median(&setup_times);

    let sequences = workload::sequences(spec, args.seed);
    let (expects, reference_s) = timed(|| fixture.references(&sequences));
    let mut expects = expects?;
    if args.corrupt_reference {
        if let Some(e) = expects.get_mut(&sequences[0][0].sql) {
            e.corrupt();
        }
    }
    let mut cursors = vec![0; sequences.len()];
    let seconds = Duration::from_secs(args.seconds);

    let mut report = Report::new(
        spec,
        args,
        &fixture,
        &setup_times,
        reference_s,
        expects.len(),
    );
    let steal_before = procfs::steal_and_total_ticks();
    let (summary, metric_values) = if !args.trace {
        let w = run::window(
            &fixture,
            &sequences,
            &expects,
            seconds,
            Mode::Timed,
            &mut cursors,
        );
        fixture.add_inserted(&w.inserted);
        let s = Summary::of(spec, &w);
        let m = metrics::end_to_end(spec, &s, setup_s, procfs::peak_rss_mb());
        (s, m)
    } else {
        let half = seconds / 2;
        let before = Counters::take(&fixture);
        let w = run::window(
            &fixture,
            &sequences,
            &expects,
            half,
            Mode::Counters,
            &mut cursors,
        );
        let after = Counters::take(&fixture);
        fixture.add_inserted(&w.inserted);
        let s = Summary::of(spec, &w);
        let idle_cores = {
            let quiet = procfs::ThreadSample::take();
            std::thread::sleep(QUIET);
            procfs::ThreadSample::take().total_since(&quiet) / QUIET.as_secs_f64()
        };
        let traced = run::window(
            &fixture,
            &sequences,
            &expects,
            half,
            Mode::Traced,
            &mut cursors,
        );
        fixture.add_inserted(&traced.inserted);
        let ts = Summary::of(spec, &traced);
        let codec_mb_per_s = codec_throughput(&traced.pages);
        let m = metrics::per_layer(&metrics::LayerInputs {
            fixture: &fixture,
            window: &w,
            summary: &s,
            before: &before,
            after: &after,
            idle_cores,
            traced: &traced,
            traced_summary: &ts,
            codec_mb_per_s,
        });
        let span_file = write_spans(spec, args, &traced.spans)?;
        report.spans = Some((metrics::span_table(&traced.spans), span_file, ts.attempted));
        // The traced window's queries count toward correctness too.
        let mut all = s.clone();
        all.attempted += ts.attempted;
        all.failed += ts.failed;
        all.first_errors.extend(ts.first_errors);
        (all, m)
    };
    let steal_after = procfs::steal_and_total_ticks();
    report.lines.push(format!(
        "  host            {:.1}% of CPU time stolen by the hypervisor while measuring",
        100.0 * (steal_after.0 - steal_before.0) as f64
            / (steal_after.1 - steal_before.1).max(1) as f64
    ));
    let etl_check = fixture.check_etl_tables(&expects);
    drop(fixture);

    report.print(&summary, &metric_values, &etl_check);
    let correct = summary.failed == 0 && etl_check.is_ok();
    let mut failed = summary.failed;
    if etl_check.is_err() {
        failed += 1;
    }
    let metrics_json = metric_values
        .iter()
        .map(|(name, value)| {
            let unit = metrics::unit(name);
            (
                name.to_string(),
                Json::obj([
                    ("value", Json::Num(*value)),
                    ("unit", Json::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    let result = Json::Obj(
        [
            ("correct".to_string(), Json::Bool(correct)),
            (
                "attempted".to_string(),
                Json::Int(summary.attempted.max(1) as i64),
            ),
            ("failed".to_string(), Json::Int(failed as i64)),
            ("metrics".to_string(), Json::Obj(metrics_json)),
        ]
        .into_iter()
        .collect(),
    );
    println!("{}", result.to_string());
    Ok(correct)
}

/// Frame and unframe the result pages of the traced window with the
/// shuffle wire codec; MiB of logical page data per second.
fn codec_throughput(pages: &[presto_page::Page]) -> f64 {
    if pages.is_empty() {
        return 0.0;
    }
    let bytes: usize = pages.iter().map(|p| p.size_in_bytes()).sum();
    let min_bytes = presto_common::Session::default().shuffle_compression_min_bytes;
    let started = Instant::now();
    let mut rounds = 0u32;
    // Repeat to at least 20 ms so the figure is not timer noise.
    while rounds == 0 || started.elapsed() < Duration::from_millis(20) {
        for p in pages {
            let framed = presto_page::frame::frame_page(p, min_bytes);
            std::hint::black_box(presto_page::frame::decode_framed_page(&framed).is_ok());
        }
        rounds += 1;
    }
    bytes as f64 * rounds as f64 / (1024.0 * 1024.0) / started.elapsed().as_secs_f64()
}

/// Write the traced window's spans as a Chrome `trace_event` file.
fn write_spans(spec: &Spec, args: &Args, spans: &[run::Span]) -> Result<PathBuf, String> {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-seed{}.json", spec.name, args.seed));
    let events: Vec<Json> = spans
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::Str(s.name.to_string())),
                ("ph", Json::Str("X".to_string())),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                (
                    "dur",
                    Json::Num(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
                ),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(s.client as i64)),
                ("args", Json::obj([("query", Json::Int(s.query as i64))])),
            ])
        })
        .collect();
    let text = Json::obj([("traceEvents", Json::Arr(events))]).to_string();
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// The commit the benchmark was built from, read from `.git` without
/// running git; "unknown" outside a git checkout.
fn git_commit() -> String {
    let git = repo_root().join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The human-readable report printed before the result line.
struct Report {
    lines: Vec<String>,
    tail: f64,
    spans: Option<(Vec<metrics::SpanRow>, PathBuf, u64)>,
}

impl Report {
    fn new(
        spec: &Spec,
        args: &Args,
        fixture: &Fixture,
        setup_times: &[f64],
        reference_s: f64,
        references: usize,
    ) -> Report {
        let config = fixture.cluster.config();
        let streams: Vec<String> = spec
            .streams
            .iter()
            .map(|s| {
                format!(
                    "{}{}",
                    s.use_case.label(),
                    if s.foreground { "" } else { " (background)" }
                )
            })
            .collect();
        let lines = vec![
            format!("perfbench workload={} seed={} seconds={} trace={}", spec.name, args.seed, args.seconds, u8::from(args.trace)),
            format!("  commit          {}", git_commit()),
            format!("  nproc           {}", procfs::nproc()),
            format!(
                "  cluster         {} workers x {} executor threads, leaf parallelism {}, exchange poll latency {:?}, storage read latency 0",
                config.workers, config.threads_per_worker, config.leaf_parallelism, config.exchange_poll_latency
            ),
            format!(
                "  pools           general {} B, reserved {} B per node{}",
                config.node_memory_bytes,
                config.reserved_pool_bytes,
                if spec.spill { ", spill enabled" } else { "" }
            ),
            format!(
                "  data            ads scale {} ({} rows), TPC-H scale {} (customer/orders/lineitem on hive)",
                spec.ads_scale,
                fixture.ads.len(),
                spec.tpch_scale
            ),
            format!("  clients         {} closed-loop: {}", spec.streams.len(), streams.join(", ")),
            format!(
                "  set-ups         {} in {} s (median {:.3} s)",
                setup_times.len(),
                setup_times.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>().join(", "),
                metrics::median(setup_times)
            ),
            format!(
                "  references      {references} distinct texts in {reference_s:.2} s (doubles within relative {:e})",
                oracle::DOUBLE_REL_TOL
            ),
        ];
        Report {
            lines,
            tail: spec.tail,
            spans: None,
        }
    }

    fn print(&self, s: &Summary, m: &Metrics, etl: &Result<(), String>) {
        for l in &self.lines {
            println!("{l}");
        }
        println!(
            "  tail            p{} over {} foreground samples ({} beyond it)",
            (self.tail * 100.0).round(),
            s.foreground_sorted_ms.len(),
            s.tail_beyond(self.tail),
        );
        println!(
            "  queries         attempted {}, failed or wrong {} (error_pct {:.3} %), {} background samples",
            s.attempted,
            s.failed,
            s.error_pct(),
            s.background_sorted_ms.len()
        );
        for e in &s.first_errors {
            println!("  ERROR           {e}");
        }
        match etl {
            Ok(()) => {}
            Err(e) => println!("  ERROR           ETL read-back: {e}"),
        }
        println!("  metrics (engine `cpu` fields are wall time in quanta and are reported as busy time; CPU is from /proc)");
        for (name, value) in m {
            let unit = metrics::unit(name);
            println!("    {name:<40} {value:>14.4} {unit}");
        }
        if let Some((table, file, queries)) = &self.spans {
            println!(
                "  spans over {queries} traced queries (written to {}):",
                file.display()
            );
            println!(
                "    {:<22} {:>8} {:>14} {:>14} {:>12}",
                "span", "count", "total_ms", "self_ms", "self_us/q"
            );
            for r in table {
                println!(
                    "    {:<22} {:>8} {:>14.3} {:>14.3} {:>12.2}",
                    r.name,
                    r.count,
                    r.total_us / 1e3,
                    r.self_us / 1e3,
                    r.self_us / (*queries).max(1) as f64
                );
            }
        }
    }
}
