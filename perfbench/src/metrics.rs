//! Metric definitions and their computation from a window's samples and
//! the counters the engine exports.
//!
//! Every name and unit printed is listed here, and `BENCHMARK.json` must
//! list exactly the same ones (checked at start-up by `check_manifest`).

use crate::procfs::{self, Role, ThreadSample};
use crate::run::{LayerSample, Outcome, Span, WindowOut, OP_CLASSES};
use crate::workload::{Fixture, Spec};
use presto_cluster::{ClusterSnapshot, DynamicFilterMetrics, FusionMetrics};
use presto_common::json::Json;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run: (name, unit).
pub const END_TO_END: [(&str, &str); 8] = [
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("bg_latency_p50_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("rows_per_s", "rows/s"),
    ("cpu_ms_per_query", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Spans the traced window records, in the order a query passes them.
pub const SPANS: [&str; 9] = [
    "workload.next_query",
    "sql.parse",
    "planner.plan",
    "cluster.execute",
    "cluster.queued",
    "cluster.planning",
    "cluster.executing",
    "page.rows",
    "bench.verify",
];

/// Per-layer metrics, printed by every traced run: (name, unit).
pub const PER_LAYER: [(&str, &str); 54] = [
    ("sql.parse_us", "us"),
    ("planner.plan_us", "us"),
    ("cluster.queued_ms_p50", "ms"),
    ("cluster.planning_ms_p50", "ms"),
    ("cluster.executing_ms_p50", "ms"),
    ("client.handoff_ms", "ms"),
    ("cpu.coordinator_ms_per_query", "ms"),
    ("cpu.executor_ms_per_query", "ms"),
    ("cpu.split_feed_ms_per_query", "ms"),
    ("cpu.liveness_ms_per_query", "ms"),
    ("cpu.idle_cores", "cores"),
    ("host.steal_pct", "%"),
    ("worker.busy_share", "ratio"),
    ("mlfq.quanta_per_query", "count"),
    ("mlfq.demotions_per_query", "count"),
    ("mlfq.level0_busy_share", "ratio"),
    ("memory.revocations_per_query", "count"),
    ("memory.blocked_reservations_per_query", "count"),
    ("spill.mb_per_query", "MiB"),
    ("spill.events_per_query", "count"),
    ("exec.busy_ms_per_query", "ms"),
    ("exec.scan_busy_ms_per_query", "ms"),
    ("exec.join_build_busy_ms_per_query", "ms"),
    ("exec.join_probe_busy_ms_per_query", "ms"),
    ("exec.agg_busy_ms_per_query", "ms"),
    ("exec.exchange_busy_ms_per_query", "ms"),
    ("exec.writer_busy_ms_per_query", "ms"),
    ("exec.other_busy_ms_per_query", "ms"),
    ("exec.blocked_ms_per_query", "ms"),
    ("exec.scan_rows_per_busy_s", "rows/s"),
    ("fusion.fused_scan_row_share", "ratio"),
    ("dynfilter.rows_filtered_per_query", "count"),
    ("dynfilter.wait_ms_per_query", "ms"),
    ("shuffle.wire_mb_per_query", "MiB"),
    ("shuffle.compression_ratio", "ratio"),
    ("shuffle.exchange_mb_per_query", "MiB"),
    ("page.codec_mb_per_s", "MiB/s"),
    ("porc.read_mb_per_query", "MiB"),
    ("porc.stripes_read_per_query", "count"),
    ("porc.stripes_pruned_per_query", "count"),
    ("porc.footer_reads_per_query", "count"),
    ("porc.written_bytes_per_row", "B"),
    ("cache.metastore.hit_ratio", "ratio"),
    ("cache.footer.hit_ratio", "ratio"),
    ("cache.split.hit_ratio", "ratio"),
    ("trace.latency_overhead_pct", "%"),
    ("trace.throughput_overhead_pct", "%"),
    ("span.workload.next_query.self_us", "us"),
    ("span.cluster.execute.self_us", "us"),
    ("span.cluster.queued.self_us", "us"),
    ("span.cluster.planning.self_us", "us"),
    ("span.cluster.executing.self_us", "us"),
    ("span.page.rows.self_us", "us"),
    ("span.bench.verify.self_us", "us"),
];

/// The unit a metric is printed with.
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| *u)
}

/// Check `BENCHMARK.json` lists exactly the metrics and units this binary
/// prints, and the workload names it runs.
pub fn check_manifest(text: &str) -> Result<(), String> {
    let json = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    for (key, defined) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed: Vec<(String, String)> = json
            .field_arr(key)
            .map_err(|e| format!("BENCHMARK.json: {e}"))?
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                )
            })
            .collect();
        let mut want: Vec<(String, String)> = defined
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        let mut have = listed.clone();
        want.sort();
        have.sort();
        if want != have {
            let missing: Vec<_> = want.iter().filter(|m| !have.contains(m)).collect();
            let extra: Vec<_> = have.iter().filter(|m| !want.contains(m)).collect();
            return Err(format!(
                "BENCHMARK.json `{key}` disagrees with the benchmark: printed but not listed \
                 {missing:?}; listed but not printed {extra:?}"
            ));
        }
    }
    let mut workloads: Vec<String> = json
        .field_arr("workloads")
        .map_err(|e| format!("BENCHMARK.json: {e}"))?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    workloads.sort();
    let mut known: Vec<String> = crate::workload::NAMES
        .iter()
        .map(|s| s.to_string())
        .collect();
    known.sort();
    if workloads != known {
        return Err(format!(
            "BENCHMARK.json workloads {workloads:?} differ from the benchmark's {known:?}"
        ));
    }
    Ok(())
}

/// Samples of `n` strictly beyond the nearest-rank percentile `p`.
fn beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).min(n)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Counters read before and after a window.
pub struct Counters {
    process_cpu_s: f64,
    steal_ticks: (u64, u64),
    threads: ThreadSample,
    snapshot: ClusterSnapshot,
    io: [u64; 4],
    dynamic_filters: DynamicFilterMetrics,
    fusion: FusionMetrics,
}

impl Counters {
    pub fn take(fixture: &Fixture) -> Counters {
        let telemetry = fixture.cluster.telemetry();
        let io = fixture.hive.as_ref().map_or([0; 4], |h| {
            let s = h.io_stats();
            let get =
                |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed);
            [
                get(&s.bytes_read),
                get(&s.stripes_read),
                get(&s.stripes_pruned),
                get(&s.footer_reads),
            ]
        });
        Counters {
            process_cpu_s: procfs::process_cpu_s(),
            steal_ticks: procfs::steal_and_total_ticks(),
            threads: ThreadSample::take(),
            snapshot: fixture.cluster.metrics_snapshot(),
            io,
            dynamic_filters: telemetry.dynamic_filter_metrics(),
            fusion: telemetry.fusion_metrics(),
        }
    }

    pub fn process_cpu_since(&self, earlier: &Counters) -> f64 {
        self.process_cpu_s - earlier.process_cpu_s
    }
}

/// Latency and throughput summary of one window.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub attempted: u64,
    pub failed: u64,
    pub completed: u64,
    pub rows: u64,
    pub foreground_sorted_ms: Vec<f64>,
    pub background_sorted_ms: Vec<f64>,
    pub elapsed_s: f64,
    /// Process CPU seconds over the window.
    pub cpu_s: f64,
    pub first_errors: Vec<String>,
}

impl Summary {
    pub fn of(spec: &Spec, w: &WindowOut) -> Summary {
        let mut s = Summary {
            elapsed_s: w.elapsed.as_secs_f64(),
            cpu_s: w.cpu_s,
            ..Summary::default()
        };
        for sample in &w.samples {
            s.attempted += 1;
            let ms = sample.latency.as_secs_f64() * 1e3;
            match &sample.outcome {
                Outcome::Ok(rows) => {
                    s.completed += 1;
                    s.rows += rows;
                    if spec.streams[sample.stream].foreground {
                        s.foreground_sorted_ms.push(ms);
                    } else {
                        s.background_sorted_ms.push(ms);
                    }
                }
                Outcome::Wrong(e) | Outcome::Failed(e) => {
                    s.failed += 1;
                    if s.first_errors.len() < 5 {
                        s.first_errors.push(e.clone());
                    }
                }
            }
        }
        s.foreground_sorted_ms.sort_by(f64::total_cmp);
        s.background_sorted_ms.sort_by(f64::total_cmp);
        s
    }

    pub fn p50(&self) -> f64 {
        percentile(&self.foreground_sorted_ms, 0.5)
    }

    pub fn qps(&self) -> f64 {
        self.completed as f64 / self.elapsed_s.max(1e-9)
    }

    pub fn error_pct(&self) -> f64 {
        100.0 * self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Foreground samples strictly beyond the tail percentile.
    pub fn tail_beyond(&self, tail: f64) -> usize {
        beyond(self.foreground_sorted_ms.len(), tail)
    }
}

pub type Metrics = BTreeMap<&'static str, f64>;

/// The end-to-end metrics of an untraced window.
pub fn end_to_end(spec: &Spec, s: &Summary, setup_s: f64, peak_rss_mb: f64) -> Metrics {
    let mut m = Metrics::new();
    let secs = s.elapsed_s.max(1e-9);
    m.insert("latency_p50_ms", s.p50());
    m.insert(
        "latency_tail_ms",
        percentile(&s.foreground_sorted_ms, spec.tail),
    );
    let bg = if s.background_sorted_ms.is_empty() {
        &s.foreground_sorted_ms
    } else {
        &s.background_sorted_ms
    };
    m.insert("bg_latency_p50_ms", percentile(bg, 0.5));
    m.insert("throughput_qps", s.qps());
    m.insert("rows_per_s", s.rows as f64 / secs);
    m.insert(
        "cpu_ms_per_query",
        1e3 * s.cpu_s / s.completed.max(1) as f64,
    );
    m.insert("peak_rss_mb", peak_rss_mb);
    m.insert("setup_s", setup_s);
    m
}

/// Per-span count, total and self time (total minus direct children).
pub struct SpanRow {
    pub name: &'static str,
    pub count: u64,
    pub total_us: f64,
    pub self_us: f64,
}

pub fn span_table(spans: &[Span]) -> Vec<SpanRow> {
    let mut rows: Vec<SpanRow> = SPANS
        .iter()
        .map(|&name| SpanRow {
            name,
            count: 0,
            total_us: 0.0,
            self_us: 0.0,
        })
        .collect();
    let index = |name: &str| SPANS.iter().position(|s| *s == name);
    for s in spans {
        let us = s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3;
        if let Some(i) = index(s.name) {
            rows[i].count += 1;
            rows[i].total_us += us;
            rows[i].self_us += us;
        }
        if let Some(p) = s.parent.and_then(index) {
            rows[p].self_us -= us;
        }
    }
    rows
}

/// Inputs to the per-layer metrics, gathered by the traced run.
pub struct LayerInputs<'a> {
    pub fixture: &'a Fixture,
    /// The untraced counters window and the counters around it.
    pub window: &'a WindowOut,
    pub summary: &'a Summary,
    pub before: &'a Counters,
    pub after: &'a Counters,
    pub idle_cores: f64,
    /// The traced window.
    pub traced: &'a WindowOut,
    pub traced_summary: &'a Summary,
    pub codec_mb_per_s: f64,
}

pub fn per_layer(x: &LayerInputs) -> Metrics {
    let mut m = Metrics::new();
    let q = x.summary.completed.max(1) as f64;
    let per_q = |v: f64| v / q;
    let layers: Vec<&LayerSample> = x
        .window
        .samples
        .iter()
        .filter_map(|s| s.layer.as_ref())
        .collect();
    let med =
        |f: &dyn Fn(&LayerSample) -> f64| median(&layers.iter().map(|l| f(l)).collect::<Vec<_>>());
    let sum = |f: &dyn Fn(&LayerSample) -> f64| layers.iter().map(|l| f(l)).sum::<f64>();

    // Spans from the traced window.
    let table = span_table(&x.traced.spans);
    let mean_us = |name: &str| {
        table
            .iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.total_us / r.count.max(1) as f64)
    };
    m.insert("sql.parse_us", mean_us("sql.parse"));
    m.insert("planner.plan_us", mean_us("planner.plan"));
    // Self time per traced query of the spans not already reported above.
    let queries = x.traced_summary.attempted.max(1) as f64;
    for row in &table {
        let name = format!("span.{}.self_us", row.name);
        if let Some((listed, _)) = PER_LAYER.iter().find(|(n, _)| *n == name) {
            m.insert(listed, row.self_us / queries);
        }
    }

    // Coordinator phases, from query history.
    m.insert("cluster.queued_ms_p50", med(&|l| l.queued_ms));
    m.insert("cluster.planning_ms_p50", med(&|l| l.planning_ms));
    m.insert("cluster.executing_ms_p50", med(&|l| l.executing_ms));
    let handoff: f64 = x
        .window
        .samples
        .iter()
        .filter_map(|s| {
            s.layer
                .as_ref()
                .map(|l| s.latency.as_secs_f64() * 1e3 - l.wall_ms)
        })
        .sum();
    m.insert("client.handoff_ms", handoff / layers.len().max(1) as f64);

    // Real CPU by thread role.
    let process = x.after.process_cpu_since(x.before);
    let live = x.after.threads.since(&x.before.threads);
    let role = |r: Role| live.get(&r).copied().unwrap_or(0.0);
    let live_total: f64 = live.values().sum();
    let split_feed =
        (process - live_total - x.window.client_cpu_s).max(0.0) + role(Role::SplitFeed);
    m.insert(
        "cpu.coordinator_ms_per_query",
        per_q(1e3 * x.window.client_cpu_s),
    );
    m.insert(
        "cpu.executor_ms_per_query",
        per_q(1e3 * role(Role::Executor)),
    );
    m.insert("cpu.split_feed_ms_per_query", per_q(1e3 * split_feed));
    m.insert(
        "cpu.liveness_ms_per_query",
        per_q(1e3 * role(Role::Liveness)),
    );
    m.insert("cpu.idle_cores", x.idle_cores);
    let (steal, total) = (
        x.after.steal_ticks.0 - x.before.steal_ticks.0,
        x.after.steal_ticks.1 - x.before.steal_ticks.1,
    );
    m.insert("host.steal_pct", 100.0 * ratio(steal as f64, total as f64));

    // Workers and the MLFQ.
    let (a, b) = (&x.after.snapshot, &x.before.snapshot);
    let busy: u64 = a.workers.iter().map(|w| w.busy_nanos).sum::<u64>()
        - b.workers.iter().map(|w| w.busy_nanos).sum::<u64>();
    let threads = (crate::workload::WORKERS * crate::workload::THREADS_PER_WORKER) as f64;
    m.insert(
        "worker.busy_share",
        busy as f64 / 1e9 / (x.summary.elapsed_s.max(1e-9) * threads),
    );
    let levels = |s: &ClusterSnapshot,
                  f: &dyn Fn(&presto_cluster::mlfq::LevelSnapshot) -> u64,
                  only0: bool|
     -> u64 {
        s.workers
            .iter()
            .flat_map(|w| {
                w.scheduler
                    .levels
                    .iter()
                    .take(if only0 { 1 } else { usize::MAX })
            })
            .map(f)
            .sum()
    };
    let quanta = levels(a, &|l| l.quanta_granted, false) - levels(b, &|l| l.quanta_granted, false);
    m.insert("mlfq.quanta_per_query", per_q(quanta as f64));
    let demotions: u64 = a.workers.iter().map(|w| w.scheduler.demotions).sum::<u64>()
        - b.workers.iter().map(|w| w.scheduler.demotions).sum::<u64>();
    m.insert("mlfq.demotions_per_query", per_q(demotions as f64));
    let used = levels(a, &|l| l.used_nanos, false) - levels(b, &|l| l.used_nanos, false);
    let used0 = levels(a, &|l| l.used_nanos, true) - levels(b, &|l| l.used_nanos, true);
    m.insert("mlfq.level0_busy_share", ratio(used0 as f64, used as f64));

    // Memory arbitration and spill.
    let pool = |s: &ClusterSnapshot,
                f: &dyn Fn(&presto_cluster::memory::PoolSnapshot) -> i64|
     -> i64 { s.workers.iter().map(|w| f(&w.memory)).sum() };
    m.insert(
        "memory.revocations_per_query",
        per_q((pool(a, &|p| p.revocation_requests) - pool(b, &|p| p.revocation_requests)) as f64),
    );
    m.insert(
        "memory.blocked_reservations_per_query",
        per_q((pool(a, &|p| p.blocked_reservations) - pool(b, &|p| p.blocked_reservations)) as f64),
    );
    m.insert(
        "spill.mb_per_query",
        per_q(sum(&|l| l.spilled_bytes as f64) / MIB),
    );
    m.insert(
        "spill.events_per_query",
        per_q(sum(&|l| l.spill_events as f64)),
    );

    // Operators, by class of operator name.
    let busy_total = sum(&|l| l.busy_ms.iter().sum());
    m.insert("exec.busy_ms_per_query", per_q(busy_total));
    for (i, class) in OP_CLASSES.iter().enumerate() {
        let name = PER_LAYER
            .iter()
            .find(|(n, _)| *n == format!("exec.{class}_busy_ms_per_query"))
            .map_or("", |(n, _)| *n);
        m.insert(name, per_q(sum(&|l| l.busy_ms[i])));
    }
    m.insert("exec.blocked_ms_per_query", per_q(sum(&|l| l.blocked_ms)));
    let fused_rows = (x.after.fusion.scan_rows - x.before.fusion.scan_rows) as f64;
    let scan_rows = fused_rows + sum(&|l| l.unfused_scan_rows as f64);
    m.insert(
        "exec.scan_rows_per_busy_s",
        ratio(scan_rows, sum(&|l| l.busy_ms[0]) / 1e3),
    );
    m.insert("fusion.fused_scan_row_share", ratio(fused_rows, scan_rows));
    let (da, db) = (&x.after.dynamic_filters, &x.before.dynamic_filters);
    m.insert(
        "dynfilter.rows_filtered_per_query",
        per_q((da.rows_filtered - db.rows_filtered) as f64),
    );
    m.insert(
        "dynfilter.wait_ms_per_query",
        per_q((da.wait_nanos - db.wait_nanos) as f64 / 1e6),
    );

    // Shuffle and page codec.
    let wire = sum(&|l| l.wire_bytes as f64);
    m.insert("shuffle.wire_mb_per_query", per_q(wire / MIB));
    m.insert(
        "shuffle.compression_ratio",
        ratio(sum(&|l| l.logical_bytes as f64), wire),
    );
    m.insert(
        "shuffle.exchange_mb_per_query",
        per_q(sum(&|l| l.exchange_bytes as f64) / MIB),
    );
    m.insert("page.codec_mb_per_s", x.codec_mb_per_s);

    // PORC through the Hive connector.
    let io = |i: usize| (x.after.io[i] - x.before.io[i]) as f64;
    m.insert("porc.read_mb_per_query", per_q(io(0) / MIB));
    m.insert("porc.stripes_read_per_query", per_q(io(1)));
    m.insert("porc.stripes_pruned_per_query", per_q(io(2)));
    m.insert("porc.footer_reads_per_query", per_q(io(3)));
    let written = x.fixture.etl_written.iter().map(|w| w.0).sum::<u64>();
    m.insert(
        "porc.written_bytes_per_row",
        ratio(x.fixture.etl_bytes_on_disk() as f64, written as f64),
    );

    // Metadata cache layers.
    for (metric, layers) in [
        (
            "cache.metastore.hit_ratio",
            &["metastore_schema", "metastore_stats"][..],
        ),
        ("cache.footer.hit_ratio", &["porc_footer"][..]),
        ("cache.split.hit_ratio", &["split_listing"][..]),
    ] {
        let count = |s: &ClusterSnapshot, hits: bool| -> u64 {
            s.caches
                .iter()
                .filter(|c| layers.contains(&c.layer.as_str()))
                .map(|c| if hits { c.hits } else { c.hits + c.misses })
                .sum()
        };
        let hits = count(a, true) - count(b, true);
        let lookups = count(a, false) - count(b, false);
        m.insert(metric, ratio(hits as f64, lookups as f64));
    }

    // Tracing overhead: the traced half against the untraced half.
    let t = x.traced_summary;
    m.insert(
        "trace.latency_overhead_pct",
        100.0 * (ratio(t.p50(), x.summary.p50()) - 1.0),
    );
    m.insert(
        "trace.throughput_overhead_pct",
        100.0 * (ratio(x.summary.qps(), t.qps()) - 1.0),
    );
    m
}

const MIB: f64 = 1024.0 * 1024.0;

/// `a / b`, or 0 when `b` is 0 (a layer that saw nothing).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
