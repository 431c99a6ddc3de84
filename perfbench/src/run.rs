//! The closed-loop clients.
//!
//! Each stream gets one client thread (`client-<n>`) that calls
//! `Cluster::execute_with_session` back to back until the window ends,
//! checks every result against its reference, and records the latency it
//! observed. A traced window additionally times the benchmark's own calls
//! into each layer's public API as spans; untraced windows record none.

use crate::procfs;
use crate::workload::{inserted_rows, Expect, Fixture, Query};
use presto_cluster::QueryHistoryEntry;
use presto_page::Page;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Latencies and results only.
    Timed,
    /// Also read each query's history entry for the per-layer counters.
    Counters,
    /// Also record spans around the benchmark's calls into each layer.
    Traced,
}

/// Operator classes busy time is split into, by operator name.
pub const OP_CLASSES: [&str; 7] = [
    "scan",
    "join_build",
    "join_probe",
    "agg",
    "exchange",
    "writer",
    "other",
];

fn op_class(name: &str) -> usize {
    match name {
        "ScanFilterProject" | "FusedPipeline" | "FilterProject" => 0,
        "HashBuilder" => 1,
        "LookupJoin" | "IndexJoin" => 2,
        n if n.starts_with("Aggregate") => 3,
        "ExchangeSource" | "PartitionedOutput" | "LocalQueueSink" | "LocalQueueSource" => 4,
        "TableWriter" => 5,
        _ => 6,
    }
}

/// One query's engine-side numbers, from its query-history entry. The
/// engine's operator `cpu` is wall time inside quanta, so it is named
/// busy time here.
#[derive(Debug, Clone, Default)]
pub struct LayerSample {
    pub queued_ms: f64,
    pub planning_ms: f64,
    pub executing_ms: f64,
    pub wall_ms: f64,
    pub busy_ms: [f64; OP_CLASSES.len()],
    pub blocked_ms: f64,
    pub spilled_bytes: u64,
    pub spill_events: u64,
    pub wire_bytes: u64,
    pub logical_bytes: u64,
    pub exchange_bytes: u64,
    /// Rows leaving scans that did not run fused.
    pub unfused_scan_rows: u64,
}

impl LayerSample {
    fn of(e: &QueryHistoryEntry) -> LayerSample {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let mut s = LayerSample {
            queued_ms: ms(e.queued),
            planning_ms: ms(e.planning),
            executing_ms: ms(e.executing),
            wall_ms: ms(e.wall),
            ..LayerSample::default()
        };
        for t in &e.tasks {
            s.wire_bytes += t.output_wire_bytes;
            s.logical_bytes += t.output_logical_bytes;
            s.exchange_bytes += t.exchange_bytes_received;
            for op in &t.operators {
                s.busy_ms[op_class(op.name)] += ms(op.cpu);
                s.blocked_ms += ms(op.blocked);
                s.spilled_bytes += op.spilled_bytes;
                s.spill_events += op.spill_events;
                if op.name == "ScanFilterProject" {
                    s.unfused_scan_rows += op.output_rows;
                }
            }
        }
        s
    }
}

#[derive(Debug, Clone)]
pub enum Outcome {
    /// Verified; the rows it counts toward `rows_per_s`.
    Ok(u64),
    Wrong(String),
    Failed(String),
}

#[derive(Debug, Clone)]
pub struct Sample {
    pub stream: usize,
    pub latency: Duration,
    pub outcome: Outcome,
    pub layer: Option<LayerSample>,
}

/// A timed region of one query, in the cluster telemetry clock.
#[derive(Debug, Clone)]
pub struct Span {
    pub query: u64,
    pub client: usize,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Result pages kept from a traced window for the codec measurement.
const CODEC_SAMPLE_OUTPUTS: usize = 64;

#[derive(Default)]
pub struct WindowOut {
    pub samples: Vec<Sample>,
    pub elapsed: Duration,
    /// Process CPU seconds used from the start of the window until every
    /// client had stopped.
    pub cpu_s: f64,
    pub spans: Vec<Span>,
    pub pages: Vec<Page>,
    /// Rows each INSERT reported written and statements, per ETL target.
    pub inserted: Vec<(u64, u64)>,
    /// CPU seconds of the client threads, which exit inside the window.
    pub client_cpu_s: f64,
}

/// Run every stream's client for `duration`. `cursors` holds each
/// stream's position in its sequence and is advanced.
pub fn window(
    fixture: &Fixture,
    sequences: &[Vec<Query>],
    expects: &HashMap<String, Expect>,
    duration: Duration,
    mode: Mode,
    cursors: &mut [usize],
) -> WindowOut {
    let cpu_start_s = procfs::process_cpu_s();
    let started = Instant::now();
    let deadline = started + duration;
    let ids = AtomicU64::new(0);
    let outs: Vec<ClientOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = sequences
            .iter()
            .enumerate()
            .map(|(i, seq)| {
                let cursor = cursors[i];
                let ids = &ids;
                std::thread::Builder::new()
                    .name(format!("client-{i}"))
                    .spawn_scoped(scope, move || {
                        client(fixture, i, seq, expects, cursor, deadline, mode, ids)
                    })
                    .expect("spawn client thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut out = WindowOut {
        elapsed: started.elapsed(),
        cpu_s: procfs::process_cpu_s() - cpu_start_s,
        inserted: vec![(0, 0); crate::workload::ETL_TARGETS.len()],
        ..WindowOut::default()
    };
    for (i, c) in outs.into_iter().enumerate() {
        cursors[i] = c.cursor;
        out.samples.extend(c.samples);
        out.spans.extend(c.spans);
        out.pages.extend(c.pages);
        out.client_cpu_s += c.cpu_s;
        for (t, (rows, n)) in c.inserted.into_iter().enumerate() {
            out.inserted[t].0 += rows;
            out.inserted[t].1 += n;
        }
    }
    out
}

struct ClientOut {
    cursor: usize,
    samples: Vec<Sample>,
    spans: Vec<Span>,
    pages: Vec<Page>,
    inserted: Vec<(u64, u64)>,
    cpu_s: f64,
}

#[allow(clippy::too_many_arguments)]
fn client(
    fixture: &Fixture,
    stream: usize,
    seq: &[Query],
    expects: &HashMap<String, Expect>,
    mut cursor: usize,
    deadline: Instant,
    mode: Mode,
    ids: &AtomicU64,
) -> ClientOut {
    let cluster = &fixture.cluster;
    let session = &fixture.sessions[stream];
    let telemetry = cluster.telemetry();
    let traced = mode == Mode::Traced;
    let mut out = ClientOut {
        cursor,
        samples: Vec::new(),
        spans: Vec::new(),
        pages: Vec::new(),
        inserted: vec![(0, 0); crate::workload::ETL_TARGETS.len()],
        cpu_s: 0.0,
    };
    let mut outputs_kept = 0;
    while Instant::now() < deadline {
        let id = ids.fetch_add(1, Ordering::Relaxed);
        let mut span = |name, parent, start_ns, end_ns| {
            out.spans.push(Span {
                query: id,
                client: stream,
                name,
                parent,
                start_ns,
                end_ns,
            })
        };
        let t = telemetry.now_nanos();
        let q = &seq[cursor % seq.len()];
        cursor += 1;
        if traced {
            span("workload.next_query", None, t, telemetry.now_nanos());
            let t = telemetry.now_nanos();
            let statement = presto_sql::parse_statement(&q.sql);
            span("sql.parse", None, t, telemetry.now_nanos());
            if let Ok(statement) = statement {
                let t = telemetry.now_nanos();
                let _ = presto_planner::plan_statement(&statement, session, cluster.catalogs());
                span("planner.plan", None, t, telemetry.now_nanos());
            }
        }
        let exec_start = telemetry.now_nanos();
        let began = Instant::now();
        let result = cluster.execute_with_session(&q.sql, session);
        let latency = began.elapsed();
        let exec_end = telemetry.now_nanos();
        let (outcome, entry) = match result {
            Ok(output) => {
                let entry = (mode != Mode::Timed)
                    .then(|| cluster.query_history().get(output.query))
                    .flatten();
                let t = telemetry.now_nanos();
                let rows = output.rows();
                if traced {
                    span("page.rows", None, t, telemetry.now_nanos());
                }
                let t = telemetry.now_nanos();
                let checked = match expects.get(&q.sql) {
                    Some(expect) => expect.check(&rows),
                    None => Err("no reference answer".to_string()),
                };
                if traced {
                    span("bench.verify", None, t, telemetry.now_nanos());
                    if outputs_kept < CODEC_SAMPLE_OUTPUTS {
                        outputs_kept += 1;
                        out.pages.extend(output.pages);
                    }
                }
                if let Some(target) = q.etl_target {
                    out.inserted[target].0 += inserted_rows(&rows);
                    out.inserted[target].1 += 1;
                }
                let outcome = match checked {
                    Ok(n) => Outcome::Ok(n),
                    Err(e) => Outcome::Wrong(format!("`{}`: {e}", q.sql)),
                };
                (outcome, entry)
            }
            Err(e) => (Outcome::Failed(format!("`{}`: {e}", q.sql)), None),
        };
        if traced {
            span("cluster.execute", None, exec_start, exec_end);
            if let Some(e) = &entry {
                for (name, start, end) in phases(e) {
                    span(name, Some("cluster.execute"), start, end);
                }
            }
        }
        out.samples.push(Sample {
            stream,
            latency,
            outcome,
            layer: entry.as_deref().map(LayerSample::of),
        });
    }
    out.cursor = cursor;
    out.cpu_s = thread_cpu_s();
    out
}

/// The queued/planning/executing phases of one query, placed from its
/// lifecycle timestamps.
fn phases(e: &QueryHistoryEntry) -> Vec<(&'static str, u64, u64)> {
    let at = |state: &str| {
        e.events
            .iter()
            .find(|ev| ev.state == state)
            .map(|ev| ev.at_nanos)
    };
    let (Some(queued), Some(started)) = (at("queued"), at("started")) else {
        return Vec::new();
    };
    let planned = started + e.planning.as_nanos() as u64;
    let finished = e.finished_at_nanos.max(planned);
    vec![
        ("cluster.queued", queued, started),
        ("cluster.planning", started, planned),
        ("cluster.executing", planned, finished),
    ]
}

/// CPU seconds the calling thread has used.
fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .next()
                .and_then(|f| f.parse::<u64>().ok())
        })
        .map_or(0.0, |ns| ns as f64 / 1e9)
}
