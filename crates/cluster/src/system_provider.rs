//! The cluster side of the `system` catalog (§VII): implements
//! [`SystemStateProvider`] over live workers, telemetry, the trace ring,
//! and the query-history store, so `system.runtime.*` tables can be
//! scanned with ordinary SQL.
//!
//! Row layouts must match [`SystemTable::schema`] positionally — the
//! connector builds pages straight from these rows. Live and historical
//! state merge per table: `queries` shows queued/running queries from
//! telemetry plus finished/failed ones from history; `tasks` and
//! `operators` show live task snapshots (worker attributed) plus retained
//! summaries of completed queries (worker NULL — task placement is not
//! kept after completion).

use presto_common::{LatencySummary, TraceBuffer, Value};
use presto_connectors::system::{SystemStateProvider, SystemTable};
use std::sync::Arc;

use crate::history::QueryHistory;
use crate::telemetry::ClusterTelemetry;
use crate::worker::Worker;

/// Everything the system tables read from.
pub struct ClusterSystemState {
    workers: Vec<Arc<Worker>>,
    telemetry: ClusterTelemetry,
    history: Arc<QueryHistory>,
    trace: Option<Arc<TraceBuffer>>,
}

fn bigint(v: u64) -> Value {
    Value::Bigint(i64::try_from(v).unwrap_or(i64::MAX))
}

fn nanos(d: std::time::Duration) -> Value {
    bigint(d.as_nanos() as u64)
}

impl ClusterSystemState {
    pub fn new(
        workers: Vec<Arc<Worker>>,
        telemetry: ClusterTelemetry,
        history: Arc<QueryHistory>,
        trace: Option<Arc<TraceBuffer>>,
    ) -> Arc<ClusterSystemState> {
        Arc::new(ClusterSystemState {
            workers,
            telemetry,
            history,
            trace,
        })
    }

    /// `system.runtime.queries`: live queries from telemetry (history-only
    /// columns NULL), then finished/failed queries from the history store.
    fn queries(&self) -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        for (query, record) in self.telemetry.all_query_records() {
            if record.finished_at.is_some() {
                continue; // terminal: the history store owns the final row
            }
            let state = if record.started_at.is_some() {
                "running"
            } else {
                "queued"
            };
            rows.push(vec![
                bigint(query.0),
                Value::varchar(state),
                Value::Null,
                Value::Null,
                // Still in flight: queued time is "so far".
                bigint(record.queued_at.elapsed().as_nanos() as u64),
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
            ]);
        }
        for e in self.history.snapshot() {
            rows.push(vec![
                bigint(e.query.0),
                Value::varchar(e.state),
                e.error_tag.map_or(Value::Null, Value::varchar),
                e.error_message
                    .as_deref()
                    .map_or(Value::Null, Value::varchar),
                nanos(e.queued),
                nanos(e.planning),
                nanos(e.executing),
                nanos(e.cpu),
                nanos(e.wall),
                bigint(e.attempts as u64),
                bigint(e.retries() as u64),
                bigint(e.peak_memory_bytes),
                bigint(e.rows_returned),
            ]);
        }
        rows
    }

    /// `system.runtime.tasks`: live tasks per worker, then retained task
    /// summaries of completed queries.
    fn tasks(&self) -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        for w in &self.workers {
            for handle in w.live_tasks() {
                let stats = handle.task.stats_snapshot();
                rows.push(vec![
                    bigint(handle.id.stage.query.0),
                    bigint(handle.id.stage.stage as u64),
                    bigint(handle.id.task as u64),
                    bigint(w.node.0 as u64),
                    Value::varchar("running"),
                    nanos(stats.cpu_time),
                    bigint(stats.output_pages),
                    bigint(stats.output_wire_bytes),
                    bigint(stats.output_logical_bytes),
                    bigint(stats.exchange_bytes_received),
                ]);
            }
        }
        for e in self.history.snapshot() {
            for t in &e.tasks {
                rows.push(vec![
                    bigint(e.query.0),
                    bigint(t.stage as u64),
                    bigint(t.task as u64),
                    Value::Null,
                    Value::varchar(e.state),
                    nanos(t.cpu),
                    bigint(t.output_pages),
                    bigint(t.output_wire_bytes),
                    bigint(t.output_logical_bytes),
                    bigint(t.exchange_bytes_received),
                ]);
            }
        }
        rows
    }

    /// `system.runtime.operators`: the per-operator stats rollup, live and
    /// retained.
    fn operators(&self) -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        for w in &self.workers {
            for handle in w.live_tasks() {
                let stats = handle.task.stats_snapshot();
                for p in &stats.pipelines {
                    for op in &p.operators {
                        let s = &op.stats;
                        rows.push(vec![
                            bigint(handle.id.stage.query.0),
                            bigint(handle.id.stage.stage as u64),
                            bigint(handle.id.task as u64),
                            bigint(p.pipeline as u64),
                            Value::varchar(op.name),
                            bigint(s.input_rows),
                            bigint(s.input_bytes),
                            bigint(s.output_rows),
                            bigint(s.output_bytes),
                            nanos(s.cpu),
                            nanos(s.blocked_total()),
                            bigint(s.peak_user_memory_bytes + s.peak_system_memory_bytes),
                            bigint(s.counter("spilled_bytes").unwrap_or(0)),
                            bigint(s.counter("spill_events").unwrap_or(0)),
                        ]);
                    }
                }
            }
        }
        for e in self.history.snapshot() {
            for t in &e.tasks {
                for op in &t.operators {
                    rows.push(vec![
                        bigint(e.query.0),
                        bigint(t.stage as u64),
                        bigint(t.task as u64),
                        bigint(op.pipeline as u64),
                        Value::varchar(op.name),
                        bigint(op.input_rows),
                        bigint(op.input_bytes),
                        bigint(op.output_rows),
                        bigint(op.output_bytes),
                        nanos(op.cpu),
                        nanos(op.blocked),
                        bigint(op.peak_memory_bytes),
                        bigint(op.spilled_bytes),
                        bigint(op.spill_events),
                    ]);
                }
            }
        }
        rows
    }

    /// `system.runtime.memory_pools`: one row per (worker, pool). The
    /// system pool tracks cache retention — it has no separate peak or
    /// limit, so those columns read 0.
    fn memory_pools(&self) -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        for w in &self.workers {
            let p = w.pool.snapshot();
            let worker = bigint(w.node.0 as u64);
            for (name, used, peak, limit) in [
                ("general", p.general_used, p.peak_general, p.general_limit),
                (
                    "reserved",
                    p.reserved_used,
                    p.peak_reserved,
                    p.reserved_limit,
                ),
                ("system", p.system_used, 0, 0),
            ] {
                rows.push(vec![
                    worker.clone(),
                    Value::varchar(name),
                    Value::Bigint(used),
                    Value::Bigint(peak),
                    Value::Bigint(limit),
                    Value::Bigint(p.blocked_reservations),
                    Value::Bigint(p.revocation_requests),
                    bigint(p.active_queries as u64),
                ]);
            }
        }
        rows
    }

    /// `system.runtime.caches`: one row per registered cache layer.
    fn caches(&self) -> Vec<Vec<Value>> {
        self.telemetry
            .cache_counters_by_layer()
            .into_iter()
            .map(|(layer, c)| {
                vec![
                    Value::varchar(layer),
                    bigint(c.hits),
                    bigint(c.misses),
                    bigint(c.evictions),
                    bigint(c.inserts),
                    bigint(c.invalidations),
                    bigint(c.bytes),
                ]
            })
            .collect()
    }

    /// `system.runtime.dynamic_filters`: one row of cluster-lifetime
    /// totals.
    fn dynamic_filters(&self) -> Vec<Vec<Value>> {
        let m = self.telemetry.dynamic_filter_metrics();
        vec![vec![
            bigint(m.filters_published),
            bigint(m.splits_pruned),
            bigint(m.stripes_pruned),
            bigint(m.rows_filtered),
            bigint(m.wait_nanos),
        ]]
    }

    /// `system.runtime.trace_events`: the retained trace ring, one row per
    /// event, each carrying the current overwrite count so truncation is
    /// visible from SQL. Empty when tracing is disabled.
    fn trace_events(&self) -> Vec<Vec<Value>> {
        let Some(trace) = &self.trace else {
            return Vec::new();
        };
        let overwritten = bigint(trace.overwritten_events());
        trace
            .snapshot()
            .into_iter()
            .map(|e| {
                vec![
                    Value::varchar(e.kind.name()),
                    bigint(e.ts_nanos),
                    bigint(e.dur_nanos),
                    bigint(e.pid as u64),
                    bigint(e.tid as u64),
                    bigint(e.a),
                    bigint(e.b),
                    overwritten.clone(),
                ]
            })
            .collect()
    }

    /// `system.runtime.latencies`: the query-phase histograms and, beside
    /// them, the signal-to-quantum wake latency of blocked drivers.
    fn latencies(&self) -> Vec<Vec<Value>> {
        let phases = self.telemetry.latency_metrics();
        let row = |name: &str, s: LatencySummary| {
            vec![
                Value::varchar(name),
                bigint(s.count),
                bigint(s.p50_nanos),
                bigint(s.p95_nanos),
                bigint(s.p99_nanos),
                bigint(s.max_nanos),
            ]
        };
        vec![
            row("queued", phases.queued),
            row("planning", phases.planning),
            row("execution", phases.execution),
            row("wake", self.telemetry.wake_latency()),
        ]
    }
}

impl SystemStateProvider for ClusterSystemState {
    fn rows(&self, table: SystemTable) -> Vec<Vec<Value>> {
        match table {
            SystemTable::Queries => self.queries(),
            SystemTable::Tasks => self.tasks(),
            SystemTable::Operators => self.operators(),
            SystemTable::MemoryPools => self.memory_pools(),
            SystemTable::Caches => self.caches(),
            SystemTable::DynamicFilters => self.dynamic_filters(),
            SystemTable::TraceEvents => self.trace_events(),
            SystemTable::Latencies => self.latencies(),
        }
    }
}
