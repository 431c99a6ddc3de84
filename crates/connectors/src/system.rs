//! The `system` catalog: the engine's own runtime state as SQL tables.
//!
//! Presto exposes cluster internals through `system.runtime.*` so the
//! engine that serves traffic can also interrogate itself — queries,
//! tasks, operators, memory pools, caches, dynamic filters, and the trace
//! timeline are all ordinary tables here, scannable with unmodified
//! SELECTs, joins, filters, and aggregations (§VII).
//!
//! The connector itself is stateless over a [`SystemStateProvider`]: the
//! cluster implements the provider against its live telemetry, workers,
//! query history, and trace buffer (`presto-cluster` depends on this
//! crate, not the other way around, so the provider trait lives here).
//! Split enumeration takes one consistent snapshot per scan and carries
//! the rows in the split payload; the page source then streams them out
//! in engine-sized pages, honoring column pruning and `target_page_rows`.

use presto_common::{DataType, PrestoError, Result, Schema, Value};
use presto_connector::{
    Connector, ConnectorMetadata, FixedSplitSource, PageSource, PageSourceFactory, ScanOptions,
    Split, SplitSource, TupleDomain,
};
use presto_page::Page;
use std::sync::Arc;

/// The tables of the `runtime` schema. Each maps to one provider snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemTable {
    /// One row per query: live (queued/running) from telemetry, finished/
    /// failed from the bounded query-history store.
    Queries,
    /// One row per task: live tasks across every worker plus retained
    /// tasks of historical queries.
    Tasks,
    /// One row per operator per task: the `OperatorStats` rollup.
    Operators,
    /// One row per (worker, pool) for general/reserved/system pools.
    MemoryPools,
    /// One row per registered cache layer.
    Caches,
    /// One row of cluster-lifetime dynamic-filtering totals.
    DynamicFilters,
    /// One row per event currently retained in the trace ring.
    TraceEvents,
    /// One row per cluster latency histogram: the query phases (queued,
    /// planning, execution) and the driver wake latency.
    Latencies,
}

impl SystemTable {
    pub const ALL: [SystemTable; 8] = [
        SystemTable::Queries,
        SystemTable::Tasks,
        SystemTable::Operators,
        SystemTable::MemoryPools,
        SystemTable::Caches,
        SystemTable::DynamicFilters,
        SystemTable::TraceEvents,
        SystemTable::Latencies,
    ];

    /// Table name as addressed through SQL: `system.<this>`, i.e. the
    /// `runtime` schema is folded into the name the connector sees.
    pub fn table_name(self) -> &'static str {
        match self {
            SystemTable::Queries => "runtime.queries",
            SystemTable::Tasks => "runtime.tasks",
            SystemTable::Operators => "runtime.operators",
            SystemTable::MemoryPools => "runtime.memory_pools",
            SystemTable::Caches => "runtime.caches",
            SystemTable::DynamicFilters => "runtime.dynamic_filters",
            SystemTable::TraceEvents => "runtime.trace_events",
            SystemTable::Latencies => "runtime.latencies",
        }
    }

    pub fn from_name(name: &str) -> Option<SystemTable> {
        SystemTable::ALL
            .into_iter()
            .find(|t| t.table_name() == name)
    }

    /// The fixed schema of this table.
    pub fn schema(self) -> Schema {
        use DataType::{Bigint, Varchar};
        match self {
            SystemTable::Queries => Schema::of(&[
                ("query_id", Bigint),
                ("state", Varchar),
                ("error_tag", Varchar),
                ("error_message", Varchar),
                ("queued_nanos", Bigint),
                ("planning_nanos", Bigint),
                ("execution_nanos", Bigint),
                ("cpu_nanos", Bigint),
                ("wall_nanos", Bigint),
                ("attempts", Bigint),
                ("retries", Bigint),
                ("peak_memory_bytes", Bigint),
                ("rows_returned", Bigint),
            ]),
            SystemTable::Tasks => Schema::of(&[
                ("query_id", Bigint),
                ("stage", Bigint),
                ("task", Bigint),
                ("worker", Bigint),
                ("state", Varchar),
                ("cpu_nanos", Bigint),
                ("output_pages", Bigint),
                ("output_wire_bytes", Bigint),
                ("output_logical_bytes", Bigint),
                ("exchange_bytes_received", Bigint),
            ]),
            SystemTable::Operators => Schema::of(&[
                ("query_id", Bigint),
                ("stage", Bigint),
                ("task", Bigint),
                ("pipeline", Bigint),
                ("operator", Varchar),
                ("input_rows", Bigint),
                ("input_bytes", Bigint),
                ("output_rows", Bigint),
                ("output_bytes", Bigint),
                ("cpu_nanos", Bigint),
                ("blocked_nanos", Bigint),
                ("peak_memory_bytes", Bigint),
                ("spilled_bytes", Bigint),
                ("spill_events", Bigint),
            ]),
            SystemTable::MemoryPools => Schema::of(&[
                ("worker", Bigint),
                ("pool", Varchar),
                ("used_bytes", Bigint),
                ("peak_bytes", Bigint),
                ("limit_bytes", Bigint),
                ("blocked_reservations", Bigint),
                ("revocation_requests", Bigint),
                ("active_queries", Bigint),
            ]),
            SystemTable::Caches => Schema::of(&[
                ("layer", Varchar),
                ("hits", Bigint),
                ("misses", Bigint),
                ("evictions", Bigint),
                ("inserts", Bigint),
                ("invalidations", Bigint),
                ("bytes", Bigint),
            ]),
            SystemTable::DynamicFilters => Schema::of(&[
                ("filters_published", Bigint),
                ("splits_pruned", Bigint),
                ("stripes_pruned", Bigint),
                ("rows_filtered", Bigint),
                ("wait_nanos", Bigint),
            ]),
            SystemTable::TraceEvents => Schema::of(&[
                ("kind", Varchar),
                ("ts_nanos", Bigint),
                ("dur_nanos", Bigint),
                ("pid", Bigint),
                ("tid", Bigint),
                ("a", Bigint),
                ("b", Bigint),
                ("overwritten_events", Bigint),
            ]),
            SystemTable::Latencies => Schema::of(&[
                ("histogram", Varchar),
                ("count", Bigint),
                ("p50_nanos", Bigint),
                ("p95_nanos", Bigint),
                ("p99_nanos", Bigint),
                ("max_nanos", Bigint),
            ]),
        }
    }
}

/// What the connector reads: a point-in-time row snapshot of one table.
/// Implemented by the cluster over its live runtime state; rows must match
/// [`SystemTable::schema`] positionally.
pub trait SystemStateProvider: Send + Sync {
    fn rows(&self, table: SystemTable) -> Vec<Vec<Value>>;
}

/// Split payload: the snapshot taken at enumeration time, so every page of
/// one scan reflects a single consistent instant even while the cluster
/// keeps mutating underneath.
struct SystemSplit {
    table: SystemTable,
    rows: Vec<Vec<Value>>,
}

/// The `system` catalog connector.
pub struct SystemConnector {
    provider: Arc<dyn SystemStateProvider>,
}

impl SystemConnector {
    pub fn new(provider: Arc<dyn SystemStateProvider>) -> Arc<SystemConnector> {
        Arc::new(SystemConnector { provider })
    }

    fn resolve(table: &str) -> Result<SystemTable> {
        SystemTable::from_name(table).ok_or_else(|| {
            PrestoError::user(format!("system table '{table}' does not exist"))
        })
    }
}

impl ConnectorMetadata for SystemConnector {
    fn list_tables(&self) -> Vec<String> {
        SystemTable::ALL
            .iter()
            .map(|t| t.table_name().to_string())
            .collect()
    }

    fn table_schema(&self, table: &str) -> Result<Schema> {
        Ok(Self::resolve(table)?.schema())
    }

    fn create_table(&self, table: &str, _schema: &Schema) -> Result<()> {
        Err(PrestoError::user(format!(
            "system catalog is read-only (cannot create '{table}')"
        )))
    }
}

impl Connector for SystemConnector {
    fn name(&self) -> &str {
        "system"
    }

    fn metadata(&self) -> &dyn ConnectorMetadata {
        self
    }

    fn split_source(
        &self,
        table: &str,
        _layout: &str,
        _predicate: &TupleDomain,
    ) -> Result<Box<dyn SplitSource>> {
        let t = Self::resolve(table)?;
        let rows = self.provider.rows(t);
        let estimated_rows = rows.len() as u64;
        let split = Split {
            catalog: "system".into(),
            table: table.to_string(),
            payload: Arc::new(SystemSplit { table: t, rows }),
            addresses: vec![],
            estimated_rows,
            bucket: None,
            domain: None,
            info: format!("{table}[snapshot {estimated_rows} rows]"),
        };
        Ok(Box::new(FixedSplitSource::new(vec![split])))
    }

    fn page_source_factory(&self) -> &dyn PageSourceFactory {
        self
    }
}

impl PageSourceFactory for SystemConnector {
    fn create_source(&self, split: &Split, options: &ScanOptions) -> Result<Box<dyn PageSource>> {
        let payload = split
            .payload
            .downcast_ref::<SystemSplit>()
            .ok_or_else(|| PrestoError::internal("system: foreign split"))?;
        let schema = payload.table.schema();
        let target = options.target_page_rows.max(1);
        let pages: Vec<Page> = payload
            .rows
            .chunks(target)
            .map(|chunk| Page::from_rows(&schema, chunk).project(&options.columns))
            .collect();
        Ok(Box::new(presto_connector::source::FixedPageSource::new(
            pages,
        )))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    /// Fixed rows for every table, sized `n` per table.
    struct StaticState {
        n: usize,
    }

    impl SystemStateProvider for StaticState {
        fn rows(&self, table: SystemTable) -> Vec<Vec<Value>> {
            let schema = table.schema();
            (0..self.n)
                .map(|i| {
                    (0..schema.len())
                        .map(|c| match schema.data_type(c) {
                            DataType::Varchar => Value::varchar(format!("s{i}")),
                            _ => Value::Bigint((i * 10 + c) as i64),
                        })
                        .collect()
                })
                .collect()
        }
    }

    fn connector(n: usize) -> Arc<SystemConnector> {
        SystemConnector::new(Arc::new(StaticState { n }))
    }

    #[test]
    fn lists_all_runtime_tables() {
        let c = connector(0);
        let tables = c.list_tables();
        assert_eq!(tables.len(), 8);
        assert!(tables.contains(&"runtime.queries".to_string()));
        for t in &tables {
            assert!(c.table_schema(t).is_ok());
        }
        assert!(c.table_schema("runtime.nope").is_err());
        assert!(c.create_table("t", &SystemTable::Queries.schema()).is_err());
    }

    #[test]
    fn scan_streams_snapshot_in_pages() {
        let c = connector(2500);
        let mut src = c
            .split_source("runtime.operators", "default", &TupleDomain::all())
            .unwrap();
        let splits = src.next_batch(16).unwrap();
        assert_eq!(splits.len(), 1, "one snapshot split per table");
        assert_eq!(splits[0].estimated_rows, 2500);
        let mut source = c
            .create_source(
                &splits[0],
                &ScanOptions {
                    columns: vec![4, 0],
                    target_page_rows: 1000,
                    ..Default::default()
                },
            )
            .unwrap();
        let mut rows = 0;
        let mut pages = 0;
        while let Some(page) = source.next_page().unwrap() {
            assert_eq!(page.column_count(), 2);
            assert!(page.row_count() <= 1000);
            assert!(page.block(0).str_at(0).starts_with('s'));
            rows += page.row_count();
            pages += 1;
        }
        assert_eq!(rows, 2500);
        assert_eq!(pages, 3, "chunked to target_page_rows");
    }

    #[test]
    fn every_schema_names_are_unique_and_nonempty() {
        for t in SystemTable::ALL {
            let s = t.schema();
            assert!(!s.is_empty());
            let mut names: Vec<&str> = s.fields().iter().map(|f| f.name.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), s.len(), "{t:?} has duplicate columns");
            assert_eq!(SystemTable::from_name(t.table_name()), Some(t));
        }
    }
}
