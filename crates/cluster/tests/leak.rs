//! Runtime state stays bounded under steady traffic: a finished query's
//! `QueryState`, task handles and compiled tasks are freed. Every
//! `TaskHandle` holds its query's state, so a zero live count for
//! `QueryState` means no task handle survived either.
//!
//! The only test in this binary: the live count is process-wide.

#![allow(clippy::unwrap_used)]

use presto_cluster::worker::QueryState;
use presto_cluster::{Cluster, ClusterConfig};
use presto_common::{DataType, Schema, Value};
use presto_connector::CatalogManager;
use presto_connectors::MemoryConnector;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn finished_queries_free_their_state_and_task_handles() {
    let mem = MemoryConnector::new();
    let schema = Schema::of(&[("k", DataType::Bigint), ("v", DataType::Bigint)]);
    let rows: Vec<Vec<Value>> = (0..200)
        .map(|i| vec![Value::Bigint(i % 20), Value::Bigint(i)])
        .collect();
    let pages = rows
        .chunks(50)
        .map(|chunk| presto_page::Page::from_rows(&schema, chunk))
        .collect();
    mem.load_table("t", schema, pages);
    let mut catalogs = CatalogManager::new();
    catalogs.register("memory", mem as Arc<dyn presto_connector::Connector>);
    let cluster = Cluster::start(ClusterConfig::test(), catalogs).unwrap();
    let queries = [
        "SELECT v FROM t WHERE k = 3",
        "SELECT k, SUM(v) FROM t GROUP BY k",
        "SELECT a.k, COUNT(*) FROM t a JOIN t b ON a.k = b.k GROUP BY a.k",
        "SELECT v FROM t LIMIT 5",
    ];
    let mut peak = 0;
    for i in 0..2000 {
        cluster.execute(queries[i % queries.len()]).unwrap();
        peak = peak.max(QueryState::live_count());
    }
    // Drivers of a finished query (LIMIT stragglers) retire shortly after
    // it returns; give them a moment.
    let deadline = Instant::now() + Duration::from_secs(10);
    while QueryState::live_count() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        QueryState::live_count(),
        0,
        "finished queries still hold state (peak {peak} live during the run)"
    );
    assert!(
        peak < 10,
        "live query states grew to {peak} over 2000 queries"
    );
    cluster.shutdown();
}
